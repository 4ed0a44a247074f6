//! Closed integer intervals: the one-dimensional bounds the flow reasons
//! about outside the polyhedral machinery.

/// A non-empty closed integer interval `[lo, hi]` — the 1-D constant
/// special case of a [`BasicSet`](crate::BasicSet), cheap enough for
/// interval reasoning outside the polyhedral machinery (liveness over
/// schedule stages, kernel-sequence live ranges, bounding-box
/// pre-checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedInterval {
    pub lo: i64,
    pub hi: i64,
}

impl ClosedInterval {
    /// The interval `[lo, hi]` (requires `lo <= hi`).
    pub fn new(lo: i64, hi: i64) -> ClosedInterval {
        assert!(lo <= hi, "empty interval [{lo}, {hi}]");
        ClosedInterval { lo, hi }
    }

    /// Number of integer points.
    pub fn points(&self) -> u64 {
        (self.hi - self.lo) as u64 + 1
    }

    /// Whether `v` lies inside.
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether the two intervals share no integer point.
    pub fn disjoint(&self, other: &ClosedInterval) -> bool {
        self.hi < other.lo || other.hi < self.lo
    }

    /// Whether the two intervals share at least one integer point.
    pub fn overlaps(&self, other: &ClosedInterval) -> bool {
        !self.disjoint(other)
    }

    /// Smallest interval covering both.
    pub fn hull(&self, other: &ClosedInterval) -> ClosedInterval {
        ClosedInterval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

#[cfg(test)]
mod interval_tests {
    use super::ClosedInterval;

    #[test]
    fn interval_relations() {
        let a = ClosedInterval::new(0, 2);
        let b = ClosedInterval::new(3, 3);
        let c = ClosedInterval::new(2, 5);
        assert!(a.disjoint(&b));
        assert!(!a.disjoint(&c));
        assert!(a.overlaps(&c));
        assert!(a.contains(0) && a.contains(2) && !a.contains(3));
        assert_eq!(a.points(), 3);
        assert_eq!(b.points(), 1);
        assert_eq!(a.hull(&b), ClosedInterval::new(0, 3));
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn empty_interval_rejected() {
        let _ = ClosedInterval::new(4, 3);
    }
}
