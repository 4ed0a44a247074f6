//! The simulators' virtual clock.
//!
//! Time is kept in integer picoseconds so that event ordering, round
//! arithmetic and replay are exact and deterministic; [`crate::sim`] and
//! the stream scheduler compute in ticks and convert at the edges.

/// Simulation time in picoseconds.
pub type Time = u64;

/// Convert seconds to simulation time. A value the clock cannot hold
/// saturates (negative or NaN at 0, past the end at `u64::MAX`); a
/// user-supplied time goes through [`checked_secs`] instead.
pub fn secs(s: f64) -> Time {
    (s * 1e12).round() as Time
}

/// Convert seconds to simulation time, or `None` when the time is
/// negative, not a number, or past the clock's last tick (`u64::MAX`
/// picoseconds, about 213 days).
pub fn checked_secs(s: f64) -> Option<Time> {
    let t = (s * 1e12).round();
    // `u64::MAX as f64` rounds up to 2^64, the first tick past the end.
    (t >= 0.0 && t < u64::MAX as f64).then_some(t as Time)
}

/// Convert simulation time to seconds.
pub fn to_secs(t: Time) -> f64 {
    t as f64 * 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_roundtrip() {
        let t = secs(1.5e-3);
        assert!((to_secs(t) - 1.5e-3).abs() < 1e-15);
    }

    #[test]
    fn checked_secs_is_secs_inside_the_clock_and_none_outside() {
        for s in [0.0, -0.0, 1.5e-3, 1.0, 1e6, 1.8e7] {
            assert_eq!(checked_secs(s), Some(secs(s)), "{s}");
        }
        for s in [-1e-9, 1.85e7, 1e300, f64::INFINITY, f64::NAN] {
            assert_eq!(checked_secs(s), None, "{s}");
        }
    }
}
