//! Integer sets over named spaces.
//!
//! A [`BasicSet`] is one integer polyhedron (conjunction of affine
//! constraints); a [`Set`] is a finite union of basic sets over the same
//! space. Unions arise from lexicographic-order expansion (see
//! [`crate::lex`]).

use crate::constraint::Constraint;
use crate::linexpr::LinExpr;
use crate::points::PointIter;
use crate::space::Space;
use crate::system::System;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::OnceLock;

/// A single integer polyhedron over a named space.
///
/// Carries a lazily computed, memoized bounding box (see
/// [`BasicSet::bounding_box`]); the cache is ignored by equality and
/// shared by clones, and never observable through the public API other
/// than as saved recomputation.
#[derive(Debug)]
pub struct BasicSet {
    pub space: Space,
    /// Crate-private so external code cannot mutate the system out from
    /// under the memoized projection cache; read through
    /// [`BasicSet::system`]. In-crate code must not mutate it after
    /// `projection()` has run.
    pub(crate) system: System,
    /// Cached projection sweep (suffix chain + bounding box); computed by
    /// one shared elimination sweep on first use.
    bbox: OnceLock<ProjectionCache>,
    /// Cached interval-propagation box: a sound over-approximation of
    /// the exact bounding box, much cheaper to compute (no elimination).
    /// Used by [`Set::disjoint`] to discard part pairs.
    qbox: OnceLock<Vec<Option<(i64, i64)>>>,
}

/// The memoized result of one suffix-elimination sweep over a system.
#[derive(Debug, Clone)]
pub(crate) struct ProjectionCache {
    /// `levels[d]`: the system with every dimension after `d` projected
    /// out (ranges over dims `0..=d`).
    pub(crate) levels: Vec<System>,
    /// Per-dimension `[lo, hi]` ranges; `None` when unbounded on either
    /// side, all `(1, 0)` when the set is empty.
    pub(crate) bbox: Vec<Option<(i64, i64)>>,
}

impl Clone for BasicSet {
    fn clone(&self) -> Self {
        let bbox = OnceLock::new();
        if let Some(b) = self.bbox.get() {
            let _ = bbox.set(b.clone());
        }
        let qbox = OnceLock::new();
        if let Some(q) = self.qbox.get() {
            let _ = qbox.set(q.clone());
        }
        BasicSet {
            space: self.space.clone(),
            system: self.system.clone(),
            bbox,
            qbox,
        }
    }
}

impl PartialEq for BasicSet {
    fn eq(&self, other: &Self) -> bool {
        self.space == other.space && self.system == other.system
    }
}

impl Eq for BasicSet {}

impl BasicSet {
    fn make(space: Space, system: System) -> Self {
        BasicSet {
            space,
            system,
            bbox: OnceLock::new(),
            qbox: OnceLock::new(),
        }
    }

    /// The full space (no constraints).
    pub fn universe(space: Space) -> Self {
        let system = System::universe(space.dim());
        BasicSet::make(space, system)
    }

    /// The empty set over `space`.
    pub fn empty(space: Space) -> Self {
        let system = System::infeasible(space.dim());
        BasicSet::make(space, system)
    }

    /// A rectangular domain: `bounds[d] = (lo, hi)` gives `lo <= x_d <= hi`
    /// (inclusive on both ends).
    pub fn boxed(space: Space, bounds: &[(i64, i64)]) -> Self {
        assert_eq!(space.dim(), bounds.len(), "bounds arity mismatch");
        let n = space.dim();
        let mut system = System::universe(n);
        for (d, &(lo, hi)) in bounds.iter().enumerate() {
            let x = LinExpr::var(n, d);
            system.add(Constraint::ge(&x, &LinExpr::constant(n, lo)));
            system.add(Constraint::le(&x, &LinExpr::constant(n, hi)));
        }
        BasicSet::make(space, system)
    }

    /// Build from raw equality rows `(coeffs, constant)` meaning
    /// `coeffs·x + constant = 0`.
    pub fn from_eqs(space: Space, eqs: &[(&[i64], i64)]) -> Self {
        let n = space.dim();
        let mut system = System::universe(n);
        for (coeffs, k) in eqs {
            assert_eq!(coeffs.len(), n);
            system.add(Constraint::eq(LinExpr::new(coeffs, *k)));
        }
        BasicSet::make(space, system)
    }

    /// Build from an arbitrary constraint system.
    pub fn from_system(space: Space, system: System) -> Self {
        assert_eq!(space.dim(), system.n_vars(), "system arity mismatch");
        BasicSet::make(space, system)
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.space.dim()
    }

    /// The constraint system (read-only: mutating it would invalidate
    /// the memoized projection cache).
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Intersection of two basic sets (same space).
    pub fn intersect(&self, other: &BasicSet) -> BasicSet {
        assert!(
            self.space.compatible(&other.space),
            "intersect: incompatible spaces {} vs {}",
            self.space,
            other.space
        );
        BasicSet::make(self.space.clone(), self.system.intersect(&other.system))
    }

    /// Add a constraint.
    pub fn constrain(&self, c: Constraint) -> BasicSet {
        let mut system = self.system.clone();
        system.add(c);
        // Deliberately a fresh cell: the cached box of `self` does not
        // apply to the tightened system.
        BasicSet::make(self.space.clone(), system)
    }

    /// Whether the set contains no integer points.
    pub fn is_empty(&self) -> bool {
        self.system.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, point: &[i64]) -> bool {
        self.system.holds(point)
    }

    /// Project out the trailing `count` dimensions (FM elimination). The
    /// resulting space keeps the same tuple name.
    pub fn project_out_trailing(&self, count: usize) -> BasicSet {
        let n = self.dim();
        assert!(count <= n);
        let system = self.system.eliminate_range(n - count, count);
        let space = Space {
            tuple: self.space.tuple.clone(),
            dims: self.space.dims[..n - count].to_vec(),
        };
        BasicSet::make(space, system)
    }

    /// Project out the leading `count` dimensions.
    pub fn project_out_leading(&self, count: usize) -> BasicSet {
        let n = self.dim();
        assert!(count <= n);
        let system = self.system.eliminate_range(0, count);
        let space = Space {
            tuple: self.space.tuple.clone(),
            dims: self.space.dims[count..].to_vec(),
        };
        BasicSet::make(space, system)
    }

    /// Iterate all integer points (small sets only; used in tests and for
    /// brute-force validation).
    pub fn points(&self) -> PointIter<'_> {
        PointIter::new(self)
    }

    /// The per-dimension `[lo, hi]` bounding box of the set (`None` for a
    /// dimension unbounded on either side; the canonical empty range
    /// `(1, 0)` everywhere when the set is empty). Computed on first use
    /// by **one shared elimination sweep** — a single suffix chain of
    /// single-variable projections instead of a full Fourier–Motzkin
    /// re-projection per dimension — and memoized for reuse by
    /// [`BasicSet::points`] and the lex machinery.
    ///
    /// The cache snapshots the system at first call; code that mutates
    /// `self.system` in place must not call this before mutating.
    pub fn bounding_box(&self) -> &[Option<(i64, i64)>] {
        &self.projection().bbox
    }

    /// The full memoized projection sweep (suffix chain + bounding box),
    /// shared by point enumeration and the bounding box.
    pub(crate) fn projection(&self) -> &ProjectionCache {
        self.bbox.get_or_init(|| compute_projection(&self.system))
    }

    /// A sound over-approximate bounding box from interval propagation —
    /// no elimination, so far cheaper than [`BasicSet::bounding_box`],
    /// at the price of possibly looser (or absent) bounds on dimensions
    /// coupled through multi-variable constraints. Memoized; used to
    /// discard part pairs in [`Set::disjoint`].
    pub(crate) fn quick_box(&self) -> &[Option<(i64, i64)>] {
        self.qbox
            .get_or_init(|| match self.system.propagate_bounds() {
                None => vec![Some((1, 0)); self.dim()],
                Some((lo, hi)) => lo
                    .into_iter()
                    .zip(hi)
                    .map(|(l, h)| match (l, h) {
                        (Some(l), Some(h)) => Some((l, h)),
                        _ => None,
                    })
                    .collect(),
            })
    }

    /// Rename the space (dimensionality must match).
    pub fn with_space(&self, space: Space) -> BasicSet {
        assert_eq!(space.dim(), self.dim());
        let out = BasicSet::make(space, self.system.clone());
        if let Some(b) = self.bbox.get() {
            let _ = out.bbox.set(b.clone());
        }
        out
    }
}

/// One shared suffix sweep over a system: `levels[d]` (the system with
/// all dimensions after `d` projected out) is built incrementally from
/// `levels[d+1]` by eliminating one variable, and the range of dimension
/// `d` then needs only the *leading* `d` eliminations of the
/// already-shrunk `levels[d]`.
fn compute_projection(sys: &System) -> ProjectionCache {
    let n = sys.n_vars();
    // Walk the suffix chain from the last dimension down; `cur` holds
    // levels[d] (dims 0..=d) at the top of each iteration.
    let mut levels = Vec::with_capacity(n);
    let mut cur = sys.clone();
    for d in (0..n).rev() {
        levels.push(cur.clone());
        if d > 0 {
            cur = cur.eliminate(d); // cheap arity shrink when infeasible
        }
    }
    levels.reverse(); // levels[d] over dims 0..=d
    let mut empty = sys.known_infeasible();
    let mut bbox: Vec<Option<(i64, i64)>> = Vec::with_capacity(n);
    for (d, lvl) in levels.iter().enumerate() {
        if empty || lvl.known_infeasible() {
            empty = true;
            bbox.push(Some((1, 0)));
            continue;
        }
        let one = lvl.eliminate_range(0, d);
        let r = if one.known_infeasible() {
            Some((1, 0))
        } else {
            single_var_range(&one)
        };
        if matches!(r, Some((lo, hi)) if lo > hi) {
            empty = true;
        }
        bbox.push(r);
    }
    // If any dimension came out empty the set is empty: canonicalize.
    if empty {
        bbox = vec![Some((1, 0)); n];
    }
    ProjectionCache { levels, bbox }
}

/// Whether two bounding boxes certainly share no point: some dimension
/// has both ranges known and non-overlapping. (`None` ranges are
/// unbounded and never separate; the canonical empty box `(1, 0)` is
/// disjoint from everything.)
fn boxes_disjoint(a: &[Option<(i64, i64)>], b: &[Option<(i64, i64)>]) -> bool {
    a.iter().zip(b).any(|(ra, rb)| match (ra, rb) {
        (Some((alo, ahi)), Some((blo, bhi))) => alo.max(blo) > ahi.min(bhi),
        _ => false,
    })
}

/// Extract `[lo, hi]` of the single remaining variable of a projected
/// one-dimensional system; `None` when unbounded on either side.
fn single_var_range(sys: &System) -> Option<(i64, i64)> {
    use crate::constraint::ConstraintKind;
    let mut lo: Option<i64> = None;
    let mut hi: Option<i64> = None;
    for c in sys.constraints() {
        let a = c.expr.coeffs[0];
        let k = c.expr.constant;
        match c.kind {
            ConstraintKind::Eq => {
                // a*x + k = 0; normalized a > 0 and a | k.
                let v = -k / a;
                lo = Some(lo.map_or(v, |l| l.max(v)));
                hi = Some(hi.map_or(v, |h| h.min(v)));
            }
            ConstraintKind::GeZero => {
                if a > 0 {
                    // x >= ceil(-k / a); normalization makes a == 1.
                    let v = -(k.div_euclid(a));
                    lo = Some(lo.map_or(v, |l| l.max(v)));
                } else if a < 0 {
                    let v = k.div_euclid(-a);
                    hi = Some(hi.map_or(v, |h| h.min(v)));
                }
            }
        }
    }
    match (lo, hi) {
        (Some(l), Some(h)) => Some((l, h)),
        _ => None,
    }
}

impl fmt::Display for BasicSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cs: Vec<String> = self
            .system
            .constraints()
            .iter()
            .map(|c| c.display(&self.space.dims))
            .collect();
        if self.system.known_infeasible() {
            write!(f, "{{ {} : false }}", self.space)
        } else if cs.is_empty() {
            write!(f, "{{ {} }}", self.space)
        } else {
            write!(f, "{{ {} : {} }}", self.space, cs.join(" and "))
        }
    }
}

/// A finite union of basic sets over a common space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Set {
    pub space: Space,
    pub parts: Vec<BasicSet>,
}

impl Set {
    /// The empty set.
    pub fn empty(space: Space) -> Self {
        Set {
            space,
            parts: Vec::new(),
        }
    }

    /// The universe set.
    pub fn universe(space: Space) -> Self {
        let u = BasicSet::universe(space.clone());
        Set {
            space,
            parts: vec![u],
        }
    }

    /// A set from one basic set.
    pub fn from_basic(bs: BasicSet) -> Self {
        Set {
            space: bs.space.clone(),
            parts: vec![bs],
        }
    }

    /// Union (concatenation of parts, dropping known-empty ones).
    pub fn union(&self, other: &Set) -> Set {
        assert!(self.space.compatible(&other.space));
        let mut parts = self.parts.clone();
        parts.extend(other.parts.iter().cloned());
        Set {
            space: self.space.clone(),
            parts,
        }
        .coalesce()
    }

    /// Add one basic set.
    pub fn union_basic(&self, bs: BasicSet) -> Set {
        let mut out = self.clone();
        if !bs.system.known_infeasible() {
            out.parts.push(bs);
        }
        out
    }

    /// Pairwise intersection of the unions.
    pub fn intersect(&self, other: &Set) -> Set {
        assert!(self.space.compatible(&other.space));
        let mut parts = Vec::new();
        for a in &self.parts {
            for b in &other.parts {
                let c = a.intersect(b);
                if !c.system.known_infeasible() && !c.system.quick_infeasible() {
                    parts.push(c);
                }
            }
        }
        Set {
            space: self.space.clone(),
            parts,
        }
        .coalesce()
    }

    /// Whether the union is empty (every part empty).
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|p| p.is_empty())
    }

    /// Whether two sets share no integer point.
    ///
    /// Equivalent to `self.intersect(other).is_empty()` but never builds
    /// the intersection union: part pairs whose memoized propagation
    /// boxes miss each other are skipped outright (the boxes are shared
    /// across every `disjoint` call on the same set — the compatibility
    /// graph asks O(arrays) questions of each live set), and the first
    /// non-empty pairwise intersection short-circuits the answer.
    pub fn disjoint(&self, other: &Set) -> bool {
        for a in &self.parts {
            for b in &other.parts {
                if boxes_disjoint(a.quick_box(), b.quick_box()) {
                    continue;
                }
                let sys = a.system.intersect(&b.system);
                if !sys.is_empty() {
                    return false;
                }
            }
        }
        true
    }

    /// Membership test.
    pub fn contains(&self, point: &[i64]) -> bool {
        self.parts.iter().any(|p| p.contains(point))
    }

    /// Drop parts whose systems are already known infeasible (cheap) and
    /// deduplicate identical parts, keeping each first occurrence.
    pub fn coalesce(mut self) -> Set {
        let keep: Vec<bool> = {
            let mut seen = HashSet::with_capacity(self.parts.len());
            self.parts
                .iter()
                .map(|p| !p.system.known_infeasible() && seen.insert((&p.space, &p.system)))
                .collect()
        };
        let mut keep = keep.into_iter();
        self.parts.retain(|_| keep.next() == Some(true));
        self
    }

    /// Drop parts that are fully empty (runs the emptiness oracle per
    /// part — more expensive than [`Set::coalesce`] but produces a
    /// minimal union).
    ///
    /// Unions built by join loops (e.g. `between_set`) routinely carry
    /// structurally identical disjuncts, so each distinct system is
    /// decided at most once per call here.
    pub fn prune_empty(mut self) -> Set {
        let keep: Vec<bool> = {
            let mut decided = HashMap::new();
            self.parts
                .iter()
                .map(|p| !*decided.entry(&p.system).or_insert_with(|| p.is_empty()))
                .collect()
        };
        let mut keep = keep.into_iter();
        self.parts.retain(|_| keep.next() == Some(true));
        self
    }

    /// Project out trailing dimensions of every part.
    pub fn project_out_trailing(&self, count: usize) -> Set {
        let parts: Vec<BasicSet> = self
            .parts
            .iter()
            .map(|p| p.project_out_trailing(count))
            .collect();
        let space = Space {
            tuple: self.space.tuple.clone(),
            dims: self.space.dims[..self.space.dim() - count].to_vec(),
        };
        Set { space, parts }.coalesce()
    }

    /// Enumerate the integer points of all parts (deduplicated).
    pub fn points_vec(&self) -> Vec<Vec<i64>> {
        let mut out: Vec<Vec<i64>> = Vec::new();
        for p in &self.parts {
            for pt in p.points() {
                if !out.contains(&pt) {
                    out.push(pt);
                }
            }
        }
        out
    }
}

impl fmt::Display for Set {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.parts.is_empty() {
            return write!(f, "{{ {} : false }}", self.space);
        }
        let parts: Vec<String> = self.parts.iter().map(|p| p.to_string()).collect();
        write!(f, "{}", parts.join(" ∪ "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp2() -> Space {
        Space::set("t", &["i", "j"])
    }

    #[test]
    fn boxed_counts_points() {
        let b = BasicSet::boxed(sp2(), &[(0, 2), (0, 3)]);
        assert_eq!(b.points().count(), 12);
    }

    #[test]
    fn empty_box_when_bounds_cross() {
        let b = BasicSet::boxed(sp2(), &[(3, 2), (0, 3)]);
        assert!(b.is_empty());
    }

    #[test]
    fn intersect_box() {
        let a = BasicSet::boxed(sp2(), &[(0, 5), (0, 5)]);
        let b = BasicSet::boxed(sp2(), &[(3, 8), (3, 8)]);
        let c = a.intersect(&b);
        assert_eq!(c.points().count(), 9); // 3..=5 × 3..=5
    }

    #[test]
    fn project_out_trailing_box() {
        let b = BasicSet::boxed(sp2(), &[(0, 4), (2, 3)]);
        let p = b.project_out_trailing(1);
        assert_eq!(p.dim(), 1);
        assert_eq!(p.points().count(), 5);
    }

    #[test]
    fn project_out_leading_box() {
        let b = BasicSet::boxed(sp2(), &[(0, 4), (2, 3)]);
        let p = b.project_out_leading(1);
        assert_eq!(p.dim(), 1);
        assert_eq!(p.points().count(), 2);
    }

    #[test]
    fn union_and_disjoint() {
        let a = Set::from_basic(BasicSet::boxed(sp2(), &[(0, 1), (0, 1)]));
        let b = Set::from_basic(BasicSet::boxed(sp2(), &[(5, 6), (5, 6)]));
        assert!(a.disjoint(&b));
        let u = a.union(&b);
        assert_eq!(u.points_vec().len(), 8);
        assert!(!u.disjoint(&a));
    }

    #[test]
    fn set_intersect_unions() {
        let a = Set::from_basic(BasicSet::boxed(sp2(), &[(0, 3), (0, 3)]))
            .union_basic(BasicSet::boxed(sp2(), &[(10, 12), (10, 12)]));
        let b = Set::from_basic(BasicSet::boxed(sp2(), &[(2, 11), (2, 11)]));
        let c = a.intersect(&b);
        // (2..=3 × 2..=3) plus (10..=11 × 10..=11)
        assert_eq!(c.points_vec().len(), 8);
    }

    #[test]
    fn diagonal_constraint() {
        let d = BasicSet::from_eqs(sp2(), &[(&[1, -1], 0)]);
        let b = BasicSet::boxed(sp2(), &[(0, 10), (0, 10)]);
        assert_eq!(b.intersect(&d).points().count(), 11);
    }

    #[test]
    fn display_formats() {
        let b = BasicSet::boxed(Space::set("t", &["i"]), &[(0, 10)]);
        let s = b.to_string();
        assert!(s.contains("t[i]"), "{s}");
        assert!(s.contains("i >= 0") || s.contains("i - 0 >= 0"), "{s}");
    }

    #[test]
    fn prune_empty_removes_hidden_empties() {
        // Part is rationally constrained but integer-empty after FM.
        let mut sys = System::universe(1);
        sys.add(Constraint::ge0(LinExpr::new(&[1], -5)));
        sys.add(Constraint::ge0(LinExpr::new(&[-1], 4)));
        let hidden = BasicSet::from_system(Space::set("t", &["i"]), sys);
        let live = BasicSet::boxed(Space::set("t", &["i"]), &[(0, 1)]);
        let s = Set::from_basic(hidden).union_basic(live).prune_empty();
        assert_eq!(s.parts.len(), 1);
    }
}
