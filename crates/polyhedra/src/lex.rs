//! Lexicographic-order relations over schedule spaces.
//!
//! Schedule-space tuples are ordered lexicographically (Section IV-C of
//! the paper). Dependence legality and liveness both need this order as a
//! relation: `a <lex b` over `n` dimensions expands into a union of `n`
//! basic maps (`a_0 = b_0, ..., a_{j-1} = b_{j-1}, a_j < b_j`).
//!
//! The paper's second-order helper `ge_le` — which turns a mapping from
//! one schedule tuple to another into the set of all tuples between them —
//! is implemented by [`between_set`].

use crate::constraint::{Constraint, ConstraintKind};
use crate::linexpr::LinExpr;
use crate::map::{BasicMap, Map};
use crate::set::{BasicSet, Set};
use crate::space::Space;
use crate::system::System;

/// `{ a -> b : a <lex b }` over `n`-dimensional anonymous tuples.
pub fn lex_lt_map(n: usize) -> Map {
    let in_space = Space::anon(n);
    let out_space = Space::anon(n);
    let mut map = Map::empty(in_space.clone(), out_space.clone());
    for j in 0..n {
        let mut sys = System::universe(2 * n);
        for d in 0..j {
            // a_d = b_d
            let mut coeffs = vec![0i64; 2 * n];
            coeffs[d] = 1;
            coeffs[n + d] = -1;
            sys.add(Constraint::eq(LinExpr::new(&coeffs, 0)));
        }
        // a_j < b_j  <=>  b_j - a_j - 1 >= 0
        let mut coeffs = vec![0i64; 2 * n];
        coeffs[j] = -1;
        coeffs[n + j] = 1;
        sys.add(Constraint::ge0(LinExpr::new(&coeffs, -1)));
        map = map.union_basic(BasicMap {
            in_space: in_space.clone(),
            out_space: out_space.clone(),
            system: sys,
        });
    }
    map
}

/// `{ a -> b : a <=lex b }` over `n`-dimensional anonymous tuples.
pub fn lex_le_map(n: usize) -> Map {
    let n_space = Space::anon(n);
    let mut map = lex_lt_map(n);
    // Plus full equality.
    let mut sys = System::universe(2 * n);
    for d in 0..n {
        let mut coeffs = vec![0i64; 2 * n];
        coeffs[d] = 1;
        coeffs[n + d] = -1;
        sys.add(Constraint::eq(LinExpr::new(&coeffs, 0)));
    }
    map = map.union_basic(BasicMap {
        in_space: n_space.clone(),
        out_space: n_space,
        system: sys,
    });
    map
}

/// The paper's `ge_le ∘ I`: given an interval relation `iv : [w] -> [r]`
/// over `n`-dimensional schedule tuples, return
/// `{ x : ∃ (w, r) ∈ iv : w <=lex x <=lex r }` —
/// the set of schedule points at which a value written at `w` and read at
/// `r` is live.
///
/// Each part of `iv` expands into the lex splits that survive; the union
/// may still carry integer-empty parts, which [`Set::prune_empty`] drops.
pub fn between_set(iv: &Map, n: usize) -> Set {
    assert_eq!(iv.in_space.dim(), n);
    assert_eq!(iv.out_space.dim(), n);
    let space = Space::anon(n);
    let mut out = Set::empty(space.clone());
    for part in &iv.parts {
        // Push directly: the expansion holds only non-infeasible systems,
        // and `union_basic`'s clone-per-call would make this loop
        // quadratic in the accumulated union.
        for live in expand_part(&part.system, n) {
            out.parts.push(BasicSet::from_system(space.clone(), live));
        }
    }
    out.coalesce()
}

/// One part's `between_set` expansion: the `x`-systems of the surviving
/// lex-split combinations `(j1, j2)` — `w <=lex x` deciding at coordinate
/// `j1`, `x <=lex r` at `j2`, `n` meaning "equal throughout" — in
/// combination order.
///
/// Split `(j1, j2)` mentions only `w_0..=w_j1` and `r_0..=r_j2`, so the
/// trailing coordinates are projected out of the part once, in a table
/// of prefix projections ([`prefix`]) shared by every combination,
/// instead of once per combination. What is left per combination is
/// `j1 + j2` unit substitutions (`w_d = x_d`, `x_d = r_d`) and at most
/// two real eliminations (`w_j1`, `r_j2`).
fn expand_part(part: &System, n: usize) -> Vec<System> {
    let Some((lo, hi)) = part.propagate_bounds() else {
        return Vec::new();
    };
    // `[w_d] ∩ [r_d] = ∅` on the part's own interval bounds: no split
    // past the first such `d` can hold `w_d = x_d = r_d`.
    let above = |l: Option<i64>, h: Option<i64>| matches!((l, h), (Some(l), Some(h)) if l > h);
    let common = (0..n)
        .find(|&d| above(lo[d], hi[n + d]) || above(lo[n + d], hi[d]))
        .unwrap_or(n);
    let mut cells = vec![None; (n + 1) * (n + 1)];
    cells[(n + 1) * (n + 1) - 1] = Some(part.clone());
    let mut lives = Vec::new();
    for j1 in 0..=n {
        for j2 in 0..=n {
            // The first coordinate where either conjunct is strict needs
            // `w < x = r`, `w = x < r` or `w < x < r`: room for 1 or 2.
            let split = j1.min(j2);
            if split > common {
                continue;
            }
            let gap = if j1 == j2 { 2 } else { 1 };
            if split < n && above(lo[split].map(|l| l.saturating_add(gap)), hi[n + split]) {
                continue;
            }
            let (a, b) = ((j1 + 1).min(n), (j2 + 1).min(n));
            // Over (w_0..w_a, r_0..r_b, x): w at `d`, r at `a + d`, x at
            // `a + b + d`.
            let mut sys = prefix(&mut cells, n, a, b).insert_vars(a + b, n);
            let width = a + b + n;
            let mut relate = |kind: ConstraintKind, plus: usize, minus: usize, constant: i64| {
                let mut expr = LinExpr::var(width, plus);
                expr.coeffs[minus] = -1;
                expr.constant = constant;
                sys.add(Constraint { kind, expr });
            };
            for d in 0..j1 {
                relate(ConstraintKind::Eq, d, a + b + d, 0);
            }
            if j1 < n {
                relate(ConstraintKind::GeZero, a + b + j1, j1, -1);
            }
            for d in 0..j2 {
                relate(ConstraintKind::Eq, a + d, a + b + d, 0);
            }
            if j2 < n {
                relate(ConstraintKind::GeZero, a + j2, a + b + j2, -1);
            }
            let live = sys.eliminate_range(0, a + b);
            if !live.known_infeasible() {
                lives.push(live);
            }
        }
    }
    lives
}

/// Cell `(a, b)` of one interval part's table of prefix projections: the
/// part over `(w, r)` with only `w_0..w_a` and `r_0..r_b` kept and every
/// later coordinate projected out. Cells are built on demand, each by
/// eliminating one variable from its neighbour `(a, b + 1)` or
/// `(a + 1, b)`; cell `(n, n)` is the part itself.
fn prefix(cells: &mut [Option<System>], n: usize, a: usize, b: usize) -> &System {
    let at = a * (n + 1) + b;
    if cells[at].is_none() {
        // From `(n, n)`, first shorten the side that ends up shorter
        // (`w` on a tie), along the table's edge, then the other. The
        // splits that survive share their deciding coordinate, so their
        // cells lie on two such paths — about 4n steps in all.
        let cell = if b < n && (a <= b || a == n) {
            prefix(cells, n, a, b + 1).eliminate(a + b)
        } else {
            prefix(cells, n, a + 1, b).eliminate(a)
        };
        cells[at] = Some(cell);
    }
    cells[at].as_ref().expect("cell was just filled")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::LinExpr;

    #[test]
    fn lex_lt_orders_tuples() {
        let m = lex_lt_map(3);
        assert!(m.contains(&[0, 5, 9], &[1, 0, 0]));
        assert!(m.contains(&[1, 2, 3], &[1, 2, 4]));
        assert!(!m.contains(&[1, 2, 3], &[1, 2, 3]));
        assert!(!m.contains(&[2, 0, 0], &[1, 9, 9]));
    }

    #[test]
    fn lex_le_includes_equality() {
        let m = lex_le_map(2);
        assert!(m.contains(&[3, 3], &[3, 3]));
        assert!(m.contains(&[3, 3], &[3, 4]));
        assert!(!m.contains(&[3, 4], &[3, 3]));
    }

    #[test]
    fn lex_lt_is_total_on_distinct() {
        let m = lex_lt_map(2);
        for a in 0..3i64 {
            for b in 0..3i64 {
                for c in 0..3i64 {
                    for d in 0..3i64 {
                        let lt = m.contains(&[a, b], &[c, d]);
                        let gt = m.contains(&[c, d], &[a, b]);
                        if (a, b) == (c, d) {
                            assert!(!lt && !gt);
                        } else {
                            assert!(lt ^ gt, "exactly one of <, > must hold");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn between_single_interval() {
        // Interval [1,0] -> [3,0] over 2-dim tuples; live points with
        // first coord in 1..=3 and intermediate points unconstrained in
        // second coordinate except at the endpoints.
        let sp = Space::anon(2);
        let iv = Map::from_affine(
            Space::anon(0),
            sp.clone(),
            &[LinExpr::constant(0, 1), LinExpr::constant(0, 0)],
        );
        let to = Map::from_affine(
            Space::anon(0),
            sp,
            &[LinExpr::constant(0, 3), LinExpr::constant(0, 0)],
        );
        // Build iv as [w]->[r] with constant w=(1,0), r=(3,0):
        // compose reverse(from) with to: {(1,0)} x {(3,0)}
        let pair = iv.reverse().compose(&to);
        let live = between_set(&pair, 2);
        assert!(live.contains(&[1, 0]));
        assert!(live.contains(&[2, -100]));
        assert!(live.contains(&[2, 100]));
        assert!(live.contains(&[3, 0]));
        assert!(!live.contains(&[3, 1]));
        assert!(!live.contains(&[0, 99]));
        assert!(!live.contains(&[1, -1]));
        assert!(!live.contains(&[4, 0]));
    }

    #[test]
    fn between_disjoint_intervals_disjoint_sets() {
        let sp = Space::anon(1);
        let mk = |w: i64, r: i64| {
            let from = Map::from_affine(Space::anon(0), sp.clone(), &[LinExpr::constant(0, w)]);
            let to = Map::from_affine(Space::anon(0), sp.clone(), &[LinExpr::constant(0, r)]);
            from.reverse().compose(&to)
        };
        let a = between_set(&mk(0, 2), 1);
        let b = between_set(&mk(3, 5), 1);
        assert!(a.disjoint(&b));
        let c = between_set(&mk(2, 4), 1);
        assert!(!a.disjoint(&c));
    }
}
