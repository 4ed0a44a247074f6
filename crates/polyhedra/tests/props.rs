//! Property-based validation of the polyhedral engine against brute force.

use polyhedra::{BasicMap, BasicSet, Constraint, LinExpr, Map, Set, Space, System};
use proptest::prelude::*;

/// Strategy: a random box over `n` dims with small bounds.
fn small_box(n: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((-4i64..5, -4i64..5), n).prop_map(|v| {
        v.into_iter()
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect::<Vec<_>>()
    })
}

/// Strategy: a random affine constraint over `n` dims with coefficients in
/// {-1, 0, 1} — the (near-)unimodular class on which FM projection with
/// integer tightening is exact, which is exactly the class the CFDlang
/// flow produces for iteration and schedule dimensions. (Layout systems
/// add large strides but always through unit-coefficient equalities; see
/// `layout_strides_stay_exact` below.)
fn small_constraint(n: usize) -> impl Strategy<Value = Constraint> {
    (
        proptest::collection::vec(-1i64..2, n),
        -5i64..6,
        proptest::bool::ANY,
    )
        .prop_map(|(coeffs, k, is_eq)| {
            let e = LinExpr::new(&coeffs, k);
            if is_eq {
                Constraint::eq(e)
            } else {
                Constraint::ge0(e)
            }
        })
}

fn space(n: usize) -> Space {
    Space::named("s", n)
}

/// One interval part `[w] -> [r]` over `n`-dimensional schedule tuples,
/// shaped like the ones liveness builds, with the box that holds all of
/// its `(w, r)` points.
#[derive(Debug)]
struct IntervalPart {
    n: usize,
    system: System,
    /// Inclusive range of each of the `2n` coordinates `(w, r)`.
    ranges: Vec<(i64, i64)>,
}

/// Strategy: `n` in `1..=3`; every coordinate boxed to at most three
/// values or (one time in four) pinned by an equality; and, where three
/// distinct coordinates are drawn, one row-major layout row
/// `t = stride * i + j` with `j` filling `0..stride` (so the flat range
/// is dense, as a layout's is) and `t` bounded by the row alone.
fn interval_part() -> impl Strategy<Value = IntervalPart> {
    (
        1usize..4,
        proptest::collection::vec((-2i64..3, 0i64..3, 0u32..4), 6),
        2i64..8,
        proptest::collection::vec(0usize..6, 3),
    )
        .prop_map(|(n, coords, stride, roles)| {
            let vars = 2 * n;
            let mut ranges: Vec<(i64, i64)> = coords[..vars]
                .iter()
                .map(|&(lo, extent, _)| (lo, lo + extent))
                .collect();
            let mut system = System::universe(vars);
            let (t, i, j) = (roles[0] % vars, roles[1] % vars, roles[2] % vars);
            let layout = t != i && t != j && i != j;
            if layout {
                ranges[i] = (0, coords[i].1);
                ranges[j] = (0, stride - 1);
                ranges[t] = (0, stride * coords[i].1 + stride - 1);
                let mut coeffs = vec![0i64; vars];
                coeffs[t] = 1;
                coeffs[i] = -stride;
                coeffs[j] = -1;
                system.add(Constraint::eq(LinExpr::new(&coeffs, 0)));
            }
            for v in 0..vars {
                let (lo, hi) = ranges[v];
                if layout && v == t {
                    continue;
                }
                let (x, at) = (LinExpr::var(vars, v), |k| LinExpr::constant(vars, k));
                if coords[v].2 == 0 {
                    ranges[v] = (lo, lo);
                    system.add(Constraint::eq_exprs(&x, &at(lo)));
                } else {
                    system.add(Constraint::ge(&x, &at(lo)));
                    system.add(Constraint::le(&x, &at(hi)));
                }
            }
            IntervalPart { n, system, ranges }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FM projection of the trailing dim equals the brute-force shadow.
    #[test]
    fn projection_matches_bruteforce(bounds in small_box(3), c in small_constraint(3)) {
        let b = BasicSet::boxed(space(3), &bounds).constrain(c);
        let projected = b.project_out_trailing(1);
        // Brute-force shadow of the integer points.
        let mut shadow: Vec<Vec<i64>> = Vec::new();
        for p in b.points() {
            let q = p[..2].to_vec();
            if !shadow.contains(&q) { shadow.push(q); }
        }
        // Every shadow point is in the projection.
        for q in &shadow {
            prop_assert!(projected.contains(q), "missing shadow point {q:?}");
        }
        // Every projected point within the box bounds is a shadow point
        // (FM must not over-approximate on this unimodular class).
        let bb = BasicSet::boxed(space(2), &bounds[..2]);
        for q in bb.points() {
            if projected.contains(&q) {
                prop_assert!(shadow.contains(&q), "FM over-approximated at {q:?}");
            }
        }
    }

    /// Eliminating one variable leaves the brute-force shadow, whichever
    /// way `System::eliminate` takes: the variable only boxed or pinned
    /// (bounds checked, rows dropped — crossing bounds included), or
    /// coupled to the others by one more row (substituted or paired).
    #[test]
    fn eliminate_matches_bruteforce(
        dims in proptest::collection::vec((-4i64..5, -1i64..3, proptest::bool::ANY), 3),
        c in small_constraint(3),
        coupled in proptest::bool::ANY,
        var in 0usize..3,
    ) {
        let mut sys = System::universe(3);
        for (v, &(lo, extent, pinned)) in dims.iter().enumerate() {
            let x = LinExpr::var(3, v);
            if pinned {
                sys.add(Constraint::eq_exprs(&x, &LinExpr::constant(3, lo)));
            } else {
                sys.add(Constraint::ge(&x, &LinExpr::constant(3, lo)));
                sys.add(Constraint::le(&x, &LinExpr::constant(3, lo + extent)));
            }
        }
        if coupled {
            sys.add(c);
        }
        let projected = sys.eliminate(var);
        let probe = [(-5, 7); 3];
        let shadow: Vec<Vec<i64>> = BasicSet::boxed(space(3), &probe)
            .points()
            .filter(|p| sys.holds(p))
            .map(|mut p| { p.remove(var); p })
            .collect();
        for q in BasicSet::boxed(space(2), &probe[..2]).points() {
            prop_assert_eq!(projected.holds(&q), shadow.contains(&q), "at {:?} of {:?}", q, sys);
        }
    }

    /// Emptiness agrees with brute-force point search. Besides random
    /// boxed systems, two inputs pin integer tightening, where the
    /// rational relaxation is feasible but the integer question is not:
    /// the rational-vertex family `d·x = k, lo <= x <= hi, y = x`
    /// (integral iff `d | k`), and `{2j = i, i = 1}`, rationally feasible
    /// at `(1, 1/2)` but integer-empty. Both go through `is_empty` and
    /// through FM elimination alone.
    #[test]
    fn emptiness_matches_bruteforce(
        bounds in small_box(3),
        c1 in small_constraint(3),
        c2 in small_constraint(3),
        d in 2i64..5,
        k in -6i64..7,
        lo in -4i64..1,
        hi in 0i64..5,
    ) {
        let b = BasicSet::boxed(space(3), &bounds).constrain(c1).constrain(c2);
        let brute_empty = b.points().next().is_none();
        prop_assert_eq!(b.is_empty(), brute_empty);

        let mut vertex = System::universe(2);
        vertex.extend([
            Constraint::eq(LinExpr::new(&[d, 0], -k)),
            Constraint::ge0(LinExpr::new(&[1, 0], -lo)),
            Constraint::ge0(LinExpr::new(&[-1, 0], hi)),
            Constraint::eq(LinExpr::new(&[1, -1], 0)),
        ]);
        let mut half = System::universe(2);
        half.extend([
            Constraint::eq(LinExpr::new(&[-1, 2], 0)),
            Constraint::eq(LinExpr::new(&[1, 0], -1)),
        ]);
        let probe = BasicSet::boxed(space(2), &[(-8, 8), (-8, 8)]);
        for sys in [vertex, half] {
            let brute_empty = !probe.points().any(|p| sys.holds(&p));
            prop_assert_eq!(sys.is_empty(), brute_empty, "{:?}", sys);
            prop_assert_eq!(sys.eliminate_range(0, 2).known_infeasible(), brute_empty, "{:?}", sys);
        }
    }

    /// Intersection is commutative and sound w.r.t. membership.
    #[test]
    fn intersection_commutes(b1 in small_box(2), b2 in small_box(2)) {
        let a = BasicSet::boxed(space(2), &b1);
        let b = BasicSet::boxed(space(2), &b2);
        let ab = a.intersect(&b);
        let ba = b.intersect(&a);
        for p in BasicSet::boxed(space(2), &[(-4, 4), (-4, 4)]).points() {
            prop_assert_eq!(ab.contains(&p), a.contains(&p) && b.contains(&p));
            prop_assert_eq!(ab.contains(&p), ba.contains(&p));
        }
    }

    /// Set disjointness agrees with brute force.
    #[test]
    fn disjointness_matches_bruteforce(b1 in small_box(2), b2 in small_box(2)) {
        let a = Set::from_basic(BasicSet::boxed(space(2), &b1));
        let b = Set::from_basic(BasicSet::boxed(space(2), &b2));
        let brute = !b1.iter().zip(&b2).any(|_| false) && {
            let mut overlap = false;
            for p in a.parts[0].points() {
                if b.contains(&p) { overlap = true; break; }
            }
            !overlap
        };
        prop_assert_eq!(a.disjoint(&b), brute);
    }

    /// Affine map application: image membership agrees with evaluation.
    #[test]
    fn map_apply_matches_eval(
        bounds in small_box(2),
        coeffs in proptest::collection::vec(-2i64..3, 2),
        k in -5i64..6,
    ) {
        let e = LinExpr::new(&coeffs, k);
        let m = Map::from_affine(space(2), Space::named("o", 1), std::slice::from_ref(&e));
        let dom = Set::from_basic(BasicSet::boxed(space(2), &bounds));
        let img = m.apply(&dom);
        for p in dom.parts[0].points() {
            let v = e.eval(&p);
            prop_assert!(img.contains(&[v]), "image missing f({p:?}) = {v}");
        }
    }

    /// Composition of affine functions equals pointwise composition.
    #[test]
    fn compose_matches_eval(
        a0 in -2i64..3, a1 in -2i64..3, ka in -3i64..4,
        b0 in -2i64..3, kb in -3i64..4,
        x in -4i64..5, y in -4i64..5,
    ) {
        let f = Map::from_affine(space(2), Space::named("m", 1), &[LinExpr::new(&[a0, a1], ka)]);
        let g = Map::from_affine(Space::named("m", 1), Space::named("o", 1), &[LinExpr::new(&[b0], kb)]);
        let gf = f.compose(&g);
        let fv = a0 * x + a1 * y + ka;
        let gv = b0 * fv + kb;
        prop_assert!(gf.contains(&[x, y], &[gv]));
        prop_assert!(!gf.contains(&[x, y], &[gv + 1]));
    }

    /// Row-major layout systems (large strides through unit-coefficient
    /// equalities, as produced by layout materialization) project exactly:
    /// eliminating the tensor indices from `a = s2*i + s1*j + k` plus box
    /// bounds yields exactly the reachable address range.
    #[test]
    fn layout_strides_stay_exact(p in 1i64..5) {
        use polyhedra::{BasicMap, Space};
        let n = p + 1; // dims 0..=p
        let tsp = Space::set("t", &["i", "j", "k"]);
        let asp = Space::set("a", &["addr"]);
        // addr = n^2*i + n*j + k
        let layout = BasicMap::from_affine(
            tsp.clone(),
            asp,
            &[LinExpr::new(&[n * n, n, 1], 0)],
        );
        let dom = BasicSet::boxed(tsp, &[(0, p), (0, p), (0, p)]);
        let img = layout.apply(&dom);
        // The image must be exactly [0, n^3 - 1]: row-major over a full
        // box is surjective onto the flat range.
        for addr in 0..(n * n * n) {
            prop_assert!(img.contains(&[addr]), "missing addr {addr}");
        }
        prop_assert!(!img.contains(&[-1]));
        prop_assert!(!img.contains(&[n * n * n]));
    }

    /// GCD normalization preserves integer semantics: a constraint with
    /// all coefficients scaled by a common factor holds at exactly the
    /// same integer points as its normalized form (integer tightening of
    /// the constant included).
    #[test]
    fn normalized_constraint_equivalent_to_unnormalized(
        coeffs in proptest::collection::vec(-3i64..4, 3),
        k in -9i64..10,
        g in 1i64..5,
        is_eq in proptest::bool::ANY,
    ) {
        use polyhedra::constraint::Normalized;
        let scaled: Vec<i64> = coeffs.iter().map(|c| c * g).collect();
        let e = LinExpr::new(&scaled, k);
        let c = if is_eq { Constraint::eq(e) } else { Constraint::ge0(e) };
        let probe = BasicSet::boxed(space(3), &[(-4, 4), (-4, 4), (-4, 4)]);
        match c.normalize() {
            Normalized::Keep(n) => {
                for p in probe.points() {
                    prop_assert_eq!(
                        c.holds(&p), n.holds(&p),
                        "normalize changed semantics at {:?}: {} vs {}", p, c, n
                    );
                }
            }
            Normalized::Trivial => {
                for p in probe.points() {
                    prop_assert!(c.holds(&p), "trivial constraint fails at {:?}", p);
                }
            }
            Normalized::Infeasible => {
                for p in probe.points() {
                    prop_assert!(!c.holds(&p), "infeasible constraint holds at {:?}", p);
                }
            }
        }
    }

    /// The cached shared-sweep `dim_range` agrees with the uncached seed
    /// implementation (full per-dimension FM re-projection) on random
    /// bounded sets.
    #[test]
    fn cached_dim_range_matches_uncached(bounds in small_box(3), c in small_constraint(3)) {
        use polyhedra::points::{dim_range, dim_range_uncached};
        let b = BasicSet::boxed(space(3), &bounds).constrain(c);
        for d in 0..3 {
            let cached = dim_range(&b, d);
            let seed = dim_range_uncached(&b, d);
            // Both must agree on emptiness; on non-empty sets the ranges
            // must be identical.
            let empty = |r: Option<(i64, i64)>| matches!(r, Some((lo, hi)) if lo > hi);
            if empty(cached) || empty(seed) {
                prop_assert!(
                    empty(cached) && empty(seed),
                    "dim {}: cached {:?} vs uncached {:?}", d, cached, seed
                );
            } else {
                prop_assert_eq!(cached, seed, "dim {}", d);
            }
        }
    }

    /// `between_set` is the paper's `ge_le`: `x` is in it exactly when
    /// some `(w, r)` of the interval relation has `w <=lex x <=lex r` —
    /// checked against every enumerated pair and every `x` of the pairs'
    /// box padded by one.
    #[test]
    fn between_set_matches_bruteforce(part in interval_part()) {
        let n = part.n;
        let pairs: Vec<Vec<i64>> = BasicSet::boxed(space(2 * n), &part.ranges)
            .points()
            .filter(|p| part.system.holds(p))
            .collect();
        let iv = Map::from_basic(BasicMap {
            in_space: Space::anon(n),
            out_space: Space::anon(n),
            system: part.system.clone(),
        });
        let padded: Vec<(i64, i64)> = (0..n)
            .map(|d| {
                let (w, r) = (part.ranges[d], part.ranges[n + d]);
                (w.0.min(r.0) - 1, w.1.max(r.1) + 1)
            })
            .collect();
        let live = polyhedra::between_set(&iv, n);
        for x in BasicSet::boxed(space(n), &padded).points() {
            let between = pairs.iter().any(|p| p[..n] <= x[..] && x[..] <= p[n..]);
            prop_assert_eq!(
                live.contains(&x), between,
                "x = {:?}, part {:?}", x, part.system
            );
        }
    }

    /// lex_lt over random tuples is a strict total order.
    #[test]
    fn lex_total_order(
        a in proptest::collection::vec(-3i64..4, 3),
        b in proptest::collection::vec(-3i64..4, 3),
    ) {
        let m = polyhedra::lex_lt_map(3);
        let lt = m.contains(&a, &b);
        let gt = m.contains(&b, &a);
        if a == b {
            prop_assert!(!lt && !gt);
        } else {
            prop_assert!(lt ^ gt);
            prop_assert_eq!(lt, a < b, "lex order must match Vec's Ord");
        }
    }
}
