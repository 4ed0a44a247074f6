//! Box lanes: how both executors run a loop nest.
//!
//! Both executors of the repository — [`crate::Interpreter::run`] and the
//! generated loop program's executor in `cgen` — run a loop nest a *lane*
//! at a time. A lane is up to [`W`] consecutive points of a box of the
//! nest's digits (row-major: the last digit fastest). Each expression
//! node is evaluated over the whole lane at once: a load becomes a gather
//! at each point's own offset, a constant or scalar a broadcast and an
//! operator an element-wise step.
//!
//! Both executors describe a nest to [`run`] by one concrete [`Table`]:
//! its digits' extents, outermost first, and per access what one step of
//! each digit adds to the access's offset. The digits are split in two:
//! the *lane* digits, which the lane runs across in chunks of up to `W`
//! points, and the *inner* digits after them, which [`run`] walks inside
//! each chunk, in order, into one accumulator per lane element. The
//! executors plan every statement this way:
//! - a reduction runs its lane across its output points and walks its
//!   reduction digits inside, so each element's sum is still
//!   `init + e(r0) + e(r1) + …`, bit for bit;
//! - an element-wise statement runs its lane over its whole box;
//! - a reduction whose output has fewer points than a lane and than its
//!   reduction ([`across`] is false) runs its lane along the reduction
//!   instead, and the caller folds each lane into its accumulator in
//!   point order ([`sum`]). A one-loop nest is the one-digit case.
//!
//! The order of the lane digits in the table is the order the lane
//! walks the points in. Where no point reads what another writes and no
//! two points write one element, the caller may put them in any order;
//! `cgen` puts them in its store's order, largest stride first, as the
//! interpreter's result is laid out.
//!
//! Per chunk, [`run`] *places* every access: it finds each lane point's
//! offset relative to the access's base once per run of the last lane
//! digit; the inner walk only moves the bases. A chunk whose offsets are
//! all equal gathers by broadcast, one whose offsets are consecutive by a
//! slice copy, and [`scatter`] writes (or adds) a consecutive chunk as
//! one slice.
//!
//! Every point still performs the same operations on the same operands,
//! and every sum is still taken in the same order, so the results are
//! bit-identical to point-by-point evaluation whenever no point reads
//! what another wrote (the caller's condition). A lane lives on the
//! stack and the places in a buffer the caller allocates once per run,
//! so evaluating a nest allocates nothing.

use cfdlang::BinOp;

/// Lane width: the points one chunk evaluates at once.
pub const W: usize = 16;

/// How the points of a chunk lie in one access's data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Spread {
    /// Every point at the same offset.
    Splat,
    /// Consecutive offsets.
    Unit,
    /// Anything else.
    Any,
}

/// One access of a nest as the lane walks it.
#[derive(Clone, Copy, Debug)]
pub struct Place {
    /// Offset at the current point of the inner digits, the lane digits
    /// at the chunk's origin (all zero).
    base: usize,
    /// What one step of the innermost inner digit adds to `base`.
    step: usize,
    /// Offset of each point of the current chunk relative to `base`.
    at: [usize; W],
    spread: Spread,
}

impl Place {
    /// An access whose offset at the nest's first point is `base`.
    pub fn new(base: usize) -> Place {
        Place {
            base,
            step: 0,
            at: [0; W],
            spread: Spread::Splat,
        }
    }
}

/// What an expression node is over a lane.
pub enum Term<'a, N> {
    /// The same value in every element.
    Splat(f64),
    /// Element `i` is `data[base + at[i]]`, by the place of access
    /// number `access`.
    Gather { data: &'a [f64], access: usize },
    /// Element-wise `lhs op rhs`.
    Bin(BinOp, N, N),
}

/// A loop nest's expression tree as the lane evaluator asks about it;
/// its accesses are numbered as the caller's [`Place`] slice and the
/// [`Table`]'s stride rows number them.
pub trait Lanes {
    type Node: Copy;
    /// `node` over the lane.
    fn term(&self, node: Self::Node) -> Term<'_, Self::Node>;
}

/// A nest's digits as [`run`] walks them, outermost first: the lane
/// digits, then the inner ones. Both executors fill one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table {
    /// Extent of every digit.
    pub extents: Vec<usize>,
    /// `strides[a · extents.len() + d]`: what one step of digit `d` adds
    /// to access `a`'s offset (a negative stride arrives wrapped, two's
    /// complement).
    pub strides: Vec<usize>,
}

impl Table {
    fn stride(&self, a: usize, d: usize) -> usize {
        self.strides[a * self.extents.len() + d]
    }
}

/// Whether a reduction of `out` output points, each summing `red`
/// points, runs its lane across its outputs: unless the output has fewer
/// points than a lane and than the reduction, which then fills more of
/// one.
pub fn across(out: usize, red: usize) -> bool {
    out >= W || out >= red
}

/// Run `root` over the nest `t` a lane at a time: digits `..lane` in
/// chunks of up to [`W`] consecutive points and, inside each chunk, the
/// digits after them walked in order into one accumulator per point,
/// each starting at `init` (with no inner digit the lane is `root`'s
/// value). `take(start, values, places)` receives every chunk with its
/// first point and the accesses placed at it. `places` holds one place
/// per access, at the nest's first point; they are back there on return.
pub fn run<L: Lanes + ?Sized>(
    e: &L,
    t: &Table,
    root: L::Node,
    lane: usize,
    places: &mut [Place],
    init: f64,
    mut take: impl FnMut(usize, &[f64], &[Place]),
) {
    let points: usize = t.extents[..lane].iter().product();
    let mut acc = [0.0; W];
    for start in (0..points).step_by(W) {
        let len = W.min(points - start);
        place(t, lane, start, places, len);
        if lane == t.extents.len() {
            eval(e, root, places, len, &mut acc);
        } else {
            acc = [init; W];
            walk(e, t, root, lane, places, len, &mut acc);
        }
        take(start, &acc[..len], places);
    }
}

/// Place every access at the `len` points of the lane digits `..lane`
/// from point `start` on.
fn place(t: &Table, lane: usize, start: usize, places: &mut [Place], len: usize) {
    let mut i = 0;
    while i < len {
        // The offsets of point `start + i`, digit by digit, and the run of
        // points after it that differ only in the last lane digit.
        let (mut q, mut run) = (start + i, 1);
        for p in places.iter_mut() {
            p.at[i] = 0;
        }
        for d in (0..lane).rev() {
            let x = t.extents[d];
            let digit = q % x;
            q /= x;
            if d + 1 == lane {
                run = (x - digit).min(len - i);
            }
            if digit > 0 {
                for (a, p) in places.iter_mut().enumerate() {
                    p.at[i] = p.at[i].wrapping_add(digit.wrapping_mul(t.stride(a, d)));
                }
            }
        }
        if run > 1 {
            for (a, p) in places.iter_mut().enumerate() {
                let step = t.stride(a, lane - 1);
                for j in i + 1..i + run {
                    p.at[j] = p.at[j - 1].wrapping_add(step);
                }
            }
        }
        i += run;
    }
    for p in places {
        // A short chunk's spare elements repeat its last point: every
        // element of a lane gathers in bounds.
        let last = p.at[len - 1];
        p.at[len..].fill(last);
        let (first, at) = (p.at[0], &p.at[..len]);
        p.spread = if at.iter().all(|&o| o == first) {
            Spread::Splat
        } else if (at.iter().enumerate()).all(|(i, &o)| o == first.wrapping_add(i)) {
            Spread::Unit
        } else {
            Spread::Any
        };
    }
}

/// Walk digits `d..` of `t` from the places' current bases, adding
/// `root`'s lane at every point to `acc`; the bases end where they
/// started.
fn walk<L: Lanes + ?Sized>(
    e: &L,
    t: &Table,
    root: L::Node,
    d: usize,
    places: &mut [Place],
    len: usize,
    acc: &mut [f64; W],
) {
    let extent = t.extents[d];
    if d + 1 < t.extents.len() {
        for _ in 0..extent {
            walk(e, t, root, d + 1, places, len, acc);
            for (a, p) in places.iter_mut().enumerate() {
                p.base = p.base.wrapping_add(t.stride(a, d));
            }
        }
        for (a, p) in places.iter_mut().enumerate() {
            p.base = p.base.wrapping_sub(t.stride(a, d).wrapping_mul(extent));
        }
        return;
    }
    for (a, p) in places.iter_mut().enumerate() {
        p.step = t.stride(a, d);
    }
    let mut v = [0.0; W];
    for _ in 0..extent {
        eval(e, root, places, len, &mut v);
        for (a, v) in acc.iter_mut().zip(v) {
            *a += v;
        }
        for p in places.iter_mut() {
            p.base = p.base.wrapping_add(p.step);
        }
    }
    for p in places.iter_mut() {
        p.base = p.base.wrapping_sub(p.step.wrapping_mul(extent));
    }
}

/// Evaluate `node` over the placed chunk of `len` points into `out`; the
/// elements past `len` are spare, whatever they hold.
fn eval<L: Lanes + ?Sized>(e: &L, node: L::Node, places: &[Place], len: usize, out: &mut [f64; W]) {
    match e.term(node) {
        Term::Splat(v) => *out = [v; W],
        Term::Gather { data, access } => {
            let p = &places[access];
            let first = p.base.wrapping_add(p.at[0]);
            match p.spread {
                Spread::Splat => *out = [data[first]; W],
                Spread::Unit => out[..len].copy_from_slice(&data[first..first + len]),
                Spread::Any => {
                    for (o, &at) in out.iter_mut().zip(&p.at) {
                        *o = data[p.base.wrapping_add(at)];
                    }
                }
            }
        }
        Term::Bin(op, lhs, rhs) => {
            let mut r = [0.0; W];
            eval(e, lhs, places, len, out);
            eval(e, rhs, places, len, &mut r);
            let pairs = out.iter_mut().zip(r);
            match op {
                BinOp::Add => pairs.for_each(|(a, b)| *a += b),
                BinOp::Sub => pairs.for_each(|(a, b)| *a -= b),
                BinOp::Mul => pairs.for_each(|(a, b)| *a *= b),
                BinOp::Div => pairs.for_each(|(a, b)| *a /= b),
            }
        }
    }
}

/// `acc` plus every element of `lane`, added in order.
pub fn sum(acc: f64, lane: &[f64]) -> f64 {
    lane.iter().fold(acc, |acc, v| acc + v)
}

/// Write `lane` to `data` at the points `place` is placed at, in order;
/// with `accumulate` each element is added to what is there instead. A
/// chunk at consecutive offsets is written as one slice.
pub fn scatter(data: &mut [f64], place: &Place, lane: &[f64], accumulate: bool) {
    if place.spread == Spread::Unit {
        let first = place.base.wrapping_add(place.at[0]);
        return put(&mut data[first..first + lane.len()], lane, accumulate);
    }
    for (&at, &v) in place.at.iter().zip(lane) {
        let slot = &mut data[place.base.wrapping_add(at)];
        if accumulate {
            *slot += v;
        } else {
            *slot = v;
        }
    }
}

/// Write `lane` over `slots`, or with `accumulate` add each element to
/// its slot.
pub fn put(slots: &mut [f64], lane: &[f64], accumulate: bool) {
    if accumulate {
        slots.iter_mut().zip(lane).for_each(|(s, v)| *s += v);
    } else {
        slots.copy_from_slice(lane);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(x0 · 3) op x1` over a hand-built nest: access `a` reads `data`
    /// at `origin[a] + Σ digit_d · strides[a][d]`.
    struct Example<'a> {
        op: BinOp,
        data: &'a [f64],
        extents: &'a [usize],
        origin: [usize; 2],
        strides: [&'a [isize]; 2],
    }

    impl Lanes for Example<'_> {
        type Node = usize;
        fn term(&self, node: usize) -> Term<'_, usize> {
            match node {
                0 => Term::Bin(self.op, 1, 4),
                1 => Term::Bin(BinOp::Mul, 2, 3),
                2 => Term::Gather {
                    data: self.data,
                    access: 0,
                },
                3 => Term::Splat(3.0),
                _ => Term::Gather {
                    data: self.data,
                    access: 1,
                },
            }
        }
    }

    impl Example<'_> {
        /// The nest's digits and both accesses' strides.
        fn table(&self) -> Table {
            Table {
                extents: self.extents.to_vec(),
                strides: self.strides.concat().iter().map(|&s| s as usize).collect(),
            }
        }

        /// The expression at the nest point `digits`, point by point.
        fn at(&self, digits: &[usize]) -> f64 {
            let load = |a: usize| {
                let off = (digits.iter().zip(self.strides[a]))
                    .fold(self.origin[a] as isize, |o, (&i, &s)| o + i as isize * s);
                self.data[off as usize]
            };
            let (x, y) = (load(0) * 3.0, load(1));
            match self.op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
            }
        }

        /// Every lane point's value by the definition: the expression,
        /// or `init` plus the expression at every inner point in order.
        fn definition(&self, lane: usize, init: f64) -> Vec<f64> {
            let points = |ext: &[usize]| -> Vec<Vec<usize>> {
                let mut all = vec![vec![]];
                for &x in ext {
                    all = (all.into_iter())
                        .flat_map(|p| (0..x).map(move |i| [&p[..], &[i]].concat()))
                        .collect();
                }
                all
            };
            let (outer, inner) = self.extents.split_at(lane);
            let inner_points = points(inner);
            (points(outer).iter())
                .map(|p| match inner {
                    [] => self.at(p),
                    _ => (inner_points.iter())
                        .fold(init, |acc, q| acc + self.at(&[&p[..], &q[..]].concat())),
                })
                .collect()
        }
    }

    /// What a case is, its extents, its lane digits, and the origins and
    /// strides of both accesses.
    type Case<'a> = (&'a str, &'a [usize], usize, [usize; 2], [&'a [isize]; 2]);

    #[test]
    fn box_lanes_meet_the_point_by_point_values() {
        let data: Vec<f64> = (0..400).map(|i| 1.0 / (3 + i % 37) as f64 - 0.13).collect();
        let cases: [Case; 7] = [
            (
                "a chunk across two carries of 3 × 5",
                &[3, 5],
                2,
                [0, 7],
                [&[5, 1], &[1, 20]],
            ),
            (
                "5 × 5 × 5 outputs over two reduction points",
                &[5, 5, 5, 2],
                3,
                [0, 200],
                [&[25, 5, 1, 125], &[0, 1, 7, 50]],
            ),
            (
                "three reduction digits",
                &[4, 5, 2, 3, 2],
                2,
                [0, 0],
                [&[60, 12, 6, 2, 1], &[1, 4, 100, 20, 0]],
            ),
            (
                "digits of extent one",
                &[4, 1, 5, 1, 3, 1],
                3,
                [1, 2],
                [&[5, 99, 1, 77, 20, 55], &[0, 33, 2, 11, 9, 44]],
            ),
            (
                "negative steps",
                &[4, 6, 3],
                2,
                [399, 100],
                [&[-6, -1, -24], &[6, -1, 50]],
            ),
            (
                "a scalar output summing a long digit",
                &[40],
                0,
                [3, 50],
                [&[1], &[-1]],
            ),
            (
                "a whole box, no inner digit",
                &[2, 20],
                2,
                [5, 300],
                [&[40, 2], &[0, -1]],
            ),
        ];
        let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div];
        for ((what, extents, lane, origin, strides), op) in
            cases.iter().flat_map(|c| ops.map(|op| (c, op)))
        {
            let (extents, lane, origin, strides) = (*extents, *lane, *origin, *strides);
            let e = Example {
                op,
                data: &data,
                extents,
                origin,
                strides,
            };
            let mut places = [Place::new(origin[0]), Place::new(origin[1])];
            let mut got = Vec::new();
            run(&e, &e.table(), 0, lane, &mut places, 0.25, |start, l, _| {
                assert_eq!(start, got.len(), "{what}: chunks in order");
                got.extend_from_slice(l);
            });
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&got),
                bits(&e.definition(lane, 0.25)),
                "{what}, {op:?}"
            );
            let bases = places.map(|p| p.base);
            assert_eq!(bases, origin, "{what}: the places end where they started");
        }
    }

    #[test]
    fn scatter_writes_or_adds_in_point_order_where_points_alias() {
        let data: Vec<f64> = (0..64).map(|i| 0.5 + i as f64 * 0.125).collect();
        // Both accesses alias in the second digit: the first reads one
        // element per row, the target is that element too.
        let e = Example {
            op: BinOp::Sub,
            data: &data,
            extents: &[3, 6],
            origin: [0, 40],
            strides: [&[1, 0], &[-2, 1]],
        };
        for accumulate in [false, true] {
            let mut target = vec![1.0; 3];
            let mut want = target.clone();
            for (p, v) in e.definition(2, 0.0).into_iter().enumerate() {
                let slot = &mut want[p / 6];
                *slot = if accumulate { *slot + v } else { v };
            }
            let mut places = [Place::new(0), Place::new(40)];
            run(&e, &e.table(), 0, 2, &mut places, 0.0, |_, l, at| {
                scatter(&mut target, &at[0], l, accumulate)
            });
            assert_eq!(target, want, "accumulate={accumulate}");
        }
        assert_eq!(sum(1.0, &[0.5, 0.25]), 1.75);
    }

    #[test]
    fn scatter_writes_a_consecutive_chunk_as_one_slice() {
        let data: Vec<f64> = (0..64).map(|i| 0.75 - i as f64 * 0.0625).collect();
        // Access 1 places the target too: a dense 3 × 6 one, whose chunks
        // are consecutive, and one with rows 8 apart, whose first chunk
        // crosses a gap.
        for (row, unit) in [(6, [true, true]), (8, [false, true])] {
            let e = Example {
                op: BinOp::Add,
                data: &data,
                extents: &[3, 6],
                origin: [1, 0],
                strides: [&[6, 1], &[row, 1]],
            };
            for accumulate in [false, true] {
                let mut target = vec![0.5; 24];
                let mut want = target.clone();
                for (p, v) in e.definition(2, 0.0).into_iter().enumerate() {
                    let slot = &mut want[(p / 6) * row as usize + p % 6];
                    *slot = if accumulate { *slot + v } else { v };
                }
                let mut places = [Place::new(1), Place::new(0)];
                let mut spreads = Vec::new();
                run(&e, &e.table(), 0, 2, &mut places, 0.0, |_, l, at| {
                    spreads.push(at[1].spread == Spread::Unit);
                    scatter(&mut target, &at[1], l, accumulate)
                });
                assert_eq!(spreads, unit, "row {row}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&target),
                    bits(&want),
                    "row {row} accumulate={accumulate}"
                );
            }
        }
    }

    #[test]
    fn the_lane_runs_across_outputs_unless_the_reduction_fills_more() {
        assert!(across(W, 1000));
        assert!(across(7, 7));
        assert!(across(343, 7));
        assert!(!across(1, 7));
        assert!(!across(3, 5));
    }
}
