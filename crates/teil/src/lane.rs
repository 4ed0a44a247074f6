//! Lane-wise evaluation of innermost loops.
//!
//! Both executors of the repository — [`crate::Interpreter::run`] and the
//! generated loop program's executor in `cgen` — run an innermost loop a
//! *lane* at a time: each expression node is evaluated over up to [`W`]
//! consecutive instances of the loop at once, a load becoming a strided
//! gather, a constant or scalar a broadcast and an operator an
//! element-wise step. The lane is then summed into an accumulator, in
//! instance order ([`sum`]), or written along its target ([`scatter`]).
//! A loop longer than `W` runs in chunks.
//!
//! Every instance still performs the same operations on the same
//! operands, and every sum is still taken in the same order, so the
//! results are bit-identical to instance-by-instance evaluation whenever
//! no instance reads what an earlier one wrote (the caller's condition).
//! A lane lives on the stack: evaluating one allocates nothing.

use cfdlang::BinOp;

/// Lane width: the instances one chunk evaluates at once. One lane
/// covers every builtin kernel at its default extents (at most 12).
pub const W: usize = 16;

/// What an expression node is over a lane.
pub enum Term<'a, N> {
    /// The same value in every element.
    Splat(f64),
    /// Element `i` is `data[off + i·step]` (a negative step arrives
    /// wrapped, two's complement).
    Gather {
        data: &'a [f64],
        off: usize,
        step: usize,
    },
    /// Element-wise `lhs op rhs`.
    Bin(BinOp, N, N),
}

/// An expression tree whose nodes the lane evaluator can ask about.
pub trait Lanes {
    type Node: Copy;
    /// `node` over the lane at the loop's first instance; [`for_each`]
    /// shifts a gather to the chunk it evaluates.
    fn term(&self, node: Self::Node) -> Term<'_, Self::Node>;
}

/// Evaluate `node` over instances `0..extent` of the loop in chunks of
/// at most [`W`], handing each chunk to `take` with its first instance.
pub fn for_each<L: Lanes + ?Sized>(
    e: &L,
    node: L::Node,
    extent: usize,
    mut take: impl FnMut(usize, &[f64]),
) {
    let mut lane = [0.0; W];
    for start in (0..extent).step_by(W) {
        let chunk = &mut lane[..W.min(extent - start)];
        eval(e, node, start, chunk);
        take(start, chunk);
    }
}

/// Evaluate `node` over instances `start..start + out.len()` of the loop
/// into `out` (at most [`W`] long).
fn eval<L: Lanes + ?Sized>(e: &L, node: L::Node, start: usize, out: &mut [f64]) {
    match e.term(node) {
        Term::Splat(v) => out.fill(v),
        Term::Gather { data, off, step } => {
            let off = off.wrapping_add(step.wrapping_mul(start));
            match step {
                0 => out.fill(data[off]),
                1 => out.copy_from_slice(&data[off..off + out.len()]),
                _ => {
                    for (i, o) in out.iter_mut().enumerate() {
                        *o = data[off.wrapping_add(step.wrapping_mul(i))];
                    }
                }
            }
        }
        Term::Bin(op, lhs, rhs) => {
            let mut r = [0.0; W];
            let r = &mut r[..out.len()];
            eval(e, lhs, start, out);
            eval(e, rhs, start, r);
            let pairs = out.iter_mut().zip(&*r);
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

/// Write `lane` along `data[off + i·step]`, in order; with `accumulate`
/// each element is added to what is there instead.
pub fn scatter(data: &mut [f64], off: usize, step: usize, lane: &[f64], accumulate: bool) {
    for (i, &v) in lane.iter().enumerate() {
        let slot = &mut data[off.wrapping_add(step.wrapping_mul(i))];
        if accumulate {
            *slot += v;
        } else {
            *slot = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(x[2i] * 3) - y[-i]` over a hand-built node list.
    struct Example<'a> {
        x: &'a [f64],
        y: &'a [f64],
    }

    impl Lanes for Example<'_> {
        type Node = usize;
        fn term(&self, node: usize) -> Term<'_, usize> {
            match node {
                0 => Term::Bin(BinOp::Sub, 1, 4),
                1 => Term::Bin(BinOp::Mul, 2, 3),
                2 => Term::Gather {
                    data: self.x,
                    off: 0,
                    step: 2,
                },
                3 => Term::Splat(3.0),
                _ => Term::Gather {
                    data: self.y,
                    off: self.y.len() - 1,
                    step: 1usize.wrapping_neg(),
                },
            }
        }
    }

    #[test]
    fn chunks_meet_the_instance_by_instance_values() {
        let x: Vec<f64> = (0..80).map(|i| 0.1 * i as f64).collect();
        let y: Vec<f64> = (0..40).map(|i| 1.0 / (1 + i) as f64).collect();
        let e = Example { x: &x, y: &y };
        let want: Vec<f64> = (0..40).map(|i| x[2 * i] * 3.0 - y[39 - i]).collect();
        let mut got = Vec::new();
        for_each(&e, 0, 40, |start, chunk| {
            assert_eq!(start, got.len());
            got.extend_from_slice(chunk);
        });
        assert_eq!(got, want);
        assert_eq!(sum(1.0, &want), want.iter().fold(1.0, |a, v| a + v));
    }

    #[test]
    fn scatter_writes_or_adds_in_order() {
        let mut data = vec![1.0; 4];
        scatter(&mut data, 3, 1usize.wrapping_neg(), &[5.0, 6.0], false);
        assert_eq!(data, [1.0, 1.0, 6.0, 5.0]);
        // A step of zero leaves the running sum of the lane.
        scatter(&mut data, 0, 0, &[2.0, 3.0], true);
        assert_eq!(data, [6.0, 1.0, 6.0, 5.0]);
    }
}
