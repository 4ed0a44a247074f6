//! Affine schedules into a common lexicographic schedule space.
//!
//! A schedule assigns every statement instance a tuple in an anonymous
//! integer space ordered lexicographically (Section IV-C). We use the
//! shape
//!
//! ```text
//! [ seq, x_{σ(0)}, x_{σ(1)}, ..., pad 0s ..., micro ]
//! ```
//!
//! * `seq` — outer sequence position (statements with equal `seq` are
//!   fused: the schedule interleaves them at every iteration point; the
//!   rescheduler gives every statement its own `seq`, so only hand-built
//!   schedules fuse),
//! * `σ` — the per-statement loop permutation chosen by the rescheduler,
//! * `micro` — trailing constant ordering fused statements within an
//!   iteration point.
//!
//! The *reference schedule* is program order with identity permutations;
//! it encodes exactly the orders the CFDlang program admits and is the
//! baseline every rescheduling is validated against.

use crate::model::KernelModel;

/// An affine schedule for all statements of a kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Dimensionality of the schedule space.
    pub dim: usize,
    /// Outer sequence constant per statement.
    pub seq: Vec<i64>,
    /// Loop permutation per statement (`perm[d]` = iteration variable
    /// placed at schedule depth `d`).
    pub perms: Vec<Vec<usize>>,
    /// Trailing micro-sequence constant per statement.
    pub micro: Vec<i64>,
}

impl Schedule {
    /// The reference schedule: program order, identity permutations.
    pub fn reference(model: &KernelModel) -> Schedule {
        let max_rank = model.stmts.iter().map(|s| s.rank()).max().unwrap_or(0);
        Schedule {
            dim: 1 + max_rank + 1,
            seq: (0..model.stmts.len() as i64).collect(),
            perms: model
                .stmts
                .iter()
                .map(|s| (0..s.rank()).collect())
                .collect(),
            micro: vec![0; model.stmts.len()],
        }
    }

    /// Schedule tuple of a concrete iteration point of a statement.
    pub fn tuple_of(&self, si: usize, point: &[usize]) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.dim);
        out.push(self.seq[si]);
        for d in 0..self.dim - 2 {
            if d < self.perms[si].len() {
                out.push(point[self.perms[si][d]] as i64);
            } else {
                out.push(0);
            }
        }
        out.push(self.micro[si]);
        out
    }

    /// The virtual schedule (Section IV-F): tuples strictly before /
    /// after every real statement, modelling the host writing inputs
    /// (`first`) and reading outputs (`last`).
    pub fn first_tuple(&self) -> Vec<i64> {
        let mut t = vec![0i64; self.dim];
        t[0] = self.seq.iter().copied().min().unwrap_or(0) - 1;
        t
    }

    /// See [`Schedule::first_tuple`].
    pub fn last_tuple(&self) -> Vec<i64> {
        let mut t = vec![0i64; self.dim];
        t[0] = self.seq.iter().copied().max().unwrap_or(0) + 1;
        t
    }

    /// Whether two statements are fused (same outer sequence constant).
    pub fn fused(&self, a: usize, b: usize) -> bool {
        self.seq[a] == self.seq[b]
    }

    /// Statement indices grouped by sequence constant, in execution
    /// order; fused statements share a group ordered by `micro`.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut order: Vec<usize> = (0..self.seq.len()).collect();
        order.sort_by_key(|&i| (self.seq[i], self.micro[i]));
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for i in order {
            match groups.last_mut() {
                Some(g) if self.seq[g[0]] == self.seq[i] => g.push(i),
                _ => groups.push(vec![i]),
            }
        }
        groups
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::tests::{domain, space};
    use polyhedra::{LinExpr, Map, Set, Space};
    use teil::layout::LayoutPlan;
    use teil::lower::lower;

    /// The affine map `stmt[x...] → [seq, x_{σ(0)}, ..., 0.., micro]` of
    /// statement `si` under `sched`, over its domain.
    pub(crate) fn stmt_map(sched: &Schedule, model: &KernelModel, si: usize) -> Map {
        let rank = model.stmts[si].rank();
        let mut exprs: Vec<LinExpr> = Vec::with_capacity(sched.dim);
        exprs.push(LinExpr::constant(rank, sched.seq[si]));
        for d in 0..sched.dim - 2 {
            if d < sched.perms[si].len() {
                exprs.push(LinExpr::var(rank, sched.perms[si][d]));
            } else {
                exprs.push(LinExpr::constant(rank, 0));
            }
        }
        exprs.push(LinExpr::constant(rank, sched.micro[si]));
        Map::from_affine(space(model, si), Space::anon(sched.dim), &exprs)
            .intersect_domain(&Set::from_basic(domain(model, si)))
    }

    fn model(n: usize) -> KernelModel {
        let typed =
            cfdlang::check(&cfdlang::parse(&cfdlang::examples::inverse_helmholtz(n)).unwrap())
                .unwrap();
        let m = lower(&typed).unwrap();
        let layout = LayoutPlan::row_major(&m);
        KernelModel::build(&m, &layout)
    }

    #[test]
    fn reference_schedule_is_program_order() {
        let km = model(4);
        let s = Schedule::reference(&km);
        assert_eq!(s.seq, vec![0, 1, 2]);
        assert_eq!(s.dim, 1 + 6 + 1);
        assert_eq!(s.perms[0], vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn tuple_of_matches_map() {
        let km = model(4);
        let s = Schedule::reference(&km);
        let map = stmt_map(&s, &km, 0);
        let pt = [1usize, 2, 3, 0, 1, 2];
        let tup = s.tuple_of(0, &pt);
        let pt_i: Vec<i64> = pt.iter().map(|&x| x as i64).collect();
        assert!(map.contains(&pt_i, &tup));
    }

    #[test]
    fn virtual_tuples_bracket_everything() {
        let km = model(4);
        let s = Schedule::reference(&km);
        let first = s.first_tuple();
        let last = s.last_tuple();
        let lt = polyhedra::lex_lt_map(s.dim);
        for si in 0..km.stmts.len() {
            let t = s.tuple_of(si, &vec![0; km.stmts[si].rank()]);
            assert!(lt.contains(&first, &t));
            assert!(lt.contains(&t, &last));
        }
    }

    #[test]
    fn permuted_schedule_reorders_tuple() {
        let km = model(4);
        let mut s = Schedule::reference(&km);
        s.perms[1] = vec![2, 0, 1]; // Hadamard has rank 3
        let tup = s.tuple_of(1, &[5, 6, 7]);
        assert_eq!(tup[1..4], [7, 5, 6]);
    }

    #[test]
    fn groups_follow_seq_and_micro() {
        let km = model(4);
        let mut s = Schedule::reference(&km);
        s.seq = vec![0, 0, 1];
        s.micro = vec![0, 1, 0];
        let g = s.groups();
        assert_eq!(g, vec![vec![0, 1], vec![2]]);
        assert!(s.fused(0, 1));
        assert!(!s.fused(1, 2));
    }
}
