//! Pluto-like rescheduling (step ⓘⓘⓘ of Figure 4).
//!
//! The paper uses isl's Pluto scheduler with RAW dependence distance as
//! the cost function (to shrink live intervals) and RAR coincidence as a
//! secondary affinity objective. This module implements the same
//! optimization on the schedule shape of [`crate::schedule`]:
//!
//! 1. per-statement **loop permutations** are chosen by iterative local
//!    search minimizing a structural cost — RAW edges want the consumer
//!    to traverse the producer's output in the order it was produced
//!    (leading-depth alignment shortens the window between a write and
//!    its reads), RAR edges contribute a smaller coincidence bonus. A
//!    candidate loop order of one statement is priced on the edges
//!    incident to that statement plus its own reduction penalty, the
//!    only terms of [`cost`] it moves; each rank's permutations are
//!    enumerated once per call. A candidate must keep the statement's
//!    reduction loops in their order (`sums_in_order`): floating-point
//!    addition is not associative, so only the IR's summation order
//!    rounds as the reference interpreter does;
//! 2. the final schedule is validated exactly ([`crate::deps::legal`]).
//!    Every statement keeps its own `seq`, so a RAW edge between two
//!    statements is decided by comparing their `seq`; only a statement
//!    that reads its own output is checked by walking its instances
//!    (capped; past the cap the check fails). A candidate that fails
//!    validation is discarded in favour of the reference schedule.

use crate::deps::{legal, Dependences};
use crate::model::KernelModel;
use crate::schedule::Schedule;
use teil::ir::{Module, PointExpr};

/// Statements of a higher rank keep the identity loop order (the cost
/// model's alignment gains are concentrated in the leading dimensions
/// anyway).
const MAX_PERM_RANK: usize = 5;
/// Local-search sweeps over all statements.
const SWEEPS: usize = 3;

/// The rescheduler's options. It has none: the search is fixed (see
/// the module docs). The type stays as the field
/// `FlowOptions::scheduler` that callers pass to [`reschedule`].
#[derive(Debug, Clone, Default)]
pub struct SchedulerOptions;

/// Compute an optimized schedule. Always returns a legal schedule (falls
/// back to the reference schedule if search produces nothing better).
pub fn reschedule(
    module: &Module,
    model: &KernelModel,
    deps: &Dependences,
    _opts: &SchedulerOptions,
) -> Schedule {
    let mut sched = Schedule::reference(model);
    optimize_permutations(module, model, deps, &mut sched);
    if legal(model, deps, &sched) {
        sched
    } else {
        // Defensive: permutations don't cross statement bounds, so the
        // search should never produce an illegal schedule, but the
        // reference schedule is the guaranteed-legal fallback.
        Schedule::reference(model)
    }
}

/// Iterative per-statement permutation search. A candidate for
/// statement `si` moves only the edges incident to `si` and `si`'s own
/// reduction penalty, so it is priced on those ([`CostModel::local`]):
/// the rest of [`CostModel::eval`] is the same for every candidate, and
/// `c < best_cost` decides exactly as the whole-kernel sum would.
fn optimize_permutations(
    module: &Module,
    model: &KernelModel,
    deps: &Dependences,
    sched: &mut Schedule,
) {
    let cm = CostModel::build(module, model, deps);
    // Candidates per rank, concatenated in Heap order; ranks 0 and 1
    // have no permutation besides the current one.
    let mut tables: Vec<Vec<usize>> = vec![Vec::new(); cm.max_rank + 1];
    let mut saved = Vec::new();
    for _ in 0..SWEEPS {
        let mut changed = false;
        for si in 0..model.stmts.len() {
            let rank = model.stmts[si].rank();
            if !(2..=MAX_PERM_RANK).contains(&rank) {
                continue;
            }
            if tables[rank].is_empty() {
                tables[rank] = permutations(rank);
            }
            saved.clone_from(&sched.perms[si]);
            let mut best_cost = cm.local(sched, si);
            let mut best = None;
            let out_rank = rank - cm.reduce_ranks[si];
            for perm in tables[rank].chunks(rank) {
                if perm == saved.as_slice() || !sums_in_order(perm, out_rank) {
                    continue;
                }
                sched.perms[si].copy_from_slice(perm);
                let c = cm.local(sched, si);
                if c < best_cost {
                    best_cost = c;
                    best = Some(perm);
                }
            }
            sched.perms[si].copy_from_slice(best.unwrap_or(&saved));
            changed |= best.is_some();
        }
        if !changed {
            break;
        }
    }
}

/// Whether `perm` visits the reduction loops of a statement with
/// `out_rank` output dimensions (loop indices `out_rank..`) in their
/// order. Reordering them reassociates the sum.
fn sums_in_order(perm: &[usize], out_rank: usize) -> bool {
    perm.iter().filter(|&&v| v >= out_rank).is_sorted()
}

/// One dependence edge's schedule-independent access structure: which
/// index maps the alignment computation compares. Resolved once per
/// search — `PointExpr::walk` over the statement bodies is invariant in
/// the candidate permutation, and re-walking it for every candidate
/// dominated `reschedule`'s runtime.
struct CostEdge {
    weight: usize,
    src: usize,
    dst: usize,
    /// Consumer accesses of the producer's output tensor, plus that
    /// tensor's rank (RAW alignment path).
    raw: Option<(Vec<Vec<usize>>, usize)>,
    /// Shared-operand read pairs `(producer map, consumer map)` — the
    /// RAR coincidence fallback when `raw` is absent or empty.
    rar: Vec<(Vec<usize>, Vec<usize>)>,
}

/// The pre-resolved structural cost function of one kernel under one
/// dependence graph; [`CostModel::eval`] is pure integer work over a
/// candidate schedule.
struct CostModel {
    max_rank: usize,
    edges: Vec<CostEdge>,
    /// Per statement, the indices of the edges it is an end of (a
    /// self-edge once).
    incident: Vec<Vec<usize>>,
    /// Per statement, the rank of its reduction suffix (the
    /// HLS-friendliness penalty term; 0 for none).
    reduce_ranks: Vec<usize>,
}

impl CostModel {
    fn build(module: &Module, model: &KernelModel, deps: &Dependences) -> CostModel {
        let max_rank = model.stmts.iter().map(|s| s.rank()).max().unwrap_or(0);
        let edges: Vec<CostEdge> = deps
            .edges
            .iter()
            .map(|e| {
                let weight = match e.kind {
                    crate::deps::DependenceKind::Raw => 4,
                    crate::deps::DependenceKind::Rar => 1,
                };
                let wstmt = &module.stmts[e.src];
                let rstmt = &module.stmts[e.dst];
                let out = wstmt.out;
                let mut accesses: Vec<Vec<usize>> = Vec::new();
                rstmt.expr.walk(&mut |node| {
                    if let PointExpr::Access { tensor, index_map } = node {
                        if *tensor == out {
                            accesses.push(index_map.clone());
                        }
                    }
                });
                let (raw, rar) = if accesses.is_empty() {
                    let mut pairs = Vec::new();
                    for (tw, imw) in wstmt.expr.accesses() {
                        for (tr, imr) in rstmt.expr.accesses() {
                            if tw == tr {
                                pairs.push((imw.clone(), imr.clone()));
                            }
                        }
                    }
                    (None, pairs)
                } else {
                    (Some((accesses, module.shape(out).len())), Vec::new())
                };
                CostEdge {
                    weight,
                    src: e.src,
                    dst: e.dst,
                    raw,
                    rar,
                }
            })
            .collect();
        let mut incident = vec![Vec::new(); model.stmts.len()];
        for (ei, e) in edges.iter().enumerate() {
            incident[e.src].push(ei);
            if e.dst != e.src {
                incident[e.dst].push(ei);
            }
        }
        CostModel {
            max_rank,
            edges,
            incident,
            reduce_ranks: module.stmts.iter().map(|s| s.reduce_rank()).collect(),
        }
    }

    fn eval(&self, sched: &Schedule) -> usize {
        let edges: usize = self.edges.iter().map(|e| self.edge(e, sched)).sum();
        edges
            + (0..self.reduce_ranks.len())
                .map(|si| self.reduction(si, sched))
                .sum::<usize>()
    }

    /// The terms of [`CostModel::eval`] that statement `si`'s permutation
    /// moves: its incident edges and its reduction penalty.
    fn local(&self, sched: &Schedule, si: usize) -> usize {
        let edges: usize = self.incident[si]
            .iter()
            .map(|&ei| self.edge(&self.edges[ei], sched))
            .sum();
        edges + self.reduction(si, sched)
    }

    fn edge(&self, e: &CostEdge, sched: &Schedule) -> usize {
        let a = match &e.raw {
            Some((accesses, out_rank)) => {
                let wperm = &sched.perms[e.src];
                let rperm = &sched.perms[e.dst];
                let mut best = 0usize;
                for im in accesses {
                    let mut depth = 0usize;
                    while depth < wperm.len() && depth < rperm.len() {
                        let j = wperm[depth];
                        if j >= *out_rank {
                            break;
                        }
                        if im.get(j) == Some(&rperm[depth]) {
                            depth += 1;
                        } else {
                            break;
                        }
                    }
                    best = best.max(depth);
                }
                best
            }
            None => {
                let mut best = 0usize;
                for (imw, imr) in &e.rar {
                    best = best.max(read_read_alignment(sched, e.src, e.dst, imw, imr));
                }
                best
            }
        };
        e.weight * (self.max_rank.saturating_sub(a))
    }

    fn reduction(&self, si: usize, sched: &Schedule) -> usize {
        let perm = &sched.perms[si];
        let out_rank = perm.len() - self.reduce_ranks[si];
        let suffix_ok = perm[out_rank..].iter().all(|&v| v >= out_rank);
        if suffix_ok {
            0
        } else {
            1000
        }
    }
}

/// Structural schedule cost: lower is better.
///
/// For every RAW edge the cost is `max_rank - aligned(w, r)` where
/// `aligned` counts the leading schedule depths at which the reader
/// traverses the producer's output tensor in the order it is produced.
/// RAR edges contribute a quarter-weight misalignment penalty.
///
/// An additional *HLS-friendliness* term heavily penalizes schedules
/// whose reduction loops are not innermost: commercial HLS only keeps a
/// floating-point accumulation in a register (scalar recurrence, fixed
/// II) when the reduction is the innermost band — otherwise it becomes a
/// memory read-modify-write. This is the paper's "fine-tune the
/// generated code so that it is amenable to HLS" (Section IV).
pub fn cost(module: &Module, model: &KernelModel, deps: &Dependences, sched: &Schedule) -> usize {
    CostModel::build(module, model, deps).eval(sched)
}

/// Alignment of two reads of the same operand (RAR coincidence).
fn read_read_alignment(
    sched: &Schedule,
    a: usize,
    b: usize,
    ima: &[usize],
    imb: &[usize],
) -> usize {
    let pa = &sched.perms[a];
    let pb = &sched.perms[b];
    let mut depth = 0usize;
    while depth < pa.len() && depth < pb.len() {
        // At this depth, does each statement iterate the same operand
        // dimension?
        let da = ima.iter().position(|&v| v == pa[depth]);
        let db = imb.iter().position(|&v| v == pb[depth]);
        match (da, db) {
            (Some(x), Some(y)) if x == y => depth += 1,
            _ => break,
        }
    }
    depth
}

/// All permutations of `0..n` in Heap order, concatenated: `n!` runs
/// of `n` entries (callers cap `n`).
pub fn permutations(n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = (0..n).collect();
    heap_permute(&mut cur, n, &mut out);
    out
}

fn heap_permute(a: &mut [usize], k: usize, out: &mut Vec<usize>) {
    if k <= 1 {
        out.extend_from_slice(a);
        return;
    }
    for i in 0..k {
        heap_permute(a, k - 1, out);
        if k.is_multiple_of(2) {
            a.swap(i, k - 1);
        } else {
            a.swap(0, k - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teil::layout::LayoutPlan;
    use teil::lower::lower;
    use teil::transform::factorize;

    fn setup(src: &str, factored: bool) -> (Module, KernelModel, Dependences) {
        let typed = cfdlang::check(&cfdlang::parse(src).unwrap()).unwrap();
        let mut m = lower(&typed).unwrap();
        if factored {
            m = factorize(&m);
        }
        let layout = LayoutPlan::row_major(&m);
        let km = KernelModel::build(&m, &layout);
        let deps = Dependences::analyze(&km);
        (m, km, deps)
    }

    /// `permutations(n)` split into one `Vec` per permutation.
    fn nested(n: usize) -> Vec<Vec<usize>> {
        match n {
            0 => vec![vec![]],
            _ => permutations(n).chunks(n).map(<[usize]>::to_vec).collect(),
        }
    }

    #[test]
    fn permutations_count() {
        assert_eq!(nested(3).len(), 6);
        assert_eq!(nested(4).len(), 24);
        assert_eq!(nested(1), vec![vec![0]]);
        assert_eq!(
            nested(3)[..3],
            [vec![0, 1, 2], vec![1, 0, 2], vec![2, 0, 1]]
        );
    }

    /// The definition of [`reschedule`]: the same search, but every
    /// candidate is scored by the whole-kernel [`CostModel::eval`].
    fn reschedule_by_eval(module: &Module, model: &KernelModel, deps: &Dependences) -> Schedule {
        let mut sched = Schedule::reference(model);
        let cm = CostModel::build(module, model, deps);
        for _ in 0..SWEEPS {
            let mut changed = false;
            for si in 0..model.stmts.len() {
                let rank = model.stmts[si].rank();
                if rank > MAX_PERM_RANK {
                    continue;
                }
                let mut best = sched.perms[si].clone();
                let mut best_cost = cm.eval(&sched);
                let out_rank = rank - module.stmts[si].reduce_rank();
                for perm in nested(rank) {
                    if perm == sched.perms[si] || !sums_in_order(&perm, out_rank) {
                        continue;
                    }
                    let saved = std::mem::replace(&mut sched.perms[si], perm.clone());
                    let c = cm.eval(&sched);
                    sched.perms[si] = saved;
                    if c < best_cost {
                        best_cost = c;
                        best = perm;
                    }
                }
                if best != sched.perms[si] {
                    sched.perms[si] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        if legal(model, deps, &sched) {
            sched
        } else {
            Schedule::reference(model)
        }
    }

    /// A kernel of rank-5 statements (120 candidates each), one with a
    /// reduction.
    const RANK5: &str = "var input a : [2 3 2 3 2]\nvar input b : [2 3]\n\
        var input d : [2 3 2 3 3]\nvar t : [2 3 2 3 3]\nvar r : [2 3 2 3 3]\n\
        var output c : [2 3 2 3 3]\nt = a # b . [[4 5]]\nr = d * t\nc = r + t";

    /// Two rank-6 statements, which `MAX_PERM_RANK` leaves alone, beside
    /// a rank-4 contraction that is searched.
    const RANK6: &str = "var input x : [2 2 2 2 2 2]\nvar input p : [2 2 2]\n\
        var input s : [2 2]\nvar t : [2 2 2 2 2 2]\nvar output c : [2 2 2 2 2 2]\n\
        var output q : [2 2 2]\nt = x * x\nc = t + x\nq = p # s . [[2 3]]";

    /// A contraction that reads its own output: a RAW edge from the
    /// statement to itself.
    const SELF_EDGE: &str = "var input a : [3 4]\nvar input s : [4 4]\n\
        var output c : [3 4]\nvar output o : [3 4]\nc = c # s . [[1 2]]\no = c * a";

    /// Two contractions read `x` in different orders, and the read-read
    /// alignment pulls `t`'s loops towards `o`'s order of `x`, which
    /// would swap `t`'s two sums and round differently from the
    /// reference interpreter (a minimised generated program).
    const REASSOCIATE: &str = "var input h : [9 12]\nvar input x : [12 9 2]\n\
        var input y : [12]\nvar output t : [2]\nvar output o : [9 2]\n\
        t = h # x . [[1 2] [0 3]]\no = x # y . [[0 3]]";

    fn zoo() -> Vec<(String, Module, KernelModel)> {
        use crate::liveness::tests::{example_sources, kernels};
        let mut sources = example_sources().to_vec();
        sources.extend([RANK5, RANK6, SELF_EDGE, REASSOCIATE].map(String::from));
        let mut out = Vec::new();
        for (k, src) in sources.iter().enumerate() {
            for factored in [false, true] {
                for (m, km) in kernels(src, factored) {
                    out.push((format!("source {k}, factored {factored}"), m, km));
                }
            }
        }
        out
    }

    #[test]
    fn zoo_covers_ranks_five_and_six_and_a_self_edge() {
        let zoo = zoo();
        let ranks = |r| {
            zoo.iter()
                .any(|(_, _, km)| km.stmts.iter().any(|s| s.rank() == r))
        };
        assert!(ranks(5) && ranks(6));
        let self_edge = |(_, _, km): &(String, Module, KernelModel)| {
            let deps = Dependences::analyze(km);
            let found = deps.raw().any(|d| d.src == d.dst);
            found
        };
        assert!(zoo.iter().any(self_edge));
    }

    #[test]
    fn search_equals_the_whole_kernel_definition() {
        for (name, m, km) in zoo() {
            let deps = Dependences::analyze(&km);
            assert_eq!(
                reschedule(&m, &km, &deps, &SchedulerOptions),
                reschedule_by_eval(&m, &km, &deps),
                "{name}"
            );
        }
    }

    #[test]
    fn local_cost_moves_with_the_whole_kernel_cost() {
        let mut rng = 0x5C4E_D01E_u64;
        for (name, m, km) in zoo() {
            let deps = Dependences::analyze(&km);
            let cm = CostModel::build(&m, &km, &deps);
            let mut schedules = vec![
                Schedule::reference(&km),
                reschedule(&m, &km, &deps, &SchedulerOptions),
            ];
            schedules
                .extend((0..3).map(|_| crate::liveness::tests::random_schedule(&km, &mut rng)));
            for mut s in schedules {
                for si in (0..km.stmts.len()).filter(|&si| km.stmts[si].rank() <= 5) {
                    let (total, local) = (cm.eval(&s), cm.local(&s, si));
                    let saved = s.perms[si].clone();
                    for perm in nested(km.stmts[si].rank()) {
                        s.perms[si] = perm;
                        let d_total = cm.eval(&s) as i64 - total as i64;
                        let d_local = cm.local(&s, si) as i64 - local as i64;
                        assert_eq!(d_local, d_total, "{name}, statement {si}: {s:?}");
                    }
                    s.perms[si] = saved;
                }
            }
        }
    }

    #[test]
    fn reschedule_keeps_every_sum_in_order() {
        for (name, m, km) in zoo() {
            let deps = Dependences::analyze(&km);
            let s = reschedule(&m, &km, &deps, &SchedulerOptions);
            for (si, stmt) in m.stmts.iter().enumerate() {
                let out_rank = km.stmts[si].rank() - stmt.reduce_rank();
                assert!(
                    sums_in_order(&s.perms[si], out_rank),
                    "{name}, statement {si}"
                );
            }
        }
    }

    #[test]
    fn rescheduled_helmholtz_is_legal() {
        let (m, km, deps) = setup(&cfdlang::examples::inverse_helmholtz(3), true);
        let s = reschedule(&m, &km, &deps, &SchedulerOptions);
        assert!(legal(&km, &deps, &s));
    }

    #[test]
    fn reschedule_does_not_worsen_cost() {
        let (m, km, deps) = setup(&cfdlang::examples::inverse_helmholtz(3), true);
        let reference = Schedule::reference(&km);
        let tuned = reschedule(&m, &km, &deps, &SchedulerOptions);
        assert!(cost(&m, &km, &deps, &tuned) <= cost(&m, &km, &deps, &reference));
    }

    #[test]
    fn alignment_prefers_matching_traversal() {
        // Producer writes t[i,j,k] in order (i,j,k); the Hadamard reads
        // t[i,j,k] identity-mapped, so identity perms align fully and
        // misordering the consumer's loops must raise the cost.
        let (m, km, deps) = setup(&cfdlang::examples::inverse_helmholtz(3), false);
        let s = Schedule::reference(&km);
        let aligned = cost(&m, &km, &deps, &s);
        let mut skewed = s.clone();
        skewed.perms[1].reverse();
        assert!(cost(&m, &km, &deps, &skewed) > aligned);
    }
}
