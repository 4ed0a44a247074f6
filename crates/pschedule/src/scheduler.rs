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
//!    its reads), RAR edges contribute a smaller coincidence bonus;
//! 2. optional producer–consumer **fusion** merges a pointwise consumer
//!    into its producer's loop nest (same `seq`, micro-ordered) whenever
//!    the polyhedral legality check admits it;
//! 3. the final schedule is validated exactly ([`crate::deps::legal`]):
//!    a RAW edge between statements of different `seq` is decided by
//!    comparing their `seq`, and only an edge inside a fused group is
//!    checked against its relation. Candidates that fail validation are
//!    discarded in favour of the reference schedule.

use crate::deps::{legal, Dependences};
use crate::model::KernelModel;
use crate::schedule::Schedule;
use teil::ir::{Module, PointExpr};

/// Tunables for the rescheduler.
#[derive(Debug, Clone)]
pub struct SchedulerOptions {
    /// Search loop permutations (otherwise keep identity order).
    pub permute: bool,
    /// Attempt pointwise producer–consumer fusion.
    pub fuse: bool,
    /// Maximum statement rank for exhaustive permutation search; higher
    /// ranks fall back to identity (the cost model's alignment gains are
    /// concentrated in the leading dimensions anyway).
    pub max_perm_rank: usize,
    /// Local-search sweeps over all statements.
    pub sweeps: usize,
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        SchedulerOptions {
            permute: true,
            fuse: false,
            max_perm_rank: 5,
            sweeps: 3,
        }
    }
}

/// Compute an optimized schedule. Always returns a legal schedule (falls
/// back to the reference schedule if search produces nothing better).
pub fn reschedule(
    module: &Module,
    model: &KernelModel,
    deps: &Dependences,
    opts: &SchedulerOptions,
) -> Schedule {
    let mut sched = Schedule::reference(model);
    if opts.permute {
        optimize_permutations(module, model, deps, &mut sched, opts);
    }
    if opts.fuse {
        fuse_pointwise(module, model, deps, &mut sched);
    }
    if legal(model, deps, &sched) {
        sched
    } else {
        // Defensive: the structural search should never produce an
        // illegal schedule (permutations don't cross statement bounds and
        // fusion is validated eagerly), but the reference schedule is the
        // guaranteed-legal fallback.
        Schedule::reference(model)
    }
}

/// Iterative per-statement permutation search.
fn optimize_permutations(
    module: &Module,
    model: &KernelModel,
    deps: &Dependences,
    sched: &mut Schedule,
    opts: &SchedulerOptions,
) {
    let cm = CostModel::build(module, model, deps);
    for _ in 0..opts.sweeps {
        let mut changed = false;
        for si in 0..model.stmts.len() {
            let rank = model.stmts[si].rank();
            if rank > opts.max_perm_rank {
                continue;
            }
            let mut best = sched.perms[si].clone();
            let mut best_cost = cm.eval(sched);
            for perm in permutations(rank) {
                if perm == sched.perms[si] {
                    continue;
                }
                let saved = std::mem::replace(&mut sched.perms[si], perm.clone());
                let c = cm.eval(sched);
                if c < best_cost {
                    best_cost = c;
                    best = perm;
                } else {
                    sched.perms[si] = saved;
                    continue;
                }
                sched.perms[si] = saved;
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
    /// `(statement, reduce_rank)` for statements with a reduction
    /// suffix (the HLS-friendliness penalty term).
    reductions: Vec<(usize, usize)>,
}

impl CostModel {
    fn build(module: &Module, model: &KernelModel, deps: &Dependences) -> CostModel {
        let max_rank = model.stmts.iter().map(|s| s.rank()).max().unwrap_or(0);
        let edges = deps
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
        let reductions = module
            .stmts
            .iter()
            .enumerate()
            .filter(|(_, s)| s.reduce_rank() > 0)
            .map(|(si, s)| (si, s.reduce_rank()))
            .collect();
        CostModel {
            max_rank,
            edges,
            reductions,
        }
    }

    fn eval(&self, sched: &Schedule) -> usize {
        let mut total = 0usize;
        for e in &self.edges {
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
            total += e.weight * (self.max_rank.saturating_sub(a));
        }
        for &(si, reduce_rank) in &self.reductions {
            let perm = &sched.perms[si];
            let out_rank = perm.len() - reduce_rank;
            let suffix_ok = perm[perm.len() - reduce_rank..]
                .iter()
                .all(|&v| v >= out_rank);
            if !suffix_ok {
                total += 1000;
            }
        }
        total
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

/// Fuse pointwise consumers into their producers where legal.
fn fuse_pointwise(module: &Module, model: &KernelModel, deps: &Dependences, sched: &mut Schedule) {
    for e in deps.raw() {
        let (w, r) = (e.src, e.dst);
        if sched.fused(w, r) {
            continue;
        }
        // Candidate: consumer reads producer's output with the identity
        // map and both statements have the producer's full output rank.
        let out = module.stmts[w].out;
        let identity_read = {
            let mut ok = false;
            module.stmts[r].expr.walk(&mut |n| {
                if let PointExpr::Access { tensor, index_map } = n {
                    if *tensor == out && index_map.iter().enumerate().all(|(d, &v)| d == v) {
                        ok = true;
                    }
                }
            });
            ok
        };
        if !identity_read {
            continue;
        }
        let trial_seq = sched.seq[w];
        let saved = (sched.seq[r], sched.micro[r]);
        sched.seq[r] = trial_seq;
        sched.micro[r] = sched.micro[w] + 1;
        if !legal(model, deps, sched) {
            sched.seq[r] = saved.0;
            sched.micro[r] = saved.1;
        }
    }
}

/// All permutations of `0..n` (n! — callers cap `n`).
pub fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = (0..n).collect();
    heap_permute(&mut cur, n, &mut out);
    out
}

fn heap_permute(a: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k <= 1 {
        out.push(a.clone());
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

    #[test]
    fn permutations_count() {
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(4).len(), 24);
        assert_eq!(permutations(1), vec![vec![0]]);
    }

    #[test]
    fn rescheduled_helmholtz_is_legal() {
        let (m, km, deps) = setup(&cfdlang::examples::inverse_helmholtz(3), true);
        let s = reschedule(&m, &km, &deps, &SchedulerOptions::default());
        assert!(legal(&km, &deps, &s));
    }

    #[test]
    fn reschedule_does_not_worsen_cost() {
        let (m, km, deps) = setup(&cfdlang::examples::inverse_helmholtz(3), true);
        let reference = Schedule::reference(&km);
        let tuned = reschedule(&m, &km, &deps, &SchedulerOptions::default());
        assert!(cost(&m, &km, &deps, &tuned) <= cost(&m, &km, &deps, &reference));
    }

    #[test]
    fn pointwise_chain_fuses() {
        // b = a + a ; c = b * b — c reads b with the identity map and
        // both are pointwise, so fusion is legal.
        let src = "var input a : [4]\nvar b : [4]\nvar output c : [4]\nb = a + a\nc = b * b";
        let (m, km, deps) = setup(src, false);
        let opts = SchedulerOptions {
            fuse: true,
            ..Default::default()
        };
        let s = reschedule(&m, &km, &deps, &opts);
        assert!(s.fused(0, 1), "pointwise chain should fuse: {s:?}");
        assert!(legal(&km, &deps, &s));
    }

    #[test]
    fn reduction_consumer_does_not_fuse() {
        // Hadamard after a contraction cannot fuse across the reduction.
        let (m, km, deps) = setup(&cfdlang::examples::inverse_helmholtz(3), false);
        let opts = SchedulerOptions {
            fuse: true,
            ..Default::default()
        };
        let s = reschedule(&m, &km, &deps, &opts);
        assert!(!s.fused(0, 1));
        assert!(legal(&km, &deps, &s));
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
