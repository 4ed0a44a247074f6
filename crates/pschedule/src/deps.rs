//! Value-based dependence analysis and schedule legality.
//!
//! Because CFDlang programs are pseudo-SSA at the tensor level (every
//! tensor assigned exactly once, no aliasing before memory sharing), the
//! dataflow is exactly:
//!
//! * **RAW** — producer statement writes array element, consumer reads
//!   it; the rescheduler uses these as hard ordering constraints and as
//!   the cost function for reducing live ranges,
//! * **RAR** — two statements read the same element; used as an affinity
//!   (coincidence) bonus only.
//!
//! **Existence is an intersection of images.** An edge exists when some
//! instance of one access and some instance of the other touch one
//! address: the two accesses' `image`s over their domains, bitsets of
//! the addresses each takes, share a bit. An image wider than
//! [`MAX_SPAN`](crate::model::MAX_SPAN) counts as an edge. That is sound:
//! a spurious RAW edge only rejects schedules and a RAR edge is only an
//! affinity. The program flow rejects such arrays before scheduling.
//!
//! **Legality is a comparison of `seq`.** A schedule is legal iff for
//! every RAW dependence the writer's tuple is lexicographically before the
//! reader's. A tuple's first coordinate is its statement's `seq`, so an
//! edge with `seq[src] < seq[dst]` holds for every instance pair, and one
//! with `seq[src] > seq[dst]` is violated by every pair — and there is a
//! pair, because [`Dependences::analyze`] records only edges some
//! instance pair carries. Only equal `seq` (fused statements, or a
//! statement reading its own output) needs the instances: a walk of both
//! statements' boxes checks that every read of an address comes strictly
//! after its latest write, capped at [`WALK_CAP`] instances (past the
//! cap the edge counts as violated, and the rescheduler keeps the
//! reference schedule).
//!
//! The definition is the polyhedral one, in the tests: the relation
//! `src[x] → dst[y]` composed from the access maps must be non-empty for
//! an edge, and must not meet the out-of-order relation
//! `S_src ∘ lex_ge ∘ S_dst⁻¹` for a legal one.

use crate::model::{image, KernelModel, WALK_CAP};
use crate::schedule::Schedule;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Kind of a dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DependenceKind {
    /// Read-after-write (true dataflow).
    Raw,
    /// Read-after-read (locality affinity, not an ordering constraint).
    Rar,
}

/// One dependence edge between two statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependence {
    pub kind: DependenceKind,
    /// Source statement index (the writer for RAW).
    pub src: usize,
    /// Destination statement index (the reader).
    pub dst: usize,
    /// The array carrying the dependence.
    pub array: teil::layout::ArrayId,
    /// The access of `src` carrying the edge: `None` for its write (RAW),
    /// `Some(k)` for its `reads[k]` (RAR).
    pub src_read: Option<usize>,
    /// The read of `dst` carrying the edge, an index into its `reads`.
    pub dst_read: usize,
}

/// All dependences of a kernel.
#[derive(Debug, Clone, Default)]
pub struct Dependences {
    pub edges: Vec<Dependence>,
}

impl Dependences {
    /// Compute RAW and RAR dependences of a model.
    pub fn analyze(model: &KernelModel) -> Dependences {
        // Per statement, the full-domain images of its write and reads.
        let images: Vec<Vec<_>> = (model.stmts.iter())
            .map(|s| {
                let bx: Vec<_> = s.extents.iter().map(|&e| (0, e as i64 - 1)).collect();
                let accesses = std::iter::once(&s.write).chain(s.reads.iter().map(|(_, f)| f));
                accesses.map(|f| image(f, &bx)).collect()
            })
            .collect();
        let exists = |d: &Dependence| {
            let src = &images[d.src][d.src_read.map_or(0, |k| k + 1)];
            match (src, &images[d.dst][d.dst_read + 1]) {
                (Some(a), Some(b)) => a.meets(b),
                _ => true,
            }
        };
        let mut edges = Vec::new();
        let n = model.stmts.len();
        // RAW: writer w, reader r sharing an element of the same array.
        for w in 0..n {
            for r in 0..n {
                for (k, (arr, _)) in model.stmts[r].reads.iter().enumerate() {
                    let edge = Dependence {
                        kind: DependenceKind::Raw,
                        src: w,
                        dst: r,
                        array: *arr,
                        src_read: None,
                        dst_read: k,
                    };
                    if *arr == model.stmts[w].write_array && exists(&edge) {
                        edges.push(edge);
                    }
                }
            }
        }
        // RAR: reader pairs over the same array (src < dst suffices for
        // the affinity heuristic), at most one edge per read of `a`.
        for a in 0..n {
            for b in (a + 1)..n {
                for (ka, (arr, _)) in model.stmts[a].reads.iter().enumerate() {
                    let edge = |kb| Dependence {
                        kind: DependenceKind::Rar,
                        src: a,
                        dst: b,
                        array: *arr,
                        src_read: Some(ka),
                        dst_read: kb,
                    };
                    let reads_b = model.stmts[b].reads.iter().enumerate();
                    if let Some(e) = reads_b
                        .filter(|(_, (arr_b, _))| arr_b == arr)
                        .map(|(kb, _)| edge(kb))
                        .find(|e| exists(e))
                    {
                        edges.push(e);
                    }
                }
            }
        }
        Dependences { edges }
    }

    /// Only the RAW edges.
    pub fn raw(&self) -> impl Iterator<Item = &Dependence> {
        self.edges.iter().filter(|e| e.kind == DependenceKind::Raw)
    }

    /// Only the RAR edges.
    pub fn rar(&self) -> impl Iterator<Item = &Dependence> {
        self.edges.iter().filter(|e| e.kind == DependenceKind::Rar)
    }
}

/// Whether a schedule satisfies every RAW dependence strictly: by `seq`
/// where it differs, by walking the instances where it is equal (see the
/// module docs). `deps` must be the analysis of `model`.
pub fn legal(model: &KernelModel, deps: &Dependences, sched: &Schedule) -> bool {
    deps.raw()
        .all(|d| match sched.seq[d.src].cmp(&sched.seq[d.dst]) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => holds_by_walk(model, d, sched),
        })
}

/// The enumerated definition, for one RAW edge: walk the writer's
/// instances keeping each address's latest write tuple, then require
/// every read of that address by the reader to come strictly after it.
/// `false` without walking when the two statements have more than
/// [`WALK_CAP`] instances between them.
fn holds_by_walk(model: &KernelModel, d: &Dependence, sched: &Schedule) -> bool {
    let (w, r) = (&model.stmts[d.src], &model.stmts[d.dst]);
    if w.instances().saturating_add(r.instances()) > WALK_CAP {
        return false;
    }
    let mut latest: HashMap<i128, Vec<i64>> = HashMap::new();
    w.walk(|point| {
        let t = sched.tuple_of(d.src, point);
        let slot = latest.entry(w.write.at(point)).or_default();
        if t > *slot {
            *slot = t;
        }
        false
    });
    let read = &r.reads[d.dst_read].1;
    !r.walk(|point| {
        (latest.get(&read.at(point))).is_some_and(|t| *t >= sched.tuple_of(d.dst, point))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liveness::tests::{fused_schedule, random_schedule};
    use crate::model::tests::{domain, read_map, write_map};
    use crate::schedule::tests::stmt_map;
    use crate::{reschedule, SchedulerOptions};
    use polyhedra::{lex_le_map, Map};
    use teil::layout::{ArrayId, LayoutPlan};
    use teil::lower::lower;
    use teil::transform::factorize;

    /// Instance-wise relation `src[x] → dst[y]` of an edge: the instance
    /// pairs touching the same array element. `model` must be the one the
    /// edge was found in.
    pub(crate) fn relation(d: &Dependence, model: &KernelModel) -> Map {
        let src_access = match d.src_read {
            None => write_map(model, d.src),
            Some(k) => read_map(model, d.src, k),
        };
        src_access.compose(&read_map(model, d.dst, d.dst_read).reverse())
    }

    /// The definition, for one RAW edge: the out-of-order relation
    /// `O = S_src ∘ lex_ge ∘ S_dst⁻¹` (pairs whose writer is scheduled at
    /// or after the reader) does not meet the edge's relation.
    pub(crate) fn holds_by_composition(
        model: &KernelModel,
        d: &Dependence,
        sched: &Schedule,
    ) -> bool {
        let lex_ge = lex_le_map(sched.dim).reverse();
        let out_of_order = stmt_map(sched, model, d.src)
            .compose(&lex_ge)
            .compose(&stmt_map(sched, model, d.dst).reverse());
        relation(d, model).intersect(&out_of_order).is_empty()
    }

    fn model(n: usize, factored: bool) -> KernelModel {
        let typed =
            cfdlang::check(&cfdlang::parse(&cfdlang::examples::inverse_helmholtz(n)).unwrap())
                .unwrap();
        let mut m = lower(&typed).unwrap();
        if factored {
            m = factorize(&m);
        }
        let layout = LayoutPlan::row_major(&m);
        KernelModel::build(&m, &layout)
    }

    #[test]
    fn helmholtz_has_expected_raw_chain() {
        let km = model(3, false);
        let deps = Dependences::analyze(&km);
        let raw: Vec<(usize, usize)> = deps.raw().map(|d| (d.src, d.dst)).collect();
        // t (S0) feeds Hadamard (S1); r (S1) feeds v (S2).
        assert!(raw.contains(&(0, 1)));
        assert!(raw.contains(&(1, 2)));
        assert!(!raw.contains(&(0, 2)));
    }

    #[test]
    fn rar_on_shared_operand() {
        let km = model(3, false);
        let deps = Dependences::analyze(&km);
        // Both contractions read S: a RAR edge between S0 and S2 exists.
        assert!(deps.rar().any(|d| (d.src, d.dst) == (0, 2)));
    }

    #[test]
    fn reference_schedule_is_legal() {
        let km = model(3, false);
        let deps = Dependences::analyze(&km);
        let s = Schedule::reference(&km);
        assert!(legal(&km, &deps, &s));
    }

    #[test]
    fn reversed_program_order_is_illegal() {
        let km = model(3, false);
        let deps = Dependences::analyze(&km);
        let mut s = Schedule::reference(&km);
        s.seq = vec![2, 1, 0];
        assert!(!legal(&km, &deps, &s));
    }

    #[test]
    fn loop_permutations_stay_legal() {
        // Permuting loops within a statement cannot break cross-statement
        // RAW edges that are carried at the sequence dimension.
        let km = model(3, false);
        let deps = Dependences::analyze(&km);
        let mut s = Schedule::reference(&km);
        s.perms[0] = vec![5, 4, 3, 2, 1, 0];
        s.perms[2] = vec![2, 1, 0, 5, 4, 3];
        assert!(legal(&km, &deps, &s));
    }

    #[test]
    fn illegal_fusion_detected() {
        // Fusing producer and consumer at the same point with the
        // *consumer first* (micro order reversed) violates RAW.
        let km = model(3, false);
        let deps = Dependences::analyze(&km);
        let mut s = Schedule::reference(&km);
        // Fuse S1 (Hadamard) and S2 (second contraction): S2 reads r at
        // iteration points different from where S1 writes it, so fusing
        // them at equal depth is illegal no matter the micro order: the
        // contraction at point (i,j,k) reads r[l,m,n] for all l,m,n,
        // including points S1 has not reached yet.
        s.seq = vec![0, 1, 1];
        s.micro = vec![0, 0, 1];
        assert!(!legal(&km, &deps, &s));
    }

    #[test]
    fn legal_fusion_of_pointwise_consumer() {
        // In the factored module, the Hadamard (r = D ∘ t) reads t at
        // exactly the point the final contraction stage wrote — fusing
        // with micro ordering writer-before-reader is legal iff the loop
        // orders match.
        let km = model(3, true);
        let deps = Dependences::analyze(&km);
        // Find the statement writing t's array and the Hadamard reading it.
        // In the factored Helmholtz these are stmt 2 (t) and 3 (r).
        let mut s = Schedule::reference(&km);
        s.seq = vec![0, 1, 2, 2, 3, 4, 5];
        s.micro = vec![0, 0, 0, 1, 0, 0, 0];
        // Final t-stage has rank 4 (i,j,k,l); Hadamard rank 3 (i,j,k):
        // loops (i,j,k) coincide on the first three depths, and the
        // writer's 4th loop is a reduction that finishes before micro 1…
        // lexicographically [2, i,j,k, l, 0] vs [2, i,j,k, 0, 1]: the
        // reader at (i,j,k,0,1) must come after ALL writer points
        // (i,j,k,l,0); with l >= 1 > 0 the writer tuple [2,i,j,k,1,0]
        // is lexicographically after the reader [2,i,j,k,0,1] — illegal!
        assert!(!legal(&km, &deps, &s));
        // Putting the reduction dim *before* the shared dims fixes it...
        // but then it is no longer a per-point fusion. The legality
        // checker correctly rejects naive fusion across a reduction.
    }

    /// The analysis as it was defined before the emptiness test: compose
    /// every same-array access pair and keep the non-empty relations, each
    /// edge with its relation.
    fn analyze_by_composition(model: &KernelModel) -> Vec<(Dependence, Map)> {
        let mut edges = Vec::new();
        let n = model.stmts.len();
        for w in 0..n {
            let ws = &model.stmts[w];
            for r in 0..n {
                for (k, (arr, _)) in model.stmts[r].reads.iter().enumerate() {
                    if *arr != ws.write_array {
                        continue;
                    }
                    let rel = write_map(model, w).compose(&read_map(model, r, k).reverse());
                    if !rel.is_empty() {
                        let edge = Dependence {
                            kind: DependenceKind::Raw,
                            src: w,
                            dst: r,
                            array: *arr,
                            src_read: None,
                            dst_read: k,
                        };
                        edges.push((edge, rel));
                    }
                }
            }
        }
        for a in 0..n {
            for b in (a + 1)..n {
                for (ka, (arr_a, _)) in model.stmts[a].reads.iter().enumerate() {
                    for (kb, (arr_b, _)) in model.stmts[b].reads.iter().enumerate() {
                        if arr_a != arr_b {
                            continue;
                        }
                        let rel = read_map(model, a, ka).compose(&read_map(model, b, kb).reverse());
                        if !rel.is_empty() {
                            let edge = Dependence {
                                kind: DependenceKind::Rar,
                                src: a,
                                dst: b,
                                array: *arr_a,
                                src_read: Some(ka),
                                dst_read: kb,
                            };
                            edges.push((edge, rel));
                            break;
                        }
                    }
                }
            }
        }
        edges
    }

    /// Every kernel of the definition tests' zoo plus an element-wise
    /// chain, which stays legal as one fused group, ± factorised, and a
    /// kernel under a transposed layout.
    fn zoo() -> Vec<(String, teil::ir::Module, KernelModel)> {
        use crate::liveness::tests::{example_sources, transposed_kernel, ELEMENTWISE_CHAIN};
        let mut sources = example_sources().to_vec();
        sources.push(ELEMENTWISE_CHAIN.to_string());
        let mut out = Vec::new();
        for (k, src) in sources.iter().enumerate() {
            for factored in [false, true] {
                for (m, km) in crate::liveness::tests::kernels(src, factored) {
                    out.push((format!("source {k}, factored {factored}"), m, km));
                }
            }
        }
        let (m, km) = transposed_kernel();
        out.push(("transposed inverse_helmholtz(3)".to_string(), m, km));
        out
    }

    #[test]
    fn analyze_equals_the_composition_definition() {
        let (mut raw, mut rar) = (0, 0);
        for (name, _, km) in zoo() {
            let reference = analyze_by_composition(&km);
            let deps = Dependences::analyze(&km);
            let expected: Vec<Dependence> = reference.iter().map(|(d, _)| d.clone()).collect();
            assert_eq!(deps.edges, expected, "{name}");
            for (d, rel) in &reference {
                assert_eq!(&relation(d, &km), rel, "{name}: {d:?}");
            }
            raw += deps.raw().count();
            rar += deps.rar().count();
        }
        assert!(
            raw > 0 && rar > 0,
            "both kinds must occur: {raw} RAW, {rar} RAR"
        );
    }

    /// The instances of statement `si`, each with the address of `arr`
    /// that `access` touches there, enumerated point by point.
    fn touches(km: &KernelModel, si: usize, access: &Map, arr: ArrayId) -> Vec<(Vec<usize>, i64)> {
        let size = km.layout.arrays[arr.0].size as i64;
        domain(km, si)
            .points()
            .map(|point| {
                let addr = (0..size)
                    .find(|&a| access.contains(&point, &[a]))
                    .expect("every instance touches one element");
                (point.iter().map(|&v| v as usize).collect(), addr)
            })
            .collect()
    }

    type EdgeTouches = (usize, usize, Vec<(Vec<usize>, i64)>, Vec<(Vec<usize>, i64)>);

    /// The definition tuple by tuple: on every RAW edge, every write of an
    /// element is scheduled strictly before every read of it.
    fn legal_by_enumeration(sched: &Schedule, edges: &[EdgeTouches]) -> bool {
        edges.iter().all(|(w, r, writes, reads)| {
            let mut last_write: HashMap<i64, Vec<i64>> = HashMap::new();
            for (point, addr) in writes {
                let t = sched.tuple_of(*w, point);
                let slot = last_write.entry(*addr).or_insert_with(|| t.clone());
                if t > *slot {
                    *slot = t;
                }
            }
            reads.iter().all(|(point, addr)| {
                last_write
                    .get(addr)
                    .is_none_or(|t| *t < sched.tuple_of(*r, point))
            })
        })
    }

    /// `legal` against the all-edges composition definition and the
    /// tuple-by-tuple enumeration, over the zoo under the reference, the
    /// rescheduled, the whole-kernel fused and random schedules (tied
    /// `seq`, random permutations and `micro`). Tallies verdicts
    /// `[illegal, legal]`, and separately those of schedules with a RAW
    /// edge inside a fused group.
    #[test]
    fn legal_equals_the_enumerated_definition() {
        let (mut verdicts, mut fused_verdicts) = ([0usize; 2], [0usize; 2]);
        let mut rng = 0x5EC_0DE5_u64;
        for (name, m, km) in zoo() {
            let deps = Dependences::analyze(&km);
            let edges: Vec<EdgeTouches> = deps
                .raw()
                .map(|d| {
                    let read = read_map(&km, d.dst, d.dst_read);
                    (
                        d.src,
                        d.dst,
                        touches(&km, d.src, &write_map(&km, d.src), d.array),
                        touches(&km, d.dst, &read, d.array),
                    )
                })
                .collect();
            let mut schedules = vec![
                Schedule::reference(&km),
                reschedule(&m, &km, &deps, &SchedulerOptions),
                fused_schedule(&km),
            ];
            schedules.extend((0..6).map(|_| random_schedule(&km, &mut rng)));
            for s in &schedules {
                let verdict = legal(&km, &deps, s);
                let definition = deps.raw().all(|d| holds_by_composition(&km, d, s));
                assert_eq!(verdict, definition, "{name} under {s:?}");
                assert_eq!(
                    verdict,
                    legal_by_enumeration(s, &edges),
                    "{name} under {s:?}"
                );
                verdicts[verdict as usize] += 1;
                if deps.raw().any(|d| s.fused(d.src, d.dst)) {
                    fused_verdicts[verdict as usize] += 1;
                }
            }
        }
        assert!(
            verdicts.iter().all(|&v| v > 0),
            "both verdicts: {verdicts:?}"
        );
        assert!(
            fused_verdicts.iter().all(|&v| v > 0),
            "the fused path must reach both verdicts: {fused_verdicts:?}"
        );
    }

    /// Layouts that place a tensor below its array, past it, or with a
    /// stride too wide to image: `analyze` and the liveness ladder run
    /// without a panic and equal their definitions. The wide image counts
    /// as an edge (here a real one), and its pairs reach the exact rung.
    #[test]
    fn addresses_outside_the_array_equal_the_definitions() {
        use crate::liveness::tests::{assert_ladder_is_exact, kernels};
        let (m, _) = kernels(&cfdlang::examples::inverse_helmholtz(3), false).remove(0);
        for (tensor, strides, offset) in [
            ("t", vec![9, 3, 1], -100),
            ("r", vec![9, 3, 1], 1000),
            ("t", vec![1 << 30, 3, 1], 0),
        ] {
            let mut layout = LayoutPlan::row_major(&m);
            layout.with_strides(m.find(tensor).unwrap(), strides.clone(), offset);
            let km = KernelModel::build(&m, &layout);
            let name = format!("{tensor} at {strides:?} + {offset}");
            let deps = Dependences::analyze(&km);
            let expected: Vec<Dependence> = analyze_by_composition(&km)
                .into_iter()
                .map(|(d, _)| d)
                .collect();
            assert_eq!(deps.edges, expected, "{name}");
            let mut tally = [0usize; 3];
            for s in [
                Schedule::reference(&km),
                reschedule(&m, &km, &deps, &SchedulerOptions),
            ] {
                assert_ladder_is_exact(&name, &m, &km, &s, &mut tally);
            }
            assert_eq!(tally[2] > 0, strides[0] == 1 << 30, "{name}: {tally:?}");
        }
    }

    /// `analyze` and the equal-`seq` walk against the compositions on
    /// every generated kernel, the walk under the reference and the
    /// compiled schedule. The generator's pure self-contraction
    /// `c = c # s . [[r-1 r]]` is a statement reading its own output, so
    /// it reaches the walk.
    #[test]
    fn generated_equal_seq_walks_equal_the_composition() {
        let mut checked = 0;
        for (name, m, km) in crate::liveness::tests::generated_kernels() {
            let deps = Dependences::analyze(&km);
            let expected: Vec<Dependence> = (analyze_by_composition(&km).into_iter())
                .map(|(d, _)| d)
                .collect();
            assert_eq!(deps.edges, expected, "{name}");
            let compiled = reschedule(&m, &km, &deps, &SchedulerOptions);
            for s in [Schedule::reference(&km), compiled] {
                for d in deps.raw().filter(|d| s.seq[d.src] == s.seq[d.dst]) {
                    let walk = holds_by_walk(&km, d, &s);
                    assert_eq!(walk, holds_by_composition(&km, d, &s), "{name}: {d:?}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "no generated edge has equal seq");
    }

    /// Two fused element-wise statements over 600 000 elements: the walk
    /// holds the edge at four elements, and past [`WALK_CAP`] instances
    /// it answers "not legal" without walking.
    #[test]
    fn legality_past_the_walk_cap_answers_not_legal() {
        use crate::liveness::tests::kernels;
        let chain = "var input a : [4]\nvar input b : [4]\nvar t : [4]\n\
            var output o : [4]\nt = a * b\no = t * a";
        for (words, legal_verdict) in [("4", true), ("600000", false)] {
            let (_, km) = kernels(&chain.replace('4', words), false).remove(0);
            let deps = Dependences::analyze(&km);
            let mut s = Schedule::reference(&km);
            s.seq = vec![0, 0];
            s.micro = vec![0, 1];
            let d = deps.raw().find(|d| (d.src, d.dst) == (0, 1)).unwrap();
            let past = 2 * km.stmts[0].instances() > WALK_CAP;
            assert_eq!(past, !legal_verdict, "{words} words");
            assert_eq!(holds_by_walk(&km, d, &s), legal_verdict, "{words} words");
            assert_eq!(legal(&km, &deps, &s), legal_verdict, "{words} words");
        }
    }
}
