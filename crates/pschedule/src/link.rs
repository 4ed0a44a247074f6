//! Cross-kernel link analysis for multi-kernel programs.
//!
//! A multi-kernel program executes its kernels as a chain: stage 0 runs
//! to completion, hands its outputs to stage 1 through name-matched
//! tensors, and so on. That sequential structure induces a *second*
//! liveness problem, coarser than the per-kernel one of [`liveness`]:
//! every array of every kernel occupies a live interval in
//! **kernel-sequence space** (stage indices `0..K`), and two arrays of
//! *different* kernels may overlay one physical PLM buffer whenever
//!
//! * their sequence intervals are disjoint (one is dead before the
//!   other is born — e.g. any two temporaries of different stages), or
//! * they are two ends of the same **handoff** (a producer's output and
//!   a consumer's equally named input hold the same values, so
//!   co-locating them makes the kernel-to-kernel transfer free).
//!
//! The intervals are:
//!
//! | array | interval |
//! |-------|----------|
//! | temporary of stage `k` | `[k, k]` |
//! | external input of stage `k` | `[0, k]` (host loads all inputs before stage 0) |
//! | external output of stage `k` | `[k, K-1]` (host drains after the last stage) |
//! | handoff produced at `k`, last consumed at `j` | `[k, j]` (both ends) |
//!
//! [`CrossLiveness::analyze`] computes the handoffs (the inter-kernel
//! dependences), the intervals and the alias pairs from the kernels'
//! tensor IR modules; `mnemosyne` turns them into cross-kernel
//! compatibility edges for its sharing solver.
//!
//! [`liveness`]: crate::liveness

use teil::{Module, TensorKind};

/// One inter-kernel tensor handoff (an edge of the program's kernel
/// dependence chain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handoff {
    pub name: String,
    /// Producing kernel (stage index).
    pub from: usize,
    /// Consuming kernel.
    pub to: usize,
    /// Buffer size in 64-bit words.
    pub words: usize,
}

/// Kernel-sequence liveness of one array of one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArraySeqInfo {
    pub name: String,
    /// First stage at which the buffer holds live data.
    pub start: usize,
    /// Last stage at which the buffer is read.
    pub end: usize,
    /// Host-visible in the merged system (external input / final
    /// output); handoff buffers and temporaries are fabric-internal.
    pub external: bool,
    /// Index into [`CrossLiveness::handoffs`] when this array is one
    /// end of a handoff.
    pub handoff: Option<usize>,
}

/// The cross-kernel analysis result: handoffs plus per-kernel,
/// per-array sequence intervals.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossLiveness {
    /// Kernel names in execution order.
    pub kernels: Vec<String>,
    /// Inter-kernel dependences.
    pub handoffs: Vec<Handoff>,
    /// Per kernel: one entry per declared tensor, in module declaration
    /// order.
    pub arrays: Vec<Vec<ArraySeqInfo>>,
}

impl CrossLiveness {
    /// Analyze a chain of compiled kernels. `modules[k]` is kernel `k`'s
    /// canonicalized tensor IR. Fails when a handoff pair disagrees on
    /// shape (the frontend checks this too; this guards direct IR use).
    pub fn analyze(names: &[String], modules: &[&Module]) -> Result<CrossLiveness, String> {
        assert_eq!(names.len(), modules.len());
        let nk = names.len();
        // Resolve handoffs: each input of kernel j binds to the most
        // recent preceding kernel that outputs the same name.
        let mut handoffs: Vec<Handoff> = Vec::new();
        for (j, m) in modules.iter().enumerate() {
            for id in m.of_kind(TensorKind::Input) {
                let name = m.name(id);
                let producer = (0..j)
                    .rev()
                    .find_map(|i| Some((i, modules[i].find_of_kind(name, TensorKind::Output)?)));
                if let Some((i, out_id)) = producer {
                    if modules[i].shape(out_id) != m.shape(id) {
                        return Err(format!(
                            "handoff '{name}' shape mismatch between kernels '{}' and '{}'",
                            names[i], names[j]
                        ));
                    }
                    handoffs.push(Handoff {
                        name: name.to_string(),
                        from: i,
                        to: j,
                        words: m.shape(id).iter().product::<usize>().max(1),
                    });
                }
            }
        }
        // Sequence intervals. A handoff buffer is live from its
        // producer stage to its *last* consumer stage, at both ends.
        let mut arrays: Vec<Vec<ArraySeqInfo>> = Vec::with_capacity(nk);
        for (k, m) in modules.iter().enumerate() {
            let mut infos = Vec::new();
            for decl in &m.tensors {
                let name = decl.name.as_str();
                let (start, end, external, handoff) = match decl.kind {
                    TensorKind::Temp => (k, k, false, None),
                    TensorKind::Input => {
                        match handoffs.iter().position(|h| h.to == k && h.name == name) {
                            Some(hi) => {
                                let from = handoffs[hi].from;
                                let last = last_consumer(&handoffs, from, name);
                                (from, last, false, Some(hi))
                            }
                            None => (0, k, true, None),
                        }
                    }
                    TensorKind::Output => {
                        match handoffs.iter().rposition(|h| h.from == k && h.name == name) {
                            Some(hi) => {
                                let last = last_consumer(&handoffs, k, name);
                                (k, last, false, Some(hi))
                            }
                            None => (k, nk - 1, true, None),
                        }
                    }
                };
                infos.push(ArraySeqInfo {
                    name: name.to_string(),
                    start,
                    end,
                    external,
                    handoff,
                });
            }
            arrays.push(infos);
        }
        Ok(CrossLiveness {
            kernels: names.to_vec(),
            handoffs,
            arrays,
        })
    }

    /// Look up an array's sequence info by kernel index and name.
    pub fn info(&self, kernel: usize, name: &str) -> Option<&ArraySeqInfo> {
        self.arrays[kernel].iter().find(|a| a.name == name)
    }

    /// Whether two arrays of *different* kernels may overlay one buffer:
    /// either they are ends of the same handoff (same values), or their
    /// sequence intervals are disjoint.
    pub fn cross_compatible(
        &self,
        ka: usize,
        a: &ArraySeqInfo,
        kb: usize,
        b: &ArraySeqInfo,
    ) -> bool {
        if ka == kb {
            return false;
        }
        if let (Some(ha), Some(hb)) = (a.handoff, b.handoff) {
            let (ha, hb) = (&self.handoffs[ha], &self.handoffs[hb]);
            // All ends of one handed-off value share one buffer.
            if ha.name == hb.name && ha.from == hb.from {
                return true;
            }
        }
        a.end < b.start || b.end < a.start
    }

    /// Total handoff traffic per element in 64-bit words (stays inside
    /// the accelerator fabric; never crosses the DMA).
    pub fn handoff_words(&self) -> usize {
        // Each handed-off value is one shared buffer regardless of how
        // many consumers read it.
        let mut seen: Vec<(usize, &str)> = Vec::new();
        let mut words = 0;
        for h in &self.handoffs {
            if !seen.contains(&(h.from, h.name.as_str())) {
                seen.push((h.from, h.name.as_str()));
                words += h.words;
            }
        }
        words
    }
}

/// Last stage that consumes the value produced at `from` under `name`
/// (at least the producer stage itself).
fn last_consumer(handoffs: &[Handoff], from: usize, name: &str) -> usize {
    handoffs
        .iter()
        .filter(|h| h.from == from && h.name == name)
        .map(|h| h.to)
        .max()
        .unwrap_or(from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use teil::lower::lower;
    use teil::transform::factorize;

    fn modules_for(src: &str) -> (Vec<String>, Vec<Module>) {
        let set = cfdlang::check_set(&cfdlang::parse_set(src).unwrap()).unwrap();
        let names: Vec<String> = set.kernels.iter().map(|k| k.name.clone()).collect();
        let mods: Vec<Module> = set
            .kernels
            .iter()
            .map(|k| factorize(&lower(&k.typed).unwrap()))
            .collect();
        (names, mods)
    }

    #[test]
    fn simulation_step_handoffs_and_ranges() {
        let (names, mods) = modules_for(&cfdlang::examples::simulation_step(4));
        let refs: Vec<&Module> = mods.iter().collect();
        let x = CrossLiveness::analyze(&names, &refs).unwrap();
        assert_eq!(x.handoffs.len(), 2);
        assert_eq!(x.handoffs[0].name, "u");
        assert_eq!((x.handoffs[0].from, x.handoffs[0].to), (0, 1));
        assert_eq!(x.handoffs[1].name, "v");
        assert_eq!((x.handoffs[1].from, x.handoffs[1].to), (1, 2));
        // u lives [0, 1] at both ends; external inputs start at 0; the
        // final output w lives [2, 2].
        let u_out = x.info(0, "u").unwrap();
        assert_eq!((u_out.start, u_out.end, u_out.external), (0, 1, false));
        let u_in = x.info(1, "u").unwrap();
        assert_eq!((u_in.start, u_in.end), (0, 1));
        let s = x.info(1, "S").unwrap();
        assert_eq!((s.start, s.end, s.external), (0, 1, true));
        let w = x.info(2, "w").unwrap();
        assert_eq!((w.start, w.end, w.external), (2, 2, true));
        // Handoff words: u (64) + v (64).
        assert_eq!(x.handoff_words(), 128);
    }

    #[test]
    fn cross_compatibility_rules() {
        let (names, mods) = modules_for(&cfdlang::examples::simulation_step(4));
        let refs: Vec<&Module> = mods.iter().collect();
        let x = CrossLiveness::analyze(&names, &refs).unwrap();
        // Handoff ends are compatible (aliased).
        let u_out = x.info(0, "u").unwrap();
        let u_in = x.info(1, "u").unwrap();
        assert!(x.cross_compatible(0, u_out, 1, u_in));
        // Temporaries of different stages are compatible...
        let t = x.info(1, "t").unwrap();
        let w = x.info(2, "w").unwrap();
        assert!(x.cross_compatible(2, w, 1, t));
        // ...but a live handoff is not compatible with arrays inside
        // its interval.
        assert!(!x.cross_compatible(1, t, 0, u_out));
        // Same kernel is never cross-compatible (the per-kernel
        // analysis owns that case).
        let r = x.info(1, "r").unwrap();
        assert!(!x.cross_compatible(1, t, 1, r));
    }

    #[test]
    fn axpy_chain_links() {
        let (names, mods) = modules_for(&cfdlang::examples::axpy_chain(3));
        let refs: Vec<&Module> = mods.iter().collect();
        let x = CrossLiveness::analyze(&names, &refs).unwrap();
        assert_eq!(x.handoffs.len(), 1);
        assert_eq!(x.handoffs[0].name, "w");
        // x is an external input to both kernels (no aliasing).
        let x0 = x.info(0, "x").unwrap();
        let x1 = x.info(1, "x").unwrap();
        assert!(x0.external && x1.external);
        assert!(!x.cross_compatible(0, x0, 1, x1));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut a = Module::default();
        a.declare("h", vec![4], TensorKind::Output);
        let mut b = Module::default();
        b.declare("h", vec![5], TensorKind::Input);
        let names = vec!["a".to_string(), "b".to_string()];
        let err = CrossLiveness::analyze(&names, &[&a, &b]).unwrap_err();
        assert!(err.contains("shape mismatch"), "{err}");
    }
}
