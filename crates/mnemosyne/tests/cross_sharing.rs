//! Property test: cross-kernel PLM sharing never violates
//! [`SharingSolution::validate`].
//!
//! Random chained programs are generated directly at the analysis level
//! — random per-kernel array sets (sizes, port demands, intra-kernel
//! interval compatibilities) plus a random but *structurally valid*
//! kernel-sequence liveness (temporaries live `[k, k]`, external inputs
//! `[0, k]`, external outputs `[k, K-1]`, handoffs `[from, to]` at both
//! ends). The merged configuration's greedy clique cover must validate
//! for every instance, and the no-cross-sharing merge must always be
//! the plain concatenation.

use mnemosyne::{merge_configs, share_groups, ArraySpec, MemoryOptions, MnemosyneConfig};
use proptest::prelude::*;
use pschedule::link::{ArraySeqInfo, CrossLiveness, Handoff};

/// One randomly generated kernel: `(n_temps, n_inputs, has_output,
/// words_seed)`.
type KernelGene = (usize, usize, bool, u64);

/// Build a random chained program from per-kernel genes. Kernel `k`'s
/// first input consumes kernel `k-1`'s output when one exists — a
/// linear chain with external side inputs, the shape real CFD steps
/// have.
fn build_program(genes: &[KernelGene]) -> (Vec<MnemosyneConfig>, CrossLiveness) {
    let nk = genes.len();
    let mut configs = Vec::with_capacity(nk);
    let mut handoffs: Vec<Handoff> = Vec::new();
    let mut infos: Vec<Vec<ArraySeqInfo>> = Vec::with_capacity(nk);
    for (k, &(n_temps, n_inputs, has_output, seed)) in genes.iter().enumerate() {
        let words = |i: u64| 32 + ((seed.wrapping_mul(31).wrapping_add(i * 97)) % 480) as usize;
        let mut arrays: Vec<ArraySpec> = Vec::new();
        let mut kinfos: Vec<ArraySeqInfo> = Vec::new();
        let upstream = k > 0 && genes[k - 1].2;
        for i in 0..n_inputs.max(usize::from(upstream)) {
            let name = if upstream && i == 0 {
                format!("h{}", k - 1) // consume the predecessor's output
            } else {
                format!("in{k}_{i}")
            };
            let is_handoff = upstream && i == 0;
            let w = if is_handoff {
                // Handoff ends share one buffer — equal sizes.
                32 + ((genes[k - 1].3.wrapping_mul(7)) % 480) as usize
            } else {
                words(i as u64)
            };
            arrays.push(ArraySpec {
                name: name.clone(),
                words: w,
                interface: true,
                read_ports: 1 + (seed % 2) as u32,
                write_ports: 1,
            });
            if is_handoff {
                let hi = handoffs.len();
                handoffs.push(Handoff {
                    name: name.clone(),
                    from: k - 1,
                    to: k,
                    words: w,
                });
                kinfos.push(ArraySeqInfo {
                    name,
                    start: k - 1,
                    end: k,
                    external: false,
                    handoff: Some(hi),
                });
            } else {
                kinfos.push(ArraySeqInfo {
                    name,
                    start: 0,
                    end: k,
                    external: true,
                    handoff: None,
                });
            }
        }
        if has_output {
            let name = format!("h{k}");
            let w = 32 + ((seed.wrapping_mul(7)) % 480) as usize;
            arrays.push(ArraySpec {
                name: name.clone(),
                words: w,
                interface: true,
                read_ports: 1,
                write_ports: 1,
            });
            let consumed = k + 1 < nk; // the next kernel will consume it
            kinfos.push(ArraySeqInfo {
                name,
                start: k,
                end: if consumed { k + 1 } else { nk - 1 },
                external: !consumed,
                // The handoff record is appended when the consumer is
                // generated; patch the index afterwards.
                handoff: None,
            });
        }
        for i in 0..n_temps {
            arrays.push(ArraySpec {
                name: format!("t{k}_{i}"),
                words: words(1000 + i as u64),
                interface: false,
                read_ports: 1,
                write_ports: 1,
            });
            kinfos.push(ArraySeqInfo {
                name: format!("t{k}_{i}"),
                start: k,
                end: k,
                external: false,
                handoff: None,
            });
        }
        // Intra-kernel compatibility: every other temporary pair (an
        // arbitrary but symmetric-free interval-ish pattern).
        let mut compat = Vec::new();
        for a in 0..arrays.len() {
            for b in (a + 1)..arrays.len() {
                if !arrays[a].interface && !arrays[b].interface && (a + b) % 2 == 0 {
                    compat.push((a, b));
                }
            }
        }
        configs.push(MnemosyneConfig {
            arrays,
            address_space_compatible: compat,
            memory_interface_compatible: vec![],
        });
        infos.push(kinfos);
    }
    // Patch the producer-side handoff indices.
    for (hi, h) in handoffs.iter().enumerate() {
        if let Some(info) = infos[h.from].iter_mut().find(|a| a.name == h.name) {
            info.handoff = Some(hi);
        }
    }
    let cross = CrossLiveness {
        kernels: (0..nk).map(|k| format!("k{k}")).collect(),
        handoffs,
        arrays: infos,
    };
    (configs, cross)
}

fn kernel_gene() -> impl Strategy<Value = KernelGene> {
    (0usize..4, 0usize..3, proptest::bool::ANY, 0u64..1_000_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The merged configuration's greedy sharing solution validates for
    /// every random chained program — cross-kernel co-location never
    /// groups incompatible arrays, duplicates members or drops one.
    #[test]
    fn cross_kernel_sharing_always_validates(
        genes in proptest::collection::vec(kernel_gene(), 4)
    ) {
        let (configs, cross) = build_program(&genes);
        let parts: Vec<&MnemosyneConfig> = configs.iter().collect();
        for cross_sharing in [false, true] {
            let plan = merge_configs(&parts, &cross, cross_sharing);
            let sol = share_groups(&plan.config);
            prop_assert_eq!(
                sol.validate(&plan.config),
                Ok(()),
                "cross_sharing={}",
                cross_sharing
            );
        }
    }

    /// Disabled cross-sharing is a plain concatenation: array count,
    /// per-array words, and total no-sharing BRAMs all equal the sum of
    /// the per-kernel subsystems.
    #[test]
    fn no_cross_sharing_is_concatenation(
        genes in proptest::collection::vec(kernel_gene(), 3)
    ) {
        let (configs, cross) = build_program(&genes);
        let parts: Vec<&MnemosyneConfig> = configs.iter().collect();
        let plan = merge_configs(&parts, &cross, false);
        prop_assert_eq!(plan.cross_edges, 0);
        let opts = MemoryOptions::default();
        let merged = mnemosyne::synthesize_program(&plan, &opts);
        let sum: usize = configs
            .iter()
            .map(|c| mnemosyne::synthesize(c, &opts).brams)
            .sum();
        prop_assert_eq!(merged.brams, sum);
    }

    /// Cross-kernel sharing can only reduce (never grow) the shared PLM
    /// BRAM budget relative to the concatenation.
    #[test]
    fn cross_sharing_never_costs_brams(
        genes in proptest::collection::vec(kernel_gene(), 4)
    ) {
        let (configs, cross) = build_program(&genes);
        let parts: Vec<&MnemosyneConfig> = configs.iter().collect();
        let opts = MemoryOptions::default();
        let concat = mnemosyne::synthesize_program(&merge_configs(&parts, &cross, false), &opts);
        let shared = mnemosyne::synthesize_program(&merge_configs(&parts, &cross, true), &opts);
        prop_assert!(shared.brams <= concat.brams,
            "shared {} > concat {}", shared.brams, concat.brams);
    }
}
