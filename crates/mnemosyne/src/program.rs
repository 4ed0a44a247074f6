//! Program-wide memory synthesis: co-locating PLM groups **across**
//! kernels under one BRAM budget.
//!
//! A multi-kernel program executes its kernels sequentially on one
//! accelerator system, so arrays of different kernels are frequently
//! dead at the same time — every temporary of stage 0 is dead while
//! stage 1 runs, and a handoff buffer (producer output = consumer
//! input) is literally the *same* data at both ends. [`merge_configs`]
//! folds the per-kernel [`MnemosyneConfig`]s into one program-level
//! configuration whose compatibility relation is the union of
//!
//! * each kernel's own intra-kernel edges (from its liveness analysis),
//! * cross-kernel edges for pairs whose kernel-sequence live intervals
//!   are disjoint ([`CrossLiveness::cross_compatible`]), and
//! * aliasing edges between the two ends of every handoff.
//!
//! The existing sharing solver ([`share_groups`](crate::share_groups))
//! and PLM builder then run unchanged on the merged configuration —
//! cross-kernel co-location falls out of clique partitioning, and
//! [`SharingSolution::validate`](crate::SharingSolution::validate)
//! keeps holding (asserted by a property test in
//! `crates/mnemosyne/tests/cross_sharing.rs`).

use crate::config::{ArraySpec, MnemosyneConfig};
use crate::plm::{MemoryOptions, MemorySubsystem};
use pschedule::CrossLiveness;

/// The merged program-level memory configuration plus provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramMemoryPlan {
    /// Kernel names in execution order.
    pub kernels: Vec<String>,
    /// Merged configuration; arrays are namespaced `kernel.array`.
    pub config: MnemosyneConfig,
    /// Merged array index → `(kernel, index in that kernel's config)`.
    pub origin: Vec<(usize, usize)>,
    /// Cross-kernel address-space edges added (0 when cross-kernel
    /// sharing is disabled — the merge is then a plain concatenation).
    pub cross_edges: usize,
}

impl ProgramMemoryPlan {
    /// Kernel of a merged array index.
    pub fn kernel_of(&self, array: usize) -> usize {
        self.origin[array].0
    }

    /// Number of PLM units of a subsystem built from this plan whose
    /// members span more than one kernel — the co-location win.
    pub fn cross_kernel_units(&self, subsystem: &MemorySubsystem) -> usize {
        subsystem
            .units
            .iter()
            .filter(|u| {
                let k0 = self.kernel_of(u.members[0]);
                u.members.iter().any(|&m| self.kernel_of(m) != k0)
            })
            .count()
    }
}

/// Merge per-kernel configurations into one program configuration.
///
/// `parts[k]` is kernel `k`'s own configuration (its arrays may be a
/// subset of the IR tensors — e.g. `retain_interface` in non-decoupled
/// mode); `cross` supplies the kernel-sequence intervals. With
/// `cross_sharing` disabled no cross-kernel edge is added and the
/// result is the disjoint union of the parts, so synthesizing it
/// reproduces the concatenation of the per-kernel subsystems exactly.
pub fn merge_configs(
    parts: &[&MnemosyneConfig],
    cross: &CrossLiveness,
    cross_sharing: bool,
) -> ProgramMemoryPlan {
    assert_eq!(parts.len(), cross.kernels.len());
    let mut arrays: Vec<ArraySpec> = Vec::new();
    let mut origin: Vec<(usize, usize)> = Vec::new();
    let mut addr: Vec<(usize, usize)> = Vec::new();
    let mut iface: Vec<(usize, usize)> = Vec::new();
    let mut offset = vec![0usize; parts.len()];
    for (k, part) in parts.iter().enumerate() {
        offset[k] = arrays.len();
        for (i, a) in part.arrays.iter().enumerate() {
            // Host-visibility in the *merged* system comes from the
            // cross-kernel analysis: handoff buffers turn internal —
            // but only under cross-kernel sharing. Without it the
            // kernels keep their stand-alone DMA wiring (handoffs are
            // host-mediated copies) and the merge is an exact
            // concatenation.
            let external = if cross_sharing {
                cross
                    .info(k, &a.name)
                    .map(|s| s.external)
                    .unwrap_or(a.interface)
            } else {
                a.interface
            };
            arrays.push(ArraySpec {
                name: format!("{}.{}", cross.kernels[k], a.name),
                words: a.words,
                interface: external,
                read_ports: a.read_ports,
                write_ports: a.write_ports,
            });
            origin.push((k, i));
        }
        for &(a, b) in &part.address_space_compatible {
            addr.push((offset[k] + a, offset[k] + b));
        }
        for &(a, b) in &part.memory_interface_compatible {
            iface.push((offset[k] + a, offset[k] + b));
        }
    }
    let mut cross_edges = 0usize;
    if cross_sharing {
        for (gi, &(ka, ia)) in origin.iter().enumerate() {
            let Some(sa) = cross.info(ka, &parts[ka].arrays[ia].name) else {
                continue;
            };
            for (gj, &(kb, ib)) in origin.iter().enumerate().skip(gi + 1) {
                if ka == kb {
                    continue;
                }
                let Some(sb) = cross.info(kb, &parts[kb].arrays[ib].name) else {
                    continue;
                };
                if cross.cross_compatible(ka, sa, kb, sb) {
                    addr.push((gi, gj));
                    cross_edges += 1;
                }
            }
        }
    }
    addr.sort_unstable();
    addr.dedup();
    ProgramMemoryPlan {
        kernels: cross.kernels.clone(),
        config: MnemosyneConfig {
            arrays,
            address_space_compatible: addr,
            memory_interface_compatible: iface,
        },
        origin,
        cross_edges,
    }
}

/// Synthesize the shared program memory subsystem from a merged plan.
pub fn synthesize_program(plan: &ProgramMemoryPlan, opts: &MemoryOptions) -> MemorySubsystem {
    crate::synthesize(&plan.config, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharing;

    fn arr(name: &str, words: usize, interface: bool) -> ArraySpec {
        ArraySpec {
            name: name.into(),
            words,
            interface,
            read_ports: 1,
            write_ports: 1,
        }
    }

    /// Two tiny kernels: `a` produces `h`, `b` consumes it. Each kernel
    /// has one temporary and one external interface array.
    fn two_kernel_fixture() -> (Vec<MnemosyneConfig>, CrossLiveness) {
        use pschedule::link::{ArraySeqInfo, Handoff};
        let cfg_a = MnemosyneConfig {
            arrays: vec![arr("x", 64, true), arr("h", 64, true), arr("t", 64, false)],
            address_space_compatible: vec![],
            memory_interface_compatible: vec![],
        };
        let cfg_b = MnemosyneConfig {
            arrays: vec![arr("h", 64, true), arr("o", 64, true), arr("s", 64, false)],
            address_space_compatible: vec![],
            memory_interface_compatible: vec![],
        };
        let info = |name: &str, start, end, external, handoff| ArraySeqInfo {
            name: name.into(),
            start,
            end,
            external,
            handoff,
        };
        let cross = CrossLiveness {
            kernels: vec!["a".into(), "b".into()],
            handoffs: vec![Handoff {
                name: "h".into(),
                from: 0,
                to: 1,
                words: 64,
            }],
            arrays: vec![
                vec![
                    info("x", 0, 0, true, None),
                    info("h", 0, 1, false, Some(0)),
                    info("t", 0, 0, false, None),
                ],
                vec![
                    info("h", 0, 1, false, Some(0)),
                    info("o", 1, 1, true, None),
                    info("s", 1, 1, false, None),
                ],
            ],
        };
        (vec![cfg_a, cfg_b], cross)
    }

    #[test]
    fn disabled_cross_sharing_is_plain_concatenation() {
        let (cfgs, cross) = two_kernel_fixture();
        let parts: Vec<&MnemosyneConfig> = cfgs.iter().collect();
        let plan = merge_configs(&parts, &cross, false);
        assert_eq!(plan.cross_edges, 0);
        assert_eq!(plan.config.arrays.len(), 6);
        assert!(plan.config.address_space_compatible.is_empty());
        let ms = synthesize_program(&plan, &MemoryOptions::default());
        // One unit per array — exactly the per-kernel subsystems side
        // by side.
        assert_eq!(ms.units.len(), 6);
    }

    #[test]
    fn handoff_ends_colocate_and_temps_share() {
        let (cfgs, cross) = two_kernel_fixture();
        let parts: Vec<&MnemosyneConfig> = cfgs.iter().collect();
        let plan = merge_configs(&parts, &cross, true);
        assert!(plan.cross_edges > 0);
        let ms = synthesize_program(&plan, &MemoryOptions::default());
        let sol = sharing::share_groups(&plan.config);
        sol.validate(&plan.config).unwrap();
        // Both ends of h land in one unit.
        let ha = plan.config.index_of("a.h").unwrap();
        let hb = plan.config.index_of("b.h").unwrap();
        let unit = ms.unit_of(ha).unwrap();
        assert!(unit.members.contains(&hb), "{unit:?}");
        // The two temporaries have disjoint stage intervals → one unit.
        let ta = plan.config.index_of("a.t").unwrap();
        let sb = plan.config.index_of("b.s").unwrap();
        assert_eq!(ms.unit_of(ta).unwrap().name, ms.unit_of(sb).unwrap().name);
        assert!(plan.cross_kernel_units(&ms) >= 2);
        // External arrays stay alone (wired to the DMA).
        let x = plan.config.index_of("a.x").unwrap();
        assert_eq!(ms.unit_of(x).unwrap().members.len(), 1);
    }

    #[test]
    fn cross_sharing_cuts_bram_budget() {
        let (cfgs, cross) = two_kernel_fixture();
        let parts: Vec<&MnemosyneConfig> = cfgs.iter().collect();
        let concat = synthesize_program(
            &merge_configs(&parts, &cross, false),
            &MemoryOptions::default(),
        );
        let shared = synthesize_program(
            &merge_configs(&parts, &cross, true),
            &MemoryOptions::default(),
        );
        assert!(
            shared.brams < concat.brams,
            "{} vs {}",
            shared.brams,
            concat.brams
        );
    }
}
