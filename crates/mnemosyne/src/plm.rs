//! PLM unit construction and BRAM bank packing.
//!
//! Every sharing group becomes one Private Local Memory unit: a set of
//! BRAM36 blocks plus the controller logic (address decode, bank mux,
//! port arbitration) that presents the standard CE/A/Q/WE memory
//! interface of Figure 6 to the accelerator with fixed single-cycle
//! latency.
//!
//! # BRAM model
//!
//! A Xilinx BRAM36 holds 36 Kib; in 512 × 72-bit mode it stores 512
//! 64-bit words (the 8 parity bits absorb ECC). Each block has two
//! physical ports. A PLM unit therefore needs
//!
//! ```text
//! depth_banks = ceil(words / 512)
//! replication = ceil((read_ports + write_ports) / 2)
//! brams       = depth_banks × replication
//! ```

use crate::config::MnemosyneConfig;
use crate::sharing::SharingSolution;

/// 64-bit words per BRAM36 block (the xczu7ev of the ZCU106).
const WORDS_PER_BRAM: usize = 512;
/// Ports per BRAM block (true dual port).
const PORTS_PER_BRAM: u32 = 2;

/// Options for memory synthesis.
#[derive(Debug, Clone)]
pub struct MemoryOptions {
    /// Apply liveness-based sharing (the paper's optimization).
    /// Interface arrays never share: they are wired to the DMA engine.
    pub sharing: bool,
}

impl Default for MemoryOptions {
    fn default() -> Self {
        MemoryOptions { sharing: true }
    }
}

/// One generated PLM unit.
#[derive(Debug, Clone, PartialEq)]
pub struct PlmUnit {
    pub name: String,
    /// Arrays overlaid in this unit (indices into the config).
    pub members: Vec<usize>,
    /// Buffer depth in words (max member size).
    pub words: usize,
    /// BRAM36 blocks used.
    pub brams: usize,
    pub read_ports: u32,
    pub write_ports: u32,
    /// Controller LUTs (decode + mux).
    pub luts: usize,
    /// Controller flip-flops.
    pub ffs: usize,
}

/// The memory subsystem of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySubsystem {
    pub units: Vec<PlmUnit>,
    pub brams: usize,
    pub luts: usize,
    pub ffs: usize,
}

impl MemorySubsystem {
    /// The unit holding a given array index.
    pub fn unit_of(&self, array: usize) -> Option<&PlmUnit> {
        self.units.iter().find(|u| u.members.contains(&array))
    }
}

/// Controller resource model, calibrated against Mnemosyne's reported
/// overheads: a fixed decode cost per unit plus a per-bank mux term and a
/// small per-overlaid-array term (address rebasing).
const LUT_PER_UNIT: usize = 40;
const LUT_PER_BANK: usize = 10;
const LUT_PER_MEMBER: usize = 12;
const FF_PER_UNIT: usize = 24;
const FF_PER_BANK: usize = 6;

/// Build the subsystem for a sharing solution.
pub fn build_subsystem(cfg: &MnemosyneConfig, solution: &SharingSolution) -> MemorySubsystem {
    let mut units = Vec::with_capacity(solution.groups.len());
    for (gi, group) in solution.groups.iter().enumerate() {
        let words = solution.group_words(cfg, gi);
        let read_ports = group
            .iter()
            .map(|&a| cfg.arrays[a].read_ports)
            .max()
            .unwrap_or(1);
        let write_ports = group
            .iter()
            .map(|&a| cfg.arrays[a].write_ports)
            .max()
            .unwrap_or(1);
        let depth_banks = words.div_ceil(WORDS_PER_BRAM);
        let replication = (read_ports + write_ports).div_ceil(PORTS_PER_BRAM) as usize;
        let brams = depth_banks * replication.max(1);
        let name = if group.len() == 1 {
            format!("plm_{}", cfg.arrays[group[0]].name)
        } else {
            let names: Vec<&str> = group.iter().map(|&a| cfg.arrays[a].name.as_str()).collect();
            format!("plm_{}", names.join("_"))
        };
        let luts = LUT_PER_UNIT + LUT_PER_BANK * brams + LUT_PER_MEMBER * (group.len() - 1);
        let ffs = FF_PER_UNIT + FF_PER_BANK * brams;
        units.push(PlmUnit {
            name,
            members: group.clone(),
            words,
            brams,
            read_ports,
            write_ports,
            luts,
            ffs,
        });
    }
    let brams = units.iter().map(|u| u.brams).sum();
    let luts = units.iter().map(|u| u.luts).sum();
    let ffs = units.iter().map(|u| u.ffs).sum();
    MemorySubsystem {
        units,
        brams,
        luts,
        ffs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArraySpec;

    fn helmholtz_cfg() -> MnemosyneConfig {
        // The p=11 Inverse Helmholtz array set with the factored
        // temporaries and their interval compatibilities (computed by the
        // pschedule liveness tests; hard-coded here to keep this crate's
        // tests independent of the analysis).
        let w = 1331;
        let arrays = vec![
            ArraySpec {
                name: "S".into(),
                words: 121,
                interface: true,
                read_ports: 1,
                write_ports: 1,
            },
            ArraySpec {
                name: "D".into(),
                words: w,
                interface: true,
                read_ports: 1,
                write_ports: 1,
            },
            ArraySpec {
                name: "u".into(),
                words: w,
                interface: true,
                read_ports: 1,
                write_ports: 1,
            },
            ArraySpec {
                name: "v".into(),
                words: w,
                interface: true,
                read_ports: 1,
                write_ports: 1,
            },
            ArraySpec {
                name: "t".into(),
                words: w,
                interface: false,
                read_ports: 1,
                write_ports: 1,
            },
            ArraySpec {
                name: "r".into(),
                words: w,
                interface: false,
                read_ports: 1,
                write_ports: 1,
            },
            ArraySpec {
                name: "t0".into(),
                words: w,
                interface: false,
                read_ports: 1,
                write_ports: 1,
            },
            ArraySpec {
                name: "t1".into(),
                words: w,
                interface: false,
                read_ports: 1,
                write_ports: 1,
            },
            ArraySpec {
                name: "t2".into(),
                words: w,
                interface: false,
                read_ports: 1,
                write_ports: 1,
            },
            ArraySpec {
                name: "t3".into(),
                words: w,
                interface: false,
                read_ports: 1,
                write_ports: 1,
            },
        ];
        // Temporaries in stage order: t0(0-1) t1(1-2) t(2-3) r(3-4)
        // t2(4-5) t3(5-6): compatible iff lifetimes disjoint.
        // Indices:         t=4 r=5 t0=6 t1=7 t2=8 t3=9.
        let lifetimes = [
            (4, 2, 3),
            (5, 3, 4),
            (6, 0, 1),
            (7, 1, 2),
            (8, 4, 5),
            (9, 5, 6),
        ];
        let mut compat = Vec::new();
        for (i, &(ai, s1, e1)) in lifetimes.iter().enumerate() {
            for &(aj, s2, e2) in &lifetimes[i + 1..] {
                if e1 < s2 || e2 < s1 {
                    compat.push((ai.min(aj), ai.max(aj)));
                }
            }
        }
        // u dies after stage 0; compatible with everything born later.
        for &(aj, s2, _) in &lifetimes {
            if s2 >= 1 && aj != 6 {
                compat.push((2, aj));
            }
        }
        // v born at stage 6.
        for &(aj, _, e2) in &lifetimes {
            if e2 < 6 {
                compat.push((3.min(aj), 3.max(aj)));
            }
        }
        compat.sort_unstable();
        compat.dedup();
        MnemosyneConfig {
            arrays,
            address_space_compatible: compat,
            memory_interface_compatible: vec![],
        }
    }

    #[test]
    fn no_sharing_brams_match_paper_shape() {
        // Paper (Vivado mapping): 31 BRAMs. Our 512-word BRAM model: 9
        // arrays of 1331 words → 3 BRAMs each, S → 1 BRAM: 28 total.
        let cfg = helmholtz_cfg();
        let ms = crate::synthesize(&cfg, &MemoryOptions { sharing: false });
        assert_eq!(ms.units.len(), 10);
        assert_eq!(ms.brams, 28);
    }

    #[test]
    fn sharing_brams_match_paper_shape() {
        // Paper: 18 BRAMs with sharing. Our model: interface arrays
        // S(1) + D,u,v (3 each) + two overlaid temp buffers (3 each): 16.
        let cfg = helmholtz_cfg();
        let ms = crate::synthesize(&cfg, &MemoryOptions::default());
        assert_eq!(ms.brams, 16);
        // The six temporaries collapse into two PLM units.
        let temp_units: Vec<&PlmUnit> = ms
            .units
            .iter()
            .filter(|u| u.members.iter().all(|&m| !cfg.arrays[m].interface))
            .collect();
        assert_eq!(temp_units.len(), 2, "{temp_units:?}");
        for u in temp_units {
            assert_eq!(u.members.len(), 3);
        }
    }

    #[test]
    fn sharing_reduction_ratio_matches_paper() {
        // Paper: 18/31 = 0.58. Ours: 16/28 = 0.57.
        let cfg = helmholtz_cfg();
        let no = crate::synthesize(&cfg, &MemoryOptions { sharing: false });
        let sh = crate::synthesize(&cfg, &MemoryOptions::default());
        let ratio = sh.brams as f64 / no.brams as f64;
        assert!((0.5..0.65).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn bank_packing_depth() {
        assert_eq!(1331usize.div_ceil(WORDS_PER_BRAM), 3);
        assert_eq!(121usize.div_ceil(WORDS_PER_BRAM), 1);
        assert_eq!(512usize.div_ceil(WORDS_PER_BRAM), 1);
        assert_eq!(513usize.div_ceil(WORDS_PER_BRAM), 2);
    }

    #[test]
    fn multiport_replicates_banks() {
        let mut cfg = helmholtz_cfg();
        // Demand 3 read ports + 1 write port on u: ceil(4/2) = 2×.
        cfg.set_ports("u", 3, 1);
        let ms = crate::synthesize(&cfg, &MemoryOptions { sharing: false });
        let u = cfg.index_of("u").unwrap();
        assert_eq!(ms.unit_of(u).unwrap().brams, 6);
    }

    #[test]
    fn unit_names_reflect_members() {
        let cfg = helmholtz_cfg();
        let ms = crate::synthesize(&cfg, &MemoryOptions::default());
        assert!(ms.units.iter().any(|u| u.name == "plm_S"));
        assert!(ms
            .units
            .iter()
            .any(|u| u.members.len() == 3 && u.name.starts_with("plm_")));
    }

    #[test]
    fn controller_resources_scale_with_banks() {
        let cfg = helmholtz_cfg();
        let ms = crate::synthesize(&cfg, &MemoryOptions::default());
        for u in &ms.units {
            assert!(u.luts >= LUT_PER_UNIT + LUT_PER_BANK * u.brams);
            assert!(u.ffs > 0);
        }
        assert_eq!(ms.luts, ms.units.iter().map(|u| u.luts).sum::<usize>());
    }

    #[test]
    fn end_to_end_from_liveness_analysis() {
        // Full pipeline: DSL → IR → factorize → liveness → config →
        // subsystem; must agree with the hand-built expectation.
        use pschedule::{CompatibilityGraph, Dependences, KernelModel, Liveness, Schedule};
        use teil::layout::LayoutPlan;
        let typed =
            cfdlang::check(&cfdlang::parse(&cfdlang::examples::inverse_helmholtz(4)).unwrap())
                .unwrap();
        let m = teil::transform::factorize(&teil::lower::lower(&typed).unwrap());
        let layout = LayoutPlan::row_major(&m);
        let km = KernelModel::build(&m, &layout);
        let _deps = Dependences::analyze(&km);
        let sched = Schedule::reference(&km);
        let lv = Liveness::analyze(&m, &km, &sched);
        let graph = CompatibilityGraph::build(&km, &lv);
        let cfg = MnemosyneConfig::from_graph(&graph);
        let sh = crate::synthesize(&cfg, &MemoryOptions::default());
        let no = crate::synthesize(&cfg, &MemoryOptions { sharing: false });
        // p=4: arrays are 64 words → 1 BRAM each; S: 16 words → 1.
        assert_eq!(no.brams, 10);
        // Sharing collapses the six temporaries into two buffers.
        assert_eq!(sh.brams, 6);
    }
}
