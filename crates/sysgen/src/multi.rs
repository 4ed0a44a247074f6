//! Multi-accelerator system construction for multi-kernel programs.
//!
//! A whole CFD time-step compiles into **one** shared-memory
//! accelerator system: every kernel of the program gets its own
//! replicated accelerator bank (`ks[i]` instances of stage `i`), all
//! banks execute against the same `m` PLM sets (which hold the merged,
//! cross-kernel-shared program memory of
//! `mnemosyne::synthesize_program`), and a single DMA engine plus
//! AXI-lite peripheral serve the union. Eq. (3) generalizes to
//!
//! ```text
//! Σ_i [H_i]·k_i  +  [M]·m  +  glue  ≤  [A]
//! ```
//!
//! with the same power-of-two batching constraint per stage
//! (`m = 2^j · k_i`). The host program runs `Ne/m` main-loop rounds:
//! transfer the *external* inputs for `m` elements, run each stage's
//! `m/k_i` start/wait batches in chain order (handoffs stay inside the
//! PLM fabric — co-located buffers make them free), then transfer the
//! external outputs back.
//!
//! A round therefore costs `Σ_i (m/k_i)·lat_i` plus its transfers, and
//! the stages need not share one `k`: the program flow picks `ks` with
//! the search of [`crate::replicate`], which starts from the uniform
//! [`max_equal_program_config`] and gives a slow stage more accelerators
//! where Eq. (3) leaves room.

use crate::board::BoardSpec;
use crate::platform::Platform;
use crate::system::{Totals, LADDER};
use hls::HlsReport;
use mnemosyne::MemorySubsystem;
use std::fmt::Write;

/// Replication choice for a program: `ks[i]` accelerators for stage `i`
/// and `m` shared PLM sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramSystemConfig {
    pub ks: Vec<usize>,
    pub m: usize,
}

impl ProgramSystemConfig {
    /// The same replication for every stage.
    pub fn uniform(k: usize, m: usize, stages: usize) -> ProgramSystemConfig {
        ProgramSystemConfig {
            ks: vec![k; stages],
            m,
        }
    }

    /// Executions per accelerator of stage `i` per main-loop round.
    pub fn batch(&self, stage: usize) -> usize {
        self.m / self.ks[stage]
    }

    /// Every stage must satisfy the paper's `m = 2^j · k` relation.
    pub fn valid(&self) -> bool {
        !self.ks.is_empty()
            && self.ks.iter().all(|&k| {
                k >= 1 && self.m >= k && self.m.is_multiple_of(k) && (self.m / k).is_power_of_two()
            })
    }
}

/// One kernel stage of the program system.
#[derive(Debug, Clone, PartialEq)]
pub struct StageDesign {
    pub name: String,
    /// Accelerator instances of this stage.
    pub k: usize,
    /// Per-instance HLS report.
    pub kernel: HlsReport,
}

/// Host program for a chained multi-kernel system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramHostProgram {
    pub config: ProgramSystemConfig,
    pub stage_names: Vec<String>,
    /// External input bytes per element (host → PLM over DMA).
    pub bytes_in_per_element: usize,
    /// External output bytes per element (PLM → host over DMA).
    pub bytes_out_per_element: usize,
    /// Kernel-to-kernel handoff bytes per element — stays inside the
    /// fabric, never crosses the DMA.
    pub handoff_bytes_per_element: usize,
}

impl ProgramHostProgram {
    /// Main-loop iterations to process `elements` elements (the final
    /// partial batch still costs a full round).
    pub fn rounds(&self, elements: usize) -> usize {
        elements.div_ceil(self.config.m)
    }

    /// Generate `host.c` for `elements` elements, against the fixed
    /// driver interface [`crate::CFD_DRIVER_H`]. Every round moves `m`
    /// elements, so the caller's `in` and `out` hold `rounds × m`
    /// elements and the tail past `elements` is padding: the simulator
    /// prices the last round as a full one, too.
    pub fn to_c(&self, elements: usize) -> String {
        let m = self.config.m;
        let rounds = self.rounds(elements);
        let (bi, bo) = (self.bytes_in_per_element, self.bytes_out_per_element);
        let mut c = String::new();
        let _ = write!(
            c,
            "/* generated host code: {stages}-stage program, m = {m} PLM sets\n\
             \x20* build contract: cc -std=c99, cfd_driver.h\n\
             \x20* in/out hold {rounds} rounds x {m} = {padded} elements; the tail past {elements} is padding */\n\
             #include \"cfd_driver.h\"\n\n\
             void run_simulation(const double *in, double *out) {{\n\
             \tfor (size_t i = 0; i < {rounds}; ++i) {{\n\
             \t\tdma_write(in + i * {m} * {bi} / 8, {total_in});\n",
            stages = self.stage_names.len(),
            padded = rounds * m,
            total_in = bi * m,
        );
        for (i, name) in self.stage_names.iter().enumerate() {
            let _ = write!(
                c,
                "\t\tfor (int b = 0; b < {batch}; ++b) {{ /* stage '{name}' */\n\
                 \t\t\taxi_lite_write(CTRL_START({i}), 1); /* broadcast to {k} kernels */\n\
                 \t\t\twait_for_interrupt();\n\
                 \t\t}}\n",
                batch = self.config.batch(i),
                k = self.config.ks[i],
            );
        }
        let hb = self.handoff_bytes_per_element;
        if hb > 0 {
            let _ = writeln!(
                c,
                "\t\t/* handoffs ({hb} B/element) stay in the PLM fabric */"
            );
        }
        let _ = write!(
            c,
            "\t\tdma_read(out + i * {m} * {bo} / 8, {total_out});\n\t}}\n}}\n",
            total_out = bo * m,
        );
        c
    }
}

/// A fully elaborated multi-kernel system instance.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSystemDesign {
    pub config: ProgramSystemConfig,
    /// The target the design was built for.
    pub platform: Platform,
    pub stages: Vec<StageDesign>,
    /// The merged program memory subsystem of *one* PLM set.
    pub memory: MemorySubsystem,
    /// Totals including integration logic.
    pub luts: usize,
    pub ffs: usize,
    pub dsps: usize,
    pub brams: usize,
    pub host: ProgramHostProgram,
}

impl MultiSystemDesign {
    /// Build a program system, checking the generalized Eq. (3) over
    /// the union of all stages. Returns `None` when it does not fit.
    pub fn build(
        platform: &Platform,
        stages: &[(String, HlsReport)],
        memory: &MemorySubsystem,
        cfg: ProgramSystemConfig,
        host: ProgramHostProgram,
    ) -> Option<MultiSystemDesign> {
        assert_eq!(stages.len(), cfg.ks.len(), "one k per stage");
        assert!(cfg.valid(), "invalid program configuration {cfg:?}");
        let reports = stages.iter().map(|(_, hlsr)| hlsr);
        let t = Totals::fit(platform, cfg.ks.iter().copied().zip(reports), memory, cfg.m)?;
        Some(MultiSystemDesign {
            stages: stages
                .iter()
                .enumerate()
                .map(|(i, (name, hlsr))| StageDesign {
                    name: name.clone(),
                    k: cfg.ks[i],
                    kernel: hlsr.clone(),
                })
                .collect(),
            config: cfg,
            platform: platform.clone(),
            memory: memory.clone(),
            luts: t.luts,
            ffs: t.ffs,
            dsps: t.dsps,
            brams: t.brams,
            host,
        })
    }

    /// Each stage's replication and HLS report: the banks
    /// [`Totals::fit`] and [`RoundCost::round`](crate::RoundCost::round)
    /// read.
    pub fn banks(&self) -> impl Iterator<Item = (usize, &HlsReport)> + Clone {
        (self.config.ks.iter().zip(&self.stages)).map(|(&k, s)| (k, &s.kernel))
    }

    /// View a single-kernel design as the equivalent one-stage program
    /// system: same replication, same resource totals, same external
    /// byte interface, no handoffs. The flow builds the one-stage program
    /// directly; this view stays for the `benchmark/` harness.
    pub fn from_single(d: &crate::system::SystemDesign) -> MultiSystemDesign {
        let cfg = ProgramSystemConfig {
            ks: vec![d.config.k],
            m: d.config.m,
        };
        MultiSystemDesign {
            config: cfg.clone(),
            platform: d.platform.clone(),
            stages: vec![StageDesign {
                name: d.kernel.kernel.clone(),
                k: d.config.k,
                kernel: d.kernel.clone(),
            }],
            memory: d.memory.clone(),
            luts: d.luts,
            ffs: d.ffs,
            dsps: d.dsps,
            brams: d.brams,
            host: ProgramHostProgram {
                stage_names: vec![d.kernel.kernel.clone()],
                config: cfg,
                bytes_in_per_element: d.host.bytes_in_per_element,
                bytes_out_per_element: d.host.bytes_out_per_element,
                handoff_bytes_per_element: 0,
            },
        }
    }

    /// The board budget the design fits.
    pub fn board(&self) -> &BoardSpec {
        &self.platform.board
    }

    /// Slack per resource: `[A] - (Σ[H_i]·k_i + [M]·m)`.
    pub fn slack(&self) -> (isize, isize, isize, isize) {
        let board = self.board();
        (
            board.luts as isize - self.luts as isize,
            board.ffs as isize - self.ffs as isize,
            board.dsps as isize - self.dsps as isize,
            board.brams as isize - self.brams as isize,
        )
    }

    /// The largest resource-utilization fraction across LUT/FF/DSP/BRAM.
    pub fn utilization(&self) -> f64 {
        let totals = Totals {
            luts: self.luts,
            ffs: self.ffs,
            dsps: self.dsps,
            brams: self.brams,
        };
        totals.utilization(self.board())
    }
}

/// All feasible **uniform** program designs (`k_i = k` for all stages,
/// `m = 2^j · k`), fully built with placeholder hosts — callers that
/// only need the configurations can project them out, callers that
/// report resources get them without rebuilding Eq. (3).
pub fn enumerate_program_designs(
    platform: &Platform,
    stages: &[(String, HlsReport)],
    memory: &MemorySubsystem,
) -> Vec<MultiSystemDesign> {
    let mut out = Vec::new();
    for k in LADDER {
        for m in LADDER.into_iter().filter(|&m| m >= k) {
            let cfg = ProgramSystemConfig::uniform(k, m, stages.len());
            let host = ProgramHostProgram::placeholder(cfg.clone(), stages);
            if let Some(d) = MultiSystemDesign::build(platform, stages, memory, cfg, host) {
                out.push(d);
            }
        }
    }
    out
}

/// The largest feasible uniform `k = m` program configuration: the top
/// rung of the ladder that the generalized Eq. (3) ([`Totals::fit`])
/// admits. The program flow starts its replication search
/// ([`crate::best_program_config`]) from this pick.
pub fn max_equal_program_config(
    platform: &Platform,
    stages: &[(String, HlsReport)],
    memory: &MemorySubsystem,
) -> Option<ProgramSystemConfig> {
    let k = max_equal_k(platform, stages, memory)?;
    Some(ProgramSystemConfig::uniform(k, k, stages.len()))
}

/// The `k` of [`max_equal_program_config`], without its `ks`.
pub(crate) fn max_equal_k(
    platform: &Platform,
    stages: &[(String, HlsReport)],
    memory: &MemorySubsystem,
) -> Option<usize> {
    let fits = |&k: &usize| {
        let banks = stages.iter().map(|(_, hlsr)| (k, hlsr));
        Totals::fit(platform, banks, memory, k).is_some()
    };
    LADDER.into_iter().rev().find(fits)
}

impl ProgramHostProgram {
    /// A placeholder for feasibility enumeration (no transfer sizes).
    pub fn placeholder(
        config: ProgramSystemConfig,
        stages: &[(String, HlsReport)],
    ) -> ProgramHostProgram {
        ProgramHostProgram {
            stage_names: stages.iter().map(|(n, _)| n.clone()).collect(),
            config,
            bytes_in_per_element: 0,
            bytes_out_per_element: 0,
            handoff_bytes_per_element: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostProgram;
    use crate::system::{SystemConfig, SystemDesign};

    fn report(latency: u64, luts: usize) -> HlsReport {
        HlsReport {
            kernel: "kernel_body".into(),
            clock_mhz: Platform::zcu106().default_clock_mhz,
            latency_cycles: latency,
            luts,
            ffs: 2_999,
            dsps: 15,
            brams: 0,
            loops: vec![],
        }
    }

    fn memory() -> MemorySubsystem {
        MemorySubsystem {
            units: vec![],
            brams: 16,
            luts: 450,
            ffs: 250,
        }
    }

    #[test]
    fn config_validity_per_stage() {
        assert!(ProgramSystemConfig::uniform(2, 4, 3).valid());
        assert!(ProgramSystemConfig {
            ks: vec![1, 2, 4],
            m: 4
        }
        .valid());
        assert!(!ProgramSystemConfig {
            ks: vec![3, 2],
            m: 4
        }
        .valid());
        assert!(!ProgramSystemConfig { ks: vec![], m: 1 }.valid());
    }

    #[test]
    fn single_stage_matches_system_design_totals() {
        // The degenerate one-kernel program must cost exactly what the
        // single-kernel Eq. (3) computes.
        let board = Platform::zcu106();
        let hlsr = report(500_000, 2_314);
        let mem = memory();
        let cfg = SystemConfig { k: 4, m: 4 };
        let host = HostProgram {
            config: cfg,
            bytes_in_per_element: 0,
            bytes_out_per_element: 0,
        };
        let single = SystemDesign::build(&board, &hlsr, &mem, cfg, host).unwrap();
        let pcfg = ProgramSystemConfig::uniform(4, 4, 1);
        let stages = vec![("main".to_string(), hlsr)];
        let multi = MultiSystemDesign::build(
            &board,
            &stages,
            &mem,
            pcfg.clone(),
            ProgramHostProgram::placeholder(pcfg.clone(), &stages),
        )
        .unwrap();
        assert_eq!(
            (multi.luts, multi.ffs, multi.dsps, multi.brams),
            (single.luts, single.ffs, single.dsps, single.brams)
        );
    }

    #[test]
    fn union_budget_rejects_what_stages_accept_alone() {
        let board = Platform::zcu106();
        let hlsr = report(500_000, 2_314);
        // One kernel with its own 16-BRAM PLM set fits at k = m = 16;
        // the three-kernel program's merged PLM set (36 BRAMs even
        // after cross-kernel sharing) blows the shared BRAM budget at
        // the same replication.
        let one = ProgramSystemConfig::uniform(16, 16, 1);
        let stages1 = vec![("a".to_string(), hlsr.clone())];
        assert!(MultiSystemDesign::build(
            &board,
            &stages1,
            &memory(),
            one.clone(),
            ProgramHostProgram::placeholder(one.clone(), &stages1)
        )
        .is_some());
        let merged = MemorySubsystem {
            units: vec![],
            brams: 36,
            luts: 1_200,
            ffs: 700,
        };
        let three = ProgramSystemConfig::uniform(16, 16, 3);
        let stages3: Vec<(String, HlsReport)> = ["a", "b", "c"]
            .iter()
            .map(|n| (n.to_string(), hlsr.clone()))
            .collect();
        assert!(MultiSystemDesign::build(
            &board,
            &stages3,
            &merged,
            three.clone(),
            ProgramHostProgram::placeholder(three.clone(), &stages3)
        )
        .is_none());
        let max = max_equal_program_config(&board, &stages3, &merged).unwrap();
        assert!(max.m < 16, "{max:?}");
    }

    #[test]
    fn per_stage_replication_and_chain_latency() {
        let board = Platform::zcu106();
        let fast = report(100_000, 2_000);
        let slow = report(400_000, 2_500);
        let mem = memory();
        let stages = vec![("fast".to_string(), fast), ("slow".to_string(), slow)];
        // Give the slow stage 4 replicas, the fast one 1 — batches 4 / 1.
        let cfg = ProgramSystemConfig {
            ks: vec![1, 4],
            m: 4,
        };
        let d = MultiSystemDesign::build(
            &board,
            &stages,
            &mem,
            cfg.clone(),
            ProgramHostProgram::placeholder(cfg.clone(), &stages),
        )
        .unwrap();
        assert_eq!(d.config.batch(0), 4);
        assert_eq!(d.config.batch(1), 1);
        let (l, f, ds, br) = d.slack();
        assert!(l >= 0 && f >= 0 && ds >= 0 && br >= 0);
    }

    #[test]
    fn from_single_preserves_totals_and_interface() {
        let platform = Platform::zcu106();
        let hlsr = report(500_000, 2_314);
        let mem = memory();
        let cfg = SystemConfig { k: 2, m: 4 };
        let host = HostProgram {
            config: cfg,
            bytes_in_per_element: 800,
            bytes_out_per_element: 400,
        };
        let d = SystemDesign::build(&platform, &hlsr, &mem, cfg, host).unwrap();
        let m = MultiSystemDesign::from_single(&d);
        assert_eq!(
            (m.luts, m.ffs, m.dsps, m.brams),
            (d.luts, d.ffs, d.dsps, d.brams)
        );
        assert_eq!(m.config.ks, vec![2]);
        assert_eq!(m.config.m, 4);
        assert_eq!(m.host.bytes_in_per_element, 800);
        assert_eq!(m.host.bytes_out_per_element, 400);
        assert_eq!(m.host.handoff_bytes_per_element, 0);
        assert_eq!(m.stages.len(), 1);
    }

    #[test]
    fn host_skeleton_mentions_every_stage() {
        let cfg = ProgramSystemConfig {
            ks: vec![2, 1],
            m: 4,
        };
        let host = ProgramHostProgram {
            config: cfg,
            stage_names: vec!["interp".into(), "helm".into()],
            bytes_in_per_element: 800,
            bytes_out_per_element: 400,
            handoff_bytes_per_element: 512,
        };
        let c = host.to_c(99);
        assert!(c.contains("stage 'interp'"));
        assert!(c.contains("stage 'helm'"));
        assert!(c.contains("CTRL_START(1)"));
        assert!(c.contains("broadcast to 2 kernels"));
        assert!(c.contains("512 B/element"));
        assert!(c.contains("#include \"cfd_driver.h\""));
        // 25 rounds of 4: one padding element past the 99.
        assert_eq!(host.rounds(99), 25);
        assert_eq!((host.rounds(100), host.rounds(101)), (25, 26));
        assert!(c.contains("25 rounds x 4 = 100 elements; the tail past 99 is padding"));
        // No handoffs, no handoff comment.
        let c = ProgramHostProgram {
            handoff_bytes_per_element: 0,
            ..host
        }
        .to_c(99);
        assert!(!c.contains("handoffs"), "{c}");
    }
}
