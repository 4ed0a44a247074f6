//! Replicated system construction and Eq. (3).

use crate::board::BoardSpec;
use crate::host::HostProgram;
use crate::platform::Platform;
use hls::HlsReport;
use mnemosyne::MemorySubsystem;
use serde::{Deserialize, Serialize};

/// A replication choice: `k` accelerators and `m` PLM systems with
/// `m = 2^j · k` (the paper's power-of-two constraint keeps the steering
/// logic trivial).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemConfig {
    pub k: usize,
    pub m: usize,
}

impl SystemConfig {
    /// Executions per accelerator per main-loop round.
    pub fn batch(&self) -> usize {
        self.m / self.k
    }

    /// Validity of the k/m relation.
    pub fn valid(&self) -> bool {
        self.k >= 1
            && self.m >= self.k
            && self.m.is_multiple_of(self.k)
            && self.batch().is_power_of_two()
    }
}

/// Integration-logic resource model, calibrated against Table I: the
/// fixed infrastructure (AXI DMA, AXI-lite peripheral, timers, reset/
/// clock) plus per-replica steering (data mux/demux, start broadcast,
/// done collection, batch counter slice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntegrationModel {
    pub base_lut: usize,
    pub base_ff: usize,
    pub base_bram: usize,
    pub glue_lut_per_kernel: usize,
    pub glue_ff_per_kernel: usize,
    /// Extra steering per PLM beyond the first batch (k < m).
    pub glue_lut_per_extra_plm: usize,
}

impl Default for IntegrationModel {
    fn default() -> Self {
        IntegrationModel {
            base_lut: 6_800,
            base_ff: 6_100,
            base_bram: 8,
            glue_lut_per_kernel: 1_480,
            glue_ff_per_kernel: 60,
            glue_lut_per_extra_plm: 220,
        }
    }
}

/// Eq. (3) resource totals of a replicated system, integration logic
/// included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub luts: usize,
    pub ffs: usize,
    pub dsps: usize,
    pub brams: usize,
}

impl Totals {
    /// The generalized Eq. (3), `Σ_i [H_i]·k_i + [M]·m + glue ≤ [A]`:
    /// the totals of `stages` (replication and HLS report of each
    /// accelerator bank) over `m` PLM sets of `memory`, or `None` when
    /// they exceed the platform's board. Every system builder, the
    /// design-space sweep and the replication search decide feasibility
    /// here.
    pub fn fit<'a>(
        platform: &Platform,
        stages: impl IntoIterator<Item = (usize, &'a HlsReport)>,
        memory: &MemorySubsystem,
        m: usize,
    ) -> Option<Totals> {
        let t = Totals::of(stages, memory, m);
        let board = &platform.board;
        let fits = t.luts <= board.luts
            && t.ffs <= board.ffs
            && t.dsps <= board.dsps
            && t.brams <= board.brams;
        fits.then_some(t)
    }

    /// The left-hand side of [`Totals::fit`], whether or not it fits. At
    /// a fixed `m`, every term grows with each stage's `k`.
    pub fn of<'a>(
        stages: impl IntoIterator<Item = (usize, &'a HlsReport)>,
        memory: &MemorySubsystem,
        m: usize,
    ) -> Totals {
        let im = IntegrationModel::default();
        let mut t = Totals {
            luts: im.base_lut + m * memory.luts,
            ffs: im.base_ff + m * memory.ffs,
            dsps: 0,
            brams: im.base_bram + m * memory.brams,
        };
        for (k, kernel) in stages {
            t.luts +=
                k * (kernel.luts + im.glue_lut_per_kernel) + (m - k) * im.glue_lut_per_extra_plm;
            t.ffs += k * (kernel.ffs + im.glue_ff_per_kernel);
            t.dsps += k * kernel.dsps;
            t.brams += k * kernel.brams;
        }
        t
    }

    /// The names (`LUT`, `FF`, `DSP`, `BRAM`) of the terms that exceed
    /// `board`, in that order.
    pub fn exceeded<'a>(&'a self, board: &'a BoardSpec) -> impl Iterator<Item = &'static str> + 'a {
        [
            ("LUT", self.luts, board.luts),
            ("FF", self.ffs, board.ffs),
            ("DSP", self.dsps, board.dsps),
            ("BRAM", self.brams, board.brams),
        ]
        .into_iter()
        .filter(|&(_, used, budget)| used > budget)
        .map(|(name, _, _)| name)
    }

    /// The largest resource-utilization fraction across LUT/FF/DSP/BRAM
    /// — the "fit" axis of the portfolio Pareto frontier.
    pub fn utilization(&self, board: &BoardSpec) -> f64 {
        [
            self.luts as f64 / board.luts as f64,
            self.ffs as f64 / board.ffs as f64,
            self.dsps as f64 / board.dsps as f64,
            self.brams as f64 / board.brams as f64,
        ]
        .into_iter()
        .fold(0.0, f64::max)
    }
}

/// A fully elaborated single-kernel system instance. The flow builds
/// none (a kernel's system is the one-stage `MultiSystemDesign`); it
/// stays for the `benchmark/` harness and the netlist emitter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemDesign {
    pub config: SystemConfig,
    /// The target the design was built for (board budget, DMA fabric,
    /// host CPU, clock ladder).
    pub platform: Platform,
    /// Per-kernel HLS report.
    pub kernel: HlsReport,
    /// Per-kernel memory subsystem.
    pub memory: MemorySubsystem,
    /// Totals including integration logic.
    pub luts: usize,
    pub ffs: usize,
    pub dsps: usize,
    pub brams: usize,
    pub host: HostProgram,
}

impl SystemDesign {
    /// Build a system, checking Eq. (3) against the platform's board.
    /// Returns `None` when the configuration does not fit.
    pub fn build(
        platform: &Platform,
        kernel: &HlsReport,
        memory: &MemorySubsystem,
        cfg: SystemConfig,
        host: HostProgram,
    ) -> Option<SystemDesign> {
        assert!(cfg.valid(), "invalid (k, m) = ({}, {})", cfg.k, cfg.m);
        let t = Totals::fit(platform, [(cfg.k, kernel)], memory, cfg.m)?;
        Some(SystemDesign {
            config: cfg,
            platform: platform.clone(),
            kernel: kernel.clone(),
            memory: memory.clone(),
            luts: t.luts,
            ffs: t.ffs,
            dsps: t.dsps,
            brams: t.brams,
            host,
        })
    }

    /// The board budget the design fits.
    pub fn board(&self) -> &BoardSpec {
        &self.platform.board
    }
}

/// The replication rungs `k` and `m` range over: `1, 2, 4, ..., 64`.
pub(crate) const LADDER: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The largest feasible `k = m` (power of two) — the configuration the
/// paper uses for its main results: the top rung of the ladder that
/// [`Totals::fit`] admits. The flow picks with
/// [`crate::best_program_config`]; this stays for `benchmark/`.
pub fn max_equal_config(
    platform: &Platform,
    kernel: &HlsReport,
    memory: &MemorySubsystem,
) -> Option<SystemConfig> {
    let fits = |&k: &usize| Totals::fit(platform, [(k, kernel)], memory, k).is_some();
    let k = LADDER.into_iter().rev().find(fits)?;
    Some(SystemConfig { k, m: k })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnemosyne::{MemoryOptions, MnemosyneConfig};

    /// A host program with no transfer sizes: feasibility only.
    fn no_transfers(config: SystemConfig) -> HostProgram {
        HostProgram {
            config,
            bytes_in_per_element: 0,
            bytes_out_per_element: 0,
        }
    }

    fn kernel_report() -> HlsReport {
        HlsReport {
            kernel: "kernel_body".into(),
            clock_mhz: Platform::zcu106().default_clock_mhz,
            latency_cycles: 500_000,
            luts: 2_314,
            ffs: 2_999,
            dsps: 15,
            brams: 0,
            loops: vec![],
        }
    }

    fn memory(sharing: bool) -> MemorySubsystem {
        // The p=11 Helmholtz memory config (see mnemosyne tests).
        let mut cfg = MnemosyneConfig::default();
        let w = 1331;
        let names: [(&str, usize, bool); 10] = [
            ("S", 121, true),
            ("D", w, true),
            ("u", w, true),
            ("v", w, true),
            ("t", w, false),
            ("r", w, false),
            ("t0", w, false),
            ("t1", w, false),
            ("t2", w, false),
            ("t3", w, false),
        ];
        for (n, words, iface) in names {
            cfg.arrays.push(mnemosyne::ArraySpec {
                name: n.into(),
                words,
                interface: iface,
                read_ports: 1,
                write_ports: 1,
            });
        }
        // Interval compatibilities for the temporaries (stage order).
        let lt = [
            (4, 2, 3),
            (5, 3, 4),
            (6, 0, 1),
            (7, 1, 2),
            (8, 4, 5),
            (9, 5, 6),
        ];
        for (i, &(ai, s1, e1)) in lt.iter().enumerate() {
            for &(aj, s2, e2) in &lt[i + 1..] {
                if e1 < s2 || e2 < s1 {
                    cfg.address_space_compatible.push((ai.min(aj), ai.max(aj)));
                }
            }
        }
        mnemosyne::synthesize(&cfg, &MemoryOptions { sharing })
    }

    #[test]
    fn config_validity() {
        assert!(SystemConfig { k: 2, m: 8 }.valid());
        assert_eq!(SystemConfig { k: 2, m: 8 }.batch(), 4);
        // The paper's constraint is on the ratio m/k (a power of two),
        // not on k itself.
        assert!(SystemConfig { k: 3, m: 6 }.valid());
        assert!(!SystemConfig { k: 4, m: 2 }.valid());
        assert!(!SystemConfig { k: 3, m: 7 }.valid());
    }

    #[test]
    fn no_sharing_fits_eight_kernels() {
        // Paper: 31 BRAM/PLM → max m = k = 8. Our model: 28 BRAM → the
        // same maximum (16 × 28 = 448 > 312).
        let b = Platform::zcu106();
        let mem = memory(false);
        assert_eq!(mem.brams, 28);
        let max = max_equal_config(&b, &kernel_report(), &mem).unwrap();
        assert_eq!((max.k, max.m), (8, 8));
    }

    #[test]
    fn sharing_fits_sixteen_kernels() {
        // Paper: 18 BRAM/PLM → max m = k = 16 (the headline result).
        let b = Platform::zcu106();
        let mem = memory(true);
        assert_eq!(mem.brams, 16);
        let max = max_equal_config(&b, &kernel_report(), &mem).unwrap();
        assert_eq!((max.k, max.m), (16, 16));
    }

    #[test]
    fn table1_lut_totals_within_ten_percent() {
        let b = Platform::zcu106();
        let mem = memory(true);
        let paper = [
            (1usize, 11_292usize),
            (2, 15_572),
            (4, 24_480),
            (8, 42_141),
            (16, 77_235),
        ];
        for (k, lut_paper) in paper {
            let d = Totals::fit(&b, [(k, &kernel_report())], &mem, k).unwrap();
            let rel = (d.luts as f64 - lut_paper as f64).abs() / lut_paper as f64;
            assert!(
                rel < 0.10,
                "k={k}: model {} vs paper {lut_paper} ({:.1}% off)",
                d.luts,
                rel * 100.0
            );
        }
    }

    #[test]
    fn dsp_totals_match_paper_exactly() {
        let b = Platform::zcu106();
        let mem = memory(true);
        for k in [1usize, 2, 4, 8, 16] {
            let d = Totals::fit(&b, [(k, &kernel_report())], &mem, k).unwrap();
            assert_eq!(d.dsps, 15 * k);
        }
    }

    #[test]
    fn k_less_than_m_configs_enumerate() {
        // The feasibility listing of a kernel: its one-stage program's.
        let b = Platform::zcu106();
        let mem = memory(true);
        let stages = [("main".to_string(), kernel_report())];
        let configs: Vec<(usize, usize)> = crate::enumerate_program_designs(&b, &stages, &mem)
            .iter()
            .map(|d| (d.config.ks[0], d.config.m))
            .collect();
        assert!(configs.contains(&(1, 1)));
        assert!(configs.contains(&(2, 4)));
        assert!(configs.contains(&(4, 16)));
        assert!(!configs.contains(&(32, 32)));
    }

    #[test]
    fn slack_is_nonnegative_for_built_systems() {
        let b = Platform::zcu106();
        let mem = memory(true);
        let cfg = SystemConfig { k: 16, m: 16 };
        let d = SystemDesign::build(&b, &kernel_report(), &mem, cfg, no_transfers(cfg)).unwrap();
        let (l, f, ds, br) = crate::MultiSystemDesign::from_single(&d).slack();
        assert!(l >= 0 && f >= 0 && ds >= 0 && br >= 0);
    }

    #[test]
    fn infeasible_config_rejected() {
        let b = Platform::zcu106();
        let mem = memory(false);
        assert!(Totals::fit(&b, [(16, &kernel_report())], &mem, 16).is_none());
    }
}
