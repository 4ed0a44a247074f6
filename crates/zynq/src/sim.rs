//! Full-system simulation: the generated host program driving the
//! replicated accelerator architecture of Figure 7.
//!
//! Per main-loop round the host (simulated ARM core) DMAs the inputs for
//! `m` elements into the PLM instances, writes the start command to the
//! AXI-lite peripheral `m/k` times (each broadcast launches the `k`
//! accelerators on their current PLM, then the batch counter advances),
//! waits for the done interrupt, and DMAs the outputs back. Two
//! "hardware timers" accumulate, exactly as in the paper's measurements:
//! execution-only time and total time including transfers.
//!
//! The schedule is strictly serial, like the paper's measured host
//! program. DMA/compute overlap is modelled only by the request stream
//! ([`crate::stream`], double-buffered when every stage keeps a spare
//! PLM set).

use crate::des::{secs, to_secs, Time};
use sysgen::{DmaSpec, HostCpuModel, MultiSystemDesign, SystemDesign};

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of spectral elements in the CFD simulation (the paper runs
    /// 50,000).
    pub elements: usize,
    /// Host-side cost of starting one accelerator through the AXI-lite
    /// peripheral (register writes, cache maintenance), per kernel.
    pub axi_start_s_per_kernel: f64,
    /// Interrupt delivery + handler latency per round.
    pub irq_s: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            elements: 50_000,
            axi_start_s_per_kernel: 2.5e-6,
            irq_s: 5.0e-6,
        }
    }
}

/// Simulated hardware measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwResult {
    pub elements: usize,
    pub rounds: usize,
    pub k: usize,
    pub m: usize,
    /// Accumulated kernel-execution timer (start to interrupt).
    pub exec_s: f64,
    /// Accumulated DMA transfer time.
    pub transfer_s: f64,
    /// End-to-end wall time of the simulation loop.
    pub total_s: f64,
}

impl HwResult {
    /// Average total time per element.
    pub fn total_per_element_s(&self) -> f64 {
        self.total_s / self.elements as f64
    }
}

/// Run the full-system simulation: the single-kernel design is the
/// one-stage program ([`MultiSystemDesign::from_single`]), priced by
/// [`simulate_program`]. It stays for the `benchmark/` harness.
pub fn simulate_hw(design: &SystemDesign, cfg: &SimConfig) -> HwResult {
    let r = simulate_program(&MultiSystemDesign::from_single(design), cfg);
    HwResult {
        elements: r.elements,
        rounds: r.rounds,
        k: design.config.k,
        m: r.m,
        exec_s: r.exec_s,
        transfer_s: r.transfer_s,
        total_s: r.total_s,
    }
}

/// Simulated measurements of a chained multi-kernel program run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramHwResult {
    pub elements: usize,
    pub rounds: usize,
    /// Accelerators per stage.
    pub ks: Vec<usize>,
    /// Shared PLM sets.
    pub m: usize,
    /// Accumulated execution timer per stage (start to interrupt).
    pub stage_exec_s: Vec<f64>,
    /// Total kernel-execution time across the chain.
    pub exec_s: f64,
    /// Accumulated DMA transfer time (external inputs/outputs only —
    /// handoffs stay in the PLM fabric).
    pub transfer_s: f64,
    /// End-to-end wall time.
    pub total_s: f64,
}

impl ProgramHwResult {
    /// Average total time per element.
    pub fn total_per_element_s(&self) -> f64 {
        self.total_s / self.elements as f64
    }
}

/// The closed-form tick costs of **one** main-loop round of a chained
/// multi-kernel system: input DMA, per-stage serial batches, output
/// DMA. [`simulate_program`] and the batch-stream runtime
/// ([`crate::stream`]) both derive their schedules from this one
/// function, so a runtime round is tick-identical to a `simulate_program`
/// round by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramRound {
    /// External-input DMA ticks (`m` elements, one burst per PLM set).
    pub t_in: u64,
    /// Kernel-execution ticks per stage (`m/k_i` serial batches each).
    pub stage_exec: Vec<u64>,
    /// External-output DMA ticks.
    pub t_out: u64,
}

impl ProgramRound {
    /// Price one round from its parts: each stage's replication `k_i`
    /// and kernel latency in seconds, the `m` PLM sets, and the
    /// external byte interface per element. Each stage costs
    /// [`stage_ticks`]; a stage past the `u64` clock prices at its last
    /// tick, and [`ProgramRound::serial_ticks`] then reports the
    /// overflow. Every simulator and the design-space sweep price their
    /// rounds here, and the replication search ([`RoundPricer`]) prices
    /// its candidates with the same two formulas.
    pub fn price(
        dma: &DmaSpec,
        cfg: &SimConfig,
        stages: impl IntoIterator<Item = (usize, f64)>,
        m: usize,
        bytes_in_per_element: usize,
        bytes_out_per_element: usize,
    ) -> ProgramRound {
        let stage_exec = (stages.into_iter()).map(|(k, kernel_s)| stage_price(cfg, k, kernel_s, m));
        ProgramRound {
            t_in: transfer_ticks(dma, bytes_in_per_element, m),
            stage_exec: stage_exec.collect(),
            t_out: transfer_ticks(dma, bytes_out_per_element, m),
        }
    }

    /// Total execution ticks of the chained stages.
    pub fn exec(&self) -> u64 {
        self.stage_exec.iter().sum()
    }

    /// The round's input, summed execution and output ticks: all that
    /// the stream schedule reads of it.
    pub fn ticks(&self) -> (Time, Time, Time) {
        (self.t_in, self.exec(), self.t_out)
    }

    /// Total ticks of one serial round (`t_in + exec + t_out`).
    pub fn total(&self) -> u64 {
        self.t_in + self.exec() + self.t_out
    }

    /// End-to-end ticks of the serial schedule over `elements`
    /// elements: `⌈elements / m⌉` identical rounds (the final partial
    /// batch still costs a full round). `None` when a round or the run
    /// does not fit the `u64` clock.
    pub fn serial_ticks(&self, m: usize, elements: usize) -> Option<Time> {
        let exec = (self.stage_exec.iter()).try_fold(0, |t: Time, &s| t.checked_add(s));
        RoundTicks {
            t_in: self.t_in,
            exec,
            t_out: self.t_out,
        }
        .serial_ticks(m, elements)
    }
}

/// A round priced as [`ProgramRound::price`] prices it, without the
/// per-stage split: the input, summed execution and output ticks, all
/// that the stream schedule reads of a round. The design-space sweep
/// prices thousands of rounds per sweep and keys its service probes by
/// these three numbers, so it prices here and collects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoundTicks {
    /// External-input DMA ticks.
    pub t_in: u64,
    /// [`ProgramRound::exec`], or `None` when the stages' sum passes the
    /// `u64` clock.
    pub exec: Option<u64>,
    /// External-output DMA ticks.
    pub t_out: u64,
}

impl RoundTicks {
    /// [`ProgramRound::price`] with the stages summed as they are priced.
    pub fn price(
        dma: &DmaSpec,
        cfg: &SimConfig,
        stages: impl IntoIterator<Item = (usize, f64)>,
        m: usize,
        bytes_in_per_element: usize,
        bytes_out_per_element: usize,
    ) -> RoundTicks {
        let exec = (stages.into_iter()).try_fold(0, |t: Time, (k, kernel_s)| {
            t.checked_add(stage_price(cfg, k, kernel_s, m))
        });
        RoundTicks {
            t_in: transfer_ticks(dma, bytes_in_per_element, m),
            exec,
            t_out: transfer_ticks(dma, bytes_out_per_element, m),
        }
    }

    /// [`ProgramRound::serial_ticks`] of the round these ticks sum.
    pub fn serial_ticks(&self, m: usize, elements: usize) -> Option<Time> {
        let round = (self.t_in.checked_add(self.t_out)?).checked_add(self.exec?)?;
        round.checked_mul(elements.div_ceil(m) as u64)
    }
}

/// [`stage_ticks`] as a round charges it: a stage past the `u64` clock
/// at its last tick.
fn stage_price(cfg: &SimConfig, k: usize, kernel_s: f64, m: usize) -> Time {
    stage_ticks(cfg, k, kernel_s, m).unwrap_or(Time::MAX)
}

/// Ticks of one stage per round: `m/k` serial batches of its `k`
/// accelerators. Each batch starts its accelerators through the AXI-lite
/// peripheral (the broadcast is serialized on the AXI bus), all `k`
/// finish together after `kernel_s`, and the peripheral raises the
/// interrupt when the last one signals done. `None` past the `u64`
/// clock.
pub fn stage_ticks(cfg: &SimConfig, k: usize, kernel_s: f64, m: usize) -> Option<Time> {
    let per_batch = (secs(cfg.axi_start_s_per_kernel).checked_mul(k as u64)?)
        .checked_add(secs(kernel_s))?
        .checked_add(secs(cfg.irq_s))?;
    per_batch.checked_mul((m / k) as u64)
}

/// Ticks of one round's transfer of `bytes_per_element` bytes for each of
/// `m` elements, one burst per PLM set.
pub fn transfer_ticks(dma: &DmaSpec, bytes_per_element: usize, m: usize) -> Time {
    secs(dma.transfer_bursts_s(bytes_per_element * m, m))
}

/// The replication search's price ([`sysgen::RoundCost`]): a round on
/// `dma` under `cfg`'s host constants, with the external byte interface
/// per element, priced by [`stage_ticks`] and [`transfer_ticks`] as
/// [`ProgramRound::price`] prices it.
#[derive(Debug, Clone, Copy)]
pub struct RoundPricer<'a> {
    pub dma: &'a DmaSpec,
    pub cfg: &'a SimConfig,
    pub bytes_in_per_element: usize,
    pub bytes_out_per_element: usize,
}

impl<'a> RoundPricer<'a> {
    /// The price of `design`'s rounds under `cfg`.
    pub fn of(design: &'a MultiSystemDesign, cfg: &'a SimConfig) -> RoundPricer<'a> {
        RoundPricer {
            dma: &design.platform.dma,
            cfg,
            bytes_in_per_element: design.host.bytes_in_per_element,
            bytes_out_per_element: design.host.bytes_out_per_element,
        }
    }
}

impl sysgen::RoundCost for RoundPricer<'_> {
    fn stage(&self, k: usize, kernel_s: f64, m: usize) -> Option<u64> {
        stage_ticks(self.cfg, k, kernel_s, m)
    }

    fn transfers(&self, m: usize) -> Option<u64> {
        transfer_ticks(self.dma, self.bytes_in_per_element, m).checked_add(transfer_ticks(
            self.dma,
            self.bytes_out_per_element,
            m,
        ))
    }
}

/// Compute the per-round tick costs of `design` under `cfg`'s host
/// constants (`cfg.elements` is irrelevant here — a round always moves
/// `m` elements).
pub fn program_round(design: &MultiSystemDesign, cfg: &SimConfig) -> ProgramRound {
    let stages = design.stages.iter().zip(&design.config.ks);
    ProgramRound::price(
        &design.platform.dma,
        cfg,
        stages.map(|(stage, &k)| (k, stage.kernel.latency_seconds())),
        design.config.m,
        design.host.bytes_in_per_element,
        design.host.bytes_out_per_element,
    )
}

/// Run the simulation of a chained multi-kernel system.
///
/// One main-loop round DMAs the *external* inputs for `m` elements in,
/// executes every stage in chain order (`m / k_i` serial batches of
/// stage `i`'s `k_i` accelerators; kernel-to-kernel handoffs are free —
/// the merged PLM co-locates the buffers), and DMAs the external
/// outputs back. The serial schedule carries no state between rounds,
/// and an accelerator batch's done events all land on the same tick, so
/// one round is priced in closed tick arithmetic ([`program_round`]) and
/// the rest fast-forward by multiplication in integer tick space. The
/// result is tick-identical to an event-queue formulation at `O(1)`
/// cost. Transfers never overlap execution here; only the request
/// stream ([`crate::stream`]) models that. The tick products are not
/// checked: a caller whose element count may run past the `u64` clock
/// asks [`ProgramRound::serial_ticks`] first.
pub fn simulate_program(design: &MultiSystemDesign, cfg: &SimConfig) -> ProgramHwResult {
    let m = design.config.m;
    let rounds = design.host.rounds(cfg.elements);
    let round = program_round(design, cfg);

    let n = rounds as u64;
    let stage_exec_s: Vec<f64> = round.stage_exec.iter().map(|&t| to_secs(t * n)).collect();
    ProgramHwResult {
        elements: cfg.elements,
        rounds,
        ks: design.config.ks.clone(),
        m,
        exec_s: stage_exec_s.iter().sum(),
        stage_exec_s,
        transfer_s: to_secs((round.t_in + round.t_out) * n),
        total_s: to_secs(round.total() * n),
    }
}

/// Software execution time (pure cost-model application; the functional
/// result comes from the interpreter / loop evaluator separately).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwResult {
    pub per_element_s: f64,
    pub total_s: f64,
}

/// Time the reference implementation on `host`'s cost model: its
/// operation counts ([`teil::Interpreter::counts`]) do not depend on the
/// data, so nothing is executed. Never fails; it returns a `Result`
/// like [`sw_hls_code`].
pub fn sw_reference(
    module: &teil::Module,
    host: &HostCpuModel,
    elements: usize,
) -> Result<SwResult, String> {
    let per = crate::arm::time_reference(host, &teil::Interpreter::new(module).counts());
    Ok(SwResult {
        per_element_s: per,
        total_s: per * elements as f64,
    })
}

/// Time the HLS-oriented generated C on `host`'s cost model.
pub fn sw_hls_code(
    kernel: &cgen::CKernel,
    host: &HostCpuModel,
    elements: usize,
) -> Result<SwResult, String> {
    let per = crate::arm::time_hls_code(host, &cgen::kernel_counts(kernel)?);
    Ok(SwResult {
        per_element_s: per,
        total_s: per * elements as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysgen::{HostProgram, Platform, SystemConfig, SystemDesign};

    /// A paper-shaped kernel report at the catalog platform's default
    /// synthesis clock (no hardcoded 200 MHz literals in the tests).
    fn paper_report(name: &str, latency_cycles: u64) -> hls::HlsReport {
        hls::HlsReport {
            kernel: name.into(),
            clock_mhz: Platform::zcu106().default_clock_mhz,
            latency_cycles,
            luts: 2_314,
            ffs: 2_999,
            dsps: 15,
            brams: 0,
            loops: vec![],
        }
    }

    fn design(k: usize, m: usize) -> SystemDesign {
        let platform = Platform::zcu106();
        // ≈ the p=11 factored kernel.
        let kernel = paper_report("kernel_body", 571_000);
        let memory = mnemosyne::MemorySubsystem {
            units: vec![],
            brams: 16,
            luts: 450,
            ffs: 250,
        };
        let cfgm = SystemConfig { k, m };
        let host = HostProgram {
            config: cfgm,
            bytes_in_per_element: (121 + 2 * 1331) * 8,
            bytes_out_per_element: 1331 * 8,
        };
        SystemDesign::build(&platform, &kernel, &memory, cfgm, host).unwrap()
    }

    fn sim(k: usize, m: usize, elements: usize) -> HwResult {
        simulate_hw(
            &design(k, m),
            &SimConfig {
                elements,
                ..Default::default()
            },
        )
    }

    #[test]
    fn accelerator_speedup_is_nearly_ideal() {
        // Figure 9, orange series: 1.00 / 2.00 / 3.97 / 7.91 / 15.76.
        let base = sim(1, 1, 800).exec_s;
        for (k, paper) in [(2usize, 2.00f64), (4, 3.97), (8, 7.91), (16, 15.76)] {
            let s = base / sim(k, k, 800).exec_s;
            assert!(
                (s - paper).abs() / paper < 0.02,
                "k={k}: model {s:.2} vs paper {paper}"
            );
        }
    }

    #[test]
    fn total_speedup_matches_figure9() {
        // Figure 9, blue series: 1.00 / 1.96 / 3.78 / 7.09 / 12.58.
        let base = sim(1, 1, 800).total_s;
        for (k, paper) in [(2usize, 1.96f64), (4, 3.78), (8, 7.09), (16, 12.58)] {
            let s = base / sim(k, k, 800).total_s;
            assert!(
                (s - paper).abs() / paper < 0.04,
                "k={k}: model {s:.2} vs paper {paper}"
            );
        }
    }

    #[test]
    fn transfers_make_total_exceed_exec() {
        let r = sim(4, 4, 400);
        assert!(r.total_s > r.exec_s);
        assert!(r.transfer_s > 0.0);
        assert!((r.exec_s + r.transfer_s - r.total_s).abs() / r.total_s < 1e-9);
    }

    #[test]
    fn batching_does_not_help() {
        // The paper: "These experiments did not show much improvements"
        // for k < m — transfers dominate per element either way.
        let eq = sim(2, 2, 512);
        let batched = sim(2, 8, 512);
        let rel = (batched.total_s - eq.total_s).abs() / eq.total_s;
        assert!(rel < 0.02, "batching changed total by {:.1}%", rel * 100.0);
    }

    fn program_design(ks: Vec<usize>, m: usize, latencies: &[u64]) -> sysgen::MultiSystemDesign {
        let platform = Platform::zcu106();
        let stages: Vec<(String, hls::HlsReport)> = latencies
            .iter()
            .enumerate()
            .map(|(i, &l)| (format!("stage{i}"), paper_report(&format!("stage{i}"), l)))
            .collect();
        let memory = mnemosyne::MemorySubsystem {
            units: vec![],
            brams: 16,
            luts: 450,
            ffs: 250,
        };
        let cfg = sysgen::ProgramSystemConfig { ks, m };
        let host = sysgen::ProgramHostProgram {
            config: cfg.clone(),
            stage_names: stages.iter().map(|(n, _)| n.clone()).collect(),
            bytes_in_per_element: (121 + 2 * 1331) * 8,
            bytes_out_per_element: 1331 * 8,
            handoff_bytes_per_element: 1331 * 8,
        };
        sysgen::MultiSystemDesign::build(&platform, &stages, &memory, cfg, host).unwrap()
    }

    #[test]
    fn single_stage_program_matches_simulate_hw() {
        // The degenerate one-kernel program, built through the program
        // path, must be tick-identical to the single-kernel simulator
        // and to the serial round spelled out in ticks, on every board,
        // for `k < m` batching and for partial last rounds.
        let cfg = SimConfig::default();
        let memory = mnemosyne::MemorySubsystem {
            units: vec![],
            brams: 16,
            luts: 450,
            ffs: 250,
        };
        let (bytes_in, bytes_out) = ((121 + 2 * 1331) * 8, 1331 * 8);
        for platform in Platform::catalog() {
            let mut kernel = paper_report("kernel_body", 571_000);
            kernel.clock_mhz = platform.default_clock_mhz;
            let dma = platform.dma;
            let mut covered = 0;
            for k in (0..7).map(|j| 1usize << j) {
                for m in [k, 2 * k, 4 * k] {
                    let cfgm = SystemConfig { k, m };
                    let host = HostProgram {
                        config: cfgm,
                        bytes_in_per_element: bytes_in,
                        bytes_out_per_element: bytes_out,
                    };
                    let Some(single) = SystemDesign::build(&platform, &kernel, &memory, cfgm, host)
                    else {
                        continue;
                    };
                    let pcfg = sysgen::ProgramSystemConfig { ks: vec![k], m };
                    let stages = vec![("kernel_body".to_string(), kernel.clone())];
                    let phost = sysgen::ProgramHostProgram {
                        config: pcfg.clone(),
                        stage_names: vec!["kernel_body".into()],
                        bytes_in_per_element: bytes_in,
                        bytes_out_per_element: bytes_out,
                        handoff_bytes_per_element: 0,
                    };
                    let program =
                        sysgen::MultiSystemDesign::build(&platform, &stages, &memory, pcfg, phost)
                            .expect("same totals as the single-kernel design");
                    let per_batch = secs(cfg.axi_start_s_per_kernel) * k as u64
                        + secs(kernel.latency_seconds())
                        + secs(cfg.irq_s);
                    let exec = per_batch * (m / k) as u64;
                    let transfer = secs(dma.transfer_bursts_s(bytes_in * m, m))
                        + secs(dma.transfer_bursts_s(bytes_out * m, m));
                    for elements in [1, m - 1, m, 50_000] {
                        let cfg = SimConfig { elements, ..cfg };
                        let hw = simulate_hw(&single, &cfg);
                        let prog = simulate_program(&program, &cfg);
                        let n = elements.div_ceil(m) as u64;
                        let want = HwResult {
                            elements,
                            rounds: n as usize,
                            k,
                            m,
                            exec_s: to_secs(exec * n),
                            transfer_s: to_secs(transfer * n),
                            total_s: to_secs((exec + transfer) * n),
                        };
                        let at = format!("{} k={k} m={m} elements={elements}", platform.id);
                        assert_eq!(hw, want, "{at}");
                        assert_eq!(prog.rounds, hw.rounds, "{at}");
                        assert_eq!(prog.ks, vec![k], "{at}");
                        assert_eq!(prog.stage_exec_s, vec![hw.exec_s], "{at}");
                        assert_eq!(prog.exec_s, hw.exec_s, "{at}");
                        assert_eq!(prog.transfer_s, hw.transfer_s, "{at}");
                        assert_eq!(prog.total_s, hw.total_s, "{at}");
                    }
                    covered += 1;
                }
            }
            assert!(
                covered >= 3,
                "{}: only {covered} configurations fit",
                platform.id
            );
        }
    }

    #[test]
    fn chained_stages_accumulate_exec_in_order() {
        let r = simulate_program(
            &program_design(vec![2, 4], 4, &[100_000, 400_000]),
            &SimConfig {
                elements: 400,
                ..Default::default()
            },
        );
        assert_eq!(r.stage_exec_s.len(), 2);
        // Stage 0 runs 2 batches of 100k cycles; stage 1 one batch of
        // 400k — stage 1 still dominates.
        assert!(r.stage_exec_s[1] > r.stage_exec_s[0]);
        assert!((r.exec_s - (r.stage_exec_s[0] + r.stage_exec_s[1])).abs() < 1e-12);
        assert!(r.total_s > r.exec_s);
        // Handoffs never hit the DMA: transfers equal the single-kernel
        // external traffic.
        let single = sim(4, 4, 400);
        assert!((r.transfer_s - single.transfer_s).abs() < 1e-12);
    }

    #[test]
    fn per_stage_replication_changes_batches_not_totals_of_others() {
        let wide = simulate_program(
            &program_design(vec![4, 4], 4, &[200_000, 200_000]),
            &SimConfig {
                elements: 512,
                ..Default::default()
            },
        );
        let narrow = simulate_program(
            &program_design(vec![4, 1], 4, &[200_000, 200_000]),
            &SimConfig {
                elements: 512,
                ..Default::default()
            },
        );
        // Stage 1 at k=1 serializes 4 batches: ≈ 4× its exec time.
        assert_eq!(wide.stage_exec_s[0], narrow.stage_exec_s[0]);
        let ratio = narrow.stage_exec_s[1] / wide.stage_exec_s[1];
        assert!((3.5..4.5).contains(&ratio), "ratio {ratio}");
    }

    /// The summed price against the per-stage one, on every catalog DMA,
    /// one to three stages, ordinary and overflowing kernels (a stage
    /// past the clock, and stages that pass it only together) and
    /// element counts whose runs do and do not fit.
    #[test]
    fn round_ticks_sum_the_per_stage_price() {
        let cfg = SimConfig::default();
        let huge = 3.0e6; // seconds: one batch fits the clock, 64 do not
        let kernels: [&[f64]; 5] = [
            &[1.0e-3],
            &[2.0e-4, 7.0e-3, 5.0e-5],
            &[huge, 1.0e-3],
            &[huge, huge, huge],
            &[],
        ];
        for platform in Platform::catalog() {
            for stages in kernels {
                for (k, m) in [(1, 1), (1, 4), (2, 8), (4, 64)] {
                    let priced = || stages.iter().map(|&s| (k, s));
                    let (dma, bytes) = (&platform.dma, (21_296, 10_648));
                    let round = ProgramRound::price(dma, &cfg, priced(), m, bytes.0, bytes.1);
                    let ticks = RoundTicks::price(dma, &cfg, priced(), m, bytes.0, bytes.1);
                    let at = format!("{} {stages:?} k={k} m={m}", platform.id);
                    assert_eq!((ticks.t_in, ticks.t_out), (round.t_in, round.t_out), "{at}");
                    let exec = round
                        .stage_exec
                        .iter()
                        .try_fold(0u64, |t, &s| t.checked_add(s));
                    assert_eq!(ticks.exec, exec, "{at}");
                    // The serial schedule as a stage-by-stage checked sum.
                    let serial = |elements: usize| {
                        let first = round.t_in.checked_add(round.t_out)?;
                        let r =
                            (round.stage_exec.iter()).try_fold(first, |t, &s| t.checked_add(s))?;
                        r.checked_mul(elements.div_ceil(m) as u64)
                    };
                    for elements in [1, 1_000, 50_000, usize::MAX] {
                        let want = serial(elements);
                        assert_eq!(ticks.serial_ticks(m, elements), want, "{at} {elements}");
                        assert_eq!(round.serial_ticks(m, elements), want, "{at} {elements}");
                    }
                }
            }
        }
    }

    #[test]
    fn round_count_matches_host_program() {
        let r = sim(8, 8, 50_000);
        assert_eq!(r.rounds, 6_250);
        let r = sim(16, 16, 50_000);
        assert_eq!(r.rounds, 3_125);
    }

    #[test]
    fn hw_vs_arm_matches_figure10() {
        // Figure 10: SW Ref 1.00, HW k=1 0.69, HW k=8 4.86, HW k=16 8.62.
        let typed =
            cfdlang::check(&cfdlang::parse(&cfdlang::examples::inverse_helmholtz(11)).unwrap())
                .unwrap();
        let module = teil::transform::factorize(&teil::lower::lower(&typed).unwrap());
        let arm = sw_reference(&module, &Platform::zcu106().host, 800).unwrap();
        for (k, paper, tol) in [(1usize, 0.69f64, 0.06), (8, 4.86, 0.06), (16, 8.62, 0.08)] {
            let hw = sim(k, k, 800);
            let s = arm.total_s / hw.total_s;
            assert!(
                (s - paper).abs() / paper < tol,
                "k={k}: model {s:.2} vs paper {paper}"
            );
        }
    }
}
