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

use crate::des::{secs, to_secs};
use crate::dma::DmaModel;
use serde::{Deserialize, Serialize};
use sysgen::{MultiSystemDesign, SystemDesign};

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of spectral elements in the CFD simulation (the paper runs
    /// 50,000).
    pub elements: usize,
    /// Host-side cost of starting one accelerator through the AXI-lite
    /// peripheral (register writes, cache maintenance), per kernel.
    pub axi_start_s_per_kernel: f64,
    /// Interrupt delivery + handler latency per round.
    pub irq_s: f64,
    /// Overlap DMA transfers with execution (the paper's "better data
    /// transfer strategies" future work): with `m ≥ 2k` the accelerators
    /// execute one PLM slice while the DMA drains/fills another. The
    /// paper's measured implementation is strictly serial (`false`).
    pub overlap_transfers: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            elements: 50_000,
            axi_start_s_per_kernel: 2.5e-6,
            irq_s: 5.0e-6,
            overlap_transfers: false,
        }
    }
}

/// Simulated hardware measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
    /// Average execution time per element.
    pub fn exec_per_element_s(&self) -> f64 {
        self.exec_s / self.elements as f64
    }

    /// Average total time per element.
    pub fn total_per_element_s(&self) -> f64 {
        self.total_s / self.elements as f64
    }
}

/// Run the full-system simulation.
///
/// The serial schedule carries no state from one main-loop round to the
/// next — every round advances the clock by the same tick delta — and
/// within a round every accelerator of a batch finishes at the same
/// tick (one broadcast start, identical latency), so the event queue of
/// the general DES degenerates to closed-form tick arithmetic: one
/// round is `t_in + batch · (start + kernel + irq) + t_out`, and the
/// remaining `rounds - 1` fast-forward by multiplication in integer
/// tick space. The result is exact (tick-identical to the event-queue
/// formulation); per-sweep cost drops from `O(rounds · k)` heap events
/// to `O(1)`.
pub fn simulate_hw(design: &SystemDesign, cfg: &SimConfig) -> HwResult {
    if cfg.overlap_transfers && design.config.batch() >= 2 {
        return simulate_overlapped(design, cfg);
    }
    let m = design.config.m;
    let host = &design.host;
    let rounds = host.rounds(cfg.elements);
    // The one-stage program round: input DMA (one burst per PLM
    // instance), `m/k` batches, output DMA.
    let round = ProgramRound::price(
        &DmaModel::from_platform(&design.platform),
        cfg,
        [(design.config.k, design.kernel.latency_seconds())],
        m,
        host.bytes_in_per_element,
        host.bytes_out_per_element,
    );

    // --- Fast-forward the identical rounds. ---
    let n = rounds as u64;
    HwResult {
        elements: cfg.elements,
        rounds,
        k: design.config.k,
        m,
        exec_s: to_secs(round.exec() * n),
        transfer_s: to_secs((round.t_in + round.t_out) * n),
        total_s: to_secs(round.serial_ticks(m, cfg.elements)),
    }
}

/// Simulated measurements of a chained multi-kernel program run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// external byte interface per element. Per stage, each of the
    /// `m/k_i` batches starts its accelerators through the AXI-lite
    /// peripheral (the broadcast is serialized on the AXI bus), all
    /// `k_i` finish together, and the peripheral raises the interrupt
    /// when the last one signals done. Every simulator and the
    /// design-space sweep price their rounds here.
    pub fn price(
        dma: &DmaModel,
        cfg: &SimConfig,
        stages: impl IntoIterator<Item = (usize, f64)>,
        m: usize,
        bytes_in_per_element: usize,
        bytes_out_per_element: usize,
    ) -> ProgramRound {
        let stage_exec = stages.into_iter().map(|(k, kernel_s)| {
            let per_batch =
                secs(cfg.axi_start_s_per_kernel) * k as u64 + secs(kernel_s) + secs(cfg.irq_s);
            per_batch * (m / k) as u64
        });
        ProgramRound {
            t_in: secs(dma.transfer_bursts_s(bytes_in_per_element * m, m)),
            stage_exec: stage_exec.collect(),
            t_out: secs(dma.transfer_bursts_s(bytes_out_per_element * m, m)),
        }
    }

    /// Total execution ticks of the chained stages.
    pub fn exec(&self) -> u64 {
        self.stage_exec.iter().sum()
    }

    /// Total ticks of one serial round (`t_in + exec + t_out`).
    pub fn total(&self) -> u64 {
        self.t_in + self.exec() + self.t_out
    }

    /// End-to-end ticks of the serial schedule over `elements`
    /// elements: `⌈elements / m⌉` identical rounds (the final partial
    /// batch still costs a full round).
    pub fn serial_ticks(&self, m: usize, elements: usize) -> u64 {
        self.total() * elements.div_ceil(m) as u64
    }
}

/// Compute the per-round tick costs of `design` under `cfg`'s host
/// constants (`cfg.elements` is irrelevant here — a round always moves
/// `m` elements).
pub fn program_round(design: &MultiSystemDesign, cfg: &SimConfig) -> ProgramRound {
    let stages = design.stages.iter().zip(&design.config.ks);
    ProgramRound::price(
        &DmaModel::from_platform(&design.platform),
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
/// outputs back. As in [`simulate_hw`], the serial schedule carries no
/// state between rounds and no state between an accelerator batch's
/// identical done events, so one representative round is computed in
/// closed tick arithmetic and the rest fast-forward by multiplication
/// in integer tick space — the single-kernel fast-forward path,
/// preserved per kernel.
///
/// With `overlap_transfers` set and a spare PLM set for every stage
/// (`m >= 2·k_i`), rounds pipeline at **round granularity**: the DMA
/// fills round `r+1`'s input sets and drains round `r-1`'s outputs
/// while round `r` executes ([`simulate_program_overlapped`]). This is
/// coarser than the single-kernel simulator's slice-level overlap, so
/// the tick-identity with [`simulate_hw`] holds for the serial
/// schedule only.
pub fn simulate_program(design: &MultiSystemDesign, cfg: &SimConfig) -> ProgramHwResult {
    if cfg.overlap_transfers && design.config.ks.iter().all(|&k| design.config.m >= 2 * k) {
        return simulate_program_overlapped(design, cfg);
    }
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
        total_s: to_secs(round.serial_ticks(m, cfg.elements)),
    }
}

/// Round-granularity double buffering for chained programs: the DMA
/// engine and the accelerator chain are two serially reused resources;
/// round `r`'s chain executes once its inputs landed and the chain is
/// free, while the single DMA engine fills/drains neighbouring rounds'
/// PLM sets. Requires a spare set for every stage (`m >= 2·k_i`).
fn simulate_program_overlapped(design: &MultiSystemDesign, cfg: &SimConfig) -> ProgramHwResult {
    let m = design.config.m;
    let rounds = design.host.rounds(cfg.elements);
    let ProgramRound {
        t_in,
        stage_exec,
        t_out,
    } = program_round(design, cfg);
    let exec: u64 = stage_exec.iter().sum();

    let mut dma_free: u64 = 0;
    let mut chain_free: u64 = 0;
    let mut exec_total: u64 = 0;
    let mut transfer_total: u64 = 0;
    let mut end: u64 = 0;
    let mut pending_out: Option<u64> = None;
    for _r in 0..rounds {
        let in_done = dma_free + t_in;
        dma_free = in_done;
        transfer_total += t_in;
        let exec_start = in_done.max(chain_free);
        let exec_done = exec_start + exec;
        chain_free = exec_done;
        exec_total += exec;
        // Drain the previous round's outputs while this one executes.
        if let Some(ready) = pending_out.take() {
            let out_start = ready.max(dma_free);
            dma_free = out_start + t_out;
            transfer_total += t_out;
            end = end.max(dma_free);
        }
        pending_out = Some(exec_done);
        end = end.max(exec_done);
    }
    if let Some(ready) = pending_out {
        let out_done = ready.max(dma_free) + t_out;
        transfer_total += t_out;
        end = end.max(out_done);
    }

    let n = rounds as u64;
    ProgramHwResult {
        elements: cfg.elements,
        rounds,
        ks: design.config.ks.clone(),
        m,
        stage_exec_s: stage_exec.iter().map(|&t| to_secs(t * n)).collect(),
        exec_s: to_secs(exec_total),
        transfer_s: to_secs(transfer_total),
        total_s: to_secs(end),
    }
}

/// Double-buffered timing: PLM *slices* of `k` elements flow through a
/// three-stage pipeline (DMA in → execute → DMA out). The DMA engine and
/// the accelerators are each serially reused resources; a slice executes
/// once its input landed and the accelerators are free, and its output
/// drains once the (single) DMA engine is free again. With transfers at
/// ~2% of the kernel time this hides them almost completely — the upside
/// the paper anticipated for the `k < m` architecture.
fn simulate_overlapped(design: &SystemDesign, cfg: &SimConfig) -> HwResult {
    let k = design.config.k;
    let m = design.config.m;
    let host = &design.host;
    let dma = DmaModel::from_platform(&design.platform);
    let kernel_s = design.kernel.latency_seconds();
    let rounds = host.rounds(cfg.elements);
    let slices = rounds * design.config.batch();

    let t_in = secs(dma.transfer_bursts_s(host.bytes_in_per_element * k, k));
    let t_out = secs(dma.transfer_bursts_s(host.bytes_out_per_element * k, k));
    let exec = secs(cfg.axi_start_s_per_kernel) * k as u64 + secs(kernel_s) + secs(cfg.irq_s);

    let mut dma_free: u64 = 0;
    let mut accel_free: u64 = 0;
    let mut exec_total: u64 = 0;
    let mut transfer_total: u64 = 0;
    let mut end: u64 = 0;
    // Output of slice s must wait for its execution; input of slice s+1
    // may proceed during execution of slice s (separate PLM set).
    let mut pending_out: Option<u64> = None;
    for _s in 0..slices {
        // Input transfer for this slice.
        let in_start = dma_free;
        let in_done = in_start + t_in;
        dma_free = in_done;
        transfer_total += t_in;
        // Execution.
        let exec_start = in_done.max(accel_free);
        let exec_done = exec_start + exec;
        accel_free = exec_done;
        exec_total += exec;
        // Drain the previous slice's output while this one executes.
        if let Some(ready) = pending_out.take() {
            let out_start = ready.max(dma_free);
            dma_free = out_start + t_out;
            transfer_total += t_out;
            end = end.max(dma_free);
        }
        pending_out = Some(exec_done);
        end = end.max(exec_done);
    }
    if let Some(ready) = pending_out {
        let out_start = ready.max(dma_free);
        let out_done = out_start + t_out;
        transfer_total += t_out;
        end = end.max(out_done);
    }

    HwResult {
        elements: cfg.elements,
        rounds,
        k,
        m,
        exec_s: to_secs(exec_total),
        transfer_s: to_secs(transfer_total),
        total_s: to_secs(end),
    }
}

/// Software execution time (pure cost-model application; the functional
/// result comes from the interpreter / loop evaluator separately).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwResult {
    pub per_element_s: f64,
    pub total_s: f64,
}

/// Time the reference implementation on the ARM model.
pub fn sw_reference(
    module: &teil::Module,
    model: &crate::ArmCostModel,
    elements: usize,
) -> Result<SwResult, String> {
    let zeros: Vec<(&str, teil::Tensor)> = module
        .of_kind(teil::TensorKind::Input)
        .iter()
        .map(|&id| (module.name(id), teil::Tensor::zeros(module.shape(id))))
        .collect();
    let inputs = teil::interp::inputs_from(zeros);
    let ex = teil::Interpreter::new(module).run(&inputs)?;
    let per = model.time_reference(&ex.stats);
    Ok(SwResult {
        per_element_s: per,
        total_s: per * elements as f64,
    })
}

/// Time the HLS-oriented generated C on the ARM model.
pub fn sw_hls_code(
    kernel: &cgen::CKernel,
    model: &crate::ArmCostModel,
    elements: usize,
) -> Result<SwResult, String> {
    let per = model.time_hls_code(&cgen::kernel_counts(kernel)?);
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

    #[test]
    fn overlap_hides_transfers() {
        // The extension the paper's future work proposes: with m = 2k
        // the DMA fills one PLM set while the other executes.
        let serial = simulate_hw(
            &design(2, 4),
            &SimConfig {
                elements: 512,
                ..Default::default()
            },
        );
        let overlapped = simulate_hw(
            &design(2, 4),
            &SimConfig {
                elements: 512,
                overlap_transfers: true,
                ..Default::default()
            },
        );
        assert!(overlapped.total_s < serial.total_s);
        // Transfers almost fully hidden: total within 1% of exec-bound.
        assert!(
            overlapped.total_s < overlapped.exec_s * 1.01,
            "total {} vs exec {}",
            overlapped.total_s,
            overlapped.exec_s
        );
    }

    #[test]
    fn overlap_needs_double_buffering() {
        // With m = k there is no second PLM set: the flag degrades to the
        // serial schedule.
        let serial = simulate_hw(
            &design(4, 4),
            &SimConfig {
                elements: 256,
                ..Default::default()
            },
        );
        let flagged = simulate_hw(
            &design(4, 4),
            &SimConfig {
                elements: 256,
                overlap_transfers: true,
                ..Default::default()
            },
        );
        assert_eq!(serial, flagged);
    }

    #[test]
    fn overlap_preserves_work_accounting() {
        let r = simulate_hw(
            &design(2, 8),
            &SimConfig {
                elements: 512,
                overlap_transfers: true,
                ..Default::default()
            },
        );
        // Same amount of executed kernel time as the serial schedule.
        let s = simulate_hw(
            &design(2, 8),
            &SimConfig {
                elements: 512,
                ..Default::default()
            },
        );
        assert!((r.exec_s - s.exec_s).abs() < 1e-9);
        assert!((r.transfer_s - s.transfer_s).abs() / s.transfer_s < 0.01);
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
        // The degenerate one-kernel program must be tick-identical to
        // the single-kernel simulator (same bytes, same latency).
        let single = sim(4, 4, 800);
        let prog = simulate_program(
            &program_design(vec![4], 4, &[571_000]),
            &SimConfig {
                elements: 800,
                ..Default::default()
            },
        );
        assert_eq!(prog.rounds, single.rounds);
        assert_eq!(prog.exec_s, single.exec_s);
        assert_eq!(prog.transfer_s, single.transfer_s);
        assert_eq!(prog.total_s, single.total_s);
        assert_eq!(prog.stage_exec_s.len(), 1);
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
    fn program_overlap_hides_transfers_with_spare_sets() {
        let design = program_design(vec![2, 2], 4, &[200_000, 200_000]);
        let serial = simulate_program(
            &design,
            &SimConfig {
                elements: 512,
                ..Default::default()
            },
        );
        let overlapped = simulate_program(
            &design,
            &SimConfig {
                elements: 512,
                overlap_transfers: true,
                ..Default::default()
            },
        );
        assert!(overlapped.total_s < serial.total_s);
        // Same work, transfers nearly hidden behind the chain.
        assert!((overlapped.exec_s - serial.exec_s).abs() < 1e-12);
        assert!(overlapped.total_s < overlapped.exec_s * 1.05);
        // Without a spare PLM set per stage the flag degrades to the
        // serial schedule.
        let tight = program_design(vec![4, 4], 4, &[200_000, 200_000]);
        let flagged = simulate_program(
            &tight,
            &SimConfig {
                elements: 256,
                overlap_transfers: true,
                ..Default::default()
            },
        );
        let plain = simulate_program(
            &tight,
            &SimConfig {
                elements: 256,
                ..Default::default()
            },
        );
        assert_eq!(flagged, plain);
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
        let model = crate::ArmCostModel::a53_1200mhz();
        let arm = sw_reference(&module, &model, 800).unwrap();
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
