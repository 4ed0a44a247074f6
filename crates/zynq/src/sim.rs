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
use hls::HlsReport;
use sysgen::{DmaSpec, HostCpuModel, MultiSystemDesign, RoundCost, RoundTicks, SystemDesign};

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

/// The one price of a main-loop round ([`sysgen::RoundCost`]): a round
/// on `dma` under `cfg`'s host constants, with the external byte
/// interface per element, each stage charged [`stage_ticks`] and each
/// transfer [`transfer_ticks`]. The simulators ([`program_round`]), the
/// replication search (`sysgen::best_program_config`) and the
/// design-space sweep all price their rounds here.
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

impl RoundCost for RoundPricer<'_> {
    fn round<'a>(
        &self,
        banks: impl IntoIterator<Item = (usize, &'a HlsReport)>,
        m: usize,
    ) -> RoundTicks {
        let exec = (banks.into_iter()).try_fold(0, |t: Time, (k, kernel)| {
            t.checked_add(stage_ticks(self.cfg, k, kernel.latency_seconds(), m)?)
        });
        RoundTicks {
            t_in: transfer_ticks(self.dma, self.bytes_in_per_element, m),
            exec,
            t_out: transfer_ticks(self.dma, self.bytes_out_per_element, m),
        }
    }
}

/// The round of `design` under `cfg`'s host constants, priced by
/// [`RoundPricer`] (`cfg.elements` is irrelevant here — a round always
/// moves `m` elements). [`simulate_program`] and the stream scheduler
/// ([`crate::stream`]) both derive their schedules from it, so a served
/// round is tick-identical to a simulated one by construction.
pub fn program_round(design: &MultiSystemDesign, cfg: &SimConfig) -> RoundTicks {
    RoundPricer::of(design, cfg).round(design.banks(), design.config.m)
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
/// asks [`RoundTicks::serial_ticks`] first.
pub fn simulate_program(design: &MultiSystemDesign, cfg: &SimConfig) -> ProgramHwResult {
    let m = design.config.m;
    let rounds = design.host.rounds(cfg.elements);
    let round = program_round(design, cfg);

    let n = rounds as u64;
    // The one per-stage report: each stage's share of the round's exec.
    let stage_exec_s: Vec<f64> = (design.banks())
        .map(|(k, kernel)| stage_ticks(cfg, k, kernel.latency_seconds(), m))
        // A stage past the clock executes until its last tick.
        .map(|t| to_secs(t.unwrap_or(Time::MAX) * n))
        .collect();
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

    /// The one price against the stage-by-stage checked definition, on
    /// every catalog DMA, zero to three stages, ordinary and
    /// overflowing kernels (a stage past the clock, and stages that pass
    /// it only together) and element counts whose runs do and do not
    /// fit.
    #[test]
    fn the_round_price_is_the_checked_per_stage_sum() {
        let cfg = SimConfig::default();
        // 3e6 s at 200 MHz: one batch fits the clock, 16 do not.
        const HUGE: u64 = 600_000_000_000_000;
        let kernels: [&[u64]; 5] = [
            &[200_000],
            &[40_000, 1_400_000, 10_000],
            &[HUGE, 200_000],
            &[HUGE, HUGE, HUGE],
            &[],
        ];
        let (bytes_in, bytes_out) = (21_296, 10_648);
        let (mut stage_past, mut sum_past) = (0, 0);
        for platform in Platform::catalog() {
            let dma = &platform.dma;
            let pricer = RoundPricer {
                dma,
                cfg: &cfg,
                bytes_in_per_element: bytes_in,
                bytes_out_per_element: bytes_out,
            };
            for latencies in kernels {
                let reports: Vec<_> = latencies.iter().map(|&l| paper_report("s", l)).collect();
                for (k, m) in [(1, 1), (1, 4), (2, 8), (4, 64)] {
                    let round = pricer.round(reports.iter().map(|r| (k, r)), m);
                    let at = format!("{} {latencies:?} k={k} m={m}", platform.id);
                    let (t_in, t_out) = (
                        transfer_ticks(dma, bytes_in, m),
                        transfer_ticks(dma, bytes_out, m),
                    );
                    let stages: Option<Vec<Time>> = (reports.iter())
                        .map(|r| stage_ticks(&cfg, k, r.latency_seconds(), m))
                        .collect();
                    let exec = (stages.as_ref())
                        .and_then(|s| s.iter().try_fold(0, |t: Time, &s| t.checked_add(s)));
                    stage_past += stages.is_none() as usize;
                    sum_past += (stages.is_some() && exec.is_none()) as usize;
                    assert_eq!(round, RoundTicks { t_in, exec, t_out }, "{at}");
                    assert_eq!(round.ticks(), (t_in, exec.unwrap_or(Time::MAX), t_out));
                    // The serial schedule as a stage-by-stage checked sum.
                    let serial = |elements: usize| {
                        let first = t_in.checked_add(t_out)?;
                        let r =
                            (stages.as_ref()?.iter()).try_fold(first, |t, &s| t.checked_add(s))?;
                        r.checked_mul(elements.div_ceil(m) as u64)
                    };
                    assert_eq!(round.checked_total(), serial(m), "{at}");
                    assert_eq!(round.total(), serial(m).unwrap_or(Time::MAX), "{at}");
                    for elements in [1, 1_000, 50_000, usize::MAX] {
                        let want = serial(elements);
                        assert_eq!(round.serial_ticks(m, elements), want, "{at} {elements}");
                    }
                }
            }
        }
        assert!(stage_past > 0 && sum_past > 0, "{stage_past} / {sum_past}");
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
