//! Scoring: what one design point costs, decided without building it.
//!
//! **Rows.** A sweep row holds its point, score, platform id, clock and
//! flags, never a string all rows share: the kernel names are the
//! report's `label`, a board's display name is its
//! [`PlatformSummary`](super::PlatformSummary)'s, and its id is the
//! catalog's `&'static str`. A row pays for Eq. (3) and its priced
//! round, allocates nothing and reads no clock: the round is priced
//! once, by the one round price ([`RoundPricer`]) into three tick sums
//! ([`RoundTicks`]), not collected per stage.
//!
//! **Invariant: a sweep row equals what `cfdc compile` + `cfdc
//! simulate` + `cfdc serve` would report for that design.** A point is
//! never built — no `SystemDesign`, host program or host source, and a
//! backend slot emits no kernel C text
//! ([`Backend`](crate::pipeline::Backend) carries none) — but its
//! feasibility, totals and simulated time come from the calls the
//! system builders, the simulators and the replication search make
//! ([`score`]), and its service figures from the stream scheduler's
//! clean fold on a round of those ticks ([`service_probe`]). The serial
//! total is a checked product: a row past the `u64` clock reads
//! infinite, and the report counts it in `ticks_overflows`.
//! `score_equals_build_simulate_and_probe` holds the invariant bit for
//! bit over every catalog platform, ladder clock and point of a
//! kernel's and a program's sweeps, infeasible rows included;
//! `score_prices_compiles_own_pick` holds the score of compile's own
//! per-stage pick (`score` takes one `k_i` per stage, as the search
//! does; a grid row is uniform) to its built design on every builtin ×
//! catalog board; and `portfolio_rows_equal_the_per_slot_definition`
//! holds every row's shared probe to a probe of its own round.

use std::hash::Hasher;

use mnemosyne::MemorySubsystem;
use sysgen::{Platform, RoundCost, RoundTicks, SystemConfig, Totals};
use zynq::des::to_secs;
use zynq::{RoundPricer, SimConfig};

/// One point of the exploration grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsePoint {
    /// Accelerator replicas.
    pub k: usize,
    /// PLM systems (`m = 2^j · k`).
    pub m: usize,
    /// Mnemosyne PLM sharing.
    pub sharing: bool,
    /// Temporaries exported to PLMs (decoupled) vs kept inside.
    pub decoupled: bool,
    /// Cyclic partition factor applied to the kernel's largest input
    /// array (1 = no partitioning).
    pub partition: u32,
}

impl DsePoint {
    pub fn label(&self) -> String {
        format!(
            "k={} m={} sharing={} decoupled={} partition={}",
            self.k, self.m, self.sharing, self.decoupled, self.partition
        )
    }

    /// A key that orders as the point's [`DsePoint::label`] string: the
    /// label is its fields in order, every number is followed by a
    /// space or the end of the string — both sort before any digit — so
    /// each number orders as its [`decimal_text_key`], and `false` <
    /// `true` as words and as `bool`s.
    pub(super) fn label_key(&self) -> (u128, u128, bool, bool, u128) {
        (
            decimal_text_key(self.k as u64),
            decimal_text_key(self.m as u64),
            self.sharing,
            self.decoupled,
            decimal_text_key(self.partition.into()),
        )
    }

    /// The backend-relevant subset of the point: grid axes that only
    /// differ in system-stage knobs (`k`, `m`) share one compiled
    /// backend (kernel, HLS estimate, memory subsystem).
    pub(super) fn backend_key(&self) -> (bool, bool, u32) {
        (self.sharing, self.decoupled, self.partition)
    }
}

/// A key that orders as `n`'s decimal spelling as a string, where a
/// proper prefix sorts first: the digits padded with zeros to 20 (the
/// most a `u64` has) read as a number, then, in the five bits below,
/// the digit count, which breaks a tie (`"1" < "10" < "2"`).
fn decimal_text_key(n: u64) -> u128 {
    let digits = n.checked_ilog10().map_or(1, |d| d + 1);
    (u128::from(n) * u128::from(10u64.pow(20 - digits))) << 5 | u128::from(digits)
}

/// The cartesian exploration grid. `m` is derived as `k · batch`, so
/// every point whose batch is a power of two satisfies the paper's
/// power-of-two batching constraint by construction.
#[derive(Debug, Clone)]
pub struct DseGrid {
    pub k: Vec<usize>,
    /// Batch factors (executions per accelerator per round). A point
    /// whose batch is not a power of two is swept and scores as
    /// infeasible, as any invalid replication does.
    pub batch: Vec<usize>,
    pub sharing: Vec<bool>,
    pub decoupled: Vec<bool>,
    pub partition: Vec<u32>,
}

impl Default for DseGrid {
    /// The paper-shaped default sweep: replication × batching × sharing
    /// × decoupling (32 points).
    fn default() -> Self {
        DseGrid {
            k: vec![1, 2, 4, 8],
            batch: vec![1, 2],
            sharing: vec![true, false],
            decoupled: vec![true, false],
            partition: vec![1],
        }
    }
}

impl DseGrid {
    /// Materialize the grid points (row-major over the option axes).
    pub fn points(&self) -> Vec<DsePoint> {
        let mut out = Vec::new();
        for &k in &self.k {
            for &batch in &self.batch {
                for &sharing in &self.sharing {
                    for &decoupled in &self.decoupled {
                        for &partition in &self.partition {
                            out.push(DsePoint {
                                k,
                                m: k * batch,
                                sharing,
                                decoupled,
                                partition: partition.max(1),
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// One design point and its score; its kernels are the report's
/// [`PortfolioReport::label`](super::PortfolioReport::label).
#[derive(Debug, Clone)]
pub struct DseOutcome {
    pub point: DsePoint,
    /// Whether the configuration fits the board (Eq. 3).
    pub feasible: bool,
    /// System totals including integration logic (0 when infeasible).
    pub luts: usize,
    pub ffs: usize,
    pub dsps: usize,
    pub brams: usize,
    /// Memory-subsystem BRAMs per PLM system.
    pub plm_brams: usize,
    /// Per-kernel latency estimate.
    pub latency_cycles: u64,
    /// Simulated end-to-end time for the report's element count;
    /// infinite when its ticks do not fit the simulator's `u64` clock
    /// (the report counts those rows in `ticks_overflows`).
    pub total_s: f64,
    /// Elements per second (0 when infeasible).
    pub throughput_eps: f64,
    /// Batched-serving throughput of the design (requests/sec for a
    /// closed backlog of [`SERVICE_PROBE_REQUESTS`] requests, batch
    /// fill `m`, double-buffered DMA; 0 when infeasible) — the
    /// **throughput objective** of the service-level Pareto view.
    pub service_rps: f64,
    /// p99 request latency of the same probe (0 when infeasible).
    pub service_p99_s: f64,
}

/// Closed-backlog size of the serving probe every feasible design is
/// scored with.
pub const SERVICE_PROBE_REQUESTS: usize = 64;

/// Score a design's serving behavior: requests/sec and p99 latency of a
/// closed backlog of [`SERVICE_PROBE_REQUESTS`] requests under the
/// `Auto` batch policy (fill `m`) with double-buffered DMA. The stream
/// scheduler's clean fold ([`zynq::summarize_round_stream`]) reports to
/// a summary that keeps only the
/// makespan and the drain tick of the round holding the p99 request
/// (`runtime::rank`'s nearest-rank position; the backlog drains in
/// arrival order) — no requests, no columns, no sort, no report. The
/// two numbers are, bit for bit, the `throughput_rps` and
/// `latency_p99_s` a timing-only `runtime::serve` of that backlog
/// reports (`service_probe_reads_what_serve_reports`), so the ones
/// `cfdc serve` would print for the same design. The design enters as
/// what the scheduler reads of it: its round's `(t_in, exec, t_out)`
/// ticks under the default [`SimConfig`] ([`RoundTicks::ticks`]),
/// `ks` and `m`.
pub(super) fn service_probe(ticks: (u64, u64, u64), ks: &[usize], m: usize) -> (f64, f64) {
    // Everything arrives at tick 0: a request's latency is the tick it
    // completes at.
    let summary = zynq::summarize_round_stream(
        ticks,
        ks,
        m,
        &[0; SERVICE_PROBE_REQUESTS],
        m,
        true,
        runtime::rank(SERVICE_PROBE_REQUESTS, 0.99),
    );
    let throughput_rps = runtime::per_second(SERVICE_PROBE_REQUESTS, summary.makespan_ticks);
    (throughput_rps, to_secs(summary.rank_ticks))
}

/// What [`service_probe`] reads of a design that fits: its round's
/// input, summed execution and output ticks (the stream scheduler's
/// fold and resource model read nothing else of a round), `k` and `m`.
/// Designs with equal keys probe alike, so a sweep probes each
/// distinct key once.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub(super) struct ProbeKey {
    t_in: u64,
    exec: u64,
    t_out: u64,
    k: usize,
    m: usize,
}

impl ProbeKey {
    /// The key of a design priced at `round`; `None` when its execution
    /// alone passes the `u64` clock (such a row reads infinite time, and
    /// no probe can place it).
    pub(super) fn of(round: &RoundTicks, k: usize, m: usize) -> Option<ProbeKey> {
        Some(ProbeKey {
            t_in: round.t_in,
            exec: round.exec?,
            t_out: round.t_out,
            k,
            m,
        })
    }

    /// The service probe of every design with this key: a one-stage
    /// round that executes for the key's summed ticks.
    pub(super) fn probe(&self) -> (f64, f64) {
        service_probe((self.t_in, self.exec, self.t_out), &[self.k], self.m)
    }
}

/// The hasher of the sweep's probe-key table: a multiply-rotate fold
/// of the key's five integers. The keys come from the sweep itself, so
/// SipHash's resistance to chosen keys buys nothing, and it cost more
/// than the lookup.
#[derive(Default)]
pub(super) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Everything of a design point that does not depend on `(k, m)`: one
/// backend slot's per-stage HLS reports, its memory subsystem and
/// external byte interface, borrowed from the pieces they were built as.
/// A single kernel is a one-stage program (what
/// `MultiSystemDesign::from_single` asserts), so kernels and programs
/// score through the same parts.
pub(super) struct ScoreParts<'a> {
    pub(super) stages: Vec<&'a hls::HlsReport>,
    pub(super) memory: &'a MemorySubsystem,
    /// The host's external `(in, out)` bytes per element.
    pub(super) bytes: (usize, usize),
}

/// Score `ks` accelerators per stage (one `k_i` per stage, in chain
/// order) over `m` PLM sets of `parts` on `platform` without building
/// the design: `None` when Eq. (3) rejects it (or some `(k_i, m)` is
/// not a valid replication), else the totals and the priced round. It
/// makes the calls the replication search makes
/// (`sysgen::best_program_config`), on the same `(k_i, report)` banks:
/// [`Totals::fit`], which `SystemDesign::build` and
/// `MultiSystemDesign::build` decide with, and the one round price,
/// [`RoundPricer`], with which `simulate_hw`, `simulate_program` and
/// `program_round` price their rounds.
pub(super) fn score(
    parts: &ScoreParts<'_>,
    platform: &Platform,
    ks: impl Iterator<Item = usize> + Clone,
    m: usize,
) -> Option<(Totals, RoundTicks)> {
    if !ks.clone().all(|k| (SystemConfig { k, m }).valid()) {
        return None;
    }
    let banks = ks.zip(parts.stages.iter().copied());
    let totals = Totals::fit(platform, banks.clone(), parts.memory, m)?;
    let sim = SimConfig::default();
    let cost = RoundPricer {
        dma: &platform.dma,
        cfg: &sim,
        bytes_in_per_element: parts.bytes.0,
        bytes_out_per_element: parts.bytes.1,
    };
    Some((totals, cost.round(banks, m)))
}

/// The sweep row of `point` on `parts` given its [`score`]: zeros when
/// it does not fit, else the totals and the simulated time for
/// `elements` elements. The service figures stay 0: the sweep fills
/// them in from its probes.
pub(super) fn outcome(
    parts: &ScoreParts<'_>,
    point: &DsePoint,
    scored: Option<(Totals, RoundTicks)>,
    elements: usize,
) -> DseOutcome {
    let (totals, total_s) = (scored.map(|(totals, round)| {
        let ticks = round.serial_ticks(point.m, elements);
        (totals, ticks.map_or(f64::INFINITY, to_secs))
    }))
    .unwrap_or_default();
    DseOutcome {
        point: *point,
        feasible: scored.is_some(),
        luts: totals.luts,
        ffs: totals.ffs,
        dsps: totals.dsps,
        brams: totals.brams,
        plm_brams: parts.memory.brams,
        latency_cycles: parts.stages.iter().map(|r| r.latency_cycles).sum(),
        total_s,
        throughput_eps: if total_s > 0.0 {
            elements as f64 / total_s
        } else {
            0.0
        },
        service_rps: 0.0,
        service_p99_s: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Ordering;

    use super::*;
    use crate::dse::fixtures::{dense_grid, outcome_probed, TRICKY};
    use crate::dse::DseEngine;
    use crate::pipeline::Backend;
    use crate::program::ProgramOptions;
    use crate::FlowOptions;

    /// The probe against the run it abbreviates: a timing-only
    /// `runtime::serve` of the same closed backlog, on the program
    /// system of every catalog board and on single-kernel systems with
    /// and without a spare PLM set.
    #[test]
    fn service_probe_reads_what_serve_reports() {
        let opts = runtime::RuntimeOptions {
            requests: SERVICE_PROBE_REQUESTS,
            ..runtime::RuntimeOptions::default()
        };
        let requests = runtime::generate_timing_requests(opts.requests, &opts.arrival, 0).unwrap();
        let agrees = |design: &sysgen::MultiSystemDesign| {
            let served = runtime::serve(design, &[], &[], &[], &requests, &opts).unwrap();
            let round = zynq::program_round(design, &SimConfig::default());
            let (rps, p99_s) = service_probe(round.ticks(), &design.config.ks, design.config.m);
            let report = served.report;
            assert_eq!(
                (rps.to_bits(), p99_s.to_bits()),
                (
                    report.throughput_rps.to_bits(),
                    report.latency_p99_s.to_bits()
                ),
                "{} m={}: probe {rps} / {p99_s}, serve {} / {}",
                design.platform.id,
                design.config.m,
                report.throughput_rps,
                report.latency_p99_s
            );
        };
        let source = cfdlang::examples::simulation_step(5);
        let mut fitted = 0;
        for platform in Platform::catalog() {
            let options = crate::program::ProgramOptions {
                flow: FlowOptions::for_platform(platform),
                ..Default::default()
            };
            let art = crate::program::ProgramFlow::compile(&source, &options).unwrap();
            fitted += art.system.iter().inspect(|design| agrees(design)).count();
        }
        assert!(fitted >= 3, "only {fitted} catalog boards fit the program");

        for (k, m) in [(1, 1), (1, 4), (2, 2), (2, 8)] {
            let options = crate::program::ProgramOptions {
                system: Some(sysgen::ProgramSystemConfig::uniform(k, m, 1)),
                ..Default::default()
            };
            let source = cfdlang::examples::inverse_helmholtz(5);
            let art = crate::program::ProgramFlow::compile(&source, &options).unwrap();
            agrees(&art.system.expect("fits the zcu106"));
        }
    }

    /// The probe of a built design, as the sweep ran it before it
    /// scored points.
    fn probe_of(design: &sysgen::MultiSystemDesign) -> (f64, f64) {
        let round = zynq::program_round(design, &SimConfig::default());
        service_probe(round.ticks(), &design.config.ks, design.config.m)
    }

    /// The row `outcome` must produce for a design that was really
    /// built (or could not be), simulated and probed.
    fn assert_row_matches(
        row: &DseOutcome,
        built: Option<(Totals, f64, (f64, f64))>,
        plm_brams: usize,
        latency_cycles: u64,
        elements: usize,
        at: &str,
    ) {
        let (totals, total_s, (rps, p99_s)) = built.unwrap_or_default();
        let eps = if total_s > 0.0 {
            elements as f64 / total_s
        } else {
            0.0
        };
        assert_eq!(row.feasible, built.is_some(), "{at}");
        assert_eq!(
            (row.luts, row.ffs, row.dsps, row.brams),
            (totals.luts, totals.ffs, totals.dsps, totals.brams),
            "{at}"
        );
        assert_eq!(
            (row.plm_brams, row.latency_cycles),
            (plm_brams, latency_cycles),
            "{at}"
        );
        assert_eq!(
            [
                row.total_s,
                row.throughput_eps,
                row.service_rps,
                row.service_p99_s
            ]
            .map(f64::to_bits),
            [total_s, eps, rps, p99_s].map(f64::to_bits),
            "{at}"
        );
    }

    /// The module's invariant: for every catalog platform, ladder clock
    /// and point of the dense single-kernel grid and the default
    /// program grid, the scored row is bit for bit what building the
    /// design (the kernel's one-stage `MultiSystemDesign::build` /
    /// `ProgramBuild::design_for`), simulating it (`simulate_program`)
    /// and probing
    /// it report — rows that do not fit included.
    #[test]
    fn score_equals_build_simulate_and_probe() {
        const ELEMENTS: usize = 2_000;
        let sim = SimConfig {
            elements: ELEMENTS,
            ..SimConfig::default()
        };
        let dense = dense_grid();
        assert_eq!(dense.points().len(), 264);
        let src = cfdlang::examples::inverse_helmholtz(11);
        let engine = DseEngine::prepare(&src, &FlowOptions::default()).unwrap();
        let (mut fit, mut unfit) = (0, 0);
        for platform in Platform::catalog() {
            for &clock in &platform.clock_ladder_mhz {
                let mut slots: Vec<((bool, bool, u32), Backend)> = Vec::new();
                for point in dense.points() {
                    let key = point.backend_key();
                    if !slots.iter().any(|(k, ..)| *k == key) {
                        slots.push((key, engine.backend_at(0, clock, &point)));
                    }
                    let (_, be) = slots.iter().find(|(k, ..)| *k == key).unwrap();
                    let parts = &ScoreParts::of_kernel(be);
                    // The kernel's one-stage program system.
                    let cfg = sysgen::ProgramSystemConfig::uniform(point.k, point.m, 1);
                    let stages = [("main".to_string(), be.hls_report.clone())];
                    let (bytes_in, bytes_out) =
                        sysgen::HostProgram::interface_bytes([&be.kernel], |_, _| true);
                    let host = sysgen::ProgramHostProgram {
                        bytes_in_per_element: bytes_in,
                        bytes_out_per_element: bytes_out,
                        ..sysgen::ProgramHostProgram::placeholder(cfg.clone(), &stages)
                    };
                    let built =
                        sysgen::MultiSystemDesign::build(&platform, &stages, &be.memory, cfg, host)
                            .map(|design| {
                                let totals = Totals {
                                    luts: design.luts,
                                    ffs: design.ffs,
                                    dsps: design.dsps,
                                    brams: design.brams,
                                };
                                let total_s = zynq::simulate_program(&design, &sim).total_s;
                                (totals, total_s, probe_of(&design))
                            });
                    *if built.is_some() {
                        &mut fit
                    } else {
                        &mut unfit
                    } += 1;
                    let row = outcome_probed(parts, &platform, &point, ELEMENTS);
                    let at = format!("{} @ {clock} MHz, {}", platform.id, point.label());
                    assert_row_matches(
                        &row,
                        built,
                        be.memory.brams,
                        be.hls_report.latency_cycles,
                        ELEMENTS,
                        &at,
                    );
                }
            }
        }
        assert!(fit > 1_000 && unfit > 500, "{fit} fit, {unfit} do not");

        let src = cfdlang::examples::simulation_step(7);
        let options = crate::program::ProgramOptions::default();
        let engine = DseEngine::prepare(&src, &options).unwrap();
        let (mut fit, mut unfit) = (0, 0);
        for platform in Platform::catalog() {
            for &clock in &platform.clock_ladder_mhz {
                for point in DseGrid::default().points() {
                    let build = engine.build_at(clock, &point);
                    let cfg = sysgen::ProgramSystemConfig::uniform(point.k, point.m, 3);
                    let built = build.design_for(&platform, cfg).map(|design| {
                        let totals = Totals {
                            luts: design.luts,
                            ffs: design.ffs,
                            dsps: design.dsps,
                            brams: design.brams,
                        };
                        let total_s = zynq::simulate_program(&design, &sim).total_s;
                        (totals, total_s, probe_of(&design))
                    });
                    *if built.is_some() {
                        &mut fit
                    } else {
                        &mut unfit
                    } += 1;
                    let plm_brams = build.merged.memory.brams;
                    let latency = build.stages.iter().map(|(_, r)| r.latency_cycles).sum();
                    let parts = ScoreParts::of_program(&build);
                    let row = outcome_probed(&parts, &platform, &point, ELEMENTS);
                    let at = format!("{} @ {clock} MHz, {}", platform.id, point.label());
                    assert_row_matches(&row, built, plm_brams, latency, ELEMENTS, &at);
                }
            }
        }
        assert!(fit > 100 && unfit > 10, "{fit} fit, {unfit} do not");
    }

    /// The sweep prices the design compile picks: for every builtin
    /// program × catalog board at the board's default clock, the
    /// [`score`] of compile's pick `(ks, m)` on the slot of the flow's
    /// own backend options is the built design bit for bit — its
    /// totals, its `simulate_program` time and its service probe — and
    /// some pick gives its stages different `k`s (simstep:7 on the
    /// zcu102 picks `k=[32,16,32] m=32`).
    #[test]
    fn score_prices_compiles_own_pick() {
        use cfdlang::examples as ex;
        const ELEMENTS: usize = 2_000;
        let sim = SimConfig {
            elements: ELEMENTS,
            ..SimConfig::default()
        };
        let sources = [
            ex::inverse_helmholtz(4),
            ex::inverse_helmholtz(7),
            ex::inverse_helmholtz(11),
            ex::simulation_step(7),
            ex::simulation_step(11),
            ex::interpolation(8, 12),
            ex::matrix_sandwich(8),
            ex::axpy(8),
            ex::axpy_chain(8),
        ];
        let (mut picks, mut per_stage) = (0, Vec::new());
        for src in &sources {
            for platform in Platform::catalog() {
                let options = ProgramOptions {
                    flow: FlowOptions::for_platform(platform.clone()),
                    ..Default::default()
                };
                let art = crate::program::ProgramFlow::compile(src, &options).unwrap();
                let engine = DseEngine::prepare(src, &options).unwrap();
                let Some(design) = &art.system else {
                    continue;
                };
                let point = DsePoint {
                    k: 1,
                    m: 1,
                    sharing: options.flow.memory.sharing,
                    decoupled: options.flow.decoupled,
                    partition: 1,
                };
                let slot = engine.parts(platform.default_clock_mhz, &point);
                let cfg = &design.config;
                let at = format!("{} on {}: {cfg:?}", engine.label(), platform.id);
                let (totals, round) =
                    score(&slot.parts(), &platform, cfg.ks.iter().copied(), cfg.m)
                        .unwrap_or_else(|| panic!("{at}: compile's pick does not score"));
                assert_eq!(
                    (totals.luts, totals.ffs, totals.dsps, totals.brams),
                    (design.luts, design.ffs, design.dsps, design.brams),
                    "{at}"
                );
                let total_s = round
                    .serial_ticks(cfg.m, ELEMENTS)
                    .map_or(f64::INFINITY, to_secs);
                let simulated = zynq::simulate_program(design, &sim).total_s;
                assert_eq!(total_s.to_bits(), simulated.to_bits(), "{at}");
                let (rps, p99_s) = service_probe(round.ticks(), &cfg.ks, cfg.m);
                let (want_rps, want_p99_s) = probe_of(design);
                assert_eq!(
                    (rps.to_bits(), p99_s.to_bits()),
                    (want_rps.to_bits(), want_p99_s.to_bits()),
                    "{at}"
                );
                picks += 1;
                if cfg.ks.iter().any(|&k| k != cfg.ks[0]) {
                    per_stage.push(at);
                }
            }
        }
        assert!(picks >= 40, "only {picks} picks fit");
        assert!(!per_stage.is_empty(), "every pick is uniform");
    }

    /// A replication that is not `m = 2^j · k` scores as "does not
    /// fit" instead of reaching the round arithmetic.
    #[test]
    fn invalid_replication_scores_as_infeasible() {
        let src = cfdlang::examples::inverse_helmholtz(4);
        let engine = DseEngine::prepare(&src, &FlowOptions::default()).unwrap();
        for (k, m) in [(0, 0), (0, 4), (4, 2), (3, 7)] {
            let point = DsePoint {
                k,
                m,
                sharing: true,
                decoupled: true,
                partition: 1,
            };
            let base = FlowOptions::default();
            let slot = engine.parts(base.hls.clock_mhz, &point);
            let row = outcome_probed(&slot.parts(), &base.platform, &point, 100);
            assert!(
                !row.feasible && row.total_s == 0.0 && row.plm_brams > 0,
                "k={k} m={m}"
            );
        }
    }

    #[test]
    fn a_batch_that_is_no_power_of_two_sweeps_as_infeasible() {
        let grid = DseGrid {
            k: vec![1, 2],
            batch: vec![3],
            ..DseGrid::default()
        };
        assert!(grid.points().iter().all(|p| p.m == 3 * p.k));
        let src = cfdlang::examples::inverse_helmholtz(4);
        let engine = DseEngine::prepare(&src, &FlowOptions::default()).unwrap();
        let report = engine.run_portfolio(&[FlowOptions::default().platform], &grid, 1, 100);
        // Every point at every clock of the board's ladder, none fitting.
        assert!(report.evaluated > 0 && report.evaluated.is_multiple_of(grid.points().len()));
        assert_eq!(report.feasible, 0);
        assert!(report.outcomes.iter().all(|o| !o.outcome.feasible));
    }

    /// Order of the decimal spellings of `a` and `b` as strings
    /// ([`decimal_text_key`]).
    fn cmp_decimal_text(a: u64, b: u64) -> Ordering {
        decimal_text_key(a).cmp(&decimal_text_key(b))
    }

    #[test]
    fn label_order_is_the_string_order_of_the_labels() {
        let mut points = Vec::new();
        for &k in &TRICKY {
            for &m in &TRICKY[..8] {
                for flags in 0..4 {
                    for partition in [1, 2, 10, 12] {
                        points.push(DsePoint {
                            k,
                            m,
                            sharing: flags & 1 == 1,
                            decoupled: flags & 2 == 2,
                            partition,
                        });
                    }
                }
            }
        }
        for a in points.iter().step_by(7) {
            for b in &points {
                assert_eq!(
                    a.cmp_label(b),
                    a.label().cmp(&b.label()),
                    "{} vs {}",
                    a.label(),
                    b.label()
                );
            }
        }
        assert_eq!(
            cmp_decimal_text(u64::MAX, 1),
            u64::MAX.to_string().cmp(&"1".to_string())
        );
        assert_eq!(cmp_decimal_text(10, 2), Ordering::Less);
    }
}
