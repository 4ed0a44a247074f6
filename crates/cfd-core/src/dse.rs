//! Parallel design-space exploration over the staged pipeline.
//!
//! The paper's evaluation is fundamentally a sweep over the replication
//! and memory parameters (k, m, PLM sharing, decoupling, array
//! partitioning). With the monolithic flow each of those design points
//! re-ran the frontend and middle end from source; here a [`DseEngine`]
//! compiles source through [`Pipeline::schedule`] exactly once, builds
//! each backend piece once per the axes it reads, and **scores** the
//! `(k, m)` points against them across a scoped worker pool.
//!
//! There is one engine. A source of any kernel count is prepared as a
//! program ([`DseEngine::prepare`] takes [`FlowOptions`](crate::FlowOptions) or
//! [`ProgramOptions`]), and a single kernel is the one-kernel program.
//! A grid point's backend slot is every kernel's backend plus the merged
//! program memory — except that a one-kernel slot skips the merge: its
//! merged memory and host byte interface are its backend's own
//! (`one_kernel_slot_equals_its_merged_program` pins that), and merging
//! would only cost allocations on the hot path of every single-kernel
//! sweep.
//!
//! **Piece staging.** A slot is not built whole. The paper optimises
//! memory (Mnemosyne) and logic (HLS) separately, and each piece of a
//! backend reads only some of the axes: the kernel IR reads decoupling;
//! the Mnemosyne configuration decoupling and partitioning; the HLS
//! report the IR, the clock and partitioning; the memory (for a
//! program, the `merge_configs` + `synthesize_program` merge, with the
//! host byte interface) the configurations and sharing. So a sweep
//! builds the IR once per (kernel, decoupling), the configuration once
//! per (kernel, decoupling, partition), the HLS report once per
//! (kernel, clock, decoupling, partition) and the memory once per
//! backend key, through the functions [`Pipeline::backend`] composes,
//! and assembles each (clock, backend key) slot from borrowed pieces.
//! `portfolio_rows_equal_the_per_slot_definition` holds every row to
//! the slot built whole. The counters keep their meaning: every
//! (kernel, slot) pair counts one backend-stage invocation and one
//! `backend_compiles`, and every scored point one system-stage
//! invocation.
//!
//! [`DseEngine::run_portfolio`] crosses the grid with a **platform
//! catalog and each platform's fabric-clock ladder**: slots are shared
//! per (clock, backend options), every combination is costed under its
//! platform's Eq. (3) budget, and the [`PortfolioReport`] marks each
//! platform's Pareto frontier over (simulated time, resource fit) — the
//! heterogeneous-portfolio view: pick the node that fits the job. A
//! sweep on one board at one clock — what `cfdc explore --grid` prints —
//! is the portfolio of a one-platform catalog whose ladder is that one
//! clock.
//!
//! **Rows.** A sweep row holds its point, score, platform id, clock and
//! flags, never a string all rows share: the kernel names are the
//! report's `label`, a board's display name is its
//! [`PlatformSummary`]'s, and its id is the catalog's `&'static str`.
//! A row pays for Eq. (3) and its priced round, allocates nothing and
//! reads no clock: the round is priced once, by the one round price
//! ([`RoundPricer`]) into three tick sums ([`RoundTicks`]), not
//! collected per stage.
//!
//! **Probes.** The service probe reads only a round's input, summed
//! execution and output ticks, `k` and `m` (its key). A sweep scores
//! every combination first, then builds the rows in order and numbers
//! the distinct keys of the rows that fit as it goes — from the rounds
//! the scores priced, in a table hashed by multiply and rotate — probes
//! each key once through [`fan_out`] and copies the figures back: the
//! dense 4 488-point helmholtz:11 portfolio probes 359 keys for its
//! 3 206 rows that fit. Workers share no map and take no lock, and the
//! figures do not depend on `jobs`.
//!
//! **Ranking.** A portfolio is ranked by one sort of compact integer
//! keys, over the rows that fit only: (simulated time, fit) as
//! `total_cmp`-ordered bits, then the row's place in the tie order —
//! platform id, clock, label, row index. The sweep lays its rows out in
//! blocks of one (platform, clock) by grid point, so that order comes
//! from sorting the blocks and the points once each, never the rows; the
//! rows that do not fit all score 0 and follow in it unsorted. The rows
//! then move once, along the permutation's cycles. Each platform's
//! latency frontier is read off the ranked order in one pass. The
//! service and cost frontiers are swept over candidates, not rows: rows
//! that share a probe key share (requests/s, p99), so of them only the
//! least-fit one (per platform) can be on the service frontier and only
//! the one with the most requests/s per kLUT — the fewest LUTs — on the
//! cost frontier; the dense portfolio has at most 360 such groups for
//! its 3 206 rows that fit. `rank_portfolio_equals_the_sorted_quadratic_definition`
//! holds the order, the three frontiers and the summaries to a stable
//! sort by the full comparator and the quadratic Pareto definition.
//!
//! **Document.** Ranked rows come in runs: rows that tie on (simulated
//! time, fit) follow each other in the (platform, clock, label) tie
//! order, and rows of one round share its figures. So an outcome row
//! mostly prints the previous row's text up to `"k"` (same platform
//! and clock: 4 133 of the dense portfolio's 4 488 rows) and its
//! `"total_s"` … `"service_p99_s"` span (same four figures: 3 882
//! rows). The one row definition keys those two segments — platform id
//! and clock bits; the four figures' bits, since `-0.0` and `0.0`
//! compare equal but print apart — and where the previous row's key is
//! the same it appends that row's segment again ([`json::Sink::repeat`]):
//! a copy out of the document on a `Line`, the segment's width on the
//! `Width` that sizes the reservation, which so stays the sum of the
//! full rows' widths. Nothing outlives the call.
//! `portfolio_json_equals_the_format_reference` holds the document to
//! the `format!`-per-row emitter it replaced.
//!
//! **Invariant: a sweep row equals what `cfdc compile` + `cfdc
//! simulate` + `cfdc serve` would report for that design.** A point is
//! never built — no `SystemDesign`, host program or host source, and a
//! backend slot emits no kernel C text
//! ([`Backend`](crate::pipeline::Backend) carries none) — but
//! its feasibility and totals come from `sysgen::Totals::fit`, the
//! function `SystemDesign::build` and `MultiSystemDesign::build` decide
//! with; its simulated time from the one round price,
//! [`zynq::RoundPricer`], with which `simulate_hw`, `simulate_program`
//! and `program_round` price their rounds and the replication search
//! (`sysgen::best_program_config`) its candidates (the serial total is
//! a checked product: a row past the `u64` clock reads infinite, and
//! the report counts it in `ticks_overflows`); and its service figures
//! from the stream
//! scheduler's clean fold on a round of those ticks, reporting to a
//! summary sink that keeps two numbers
//! ([`zynq::summarize_round_stream`]).
//! `score` takes one `k_i` per stage, as the search does; a grid row
//! is uniform, `point.k` for every stage.
//! `score_equals_build_simulate_and_probe` holds the invariant bit for
//! bit over every catalog platform, ladder clock and point of a
//! kernel's and a program's sweeps, infeasible rows included;
//! `score_prices_compiles_own_pick` holds the score of compile's own
//! per-stage pick to its built design on every builtin × catalog
//! board; and `portfolio_rows_equal_the_per_slot_definition` holds
//! every row's shared probe to a probe of its own round.
//!
//! ```
//! use cfd_core::dse::{DseEngine, DseGrid};
//! use cfd_core::FlowOptions;
//! use sysgen::Platform;
//!
//! let src = cfdlang::examples::inverse_helmholtz(4);
//! let opts = FlowOptions::default();
//! let engine = DseEngine::prepare(&src, &opts).unwrap();
//! let grid = DseGrid {
//!     k: vec![1, 2],
//!     batch: vec![1],
//!     sharing: vec![true],
//!     decoupled: vec![true, false],
//!     partition: vec![1],
//! };
//! // The base board at its one clock.
//! let board = Platform {
//!     clock_ladder_mhz: vec![opts.hls.clock_mhz],
//!     ..opts.platform.clone()
//! };
//! let report = engine.run_portfolio(&[board], &grid, 2, 1_000);
//! assert_eq!(report.outcomes.len(), 4);
//! // The shared stages ran once, regardless of grid size or jobs.
//! assert_eq!(engine.pipeline().counters().frontend, 1);
//! assert_eq!(engine.pipeline().counters().middle_end, 1);
//! ```

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt::{self, Write};
use std::hash::{BuildHasherDefault, Hasher};
use std::iter::repeat_n;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use hls::HlsOptions;
use mnemosyne::MemorySubsystem;
use runtime::json::{self, row_end, Line, Sink};
use sysgen::{Platform, RoundCost, RoundTicks, SystemConfig, Totals};
use teil::TensorKind;
use zynq::des::to_secs;
use zynq::{fan_out, resolve_jobs, RoundPricer, SimConfig};

use crate::cache::{CacheCounters, CompileCache};
use crate::pipeline::{Pipeline, Scheduled};
use crate::program::{MergedMemory, ProgramOptions};
use crate::FlowError;

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
    fn label_key(&self) -> (u128, u128, bool, bool, u128) {
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
    fn backend_key(&self) -> (bool, bool, u32) {
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
/// every generated point satisfies the paper's power-of-two batching
/// constraint by construction.
#[derive(Debug, Clone)]
pub struct DseGrid {
    pub k: Vec<usize>,
    /// Batch factors (executions per accelerator per round); powers of
    /// two.
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
                assert!(
                    batch.is_power_of_two(),
                    "batch factors must be powers of two"
                );
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

/// One design point and its score; its kernels are the report's [`PortfolioReport::label`].
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
/// scheduler's clean fold reports to a summary that keeps only the
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
fn service_probe(ticks: (u64, u64, u64), ks: &[usize], m: usize) -> (f64, f64) {
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
struct ProbeKey {
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
    fn of(round: &RoundTicks, k: usize, m: usize) -> Option<ProbeKey> {
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
    fn probe(&self) -> (f64, f64) {
        service_probe((self.t_in, self.exec, self.t_out), &[self.k], self.m)
    }
}

/// The hasher of the sweep's probe-key table: a multiply-rotate fold
/// of the key's five integers. The keys come from the sweep itself, so
/// SipHash's resistance to chosen keys buys nothing, and it cost more
/// than the lookup.
#[derive(Default)]
struct KeyHasher(u64);

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

/// Allowance for a portfolio report's header: about 1 KB of literals
/// and up to 30 numbers.
const HEADER_BYTES: usize = 2_048;

/// Everything of a design point that does not depend on `(k, m)`: one
/// backend slot's per-stage HLS reports, its memory subsystem and
/// external byte interface, borrowed from the pieces they were built as.
/// A single kernel is a one-stage program (what
/// `MultiSystemDesign::from_single` asserts), so kernels and programs
/// score through the same parts.
struct ScoreParts<'a> {
    stages: Vec<&'a hls::HlsReport>,
    memory: &'a MemorySubsystem,
    bytes_in_per_element: usize,
    bytes_out_per_element: usize,
}

impl<'a> ScoreParts<'a> {
    fn new(
        stages: Vec<&'a hls::HlsReport>,
        memory: &'a MemorySubsystem,
        bytes: (usize, usize),
    ) -> Self {
        ScoreParts {
            stages,
            memory,
            bytes_in_per_element: bytes.0,
            bytes_out_per_element: bytes.1,
        }
    }
}

/// The memory piece of one backend key: the PLM subsystem of one set
/// and the host's external `(in, out)` bytes per element. A program's
/// is its [`MergedMemory`] without the plan; a one-kernel program's is
/// its kernel's own subsystem and interface, which is what the merge
/// would give (`one_kernel_slot_equals_its_merged_program`), so it
/// skips the merge.
struct KeyMemory {
    memory: MemorySubsystem,
    bytes: (usize, usize),
}

/// The backend pieces of a sweep over `clocks` × backend keys, each
/// built once per the axes it reads: an HLS report per (kernel, clock,
/// decoupling, partition) and a memory per backend key. The kernel IR
/// and Mnemosyne configurations they were built from are dropped
/// before any point is scored.
struct Pieces {
    /// Kernel `i`'s report at clock `c` under pair `dp`: entry
    /// `(i * clocks + c) * pairs + dp`.
    hls: Vec<hls::HlsReport>,
    clocks: usize,
    /// Distinct (decoupled, partition) pairs among the keys.
    pairs: usize,
    /// Pair of each backend key.
    pair_of: Vec<usize>,
    /// One per backend key.
    memories: Vec<KeyMemory>,
}

impl Pieces {
    /// The parts of slot (`clock`, `key`): every kernel's report at the
    /// clock under the key's pair, and the key's memory.
    fn parts(&self, clock: usize, key: usize) -> ScoreParts<'_> {
        let kernels = self.hls.len() / (self.clocks * self.pairs);
        let at = |i: usize| &self.hls[(i * self.clocks + clock) * self.pairs + self.pair_of[key]];
        let memory = &self.memories[key];
        ScoreParts::new((0..kernels).map(at).collect(), &memory.memory, memory.bytes)
    }
}

/// Score `ks` accelerators per stage (one `k_i` per stage, in chain
/// order) over `m` PLM sets of `parts` on `platform` without building
/// the design: `None` when Eq. (3) rejects it (or some `(k_i, m)` is
/// not a valid replication), else the totals and the priced round. It
/// makes the calls the replication search makes
/// (`sysgen::best_program_config`), on the same `(k_i, report)` banks:
/// [`Totals::fit`], which the system builders decide with, and the one
/// round price, [`RoundPricer`], which the simulators price with.
fn score(
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
        bytes_in_per_element: parts.bytes_in_per_element,
        bytes_out_per_element: parts.bytes_out_per_element,
    };
    Some((totals, cost.round(banks, m)))
}

/// The sweep row of `point` on `parts` given its [`score`]: zeros when
/// it does not fit, else the totals and the simulated time for
/// `elements` elements. The service figures stay 0: the sweep fills
/// them in from its probes.
fn outcome(
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

/// Name of `module`'s largest input array: the target of the grid's
/// `partition` axis.
fn partition_target(module: &teil::Module) -> Option<String> {
    module
        .of_kind(TensorKind::Input)
        .into_iter()
        .max_by_key(|&id| module.shape(id).iter().product::<usize>())
        .map(|id| module.name(id).to_string())
}

/// The exploration engine. Every kernel's shared stages (frontend,
/// middle end, schedule) and the cross-kernel link stage run once at
/// [`DseEngine::prepare`]; one grid point then fixes the backend axes
/// (sharing, decoupling, partitioning) for *every* kernel plus a
/// uniform replication `k`/`m`, and the whole chain is costed under the
/// shared board budget. Backend pieces are built once per the axes they
/// read (the module doc's piece staging). A single kernel is the
/// one-kernel program.
#[derive(Debug)]
pub struct DseEngine {
    pipeline: Pipeline,
    base: ProgramOptions,
    names: Vec<String>,
    scheds: Vec<Scheduled>,
    cross: Arc<pschedule::CrossLiveness>,
    /// Largest input array per kernel (the `partition` axis target).
    partition_targets: Vec<Option<String>>,
    /// Kernel IRs, Mnemosyne configurations, HLS reports and memories
    /// the engine's sweeps built: what the piece tests count. The
    /// reports count (kernel, slot) pairs instead.
    built: [AtomicUsize; 4],
}

/// [`DseEngine`] under its multi-kernel name, for callers that still
/// use it.
pub type ProgramDseEngine = DseEngine;

impl DseEngine {
    /// Compile every kernel's shared stages plus the link stage once.
    /// `base` — [`FlowOptions`](crate::FlowOptions) or [`ProgramOptions`] — supplies
    /// everything the grid does not vary: scheduler and
    /// canonicalization options, board, HLS clock, cross-kernel sharing.
    pub fn prepare<O: Clone + Into<ProgramOptions>>(
        source: &str,
        base: &O,
    ) -> Result<DseEngine, FlowError> {
        DseEngine::prepare_on(Pipeline::new(), source, base.clone().into())
    }

    /// Like [`DseEngine::prepare`], with every kernel's shared stages
    /// memoized through a [`CompileCache`] — a warm cache skips the
    /// scheduling stage entirely, so repeated explorations of unchanged
    /// source pay only frontend + middle end.
    pub fn prepare_cached<O: Clone + Into<ProgramOptions>>(
        source: &str,
        base: &O,
        cache: Arc<CompileCache>,
    ) -> Result<DseEngine, FlowError> {
        DseEngine::prepare_on(Pipeline::with_cache(cache), source, base.clone().into())
    }

    fn prepare_on(
        pipeline: Pipeline,
        source: &str,
        base: ProgramOptions,
    ) -> Result<DseEngine, FlowError> {
        let fronts = pipeline.program_frontend(source)?;
        let names: Vec<String> = fronts.iter().map(|(n, _)| n.clone()).collect();
        let jobs = resolve_jobs(base.flow.jobs);
        // `flow.system` reaches neither the middle end nor the schedule.
        let (scheds, link) = pipeline.schedule_program(&names, &fronts, &base.flow, jobs)?;
        Ok(DseEngine {
            pipeline,
            base,
            names,
            partition_targets: scheds
                .iter()
                .map(|sc| partition_target(&sc.middle.module))
                .collect(),
            scheds,
            cross: link.cross,
            built: Default::default(),
        })
    }

    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Kernel names in execution order.
    pub fn kernel_names(&self) -> &[String] {
        &self.names
    }

    /// The label of this engine's sweep reports
    /// ([`PortfolioReport::label`]): the kernel names joined by `+`.
    pub fn label(&self) -> String {
        self.names.join("+")
    }

    /// The first kernel's shared scheduling-stage output (a single
    /// kernel's only one).
    pub fn scheduled(&self) -> &Scheduled {
        &self.scheds[0]
    }

    /// Kernel `i`'s HLS options at `clock_mhz` under the `partition`
    /// axis: a factor > 1 partitions the kernel's largest input array
    /// and overrides the base partition set; factor 1 means "as the base
    /// options say", so any base partitioning is left untouched.
    fn hls_at(&self, i: usize, clock_mhz: f64, partition: u32) -> HlsOptions {
        let mut hls = self.base.flow.hls.clone();
        hls.clock_mhz = clock_mhz;
        if partition > 1 {
            if let Some(name) = &self.partition_targets[i] {
                hls.partition = vec![(name.clone(), partition)];
            }
        }
        hls
    }

    /// The backend pieces of `clocks` × the backend keys `reps`, each
    /// computed by [`fan_out`] once per the axes it reads: the kernel
    /// IR per (kernel, decoupling), the Mnemosyne configuration per
    /// (kernel, decoupling, partition), the HLS report per (kernel,
    /// clock, decoupling, partition) and the memory per backend key —
    /// through the functions [`Pipeline::backend`] composes and the
    /// merge `ProgramBuild::prepare` makes.
    fn pieces(&self, clocks: &[f64], reps: &[DsePoint], jobs: usize) -> Pieces {
        let n = self.scheds.len();
        let mut pairs: Vec<(bool, u32)> = Vec::new();
        let pair_of: Vec<usize> = (reps.iter())
            .map(|r| (r.decoupled, r.partition))
            .map(|pair| index_of(&mut pairs, |&p| p == pair, pair))
            .collect();
        let mut decs: Vec<bool> = Vec::new();
        let dec_of: Vec<usize> = (pairs.iter())
            .map(|&(d, _)| index_of(&mut decs, |&x| x == d, d))
            .collect();
        let (np, nc) = (pairs.len(), clocks.len());
        let kernels = fan_out(jobs, n * decs.len(), |j| {
            self.scheds[j / decs.len()].kernel_ir(decs[j % decs.len()])
        });
        let kernel = |i: usize, pair: usize| &kernels[i * decs.len() + dec_of[pair]];
        let configs = fan_out(jobs, n * np, |j| {
            let (i, (decoupled, partition)) = (j / np, pairs[j % np]);
            let hls = self.hls_at(i, self.base.flow.hls.clock_mhz, partition);
            self.scheds[i].memory_config(decoupled, &hls)
        });
        let hls = fan_out(jobs, n * nc * np, |j| {
            let (i, clock, pair) = (j / (nc * np), j / np % nc, j % np);
            hls::synthesize(
                kernel(i, pair),
                &self.hls_at(i, clocks[clock], pairs[pair].1),
            )
        });
        let memories = fan_out(jobs, reps.len(), |key| {
            let pair = pair_of[key];
            let opts = mnemosyne::MemoryOptions {
                sharing: reps[key].sharing,
            };
            if n == 1 {
                let memory = mnemosyne::synthesize(&configs[pair], &opts);
                let bytes = sysgen::HostProgram::interface_bytes([kernel(0, pair)], |_, _| true);
                return KeyMemory { memory, bytes };
            }
            let configs: Vec<_> = (0..n).map(|i| &configs[i * np + pair]).collect();
            let kernels = (0..n).map(|i| kernel(i, pair));
            let cross_sharing = self.base.cross_sharing && reps[key].sharing;
            let merged = MergedMemory::merge(&self.cross, &configs, kernels, &opts, cross_sharing);
            KeyMemory {
                memory: merged.memory,
                bytes: (merged.bytes_in_per_element, merged.bytes_out_per_element),
            }
        });
        let counts = [kernels.len(), configs.len(), hls.len(), memories.len()];
        for (built, n) in self.built.iter().zip(counts) {
            built.fetch_add(n, Relaxed);
        }
        Pieces {
            hls,
            clocks: nc,
            pairs: np,
            pair_of,
            memories,
        }
    }

    /// The sweep driver: cross every platform's clock ladder with the
    /// grid, assemble each distinct (clock, backend key) slot once from
    /// the sweep's [`DseEngine::pieces`] — a slot is shared across
    /// platforms and `k`/`m` — and [`score`] every combination against
    /// its slot. Then build the unflagged
    /// rows in combination order, number the distinct [`ProbeKey`]s of
    /// the rows that fit as they come (the scores carry the priced
    /// rounds), probe each key once and give every such row its key's
    /// service figures. Pieces, scores and probes are computed by
    /// [`fan_out`] and the keys are numbered in row order, so the result
    /// is independent of `jobs`. Every (kernel, slot) pair counts one
    /// backend-stage invocation and every scored point one system-stage
    /// invocation.
    fn sweep(&self, platforms: &[Platform], grid: &DseGrid, jobs: usize, elements: usize) -> Swept {
        let points = grid.points();
        // The grid's distinct backend keys, each by the first point that
        // has it, and the distinct clocks; slot (clock, key) is
        // `clock * reps.len() + key`.
        let mut reps: Vec<DsePoint> = Vec::new();
        let key_of: Vec<usize> = points
            .iter()
            .map(|p| index_of(&mut reps, |r| r.backend_key() == p.backend_key(), *p))
            .collect();
        let mut clocks: Vec<f64> = Vec::new();
        let mut clock_of: Vec<usize> = Vec::new();
        let mut blocks: Vec<(usize, f64)> = Vec::new();
        for (platform, p) in platforms.iter().enumerate() {
            for &mhz in &p.clock_ladder_mhz {
                clock_of.push(index_of(&mut clocks, |c| c.to_bits() == mhz.to_bits(), mhz));
                blocks.push((platform, mhz));
            }
        }
        let combos = blocks.len() * points.len();
        let jobs = resolve_jobs(jobs).min(combos.max(1));
        let started = Instant::now();

        let pieces = self.pieces(&clocks, &reps, jobs);
        let slots: Vec<ScoreParts> = (0..clocks.len() * reps.len())
            .map(|slot| pieces.parts(slot / reps.len(), slot % reps.len()))
            .collect();

        // Combination `i`: its platform, clock, slot and point.
        let combo = |i: usize| {
            let block = i / points.len();
            let (platform, mhz) = blocks[block];
            let point = i % points.len();
            let parts = &slots[clock_of[block] * reps.len() + key_of[point]];
            (&platforms[platform], mhz, parts, &points[point])
        };
        let scores = fan_out(jobs, combos, |i| {
            let (platform, _, parts, point) = combo(i);
            // A grid row is uniform: `point.k` for every stage.
            let ks = repeat_n(point.k, parts.stages.len());
            score(parts, platform, ks, point.m)
        });

        // Row `i` reads probe `probe_of[i]`, none when it does not fit.
        let mut numbers: HashMap<ProbeKey, u32, BuildHasherDefault<KeyHasher>> = HashMap::default();
        let mut probe_of: Vec<u32> = Vec::with_capacity(combos);
        let mut rows: Vec<PortfolioOutcome> = (scores.into_iter().enumerate())
            .map(|(i, scored)| {
                let (platform, mhz, parts, point) = combo(i);
                let key = scored.and_then(|(_, round)| ProbeKey::of(&round, point.k, point.m));
                probe_of.push(key.map_or(UNPROBED, |key| {
                    let next = u32::try_from(numbers.len()).expect("fewer probe keys than rows");
                    *numbers.entry(key).or_insert(next)
                }));
                PortfolioOutcome::of(platform, mhz, outcome(parts, point, scored, elements))
            })
            .collect();
        // The keys in number order, in one allocation of their size.
        let mut keys = vec![ProbeKey::default(); numbers.len()];
        for (key, j) in numbers {
            keys[j as usize] = key;
        }
        let probes = fan_out(jobs, keys.len(), |j| keys[j].probe());
        for (row, &j) in rows.iter_mut().zip(&probe_of) {
            if let Some(&(rps, p99_s)) = probes.get(j as usize) {
                (row.outcome.service_rps, row.outcome.service_p99_s) = (rps, p99_s);
            }
        }

        let backend_compiles = slots.len() * self.scheds.len();
        self.pipeline.count_backends(backend_compiles);
        self.pipeline.count_systems(combos);
        Swept {
            rows,
            layout: Layout { blocks, points },
            probe_of,
            jobs,
            backend_compiles,
            backend_uses: combos * self.scheds.len(),
            started,
        }
    }

    /// Sweep the **platform × clock × (k, m, sharing, decoupling,
    /// partition)** cross product: the multi-board portfolio view, every
    /// platform's clock ladder crossed with the grid, Pareto-flagged per
    /// platform and ranked. The shared stages stay compiled once (from
    /// [`DseEngine::prepare`]); a backend slot is one **(kernel, clock,
    /// backend key)** — a slot at 200 MHz is shared by every platform
    /// whose ladder contains 200 MHz and every `k`/`m` — and its pieces
    /// are shared further: the kernel IR, Mnemosyne configuration and
    /// memory across clocks, the HLS report across sharing. So the
    /// default 32-point grid on one board at one clock has 4 slots, counted as 4
    /// `backend_compiles` per kernel, but builds per kernel 2 kernel
    /// IRs, 2 Mnemosyne configurations and 2 HLS reports, and 4
    /// memories in all.
    pub fn run_portfolio(
        &self,
        platforms: &[Platform],
        grid: &DseGrid,
        jobs: usize,
        elements: usize,
    ) -> PortfolioReport {
        let mut swept = self.sweep(platforms, grid, jobs, elements);
        let summaries = rank_portfolio(platforms, &mut swept.rows, &swept.layout, &swept.probe_of);
        let outcomes = swept.rows;
        PortfolioReport {
            label: self.label(),
            evaluated: outcomes.len(),
            feasible: summaries.iter().map(|s| s.feasible).sum(),
            jobs: swept.jobs,
            elements,
            wall_s: swept.started.elapsed().as_secs_f64(),
            backend_compiles: swept.backend_compiles,
            backend_reuses: swept.backend_uses.saturating_sub(swept.backend_compiles),
            cache: self.pipeline.cache_counters(),
            summaries,
            ticks_overflows: (outcomes.iter())
                .filter(|o| o.outcome.total_s == f64::INFINITY)
                .count(),
            outcomes,
        }
    }
}

/// `probe_of` entry of a row that does not fit.
const UNPROBED: u32 = u32::MAX;

/// What [`DseEngine::sweep`] hands the report builder.
struct Swept {
    /// Row `i` is combination `i`'s, laid out as `layout` says.
    rows: Vec<PortfolioOutcome>,
    layout: Layout,
    /// Row `i`'s probe number in row order; [`UNPROBED`] when it does
    /// not fit or no probe can place it.
    probe_of: Vec<u32>,
    jobs: usize,
    backend_compiles: usize,
    backend_uses: usize,
    started: Instant,
}

/// How a sweep lays out its rows: one block per (platform, ladder clock),
/// platform by platform, each holding one row per grid point — row
/// `b * points.len() + q` is point `q` in block `b`.
struct Layout {
    /// Platform index and clock (MHz) of each block.
    blocks: Vec<(usize, f64)>,
    points: Vec<DsePoint>,
}

/// Index of the element of `seen` that `same` accepts, `new` being
/// appended when there is none.
fn index_of<T>(seen: &mut Vec<T>, same: impl Fn(&T) -> bool, new: T) -> usize {
    seen.iter().position(same).unwrap_or_else(|| {
        seen.push(new);
        seen.len() - 1
    })
}

/// One platform × clock × grid-point outcome of a portfolio sweep.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// Catalog id of the platform (`zcu106`, `pynq-z2`, ...).
    pub platform: &'static str,
    /// Fabric clock the kernel was synthesized at (from the platform's
    /// achievable ladder).
    pub clock_mhz: f64,
    pub outcome: DseOutcome,
    /// Largest resource-utilization fraction across LUT/FF/DSP/BRAM —
    /// the "fit" axis of the Pareto frontier (0 when infeasible).
    pub utilization: f64,
    /// Whether this point sits on its platform's Pareto frontier of
    /// (simulated time, utilization). The portfolio frontier is the
    /// union over platforms — pick the node that fits the job.
    pub pareto: bool,
    /// Whether this point sits on its platform's **service** Pareto
    /// frontier — maximize requests/sec against minimizing p99 latency
    /// and utilization (the throughput objective: pick the node that
    /// serves the most traffic per resource).
    pub service_pareto: bool,
    /// Whether this point sits on the portfolio's **cost-efficiency**
    /// frontier ([`PortfolioReport::cost_frontier`]).
    pub cost_pareto: bool,
}

/// Per-platform feasibility summary of a portfolio sweep.
#[derive(Debug, Clone)]
pub struct PlatformSummary {
    pub platform: &'static str,
    pub board: String,
    /// Grid × clock combinations evaluated on this platform.
    pub evaluated: usize,
    pub feasible: usize,
    /// Points on the platform's time-vs-fit Pareto frontier.
    pub pareto_points: usize,
    /// Best simulated end-to-end time (`None` when nothing fits).
    pub best_total_s: Option<f64>,
}

/// Ranked results of a platform × clock × (k, m) portfolio sweep.
#[derive(Debug, Clone)]
pub struct PortfolioReport {
    /// The kernel names every row ran on, joined by `+`
    /// ([`DseEngine::label`]): each JSON row's `"kernel"`.
    pub label: String,
    /// Outcomes ranked feasible-first, then by simulated time.
    pub outcomes: Vec<PortfolioOutcome>,
    pub summaries: Vec<PlatformSummary>,
    pub evaluated: usize,
    pub feasible: usize,
    pub jobs: usize,
    pub elements: usize,
    pub wall_s: f64,
    /// Backend slots of the sweep, one per (kernel, clock, distinct
    /// backend key): what compiling each slot whole would cost. The
    /// engine builds fewer pieces than that (see the module doc's piece
    /// staging); the count is the slots, not the pieces.
    pub backend_compiles: usize,
    /// (Kernel, combination) evaluations beyond the first of each
    /// slot.
    pub backend_reuses: usize,
    /// Compile-cache counters (all zero for an uncached engine).
    pub cache: CacheCounters,
    /// Rows whose simulated time ran past the simulator's `u64` clock
    /// (their `total_s` is infinite). Not printed: `cfdc explore`
    /// refuses to print a report with any.
    pub ticks_overflows: usize,
}

/// Pareto flags over `N` minimized objectives (callers negate the
/// maximized ones) for the feasible subset; infeasible entries are
/// never on the frontier, and of several points with *identical*
/// objectives only the first stays (ties would otherwise all survive
/// and clutter the frontier).
///
/// Sort-and-sweep: whatever dominates a point — better somewhere and
/// nowhere worse, or identical and earlier — sorts before it
/// lexicographically, the entry index breaking ties among identical
/// points, and whatever is dominated is dominated by a frontier point.
/// So walk the points in that order and keep each one that no frontier
/// point found so far is `<=` in every objective. The sort moves
/// (objectives, index) pairs, so it never looks an entry up.
/// `pareto_flags_reference` in the tests is the quadratic definition.
fn pareto_flags<const N: usize>(
    objectives: impl ExactSizeIterator<Item = Option<[f64; N]>>,
) -> Vec<bool> {
    let mut flags = vec![false; objectives.len()];
    let mut points = Vec::with_capacity(objectives.len());
    for (i, o) in objectives.enumerate() {
        // `+ 0.0` folds -0.0 into 0.0, which `<=` already treats as equal.
        points.extend(o.map(|p| (p.map(|x| x + 0.0), i)));
    }
    points.sort_unstable_by(|(a, i), (b, j)| {
        let mut by_axis = a.iter().zip(b).map(|(x, y)| x.total_cmp(y));
        (by_axis.find(|o| o.is_ne()))
            .unwrap_or(Ordering::Equal)
            .then(i.cmp(j))
    });
    let mut frontier: Vec<[f64; N]> = Vec::new();
    for (p, i) in points {
        if !frontier
            .iter()
            .any(|f| f.iter().zip(&p).all(|(f, p)| f <= p))
        {
            flags[i] = true;
            frontier.push(p);
        }
    }
    flags
}

/// `best`-table entry of a group with no row yet.
const NONE: u32 = u32::MAX;

/// Rank a portfolio's rows and flag its three frontiers, in place;
/// return each platform's summary. The rows come as `layout` lays them
/// out, `probe_of` numbering their service probes.
///
/// **Rank.** The rows end in [`rank_order`]: feasible first, then by
/// simulated time, fit, platform id, clock and label, a full tie kept
/// in row order — `portfolio_order` under a stable sort.
///
/// **Frontiers.** Each platform's latency frontier over (time, fit) is
/// read off the ranked order in one pass: a platform's rows come by
/// time, so a row is on it when it is the least-fit row of its time —
/// the first of equals in row order — and fits better than every row
/// of an earlier time. Rows that share a probe share their (requests/s,
/// p99), and a row's requests/s per kLUT only falls as its LUTs grow,
/// so only the least-fit row of each (platform, probe) can be on that
/// platform's service frontier and only the best-per-kLUT row of each
/// probe on the cost frontier: [`pareto_flags`] sweeps those
/// candidates, some hundreds, not the thousands of rows. A NaN, which
/// neither dominates nor is dominated, makes its row a candidate of its
/// own. The flags equal [`pareto_flags`] over every row of a platform
/// (latency and service; of identical rows the first in row order
/// stays) and over all ranked rows (cost; the first in rank stays).
fn rank_portfolio(
    platforms: &[Platform],
    rows: &mut [PortfolioOutcome],
    layout: &Layout,
    probe_of: &[u32],
) -> Vec<PlatformSummary> {
    let points = layout.points.len();
    let platform_of = |row: usize| layout.blocks[row / points].0;
    // Probe groups: one per probe, and one more for the rows that fit
    // unprobed (all at 0 requests/s and p99).
    let probed = probe_of.iter().filter(|&&j| j != UNPROBED).max();
    let unprobed = probed.map_or(0, |&j| j as usize + 1);
    let group = |row: usize| match probe_of[row] {
        UNPROBED => unprobed,
        j => j as usize,
    };
    flag_service(rows, layout, platforms.len(), group, unprobed + 1);
    let order = rank_order(rows, tie_order(platforms, layout));

    let mut summaries: Vec<PlatformSummary> = (platforms.iter())
        .map(|p| PlatformSummary {
            platform: p.id,
            board: p.board.name.clone(),
            evaluated: 0,
            feasible: 0,
            pareto_points: 0,
            best_total_s: None,
        })
        .collect();
    for &(p, _) in &layout.blocks {
        summaries[p].evaluated += points;
    }
    // Per platform: the least fit of its earlier times (NaN before the
    // first) and its open time's (time, least fit, that row).
    let mut reached = vec![f64::NAN; platforms.len()];
    let mut open: Vec<Option<(f64, f64, usize)>> = vec![None; platforms.len()];
    // Per probe group: the ranked position of the best-per-kLUT row and
    // its figure.
    let mut cost_best: Vec<(u32, f64)> = vec![(NONE, 0.0); unprobed + 1];
    let mut cost_candidates: Vec<u32> = Vec::new();
    for (at, &row) in order.iter().enumerate() {
        let row = row as usize;
        let o = &rows[row];
        if !o.outcome.feasible {
            break; // the rest do not fit either
        }
        let (p, g) = (platform_of(row), group(row));
        let (time, fit) = (o.outcome.total_s, o.utilization);
        let (luts, rps, per_kluts) = (o.outcome.luts, o.outcome.service_rps, o.rps_per_kluts());
        let summary = &mut summaries[p];
        summary.feasible += 1;
        summary.best_total_s.get_or_insert(time);
        if time.is_nan() || fit.is_nan() {
            rows[row].pareto = true;
            summary.pareto_points += 1;
        } else {
            match &mut open[p] {
                Some(run) if run.0 == time => {
                    if fit < run.1 || (fit == run.1 && row < run.2) {
                        (run.1, run.2) = (fit, row);
                    }
                }
                run => {
                    if let Some(closed) = run.replace((time, fit, row)) {
                        close_time(rows, &mut summaries[p], &mut reached[p], closed);
                    }
                }
            }
        }
        if luts > 0 && rps.is_nan() {
            cost_candidates.push(at as u32);
        } else if luts > 0 {
            let best = &mut cost_best[g];
            if best.0 == NONE || per_kluts > best.1 {
                *best = (at as u32, per_kluts);
            }
        }
    }
    for (p, run) in open.into_iter().enumerate() {
        if let Some(run) = run {
            close_time(rows, &mut summaries[p], &mut reached[p], run);
        }
    }
    cost_candidates.extend(cost_best.iter().filter(|b| b.0 != NONE).map(|b| b.0));
    cost_candidates.sort_unstable();
    let cost = cost_candidates.iter().map(|&at| {
        let o = &rows[order[at as usize] as usize];
        Some([-o.outcome.service_rps, -o.rps_per_kluts()])
    });
    for (&at, flag) in cost_candidates.iter().zip(pareto_flags(cost)) {
        rows[order[at as usize] as usize].cost_pareto = flag;
    }
    permute(rows, order);
    summaries
}

/// Close a platform's time `(time, least fit, its row)` on the latency
/// frontier: the row is on it unless an earlier time `reached` a fit as
/// good.
fn close_time(
    rows: &mut [PortfolioOutcome],
    summary: &mut PlatformSummary,
    reached: &mut f64,
    (_, fit, row): (f64, f64, usize),
) {
    let dominated = *reached <= fit;
    if !dominated {
        rows[row].pareto = true;
        summary.pareto_points += 1;
    }
    *reached = reached.min(fit);
}

/// Flag each platform's service frontier over (requests/s ↑, p99 ↓,
/// fit ↓): [`pareto_flags`] over the platform's candidates in row
/// order — of the rows that fit in each probe group (`group(row)` <
/// `groups`), the least-fit one, the first of equals; and every row
/// with a NaN objective.
fn flag_service(
    rows: &mut [PortfolioOutcome],
    layout: &Layout,
    platforms: usize,
    group: impl Fn(usize) -> usize,
    groups: usize,
) {
    let view = |o: &PortfolioOutcome| {
        [
            -o.outcome.service_rps,
            o.outcome.service_p99_s,
            o.utilization,
        ]
    };
    let points = layout.points.len();
    let mut best = vec![NONE; groups];
    let mut candidates: Vec<usize> = Vec::new();
    let mut start = 0;
    for p in 0..platforms {
        let blocks = layout.blocks.iter().filter(|b| b.0 == p).count();
        let end = start + blocks * points;
        for row in start..end {
            let o = &rows[row];
            if !o.outcome.feasible {
                continue;
            }
            if view(o).iter().any(|x| x.is_nan()) {
                candidates.push(row);
                continue;
            }
            let best = &mut best[group(row)];
            if *best == NONE || o.utilization < rows[*best as usize].utilization {
                *best = row as u32;
            }
        }
        candidates.extend(
            best.iter_mut()
                .filter(|b| **b != NONE)
                .map(|b| std::mem::replace(b, NONE) as usize),
        );
        candidates.sort_unstable();
        let flags = pareto_flags(candidates.iter().map(|&row| Some(view(&rows[row]))));
        for (&row, flag) in candidates.iter().zip(flags) {
            rows[row].service_pareto = flag;
        }
        candidates.clear();
        start = end;
    }
}

/// The rows of `layout` in the order that settles a tie on
/// (feasibility, time, fit): by platform id, clock (`total_cmp`), label
/// ([`DsePoint::label_key`]) and row index — the rest of
/// `portfolio_order`'s key. It sorts the blocks by (platform id,
/// clock) and the points by label, not the rows: row `b * points + q`
/// comes among the rows of the blocks that tie with `b` and the points
/// that tie with `q`, which are in index order.
fn tie_order(platforms: &[Platform], layout: &Layout) -> Vec<u32> {
    let (blocks, points) = (&layout.blocks, &layout.points);
    let by_block = |a: &usize, b: &usize| {
        let ((pa, ca), (pb, cb)) = (blocks[*a], blocks[*b]);
        platforms[pa]
            .id
            .cmp(platforms[pb].id)
            .then(ca.total_cmp(&cb))
    };
    let labels: Vec<_> = points.iter().map(DsePoint::label_key).collect();
    let by_point = |a: &usize, b: &usize| labels[*a].cmp(&labels[*b]);
    let mut block_order: Vec<usize> = (0..blocks.len()).collect();
    block_order.sort_by(by_block);
    let mut point_order: Vec<usize> = (0..points.len()).collect();
    point_order.sort_by(by_point);
    let index =
        |b: usize, q: usize| u32::try_from(b * points.len() + q).expect("fewer rows than u32::MAX");
    let mut order = Vec::with_capacity(blocks.len() * points.len());
    for tied_blocks in block_order.chunk_by(|a, b| by_block(a, b).is_eq()) {
        if let &[b] = tied_blocks {
            order.extend(point_order.iter().map(|&q| index(b, q)));
            continue;
        }
        for tied_points in point_order.chunk_by(|a, b| by_point(a, b).is_eq()) {
            for &b in tied_blocks {
                order.extend(tied_points.iter().map(|&q| index(b, q)));
            }
        }
    }
    order
}

/// The ranked order of `rows` (position → row), written over `tie`:
/// the rows that fit by one sort of their (time, fit, place in `tie`)
/// keys, time and fit as [`total_order_bits`], then the rows that do
/// not fit — every one at time and fit 0, so tied until `tie` — in
/// `tie` order.
fn rank_order(rows: &[PortfolioOutcome], mut tie: Vec<u32>) -> Vec<u32> {
    let feasible = rows.iter().filter(|o| o.outcome.feasible).count();
    let mut keys: Vec<(u64, u64, u32, u32)> = Vec::with_capacity(feasible);
    let mut infeasible = 0;
    for at in 0..tie.len() {
        let row = tie[at];
        let o = &rows[row as usize];
        let (time, fit) = (o.outcome.total_s, o.utilization);
        if o.outcome.feasible {
            keys.push((
                total_order_bits(time),
                total_order_bits(fit),
                at as u32,
                row,
            ));
        } else {
            debug_assert!(
                time.to_bits() == 0 && fit.to_bits() == 0,
                "a row that does not fit scores 0"
            );
            tie[infeasible] = row;
            infeasible += 1;
        }
    }
    keys.sort_unstable();
    tie.copy_within(..infeasible, feasible);
    for (at, key) in tie.iter_mut().zip(&keys) {
        *at = key.3;
    }
    tie
}

/// Move every row to its place in `order` (position → row), once each,
/// along the permutation's cycles.
fn permute(rows: &mut [PortfolioOutcome], mut order: Vec<u32>) {
    for start in 0..rows.len() {
        if order[start] as usize == start {
            continue;
        }
        // Position `at` takes the row at `order[at]`; a position done
        // points at itself.
        let first = rows[start].clone();
        let mut at = start;
        loop {
            let from = std::mem::replace(&mut order[at], at as u32) as usize;
            if from == start {
                break;
            }
            rows[at] = rows[from].clone();
            at = from;
        }
        rows[at] = first;
    }
}

/// `x`'s bits as a key whose unsigned order is [`f64::total_cmp`]'s:
/// a negative number (sign bit set) flips every bit, anything else sets
/// the sign bit.
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

impl PortfolioReport {
    /// The portfolio Pareto frontier: every platform's non-dominated
    /// (time, fit) points, best time first.
    pub fn pareto_frontier(&self) -> Vec<&PortfolioOutcome> {
        self.frontier(Frontier::Pareto).collect()
    }

    /// The portfolio **service** frontier: every platform's
    /// non-dominated (requests/sec ↑, p99 latency ↓, utilization ↓)
    /// points — where to place traffic for throughput rather than
    /// single-job latency.
    pub fn service_frontier(&self) -> Vec<&PortfolioOutcome> {
        self.frontier(Frontier::Service).collect()
    }

    /// The portfolio **cost-efficiency** frontier: non-dominated points
    /// over (requests/sec ↑, requests/sec per 1000 design LUTs ↑) —
    /// which boards earn their silicon when a fleet dispatcher shards
    /// one stream across the catalog. Returned with each point's
    /// req/s-per-kLUT figure, best throughput first (the ranking order
    /// of `outcomes`).
    pub fn cost_frontier(&self) -> Vec<(&PortfolioOutcome, f64)> {
        let cost = self.frontier(Frontier::Cost);
        cost.map(|o| (o, o.rps_per_kluts())).collect()
    }

    /// The rows of frontier `frontier`, in ranking order.
    fn frontier(&self, frontier: Frontier) -> impl Iterator<Item = &PortfolioOutcome> {
        self.outcomes.iter().filter(move |o| match frontier {
            Frontier::Pareto => o.pareto,
            Frontier::Service => o.service_pareto,
            Frontier::Cost => o.cost_pareto,
        })
    }

    /// Render as an aligned text table (Pareto rows marked `*`).
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        let platforms = self.summaries.len();
        s.push_str(&format!(
            "portfolio: {platforms} platform{}, {} combinations ({} feasible), {} jobs, {:.3} s, \
             {} backends compiled ({} reused)\n",
            if platforms == 1 { "" } else { "s" },
            self.evaluated,
            self.feasible,
            self.jobs,
            self.wall_s,
            self.backend_compiles,
            self.backend_reuses,
        ));
        for sum in &self.summaries {
            s.push_str(&format!(
                "  {:<10} {:<22} {:>3}/{:<3} feasible, {} pareto{}\n",
                sum.platform,
                sum.board,
                sum.feasible,
                sum.evaluated,
                sum.pareto_points,
                match sum.best_total_s {
                    Some(t) => format!(", best {t:.4} s"),
                    None => ", nothing fits".to_string(),
                }
            ));
        }
        s.push_str(
            "    platform     MHz   k    m  share  decouple  part      LUT   BRAM   util%     el/s    req/s  pareto\n",
        );
        for o in &self.outcomes {
            let p = &o.outcome.point;
            s.push_str(&format!(
                "  {} {:<10}  {:>4.0}  {:>2}  {:>3}  {:>5}  {:>8}  {:>4}  {:>7}  {:>5}  {:>6.1}  {:>7.0}  {:>7.0}  {}\n",
                if o.pareto { "*" } else { " " },
                o.platform,
                o.clock_mhz,
                p.k,
                p.m,
                p.sharing,
                p.decoupled,
                p.partition,
                o.outcome.luts,
                o.outcome.brams,
                o.utilization * 100.0,
                o.outcome.throughput_eps,
                o.outcome.service_rps,
                if o.outcome.feasible {
                    match (o.pareto, o.service_pareto) {
                        (true, true) => "pareto+serve",
                        (true, false) => "pareto",
                        (false, true) => "serve",
                        (false, false) => "yes",
                    }
                } else {
                    "no"
                },
            ));
        }
        s
    }

    /// Serialize as JSON through the `runtime::json` writer, into one
    /// buffer reserved up front: every row's own bound plus the header
    /// allowance.
    pub fn to_json(&self) -> String {
        let platforms = (self.summaries.iter()).map(|p| json::width(|w| p.json_row(w, "},\n")));
        let frontiers = FRONTIERS.iter().flat_map(|&(frontier, _)| {
            (self.frontier(frontier))
                .map(move |o| json::width(|w| o.frontier_row(w, frontier, "},\n")))
        });
        let rows = json::width(|w| {
            let mut last = LastRow::default();
            for o in &self.outcomes {
                o.portfolio_row(&self.label, w, "},\n", &mut last);
            }
        });
        let bytes = platforms.sum::<usize>() + frontiers.sum::<usize>() + rows;
        let mut out = String::with_capacity(HEADER_BYTES + bytes);
        self.write_json(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Append the document, trailing newline included, to `out`. The
    /// row loops do not allocate.
    fn write_json(&self, out: &mut String) -> fmt::Result {
        write!(
            out,
            "{{\n  \"evaluated\": {},\n  \"feasible\": {},\n  \"jobs\": {},\n  \"elements\": {},\n  \
             \"wall_s\": {:.6},\n  \"backend_cache\": {{\"compiles\": {}, \"reuses\": {}}},\n",
            self.evaluated,
            self.feasible,
            self.jobs,
            self.elements,
            self.wall_s,
            self.backend_compiles,
            self.backend_reuses
        )?;
        writeln!(out, "  \"compile_cache\": {},", self.cache)?;
        out.push_str("  \"platforms\": [\n");
        let mut line = Line::new(out);
        for (i, p) in self.summaries.iter().enumerate() {
            p.json_row(&mut line, row_end(i, self.summaries.len()));
            line.flush();
        }
        for (frontier, name) in FRONTIERS {
            write!(out, "  ],\n  \"{name}\": [\n")?;
            let mut line = Line::new(out);
            let mut rows = self.frontier(frontier).peekable();
            while let Some(o) = rows.next() {
                let end = if rows.peek().is_some() { "},\n" } else { "}\n" };
                o.frontier_row(&mut line, frontier, end);
                line.flush();
            }
        }
        out.push_str("  ],\n  \"outcomes\": [\n");
        let (mut line, mut last) = (Line::new(out), LastRow::default());
        for (i, o) in self.outcomes.iter().enumerate() {
            let end = row_end(i, self.outcomes.len());
            o.portfolio_row(&self.label, &mut line, end, &mut last);
            line.flush();
        }
        out.push_str("  ]\n}\n");
        Ok(())
    }
}

/// A portfolio frontier, which picks a frontier row's own three fields.
#[derive(Clone, Copy)]
enum Frontier {
    Pareto,
    Service,
    Cost,
}

/// The frontier sections of a portfolio document, in order.
const FRONTIERS: [(Frontier, &str); 3] = [
    (Frontier::Pareto, "pareto_frontier"),
    (Frontier::Service, "service_frontier"),
    (Frontier::Cost, "cost_frontier"),
];

/// The keyed segments of the outcome row a sink wrote last
/// ([`PortfolioOutcome::portfolio_row`]): the text up to `"k"`, keyed by
/// platform id and clock bits, and the `"total_s"` … `"service_p99_s"`
/// span, keyed by its four figures' bits. Its marks belong to the one
/// sink that wrote the row, so each pass over the rows starts a fresh
/// one.
#[derive(Default)]
struct LastRow {
    prefix: Segment<(&'static str, u64)>,
    span: Segment<[u64; 4]>,
}

/// A segment's key and the sink's marks around it, once written.
#[derive(Default)]
struct Segment<K>(Option<(K, Range<usize>)>);

impl<K: PartialEq> Segment<K> {
    /// Repeat the segment when it was written for `key`, or make it with
    /// `write` and remember where it went.
    #[inline(always)]
    fn write<S: Sink>(&mut self, s: &mut S, key: K, write: impl FnOnce(&mut S)) {
        if let Some((last, at)) = &self.0 {
            if *last == key && s.repeat(at.clone()) {
                return;
            }
        }
        let start = s.mark();
        write(s);
        self.0 = Some((key, start..s.mark()));
    }
}

impl PlatformSummary {
    /// The `platforms` row, closed by `end`.
    fn json_row<S: Sink>(&self, s: &mut S, end: &str) {
        s.lit("    {\"platform\": \"");
        s.str(self.platform);
        s.lit("\", \"board\": \"");
        s.str(&self.board);
        s.lit("\", \"evaluated\": ");
        s.int(self.evaluated as u64);
        s.lit(", \"feasible\": ");
        s.int(self.feasible as u64);
        s.lit(", \"pareto_points\": ");
        s.int(self.pareto_points as u64);
        s.lit(", \"best_total_s\": ");
        match self.best_total_s {
            Some(t) => s.fixed(t, 6),
            None => s.lit("null"),
        }
        s.lit(end);
    }
}

impl PortfolioOutcome {
    /// The unflagged row of `outcome` on `platform` at `clock_mhz`.
    fn of(platform: &Platform, clock_mhz: f64, outcome: DseOutcome) -> PortfolioOutcome {
        let totals = Totals {
            luts: outcome.luts,
            ffs: outcome.ffs,
            dsps: outcome.dsps,
            brams: outcome.brams,
        };
        PortfolioOutcome {
            platform: platform.id,
            clock_mhz,
            utilization: if outcome.feasible {
                totals.utilization(&platform.board)
            } else {
                0.0
            },
            outcome,
            pareto: false,
            service_pareto: false,
            cost_pareto: false,
        }
    }

    /// Requests per second per thousand design LUTs.
    fn rps_per_kluts(&self) -> f64 {
        self.outcome.service_rps / (self.outcome.luts as f64 / 1000.0)
    }

    /// An outcome row: the platform, clock and the report's `label`,
    /// the [`DseOutcome`] fields, the fit and the frontier flags, closed
    /// by `end`. The text up to `"k"` and the `"total_s"` …
    /// `"service_p99_s"` span are keyed segments: where `last` (the
    /// previous row's, on the same sink) has the same key, the row
    /// repeats that segment instead of writing it.
    #[inline]
    fn portfolio_row<S: Sink>(&self, label: &str, s: &mut S, end: &str, last: &mut LastRow) {
        let (o, p) = (&self.outcome, &self.outcome.point);
        let place = (self.platform, self.clock_mhz.to_bits());
        last.prefix.write(s, place, |s| {
            s.lit("    {\"platform\": \"");
            s.str(self.platform);
            s.lit("\", \"clock_mhz\": ");
            s.fixed(self.clock_mhz, 1);
            s.lit(", \"kernel\": \"");
            s.str(label);
            s.lit("\", \"k\": ");
        });
        s.int(p.k as u64);
        s.lit(", \"m\": ");
        s.int(p.m as u64);
        s.lit(", \"sharing\": ");
        s.flag(p.sharing);
        s.lit(", \"decoupled\": ");
        s.flag(p.decoupled);
        s.lit(", \"partition\": ");
        s.int(p.partition.into());
        s.lit(", \"feasible\": ");
        s.flag(o.feasible);
        s.lit(", \"luts\": ");
        s.int(o.luts as u64);
        s.lit(", \"ffs\": ");
        s.int(o.ffs as u64);
        s.lit(", \"dsps\": ");
        s.int(o.dsps as u64);
        s.lit(", \"brams\": ");
        s.int(o.brams as u64);
        s.lit(", \"plm_brams\": ");
        s.int(o.plm_brams as u64);
        s.lit(", \"latency_cycles\": ");
        s.int(o.latency_cycles);
        let figures = [o.total_s, o.throughput_eps, o.service_rps, o.service_p99_s];
        last.span.write(s, figures.map(f64::to_bits), |s| {
            s.lit(", \"total_s\": ");
            s.fixed(o.total_s, 6);
            s.lit(", \"throughput_eps\": ");
            s.fixed(o.throughput_eps, 3);
            s.lit(", \"service_rps\": ");
            s.fixed(o.service_rps, 3);
            s.lit(", \"service_p99_s\": ");
            s.fixed(o.service_p99_s, 6);
        });
        s.lit(", \"utilization\": ");
        s.fixed(self.utilization, 4);
        s.lit(", \"pareto\": ");
        s.flag(self.pareto);
        s.lit(", \"service_pareto\": ");
        s.flag(self.service_pareto);
        s.lit(end);
    }

    /// A frontier row: the point's label, `k`, `m` and the frontier's
    /// own three fields, closed by `end`.
    fn frontier_row<S: Sink>(&self, s: &mut S, frontier: Frontier, end: &str) {
        let o = &self.outcome;
        s.lit("    {\"platform\": \"");
        s.str(self.platform);
        s.lit("\", \"clock_mhz\": ");
        s.fixed(self.clock_mhz, 1);
        s.lit(", \"k\": ");
        s.int(o.point.k as u64);
        s.lit(", \"m\": ");
        s.int(o.point.m as u64);
        match frontier {
            Frontier::Pareto => {
                s.lit(", \"total_s\": ");
                s.fixed(o.total_s, 6);
                s.lit(", \"throughput_eps\": ");
                s.fixed(o.throughput_eps, 3);
                s.lit(", \"utilization\": ");
                s.fixed(self.utilization, 4);
            }
            Frontier::Service => {
                s.lit(", \"service_rps\": ");
                s.fixed(o.service_rps, 3);
                s.lit(", \"service_p99_s\": ");
                s.fixed(o.service_p99_s, 6);
                s.lit(", \"utilization\": ");
                s.fixed(self.utilization, 4);
            }
            Frontier::Cost => {
                s.lit(", \"luts\": ");
                s.int(o.luts as u64);
                s.lit(", \"service_rps\": ");
                s.fixed(o.service_rps, 3);
                s.lit(", \"rps_per_kluts\": ");
                s.fixed(self.rps_per_kluts(), 4);
            }
        }
        s.lit(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Backend;
    use crate::program::ProgramBuild;
    use crate::FlowOptions;

    /// A backend slot as the sweep assembled it before it shared
    /// pieces: every kernel's whole backend, plus the merged program
    /// memory when there is more than one kernel.
    enum Slot {
        Kernel(Backend),
        Program(ProgramBuild),
    }

    impl Slot {
        fn parts(&self) -> ScoreParts<'_> {
            match self {
                Slot::Kernel(be) => ScoreParts::of_kernel(be),
                Slot::Program(build) => ScoreParts::of_program(build),
            }
        }
    }

    impl<'a> ScoreParts<'a> {
        /// The parts of a single-kernel backend.
        fn of_kernel(be: &'a Backend) -> Self {
            let bytes = sysgen::HostProgram::interface_bytes([&be.kernel], |_, _| true);
            ScoreParts::new(vec![&be.hls_report], &be.memory, bytes)
        }

        /// The parts of a program's merged build.
        fn of_program(build: &'a ProgramBuild) -> Self {
            let merged = &build.merged;
            let bytes = (merged.bytes_in_per_element, merged.bytes_out_per_element);
            let stages = build.stages.iter().map(|(_, report)| report);
            ScoreParts::new(stages.collect(), &merged.memory, bytes)
        }
    }

    /// The per-slot definitions the sweep's pieces must reproduce.
    impl DseEngine {
        /// Kernel `i`'s whole backend for `point`'s backend axes at
        /// `clock_mhz`.
        fn backend_at(&self, i: usize, clock_mhz: f64, point: &DsePoint) -> Backend {
            let opts = FlowOptions {
                decoupled: point.decoupled,
                memory: mnemosyne::MemoryOptions {
                    sharing: point.sharing,
                },
                hls: self.hls_at(i, clock_mhz, point.partition),
                ..self.base.flow.clone()
            };
            self.pipeline.backend(&self.scheds[i], &opts)
        }

        /// Every kernel's backend for `point`'s backend axes at
        /// `clock_mhz` plus the merged program memory, through the
        /// [`ProgramBuild`] construction `ProgramFlow::compile` uses.
        fn build_at(&self, clock_mhz: f64, point: &DsePoint) -> ProgramBuild {
            let backends: Vec<Backend> = (0..self.scheds.len())
                .map(|i| self.backend_at(i, clock_mhz, point))
                .collect();
            let memory_opts = mnemosyne::MemoryOptions {
                sharing: point.sharing,
            };
            ProgramBuild::prepare(
                &self.names,
                &self.cross,
                &backends.iter().collect::<Vec<_>>(),
                &memory_opts,
                self.base.cross_sharing && point.sharing,
            )
        }

        /// The backend slot of `point`'s backend axes at `clock_mhz`. A
        /// one-kernel slot's merged memory is its own, so it skips the
        /// merge.
        fn parts(&self, clock_mhz: f64, point: &DsePoint) -> Slot {
            if self.scheds.len() == 1 {
                Slot::Kernel(self.backend_at(0, clock_mhz, point))
            } else {
                Slot::Program(self.build_at(clock_mhz, point))
            }
        }

        /// The pieces built so far: kernel IRs, Mnemosyne
        /// configurations, HLS reports, memories.
        fn piece_counts(&self) -> [usize; 4] {
            self.built.each_ref().map(|c| c.load(Relaxed))
        }
    }

    impl DsePoint {
        /// The order of the two points' [`DsePoint::label`]s as strings
        /// (so `"k=10 …" < "k=2 …"`), without formatting them: the order
        /// of their [`DsePoint::label_key`]s.
        fn cmp_label(&self, other: &DsePoint) -> Ordering {
            self.label_key().cmp(&other.label_key())
        }
    }

    impl PortfolioReport {
        /// The emitter `to_json` replaced, verbatim: one `format!` per row.
        fn to_json_reference(&self) -> String {
            let mut s = String::new();
            s.push_str("{\n");
            s.push_str(&format!("  \"evaluated\": {},\n", self.evaluated));
            s.push_str(&format!("  \"feasible\": {},\n", self.feasible));
            s.push_str(&format!("  \"jobs\": {},\n", self.jobs));
            s.push_str(&format!("  \"elements\": {},\n", self.elements));
            s.push_str(&format!("  \"wall_s\": {:.6},\n", self.wall_s));
            s.push_str(&format!(
                "  \"backend_cache\": {{\"compiles\": {}, \"reuses\": {}}},\n",
                self.backend_compiles, self.backend_reuses
            ));
            s.push_str(&format!(
                "  \"compile_cache\": {{\"hits\": {}, \"disk_hits\": {}, \"misses\": {}, \"stores\": {}, \"invalidations\": {}}},\n",
                self.cache.hits,
                self.cache.disk_hits,
                self.cache.misses,
                self.cache.stores,
                self.cache.invalidations
            ));
            s.push_str("  \"platforms\": [\n");
            for (i, p) in self.summaries.iter().enumerate() {
                s.push_str(&format!(
                    "    {{\"platform\": \"{}\", \"board\": \"{}\", \"evaluated\": {}, \
                     \"feasible\": {}, \"pareto_points\": {}, \"best_total_s\": {}}}{}\n",
                    runtime::json_escape(p.platform),
                    runtime::json_escape(&p.board),
                    p.evaluated,
                    p.feasible,
                    p.pareto_points,
                    match p.best_total_s {
                        Some(t) => format!("{t:.6}"),
                        None => "null".to_string(),
                    },
                    if i + 1 == self.summaries.len() {
                        ""
                    } else {
                        ","
                    },
                ));
            }
            s.push_str("  ],\n");
            let frontier = self.pareto_frontier();
            s.push_str("  \"pareto_frontier\": [\n");
            for (i, o) in frontier.iter().enumerate() {
                let p = &o.outcome.point;
                s.push_str(&format!(
                    "    {{\"platform\": \"{}\", \"clock_mhz\": {:.1}, \"k\": {}, \"m\": {}, \
                     \"total_s\": {:.6}, \"throughput_eps\": {:.3}, \"utilization\": {:.4}}}{}\n",
                    runtime::json_escape(o.platform),
                    o.clock_mhz,
                    p.k,
                    p.m,
                    o.outcome.total_s,
                    o.outcome.throughput_eps,
                    o.utilization,
                    if i + 1 == frontier.len() { "" } else { "," },
                ));
            }
            s.push_str("  ],\n");
            let service = self.service_frontier();
            s.push_str("  \"service_frontier\": [\n");
            for (i, o) in service.iter().enumerate() {
                let p = &o.outcome.point;
                s.push_str(&format!(
                    "    {{\"platform\": \"{}\", \"clock_mhz\": {:.1}, \"k\": {}, \"m\": {}, \
                     \"service_rps\": {:.3}, \"service_p99_s\": {:.6}, \"utilization\": {:.4}}}{}\n",
                    runtime::json_escape(o.platform),
                    o.clock_mhz,
                    p.k,
                    p.m,
                    o.outcome.service_rps,
                    o.outcome.service_p99_s,
                    o.utilization,
                    if i + 1 == service.len() { "" } else { "," },
                ));
            }
            s.push_str("  ],\n");
            let cost = self.cost_frontier();
            s.push_str("  \"cost_frontier\": [\n");
            for (i, (o, per_kluts)) in cost.iter().enumerate() {
                let p = &o.outcome.point;
                s.push_str(&format!(
                    "    {{\"platform\": \"{}\", \"clock_mhz\": {:.1}, \"k\": {}, \"m\": {}, \
                     \"luts\": {}, \"service_rps\": {:.3}, \"rps_per_kluts\": {:.4}}}{}\n",
                    runtime::json_escape(o.platform),
                    o.clock_mhz,
                    p.k,
                    p.m,
                    o.outcome.luts,
                    o.outcome.service_rps,
                    per_kluts,
                    if i + 1 == cost.len() { "" } else { "," },
                ));
            }
            s.push_str("  ],\n");
            s.push_str("  \"outcomes\": [\n");
            for (i, o) in self.outcomes.iter().enumerate() {
                let p = &o.outcome.point;
                s.push_str(&format!(
                    "    {{\"platform\": \"{}\", \"clock_mhz\": {:.1}, \"kernel\": \"{}\", \"k\": {}, \"m\": {}, \
                     \"sharing\": {}, \"decoupled\": {}, \"partition\": {}, \"feasible\": {}, \
                     \"luts\": {}, \"ffs\": {}, \"dsps\": {}, \"brams\": {}, \"plm_brams\": {}, \
                     \"latency_cycles\": {}, \"total_s\": {:.6}, \"throughput_eps\": {:.3}, \
                     \"service_rps\": {:.3}, \"service_p99_s\": {:.6}, \
                     \"utilization\": {:.4}, \"pareto\": {}, \"service_pareto\": {}}}{}\n",
                    runtime::json_escape(o.platform),
                    o.clock_mhz,
                    runtime::json_escape(&self.label),
                    p.k,
                    p.m,
                    p.sharing,
                    p.decoupled,
                    p.partition,
                    o.outcome.feasible,
                    o.outcome.luts,
                    o.outcome.ffs,
                    o.outcome.dsps,
                    o.outcome.brams,
                    o.outcome.plm_brams,
                    o.outcome.latency_cycles,
                    o.outcome.total_s,
                    o.outcome.throughput_eps,
                    o.outcome.service_rps,
                    o.outcome.service_p99_s,
                    o.utilization,
                    o.pareto,
                    o.service_pareto,
                    if i + 1 == self.outcomes.len() { "" } else { "," },
                ));
            }
            s.push_str("  ]\n}\n");
            s
        }
    }

    /// Labels of generated reports: one a builtin's, one a program's,
    /// one hostile.
    const LABELS: [&str; 3] = ["main", "inverse_helmholtz+axpy", "k\"\\\n\u{3}é"];

    /// Outcome `i` of a generated sweep: every third one infeasible
    /// (zeros), widths that vary with `i`.
    fn generated_outcome(i: usize) -> DseOutcome {
        let feasible = !i.is_multiple_of(3);
        let scale = if feasible { 1 + i % 977 } else { 0 };
        DseOutcome {
            point: DsePoint {
                k: 1 << (i % 5),
                m: 2 << (i % 7),
                sharing: i.is_multiple_of(2),
                decoupled: i % 4 < 2,
                partition: 1 + (i % 3) as u32,
            },
            feasible,
            luts: 241 * scale,
            ffs: 1_842 * scale,
            dsps: 3 * scale,
            brams: scale / 2,
            plm_brams: scale % 64,
            latency_cycles: 106_536 * scale as u64,
            total_s: 0.314_480_5 * scale as f64,
            throughput_eps: 6_359.705_5 * scale as f64,
            service_rps: 71.705_15 * scale as f64,
            service_p99_s: 0.008_925 / (1 + scale) as f64,
        }
    }

    /// A portfolio of about `points` generated outcomes on three
    /// platforms (one hostile name, one where nothing fits): the first
    /// `points.div_ceil(2)` generated points in one block on each of the
    /// other two, every row probed on its own, flagged and ranked by
    /// `rank_portfolio`.
    fn generated_portfolio(label: &str, points: usize) -> PortfolioReport {
        let mut platforms = vec![Platform::zcu106(), Platform::zcu106(), Platform::zcu106()];
        platforms[1].id = "pynq\"z2\\";
        platforms[2].id = "empty";
        let layout = Layout {
            blocks: vec![(0, 100.0), (1, 142.5)],
            points: (0..points.div_ceil(2))
                .map(|i| generated_outcome(i).point)
                .collect(),
        };
        let per_block = layout.points.len();
        let outcomes: Vec<PortfolioOutcome> = (0..2 * per_block)
            .map(|i| {
                let (block, q) = (i / per_block, i % per_block);
                let outcome = DseOutcome {
                    point: layout.points[q],
                    ..generated_outcome(i)
                };
                PortfolioOutcome {
                    platform: platforms[block].id,
                    clock_mhz: layout.blocks[block].1,
                    // Every fourth an odd multiple of 2^-5: a dyadic tie
                    // at the four digits `utilization` prints.
                    utilization: match (outcome.feasible, i % 4) {
                        (false, _) => 0.0,
                        (true, 3) => (i % 32) as f64 / 32.0,
                        (true, _) => (i % 1_000) as f64 / 999.0,
                    },
                    outcome,
                    pareto: false,
                    service_pareto: false,
                    cost_pareto: false,
                }
            })
            .collect();
        let probe_of: Vec<u32> = (outcomes.iter().enumerate())
            .map(|(i, o)| {
                if o.outcome.feasible {
                    i as u32
                } else {
                    UNPROBED
                }
            })
            .collect();
        report_of(label, &platforms, outcomes, &layout, &probe_of)
    }

    /// The report of `rows` (laid out by `layout`, probed as `probe_of`
    /// says), ranked by `rank_portfolio`.
    fn report_of(
        label: &str,
        platforms: &[Platform],
        mut outcomes: Vec<PortfolioOutcome>,
        layout: &Layout,
        probe_of: &[u32],
    ) -> PortfolioReport {
        let summaries = rank_portfolio(platforms, &mut outcomes, layout, probe_of);
        PortfolioReport {
            label: label.into(),
            evaluated: outcomes.len(),
            feasible: summaries.iter().map(|s| s.feasible).sum(),
            jobs: 2,
            elements: 10_000,
            wall_s: 0.123_456_5,
            backend_compiles: 8,
            backend_reuses: outcomes.len().saturating_sub(8),
            cache: CacheCounters {
                hits: 3,
                stores: outcomes.len(),
                ..CacheCounters::default()
            },
            ticks_overflows: 0,
            summaries,
            outcomes,
        }
    }

    /// A buffer that outgrew its reservation would have doubled; one
    /// that did not is within the header allowance and the rows' slack
    /// (a `true`, a carried digit) of the document.
    fn never_grew(json: &String, points: usize) -> bool {
        json.capacity() - json.len() <= HEADER_BYTES + 8 * points
    }

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

    /// The benchmark's dense helmholtz:11 grid: 11 replications × 3
    /// batch factors × sharing × decoupling × 2 partitions.
    fn dense_grid() -> DseGrid {
        DseGrid {
            k: vec![1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16],
            batch: vec![1, 2, 4],
            sharing: vec![true, false],
            decoupled: vec![true, false],
            partition: vec![1, 2],
        }
    }

    /// A row as the sweep scored it before it shared its probes: the
    /// [`outcome`] of the point, and when it fits, the service probe of
    /// its own round as [`score`] priced it.
    fn outcome_probed(
        parts: &ScoreParts<'_>,
        platform: &Platform,
        point: &DsePoint,
        elements: usize,
    ) -> DseOutcome {
        let ks = repeat_n(point.k, parts.stages.len());
        let scored = score(parts, platform, ks, point.m);
        let mut row = outcome(parts, point, scored, elements);
        if let Some((_, round)) = scored {
            (row.service_rps, row.service_p99_s) =
                service_probe(round.ticks(), &[point.k], point.m);
        }
        row
    }

    /// Seed 5 of the generated-program tests' generator: three kernels,
    /// scalars, a trace and a statement that reads its own output.
    const GENERATED_SEED_5: &str = "kernel k0 {
        var input x0_0 : [8 2 7 2]
        var input x0_1 : [2 7]
        var input x0_2 : [6 2 8]
        var output h0 : [6]
        h0 = x0_0 # x0_1 # x0_2 . [[3 4] [2 5] [1 7] [0 8]]
    }
    kernel k1 {
        var input h0 : [6]
        var input x1_0 : []
        var output t0 : [6]
        var input x1_1 : [3 1 7]
        var input x1_2 : [1 9 3]
        var input x1_3 : [7 9]
        var t1 : [7 9]
        var input x1_4 : [8 7 9 4]
        var output h1 : [8 4]
        t0 = h0 + h0 / 4 - x1_0
        t1 = x1_3 + (x1_1 # x1_2 . [[1 3] [0 5]])
        h1 = t1 # x1_4 . [[0 3] [1 4]]
    }
    kernel k2 {
        var input h1 : [8 4]
        var input x2_0 : [6 6]
        var input x2_1 : [7 6]
        var output h2 : [7 6]
        h2 = x2_1 + h2 # x2_0 . [[1 2]]
    }
    ";

    /// The sweep's shared pieces and probes: for helmholtz:11's dense
    /// grid, and simstep:7's and a generated program's default grid,
    /// over every catalog platform and ladder clock, at 1 and 4 jobs,
    /// every `run_portfolio` row is its point's [`outcome_probed`] on
    /// the per-slot definition's parts — its service figures those of
    /// a probe of its own round, not of the one its key shared — the
    /// report still counts one backend per (kernel, slot), and the
    /// sweep built each piece once per the axes it reads: kernel IR
    /// per (kernel, decoupling), Mnemosyne configuration per (kernel,
    /// decoupling, partition), HLS report per (kernel, clock,
    /// decoupling, partition), memory per backend key.
    #[test]
    fn portfolio_rows_equal_the_per_slot_definition() {
        const ELEMENTS: usize = 2_000;
        let catalog = Platform::catalog();
        let cases = [
            // 6 clocks × 8 keys = 48 slots of 1 kernel.
            (
                cfdlang::examples::inverse_helmholtz(11),
                dense_grid(),
                48,
                [2, 4, 24, 8],
            ),
            // 6 clocks × 4 keys = 24 slots of 3 kernels.
            (
                cfdlang::examples::simulation_step(7),
                DseGrid::default(),
                72,
                [6, 6, 36, 4],
            ),
            (
                GENERATED_SEED_5.to_string(),
                DseGrid::default(),
                72,
                [6, 6, 36, 4],
            ),
        ];
        for (src, grid, backends, pieces) in cases {
            for jobs in [1, 4] {
                let engine = DseEngine::prepare(&src, &ProgramOptions::default()).unwrap();
                let report = engine.run_portfolio(&catalog, &grid, jobs, ELEMENTS);
                assert_eq!(engine.piece_counts(), pieces, "{}", engine.label());
                assert_eq!(report.backend_compiles, backends);
                assert_eq!(engine.pipeline().counters().backend, backends);
                let mut slots: Vec<(_, Slot)> = Vec::new();
                for row in &report.outcomes {
                    let point = row.outcome.point;
                    let key = (row.clock_mhz.to_bits(), point.backend_key());
                    if !slots.iter().any(|(k, _)| *k == key) {
                        slots.push((key, engine.parts(row.clock_mhz, &point)));
                    }
                    let slot = &slots.iter().find(|(k, _)| *k == key).unwrap().1;
                    let platform = catalog.iter().find(|p| p.id == row.platform).unwrap();
                    let label = engine.label();
                    let want = outcome_probed(&slot.parts(), platform, &point, ELEMENTS);
                    assert_eq!(
                        format!("{want:?}"),
                        format!("{:?}", row.outcome),
                        "{label} jobs={jobs} {} @ {} MHz, {}",
                        row.platform,
                        row.clock_mhz,
                        point.label()
                    );
                }
                assert_eq!(slots.len() * engine.kernel_names().len(), backends);
            }
        }
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

    /// The one-kernel shortcut: a one-kernel slot scores through its
    /// backend's own memory and byte interface, and those are what the
    /// merged one-kernel program would have — for every builtin kernel,
    /// a `kernel` block, all eight backend keys and cross-kernel sharing
    /// on and off.
    #[test]
    fn one_kernel_slot_equals_its_merged_program() {
        use cfdlang::examples as ex;
        let sources = [
            ex::inverse_helmholtz(4),
            ex::inverse_helmholtz(11),
            ex::interpolation(8, 12),
            ex::matrix_sandwich(8),
            ex::axpy(8),
            format!("kernel solo {{\n{}}}\n", ex::axpy(3)),
        ];
        let keys = DseGrid {
            k: vec![1],
            batch: vec![1],
            sharing: vec![true, false],
            decoupled: vec![true, false],
            partition: vec![1, 2],
        };
        assert_eq!(keys.points().len(), 8);
        for src in &sources {
            for cross_sharing in [true, false] {
                let options = crate::program::ProgramOptions {
                    cross_sharing,
                    ..Default::default()
                };
                let engine = DseEngine::prepare(src, &options).unwrap();
                assert_eq!(engine.kernel_names().len(), 1);
                let clock = options.flow.hls.clock_mhz;
                for point in keys.points() {
                    let backend = engine.backend_at(0, clock, &point);
                    let build = engine.build_at(clock, &point);
                    let kernel = ScoreParts::of_kernel(&backend);
                    let program = ScoreParts::of_program(&build);
                    let view = |p: &ScoreParts| {
                        let latency: Vec<u64> = p.stages.iter().map(|r| r.latency_cycles).collect();
                        let kernel_s: Vec<u64> = p
                            .stages
                            .iter()
                            .map(|r| r.latency_seconds().to_bits())
                            .collect();
                        let bytes = (p.bytes_in_per_element, p.bytes_out_per_element);
                        (latency, kernel_s, p.memory.brams, bytes)
                    };
                    let at = format!(
                        "{} cross_sharing={cross_sharing} {}",
                        engine.label(),
                        point.label()
                    );
                    assert_eq!(view(&kernel), view(&program), "{at}");
                }
            }
        }
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
            let base = &engine.base.flow;
            let slot = engine.parts(base.hls.clock_mhz, &point);
            let row = outcome_probed(&slot.parts(), &base.platform, &point, 100);
            assert!(
                !row.feasible && row.total_s == 0.0 && row.plm_brams > 0,
                "k={k} m={m}"
            );
        }
    }

    /// Order of the decimal spellings of `a` and `b` as strings
    /// ([`decimal_text_key`]).
    fn cmp_decimal_text(a: u64, b: u64) -> Ordering {
        decimal_text_key(a).cmp(&decimal_text_key(b))
    }

    /// Numbers whose decimal spellings collide as prefixes of each
    /// other, around every digit-count boundary a grid can reach.
    const TRICKY: [usize; 14] = [0, 1, 2, 9, 10, 11, 12, 19, 20, 99, 100, 101, 110, 1_000];

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

    /// Outcomes drawn from a handful of values per ranked field, so
    /// every prefix of either comparator's key ties for many pairs and
    /// the label — with `k`, `m` >= 10 — decides.
    fn tied_outcome(i: usize) -> PortfolioOutcome {
        let pick = |salt: usize, n: usize| {
            (i.wrapping_mul(2_654_435_761).wrapping_add(salt * 97) >> 7) % n
        };
        let feasible = pick(1, 4) != 0;
        let scale = if feasible { 1 + pick(2, 2) } else { 0 };
        PortfolioOutcome {
            platform: ["zcu106", "u250"][pick(3, 2)],
            clock_mhz: [100.0, 200.0][pick(4, 2)],
            outcome: DseOutcome {
                point: DsePoint {
                    k: TRICKY[pick(5, TRICKY.len())],
                    m: TRICKY[pick(6, TRICKY.len())],
                    sharing: pick(7, 2) == 0,
                    decoupled: pick(8, 2) == 0,
                    partition: [1, 2, 10][pick(9, 3)],
                },
                luts: 1_000 * scale,
                brams: 16 * scale,
                total_s: 0.25 * scale as f64,
                throughput_eps: 4_000.0 * scale as f64,
                feasible,
                ..generated_outcome(0)
            },
            utilization: 0.5 * scale as f64,
            pareto: false,
            service_pareto: false,
            cost_pareto: false,
        }
    }

    /// Rank of a portfolio's rows: feasible first, then by simulated
    /// time, fit, platform and clock; the label only ever breaks a full
    /// tie. The definition [`rank_order`] sorts by, under a stable sort.
    fn portfolio_order(a: &PortfolioOutcome, b: &PortfolioOutcome) -> Ordering {
        b.outcome
            .feasible
            .cmp(&a.outcome.feasible)
            .then_with(|| a.outcome.total_s.total_cmp(&b.outcome.total_s))
            .then_with(|| a.utilization.total_cmp(&b.utilization))
            .then_with(|| a.platform.cmp(b.platform))
            .then_with(|| a.clock_mhz.total_cmp(&b.clock_mhz))
            .then_with(|| a.outcome.point.cmp_label(&b.outcome.point))
    }

    /// [`rank_order`] of rows in no layout: the tie order the sweep
    /// derives from its blocks and points, here by a stable sort of the
    /// rows on (platform, clock, label).
    fn rank(rows: &[PortfolioOutcome]) -> Vec<u32> {
        let mut tie: Vec<u32> = (0..rows.len() as u32).collect();
        tie.sort_by(|&a, &b| {
            let (a, b) = (&rows[a as usize], &rows[b as usize]);
            (a.platform.cmp(b.platform))
                .then(a.clock_mhz.total_cmp(&b.clock_mhz))
                .then(a.outcome.point.cmp_label(&b.outcome.point))
        });
        rank_order(rows, tie)
    }

    /// The comparators `sort_by` ran before labels were compared
    /// without being formatted: every key eager, the label a `String`.
    #[test]
    fn ranking_orders_equal_the_eager_label_comparators() {
        let old_portfolio = |a: &PortfolioOutcome, b: &PortfolioOutcome| {
            b.outcome
                .feasible
                .cmp(&a.outcome.feasible)
                .then(a.outcome.total_s.total_cmp(&b.outcome.total_s))
                .then(a.utilization.total_cmp(&b.utilization))
                .then(a.platform.cmp(b.platform))
                .then(a.clock_mhz.total_cmp(&b.clock_mhz))
                .then(a.outcome.point.label().cmp(&b.outcome.point.label()))
        };
        // Everything `portfolio_order` reads before the label.
        let before_label = |o: &PortfolioOutcome| {
            let bits = [o.outcome.total_s, o.utilization, o.clock_mhz].map(f64::to_bits);
            (o.outcome.feasible, bits, o.platform)
        };
        let rows: Vec<PortfolioOutcome> = (0..400).map(tied_outcome).collect();
        let mut label_decided = 0;
        for a in &rows {
            for b in &rows {
                assert_eq!(portfolio_order(a, b), old_portfolio(a, b));
                label_decided += usize::from(
                    a.outcome.point != b.outcome.point && before_label(a) == before_label(b),
                );
            }
        }
        assert!(
            label_decided > 1_000,
            "only {label_decided} pairs reached the label"
        );
        let (mut new, mut old) = (rows.clone(), rows);
        new.sort_by(portfolio_order);
        old.sort_by(old_portfolio);
        let points = |rows: &[PortfolioOutcome]| -> Vec<String> {
            rows.iter()
                .map(|o| format!("{} {} {}", o.platform, o.clock_mhz, o.outcome.point.label()))
                .collect()
        };
        assert_eq!(points(&new), points(&old));

        // The key-sorted rank is the stable sort by `portfolio_order`, on
        // tied portfolios of every size up to 400 and on one whose rows
        // are all equal (the input order decides): both as the input
        // positions of the ranked rows.
        let portfolios = (0..=400)
            .step_by(19)
            .map(|n| (0..n).map(tied_outcome).collect());
        for rows in portfolios.chain([vec![tied_outcome(7); 50]]) {
            let mut stable: Vec<u32> = (0..rows.len() as u32).collect();
            stable.sort_by(|&a, &b| portfolio_order(&rows[a as usize], &rows[b as usize]));
            assert_eq!(rank(&rows), stable, "{} rows", rows.len());
        }
    }

    /// The rank key orders as `total_cmp` over both zeros, both
    /// infinities, subnormals, extremes and NaNs of either sign and any
    /// payload.
    #[test]
    fn total_order_bits_orders_as_total_cmp() {
        let values = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            1.0,
            -1.0,
            0.314_480_5,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff0_0000_0000_0001),
            f64::from_bits(u64::MAX),
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    total_order_bits(a).cmp(&total_order_bits(b)),
                    a.total_cmp(&b),
                    "{a:e} ({:#x}) vs {b:e} ({:#x})",
                    a.to_bits(),
                    b.to_bits()
                );
            }
        }
    }

    /// The definition `pareto_flags` sweeps for: quadratic, one
    /// dominance test per pair.
    fn pareto_flags_reference<const N: usize>(objectives: &[Option<[f64; N]>]) -> Vec<bool> {
        let dominated = |i: usize, p: &[f64; N]| {
            objectives.iter().enumerate().any(|(j, o)| match o {
                Some(q) => {
                    let no_worse = q.iter().zip(p).all(|(q, p)| q <= p);
                    let better = q.iter().zip(p).any(|(q, p)| q < p);
                    let same = q.iter().zip(p).all(|(q, p)| q == p);
                    (no_worse && better) || (j < i && same)
                }
                None => false,
            })
        };
        objectives
            .iter()
            .enumerate()
            .map(|(i, o)| o.as_ref().is_some_and(|p| !dominated(i, p)))
            .collect()
    }

    /// Objective sets drawn from few values: duplicates, `±0.0`,
    /// infeasible holes and the odd NaN (which neither dominates nor is
    /// dominated, in both forms).
    #[test]
    fn sort_and_sweep_pareto_equals_the_quadratic_definition() {
        const VALUES: [f64; 8] = [-0.0, 0.0, 0.25, 0.5, 1.0, -1.0, 3.0, f64::NAN];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % n
        };
        let mut frontier_sizes = 0;
        for round in 0..300 {
            let n = draw(40);
            // Rounds alternate between all eight values and the first
            // five, where NaN never shows.
            let span = if round % 2 == 0 { 8 } else { 5 };
            let two: Vec<Option<[f64; 2]>> = (0..n)
                .map(|_| (draw(5) != 0).then(|| [VALUES[draw(span)], VALUES[draw(span)]]))
                .collect();
            let three: Vec<Option<[f64; 3]>> = (0..n)
                .map(|_| {
                    (draw(5) != 0)
                        .then(|| [VALUES[draw(span)], VALUES[draw(span)], VALUES[draw(span)]])
                })
                .collect();
            let flags = pareto_flags(two.iter().copied());
            assert_eq!(flags, pareto_flags_reference(&two), "{two:?}");
            assert_eq!(
                pareto_flags(three.iter().copied()),
                pareto_flags_reference(&three),
                "{three:?}"
            );
            frontier_sizes += flags.iter().filter(|&&f| f).count();
        }
        assert!(frontier_sizes > 300);
        // First of identical objectives wins, -0.0 and 0.0 being identical.
        let tied = [None, Some([0.0, 1.0]), Some([-0.0, 1.0]), Some([0.0, 1.0])];
        assert_eq!(pareto_flags(tied.into_iter()), [false, true, false, false]);
    }

    /// The ranked, flagged portfolio by definition: each platform's
    /// latency and service flags by [`pareto_flags_reference`] over its
    /// rows in row order, a stable sort by [`portfolio_order`], the
    /// cost flags by [`pareto_flags_reference`] over the ranked rows,
    /// and each summary by counting.
    fn rank_portfolio_reference(
        platforms: &[Platform],
        mut rows: Vec<PortfolioOutcome>,
        layout: &Layout,
    ) -> (Vec<PortfolioOutcome>, Vec<PlatformSummary>) {
        let mut summaries = Vec::new();
        let mut start = 0;
        for (p, platform) in platforms.iter().enumerate() {
            let blocks = layout.blocks.iter().filter(|b| b.0 == p).count();
            let rows = &mut rows[start..start + blocks * layout.points.len()];
            start += rows.len();
            let latency: Vec<_> = (rows.iter())
                .map(|o| (o.outcome.feasible).then_some([o.outcome.total_s, o.utilization]))
                .collect();
            let service: Vec<_> = (rows.iter())
                .map(|o| {
                    let view = [
                        -o.outcome.service_rps,
                        o.outcome.service_p99_s,
                        o.utilization,
                    ];
                    o.outcome.feasible.then_some(view)
                })
                .collect();
            let flags = pareto_flags_reference(&latency);
            let service_flags = pareto_flags_reference(&service);
            for ((o, pareto), service_pareto) in rows.iter_mut().zip(flags).zip(service_flags) {
                (o.pareto, o.service_pareto) = (pareto, service_pareto);
            }
            let feasible = || rows.iter().filter(|o| o.outcome.feasible);
            summaries.push(PlatformSummary {
                platform: platform.id,
                board: platform.board.name.clone(),
                evaluated: rows.len(),
                feasible: feasible().count(),
                pareto_points: rows.iter().filter(|o| o.pareto).count(),
                best_total_s: feasible().map(|o| o.outcome.total_s).min_by(f64::total_cmp),
            });
        }
        rows.sort_by(portfolio_order);
        let cost: Vec<_> = (rows.iter())
            .map(|o| {
                (o.outcome.feasible && o.outcome.luts > 0)
                    .then(|| [-o.outcome.service_rps, -o.rps_per_kluts()])
            })
            .collect();
        for (o, flag) in rows.iter_mut().zip(pareto_flags_reference(&cost)) {
            o.cost_pareto = flag;
        }
        (rows, summaries)
    }

    /// `rank_portfolio` on `rows` (laid out by `layout`, probed as
    /// `probe_of` says) against [`rank_portfolio_reference`]: the same
    /// rows in the same order with the same flags, and the same
    /// summaries, compared through their `Debug` text (which tells
    /// `-0.0` from `0.0`).
    fn assert_ranks_as_defined(
        platforms: &[Platform],
        rows: Vec<PortfolioOutcome>,
        layout: &Layout,
        probe_of: &[u32],
        at: &str,
    ) {
        let (want, want_summaries) = rank_portfolio_reference(platforms, rows.clone(), layout);
        let mut got = rows;
        let summaries = rank_portfolio(platforms, &mut got, layout, probe_of);
        assert_eq!(
            format!("{summaries:?}"),
            format!("{want_summaries:?}"),
            "{at}"
        );
        for (i, (got, want)) in got.iter().zip(&want).enumerate() {
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{at}: rank {i}");
        }
        assert_eq!(got.len(), want.len(), "{at}");
    }

    /// A portfolio laid out as a sweep lays one out, with objectives
    /// drawn from few values each (`±0.0` and `∞` among them, and with
    /// `nan` set NaNs of either sign): three platforms, two of them
    /// sharing the id `zcu106` and a clock, one ladder repeating a clock,
    /// `grid`'s points, and `groups` probe groups, each one (req/s, p99)
    /// pair, with pairs shared between groups. Of the rows that fit,
    /// about one in ten fits unprobed (0 req/s, 0 p99, infinite time, as
    /// a round past the clock scores).
    fn drawn_portfolio(
        seed: u64,
        grid: &DseGrid,
        groups: usize,
        nan: bool,
    ) -> (Vec<Platform>, Vec<PortfolioOutcome>, Layout, Vec<u32>) {
        let nans = [f64::NAN, -f64::NAN];
        let values = |few: &[f64]| -> Vec<f64> {
            let extra = if nan { &nans[..] } else { &[] };
            few.iter().chain(extra).copied().collect()
        };
        let times = values(&[0.0, -0.0, 0.25, 0.5, 0.75, f64::INFINITY]);
        let fits = values(&[0.0, -0.0, 0.25, 0.5, 1.0, f64::INFINITY]);
        let rps = values(&[0.0, -0.0, 1.0, 4.0, f64::INFINITY]);
        let p99s = values(&[-0.0, 0.5, 1.0, f64::INFINITY]);
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut draw = |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % n
        };
        let mut platforms = vec![Platform::zcu106(), Platform::u250(), Platform::zcu106()];
        platforms[0].clock_ladder_mhz = vec![200.0, 100.0, 200.0];
        platforms[1].clock_ladder_mhz = vec![100.0, 250.0];
        platforms[2].clock_ladder_mhz = vec![100.0];
        let figures: Vec<(f64, f64)> = (0..groups)
            .map(|_| (rps[draw(rps.len())], p99s[draw(p99s.len())]))
            .collect();
        let blocks: Vec<(usize, f64)> = (platforms.iter().enumerate())
            .flat_map(|(p, platform)| platform.clock_ladder_mhz.iter().map(move |&c| (p, c)))
            .collect();
        let layout = Layout {
            blocks,
            points: grid.points(),
        };
        let mut rows = Vec::new();
        let mut probe_of = Vec::new();
        for &(p, clock_mhz) in &layout.blocks {
            for point in &layout.points {
                let feasible = draw(4) != 0;
                let probe = (feasible && draw(10) != 0).then(|| draw(groups));
                let (rps, p99) = probe.map_or((0.0, 0.0), |g| figures[g]);
                let time = match (feasible, probe) {
                    (false, _) => 0.0,
                    (true, None) => f64::INFINITY,
                    (true, Some(_)) => times[draw(times.len())],
                };
                rows.push(PortfolioOutcome {
                    platform: platforms[p].id,
                    clock_mhz,
                    outcome: DseOutcome {
                        point: *point,
                        feasible,
                        luts: if feasible {
                            [0, 1_000, 2_000, 4_000][draw(4)]
                        } else {
                            0
                        },
                        total_s: time,
                        service_rps: rps,
                        service_p99_s: p99,
                        ..generated_outcome(0)
                    },
                    utilization: if feasible {
                        fits[draw(fits.len())]
                    } else {
                        0.0
                    },
                    pareto: false,
                    service_pareto: false,
                    cost_pareto: false,
                });
                probe_of.push(probe.map_or(UNPROBED, |g| g as u32));
            }
        }
        (platforms, rows, layout, probe_of)
    }

    /// A grid of 32 points, eight of them twice (`k = 2` repeats), with
    /// labels that sort apart from their numbers (`k=10` before `k=2`).
    fn repeating_grid() -> DseGrid {
        DseGrid {
            k: vec![10, 2, 1, 2],
            batch: vec![1, 2],
            sharing: vec![true, false],
            decoupled: vec![true],
            partition: vec![1, 12],
        }
    }

    /// The one-sort rank and the per-probe frontiers are the definition
    /// on drawn portfolios — from one probe group shared by most rows to
    /// more groups than pairs of figures, every third with NaNs — and on
    /// the sweeps of
    /// helmholtz:11's dense grid and simstep:7's default grid over the
    /// catalog, at 1 and 4 jobs.
    #[test]
    fn rank_portfolio_equals_the_sorted_quadratic_definition() {
        for seed in 0..60 {
            let groups = [1, 2, 3, 8, 40][seed as usize % 5];
            let nan = seed % 3 == 2;
            let (platforms, rows, layout, probe_of) =
                drawn_portfolio(seed, &repeating_grid(), groups, nan);
            assert_ranks_as_defined(
                &platforms,
                rows,
                &layout,
                &probe_of,
                &format!("seed {seed}"),
            );
        }
        let catalog = Platform::catalog();
        let sources = [
            (cfdlang::examples::inverse_helmholtz(11), dense_grid()),
            (cfdlang::examples::simulation_step(7), DseGrid::default()),
        ];
        for (src, grid) in sources {
            let engine = DseEngine::prepare(&src, &ProgramOptions::default()).unwrap();
            for jobs in [1, 4] {
                let swept = engine.sweep(&catalog, &grid, jobs, 2_000);
                let at = format!("{} jobs={jobs}", engine.label());
                assert_ranks_as_defined(&catalog, swept.rows, &swept.layout, &swept.probe_of, &at);
            }
        }
    }

    /// 3 328 points, `k = 2` twice: 19 968 rows of a drawn portfolio.
    fn large_grid() -> DseGrid {
        DseGrid {
            k: (1..=25).chain([2]).collect(),
            batch: vec![1, 2, 4, 8],
            sharing: vec![true, false],
            decoupled: vec![true, false],
            partition: vec![1, 2, 3, 4, 6, 8, 12, 16],
        }
    }

    /// [`rank_portfolio_equals_the_sorted_quadratic_definition`] on
    /// drawn portfolios of about 20 000 rows with few distinct service
    /// outcomes (CI runs it in release).
    #[test]
    #[ignore = "about 20 000 rows per portfolio; run with --release --include-ignored"]
    fn rank_portfolio_equals_the_definition_on_large_portfolios() {
        let grid = large_grid();
        for (seed, groups) in [(1, 4), (2, 50), (3, 359)] {
            let (platforms, rows, layout, probe_of) = drawn_portfolio(seed, &grid, groups, false);
            assert_eq!(rows.len(), 19_968);
            assert_ranks_as_defined(
                &platforms,
                rows,
                &layout,
                &probe_of,
                &format!("seed {seed}"),
            );
        }
    }

    #[test]
    fn streaming_writers_reproduce_the_reference_emitters() {
        for (label, points) in LABELS
            .iter()
            .flat_map(|l| [0, 1, 2, 7, 100].map(|n| (l, n)))
        {
            let portfolio = generated_portfolio(label, points);
            assert_eq!(portfolio.summaries[2].best_total_s, None);
            let json = portfolio.to_json();
            assert_eq!(
                json,
                portfolio.to_json_reference(),
                "{label} {points} points"
            );
            runtime::json::validate(&json).unwrap();
            assert!(never_grew(&json, portfolio.evaluated));
        }
    }

    /// The reservation is at most 5 % above the document, and it is the
    /// header allowance plus every row's own full width.
    #[test]
    fn json_capacity_is_a_tight_upper_bound_on_a_4488_point_portfolio() {
        let portfolio = generated_portfolio(LABELS[2], 4_488);
        assert!(portfolio.pareto_frontier().len() > 1 && portfolio.cost_frontier().len() > 1);
        let json = portfolio.to_json();
        assert!(never_grew(&json, 4_488));
        assert!(json.capacity() as f64 <= 1.05 * json.len() as f64);
        assert_eq!(json.capacity(), full_row_reservation(&portfolio));
    }

    /// What `to_json` reserves, summed row by row with nothing repeated:
    /// the header allowance plus the [`json::width`] of every platform,
    /// frontier and outcome row on its own.
    fn full_row_reservation(report: &PortfolioReport) -> usize {
        let platforms = (report.summaries.iter()).map(|p| json::width(|w| p.json_row(w, "},\n")));
        let frontiers = FRONTIERS.iter().flat_map(|&(frontier, _)| {
            (report.frontier(frontier))
                .map(move |o| json::width(|w| o.frontier_row(w, frontier, "},\n")))
        });
        let rows = report.outcomes.iter().map(|o| {
            json::width(|w| o.portfolio_row(&report.label, w, "},\n", &mut LastRow::default()))
        });
        HEADER_BYTES + platforms.sum::<usize>() + frontiers.sum::<usize>() + rows.sum::<usize>()
    }

    /// `to_json` of `report` is the `format!`-per-row reference, in the
    /// full-row reservation; returns it.
    fn assert_json_as_defined(report: &PortfolioReport, at: &str) -> String {
        let json = report.to_json();
        assert!(json == report.to_json_reference(), "{at}");
        assert_eq!(json.capacity(), full_row_reservation(report), "{at}");
        json
    }

    /// A drawn portfolio ([`drawn_portfolio`]) whose ranked rows repeat
    /// each other's text in runs, with the cases a repeat could miss: the
    /// clocks 200 and 100 MHz become `-0.0` and `0.0`, which compare
    /// equal but print apart, and every seventh row's throughput differs
    /// from the others', so that spans equal but for one figure meet.
    fn json_portfolio(seed: u64, grid: &DseGrid, groups: usize, label: &str) -> PortfolioReport {
        let (platforms, mut rows, mut layout, probe_of) =
            drawn_portfolio(seed, grid, groups, seed % 3 == 2);
        let signed = |clock: f64| match clock {
            200.0 => -0.0,
            100.0 => 0.0,
            clock => clock,
        };
        for block in &mut layout.blocks {
            block.1 = signed(block.1);
        }
        for (i, o) in rows.iter_mut().enumerate() {
            o.clock_mhz = signed(o.clock_mhz);
            o.outcome.throughput_eps = if i % 7 == 0 { 2.5 } else { 4_000.0 };
        }
        report_of(label, &platforms, rows, &layout, &probe_of)
    }

    /// Adjacent ranked rows whose keyed segments are (equal, equal but
    /// for `-0.0` against `0.0` or one figure): how often a repeat is
    /// taken, and how often a wrong key would take one.
    fn runs(report: &PortfolioReport) -> [usize; 4] {
        let span = |o: &PortfolioOutcome| {
            let o = &o.outcome;
            [o.total_s, o.throughput_eps, o.service_rps, o.service_p99_s].map(f64::to_bits)
        };
        let mut counts = [0; 4];
        for pair in report.outcomes.windows(2) {
            let [a, b] = [&pair[0], &pair[1]];
            let same_place = a.platform == b.platform;
            counts[0] += usize::from(same_place && a.clock_mhz.to_bits() == b.clock_mhz.to_bits());
            counts[1] += usize::from(
                same_place
                    && a.clock_mhz.to_bits() != b.clock_mhz.to_bits()
                    && a.clock_mhz == b.clock_mhz,
            );
            let (a, b) = (span(a), span(b));
            counts[2] += usize::from(a == b);
            counts[3] += usize::from((0..4).filter(|&i| a[i] != b[i]).count() == 1);
        }
        counts
    }

    /// Labels of the writer's edge cases: the generated ones, a clean
    /// one longer than the row buffer and a long one that needs escaping.
    fn json_labels() -> Vec<String> {
        let long = "k".repeat(json::ROW + 1);
        let mut labels: Vec<String> = LABELS.iter().map(|l| l.to_string()).collect();
        labels.extend([long.clone(), format!("{long}\"{long}")]);
        labels
    }

    /// `to_json`, which repeats a row's prefix and service span where
    /// the previous row printed the same, is the `format!`-per-row
    /// reference: on drawn portfolios with long runs (one probe group)
    /// to short ones, NaNs, `±0.0`, `∞` and unprobed rows, under every
    /// edge-case label, and on helmholtz:11's dense and simstep:7's
    /// default catalog sweeps at 1 and 4 jobs.
    #[test]
    fn portfolio_json_equals_the_format_reference() {
        let mut counts = [0; 4];
        for (i, label) in json_labels().iter().enumerate() {
            for seed in 0..12 {
                let groups = [1, 2, 3, 8, 40][seed as usize % 5];
                let report =
                    json_portfolio(seed + 100 * i as u64, &repeating_grid(), groups, label);
                let at = format!("label {i}, seed {seed}");
                assert_json_as_defined(&report, &at);
                for (count, n) in counts.iter_mut().zip(runs(&report)) {
                    *count += n;
                }
            }
        }
        assert!(counts.iter().all(|&n| n > 1_000), "{counts:?}");
        let catalog = Platform::catalog();
        let sources = [
            (cfdlang::examples::inverse_helmholtz(11), dense_grid()),
            (cfdlang::examples::simulation_step(7), DseGrid::default()),
        ];
        for (src, grid) in sources {
            let engine = DseEngine::prepare(&src, &ProgramOptions::default()).unwrap();
            for jobs in [1, 4] {
                let report = engine.run_portfolio(&catalog, &grid, jobs, 2_000);
                let json =
                    assert_json_as_defined(&report, &format!("{} jobs={jobs}", report.label));
                runtime::json::validate(&json).unwrap();
            }
        }
    }

    /// [`portfolio_json_equals_the_format_reference`] on drawn portfolios
    /// of about 20 000 rows (CI runs it in release).
    #[test]
    #[ignore = "about 20 000 rows per portfolio; run with --release --include-ignored"]
    fn portfolio_json_equals_the_reference_on_large_portfolios() {
        let grid = large_grid();
        for (seed, groups) in [(1, 4), (2, 50), (3, 359)] {
            let report = json_portfolio(seed, &grid, groups, LABELS[1]);
            assert_eq!(report.evaluated, 19_968);
            assert_json_as_defined(&report, &format!("seed {seed}"));
        }
    }

    /// A one-board sweep's table says "1 platform"; a catalog's counts
    /// its platforms.
    #[test]
    fn a_one_board_table_names_one_platform() {
        let src = cfdlang::examples::inverse_helmholtz(4);
        let engine = DseEngine::prepare(&src, &ProgramOptions::default()).unwrap();
        let board = Platform {
            clock_ladder_mhz: vec![200.0],
            ..Platform::zcu106()
        };
        let header = |platforms: &[Platform]| {
            let report = engine.run_portfolio(platforms, &repeating_grid(), 1, 1_000);
            let table = report.render_table();
            table.lines().next().unwrap().to_string()
        };
        assert!(header(&[board]).starts_with("portfolio: 1 platform, 32 combinations ("));
        let catalog = Platform::catalog();
        let many = format!("portfolio: {} platforms, ", catalog.len());
        assert!(header(&catalog).starts_with(&many));
    }
}
