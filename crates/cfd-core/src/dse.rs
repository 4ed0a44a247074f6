//! Parallel design-space exploration over the staged pipeline.
//!
//! The paper's evaluation is fundamentally a sweep over the replication
//! and memory parameters (k, m, PLM sharing, decoupling, array
//! partitioning). With the monolithic flow each of those design points
//! re-ran the frontend and middle end from source; here a [`DseEngine`]
//! compiles source through [`Pipeline::schedule`] exactly once, compiles
//! each distinct backend once, and **scores** the `(k, m)` points
//! against it across a scoped worker pool.
//!
//! There is one engine. A source of any kernel count is prepared as a
//! program ([`DseEngine::prepare`] takes [`FlowOptions`] or
//! [`ProgramOptions`]), and a single kernel is the one-kernel program.
//! A grid point's backend slot is every kernel's backend plus the merged
//! program memory — except that a one-kernel slot skips the merge: its
//! merged memory and host byte interface are its backend's own
//! (`one_kernel_slot_equals_its_merged_program` pins that), and merging
//! would only cost allocations on the hot path of every single-kernel
//! sweep. Every scored point counts one system-stage invocation.
//!
//! On top of the single-board sweep, [`DseEngine::run_portfolio`]
//! crosses the grid with a **platform catalog and each platform's
//! fabric-clock ladder**: backends are memoized per (clock, backend
//! options), every combination is costed under its platform's Eq. (3)
//! budget, and the [`PortfolioReport`] marks each platform's Pareto
//! frontier over (simulated time, resource fit) — the
//! heterogeneous-portfolio view: pick the node that fits the job.
//!
//! **Invariant: a sweep row equals what `cfdc compile` + `cfdc
//! simulate` + `cfdc serve` would report for that design.** A point is
//! never built — no `SystemDesign`, host program or host source, and a
//! backend slot emits no kernel C text ([`Backend`] carries none) — but
//! its feasibility and totals come from `sysgen::Totals::fit`, the
//! function `SystemDesign::build` and `MultiSystemDesign::build` decide
//! with; its simulated time from `zynq::ProgramRound::price`, which
//! `simulate_hw`, `simulate_program` and `program_round` price their
//! rounds with (the serial total is a checked product: a row past the
//! `u64` clock reads infinite, and the report counts it in
//! `ticks_overflows`); and its service figures from the stream
//! scheduler's clean fold on that round, reporting to a summary sink
//! that keeps two numbers ([`zynq::summarize_round_stream`]).
//! `score_equals_build_simulate_and_probe` holds the invariant bit for
//! bit over every catalog platform, ladder clock and point of a
//! kernel's and a program's sweeps, infeasible rows included.
//!
//! ```
//! use cfd_core::dse::{DseEngine, DseGrid};
//! use cfd_core::FlowOptions;
//!
//! let src = cfdlang::examples::inverse_helmholtz(4);
//! let engine = DseEngine::prepare(&src, &FlowOptions::default()).unwrap();
//! let grid = DseGrid {
//!     k: vec![1, 2],
//!     batch: vec![1],
//!     sharing: vec![true],
//!     decoupled: vec![true, false],
//!     partition: vec![1],
//! };
//! let report = engine.run(&grid, 2, 1_000);
//! assert_eq!(report.outcomes.len(), 4);
//! // The shared stages ran once, regardless of grid size or jobs.
//! assert_eq!(engine.pipeline().counters().frontend, 1);
//! assert_eq!(engine.pipeline().counters().middle_end, 1);
//! ```

use std::cmp::Ordering;
use std::fmt::{self, Write};
use std::sync::Arc;
use std::time::Instant;

use mnemosyne::MemorySubsystem;
use runtime::json::{self, row_end, Line, Sink};
use sysgen::{Platform, SystemConfig, Totals};
use teil::TensorKind;
use zynq::des::to_secs;
use zynq::{fan_out, resolve_jobs, ProgramRound, SimConfig};

use crate::cache::{CacheCounters, CompileCache};
use crate::pipeline::{Backend, Pipeline, Scheduled, StageCounts, StageTimings};
use crate::program::{ProgramBuild, ProgramOptions};
use crate::{FlowError, FlowOptions};

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

    /// The order of the two points' [`DsePoint::label`]s as strings
    /// (so `"k=10 …" < "k=2 …"`), without formatting them: the label is
    /// its fields in order, every number is followed by a space or the
    /// end of the string — both sort before any digit — and `false` <
    /// `true` as words and as `bool`s.
    fn cmp_label(&self, other: &DsePoint) -> Ordering {
        cmp_decimal_text(self.k as u64, other.k as u64)
            .then_with(|| cmp_decimal_text(self.m as u64, other.m as u64))
            .then_with(|| self.sharing.cmp(&other.sharing))
            .then_with(|| self.decoupled.cmp(&other.decoupled))
            .then_with(|| cmp_decimal_text(self.partition.into(), other.partition.into()))
    }

    /// The backend-relevant subset of the point: grid axes that only
    /// differ in system-stage knobs (`k`, `m`) share one compiled
    /// backend (kernel, HLS estimate, memory subsystem).
    fn backend_key(&self) -> (bool, bool, u32) {
        (self.sharing, self.decoupled, self.partition)
    }
}

/// Order of the decimal spellings of `a` and `b` as strings, where a
/// proper prefix sorts first: pad the shorter with zeros to the longer's
/// width, compare as numbers, and let the digit count break a tie
/// (`"1" < "10" < "2"`).
fn cmp_decimal_text(a: u64, b: u64) -> Ordering {
    let digits = |n: u64| n.checked_ilog10().map_or(1, |d| d + 1);
    let (da, db) = (digits(a), digits(b));
    let padded = |n: u64, d: u32| u128::from(n) * 10u128.pow(da.max(db) - d);
    padded(a, da).cmp(&padded(b, db)).then(da.cmp(&db))
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

/// Evaluation result for one design point.
#[derive(Debug, Clone)]
pub struct DseOutcome {
    pub point: DsePoint,
    /// Kernel (or joined program-kernel) name the point was evaluated
    /// on — sweep rows are labelled by name, not bare grid index.
    pub kernel: String,
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
    /// Wall-clock seconds spent evaluating this point.
    pub eval_s: f64,
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
/// what the scheduler reads of it: its priced round under the default
/// [`SimConfig`], `ks` and `m`.
fn service_probe(round: &ProgramRound, ks: &[usize], m: usize) -> (f64, f64) {
    // Everything arrives at tick 0: a request's latency is the tick it
    // completes at.
    let summary = zynq::summarize_round_stream(
        round,
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

/// Ranked sweep results plus the evidence that the shared stages ran
/// only once.
#[derive(Debug, Clone)]
pub struct DseReport {
    /// Outcomes ranked best-first: feasible before infeasible, then by
    /// throughput, then by BRAM and LUT cost.
    pub outcomes: Vec<DseOutcome>,
    pub evaluated: usize,
    pub feasible: usize,
    pub jobs: usize,
    /// Element count every point was simulated with.
    pub elements: usize,
    /// Wall-clock seconds for the whole sweep (excluding `prepare`).
    pub wall_s: f64,
    /// Cost of the shared frontend/middle-end/schedule stages.
    pub shared: StageTimings,
    /// Stage-invocation counters after the sweep.
    pub counts: StageCounts,
    /// Compile-cache counters (all zero for an uncached engine).
    pub cache: CacheCounters,
    /// Polyhedra-oracle counters accumulated over the sweep (delta of
    /// the process totals across `run`).
    pub oracle: polyhedra::OracleCounters,
    /// Unique backend configurations compiled during the sweep.
    pub backend_compiles: usize,
    /// Points that reused a memoized backend instead of recompiling.
    pub backend_reuses: usize,
    /// Wall-clock seconds spent compiling the unique backends.
    pub backend_s: f64,
    /// Sum of per-point evaluation times (system stage + simulation)
    /// across all workers — CPU time, not wall-clock.
    pub eval_total_s: f64,
    /// Mean per-point evaluation time.
    pub eval_mean_s: f64,
    /// Slowest single point.
    pub eval_max_s: f64,
    /// Rows whose simulated time ran past the simulator's `u64` clock
    /// (their `total_s` is infinite). Not printed: `cfdc explore`
    /// refuses to print a report with any.
    pub ticks_overflows: usize,
}

impl DseReport {
    /// The best-ranked feasible outcome, if any.
    pub fn best(&self) -> Option<&DseOutcome> {
        self.outcomes.first().filter(|o| o.feasible)
    }

    /// Render as an aligned text table.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{} configurations ({} feasible), {} jobs, sweep {:.3} s, shared stages {:.3} s, \
             {} backends compiled ({} reused), point eval {:.3} s total / {:.4} s mean\n",
            self.evaluated,
            self.feasible,
            self.jobs,
            self.wall_s,
            self.shared.total_s(),
            self.backend_compiles,
            self.backend_reuses,
            self.eval_total_s,
            self.eval_mean_s,
        ));
        let name_w = self
            .outcomes
            .iter()
            .map(|o| o.kernel.len())
            .max()
            .unwrap_or(6)
            .max(6);
        s.push_str(&format!(
            "  {:<name_w$}   k    m  share  decouple  part      LUT      FF   DSP   BRAM    el/s   req/s  feasible\n",
            "kernel"
        ));
        for o in &self.outcomes {
            let p = &o.point;
            s.push_str(&format!(
                "  {:<name_w$}  {:>2}  {:>3}  {:>5}  {:>8}  {:>4}  {:>7}  {:>6}  {:>4}  {:>5}  {:>6.0}  {:>6.0}  {}\n",
                o.kernel,
                p.k,
                p.m,
                p.sharing,
                p.decoupled,
                p.partition,
                o.luts,
                o.ffs,
                o.dsps,
                o.brams,
                o.throughput_eps,
                o.service_rps,
                if o.feasible { "yes" } else { "no" },
            ));
        }
        s
    }

    /// Serialize the report as JSON through the `runtime::json` writer,
    /// into one buffer reserved up front.
    pub fn to_json(&self) -> String {
        let rows = (self.outcomes.iter()).map(|o| json::width(|w| o.sweep_row(w, "},\n")));
        let mut out = String::with_capacity(HEADER_BYTES + rows.sum::<usize>());
        self.write_json(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Append the document, trailing newline included, to `out`. The
    /// outcome loop does not allocate.
    fn write_json(&self, out: &mut String) -> fmt::Result {
        write!(
            out,
            "{{\n  \"evaluated\": {},\n  \"feasible\": {},\n  \"jobs\": {},\n  \"elements\": {},\n  \
             \"wall_s\": {:.6},\n  \
             \"shared_stages\": {{\"frontend_s\": {:.6}, \"middle_end_s\": {:.6}, \"schedule_s\": {:.6}}},\n  \
             \"stage_invocations\": {{\"frontend\": {}, \"middle_end\": {}, \"schedule\": {}, \"backend\": {}, \"system\": {}}},\n  \
             \"backend_cache\": {{\"compiles\": {}, \"reuses\": {}, \"compile_s\": {:.6}}},\n",
            self.evaluated,
            self.feasible,
            self.jobs,
            self.elements,
            self.wall_s,
            self.shared.frontend_s,
            self.shared.middle_end_s,
            self.shared.schedule_s,
            self.counts.frontend,
            self.counts.middle_end,
            self.counts.schedule,
            self.counts.backend,
            self.counts.system,
            self.backend_compiles,
            self.backend_reuses,
            self.backend_s,
        )?;
        write_caches(out, &self.cache, &self.oracle)?;
        write!(
            out,
            "  \"eval_timing\": {{\"total_s\": {:.6}, \"mean_s\": {:.6}, \"max_s\": {:.6}}},\n  \"outcomes\": [\n",
            self.eval_total_s, self.eval_mean_s, self.eval_max_s
        )?;
        let mut line = Line::new(out);
        for (i, o) in self.outcomes.iter().enumerate() {
            o.sweep_row(&mut line, row_end(i, self.outcomes.len()));
            line.flush();
        }
        out.push_str("  ]\n}\n");
        Ok(())
    }
}

/// Allowance for a DSE report's header: about 1 KB of literals and up
/// to 30 numbers.
const HEADER_BYTES: usize = 2_048;

/// The `compile_cache` and `polyhedra` header lines of both reports.
fn write_caches(
    out: &mut String,
    cache: &CacheCounters,
    oracle: &polyhedra::OracleCounters,
) -> fmt::Result {
    write!(
        out,
        "  \"compile_cache\": {cache},\n  \"polyhedra\": {oracle},\n"
    )
}

impl DseOutcome {
    /// `"k"` through `"service_p99_s"`, behind the kernel name: the
    /// fields a sweep row and a portfolio row share.
    #[inline]
    fn json_fields<S: Sink>(&self, s: &mut S) {
        let p = &self.point;
        s.lit("\", \"k\": ");
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
        s.flag(self.feasible);
        s.lit(", \"luts\": ");
        s.int(self.luts as u64);
        s.lit(", \"ffs\": ");
        s.int(self.ffs as u64);
        s.lit(", \"dsps\": ");
        s.int(self.dsps as u64);
        s.lit(", \"brams\": ");
        s.int(self.brams as u64);
        s.lit(", \"plm_brams\": ");
        s.int(self.plm_brams as u64);
        s.lit(", \"latency_cycles\": ");
        s.int(self.latency_cycles);
        s.lit(", \"total_s\": ");
        s.fixed(self.total_s, 6);
        s.lit(", \"throughput_eps\": ");
        s.fixed(self.throughput_eps, 3);
        s.lit(", \"service_rps\": ");
        s.fixed(self.service_rps, 3);
        s.lit(", \"service_p99_s\": ");
        s.fixed(self.service_p99_s, 6);
    }

    /// A sweep row: the kernel name, the shared fields, the point's
    /// evaluation time, closed by `end`.
    #[inline]
    fn sweep_row<S: Sink>(&self, s: &mut S, end: &str) {
        s.lit("    {\"kernel\": \"");
        s.str(&self.kernel);
        self.json_fields(s);
        s.lit(", \"eval_s\": ");
        s.fixed(self.eval_s, 6);
        s.lit(end);
    }
}

/// Everything of a design point that does not depend on `(k, m)`: one
/// backend slot's per-stage HLS reports, merged memory subsystem and
/// external byte interface. A single kernel is a one-stage program
/// (what `MultiSystemDesign::from_single` asserts), so kernels and
/// programs score through the same parts.
struct ScoreParts {
    stages: Vec<hls::HlsReport>,
    /// `latency_seconds()` of each stage.
    kernel_s: Vec<f64>,
    memory: MemorySubsystem,
    bytes_in_per_element: usize,
    bytes_out_per_element: usize,
}

impl ScoreParts {
    fn new(stages: Vec<hls::HlsReport>, memory: MemorySubsystem, bytes: (usize, usize)) -> Self {
        ScoreParts {
            kernel_s: stages.iter().map(|r| r.latency_seconds()).collect(),
            stages,
            memory,
            bytes_in_per_element: bytes.0,
            bytes_out_per_element: bytes.1,
        }
    }

    /// The parts of a single-kernel backend; the kernel IR is dropped
    /// here.
    fn of_kernel(be: Backend) -> ScoreParts {
        let bytes = sysgen::HostProgram::interface_bytes([&be.kernel], |_, _| true);
        ScoreParts::new(vec![be.hls_report], be.memory, bytes)
    }

    /// The parts of a program's merged build.
    fn of_program(build: ProgramBuild) -> ScoreParts {
        let bytes = (build.bytes_in_per_element, build.bytes_out_per_element);
        let stages = build.stages.into_iter().map(|(_, report)| report);
        ScoreParts::new(stages.collect(), build.memory, bytes)
    }
}

/// What a sweep row reports of a design that fits.
#[derive(Default)]
struct Score {
    totals: Totals,
    total_s: f64,
    service_rps: f64,
    service_p99_s: f64,
}

/// Score `k` accelerators per stage over `m` PLM sets of `parts` on
/// `platform` without building the design: `None` when Eq. (3) rejects
/// it (or `(k, m)` is not a valid replication), else the totals, the
/// simulated time for `elements` elements and the service probe — from
/// the functions the system builders and simulators themselves call
/// ([`Totals::fit`], [`ProgramRound::price`], the stream scheduler).
fn score(
    parts: &ScoreParts,
    platform: &Platform,
    k: usize,
    m: usize,
    elements: usize,
) -> Option<Score> {
    if !(SystemConfig { k, m }).valid() {
        return None;
    }
    let stages = parts.stages.iter().map(|report| (k, report));
    let totals = Totals::fit(platform, stages, &parts.memory, m)?;
    let round = ProgramRound::price(
        &platform.dma,
        &SimConfig::default(),
        parts.kernel_s.iter().map(|&s| (k, s)),
        m,
        parts.bytes_in_per_element,
        parts.bytes_out_per_element,
    );
    // Uniform replication: one `k` speaks for every stage.
    let (service_rps, service_p99_s) = service_probe(&round, &[k], m);
    Some(Score {
        totals,
        total_s: round
            .serial_ticks(m, elements)
            .map_or(f64::INFINITY, to_secs),
        service_rps,
        service_p99_s,
    })
}

/// The sweep row of one point: its [`score`], zeros when it does not
/// fit.
fn outcome(
    label: &str,
    parts: &ScoreParts,
    platform: &Platform,
    point: &DsePoint,
    elements: usize,
    started: Instant,
) -> DseOutcome {
    let scored = score(parts, platform, point.k, point.m, elements);
    let feasible = scored.is_some();
    let s = scored.unwrap_or_default();
    DseOutcome {
        point: *point,
        kernel: label.to_string(),
        feasible,
        luts: s.totals.luts,
        ffs: s.totals.ffs,
        dsps: s.totals.dsps,
        brams: s.totals.brams,
        plm_brams: parts.memory.brams,
        latency_cycles: parts.stages.iter().map(|r| r.latency_cycles).sum(),
        total_s: s.total_s,
        throughput_eps: if s.total_s > 0.0 {
            elements as f64 / s.total_s
        } else {
            0.0
        },
        service_rps: s.service_rps,
        service_p99_s: s.service_p99_s,
        eval_s: started.elapsed().as_secs_f64(),
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

/// `opts` with a point's backend axes applied. A partition factor > 1
/// overrides the partition set; factor 1 means "as the base options
/// say", so any base partitioning is left untouched.
fn apply_backend_axes(opts: &mut FlowOptions, point: &DsePoint, target: &Option<String>) {
    opts.decoupled = point.decoupled;
    opts.memory.sharing = point.sharing;
    if point.partition > 1 {
        if let Some(name) = target {
            opts.hls.partition = vec![(name.clone(), point.partition)];
        }
    }
}

/// The exploration engine. Every kernel's shared stages (frontend,
/// middle end, schedule) and the cross-kernel link stage run once at
/// [`DseEngine::prepare`]; one grid point then fixes the backend axes
/// (sharing, decoupling, partitioning) for *every* kernel plus a
/// uniform replication `k`/`m`, and the whole chain is costed under the
/// shared board budget. Backends are memoized on **(kernel, backend
/// key)**. A single kernel is the one-kernel program.
#[derive(Debug)]
pub struct DseEngine {
    pipeline: Pipeline,
    base: ProgramOptions,
    names: Vec<String>,
    scheds: Vec<Scheduled>,
    cross: Arc<pschedule::CrossLiveness>,
    /// Largest input array per kernel (the `partition` axis target).
    partition_targets: Vec<Option<String>>,
    /// Wall-clock cost of the shared stages.
    shared: StageTimings,
}

/// [`DseEngine`] under its multi-kernel name, for callers that still
/// use it.
pub type ProgramDseEngine = DseEngine;

impl DseEngine {
    /// Compile every kernel's shared stages plus the link stage once.
    /// `base` — [`FlowOptions`] or [`ProgramOptions`] — supplies
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
        let shared = StageTimings::shared(&fronts, &scheds, &link);
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
            shared,
        })
    }

    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Kernel names in execution order.
    pub fn kernel_names(&self) -> &[String] {
        &self.names
    }

    /// The label sweep rows carry: the kernel names joined by `+`.
    pub fn label(&self) -> String {
        self.names.join("+")
    }

    /// The first kernel's shared scheduling-stage output (a single
    /// kernel's only one).
    pub fn scheduled(&self) -> &Scheduled {
        &self.scheds[0]
    }

    /// Kernel `i`'s backend for `point`'s backend axes at `clock_mhz`.
    fn backend_at(&self, i: usize, clock_mhz: f64, point: &DsePoint) -> Backend {
        let mut opts = self.base.flow.clone();
        opts.hls.clock_mhz = clock_mhz;
        apply_backend_axes(&mut opts, point, &self.partition_targets[i]);
        self.pipeline.backend(&self.scheds[i], &opts)
    }

    /// Every kernel's backend for `point`'s backend axes at `clock_mhz`
    /// plus the merged program memory, through the [`ProgramBuild`]
    /// construction `ProgramFlow::compile` uses, so sweep rankings
    /// always match what a real compile would build.
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
    fn parts(&self, clock_mhz: f64, point: &DsePoint) -> ScoreParts {
        if self.scheds.len() == 1 {
            ScoreParts::of_kernel(self.backend_at(0, clock_mhz, point))
        } else {
            ScoreParts::of_program(self.build_at(clock_mhz, point))
        }
    }

    /// The one sweep driver: cross `targets` (a platform and the clocks
    /// to synthesize at) with the grid, compile each distinct (clock,
    /// backend key) slot once — it is shared across platforms and
    /// `k`/`m` — score every combination against its slot and pass the
    /// outcome through `row`. Slots and rows are computed by
    /// [`fan_out`], so the result is independent of `jobs`. Every scored
    /// point counts one system-stage invocation.
    fn sweep<R: Send>(
        &self,
        targets: &[(&Platform, &[f64])],
        grid: &DseGrid,
        jobs: usize,
        elements: usize,
        row: impl Fn(&Platform, f64, DseOutcome) -> R + Sync,
    ) -> Swept<R> {
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
        // Combinations are platform-major: one block of all points per
        // (platform, clock, index of the clock).
        let mut blocks: Vec<(usize, f64, usize)> = Vec::new();
        for (platform, (_, ladder)) in targets.iter().enumerate() {
            for &mhz in ladder.iter() {
                let clock = index_of(&mut clocks, |c| c.to_bits() == mhz.to_bits(), mhz);
                blocks.push((platform, mhz, clock));
            }
        }
        let combos = blocks.len() * points.len();
        let jobs = resolve_jobs(jobs).min(combos.max(1));
        let oracle_base = polyhedra::OracleCounters::snapshot();
        let started = Instant::now();

        let parts = fan_out(jobs, clocks.len() * reps.len(), |slot| {
            self.parts(clocks[slot / reps.len()], &reps[slot % reps.len()])
        });
        let backend_s = started.elapsed().as_secs_f64();

        let label = self.label();
        let rows = fan_out(jobs, combos, |i| {
            let t = Instant::now();
            let (platform, mhz, clock) = blocks[i / points.len()];
            let point = i % points.len();
            let parts = &parts[clock * reps.len() + key_of[point]];
            let platform = targets[platform].0;
            row(
                platform,
                mhz,
                outcome(&label, parts, platform, &points[point], elements, t),
            )
        });
        self.pipeline.count_systems(combos);
        Swept {
            rows,
            platform_of: (0..combos).map(|i| blocks[i / points.len()].0).collect(),
            jobs,
            backend_compiles: parts.len() * self.scheds.len(),
            backend_uses: combos * self.scheds.len(),
            backend_s,
            started,
            oracle_base,
        }
    }

    /// Sweep the grid on the base platform at the base clock with `jobs`
    /// worker threads (0 = one per available core) and return the
    /// report, ranked feasible-first, then by throughput, BRAM and LUT
    /// cost.
    ///
    /// Backends are **memoized on the backend-relevant point subset**
    /// (kernel, sharing, decoupling, partitioning): grid points that
    /// differ only in the system-stage knobs `k`/`m` share one compiled
    /// kernel, HLS estimate and memory subsystem, and are scored against
    /// it without building a system. The default 32-point grid compiles
    /// 4 backends per kernel.
    pub fn run(&self, grid: &DseGrid, jobs: usize, elements: usize) -> DseReport {
        let base = &self.base.flow;
        let target = (&base.platform, &[base.hls.clock_mhz][..]);
        let swept = self.sweep(&[target], grid, jobs, elements, |_, _, o| o);
        let mut outcomes = swept.rows;
        outcomes.sort_by(sweep_order);
        let eval_total_s: f64 = outcomes.iter().map(|o| o.eval_s).sum();
        DseReport {
            evaluated: outcomes.len(),
            feasible: outcomes.iter().filter(|o| o.feasible).count(),
            jobs: swept.jobs,
            elements,
            wall_s: swept.started.elapsed().as_secs_f64(),
            shared: self.shared,
            counts: self.pipeline.counters(),
            cache: self.pipeline.cache_counters(),
            oracle: polyhedra::OracleCounters::snapshot().since(swept.oracle_base),
            backend_compiles: swept.backend_compiles,
            backend_reuses: swept.backend_uses - swept.backend_compiles,
            backend_s: swept.backend_s,
            eval_total_s,
            eval_mean_s: if outcomes.is_empty() {
                0.0
            } else {
                eval_total_s / outcomes.len() as f64
            },
            eval_max_s: outcomes.iter().map(|o| o.eval_s).fold(0.0, f64::max),
            ticks_overflows: overflows(outcomes.iter()),
            outcomes,
        }
    }

    /// Sweep the **platform × clock × (k, m, sharing, decoupling,
    /// partition)** cross product: the multi-board portfolio view, every
    /// platform's clock ladder crossed with the grid, Pareto-flagged per
    /// platform and ranked. The shared stages stay compiled once (from
    /// [`DseEngine::prepare`]); backends are memoized per **(kernel,
    /// clock, backend key)** — a backend compiled at 200 MHz is reused
    /// across every platform whose ladder contains 200 MHz and every
    /// `k`/`m`.
    pub fn run_portfolio(
        &self,
        platforms: &[Platform],
        grid: &DseGrid,
        jobs: usize,
        elements: usize,
    ) -> PortfolioReport {
        let targets: Vec<(&Platform, &[f64])> = platforms
            .iter()
            .map(|p| (p, p.clock_ladder_mhz.as_slice()))
            .collect();
        let row = |platform: &Platform, clock_mhz: f64, outcome: DseOutcome| {
            let totals = Totals {
                luts: outcome.luts,
                ffs: outcome.ffs,
                dsps: outcome.dsps,
                brams: outcome.brams,
            };
            PortfolioOutcome {
                platform: platform.id.clone(),
                board: platform.board.name.clone(),
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
        };
        let swept = self.sweep(&targets, grid, jobs, elements, row);
        let (outcomes, summaries) = rank_portfolio(platforms, swept.rows, &swept.platform_of);
        PortfolioReport {
            evaluated: outcomes.len(),
            feasible: summaries.iter().map(|s| s.feasible).sum(),
            jobs: swept.jobs,
            elements,
            wall_s: swept.started.elapsed().as_secs_f64(),
            backend_compiles: swept.backend_compiles,
            backend_reuses: swept.backend_uses.saturating_sub(swept.backend_compiles),
            cache: self.pipeline.cache_counters(),
            oracle: polyhedra::OracleCounters::snapshot().since(swept.oracle_base),
            summaries,
            ticks_overflows: overflows(outcomes.iter().map(|o| &o.outcome)),
            outcomes,
        }
    }
}

/// Rows whose simulated time did not fit the clock.
fn overflows<'a>(rows: impl Iterator<Item = &'a DseOutcome>) -> usize {
    rows.filter(|o| o.total_s == f64::INFINITY).count()
}

/// What [`DseEngine::sweep`] hands the report builders.
struct Swept<R> {
    /// Row `i` is combination `i`'s, in platform-major combination
    /// order.
    rows: Vec<R>,
    /// Platform index of each row.
    platform_of: Vec<usize>,
    jobs: usize,
    backend_compiles: usize,
    backend_uses: usize,
    backend_s: f64,
    started: Instant,
    oracle_base: polyhedra::OracleCounters,
}

/// Index of the element of `seen` that `same` accepts, `new` being
/// appended when there is none.
fn index_of<T>(seen: &mut Vec<T>, same: impl Fn(&T) -> bool, new: T) -> usize {
    seen.iter().position(same).unwrap_or_else(|| {
        seen.push(new);
        seen.len() - 1
    })
}

/// Rank of a sweep's rows: feasible first, then by throughput, BRAM and
/// LUT cost; the label only ever breaks a full tie.
fn sweep_order(a: &DseOutcome, b: &DseOutcome) -> Ordering {
    b.feasible
        .cmp(&a.feasible)
        .then_with(|| b.throughput_eps.total_cmp(&a.throughput_eps))
        .then_with(|| a.brams.cmp(&b.brams))
        .then_with(|| a.luts.cmp(&b.luts))
        .then_with(|| a.point.cmp_label(&b.point))
}

// ---------------------------------------------------------------------
// Multi-board portfolio exploration
// ---------------------------------------------------------------------

/// One platform × clock × grid-point outcome of a portfolio sweep.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// Catalog id of the platform (`zcu106`, `pynq-z2`, ...).
    pub platform: String,
    /// Display name of the board.
    pub board: String,
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
    pub platform: String,
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
    /// Outcomes ranked feasible-first, then by simulated time.
    pub outcomes: Vec<PortfolioOutcome>,
    pub summaries: Vec<PlatformSummary>,
    pub evaluated: usize,
    pub feasible: usize,
    pub jobs: usize,
    pub elements: usize,
    pub wall_s: f64,
    /// Unique (clock, backend-option) combinations compiled.
    pub backend_compiles: usize,
    /// Evaluations that reused a memoized backend.
    pub backend_reuses: usize,
    /// Compile-cache counters (all zero for an uncached engine).
    pub cache: CacheCounters,
    /// Polyhedra-oracle counters accumulated over the sweep.
    pub oracle: polyhedra::OracleCounters,
    /// Rows whose simulated time ran past the simulator's `u64` clock,
    /// as in [`DseReport::ticks_overflows`].
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
/// lexicographically (the stable sort keeps input order among
/// identical points), and whatever is dominated is dominated by a
/// frontier point. So walk the points in that order and keep each one
/// that no frontier point found so far is `<=` in every objective.
/// `pareto_flags_reference` in the tests is the quadratic definition.
fn pareto_flags<const N: usize>(objectives: &[Option<[f64; N]>]) -> Vec<bool> {
    // `+ 0.0` folds -0.0 into 0.0, which `<=` already treats as equal.
    let at = |i: usize| objectives[i].expect("feasible").map(|x| x + 0.0);
    let mut order: Vec<usize> = (0..objectives.len())
        .filter(|&i| objectives[i].is_some())
        .collect();
    order.sort_by(|&a, &b| {
        let by_axis = at(a).into_iter().zip(at(b)).map(|(x, y)| x.total_cmp(&y));
        by_axis
            .into_iter()
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    let mut flags = vec![false; objectives.len()];
    let mut frontier: Vec<[f64; N]> = Vec::new();
    for i in order {
        let p = at(i);
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

/// Flag each platform's Pareto points — the latency view over
/// (total_s, utilization) and the service view over (requests/sec ↑,
/// p99 ↓, utilization ↓), in the order the rows arrive in — then rank
/// the rows feasible-first by simulated time and summarize each
/// platform. `platform_of[i]` is the index into `platforms` of row `i`.
fn rank_portfolio(
    platforms: &[Platform],
    mut outcomes: Vec<PortfolioOutcome>,
    platform_of: &[usize],
) -> (Vec<PortfolioOutcome>, Vec<PlatformSummary>) {
    let mut rows_of: Vec<Vec<usize>> = vec![Vec::new(); platforms.len()];
    for (i, &p) in platform_of.iter().enumerate() {
        rows_of[p].push(i);
    }
    let summaries = platforms
        .iter()
        .zip(&rows_of)
        .map(|(p, rows)| {
            let feasible = |&&i: &&usize| outcomes[i].outcome.feasible;
            let latency = rows.iter().map(|&i| {
                let o = &outcomes[i];
                o.outcome
                    .feasible
                    .then_some([o.outcome.total_s, o.utilization])
            });
            let service = rows.iter().map(|&i| {
                let o = &outcomes[i];
                let view = [
                    -o.outcome.service_rps,
                    o.outcome.service_p99_s,
                    o.utilization,
                ];
                o.outcome.feasible.then_some(view)
            });
            let pareto = pareto_flags(&latency.collect::<Vec<_>>());
            let service_pareto = pareto_flags(&service.collect::<Vec<_>>());
            let summary = PlatformSummary {
                platform: p.id.clone(),
                board: p.board.name.clone(),
                evaluated: rows.len(),
                feasible: rows.iter().filter(feasible).count(),
                pareto_points: pareto.iter().filter(|&&flag| flag).count(),
                best_total_s: rows
                    .iter()
                    .filter(feasible)
                    .map(|&i| outcomes[i].outcome.total_s)
                    .min_by(f64::total_cmp),
            };
            for ((&i, pareto), service_pareto) in rows.iter().zip(pareto).zip(service_pareto) {
                outcomes[i].pareto = pareto;
                outcomes[i].service_pareto = service_pareto;
            }
            summary
        })
        .collect();
    outcomes.sort_by(portfolio_order);
    let cost: Vec<_> = (outcomes.iter())
        .map(|o| {
            (o.outcome.feasible && o.outcome.luts > 0)
                .then(|| [-o.outcome.service_rps, -o.rps_per_kluts()])
        })
        .collect();
    for (o, flag) in outcomes.iter_mut().zip(pareto_flags(&cost)) {
        o.cost_pareto = flag;
    }
    (outcomes, summaries)
}

/// Rank of a portfolio's rows: feasible first, then by simulated time,
/// fit, platform and clock; the label only ever breaks a full tie.
fn portfolio_order(a: &PortfolioOutcome, b: &PortfolioOutcome) -> Ordering {
    b.outcome
        .feasible
        .cmp(&a.outcome.feasible)
        .then_with(|| a.outcome.total_s.total_cmp(&b.outcome.total_s))
        .then_with(|| a.utilization.total_cmp(&b.utilization))
        .then_with(|| a.platform.cmp(&b.platform))
        .then_with(|| a.clock_mhz.total_cmp(&b.clock_mhz))
        .then_with(|| a.outcome.point.cmp_label(&b.outcome.point))
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
        s.push_str(&format!(
            "portfolio: {} platforms, {} combinations ({} feasible), {} jobs, {:.3} s, \
             {} backends compiled ({} reused)\n",
            self.summaries.len(),
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
        let rows = (self.outcomes.iter()).map(|o| json::width(|w| o.portfolio_row(w, "},\n")));
        let bytes = platforms.sum::<usize>() + frontiers.sum::<usize>() + rows.sum::<usize>();
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
        write_caches(out, &self.cache, &self.oracle)?;
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
        let mut line = Line::new(out);
        for (i, o) in self.outcomes.iter().enumerate() {
            o.portfolio_row(&mut line, row_end(i, self.outcomes.len()));
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

impl PlatformSummary {
    /// The `platforms` row, closed by `end`.
    fn json_row<S: Sink>(&self, s: &mut S, end: &str) {
        s.lit("    {\"platform\": \"");
        s.str(&self.platform);
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
    /// Requests per second per thousand design LUTs.
    fn rps_per_kluts(&self) -> f64 {
        self.outcome.service_rps / (self.outcome.luts as f64 / 1000.0)
    }

    /// An outcome row: the point's label and kernel, the shared
    /// [`DseOutcome`] fields, the fit and the frontier flags, closed by
    /// `end`.
    #[inline]
    fn portfolio_row<S: Sink>(&self, s: &mut S, end: &str) {
        s.lit("    {\"platform\": \"");
        s.str(&self.platform);
        s.lit("\", \"clock_mhz\": ");
        s.fixed(self.clock_mhz, 1);
        s.lit(", \"kernel\": \"");
        s.str(&self.outcome.kernel);
        self.outcome.json_fields(s);
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
        s.str(&self.platform);
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

    impl DseReport {
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
                "  \"shared_stages\": {{\"frontend_s\": {:.6}, \"middle_end_s\": {:.6}, \"schedule_s\": {:.6}}},\n",
                self.shared.frontend_s, self.shared.middle_end_s, self.shared.schedule_s
            ));
            s.push_str(&format!(
                "  \"stage_invocations\": {{\"frontend\": {}, \"middle_end\": {}, \"schedule\": {}, \"backend\": {}, \"system\": {}}},\n",
                self.counts.frontend,
                self.counts.middle_end,
                self.counts.schedule,
                self.counts.backend,
                self.counts.system
            ));
            s.push_str(&format!(
                "  \"backend_cache\": {{\"compiles\": {}, \"reuses\": {}, \"compile_s\": {:.6}}},\n",
                self.backend_compiles, self.backend_reuses, self.backend_s
            ));
            s.push_str(&format!(
                "  \"compile_cache\": {{\"hits\": {}, \"disk_hits\": {}, \"misses\": {}, \"stores\": {}, \"invalidations\": {}}},\n",
                self.cache.hits,
                self.cache.disk_hits,
                self.cache.misses,
                self.cache.stores,
                self.cache.invalidations
            ));
            s.push_str(&format!("  \"polyhedra\": {},\n", self.oracle));
            s.push_str(&format!(
                "  \"eval_timing\": {{\"total_s\": {:.6}, \"mean_s\": {:.6}, \"max_s\": {:.6}}},\n",
                self.eval_total_s, self.eval_mean_s, self.eval_max_s
            ));
            s.push_str("  \"outcomes\": [\n");
            for (i, o) in self.outcomes.iter().enumerate() {
                let p = &o.point;
                s.push_str(&format!(
                    "    {{\"kernel\": \"{}\", \"k\": {}, \"m\": {}, \"sharing\": {}, \"decoupled\": {}, \"partition\": {}, \
                     \"feasible\": {}, \"luts\": {}, \"ffs\": {}, \"dsps\": {}, \"brams\": {}, \
                     \"plm_brams\": {}, \"latency_cycles\": {}, \"total_s\": {:.6}, \"throughput_eps\": {:.3}, \
                     \"service_rps\": {:.3}, \"service_p99_s\": {:.6}, \"eval_s\": {:.6}}}{}\n",
                    runtime::json_escape(&o.kernel),
                    p.k,
                    p.m,
                    p.sharing,
                    p.decoupled,
                    p.partition,
                    o.feasible,
                    o.luts,
                    o.ffs,
                    o.dsps,
                    o.brams,
                    o.plm_brams,
                    o.latency_cycles,
                    o.total_s,
                    o.throughput_eps,
                    o.service_rps,
                    o.service_p99_s,
                    o.eval_s,
                    if i + 1 == self.outcomes.len() { "" } else { "," },
                ));
            }
            s.push_str("  ]\n}\n");
            s
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
            s.push_str(&format!("  \"polyhedra\": {},\n", self.oracle));
            s.push_str("  \"platforms\": [\n");
            for (i, p) in self.summaries.iter().enumerate() {
                s.push_str(&format!(
                    "    {{\"platform\": \"{}\", \"board\": \"{}\", \"evaluated\": {}, \
                     \"feasible\": {}, \"pareto_points\": {}, \"best_total_s\": {}}}{}\n",
                    runtime::json_escape(&p.platform),
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
                    runtime::json_escape(&o.platform),
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
                    runtime::json_escape(&o.platform),
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
                    runtime::json_escape(&o.platform),
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
                    runtime::json_escape(&o.platform),
                    o.clock_mhz,
                    runtime::json_escape(&o.outcome.kernel),
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

    /// Outcome `i` of a generated sweep: every third one infeasible
    /// (zeros), a hostile kernel name, widths that vary with `i`.
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
            kernel: ["main", "inverse_helmholtz+axpy", "k\"\\\n\u{3}é"][i % 3].into(),
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
            eval_s: 1.25e-4 * (1 + i % 11) as f64,
        }
    }

    fn generated_sweep(points: usize) -> DseReport {
        DseReport {
            outcomes: (0..points).map(generated_outcome).collect(),
            evaluated: points,
            feasible: points - points.div_ceil(3),
            jobs: 2,
            elements: 10_000,
            wall_s: 0.123_456_5,
            shared: StageTimings {
                frontend_s: 0.001,
                middle_end_s: 0.0625,
                schedule_s: 1.5,
                ..StageTimings::default()
            },
            counts: StageCounts {
                frontend: 1,
                backend: 8,
                system: points,
                ..StageCounts::default()
            },
            cache: CacheCounters {
                hits: 3,
                stores: points,
                ..CacheCounters::default()
            },
            oracle: polyhedra::OracleCounters {
                corner_hits: 221,
                memo_misses: u64::MAX,
                ..Default::default()
            },
            backend_compiles: 8,
            backend_reuses: points.saturating_sub(8),
            backend_s: 0.5,
            eval_total_s: 2.0,
            eval_mean_s: 0.0078125,
            eval_max_s: 0.25,
            ticks_overflows: 0,
        }
    }

    /// A portfolio over `points` generated outcomes on three platforms
    /// (one hostile name, one where nothing fits), flagged and ranked by
    /// `rank_portfolio`.
    fn generated_portfolio(points: usize) -> PortfolioReport {
        let mut platforms = vec![Platform::zcu106(), Platform::zcu106(), Platform::zcu106()];
        platforms[1].id = "pynq\"z2\\".into();
        platforms[2].id = "empty".into();
        let outcomes = (0..points)
            .map(|i| PortfolioOutcome {
                platform: platforms[i % 2].id.clone(),
                board: platforms[i % 2].board.name.clone(),
                clock_mhz: [100.0, 142.5, 333.25][i % 3],
                outcome: generated_outcome(i),
                // Every fourth an odd multiple of 2^-5: a dyadic tie at
                // the four digits `utilization` prints.
                utilization: if i % 4 == 3 {
                    (i % 32) as f64 / 32.0
                } else {
                    (i % 1_000) as f64 / 999.0
                },
                pareto: false,
                service_pareto: false,
                cost_pareto: false,
            })
            .collect();
        let platform_of: Vec<usize> = (0..points).map(|i| i % 2).collect();
        let (outcomes, summaries) = rank_portfolio(&platforms, outcomes, &platform_of);
        let sweep = generated_sweep(0);
        PortfolioReport {
            evaluated: points,
            feasible: summaries.iter().map(|s| s.feasible).sum(),
            jobs: 2,
            elements: 10_000,
            wall_s: sweep.wall_s,
            backend_compiles: 8,
            backend_reuses: points.saturating_sub(8),
            cache: sweep.cache,
            oracle: sweep.oracle,
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
            let (rps, p99_s) = service_probe(&round, &design.config.ks, design.config.m);
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
        service_probe(&round, &design.config.ks, design.config.m)
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
        let dense = DseGrid {
            k: vec![1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16],
            batch: vec![1, 2, 4],
            sharing: vec![true, false],
            decoupled: vec![true, false],
            partition: vec![1, 2],
        };
        assert_eq!(dense.points().len(), 264);
        let src = cfdlang::examples::inverse_helmholtz(11);
        let engine = DseEngine::prepare(&src, &FlowOptions::default()).unwrap();
        let (mut fit, mut unfit) = (0, 0);
        for platform in Platform::catalog() {
            for &clock in &platform.clock_ladder_mhz {
                let mut slots: Vec<((bool, bool, u32), Backend, ScoreParts)> = Vec::new();
                for point in dense.points() {
                    let key = point.backend_key();
                    if !slots.iter().any(|(k, ..)| *k == key) {
                        let be = engine.backend_at(0, clock, &point);
                        slots.push((key, be.clone(), ScoreParts::of_kernel(be)));
                    }
                    let (_, be, parts) = slots.iter().find(|(k, ..)| *k == key).unwrap();
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
                    let row = outcome("main", parts, &platform, &point, ELEMENTS, Instant::now());
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
                    let plm_brams = build.memory.brams;
                    let latency = build.stages.iter().map(|(_, r)| r.latency_cycles).sum();
                    let parts = ScoreParts::of_program(build);
                    let row = outcome("step", &parts, &platform, &point, ELEMENTS, Instant::now());
                    let at = format!("{} @ {clock} MHz, {}", platform.id, point.label());
                    assert_row_matches(&row, built, plm_brams, latency, ELEMENTS, &at);
                }
            }
        }
        assert!(fit > 100 && unfit > 10, "{fit} fit, {unfit} do not");
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
                    let kernel = ScoreParts::of_kernel(engine.backend_at(0, clock, &point));
                    let program = ScoreParts::of_program(engine.build_at(clock, &point));
                    let view = |p: &ScoreParts| {
                        let latency: Vec<u64> = p.stages.iter().map(|r| r.latency_cycles).collect();
                        let kernel_s: Vec<u64> = p.kernel_s.iter().map(|s| s.to_bits()).collect();
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
            let parts = engine.parts(base.hls.clock_mhz, &point);
            let row = outcome(
                &engine.label(),
                &parts,
                &base.platform,
                &point,
                100,
                Instant::now(),
            );
            assert!(
                !row.feasible && row.total_s == 0.0 && row.plm_brams > 0,
                "k={k} m={m}"
            );
        }
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
            platform: ["zcu106", "u250"][pick(3, 2)].into(),
            board: String::new(),
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

    /// The comparators `sort_by` ran before labels were compared
    /// without being formatted: every key eager, the label a `String`.
    #[test]
    fn ranking_orders_equal_the_eager_label_comparators() {
        let old_sweep = |a: &DseOutcome, b: &DseOutcome| {
            b.feasible
                .cmp(&a.feasible)
                .then(b.throughput_eps.total_cmp(&a.throughput_eps))
                .then(a.brams.cmp(&b.brams))
                .then(a.luts.cmp(&b.luts))
                .then(a.point.label().cmp(&b.point.label()))
        };
        let old_portfolio = |a: &PortfolioOutcome, b: &PortfolioOutcome| {
            b.outcome
                .feasible
                .cmp(&a.outcome.feasible)
                .then(a.outcome.total_s.total_cmp(&b.outcome.total_s))
                .then(a.utilization.total_cmp(&b.utilization))
                .then(a.platform.cmp(&b.platform))
                .then(a.clock_mhz.total_cmp(&b.clock_mhz))
                .then(a.outcome.point.label().cmp(&b.outcome.point.label()))
        };
        let rows: Vec<PortfolioOutcome> = (0..400).map(tied_outcome).collect();
        let mut label_decided = 0;
        for a in &rows {
            for b in &rows {
                assert_eq!(portfolio_order(a, b), old_portfolio(a, b));
                assert_eq!(
                    sweep_order(&a.outcome, &b.outcome),
                    old_sweep(&a.outcome, &b.outcome)
                );
                let tie_but_label = a.outcome.point != b.outcome.point
                    && old_sweep(&a.outcome, &b.outcome)
                        == a.outcome.point.label().cmp(&b.outcome.point.label());
                label_decided += usize::from(
                    tie_but_label
                        && a.outcome.brams == b.outcome.brams
                        && a.outcome.feasible == b.outcome.feasible,
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
            let flags = pareto_flags(&two);
            assert_eq!(flags, pareto_flags_reference(&two), "{two:?}");
            assert_eq!(
                pareto_flags(&three),
                pareto_flags_reference(&three),
                "{three:?}"
            );
            frontier_sizes += flags.iter().filter(|&&f| f).count();
        }
        assert!(frontier_sizes > 300);
        // First of identical objectives wins, -0.0 and 0.0 being identical.
        let tied = [None, Some([0.0, 1.0]), Some([-0.0, 1.0]), Some([0.0, 1.0])];
        assert_eq!(pareto_flags(&tied), [false, true, false, false]);
    }

    #[test]
    fn streaming_writers_reproduce_the_reference_emitters() {
        for points in [0, 1, 2, 7, 100] {
            let sweep = generated_sweep(points);
            let json = sweep.to_json();
            assert_eq!(json, sweep.to_json_reference(), "{points} points");
            runtime::json::validate(&json).unwrap();
            assert!(never_grew(&json, points));

            let portfolio = generated_portfolio(points);
            assert_eq!(portfolio.summaries[2].best_total_s, None);
            let json = portfolio.to_json();
            assert_eq!(json, portfolio.to_json_reference(), "{points} points");
            runtime::json::validate(&json).unwrap();
            assert!(never_grew(&json, points));
        }
    }

    /// The reservation is at most 5 % above the document.
    #[test]
    fn json_capacity_is_a_tight_upper_bound_on_a_4488_point_portfolio() {
        let portfolio = generated_portfolio(4_488);
        assert!(portfolio.pareto_frontier().len() > 1 && portfolio.cost_frontier().len() > 1);
        for json in [portfolio.to_json(), generated_sweep(4_488).to_json()] {
            assert!(never_grew(&json, 4_488));
            assert!(json.capacity() as f64 <= 1.05 * json.len() as f64);
        }
    }
}
