//! Parallel design-space exploration over the staged pipeline.
//!
//! The paper's evaluation is fundamentally a sweep over the replication
//! and memory parameters (k, m, PLM sharing, decoupling, array
//! partitioning). With the monolithic flow each of those design points
//! re-ran the frontend and middle end from source; here a [`DseEngine`]
//! compiles source through [`Pipeline::schedule`] exactly once and fans
//! the per-point backend/system stages out across a scoped worker pool.
//!
//! On top of the single-board sweep, [`DseEngine::run_portfolio`] (and
//! its program twin) crosses the grid with a **platform catalog and
//! each platform's fabric-clock ladder**: backends are memoized per
//! (clock, backend options), every combination is costed under its
//! platform's Eq. (3) budget, and the [`PortfolioReport`] marks each
//! platform's Pareto frontier over (simulated time, resource fit) —
//! the heterogeneous-portfolio view: pick the node that fits the job.
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

use std::fmt::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use runtime::json::{fields_len, push_fields, row_end, Row, Val};
use sysgen::{Platform, SystemConfig};
use teil::TensorKind;
use zynq::des::to_secs;
use zynq::SimConfig;

use crate::cache::{CacheCounters, CompileCache};
use crate::pipeline::{Backend, Pipeline, Scheduled, StageCounts, StageTimings};
use crate::{Artifacts, FlowError, FlowOptions};

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

    /// The backend-relevant subset of the point: grid axes that only
    /// differ in system-stage knobs (`k`, `m`) share one compiled
    /// backend (kernel, HLS estimate, memory subsystem).
    fn backend_key(&self) -> BackendKey {
        BackendKey {
            sharing: self.sharing,
            decoupled: self.decoupled,
            partition: self.partition,
        }
    }
}

/// Key identifying a unique backend compilation within a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BackendKey {
    sharing: bool,
    decoupled: bool,
    partition: u32,
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
    /// Simulated end-to-end time for the report's element count.
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
/// `Auto` batch policy (fill `m`) with double-buffered DMA. The two
/// numbers are read straight off the scheduler's outcome — no requests,
/// no report — and are, bit for bit, the `throughput_rps` and
/// `latency_p99_s` a timing-only `runtime::serve` of that backlog
/// reports (`service_probe_reads_what_serve_reports`), so the ones
/// `cfdc serve` would print for the same design.
fn service_probe(design: &sysgen::MultiSystemDesign) -> (f64, f64) {
    let stream = zynq::simulate_online_stream(
        design,
        &SimConfig::default(),
        &[0; SERVICE_PROBE_REQUESTS],
        design.config.m,
        true,
        &zynq::FaultPlan::none(),
        &runtime::RecoveryPolicy::default().to_spec(),
        &zynq::OnlineSpec::fifo(),
    )
    .fault;
    // Everything arrived at tick 0: a request's latency is the tick it
    // resolved at.
    let mut latency_ticks = stream.resolved_ticks;
    latency_ticks.sort_unstable();
    let makespan_s = to_secs(stream.stream.makespan_ticks);
    let throughput_rps = if makespan_s > 0.0 {
        SERVICE_PROBE_REQUESTS as f64 / makespan_s
    } else {
        0.0
    };
    let p99_s = to_secs(runtime::percentile(&latency_ticks, 0.99));
    (throughput_rps, p99_s)
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
        let rows = self.outcomes.iter().map(|o| o.sweep_row(row_len));
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
        for (i, o) in self.outcomes.iter().enumerate() {
            o.sweep_row(|parts| parts.iter().for_each(|part| push_fields(out, part)));
            out.push_str(row_end(i, self.outcomes.len()));
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
        "  \"compile_cache\": {{\"hits\": {}, \"disk_hits\": {}, \"misses\": {}, \"stores\": {}, \"invalidations\": {}}},\n  \"polyhedra\": {},\n",
        cache.hits,
        cache.disk_hits,
        cache.misses,
        cache.stores,
        cache.invalidations,
        oracle.json()
    )
}

type Field<'a> = (&'static str, Val<'a>);

impl DseOutcome {
    /// `"k"` through `"service_p99_s"`, behind the kernel name's closing
    /// quote: the fields a sweep row and a portfolio row share.
    fn json_fields(&self) -> [Field<'_>; 16] {
        let p = &self.point;
        [
            ("\", \"k\": ", Val::Int(p.k as u64)),
            (", \"m\": ", Val::Int(p.m as u64)),
            (", \"sharing\": ", Val::Flag(p.sharing)),
            (", \"decoupled\": ", Val::Flag(p.decoupled)),
            (", \"partition\": ", Val::Int(p.partition.into())),
            (", \"feasible\": ", Val::Flag(self.feasible)),
            (", \"luts\": ", Val::Int(self.luts as u64)),
            (", \"ffs\": ", Val::Int(self.ffs as u64)),
            (", \"dsps\": ", Val::Int(self.dsps as u64)),
            (", \"brams\": ", Val::Int(self.brams as u64)),
            (", \"plm_brams\": ", Val::Int(self.plm_brams as u64)),
            (", \"latency_cycles\": ", Val::Int(self.latency_cycles)),
            (", \"total_s\": ", Val::Fixed(self.total_s, 6)),
            (", \"throughput_eps\": ", Val::Fixed(self.throughput_eps, 3)),
            (", \"service_rps\": ", Val::Fixed(self.service_rps, 3)),
            (", \"service_p99_s\": ", Val::Fixed(self.service_p99_s, 6)),
        ]
    }

    /// A sweep row: the kernel name, the shared fields, the point's
    /// evaluation time.
    fn sweep_row<R>(&self, visit: impl FnOnce(&[&[Field<'_>]]) -> R) -> R {
        visit(&[
            &[("    {\"kernel\": \"", Val::Str(&self.kernel))],
            &self.json_fields(),
            &[(", \"eval_s\": ", Val::Fixed(self.eval_s, 6))],
        ])
    }
}

/// Upper bound on the bytes of a row made of `parts`, closed by
/// [`row_end`].
fn row_len(parts: &[&[Field<'_>]]) -> usize {
    parts.iter().map(|part| fields_len(part)).sum::<usize>() + "},\n".len()
}

/// The exploration engine: source is compiled through the scheduling
/// stage exactly once at [`DseEngine::prepare`]; every design point then
/// reuses the shared [`Scheduled`] artifacts.
#[derive(Debug)]
pub struct DseEngine {
    pipeline: Pipeline,
    base: FlowOptions,
    scheduled: Scheduled,
    frontend_s: f64,
    /// Kernel name the sweep rows are labelled with.
    kernel_name: String,
    /// Name of the kernel's largest input array: the target for the
    /// `partition` axis of the grid.
    partition_target: Option<String>,
}

impl DseEngine {
    /// Compile the shared stages (frontend → middle end → schedule) once.
    /// `base` supplies everything the grid does not vary: scheduler and
    /// canonicalization options, board, HLS clock, element count.
    /// Multi-kernel sources are rejected — use [`ProgramDseEngine`].
    pub fn prepare(source: &str, base: &FlowOptions) -> Result<DseEngine, FlowError> {
        DseEngine::prepare_on(Pipeline::new(), source, base)
    }

    /// Like [`DseEngine::prepare`], with the shared stages memoized
    /// through a [`CompileCache`] — a warm cache skips the scheduling
    /// stage entirely, so repeated explorations of unchanged source pay
    /// only frontend + middle end.
    pub fn prepare_cached(
        source: &str,
        base: &FlowOptions,
        cache: std::sync::Arc<CompileCache>,
    ) -> Result<DseEngine, FlowError> {
        DseEngine::prepare_on(Pipeline::with_cache(cache), source, base)
    }

    fn prepare_on(
        pipeline: Pipeline,
        source: &str,
        base: &FlowOptions,
    ) -> Result<DseEngine, FlowError> {
        let set = cfdlang::parse_set(source)?;
        if set.is_multi() {
            return Err(FlowError::Backend(
                "multi-kernel program source: use ProgramDseEngine for joint sweeps".into(),
            ));
        }
        let kernel_name = set
            .kernels
            .first()
            .map(|k| k.name.clone())
            .unwrap_or_else(|| "main".to_string());
        let fe = pipeline.frontend(source)?;
        let me = pipeline.middle_end(&fe, base)?;
        let sc = pipeline.schedule(&me, base);
        let module = &sc.middle.module;
        let partition_target = module
            .of_kind(TensorKind::Input)
            .into_iter()
            .max_by_key(|&id| module.shape(id).iter().product::<usize>())
            .map(|id| module.name(id).to_string());
        Ok(DseEngine {
            pipeline,
            base: base.clone(),
            scheduled: sc,
            frontend_s: fe.elapsed_s,
            kernel_name,
            partition_target,
        })
    }

    /// Kernel name the sweep is labelled with.
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }

    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The shared scheduling-stage output every point starts from.
    pub fn scheduled(&self) -> &Scheduled {
        &self.scheduled
    }

    /// Wall-clock cost of the shared stages.
    pub fn shared_timings(&self) -> StageTimings {
        StageTimings {
            frontend_s: self.frontend_s,
            middle_end_s: self.scheduled.middle.elapsed_s,
            schedule_s: self.scheduled.elapsed_s,
            ..Default::default()
        }
    }

    /// The flow options for one design point: the engine's base options
    /// with the point's backend/system axes applied.
    pub fn options_for(&self, point: &DsePoint) -> FlowOptions {
        let mut opts = self.base.clone();
        opts.decoupled = point.decoupled;
        opts.memory.sharing = point.sharing;
        // A factor > 1 overrides the partition set; factor 1 means "as the
        // base options say", so any base partitioning is left untouched.
        if point.partition > 1 {
            if let Some(name) = &self.partition_target {
                opts.hls.partition = vec![(name.clone(), point.partition)];
            }
        }
        opts.system = Some(SystemConfig {
            k: point.k,
            m: point.m,
        });
        opts
    }

    /// Run the backend + system stages for one point and simulate the
    /// result. Never re-runs the shared stages. (Point-wise API: compiles
    /// the point's backend inline; [`DseEngine::run`] memoizes backends
    /// across the grid instead.)
    pub fn evaluate(&self, point: &DsePoint, elements: usize) -> DseOutcome {
        let t = Instant::now();
        let opts = self.options_for(point);
        let be = self.pipeline.backend(&self.scheduled, &opts);
        self.evaluate_with_backend(point, &opts, &be, elements, t)
    }

    /// System stage + simulation for one point against an
    /// already-compiled backend.
    fn evaluate_with_backend(
        &self,
        point: &DsePoint,
        opts: &FlowOptions,
        be: &Backend,
        elements: usize,
        started: Instant,
    ) -> DseOutcome {
        let sys = match self.pipeline.system(be, opts) {
            Ok(sys) => sys.system,
            // DoesNotFit (and any future system-stage error) marks the
            // point infeasible rather than aborting the sweep.
            Err(_) => None,
        };
        match sys {
            Some(design) => {
                let sim = zynq::simulate_hw(
                    &design,
                    &SimConfig {
                        elements,
                        ..Default::default()
                    },
                );
                let (service_rps, service_p99_s) =
                    service_probe(&sysgen::MultiSystemDesign::from_single(&design));
                DseOutcome {
                    point: *point,
                    kernel: self.kernel_name.clone(),
                    feasible: true,
                    luts: design.luts,
                    ffs: design.ffs,
                    dsps: design.dsps,
                    brams: design.brams,
                    plm_brams: be.memory.brams,
                    latency_cycles: be.hls_report.latency_cycles,
                    total_s: sim.total_s,
                    throughput_eps: if sim.total_s > 0.0 {
                        elements as f64 / sim.total_s
                    } else {
                        0.0
                    },
                    service_rps,
                    service_p99_s,
                    eval_s: started.elapsed().as_secs_f64(),
                }
            }
            None => DseOutcome {
                point: *point,
                kernel: self.kernel_name.clone(),
                feasible: false,
                luts: 0,
                ffs: 0,
                dsps: 0,
                brams: 0,
                plm_brams: be.memory.brams,
                latency_cycles: be.hls_report.latency_cycles,
                total_s: 0.0,
                throughput_eps: 0.0,
                service_rps: 0.0,
                service_p99_s: 0.0,
                eval_s: started.elapsed().as_secs_f64(),
            },
        }
    }

    /// Sweep the grid with `jobs` worker threads (0 = one per available
    /// core) and return the ranked report.
    ///
    /// Backends are **memoized on the backend-relevant point subset**
    /// (sharing, decoupling, partitioning): grid points that differ only
    /// in the system-stage knobs `k`/`m` share one compiled kernel, HLS
    /// estimate and memory subsystem. Each worker accumulates outcomes in
    /// its own buffer — no shared lock on the hot path.
    pub fn run(&self, grid: &DseGrid, jobs: usize, elements: usize) -> DseReport {
        let points = grid.points();
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(1)
        } else {
            jobs
        }
        .min(points.len().max(1));
        let oracle_base = polyhedra::OracleCounters::snapshot();
        let t = Instant::now();

        // Unique backend configurations, first-seen order.
        let mut keys: Vec<BackendKey> = Vec::new();
        let mut key_of_point: Vec<usize> = Vec::with_capacity(points.len());
        for p in &points {
            let k = p.backend_key();
            let idx = keys.iter().position(|&e| e == k).unwrap_or_else(|| {
                keys.push(k);
                keys.len() - 1
            });
            key_of_point.push(idx);
        }
        // Representative options per key (k/m axes are irrelevant to the
        // backend stage).
        let key_opts: Vec<FlowOptions> = keys
            .iter()
            .map(|k| {
                let rep = points
                    .iter()
                    .find(|p| p.backend_key() == *k)
                    .expect("key from points");
                self.options_for(rep)
            })
            .collect();

        // Compile the unique backends on the worker pool: worker `w`
        // takes keys w, w+stride, ... and returns them with their index.
        let t_backend = Instant::now();
        let backends: Vec<Backend> = {
            let workers = jobs.min(keys.len()).max(1);
            let mut indexed: Vec<(usize, Backend)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let key_opts = &key_opts;
                        scope.spawn(move || {
                            (w..key_opts.len())
                                .step_by(workers)
                                .map(|i| (i, self.pipeline.backend(&self.scheduled, &key_opts[i])))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("backend worker panicked"))
                    .collect()
            });
            indexed.sort_by_key(|(i, _)| *i);
            indexed.into_iter().map(|(_, be)| be).collect()
        };
        let backend_s = t_backend.elapsed().as_secs_f64();

        // Fan the system stage + simulation out over the points, one
        // outcome buffer per worker.
        let next = AtomicUsize::new(0);
        let mut outcomes: Vec<DseOutcome> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(jobs);
            for _ in 0..jobs {
                let next = &next;
                let points = &points;
                let key_of_point = &key_of_point;
                let key_opts = &key_opts;
                let backends = &backends;
                handles.push(scope.spawn(move || {
                    let mut local: Vec<DseOutcome> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= points.len() {
                            break local;
                        }
                        let started = Instant::now();
                        let ki = key_of_point[i];
                        // The representative options only differ from the
                        // point's in k/m — pass the point's own system
                        // config through.
                        let mut opts = key_opts[ki].clone();
                        opts.system = Some(sysgen::SystemConfig {
                            k: points[i].k,
                            m: points[i].m,
                        });
                        local.push(self.evaluate_with_backend(
                            &points[i],
                            &opts,
                            &backends[ki],
                            elements,
                            started,
                        ));
                    }
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        outcomes.sort_by(|a, b| {
            b.feasible
                .cmp(&a.feasible)
                .then(b.throughput_eps.total_cmp(&a.throughput_eps))
                .then(a.brams.cmp(&b.brams))
                .then(a.luts.cmp(&b.luts))
                .then(a.point.label().cmp(&b.point.label()))
        });
        let feasible = outcomes.iter().filter(|o| o.feasible).count();
        let eval_total_s: f64 = outcomes.iter().map(|o| o.eval_s).sum();
        let eval_max_s = outcomes.iter().map(|o| o.eval_s).fold(0.0, f64::max);
        DseReport {
            evaluated: outcomes.len(),
            feasible,
            jobs,
            elements,
            wall_s: t.elapsed().as_secs_f64(),
            shared: self.shared_timings(),
            counts: self.pipeline.counters(),
            cache: self.pipeline.cache_counters(),
            oracle: polyhedra::OracleCounters::snapshot().since(oracle_base),
            backend_compiles: keys.len(),
            backend_reuses: points.len() - keys.len(),
            backend_s,
            eval_total_s,
            eval_mean_s: if outcomes.is_empty() {
                0.0
            } else {
                eval_total_s / outcomes.len() as f64
            },
            eval_max_s,
            outcomes,
        }
    }

    /// Build full [`Artifacts`] for one option combination on top of the
    /// shared stages — the cheap replacement for `Flow::compile` when
    /// only backend/system options differ from the engine's base (the
    /// canonicalization and scheduler axes are taken from the base, not
    /// from `opts`).
    pub fn artifacts_for(&self, opts: &FlowOptions) -> Result<Artifacts, FlowError> {
        let be = self.pipeline.backend(&self.scheduled, opts);
        let sys = self.pipeline.system(&be, opts)?;
        let fe = crate::pipeline::Frontend {
            typed: std::sync::Arc::clone(&self.scheduled.middle.typed),
            elapsed_s: self.frontend_s,
        };
        Ok(Artifacts::assemble(&fe, &self.scheduled, be, sys, opts))
    }
}

/// Joint design-space exploration over a **multi-kernel program**: one
/// grid point fixes the backend axes (sharing, decoupling, partitioning)
/// for *every* kernel plus a uniform replication `k`/`m`, and the whole
/// chain is costed under the shared board budget. The per-kernel shared
/// stages (frontend, middle end, schedule, link) run once at
/// [`ProgramDseEngine::prepare`]; backends are memoized on
/// **(kernel, backend key)** — the existing single-kernel memoization,
/// keyed additionally by kernel.
#[derive(Debug)]
pub struct ProgramDseEngine {
    pipeline: Pipeline,
    base: crate::program::ProgramOptions,
    names: Vec<String>,
    scheds: Vec<Scheduled>,
    cross: std::sync::Arc<pschedule::CrossLiveness>,
    /// Largest input array per kernel (the `partition` axis target).
    partition_targets: Vec<Option<String>>,
    shared: StageTimings,
}

impl ProgramDseEngine {
    /// Compile every kernel's shared stages plus the link stage once.
    pub fn prepare(
        source: &str,
        base: &crate::program::ProgramOptions,
    ) -> Result<ProgramDseEngine, FlowError> {
        ProgramDseEngine::prepare_on(Pipeline::new(), source, base)
    }

    /// Like [`ProgramDseEngine::prepare`], with every kernel's shared
    /// stages memoized through a [`CompileCache`].
    pub fn prepare_cached(
        source: &str,
        base: &crate::program::ProgramOptions,
        cache: std::sync::Arc<CompileCache>,
    ) -> Result<ProgramDseEngine, FlowError> {
        ProgramDseEngine::prepare_on(Pipeline::with_cache(cache), source, base)
    }

    fn prepare_on(
        pipeline: Pipeline,
        source: &str,
        base: &crate::program::ProgramOptions,
    ) -> Result<ProgramDseEngine, FlowError> {
        let fronts = pipeline.program_frontend(source)?;
        let names: Vec<String> = fronts.iter().map(|(n, _)| n.clone()).collect();
        let kopts = FlowOptions {
            system: None,
            ..base.flow.clone()
        };
        let mut scheds = Vec::with_capacity(fronts.len());
        for (_, fe) in &fronts {
            let me = pipeline.middle_end(fe, &kopts)?;
            scheds.push(pipeline.schedule(&me, &kopts));
        }
        let link = pipeline.link(&names, &scheds)?;
        let partition_targets: Vec<Option<String>> = scheds
            .iter()
            .map(|sc| {
                let module = &sc.middle.module;
                module
                    .of_kind(TensorKind::Input)
                    .into_iter()
                    .max_by_key(|&id| module.shape(id).iter().product::<usize>())
                    .map(|id| module.name(id).to_string())
            })
            .collect();
        let shared = StageTimings {
            frontend_s: fronts.iter().map(|(_, f)| f.elapsed_s).sum(),
            middle_end_s: scheds.iter().map(|s| s.middle.elapsed_s).sum(),
            schedule_s: scheds.iter().map(|s| s.elapsed_s).sum(),
            link_s: link.elapsed_s,
            ..Default::default()
        };
        Ok(ProgramDseEngine {
            pipeline,
            base: base.clone(),
            names,
            scheds,
            cross: link.cross,
            partition_targets,
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

    /// The joint label sweep rows carry.
    pub fn program_label(&self) -> String {
        self.names.join("+")
    }

    /// Per-kernel backend options for one grid point.
    fn kernel_options_for(&self, point: &DsePoint, kernel: usize) -> FlowOptions {
        let mut opts = self.base.flow.clone();
        opts.system = None;
        opts.decoupled = point.decoupled;
        opts.memory.sharing = point.sharing;
        if point.partition > 1 {
            if let Some(name) = &self.partition_targets[kernel] {
                opts.hls.partition = vec![(name.clone(), point.partition)];
            }
        }
        opts
    }

    /// Evaluate one joint point against already-compiled per-kernel
    /// backends. System costs come from the same [`ProgramBuild`]
    /// construction `ProgramFlow::compile` uses, so sweep rankings
    /// always match what a real compile would build.
    fn evaluate_with_backends(
        &self,
        platform: &Platform,
        point: &DsePoint,
        backends: &[Backend],
        elements: usize,
        started: Instant,
    ) -> DseOutcome {
        let cross_sharing = self.base.cross_sharing && point.sharing;
        let memory_opts = {
            let mut m = self.base.flow.memory.clone();
            m.sharing = point.sharing;
            m
        };
        let brefs: Vec<&Backend> = backends.iter().collect();
        let build = crate::program::ProgramBuild::prepare(
            &self.names,
            &self.cross,
            &brefs,
            &memory_opts,
            cross_sharing,
        );
        let cfg = sysgen::ProgramSystemConfig::uniform(point.k, point.m, self.names.len());
        let memory_brams = build.memory.brams;
        let design = build.design_for(platform, cfg);
        let latency_cycles: u64 = backends.iter().map(|b| b.hls_report.latency_cycles).sum();
        match design {
            Some(design) => {
                let sim = zynq::simulate_program(
                    &design,
                    &SimConfig {
                        elements,
                        ..Default::default()
                    },
                );
                let (service_rps, service_p99_s) = service_probe(&design);
                DseOutcome {
                    point: *point,
                    kernel: self.program_label(),
                    feasible: true,
                    luts: design.luts,
                    ffs: design.ffs,
                    dsps: design.dsps,
                    brams: design.brams,
                    plm_brams: memory_brams,
                    latency_cycles,
                    total_s: sim.total_s,
                    throughput_eps: if sim.total_s > 0.0 {
                        elements as f64 / sim.total_s
                    } else {
                        0.0
                    },
                    service_rps,
                    service_p99_s,
                    eval_s: started.elapsed().as_secs_f64(),
                }
            }
            None => DseOutcome {
                point: *point,
                kernel: self.program_label(),
                feasible: false,
                luts: 0,
                ffs: 0,
                dsps: 0,
                brams: 0,
                plm_brams: memory_brams,
                latency_cycles,
                total_s: 0.0,
                throughput_eps: 0.0,
                service_rps: 0.0,
                service_p99_s: 0.0,
                eval_s: started.elapsed().as_secs_f64(),
            },
        }
    }

    /// Evaluate one joint point (compiles the point's backends inline;
    /// [`ProgramDseEngine::run`] memoizes them across the grid).
    pub fn evaluate(&self, point: &DsePoint, elements: usize) -> DseOutcome {
        let t = Instant::now();
        let backends: Vec<Backend> = (0..self.scheds.len())
            .map(|ki| {
                self.pipeline
                    .backend(&self.scheds[ki], &self.kernel_options_for(point, ki))
            })
            .collect();
        self.evaluate_with_backends(&self.base.flow.platform, point, &backends, elements, t)
    }

    /// Sweep the grid with `jobs` workers. Backends are memoized on
    /// (kernel, sharing, decoupled, partition): the default 32-point
    /// grid over a 3-kernel program compiles 12 backends.
    pub fn run(&self, grid: &DseGrid, jobs: usize, elements: usize) -> DseReport {
        let points = grid.points();
        let nk = self.scheds.len();
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(1)
        } else {
            jobs
        }
        .min(points.len().max(1));
        let oracle_base = polyhedra::OracleCounters::snapshot();
        let t = Instant::now();

        // Unique backend keys, first-seen order.
        let mut keys: Vec<BackendKey> = Vec::new();
        let mut key_of_point: Vec<usize> = Vec::with_capacity(points.len());
        for p in &points {
            let k = p.backend_key();
            let idx = keys.iter().position(|&e| e == k).unwrap_or_else(|| {
                keys.push(k);
                keys.len() - 1
            });
            key_of_point.push(idx);
        }

        // Compile (key × kernel) backends on the worker pool.
        let t_backend = Instant::now();
        let jobs_be = jobs.min(keys.len() * nk).max(1);
        let backends: Vec<Vec<Backend>> = {
            let reps: Vec<DsePoint> = keys
                .iter()
                .map(|k| {
                    *points
                        .iter()
                        .find(|p| p.backend_key() == *k)
                        .expect("key from points")
                })
                .collect();
            let mut indexed: Vec<(usize, Backend)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..jobs_be)
                    .map(|w| {
                        let reps = &reps;
                        scope.spawn(move || {
                            (w..reps.len() * nk)
                                .step_by(jobs_be)
                                .map(|i| {
                                    let (key, kernel) = (i / nk, i % nk);
                                    let opts = self.kernel_options_for(&reps[key], kernel);
                                    (i, self.pipeline.backend(&self.scheds[kernel], &opts))
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("backend worker panicked"))
                    .collect()
            });
            indexed.sort_by_key(|(i, _)| *i);
            let mut flat = indexed.into_iter().map(|(_, b)| b);
            (0..keys.len())
                .map(|_| (0..nk).map(|_| flat.next().expect("backend")).collect())
                .collect()
        };
        let backend_s = t_backend.elapsed().as_secs_f64();

        // Fan the program system stage + chained simulation out.
        let next = AtomicUsize::new(0);
        let mut outcomes: Vec<DseOutcome> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(jobs);
            for _ in 0..jobs {
                let next = &next;
                let points = &points;
                let key_of_point = &key_of_point;
                let backends = &backends;
                handles.push(scope.spawn(move || {
                    let mut local: Vec<DseOutcome> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= points.len() {
                            break local;
                        }
                        let started = Instant::now();
                        local.push(self.evaluate_with_backends(
                            &self.base.flow.platform,
                            &points[i],
                            &backends[key_of_point[i]],
                            elements,
                            started,
                        ));
                    }
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        outcomes.sort_by(|a, b| {
            b.feasible
                .cmp(&a.feasible)
                .then(b.throughput_eps.total_cmp(&a.throughput_eps))
                .then(a.brams.cmp(&b.brams))
                .then(a.luts.cmp(&b.luts))
                .then(a.point.label().cmp(&b.point.label()))
        });
        let feasible = outcomes.iter().filter(|o| o.feasible).count();
        let eval_total_s: f64 = outcomes.iter().map(|o| o.eval_s).sum();
        let eval_max_s = outcomes.iter().map(|o| o.eval_s).fold(0.0, f64::max);
        DseReport {
            evaluated: outcomes.len(),
            feasible,
            jobs,
            elements,
            wall_s: t.elapsed().as_secs_f64(),
            shared: self.shared,
            counts: self.pipeline.counters(),
            cache: self.pipeline.cache_counters(),
            oracle: polyhedra::OracleCounters::snapshot().since(oracle_base),
            backend_compiles: keys.len() * nk,
            backend_reuses: (points.len() - keys.len()) * nk,
            backend_s,
            eval_total_s,
            eval_mean_s: if outcomes.is_empty() {
                0.0
            } else {
                eval_total_s / outcomes.len() as f64
            },
            eval_max_s,
            outcomes,
        }
    }
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
}

/// Pareto flags over (minimize time, minimize utilization) for the
/// feasible subset; infeasible entries are never on the frontier, and
/// of several points with *identical* objectives only the first stays
/// (ties would otherwise all survive and clutter the frontier).
fn pareto_flags(objectives: &[Option<(f64, f64)>]) -> Vec<bool> {
    let mut flags = vec![false; objectives.len()];
    for i in 0..objectives.len() {
        let Some((t, u)) = objectives[i] else {
            continue;
        };
        let dominated = objectives.iter().enumerate().any(|(j, o)| match o {
            Some((t2, u2)) => {
                (*t2 <= t && *u2 <= u && (*t2 < t || *u2 < u)) || (j < i && *t2 == t && *u2 == u)
            }
            None => false,
        });
        flags[i] = !dominated;
    }
    flags
}

/// Three-objective Pareto flags (all minimized; callers negate
/// maximization axes). Same tie rule as [`pareto_flags`]: of identical
/// objective triples only the first survives.
fn pareto_flags3(objectives: &[Option<(f64, f64, f64)>]) -> Vec<bool> {
    let mut flags = vec![false; objectives.len()];
    for i in 0..objectives.len() {
        let Some((a, b, c)) = objectives[i] else {
            continue;
        };
        let dominated = objectives.iter().enumerate().any(|(j, o)| match o {
            Some((a2, b2, c2)) => {
                (*a2 <= a && *b2 <= b && *c2 <= c && (*a2 < a || *b2 < b || *c2 < c))
                    || (j < i && *a2 == a && *b2 == b && *c2 == c)
            }
            None => false,
        });
        flags[i] = !dominated;
    }
    flags
}

impl PortfolioReport {
    /// Rank, flag Pareto points per platform and summarize.
    /// `backend_uses` is the total number of memoized-backend lookups
    /// across all evaluations (one per kernel per combo), so
    /// `reuses = uses - compiles` holds for programs too.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        platforms: &[Platform],
        mut outcomes: Vec<PortfolioOutcome>,
        jobs: usize,
        elements: usize,
        wall_s: f64,
        backend_compiles: usize,
        backend_uses: usize,
        cache: CacheCounters,
        oracle: polyhedra::OracleCounters,
    ) -> PortfolioReport {
        // Per-platform Pareto frontiers: the latency view over
        // (total_s, utilization) and the service view over
        // (requests/sec ↑, p99 ↓, utilization ↓).
        for p in platforms {
            let idx: Vec<usize> = (0..outcomes.len())
                .filter(|&i| outcomes[i].platform == p.id)
                .collect();
            let objectives: Vec<Option<(f64, f64)>> = idx
                .iter()
                .map(|&i| {
                    let o = &outcomes[i];
                    o.outcome
                        .feasible
                        .then_some((o.outcome.total_s, o.utilization))
                })
                .collect();
            for (&i, flag) in idx.iter().zip(pareto_flags(&objectives)) {
                outcomes[i].pareto = flag;
            }
            let service: Vec<Option<(f64, f64, f64)>> = idx
                .iter()
                .map(|&i| {
                    let o = &outcomes[i];
                    o.outcome.feasible.then_some((
                        -o.outcome.service_rps,
                        o.outcome.service_p99_s,
                        o.utilization,
                    ))
                })
                .collect();
            for (&i, flag) in idx.iter().zip(pareto_flags3(&service)) {
                outcomes[i].service_pareto = flag;
            }
        }
        outcomes.sort_by(|a, b| {
            b.outcome
                .feasible
                .cmp(&a.outcome.feasible)
                .then(a.outcome.total_s.total_cmp(&b.outcome.total_s))
                .then(a.utilization.total_cmp(&b.utilization))
                .then(a.platform.cmp(&b.platform))
                .then(a.clock_mhz.total_cmp(&b.clock_mhz))
                .then(a.outcome.point.label().cmp(&b.outcome.point.label()))
        });
        let summaries: Vec<PlatformSummary> = platforms
            .iter()
            .map(|p| {
                let of_p: Vec<&PortfolioOutcome> =
                    outcomes.iter().filter(|o| o.platform == p.id).collect();
                PlatformSummary {
                    platform: p.id.clone(),
                    board: p.board.name.clone(),
                    evaluated: of_p.len(),
                    feasible: of_p.iter().filter(|o| o.outcome.feasible).count(),
                    pareto_points: of_p.iter().filter(|o| o.pareto).count(),
                    best_total_s: of_p
                        .iter()
                        .filter(|o| o.outcome.feasible)
                        .map(|o| o.outcome.total_s)
                        .min_by(f64::total_cmp),
                }
            })
            .collect();
        let feasible = outcomes.iter().filter(|o| o.outcome.feasible).count();
        PortfolioReport {
            evaluated: outcomes.len(),
            feasible,
            jobs,
            elements,
            wall_s,
            backend_compiles,
            backend_reuses: backend_uses.saturating_sub(backend_compiles),
            cache,
            oracle,
            summaries,
            outcomes,
        }
    }

    /// The portfolio Pareto frontier: every platform's non-dominated
    /// (time, fit) points, best time first.
    pub fn pareto_frontier(&self) -> Vec<&PortfolioOutcome> {
        self.outcomes.iter().filter(|o| o.pareto).collect()
    }

    /// The portfolio **service** frontier: every platform's
    /// non-dominated (requests/sec ↑, p99 latency ↓, utilization ↓)
    /// points — where to place traffic for throughput rather than
    /// single-job latency.
    pub fn service_frontier(&self) -> Vec<&PortfolioOutcome> {
        self.outcomes.iter().filter(|o| o.service_pareto).collect()
    }

    /// Platforms with at least one feasible point.
    pub fn feasible_platforms(&self) -> Vec<&PlatformSummary> {
        self.summaries.iter().filter(|s| s.feasible > 0).collect()
    }

    /// The portfolio **cost-efficiency** frontier: non-dominated points
    /// over (requests/sec ↑, requests/sec per 1000 design LUTs ↑) —
    /// which boards earn their silicon when a fleet dispatcher shards
    /// one stream across the catalog. Returned with each point's
    /// req/s-per-kLUT figure, best throughput first (the ranking order
    /// of `outcomes`).
    pub fn cost_frontier(&self) -> Vec<(&PortfolioOutcome, f64)> {
        let per_kluts =
            |o: &PortfolioOutcome| o.outcome.service_rps / (o.outcome.luts as f64 / 1000.0);
        let objectives: Vec<Option<(f64, f64)>> = self
            .outcomes
            .iter()
            .map(|o| {
                (o.outcome.feasible && o.outcome.luts > 0)
                    .then(|| (-o.outcome.service_rps, -per_kluts(o)))
            })
            .collect();
        self.outcomes
            .iter()
            .zip(pareto_flags(&objectives))
            .filter(|(_, flag)| *flag)
            .map(|(o, _)| (o, per_kluts(o)))
            .collect()
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
        let cost = self.cost_frontier();
        let platforms = self.summaries.iter().map(|p| row_len(&[&p.json_fields()]));
        let pareto = self.outcomes.iter().filter(|o| o.pareto);
        let service = self.outcomes.iter().filter(|o| o.service_pareto);
        let frontiers = (pareto.map(|o| o.pareto_fields()))
            .chain(service.map(|o| o.service_fields()))
            .chain(cost.iter().map(|&(o, per_kluts)| o.cost_fields(per_kluts)))
            .map(|fields| row_len(&[&fields]));
        let rows = self.outcomes.iter().map(|o| o.portfolio_row(row_len));
        let bytes = platforms.sum::<usize>() + frontiers.sum::<usize>() + rows.sum::<usize>();
        let mut out = String::with_capacity(HEADER_BYTES + bytes);
        self.write_json(&mut out, &cost)
            .expect("writing to a String cannot fail");
        out
    }

    /// Append the document, trailing newline included, to `out`. The
    /// row loops do not allocate.
    fn write_json(&self, out: &mut String, cost: &[(&PortfolioOutcome, f64)]) -> fmt::Result {
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
        for (i, p) in self.summaries.iter().enumerate() {
            push_fields(out, &p.json_fields());
            out.push_str(row_end(i, self.summaries.len()));
        }
        let pareto = self.outcomes.iter().filter(|o| o.pareto);
        write_frontier(out, "pareto_frontier", pareto.map(|o| o.pareto_fields()));
        let service = self.outcomes.iter().filter(|o| o.service_pareto);
        write_frontier(out, "service_frontier", service.map(|o| o.service_fields()));
        let cost = cost.iter().map(|&(o, per_kluts)| o.cost_fields(per_kluts));
        write_frontier(out, "cost_frontier", cost);
        out.push_str("  ],\n  \"outcomes\": [\n");
        let mut row = Row::default();
        for (i, o) in self.outcomes.iter().enumerate() {
            o.portfolio_row(|parts| parts.iter().for_each(|part| row.push(out, "", part, "")));
            out.push_str(row_end(i, self.outcomes.len()));
        }
        out.push_str("  ]\n}\n");
        Ok(())
    }
}

/// Close the section before and append frontier section `name`.
fn write_frontier<'a>(out: &mut String, name: &str, rows: impl Iterator<Item = [Field<'a>; 7]>) {
    write!(out, "  ],\n  \"{name}\": [\n").expect("writing to a String cannot fail");
    let mut rows = rows.peekable();
    while let Some(fields) = rows.next() {
        push_fields(out, &fields);
        out.push_str(if rows.peek().is_some() { "},\n" } else { "}\n" });
    }
}

impl PlatformSummary {
    /// The `platforms` row.
    fn json_fields(&self) -> [Field<'_>; 6] {
        let best = self.best_total_s;
        [
            ("    {\"platform\": \"", Val::Str(&self.platform)),
            ("\", \"board\": \"", Val::Str(&self.board)),
            ("\", \"evaluated\": ", Val::Int(self.evaluated as u64)),
            (", \"feasible\": ", Val::Int(self.feasible as u64)),
            (", \"pareto_points\": ", Val::Int(self.pareto_points as u64)),
            (
                ", \"best_total_s\": ",
                best.map_or(Val::Lit("null"), |t| Val::Fixed(t, 6)),
            ),
        ]
    }
}

impl PortfolioOutcome {
    /// An outcome row: the point's label and kernel, the shared
    /// [`DseOutcome`] fields, the fit and the frontier flags.
    fn portfolio_row<R>(&self, visit: impl FnOnce(&[&[Field<'_>]]) -> R) -> R {
        visit(&[
            &[
                ("    {\"platform\": \"", Val::Str(&self.platform)),
                ("\", \"clock_mhz\": ", Val::Fixed(self.clock_mhz, 1)),
                (", \"kernel\": \"", Val::Str(&self.outcome.kernel)),
            ],
            &self.outcome.json_fields(),
            &[
                (", \"utilization\": ", Val::Fixed(self.utilization, 4)),
                (", \"pareto\": ", Val::Flag(self.pareto)),
                (", \"service_pareto\": ", Val::Flag(self.service_pareto)),
            ],
        ])
    }

    /// A frontier row: the point's label, `k`, `m` and the frontier's
    /// own three fields.
    fn frontier_fields<'a>(&'a self, own: [Field<'a>; 3]) -> [Field<'a>; 7] {
        let [a, b, c] = own;
        [
            ("    {\"platform\": \"", Val::Str(&self.platform)),
            ("\", \"clock_mhz\": ", Val::Fixed(self.clock_mhz, 1)),
            (", \"k\": ", Val::Int(self.outcome.point.k as u64)),
            (", \"m\": ", Val::Int(self.outcome.point.m as u64)),
            a,
            b,
            c,
        ]
    }

    fn pareto_fields(&self) -> [Field<'_>; 7] {
        self.frontier_fields([
            (", \"total_s\": ", Val::Fixed(self.outcome.total_s, 6)),
            (
                ", \"throughput_eps\": ",
                Val::Fixed(self.outcome.throughput_eps, 3),
            ),
            (", \"utilization\": ", Val::Fixed(self.utilization, 4)),
        ])
    }

    fn service_fields(&self) -> [Field<'_>; 7] {
        self.frontier_fields([
            (
                ", \"service_rps\": ",
                Val::Fixed(self.outcome.service_rps, 3),
            ),
            (
                ", \"service_p99_s\": ",
                Val::Fixed(self.outcome.service_p99_s, 6),
            ),
            (", \"utilization\": ", Val::Fixed(self.utilization, 4)),
        ])
    }

    fn cost_fields(&self, per_kluts: f64) -> [Field<'_>; 7] {
        self.frontier_fields([
            (", \"luts\": ", Val::Int(self.outcome.luts as u64)),
            (
                ", \"service_rps\": ",
                Val::Fixed(self.outcome.service_rps, 3),
            ),
            (", \"rps_per_kluts\": ", Val::Fixed(per_kluts, 4)),
        ])
    }
}

/// A (platform index, clock) × grid cross product, flattened for the
/// worker pool. `backend` indexes the memoized (clock, backend-key)
/// compilation shared across platforms and `k`/`m`.
#[derive(Debug, Clone, Copy)]
struct ComboJob {
    platform: usize,
    clock_mhz: f64,
    point: usize,
    backend: usize,
}

/// Flatten platforms × clock ladders × grid points and assign each
/// combo its memoized backend slot. Returns the jobs plus the unique
/// (clock, key) list in first-seen order.
fn portfolio_jobs(
    platforms: &[Platform],
    points: &[DsePoint],
) -> (Vec<ComboJob>, Vec<(f64, BackendKey)>) {
    let mut keys: Vec<(u64, BackendKey)> = Vec::new();
    let mut jobs = Vec::new();
    for (pi, platform) in platforms.iter().enumerate() {
        for &clock in &platform.clock_ladder_mhz {
            for (qi, point) in points.iter().enumerate() {
                let key = (clock.to_bits(), point.backend_key());
                let bi = keys.iter().position(|&e| e == key).unwrap_or_else(|| {
                    keys.push(key);
                    keys.len() - 1
                });
                jobs.push(ComboJob {
                    platform: pi,
                    clock_mhz: clock,
                    point: qi,
                    backend: bi,
                });
            }
        }
    }
    let keys = keys
        .into_iter()
        .map(|(bits, k)| (f64::from_bits(bits), k))
        .collect();
    (jobs, keys)
}

fn resolve_jobs(jobs: usize, len: usize) -> usize {
    let jobs = if jobs == 0 {
        std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
    } else {
        jobs
    };
    jobs.min(len.max(1))
}

impl DseEngine {
    /// Utilization of a feasible outcome against a platform's board.
    fn outcome_utilization(platform: &Platform, o: &DseOutcome) -> f64 {
        if !o.feasible {
            return 0.0;
        }
        let b = &platform.board;
        [
            o.luts as f64 / b.luts as f64,
            o.ffs as f64 / b.ffs as f64,
            o.dsps as f64 / b.dsps as f64,
            o.brams as f64 / b.brams as f64,
        ]
        .into_iter()
        .fold(0.0, f64::max)
    }

    /// Sweep the **platform × clock × (k, m, sharing, decoupling,
    /// partition)** cross product: the multi-board portfolio view.
    /// Frontend, middle end and scheduling stay compiled once (from
    /// [`DseEngine::prepare`]); backends are memoized per **(clock,
    /// backend key)** — a backend compiled at 200 MHz is reused across
    /// every platform whose ladder contains 200 MHz and every `k`/`m`.
    pub fn run_portfolio(
        &self,
        platforms: &[Platform],
        grid: &DseGrid,
        jobs: usize,
        elements: usize,
    ) -> PortfolioReport {
        let points = grid.points();
        let (combos, keys) = portfolio_jobs(platforms, &points);
        let jobs = resolve_jobs(jobs, combos.len());
        let oracle_base = polyhedra::OracleCounters::snapshot();
        let t = Instant::now();

        // Compile the unique (clock, backend-key) backends in parallel.
        let key_opts: Vec<FlowOptions> = keys
            .iter()
            .map(|&(clock, key)| {
                let rep = points
                    .iter()
                    .find(|p| p.backend_key() == key)
                    .expect("key from points");
                let mut opts = self.options_for(rep);
                opts.hls.clock_mhz = clock;
                opts
            })
            .collect();
        let backends: Vec<Backend> = {
            let workers = jobs.min(keys.len()).max(1);
            let mut indexed: Vec<(usize, Backend)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let key_opts = &key_opts;
                        scope.spawn(move || {
                            (w..key_opts.len())
                                .step_by(workers)
                                .map(|i| (i, self.pipeline.backend(&self.scheduled, &key_opts[i])))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("backend worker panicked"))
                    .collect()
            });
            indexed.sort_by_key(|(i, _)| *i);
            indexed.into_iter().map(|(_, be)| be).collect()
        };

        // Fan the per-combo system stage + simulation out.
        let next = AtomicUsize::new(0);
        let outcomes: Vec<PortfolioOutcome> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(jobs);
            for _ in 0..jobs {
                let next = &next;
                let combos = &combos;
                let points = &points;
                let key_opts = &key_opts;
                let backends = &backends;
                handles.push(scope.spawn(move || {
                    let mut local: Vec<PortfolioOutcome> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= combos.len() {
                            break local;
                        }
                        let started = Instant::now();
                        let job = combos[i];
                        let platform = &platforms[job.platform];
                        let mut opts = key_opts[job.backend].clone();
                        opts.platform = platform.clone();
                        opts.system = Some(SystemConfig {
                            k: points[job.point].k,
                            m: points[job.point].m,
                        });
                        let outcome = self.evaluate_with_backend(
                            &points[job.point],
                            &opts,
                            &backends[job.backend],
                            elements,
                            started,
                        );
                        let utilization = DseEngine::outcome_utilization(platform, &outcome);
                        local.push(PortfolioOutcome {
                            platform: platform.id.clone(),
                            board: platform.board.name.clone(),
                            clock_mhz: job.clock_mhz,
                            outcome,
                            utilization,
                            pareto: false,
                            service_pareto: false,
                        });
                    }
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        let uses = outcomes.len();
        PortfolioReport::assemble(
            platforms,
            outcomes,
            jobs,
            elements,
            t.elapsed().as_secs_f64(),
            keys.len(),
            uses,
            self.pipeline.cache_counters(),
            polyhedra::OracleCounters::snapshot().since(oracle_base),
        )
    }
}

impl ProgramDseEngine {
    /// The portfolio sweep for a multi-kernel program: platform × clock
    /// × joint grid points, with backends memoized per **(kernel,
    /// clock, backend key)**.
    pub fn run_portfolio(
        &self,
        platforms: &[Platform],
        grid: &DseGrid,
        jobs: usize,
        elements: usize,
    ) -> PortfolioReport {
        let points = grid.points();
        let nk = self.scheds.len();
        let (combos, keys) = portfolio_jobs(platforms, &points);
        let jobs = resolve_jobs(jobs, combos.len());
        let oracle_base = polyhedra::OracleCounters::snapshot();
        let t = Instant::now();

        // Compile (clock, key) × kernel backends on the worker pool.
        let reps: Vec<(f64, DsePoint)> = keys
            .iter()
            .map(|&(clock, key)| {
                (
                    clock,
                    *points
                        .iter()
                        .find(|p| p.backend_key() == key)
                        .expect("key from points"),
                )
            })
            .collect();
        let jobs_be = jobs.min(keys.len() * nk).max(1);
        let backends: Vec<Vec<Backend>> = {
            let mut indexed: Vec<(usize, Backend)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..jobs_be)
                    .map(|w| {
                        let reps = &reps;
                        scope.spawn(move || {
                            (w..reps.len() * nk)
                                .step_by(jobs_be)
                                .map(|i| {
                                    let (key, kernel) = (i / nk, i % nk);
                                    let (clock, rep) = &reps[key];
                                    let mut opts = self.kernel_options_for(rep, kernel);
                                    opts.hls.clock_mhz = *clock;
                                    (i, self.pipeline.backend(&self.scheds[kernel], &opts))
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("backend worker panicked"))
                    .collect()
            });
            indexed.sort_by_key(|(i, _)| *i);
            let mut flat = indexed.into_iter().map(|(_, b)| b);
            (0..keys.len())
                .map(|_| (0..nk).map(|_| flat.next().expect("backend")).collect())
                .collect()
        };

        let next = AtomicUsize::new(0);
        let outcomes: Vec<PortfolioOutcome> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(jobs);
            for _ in 0..jobs {
                let next = &next;
                let combos = &combos;
                let points = &points;
                let backends = &backends;
                handles.push(scope.spawn(move || {
                    let mut local: Vec<PortfolioOutcome> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= combos.len() {
                            break local;
                        }
                        let started = Instant::now();
                        let job = combos[i];
                        let platform = &platforms[job.platform];
                        let outcome = self.evaluate_with_backends(
                            platform,
                            &points[job.point],
                            &backends[job.backend],
                            elements,
                            started,
                        );
                        let utilization = DseEngine::outcome_utilization(platform, &outcome);
                        local.push(PortfolioOutcome {
                            platform: platform.id.clone(),
                            board: platform.board.name.clone(),
                            clock_mhz: job.clock_mhz,
                            outcome,
                            utilization,
                            pareto: false,
                            service_pareto: false,
                        });
                    }
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        let uses = outcomes.len() * nk;
        PortfolioReport::assemble(
            platforms,
            outcomes,
            jobs,
            elements,
            t.elapsed().as_secs_f64(),
            keys.len() * nk,
            uses,
            self.pipeline.cache_counters(),
            polyhedra::OracleCounters::snapshot().since(oracle_base),
        )
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
            s.push_str(&format!("  \"polyhedra\": {},\n", self.oracle.json()));
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
            s.push_str(&format!("  \"polyhedra\": {},\n", self.oracle.json()));
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
        }
    }

    /// A portfolio over `points` generated outcomes on three platforms
    /// (one hostile name, one where nothing fits), flags as `assemble`
    /// would set them.
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
                utilization: (i % 1_000) as f64 / 999.0,
                pareto: false,
                service_pareto: false,
            })
            .collect();
        let sweep = generated_sweep(0);
        PortfolioReport::assemble(
            &platforms,
            outcomes,
            2,
            10_000,
            sweep.wall_s,
            8,
            points,
            sweep.cache,
            sweep.oracle,
        )
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
            let (rps, p99_s) = service_probe(design);
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
            let options = FlowOptions {
                system: Some(SystemConfig { k, m }),
                ..FlowOptions::default()
            };
            let art =
                crate::Flow::compile(&cfdlang::examples::inverse_helmholtz(5), &options).unwrap();
            let single = art.system.expect("fits the zcu106");
            agrees(&sysgen::MultiSystemDesign::from_single(&single));
        }
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
