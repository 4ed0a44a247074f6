//! Staged compilation pipeline.
//!
//! The flow splits into individually runnable stages with typed
//! outputs, so a design-space exploration compiles the frontend and
//! middle end once instead of once per design point. Every compile is a
//! program compile ([`crate::program`]): the per-kernel stages run once
//! per kernel, plus the cross-kernel [`Pipeline::link`] stage and the
//! program memory + system stage; a single-kernel source is the
//! one-kernel program.
//!
//! | stage | consumes | produces |
//! |-------|----------|----------|
//! | [`Pipeline::program_frontend`] | CFDlang source | one [`Frontend`] (type-checked AST) per kernel |
//! | [`Pipeline::middle_end`] | [`Frontend`] + canonicalization options | [`MiddleEnd`]: tensor IR, layout, polyhedral model (dependences lazily) |
//! | [`Pipeline::schedule`]   | [`MiddleEnd`] + scheduler options | [`Scheduled`]: schedule, compatibility graph (liveness decided from schedule-box corners) |
//! | [`Pipeline::link`]       | all kernels' [`Scheduled`] | [`LinkStage`]: inter-kernel handoffs + sequence liveness |
//! | [`Pipeline::backend`]    | [`Scheduled`] + decoupling/memory/HLS options | [`Backend`]: C kernel IR, HLS report, Mnemosyne config, memory subsystem |
//!
//! The program system (shared PLM sets, replicated stages, host
//! program) is built by [`Pipeline::run_program`] and lives on
//! [`ProgramArtifacts`](crate::ProgramArtifacts). [`Pipeline::system`]
//! builds a single-kernel [`SystemDesign`]; no compile path calls it.
//!
//! The immutable middle-end products are stored behind [`Arc`], so a
//! [`Scheduled`] stage can be cloned cheaply and shared across threads —
//! the property the [`dse`](crate::dse) engine exploits to fan backend
//! construction out over a configuration grid. Every stage records its
//! wall-clock cost ([`StageTimings`]) and bumps a per-pipeline
//! invocation counter ([`StageCounts`]), which lets tests assert that
//! an exploration compiled the frontend and middle end exactly once.
//!
//! ```
//! use cfd_core::pipeline::Pipeline;
//! use cfd_core::FlowOptions;
//!
//! let src = cfdlang::examples::inverse_helmholtz(4);
//! let opts = FlowOptions::default();
//! let p = Pipeline::new();
//! let (_, fe) = p.program_frontend(&src).unwrap().remove(0);
//! let me = p.middle_end(&fe, &opts).unwrap();
//! let sc = p.schedule(&me, &opts);
//! let be = p.backend(&sc, &opts);
//! // The C text is emitted on demand, not by the backend stage.
//! let c_source = cgen::emit_c99(&be.kernel);
//! let art = cfd_core::Artifacts::assemble(&fe, &sc, be, c_source, &opts);
//! assert!(art.c_source.contains("void kernel_body("));
//! assert_eq!(p.counters().frontend, 1);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use cfdlang::TypedProgram;
use cgen::{CKernel, CodegenOptions};
use hls::HlsReport;
use mnemosyne::{MemorySubsystem, MnemosyneConfig};
use pschedule::{CompatibilityGraph, Dependences, KernelModel, Liveness, Schedule};
use sysgen::{HostProgram, SystemDesign};
use teil::layout::LayoutPlan;
use teil::Module;

use crate::cache::{schedule_key, CacheCounters, CachedSchedule, CompileCache};
use crate::{Artifacts, FlowError, FlowOptions};

/// How many times each stage of a [`Pipeline`] ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageCounts {
    pub frontend: usize,
    pub middle_end: usize,
    pub schedule: usize,
    /// Cross-kernel link-stage invocations (multi-kernel programs).
    pub link: usize,
    pub backend: usize,
    pub system: usize,
}

#[derive(Debug, Default)]
struct StageCounters {
    frontend: AtomicUsize,
    middle_end: AtomicUsize,
    schedule: AtomicUsize,
    link: AtomicUsize,
    backend: AtomicUsize,
    system: AtomicUsize,
}

impl StageCounters {
    fn snapshot(&self) -> StageCounts {
        StageCounts {
            frontend: self.frontend.load(Ordering::Relaxed),
            middle_end: self.middle_end.load(Ordering::Relaxed),
            schedule: self.schedule.load(Ordering::Relaxed),
            link: self.link.load(Ordering::Relaxed),
            backend: self.backend.load(Ordering::Relaxed),
            system: self.system.load(Ordering::Relaxed),
        }
    }
}

/// Wall-clock seconds spent in each stage for one compilation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimings {
    pub frontend_s: f64,
    pub middle_end_s: f64,
    pub schedule_s: f64,
    /// Cross-kernel link stage (0 in a kernel slot's own timings).
    pub link_s: f64,
    pub backend_s: f64,
    pub system_s: f64,
    /// Compile-cache counters for this compilation (all zero when the
    /// pipeline ran uncached).
    pub cache: CacheCounters,
    /// Polyhedra-oracle counters for this compilation (delta of the
    /// process-wide totals across the run; see
    /// [`polyhedra::OracleCounters`]).
    pub oracle: polyhedra::OracleCounters,
}

impl StageTimings {
    /// The stages a program runs once whatever its backend options: every
    /// kernel's frontend, middle end and schedule, and the link.
    pub(crate) fn shared(
        fronts: &[(String, Frontend)],
        scheds: &[Scheduled],
        link: &LinkStage,
    ) -> StageTimings {
        StageTimings {
            frontend_s: fronts.iter().map(|(_, f)| f.elapsed_s).sum(),
            middle_end_s: scheds.iter().map(|s| s.middle.elapsed_s).sum(),
            schedule_s: scheds.iter().map(|s| s.elapsed_s).sum(),
            link_s: link.elapsed_s,
            ..StageTimings::default()
        }
    }

    pub fn total_s(&self) -> f64 {
        self.frontend_s
            + self.middle_end_s
            + self.schedule_s
            + self.link_s
            + self.backend_s
            + self.system_s
    }
}

/// Output of the frontend stage: the type-checked program.
#[derive(Debug, Clone)]
pub struct Frontend {
    pub typed: Arc<TypedProgram>,
    pub elapsed_s: f64,
}

/// Output of the middle end: canonicalized tensor IR plus the layout,
/// polyhedral model and dependence information derived from it. All
/// products are immutable and `Arc`-shared — cloning a `MiddleEnd` is a
/// handful of reference-count bumps.
#[derive(Debug, Clone)]
pub struct MiddleEnd {
    pub typed: Arc<TypedProgram>,
    pub module: Arc<Module>,
    pub layout: Arc<LayoutPlan>,
    pub model: Arc<KernelModel>,
    /// Dependence analysis, computed on first use (see
    /// [`MiddleEnd::dependences`]): a schedule-cache hit never asks for
    /// it, so the warm path skips the analysis entirely.
    dependences: Arc<OnceLock<Dependences>>,
    pub elapsed_s: f64,
}

impl MiddleEnd {
    /// The RAW/WAR/WAW dependence analysis over the polyhedral model,
    /// memoized on first use and shared across clones (and with the
    /// [`Artifacts`] assembled from this middle end).
    pub fn dependences(&self) -> &Dependences {
        self.dependences
            .get_or_init(|| Dependences::analyze(&self.model))
    }
}

/// Output of the scheduling stage: the rescheduled program plus the
/// memory compatibility graph every backend variant shares. The graph is
/// the only product of liveness analysis; no live set outlives it.
#[derive(Debug, Clone)]
pub struct Scheduled {
    pub middle: MiddleEnd,
    pub schedule: Arc<Schedule>,
    pub compat: Arc<CompatibilityGraph>,
    pub elapsed_s: f64,
}

/// Output of the cross-kernel link stage of a multi-kernel program:
/// inter-kernel dependences (tensor handoffs) and kernel-sequence
/// liveness, the inputs to program-wide PLM sharing.
#[derive(Debug, Clone)]
pub struct LinkStage {
    pub cross: Arc<pschedule::CrossLiveness>,
    pub elapsed_s: f64,
}

/// Output of the backend stage: the generated kernel, the HLS estimate
/// and the synthesized memory subsystem for one option combination. The
/// kernel's C text is not part of it: a design-space sweep compiles
/// backends by the dozen and never reads it, so the compile paths emit
/// it themselves ([`cgen::emit_c99`]) and hand it to
/// [`Artifacts::assemble`].
#[derive(Debug, Clone)]
pub struct Backend {
    pub kernel: CKernel,
    pub hls_report: HlsReport,
    pub mnemosyne_config: MnemosyneConfig,
    pub memory: MemorySubsystem,
    pub elapsed_s: f64,
}

/// Output of [`Pipeline::system`]: the replicated single-kernel design
/// (if it fits).
#[derive(Debug, Clone)]
pub struct SystemStage {
    pub system: Option<SystemDesign>,
    pub elapsed_s: f64,
}

/// A handle over the staged flow. Stage methods are `&self` and the
/// counter state is atomic, so one `Pipeline` can drive many threads.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    counters: Arc<StageCounters>,
    cache: Option<Arc<CompileCache>>,
}

impl Pipeline {
    pub fn new() -> Self {
        Pipeline::default()
    }

    /// A pipeline whose scheduling stage is memoized through `cache`
    /// (see [`crate::cache`]). Cached and uncached compiles produce
    /// bit-identical artifacts; only the stage counters and wall clock
    /// differ.
    pub fn with_cache(cache: Arc<CompileCache>) -> Self {
        Pipeline {
            counters: Arc::default(),
            cache: Some(cache),
        }
    }

    /// The attached compile cache, if any.
    pub fn cache(&self) -> Option<&Arc<CompileCache>> {
        self.cache.as_ref()
    }

    /// Counters of the attached cache (all zero when uncached).
    pub fn cache_counters(&self) -> CacheCounters {
        self.cache
            .as_ref()
            .map(|c| c.counters())
            .unwrap_or_default()
    }

    /// Snapshot of how many times each stage has run on this pipeline.
    pub fn counters(&self) -> StageCounts {
        self.counters.snapshot()
    }

    /// Count `n` system-stage invocations performed outside
    /// [`Pipeline::system`]: the program system stage, and the design
    /// points a sweep scores without building them.
    pub(crate) fn count_systems(&self, n: usize) {
        self.counters.system.fetch_add(n, Ordering::Relaxed);
    }

    /// Parse and type-check a (possibly multi-kernel) source: one
    /// [`Frontend`] per kernel, in execution order (a plain source is
    /// the one-kernel program `main`). Counts as a single frontend
    /// invocation.
    pub fn program_frontend(&self, source: &str) -> Result<Vec<(String, Frontend)>, FlowError> {
        self.counters.frontend.fetch_add(1, Ordering::Relaxed);
        let t = Instant::now();
        let set = cfdlang::parse_set(source)?;
        let typed = cfdlang::check_set(&set)?;
        let elapsed = t.elapsed().as_secs_f64() / typed.kernels.len().max(1) as f64;
        let fronts = typed.kernels.into_iter().map(|k| {
            let typed = Arc::new(k.typed);
            (
                k.name,
                Frontend {
                    typed,
                    elapsed_s: elapsed,
                },
            )
        });
        Ok(fronts.collect())
    }

    /// Lower to tensor IR, canonicalize (factorization, CSE, DCE per
    /// `opts`), materialize the row-major layout and build the
    /// polyhedral model. Dependence analysis is deferred to first use —
    /// only a schedule-cache miss (or an explicit legality check) pays
    /// for it.
    pub fn middle_end(&self, fe: &Frontend, opts: &FlowOptions) -> Result<MiddleEnd, FlowError> {
        self.counters.middle_end.fetch_add(1, Ordering::Relaxed);
        let t = Instant::now();
        let mut module = teil::lower(&fe.typed)?;
        if opts.factorize {
            module = teil::transform::factorize(&module);
        }
        if opts.clean {
            module = teil::transform::cse(&module);
            module = teil::transform::dce(&module);
        }
        let layout = LayoutPlan::row_major(&module);
        let model = KernelModel::build(&module, &layout);
        Ok(MiddleEnd {
            typed: Arc::clone(&fe.typed),
            module: Arc::new(module),
            layout: Arc::new(layout),
            model: Arc::new(model),
            dependences: Arc::new(OnceLock::new()),
            elapsed_s: t.elapsed().as_secs_f64(),
        })
    }

    /// Reschedule and build the compatibility graph from liveness
    /// (serial; see [`pschedule::liveness`] for why it is cheap).
    ///
    /// On a pipeline built with [`Pipeline::with_cache`] the stage is
    /// memoized under the content hash of the canonicalized module and
    /// the reachable options ([`schedule_key`]): a hit returns the
    /// cached products without running — or counting — the stage.
    pub fn schedule(&self, me: &MiddleEnd, opts: &FlowOptions) -> Scheduled {
        let t = Instant::now();
        let key = self.cache.as_ref().map(|_| schedule_key(&me.module, opts));
        if let (Some(cache), Some(key)) = (&self.cache, key) {
            if let Some(hit) = cache.lookup(key) {
                return Scheduled {
                    middle: me.clone(),
                    schedule: Arc::clone(&hit.schedule),
                    compat: Arc::clone(&hit.compat),
                    elapsed_s: t.elapsed().as_secs_f64(),
                };
            }
        }
        self.counters.schedule.fetch_add(1, Ordering::Relaxed);
        let schedule =
            pschedule::reschedule(&me.module, &me.model, me.dependences(), &opts.scheduler);
        let liveness = Liveness::analyze(&me.module, &me.model, &schedule);
        let compat = Arc::new(CompatibilityGraph::build(&me.model, &liveness));
        let schedule = Arc::new(schedule);
        if let (Some(cache), Some(key)) = (&self.cache, key) {
            cache.store(
                key,
                Arc::new(CachedSchedule {
                    schedule: Arc::clone(&schedule),
                    compat: Arc::clone(&compat),
                }),
            );
        }
        Scheduled {
            middle: me.clone(),
            schedule,
            compat,
            elapsed_s: t.elapsed().as_secs_f64(),
        }
    }

    /// Cross-kernel link analysis over a program's scheduled kernels:
    /// resolve the tensor handoffs (inter-kernel dependences) and the
    /// kernel-sequence live intervals that program-wide PLM sharing
    /// feeds on. The degenerate single-kernel program links trivially
    /// (no handoffs).
    pub fn link(&self, names: &[String], kernels: &[Scheduled]) -> Result<LinkStage, FlowError> {
        self.counters.link.fetch_add(1, Ordering::Relaxed);
        let t = Instant::now();
        let modules: Vec<&Module> = kernels.iter().map(|sc| sc.middle.module.as_ref()).collect();
        let cross =
            pschedule::CrossLiveness::analyze(names, &modules).map_err(FlowError::Backend)?;
        Ok(LinkStage {
            cross: Arc::new(cross),
            elapsed_s: t.elapsed().as_secs_f64(),
        })
    }

    /// Build the C kernel, estimate it with the HLS model and
    /// synthesize the Mnemosyne memory subsystem. Honors `opts.decoupled`,
    /// `opts.memory` and `opts.hls`.
    pub fn backend(&self, sc: &Scheduled, opts: &FlowOptions) -> Backend {
        self.counters.backend.fetch_add(1, Ordering::Relaxed);
        let t = Instant::now();
        // Liveness → compatibility graph → Mnemosyne configuration. In
        // non-decoupled mode the temporaries stay inside the accelerator,
        // so the external memory subsystem only holds interface arrays.
        let full_config = MnemosyneConfig::from_graph(&sc.compat);
        let mut mnemosyne_config = if opts.decoupled {
            full_config
        } else {
            full_config.retain_interface()
        };
        // Propagate the HLS port demands (array partitioning)
        // into the memory metadata: Mnemosyne builds multi-bank PLMs for
        // them (Section V-A1/V-A2).
        for spec in mnemosyne_config.arrays.clone() {
            let (r, w) = opts.hls.ports_for(&spec.name);
            if (r, w) != (1, 1) {
                mnemosyne_config.set_ports(&spec.name, r, w);
            }
        }
        let cg_opts = CodegenOptions {
            decoupled: opts.decoupled,
        };
        let kernel =
            cgen::build_kernel(&sc.middle.module, &sc.middle.model, &sc.schedule, &cg_opts);
        let hls_report = hls::synthesize(&kernel, &opts.hls);
        let memory = mnemosyne::synthesize(&mnemosyne_config, &opts.memory);
        Backend {
            kernel,
            hls_report,
            mnemosyne_config,
            memory,
            elapsed_s: t.elapsed().as_secs_f64(),
        }
    }

    /// Pick / validate the replication configuration and build the
    /// replicated single-kernel system plus its host program on the
    /// target platform. Returns [`FlowError::DoesNotFit`] only when
    /// `opts.system` explicitly requests a configuration that exceeds
    /// the platform's board — the automatic choice degrades to the
    /// largest feasible replication (or no system at all) on small
    /// boards.
    ///
    /// No compile path calls this (a kernel's system is the one-stage
    /// program's, which `from_single` of this design equals); it stays
    /// for the `benchmark/` harness's `sysgen.system` probe.
    pub fn system(&self, be: &Backend, opts: &FlowOptions) -> Result<SystemStage, FlowError> {
        self.counters.system.fetch_add(1, Ordering::Relaxed);
        let t = Instant::now();
        let platform = &opts.platform;
        if let Some(c) = opts.system {
            if !c.valid() {
                return Err(FlowError::Backend(format!(
                    "invalid replication (k, m) = ({}, {}): m must be a power-of-two multiple of k",
                    c.k, c.m
                )));
            }
        }
        let cfg = match opts.system {
            Some(c) => Some(c),
            None => sysgen::max_equal_config(platform, &be.hls_report, &be.memory),
        };
        let system = match cfg {
            Some(c) => {
                let host = HostProgram::from_kernel(&be.kernel, c);
                let design = SystemDesign::build(platform, &be.hls_report, &be.memory, c, host);
                if design.is_none() && opts.system.is_some() {
                    return Err(FlowError::DoesNotFit {
                        k: c.k,
                        m: c.m,
                        board: platform.board.name.clone(),
                    });
                }
                design
            }
            None => None,
        };
        Ok(SystemStage {
            system,
            elapsed_s: t.elapsed().as_secs_f64(),
        })
    }
}

impl Artifacts {
    /// Assemble one kernel's [`Artifacts`] slot from staged outputs and
    /// the kernel's emitted C text (`cgen::emit_c99(&be.kernel)`). The immutable analysis products
    /// (typed AST, module, model, schedule, compatibility graph) are
    /// `Arc`-shared with the pipeline stages rather than deep-cloned —
    /// assembly is a handful of reference-count bumps.
    pub fn assemble(
        fe: &Frontend,
        sc: &Scheduled,
        be: Backend,
        c_source: String,
        opts: &FlowOptions,
    ) -> Artifacts {
        let me = &sc.middle;
        let timings = StageTimings {
            frontend_s: fe.elapsed_s,
            middle_end_s: me.elapsed_s,
            schedule_s: sc.elapsed_s,
            link_s: 0.0,
            backend_s: be.elapsed_s,
            system_s: 0.0,
            cache: CacheCounters::default(),
            oracle: polyhedra::OracleCounters::default(),
        };
        Artifacts {
            typed: Arc::clone(&me.typed),
            module: Arc::clone(&me.module),
            model: Arc::clone(&me.model),
            dependences: Arc::clone(&me.dependences),
            schedule: Arc::clone(&sc.schedule),
            compat: Arc::clone(&sc.compat),
            kernel: be.kernel,
            c_source,
            hls_report: be.hls_report,
            mnemosyne_config: be.mnemosyne_config,
            memory: be.memory,
            options: opts.clone(),
            timings,
        }
    }
}
