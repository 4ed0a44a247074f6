//! `cfd-core` — the end-to-end CFDlang-to-FPGA flow.
//!
//! The toolchain of Figure 3 is organized as a **staged pipeline**
//! ([`pipeline`]) with five typed stages:
//!
//! ```text
//! Frontend   CFDlang source ──parse/check──► typed AST
//! MiddleEnd  typed AST ──lower/factorize/cse/dce──► tensor IR
//!            + row-major layout + polyhedral model
//!            (+ dependences, computed lazily on first use)
//! Scheduled  middle end ──reschedule──► schedule
//!            + memory-compatibility graph (liveness)
//! Backend    scheduled ──codegen──► C99 kernel + HLS report
//!            + Mnemosyne config + memory subsystem
//! System     backend ──Eq.(3)──► replicated design + host program
//! ```
//!
//! Each stage is individually runnable, its products are immutable and
//! `Arc`-shared, and per-stage wall-clock timings and invocation counts
//! are recorded. There is one compile path, the program flow
//! ([`ProgramFlow`]): a single-kernel source is the one-kernel program,
//! and [`Flow::compile`] returns that program's one kernel slot. The
//! replicated system and its host program live on the
//! [`ProgramArtifacts`]. The [`dse`] engine reuses the first three
//! stages across a whole configuration grid and fans the rest out over
//! worker threads.
//!
//! # Quick start
//!
//! ```
//! use cfd_core::{Flow, FlowOptions, ProgramFlow, ProgramOptions};
//!
//! let src = cfdlang::examples::inverse_helmholtz(5);
//! let art = Flow::compile(&src, &FlowOptions::default()).unwrap();
//! assert_eq!(art.hls_report.dsps, 15);
//! assert!(art.timings.total_s() > 0.0);
//!
//! // Functional check of the generated accelerator against the
//! // reference interpreter:
//! let v = art.verify(2, 42).unwrap();
//! assert!(v.bitexact);
//!
//! // The replicated system belongs to the (one-kernel) program:
//! let program = ProgramFlow::compile(&src, &ProgramOptions::default()).unwrap();
//! assert_eq!(program.kernels[0].c_source, art.c_source);
//! assert!(program.system.is_some());
//! ```
//!
//! # Exploring a design space
//!
//! ```
//! use cfd_core::dse::{DseEngine, DseGrid};
//! use cfd_core::FlowOptions;
//! use sysgen::Platform;
//!
//! let src = cfdlang::examples::inverse_helmholtz(4);
//! // Frontend, middle end and scheduling run once here ...
//! let engine = DseEngine::prepare(&src, &FlowOptions::default()).unwrap();
//! // ... and every grid point on every board and clock reuses them, in
//! // parallel.
//! let report = engine.run_portfolio(&Platform::catalog(), &DseGrid::default(), 4, 1_000);
//! assert!(report.evaluated >= 16);
//! // Ranked fastest first.
//! let best = &report.outcomes[0].outcome;
//! assert!(best.feasible && best.throughput_eps > 0.0);
//! // The shared stages ran once, regardless of grid size or jobs.
//! assert_eq!(engine.pipeline().counters().frontend, 1);
//! assert_eq!(engine.pipeline().counters().middle_end, 1);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod dse;
pub mod pipeline;
pub mod program;

use cfdlang::{Diagnostic, TypedProgram};
use cgen::CKernel;
use hls::{HlsOptions, HlsReport};
use mnemosyne::{MemoryOptions, MemorySubsystem, MnemosyneConfig};
use pschedule::{CompatibilityGraph, Dependences, KernelModel, Schedule, SchedulerOptions};
use sysgen::{Platform, SystemConfig};
use teil::Module;

pub use cache::{CacheCounters, CompileCache};
pub use pipeline::{Pipeline, StageCounts, StageTimings};
pub use program::{ProgramArtifacts, ProgramFlow, ProgramOptions};
// The serving layer: request-level batching runtime over a compiled
// system ([`ProgramArtifacts::serve`] is the artifact-level entry).
pub use runtime::{
    json_escape, Arrival, BatchPolicy, OnlinePolicy, RecoveryPolicy, RuntimeError, RuntimeOptions,
    ServeOutcome, ServiceReport,
};
// The fleet layer: one request stream sharded across N boards
// ([`ProgramArtifacts::serve_fleet`] is the artifact-level entry).
pub use runtime::{
    serve_fleet, BoardReport, FleetBoard, FleetOptions, FleetOutcome, FleetReport, RoutePolicy,
};
pub use zynq::FaultPlan;

/// Errors from the flow.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// Frontend (parse / type-check) failure.
    Frontend(Diagnostic),
    /// Middle-end or backend failure.
    Backend(String),
    /// The requested system configuration does not fit the selected
    /// platform's board — the structured small-board error (callers
    /// can retry with a smaller replication or another platform).
    DoesNotFit { k: usize, m: usize, board: String },
    /// Simulating `elements` elements runs past the simulator's clock:
    /// `u64` picosecond ticks, about 213 days of simulated time.
    TicksOverflow { elements: usize },
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Frontend(d) => write!(f, "{d}"),
            FlowError::Backend(m) => write!(f, "{m}"),
            FlowError::DoesNotFit { k, m, board } => {
                write!(
                    f,
                    "configuration k={k}, m={m} exceeds the resources of {board}"
                )
            }
            FlowError::TicksOverflow { elements } => write!(
                f,
                "simulating {elements} elements runs past the simulator's 64-bit picosecond clock"
            ),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<Diagnostic> for FlowError {
    fn from(d: Diagnostic) -> Self {
        FlowError::Frontend(d)
    }
}

impl From<String> for FlowError {
    fn from(s: String) -> Self {
        FlowError::Backend(s)
    }
}

/// Options for the complete flow.
#[derive(Debug, Clone)]
pub struct FlowOptions {
    /// Exploit contraction associativity (Section IV-A). On by default.
    pub factorize: bool,
    /// Run duplicate-statement CSE and dead-code elimination.
    pub clean: bool,
    /// Rescheduling options (step ⓘⓘⓘ): none are left, the field is
    /// what callers pass to `pschedule::reschedule`.
    pub scheduler: SchedulerOptions,
    /// Export temporaries to PLM units (the paper's decoupled design).
    pub decoupled: bool,
    /// Memory synthesis options (sharing on by default).
    pub memory: MemoryOptions,
    /// HLS options (clock from the platform ladder, array partitioning).
    pub hls: HlsOptions,
    /// Target platform: board budget, host CPU, DMA fabric and clock
    /// ladder. Defaults to the paper's ZCU106.
    pub platform: Platform,
    /// Requested replication of the one-kernel program
    /// ([`Flow::compile`]); `None` picks the largest feasible `k = m`.
    /// The program flow ignores it ([`ProgramOptions::system`]).
    pub system: Option<SystemConfig>,
    /// CFD problem size for host-program generation.
    pub elements: usize,
    /// Compilation worker threads for the parallelizable passes (the
    /// per-kernel program stages and backends; liveness is serial — it
    /// reads box corners and expands sets only for pairs they cannot
    /// settle): `0` = one per available core, `1` = fully serial.
    /// Artifacts are bit-identical for every value — the knob trades
    /// wall clock only.
    pub jobs: usize,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            factorize: true,
            clean: true,
            scheduler: SchedulerOptions,
            decoupled: true,
            memory: MemoryOptions::default(),
            hls: HlsOptions::default(),
            platform: Platform::zcu106(),
            system: None,
            elements: 50_000,
            jobs: 0,
        }
    }
}

impl FlowOptions {
    /// Options targeting `platform`, synthesizing at its default fabric
    /// clock. (`FlowOptions::default()` is `for_platform(zcu106)`.)
    pub fn for_platform(platform: Platform) -> FlowOptions {
        let mut opts = FlowOptions::default();
        opts.hls.clock_mhz = platform.default_clock_mhz;
        opts.platform = platform;
        opts
    }
}

/// Everything the flow produces for one kernel: a slot of
/// [`ProgramArtifacts::kernels`].
#[derive(Debug, Clone)]
pub struct Artifacts {
    pub typed: std::sync::Arc<TypedProgram>,
    pub module: std::sync::Arc<Module>,
    pub model: std::sync::Arc<KernelModel>,
    /// Lazy dependence analysis — see [`Artifacts::dependences`].
    dependences: std::sync::Arc<std::sync::OnceLock<Dependences>>,
    pub schedule: std::sync::Arc<Schedule>,
    pub compat: std::sync::Arc<CompatibilityGraph>,
    pub kernel: CKernel,
    /// The generated C99 source (input to HLS).
    pub c_source: String,
    pub hls_report: HlsReport,
    pub mnemosyne_config: MnemosyneConfig,
    pub memory: MemorySubsystem,
    /// The kernel's flow options (`system` is `None`: the program owns
    /// the replication).
    pub options: FlowOptions,
    /// Wall-clock cost of each pipeline stage for this compilation.
    pub timings: StageTimings,
}

/// The flow entry point.
pub struct Flow;

impl Flow {
    /// Compile a single-kernel CFDlang source as the one-kernel program
    /// ([`Pipeline::run_program`], with `opts.system` as its uniform
    /// replication) and return its one kernel slot, whose
    /// [`Artifacts::timings`] are the program's. A multi-kernel source
    /// is an error, raised before any middle end runs.
    pub fn compile(source: &str, opts: &FlowOptions) -> Result<Artifacts, FlowError> {
        Pipeline::new().run_kernel(source, opts)
    }

    /// Compile against a shared [`CompileCache`]: the scheduling stage
    /// is served from the cache on a content-hash hit and stored on a
    /// miss. Artifacts are bit-identical to an uncached compile; the
    /// resulting [`Artifacts::timings`] carry the cache counters.
    pub fn compile_cached(
        source: &str,
        opts: &FlowOptions,
        cache: std::sync::Arc<CompileCache>,
    ) -> Result<Artifacts, FlowError> {
        Pipeline::with_cache(cache).run_kernel(source, opts)
    }
}

impl Artifacts {
    /// The RAW/WAR/WAW dependence analysis over the polyhedral model.
    ///
    /// Computed on first use and memoized (shared with the pipeline's
    /// [`MiddleEnd`](pipeline::MiddleEnd), so a schedule-cache miss —
    /// which needs dependences to reschedule — fills it for free). A
    /// cache-hit compile that never asks for dependences never runs the
    /// analysis.
    pub fn dependences(&self) -> &Dependences {
        self.dependences
            .get_or_init(|| Dependences::analyze(&self.model))
    }

    /// Verify `n` random elements of the accelerator against the
    /// reference interpreter, as the one-kernel chain.
    pub fn verify(&self, n: usize, seed: u64) -> Result<zynq::VerifyResult, FlowError> {
        let name = std::slice::from_ref(&self.kernel.name);
        zynq::verify_program(name, &[&*self.module], &[&self.kernel], n, seed)
            .map_err(FlowError::Backend)
    }

    /// Host software timings for the Figure-10 comparison, on the
    /// compilation's target platform CPU.
    pub fn sw_times(
        &self,
        elements: usize,
    ) -> Result<(zynq::sim::SwResult, zynq::sim::SwResult), FlowError> {
        let host = &self.options.platform.host;
        let reference =
            zynq::sim::sw_reference(&self.module, host, elements).map_err(FlowError::Backend)?;
        let hls_code =
            zynq::sim::sw_hls_code(&self.kernel, host, elements).map_err(FlowError::Backend)?;
        Ok((reference, hls_code))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zynq::SimConfig;

    #[test]
    fn small_helmholtz_end_to_end() {
        let src = cfdlang::examples::inverse_helmholtz(4);
        let art = Flow::compile(&src, &FlowOptions::default()).unwrap();
        assert_eq!(art.module.stmts.len(), 7);
        assert!(art.c_source.contains("kernel_body"));
        let program = ProgramFlow::compile(&src, &ProgramOptions::default()).unwrap();
        assert!(program.system.is_some());
        let v = art.verify(2, 1).unwrap();
        assert!(v.bitexact);
    }

    #[test]
    fn kernel_verify_equals_the_one_kernel_program_verify() {
        // Every kernel of the six examples, compiled alone, verifies to
        // the same figures through its kernel slot and the program.
        use cfdlang::examples as ex;
        let sources = [
            ex::inverse_helmholtz(3),
            ex::interpolation(3, 4),
            ex::matrix_sandwich(3),
            ex::axpy(3),
            ex::simulation_step(3),
            ex::axpy_chain(3),
        ];
        for src in &sources {
            for k in &cfdlang::parse_set(src).unwrap().kernels {
                let one = cfdlang::pretty(&k.program);
                let flow = Flow::compile(&one, &FlowOptions::default()).unwrap();
                let program = ProgramFlow::compile(&one, &ProgramOptions::default()).unwrap();
                for seed in [1, 42, 7777] {
                    let a = flow.verify(3, seed).unwrap();
                    let b = program.verify(3, seed).unwrap();
                    assert_eq!(
                        (a.elements, a.bitexact, a.max_rel_diff.to_bits()),
                        (b.elements, b.bitexact, b.max_rel_diff.to_bits()),
                        "kernel {} seed {seed}",
                        k.name
                    );
                }
            }
        }
    }

    #[test]
    fn frontend_errors_propagate() {
        let err = Flow::compile("var x : [", &FlowOptions::default()).unwrap_err();
        assert!(matches!(err, FlowError::Frontend(_)));
    }

    #[test]
    fn requested_oversized_system_errors() {
        let src = cfdlang::examples::inverse_helmholtz(4);
        let opts = FlowOptions {
            system: Some(SystemConfig { k: 64, m: 64 }),
            ..Default::default()
        };
        let err = Flow::compile(&src, &opts).unwrap_err();
        assert!(matches!(err, FlowError::DoesNotFit { .. }));
    }

    #[test]
    fn no_factorization_option() {
        let src = cfdlang::examples::inverse_helmholtz(4);
        let opts = FlowOptions {
            factorize: false,
            ..Default::default()
        };
        let art = Flow::compile(&src, &opts).unwrap();
        assert_eq!(art.module.stmts.len(), 3);
        assert!(art.verify(1, 5).unwrap().bitexact);
    }

    #[test]
    fn simulation_runs_from_artifacts() {
        let src = cfdlang::examples::inverse_helmholtz(4);
        let art = ProgramFlow::compile(&src, &ProgramOptions::default()).unwrap();
        let r = art
            .simulate(&SimConfig {
                elements: 64,
                ..Default::default()
            })
            .unwrap();
        assert!(r.total_s > 0.0);
        assert!(r.exec_s > 0.0);
    }

    #[test]
    fn simulation_past_the_tick_clock_is_an_error() {
        let src = cfdlang::examples::inverse_helmholtz(4);
        let sim = SimConfig {
            elements: usize::MAX,
            ..Default::default()
        };
        let overflow = FlowError::TicksOverflow {
            elements: usize::MAX,
        };
        let art = ProgramFlow::compile(&src, &ProgramOptions::default()).unwrap();
        assert_eq!(art.simulate(&sim).unwrap_err(), overflow);
        // The same with the replication requested, as `cfdc simulate
        // --k 1 --m 1` asks for it.
        let opts = ProgramOptions {
            system: Some(sysgen::ProgramSystemConfig::uniform(1, 1, 1)),
            ..Default::default()
        };
        let art = ProgramFlow::compile(&src, &opts).unwrap();
        assert_eq!(art.simulate(&sim).unwrap_err(), overflow);
    }

    #[test]
    fn array_partitioning_flows_into_memory_subsystem() {
        // Partitioning u demands a multi-bank PLM: Mnemosyne replicates
        // the banks (Section V-A1/V-A2).
        let src = cfdlang::examples::inverse_helmholtz(11);
        let base = Flow::compile(&src, &FlowOptions::default()).unwrap();
        let opts = FlowOptions {
            hls: hls::HlsOptions {
                partition: vec![("u".into(), 3)],
                ..Default::default()
            },
            ..Default::default()
        };
        let part = Flow::compile(&src, &opts).unwrap();
        let iu = part.mnemosyne_config.index_of("u").unwrap();
        assert_eq!(part.mnemosyne_config.arrays[iu].read_ports, 3);
        assert!(
            part.memory.brams > base.memory.brams,
            "multi-port PLM must cost extra banks: {} vs {}",
            part.memory.brams,
            base.memory.brams
        );
    }

    #[test]
    fn sw_times_produce_sane_ratio() {
        let src = cfdlang::examples::inverse_helmholtz(4);
        let art = Flow::compile(&src, &FlowOptions::default()).unwrap();
        let (reference, hls_code) = art.sw_times(10).unwrap();
        // Flat-index code is somewhat slower on the CPU.
        assert!(hls_code.per_element_s > reference.per_element_s);
        assert!(hls_code.per_element_s < 2.0 * reference.per_element_s);
    }
}
