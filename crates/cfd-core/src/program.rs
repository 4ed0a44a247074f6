//! Multi-kernel program compilation: a whole CFD solver into **one**
//! shared-memory accelerator system.
//!
//! A real CFD time-step is a pipeline of kernels (interpolation,
//! inverse Helmholtz solve, projection, ...) that should share one
//! accelerator system, its PLM budget and its DMA fabric. This module
//! threads the multi-kernel [`cfdlang::ProgramSet`] abstraction through
//! every pipeline layer:
//!
//! 1. **frontend** — [`Pipeline::program_frontend`] parses and checks
//!    the kernel blocks (a plain source is the degenerate one-kernel
//!    program),
//! 2. **per-kernel middle end / schedule / backend** — the per-kernel
//!    stages run once per kernel, over up to `jobs` workers; a
//!    single-kernel source is the one-kernel program, and
//!    [`Flow::compile`](crate::Flow::compile) returns its one kernel
//!    slot ([`ProgramArtifacts::kernels`]),
//! 3. **link** — [`Pipeline::link`] resolves the inter-kernel tensor
//!    handoffs and kernel-sequence liveness,
//! 4. **program memory** — `mnemosyne::merge_configs` co-locates PLM
//!    groups *across* kernels under one BRAM budget (handoff buffers
//!    alias, dead-between-kernels buffers overlay),
//! 5. **program system** — `sysgen::MultiSystemDesign` replicates each
//!    kernel (`ks[i]` accelerators) against `m` shared PLM sets and
//!    checks the generalized Eq. (3) over the union; unless the options
//!    fix the replication, `sysgen::best_program_config` picks one
//!    `ks[i]` per kernel, the cheapest round per element the board
//!    admits,
//! 6. **simulation / verification** — `zynq::simulate_program` executes
//!    the chained host schedule; `zynq::verify_program` checks the
//!    chain bit-exactly against the chained reference interpreter.
//!
//! ```
//! use cfd_core::program::{ProgramFlow, ProgramOptions};
//!
//! let src = cfdlang::examples::axpy_chain(4);
//! let art = ProgramFlow::compile(&src, &ProgramOptions::default()).unwrap();
//! assert_eq!(art.names, vec!["axpy_scale", "axpy_update"]);
//! assert!(art.system.is_some());
//! assert!(art.verify(1, 7).unwrap().bitexact);
//! ```

use std::sync::Arc;
use std::time::Instant;

use mnemosyne::{MemorySubsystem, ProgramMemoryPlan};
use pschedule::CrossLiveness;
use sysgen::{MultiSystemDesign, ProgramHostProgram, ProgramSystemConfig};
use teil::Module;
use zynq::{fan_out, resolve_jobs, ProgramHwResult, SimConfig, VerifyResult};

use crate::pipeline::{Backend, Frontend, LinkStage, Pipeline, Scheduled, StageTimings};
use crate::{Artifacts, FlowError, FlowOptions};

/// Options for compiling a multi-kernel program. The per-kernel axes
/// come from the embedded [`FlowOptions`] (applied uniformly to every
/// kernel); the program level adds cross-kernel sharing and the joint
/// replication choice.
#[derive(Debug, Clone)]
pub struct ProgramOptions {
    /// Per-kernel flow options. `flow.system` is ignored — the program
    /// system is chosen by `system` below.
    pub flow: FlowOptions,
    /// Co-locate PLM groups across kernels (handoff aliasing + overlay
    /// of buffers dead between kernels). With this off the program
    /// memory is the plain concatenation of the per-kernel subsystems.
    pub cross_sharing: bool,
    /// Requested program replication; `None` picks one `k_i` per stage
    /// by the exact search over Eq. (3)
    /// ([`sysgen::best_program_config`]).
    pub system: Option<ProgramSystemConfig>,
}

impl Default for ProgramOptions {
    fn default() -> Self {
        FlowOptions::default().into()
    }
}

impl From<FlowOptions> for ProgramOptions {
    /// A kernel's flow options as program options: cross-kernel sharing
    /// on, the replication picked automatically.
    fn from(flow: FlowOptions) -> Self {
        ProgramOptions {
            flow,
            cross_sharing: true,
            system: None,
        }
    }
}

/// Everything a program compilation produces.
#[derive(Debug, Clone)]
pub struct ProgramArtifacts {
    /// Kernel names in execution order.
    pub names: Vec<String>,
    /// Per-kernel artifacts; a kernel compiled alone
    /// ([`Flow::compile`](crate::Flow::compile)) is the one slot of its
    /// one-kernel program.
    pub kernels: Vec<Artifacts>,
    /// Cross-kernel dependences and sequence liveness.
    pub cross: Arc<CrossLiveness>,
    /// The merged program memory configuration (namespaced arrays,
    /// cross-kernel compatibility edges).
    pub memory_plan: ProgramMemoryPlan,
    /// The shared PLM subsystem of one PLM set.
    pub memory: MemorySubsystem,
    /// `None` only if the requested configuration does not fit.
    pub system: Option<MultiSystemDesign>,
    /// The generated `host.c` ([`ProgramHostProgram::to_c`]; a kernel
    /// compile's is its one-stage program's). Empty when no system fits.
    pub host_source: String,
    pub options: ProgramOptions,
    /// Aggregated wall-clock stage costs (per-kernel stages summed).
    pub timings: StageTimings,
}

impl ProgramArtifacts {
    /// Number of kernels in the program.
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// Sum of the stand-alone per-kernel PLM BRAM counts — what the
    /// program would cost without cross-kernel co-location.
    pub fn per_kernel_plm_brams(&self) -> usize {
        self.kernels.iter().map(|a| a.memory.brams).sum()
    }

    /// Stage `i`'s C source under a program-unique symbol
    /// (`<stage>_body`) — every kernel compiles to `kernel_body` on its
    /// own, but one system links all stages together.
    pub fn stage_c_source(&self, i: usize) -> String {
        cgen::emit_c99_as(&self.kernels[i].kernel, &format!("{}_body", self.names[i]))
    }

    /// Run the chained full-system simulation (requires a fitting
    /// system). Simulating more elements than the `u64` picosecond
    /// clock counts (about 213 days) is [`FlowError::TicksOverflow`].
    pub fn simulate(&self, sim: &SimConfig) -> Result<ProgramHwResult, FlowError> {
        let system = self
            .system
            .as_ref()
            .ok_or_else(|| FlowError::Backend("no feasible program configuration".into()))?;
        // The run's total bounds its exec and transfer products, so this
        // one check covers all three.
        let round = zynq::program_round(system, sim);
        if round.serial_ticks(system.config.m, sim.elements).is_none() {
            return Err(FlowError::TicksOverflow {
                elements: sim.elements,
            });
        }
        Ok(zynq::simulate_program(system, sim))
    }

    /// Every stage's module and generated kernel, in chain order.
    fn stages(&self) -> (Vec<&Module>, Vec<&cgen::CKernel>) {
        let modules = self.kernels.iter().map(|a| &*a.module).collect();
        (modules, self.kernels.iter().map(|a| &a.kernel).collect())
    }

    /// Verify `n` chained elements against the chained reference
    /// interpreter.
    pub fn verify(&self, n: usize, seed: u64) -> Result<VerifyResult, FlowError> {
        let (modules, kernels) = self.stages();
        zynq::verify_program(&self.names, &modules, &kernels, n, seed).map_err(FlowError::Backend)
    }

    /// Whether the chained interpreter equals its multi-index walk, the
    /// definition [`ProgramArtifacts::verify`] trusts, bit for bit on the
    /// element `seed` draws (see [`zynq::matches_the_definition`]).
    pub fn matches_the_definition(&self, seed: u64) -> Result<bool, FlowError> {
        let (modules, _) = self.stages();
        zynq::matches_the_definition(&self.names, &modules, seed).map_err(FlowError::Backend)
    }

    /// Serve a stream of `opts.requests` independent requests on the
    /// compiled system: draw per-request arrivals (and, when
    /// `opts.execute` is set, inputs; under priority serving, tiers that
    /// cycle through the configured count in id order, tier 0 the most
    /// urgent), schedule the batched stream (`runtime::serve_generated`)
    /// and return the [`runtime::ServiceReport`] plus, when
    /// `opts.execute` is set, every request's output tensors.
    pub fn serve(
        &self,
        opts: &runtime::RuntimeOptions,
    ) -> Result<runtime::ServeOutcome, FlowError> {
        let system = self
            .system
            .as_ref()
            .ok_or_else(|| FlowError::Backend("no feasible program configuration".into()))?;
        let (modules, kernels) = self.stages();
        runtime::serve_generated(system, &self.names, &modules, &kernels, opts)
            .map_err(|e| FlowError::Backend(e.to_string()))
    }

    /// Serve one request stream across a fleet of boards
    /// (`runtime::serve_fleet_generated`): draw the stream exactly as
    /// [`ProgramArtifacts::serve`] would, then let the dispatcher shard
    /// it over `boards`. The functional stages come from *this* artifact
    /// — the kernel chain is platform-independent, so heterogeneous
    /// boards share one set of modules and kernels while each board
    /// keeps its own compiled system and cost model.
    pub fn serve_fleet(
        &self,
        boards: &[runtime::FleetBoard],
        fopts: &runtime::FleetOptions,
    ) -> Result<runtime::FleetOutcome, FlowError> {
        let (modules, kernels) = self.stages();
        runtime::serve_fleet_generated(boards, &self.names, &modules, &kernels, fopts)
            .map_err(|e| FlowError::Backend(e.to_string()))
    }

    /// Serve the same request stream with batching disabled, no DMA
    /// overlap and no fault injection — the sequential per-request
    /// baseline every speedup figure compares against (timing only).
    pub fn serve_sequential_baseline(
        &self,
        opts: &runtime::RuntimeOptions,
    ) -> Result<runtime::ServiceReport, FlowError> {
        let seq = runtime::RuntimeOptions {
            batch: runtime::BatchPolicy::Disabled,
            overlap_dma: false,
            execute: false,
            faults: zynq::FaultPlan::none(),
            recovery: runtime::RecoveryPolicy::default(),
            online: runtime::OnlinePolicy::default(),
            ..opts.clone()
        };
        Ok(self.serve(&seq)?.report)
    }
}

/// The program memory of one backend combination: the merged PLM plan,
/// its synthesized shared subsystem and the host's external byte
/// interface. It reads every kernel's Mnemosyne configuration and C
/// kernel IR, memory sharing and cross-kernel sharing, and no HLS
/// option — so a sweep merges once per backend key, whatever the
/// clock.
#[derive(Debug, Clone)]
pub(crate) struct MergedMemory {
    pub plan: ProgramMemoryPlan,
    pub memory: MemorySubsystem,
    pub bytes_in_per_element: usize,
    pub bytes_out_per_element: usize,
    pub handoff_bytes_per_element: usize,
}

impl MergedMemory {
    /// Merge `configs` (kernel order) under one BRAM budget and account
    /// the external bytes of `kernels` (the same order).
    pub fn merge<'a>(
        cross: &CrossLiveness,
        configs: &[&mnemosyne::MnemosyneConfig],
        kernels: impl IntoIterator<Item = &'a cgen::CKernel>,
        memory_opts: &mnemosyne::MemoryOptions,
        cross_sharing: bool,
    ) -> MergedMemory {
        let plan = mnemosyne::merge_configs(configs, cross, cross_sharing);
        let memory = mnemosyne::synthesize_program(&plan, memory_opts);
        // Host interface. Under cross-kernel sharing handoff buffers
        // are co-located and never cross the DMA; without it they keep
        // their stand-alone DMA wiring (mirroring `merge_configs`), so
        // the host transfers every kernel's inputs and outputs.
        let (bytes_in, bytes_out) = sysgen::HostProgram::interface_bytes(kernels, |k, p| {
            !cross_sharing || cross.info(k, &p.name).is_some_and(|s| s.external)
        });
        MergedMemory {
            plan,
            memory,
            bytes_in_per_element: bytes_in,
            bytes_out_per_element: bytes_out,
            handoff_bytes_per_element: if cross_sharing {
                cross.handoff_words() * 8
            } else {
                0
            },
        }
    }
}

/// The shared program-level products derived from per-kernel backends:
/// the [`MergedMemory`] and the stage-labelled HLS reports. Both
/// [`Pipeline::run_program`] and the DSE engine's per-slot definition
/// build systems from this one struct, and the sweep's pieces go
/// through the same [`MergedMemory::merge`], so sweep costs can never
/// diverge from what `ProgramFlow` produces.
#[derive(Debug, Clone)]
pub(crate) struct ProgramBuild {
    pub merged: MergedMemory,
    pub stages: Vec<(String, hls::HlsReport)>,
}

impl ProgramBuild {
    /// Merge memory, label stage reports and account the host's
    /// external byte interface for one backend combination.
    pub fn prepare(
        names: &[String],
        cross: &CrossLiveness,
        backends: &[&Backend],
        memory_opts: &mnemosyne::MemoryOptions,
        cross_sharing: bool,
    ) -> ProgramBuild {
        let configs: Vec<&mnemosyne::MnemosyneConfig> =
            backends.iter().map(|b| &b.mnemosyne_config).collect();
        let kernels = backends.iter().map(|b| &b.kernel);
        let merged = MergedMemory::merge(cross, &configs, kernels, memory_opts, cross_sharing);
        let stages: Vec<(String, hls::HlsReport)> = names
            .iter()
            .zip(backends)
            .map(|(n, b)| (n.clone(), b.hls_report.renamed(n.clone())))
            .collect();
        ProgramBuild { merged, stages }
    }

    /// The host program for one replication choice.
    pub fn host_for(&self, cfg: ProgramSystemConfig) -> ProgramHostProgram {
        ProgramHostProgram {
            config: cfg,
            stage_names: self.stages.iter().map(|(n, _)| n.clone()).collect(),
            bytes_in_per_element: self.merged.bytes_in_per_element,
            bytes_out_per_element: self.merged.bytes_out_per_element,
            handoff_bytes_per_element: self.merged.handoff_bytes_per_element,
        }
    }

    /// The automatic replication on `platform`: the cheapest design per
    /// element ([`sysgen::best_program_config`]), priced with the
    /// simulator's default host constants.
    pub fn pick(&self, platform: &sysgen::Platform) -> Option<ProgramSystemConfig> {
        let sim = SimConfig::default();
        let cost = zynq::RoundPricer {
            dma: &platform.dma,
            cfg: &sim,
            bytes_in_per_element: self.merged.bytes_in_per_element,
            bytes_out_per_element: self.merged.bytes_out_per_element,
        };
        sysgen::best_program_config(platform, &self.stages, &self.merged.memory, &cost)
    }

    /// Build the system for one replication choice (`None` when it
    /// exceeds the platform's board).
    pub fn design_for(
        &self,
        platform: &sysgen::Platform,
        cfg: ProgramSystemConfig,
    ) -> Option<MultiSystemDesign> {
        MultiSystemDesign::build(
            platform,
            &self.stages,
            &self.merged.memory,
            cfg.clone(),
            self.host_for(cfg),
        )
    }
}

/// The program-flow entry point.
pub struct ProgramFlow;

impl ProgramFlow {
    /// Compile a (possibly multi-kernel) CFDlang source through the
    /// complete program flow on a fresh [`Pipeline`].
    pub fn compile(source: &str, opts: &ProgramOptions) -> Result<ProgramArtifacts, FlowError> {
        Pipeline::new().run_program(source, opts)
    }

    /// Compile against a shared [`crate::CompileCache`]: every kernel's
    /// scheduling stage is memoized under its content hash. Artifacts
    /// are bit-identical to an uncached compile; the program
    /// [`StageTimings`] carry the cache counters.
    pub fn compile_cached(
        source: &str,
        opts: &ProgramOptions,
        cache: Arc<crate::CompileCache>,
    ) -> Result<ProgramArtifacts, FlowError> {
        Pipeline::with_cache(cache).run_program(source, opts)
    }
}

impl Pipeline {
    /// The complete program flow: per-kernel stages, the cross-kernel
    /// link stage, program-wide memory synthesis and the multi-system
    /// stage.
    pub fn run_program(
        &self,
        source: &str,
        opts: &ProgramOptions,
    ) -> Result<ProgramArtifacts, FlowError> {
        let fronts = self.program_frontend(source)?;
        self.run_fronts(fronts, opts)
    }

    /// [`Flow::compile`](crate::Flow::compile): the one-kernel program
    /// with `opts.system` as its uniform replication, reduced to its
    /// kernel slot carrying the program's timings. A multi-kernel
    /// source is rejected after the frontend, before any middle end.
    pub(crate) fn run_kernel(
        &self,
        source: &str,
        opts: &FlowOptions,
    ) -> Result<Artifacts, FlowError> {
        let fronts = self.program_frontend(source)?;
        if fronts.len() > 1 {
            return Err(FlowError::Backend(
                "multi-kernel program source: use the program flow (run_program)".into(),
            ));
        }
        let system = opts
            .system
            .map(|c| ProgramSystemConfig::uniform(c.k, c.m, 1));
        let popts = ProgramOptions {
            system,
            ..opts.clone().into()
        };
        let program = self.run_fronts(fronts, &popts)?;
        let mut kernels = program.kernels.into_iter();
        let mut kernel = kernels.next().expect("a parsed source has a kernel");
        kernel.timings = program.timings;
        Ok(kernel)
    }

    /// Everything after the frontend.
    fn run_fronts(
        &self,
        fronts: Vec<(String, Frontend)>,
        opts: &ProgramOptions,
    ) -> Result<ProgramArtifacts, FlowError> {
        let names: Vec<String> = fronts.iter().map(|(n, _)| n.clone()).collect();
        // Per-kernel options: the program stage owns the system choice.
        let kopts = FlowOptions {
            system: None,
            ..opts.flow.clone()
        };
        // The per-kernel stages are independent: fan them over `jobs`
        // workers in kernel order, so the artifact stream is
        // bit-identical to the serial compile. This is the only parallel
        // level: each kernel's stages, liveness included, run serially
        // on their worker.
        let jobs = resolve_jobs(opts.flow.jobs);
        let (scheds, link) = self.schedule_program(&names, &fronts, &kopts, jobs)?;
        let backends = fan_out(jobs, scheds.len(), |i| {
            let be = self.backend(&scheds[i], &kopts);
            let c_source = cgen::emit_c99(&be.kernel);
            (be, c_source)
        });
        self.finish_program(opts, &kopts, fronts, scheds, link, backends)
    }

    /// Every kernel's middle end + schedule over up to `jobs` workers,
    /// in kernel order, then the cross-kernel link stage. When several
    /// kernels fail, the first in program order names the error.
    pub(crate) fn schedule_program(
        &self,
        names: &[String],
        fronts: &[(String, Frontend)],
        kopts: &FlowOptions,
        jobs: usize,
    ) -> Result<(Vec<Scheduled>, LinkStage), FlowError> {
        let scheds = fan_out(jobs, fronts.len(), |i| {
            let me = self.middle_end(&fronts[i].1, kopts);
            me.map(|me| self.schedule(&me, kopts))
        })
        .into_iter()
        .collect::<Result<Vec<Scheduled>, FlowError>>()?;
        let link = self.link(names, &scheds)?;
        Ok((scheds, link))
    }

    /// Program memory + system construction from already-compiled
    /// per-kernel stage products (compiled under `kopts`): each
    /// kernel's backend and its emitted C text.
    fn finish_program(
        &self,
        opts: &ProgramOptions,
        kopts: &FlowOptions,
        fronts: Vec<(String, Frontend)>,
        scheds: Vec<Scheduled>,
        link: LinkStage,
        backends: Vec<(Backend, String)>,
    ) -> Result<ProgramArtifacts, FlowError> {
        let names: Vec<String> = fronts.iter().map(|(n, _)| n.clone()).collect();
        let t_sys = Instant::now();
        self.count_systems(1);
        let cross = Arc::clone(&link.cross);

        // Program memory + stage reports + host byte interface (shared
        // with the joint DSE engine).
        let brefs: Vec<&Backend> = backends.iter().map(|(be, _)| be).collect();
        let build = ProgramBuild::prepare(
            &names,
            &cross,
            &brefs,
            &opts.flow.memory,
            opts.cross_sharing,
        );

        // Replication: the requested configuration, or one `k_i` per
        // stage by the exact search over Eq. (3), priced as the simulator
        // prices rounds (`sysgen::replicate`).
        if let Some(c) = &opts.system {
            if c.ks.len() != names.len() {
                return Err(FlowError::Backend(format!(
                    "replication lists {} stages but the program has {}",
                    c.ks.len(),
                    names.len()
                )));
            }
            if !c.valid() {
                return Err(FlowError::Backend(format!(
                    "invalid replication ks={:?}, m={}: m must be a power-of-two multiple of every k",
                    c.ks, c.m
                )));
            }
        }
        let cfg = match &opts.system {
            Some(c) => Some(c.clone()),
            None => build.pick(&opts.flow.platform),
        };
        let (system, host_source) = match cfg {
            Some(c) => {
                let host_src = build.host_for(c.clone()).to_c(opts.flow.elements);
                let design = build.design_for(&opts.flow.platform, c.clone());
                if design.is_none() && opts.system.is_some() {
                    return Err(FlowError::DoesNotFit {
                        k: c.ks.iter().copied().max().unwrap_or(0),
                        m: c.m,
                        board: opts.flow.platform.board.name.clone(),
                    });
                }
                (design, host_src)
            }
            None => (None, String::new()),
        };
        let MergedMemory {
            plan: memory_plan,
            memory,
            ..
        } = build.merged;
        let system_s = t_sys.elapsed().as_secs_f64();

        let timings = StageTimings {
            backend_s: backends.iter().map(|(be, _)| be.elapsed_s).sum(),
            system_s,
            cache: self.cache_counters(),
            ..StageTimings::shared(&fronts, &scheds, &link)
        };
        let kernels: Vec<Artifacts> = fronts
            .iter()
            .zip(&scheds)
            .zip(backends)
            .map(|(((_, fe), sc), (be, c_source))| Artifacts::assemble(fe, sc, be, c_source, kopts))
            .collect();
        Ok(ProgramArtifacts {
            names,
            kernels,
            cross,
            memory_plan,
            memory,
            system,
            host_source,
            options: opts.clone(),
            timings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Flow;

    #[test]
    fn simulation_step_compiles_into_one_system() {
        let src = cfdlang::examples::simulation_step(4);
        let art = ProgramFlow::compile(&src, &ProgramOptions::default()).unwrap();
        assert_eq!(art.kernel_count(), 3);
        assert_eq!(
            art.names,
            vec!["interpolate", "inverse_helmholtz", "project"]
        );
        let sys = art.system.as_ref().expect("program fits");
        assert_eq!(sys.stages.len(), 3);
        // Cross-kernel sharing beats the concatenated per-kernel PLMs.
        assert!(art.memory.brams < art.per_kernel_plm_brams());
        assert!(art.memory_plan.cross_edges > 0);
        // The chain simulates and verifies end-to-end.
        let r = art
            .simulate(&SimConfig {
                elements: 64,
                ..Default::default()
            })
            .unwrap();
        assert_eq!(r.stage_exec_s.len(), 3);
        assert!(r.total_s > 0.0);
        assert!(art.verify(1, 3).unwrap().bitexact);
    }

    #[test]
    fn single_kernel_source_is_degenerate_program() {
        let src = cfdlang::examples::inverse_helmholtz(4);
        let art = ProgramFlow::compile(&src, &ProgramOptions::default()).unwrap();
        assert_eq!(art.names, vec!["main"]);
        assert!(art.cross.handoffs.is_empty());
        let single = Flow::compile(&src, &FlowOptions::default()).unwrap();
        let k = &art.kernels[0];
        assert_eq!(k.c_source, single.c_source);
        assert_eq!(k.hls_report, single.hls_report);
        assert_eq!(k.memory, single.memory);
        // The degenerate program system picks the same k = m as the
        // single-kernel Eq. (3) and costs what the single-kernel design
        // costs.
        let platform = &art.options.flow.platform;
        let ss = sysgen::max_equal_config(platform, &k.hls_report, &k.memory).unwrap();
        let sd = sysgen::Totals::fit(platform, [(ss.k, &k.hls_report)], &k.memory, ss.m).unwrap();
        let ps = art.system.as_ref().unwrap();
        assert_eq!(ps.config.ks, vec![ss.k]);
        assert_eq!(ps.config.m, ss.m);
        assert_eq!(
            (ps.luts, ps.ffs, ps.dsps, ps.brams),
            (sd.luts, sd.ffs, sd.dsps, sd.brams)
        );
    }

    #[test]
    fn stage_counters_reflect_program_shape() {
        let p = Pipeline::new();
        let art = p
            .run_program(
                &cfdlang::examples::axpy_chain(3),
                &ProgramOptions::default(),
            )
            .unwrap();
        assert_eq!(art.kernel_count(), 2);
        let c = p.counters();
        assert_eq!(c.frontend, 1);
        assert_eq!(c.middle_end, 2);
        assert_eq!(c.schedule, 2);
        assert_eq!(c.link, 1);
        assert_eq!(c.backend, 2);
        assert_eq!(c.system, 1);
        assert!(art.timings.total_s() > 0.0);
    }

    #[test]
    fn without_cross_sharing_handoffs_pay_dma() {
        let src = cfdlang::examples::axpy_chain(4);
        let shared = ProgramFlow::compile(&src, &ProgramOptions::default()).unwrap();
        let copied = ProgramFlow::compile(
            &src,
            &ProgramOptions {
                cross_sharing: false,
                ..Default::default()
            },
        )
        .unwrap();
        let (hs, hc) = (
            &shared.system.as_ref().unwrap().host,
            &copied.system.as_ref().unwrap().host,
        );
        // The handoff w (64 words) moves from the fabric to the DMA.
        assert_eq!(hs.handoff_bytes_per_element, 64 * 8);
        assert_eq!(hc.handoff_bytes_per_element, 0);
        assert_eq!(
            hc.bytes_in_per_element,
            hs.bytes_in_per_element + 64 * 8,
            "consumer input now loaded by the host"
        );
        assert_eq!(
            hc.bytes_out_per_element,
            hs.bytes_out_per_element + 64 * 8,
            "producer output now drained by the host"
        );
        // And the simulated transfers actually grow.
        let sim = |a: &ProgramArtifacts| {
            a.simulate(&SimConfig {
                elements: 64,
                ..Default::default()
            })
            .unwrap()
            .transfer_s
        };
        assert!(sim(&copied) > sim(&shared));
    }

    #[test]
    fn single_kernel_block_source_compiles_everywhere() {
        // `kernel solo { ... }` is the degenerate one-kernel set and
        // must work through the single-kernel entry points too.
        let src = format!("kernel solo {{\n{}}}\n", cfdlang::examples::axpy(3));
        let art = Flow::compile(&src, &FlowOptions::default()).unwrap();
        assert!(art.verify(1, 2).unwrap().bitexact);
        let prog = ProgramFlow::compile(&src, &ProgramOptions::default()).unwrap();
        assert_eq!(prog.names, vec!["solo"]);
        let engine = crate::dse::DseEngine::prepare(&src, &FlowOptions::default()).unwrap();
        assert_eq!(engine.label(), "solo");
    }

    #[test]
    fn flow_compile_of_a_multi_kernel_source_is_an_error() {
        // `Flow::compile` is the one-kernel program's compile: a
        // multi-kernel source is rejected after the frontend, before
        // any middle end runs.
        let src = cfdlang::examples::simulation_step(4);
        let p = Pipeline::new();
        match p.run_kernel(&src, &FlowOptions::default()).unwrap_err() {
            FlowError::Backend(msg) => assert!(msg.contains("multi-kernel"), "{msg}"),
            other => panic!("expected the multi-kernel error, got {other}"),
        }
        assert_eq!(p.counters().frontend, 1);
        assert_eq!(p.counters().middle_end, 0);
        assert_eq!(
            Flow::compile(&src, &FlowOptions::default()).unwrap_err(),
            FlowError::Backend(
                "multi-kernel program source: use the program flow (run_program)".into()
            )
        );
        // A one-kernel block is the one-kernel program, named or not.
        let solo = format!("kernel solo {{\n{}}}\n", cfdlang::examples::axpy(3));
        let art = Flow::compile(&solo, &FlowOptions::default()).unwrap();
        let plain = Flow::compile(&cfdlang::examples::axpy(3), &FlowOptions::default()).unwrap();
        assert_eq!(art.c_source, plain.c_source);
    }

    #[test]
    fn stage_sources_and_reports_carry_stage_names() {
        let art = ProgramFlow::compile(
            &cfdlang::examples::axpy_chain(3),
            &ProgramOptions::default(),
        )
        .unwrap();
        // Emission for the linked system uses program-unique symbols...
        assert!(art.stage_c_source(0).contains("void axpy_scale_body("));
        assert!(art.stage_c_source(1).contains("void axpy_update_body("));
        let sys = art.system.as_ref().unwrap();
        assert_eq!(sys.stages[0].kernel.kernel, "axpy_scale");
        assert_eq!(sys.stages[1].kernel.kernel, "axpy_update");
        // ...while the per-kernel artifacts keep their stand-alone
        // shape (the bit-identity guarantee).
        assert!(art.kernels[0].c_source.contains("void kernel_body("));
    }

    #[test]
    fn serving_batches_beat_sequential_per_request() {
        let src = cfdlang::examples::axpy_chain(4);
        let art = ProgramFlow::compile(&src, &ProgramOptions::default()).unwrap();
        let m = art.system.as_ref().unwrap().config.m;
        assert!(m >= 2, "auto-picked system must batch (m = {m})");
        let opts = runtime::RuntimeOptions {
            requests: 32,
            ..Default::default()
        };
        let served = art.serve(&opts).unwrap();
        let seq = art.serve_sequential_baseline(&opts).unwrap();
        assert!(
            served.report.throughput_rps >= 2.0 * seq.throughput_rps,
            "batched {} req/s vs sequential {} req/s",
            served.report.throughput_rps,
            seq.throughput_rps
        );
        assert!(served.report.latency_p50_s <= served.report.latency_p99_s);
        assert_eq!(served.report.traces.len(), 32);
        // Timing-only by default: no functional outputs materialized.
        assert!(served.outputs.is_empty());
    }

    #[test]
    fn requested_oversized_program_errors() {
        let src = cfdlang::examples::simulation_step(4);
        let opts = ProgramOptions {
            system: Some(ProgramSystemConfig::uniform(64, 64, 3)),
            ..Default::default()
        };
        let err = ProgramFlow::compile(&src, &opts).unwrap_err();
        assert!(matches!(err, FlowError::DoesNotFit { .. }));
    }

    #[test]
    fn handoff_buffers_leave_the_host_interface() {
        let src = cfdlang::examples::simulation_step(4);
        let art = ProgramFlow::compile(&src, &ProgramOptions::default()).unwrap();
        let host = &art.system.as_ref().unwrap().host;
        // u and v hand off in-fabric (64 words each at p=4).
        assert_eq!(host.handoff_bytes_per_element, 2 * 64 * 8);
        // External inputs: P, u0, S, D, Q; external output: w only.
        assert_eq!(host.bytes_in_per_element, (16 + 64 + 16 + 64 + 16) * 8);
        assert_eq!(host.bytes_out_per_element, 64 * 8);
    }

    #[test]
    fn a_stage_near_the_tick_limit_keeps_the_uniform_pick_or_fails_structurally() {
        // One stage of a compiled simstep:4 slowed to within reach of the
        // u64 picosecond clock: the automatic replication never chooses a
        // round past the clock, replaces the uniform pick only with a
        // strictly cheaper priced design, and simulating the result is
        // Ok or `TicksOverflow`, neither wrapped nor panicked.
        let art = ProgramFlow::compile(
            &cfdlang::examples::simulation_step(4),
            &ProgramOptions::default(),
        )
        .unwrap();
        let sys = art.system.as_ref().unwrap();
        let platform = &sys.platform;
        // One round: whether it fits the clock is the question.
        let sim = SimConfig {
            elements: 1,
            ..SimConfig::default()
        };
        let mut outcomes = (0, 0);
        for ticks in [1u64 << 60, 1 << 62, u64::MAX - (1 << 10), u64::MAX] {
            for stage in 0..sys.stages.len() {
                let mut build = ProgramBuild {
                    merged: MergedMemory {
                        plan: art.memory_plan.clone(),
                        memory: art.memory.clone(),
                        bytes_in_per_element: sys.host.bytes_in_per_element,
                        bytes_out_per_element: sys.host.bytes_out_per_element,
                        handoff_bytes_per_element: sys.host.handoff_bytes_per_element,
                    },
                    stages: (sys.stages.iter())
                        .map(|s| (s.name.clone(), s.kernel.clone()))
                        .collect(),
                };
                let report = &mut build.stages[stage].1;
                report.latency_cycles = (ticks as f64 * 1e-12 * report.clock_mhz * 1e6) as u64;
                let uniform =
                    sysgen::max_equal_program_config(platform, &build.stages, &art.memory).unwrap();
                let pick = build.pick(platform).unwrap();
                let round = |c: &ProgramSystemConfig| {
                    let design = build.design_for(platform, c.clone()).unwrap();
                    zynq::program_round(&design, &sim).serial_ticks(c.m, c.m)
                };
                if pick != uniform {
                    let (t, u) = (round(&pick).unwrap(), round(&uniform).unwrap());
                    assert!(sysgen::replicate::cheaper(t, pick.m, u, uniform.m));
                }
                let system = build.design_for(platform, pick);
                let slowed = ProgramArtifacts {
                    system,
                    ..art.clone()
                };
                match slowed.simulate(&sim) {
                    Ok(_) => outcomes.0 += 1,
                    Err(FlowError::TicksOverflow { elements: 1 }) => outcomes.1 += 1,
                    Err(e) => panic!("stage {stage} at {ticks} ticks: {e}"),
                }
            }
        }
        assert!(outcomes.0 > 0 && outcomes.1 > 0, "{outcomes:?}");
    }
}
