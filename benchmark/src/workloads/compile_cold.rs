//! `compile_cold`: the designer's first compile.
//!
//! One round compiles ten programs from source on the paper's ZCU106,
//! each after `polyhedra::intern::clear_memo()` and with no compile
//! cache, so every compiler layer runs (cfdlang → teil →
//! polyhedra/pschedule → cgen/hls → mnemosyne → sysgen) and no serving
//! code does. Eight programs are fixed; one `inverse_helmholtz(p)` and
//! one `simulation_step(p)` are drawn from the seed. The `sim_*`
//! metrics cover the eight fixed programs only, so they are the same
//! for every seed.
//!
//! The traced run compiles the same programs through the layers' own
//! public functions, one span per call, in the order
//! `Pipeline::run_program` composes them. Its artifacts must equal the
//! monolithic compile's; the share of the monolithic compile's time that
//! the stage spans do not account for is
//! `cfd-core.compile_unattributed_share`.

use std::path::Path;

use cfd_core::program::{ProgramArtifacts, ProgramFlow, ProgramOptions};
use cfd_core::{Flow, FlowOptions, RuntimeOptions};
use cgen::{CodegenOptions, ParamRole};
use mnemosyne::MnemosyneConfig;
use polyhedra::OracleCounters;
use pschedule::{CompatibilityGraph, CrossLiveness, Dependences, KernelModel, Liveness};
use sysgen::{MultiSystemDesign, Platform, ProgramHostProgram, SystemConfig, SystemDesign};
use teil::layout::LayoutPlan;
use zynq::{ArmCostModel, SimConfig};

use super::{
    compile, program_options, serving_sim, speedup_vs_arm, verify_bitexact, SERVED_P, SIM_ELEMENTS,
};
use crate::cal;
use crate::harness::{fnv64, fnv64_extend, splitmix, OpKind, SimMetrics, Workload};
use crate::metrics::Metrics;
use crate::stats::geomean;
use crate::trace::{SpanAgg, Tracer};

/// Requests of the closed probe behind the serving `sim_*` metrics (the
/// size the DSE engine's own service probe uses).
const PROBE_REQUESTS: usize = 64;

/// What a compile produced, reduced to what both the monolithic and the
/// staged path can be compared on.
#[derive(Debug, PartialEq, Eq)]
pub struct Compiled {
    names: Vec<String>,
    c_sources: Vec<String>,
    ir_stmts: Vec<usize>,
    kernel_latency_cycles: Vec<u64>,
    kernel_plm_brams: Vec<usize>,
    plm_brams: usize,
    /// `(ks, m, luts, ffs, dsps, brams)` of the system, if one fits.
    system: Option<(Vec<usize>, usize, usize, usize, usize, usize)>,
    host_source: String,
}

impl Compiled {
    fn of(art: &ProgramArtifacts) -> Compiled {
        Compiled {
            names: art.names.clone(),
            c_sources: art.kernels.iter().map(|k| k.c_source.clone()).collect(),
            ir_stmts: art.kernels.iter().map(|k| k.module.stmts.len()).collect(),
            kernel_latency_cycles: art
                .kernels
                .iter()
                .map(|k| k.hls_report.latency_cycles)
                .collect(),
            kernel_plm_brams: art.kernels.iter().map(|k| k.memory.brams).collect(),
            plm_brams: art.memory.brams,
            system: art.system.as_ref().map(system_key),
            host_source: art.host_source.clone(),
        }
    }

    fn fingerprint(&self) -> u64 {
        let mut h = fnv64(format!("{:?}", (&self.names, &self.system)).as_bytes());
        for src in &self.c_sources {
            h = fnv64_extend(h, src.as_bytes());
        }
        let counts = (
            &self.ir_stmts,
            &self.kernel_latency_cycles,
            &self.kernel_plm_brams,
            self.plm_brams,
        );
        h = fnv64_extend(h, format!("{counts:?}").as_bytes());
        fnv64_extend(h, self.host_source.as_bytes())
    }
}

fn system_key(d: &MultiSystemDesign) -> (Vec<usize>, usize, usize, usize, usize, usize) {
    (
        d.config.ks.clone(),
        d.config.m,
        d.luts,
        d.ffs,
        d.dsps,
        d.brams,
    )
}

pub enum CompileOut {
    Monolithic(Box<ProgramArtifacts>),
    Staged(Result<Box<Compiled>, String>),
}

struct Program {
    source: String,
    /// Fingerprint of the set-up compile.
    reference: u64,
    /// Of the set-up compile: kernels, IR statements after
    /// canonicalization, bytes of generated C.
    kernels: usize,
    ir_stmts: usize,
    c_bytes: usize,
}

pub struct CompileCold {
    kinds: Vec<OpKind>,
    programs: Vec<Program>,
    opts: ProgramOptions,
    sim: SimMetrics,
    /// Oracle counters summed over the traced ops.
    oracle: OracleCounters,
    traced_ops: u64,
}

/// `(name, source, fixed)`: the eight fixed programs, then the two the
/// seed draws.
fn zoo(seed: u64) -> Vec<(String, String, bool)> {
    use cfdlang::examples as ex;
    let mut rng = seed ^ 0xC01D_C0DE;
    let helm_p = 5 + (splitmix(&mut rng) % 6) as usize;
    let step_p = 4 + (splitmix(&mut rng) % 3) as usize;
    vec![
        ("inverse_helmholtz_7".into(), ex::inverse_helmholtz(7), true),
        (
            "inverse_helmholtz_11".into(),
            ex::inverse_helmholtz(11),
            true,
        ),
        ("interpolation_4_7".into(), ex::interpolation(4, 7), true),
        ("matrix_sandwich_8".into(), ex::matrix_sandwich(8), true),
        ("axpy_5".into(), ex::axpy(5), true),
        ("simulation_step_5".into(), ex::simulation_step(5), true),
        (
            format!("simulation_step_{SERVED_P}"),
            ex::simulation_step(SERVED_P),
            true,
        ),
        ("axpy_chain_4".into(), ex::axpy_chain(4), true),
        (
            format!("drawn_inverse_helmholtz_{helm_p}"),
            ex::inverse_helmholtz(helm_p),
            false,
        ),
        (
            format!("drawn_simulation_step_{step_p}"),
            ex::simulation_step(step_p),
            false,
        ),
    ]
}

impl Workload for CompileCold {
    type Out = CompileOut;

    const ROUNDS_PER_SECOND: f64 = 9.0;
    const CAL: cal::CalOp = cal::MEM;

    fn setup(seed: u64, _out_dir: &Path) -> Result<Self, String> {
        let opts = program_options(Platform::zcu106());
        let mut kinds = Vec::new();
        let mut programs = Vec::new();
        let (mut speedups, mut plm_brams, mut kernels_fit) = (Vec::new(), 0usize, 0usize);
        let mut probe = None;
        for (name, source, fixed) in zoo(seed) {
            polyhedra::intern::clear_memo();
            let art = compile(&source, &opts).map_err(|e| format!("{name}: {e}"))?;
            verify_bitexact(&name, &art, seed)?;
            if fixed {
                let system = art
                    .system
                    .as_ref()
                    .ok_or_else(|| format!("{name}: does not fit the zcu106"))?;
                speedups.push(speedup_vs_arm(&name, &art)?);
                plm_brams += art.memory.brams;
                kernels_fit += system.config.m;
            }
            if name == format!("simulation_step_{SERVED_P}") {
                let served = art
                    .serve(&RuntimeOptions {
                        requests: PROBE_REQUESTS,
                        ..RuntimeOptions::default()
                    })
                    .map_err(|e| format!("{name}: closed probe: {e}"))?;
                super::conserves(&served.report)?;
                probe = Some(serving_sim(&served.report));
            }
            let compiled = Compiled::of(&art);
            programs.push(Program {
                source,
                reference: compiled.fingerprint(),
                kernels: compiled.names.len(),
                ir_stmts: compiled.ir_stmts.iter().sum(),
                c_bytes: compiled.c_sources.iter().map(String::len).sum(),
            });
            kinds.push(OpKind { name, units: 1 });
        }
        let (goodput_rps, p99_ms, served_share) = probe.expect("the zoo holds the headline");
        Ok(CompileCold {
            kinds,
            programs,
            opts,
            sim: SimMetrics {
                speedup_vs_arm: geomean(&speedups),
                plm_brams: plm_brams as f64,
                kernels_fit: kernels_fit as f64,
                goodput_rps,
                p99_ms,
                served_share,
            },
            oracle: OracleCounters::default(),
            traced_ops: 0,
        })
    }

    fn kinds(&self) -> &[OpKind] {
        &self.kinds
    }

    fn headline(&self) -> usize {
        let name = format!("simulation_step_{SERVED_P}");
        self.kinds
            .iter()
            .position(|k| k.name == name)
            .expect("the zoo holds the headline")
    }

    fn run(&mut self, kind: usize, tracer: &mut Tracer) -> CompileOut {
        let source = &self.programs[kind].source;
        polyhedra::intern::clear_memo();
        if !tracer.enabled() {
            let art = ProgramFlow::compile(source, &self.opts)
                .expect("compiled in set-up, so it compiles");
            return CompileOut::Monolithic(Box::new(art));
        }
        let base = OracleCounters::snapshot();
        let staged = tracer.span("op.compile", |t| compile_staged(source, &self.opts, t));
        let delta = OracleCounters::snapshot().since(base);
        add_counters(&mut self.oracle, &delta);
        self.traced_ops += 1;
        CompileOut::Staged(staged.map(Box::new))
    }

    fn check(&self, kind: usize, out: &CompileOut) -> Result<(), String> {
        let got = match out {
            CompileOut::Monolithic(art) => Compiled::of(art).fingerprint(),
            CompileOut::Staged(Ok(c)) => c.fingerprint(),
            CompileOut::Staged(Err(e)) => return Err(format!("staged compile failed: {e}")),
        };
        if got == self.programs[kind].reference {
            Ok(())
        } else {
            Err(format!(
                "artifacts differ from the set-up compile (fingerprint {got:016x} vs {:016x})",
                self.programs[kind].reference
            ))
        }
    }

    fn sim(&self) -> SimMetrics {
        self.sim
    }

    fn layers(&mut self, agg: &SpanAgg, m: &mut Metrics) -> Result<(), String> {
        let us = 1e6;
        let progs = self.traced_ops.max(1) as f64;
        let sum = |f: fn(&Program) -> usize| self.programs.iter().map(f).sum::<usize>() as f64;
        let kernels = sum(|p| p.kernels);
        m.set(
            "cfdlang.parse_check_us_per_prog",
            agg.per_call_s("cfdlang.parse_check") * us,
        );
        m.set(
            "cfdlang.source_bytes_per_prog",
            sum(|p| p.source.len()) / self.programs.len() as f64,
        );
        m.set(
            "teil.lower_factorize_us_per_kernel",
            agg.per_call_s("teil.lower_factorize") * us,
        );
        m.set(
            "teil.ir_stmts_after_factorize",
            sum(|p| p.ir_stmts) / kernels,
        );
        for (metric, span) in [
            ("pschedule.model_us_per_kernel", "pschedule.model"),
            ("pschedule.deps_us_per_kernel", "pschedule.deps"),
            ("pschedule.reschedule_us_per_kernel", "pschedule.reschedule"),
            ("pschedule.liveness_us_per_kernel", "pschedule.liveness"),
            ("pschedule.link_us_per_prog", "pschedule.link"),
            ("cgen.build_emit_us_per_kernel", "cgen.build_emit"),
            ("hls.estimate_us_per_kernel", "hls.estimate"),
            ("sysgen.system_us_per_prog", "sysgen.system"),
        ] {
            m.set(metric, agg.per_call_s(span) * us);
        }
        m.set("cgen.c_bytes_per_kernel", sum(|p| p.c_bytes) / kernels);
        let programs_per_round = self.programs.len() as f64;
        let mnemosyne = [
            "mnemosyne.config",
            "mnemosyne.synthesize",
            "mnemosyne.program",
        ];
        m.set(
            "mnemosyne.synthesize_us_per_prog",
            agg.per_round_s(&mnemosyne) / programs_per_round * us,
        );

        let o = &self.oracle;
        let queries = o.quick_hits + o.corner_hits + o.memo_hits + o.memo_misses;
        let ratio = |hits: u64, misses: u64| {
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            }
        };
        m.set(
            "polyhedra.is_empty_queries_per_prog",
            queries as f64 / progs,
        );
        m.set(
            "polyhedra.corner_hits_per_prog",
            o.corner_hits as f64 / progs,
        );
        m.set(
            "polyhedra.memo_hit_ratio",
            ratio(o.memo_hits, o.memo_misses),
        );
        m.set(
            "polyhedra.simplex_calls_per_prog",
            o.simplex_calls as f64 / progs,
        );
        m.set(
            "polyhedra.fm_fallbacks_per_prog",
            o.fm_fallbacks as f64 / progs,
        );
        m.set(
            "polyhedra.proj_hit_ratio",
            ratio(o.proj_hits, o.proj_misses),
        );
        m.set(
            "polyhedra.between_hit_ratio",
            ratio(o.between_hits, o.between_misses),
        );

        // What `ProgramFlow::compile` costs in the untraced rounds and
        // the stage spans of the traced rounds do not account for: work
        // only the monolithic entry point does, or that the staged
        // spelling has lost track of.
        let stages = agg.per_round_s(&[
            "cfdlang.parse_check",
            "teil.lower_factorize",
            "pschedule.model",
            "pschedule.deps",
            "pschedule.reschedule",
            "pschedule.liveness",
            "pschedule.link",
            "cgen.build_emit",
            "hls.estimate",
            "mnemosyne.config",
            "mnemosyne.synthesize",
            "mnemosyne.program",
            "sysgen.system",
        ]);
        m.set(
            "cfd-core.compile_unattributed_share",
            (1.0 - stages / agg.untraced_round_s).max(0.0),
        );

        let p = paper_figures().map_err(|e| format!("paper figures not reproduced: {e}"))?;
        m.set("mnemosyne.paper_plm_brams_shared", p.plm_shared as f64);
        m.set("mnemosyne.paper_plm_brams_unshared", p.plm_unshared as f64);
        m.set("sysgen.paper_kernels_fit_shared", p.fit_shared as f64);
        m.set("sysgen.paper_kernels_fit_unshared", p.fit_unshared as f64);
        m.set("sysgen.paper_speedup_k16", p.speedup_k16);
        m.set("sysgen.paper_speedup_k8", p.speedup_k8);
        Ok(())
    }
}

fn add_counters(acc: &mut OracleCounters, d: &OracleCounters) {
    acc.quick_hits += d.quick_hits;
    acc.corner_hits += d.corner_hits;
    acc.memo_hits += d.memo_hits;
    acc.memo_misses += d.memo_misses;
    acc.simplex_calls += d.simplex_calls;
    acc.simplex_empty += d.simplex_empty;
    acc.fm_fallbacks += d.fm_fallbacks;
    acc.proj_hits += d.proj_hits;
    acc.proj_misses += d.proj_misses;
    acc.between_hits += d.between_hits;
    acc.between_misses += d.between_misses;
}

/// One kernel's products on the way through the staged compile.
struct StagedKernel {
    module: teil::Module,
    model: KernelModel,
    schedule: pschedule::Schedule,
    compat: CompatibilityGraph,
}

/// `Pipeline::run_program` with `jobs = 1`, spelled out over the
/// layers' public functions with one span per call.
fn compile_staged(source: &str, opts: &ProgramOptions, t: &mut Tracer) -> Result<Compiled, String> {
    let flow = &opts.flow;
    let typed = t
        .leaf("cfdlang.parse_check", || {
            cfdlang::parse_set(source).and_then(|set| cfdlang::check_set(&set))
        })
        .map_err(|d| d.to_string())?;
    let names: Vec<String> = typed.kernels.iter().map(|k| k.name.clone()).collect();

    let mut kernels = Vec::with_capacity(names.len());
    for k in &typed.kernels {
        let (module, layout) = t.leaf("teil.lower_factorize", || {
            let mut module = teil::lower(&k.typed)?;
            if flow.factorize {
                module = teil::transform::factorize(&module);
            }
            if flow.clean {
                module = teil::transform::dce(&teil::transform::cse(&module));
            }
            let layout = LayoutPlan::row_major(&module);
            Ok::<_, String>((module, layout))
        })?;
        let model = t.leaf("pschedule.model", || KernelModel::build(&module, &layout));
        let deps = t.leaf("pschedule.deps", || Dependences::analyze(&model));
        let schedule = t.leaf("pschedule.reschedule", || {
            pschedule::reschedule(&module, &model, &deps, &flow.scheduler)
        });
        let compat = t.leaf("pschedule.liveness", || {
            let liveness = Liveness::analyze_jobs(&module, &model, &schedule, 1);
            CompatibilityGraph::build(&model, &liveness)
        });
        kernels.push(StagedKernel {
            module,
            model,
            schedule,
            compat,
        });
    }

    let cross = t.leaf("pschedule.link", || {
        let modules: Vec<&teil::Module> = kernels.iter().map(|k| &k.module).collect();
        CrossLiveness::analyze(&names, &modules)
    })?;

    let mut configs = Vec::with_capacity(kernels.len());
    let mut ckernels = Vec::with_capacity(kernels.len());
    let mut c_sources = Vec::with_capacity(kernels.len());
    let mut reports = Vec::with_capacity(kernels.len());
    let mut kernel_plm_brams = Vec::with_capacity(kernels.len());
    for k in &kernels {
        let config = t.leaf("mnemosyne.config", || {
            let full = MnemosyneConfig::from_graph(&k.compat);
            let mut config = if flow.decoupled {
                full
            } else {
                full.retain_interface()
            };
            for spec in config.arrays.clone() {
                let (r, w) = flow.hls.ports_for(&spec.name);
                if (r, w) != (1, 1) {
                    config.set_ports(&spec.name, r, w);
                }
            }
            config
        });
        let (ckernel, c_source) = t.leaf("cgen.build_emit", || {
            let cg = CodegenOptions {
                decoupled: flow.decoupled,
                ..CodegenOptions::default()
            };
            let ckernel = cgen::build_kernel(&k.module, &k.model, &k.schedule, &cg);
            let c_source = cgen::emit_c99(&ckernel);
            (ckernel, c_source)
        });
        let report = t.leaf("hls.estimate", || hls::synthesize(&ckernel, &flow.hls));
        let memory = t.leaf("mnemosyne.synthesize", || {
            mnemosyne::synthesize(&config, &flow.memory)
        });
        kernel_plm_brams.push(memory.brams);
        configs.push(config);
        ckernels.push(ckernel);
        c_sources.push(c_source);
        reports.push(report);
    }

    let memory = t.leaf("mnemosyne.program", || {
        let parts: Vec<&MnemosyneConfig> = configs.iter().collect();
        let plan = mnemosyne::merge_configs(&parts, &cross, opts.cross_sharing);
        mnemosyne::synthesize_program(&plan, &flow.memory)
    });

    let (system, host_source) = t.leaf("sysgen.system", || {
        let stages: Vec<(String, hls::HlsReport)> = names
            .iter()
            .zip(&reports)
            .map(|(n, r)| (n.clone(), r.renamed(n.clone())))
            .collect();
        let (mut bytes_in, mut bytes_out) = (0usize, 0usize);
        for (ki, ck) in ckernels.iter().enumerate() {
            for p in &ck.params {
                let external = !opts.cross_sharing
                    || cross.info(ki, &p.name).map(|s| s.external).unwrap_or(false);
                match p.role {
                    ParamRole::Input if external => bytes_in += p.words * 8,
                    ParamRole::Output if external => bytes_out += p.words * 8,
                    _ => {}
                }
            }
        }
        match sysgen::max_equal_program_config(&flow.platform, &stages, &memory) {
            Some(config) => {
                let host = ProgramHostProgram {
                    config: config.clone(),
                    stage_names: names.clone(),
                    bytes_in_per_element: bytes_in,
                    bytes_out_per_element: bytes_out,
                    handoff_bytes_per_element: if opts.cross_sharing {
                        cross.handoff_words() * 8
                    } else {
                        0
                    },
                };
                let host_source = host.to_c(flow.elements);
                let design =
                    MultiSystemDesign::build(&flow.platform, &stages, &memory, config, host);
                (design, host_source)
            }
            None => (None, String::new()),
        }
    });

    Ok(Compiled {
        names,
        c_sources,
        ir_stmts: kernels.iter().map(|k| k.module.stmts.len()).collect(),
        kernel_latency_cycles: reports.iter().map(|r| r.latency_cycles).collect(),
        kernel_plm_brams,
        plm_brams: memory.brams,
        system: system.as_ref().map(system_key),
        host_source,
    })
}

struct PaperFigures {
    plm_shared: usize,
    plm_unshared: usize,
    fit_shared: usize,
    fit_unshared: usize,
    speedup_k16: f64,
    speedup_k8: f64,
}

/// The paper's headline numbers from this repo's model: PLM BRAMs of
/// the Inverse Helmholtz kernel (p = 11) with and without sharing, the
/// kernels that then fit the ZCU106, and the Figure 10 speed-ups over
/// the ARM reference at k = 16 and k = 8. Model outputs: the repo holds
/// the paper's figures (18 / 31 BRAM, 16 / 8 kernels, 8.62x / 4.86x)
/// but no hardware measurement to validate against.
fn paper_figures() -> Result<PaperFigures, String> {
    let source = cfdlang::examples::inverse_helmholtz(11);
    let platform = Platform::zcu106();
    let compile_with = |sharing: bool| {
        let mut opts = FlowOptions {
            jobs: 1,
            ..FlowOptions::default()
        };
        opts.memory.sharing = sharing;
        Flow::compile(&source, &opts).map_err(|e| e.to_string())
    };
    let shared = compile_with(true)?;
    let unshared = compile_with(false)?;
    let fit = |art: &cfd_core::Artifacts| {
        sysgen::max_equal_config(&platform, &art.hls_report, &art.memory).map_or(0, |c| c.k)
    };
    let arm = zynq::sim::sw_reference(&shared.module, &ArmCostModel::a53_1200mhz(), SIM_ELEMENTS)?;
    let speedup = |k: usize| -> Result<f64, String> {
        let config = SystemConfig { k, m: k };
        let host = sysgen::HostProgram::from_kernel(&shared.kernel, config);
        let design =
            SystemDesign::build(&platform, &shared.hls_report, &shared.memory, config, host)
                .ok_or_else(|| format!("k = m = {k} does not fit the zcu106"))?;
        let hw = zynq::simulate_hw(
            &design,
            &SimConfig {
                elements: SIM_ELEMENTS,
                ..SimConfig::default()
            },
        );
        Ok(arm.total_s / hw.total_s)
    };
    Ok(PaperFigures {
        plm_shared: shared.memory.brams,
        plm_unshared: unshared.memory.brams,
        fit_shared: fit(&shared),
        fit_unshared: fit(&unshared),
        speedup_k16: speedup(16)?,
        speedup_k8: speedup(8)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_draws_two_programs_inside_their_ranges() {
        for seed in 0..40 {
            let z = zoo(seed);
            assert_eq!(z.len(), 10);
            assert_eq!(z.iter().filter(|p| p.2).count(), 8);
            let p: usize = z[8].0.rsplit('_').next().unwrap().parse().unwrap();
            let q: usize = z[9].0.rsplit('_').next().unwrap().parse().unwrap();
            assert!((5..=10).contains(&p) && (4..=6).contains(&q), "{p} {q}");
        }
        assert_eq!(zoo(3)[8].0, zoo(3)[8].0);
        let drawn: std::collections::BTreeSet<String> =
            (0..40).map(|s| zoo(s)[8].0.clone()).collect();
        assert!(drawn.len() > 1, "the seed must move the drawn program");
    }

    #[test]
    fn staged_compile_equals_the_monolithic_one() {
        let opts = program_options(Platform::zcu106());
        for source in [
            cfdlang::examples::simulation_step(4),
            cfdlang::examples::axpy(3),
        ] {
            let art = compile(&source, &opts).unwrap();
            let mut tracer = Tracer::new(true);
            let staged = compile_staged(&source, &opts, &mut tracer).unwrap();
            assert_eq!(staged, Compiled::of(&art));
            assert_eq!(staged.fingerprint(), Compiled::of(&art).fingerprint());
            assert!(tracer.spans().iter().any(|s| s.name == "sysgen.system"));
        }
    }

    #[test]
    fn fingerprint_sees_a_changed_artifact() {
        let opts = program_options(Platform::zcu106());
        let art = compile(&cfdlang::examples::axpy(3), &opts).unwrap();
        let mut c = Compiled::of(&art);
        let before = c.fingerprint();
        c.c_sources[0].push(' ');
        assert_ne!(before, c.fingerprint());
    }
}
