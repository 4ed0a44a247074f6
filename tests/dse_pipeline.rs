//! The staged-pipeline acceptance gate: stage composition must be
//! artifact-identical to the kernel compile, and a design-space sweep
//! must compile the shared stages exactly once no matter how many points
//! or worker threads it uses.

use cfdfpga::flow::dse::{DseEngine, DseGrid, DseOutcome, DsePoint};
use cfdfpga::flow::pipeline::Pipeline;
use cfdfpga::flow::{Flow, FlowOptions, ProgramFlow, ProgramOptions};
use cfdfpga::mnemosyne::MemoryOptions;
use cfdfpga::sysgen::{MultiSystemDesign, Platform, ProgramSystemConfig};

/// Composing the per-kernel stages by hand produces the kernel slot
/// `Flow::compile` returns, for every kernel of the six examples on every
/// catalog board; and `Pipeline::system`'s single-kernel design (what
/// the benchmark's `sysgen.system` probe times) is the one-kernel
/// program's system, host program included.
#[test]
fn pipeline_stages_compose_to_monolith_artifacts() {
    use cfdfpga::cfdlang::examples as ex;
    let sources = [
        ex::inverse_helmholtz(5),
        ex::interpolation(4, 6),
        ex::matrix_sandwich(4),
        ex::axpy(4),
        ex::simulation_step(4),
        ex::axpy_chain(4),
    ];
    let mut fitted = 0;
    for platform in Platform::catalog() {
        let opts = FlowOptions::for_platform(platform.clone());
        for src in &sources {
            for k in &cfdfpga::cfdlang::parse_set(src).unwrap().kernels {
                let one = cfdfpga::cfdlang::pretty(&k.program);
                let what = format!("{} on {}", k.name, platform.id);
                let mono = Flow::compile(&one, &opts).unwrap();
                let program = ProgramFlow::compile(&one, &opts.clone().into()).unwrap();

                let p = Pipeline::new();
                let (_, fe) = p.program_frontend(&one).unwrap().remove(0);
                let me = p.middle_end(&fe, &opts).unwrap();
                let sc = p.schedule(&me, &opts);
                let be = p.backend(&sc, &opts);
                let c_source = cfdfpga::cgen::emit_c99(&be.kernel);
                let sys = p.system(&be, &opts).unwrap();
                let staged = cfdfpga::flow::Artifacts::assemble(&fe, &sc, be, c_source, &opts);

                assert_eq!(staged.typed, mono.typed, "{what}");
                assert_eq!(staged.module, mono.module, "{what}");
                assert_eq!(staged.schedule, mono.schedule, "{what}");
                assert_eq!(staged.kernel, mono.kernel, "{what}");
                assert_eq!(staged.c_source, mono.c_source, "{what}");
                assert_eq!(staged.hls_report, mono.hls_report, "{what}");
                assert_eq!(staged.mnemosyne_config, mono.mnemosyne_config, "{what}");
                assert_eq!(staged.memory, mono.memory, "{what}");
                // The one-stage view of the single-kernel design, under
                // the program's names: its stage name, and PLM units
                // namespaced by the stage ("plm_main.S").
                let name = &program.names[0];
                let single = sys.system.as_ref().map(|d| {
                    let mut view = MultiSystemDesign::from_single(d);
                    view.stages[0].name = name.clone();
                    view.stages[0].kernel = view.stages[0].kernel.renamed(name.clone());
                    view.host.stage_names = vec![name.clone()];
                    for (unit, named) in view.memory.units.iter_mut().zip(&program.memory.units) {
                        unit.name = named.name.clone();
                    }
                    view
                });
                assert_eq!(single, program.system, "{what}");
                fitted += usize::from(single.is_some());

                // Every stage ran exactly once on this pipeline.
                let c = p.counters();
                assert_eq!(
                    (c.frontend, c.middle_end, c.schedule, c.backend, c.system),
                    (1, 1, 1, 1, 1)
                );
            }
        }
    }
    assert!(fitted > 0, "no kernel fits any board");
}

/// The base board of `opts` at its one clock: what `cfdc explore
/// --grid` sweeps.
fn base_board(opts: &FlowOptions) -> [Platform; 1] {
    [Platform {
        clock_ladder_mhz: vec![opts.hls.clock_mhz],
        ..opts.platform.clone()
    }]
}

/// The paper's evaluation sweep: ≥ 16 configurations on the paper
/// kernel, frontend/middle end compiled exactly once (the acceptance
/// check behind `cfdc explore helmholtz:11 --grid --jobs 4`).
#[test]
fn dse_sweep_compiles_shared_stages_exactly_once() {
    let src = cfdfpga::cfdlang::examples::inverse_helmholtz(11);
    let opts = FlowOptions::default();
    let engine = DseEngine::prepare(&src, &opts).unwrap();
    let report = engine.run_portfolio(&base_board(&opts), &DseGrid::default(), 4, 2_000);

    assert!(
        report.evaluated >= 16,
        "grid must sweep at least 16 configurations, got {}",
        report.evaluated
    );
    let counts = engine.pipeline().counters();
    assert_eq!(counts.frontend, 1, "frontend must compile once");
    assert_eq!(counts.middle_end, 1, "middle end must compile once");
    assert_eq!(counts.schedule, 1, "scheduler must run once");
    // Backends are memoized on (sharing, decoupled, partition): the
    // default grid's 32 points need only 4 backend compilations.
    assert_eq!(counts.backend, report.backend_compiles);
    assert_eq!(report.backend_compiles, 4);
    assert_eq!(
        report.backend_reuses,
        report.evaluated - report.backend_compiles
    );
    assert_eq!(counts.system, report.evaluated);

    // Paper headline: with sharing the 16-kernel configuration fits.
    assert!(report.feasible >= 16);
    let best = &report.outcomes[0].outcome;
    assert!(best.feasible && best.throughput_eps > 0.0);

    // Ranking: feasible outcomes precede infeasible ones and are sorted
    // by time, so by throughput.
    let outcomes: Vec<&DseOutcome> = report.outcomes.iter().map(|o| &o.outcome).collect();
    let first_infeasible = outcomes
        .iter()
        .position(|o| !o.feasible)
        .unwrap_or(outcomes.len());
    assert!(outcomes[..first_infeasible]
        .windows(2)
        .all(|w| w[0].throughput_eps >= w[1].throughput_eps));
    assert!(outcomes[first_infeasible..].iter().all(|o| !o.feasible));

    // The sharing axis really reaches Mnemosyne: at equal (k, m,
    // decoupled) the shared PLM subsystem must be smaller.
    let find = |sharing: bool| {
        outcomes
            .iter()
            .find(|o| {
                o.point.k == 1 && o.point.m == 1 && o.point.decoupled && o.point.sharing == sharing
            })
            .expect("grid covers both sharing settings at k=m=1")
    };
    assert!(find(true).plm_brams < find(false).plm_brams);
}

/// The row the sweep scores for `point` alone: a one-point grid on the
/// default board at its default clock.
fn score_point(engine: &DseEngine, point: DsePoint, elements: usize) -> DseOutcome {
    assert!(
        point.m.is_multiple_of(point.k),
        "a grid point's m is k times a batch"
    );
    let grid = DseGrid {
        k: vec![point.k],
        batch: vec![point.m / point.k],
        sharing: vec![point.sharing],
        decoupled: vec![point.decoupled],
        partition: vec![point.partition],
    };
    let board = base_board(&FlowOptions::default());
    let mut report = engine.run_portfolio(&board, &grid, 1, elements);
    assert_eq!(report.outcomes.len(), 1);
    report.outcomes.remove(0).outcome
}

/// A single evaluated point agrees with an independent monolithic
/// compile of the same configuration.
#[test]
fn dse_point_matches_monolithic_compile() {
    let src = cfdfpga::cfdlang::examples::inverse_helmholtz(5);
    let engine = DseEngine::prepare(&src, &FlowOptions::default()).unwrap();
    let point = DsePoint {
        k: 2,
        m: 4,
        sharing: false,
        decoupled: true,
        partition: 1,
    };
    let outcome = score_point(&engine, point, 500);
    assert!(outcome.feasible);

    let opts = ProgramOptions {
        system: Some(ProgramSystemConfig::uniform(2, 4, 1)),
        ..FlowOptions {
            memory: MemoryOptions { sharing: false },
            ..FlowOptions::default()
        }
        .into()
    };
    let mono = ProgramFlow::compile(&src, &opts).unwrap();
    let design = mono.system.as_ref().expect("fits");
    assert_eq!(outcome.luts, design.luts);
    assert_eq!(outcome.ffs, design.ffs);
    assert_eq!(outcome.dsps, design.dsps);
    assert_eq!(outcome.brams, design.brams);
    assert_eq!(outcome.plm_brams, mono.kernels[0].memory.brams);
    assert_eq!(
        outcome.latency_cycles,
        mono.kernels[0].hls_report.latency_cycles
    );
}

/// The JSON emitter produces structurally sound output with every
/// outcome present.
#[test]
fn dse_json_is_well_formed() {
    let src = cfdfpga::cfdlang::examples::inverse_helmholtz(4);
    let opts = FlowOptions::default();
    let engine = DseEngine::prepare(&src, &opts).unwrap();
    let grid = DseGrid {
        k: vec![1, 2],
        batch: vec![1, 2],
        sharing: vec![true, false],
        decoupled: vec![true],
        partition: vec![1],
    };
    let report = engine.run_portfolio(&base_board(&opts), &grid, 2, 200);
    let json = report.to_json();
    assert_eq!(json.matches("\"kernel\":").count(), report.evaluated);
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    let counts = engine.pipeline().counters();
    assert_eq!((counts.frontend, counts.middle_end), (1, 1));
}

/// Partitioning through the DSE axis reaches the memory generator, as
/// the seed's monolithic partition test demanded.
#[test]
fn partition_axis_reaches_memory_subsystem() {
    let src = cfdfpga::cfdlang::examples::inverse_helmholtz(5);
    let engine = DseEngine::prepare(&src, &FlowOptions::default()).unwrap();
    let base = DsePoint {
        k: 1,
        m: 1,
        sharing: true,
        decoupled: true,
        partition: 1,
    };
    let part = DsePoint {
        partition: 3,
        ..base
    };
    let plain = score_point(&engine, base, 100);
    let banked = score_point(&engine, part, 100);
    assert!(
        banked.plm_brams > plain.plm_brams,
        "multi-port PLM must cost extra banks: {} vs {}",
        banked.plm_brams,
        plain.plm_brams
    );
}
