//! The staged-pipeline acceptance gate: stage composition must be
//! artifact-identical to the monolithic facade, and a design-space sweep
//! must compile the shared stages exactly once no matter how many points
//! or worker threads it uses.

use cfdfpga::flow::dse::{DseEngine, DseGrid, DsePoint};
use cfdfpga::flow::pipeline::Pipeline;
use cfdfpga::flow::{Flow, FlowOptions};
use cfdfpga::mnemosyne::MemoryOptions;
use cfdfpga::sysgen::SystemConfig;

/// Composing the five stages by hand produces artifacts identical to
/// `Flow::compile` — the pipeline refactor changed the structure of the
/// flow, not its meaning.
#[test]
fn pipeline_stages_compose_to_monolith_artifacts() {
    let src = cfdfpga::cfdlang::examples::inverse_helmholtz(5);
    let opts = FlowOptions::default();

    let mono = Flow::compile(&src, &opts).unwrap();

    let p = Pipeline::new();
    let fe = p.frontend(&src).unwrap();
    let me = p.middle_end(&fe, &opts).unwrap();
    let sc = p.schedule(&me, &opts);
    let be = p.backend(&sc, &opts);
    let c_source = cfdfpga::cgen::emit_c99(&be.kernel);
    let sys = p.system(&be, &opts).unwrap();
    let staged = cfdfpga::flow::Artifacts::assemble(&fe, &sc, be, c_source, sys, &opts);

    assert_eq!(staged.typed, mono.typed);
    assert_eq!(staged.module, mono.module);
    assert_eq!(staged.schedule, mono.schedule);
    assert_eq!(staged.kernel, mono.kernel);
    assert_eq!(staged.c_source, mono.c_source);
    assert_eq!(staged.hls_report, mono.hls_report);
    assert_eq!(staged.mnemosyne_config, mono.mnemosyne_config);
    assert_eq!(staged.memory, mono.memory);
    assert_eq!(staged.host_source, mono.host_source);
    assert_eq!(staged.system, mono.system);

    // Every stage ran exactly once on this pipeline.
    let c = p.counters();
    assert_eq!(
        (c.frontend, c.middle_end, c.schedule, c.backend, c.system),
        (1, 1, 1, 1, 1)
    );
}

/// The paper's evaluation sweep: ≥ 16 configurations on the paper
/// kernel, frontend/middle end compiled exactly once (the acceptance
/// check behind `cfdc explore helmholtz:11 --grid --jobs 4`).
#[test]
fn dse_sweep_compiles_shared_stages_exactly_once() {
    let src = cfdfpga::cfdlang::examples::inverse_helmholtz(11);
    let engine = DseEngine::prepare(&src, &FlowOptions::default()).unwrap();
    let report = engine.run(&DseGrid::default(), 4, 2_000);

    assert!(
        report.evaluated >= 16,
        "grid must sweep at least 16 configurations, got {}",
        report.evaluated
    );
    assert_eq!(report.counts.frontend, 1, "frontend must compile once");
    assert_eq!(report.counts.middle_end, 1, "middle end must compile once");
    assert_eq!(report.counts.schedule, 1, "scheduler must run once");
    // Backends are memoized on (sharing, decoupled, partition): the
    // default grid's 32 points need only 4 backend compilations.
    assert_eq!(report.counts.backend, report.backend_compiles);
    assert_eq!(report.backend_compiles, 4);
    assert_eq!(
        report.backend_reuses,
        report.evaluated - report.backend_compiles
    );
    assert_eq!(report.counts.system, report.evaluated);
    // Per-point timing is tracked for the perf baseline.
    assert!(report.eval_total_s > 0.0);
    assert!(report.eval_max_s >= report.eval_mean_s);

    // Paper headline: with sharing the 16-kernel configuration fits.
    assert!(report.feasible >= 16);
    let best = report.best().expect("some configuration fits");
    assert!(best.feasible && best.throughput_eps > 0.0);

    // Ranking: feasible outcomes precede infeasible ones and are sorted
    // by throughput.
    let first_infeasible = report
        .outcomes
        .iter()
        .position(|o| !o.feasible)
        .unwrap_or(report.outcomes.len());
    assert!(report.outcomes[..first_infeasible]
        .windows(2)
        .all(|w| w[0].throughput_eps >= w[1].throughput_eps));
    assert!(report.outcomes[first_infeasible..]
        .iter()
        .all(|o| !o.feasible));

    // The sharing axis really reaches Mnemosyne: at equal (k, m,
    // decoupled) the shared PLM subsystem must be smaller.
    let find = |sharing: bool| {
        report
            .outcomes
            .iter()
            .find(|o| {
                o.point.k == 1 && o.point.m == 1 && o.point.decoupled && o.point.sharing == sharing
            })
            .expect("grid covers both sharing settings at k=m=1")
    };
    assert!(find(true).plm_brams < find(false).plm_brams);
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
    let outcome = engine.evaluate(&point, 500);
    assert!(outcome.feasible);

    let opts = FlowOptions {
        memory: MemoryOptions {
            sharing: false,
            ..MemoryOptions::default()
        },
        system: Some(SystemConfig { k: 2, m: 4 }),
        ..FlowOptions::default()
    };
    let mono = Flow::compile(&src, &opts).unwrap();
    let design = mono.system.expect("fits");
    assert_eq!(outcome.luts, design.luts);
    assert_eq!(outcome.ffs, design.ffs);
    assert_eq!(outcome.dsps, design.dsps);
    assert_eq!(outcome.brams, design.brams);
    assert_eq!(outcome.plm_brams, mono.memory.brams);
    assert_eq!(outcome.latency_cycles, mono.hls_report.latency_cycles);
}

/// The JSON emitter produces structurally sound output with every
/// outcome present.
#[test]
fn dse_json_is_well_formed() {
    let src = cfdfpga::cfdlang::examples::inverse_helmholtz(4);
    let engine = DseEngine::prepare(&src, &FlowOptions::default()).unwrap();
    let grid = DseGrid {
        k: vec![1, 2],
        batch: vec![1, 2],
        sharing: vec![true, false],
        decoupled: vec![true],
        partition: vec![1],
    };
    let report = engine.run(&grid, 2, 200);
    let json = report.to_json();
    assert_eq!(json.matches("\"k\":").count(), report.evaluated);
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(json.contains("\"stage_invocations\": {\"frontend\": 1, \"middle_end\": 1"));
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
    let plain = engine.evaluate(&base, 100);
    let banked = engine.evaluate(&part, 100);
    assert!(
        banked.plm_brams > plain.plm_brams,
        "multi-port PLM must cost extra banks: {} vs {}",
        banked.plm_brams,
        plain.plm_brams
    );
}
