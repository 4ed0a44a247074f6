//! Cross-crate integration tests: DSL source → complete flow →
//! functional verification, across kernels and option combinations.

use cfdfpga::flow::{Flow, FlowOptions, ProgramArtifacts, ProgramFlow, ProgramOptions};
use cfdfpga::mnemosyne::MemoryOptions;
use cfdfpga::sysgen::ProgramSystemConfig;
use cfdfpga::zynq::SimConfig;

fn flow(src: &str, opts: &FlowOptions) -> cfdfpga::flow::Artifacts {
    Flow::compile(src, opts).unwrap_or_else(|e| panic!("{e}\nsource:\n{src}"))
}

/// The one-kernel program of `src`: the system and host program live
/// here.
fn program(src: &str, opts: &ProgramOptions) -> ProgramArtifacts {
    ProgramFlow::compile(src, opts).unwrap_or_else(|e| panic!("{e}\nsource:\n{src}"))
}

#[test]
fn helmholtz_all_option_combinations_verify() {
    let src = cfdfpga::cfdlang::examples::inverse_helmholtz(4);
    for factorize in [false, true] {
        for decoupled in [false, true] {
            for sharing in [false, true] {
                let opts = FlowOptions {
                    factorize,
                    decoupled,
                    memory: MemoryOptions { sharing },
                    ..Default::default()
                };
                let art = flow(&src, &opts);
                let v = art.verify(2, 99).unwrap();
                assert!(
                    v.bitexact,
                    "factorize={factorize} decoupled={decoupled} sharing={sharing}"
                );
            }
        }
    }
}

#[test]
fn every_example_kernel_compiles_and_verifies() {
    for src in [
        cfdfpga::cfdlang::examples::inverse_helmholtz(5),
        cfdfpga::cfdlang::examples::interpolation(4, 6),
        cfdfpga::cfdlang::examples::matrix_sandwich(6),
        cfdfpga::cfdlang::examples::axpy(4),
    ] {
        let art = flow(&src, &FlowOptions::default());
        assert!(art.verify(2, 3).unwrap().bitexact, "{src}");
    }
}

#[test]
fn c_source_and_host_source_are_generated() {
    let src = cfdfpga::cfdlang::examples::inverse_helmholtz(4);
    let art = program(&src, &ProgramOptions::default());
    let c_source = &art.kernels[0].c_source;
    assert!(c_source.contains("void kernel_body("));
    assert!(c_source.contains("restrict"));
    let host_source = &art.host_source;
    assert!(host_source.contains("run_simulation"));
    assert!(host_source.contains("wait_for_interrupt"));
}

#[test]
fn simulation_timings_are_consistent() {
    let src = cfdfpga::cfdlang::examples::inverse_helmholtz(4);
    let art = program(&src, &ProgramOptions::default());
    let r = art
        .simulate(&SimConfig {
            elements: 128,
            ..Default::default()
        })
        .unwrap();
    assert!(r.exec_s > 0.0);
    assert!(r.transfer_s > 0.0);
    assert!((r.exec_s + r.transfer_s - r.total_s).abs() <= 1e-9 * r.total_s);
    // More elements, proportionally more time.
    let r2 = art
        .simulate(&SimConfig {
            elements: 256,
            ..Default::default()
        })
        .unwrap();
    assert!((r2.total_s / r.total_s - 2.0).abs() < 0.05);
}

#[test]
fn explicit_system_configuration_respected() {
    let src = cfdfpga::cfdlang::examples::inverse_helmholtz(4);
    let opts = ProgramOptions {
        system: Some(ProgramSystemConfig::uniform(2, 4, 1)),
        ..Default::default()
    };
    let art = program(&src, &opts);
    let sys = art.system.as_ref().unwrap();
    assert_eq!(sys.config.ks, [2]);
    assert_eq!(sys.config.m, 4);
    assert_eq!(sys.config.batch(0), 2);
    assert_eq!(sys.host.config.m, 4);
}

#[test]
fn mnemosyne_config_flows_from_liveness() {
    let src = cfdfpga::cfdlang::examples::inverse_helmholtz(4);
    let art = flow(&src, &FlowOptions::default());
    // The config lists exactly the kernel's arrays.
    assert_eq!(
        art.mnemosyne_config.arrays.len(),
        art.kernel.params.len() + art.kernel.locals.len()
    );
    // And carries compatibility edges from the analysis.
    assert!(!art.mnemosyne_config.address_space_compatible.is_empty());
    // Every shared group in the subsystem respects them.
    for u in &art.memory.units {
        for (i, &a) in u.members.iter().enumerate() {
            for &b in &u.members[i + 1..] {
                assert!(art.mnemosyne_config.addr_compatible(a, b));
            }
        }
    }
}

#[test]
fn schedule_is_legal_for_dependences() {
    let src = cfdfpga::cfdlang::examples::inverse_helmholtz(4);
    let art = flow(&src, &FlowOptions::default());
    assert!(cfdfpga::pschedule::legal(
        &art.model,
        art.dependences(),
        &art.schedule
    ));
}

#[test]
fn decoupled_vs_inside_totals_match_paper_structure() {
    // Decoupled: PLM holds everything, accelerator holds nothing.
    let src = cfdfpga::cfdlang::examples::inverse_helmholtz(11);
    let dec = flow(&src, &FlowOptions::default());
    assert_eq!(dec.hls_report.brams, 0);
    assert_eq!(dec.kernel.locals.len(), 0);
    // Inside: the accelerator holds the six temporaries.
    let ins = flow(
        &src,
        &FlowOptions {
            decoupled: false,
            memory: MemoryOptions { sharing: false },
            ..Default::default()
        },
    );
    assert_eq!(ins.kernel.locals.len(), 6);
    assert_eq!(ins.hls_report.brams, 24); // paper: 24
                                          // The decoupled design uses fewer BRAMs overall (the paper's point:
                                          // 33 inside vs 18 shared-PLM; ours: 34 vs 16).
    let dec_total = dec.memory.brams;
    let ins_total = ins.memory.brams + ins.hls_report.brams;
    assert!(
        dec_total < ins_total,
        "decoupled {dec_total} vs inside {ins_total}"
    );
}

#[test]
fn pointwise_only_kernel_has_no_reduction_loops() {
    let src = cfdfpga::cfdlang::examples::axpy(4);
    let art = flow(&src, &FlowOptions::default());
    for l in &art.hls_report.loops {
        assert_eq!(l.ii, 1, "pointwise loops pipeline at II=1");
    }
}

/// The CLI zoo (every builtin kernel of `cfdc` at its default size),
/// factorised or not, compiles without expanding a single live set: the
/// schedule-box corners settle every address-space pair.
#[test]
fn cli_zoo_compiles_without_expanding_live_sets() {
    use cfdfpga::cfdlang::examples as ex;
    use cfdfpga::pschedule::LadderCounters;
    let zoo = [
        ex::inverse_helmholtz(11),
        ex::interpolation(8, 12),
        ex::matrix_sandwich(8),
        ex::axpy(8),
        ex::simulation_step(11),
        ex::axpy_chain(8),
    ];
    let base = LadderCounters::snapshot();
    for src in &zoo {
        for factorize in [true, false] {
            let mut opts = ProgramOptions::default();
            opts.flow.factorize = factorize;
            ProgramFlow::compile(src, &opts).unwrap();
        }
    }
    let ladder = LadderCounters::snapshot().since(base);
    assert_eq!(ladder.expanded, 0, "{ladder:?}");
    assert!(ladder.hull > 0 && ladder.witness > 0, "{ladder:?}");
}

/// A source with no statement — empty, declarations only, or a kernel
/// block without one — is a frontend error of the kernel and the
/// program flow, not a design that replicates nothing 64 times.
#[test]
fn a_program_without_statements_is_a_frontend_error() {
    use cfdfpga::flow::FlowError;
    let axpy = cfdfpga::cfdlang::examples::axpy(2);
    let set = format!("kernel axpy {{\n{axpy}}}\nkernel idle {{ var input x : [2] }}\n");
    let kernel = |src| Flow::compile(src, &FlowOptions::default()).err();
    let program = |src| ProgramFlow::compile(src, &ProgramOptions::default()).err();
    let errs = ["", "var input a : [4]\n", "\n\n"]
        .into_iter()
        .flat_map(|src| [kernel(src), program(src)])
        .chain([program(&set)]);
    for e in errs {
        match e {
            Some(FlowError::Frontend(d)) => {
                assert!(d.message.contains("program has no statement"), "{d}")
            }
            other => panic!("expected a frontend error, got {other:?}"),
        }
    }
}
