//! Acceptance gate for multi-kernel programs: compiling a program must
//! be *conservative* per kernel — with cross-kernel sharing disabled,
//! every per-kernel artifact and every simulated tensor is bit-identical
//! to compiling that kernel alone — while the program level adds the
//! shared system: cross-kernel PLM co-location under one BRAM budget,
//! one multi-accelerator design, and chained end-to-end simulation.

use cfdfpga::flow::dse::{DseEngine, DseGrid};
use cfdfpga::flow::program::{ProgramFlow, ProgramOptions};
use cfdfpga::flow::{Flow, FlowOptions};
use cfdfpga::sysgen::ProgramSystemConfig;
use cfdfpga::zynq::SimConfig;
use std::collections::HashMap;

/// Split a program source into per-kernel single sources.
fn kernel_sources(src: &str) -> Vec<(String, String)> {
    let set = cfdfpga::cfdlang::parse_set(src).unwrap();
    set.kernels
        .iter()
        .map(|k| (k.name.clone(), cfdfpga::cfdlang::pretty(&k.program)))
        .collect()
}

/// The tentpole identity: program compile (no cross-kernel sharing)
/// vs. sequential single-kernel compiles — bit-identical artifacts and
/// bit-identical simulated tensors.
#[test]
fn program_without_sharing_is_bit_identical_to_sequential_compiles() {
    for src in [
        cfdfpga::cfdlang::examples::simulation_step(4),
        cfdfpga::cfdlang::examples::axpy_chain(3),
    ] {
        let popts = ProgramOptions {
            cross_sharing: false,
            ..Default::default()
        };
        let prog = ProgramFlow::compile(&src, &popts).unwrap();

        let mut per_kernel_brams = 0usize;
        let mut singles = Vec::new();
        for ((name, ksrc), part) in kernel_sources(&src).iter().zip(&prog.kernels) {
            let kopts = FlowOptions {
                system: None,
                ..FlowOptions::default()
            };
            let solo = Flow::compile(ksrc, &kopts).unwrap();
            // Bit-identical per-kernel artifacts across every layer.
            assert_eq!(part.module, solo.module, "module of '{name}'");
            assert_eq!(part.schedule, solo.schedule, "schedule of '{name}'");
            assert_eq!(part.kernel, solo.kernel, "loop program of '{name}'");
            assert_eq!(part.c_source, solo.c_source, "C source of '{name}'");
            assert_eq!(part.hls_report, solo.hls_report, "HLS report of '{name}'");
            assert_eq!(
                part.mnemosyne_config, solo.mnemosyne_config,
                "mnemosyne config of '{name}'"
            );
            assert_eq!(part.memory, solo.memory, "memory subsystem of '{name}'");
            per_kernel_brams += solo.memory.brams;
            singles.push(solo);
        }

        // The unshared program memory is the exact concatenation.
        assert_eq!(prog.memory.brams, per_kernel_brams);
        assert_eq!(prog.memory_plan.cross_edges, 0);

        // Simulated tensors: the chained program must equal feeding the
        // separately compiled kernels by hand, bit for bit.
        let modules: Vec<&cfdfpga::teil::Module> =
            prog.kernels.iter().map(|a| &*a.module).collect();
        let prog_kernels: Vec<&cfdfpga::cgen::CKernel> =
            prog.kernels.iter().map(|a| &a.kernel).collect();
        let external = cfdfpga::zynq::random_program_inputs(&modules, 2024);
        let chained =
            cfdfpga::zynq::run_program_chain(&prog.names, &modules, &prog_kernels, &external)
                .unwrap();
        // Manual chain over the *independently compiled* kernels.
        let mut produced: HashMap<String, Vec<f64>> = HashMap::new();
        for (name, solo) in prog.names.iter().zip(&singles) {
            let mut mem: HashMap<String, Vec<f64>> = HashMap::new();
            for p in &solo.kernel.params {
                mem.insert(p.name.clone(), vec![0.0; p.words]);
            }
            for id in solo.module.of_kind(cfdfpga::teil::TensorKind::Input) {
                let n = solo.module.name(id);
                let data = produced
                    .get(n)
                    .cloned()
                    .unwrap_or_else(|| external[n].data.clone());
                mem.insert(n.to_string(), data);
            }
            cfdfpga::cgen::run_kernel(&solo.kernel, &mut mem).unwrap();
            for id in solo.module.of_kind(cfdfpga::teil::TensorKind::Output) {
                let n = solo.module.name(id);
                let v = mem[n].clone();
                let got = &chained[&format!("{name}.{n}")];
                assert_eq!(got, &v, "simulated tensor '{name}.{n}' diverged");
                produced.insert(n.to_string(), v);
            }
        }
        // And the chain is bit-exact against the reference interpreter.
        assert!(prog.verify(2, 7).unwrap().bitexact);
    }
}

/// The acceptance scenario: a multi-kernel program compiles through the
/// pipeline into a single system with cross-kernel PLM sharing enabled,
/// and simulates end-to-end.
#[test]
fn simulation_step_single_system_with_cross_sharing() {
    let src = cfdfpga::cfdlang::examples::simulation_step(4);
    let art = ProgramFlow::compile(&src, &ProgramOptions::default()).unwrap();
    assert_eq!(art.kernel_count(), 3);
    // Cross-kernel sharing strictly beats the concatenated budget and
    // the sharing solution stays valid.
    assert!(art.memory_plan.cross_edges > 0);
    assert!(
        art.memory.brams < art.per_kernel_plm_brams(),
        "{} vs {}",
        art.memory.brams,
        art.per_kernel_plm_brams()
    );
    let sol = cfdfpga::mnemosyne::share_groups(&art.memory_plan.config, false);
    sol.validate(&art.memory_plan.config, false).unwrap();
    assert!(art.memory_plan.cross_kernel_units(&art.memory) > 0);
    // One system for the whole solver, within the board budget.
    let sys = art.system.as_ref().expect("program fits the ZCU106");
    assert_eq!(sys.stages.len(), 3);
    let (l, f, d, b) = sys.slack();
    assert!(l >= 0 && f >= 0 && d >= 0 && b >= 0);
    // End-to-end chained simulation, per-stage accounting intact.
    let r = art
        .simulate(&SimConfig {
            elements: 128,
            ..Default::default()
        })
        .unwrap();
    assert_eq!(r.stage_exec_s.len(), 3);
    assert!(r.exec_s > 0.0 && r.total_s > r.exec_s);
    assert!((r.exec_s - r.stage_exec_s.iter().sum::<f64>()).abs() < 1e-12);
    // The host interface dropped the handoff traffic.
    assert_eq!(sys.host.handoff_bytes_per_element, 2 * 64 * 8);
}

/// Joint design-space exploration: shared stages run once per kernel,
/// backends memoize on (kernel, backend key), and rows carry the
/// program label.
#[test]
fn joint_program_sweep_memoizes_per_kernel_backends() {
    let src = cfdfpga::cfdlang::examples::simulation_step(4);
    let engine = DseEngine::prepare(&src, &ProgramOptions::default()).unwrap();
    let report = engine.run(&DseGrid::default(), 4, 1_000);
    assert_eq!(report.evaluated, 32);
    let c = report.counts;
    assert_eq!(c.frontend, 1, "one program frontend pass");
    assert_eq!(c.middle_end, 3, "one middle end per kernel");
    assert_eq!(c.schedule, 3);
    assert_eq!(c.link, 1, "one cross-kernel link stage");
    assert_eq!(c.system, 32, "one system stage per scored point");
    // 4 backend keys × 3 kernels.
    assert_eq!(report.backend_compiles, 12);
    assert_eq!(c.backend, 12);
    assert_eq!(report.backend_reuses, (32 - 4) * 3);
    // Rows are labelled by kernel names, not bare grid indices.
    for o in &report.outcomes {
        assert_eq!(o.kernel, "interpolate+inverse_helmholtz+project");
    }
    let json = report.to_json();
    assert!(json.contains("\"kernel\": \"interpolate+inverse_helmholtz+project\""));
    assert!(report.render_table().contains("kernel"));
    // Sharing axis reaches the merged program memory.
    let find = |sharing: bool| {
        report
            .outcomes
            .iter()
            .find(|o| {
                o.point.k == 1 && o.point.m == 1 && o.point.decoupled && o.point.sharing == sharing
            })
            .expect("grid covers sharing at k=m=1")
    };
    assert!(find(true).plm_brams < find(false).plm_brams);
    assert!(report.best().is_some());
}

/// A requested program configuration that exceeds the union budget must
/// error, and per-stage replication is honored when it fits.
#[test]
fn program_system_configuration_control() {
    let src = cfdfpga::cfdlang::examples::axpy_chain(3);
    let opts = ProgramOptions {
        system: Some(ProgramSystemConfig {
            ks: vec![2, 4],
            m: 4,
        }),
        ..Default::default()
    };
    let art = ProgramFlow::compile(&src, &opts).unwrap();
    let sys = art.system.as_ref().unwrap();
    assert_eq!(sys.config.ks, vec![2, 4]);
    assert_eq!(sys.stages[0].k, 2);
    assert_eq!(sys.stages[1].k, 4);
    let r = art
        .simulate(&SimConfig {
            elements: 64,
            ..Default::default()
        })
        .unwrap();
    // Stage 0 at k=2 runs twice the batches of stage 1 at k=4.
    assert!(r.stage_exec_s[0] > r.stage_exec_s[1]);

    let too_big = ProgramOptions {
        system: Some(ProgramSystemConfig::uniform(64, 64, 2)),
        ..Default::default()
    };
    assert!(matches!(
        ProgramFlow::compile(&src, &too_big),
        Err(cfdfpga::flow::FlowError::DoesNotFit { .. })
    ));
}
