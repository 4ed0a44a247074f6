//! Acceptance gate for the simplex feasibility oracle (PR 8).
//!
//! Two obligations, both differential against the legacy pure-FM path:
//!
//! 1. **Corpus agreement** — on the exact live, write and read sets
//!    `Liveness::exact` expands for the simstep program (the 64-point
//!    `simulation_step(4)` cube), the layered oracle and the FM reference
//!    return the same emptiness verdict, memoized or cold.
//! 2. **Bit-identity** — forcing the FM oracle (the `POLYHEDRA_ORACLE=fm`
//!    escape hatch, exercised here via `set_oracle_mode`) and compiling
//!    the same program yields bit-identical artifacts and bit-identical
//!    simulated tensors. The oracle swap is a pure performance change.
//!
//! The mode toggle is process-global, so everything that flips it lives
//! in ONE test function — the other test in this binary never touches
//! the mode and is correct under either setting.

use cfdfpga::flow::program::{ProgramFlow, ProgramOptions};
use cfdfpga::polyhedra::{self, OracleMode};
use cfdfpga::pschedule::Liveness;
use std::collections::HashMap;

fn compile_simstep() -> cfdfpga::flow::program::ProgramArtifacts {
    let src = cfdfpga::cfdlang::examples::simulation_step(4);
    ProgramFlow::compile(&src, &ProgramOptions::default()).unwrap()
}

/// Chained simulated tensors of a compiled program (actual numeric
/// outputs, not timings — the strongest bit-identity witness we have).
fn simulated_tensors(
    prog: &cfdfpga::flow::program::ProgramArtifacts,
    seed: u64,
) -> HashMap<String, Vec<f64>> {
    let modules: Vec<&cfdfpga::teil::Module> = prog.kernels.iter().map(|a| &*a.module).collect();
    let kernels: Vec<&cfdfpga::cgen::CKernel> = prog.kernels.iter().map(|a| &a.kernel).collect();
    let external = cfdfpga::zynq::random_program_inputs(&modules, seed);
    cfdfpga::zynq::run_program_chain(&prog.names, &modules, &kernels, &external).unwrap()
}

/// Every liveness/access system the simstep kernels generate must get
/// the same verdict from the layered oracle and the FM reference — and
/// repeated (memo-served) queries must not drift.
#[test]
fn simstep_liveness_corpus_agrees_with_fm() {
    let prog = compile_simstep();
    let mut checked = 0usize;
    for art in &prog.kernels {
        let lv = Liveness::analyze(&art.module, &art.model, &art.schedule);
        for &arr in &lv.arrays {
            let sets = lv.exact(&art.model, arr);
            for set in [&sets.live, &sets.writes_at, &sets.reads_at] {
                for part in &set.parts {
                    let sys = part.system();
                    let fm = sys.is_empty_via_fm();
                    assert_eq!(sys.is_empty(), fm, "corpus divergence on {:?}", sys);
                    // The repeat is served from the verdict memo.
                    assert_eq!(sys.is_empty(), fm, "memoized repeat diverged on {:?}", sys);
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 0, "corpus was empty — liveness sets missing");
}

/// Forcing the legacy FM oracle must not change a single artifact byte
/// or simulated tensor value: the oracle layer is decision-equivalent,
/// so every downstream product is bit-identical.
#[test]
fn artifacts_bit_identical_under_forced_fm_oracle() {
    polyhedra::set_oracle_mode(OracleMode::Fm);
    assert_eq!(polyhedra::oracle_signature(), "oracle=fm");
    let fm = compile_simstep();
    let fm_tensors = simulated_tensors(&fm, 2024);

    polyhedra::set_oracle_mode(OracleMode::Simplex);
    assert_eq!(polyhedra::oracle_signature(), "oracle=simplex-v1");
    let sx = compile_simstep();
    let sx_tensors = simulated_tensors(&sx, 2024);

    assert_eq!(fm.names, sx.names);
    for ((name, a), b) in fm.names.iter().zip(&fm.kernels).zip(&sx.kernels) {
        assert_eq!(a.module, b.module, "module of '{name}'");
        assert_eq!(a.schedule, b.schedule, "schedule of '{name}'");
        assert_eq!(a.kernel, b.kernel, "loop program of '{name}'");
        assert_eq!(a.c_source, b.c_source, "C source of '{name}'");
        assert_eq!(a.hls_report, b.hls_report, "HLS report of '{name}'");
        assert_eq!(
            a.mnemosyne_config, b.mnemosyne_config,
            "mnemosyne config of '{name}'"
        );
        assert_eq!(a.memory, b.memory, "memory subsystem of '{name}'");
    }
    assert_eq!(fm.memory, sx.memory, "program memory");
    assert_eq!(fm.host_source, sx.host_source, "program host source");
    assert_eq!(fm_tensors, sx_tensors, "simulated tensors");
}
