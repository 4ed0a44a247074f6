//! The reproduction gate: every headline number of the paper's
//! evaluation (Section VI), asserted against this repository's models.
//!
//! | artifact | paper | this repo |
//! |----------|-------|-----------|
//! | kernel LUT/FF/DSP | 2,314 / 2,999 / 15 | ±10% / ±10% / exact |
//! | PLM BRAM (no share → share) | 31 → 18 | 28 → 16 (512-word BRAM) |
//! | temporaries inside | 9 + 24 = 33 | 10 + 24 = 34 |
//! | max kernels (no share → share) | 8 → 16 | 8 → 16 |
//! | Table I LUT / DSP (both halves) | 11,318 … 77,235 / 15·m | ±10% / exact |
//! | Fig. 9 accel speedup @16 | 15.76 | ±4% |
//! | Fig. 9 total speedup @16 | 12.58 | ±4% |
//! | Fig. 10 HW k=16 vs ARM | 8.62 | ±8% |

use cfdfpga::flow::{Artifacts, Flow, FlowOptions, ProgramArtifacts, ProgramFlow};
use cfdfpga::mnemosyne::MemoryOptions;
use cfdfpga::sysgen::{MultiSystemDesign, Platform, ProgramHostProgram, ProgramSystemConfig};
use cfdfpga::zynq::SimConfig;
use std::sync::OnceLock;

const ELEMENTS: usize = 2_000; // ratios are element-count independent

/// The paper's kernel as the one-kernel program, which owns the
/// replicated system.
fn paper_program(sharing: bool) -> &'static ProgramArtifacts {
    static SHARED: OnceLock<ProgramArtifacts> = OnceLock::new();
    static UNSHARED: OnceLock<ProgramArtifacts> = OnceLock::new();
    let cell = if sharing { &SHARED } else { &UNSHARED };
    cell.get_or_init(|| {
        let src = cfdfpga::cfdlang::examples::inverse_helmholtz(11);
        let opts = FlowOptions {
            memory: MemoryOptions { sharing },
            ..Default::default()
        };
        ProgramFlow::compile(&src, &opts.into()).expect("paper kernel compiles")
    })
}

/// The paper's kernel: the one kernel slot of [`paper_program`].
fn paper_kernel(sharing: bool) -> &'static Artifacts {
    &paper_program(sharing).kernels[0]
}

/// The paper kernel's one-stage system rebuilt at replication `(k, m)`
/// on the ZCU106 (the board [`paper_program`] targets); `None` when it
/// does not fit.
fn design(sharing: bool, k: usize, m: usize) -> Option<MultiSystemDesign> {
    let sys = paper_program(sharing)
        .system
        .as_ref()
        .expect("the paper kernel fits");
    let stages: Vec<_> = (sys.stages.iter())
        .map(|s| (s.name.clone(), s.kernel.clone()))
        .collect();
    let cfg = ProgramSystemConfig::uniform(k, m, 1);
    let host = ProgramHostProgram {
        config: cfg.clone(),
        ..sys.host.clone()
    };
    MultiSystemDesign::build(&sys.platform, &stages, &sys.memory, cfg, host)
}

fn simulate(k: usize, m: usize) -> cfdfpga::zynq::ProgramHwResult {
    cfdfpga::zynq::simulate_program(
        &design(true, k, m).expect("fits"),
        &SimConfig {
            elements: ELEMENTS,
            ..Default::default()
        },
    )
}

#[test]
fn kernel_resources_match_in_text_report() {
    let r = &paper_kernel(true).hls_report;
    assert_eq!(r.dsps, 15);
    assert!(
        (r.luts as f64 - 2314.0).abs() / 2314.0 < 0.10,
        "LUT {}",
        r.luts
    );
    assert!(
        (r.ffs as f64 - 2999.0).abs() / 2999.0 < 0.10,
        "FF {}",
        r.ffs
    );
    assert!((r.clock_mhz - 200.0).abs() < f64::EPSILON);
}

#[test]
fn plm_brams_match_in_text_report_shape() {
    // Paper: 31 → 18 (ratio 0.58). Ours: 28 → 16 (ratio 0.57).
    let no = paper_kernel(false).memory.brams;
    let sh = paper_kernel(true).memory.brams;
    assert_eq!(no, 28);
    assert_eq!(sh, 16);
    let ratio = sh as f64 / no as f64;
    assert!((ratio - 18.0 / 31.0).abs() < 0.05, "ratio {ratio}");
}

#[test]
fn temporaries_inside_the_accelerator_cost_more_brams() {
    // Paper: 9 (memory subsystem) + 24 (accelerator) = 33, against an
    // accelerator with no BRAM of its own once the PLM is decoupled.
    let src = cfdfpga::cfdlang::examples::inverse_helmholtz(11);
    let inside = Flow::compile(
        &src,
        &FlowOptions {
            decoupled: false,
            memory: MemoryOptions { sharing: false },
            ..Default::default()
        },
    )
    .expect("paper kernel compiles with temporaries inside");
    let (mem, acc) = (inside.memory.brams, inside.hls_report.brams);
    assert_eq!((mem, acc, mem + acc), (10, 24, 34));
    assert_eq!(paper_kernel(false).hls_report.brams, 0);
}

#[test]
fn sharing_doubles_parallel_kernels() {
    let no = &paper_program(false).system.as_ref().unwrap().config;
    let sh = &paper_program(true).system.as_ref().unwrap().config;
    assert_eq!((no.ks[0], no.m), (8, 8));
    assert_eq!((sh.ks[0], sh.m), (16, 16));
}

#[test]
fn figure9_speedups_within_tolerance() {
    let paper = [
        (1usize, 1.00f64, 1.00f64),
        (2, 2.00, 1.96),
        (4, 3.97, 3.78),
        (8, 7.91, 7.09),
        (16, 15.76, 12.58),
    ];
    let base = simulate(1, 1);
    for (k, pacc, ptot) in paper {
        let r = simulate(k, k);
        let acc = base.exec_s / r.exec_s;
        let tot = base.total_s / r.total_s;
        assert!(
            (acc - pacc).abs() / pacc < 0.04,
            "k={k}: accel {acc:.2} vs {pacc}"
        );
        assert!(
            (tot - ptot).abs() / ptot < 0.04,
            "k={k}: total {tot:.2} vs {ptot}"
        );
    }
}

#[test]
fn figure10_arm_comparison_within_tolerance() {
    let art = paper_kernel(true);
    let host = Platform::zcu106().host;
    let sw = cfdfpga::zynq::sim::sw_reference(&art.module, &host, ELEMENTS).unwrap();
    let hls_sw = cfdfpga::zynq::sim::sw_hls_code(&art.kernel, &host, ELEMENTS).unwrap();
    // SW HLS code: paper 0.90.
    let s_hls = sw.total_s / hls_sw.total_s;
    assert!((s_hls - 0.90).abs() < 0.06, "SW HLS {s_hls:.2}");
    // HW bars: paper 0.69 / 4.86 / 8.62.
    for (k, p) in [(1usize, 0.69f64), (8, 4.86), (16, 8.62)] {
        let r = simulate(k, k);
        let s = sw.total_s / r.total_s;
        assert!((s - p).abs() / p < 0.08, "HW k={k}: {s:.2} vs paper {p}");
    }
}

#[test]
fn table1_dsps_exact_and_luts_close() {
    // Both halves of Table I: (sharing, k = m, paper LUT).
    let paper = [
        (false, 1usize, 11_318usize),
        (false, 2, 15_929),
        (false, 4, 25_728),
        (false, 8, 42_679),
        (true, 1, 11_292),
        (true, 2, 15_572),
        (true, 4, 24_480),
        (true, 8, 42_141),
        (true, 16, 77_235),
    ];
    for (sharing, k, plut) in paper {
        let d = design(sharing, k, k).unwrap();
        assert_eq!(d.dsps, 15 * k);
        let rel = (d.luts as f64 - plut as f64).abs() / plut as f64;
        assert!(
            rel < 0.10,
            "sharing={sharing} k={k}: LUT {} vs paper {plut}",
            d.luts
        );
    }
}

#[test]
fn figure8_feasibility_crossover() {
    let no = paper_kernel(false).memory.brams;
    let sh = paper_kernel(true).memory.brams;
    let budget = Platform::zcu106().board.brams;
    assert!(8 * no <= budget);
    assert!(16 * no > budget, "no-sharing must not fit 16 kernels");
    assert!(16 * sh <= budget, "sharing must fit 16 kernels");
    assert!(32 * sh > budget);
}

#[test]
fn batching_shows_no_improvement() {
    // Paper: "These experiments did not show much improvements".
    for (k, m) in [(1usize, 4usize), (2, 8), (4, 8)] {
        let eq = simulate(k, k);
        let batched = simulate(k, m);
        let rel = (batched.total_s - eq.total_s).abs() / eq.total_s;
        assert!(rel < 0.02, "k={k} m={m}: {:.2}%", rel * 100.0);
    }
}

#[test]
fn nine_lines_of_dsl() {
    // "all results have been achieved by writing only 9 lines of DSL".
    let src = cfdfpga::cfdlang::examples::inverse_helmholtz(11);
    assert_eq!(src.trim().lines().count(), 9);
}
