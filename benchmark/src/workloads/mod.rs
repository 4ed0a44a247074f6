//! The five workloads and what they share: compiling with one thread,
//! verifying a compiled program against the reference interpreter, the
//! ARM baseline of the simulated speed-up, and the checks every serving
//! report must pass.

pub mod compile_cold;
pub mod explore_warm;
pub mod serve_execute;
pub mod serve_fleet_backlog;
pub mod serve_online;

use cfd_core::program::{ProgramArtifacts, ProgramFlow, ProgramOptions};
use cfd_core::{FlowOptions, ServiceReport};
use sysgen::Platform;
use zynq::{ArmCostModel, SimConfig};

use crate::cal::CalOp;
use crate::harness::{fnv64, probe_s, SimMetrics};

/// Elements of the simulated CFD run behind `sim_speedup_vs_arm` (the
/// paper's problem size).
pub const SIM_ELEMENTS: usize = 50_000;
/// Elements each compiled program is verified on in set-up.
const VERIFY_ELEMENTS: usize = 2;
/// The program the three serving workloads serve, and the headline
/// program of `compile_cold`.
pub const SERVED_P: usize = 7;

/// Program options for `platform` with every parallel pass pinned to
/// one thread: on a shared 2-core box worker threads measure the
/// scheduler, not the compiler.
pub fn program_options(platform: Platform) -> ProgramOptions {
    let mut flow = FlowOptions::for_platform(platform);
    flow.jobs = 1;
    ProgramOptions {
        flow,
        ..ProgramOptions::default()
    }
}

pub fn compile(source: &str, opts: &ProgramOptions) -> Result<ProgramArtifacts, String> {
    ProgramFlow::compile(source, opts).map_err(|e| e.to_string())
}

/// The compiled program's stages in chain order, as `runtime::serve` and
/// `zynq::run_program_chain` take them.
pub fn stages(art: &ProgramArtifacts) -> (Vec<&teil::Module>, Vec<&cgen::CKernel>) {
    (
        art.kernels.iter().map(|a| &*a.module).collect(),
        art.kernels.iter().map(|a| &a.kernel).collect(),
    )
}

/// Calibrated nanoseconds of one `zynq::program_round` on `design`.
pub fn program_round_ns(cal: CalOp, design: &sysgen::MultiSystemDesign) -> f64 {
    const CALLS: usize = 1_000;
    let sim = SimConfig::default();
    probe_s(cal, 15, || {
        (0..CALLS)
            .map(|_| zynq::program_round(design, &sim).total())
            .sum::<u64>()
    }) / CALLS as f64
        * 1e9
}

/// The compiled chain must reproduce the reference interpreter bit for
/// bit on inputs drawn from `seed`.
pub fn verify_bitexact(what: &str, art: &ProgramArtifacts, seed: u64) -> Result<(), String> {
    let v = art
        .verify(VERIFY_ELEMENTS, seed)
        .map_err(|e| format!("{what}: verification failed to run: {e}"))?;
    if v.bitexact {
        Ok(())
    } else {
        Err(format!(
            "{what}: compiled chain differs from the reference interpreter (max rel {})",
            v.max_rel_diff
        ))
    }
}

/// Simulated seconds the paper's ARM A53 needs for `elements` elements
/// of the kernel chain `modules` (reference software, Figure 10's base).
pub fn arm_chain_s<'a>(
    modules: impl IntoIterator<Item = &'a teil::Module>,
    elements: usize,
) -> Result<f64, String> {
    let model = ArmCostModel::a53_1200mhz();
    modules.into_iter().try_fold(0.0, |acc, module| {
        zynq::sim::sw_reference(module, &model, elements).map(|r| acc + r.total_s)
    })
}

/// ARM time ÷ simulated accelerator time for the design `art` built.
pub fn speedup_vs_arm(what: &str, art: &ProgramArtifacts) -> Result<f64, String> {
    let hw = art
        .simulate(&SimConfig {
            elements: SIM_ELEMENTS,
            ..SimConfig::default()
        })
        .map_err(|e| format!("{what}: {e}"))?;
    let arm_s = arm_chain_s(art.kernels.iter().map(|k| &*k.module), SIM_ELEMENTS)?;
    Ok(arm_s / hw.total_s)
}

/// The serving part of [`SimMetrics`], from a service report.
pub fn serving_sim(report: &ServiceReport) -> (f64, f64, f64) {
    (
        report.goodput_rps.unwrap_or(0.0),
        report.latency_p99_s * 1e3,
        report.completed as f64 / report.requests as f64,
    )
}

/// Every offered request must end in exactly one terminal state.
pub fn conserves(report: &ServiceReport) -> Result<(), String> {
    let resolved = report.completed + report.timed_out + report.shed + report.failed;
    if resolved == report.requests && report.traces.len() == report.requests {
        Ok(())
    } else {
        Err(format!(
            "request conservation broken: {} completed + {} timed out + {} shed + {} failed \
             != {} offered ({} traces)",
            report.completed,
            report.timed_out,
            report.shed,
            report.failed,
            report.requests,
            report.traces.len()
        ))
    }
}

/// A report's JSON must parse and hash to the reference recorded in
/// set-up: same seed, same simulated run, byte for byte.
pub fn same_json(json: &str, reference: u64) -> Result<(), String> {
    let got = fnv64(json.as_bytes());
    if got == reference {
        Ok(())
    } else {
        Err(format!(
            "report JSON hash {got:016x} differs from the reference {reference:016x}"
        ))
    }
}

pub fn valid_json(what: &str, json: &str) -> Result<(), String> {
    runtime::json::validate(json).map_err(|e| format!("{what}: emitted JSON is malformed: {e}"))
}

/// [`SimMetrics`] of one design serving one report.
pub fn sim_of(
    what: &str,
    art: &ProgramArtifacts,
    report: &ServiceReport,
) -> Result<SimMetrics, String> {
    let system = art
        .system
        .as_ref()
        .ok_or_else(|| format!("{what}: the program does not fit its board"))?;
    let (goodput_rps, p99_ms, served_share) = serving_sim(report);
    Ok(SimMetrics {
        speedup_vs_arm: speedup_vs_arm(what, art)?,
        plm_brams: art.memory.brams as f64,
        kernels_fit: system.config.m as f64,
        goodput_rps,
        p99_ms,
        served_share,
    })
}
