//! The paper's evaluation workflow end to end: compile the Inverse
//! Helmholtz operator (p = 11), build the largest system that fits the
//! ZCU106, simulate a 50,000-element CFD run, and compare against ARM
//! software execution — Figures 9 and 10 of the paper.
//!
//! ```sh
//! cargo run --release --example inverse_helmholtz
//! ```

use cfdfpga::flow::{FlowOptions, ProgramArtifacts, ProgramFlow, ProgramOptions};
use cfdfpga::mnemosyne::MemoryOptions;
use cfdfpga::sysgen::{Platform, ProgramSystemConfig};
use cfdfpga::zynq::SimConfig;

const ELEMENTS: usize = 50_000;

fn main() {
    let source = cfdfpga::cfdlang::examples::inverse_helmholtz(11);
    println!(
        "Inverse Helmholtz operator, p = 11 — {} DSL lines\n",
        source.lines().count()
    );

    // Compile twice: with and without liveness-based memory sharing.
    // A kernel is the one-kernel program: `kernels[0]` is the kernel,
    // `system` its replicated system.
    let compile = |opts: ProgramOptions| ProgramFlow::compile(&source, &opts).expect("flow");
    let shared = compile(ProgramOptions::default());
    let unshared = compile(
        FlowOptions {
            memory: MemoryOptions { sharing: false },
            ..Default::default()
        }
        .into(),
    );
    let (with_sharing, no_sharing) = (&shared.kernels[0], &unshared.kernels[0]);

    println!(
        "kernel: {} LUT, {} FF, {} DSP @ {} MHz, latency {:.2} ms",
        with_sharing.hls_report.luts,
        with_sharing.hls_report.ffs,
        with_sharing.hls_report.dsps,
        with_sharing.hls_report.clock_mhz,
        with_sharing.hls_report.latency_seconds() * 1e3,
    );
    println!(
        "PLM per kernel: {} BRAMs without sharing, {} with sharing",
        no_sharing.memory.brams, with_sharing.memory.brams
    );
    let k_max = |art: &ProgramArtifacts| art.system.as_ref().map_or(0, |s| s.config.ks[0]);
    println!(
        "max parallel kernels: {} -> {} (the paper's 8 -> 16)\n",
        k_max(&unshared),
        k_max(&shared)
    );

    // Figure 9: scale k = m and report speedups.
    let simulate = |k: usize| {
        let art = compile(ProgramOptions {
            system: Some(ProgramSystemConfig::uniform(k, k, 1)),
            ..Default::default()
        });
        art.simulate(&SimConfig {
            elements: ELEMENTS,
            ..Default::default()
        })
        .expect("fits")
    };
    let base = simulate(1);
    println!("{} elements on the simulated ZCU106:", ELEMENTS);
    println!("  m=k    exec speedup   total speedup   total time");
    for k in [1usize, 2, 4, 8, 16] {
        let r = simulate(k);
        println!(
            "  {:>3}       {:>6.2}         {:>6.2}        {:>8.2} s",
            k,
            base.exec_s / r.exec_s,
            base.total_s / r.total_s,
            r.total_s
        );
    }

    // Figure 10: against the platform's host CPU (the ZCU106's A53).
    let host = Platform::zcu106().host;
    let sw = cfdfpga::zynq::sim::sw_reference(&with_sharing.module, &host, ELEMENTS).expect("sw");
    println!(
        "\nARM A53 (1.2 GHz) software reference: {:.2} s total",
        sw.total_s
    );
    for k in [1usize, 8, 16] {
        let r = simulate(k);
        println!(
            "  HW k = {:<2} speedup vs ARM: {:.2}x",
            k,
            sw.total_s / r.total_s
        );
    }

    // Functional validation of the accelerator datapath.
    let v = with_sharing.verify(4, 7).expect("verify");
    println!(
        "\nfunctional check: {} elements, bitexact = {}",
        v.elements, v.bitexact
    );
    assert!(v.bitexact);
}
