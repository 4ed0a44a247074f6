//! Quickstart: compile a small CFDlang kernel through the complete
//! DSL-to-FPGA flow and inspect every artifact.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cfdfpga::flow::{ProgramFlow, ProgramOptions};

fn main() {
    // A 2-D "matrix sandwich" o = Sᵀ A S — two chained contractions.
    let source = cfdfpga::cfdlang::examples::matrix_sandwich(8);
    println!("--- CFDlang source ---\n{source}");

    // A single-kernel source is the one-kernel program: its one kernel
    // slot holds the per-kernel artifacts, the program the system.
    let program = ProgramFlow::compile(&source, &ProgramOptions::default()).expect("flow");
    let artifacts = &program.kernels[0];

    println!("--- tensor IR (after canonicalization) ---");
    println!("{}", artifacts.module);

    println!("--- generated C99 kernel (input to HLS) ---");
    println!("{}", artifacts.c_source);

    println!("--- HLS report ---");
    println!("{}", artifacts.hls_report);

    println!("--- memory subsystem ---");
    for u in &artifacts.memory.units {
        println!(
            "  {}: {} words, {} BRAM36, {}R{}W",
            u.name, u.words, u.brams, u.read_ports, u.write_ports
        );
    }
    println!("  total: {} BRAMs", artifacts.memory.brams);

    if let Some(sys) = &program.system {
        println!("\n--- system (largest k = m that fits the ZCU106) ---");
        println!(
            "  k = {}, m = {}: {} LUT, {} FF, {} DSP, {} BRAM",
            sys.config.ks[0], sys.config.m, sys.luts, sys.ffs, sys.dsps, sys.brams
        );
    }

    // Functional check: the simulated accelerator against the reference
    // interpreter.
    let v = artifacts.verify(4, 2024).expect("verification runs");
    println!(
        "\nverified {} random elements: bitexact = {}, max rel diff = {:.1e}",
        v.elements, v.bitexact, v.max_rel_diff
    );
    assert!(v.bitexact);
}
