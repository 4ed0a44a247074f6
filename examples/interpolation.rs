//! Tensor-product interpolation — the "simpler operator subsumed by the
//! Inverse Helmholtz" of Section II-A. Evaluates a degree-n spectral
//! element on an m-point grid per direction and explores how the
//! operator shape drives the hardware: latency, resources and the
//! replication the board admits.
//!
//! ```sh
//! cargo run --release --example interpolation
//! ```

use cfdfpga::flow::{ProgramFlow, ProgramOptions};

fn main() {
    println!("o = (P ⊗ P ⊗ P) u : interpolate degree-n elements to m points\n");
    println!("   n -> m    kernel cycles   LUT    DSP   PLM BRAM   max k=m");
    for (n, m) in [(4usize, 8usize), (8, 8), (8, 12), (11, 11), (11, 16)] {
        let src = cfdfpga::cfdlang::examples::interpolation(n, m);
        let program = ProgramFlow::compile(&src, &ProgramOptions::default()).expect("flow");
        let k_max = program.system.as_ref().map_or(0, |s| s.config.ks[0]);
        let art = &program.kernels[0];
        println!(
            "  {:>2} -> {:>2}    {:>10}   {:>5}   {:>3}   {:>6}      {:>3}",
            n,
            m,
            art.hls_report.latency_cycles,
            art.hls_report.luts,
            art.hls_report.dsps,
            art.memory.brams,
            k_max,
        );
        // Every configuration must stay functionally correct.
        let v = art.verify(2, (n * 100 + m) as u64).expect("verify");
        assert!(v.bitexact, "n={n} m={m}");
    }

    println!("\nThe factorized interpolation runs three staged contractions,");
    println!("so latency grows with max(n, m)^4 rather than (n m)^3.");
}
