//! Design-space exploration: sweep the polynomial degree p and, for each
//! kernel, run the parallel DSE engine over the (k, batch, sharing,
//! decoupling) grid on the ZCU106 — the exploration loop the DSL flow
//! makes cheap (the paper's Section I: "simplifies the exploration of
//! parameters and constraints such as on-chip memory usage").
//!
//! Per degree, the frontend/middle end/scheduler run exactly once; the
//! grid points share those stages and evaluate concurrently.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use cfdfpga::flow::dse::{DseEngine, DseGrid};
use cfdfpga::flow::FlowOptions;
use cfdfpga::sysgen::Platform;

fn main() {
    let elements = 10_000;
    let opts = FlowOptions::default();
    // The ZCU106 at its one default clock.
    let board = [Platform {
        clock_ladder_mhz: vec![opts.hls.clock_mhz],
        ..opts.platform.clone()
    }];
    println!("Inverse Helmholtz on ZCU106, {elements} elements:\n");
    println!("   p   grid  feasible   best (k, m, sharing)     el/s   sweep");
    for p in [3usize, 5, 7, 9, 11, 13] {
        let src = cfdfpga::cfdlang::examples::inverse_helmholtz(p);
        let engine = DseEngine::prepare(&src, &opts).expect("flow");
        let report = engine.run_portfolio(&board, &DseGrid::default(), 0, elements);
        let counts = engine.pipeline().counters();
        assert_eq!(
            (counts.frontend, counts.middle_end),
            (1, 1),
            "shared stages must compile once"
        );
        // Ranked fastest first, feasible before infeasible.
        match report.outcomes.first().map(|o| &o.outcome) {
            Some(best) if best.feasible => println!(
                "  {:>2}   {:>4}  {:>8}   k={:<2} m={:<3} sharing={:<5}  {:>7.0}   {:.3} s",
                p,
                report.evaluated,
                report.feasible,
                best.point.k,
                best.point.m,
                best.point.sharing,
                best.throughput_eps,
                report.wall_s,
            ),
            _ => println!(
                "  {p:>2}   {:>4}         0   (nothing fits)",
                report.evaluated
            ),
        }
    }

    println!("\nSmaller p shrinks the PLM footprint faster than the logic,");
    println!("so the replication limit shifts from BRAM-bound to LUT-bound.");
}
