//! `cfdc simulate`: the system's simulated time against the ARM A53
//! software baseline.

use zynq::SimConfig;

use crate::compile::compile_or_exit;
use crate::flags::{checked_or_exit, parse_common};
use crate::or_exit;

pub(crate) fn cmd_simulate(args: &[String]) {
    let p = checked_or_exit("simulate", parse_common(args));
    let art = compile_or_exit(&p);
    let elements = p.program.flow.elements;
    let r = or_exit(
        "simulation",
        art.simulate(&SimConfig {
            elements,
            ..Default::default()
        }),
    );
    // The software baseline of a program runs its stages one after
    // another on the host CPU.
    let (mut sw_ref, mut sw_hls) = (0.0, 0.0);
    for a in &art.kernels {
        let (reference, hls_code) = or_exit("simulation", a.sw_times(elements));
        sw_ref += reference.total_s;
        sw_hls += hls_code.total_s;
    }
    let ks: Vec<String> = r.ks.iter().map(|k| k.to_string()).collect();
    outln!(
        "program k=[{}] m={} | {} elements in {} rounds",
        ks.join(","),
        r.m,
        r.elements,
        r.rounds
    );
    for (name, exec) in art.names.iter().zip(&r.stage_exec_s) {
        outln!("  stage {name}: exec {exec:.4} s");
    }
    outln!(
        "exec {:.4} s | transfers {:.4} s | total {:.4} s ({:.2} ms/element)",
        r.exec_s,
        r.transfer_s,
        r.total_s,
        r.total_per_element_s() * 1e3
    );
    outln!(
        "ARM A53: reference {sw_ref:.4} s, HLS-style code {sw_hls:.4} s -> HW speedup {:.2}x",
        sw_ref / r.total_s
    );
}
