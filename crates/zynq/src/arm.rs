//! Host-CPU software cost model.
//!
//! The model applies per-operation retired-cycle coefficients to the
//! interpreter's (or loop evaluator's) dynamic operation counts. Each
//! [`sysgen::Platform`] carries its own coefficients
//! ([`sysgen::HostCpuModel`]), which the functions here read directly.
//! The calibration anchor is the paper's Cortex-A53: a dual-issue
//! in-order core whose scalar double-precision code — L1-resident loads
//! feeding FP multiply–add chains — retires a handful of cycles per loop
//! iteration. The ZCU106
//! coefficients land the reference Inverse Helmholtz element (~177
//! kFLOP) at the paper's implied ~2 ms/element on the 1.2 GHz A53
//! (Figure 10: SW Ref. = 0.69 × HW k=1 total), with the flat-index
//! HLS-oriented code paying the paper's ~10% penalty (SW HLS code =
//! 0.90).

use sysgen::HostCpuModel;
use teil::interp::ExecStats;

/// The host cost model under its former zynq name. No compile path
/// uses it; it stays for the `benchmark/` harness, which calls
/// `ArmCostModel::a53_1200mhz()`.
pub type ArmCostModel = HostCpuModel;

/// Seconds for the reference implementation on `host`, from interpreter
/// operation counts (nested-array code: address arithmetic strength-
/// reduced away, hence no explicit address cost).
pub fn time_reference(host: &HostCpuModel, stats: &ExecStats) -> f64 {
    let cycles = stats.loads as f64 * host.cycles_per_load
        + stats.stores as f64 * host.cycles_per_store
        + stats.flops() as f64 * host.cycles_per_flop
        + stats.iters as f64 * host.cycles_per_iter;
    cycles / host.hz
}

/// Seconds for the HLS-oriented generated C (flat single-dimensional
/// indexing with explicit multiplies) on `host`, from the loop-program
/// evaluator's counts.
pub fn time_hls_code(host: &HostCpuModel, counts: &cgen::ExecCounts) -> f64 {
    let cycles = counts.loads as f64 * host.cycles_per_load
        + counts.stores as f64 * host.cycles_per_store
        + counts.fp_ops as f64 * host.cycles_per_flop
        + counts.iters as f64 * host.cycles_per_iter
        + counts.addr_muls as f64 * host.cycles_per_addr_mul
        + counts.addr_adds as f64 * host.cycles_per_addr_add;
    cycles / host.hz
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysgen::Platform;

    #[test]
    fn reference_time_scales_linearly() {
        let host = Platform::zcu106().host;
        let s1 = ExecStats {
            fp_add: 100,
            fp_mul: 100,
            loads: 200,
            stores: 10,
            iters: 100,
            ..Default::default()
        };
        let mut s2 = s1;
        s2.fp_add *= 2;
        s2.fp_mul *= 2;
        s2.loads *= 2;
        s2.stores *= 2;
        s2.iters *= 2;
        let t1 = time_reference(&host, &s1);
        let t2 = time_reference(&host, &s2);
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hls_code_pays_address_arithmetic() {
        let host = Platform::zcu106().host;
        let base = cgen::ExecCounts {
            fp_ops: 1000,
            loads: 2000,
            stores: 100,
            iters: 1000,
            addr_muls: 0,
            addr_adds: 0,
        };
        let mut flat = base;
        flat.addr_muls = 4000;
        flat.addr_adds = 4000;
        assert!(time_hls_code(&host, &flat) > time_hls_code(&host, &base));
    }

    #[test]
    fn helmholtz_element_lands_near_two_ms() {
        // The calibration anchor: ~177 kFLOP factored element ≈ 2 ms.
        let host = Platform::zcu106().host;
        let typed =
            cfdlang::check(&cfdlang::parse(&cfdlang::examples::inverse_helmholtz(11)).unwrap())
                .unwrap();
        let module = teil::transform::factorize(&teil::lower::lower(&typed).unwrap());
        let zero = |shape: &[usize]| teil::Tensor::zeros(shape);
        let ex = teil::Interpreter::new(&module)
            .run(&teil::interp::inputs_from(vec![
                ("S", zero(&[11, 11])),
                ("D", zero(&[11, 11, 11])),
                ("u", zero(&[11, 11, 11])),
            ]))
            .unwrap();
        let t = time_reference(&host, &ex.stats);
        assert!(
            (1.2e-3..3.2e-3).contains(&t),
            "per-element reference time {t:.2e}s outside calibration band"
        );
    }
}
