//! Resource estimation: functional units, control, addressing, interface
//! and (non-decoupled) internal array mapping.

use crate::latency::LoopReport;
use crate::ops::OpLibrary;
use cgen::{CKernel, CStmt};
use serde::{Deserialize, Serialize};

/// Aggregated resource estimate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceEstimate {
    pub luts: usize,
    pub ffs: usize,
    pub dsps: usize,
    /// BRAM36 blocks used *inside* the accelerator (local arrays in
    /// non-decoupled mode; decoupled kernels use external PLM units).
    pub brams: usize,
}

/// Calibrated micro-architecture constants (see crate docs): control per
/// loop, port wiring per parameter, address-generation logic per access.
const CTRL_LUT_PER_LOOP: usize = 25;
const CTRL_FF_PER_LOOP: usize = 40;
const IFACE_LUT_PER_PARAM: usize = 15;
const IFACE_FF_PER_PARAM: usize = 35;
const ADDR_FF_PER_ACCESS: usize = 30;
/// Internal arrays of at most this many words map to LUTRAM.
const LUTRAM_WORDS: usize = 128;
/// Words per BRAM36 (512 × 64-bit).
const BRAM_WORDS: usize = 512;

/// Estimate the kernel's resources.
pub fn estimate_resources(
    kernel: &CKernel,
    lib: &OpLibrary,
    loops: &[LoopReport],
) -> ResourceEstimate {
    // Function-level FU binding: sequentially executing loops share FU
    // instances, so the kernel instantiates the *maximum* concurrent need
    // across pipelined loops.
    let fu_muls = loops
        .iter()
        .map(|l| l.muls_per_iter)
        .max()
        .unwrap_or(0)
        .max(usize::from(total_muls(kernel) > 0));
    let fu_adds = loops.iter().map(|l| l.adds_per_iter).max().unwrap_or(0);
    let fu_divs = loops.iter().map(|l| l.divs_per_iter).max().unwrap_or(0);

    let mut luts = fu_muls * lib.dmul.luts + fu_adds * lib.dadd.luts + fu_divs * lib.ddiv.luts;
    let mut ffs = fu_muls * lib.dmul.ffs + fu_adds * lib.dadd.ffs + fu_divs * lib.ddiv.ffs;
    let mut dsps = fu_muls * lib.dmul.dsps + fu_adds * lib.dadd.dsps + fu_divs * lib.ddiv.dsps;

    // Control logic per loop.
    let mut n_loops = 0usize;
    let mut n_accesses = 0usize;
    let mut addr_terms = 0usize;
    let mut any_strided = false;
    kernel.visit_stmts(&mut |s| match s {
        CStmt::For { .. } => n_loops += 1,
        CStmt::Store { target, expr } | CStmt::StoreAccum { target, expr } => {
            n_accesses += 1 + expr.loads().len();
            addr_terms += target.addr.add_terms() + target.addr.mul_terms();
            for l in expr.loads() {
                addr_terms += l.addr.add_terms() + l.addr.mul_terms();
            }
            any_strided |=
                target.addr.mul_terms() > 0 || expr.loads().iter().any(|l| l.addr.mul_terms() > 0);
        }
        CStmt::AccumScalar { expr, .. } => {
            n_accesses += expr.loads().len();
            for l in expr.loads() {
                addr_terms += l.addr.add_terms() + l.addr.mul_terms();
                any_strided |= l.addr.mul_terms() > 0;
            }
        }
        CStmt::DeclScalar { .. } => {}
    });
    luts += n_loops * CTRL_LUT_PER_LOOP;
    ffs += n_loops * CTRL_FF_PER_LOOP;
    luts += addr_terms * lib.addr_lut_per_term;
    ffs += n_accesses * ADDR_FF_PER_ACCESS;
    if any_strided {
        dsps += lib.addr_dsp;
    }

    // Interface wiring per exported array.
    luts += kernel.params.len() * IFACE_LUT_PER_PARAM;
    ffs += kernel.params.len() * IFACE_FF_PER_PARAM;

    // Internal arrays (non-decoupled mode): Vivado maps each local with
    // power-of-two depth padding; small arrays fall into LUTRAM.
    let mut brams = 0usize;
    for l in &kernel.locals {
        if l.words <= LUTRAM_WORDS {
            luts += l.words; // distributed RAM cost
        } else {
            let depth_p2 = l.words.next_power_of_two();
            brams += (depth_p2.div_ceil(BRAM_WORDS)).max(1);
        }
    }
    ResourceEstimate {
        luts,
        ffs,
        dsps,
        brams,
    }
}

fn total_muls(kernel: &CKernel) -> usize {
    let mut n = 0usize;
    kernel.visit_stmts(&mut |s| {
        if let CStmt::Store { expr, .. }
        | CStmt::StoreAccum { expr, .. }
        | CStmt::AccumScalar { expr, .. } = s
        {
            let (_, f) = expr.counts();
            n += f;
        }
    });
    n
}

#[cfg(test)]
mod tests {
    use crate::{synthesize, HlsOptions};
    use cgen::{build_kernel, CodegenOptions};
    use pschedule::{KernelModel, Schedule};
    use teil::layout::LayoutPlan;
    use teil::lower::lower;
    use teil::transform::factorize;

    fn kernel(src: &str, factored: bool, decoupled: bool) -> cgen::CKernel {
        let typed = cfdlang::check(&cfdlang::parse(src).unwrap()).unwrap();
        let mut m = lower(&typed).unwrap();
        if factored {
            m = factorize(&m);
        }
        let layout = LayoutPlan::row_major(&m);
        let km = KernelModel::build(&m, &layout);
        let s = Schedule::reference(&km);
        build_kernel(&m, &km, &s, &CodegenOptions { decoupled })
    }

    #[test]
    fn helmholtz_kernel_matches_paper_report() {
        // Paper (Vivado HLS 2019.2): 2,314 LUT / 2,999 FF / 15 DSP.
        let k = kernel(&cfdlang::examples::inverse_helmholtz(11), true, true);
        let r = synthesize(&k, &HlsOptions::default());
        assert_eq!(r.dsps, 15, "DSP must match the paper exactly");
        assert!(
            (2100..=2600).contains(&r.luts),
            "LUT {} vs paper 2,314",
            r.luts
        );
        assert!(
            (2700..=3300).contains(&r.ffs),
            "FF {} vs paper 2,999",
            r.ffs
        );
        assert_eq!(r.brams, 0, "decoupled kernel holds no arrays");
    }

    #[test]
    fn non_decoupled_internal_brams_match_paper() {
        // Paper: temporaries inside the accelerator → 24 BRAMs (Vivado's
        // power-of-two padding: 1331 → 2048 → 4 BRAMs × 6 temporaries).
        let k = kernel(&cfdlang::examples::inverse_helmholtz(11), true, false);
        let r = synthesize(&k, &HlsOptions::default());
        assert_eq!(r.brams, 24);
    }

    #[test]
    fn lutram_threshold_diverts_small_arrays() {
        // A p=4 non-decoupled kernel: temporaries are 64 words ≤ 128 →
        // LUTRAM, no BRAM.
        let k = kernel(&cfdlang::examples::inverse_helmholtz(4), true, false);
        let r = synthesize(&k, &HlsOptions::default());
        assert_eq!(r.brams, 0);
    }

    #[test]
    fn naive_kernel_uses_same_fus() {
        // The unfactored contraction has 3 muls + 1 acc per iteration:
        // more multipliers bound concurrently.
        let fact = synthesize(
            &kernel(&cfdlang::examples::inverse_helmholtz(11), true, true),
            &HlsOptions::default(),
        );
        let naive = synthesize(
            &kernel(&cfdlang::examples::inverse_helmholtz(11), false, true),
            &HlsOptions::default(),
        );
        assert!(
            naive.dsps > fact.dsps,
            "naive {} vs {}",
            naive.dsps,
            fact.dsps
        );
    }

    #[test]
    fn division_kernel_pays_divider() {
        let k = kernel(
            "var input a : [8]\nvar input b : [8]\nvar output o : [8]\no = a / b",
            false,
            true,
        );
        let r = synthesize(&k, &HlsOptions::default());
        assert!(r.luts > 3000, "divider LUT cost missing: {}", r.luts);
    }
}
