//! Loop scheduling and latency estimation.
//!
//! Innermost loops are pipelined (`#pragma HLS pipeline`, Section V-A1);
//! their initiation interval is `II = max(RecMII, ResMII)`:
//!
//! * **RecMII** — a scalar floating-point accumulation carries a
//!   recurrence through the adder, so `RecMII = latency(dadd)`; an
//!   in-memory accumulation additionally pays the read-modify-write
//!   round trip,
//! * **ResMII** — each PLM port serves one access per cycle, so a body
//!   issuing `n` accesses to the same array against `p` ports needs
//!   `ceil(n/p)` cycles.
//!
//! Outer loops execute sequentially with a small control overhead per
//! iteration, exactly like Vivado's default (non-flattened) loop
//! hierarchy.

use crate::ops::OpLibrary;
use crate::HlsOptions;
use cgen::{CExpr, CKernel, CStmt};
use std::collections::HashMap;

/// Per-loop scheduling report (one entry per pipelined leaf loop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopReport {
    /// Loop label: dotted path of loop variables, e.g. `i0.i1.i2.i3`.
    pub label: String,
    /// Trip count of the pipelined loop.
    pub trip: u64,
    /// Initiation interval.
    pub ii: u64,
    /// Pipeline depth (cycles from issue to result).
    pub depth: u64,
    /// Total cycles for one entry of this loop.
    pub latency: u64,
    /// Per-iteration floating-point multiplies (for FU binding).
    pub muls_per_iter: usize,
    /// Per-iteration floating-point adds/subs.
    pub adds_per_iter: usize,
    /// Per-iteration divides.
    pub divs_per_iter: usize,
}

/// Cycles of loop-control overhead per sequential iteration/entry.
const LOOP_OVERHEAD: u64 = 2;
/// Fixed function prologue/epilogue.
const FUNC_OVERHEAD: u64 = 10;

/// Compute per-loop reports and the total kernel latency in cycles.
pub fn kernel_latency(
    kernel: &CKernel,
    opts: &HlsOptions,
    lib: &OpLibrary,
) -> (Vec<LoopReport>, u64) {
    let mut loops = Vec::new();
    let mut total = FUNC_OVERHEAD;
    for s in &kernel.body {
        total += stmt_latency(s, opts, lib, &mut loops, "");
    }
    (loops, total)
}

fn stmt_latency(
    s: &CStmt,
    opts: &HlsOptions,
    lib: &OpLibrary,
    loops: &mut Vec<LoopReport>,
    path: &str,
) -> u64 {
    match s {
        CStmt::DeclScalar { .. } => 0,
        // Statements at sequential level (writeback, zero-init without a
        // loop): one memory access plus the expression.
        CStmt::Store { expr, .. } | CStmt::StoreAccum { expr, .. } => {
            expr_depth(expr, lib) + lib.mem_latency
        }
        CStmt::AccumScalar { expr, .. } => expr_depth(expr, lib) + lib.dadd.latency,
        CStmt::For { var, extent, body } => {
            let label = if path.is_empty() {
                var.clone()
            } else {
                format!("{path}.{var}")
            };
            let is_leaf = !body.iter().any(|b| matches!(b, CStmt::For { .. }));
            if is_leaf {
                let rep = pipeline_leaf(&label, *extent as u64, body, opts, lib);
                let lat = rep.latency + LOOP_OVERHEAD;
                loops.push(rep);
                lat
            } else {
                // Sequential loop around children.
                let mut body_lat = 0u64;
                for b in body {
                    body_lat += stmt_latency(b, opts, lib, loops, &label);
                }
                (*extent as u64) * (body_lat + LOOP_OVERHEAD)
            }
        }
    }
}

/// Schedule one pipelined leaf loop.
fn pipeline_leaf(
    label: &str,
    trip: u64,
    body: &[CStmt],
    opts: &HlsOptions,
    lib: &OpLibrary,
) -> LoopReport {
    let mut rec_mii = 1u64;
    let mut depth = 0u64;
    let mut reads: HashMap<&str, usize> = HashMap::new();
    let mut writes: HashMap<&str, usize> = HashMap::new();
    let mut muls = 0usize;
    let mut adds = 0usize;
    let mut divs = 0usize;

    for s in body {
        match s {
            CStmt::AccumScalar { expr, .. } => {
                rec_mii = rec_mii.max(lib.dadd.latency);
                depth = depth.max(expr_depth(expr, lib) + lib.dadd.latency);
                count_expr(expr, &mut reads, &mut muls, &mut adds, &mut divs);
                adds += 1; // the accumulation add
            }
            CStmt::Store { target, expr } => {
                depth = depth.max(expr_depth(expr, lib) + lib.mem_latency);
                count_expr(expr, &mut reads, &mut muls, &mut adds, &mut divs);
                *writes.entry(target.array.as_str()).or_default() += 1;
            }
            CStmt::StoreAccum { target, expr } => {
                // Read-modify-write through memory.
                rec_mii = rec_mii.max(lib.dadd.latency + 2 * lib.mem_latency);
                depth = depth.max(expr_depth(expr, lib) + lib.dadd.latency + 2 * lib.mem_latency);
                count_expr(expr, &mut reads, &mut muls, &mut adds, &mut divs);
                adds += 1;
                *reads.entry(target.array.as_str()).or_default() += 1;
                *writes.entry(target.array.as_str()).or_default() += 1;
            }
            CStmt::DeclScalar { .. } => {}
            CStmt::For { .. } => unreachable!("leaf loop"),
        }
    }

    let res_mii_reads = reads
        .iter()
        .map(|(arr, &n)| {
            let (rp, _) = opts.ports_for(arr);
            (n as u64).div_ceil(rp as u64)
        })
        .max()
        .unwrap_or(1);
    let res_mii_writes = writes
        .iter()
        .map(|(arr, &n)| {
            let (_, wp) = opts.ports_for(arr);
            (n as u64).div_ceil(wp as u64)
        })
        .max()
        .unwrap_or(1);
    let res_mii = res_mii_reads.max(res_mii_writes);
    let ii = rec_mii.max(res_mii).max(1);
    // (trips-1)·II issue slots, plus the last iteration's II-1 residual
    // port cycles, plus the pipeline drain.
    let latency = depth + trip.saturating_sub(1) * ii + (ii - 1);
    LoopReport {
        label: label.to_string(),
        trip,
        ii,
        depth,
        latency,
        muls_per_iter: muls,
        adds_per_iter: adds,
        divs_per_iter: divs,
    }
}

/// Critical-path depth of an expression.
fn expr_depth(e: &CExpr, lib: &OpLibrary) -> u64 {
    match e {
        CExpr::Load(_) => lib.mem_latency,
        CExpr::Const(_) | CExpr::Var(_) => 0,
        CExpr::Bin { op, lhs, rhs } => {
            expr_depth(lhs, lib).max(expr_depth(rhs, lib)) + lib.spec(*op).latency
        }
    }
}

fn count_expr<'a>(
    e: &'a CExpr,
    reads: &mut HashMap<&'a str, usize>,
    muls: &mut usize,
    adds: &mut usize,
    divs: &mut usize,
) {
    match e {
        CExpr::Load(a) => *reads.entry(a.array.as_str()).or_default() += 1,
        CExpr::Const(_) | CExpr::Var(_) => {}
        CExpr::Bin { op, lhs, rhs } => {
            match op {
                cfdlang::BinOp::Mul => *muls += 1,
                cfdlang::BinOp::Add | cfdlang::BinOp::Sub => *adds += 1,
                cfdlang::BinOp::Div => *divs += 1,
            }
            count_expr(lhs, reads, muls, adds, divs);
            count_expr(rhs, reads, muls, adds, divs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgen::{build_kernel, CodegenOptions};
    use pschedule::{KernelModel, Schedule};
    use teil::layout::LayoutPlan;
    use teil::lower::lower;
    use teil::transform::factorize;

    fn kernel(src: &str, factored: bool) -> CKernel {
        let typed = cfdlang::check(&cfdlang::parse(src).unwrap()).unwrap();
        let mut m = lower(&typed).unwrap();
        if factored {
            m = factorize(&m);
        }
        let layout = LayoutPlan::row_major(&m);
        let km = KernelModel::build(&m, &layout);
        let s = Schedule::reference(&km);
        build_kernel(&m, &km, &s, &CodegenOptions::default())
    }

    #[test]
    fn pointwise_loop_achieves_ii_one() {
        let k = kernel(&cfdlang::examples::axpy(4), false);
        let (loops, _) =
            kernel_latency(&k, &HlsOptions::default(), &OpLibrary::ultrascale_200mhz());
        let inner = loops.last().unwrap();
        assert_eq!(inner.ii, 1, "{inner:?}");
    }

    #[test]
    fn accumulation_ii_is_adder_latency() {
        let k = kernel(&cfdlang::examples::inverse_helmholtz(11), true);
        let lib = OpLibrary::ultrascale_200mhz();
        let (loops, _) = kernel_latency(&k, &HlsOptions::default(), &lib);
        // The six contraction stages all pipeline their reduction loop at
        // II = dadd latency.
        let red: Vec<&LoopReport> = loops.iter().filter(|l| l.ii == lib.dadd.latency).collect();
        assert_eq!(red.len(), 6, "{loops:?}");
    }

    #[test]
    fn factored_kernel_latency_in_expected_band() {
        // 6 stages × 11^3 entries × (depth + 10·II + overhead) + Hadamard.
        let k = kernel(&cfdlang::examples::inverse_helmholtz(11), true);
        let (_, total) =
            kernel_latency(&k, &HlsOptions::default(), &OpLibrary::ultrascale_200mhz());
        assert!(
            (400_000..800_000).contains(&total),
            "latency {total} outside expected band"
        );
    }

    #[test]
    fn factorization_speeds_up_kernel() {
        let naive = kernel(&cfdlang::examples::inverse_helmholtz(11), false);
        let fact = kernel(&cfdlang::examples::inverse_helmholtz(11), true);
        let lib = OpLibrary::ultrascale_200mhz();
        let (_, t_naive) = kernel_latency(&naive, &HlsOptions::default(), &lib);
        let (_, t_fact) = kernel_latency(&fact, &HlsOptions::default(), &lib);
        // O(p^6) vs O(p^4): at p=11 roughly 20× fewer pipelined iterations.
        assert!(
            t_naive > 10 * t_fact,
            "naive {t_naive} vs factored {t_fact}"
        );
    }

    /// A pointwise body reading `x` three times and `y` twice: on one
    /// port per array, `x` bounds the II; partitioning it leaves `y` as
    /// the bottleneck, and partitioning both reaches II 1.
    #[test]
    fn partial_partition_leaves_bottleneck() {
        let k = kernel(
            "var input x : [8]\nvar input y : [8]\nvar output o : [8]\n\
             o = x * x * x + y * y",
            false,
        );
        let lib = OpLibrary::ultrascale_200mhz();
        let ii = |partition: &[(&str, u32)]| {
            let opts = HlsOptions {
                partition: partition.iter().map(|&(a, f)| (a.into(), f)).collect(),
                ..Default::default()
            };
            let (loops, _) = kernel_latency(&k, &opts, &lib);
            assert_eq!(loops.len(), 1, "{loops:?}");
            loops[0].ii
        };
        assert_eq!(ii(&[]), 3);
        assert_eq!(ii(&[("x", 3)]), 2);
        assert_eq!(ii(&[("x", 3), ("y", 2)]), 1);
    }

    #[test]
    fn loop_labels_are_paths() {
        let k = kernel(&cfdlang::examples::inverse_helmholtz(4), true);
        let (loops, _) =
            kernel_latency(&k, &HlsOptions::default(), &OpLibrary::ultrascale_200mhz());
        assert!(loops.iter().any(|l| l.label.contains('.')), "{loops:?}");
    }
}
