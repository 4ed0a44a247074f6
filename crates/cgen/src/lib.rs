//! `cgen` — code generation from scheduled tensor kernels (step ⓥ).
//!
//! The code generator turns a scheduled kernel into a loop-nest program
//! ([`CKernel`]) that serves three consumers:
//!
//! 1. [`emit::emit_c99`] renders it as the C99 source handed to the HLS
//!    tool, with every array exported as a function parameter — the
//!    decoupled kernel/PLM interface of Figure 6,
//! 2. the `hls` crate walks the same structure to schedule operations and
//!    estimate resources,
//! 3. [`exec`] executes it directly on flat arrays, which is how the
//!    repository validates that generated code computes exactly what the
//!    `teil` interpreter defines (and how the ARM "SW HLS code" variant
//!    of Figure 10 is cost-modelled).
//!
//! Reductions whose loops are innermost use a scalar accumulator
//! (HLS-friendly: the recurrence stays in a register); other schedules
//! fall back to zero-init plus in-memory accumulation.

#![forbid(unsafe_code)]

pub mod build;
pub mod emit;
pub mod exec;
pub mod ir;

pub use build::{build_kernel, CodegenOptions};
pub use emit::{emit_c99, emit_c99_as};
pub use exec::{kernel_counts, run_kernel, ExecCounts, PreparedKernel};
pub use ir::{AffineAddr, ArrAccess, CExpr, CKernel, CParam, CStmt, ParamRole};

/// The seeded program generator of the repository's integration tests,
/// which the executor's definition tests also run on.
#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod generator;
