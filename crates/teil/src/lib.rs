//! `teil` — a value-based tensor intermediate representation.
//!
//! This crate is the middle end of the CFDlang-to-FPGA flow, modelled on
//! the TeIL tensor IR [Rink et al., ARRAY'19] referenced by the paper.
//! Unlike memory-based IRs (e.g. MLIR's memref-based `linalg`), tensors
//! here are *values*: every statement defines all elements of a unique,
//! statically-shaped, non-aliasing tensor (Section IV-B of the paper).
//!
//! The IR has exactly one statement form — a perfectly-nested loop
//! computation
//!
//! ```text
//! out[o0..o_{p-1}] (+)= expr(o, r0..r_{q-1})
//! ```
//!
//! where `expr` is a scalar expression tree over tensor accesses whose
//! index maps select iteration variables, and `r*` are reduction
//! dimensions that are summed over. Contractions, Hadamard products and
//! entry-wise arithmetic all lower to this form ([`ir`]).
//!
//! The crate provides:
//!
//! * [`ir`] — the IR itself,
//! * [`lower`](mod@lower) — CFDlang AST → IR lowering (step ⓘ of Figure 4),
//! * [`transform`] — canonicalization: contraction factorization via
//!   associativity (the `t = (S ⊗ (S ⊗ (S ⊗ u)..)..)..` rewrite of
//!   Section IV-A), dead-code elimination, duplicate-statement CSE,
//! * [`layout`] — layout materialization (step ⓘⓘ): affine tensor→array
//!   placements with row-major defaults and explicit address-space
//!   sharing,
//! * [`interp`] — a reference interpreter with operation counting, used
//!   for functional validation and as the ARM software cost-model input.
//!
//! # Example
//!
//! ```
//! use teil::{lower::lower, transform};
//!
//! let src = cfdlang::examples::inverse_helmholtz(11);
//! let typed = cfdlang::check(&cfdlang::parse(&src).unwrap()).unwrap();
//! let module = lower(&typed).unwrap();
//! assert_eq!(module.stmts.len(), 3); // t, r, v
//!
//! // Factorization splits each 3-pair contraction into three stages.
//! let factored = transform::factorize(&module);
//! assert_eq!(factored.stmts.len(), 7); // 3 + 1 + 3
//! ```

#![forbid(unsafe_code)]

pub mod interp;
pub mod ir;
pub mod layout;
pub mod lower;
pub mod transform;

pub use interp::{ExecStats, Interpreter, Tensor};
pub use ir::{Module, PointExpr, Stmt, TensorDecl, TensorId, TensorKind};
pub use layout::{ArrayDecl, ArrayId, LayoutPlan, Placement};
pub use lower::lower;
