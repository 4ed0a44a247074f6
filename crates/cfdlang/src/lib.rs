//! `cfdlang` — frontend for the CFDlang tensor DSL.
//!
//! CFDlang [Rink et al., RWDSL'18] is a small declarative language for the
//! tensor operations that dominate spectral-element CFD solvers. This
//! crate implements the complete frontend used by the DSL-to-FPGA flow:
//! lexer, parser, AST, semantic (shape) analysis and a pretty printer.
//!
//! The paper's running example, the Inverse Helmholtz operator of
//! polynomial degree `p = 11` (Figure 1), looks like this:
//!
//! ```text
//! var input  S : [11 11]
//! var input  D : [11 11 11]
//! var input  u : [11 11 11]
//! var output v : [11 11 11]
//! var t : [11 11 11]
//! var r : [11 11 11]
//! t = S # S # S # u . [[1 6] [3 7] [5 8]]
//! r = D * t
//! v = S # S # S # r . [[0 6] [2 7] [4 8]]
//! ```
//!
//! * `#` is the tensor (outer) product; the dimensions of `S # S # S # u`
//!   are numbered 0–8,
//! * `expr . [[a b] ...]` contracts (sums over) the paired dimensions,
//! * `*` is the entry-wise (Hadamard) product; `+`, `-`, `/` are the other
//!   entry-wise operators.
//!
//! # Quick start
//!
//! ```
//! let src = cfdlang::examples::inverse_helmholtz(11);
//! let program = cfdlang::parse(&src).expect("parses");
//! let typed = cfdlang::check(&program).expect("type checks");
//! assert_eq!(typed.shape_of("t"), Some(&vec![11usize, 11, 11][..]));
//! ```
//!
//! # Multi-kernel programs
//!
//! A source may group several kernels into one program with
//! `kernel name { ... }` blocks; [`parse_set`] / [`check_set`] resolve
//! the name-matched output→input handoffs between them (a full CFD
//! time-step is such a chain — see [`examples::simulation_step`]). A
//! plain source is the degenerate single-kernel set.
//!
//! ```
//! let src = cfdlang::examples::simulation_step(4);
//! let set = cfdlang::check_set(&cfdlang::parse_set(&src).unwrap()).unwrap();
//! assert_eq!(set.kernels.len(), 3);
//! assert_eq!(set.links.len(), 2); // u and v hand off between kernels
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod diag;
pub mod examples;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod sema;
pub mod token;

pub use ast::{BinOp, Decl, DeclKind, Expr, KernelDef, Program, ProgramSet, Stmt};
pub use diag::{Diagnostic, Span};
pub use parser::{parse, parse_set};
pub use pretty::{pretty, pretty_set};
pub use sema::{check, check_set, TensorLink, TypedKernel, TypedProgram, TypedProgramSet};
