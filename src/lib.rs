//! `cfdfpga` — umbrella crate for the CFDlang-to-FPGA reproduction.
//!
//! This crate re-exports the public APIs of every subsystem so that
//! examples, integration tests and downstream users can depend on a single
//! package. See the `cfd-core` crate ([`flow`]) for the end-to-end
//! staged compiler/synthesis/simulation pipeline and the design-space
//! exploration engine, and `README.md` at the repository root for the
//! quickstart and crate map.

pub use cfd_core as flow;
pub use cfdlang;
pub use cgen;
pub use hls;
pub use mnemosyne;
pub use pschedule;
pub use sysgen;
pub use teil;
pub use zynq;
