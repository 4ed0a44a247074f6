//! `pschedule` — polyhedral scheduling and liveness for the CFDlang flow.
//!
//! This crate implements steps ⓘⓘⓘ (rescheduling) and ⓘⓥ (analysis /
//! Mnemosyne metadata generation) of the compilation flow in Figure 4 of
//! the paper, on top of the `polyhedra` engine:
//!
//! * [`model`] — promotes every IR statement to a polyhedral statement
//!   with an iteration domain and layout-aware read/write access
//!   relations (the *operand maps* of Section IV-B),
//! * [`schedule`] — affine schedules `S : stmt[...] → [...]` into a
//!   common lexicographically-ordered schedule space; the *reference
//!   schedule* follows program order (Section IV-C),
//! * [`deps`] — value-based RAW/RAR dependence analysis and exact
//!   legality checking of candidate schedules,
//! * [`scheduler`] — a Pluto-like rescheduler: per-statement loop
//!   permutations chosen to minimize RAW dependence distance and
//!   maximize RAR coincidence, validated exactly against the RAW
//!   dependences (Section IV-E),
//! * [`liveness`] — the paper's liveness analysis (Section IV-F):
//!   `I = (S×S)∘RAW`, `L = ge_le∘I` as the definition, and the memory
//!   compatibility graph of Figure 5 decided from schedule-box corners,
//!   expanding `L` only for pairs the corners cannot settle,
//! * [`link`] — cross-kernel analysis for multi-kernel programs:
//!   inter-kernel dependences (tensor handoffs), kernel-sequence live
//!   intervals, and the cross-kernel compatibility rules behind
//!   program-wide PLM sharing.

#![forbid(unsafe_code)]

pub mod deps;
pub mod link;
pub mod liveness;
pub mod model;
pub mod schedule;
pub mod scheduler;

pub use deps::{legal, Dependence, DependenceKind, Dependences};
pub use link::{ArraySeqInfo, CrossLiveness, Handoff};
pub use liveness::{CompatKind, CompatibilityGraph, LadderCounters, LiveSets, Liveness};
pub use model::{KernelModel, PolyStmt};
pub use schedule::Schedule;
pub use scheduler::{reschedule, SchedulerOptions};
