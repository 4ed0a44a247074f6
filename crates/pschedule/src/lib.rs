//! `pschedule` — polyhedral scheduling and liveness for the CFDlang flow.
//!
//! This crate implements steps ⓘⓘⓘ (rescheduling) and ⓘⓥ (analysis /
//! Mnemosyne metadata generation) of the compilation flow in Figure 4 of
//! the paper. Every statement's iteration domain is a box and every
//! access an affine address function, so each question the flow asks is
//! answered from box corners, address bitsets over boxes and, where those
//! cannot settle it, a walk of the instances capped at
//! [`model::WALK_CAP`]:
//!
//! * [`model`] — promotes every IR statement to a polyhedral statement
//!   with a box domain and layout-aware address functions (the *operand
//!   maps* of Section IV-B),
//! * [`schedule`] — affine schedules `S : stmt[...] → [...]` into a
//!   common lexicographically-ordered schedule space; the *reference
//!   schedule* follows program order (Section IV-C),
//! * [`deps`] — value-based RAW/RAR dependence analysis from address
//!   images and exact legality checking of candidate schedules,
//! * [`scheduler`] — a Pluto-like rescheduler: per-statement loop
//!   permutations chosen to minimize RAW dependence distance and
//!   maximize RAR coincidence, validated exactly against the RAW
//!   dependences (Section IV-E),
//! * [`liveness`] — the paper's liveness analysis (Section IV-F): the
//!   memory compatibility graph of Figure 5 decided from schedule-box
//!   corners, walking an array's instances only for pairs the corners
//!   cannot settle,
//! * [`link`] — cross-kernel analysis for multi-kernel programs:
//!   inter-kernel dependences (tensor handoffs), kernel-sequence live
//!   intervals, and the cross-kernel compatibility rules behind
//!   program-wide PLM sharing.
//!
//! The definitions live in the test code, as plain-loop enumerations over
//! statement instances, and every answer the crate gives is tested
//! against them.

#![forbid(unsafe_code)]

pub mod deps;
pub mod link;
pub mod liveness;
pub mod model;
pub mod schedule;
pub mod scheduler;

pub use deps::{legal, Dependence, DependenceKind, Dependences};
pub use link::{ArraySeqInfo, CrossLiveness, Handoff};
pub use liveness::{CompatKind, CompatibilityGraph, LadderCounters, Liveness};
pub use model::{KernelModel, PolyStmt};
pub use schedule::Schedule;
pub use scheduler::{reschedule, SchedulerOptions};

/// The seeded program generator of the repository's integration tests,
/// which the definition tests also run on.
#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod generator;
