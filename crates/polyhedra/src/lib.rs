//! `polyhedra` — a compact integer-set library for the polyhedral model.
//!
//! This crate is the stand-in for libISL [Verdoolaege, ICMS'10] used by the
//! CFDlang-to-FPGA flow. It provides exactly the polyhedral machinery the
//! compiler needs:
//!
//! * [`LinExpr`] — affine (linear + constant) integer expressions,
//! * [`Constraint`] / [`System`] — conjunctions of affine equalities and
//!   inequalities with Fourier–Motzkin (FM) variable elimination,
//! * [`BasicSet`] / [`Set`] — (unions of) integer polyhedra over named
//!   tuple spaces,
//! * [`BasicMap`] / [`Map`] — (unions of) affine relations between spaces
//!   with the usual algebra (compose, reverse, apply, domain/range),
//! * [`lex`] — lexicographic-order relations over schedule spaces, used for
//!   dependence legality and liveness (`ge_le` expansion),
//! * [`ClosedInterval`] — one-dimensional constant bounds for interval
//!   reasoning (schedule-stage and kernel-sequence live ranges),
//! * [`OracleCounters`] — process-wide counts of which emptiness layer
//!   settled each query, surfaced in compile/DSE/benchmark reports.
//!
//! # Scope and exactness
//!
//! All sets arising from CFDlang kernels are affine images of rectangular
//! iteration domains; coefficients are small and the constraint matrices
//! are (near-)totally unimodular. On this class, FM projection with GCD
//! tightening is exact over the integers, so emptiness and disjointness —
//! the only decision procedures the flow relies on — are decided exactly.
//! The library performs integer tightening (floor-division of inequality
//! constants by the coefficient GCD) on every normalization, which is what
//! makes the rational FM projection integer-exact for this constraint
//! class.
//!
//! [`System::is_empty`] decides emptiness in three layers. Interval
//! propagation proves a system empty when some variable's bounds cross;
//! a probe of the propagated box's two corners proves it non-empty when
//! a corner satisfies every row; FM elimination decides whatever neither
//! quick exit settles. Both quick exits are sound over the integers, so
//! on this constraint class every layer gives the exact answer.
//!
//! # Example
//!
//! ```
//! use polyhedra::{Space, BasicSet, Set};
//!
//! // { t[i,j] : 0 <= i < 11 and 0 <= j < 11 }
//! let sp = Space::set("t", &["i", "j"]);
//! let t = BasicSet::boxed(sp.clone(), &[(0, 10), (0, 10)]);
//! assert!(!t.is_empty());
//! assert_eq!(t.points().count(), 121);
//!
//! // Intersect with { t[i,j] : i = j } and count the diagonal.
//! let diag = BasicSet::from_eqs(sp, &[(&[1, -1], 0)]);
//! let d = t.intersect(&diag);
//! assert_eq!(d.points().count(), 11);
//! ```

pub mod bounds;
pub mod constraint;
pub mod intern;
pub mod lex;
pub mod linexpr;
pub mod map;
pub mod points;
pub mod set;
pub mod space;
pub mod system;

pub use bounds::ClosedInterval;
pub use constraint::{Constraint, ConstraintKind};
pub use intern::OracleCounters;
pub use lex::{between_set, lex_le_map, lex_lt_map};
pub use linexpr::LinExpr;
pub use map::{BasicMap, Map};
pub use points::PointIter;
pub use set::{BasicSet, Set};
pub use space::Space;
pub use system::System;
