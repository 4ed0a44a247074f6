//! Affine constraints.
//!
//! A [`Constraint`] is either `expr = 0` or `expr >= 0` for an affine
//! [`LinExpr`]. Normalization divides by the coefficient GCD and, for
//! inequalities, floor-divides the constant — the integer tightening that
//! makes Fourier–Motzkin projection exact on the unimodular systems the
//! CFDlang flow produces.

use crate::linexpr::LinExpr;
use std::fmt;

/// Equality or inequality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintKind {
    /// `expr = 0`
    Eq,
    /// `expr >= 0`
    GeZero,
}

/// An affine constraint over an implicit variable vector.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    pub kind: ConstraintKind,
    pub expr: LinExpr,
}

/// Outcome of [`Constraint::normalize_in_place`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormalizeAction {
    /// The constraint was canonicalized in place and should be kept.
    Keep,
    /// Trivially satisfied; drop it.
    Trivial,
    /// Unsatisfiable over the integers.
    Infeasible,
}

/// Result of normalizing a constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Normalized {
    /// Constraint simplified to this canonical form.
    Keep(Constraint),
    /// Constraint is trivially satisfied (e.g. `3 >= 0`).
    Trivial,
    /// Constraint is unsatisfiable (e.g. `-1 >= 0` or `2x = 1` with no
    /// integer solution).
    Infeasible,
}

impl Constraint {
    /// `expr = 0`.
    pub fn eq(expr: LinExpr) -> Self {
        Constraint {
            kind: ConstraintKind::Eq,
            expr,
        }
    }

    /// `expr >= 0`.
    pub fn ge0(expr: LinExpr) -> Self {
        Constraint {
            kind: ConstraintKind::GeZero,
            expr,
        }
    }

    /// `lhs >= rhs` as `lhs - rhs >= 0`.
    pub fn ge(lhs: &LinExpr, rhs: &LinExpr) -> Self {
        Constraint::ge0(lhs.sub(rhs))
    }

    /// `lhs <= rhs` as `rhs - lhs >= 0`.
    pub fn le(lhs: &LinExpr, rhs: &LinExpr) -> Self {
        Constraint::ge0(rhs.sub(lhs))
    }

    /// `lhs = rhs` as `lhs - rhs = 0`.
    pub fn eq_exprs(lhs: &LinExpr, rhs: &LinExpr) -> Self {
        Constraint::eq(lhs.sub(rhs))
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.expr.n_vars()
    }

    /// Whether the constraint holds at an integer point.
    pub fn holds(&self, point: &[i64]) -> bool {
        let v = self.expr.eval(point);
        match self.kind {
            ConstraintKind::Eq => v == 0,
            ConstraintKind::GeZero => v >= 0,
        }
    }

    /// Normalize: divide by the GCD of the variable coefficients with
    /// integer tightening; classify trivial/infeasible constants.
    pub fn normalize(&self) -> Normalized {
        let mut c = self.clone();
        match c.normalize_in_place() {
            NormalizeAction::Keep => Normalized::Keep(c),
            NormalizeAction::Trivial => Normalized::Trivial,
            NormalizeAction::Infeasible => Normalized::Infeasible,
        }
    }

    /// Normalize this constraint in place — the zero-allocation form of
    /// [`Constraint::normalize`]. On `Keep` the constraint is canonical;
    /// on `Trivial`/`Infeasible` its contents are unspecified and the
    /// caller should discard it.
    pub fn normalize_in_place(&mut self) -> NormalizeAction {
        let g = self.expr.coeff_gcd();
        if g == 0 {
            // Constant constraint.
            return match self.kind {
                ConstraintKind::Eq if self.expr.constant == 0 => NormalizeAction::Trivial,
                ConstraintKind::Eq => NormalizeAction::Infeasible,
                ConstraintKind::GeZero if self.expr.constant >= 0 => NormalizeAction::Trivial,
                ConstraintKind::GeZero => NormalizeAction::Infeasible,
            };
        }
        let expr = &mut self.expr;
        match self.kind {
            ConstraintKind::Eq => {
                // Integer solvability: g must divide the constant.
                if expr.constant % g != 0 {
                    return NormalizeAction::Infeasible;
                }
                if g > 1 {
                    for c in &mut expr.coeffs {
                        *c /= g;
                    }
                    expr.constant /= g;
                }
                // Canonical sign: first nonzero coefficient positive.
                if let Some(&first) = expr.coeffs.iter().find(|&&c| c != 0) {
                    if first < 0 {
                        expr.scale_assign(-1);
                    }
                }
                NormalizeAction::Keep
            }
            ConstraintKind::GeZero => {
                if g > 1 {
                    for c in &mut expr.coeffs {
                        *c /= g;
                    }
                    // Integer tightening: floor division of the constant.
                    expr.constant = expr.constant.div_euclid(g);
                }
                NormalizeAction::Keep
            }
        }
    }

    /// Render with dimension names.
    pub fn display(&self, names: &[String]) -> String {
        let op = match self.kind {
            ConstraintKind::Eq => "=",
            ConstraintKind::GeZero => ">=",
        };
        format!("{} {} 0", self.expr.display(names), op)
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display(&[]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_at_point() {
        // i - j >= 0 at (3, 2) and not at (2, 3)
        let c = Constraint::ge0(LinExpr::new(&[1, -1], 0));
        assert!(c.holds(&[3, 2]));
        assert!(!c.holds(&[2, 3]));
    }

    #[test]
    fn normalize_tightens_inequality() {
        // 2x - 1 >= 0 over integers means x >= 1, i.e. x - 1 >= 0.
        let c = Constraint::ge0(LinExpr::new(&[2], -1));
        match c.normalize() {
            Normalized::Keep(k) => assert_eq!(k.expr, LinExpr::new(&[1], -1)),
            other => panic!("expected Keep, got {other:?}"),
        }
    }

    #[test]
    fn normalize_detects_infeasible_equality() {
        // 2x = 1 has no integer solution.
        let c = Constraint::eq(LinExpr::new(&[2], -1));
        assert_eq!(c.normalize(), Normalized::Infeasible);
    }

    #[test]
    fn normalize_constant_rows() {
        assert_eq!(
            Constraint::ge0(LinExpr::constant(2, 3)).normalize(),
            Normalized::Trivial
        );
        assert_eq!(
            Constraint::ge0(LinExpr::constant(2, -3)).normalize(),
            Normalized::Infeasible
        );
        assert_eq!(
            Constraint::eq(LinExpr::constant(2, 0)).normalize(),
            Normalized::Trivial
        );
        assert_eq!(
            Constraint::eq(LinExpr::constant(2, 4)).normalize(),
            Normalized::Infeasible
        );
    }

    #[test]
    fn normalize_canonicalizes_equality_sign() {
        let c = Constraint::eq(LinExpr::new(&[-2, 2], 0));
        match c.normalize() {
            Normalized::Keep(k) => assert_eq!(k.expr, LinExpr::new(&[1, -1], 0)),
            other => panic!("expected Keep, got {other:?}"),
        }
    }

    #[test]
    fn builders() {
        let x = LinExpr::var(2, 0);
        let y = LinExpr::var(2, 1);
        let c = Constraint::le(&x, &y); // x <= y  ->  y - x >= 0
        assert!(c.holds(&[1, 2]));
        assert!(!c.holds(&[2, 1]));
        let e = Constraint::eq_exprs(&x, &y);
        assert!(e.holds(&[5, 5]));
    }
}
