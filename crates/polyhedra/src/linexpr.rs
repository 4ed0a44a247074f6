//! Affine integer expressions.
//!
//! A [`LinExpr`] is `c0*x0 + c1*x1 + ... + c_{n-1}*x_{n-1} + k` over an
//! (implicit) variable vector of length `n`. Coefficients are `i64`;
//! intermediate arithmetic during Fourier–Motzkin combination is done in
//! `i128` and checked back into `i64`, which is far beyond anything the
//! CFDlang flow produces.

use std::fmt;

/// An affine expression: linear coefficients plus a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LinExpr {
    /// Coefficient per variable.
    pub coeffs: Vec<i64>,
    /// Constant term.
    pub constant: i64,
}

impl LinExpr {
    /// The zero expression over `n` variables.
    pub fn zero(n: usize) -> Self {
        LinExpr {
            coeffs: vec![0; n],
            constant: 0,
        }
    }

    /// A constant expression over `n` variables.
    pub fn constant(n: usize, k: i64) -> Self {
        LinExpr {
            coeffs: vec![0; n],
            constant: k,
        }
    }

    /// The expression `x_i` over `n` variables.
    pub fn var(n: usize, i: usize) -> Self {
        let mut coeffs = vec![0; n];
        coeffs[i] = 1;
        LinExpr {
            coeffs,
            constant: 0,
        }
    }

    /// Build from a slice of coefficients and a constant.
    pub fn new(coeffs: &[i64], constant: i64) -> Self {
        LinExpr {
            coeffs: coeffs.to_vec(),
            constant,
        }
    }

    /// Number of variables this expression ranges over.
    #[inline]
    pub fn n_vars(&self) -> usize {
        self.coeffs.len()
    }

    /// `self + other`.
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        assert_eq!(self.n_vars(), other.n_vars(), "LinExpr arity mismatch");
        LinExpr {
            coeffs: self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .map(|(a, b)| a.checked_add(*b).expect("LinExpr overflow"))
                .collect(),
            constant: self
                .constant
                .checked_add(other.constant)
                .expect("LinExpr overflow"),
        }
    }

    /// `self - other`.
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        self.add(&other.scale(-1))
    }

    /// `k * self`.
    pub fn scale(&self, k: i64) -> LinExpr {
        let mut out = self.clone();
        out.scale_assign(k);
        out
    }

    /// `self *= k` in place (no allocation).
    pub fn scale_assign(&mut self, k: i64) {
        for c in &mut self.coeffs {
            *c = c.checked_mul(k).expect("LinExpr overflow");
        }
        self.constant = self.constant.checked_mul(k).expect("LinExpr overflow");
    }

    /// `self += k * other` in place (no allocation), with i128
    /// intermediates checked back into i64.
    pub fn add_scaled_assign(&mut self, other: &LinExpr, k: i64) {
        assert_eq!(self.n_vars(), other.n_vars(), "LinExpr arity mismatch");
        for (a, &b) in self.coeffs.iter_mut().zip(&other.coeffs) {
            let v = (*a as i128) + (b as i128) * (k as i128);
            *a = i64::try_from(v).expect("LinExpr overflow");
        }
        let v = (self.constant as i128) + (other.constant as i128) * (k as i128);
        self.constant = i64::try_from(v).expect("LinExpr overflow");
    }

    /// Evaluate at an integer point.
    #[inline]
    pub fn eval(&self, point: &[i64]) -> i64 {
        assert_eq!(point.len(), self.n_vars(), "point arity mismatch");
        let mut acc: i128 = self.constant as i128;
        for (c, x) in self.coeffs.iter().zip(point) {
            acc += (*c as i128) * (*x as i128);
        }
        i64::try_from(acc).expect("LinExpr eval overflow")
    }

    /// Extend the variable vector: insert `count` fresh (zero-coefficient)
    /// variables at position `at`.
    pub fn insert_vars(&self, at: usize, count: usize) -> LinExpr {
        let mut coeffs = Vec::with_capacity(self.coeffs.len() + count);
        coeffs.extend_from_slice(&self.coeffs[..at]);
        coeffs.extend(std::iter::repeat_n(0, count));
        coeffs.extend_from_slice(&self.coeffs[at..]);
        LinExpr {
            coeffs,
            constant: self.constant,
        }
    }

    /// Remove variable `i` (its coefficient must be zero).
    pub fn remove_var(&self, i: usize) -> LinExpr {
        assert_eq!(self.coeffs[i], 0, "removing live variable");
        let mut coeffs = self.coeffs.clone();
        coeffs.remove(i);
        LinExpr {
            coeffs,
            constant: self.constant,
        }
    }

    /// Remove a set of variables at once (sorted ascending indices; every
    /// removed coefficient must be zero). One allocation regardless of
    /// how many variables go.
    pub fn remove_vars(&self, sorted_dead: &[usize]) -> LinExpr {
        let mut coeffs = Vec::with_capacity(self.coeffs.len() - sorted_dead.len());
        let mut d = 0;
        for (i, &c) in self.coeffs.iter().enumerate() {
            if d < sorted_dead.len() && sorted_dead[d] == i {
                debug_assert_eq!(c, 0, "removing live variable");
                d += 1;
            } else {
                coeffs.push(c);
            }
        }
        LinExpr {
            coeffs,
            constant: self.constant,
        }
    }

    /// Substitute variable `i` by the affine expression `repl` (which must
    /// range over the same variable vector and have zero coefficient on
    /// `i`). Afterwards `self` has zero coefficient on `i`.
    pub fn substitute(&self, i: usize, repl: &LinExpr) -> LinExpr {
        assert_eq!(repl.coeffs[i], 0, "self-referential substitution");
        let c = self.coeffs[i];
        if c == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.coeffs[i] = 0;
        out.add_scaled_assign(repl, c);
        out
    }

    /// Substitute variable `i` by `repl` and remove it from the variable
    /// vector in one pass — the zero-intermediate equivalent of
    /// `substitute(i, repl).remove_var(i)` (one output allocation, no
    /// temporaries).
    pub fn substitute_skipping(&self, i: usize, repl: &LinExpr) -> LinExpr {
        debug_assert_eq!(repl.coeffs[i], 0, "self-referential substitution");
        let c = self.coeffs[i];
        let n = self.n_vars();
        let mut coeffs = Vec::with_capacity(n - 1);
        for v in 0..n {
            if v == i {
                continue;
            }
            let w = (self.coeffs[v] as i128) + (repl.coeffs[v] as i128) * (c as i128);
            coeffs.push(i64::try_from(w).expect("LinExpr overflow"));
        }
        let k = (self.constant as i128) + (repl.constant as i128) * (c as i128);
        LinExpr {
            coeffs,
            constant: i64::try_from(k).expect("LinExpr overflow"),
        }
    }

    /// Greatest common divisor of the variable coefficients (0 if all are
    /// zero).
    pub fn coeff_gcd(&self) -> i64 {
        self.coeffs.iter().fold(0i64, |g, &c| gcd(g, c.abs()))
    }

    /// Render with the given dimension names.
    pub fn display(&self, names: &[String]) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (i, &c) in self.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let name = names.get(i).cloned().unwrap_or_else(|| format!("x{i}"));
            match c {
                1 => parts.push(name),
                -1 => parts.push(format!("-{name}")),
                _ => parts.push(format!("{c}{name}")),
            }
        }
        if self.constant != 0 || parts.is_empty() {
            parts.push(self.constant.to_string());
        }
        let mut s = String::new();
        for (i, p) in parts.iter().enumerate() {
            if i == 0 {
                s.push_str(p);
            } else if let Some(stripped) = p.strip_prefix('-') {
                s.push_str(" - ");
                s.push_str(stripped);
            } else {
                s.push_str(" + ");
                s.push_str(p);
            }
        }
        s
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display(&[]))
    }
}

/// Saturating i128 → i64 conversion. Used when storing derived interval
/// bounds: saturation only ever *weakens* a bound over i64-valued points,
/// so soundness of the pruning checks is preserved.
pub(crate) fn clamp_i64(v: i128) -> i64 {
    v.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

/// Greatest common divisor (non-negative).
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Combine two expressions with i128 intermediates:
/// `p * a + q * b`, checked back into i64.
pub fn combine(a: &LinExpr, p: i64, b: &LinExpr, q: i64) -> LinExpr {
    assert_eq!(a.n_vars(), b.n_vars(), "LinExpr arity mismatch");
    let coeffs = a
        .coeffs
        .iter()
        .zip(&b.coeffs)
        .map(|(&ca, &cb)| {
            let v = (ca as i128) * (p as i128) + (cb as i128) * (q as i128);
            i64::try_from(v).expect("FM combination overflow")
        })
        .collect();
    let constant =
        i64::try_from((a.constant as i128) * (p as i128) + (b.constant as i128) * (q as i128))
            .expect("FM combination overflow");
    LinExpr { coeffs, constant }
}

/// `p * a + q * b` with variable `skip` removed from the result — the
/// single-allocation form of `combine(a, p, b, q).remove_var(skip)` used
/// by Fourier–Motzkin pairing (where the combination is chosen to cancel
/// `skip` exactly).
pub fn combine_skipping(a: &LinExpr, p: i64, b: &LinExpr, q: i64, skip: usize) -> LinExpr {
    assert_eq!(a.n_vars(), b.n_vars(), "LinExpr arity mismatch");
    debug_assert_eq!(
        (a.coeffs[skip] as i128) * (p as i128) + (b.coeffs[skip] as i128) * (q as i128),
        0,
        "combination must cancel the skipped variable"
    );
    let n = a.n_vars();
    let mut coeffs = Vec::with_capacity(n - 1);
    for v in 0..n {
        if v == skip {
            continue;
        }
        let w = (a.coeffs[v] as i128) * (p as i128) + (b.coeffs[v] as i128) * (q as i128);
        coeffs.push(i64::try_from(w).expect("FM combination overflow"));
    }
    let constant =
        i64::try_from((a.constant as i128) * (p as i128) + (b.constant as i128) * (q as i128))
            .expect("FM combination overflow");
    LinExpr { coeffs, constant }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_affine() {
        // 2i - j + 3 at (5, 4) = 9
        let e = LinExpr::new(&[2, -1], 3);
        assert_eq!(e.eval(&[5, 4]), 9);
    }

    #[test]
    fn add_sub_scale() {
        let a = LinExpr::new(&[1, 2], 3);
        let b = LinExpr::new(&[4, -1], 0);
        assert_eq!(a.add(&b), LinExpr::new(&[5, 1], 3));
        assert_eq!(a.sub(&b), LinExpr::new(&[-3, 3], 3));
        assert_eq!(a.scale(-2), LinExpr::new(&[-2, -4], -6));
    }

    #[test]
    fn substitute_eliminates_var() {
        // e = 3x + y + 1, substitute x := 2y - 5 -> 7y - 14
        let e = LinExpr::new(&[3, 1], 1);
        let repl = LinExpr::new(&[0, 2], -5);
        let r = e.substitute(0, &repl);
        assert_eq!(r, LinExpr::new(&[0, 7], -14));
    }

    #[test]
    fn insert_and_remove_vars() {
        let e = LinExpr::new(&[1, 2], 7);
        let w = e.insert_vars(1, 2);
        assert_eq!(w, LinExpr::new(&[1, 0, 0, 2], 7));
        let r = w.remove_var(1);
        assert_eq!(r, LinExpr::new(&[1, 0, 2], 7));
    }

    #[test]
    fn gcd_properties() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(0, 0), 0);
    }

    #[test]
    fn combine_uses_wide_arithmetic() {
        let a = LinExpr::new(&[i64::MAX / 4, 1], 0);
        let b = LinExpr::new(&[-(i64::MAX / 4), 1], 0);
        // 1*a + 1*b cancels the large coefficients.
        let c = combine(&a, 1, &b, 1);
        assert_eq!(c, LinExpr::new(&[0, 2], 0));
    }

    #[test]
    fn in_place_ops_match_allocating_ones() {
        let a = LinExpr::new(&[1, 2], 3);
        let b = LinExpr::new(&[4, -1], 7);
        let mut x = a.clone();
        x.add_scaled_assign(&b, -3);
        assert_eq!(x, a.add(&b.scale(-3)));
        let mut y = a.clone();
        y.scale_assign(-2);
        assert_eq!(y, a.scale(-2));
    }

    #[test]
    fn combine_skipping_drops_cancelled_var() {
        // 3x + y >= ... paired with -3x + z: 1*a + 1*b cancels x.
        let a = LinExpr::new(&[3, 1, 0], 2);
        let b = LinExpr::new(&[-3, 0, 1], 5);
        let r = combine_skipping(&a, 1, &b, 1, 0);
        assert_eq!(r, combine(&a, 1, &b, 1).remove_var(0));
    }

    #[test]
    fn substitute_skipping_matches_two_step() {
        let e = LinExpr::new(&[3, 1, -2], 1);
        let repl = LinExpr::new(&[0, 2, 1], -5);
        assert_eq!(
            e.substitute_skipping(0, &repl),
            e.substitute(0, &repl).remove_var(0)
        );
    }

    #[test]
    fn display_readable() {
        let e = LinExpr::new(&[1, -1, 2], -3);
        let names = vec!["i".to_string(), "j".to_string(), "k".to_string()];
        assert_eq!(e.display(&names), "i - j + 2k - 3");
    }

    #[test]
    fn display_zero() {
        let e = LinExpr::zero(2);
        assert_eq!(e.display(&[]), "0");
    }
}
