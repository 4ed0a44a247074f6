//! Constraint systems with Fourier–Motzkin elimination.
//!
//! A [`System`] is a conjunction of affine constraints over `n_vars`
//! anonymous variables. It is the computational workhorse behind sets and
//! maps: intersection is concatenation, projection is FM elimination, and
//! emptiness is decided in three layers by [`System::is_empty`]
//! (interval propagation → corner probe → FM elimination).

use crate::constraint::{Constraint, ConstraintKind, NormalizeAction};
use crate::intern;
use crate::linexpr::{clamp_i64, combine_skipping, LinExpr};

/// A conjunction of affine constraints over `n_vars` variables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct System {
    n_vars: usize,
    constraints: Vec<Constraint>,
    /// Set when normalization discovered an infeasible row. An infeasible
    /// system represents the empty set regardless of other rows.
    infeasible: bool,
}

/// Per-variable `[lo, hi]` interval bounds (`None` = unbounded on that
/// side), as derived by [`System::propagate_bounds`].
pub(crate) type VarBounds = (Vec<Option<i64>>, Vec<Option<i64>>);

impl System {
    /// The unconstrained (universe) system over `n` variables.
    pub fn universe(n: usize) -> Self {
        System {
            n_vars: n,
            constraints: Vec::new(),
            infeasible: false,
        }
    }

    /// An explicitly infeasible (empty) system.
    pub fn infeasible(n: usize) -> Self {
        System {
            n_vars: n,
            constraints: Vec::new(),
            infeasible: true,
        }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// The constraint rows (normalized).
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Whether normalization has already shown this system infeasible.
    /// (`false` does **not** imply non-emptiness — use [`System::is_empty`].)
    pub fn known_infeasible(&self) -> bool {
        self.infeasible
    }

    /// Add a constraint (normalizing it first). Normalization happens in
    /// place on the passed-in row — constraints are GCD-canonical from
    /// the moment they enter a system, so later comparisons and
    /// eliminations never re-normalize.
    pub fn add(&mut self, mut c: Constraint) {
        assert_eq!(c.n_vars(), self.n_vars, "constraint arity mismatch");
        if self.infeasible {
            return;
        }
        match c.normalize_in_place() {
            NormalizeAction::Trivial => {}
            NormalizeAction::Infeasible => {
                self.infeasible = true;
                self.constraints.clear();
            }
            NormalizeAction::Keep => {
                if !self.constraints.contains(&c) {
                    self.constraints.push(c);
                }
            }
        }
    }

    /// Add all constraints from an iterator.
    pub fn extend<I: IntoIterator<Item = Constraint>>(&mut self, it: I) {
        for c in it {
            self.add(c);
        }
    }

    /// Conjunction of two systems over the same variables.
    pub fn intersect(&self, other: &System) -> System {
        assert_eq!(self.n_vars, other.n_vars, "system arity mismatch");
        let mut out = self.clone();
        if out.infeasible {
            return out;
        }
        out.extend(other.constraints.iter().cloned());
        if other.infeasible {
            out.infeasible = true;
            out.constraints.clear();
        }
        out
    }

    /// Whether an integer point satisfies every constraint.
    pub fn holds(&self, point: &[i64]) -> bool {
        !self.infeasible && self.constraints.iter().all(|c| c.holds(point))
    }

    /// Insert `count` fresh variables at position `at` in every row.
    pub fn insert_vars(&self, at: usize, count: usize) -> System {
        System {
            n_vars: self.n_vars + count,
            constraints: self
                .constraints
                .iter()
                .map(|c| Constraint {
                    kind: c.kind,
                    expr: c.expr.insert_vars(at, count),
                })
                .collect(),
            infeasible: self.infeasible,
        }
    }

    /// Eliminate variable `var` by exact substitution (if a unit-coefficient
    /// equality mentions it) or Fourier–Motzkin pairing. The variable is
    /// *removed* from the system; the result has `n_vars - 1` variables.
    pub fn eliminate(&self, var: usize) -> System {
        assert!(var < self.n_vars);
        if self.infeasible {
            return System::infeasible(self.n_vars - 1);
        }

        // A variable that only single-variable rows mention is bounded
        // by them and by nothing else: check `lo <= hi`, drop the rows.
        if let Some(rest) = self.drop_boxed_var(var) {
            return rest;
        }

        // Preferred: exact substitution via an equality with coefficient ±1.
        if let Some(pos) = self
            .constraints
            .iter()
            .position(|c| c.kind == ConstraintKind::Eq && c.expr.coeffs[var].abs() == 1)
        {
            let eqc = &self.constraints[pos];
            // c*x + e = 0 with c = ±1  =>  x = -e/c = -c*e (since c^2 = 1).
            let c = eqc.expr.coeffs[var];
            let mut repl = eqc.expr.clone();
            repl.coeffs[var] = 0;
            repl.scale_assign(-c); // x = -c * e
            let mut out = System::universe(self.n_vars - 1);
            for (i, row) in self.constraints.iter().enumerate() {
                if i == pos {
                    continue;
                }
                out.add(Constraint {
                    kind: row.kind,
                    expr: row.expr.substitute_skipping(var, &repl),
                });
            }
            return out;
        }

        // General case: split equalities into two inequalities, then
        // pair. Rows are referenced by index with an orientation sign, so
        // setup clones nothing; every output row is built in exactly one
        // allocation by `combine_skipping`.
        let mut lowers: Vec<(usize, i64)> = Vec::new(); // sign*expr has coeff > 0 on var
        let mut uppers: Vec<(usize, i64)> = Vec::new(); // sign*expr has coeff < 0 on var
        let mut out = System::universe(self.n_vars - 1);
        for (i, c) in self.constraints.iter().enumerate() {
            let k = c.expr.coeffs[var];
            if k == 0 {
                out.add(Constraint {
                    kind: c.kind,
                    expr: c.expr.remove_var(var),
                });
                if out.infeasible {
                    return out;
                }
                continue;
            }
            match c.kind {
                ConstraintKind::GeZero => {
                    if k > 0 {
                        lowers.push((i, 1));
                    } else {
                        uppers.push((i, 1));
                    }
                }
                ConstraintKind::Eq => {
                    // Orient so the variable has a positive coefficient in
                    // the lower-bound copy and negative in the upper copy.
                    let s = if k > 0 { 1 } else { -1 };
                    lowers.push((i, s));
                    uppers.push((i, -s));
                }
            }
        }
        for &(li, ls) in &lowers {
            let lo = &self.constraints[li].expr;
            let a = ls * lo.coeffs[var];
            debug_assert!(a > 0);
            for &(ui, us) in &uppers {
                let up = &self.constraints[ui].expr;
                let b = -(us * up.coeffs[var]);
                debug_assert!(b > 0);
                // b*(ls*lo) + a*(us*up) eliminates x.
                let comb = combine_skipping(lo, b * ls, up, a * us, var);
                out.add(Constraint::ge0(comb));
                if out.infeasible {
                    return out;
                }
            }
        }
        out.prune_redundant();
        out
    }

    /// [`System::eliminate`] for a variable whose every row mentions no
    /// other variable; `None` when some row couples it to another one.
    fn drop_boxed_var(&self, var: usize) -> Option<System> {
        let mut lo = i64::MIN;
        let mut hi = i64::MAX;
        for c in &self.constraints {
            let k = c.expr.coeffs[var];
            if k == 0 {
                continue;
            }
            // (Normalized single-variable rows have a unit coefficient.)
            if k.abs() != 1 || c.expr.coeffs.iter().filter(|&&x| x != 0).count() > 1 {
                return None;
            }
            let at = c.expr.constant.checked_mul(-k).expect("bound overflow");
            if k > 0 || c.kind == ConstraintKind::Eq {
                lo = lo.max(at);
            }
            if k < 0 || c.kind == ConstraintKind::Eq {
                hi = hi.min(at);
            }
        }
        if lo > hi {
            return Some(System::infeasible(self.n_vars - 1));
        }
        let mut out = System {
            n_vars: self.n_vars - 1,
            constraints: self
                .constraints
                .iter()
                .filter(|c| c.expr.coeffs[var] == 0)
                .map(|c| Constraint {
                    kind: c.kind,
                    expr: c.expr.remove_var(var),
                })
                .collect(),
            infeasible: false,
        };
        out.prune_redundant();
        Some(out)
    }

    /// Eliminate a contiguous range of variables `[from, from+count)`.
    ///
    /// The elimination order is chosen greedily: variables that appear in
    /// an equality with a ±1 coefficient go first (exact substitution),
    /// then variables with the smallest Fourier–Motzkin pairing fan-out.
    /// For the layout systems produced by the flow (row-major index maps
    /// like `a = 121i + 11j + k`) this ordering keeps the projection
    /// integer-exact: `k`, `j`, `i` are substituted through the unit
    /// coefficients instead of being paired through the large strides.
    pub fn eliminate_range(&self, from: usize, count: usize) -> System {
        if count == 0 {
            return self.clone();
        }
        if self.infeasible {
            return System::infeasible(self.n_vars - count);
        }
        // Phase 1: batched exact substitutions, in place at full width.
        // Every variable of the range that is (or becomes, as earlier
        // substitutions rewrite rows) the subject of a unit-coefficient
        // equality is substituted directly into the working rows —
        // without rebuilding a fresh system per variable, which is where
        // the old per-variable loop spent most of its time. Eliminated
        // columns stay as all-zero placeholders until one final
        // compaction. `None` marks a consumed/trivial row.
        let n_vars = self.n_vars;
        let mut rows: Vec<Option<Constraint>> =
            self.constraints.iter().cloned().map(Some).collect();
        let mut remaining: Vec<usize> = (from..from + count).collect();
        let mut dead: Vec<usize> = Vec::with_capacity(count);
        'subst: loop {
            let mut pick: Option<(usize, usize)> = None;
            'scan: for (ri, &v) in remaining.iter().enumerate() {
                for (i, r) in rows.iter().enumerate() {
                    if let Some(c) = r {
                        if c.kind == ConstraintKind::Eq && c.expr.coeffs[v].abs() == 1 {
                            pick = Some((ri, i));
                            break 'scan;
                        }
                    }
                }
            }
            let Some((ri, pos)) = pick else { break 'subst };
            let v = remaining.swap_remove(ri);
            dead.push(v);
            let eqc = rows[pos].take().expect("picked row is alive");
            // c*x + e = 0 with c = ±1  =>  x = -c * e (since c^2 = 1).
            let cv = eqc.expr.coeffs[v];
            let mut repl = eqc.expr;
            repl.coeffs[v] = 0;
            repl.scale_assign(-cv);
            for slot in rows.iter_mut() {
                let Some(c) = slot else { continue };
                let a = c.expr.coeffs[v];
                if a == 0 {
                    continue;
                }
                c.expr.coeffs[v] = 0;
                c.expr.add_scaled_assign(&repl, a);
                match c.normalize_in_place() {
                    NormalizeAction::Trivial => *slot = None,
                    NormalizeAction::Infeasible => return System::infeasible(self.n_vars - count),
                    NormalizeAction::Keep => {}
                }
            }
        }
        // Compact the substituted columns away. Rows are individually
        // normalized already (on entry or by the substitution loop), and
        // dropping all-zero columns preserves normal form, so they go in
        // raw; `prune_redundant` dedups exact duplicates and dominated
        // parallel rows in one sorted pass.
        dead.sort_unstable();
        let mut sys = System {
            n_vars: n_vars - dead.len(),
            constraints: rows
                .into_iter()
                .flatten()
                .map(|r| Constraint {
                    kind: r.kind,
                    expr: r.expr.remove_vars(&dead),
                })
                .collect(),
            infeasible: false,
        };
        sys.prune_redundant();
        // Phase 2: whatever is left has no unit-coefficient equality —
        // Fourier–Motzkin pairing per variable, exactly as before.
        // (Pairing only produces inequalities, so no new substitution
        // opportunities arise.) Indices shift down past the compacted
        // columns and as eliminations proceed.
        for r in &mut remaining {
            *r -= dead.iter().filter(|&&d| d < *r).count();
        }
        while let Some(pos) = pick_elimination_target(&sys, &remaining) {
            let var = remaining.swap_remove(pos);
            sys = sys.eliminate(var);
            if sys.infeasible {
                return System::infeasible(self.n_vars - count);
            }
            for r in &mut remaining {
                if *r > var {
                    *r -= 1;
                }
            }
        }
        sys
    }

    /// Whether the system has no integer solutions.
    ///
    /// Decided in three layers, cheapest first:
    ///
    /// 1. interval propagation (a sound emptiness witness; `quick_hits`),
    /// 2. box-corner probing (a sound non-emptiness witness;
    ///    `corner_hits`),
    /// 3. full FM elimination with integer tightening (`fm_fallbacks`).
    ///
    /// On the (near-unimodular) systems produced by the CFDlang flow FM is
    /// exact; in general it may fail to detect emptiness of pathological
    /// integer-only-empty systems (never produced here).
    pub fn is_empty(&self) -> bool {
        if self.infeasible {
            return true;
        }
        // Sound early exit: interval propagation never flags a feasible
        // system, and skipping the full elimination is a large win on the
        // dependence/liveness systems that are empty for simple reasons.
        let Some((lo, hi)) = self.propagate_bounds() else {
            intern::count_quick_hit();
            return true;
        };
        // Sound early exit in the other direction: probe the corners of
        // the propagated box as candidate integer points. Any point that
        // satisfies every row proves non-emptiness without elimination —
        // and on the box-like schedule/liveness systems of this flow the
        // low corner almost always is such a witness.
        if self.n_vars > 0
            && (self.holds_corner(&lo, &hi, true) || self.holds_corner(&lo, &hi, false))
        {
            intern::count_corner_hit();
            return false;
        }
        intern::count_fm_fallback();
        self.eliminate_range(0, self.n_vars).infeasible
    }

    /// Whether the corner of the box `[lo, hi]` (low corner when
    /// `prefer_lo`, high otherwise; unbounded coordinates fall back to
    /// the opposite bound or 0) satisfies every row. Evaluation is done
    /// in i128 so a clamped probe can never overflow.
    fn holds_corner(&self, lo: &[Option<i64>], hi: &[Option<i64>], prefer_lo: bool) -> bool {
        // Probes beyond this magnitude only arise from clamped
        // "effectively unbounded" propagation results; a real witness
        // among them is out of reach anyway.
        const LIM: i64 = 1 << 40;
        let pt: Vec<i64> = (0..self.n_vars)
            .map(|v| {
                let c = if prefer_lo {
                    lo[v].or(hi[v])
                } else {
                    hi[v].or(lo[v])
                };
                c.unwrap_or(0).clamp(-LIM, LIM)
            })
            .collect();
        self.constraints.iter().all(|c| {
            let mut acc = c.expr.constant as i128;
            for (co, x) in c.expr.coeffs.iter().zip(&pt) {
                acc += (*co as i128) * (*x as i128);
            }
            match c.kind {
                ConstraintKind::Eq => acc == 0,
                ConstraintKind::GeZero => acc >= 0,
            }
        })
    }

    /// Cheap incomplete emptiness test via bounded interval propagation:
    /// every row tightens per-variable `[lo, hi]` bounds using the
    /// current bounds of the other variables (i128 interval arithmetic,
    /// ceil/floor rounding toward the integer hull), for a few rounds.
    /// Never returns `true` for a feasible system; used to prune
    /// intersection unions and lex joins before full FM elimination.
    pub fn quick_infeasible(&self) -> bool {
        if self.infeasible {
            return true;
        }
        if self.n_vars == 0 {
            return false;
        }
        self.propagate_bounds().is_none()
    }

    /// Run the bounded interval propagation of [`System::quick_infeasible`]
    /// and return the per-variable `[lo, hi]` bounds it derived, or `None`
    /// when some interval became empty (the system is certainly
    /// infeasible).
    pub(crate) fn propagate_bounds(&self) -> Option<VarBounds> {
        let n = self.n_vars;
        let mut lo: Vec<Option<i64>> = vec![None; n];
        let mut hi: Vec<Option<i64>> = vec![None; n];
        for _round in 0..4 {
            let mut changed = false;
            for c in &self.constraints {
                // Propagate `expr >= 0`; for equalities also `-expr >= 0`.
                for sign in [1i64, -1] {
                    if sign < 0 && c.kind != ConstraintKind::Eq {
                        continue;
                    }
                    if propagate_row(&c.expr, sign, &mut lo, &mut hi, &mut changed) {
                        return None;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        Some((lo, hi))
    }

    /// Drop duplicate rows and inequalities dominated by a parallel row
    /// with a tighter constant. Works on sorted row indices, so no row is
    /// cloned or hashed; first-occurrence order is preserved.
    pub fn prune_redundant(&mut self) {
        if self.infeasible {
            return;
        }
        let rows = &self.constraints;
        if rows.len() < 2 {
            return;
        }
        // Sort indices so parallel rows (same kind + coefficients) are
        // adjacent.
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| {
            let (ca, cb) = (&rows[a], &rows[b]);
            (ca.kind == ConstraintKind::Eq)
                .cmp(&(cb.kind == ConstraintKind::Eq))
                .then_with(|| ca.expr.coeffs.cmp(&cb.expr.coeffs))
                .then_with(|| ca.expr.constant.cmp(&cb.expr.constant))
        });
        // For each group of parallel rows: equalities dedupe on exact
        // match; inequalities keep one row at the earliest original
        // position with the tightest (smallest) constant.
        let mut keep_at: Vec<Option<i64>> = vec![None; rows.len()]; // idx -> constant to keep
        let mut g = 0;
        while g < order.len() {
            let start = g;
            let c0 = &rows[order[start]];
            let mut end = start + 1;
            while end < order.len() {
                let c = &rows[order[end]];
                if c.kind == c0.kind && c.expr.coeffs == c0.expr.coeffs {
                    end += 1;
                } else {
                    break;
                }
            }
            if c0.kind == ConstraintKind::Eq {
                // Exact duplicates are adjacent (sorted by constant too).
                let mut i = start;
                while i < end {
                    let k = rows[order[i]].expr.constant;
                    let mut first = order[i];
                    let mut j = i;
                    while j < end && rows[order[j]].expr.constant == k {
                        first = first.min(order[j]);
                        j += 1;
                    }
                    keep_at[first] = Some(k);
                    i = j;
                }
            } else {
                let mut first = order[start];
                let mut tightest = rows[order[start]].expr.constant;
                for &idx in &order[start + 1..end] {
                    first = first.min(idx);
                    tightest = tightest.min(rows[idx].expr.constant);
                }
                keep_at[first] = Some(tightest);
            }
            g = end;
        }
        let mut out = Vec::with_capacity(rows.len());
        for (i, c) in self.constraints.drain(..).enumerate() {
            if let Some(k) = keep_at[i] {
                let mut c = c;
                c.expr.constant = k;
                out.push(c);
            }
        }
        self.constraints = out;
    }
}

/// One propagation step for the row `sign * expr >= 0` (`sign` is ±1;
/// −1 is only used for equalities): for every variable with a nonzero
/// coefficient, derive the bound implied by the current intervals of the
/// other variables. Returns `true` when some interval becomes empty.
fn propagate_row(
    expr: &LinExpr,
    sign: i64,
    lo: &mut [Option<i64>],
    hi: &mut [Option<i64>],
    changed: &mut bool,
) -> bool {
    // Row: sum_v cv*x_v + k >= 0 with cv = sign*coeffs[v]. For a target
    // v this gives cv*x_v >= -k - S with S = sum_{u≠v} cu*x_u, so a valid
    // bound substitutes the box maximum of S. The per-u maxima are summed
    // once; each target subtracts its own term.
    let mut unbounded = 0usize;
    let mut unbounded_at = usize::MAX;
    let mut smax: i128 = 0;
    for (u, &c) in expr.coeffs.iter().enumerate() {
        let cu = sign * c;
        if cu == 0 {
            continue;
        }
        let term = if cu > 0 { hi[u] } else { lo[u] };
        match term {
            // i64×i64 products always fit i128; the running sum is
            // checked so an (astronomically unlikely) overflow panics
            // loudly instead of silently misclassifying a feasible
            // system — matching the crate's checked-arithmetic
            // convention.
            Some(b) => {
                smax = smax
                    .checked_add(cu as i128 * b as i128)
                    .expect("interval propagation overflow");
            }
            None => {
                unbounded += 1;
                unbounded_at = u;
                if unbounded > 1 {
                    return false;
                }
            }
        }
    }
    let k = (sign as i128) * (expr.constant as i128);
    for (v, &c) in expr.coeffs.iter().enumerate() {
        let cv = sign * c;
        if cv == 0 {
            continue;
        }
        let s_excl = if unbounded == 0 {
            let own = if cv > 0 { hi[v] } else { lo[v] };
            match own {
                Some(b) => smax
                    .checked_sub(cv as i128 * b as i128)
                    .expect("interval propagation overflow"),
                None => smax,
            }
        } else if unbounded_at == v {
            smax
        } else {
            // Some *other* variable is unbounded: no bound for v.
            continue;
        };
        // cv * x_v >= rhs
        let rhs = k
            .checked_add(s_excl)
            .and_then(i128::checked_neg)
            .expect("interval propagation overflow");
        if cv > 0 {
            // x_v >= ceil(rhs / cv)
            let b = clamp_i64(-((-rhs).div_euclid(cv as i128)));
            if lo[v].is_none_or(|cur| b > cur) {
                lo[v] = Some(b);
                *changed = true;
                if hi[v].is_some_and(|h| b > h) {
                    return true;
                }
            }
        } else {
            // x_v <= floor(rhs / cv) = floor(-rhs / -cv)
            let b = clamp_i64((-rhs).div_euclid(-(cv as i128)));
            if hi[v].is_none_or(|cur| b < cur) {
                hi[v] = Some(b);
                *changed = true;
                if lo[v].is_some_and(|l| b < l) {
                    return true;
                }
            }
        }
    }
    false
}

/// Choose which of `remaining` to eliminate next (index *into*
/// `remaining`); `None` when the list is empty.
fn pick_elimination_target(sys: &System, remaining: &[usize]) -> Option<usize> {
    if remaining.is_empty() {
        return None;
    }
    // Prefer a variable with a unit-coefficient equality (exact).
    for (i, &v) in remaining.iter().enumerate() {
        let has_unit_eq = sys
            .constraints
            .iter()
            .any(|c| c.kind == ConstraintKind::Eq && c.expr.coeffs[v].abs() == 1);
        if has_unit_eq {
            return Some(i);
        }
    }
    // Otherwise the smallest lower×upper pairing fan-out.
    let fan = |v: usize| -> usize {
        let mut lo = 0usize;
        let mut hi = 0usize;
        for c in &sys.constraints {
            let k = c.expr.coeffs[v];
            if k == 0 {
                continue;
            }
            match c.kind {
                ConstraintKind::Eq => {
                    lo += 1;
                    hi += 1;
                }
                ConstraintKind::GeZero => {
                    if k > 0 {
                        lo += 1;
                    } else {
                        hi += 1;
                    }
                }
            }
        }
        lo * hi
    };
    remaining
        .iter()
        .enumerate()
        .min_by_key(|(_, &v)| fan(v))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn box2(ilo: i64, ihi: i64, jlo: i64, jhi: i64) -> System {
        let mut s = System::universe(2);
        s.add(Constraint::ge0(LinExpr::new(&[1, 0], -ilo)));
        s.add(Constraint::ge0(LinExpr::new(&[-1, 0], ihi)));
        s.add(Constraint::ge0(LinExpr::new(&[0, 1], -jlo)));
        s.add(Constraint::ge0(LinExpr::new(&[0, -1], jhi)));
        s
    }

    #[test]
    fn universe_not_empty() {
        assert!(!System::universe(3).is_empty());
    }

    #[test]
    fn box_feasible() {
        assert!(!box2(0, 10, 0, 10).is_empty());
    }

    #[test]
    fn contradictory_bounds_empty() {
        // i >= 5 and i <= 3
        let mut s = System::universe(1);
        s.add(Constraint::ge0(LinExpr::new(&[1], -5)));
        s.add(Constraint::ge0(LinExpr::new(&[-1], 3)));
        assert!(s.is_empty());
    }

    #[test]
    fn eliminate_projects_box() {
        // project j out of 0<=i<=10, 0<=j<=10 -> 0<=i<=10
        let s = box2(0, 10, 0, 10);
        let p = s.eliminate(1);
        assert_eq!(p.n_vars(), 1);
        assert!(p.holds(&[0]));
        assert!(p.holds(&[10]));
        assert!(!p.holds(&[11]));
        assert!(!p.holds(&[-1]));
    }

    #[test]
    fn eliminate_with_equality_substitution() {
        // { (i,j) : i = j + 2, 0 <= j <= 5 }, eliminate j -> 2 <= i <= 7
        let mut s = System::universe(2);
        s.add(Constraint::eq(LinExpr::new(&[1, -1], -2)));
        s.add(Constraint::ge0(LinExpr::new(&[0, 1], 0)));
        s.add(Constraint::ge0(LinExpr::new(&[0, -1], 5)));
        let p = s.eliminate(1);
        assert!(p.holds(&[2]));
        assert!(p.holds(&[7]));
        assert!(!p.holds(&[1]));
        assert!(!p.holds(&[8]));
    }

    #[test]
    fn fm_pairing_without_equalities() {
        // { (i,j) : j >= i, j <= 10, i >= 0 }, eliminate j -> 0 <= i <= 10
        let mut s = System::universe(2);
        s.add(Constraint::ge0(LinExpr::new(&[-1, 1], 0)));
        s.add(Constraint::ge0(LinExpr::new(&[0, -1], 10)));
        s.add(Constraint::ge0(LinExpr::new(&[1, 0], 0)));
        let p = s.eliminate(1);
        assert!(p.holds(&[10]));
        assert!(!p.holds(&[11]));
    }

    #[test]
    fn integer_tightening_in_projection() {
        // { (i,j) : 2j = i, 1 <= i <= 1 } rationally j = 1/2 exists, but
        // normalize flags 2j = 1 infeasible over the integers.
        let mut s = System::universe(2);
        s.add(Constraint::eq(LinExpr::new(&[-1, 2], 0)));
        s.add(Constraint::eq(LinExpr::new(&[1, 0], -1)));
        assert!(s.is_empty());
    }

    #[test]
    fn eliminate_range_many() {
        let mut s = System::universe(4);
        for v in 0..4 {
            let mut lo = vec![0i64; 4];
            lo[v] = 1;
            s.add(Constraint::ge0(LinExpr::new(&lo, 0)));
            let mut hi = vec![0i64; 4];
            hi[v] = -1;
            s.add(Constraint::ge0(LinExpr::new(&hi, 3)));
        }
        let p = s.eliminate_range(1, 2);
        assert_eq!(p.n_vars(), 2);
        assert!(p.holds(&[3, 3]));
        assert!(!p.holds(&[4, 0]));
    }

    #[test]
    fn intersect_concatenates() {
        let a = box2(0, 10, 0, 10);
        let b = box2(5, 20, 5, 20);
        let c = a.intersect(&b);
        assert!(c.holds(&[5, 7]));
        assert!(!c.holds(&[4, 7]));
        assert!(!c.holds(&[11, 7]));
    }

    #[test]
    fn infeasible_propagates() {
        let mut s = System::universe(1);
        s.add(Constraint::ge0(LinExpr::constant(1, -1)));
        assert!(s.known_infeasible());
        assert!(s.is_empty());
        let t = s.intersect(&System::universe(1));
        assert!(t.is_empty());
    }

    #[test]
    fn prune_keeps_tightest_parallel() {
        let mut s = System::universe(1);
        s.add(Constraint::ge0(LinExpr::new(&[-1], 10))); // x <= 10
        s.add(Constraint::ge0(LinExpr::new(&[-1], 5))); // x <= 5
        s.prune_redundant();
        assert_eq!(s.constraints().len(), 1);
        assert!(s.holds(&[5]));
        assert!(!s.holds(&[6]));
    }

    #[test]
    fn quick_infeasible_detects_clashing_constants() {
        let mut s = System::universe(2);
        s.add(Constraint::eq(LinExpr::new(&[1, 0], -2))); // x = 2
        s.add(Constraint::eq(LinExpr::new(&[1, 0], -5))); // x = 5
        assert!(s.quick_infeasible());
    }

    #[test]
    fn quick_infeasible_never_false_positive_on_boxes() {
        let s = box2(0, 10, 0, 10);
        assert!(!s.quick_infeasible());
        let mut t = box2(0, 10, 0, 10);
        t.add(Constraint::ge0(LinExpr::new(&[1, -1], 0))); // multi-var row ignored
        assert!(!t.quick_infeasible());
    }

    #[test]
    fn insert_vars_shifts() {
        let mut s = System::universe(2);
        s.add(Constraint::ge0(LinExpr::new(&[1, -1], 0))); // i >= j
        let w = s.insert_vars(1, 1); // (i, z, j)
        assert!(w.holds(&[3, 100, 2]));
        assert!(!w.holds(&[2, 100, 3]));
    }
}
