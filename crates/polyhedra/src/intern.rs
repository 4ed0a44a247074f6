//! Hash-consed memoization of polyhedral queries, plus the oracle mode
//! toggle and the global oracle counters.
//!
//! Systems reaching this table are already row-normalized ([`System`]
//! GCD-reduces every row, canonicalizes equality signs, and dedups on
//! insertion), so a content key over the rows is a sound identity for
//! the *polyhedron as queried*. Two canonical forms are used, with
//! deliberately different strictness:
//!
//! * **Verdict keys** ([`lookup_verdict`]/[`store_verdict`]) sort the
//!   encoded rows. Emptiness is row-order-invariant, so sorting lets
//!   permutations of the same system share one memo entry.
//! * **Projection keys** ([`lookup_projection`]/[`store_projection`])
//!   keep the exact row order and append the `(from, count)` window.
//!   `eliminate_range` resolves ties by row position, so only *exactly*
//!   identical queries may share a result — anything looser could
//!   break the bit-identity guarantee the pipeline differential tests
//!   enforce.
//! * **Between keys** ([`lookup_between`]/[`store_between`]) memoize a
//!   whole per-part [`crate::between_set`] expansion — the ordered list
//!   of `x`-systems of the lex splits that survive. Exact row order
//!   again (the expansion runs projections), so a hit replays the
//!   precise system list a cold run would produce. The eliminations
//!   inside one expansion go through no memo of their own: this one and
//!   the whole-map memo above it already replay every repeat.
//! * **Compound keys** ([`KeyBuilder`]) frame an ordered sequence of
//!   systems plus scalar parameters — used for results that depend on
//!   several polyhedra at once, e.g. the whole-map between-set memo
//!   ([`lookup_between_set`]).
//!
//! Keys encode the full system (`n_vars`, then per row: kind tag,
//! constant, coefficients) and the full key is stored in the map, so
//! hash collisions cannot corrupt results. Both maps live behind
//! `OnceLock<RwLock<HashMap>>` and are shared process-wide: the
//! structurally identical queries a multi-kernel program repeats across
//! kernels are answered once.
//!
//! # Counters and mode
//!
//! Every oracle decision bumps a global atomic counter;
//! [`OracleCounters::snapshot`]/[`OracleCounters::since`] let callers
//! (pipeline stages, DSE, benches) report per-phase deltas. The oracle
//! mode (simplex-backed vs. forced Fourier–Motzkin) is a process-global
//! initialized from the `POLYHEDRA_ORACLE` environment variable
//! (`fm` forces the legacy path) and stamped into
//! [`oracle_signature`], which the compile cache mixes into its content
//! hash so products from different oracle configurations never alias.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{OnceLock, RwLock};

use crate::constraint::ConstraintKind;
use crate::system::System;

// ---------------------------------------------------------------------------
// Canonical keys
// ---------------------------------------------------------------------------

/// Content key for a queried system: a flat `i64` encoding of
/// `n_vars` and every row. Stored in full, so equality — not just the
/// hash — guards every memo hit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Key(Box<[i64]>);

fn encode_row(c: &crate::constraint::Constraint, out: &mut Vec<i64>) {
    out.push(match c.kind {
        ConstraintKind::Eq => 0,
        ConstraintKind::GeZero => 1,
    });
    out.push(c.expr.constant);
    out.extend_from_slice(&c.expr.coeffs);
}

/// Sorted-row canonical key: identifies the polyhedron up to row
/// permutation. Use only for row-order-invariant queries (emptiness).
pub fn verdict_key(sys: &System) -> Key {
    let n = sys.n_vars();
    let mut rows: Vec<Vec<i64>> = sys
        .constraints()
        .iter()
        .map(|c| {
            let mut r = Vec::with_capacity(n + 2);
            encode_row(c, &mut r);
            r
        })
        .collect();
    rows.sort_unstable();
    let mut flat = Vec::with_capacity(1 + rows.len() * (n + 2));
    flat.push(n as i64);
    for r in &rows {
        flat.extend_from_slice(r);
    }
    Key(flat.into_boxed_slice())
}

/// Exact-order key for a projection query: rows in their stored order
/// plus the eliminated window. Row order is semantically significant to
/// `eliminate_range`'s tie-breaking, so no sorting here.
pub fn projection_key(sys: &System, from: usize, count: usize) -> Key {
    let n = sys.n_vars();
    let mut flat = Vec::with_capacity(3 + sys.constraints().len() * (n + 2));
    flat.push(n as i64);
    flat.push(from as i64);
    flat.push(count as i64);
    for c in sys.constraints() {
        encode_row(c, &mut flat);
    }
    Key(flat.into_boxed_slice())
}

/// Incremental builder for compound keys spanning several systems —
/// used by queries whose result is a deterministic function of an
/// ordered sequence of systems plus scalar parameters.
/// Every system is framed by its variable and row counts, so adjacent
/// encodings cannot alias across frame boundaries.
pub struct KeyBuilder {
    flat: Vec<i64>,
}

impl KeyBuilder {
    /// Start a key with a query-kind tag (each compound query family
    /// picks a distinct tag so keys never collide across families).
    pub fn new(tag: i64) -> KeyBuilder {
        KeyBuilder { flat: vec![tag] }
    }

    /// Append a scalar parameter.
    pub fn scalar(&mut self, v: i64) {
        self.flat.push(v);
    }

    /// Append a full system (var count, row count, rows in stored order).
    pub fn system(&mut self, sys: &System) {
        self.flat
            .reserve(2 + sys.constraints().len() * (sys.n_vars() + 2));
        self.flat.push(sys.n_vars() as i64);
        self.flat.push(sys.constraints().len() as i64);
        for c in sys.constraints() {
            encode_row(c, &mut self.flat);
        }
    }

    /// Finish into an immutable [`Key`].
    pub fn finish(self) -> Key {
        Key(self.flat.into_boxed_slice())
    }
}

/// Exact-order key for a per-part `between_set` expansion: the schedule
/// dimension plus the part's rows in stored order. The expansion is a
/// deterministic function of exactly these inputs.
pub fn between_key(sys: &System, n: usize) -> Key {
    let nv = sys.n_vars();
    let mut flat = Vec::with_capacity(2 + sys.constraints().len() * (nv + 2));
    flat.push(n as i64);
    flat.push(nv as i64);
    for c in sys.constraints() {
        encode_row(c, &mut flat);
    }
    Key(flat.into_boxed_slice())
}

// ---------------------------------------------------------------------------
// Memo tables
// ---------------------------------------------------------------------------

fn verdict_map() -> &'static RwLock<HashMap<Key, bool>> {
    static MAP: OnceLock<RwLock<HashMap<Key, bool>>> = OnceLock::new();
    MAP.get_or_init(|| RwLock::new(HashMap::new()))
}

fn projection_map() -> &'static RwLock<HashMap<Key, System>> {
    static MAP: OnceLock<RwLock<HashMap<Key, System>>> = OnceLock::new();
    MAP.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Memoized emptiness verdict for this canonical key, if any. Bumps the
/// memo hit/miss counters.
pub fn lookup_verdict(key: &Key) -> Option<bool> {
    let hit = verdict_map().read().unwrap().get(key).copied();
    match hit {
        Some(_) => COUNTERS.memo_hits.fetch_add(1, Ordering::Relaxed),
        None => COUNTERS.memo_misses.fetch_add(1, Ordering::Relaxed),
    };
    hit
}

pub fn store_verdict(key: Key, empty: bool) {
    verdict_map().write().unwrap().insert(key, empty);
}

/// Memoized projection result for this exact query, if any. Bumps the
/// projection hit/miss counters.
pub fn lookup_projection(key: &Key) -> Option<System> {
    let hit = projection_map().read().unwrap().get(key).cloned();
    match hit {
        Some(_) => COUNTERS.proj_hits.fetch_add(1, Ordering::Relaxed),
        None => COUNTERS.proj_misses.fetch_add(1, Ordering::Relaxed),
    };
    hit
}

pub fn store_projection(key: Key, result: System) {
    projection_map().write().unwrap().insert(key, result);
}

fn between_map() -> &'static RwLock<HashMap<Key, Vec<System>>> {
    static MAP: OnceLock<RwLock<HashMap<Key, Vec<System>>>> = OnceLock::new();
    MAP.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Memoized `between_set` expansion for this part key, if any. Bumps
/// the between hit/miss counters.
pub fn lookup_between(key: &Key) -> Option<Vec<System>> {
    let hit = between_map().read().unwrap().get(key).cloned();
    match hit {
        Some(_) => COUNTERS.between_hits.fetch_add(1, Ordering::Relaxed),
        None => COUNTERS.between_misses.fetch_add(1, Ordering::Relaxed),
    };
    hit
}

pub fn store_between(key: Key, result: Vec<System>) {
    between_map().write().unwrap().insert(key, result);
}

fn between_set_map() -> &'static RwLock<HashMap<Key, crate::set::Set>> {
    static MAP: OnceLock<RwLock<HashMap<Key, crate::set::Set>>> = OnceLock::new();
    MAP.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Memoized whole-map `between_set` + prune result, if any (see
/// [`crate::lex::between_set_pruned`]). Shares the between hit/miss
/// counters with [`lookup_between`] — both memoize between-set
/// expansion work, at different granularities.
pub fn lookup_between_set(key: &Key) -> Option<crate::set::Set> {
    let hit = between_set_map().read().unwrap().get(key).cloned();
    match hit {
        Some(_) => COUNTERS.between_hits.fetch_add(1, Ordering::Relaxed),
        None => COUNTERS.between_misses.fetch_add(1, Ordering::Relaxed),
    };
    hit
}

pub fn store_between_set(key: Key, result: crate::set::Set) {
    between_set_map().write().unwrap().insert(key, result);
}

/// Drop every memoized entry (verdicts, projections, between-set
/// expansions). Test hook — cold-path measurements need it; production
/// never does.
pub fn clear_memo() {
    verdict_map().write().unwrap().clear();
    projection_map().write().unwrap().clear();
    between_map().write().unwrap().clear();
    between_set_map().write().unwrap().clear();
}

/// Number of interned entries `(verdicts, projections, between
/// [per-part + whole-map])`.
pub fn memo_len() -> (usize, usize, usize) {
    (
        verdict_map().read().unwrap().len(),
        projection_map().read().unwrap().len(),
        between_map().read().unwrap().len() + between_set_map().read().unwrap().len(),
    )
}

// ---------------------------------------------------------------------------
// Oracle mode
// ---------------------------------------------------------------------------

/// Which feasibility oracle `System::is_empty` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMode {
    /// Simplex-first with FM fallback, memoized (the default).
    Simplex,
    /// Legacy pure Fourier–Motzkin path, unmemoized. For differential
    /// testing and `POLYHEDRA_ORACLE=fm` escape hatches.
    Fm,
}

static MODE: AtomicU8 = AtomicU8::new(0); // 0 = uninit, 1 = simplex, 2 = fm

/// Current oracle mode; first call initializes from `POLYHEDRA_ORACLE`
/// (`fm` → [`OracleMode::Fm`], anything else → [`OracleMode::Simplex`]).
pub fn oracle_mode() -> OracleMode {
    match MODE.load(Ordering::Relaxed) {
        1 => OracleMode::Simplex,
        2 => OracleMode::Fm,
        _ => {
            let mode = match std::env::var("POLYHEDRA_ORACLE") {
                Ok(v) if v.eq_ignore_ascii_case("fm") => OracleMode::Fm,
                _ => OracleMode::Simplex,
            };
            set_oracle_mode(mode);
            mode
        }
    }
}

/// Force the oracle mode (overriding the environment). Test/CI hook;
/// process-global, so differential tests that flip it must serialize.
pub fn set_oracle_mode(mode: OracleMode) {
    let v = match mode {
        OracleMode::Simplex => 1,
        OracleMode::Fm => 2,
    };
    MODE.store(v, Ordering::Relaxed);
}

/// Stable identifier of the active oracle configuration, mixed into the
/// compile-cache content hash: cached products from one oracle are
/// never served under another (verdict-order-sensitive tie-breaks could
/// otherwise alias).
pub fn oracle_signature() -> &'static str {
    match oracle_mode() {
        OracleMode::Simplex => "oracle=simplex-v1",
        OracleMode::Fm => "oracle=fm",
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

struct Counters {
    quick_hits: AtomicU64,
    corner_hits: AtomicU64,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    simplex_calls: AtomicU64,
    simplex_empty: AtomicU64,
    fm_fallbacks: AtomicU64,
    proj_hits: AtomicU64,
    proj_misses: AtomicU64,
    between_hits: AtomicU64,
    between_misses: AtomicU64,
}

static COUNTERS: Counters = Counters {
    quick_hits: AtomicU64::new(0),
    corner_hits: AtomicU64::new(0),
    memo_hits: AtomicU64::new(0),
    memo_misses: AtomicU64::new(0),
    simplex_calls: AtomicU64::new(0),
    simplex_empty: AtomicU64::new(0),
    fm_fallbacks: AtomicU64::new(0),
    proj_hits: AtomicU64::new(0),
    proj_misses: AtomicU64::new(0),
    between_hits: AtomicU64::new(0),
    between_misses: AtomicU64::new(0),
};

pub(crate) fn count_quick_hit() {
    COUNTERS.quick_hits.fetch_add(1, Ordering::Relaxed);
}
pub(crate) fn count_corner_hit() {
    COUNTERS.corner_hits.fetch_add(1, Ordering::Relaxed);
}
pub(crate) fn count_simplex_call() {
    COUNTERS.simplex_calls.fetch_add(1, Ordering::Relaxed);
}
pub(crate) fn count_simplex_empty() {
    COUNTERS.simplex_empty.fetch_add(1, Ordering::Relaxed);
}
pub(crate) fn count_fm_fallback() {
    COUNTERS.fm_fallbacks.fetch_add(1, Ordering::Relaxed);
}

/// Point-in-time totals of the process-wide oracle counters.
///
/// `quick_hits` — emptiness settled by interval propagation;
/// `corner_hits` — settled by an integer corner witness; `memo_hits` /
/// `memo_misses` — verdict-memo outcomes; `simplex_calls` /
/// `simplex_empty` — rational probes run and how many proved emptiness;
/// `fm_fallbacks` — probes that returned fractional/overflow and were
/// re-decided by Fourier–Motzkin; `proj_hits` / `proj_misses` —
/// projection-memo outcomes; `between_hits` / `between_misses` —
/// per-part `between_set` expansion-memo outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleCounters {
    pub quick_hits: u64,
    pub corner_hits: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub simplex_calls: u64,
    pub simplex_empty: u64,
    pub fm_fallbacks: u64,
    pub proj_hits: u64,
    pub proj_misses: u64,
    pub between_hits: u64,
    pub between_misses: u64,
}

impl OracleCounters {
    /// Current process totals.
    pub fn snapshot() -> OracleCounters {
        OracleCounters {
            quick_hits: COUNTERS.quick_hits.load(Ordering::Relaxed),
            corner_hits: COUNTERS.corner_hits.load(Ordering::Relaxed),
            memo_hits: COUNTERS.memo_hits.load(Ordering::Relaxed),
            memo_misses: COUNTERS.memo_misses.load(Ordering::Relaxed),
            simplex_calls: COUNTERS.simplex_calls.load(Ordering::Relaxed),
            simplex_empty: COUNTERS.simplex_empty.load(Ordering::Relaxed),
            fm_fallbacks: COUNTERS.fm_fallbacks.load(Ordering::Relaxed),
            proj_hits: COUNTERS.proj_hits.load(Ordering::Relaxed),
            proj_misses: COUNTERS.proj_misses.load(Ordering::Relaxed),
            between_hits: COUNTERS.between_hits.load(Ordering::Relaxed),
            between_misses: COUNTERS.between_misses.load(Ordering::Relaxed),
        }
    }

    /// Delta since `base` (saturating, so interleaved phases never go
    /// negative).
    pub fn since(&self, base: OracleCounters) -> OracleCounters {
        OracleCounters {
            quick_hits: self.quick_hits.saturating_sub(base.quick_hits),
            corner_hits: self.corner_hits.saturating_sub(base.corner_hits),
            memo_hits: self.memo_hits.saturating_sub(base.memo_hits),
            memo_misses: self.memo_misses.saturating_sub(base.memo_misses),
            simplex_calls: self.simplex_calls.saturating_sub(base.simplex_calls),
            simplex_empty: self.simplex_empty.saturating_sub(base.simplex_empty),
            fm_fallbacks: self.fm_fallbacks.saturating_sub(base.fm_fallbacks),
            proj_hits: self.proj_hits.saturating_sub(base.proj_hits),
            proj_misses: self.proj_misses.saturating_sub(base.proj_misses),
            between_hits: self.between_hits.saturating_sub(base.between_hits),
            between_misses: self.between_misses.saturating_sub(base.between_misses),
        }
    }

    /// The canonical JSON rendering of the counter schema, used
    /// verbatim by `cfdc --json` and the DSE/portfolio reports so every
    /// surface agrees on field names.
    pub fn json(&self) -> String {
        format!(
            "{{\"quick_hits\": {}, \"corner_hits\": {}, \"memo_hits\": {}, \
             \"memo_misses\": {}, \"simplex_calls\": {}, \"simplex_empty\": {}, \
             \"fm_fallbacks\": {}, \"proj_hits\": {}, \"proj_misses\": {}, \
             \"between_hits\": {}, \"between_misses\": {}}}",
            self.quick_hits,
            self.corner_hits,
            self.memo_hits,
            self.memo_misses,
            self.simplex_calls,
            self.simplex_empty,
            self.fm_fallbacks,
            self.proj_hits,
            self.proj_misses,
            self.between_hits,
            self.between_misses,
        )
    }

    /// Sum of all fields — cheap "did any oracle work happen" probe.
    pub fn total(&self) -> u64 {
        self.quick_hits
            + self.corner_hits
            + self.memo_hits
            + self.memo_misses
            + self.simplex_calls
            + self.simplex_empty
            + self.fm_fallbacks
            + self.proj_hits
            + self.proj_misses
            + self.between_hits
            + self.between_misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::linexpr::LinExpr;

    fn sys(rows: &[(&[i64], i64, bool)]) -> System {
        let n = rows.first().map_or(0, |r| r.0.len());
        let mut s = System::universe(n);
        s.extend(rows.iter().map(|&(c, k, eq)| {
            let e = LinExpr::new(c, k);
            if eq {
                Constraint::eq(e)
            } else {
                Constraint::ge0(e)
            }
        }));
        s
    }

    #[test]
    fn verdict_key_is_row_order_invariant() {
        let a = sys(&[(&[1, 0], -1, false), (&[0, 1], -2, false)]);
        let b = sys(&[(&[0, 1], -2, false), (&[1, 0], -1, false)]);
        assert_eq!(verdict_key(&a), verdict_key(&b));
    }

    #[test]
    fn verdict_key_separates_kinds_and_vars() {
        let a = sys(&[(&[1, 0], -1, false)]);
        let b = sys(&[(&[1, 0], -1, true)]);
        assert_ne!(verdict_key(&a), verdict_key(&b));
        assert_ne!(
            verdict_key(&System::universe(2)),
            verdict_key(&System::universe(3))
        );
    }

    #[test]
    fn projection_key_is_row_order_sensitive() {
        let a = sys(&[(&[1, 1], 0, true), (&[1, -1], 0, true)]);
        let b = sys(&[(&[1, -1], 0, true), (&[1, 1], 0, true)]);
        assert_ne!(projection_key(&a, 0, 1), projection_key(&b, 0, 1));
        assert_ne!(projection_key(&a, 0, 1), projection_key(&a, 0, 2));
    }

    #[test]
    fn counters_snapshot_and_since() {
        let base = OracleCounters::snapshot();
        count_quick_hit();
        count_simplex_call();
        let d = OracleCounters::snapshot().since(base);
        assert!(d.quick_hits >= 1);
        assert!(d.simplex_calls >= 1);
        assert_eq!(OracleCounters::default().total(), 0);
    }

    #[test]
    fn signature_tracks_mode() {
        // Don't permanently flip the global: restore afterwards.
        let before = oracle_mode();
        set_oracle_mode(OracleMode::Fm);
        assert_eq!(oracle_signature(), "oracle=fm");
        set_oracle_mode(OracleMode::Simplex);
        assert_eq!(oracle_signature(), "oracle=simplex-v1");
        set_oracle_mode(before);
    }
}
