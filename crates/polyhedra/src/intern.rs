//! The process-wide oracle counters.
//!
//! Every emptiness verdict of [`crate::System::is_empty`] bumps the
//! counter of the layer that settled it;
//! [`OracleCounters::snapshot`]/[`OracleCounters::since`] let callers
//! (pipeline stages, DSE, the benchmark) report per-phase deltas.

use std::sync::atomic::{AtomicU64, Ordering};

static QUICK_HITS: AtomicU64 = AtomicU64::new(0);
static CORNER_HITS: AtomicU64 = AtomicU64::new(0);
static FM_FALLBACKS: AtomicU64 = AtomicU64::new(0);

pub(crate) fn count_quick_hit() {
    QUICK_HITS.fetch_add(1, Ordering::Relaxed);
}
pub(crate) fn count_corner_hit() {
    CORNER_HITS.fetch_add(1, Ordering::Relaxed);
}
pub(crate) fn count_fm_fallback() {
    FM_FALLBACKS.fetch_add(1, Ordering::Relaxed);
}

/// Does nothing: the oracle keeps no memo. Kept only because the
/// benchmark in `benchmark/` calls it before each cold compile.
pub fn clear_memo() {}

/// Point-in-time totals of the process-wide oracle counters.
///
/// `quick_hits` — emptiness settled by interval propagation;
/// `corner_hits` — non-emptiness settled by an integer corner witness;
/// `fm_fallbacks` — decided by Fourier–Motzkin elimination after both
/// quick exits failed.
///
/// The other eight fields (`memo_hits`, `memo_misses`, `simplex_calls`,
/// `simplex_empty`, `proj_hits`, `proj_misses`, `between_hits`,
/// `between_misses`) read 0 by construction: the verdict, projection and
/// between-set memos and the simplex probe they counted are gone. They
/// stay so that [`OracleCounters::json`] — read by `cfdc --json`, the
/// DSE and portfolio reports, their golden files and the benchmark —
/// keeps its schema until the benchmark's re-baseline retires them.
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
            quick_hits: QUICK_HITS.load(Ordering::Relaxed),
            corner_hits: CORNER_HITS.load(Ordering::Relaxed),
            fm_fallbacks: FM_FALLBACKS.load(Ordering::Relaxed),
            ..OracleCounters::default()
        }
    }

    /// Delta since `base` (saturating, so interleaved phases never go
    /// negative).
    pub fn since(&self, base: OracleCounters) -> OracleCounters {
        OracleCounters {
            quick_hits: self.quick_hits.saturating_sub(base.quick_hits),
            corner_hits: self.corner_hits.saturating_sub(base.corner_hits),
            fm_fallbacks: self.fm_fallbacks.saturating_sub(base.fm_fallbacks),
            ..OracleCounters::default()
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_snapshot_and_since() {
        let base = OracleCounters::snapshot();
        count_quick_hit();
        count_fm_fallback();
        let d = OracleCounters::snapshot().since(base);
        assert!(d.quick_hits >= 1);
        assert!(d.fm_fallbacks >= 1);
        assert_eq!(d.memo_hits + d.simplex_calls + d.between_misses, 0);
    }
}
