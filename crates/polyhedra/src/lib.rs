//! `polyhedra` — what remains of the polyhedral library: the oracle
//! counters the `compile_cold` benchmark workload reads. The compiler
//! decides dependences, legality and liveness from box corners, address
//! bitsets and capped box walks (see `pschedule`), so nothing counts
//! here and every figure reads 0. The crate stays only until the
//! benchmark's re-baseline (ROADMAP item 5(d)/(f)) retires those
//! metrics and deletes it.

#![forbid(unsafe_code)]

/// The counters of the deleted emptiness oracle, all 0: kept so that the
/// benchmark's `polyhedra.*` metrics keep their schema.
#[derive(Clone, Copy, Default)]
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
    /// The process totals: zeros.
    pub fn snapshot() -> OracleCounters {
        OracleCounters::default()
    }

    /// The delta since `base`: zeros.
    pub fn since(&self, _base: OracleCounters) -> OracleCounters {
        OracleCounters::default()
    }
}

pub mod intern {
    //! The deleted oracle's memo.

    /// Does nothing: there is no memo to clear.
    pub fn clear_memo() {}
}
