//! Multi-request batch streams: one compiled accelerator system
//! serving a queue of independent simulation requests.
//!
//! [`crate::sim::simulate_program`] answers "how long does *one* job of
//! `Ne` elements take"; a production service instead sees a stream of
//! independent invocations of the same compiled system, each with its
//! own input tensors. The scheduler time-multiplexes the hardware across
//! that stream: requests are coalesced into hardware rounds (up to
//! `capacity` requests share the `m` PLM sets of one round), rounds
//! execute back to back, and with `overlap` set the single DMA engine
//! double-buffers — the input transfer of round `i+1` and the output
//! drain of round `i-1` run while round `i` computes.
//!
//! There is one scheduler, [`crate::online::simulate_online_stream`],
//! with two sides selected by whether anything is armed. Both place
//! every round on one resource model (the DMA engine and the
//! accelerator chain, with load, execute and drain), run serially or
//! double-buffered. This module holds the one outcome type, the narrower
//! public entry points (wrappers over the scheduler) and the unarmed
//! side, the **clean fold**: with no fault plan, no deadline and no
//! online policy every round costs the same
//! [`crate::sim::program_round`] ticks and admission is greedy FIFO,
//! which makes the schedule one pass over the arrival list, in either
//! mode:
//!
//! * with `capacity = 1` and `overlap = false` (batching disabled) the
//!   stream is **tick-identical** to running `simulate_program` once per
//!   request back to back, and
//! * nothing needs an event queue or a per-request record, and once
//!   every remaining request has arrived the tail of the serial schedule
//!   collapses into a single multiplication (**closed-tick
//!   fast-forward**; see [`StreamOutcome::fast_forwarded_rounds`]).
//!
//! The clean fold reports each round it places to a **sink**: which
//! requests it admitted when, and when their outputs were out. One sink
//! is the [`StreamOutcome`] itself, whose columns serving, the fleet and
//! [`crate::simulate_round_stream`] read. Another keeps only the
//! completion tick of one arrival position, which with the makespan is
//! all a latency percentile of a closed backlog needs: rounds complete
//! in arrival order, so that position's tick is the sorted column's
//! entry. [`summarize_round_stream`] runs the fold over it — the
//! design-space sweep's service probe, with no per-request allocation.
//!
//! The armed side, the event core, lives in [`crate::online`]; the
//! clean fold is also the reference it is tested against.

use crate::des::Time;
use crate::fault::{FaultPlan, RecoverySpec};
use crate::online::{simulate_online_stream, OnlineSpec};
use crate::resources::{Mode, Resources};
use crate::sim::{ProgramRound, SimConfig};
use sysgen::MultiSystemDesign;

/// What the scheduler reports of serving a request stream on one
/// system: per-request columns in arrival order, per-round fills, tick
/// totals and the fault and policy counters. Every entry point returns
/// it; with nothing armed every request completes on its first attempt
/// and the counters read 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Tick at which each request's round started loading (its admission
    /// to the hardware), in arrival order.
    pub admitted_ticks: Vec<Time>,
    /// Tick at which each request resolved, in arrival order: its
    /// outputs finished draining, or the scheduler gave up on it.
    pub completion_ticks: Vec<Time>,
    /// Terminal status per request, arrival order.
    pub statuses: Vec<StreamStatus>,
    /// Hardware rounds each request participated in, arrival order.
    pub attempts: Vec<u32>,
    /// Requests coalesced into each hardware round, dispatch order.
    pub round_fills: Vec<usize>,
    /// Accumulated kernel-execution ticks across all rounds.
    pub exec_ticks: u64,
    /// Accumulated DMA ticks across all rounds.
    pub transfer_ticks: u64,
    /// Ticks during which the DMA engine and the accelerator chain were
    /// busy simultaneously (transfers hidden behind compute; 0 for the
    /// serial schedule).
    pub overlapped_ticks: u64,
    /// End of the last output drain or resolution.
    pub makespan_ticks: Time,
    /// Rounds resolved by the closed-tick fast-forward instead of the
    /// per-round loop.
    pub fast_forwarded_rounds: usize,
    /// Whether the double-buffered scheduler ran (requested overlap AND
    /// every stage had a spare PLM set) — `overlapped_ticks` can still
    /// be 0 if rounds were too sparse to ever coincide.
    pub double_buffered: bool,
    /// Rounds whose input DMA stalled.
    pub dma_stalls: usize,
    /// Rounds aborted by a transient DMA/compute error.
    pub transient_faults: usize,
    /// Per-request checksum failures detected at drain.
    pub corrupt_payloads: usize,
    /// Requests requeued because the board failed mid-round.
    pub outage_requeues: usize,
    /// Arrivals shed at admission because the wait queue was full.
    pub backpressure_shed: usize,
    /// Rounds dispatched below capacity because the oldest queued
    /// request's SLO budget could no longer cover another wait.
    pub early_closed_rounds: usize,
}

impl StreamOutcome {
    /// The outcome of `n` requests before the scheduler placed anything:
    /// every request completed on its first attempt at tick 0.
    pub(crate) fn new(n: usize) -> StreamOutcome {
        StreamOutcome {
            admitted_ticks: vec![0; n],
            completion_ticks: vec![0; n],
            statuses: vec![StreamStatus::Completed; n],
            attempts: vec![1; n],
            ..StreamOutcome::default()
        }
    }

    /// Number of hardware rounds dispatched.
    pub fn rounds(&self) -> usize {
        self.round_fills.len()
    }

    /// Fraction of DMA time hidden behind compute (0 when there were no
    /// transfers).
    pub fn overlap_fraction(&self) -> f64 {
        if self.transfer_ticks == 0 {
            0.0
        } else {
            self.overlapped_ticks as f64 / self.transfer_ticks as f64
        }
    }
}

/// Serve `arrivals` (sorted request-arrival ticks) on `design`, fault
/// free and FIFO: the scheduler with nothing armed.
///
/// `capacity` is the batch policy's fill limit per hardware round,
/// clamped to `[1, m]`; admission is greedy — a round takes every
/// request that has arrived by its load time, up to `capacity`, and
/// never idles while at least one request is queued. A round always
/// moves all `m` PLM sets through the DMA and runs every stage's full
/// `m/k_i` batch schedule (the host program is compiled for `m`; unused
/// slots carry don't-care data), so round cost is independent of fill.
///
/// `overlap` requests double-buffered DMA; it degrades to the serial
/// schedule unless every stage keeps a spare PLM set (`m >= 2·k_i`).
pub fn simulate_batch_stream(
    design: &MultiSystemDesign,
    cfg: &SimConfig,
    arrivals: &[Time],
    capacity: usize,
    overlap: bool,
) -> StreamOutcome {
    let (plan, rec) = (FaultPlan::none(), RecoverySpec::default());
    simulate_faulty_stream(design, cfg, arrivals, capacity, overlap, &plan, &rec)
}

/// Where the clean fold reports the rounds it places, request ranges
/// in arrival order. A [`StreamOutcome`]'s columns are one sink; a
/// summary that keeps one request's completion tick ([`RankSink`]) is
/// another.
trait RoundSink {
    /// Requests `lo..hi` form a round whose inputs start loading at `at`.
    fn admit(&mut self, lo: usize, hi: usize, at: Time);
    /// The outputs of requests `lo..hi` are out at `at`.
    fn complete(&mut self, lo: usize, hi: usize, at: Time);
}

impl RoundSink for StreamOutcome {
    fn admit(&mut self, lo: usize, hi: usize, at: Time) {
        self.admitted_ticks[lo..hi].fill(at);
        self.round_fills.push(hi - lo);
    }

    fn complete(&mut self, lo: usize, hi: usize, at: Time) {
        self.completion_ticks[lo..hi].fill(at);
    }
}

/// The completion tick of the request at arrival position `rank`.
struct RankSink {
    rank: usize,
    ticks: Time,
}

impl RoundSink for RankSink {
    fn admit(&mut self, _: usize, _: usize, _: Time) {}

    fn complete(&mut self, lo: usize, hi: usize, at: Time) {
        if (lo..hi).contains(&self.rank) {
            self.ticks = at;
        }
    }
}

/// The clean fold in either mode, reporting to the columns of a
/// [`StreamOutcome`].
pub(crate) fn clean_fold(
    arrivals: &[Time],
    capacity: usize,
    round: &ProgramRound,
    mode: Mode,
) -> StreamOutcome {
    let mut out = StreamOutcome::new(arrivals.len());
    let (res, fast_forwarded) = fold(arrivals, capacity, round, mode, &mut out);
    out.fast_forwarded_rounds = fast_forwarded;
    res.close(&mut out);
    out
}

/// The clean fold. A round takes every request that has arrived by its
/// load tick, up to `capacity`, and the hardware never idles while one
/// is queued. A finished round's outputs drain before the next load
/// when the schedule is serial, or when they can drain before the next
/// request even arrives (the DMA must not idle on a finished round just
/// because the queue is empty; when both are ready the input keeps
/// priority, as filling keeps the chain busy); otherwise they drain
/// while the next round computes. A request completes when its round's
/// outputs have drained, so rounds complete in arrival order. Returns
/// the resources' final state and the rounds the fast-forward placed.
fn fold(
    arrivals: &[Time],
    capacity: usize,
    round: &ProgramRound,
    mode: Mode,
    sink: &mut impl RoundSink,
) -> (Resources, usize) {
    let n = arrivals.len();
    let serial = mode == Mode::Serial;
    let mut res = Resources::new(mode, round);
    // (outputs ready, first request, one past the last) of the round
    // whose outputs still wait to drain.
    let mut pending_out: Option<(Time, usize, usize)> = None;
    let mut i = 0usize;
    while i < n {
        if let Some((ready, lo, hi)) =
            pending_out.take_if(|&mut (ready, ..)| serial || res.drain_done(ready) <= arrivals[i])
        {
            sink.complete(lo, hi, res.drain(ready));
        }
        let start = res.dma_free().max(arrivals[i]);
        if serial && arrivals[n - 1] <= start {
            // Closed-tick fast-forward: the whole backlog is queued, so
            // the remaining rounds are identical — place them
            // arithmetically instead of looping.
            let rt = res.round_ticks;
            let rounds = (n - i).div_ceil(capacity);
            for b in 0..rounds {
                let lo = i + b * capacity;
                let hi = (lo + capacity).min(n);
                sink.admit(lo, hi, start + b as u64 * rt);
                sink.complete(lo, hi, start + (b as u64 + 1) * rt);
            }
            res.repeat_serial(start, rounds as u64);
            return (res, rounds);
        }
        // Greedy admission: everything arrived by the load tick, up to
        // capacity (at least one — `arrivals[i] <= start` here).
        let hi = (i + capacity).min(n);
        let fill = arrivals[i..hi].iter().filter(|&&a| a <= start).count();
        sink.admit(i, i + fill, start);
        let in_done = res.transfer(start, round.t_in);
        let ready = res.execute(in_done);
        // Drain the previous round's outputs while this one executes.
        if let Some((prev, lo, hi)) = pending_out.replace((ready, i, i + fill)) {
            sink.complete(lo, hi, res.drain(prev));
        }
        i += fill;
    }
    if let Some((ready, lo, hi)) = pending_out {
        sink.complete(lo, hi, res.drain(ready));
    }
    (res, 0)
}

/// What [`summarize_round_stream`] keeps of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// End of the last output drain ([`StreamOutcome::makespan_ticks`]).
    pub makespan_ticks: Time,
    /// Completion tick of the request at the asked arrival position.
    /// Rounds complete in arrival order, so this is the value at that
    /// index of the sorted completion ticks.
    pub rank_ticks: Time,
}

/// [`simulate_round_stream`](crate::simulate_round_stream) with nothing
/// armed, keeping only the makespan and the completion tick of the
/// request at arrival position `rank` instead of the per-request
/// columns: no allocation per request, no sort. With every arrival at
/// tick 0 (a closed backlog) `rank_ticks` is a latency, and `rank` from
/// the nearest-rank definition makes it that latency percentile.
///
/// `arrivals` must be sorted and `rank < arrivals.len()`; `capacity`
/// and `overlap` act as in
/// [`simulate_round_stream`](crate::simulate_round_stream).
pub fn summarize_round_stream(
    round: &ProgramRound,
    ks: &[usize],
    m: usize,
    arrivals: &[Time],
    capacity: usize,
    overlap: bool,
    rank: usize,
) -> StreamSummary {
    assert!(
        arrivals.windows(2).all(|w| w[0] <= w[1]),
        "arrivals must be sorted"
    );
    assert!(rank < arrivals.len(), "rank {rank} is past the stream");
    let mut sink = RankSink { rank, ticks: 0 };
    let mode = Mode::pick(overlap, ks, m);
    let (res, _) = fold(arrivals, capacity.clamp(1, m), round, mode, &mut sink);
    StreamSummary {
        makespan_ticks: res.makespan(),
        rank_ticks: sink.ticks,
    }
}

/// Terminal status of one request under the fault-aware scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamStatus {
    /// Outputs drained and passed their checksum (inside the deadline,
    /// when one was set).
    Completed,
    /// The per-request deadline expired before the request could
    /// complete.
    TimedOut,
    /// Dropped through no fault of its own: the board died and never
    /// recovered.
    Shed,
    /// Every allowed attempt failed (transient errors or corruption).
    Failed,
}

impl StreamStatus {
    /// Stable report token: the trace JSON's `outcome` value.
    pub fn label(self) -> &'static str {
        match self {
            StreamStatus::Completed => "completed",
            StreamStatus::TimedOut => "timed_out",
            StreamStatus::Shed => "shed",
            StreamStatus::Failed => "failed",
        }
    }
}

/// Serve `arrivals` under a [`FaultPlan`] and [`RecoverySpec`] with the
/// FIFO online policy.
///
/// With an unarmed plan and no deadline the scheduler selects the clean
/// fold — fast-forward included — so the fault-free configuration is
/// tick- and bit-identical to [`simulate_batch_stream`] by construction.
/// An armed plan (or a deadline) selects the event core, which walks
/// every round individually: a fault inside a collapsed backlog would
/// otherwise be skipped silently.
pub fn simulate_faulty_stream(
    design: &MultiSystemDesign,
    cfg: &SimConfig,
    arrivals: &[Time],
    capacity: usize,
    overlap: bool,
    plan: &FaultPlan,
    rec: &RecoverySpec,
) -> StreamOutcome {
    let fifo = OnlineSpec::fifo();
    simulate_online_stream(design, cfg, arrivals, capacity, overlap, plan, rec, &fifo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::secs;
    use crate::sim::{program_round, simulate_program};
    use sysgen::Platform;

    fn design(ks: Vec<usize>, m: usize, latencies: &[u64]) -> MultiSystemDesign {
        let platform = Platform::zcu106();
        let stages: Vec<(String, hls::HlsReport)> = latencies
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                (
                    format!("stage{i}"),
                    hls::HlsReport {
                        kernel: format!("stage{i}"),
                        clock_mhz: platform.default_clock_mhz,
                        latency_cycles: l,
                        luts: 2_314,
                        ffs: 2_999,
                        dsps: 15,
                        brams: 0,
                        loops: vec![],
                    },
                )
            })
            .collect();
        let memory = mnemosyne::MemorySubsystem {
            units: vec![],
            brams: 16,
            luts: 450,
            ffs: 250,
        };
        let cfg = sysgen::ProgramSystemConfig { ks, m };
        let host = sysgen::ProgramHostProgram {
            config: cfg.clone(),
            stage_names: stages.iter().map(|(n, _)| n.clone()).collect(),
            bytes_in_per_element: (121 + 2 * 1331) * 8,
            bytes_out_per_element: 1331 * 8,
            handoff_bytes_per_element: 0,
        };
        MultiSystemDesign::build(&platform, &stages, &memory, cfg, host).unwrap()
    }

    #[test]
    fn disabled_batching_is_tick_identical_to_sequential_runs() {
        let d = design(vec![2, 2], 4, &[100_000, 300_000]);
        let cfg = SimConfig::default();
        let n = 9;
        let out = simulate_batch_stream(&d, &cfg, &vec![0; n], 1, false);
        let single = simulate_program(&d, &SimConfig { elements: 1, ..cfg });
        let rt = secs(single.total_s);
        assert_eq!(out.makespan_ticks, n as u64 * rt);
        assert_eq!(out.exec_ticks, n as u64 * secs(single.exec_s));
        assert_eq!(out.transfer_ticks, n as u64 * secs(single.transfer_s));
        for (i, &c) in out.completion_ticks.iter().enumerate() {
            assert_eq!(c, (i as u64 + 1) * rt);
        }
        assert_eq!(out.rounds(), n);
        assert_eq!(out.fast_forwarded_rounds, n, "closed queue fast-forwards");
    }

    #[test]
    fn batching_coalesces_and_multiplies_throughput() {
        let d = design(vec![2], 8, &[200_000]);
        let cfg = SimConfig::default();
        let n = 64;
        let seq = simulate_batch_stream(&d, &cfg, &vec![0; n], 1, false);
        let batched = simulate_batch_stream(&d, &cfg, &vec![0; n], 8, false);
        assert_eq!(batched.rounds(), 8);
        assert_eq!(seq.rounds(), 64);
        // Same round cost, 8 requests per round: exactly 8x the rate.
        assert_eq!(batched.makespan_ticks * 8, seq.makespan_ticks);
    }

    #[test]
    fn staggered_arrivals_wait_for_work() {
        let d = design(vec![2], 4, &[200_000]);
        let cfg = SimConfig::default();
        let rt = program_round(&d, &cfg).total();
        // Second request arrives long after the first round finished.
        let late = 3 * rt;
        let out = simulate_batch_stream(&d, &cfg, &[0, late], 4, false);
        assert_eq!(out.round_fills, vec![1, 1]);
        assert_eq!(out.completion_ticks[0], rt);
        assert_eq!(out.admitted_ticks[1], late);
        assert_eq!(out.completion_ticks[1], late + rt);
    }

    #[test]
    fn overlap_hides_transfers_and_accounts_them() {
        let d = design(vec![2, 2], 4, &[200_000, 200_000]);
        let cfg = SimConfig::default();
        let n = 32;
        let serial = simulate_batch_stream(&d, &cfg, &vec![0; n], 4, false);
        let olap = simulate_batch_stream(&d, &cfg, &vec![0; n], 4, true);
        assert!(olap.makespan_ticks < serial.makespan_ticks);
        assert_eq!(olap.exec_ticks, serial.exec_ticks);
        assert_eq!(olap.transfer_ticks, serial.transfer_ticks);
        assert!(olap.overlapped_ticks > 0);
        assert!(olap.overlapped_ticks <= olap.transfer_ticks);
        let f = olap.overlap_fraction();
        assert!((0.0..=1.0).contains(&f));
        // Transfers are ~2% of the chain: nearly all of them hide.
        assert!(f > 0.5, "overlap fraction {f}");
    }

    #[test]
    fn sparse_arrivals_drain_outputs_without_waiting_for_the_next_request() {
        // Regression: the double-buffered scheduler must not hold a
        // finished round's output drain hostage to the *next* round's
        // input load — with an empty queue the DMA drains immediately,
        // so request 0's completion never depends on request 1's
        // arrival.
        let d = design(vec![2, 2], 4, &[200_000, 200_000]);
        let cfg = SimConfig::default();
        let rt = program_round(&d, &cfg).total();
        let late = 50 * rt;
        let olap = simulate_batch_stream(&d, &cfg, &[0, late], 4, true);
        let serial = simulate_batch_stream(&d, &cfg, &[0, late], 4, false);
        assert!(
            olap.completion_ticks[0] < late,
            "request 0 completed at {} — only after request 1 arrived at {late}",
            olap.completion_ticks[0]
        );
        // An isolated round gains nothing from double buffering: its
        // latency equals the serial round.
        assert_eq!(olap.completion_ticks[0], serial.completion_ticks[0]);
        assert_eq!(olap.completion_ticks[1], serial.completion_ticks[1]);
    }

    #[test]
    fn overlap_degrades_without_spare_plm_sets() {
        let d = design(vec![4], 4, &[200_000]);
        let cfg = SimConfig::default();
        let a = simulate_batch_stream(&d, &cfg, &[0; 8], 4, true);
        let b = simulate_batch_stream(&d, &cfg, &[0; 8], 4, false);
        assert_eq!(a, b);
    }

    #[test]
    fn capacity_clamps_to_plm_sets() {
        let d = design(vec![2], 4, &[200_000]);
        let cfg = SimConfig::default();
        let a = simulate_batch_stream(&d, &cfg, &[0; 8], 64, false);
        let b = simulate_batch_stream(&d, &cfg, &[0; 8], 4, false);
        assert_eq!(a, b);
    }

    #[test]
    fn armed_plan_bypasses_fast_forward_and_fires_mid_backlog() {
        // A closed backlog normally collapses via the closed-tick
        // fast-forward; a fault in the middle of that backlog must still
        // fire, so an armed plan walks every round.
        let d = design(vec![2], 4, &[200_000]);
        let cfg = SimConfig::default();
        let n = 16;
        let clean = simulate_batch_stream(&d, &cfg, &vec![0; n], 4, false);
        assert!(clean.fast_forwarded_rounds > 0, "backlog must fast-forward");
        // Find a seed whose first fault lands mid-backlog (not round 1).
        let plan = (0..1000)
            .map(|seed| FaultPlan::transient(seed, 0.3))
            .find(|p| !p.round_fails(1) && (2..=4).any(|r| p.round_fails(r)))
            .expect("no seed fired mid-backlog");
        let out = simulate_faulty_stream(
            &d,
            &cfg,
            &vec![0; n],
            4,
            false,
            &plan,
            &RecoverySpec::default(),
        );
        assert_eq!(out.fast_forwarded_rounds, 0, "armed plan fast-forwarded");
        assert!(out.transient_faults > 0, "mid-backlog fault never fired");
        assert!(out.rounds() > 4, "failed rounds must be re-dispatched");
        assert!(out.attempts.iter().any(|&a| a > 1));
        assert!(out.statuses.iter().all(|&s| s == StreamStatus::Completed));
        assert!(out.makespan_ticks > clean.makespan_ticks);
    }

    #[test]
    fn deadline_only_fault_loop_matches_clean_ticks() {
        // A huge deadline arms the fault-aware loop without any faults:
        // its schedule must be tick-identical to the clean scheduler
        // (the fast-forward counter is the one allowed difference).
        let d = design(vec![2, 2], 4, &[200_000, 200_000]);
        let cfg = SimConfig::default();
        let rt = program_round(&d, &cfg).total();
        let rec = RecoverySpec {
            deadline_ticks: Some(u64::MAX),
            ..RecoverySpec::default()
        };
        let cases: Vec<Vec<Time>> = vec![
            vec![0; 16],
            vec![0, 0, rt / 2, rt, 3 * rt, 3 * rt, 50 * rt, 50 * rt + 1],
        ];
        for arrivals in &cases {
            for overlap in [false, true] {
                for capacity in [1, 3, 4] {
                    let clean = simulate_batch_stream(&d, &cfg, arrivals, capacity, overlap);
                    let f = simulate_faulty_stream(
                        &d,
                        &cfg,
                        arrivals,
                        capacity,
                        overlap,
                        &FaultPlan::none(),
                        &rec,
                    );
                    assert_eq!(f.admitted_ticks, clean.admitted_ticks);
                    assert_eq!(f.completion_ticks, clean.completion_ticks);
                    assert_eq!(f.round_fills, clean.round_fills);
                    assert_eq!(f.exec_ticks, clean.exec_ticks);
                    assert_eq!(f.transfer_ticks, clean.transfer_ticks);
                    assert_eq!(f.overlapped_ticks, clean.overlapped_ticks);
                    assert_eq!(f.makespan_ticks, clean.makespan_ticks);
                    assert!(f.statuses.iter().all(|&s| s == StreamStatus::Completed));
                }
            }
        }
    }

    #[test]
    fn retries_are_capped_and_fail_structured() {
        // Every attempt corrupts: each request burns 1 + max_retries
        // attempts and fails.
        let d = design(vec![2], 4, &[200_000]);
        let cfg = SimConfig::default();
        let plan = FaultPlan {
            corrupt_rate: 1.0,
            ..FaultPlan::transient(5, 0.0)
        };
        let rec = RecoverySpec {
            max_retries: 2,
            ..RecoverySpec::default()
        };
        for overlap in [false, true] {
            let out = simulate_faulty_stream(&d, &cfg, &[0; 8], 4, overlap, &plan, &rec);
            assert!(out.statuses.iter().all(|&s| s == StreamStatus::Failed));
            assert!(out.attempts.iter().all(|&a| a == 3), "{:?}", out.attempts);
            assert_eq!(out.corrupt_payloads, 24);
        }
    }

    #[test]
    fn backoff_delays_retries_in_tick_space() {
        let d = design(vec![2], 4, &[200_000]);
        let cfg = SimConfig::default();
        let plan = FaultPlan::transient(1, 1.0);
        let slow = RecoverySpec {
            max_retries: 2,
            backoff_ticks: 1_000_000,
            backoff_cap_ticks: 0,
            deadline_ticks: None,
        };
        let fast = RecoverySpec {
            max_retries: 2,
            ..RecoverySpec::default()
        };
        let a = simulate_faulty_stream(&d, &cfg, &[0; 4], 4, false, &plan, &slow);
        let b = simulate_faulty_stream(&d, &cfg, &[0; 4], 4, false, &plan, &fast);
        assert!(a.makespan_ticks >= b.makespan_ticks + 3_000_000 - 1);
    }

    #[test]
    fn deadlines_shed_requests_that_cannot_finish() {
        let d = design(vec![2], 4, &[200_000]);
        let cfg = SimConfig::default();
        let rt = program_round(&d, &cfg).total();
        // Capacity 1: request k starts at k*rt, so with a deadline of
        // 2.5 rounds only the first few can make it.
        let rec = RecoverySpec {
            deadline_ticks: Some(rt * 5 / 2),
            ..RecoverySpec::default()
        };
        let out = simulate_faulty_stream(&d, &cfg, &[0; 8], 1, false, &FaultPlan::none(), &rec);
        let done = out
            .statuses
            .iter()
            .filter(|&&s| s == StreamStatus::Completed)
            .count();
        let timed = out
            .statuses
            .iter()
            .filter(|&&s| s == StreamStatus::TimedOut)
            .count();
        assert_eq!(done, 2, "{:?}", out.statuses);
        assert_eq!(timed, 6);
        // Completed requests all made their deadline.
        for (i, &s) in out.statuses.iter().enumerate() {
            if s == StreamStatus::Completed {
                assert!(out.completion_ticks[i] <= rec.deadline_ticks.unwrap());
            }
        }
    }

    #[test]
    fn outage_without_recovery_sheds_the_queue() {
        let d = design(vec![2], 4, &[200_000]);
        let cfg = SimConfig::default();
        let rt = program_round(&d, &cfg).total();
        let plan = FaultPlan {
            outage: Some(crate::fault::Outage {
                fail_at: rt + rt / 2,
                recover_at: None,
            }),
            ..FaultPlan::none()
        };
        let out = simulate_faulty_stream(
            &d,
            &cfg,
            &[0; 8],
            4,
            true, // degrades to serial under an armed outage
            &plan,
            &RecoverySpec::default(),
        );
        assert!(!out.double_buffered);
        // Round 1 (requests 0-3) completed before the failure; round 2
        // was in flight and is lost, then shed.
        let done = out
            .statuses
            .iter()
            .filter(|&&s| s == StreamStatus::Completed)
            .count();
        let shed = out
            .statuses
            .iter()
            .filter(|&&s| s == StreamStatus::Shed)
            .count();
        assert_eq!(done, 4, "{:?}", out.statuses);
        assert_eq!(shed, 4);
        assert!(
            out.outage_requeues > 0,
            "in-flight round must requeue first"
        );
    }

    #[test]
    fn outage_with_recovery_drains_pauses_and_resumes() {
        let d = design(vec![2], 4, &[200_000]);
        let cfg = SimConfig::default();
        let rt = program_round(&d, &cfg).total();
        let fail_at = rt + rt / 2;
        let recover_at = 10 * rt;
        let plan = FaultPlan {
            outage: Some(crate::fault::Outage {
                fail_at,
                recover_at: Some(recover_at),
            }),
            ..FaultPlan::none()
        };
        let out =
            simulate_faulty_stream(&d, &cfg, &[0; 8], 4, false, &plan, &RecoverySpec::default());
        assert!(out.statuses.iter().all(|&s| s == StreamStatus::Completed));
        // The interrupted round re-runs after recovery.
        assert!(out.makespan_ticks >= recover_at + rt);
        for (i, &c) in out.completion_ticks.iter().enumerate() {
            if i < 4 {
                assert!(c < fail_at, "round 1 completed before the outage");
            } else {
                assert!(c >= recover_at, "round 2 only after recovery");
            }
        }
    }

    #[test]
    fn dma_stalls_inflate_transfers_only() {
        let d = design(vec![2], 4, &[200_000]);
        let cfg = SimConfig::default();
        let round = program_round(&d, &cfg);
        let plan = FaultPlan {
            stall_rate: 1.0,
            ..FaultPlan::transient(9, 0.0)
        };
        let out =
            simulate_faulty_stream(&d, &cfg, &[0; 8], 4, false, &plan, &RecoverySpec::default());
        assert!(out.statuses.iter().all(|&s| s == StreamStatus::Completed));
        assert_eq!(out.dma_stalls, 2);
        assert_eq!(
            out.transfer_ticks,
            2 * (2 * round.t_in + round.t_out),
            "every input transfer doubled"
        );
        let clean = simulate_batch_stream(&d, &cfg, &[0; 8], 4, false);
        assert_eq!(out.exec_ticks, clean.exec_ticks);
        assert_eq!(out.makespan_ticks, clean.makespan_ticks + 2 * round.t_in);
    }

    #[test]
    fn faulty_stream_replays_identically() {
        let d = design(vec![2, 2], 4, &[100_000, 300_000]);
        let cfg = SimConfig::default();
        let plan = FaultPlan {
            stall_rate: 0.2,
            corrupt_rate: 0.1,
            ..FaultPlan::transient(1234, 0.25)
        };
        let rec = RecoverySpec {
            max_retries: 4,
            backoff_ticks: 50_000,
            backoff_cap_ticks: 400_000,
            deadline_ticks: Some(u64::MAX / 2),
        };
        for overlap in [false, true] {
            let a = simulate_faulty_stream(&d, &cfg, &vec![0; 32], 4, overlap, &plan, &rec);
            let b = simulate_faulty_stream(&d, &cfg, &vec![0; 32], 4, overlap, &plan, &rec);
            assert_eq!(a, b, "same (seed, plan, policy) must replay exactly");
        }
    }
}
