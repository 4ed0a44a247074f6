//! The stream scheduler: one entry point, one resource model, a clean
//! fold for unarmed input and one event core for everything else.
//!
//! [`simulate_online_stream`] prices the design's round and hands it to
//! [`simulate_round_stream`], which validates the arrival list, clamps
//! the capacity and picks the mode: double-buffered when overlap was
//! requested, every stage keeps a spare PLM set and no outage is armed,
//! serial otherwise. It then looks at what is armed. With no fault
//! plan, no deadline (or SLO) and the FIFO policy, no decision depends
//! on anything but the arrival list, and the schedule is the clean fold
//! in [`crate::stream`] — no per-request records, and a closed serial
//! backlog fast-forwards by multiplication
//! ([`crate::summarize_round_stream`] runs the same fold, with the same
//! checks and mode rule, into a two-number summary instead of columns).
//! Anything armed selects the **event core** below, one `Core` value: a
//! deterministic virtual-clock loop in which arrivals enter the wait
//! queue at their arrival tick and batch formation is a decision point
//! that can wait, close early, reorder by priority or refuse admission,
//! and in which every round is walked individually so seeded faults
//! land where the plan puts them. Fold and core place every round on
//! the same resource model (`crate::resources`: the DMA engine and the
//! accelerator chain, with load, execute and drain), so a core run in
//! which nothing fires (say, a deadline too far to matter) reproduces
//! the fold's ticks — the differential suites at the workspace root and
//! `tests/scheduler_golden.rs` hold them together. Both answer in one
//! [`StreamOutcome`]: the fold writes its columns as a round sink, the
//! core as requests resolve.
//!
//! What the core carries:
//!
//! * **Faults and recovery** ([`FaultPlan`], [`RecoverySpec`]) — DMA
//!   stalls, transient round errors, payload corruption, a board
//!   outage; retries with capped backoff and per-request deadlines.
//!   Outage semantics are defined on the serial schedule (a failure
//!   tears down DMA and chain at one tick), so an armed outage runs the
//!   core serially even when overlap was requested. Every terminal
//!   state a request reaches passes through one method,
//!   `Core::resolve`, which writes its status, attempts and
//!   `completion_ticks` entry once.
//! * **SLO-aware adaptive batching** — with `slo_ticks` set, a round
//!   below capacity waits for more arrivals while the oldest queued
//!   request's budget still covers a full fault-free round, and closes
//!   early the moment it no longer does. The SLO also acts as the
//!   per-request latency budget: work that cannot complete inside it
//!   is shed at dispatch or timed out at drain, which is what bounds
//!   the completed-set p99 under overload.
//! * **Priority tiers** — `tiers[pos]` classes requests (0 = highest);
//!   batch formation takes eligible requests in `(tier, arrival)`
//!   order, so a high tier preempts queued low-tier work at every
//!   round boundary. Retries keep their tier. The wait queue stays in
//!   arrival order (requeues go back in at their position), so a round
//!   is formed without a sort: under tiers one pass counts eligible
//!   work per tier to find the cut-off tier and its quota, and one pass
//!   moves every eligible request below the cut-off plus the first
//!   `quota` at it into the round, in arrival order.
//! * **Backpressure shedding** — with `max_queue` set, an arrival that
//!   finds the wait queue at depth `max_queue` is shed at its own
//!   arrival tick instead of joining (retries are already in the
//!   system and bypass the gate).

use crate::des::Time;
use crate::fault::{FaultPlan, Outage, RecoverySpec};
use crate::resources::{Mode, Resources};
use crate::sim::{program_round, ProgramRound, SimConfig};
use crate::stream::{clean_fold, StreamOutcome, StreamStatus};
use sysgen::MultiSystemDesign;

/// Online serving policy for the scheduler.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OnlineSpec {
    /// Per-request latency budget (p99 SLO) in ticks; also arms the
    /// adaptive batcher. `None` = capacity-fill with no budget.
    pub slo_ticks: Option<u64>,
    /// Wait-queue depth beyond which new arrivals are shed. `None` =
    /// unbounded queue.
    pub max_queue: Option<usize>,
    /// Priority tier per arrival-order position (0 = highest). Empty =
    /// one tier (FIFO).
    pub tiers: Vec<u8>,
}

impl OnlineSpec {
    /// The neutral policy: FIFO capacity-fill, no budget, no shedding.
    pub fn fifo() -> OnlineSpec {
        OnlineSpec::default()
    }

    /// Whether any policy deviates from FIFO capacity-fill.
    pub fn armed(&self) -> bool {
        self.slo_ticks.is_some() || self.max_queue.is_some() || self.has_tiers()
    }

    fn has_tiers(&self) -> bool {
        self.tiers.iter().any(|&t| t != 0)
    }

    fn tier_of(&self, pos: usize) -> u8 {
        self.tiers.get(pos).copied().unwrap_or(0)
    }
}

/// Serve `arrivals` (sorted arrival ticks) on `design` under `plan`,
/// `rec` and the online policy `spec` — the scheduler every serving
/// path goes through: [`simulate_round_stream`] on the design's
/// [`program_round`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_online_stream(
    design: &MultiSystemDesign,
    cfg: &SimConfig,
    arrivals: &[Time],
    capacity: usize,
    overlap: bool,
    plan: &FaultPlan,
    rec: &RecoverySpec,
    spec: &OnlineSpec,
) -> StreamOutcome {
    let round = program_round(design, cfg);
    let (ks, m) = (&design.config.ks, design.config.m);
    simulate_round_stream(&round, ks, m, arrivals, capacity, overlap, plan, rec, spec)
}

/// The scheduler on an already priced `round` of a system with `ks`
/// accelerators per stage and `m` PLM sets — all it ever reads of a
/// design, so a design-space sweep can ask it about a system it never
/// built.
///
/// `capacity` is clamped to `[1, m]`; `overlap` degrades to the serial
/// schedule unless every stage keeps a spare PLM set (`m >= 2·k_i`).
/// The effective per-request deadline is the tighter of `rec`'s
/// deadline and the SLO budget. With nothing armed the outcome is the
/// clean fold's, every request completed on its first attempt;
/// otherwise the event core runs, serially under an armed outage.
#[allow(clippy::too_many_arguments)]
pub fn simulate_round_stream(
    round: &ProgramRound,
    ks: &[usize],
    m: usize,
    arrivals: &[Time],
    capacity: usize,
    overlap: bool,
    plan: &FaultPlan,
    rec: &RecoverySpec,
    spec: &OnlineSpec,
) -> StreamOutcome {
    assert!(
        arrivals.windows(2).all(|w| w[0] <= w[1]),
        "arrivals must be sorted"
    );
    assert!(
        spec.tiers.is_empty() || spec.tiers.len() == arrivals.len(),
        "tiers must be empty or one per request"
    );
    let capacity = capacity.clamp(1, m);
    let mode = Mode::pick(overlap && plan.outage.is_none(), ks, m);
    let rec = RecoverySpec {
        deadline_ticks: spec.slo_ticks.into_iter().chain(rec.deadline_ticks).min(),
        ..*rec
    };
    if !plan.armed() && rec.deadline_ticks.is_none() && !spec.armed() {
        return clean_fold(arrivals, capacity, round, mode);
    }
    Core::new(arrivals, capacity, round, plan, rec, spec, mode).run()
}

/// A request in the wait queue or in flight.
#[derive(Debug, Clone, Copy)]
struct Pend {
    /// Arrival-order position (the request's identity in fault draws).
    pos: usize,
    arrival: Time,
    /// Earliest tick the request may join a round (arrival, then
    /// retry-backoff or outage-recovery times).
    eligible: Time,
    attempts: u32,
    failures: u32,
}

/// The event core: every armed configuration runs this one value. Each
/// pass of [`Core::run`] is a decision point at which the core drains a
/// finished round, idles, or forms and dispatches the next one.
struct Core<'a> {
    arrivals: &'a [Time],
    capacity: usize,
    plan: &'a FaultPlan,
    /// Carries the effective deadline.
    rec: RecoverySpec,
    spec: &'a OnlineSpec,
    /// Whether any tier is non-zero, decided once per run.
    tiered: bool,
    res: Resources,
    /// Position of the first arrival not yet admitted. Arrivals are
    /// events: a request joins the wait queue when a decision point
    /// reaches its arrival tick.
    next: usize,
    /// Arrived-but-unserved work and requeued retries, position order.
    pending: Vec<Pend>,
    /// The round whose outputs still wait to drain: (outputs ready, its
    /// requests).
    pending_out: Option<(Time, Vec<Pend>)>,
    /// A drained round's buffer, reused by the next round.
    spare: Vec<Pend>,
    /// No decision is taken before this tick: set while the batcher or
    /// an all-ineligible queue idles, overtaken by the next dispatch.
    floor: Time,
    round_idx: u64,
    /// The outcome's per-request columns, fills and counters.
    out: StreamOutcome,
}

/// Batch-formation verdict at one decision point.
enum Gate {
    /// Form the round now; `early` marks an SLO-forced below-capacity
    /// close with more work still on the way.
    Dispatch { early: bool },
    /// Idle until `t` (a future arrival/eligibility or the close
    /// budget, whichever is nearer) and re-evaluate.
    Wait(Time),
}

impl<'a> Core<'a> {
    fn new(
        arrivals: &'a [Time],
        capacity: usize,
        round: &ProgramRound,
        plan: &'a FaultPlan,
        rec: RecoverySpec,
        spec: &'a OnlineSpec,
        mode: Mode,
    ) -> Core<'a> {
        Core {
            arrivals,
            capacity,
            plan,
            rec,
            spec,
            tiered: spec.has_tiers(),
            res: Resources::new(mode, round),
            next: 0,
            pending: Vec::new(),
            pending_out: None,
            spare: Vec::new(),
            floor: 0,
            round_idx: 0,
            out: StreamOutcome::new(arrivals.len()),
        }
    }

    fn run(mut self) -> StreamOutcome {
        let serial = self.res.mode == Mode::Serial;
        loop {
            let t_min = self.next_event().map(|t| t.max(self.floor));
            // Drain the finished round first when the schedule is serial,
            // when nothing is left to load, or (sparse queue) when the
            // drain fits before the next load could even start. It may
            // requeue corrupted requests, so re-derive afterwards.
            let res = &self.res;
            if let Some((ready, ents)) = self
                .pending_out
                .take_if(|(ready, _)| serial || t_min.is_none_or(|t| res.drain_done(*ready) <= t))
            {
                self.drain(ready, ents);
                continue;
            }
            let Some(t_min) = t_min else { break };
            let mut start = self.res.dma_free().max(t_min);
            // Admission pauses while the board is down; without recovery
            // the rest of the queue (admitted or not) sheds at the
            // failure tick.
            if let Some(o) = self.plan.outage.filter(|o| start >= o.fail_at) {
                match o.recover_at {
                    Some(r) if start < r => start = r,
                    Some(_) => {}
                    None => {
                        self.shed_outage(self.res.dma_free().max(self.floor).max(o.fail_at));
                        break;
                    }
                }
            }
            self.admit(start);
            // Everything arrived so far may have been shed at admission
            // (the next pass jumps to the next arrival), or just expired.
            if self.pending.is_empty() || self.shed_expired(start) {
                continue;
            }
            // Backpressure can shed the very arrival that set `t_min`;
            // idle until the next queue eligibility or arrival.
            if self.pending.iter().all(|p| p.eligible > start) {
                self.floor = self.next_event().expect("pending is not empty");
                continue;
            }
            match self.gate(start) {
                Gate::Wait(t) => self.floor = t,
                Gate::Dispatch { early } => self.dispatch(start, early),
            }
        }
        self.res.close(&mut self.out);
        self.out
    }

    /// Form a round from the queue's eligible work at `start` and place
    /// it: load, execute, and drain the previous round meanwhile.
    fn dispatch(&mut self, start: Time, early: bool) {
        let mut take = self.fill_filter(start);
        self.round_idx += 1;
        let t_in = if self.plan.dma_stalls(self.round_idx) {
            self.out.dma_stalls += 1;
            2 * self.res.t_in
        } else {
            self.res.t_in
        };
        // Hard failure mid-round (serial: the round would have drained
        // at `exec_done + t_out`): in-flight work is lost at the failure
        // tick. The aborted round bills nothing (its timers died with
        // the board) and does not consume an attempt — the requeue waits
        // for recovery.
        let res = &self.res;
        let lost = |o: &Outage| {
            o.fail_at > start && o.fail_at <= res.drain_done(res.exec_done(start + t_in))
        };
        if let Some(o) = self.plan.outage.filter(lost) {
            for p in self.pending.iter_mut().filter(|p| take(p)) {
                p.eligible = o.recover_at.unwrap_or(Time::MAX);
                self.out.outage_requeues += 1;
            }
            self.res.abort_at(o.fail_at);
            return;
        }
        // Move the round's requests out of the queue, in position order.
        let mut ents = std::mem::take(&mut self.spare);
        ents.reserve(self.capacity);
        self.pending.retain(|p| {
            let taken = take(p);
            if taken {
                ents.push(*p);
            }
            !taken
        });
        for p in &mut ents {
            p.attempts += 1;
            self.out.admitted_ticks[p.pos] = start;
        }
        self.out.round_fills.push(ents.len());
        self.out.early_closed_rounds += early as usize;
        let in_done = self.res.transfer(start, t_in);
        let ready = self.res.execute(in_done);
        // Drain the previous round's outputs while this one executes.
        if let Some((prev, prev_ents)) = self.pending_out.take() {
            self.drain(prev, prev_ents);
        }
        if self.plan.round_fails(self.round_idx) {
            // Transient error: the round aborts at the error interrupt
            // (end of execution); outputs never drain, payloads lost.
            self.out.transient_faults += 1;
            for p in ents.drain(..) {
                self.retry(p, ready);
            }
            self.spare = ents;
        } else {
            self.pending_out = Some((ready, ents));
        }
    }

    fn next_arrival(&self) -> Option<Time> {
        self.arrivals.get(self.next).copied()
    }

    /// The next tick at which the wait queue can change by itself: a
    /// queued request turning eligible or a new arrival.
    fn next_event(&self) -> Option<Time> {
        let eligible = self.pending.iter().map(|p| p.eligible);
        eligible.chain(self.next_arrival()).min()
    }

    fn take_arrival(&mut self, arrival: Time) -> Pend {
        self.next += 1;
        Pend {
            pos: self.next - 1,
            arrival,
            eligible: arrival,
            attempts: 0,
            failures: 0,
        }
    }

    /// Admit every arrival up to `t` into the wait queue, shedding the
    /// ones that find a bounded queue full (at their own arrival tick).
    /// `pending` stays in position order: whatever it holds arrived
    /// before anything still to come.
    fn admit(&mut self, t: Time) {
        while let Some(a) = self.next_arrival().filter(|&a| a <= t) {
            let p = self.take_arrival(a);
            if self.spec.max_queue.is_some_and(|q| self.pending.len() >= q) {
                self.resolve(&p, StreamStatus::Shed, a);
                self.out.backpressure_shed += 1;
            } else {
                self.pending.push(p);
            }
        }
    }

    /// The board died at `at` and never recovers: the wait queue sheds
    /// there, and so does every unadmitted arrival. Under a queue bound
    /// those count as refused at the gate, each at its own arrival tick
    /// if that is later; an unbounded queue had already accepted them.
    fn shed_outage(&mut self, at: Time) {
        for p in std::mem::take(&mut self.pending) {
            self.resolve(&p, StreamStatus::Shed, at);
        }
        let bounded = self.spec.max_queue.is_some();
        while let Some(a) = self.next_arrival() {
            let p = self.take_arrival(a);
            self.resolve(&p, StreamStatus::Shed, if bounded { at.max(a) } else { at });
            self.out.backpressure_shed += bounded as usize;
        }
    }

    /// Time out every eligible request whose latency budget cannot cover
    /// even a fault-free round starting at `start`. Returns true if any
    /// request was shed (the caller re-derives its round start).
    fn shed_expired(&mut self, start: Time) -> bool {
        let Some(d) = self.rec.deadline_ticks else {
            return false;
        };
        let rt = self.res.round_ticks;
        let mut pending = std::mem::take(&mut self.pending);
        let before = pending.len();
        pending.retain(|p| {
            let expired = p.eligible <= start && p.arrival.saturating_add(d) < start + rt;
            if expired {
                self.resolve(p, StreamStatus::TimedOut, start);
            }
            !expired
        });
        let shed = pending.len() < before;
        self.pending = pending;
        shed
    }

    /// The SLO batcher: a round below capacity waits while the oldest
    /// eligible request's budget still covers a full fault-free round
    /// starting later, and closes early once it no longer does.
    fn gate(&self, start: Time) -> Gate {
        let Some(slo) = self.spec.slo_ticks else {
            return Gate::Dispatch { early: false };
        };
        let pending = &self.pending;
        let eligible = pending.iter().filter(|p| p.eligible <= start).count();
        if eligible >= self.capacity {
            return Gate::Dispatch { early: false };
        }
        // The next event that could grow the batch.
        let next_t = pending
            .iter()
            .filter(|p| p.eligible > start)
            .map(|p| p.eligible)
            .chain(self.next_arrival())
            .min();
        let Some(next_t) = next_t else {
            // Tail of the stream: nothing else is coming, dispatch.
            return Gate::Dispatch { early: false };
        };
        let oldest = pending
            .iter()
            .filter(|p| p.eligible <= start)
            .map(|p| p.arrival)
            .min()
            .expect("gate runs only with at least one eligible request");
        let rt = self.res.round_ticks;
        let latest_safe = oldest.saturating_add(slo).saturating_sub(rt);
        if start >= latest_safe {
            return Gate::Dispatch { early: true };
        }
        Gate::Wait(next_t.min(latest_safe))
    }

    /// Which requests form the round at `start`: the first `capacity`
    /// eligible ones in `(tier, arrival)` order. Applied in one pass over
    /// the position-ordered queue, they are every eligible request below
    /// the cut-off tier plus the first `quota` eligible ones at it.
    fn fill_filter(&self, start: Time) -> impl FnMut(&Pend) -> bool + 'a {
        let (spec, capacity) = (self.spec, self.capacity);
        let (cut, mut quota) = if self.tiered {
            let mut count = [0usize; 256];
            for p in self.pending.iter().filter(|p| p.eligible <= start) {
                count[spec.tier_of(p.pos) as usize] += 1;
            }
            // Fewer than `capacity` eligible: the round takes them all.
            let (mut cut, mut below) = ((u8::MAX, usize::MAX), 0);
            for (tier, &n) in count.iter().enumerate() {
                if below + n >= capacity {
                    cut = (tier as u8, capacity - below);
                    break;
                }
                below += n;
            }
            cut
        } else {
            (0, capacity)
        };
        move |p| {
            let tier = spec.tier_of(p.pos);
            let take = p.eligible <= start && (tier < cut || tier == cut && quota > 0);
            quota -= (take && tier == cut) as usize;
            take
        }
    }

    /// Drain one finished round's outputs: checksum each payload, resolve
    /// the clean ones, requeue (or fail) the corrupted ones.
    fn drain(&mut self, ready: Time, mut ents: Vec<Pend>) {
        let out_done = self.res.drain(ready);
        for p in ents.drain(..) {
            if self.plan.corrupts(p.pos as u64, p.attempts) {
                self.out.corrupt_payloads += 1;
                self.retry(p, out_done);
            } else {
                let status = match self.rec.deadline_ticks {
                    Some(d) if out_done > p.arrival.saturating_add(d) => StreamStatus::TimedOut,
                    _ => StreamStatus::Completed,
                };
                self.resolve(&p, status, out_done);
            }
        }
        self.spare = ents;
    }

    /// A failed attempt (lost round or corrupted payload) noticed at
    /// `at`: back into the wait queue after its backoff, or `Failed`
    /// once the retry allowance is spent. Requeued work goes back in at
    /// its position, so it keeps its original admission priority.
    fn retry(&mut self, mut p: Pend, at: Time) {
        p.failures += 1;
        if p.failures > self.rec.max_retries {
            self.resolve(&p, StreamStatus::Failed, at);
            return;
        }
        p.eligible = at + self.rec.backoff_after(p.failures);
        let j = self.pending.partition_point(|q| q.pos < p.pos);
        self.pending.insert(j, p);
    }

    /// Record a request's terminal state: the one place the core reports
    /// a resolution.
    fn resolve(&mut self, p: &Pend, status: StreamStatus, at: Time) {
        self.out.statuses[p.pos] = status;
        self.out.attempts[p.pos] = p.attempts;
        self.out.completion_ticks[p.pos] = at;
        self.res.settle(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::secs;
    use sysgen::Platform;

    fn design() -> MultiSystemDesign {
        let platform = Platform::zcu106();
        let stages: Vec<(String, hls::HlsReport)> = [200_000u64, 300_000]
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
        let cfg = sysgen::ProgramSystemConfig {
            ks: vec![2, 2],
            m: 8,
        };
        let host = sysgen::ProgramHostProgram {
            config: cfg.clone(),
            stage_names: stages.iter().map(|(n, _)| n.clone()).collect(),
            bytes_in_per_element: (121 + 2 * 1331) * 8,
            bytes_out_per_element: 1331 * 8,
            handoff_bytes_per_element: 0,
        };
        MultiSystemDesign::build(&platform, &stages, &memory, cfg, host).unwrap()
    }

    fn poisson_like(n: usize, gap: Time) -> Vec<Time> {
        // Deterministic "bursty" arrivals: pairs arrive together, pairs
        // separated by `gap`.
        (0..n).map(|i| (i as Time / 2) * gap).collect()
    }

    /// The sort-based round selection the core used before it formed
    /// rounds in one pass: eligible work sorted by `(tier, arrival)`,
    /// cut at `capacity`. Returns ascending indices into `pending`.
    fn select_fill_by_sort(core: &Core, start: Time) -> Vec<usize> {
        let (pending, spec) = (&core.pending, core.spec);
        let mut fill: Vec<usize> = pending
            .iter()
            .enumerate()
            .filter(|(_, p)| p.eligible <= start)
            .map(|(j, _)| j)
            .collect();
        if spec.has_tiers() {
            fill.sort_by_key(|&j| (spec.tier_of(pending[j].pos), pending[j].pos));
        }
        fill.truncate(core.capacity);
        fill.sort_unstable();
        fill
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn one_pass_selection_takes_what_the_sort_took() {
        const START: Time = 1_000;
        let round = ProgramRound {
            t_in: 30,
            stage_exec: vec![1_000],
            t_out: 30,
        };
        let (plan, arrivals) = (FaultPlan::none(), vec![0; 400]);
        let mut seed = 0x5E1E_C7ED;
        let mut deep = 0;
        for case in 0..3_000 {
            let mut r = |n: u64| splitmix(&mut seed) % n;
            // 1..=5 tiers drawn per request, a single non-zero tier on
            // the last position, or no tier column at all.
            let levels = 1 + r(5) as u8;
            let tiers: Vec<u8> = match case % 3 {
                0 => (0..400).map(|_| r(levels as u64) as u8).collect(),
                1 => (0..400).map(|i| (i == 399) as u8 * levels).collect(),
                _ => Vec::new(),
            };
            let spec = OnlineSpec {
                tiers,
                ..OnlineSpec::fifo()
            };
            let capacity = 1 + r(16) as usize;
            let mut core = Core::new(
                &arrivals,
                capacity,
                &round,
                &plan,
                RecoverySpec::default(),
                &spec,
                Mode::Serial,
            );
            // 0..=200 queued positions in arrival order (the last one
            // included now and then), each eligible, backing off or
            // parked by an outage.
            let len = r(201) as usize;
            let mut positions: Vec<usize> = (0..400).collect();
            for i in 0..len {
                positions.swap(i, i + r(400 - i as u64) as usize);
            }
            positions.truncate(len);
            positions.sort_unstable();
            core.pending = positions
                .into_iter()
                .map(|pos| Pend {
                    pos,
                    arrival: 0,
                    eligible: match r(4) {
                        0 => START + 1 + r(500),
                        1 => Time::MAX,
                        _ => r(START + 1),
                    },
                    attempts: 0,
                    failures: 0,
                })
                .collect();
            let want: Vec<usize> = select_fill_by_sort(&core, START)
                .into_iter()
                .map(|j| core.pending[j].pos)
                .collect();
            deep += (want.len() == capacity) as usize;
            let mut take = core.fill_filter(START);
            let got: Vec<usize> = core
                .pending
                .iter()
                .filter(|p| take(p))
                .map(|p| p.pos)
                .collect();
            assert_eq!(got, want, "case {case}, capacity {capacity}");
        }
        assert!(deep > 1_000, "most queues hold a full round: {deep}");
    }

    #[test]
    fn slo_budget_bounds_completed_latency_under_overload() {
        let d = design();
        let cfg = SimConfig::default();
        // Everyone arrives at once: far more work than one round's SLO
        // can cover.
        let arrivals = vec![0; 48];
        let rt = program_round(&d, &cfg).total();
        let slo = 3 * rt;
        let spec = OnlineSpec {
            slo_ticks: Some(slo),
            ..OnlineSpec::fifo()
        };
        let out = simulate_online_stream(
            &d,
            &cfg,
            &arrivals,
            4,
            false,
            &FaultPlan::none(),
            &RecoverySpec::default(),
            &spec,
        );
        let mut completed = 0;
        let mut timed_out = 0;
        for (pos, s) in out.statuses.iter().enumerate() {
            match s {
                StreamStatus::Completed => {
                    completed += 1;
                    assert!(out.completion_ticks[pos] <= slo);
                }
                StreamStatus::TimedOut => timed_out += 1,
                other => panic!("unexpected status {other:?}"),
            }
        }
        assert!(completed > 0, "some requests beat the budget");
        assert!(timed_out > 0, "overload must time the tail out");
    }

    #[test]
    fn slo_batcher_waits_to_fill_and_closes_early() {
        let d = design();
        let cfg = SimConfig::default();
        let rt = program_round(&d, &cfg).total();
        // Second request lands well inside the first one's budget: the
        // batcher waits, coalesces both into one round, and still makes
        // the deadline. Capacity-fill would burn two rounds.
        let arrivals = vec![0, rt / 2];
        let spec = OnlineSpec {
            slo_ticks: Some(4 * rt),
            ..OnlineSpec::fifo()
        };
        let out = simulate_online_stream(
            &d,
            &cfg,
            &arrivals,
            4,
            false,
            &FaultPlan::none(),
            &RecoverySpec::default(),
            &spec,
        );
        assert_eq!(out.round_fills, vec![2]);
        let fifo = simulate_online_stream(
            &d,
            &cfg,
            &arrivals,
            4,
            false,
            &FaultPlan::none(),
            &RecoverySpec::default(),
            &OnlineSpec::fifo(),
        );
        assert_eq!(fifo.round_fills, vec![1, 1]);
        // A second arrival past the close budget forces an early,
        // below-capacity round; both requests still make their budgets.
        let tight = OnlineSpec {
            slo_ticks: Some(2 * rt),
            ..OnlineSpec::fifo()
        };
        let out = simulate_online_stream(
            &d,
            &cfg,
            &[0, 3 * rt / 2],
            4,
            false,
            &FaultPlan::none(),
            &RecoverySpec::default(),
            &tight,
        );
        assert_eq!(out.round_fills, vec![1, 1]);
        assert!(out.early_closed_rounds >= 1);
        assert!(out.statuses.iter().all(|s| *s == StreamStatus::Completed));
    }

    #[test]
    fn priority_tiers_preempt_at_round_boundaries() {
        let d = design();
        let cfg = SimConfig::default();
        let arrivals = vec![0; 6];
        let spec = OnlineSpec {
            tiers: vec![1, 1, 1, 0, 0, 0],
            ..OnlineSpec::fifo()
        };
        let out = simulate_online_stream(
            &d,
            &cfg,
            &arrivals,
            3,
            false,
            &FaultPlan::none(),
            &RecoverySpec::default(),
            &spec,
        );
        let adm = &out.admitted_ticks;
        // Tier 0 (positions 3..6) rides the first round.
        assert!(adm[3] < adm[0] && adm[4] < adm[1] && adm[5] < adm[2]);
        assert!(out.statuses.iter().all(|s| *s == StreamStatus::Completed));
    }

    #[test]
    fn backpressure_sheds_arrivals_beyond_the_queue_bound() {
        let d = design();
        let cfg = SimConfig::default();
        let arrivals = vec![0; 10];
        let spec = OnlineSpec {
            max_queue: Some(2),
            ..OnlineSpec::fifo()
        };
        let out = simulate_online_stream(
            &d,
            &cfg,
            &arrivals,
            1,
            false,
            &FaultPlan::none(),
            &RecoverySpec::default(),
            &spec,
        );
        assert_eq!(out.backpressure_shed, 8);
        let shed = out
            .statuses
            .iter()
            .filter(|s| **s == StreamStatus::Shed)
            .count();
        assert_eq!(shed, 8);
        let completed = out
            .statuses
            .iter()
            .filter(|s| **s == StreamStatus::Completed)
            .count();
        assert_eq!(completed, 2);
    }

    #[test]
    fn arrivals_refused_by_a_full_queue_shed_at_their_own_tick_before_a_fatal_outage() {
        // Round 1 always fails and its two requests sit out a long
        // backoff, filling the bounded queue. The arrivals that follow
        // are refused while nothing is eligible, and the board dies
        // before the first retry: the refusals keep their own arrival
        // ticks, whichever mode the outage leaves the core in.
        let d = design();
        let cfg = SimConfig::default();
        let rt = program_round(&d, &cfg).total();
        let arrivals = vec![0, 0, rt + rt / 4, rt + rt / 2, 2 * rt, 3 * rt];
        let fail_at = 5 * rt / 2;
        let plan = FaultPlan {
            outage: Some(Outage {
                fail_at,
                recover_at: None,
            }),
            ..FaultPlan::transient(1, 1.0)
        };
        let rec = RecoverySpec {
            backoff_ticks: 4 * rt,
            ..RecoverySpec::default()
        };
        let spec = OnlineSpec {
            max_queue: Some(2),
            ..OnlineSpec::fifo()
        };
        for overlap in [false, true] {
            let out = simulate_online_stream(&d, &cfg, &arrivals, 2, overlap, &plan, &rec, &spec);
            assert!(out.statuses.iter().all(|s| *s == StreamStatus::Shed));
            assert_eq!(out.backpressure_shed, 4);
            assert_eq!(out.completion_ticks[2..], arrivals[2..]);
            // The queued retries go when the scheduler next looks: at the
            // first arrival after the failure.
            assert_eq!(out.completion_ticks[..2], [3 * rt, 3 * rt]);
        }
    }

    #[test]
    fn outage_without_recovery_sheds_unadmitted_arrivals_too() {
        let d = design();
        let cfg = SimConfig::default();
        let arrivals: Vec<Time> = (0..8).map(|i| i * secs(0.01)).collect();
        let plan = FaultPlan {
            outage: Some(Outage {
                fail_at: secs(0.015),
                recover_at: None,
            }),
            ..FaultPlan::none()
        };
        let spec = OnlineSpec {
            max_queue: Some(4),
            ..OnlineSpec::fifo()
        };
        let out = simulate_online_stream(
            &d,
            &cfg,
            &arrivals,
            2,
            true,
            &plan,
            &RecoverySpec::default(),
            &spec,
        );
        assert_eq!(out.statuses.len(), 8);
        assert!(out.statuses.contains(&StreamStatus::Shed));
        // Every request resolved one way or another.
        assert!(out
            .statuses
            .iter()
            .all(|s| matches!(s, StreamStatus::Completed | StreamStatus::Shed)));
    }

    #[test]
    fn online_replays_identically() {
        let d = design();
        let cfg = SimConfig::default();
        let arrivals = poisson_like(16, secs(0.0002));
        let spec = OnlineSpec {
            slo_ticks: Some(secs(0.01)),
            max_queue: Some(8),
            tiers: (0..16).map(|i| (i % 2) as u8).collect(),
        };
        let plan = FaultPlan::parse("5:transient=0.1,corrupt=0.1").unwrap();
        let rec = RecoverySpec::default();
        let a = simulate_online_stream(&d, &cfg, &arrivals, 3, true, &plan, &rec, &spec);
        let b = simulate_online_stream(&d, &cfg, &arrivals, 3, true, &plan, &rec, &spec);
        assert_eq!(a, b);
    }

    #[test]
    fn a_load_overlaps_every_chain_interval_still_open() {
        // exec ≫ 2·t_in, double-buffered (k = 1, m = 2). A transiently
        // failed round drains nothing, so the next loads run back to
        // back while the chain still works through earlier rounds. With
        // every round failing, loads 2..40 run inside the execution of
        // rounds 1 and 2 ([30, 1030) and [1030, 2030)), and load 35,
        // [1020, 1050), overlaps both. The expected figures are what the
        // interval-list intersection gave for these schedules.
        let round = ProgramRound {
            t_in: 30,
            stage_exec: vec![1_000],
            t_out: 30,
        };
        let fifo = OnlineSpec::fifo();
        let run = |plan: FaultPlan, max_retries: u32, n: usize| {
            let rec = RecoverySpec {
                max_retries,
                ..RecoverySpec::default()
            };
            let arrivals = vec![0; n];
            simulate_round_stream(&round, &[1], 2, &arrivals, 1, true, &plan, &rec, &fifo)
        };
        let all = run(FaultPlan::transient(0, 1.0), 0, 40);
        assert!(all.double_buffered);
        assert_eq!(all.transient_faults, 40);
        assert_eq!(all.overlapped_ticks, 39 * 30);
        assert_eq!(all.makespan_ticks, 30 + 40 * 1_000);
        // Some rounds fail, and the others drain while later ones run.
        let mixed = run(FaultPlan::transient(1, 0.5), 3, 12);
        assert_eq!(mixed.transient_faults, 9);
        assert_eq!(mixed.overlapped_ticks, 870);
        assert_eq!(mixed.makespan_ticks, 20_060);
    }
}
