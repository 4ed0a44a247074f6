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
//!   round boundary. Retries keep their tier and their position.
//! * **Backpressure shedding** — with `max_queue` set, an arrival that
//!   finds the wait queue at depth `max_queue` is shed at its own
//!   arrival tick instead of joining (retries are already in the
//!   system and bypass the gate).
//!
//! No decision walks the wait queue. It is kept as what a decision point
//! asks of it (`Queue`): the eligible work per tier, each a min-heap on
//! position, and the work not yet eligible (a retry's backoff, an
//! outage's park) in a min-heap on the tick it turns eligible, promoted
//! when a decision point reaches that tick. Positions are arrival order,
//! so a round pops the tiers in turn, the SLO batcher reads each tier's
//! oldest request at its heap's top, and the requests a deadline has
//! passed are a prefix of every tier. A round costs O(fill + tiers + log
//! queue), and a deep closed backlog serves in linear time under every
//! policy.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::des::Time;
use crate::fault::{FaultPlan, Outage, RecoverySpec};
use crate::resources::{Mode, Resources};
use crate::sim::{program_round, SimConfig};
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
    let ticks = program_round(design, cfg).ticks();
    let (ks, m) = (&design.config.ks, design.config.m);
    simulate_round_stream(ticks, ks, m, arrivals, capacity, overlap, plan, rec, spec)
}

/// The scheduler on an already priced round of `(t_in, exec, t_out)`
/// ticks ([`RoundTicks::ticks`](sysgen::RoundTicks::ticks)) of a system
/// with `ks` accelerators per stage and `m` PLM sets — all it ever
/// reads of a design, so a design-space sweep can ask it about a system
/// it never built.
///
/// `capacity` is clamped to `[1, m]`; `overlap` degrades to the serial
/// schedule unless every stage keeps a spare PLM set (`m >= 2·k_i`).
/// The effective per-request deadline is the tighter of `rec`'s
/// deadline and the SLO budget. With nothing armed the outcome is the
/// clean fold's, every request completed on its first attempt;
/// otherwise the event core runs, serially under an armed outage.
#[allow(clippy::too_many_arguments)]
pub fn simulate_round_stream(
    ticks: (Time, Time, Time),
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
    if !plan.armed() && rec.deadline_ticks.is_none() && !spec.armed() {
        return clean_fold(arrivals, capacity, ticks, mode);
    }
    let mut core = Core::new(arrivals, capacity, ticks, plan, *rec, spec, mode);
    core.run();
    core.finish()
}

/// A request in the wait queue or in flight. Ordered by position first,
/// which is arrival order (positions are unique).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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

/// The wait queue — arrived-but-unserved work and requeued retries —
/// kept in the structures a decision point asks about, so no question
/// walks it:
///
/// * `ready` holds the work eligible at the last decision point, one
///   min-heap on position per tier. Positions are arrival order, so a
///   round's `(tier, arrival)` pick pops the tiers in turn, each tier's
///   oldest request is its heap's top, and the requests too old for
///   their deadline are a prefix of every heap.
/// * `waiting` holds the work not yet eligible (backing off after a
///   failure, or parked by an outage until recovery), a min-heap on the
///   tick it turns eligible. Each decision point first promotes what
///   has turned eligible by its tick.
struct Queue<'a> {
    /// Priority tier per position; empty = one tier.
    tiers: &'a [u8],
    ready: Vec<BinaryHeap<Reverse<Pend>>>,
    /// Requests over all of `ready`.
    ready_len: usize,
    waiting: BinaryHeap<Reverse<(Time, Pend)>>,
    /// The last promotion's tick: every ready request was eligible by
    /// then.
    now: Time,
    /// Queue entries touched: pushed, popped, or read.
    #[cfg(test)]
    visits: std::cell::Cell<usize>,
}

impl<'a> Queue<'a> {
    /// An empty queue over `levels` tiers, sized for `bound` ready
    /// requests per tier and `capacity` waiting ones.
    fn new(tiers: &'a [u8], levels: usize, bound: usize, capacity: usize) -> Queue<'a> {
        Queue {
            tiers,
            ready: (0..levels)
                .map(|_| BinaryHeap::with_capacity(bound))
                .collect(),
            ready_len: 0,
            waiting: BinaryHeap::with_capacity(capacity),
            now: 0,
            #[cfg(test)]
            visits: std::cell::Cell::new(0),
        }
    }

    fn len(&self) -> usize {
        self.ready_len + self.waiting.len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count `_n` entries touched.
    #[inline]
    fn visit(&self, _n: usize) {
        #[cfg(test)]
        self.visits.set(self.visits.get() + _n);
    }

    /// Queue a request eligible by the last promotion.
    fn push_ready(&mut self, p: Pend) {
        self.visit(1);
        let tier = self.tiers.get(p.pos).map_or(0, |&t| t as usize);
        self.ready[tier].push(Reverse(p));
        self.ready_len += 1;
    }

    /// Queue a request that turns eligible at `p.eligible`.
    fn park(&mut self, p: Pend) {
        self.visit(1);
        self.waiting.push(Reverse((p.eligible, p)));
    }

    /// Move the waiting work that is eligible by `t` into `ready`.
    fn promote(&mut self, t: Time) {
        debug_assert!(t >= self.now, "decision points move forward");
        loop {
            let Some(top) = self.waiting.peek_mut().filter(|top| top.0 .0 <= t) else {
                break;
            };
            let Reverse((_, p)) = PeekMut::pop(top);
            self.push_ready(p);
        }
        self.now = t;
    }

    /// The tick the earliest waiting request turns eligible.
    fn next_waiting(&self) -> Option<Time> {
        self.waiting.peek().map(|Reverse((eligible, _))| *eligible)
    }

    /// The earliest eligibility tick in the queue. Ready work counts at
    /// the last promotion's tick, or, when `exact`, at its own.
    fn next_eligible(&self, exact: bool) -> Option<Time> {
        let ready = match self.ready_len {
            0 => None,
            _ if exact => {
                self.visit(self.ready_len);
                (self.ready.iter().flatten())
                    .map(|Reverse(p)| p.eligible)
                    .min()
            }
            _ => Some(self.now),
        };
        ready.into_iter().chain(self.next_waiting()).min()
    }

    /// Arrival tick of the oldest ready request.
    fn oldest_ready(&self) -> Option<Time> {
        self.visit(self.ready.len());
        let tops = self.ready.iter().filter_map(|heap| heap.peek());
        tops.map(|Reverse(p)| p.arrival).min()
    }

    /// Take the oldest ready request of the first tier whose oldest
    /// satisfies `expired`.
    fn pop_ready_if(&mut self, expired: impl Fn(&Pend) -> bool) -> Option<Pend> {
        self.visit(self.ready.len());
        let heap =
            (self.ready.iter_mut()).find(|heap| heap.peek().is_some_and(|p| expired(&p.0)))?;
        self.ready_len -= 1;
        heap.pop().map(|Reverse(p)| p)
    }

    /// Move the first `capacity` ready requests in `(tier, arrival)`
    /// order into the empty `round`.
    fn take_round(&mut self, capacity: usize, round: &mut Vec<Pend>) {
        for heap in &mut self.ready {
            let quota = capacity - round.len();
            round.extend(
                std::iter::from_fn(|| heap.pop())
                    .take(quota)
                    .map(|Reverse(p)| p),
            );
        }
        self.ready_len -= round.len();
        self.visit(round.len());
    }

    /// Take any queued request, ready or waiting.
    fn pop_any(&mut self) -> Option<Pend> {
        if let Some(Reverse((_, p))) = self.waiting.pop() {
            return Some(p);
        }
        let Reverse(p) = self.ready.iter_mut().find_map(|heap| heap.pop())?;
        self.ready_len -= 1;
        Some(p)
    }
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
    res: Resources,
    /// Whether a round executes and drains in zero ticks. Only then can
    /// a finished round fall due to drain at the tick of the decision
    /// point that last promoted, and only then does the next event need
    /// the eligibility ticks of the ready work instead of that tick.
    exact_ready: bool,
    /// Position of the first arrival not yet admitted. Arrivals are
    /// events: a request joins the wait queue when a decision point
    /// reaches its arrival tick.
    next: usize,
    queue: Queue<'a>,
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
    /// Passes of [`Core::run`].
    #[cfg(test)]
    decisions: usize,
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
    /// The core over `arrivals`; the effective deadline is the tighter
    /// of `rec`'s and the SLO budget. The queue is sized from the queue
    /// bound and the capacity.
    fn new(
        arrivals: &'a [Time],
        capacity: usize,
        ticks: (Time, Time, Time),
        plan: &'a FaultPlan,
        rec: RecoverySpec,
        spec: &'a OnlineSpec,
        mode: Mode,
    ) -> Core<'a> {
        let levels = spec.tiers.iter().max().map_or(1, |&t| usize::from(t) + 1);
        let bound = spec.max_queue.unwrap_or(0).min(arrivals.len());
        Core {
            arrivals,
            capacity,
            plan,
            rec: RecoverySpec {
                deadline_ticks: spec.slo_ticks.into_iter().chain(rec.deadline_ticks).min(),
                ..rec
            },
            spec,
            res: Resources::new(mode, ticks),
            exact_ready: ticks.1 == 0 && ticks.2 == 0,
            next: 0,
            queue: Queue::new(&spec.tiers, levels, bound, capacity),
            pending_out: None,
            spare: Vec::new(),
            floor: 0,
            round_idx: 0,
            out: StreamOutcome::new(arrivals.len()),
            #[cfg(test)]
            decisions: 0,
        }
    }

    /// Run the stream to its end.
    fn run(&mut self) {
        let serial = self.res.mode == Mode::Serial;
        loop {
            #[cfg(test)]
            {
                self.decisions += 1;
            }
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
            if self.queue.is_empty() || self.shed_expired(start) {
                continue;
            }
            // Backpressure can shed the very arrival that set `t_min`;
            // idle until the next queue eligibility or arrival.
            if self.queue.ready_len == 0 {
                // Invariant: a non-empty queue with nothing ready holds a waiting entry.
                self.floor = self.next_event().expect("the queue is not empty");
                continue;
            }
            match self.gate(start) {
                Gate::Wait(t) => self.floor = t,
                Gate::Dispatch { early } => self.dispatch(start, early),
            }
        }
    }

    /// The outcome, once [`Core::run`] has returned.
    fn finish(mut self) -> StreamOutcome {
        self.res.close(&mut self.out);
        self.out
    }

    /// Form a round from the queue's eligible work at `start` and place
    /// it: load, execute, and drain the previous round meanwhile.
    fn dispatch(&mut self, start: Time, early: bool) {
        let mut ents = std::mem::take(&mut self.spare);
        ents.reserve(self.capacity);
        self.queue.take_round(self.capacity, &mut ents);
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
            for mut p in ents.drain(..) {
                p.eligible = o.recover_at.unwrap_or(Time::MAX);
                self.out.outage_requeues += 1;
                self.queue.park(p);
            }
            self.spare = ents;
            self.res.abort_at(o.fail_at);
            return;
        }
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
    /// queued request turning eligible or a new arrival. Work already
    /// eligible counts at the last decision point's tick: decision
    /// points never move back, so a pass starts there or later either
    /// way (see `exact_ready` for the one exception).
    fn next_event(&self) -> Option<Time> {
        let queued = self.queue.next_eligible(self.exact_ready);
        queued.into_iter().chain(self.next_arrival()).min()
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

    /// Promote the queued work eligible by `t`, then admit every arrival
    /// up to `t`, shedding the ones that find a bounded queue full (at
    /// their own arrival tick).
    fn admit(&mut self, t: Time) {
        self.queue.promote(t);
        while let Some(a) = self.next_arrival().filter(|&a| a <= t) {
            let p = self.take_arrival(a);
            if self.spec.max_queue.is_some_and(|q| self.queue.len() >= q) {
                self.resolve(&p, StreamStatus::Shed, a);
                self.out.backpressure_shed += 1;
            } else {
                self.queue.push_ready(p);
            }
        }
    }

    /// The board died at `at` and never recovers: the wait queue sheds
    /// there, and so does every unadmitted arrival. Under a queue bound
    /// those count as refused at the gate, each at its own arrival tick
    /// if that is later; an unbounded queue had already accepted them.
    fn shed_outage(&mut self, at: Time) {
        while let Some(p) = self.queue.pop_any() {
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
        let late = start + self.res.round_ticks;
        let mut shed = false;
        while let Some(p) = self
            .queue
            .pop_ready_if(|p| p.arrival.saturating_add(d) < late)
        {
            self.resolve(&p, StreamStatus::TimedOut, start);
            shed = true;
        }
        shed
    }

    /// The SLO batcher: a round below capacity waits while the oldest
    /// eligible request's budget still covers a full fault-free round
    /// starting later, and closes early once it no longer does.
    fn gate(&self, start: Time) -> Gate {
        let Some(slo) = self.spec.slo_ticks else {
            return Gate::Dispatch { early: false };
        };
        if self.queue.ready_len >= self.capacity {
            return Gate::Dispatch { early: false };
        }
        // The next event that could grow the batch.
        let next_t = self
            .queue
            .next_waiting()
            .into_iter()
            .chain(self.next_arrival())
            .min();
        let Some(next_t) = next_t else {
            // Tail of the stream: nothing else is coming, dispatch.
            return Gate::Dispatch { early: false };
        };
        // Invariant: `run` calls the gate only when `ready_len > 0`.
        let oldest =
            (self.queue.oldest_ready()).expect("gate runs only with at least one eligible request");
        let rt = self.res.round_ticks;
        let latest_safe = oldest.saturating_add(slo).saturating_sub(rt);
        if start >= latest_safe {
            return Gate::Dispatch { early: true };
        }
        Gate::Wait(next_t.min(latest_safe))
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
    /// once the retry allowance is spent. It keeps its position, so it
    /// keeps its original admission priority once eligible.
    fn retry(&mut self, mut p: Pend, at: Time) {
        p.failures += 1;
        if p.failures > self.rec.max_retries {
            self.resolve(&p, StreamStatus::Failed, at);
            return;
        }
        p.eligible = at + self.rec.backoff_after(p.failures);
        self.queue.park(p);
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

    /// The sort-based round selection, the definition the queue's pick
    /// meets: eligible work sorted by `(tier, arrival)`, cut at
    /// `capacity`. Returns ascending indices into `pending`.
    fn select_fill_by_sort(
        pending: &[Pend],
        spec: &OnlineSpec,
        capacity: usize,
        start: Time,
    ) -> Vec<usize> {
        let tier_of = |pos: usize| spec.tiers.get(pos).copied().unwrap_or(0);
        let mut fill: Vec<usize> = pending
            .iter()
            .enumerate()
            .filter(|(_, p)| p.eligible <= start)
            .map(|(j, _)| j)
            .collect();
        if spec.has_tiers() {
            fill.sort_by_key(|&j| (tier_of(pending[j].pos), pending[j].pos));
        }
        fill.truncate(capacity);
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
        let round = (30, 1_000, 30);
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
                round,
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
            let pending: Vec<Pend> = positions
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
            let want: Vec<usize> = select_fill_by_sort(&pending, &spec, capacity, START)
                .into_iter()
                .map(|j| pending[j].pos)
                .collect();
            deep += (want.len() == capacity) as usize;
            // The queue takes every entry as waiting work and promotes
            // what is eligible at the decision point.
            for &p in &pending {
                core.queue.park(p);
            }
            core.queue.promote(START);
            let mut round = Vec::new();
            core.queue.take_round(capacity, &mut round);
            let mut got: Vec<usize> = round.iter().map(|p| p.pos).collect();
            got.sort_unstable();
            assert_eq!(got, want, "case {case}, capacity {capacity}");
        }
        assert!(deep > 1_000, "most queues hold a full round: {deep}");
    }

    /// No decision point walks the wait queue: on a closed backlog that
    /// queues every request at once, the entries the core touches stay
    /// within a constant times the capacity per decision point, under
    /// each armed policy.
    #[test]
    fn decision_points_visit_a_bounded_share_of_a_deep_queue() {
        const N: usize = 65_536;
        let round = (30, 1_000, 30);
        let rt = round.0 + round.1 + round.2;
        let arrivals = vec![0; N];
        let fifo = OnlineSpec::fifo();
        let none = FaultPlan::none();
        let faults = FaultPlan::transient(7, 0.2);
        let outage = FaultPlan {
            outage: Some(Outage {
                fail_at: 2_000 * rt,
                recover_at: Some(2_500 * rt),
            }),
            ..FaultPlan::parse("3:transient=0.05,corrupt=0.05").unwrap()
        };
        let tiers = OnlineSpec {
            tiers: (0..N).map(|i| (i % 3) as u8).collect(),
            ..OnlineSpec::fifo()
        };
        let slo = OnlineSpec {
            slo_ticks: Some(4_000 * rt),
            ..OnlineSpec::fifo()
        };
        let shed = OnlineSpec {
            max_queue: Some(64),
            ..OnlineSpec::fifo()
        };
        let deadline = RecoverySpec {
            deadline_ticks: Some(3_000 * rt),
            ..RecoverySpec::default()
        };
        let backoff = RecoverySpec {
            backoff_ticks: rt,
            backoff_cap_ticks: 16 * rt,
            ..RecoverySpec::default()
        };
        let cases = [
            ("faults", &faults, backoff, &fifo),
            ("tiers", &faults, RecoverySpec::default(), &tiers),
            ("slo", &none, RecoverySpec::default(), &slo),
            ("deadline", &none, deadline, &fifo),
            ("shed", &faults, RecoverySpec::default(), &shed),
            ("outage", &outage, RecoverySpec::default(), &fifo),
        ];
        for (name, plan, rec, spec) in cases {
            // Double-buffered with capacity 8, serial under the outage.
            let mode = Mode::pick(plan.outage.is_none(), &[1], 8);
            let mut core = Core::new(&arrivals, 8, round, plan, rec, spec, mode);
            core.run();
            let (visits, decisions) = (core.queue.visits.get(), core.decisions);
            let out = core.finish();
            assert_eq!(out.statuses.len(), N);
            let timed_out = out.statuses.contains(&StreamStatus::TimedOut);
            let fired = out.transient_faults + out.backpressure_shed + out.outage_requeues;
            assert!(fired > 0 || timed_out, "{name}: the policy never fired");
            // The whole backlog is admitted at the first decision point,
            // and a deadline times much of it out at a few: those are
            // one visit per request, here at most 42 per decision point.
            assert!(
                visits <= 8 * 8 * decisions,
                "{name}: {visits} entries visited in {decisions} decision points"
            );
        }
    }

    /// Ready work counts in the next event at the last decision point's
    /// tick; the exact scan of its eligibility ticks, which only rounds
    /// that execute and drain in no time need, schedules the same.
    #[test]
    fn the_ready_shortcut_schedules_what_the_exact_scan_does() {
        let mut seed = 0xEA5E_D0E5;
        for case in 0..400 {
            let mut r = |n: u64| splitmix(&mut seed) % n;
            let round = (r(3) * 20, r(3) * 500, 1 + r(2) * 30);
            let rt = round.0 + round.1 + round.2;
            let n = 1 + r(60) as usize;
            let mut arrivals: Vec<Time> = (0..n).map(|_| r(rt * n as u64 / 4 + 1)).collect();
            arrivals.sort_unstable();
            let plan = FaultPlan {
                outage: (r(4) == 0).then(|| Outage {
                    fail_at: r(rt * n as u64 / 4 + 1),
                    recover_at: (r(2) == 0).then_some(rt * n as u64 / 3),
                }),
                ..FaultPlan::parse(&format!("{case}:transient=0.2,corrupt=0.1,stall=0.1")).unwrap()
            };
            let rec = RecoverySpec {
                max_retries: r(3) as u32,
                backoff_ticks: r(2) * rt,
                backoff_cap_ticks: r(2) * 4 * rt,
                deadline_ticks: (r(3) == 0).then(|| r(4 * rt)),
            };
            let spec = OnlineSpec {
                slo_ticks: (r(3) == 0).then(|| rt + r(4 * rt)),
                max_queue: (r(3) == 0).then(|| 1 + r(8) as usize),
                tiers: match r(2) {
                    0 => (0..n).map(|_| r(3) as u8).collect(),
                    _ => Vec::new(),
                },
            };
            let capacity = 1 + r(4) as usize;
            let mode = Mode::pick(r(2) == 0 && plan.outage.is_none(), &[1], 4);
            let outcomes = [false, true].map(|exact| {
                let mut core = Core::new(&arrivals, capacity, round, &plan, rec, &spec, mode);
                core.exact_ready = exact;
                core.run();
                core.finish()
            });
            assert_eq!(outcomes[0], outcomes[1], "case {case}");
        }
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
        let round = (30, 1_000, 30);
        let fifo = OnlineSpec::fifo();
        let run = |plan: FaultPlan, max_retries: u32, n: usize| {
            let rec = RecoverySpec {
                max_retries,
                ..RecoverySpec::default()
            };
            let arrivals = vec![0; n];
            simulate_round_stream(round, &[1], 2, &arrivals, 1, true, &plan, &rec, &fifo)
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
