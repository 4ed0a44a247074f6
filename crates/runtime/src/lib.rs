//! `runtime` — request-level serving on one compiled accelerator
//! system.
//!
//! The compiler flow ends with a [`sysgen::MultiSystemDesign`]: one
//! shared-memory accelerator system for one CFD time-step. A production
//! deployment does not run that system for a single owner — it serves a
//! **stream of independent simulation requests** (each with its own
//! input tensors) and must decide how to share the hardware between
//! them. This crate is that layer:
//!
//! 1. **Admission** — [`generate_requests`] (or caller-built
//!    [`Request`]s) supply the queue; arrivals are either `Closed` (all
//!    queued at t=0, the throughput benchmark) or `Poisson` (open
//!    arrivals at a given rate, the latency benchmark). Every time a
//!    caller supplies — arrivals, backoff, deadline, SLO — must fit the
//!    scheduler's picosecond clock; one that does not is
//!    [`RuntimeError::TimeOutOfRange`] before anything is scheduled.
//! 2. **Batching** — a [`BatchPolicy`] decides how many requests
//!    coalesce into one hardware round: `Auto` fills the design's batch
//!    factor `m` greedily (take whatever is queued when the hardware
//!    frees, never wait for stragglers), `Fixed(K)` caps the fill at
//!    `K`, `Disabled` serves one request per round — the sequential
//!    reference the differential tests compare against.
//! 3. **Time multiplexing** — [`serve`] makes one call into the
//!    scheduler, [`zynq::simulate_online_stream`], which places the
//!    rounds on the design in exact tick arithmetic, with
//!    double-buffered DMA overlapping the transfers of neighbouring
//!    rounds when `overlap_dma` is set (and every stage keeps a spare
//!    PLM set). The scheduler itself picks the closed-form clean fold
//!    when no fault plan, deadline or online policy is armed and the
//!    event core otherwise; nothing here selects a code path.
//! 4. **Fault tolerance** — an armed [`zynq::FaultPlan`] injects
//!    deterministic faults (DMA stalls, transient round errors, payload
//!    corruption, hard board failure) into the schedule, and the
//!    [`RecoveryPolicy`] decides what happens next: per-request retries
//!    with capped exponential backoff in tick space, per-request
//!    deadlines that shed late work, round-level requeue after a failed
//!    round, and drain/pause/resume degradation across a board outage.
//!    Every request ends in one [`StreamStatus`], the scheduler's own
//!    terminal status. The empty plan is tick- and bit-identical to the
//!    fault-free scheduler (`tests/fault_injection.rs` proves it).
//! 5. **Execution** — after the final schedule, each completed request's
//!    tensors run once through the generated kernel chain
//!    ([`zynq::run_program_chain`]): real outputs, not just timings. Batching and
//!    retries never change results: outputs are bit-identical to
//!    running every request alone, and with batching disabled the tick
//!    schedule is exactly the sequential one
//!    (`tests/runtime_differential.rs` proves both).
//! 6. **Reporting** — the [`ServiceReport`] carries per-request latency
//!    traces and outcomes, p50/p99 latency (over all requests and over
//!    completed-only), requests/sec offered vs goodput (both from
//!    [`per_second`]), and the DMA/compute overlap fraction, as a table
//!    or JSON (`cfdc serve`, with `--faults seed:RATE --deadline T
//!    --retries N`). A request's
//!    result is kept once, in ticks: the scheduler's outcome columns
//!    move into [`Traces`], and seconds appear in its accessors and in
//!    the JSON row ([`json::Sink::secs6`]), nowhere in between.
//!
//! The typical entry point is `cfd_core::program::ProgramArtifacts::
//! serve`, which wires compiled artifacts into this crate; `cfdc serve`
//! drives it from the command line.

#![forbid(unsafe_code)]

pub mod fleet;
pub mod json;

pub use fleet::{
    serve_fleet, serve_fleet_generated, BoardReport, FleetBoard, FleetOptions, FleetOutcome,
    FleetReport, RoutePolicy,
};
pub use json::json_escape;

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{self, Write};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sysgen::MultiSystemDesign;
use teil::ir::Module;
use teil::Tensor;
use zynq::des::{checked_secs, secs, to_secs, Time};
use zynq::fault::{FaultPlan, RecoverySpec};
use zynq::{SimConfig, StreamStatus};

use json::{push_escaped, push_opt_fixed, Line, Sink};

/// Structured runtime-layer errors.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// Poisson arrivals need a positive, finite rate.
    InvalidRate { rate_rps: f64 },
    /// An arrival-process spec that is neither `closed` nor `poisson`.
    UnknownArrival { spec: String },
    /// A serve call with an empty request queue.
    NoRequests,
    /// A fleet serve call with an empty board list.
    NoBoards,
    /// The functional execution path failed (kernel chain error).
    Exec(String),
    /// A serving time the picosecond clock cannot hold: `what` (an
    /// arrival, the backoff or its 16x cap, the deadline, the SLO) at
    /// `seconds`.
    TimeOutOfRange { what: &'static str, seconds: f64 },
    /// A request list longer than the 2^32 entries a stream orders.
    TooManyRequests { requests: usize },
    /// The thread serving board `board` of a fleet panicked.
    WorkerPanicked { board: usize },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::InvalidRate { rate_rps } => write!(
                f,
                "poisson arrivals need a positive finite rate, got {rate_rps}"
            ),
            RuntimeError::UnknownArrival { spec } => {
                write!(f, "unknown arrival process '{spec}' (closed | poisson)")
            }
            RuntimeError::NoRequests => write!(f, "no requests to serve"),
            RuntimeError::NoBoards => write!(f, "fleet serving needs at least one board"),
            RuntimeError::Exec(e) => write!(f, "request execution failed: {e}"),
            RuntimeError::TimeOutOfRange { what, seconds } => write!(
                f,
                "{what} of {seconds:e} s does not fit the picosecond clock (0 to {:.0} s)",
                to_secs(Time::MAX)
            ),
            RuntimeError::TooManyRequests { requests } => {
                write!(
                    f,
                    "{requests} requests exceed the 2^32 one stream can order"
                )
            }
            RuntimeError::WorkerPanicked { board } => {
                write!(f, "the worker serving board {board} panicked")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// How requests enter the queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Every request queued at t = 0 (closed backlog — the throughput
    /// view).
    Closed,
    /// Open Poisson arrivals at `rate_rps` requests per second
    /// (exponential interarrival times, deterministic per seed).
    Poisson { rate_rps: f64 },
}

impl Arrival {
    /// Parse a CLI spec: `closed` or `poisson` (the rate comes
    /// separately). Shares [`Arrival::validate`] with the request
    /// generators, so the CLI and the library reject exactly the same
    /// inputs with the same structured error.
    pub fn parse(s: &str, rate_rps: f64) -> Result<Arrival, RuntimeError> {
        let arrival = match s {
            "closed" => Arrival::Closed,
            "poisson" => Arrival::Poisson { rate_rps },
            other => {
                return Err(RuntimeError::UnknownArrival {
                    spec: other.to_string(),
                })
            }
        };
        arrival.validate()?;
        Ok(arrival)
    }

    /// The one validity check for arrival processes: a Poisson rate
    /// that is zero, negative, or non-finite is a structured
    /// [`RuntimeError::InvalidRate`] — the interarrival draw
    /// `-ln(1-u)/rate` would otherwise yield infinite or NaN arrival
    /// times that poison the whole schedule.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        if let Arrival::Poisson { rate_rps } = self {
            if !rate_rps.is_finite() || *rate_rps <= 0.0 {
                return Err(RuntimeError::InvalidRate {
                    rate_rps: *rate_rps,
                });
            }
        }
        Ok(())
    }
}

/// The display label, as the report prints it.
impl fmt::Display for Arrival {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arrival::Closed => f.write_str("closed"),
            Arrival::Poisson { rate_rps } => write!(f, "poisson({rate_rps:.1}/s)"),
        }
    }
}

/// How many requests share one hardware round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Fill the design's `m` PLM sets greedily (adaptive: a round takes
    /// whatever is queued when the hardware frees, at least one).
    Auto,
    /// Cap the fill at `K` (clamped to `[1, m]`).
    Fixed(usize),
    /// One request per round — the sequential reference.
    Disabled,
}

impl BatchPolicy {
    /// The fill limit against a design with `m` PLM sets.
    pub fn capacity(&self, m: usize) -> usize {
        match self {
            BatchPolicy::Auto => m,
            BatchPolicy::Fixed(k) => (*k).clamp(1, m),
            BatchPolicy::Disabled => 1,
        }
    }

    /// Parse a CLI spec: `auto`, `off`, or a fixed fill `K >= 1`.
    pub fn parse(s: &str) -> Result<BatchPolicy, String> {
        match s {
            "auto" => Ok(BatchPolicy::Auto),
            "off" => Ok(BatchPolicy::Disabled),
            other => match other.parse::<usize>() {
                Ok(k) if k >= 1 => Ok(BatchPolicy::Fixed(k)),
                _ => Err(format!(
                    "unknown batch policy '{other}' (auto | off | K>=1)"
                )),
            },
        }
    }
}

/// The display label, as the report prints it.
impl fmt::Display for BatchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchPolicy::Auto => f.write_str("auto"),
            BatchPolicy::Fixed(k) => write!(f, "fixed({k})"),
            BatchPolicy::Disabled => f.write_str("off"),
        }
    }
}

/// What the service does when faults strike: retries, backoff,
/// deadlines. Converted to a tick-space [`zynq::RecoverySpec`] for the
/// scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Retries allowed after the first attempt (at most
    /// `max_retries + 1` attempts per request).
    pub max_retries: u32,
    /// Base backoff after the first failure, seconds; doubles per
    /// further failure up to 16x the base. 0 = requeue immediately.
    pub backoff_s: f64,
    /// Per-request latency budget from arrival; requests that cannot
    /// (or did not) complete inside it are timed out.
    pub deadline_s: Option<f64>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            backoff_s: 0.0,
            deadline_s: None,
        }
    }
}

impl RecoveryPolicy {
    /// Tick-space view for the scheduler.
    pub fn to_spec(self) -> RecoverySpec {
        let backoff_ticks = secs(self.backoff_s.max(0.0));
        RecoverySpec {
            max_retries: self.max_retries,
            backoff_ticks,
            backoff_cap_ticks: backoff_ticks.saturating_mul(16),
            deadline_ticks: self.deadline_s.map(secs),
        }
    }
}

/// The display label (stable — part of the replayable report).
impl fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "retries={}", self.max_retries)?;
        if self.backoff_s > 0.0 {
            write!(f, ",backoff={}s", self.backoff_s)?;
        }
        if let Some(d) = self.deadline_s {
            write!(f, ",deadline={d}s")?;
        }
        Ok(())
    }
}

/// Online serving policy: which of the scheduler's online policies
/// ([`zynq::OnlineSpec`]) a `serve` call arms.
///
/// Arming any of them (like arming a fault plan or a deadline) makes
/// [`zynq::simulate_online_stream`] run its event core instead of the
/// clean fold; that choice is the scheduler's, made from what is armed.
/// `event_loop` arms nothing and selects nothing: a run with only that
/// flag set is the offline run, and its report differs in
/// [`ServiceReport::online`] alone (not part of the JSON or the table).
#[derive(Debug, Clone, PartialEq)]
pub struct OnlinePolicy {
    /// Mark the run as online serving (`cfdc serve --online`). Feeds
    /// [`ServiceReport::online`]; no effect on the schedule.
    pub event_loop: bool,
    /// p99 latency budget (SLO), seconds: arms adaptive batching (close
    /// a round early when the oldest queued request's budget is at
    /// risk) and sheds work that cannot complete inside the budget.
    pub slo_s: Option<f64>,
    /// Wait-queue depth beyond which new arrivals are shed
    /// (backpressure under overload).
    pub shed_queue: Option<usize>,
    /// Priority tiers (1 = FIFO). Requests carry a [`Request::tier`]
    /// (0 = highest); batch formation preempts lower tiers at every
    /// round boundary.
    pub priority_tiers: u8,
}

impl Default for OnlinePolicy {
    fn default() -> Self {
        OnlinePolicy {
            event_loop: false,
            slo_s: None,
            shed_queue: None,
            priority_tiers: 1,
        }
    }
}

impl OnlinePolicy {
    /// Whether the run counts as online serving
    /// ([`ServiceReport::online`]).
    pub fn enabled(&self) -> bool {
        self.event_loop || self.armed()
    }

    /// Whether any policy deviates from FIFO capacity-fill. The report
    /// emits its online section only when this holds.
    pub fn armed(&self) -> bool {
        self.slo_s.is_some() || self.shed_queue.is_some() || self.priority_tiers > 1
    }
}

/// The display label (stable — part of the replayable report): `fifo`,
/// or the armed policies joined by commas.
impl fmt::Display for OnlinePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.armed() {
            return f.write_str("fifo");
        }
        let mut sep = "";
        if let Some(slo) = self.slo_s {
            write!(f, "slo={slo}s")?;
            sep = ",";
        }
        if let Some(q) = self.shed_queue {
            write!(f, "{sep}shed={q}")?;
            sep = ",";
        }
        if self.priority_tiers > 1 {
            write!(f, "{sep}tiers={}", self.priority_tiers)?;
        }
        Ok(())
    }
}

/// Options for one serving run. Rounds are priced under
/// [`SimConfig::default`]'s host constants.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeOptions {
    /// Requests to generate/serve.
    pub requests: usize,
    pub arrival: Arrival,
    pub batch: BatchPolicy,
    /// Double-buffer the DMA across rounds (ignored — serial — when
    /// batching is `Disabled`, so the sequential reference stays exact).
    pub overlap_dma: bool,
    /// Seed for request inputs and Poisson arrivals.
    pub seed: u64,
    /// Run every request's tensors through the generated kernel chain
    /// (off = timing only).
    pub execute: bool,
    /// Deterministic fault injection; `FaultPlan::none()` leaves the
    /// schedule tick-identical to the fault-free simulator.
    pub faults: FaultPlan,
    /// Retry/timeout policy applied when faults (or deadlines) are
    /// armed.
    pub recovery: RecoveryPolicy,
    /// Online serving: SLO batching, priority tiers, backpressure
    /// shedding.
    pub online: OnlinePolicy,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            requests: 64,
            arrival: Arrival::Closed,
            batch: BatchPolicy::Auto,
            overlap_dma: true,
            seed: 42,
            execute: false,
            faults: FaultPlan::none(),
            recovery: RecoveryPolicy::default(),
            online: OnlinePolicy::default(),
        }
    }
}

/// One simulation request: an independent invocation of the compiled
/// program with its own external input tensors. This is the adapter
/// type: [`serve`] and [`serve_fleet`] read a caller's list of them into
/// the columns [`serve_generated`] and [`serve_fleet_generated`] draw
/// directly, and schedule those.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: usize,
    /// Arrival time (seconds from service start).
    pub arrival_s: f64,
    /// Priority tier, 0 = highest. Only consulted when
    /// [`OnlinePolicy::priority_tiers`] > 1.
    pub tier: u8,
    /// External inputs by tensor name (program-global, as in
    /// [`zynq::run_program_chain`]).
    pub inputs: HashMap<String, Tensor>,
}

/// The arrival times `arrival` draws per `seed`, in seconds, one per
/// request in id order: all 0 for a closed backlog, exponential gaps
/// for Poisson arrivals.
fn arrival_draws(arrival: Arrival, seed: u64) -> impl Iterator<Item = f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_A881_0CA7_F00Du64);
    let mut t = 0.0f64;
    std::iter::repeat_with(move || match arrival {
        Arrival::Closed => 0.0,
        Arrival::Poisson { rate_rps } => {
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -(1.0 - u).ln() / rate_rps;
            t
        }
    })
}

/// Generate `n` timing-only requests (empty inputs) with arrival times
/// drawn from `arrival`. Deterministic per seed, and arrival-identical
/// to [`generate_requests`] for the same seed — the timing-only serve
/// paths (reports, benches) schedule exactly the stream the executing
/// path would.
///
/// Degenerate Poisson rates are rejected through the single
/// [`Arrival::validate`] path the CLI parser also uses.
pub fn generate_timing_requests(
    n: usize,
    arrival: &Arrival,
    seed: u64,
) -> Result<Vec<Request>, RuntimeError> {
    arrival.validate()?;
    let draws = arrival_draws(*arrival, seed).take(n).enumerate();
    Ok(draws
        .map(|(id, arrival_s)| Request {
            id,
            arrival_s,
            tier: 0,
            inputs: HashMap::new(),
        })
        .collect())
}

/// Generate `n` requests with random input tensors drawn per request
/// and arrival times drawn from `arrival`. Deterministic per seed.
/// Rejects degenerate Poisson rates like [`generate_timing_requests`].
pub fn generate_requests(
    modules: &[&Module],
    n: usize,
    arrival: &Arrival,
    seed: u64,
) -> Result<Vec<Request>, RuntimeError> {
    let mut requests = generate_timing_requests(n, arrival, seed)?;
    for req in &mut requests {
        req.inputs = request_inputs(modules, seed, req.id);
    }
    Ok(requests)
}

/// The input tensors of request `id` in a stream drawn from `seed`.
fn request_inputs(modules: &[&Module], seed: u64, id: usize) -> HashMap<String, Tensor> {
    zynq::random_program_inputs(modules, seed.wrapping_add(id as u64))
}

/// A request stream as columns, in the caller's order: what the serving
/// core schedules. Arrivals are converted to ticks and checked once, and
/// the admission order — arrival, ties by id — is the caller's own
/// whenever the stream arrives sorted, which takes one pass to see.
pub(crate) struct Stream<'a> {
    /// Arrival ticks, caller order.
    pub(crate) arrivals: Vec<Time>,
    /// Admission order as caller positions; empty when it is the
    /// caller's order.
    order: Vec<u32>,
    /// Where ids, tiers and inputs come from.
    source: Source<'a>,
    #[cfg(test)]
    pub(crate) chain_runs: std::sync::atomic::AtomicUsize,
}

/// Entry `k` of a list of positions, where an empty list stands for the
/// positions themselves.
fn position(index: &[u32], k: usize) -> usize {
    index.get(k).map_or(k, |&i| i as usize)
}

/// The rest of a [`Stream`]'s columns.
enum Source<'a> {
    /// A caller's request list, read in place.
    Requests(&'a [Request]),
    /// A drawn stream: ids are positions, tiers cycle through `tiers`
    /// levels with the id, and inputs are drawn from `seed` on demand.
    Drawn { tiers: usize, seed: u64 },
}

impl<'a> Stream<'a> {
    /// The stream `opts` describes, drawn straight into columns: the
    /// arrivals [`generate_timing_requests`] draws, as ticks; under
    /// priority serving, tiers that cycle through the configured count
    /// in id order (tier 0 is the most urgent). Poisson arrivals only
    /// move forward, so the stream is in admission order.
    fn draw(opts: &RuntimeOptions) -> Result<Stream<'static>, RuntimeError> {
        let (n, seed) = (opts.requests, opts.seed);
        let arrivals = match opts.arrival {
            Arrival::Closed => vec![0; n],
            arrival => {
                let mut arrivals = Vec::with_capacity(n);
                for s in arrival_draws(arrival, seed).take(n) {
                    arrivals.push(ticks("arrival", s)?);
                }
                arrivals
            }
        };
        debug_assert!(arrivals.is_sorted());
        let tiers = usize::from(opts.online.priority_tiers).max(1);
        Ok(Stream {
            arrivals,
            order: Vec::new(),
            source: Source::Drawn { tiers, seed },
            #[cfg(test)]
            chain_runs: Default::default(),
        })
    }

    /// A caller's request list as a stream: its arrivals converted in
    /// admission order, so the first one past the clock is the one
    /// reported.
    fn of_requests(requests: &'a [Request]) -> Result<Stream<'a>, RuntimeError> {
        let order = admission_order(requests)?;
        let mut arrivals = vec![0; requests.len()];
        for k in 0..requests.len() {
            let i = position(&order, k);
            arrivals[i] = ticks("arrival", requests[i].arrival_s)?;
        }
        Ok(Stream {
            arrivals,
            order,
            source: Source::Requests(requests),
            #[cfg(test)]
            chain_runs: Default::default(),
        })
    }

    pub(crate) fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Caller position of the `k`-th request in admission order.
    pub(crate) fn admitted(&self, k: usize) -> usize {
        position(&self.order, k)
    }

    pub(crate) fn id(&self, i: usize) -> usize {
        match &self.source {
            Source::Requests(requests) => requests[i].id,
            Source::Drawn { .. } => i,
        }
    }

    fn tier(&self, i: usize) -> u8 {
        match &self.source {
            Source::Requests(requests) => requests[i].tier,
            Source::Drawn { tiers, .. } => (i % tiers) as u8,
        }
    }

    /// Request `i`'s inputs: the caller's, or the ones
    /// [`generate_requests`] draws for it.
    fn inputs(&self, modules: &[&Module], i: usize) -> Cow<'_, HashMap<String, Tensor>> {
        match &self.source {
            Source::Requests(requests) => Cow::Borrowed(&requests[i].inputs),
            Source::Drawn { seed, .. } => Cow::Owned(request_inputs(modules, *seed, i)),
        }
    }

    /// The functional path, after the final schedule: under `execute`,
    /// each caller position in `completed` runs through the generated
    /// chain once, its outputs landing at that position of `n`; every
    /// other request gets an empty map. Without `execute`, no outputs.
    /// The chain's kernels are prepared once for the call.
    pub(crate) fn execute(
        &self,
        (names, modules, kernels): Stages,
        n: usize,
        completed: impl IntoIterator<Item = usize>,
        opts: &RuntimeOptions,
    ) -> Result<Vec<HashMap<String, Vec<f64>>>, RuntimeError> {
        if !opts.execute {
            return Ok(Vec::new());
        }
        let mut outputs = vec![HashMap::new(); n];
        let mut chain = zynq::PreparedChain::new(names, modules, kernels);
        for i in completed {
            #[cfg(test)]
            self.chain_runs
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            outputs[i] = chain
                .run(&self.inputs(modules, i))
                .map_err(RuntimeError::Exec)?;
        }
        Ok(outputs)
    }
}

/// Per-request service trace (all times in seconds from service start),
/// as [`Traces`] hands it out.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    pub id: usize,
    pub arrival_s: f64,
    /// When the request's (last) round started loading. Meaningful only
    /// for requests that were admitted at least once.
    pub admitted_s: f64,
    /// When the request resolved: outputs drained for `Completed`, the
    /// give-up tick otherwise.
    pub completed_s: f64,
    /// `completed - arrival`.
    pub latency_s: f64,
    /// Hardware rounds the request participated in.
    pub attempts: u32,
    pub outcome: StreamStatus,
}

/// Every request's result, kept once and in ticks: the scheduler's
/// outcome columns in admission order plus the request ids, read in id
/// order through a permutation. Seconds exist only in the
/// [`RequestTrace`]s the accessors build and in the JSON row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Traces {
    /// Request ids in admission order; empty when every id is its
    /// admission position (the only form such a store takes, so equal
    /// stores compare equal).
    ids: Vec<usize>,
    arrival: Vec<Time>,
    admitted: Vec<Time>,
    resolved: Vec<Time>,
    attempts: Vec<u32>,
    statuses: Vec<StreamStatus>,
    /// Admission position of the request with the k-th smallest id
    /// (ties in admission order); empty when that is `k` itself.
    by_id: Vec<u32>,
}

impl Traces {
    /// Take over the scheduler's columns for the requests `ids`, all in
    /// admission order; ids that are their positions keep no column.
    fn new(
        ids: impl ExactSizeIterator<Item = usize> + Clone,
        arrival: Vec<Time>,
        out: zynq::StreamOutcome,
    ) -> Traces {
        let mut positions = ids.clone().enumerate();
        let ids: Vec<usize> = match positions.all(|(k, id)| id == k) {
            true => Vec::new(),
            false => ids.collect(),
        };
        let mut by_id = Vec::new();
        if !ids.is_sorted() {
            by_id.extend(0..ids.len() as u32);
            by_id.sort_by_key(|&p| ids[p as usize]);
        }
        Traces {
            ids,
            arrival,
            admitted: out.admitted_ticks,
            resolved: out.completion_ticks,
            attempts: out.attempts,
            statuses: out.statuses,
            by_id,
        }
    }

    pub fn len(&self) -> usize {
        self.arrival.len()
    }

    pub fn is_empty(&self) -> bool {
        self.arrival.is_empty()
    }

    /// Admission position of the `i`-th request in id order.
    fn position(&self, i: usize) -> usize {
        self.by_id.get(i).map_or(i, |&p| p as usize)
    }

    /// Id of the request at admission position `p`.
    fn id(&self, p: usize) -> usize {
        self.ids.get(p).copied().unwrap_or(p)
    }

    /// The `i`-th request in id order. Panics when `i >= len()`.
    pub fn get(&self, i: usize) -> RequestTrace {
        let p = self.position(i);
        let (arrival, resolved) = (self.arrival[p], self.resolved[p]);
        RequestTrace {
            id: self.id(p),
            arrival_s: to_secs(arrival),
            admitted_s: to_secs(self.admitted[p]),
            completed_s: to_secs(resolved),
            latency_s: to_secs(resolved.saturating_sub(arrival)),
            attempts: self.attempts[p],
            outcome: self.statuses[p],
        }
    }

    /// The requests in id order.
    pub fn iter(&self) -> TraceIter<'_> {
        TraceIter {
            traces: self,
            next: 0,
        }
    }
}

/// Iterator over [`Traces`] in id order.
#[derive(Debug, Clone)]
pub struct TraceIter<'a> {
    traces: &'a Traces,
    next: usize,
}

impl Iterator for TraceIter<'_> {
    type Item = RequestTrace;

    fn next(&mut self) -> Option<RequestTrace> {
        (self.next < self.traces.len()).then(|| {
            self.next += 1;
            self.traces.get(self.next - 1)
        })
    }
}

impl<'a> IntoIterator for &'a Traces {
    type Item = RequestTrace;
    type IntoIter = TraceIter<'a>;

    fn into_iter(self) -> TraceIter<'a> {
        self.iter()
    }
}

/// Aggregate + per-request results of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    pub requests: usize,
    pub policy: BatchPolicy,
    pub arrival: Arrival,
    /// Effective fill limit per round.
    pub capacity: usize,
    /// Whether the double-buffered scheduler ran (overlap requested,
    /// batching enabled, and the design keeps a spare PLM set per
    /// stage); `overlap_fraction` is the measured quantity — it can be
    /// 0 under sparse arrivals even when this is true.
    pub overlap_dma: bool,
    /// Hardware rounds dispatched.
    pub rounds: usize,
    /// Rounds resolved by the closed-tick fast-forward.
    pub fast_forwarded_rounds: usize,
    /// Requests per dispatched round, a retry counted in each round it
    /// rides; 0 when no round ran.
    pub mean_fill: f64,
    /// Exact tick totals (picoseconds) — the differential tests compare
    /// these, not rounded floats.
    pub exec_ticks: u64,
    pub transfer_ticks: u64,
    pub overlapped_ticks: u64,
    pub makespan_ticks: u64,
    /// All requests over the makespan: the offered load.
    pub throughput_rps: f64,
    /// Latency statistics over *all* requests (for non-completed ones,
    /// resolution time - arrival).
    pub latency_mean_s: f64,
    pub latency_p50_s: f64,
    pub latency_p99_s: f64,
    pub latency_max_s: f64,
    /// p99 latency over completed requests only; `None` when nothing
    /// completed (an empty set has no percentile — emitted as `null`
    /// in JSON and `-` in tables rather than a misleading 0).
    pub latency_p99_completed_s: Option<f64>,
    /// Fraction of DMA time hidden behind compute.
    pub overlap_fraction: f64,
    /// Reliability: terminal outcome counts.
    pub completed: usize,
    /// Requests that needed more than one attempt (any terminal state).
    pub retried: usize,
    pub timed_out: usize,
    pub shed: usize,
    pub failed: usize,
    /// Rounds aborted by transient errors.
    pub transient_faults: usize,
    /// Rounds whose input DMA stalled.
    pub dma_stalls: usize,
    /// Checksum failures detected at drain.
    pub corrupt_payloads: usize,
    /// Goodput: completed requests over the makespan; `None` when
    /// nothing completed (same empty-set semantics as
    /// `latency_p99_completed_s`).
    pub goodput_rps: Option<f64>,
    /// Canonical fault-plan label (`"none"` when unarmed).
    pub fault_plan: String,
    /// The recovery policy in force.
    pub recovery: RecoveryPolicy,
    /// Whether this was an online-serving run ([`OnlinePolicy::enabled`]).
    pub online: bool,
    /// The online policy in force (reported only when armed).
    pub online_policy: OnlinePolicy,
    /// Arrivals shed at admission by queue-depth backpressure.
    pub backpressure_shed: usize,
    /// Rounds the SLO batcher closed early (below capacity with more
    /// work still on the way).
    pub early_closed_rounds: usize,
    /// Per-request traces, in request-id order.
    pub traces: Traces,
}

/// A serving run's report plus (when `execute` was set) every request's
/// output tensors, `"kernel.tensor"` → values, run once per completed
/// request after the schedule (an empty map for any other). `outputs[i]`
/// belongs to `requests[i]` of the [`serve`] call, by position, not id.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    pub report: ServiceReport,
    pub outputs: Vec<HashMap<String, Vec<f64>>>,
}

/// Index of the nearest-rank `q`-quantile in a sorted column of `len`
/// (`len >= 1`): the one nearest-rank definition, which [`percentile`]
/// reads a sorted column at and the DSE service probe asks the
/// scheduler's summary for.
pub fn rank(len: usize, q: f64) -> usize {
    ((q * len as f64).ceil() as usize).clamp(1, len) - 1
}

/// Nearest-rank percentile of a sorted tick slice — the one definition
/// every latency figure (service reports, DSE probes) shares.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), q)]
}

/// `count` over the seconds `makespan_ticks` spans: the one rate every
/// service report quotes (0 over an empty makespan).
pub fn per_second(count: usize, makespan_ticks: Time) -> f64 {
    let makespan_s = to_secs(makespan_ticks);
    if makespan_s > 0.0 {
        count as f64 / makespan_s
    } else {
        0.0
    }
}

/// Mean (rounded down), p50, p99 and maximum of a non-empty latency
/// column. The column is partitioned around the two ranks, not sorted:
/// the values are the ones [`percentile`] reads off the sorted column.
/// The mean sums in `u128` — a million 20-second latencies do not fit a
/// `u64`.
pub(crate) fn latency_stats(ticks: &mut [u64]) -> [u64; 4] {
    let n = ticks.len();
    let sum: u128 = ticks.iter().map(|&t| u128::from(t)).sum();
    let (k50, k99) = (rank(n, 0.50), rank(n, 0.99));
    let (below, &mut p99, above) = ticks.select_nth_unstable(k99);
    let max = above.iter().copied().max().unwrap_or(p99);
    let p50 = if k50 < k99 {
        *below.select_nth_unstable(k50).1
    } else {
        p99
    };
    [(sum / n as u128) as u64, p50, p99, max]
}

/// Admission order of `requests` as caller indices: arrival time, ties
/// by id (stable) — the one total order [`serve`] and the fleet
/// dispatcher share. Empty when that is the caller's order, which one
/// pass over the list tells.
pub(crate) fn admission_order(requests: &[Request]) -> Result<Vec<u32>, RuntimeError> {
    let cmp = |a: &Request, b: &Request| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id));
    if requests.is_sorted_by(|a, b| cmp(a, b).is_le()) {
        return Ok(Vec::new());
    }
    let mut order: Vec<u32> = (0..request_count(requests.len())?).collect();
    order.sort_by(|&a, &b| cmp(&requests[a as usize], &requests[b as usize]));
    Ok(order)
}

/// `n` requests as the `u32` count an admission order indexes by, or
/// [`RuntimeError::TooManyRequests`].
fn request_count(n: usize) -> Result<u32, RuntimeError> {
    u32::try_from(n).map_err(|_| RuntimeError::TooManyRequests { requests: n })
}

/// `seconds` on the picosecond clock, or [`RuntimeError::TimeOutOfRange`]
/// naming `what`: the conversion of every caller-supplied serving time.
pub(crate) fn ticks(what: &'static str, seconds: f64) -> Result<Time, RuntimeError> {
    checked_secs(seconds).ok_or(RuntimeError::TimeOutOfRange { what, seconds })
}

/// Refuse a policy time the picosecond clock cannot hold — the backoff
/// or the 16x cap it doubles up to, the deadline, the SLO — before
/// anything is scheduled, so the policies' later [`secs`] are exact.
/// Arrivals go through [`ticks`] where they are first converted.
pub(crate) fn check_times(opts: &RuntimeOptions) -> Result<(), RuntimeError> {
    let backoff_s = opts.recovery.backoff_s.max(0.0);
    ticks("backoff", backoff_s)?;
    ticks("backoff cap", 16.0 * backoff_s)?;
    let budgets = [
        ("deadline", opts.recovery.deadline_s),
        ("SLO", opts.online.slo_s),
    ];
    for (what, seconds) in budgets {
        seconds.map(|s| ticks(what, s)).transpose()?;
    }
    Ok(())
}

/// Serve `requests` on `design`: schedule the batched stream (under the
/// fault plan and recovery policy in `opts`), compute the service
/// statistics, then (when `opts.execute`) run every request that completed
/// once through the generated kernel chain. `names`/`modules`/`kernels` are
/// the compiled program's stages in chain order (as in
/// [`zynq::run_program_chain`]); `kernels` may be empty when
/// `opts.execute` is off.
///
/// With `FaultPlan::none()` and no deadline the schedule is tick- and
/// bit-identical to the fault-free stream; retries never change
/// completed outputs (execution follows the schedule and runs each
/// request's own tensors; batching shares hardware, never data).
pub fn serve(
    design: &MultiSystemDesign,
    names: &[String],
    modules: &[&Module],
    kernels: &[&cgen::CKernel],
    requests: &[Request],
    opts: &RuntimeOptions,
) -> Result<ServeOutcome, RuntimeError> {
    check_times(opts)?;
    let stream = Stream::of_requests(requests)?;
    serve_columns(design, (names, modules, kernels), stream, opts)
}

/// [`serve`] of the stream `opts` describes — `opts.requests` requests
/// as [`generate_timing_requests`] (or, under `opts.execute`,
/// [`generate_requests`]) draws them per `opts.seed`, with tiers that
/// cycle through `opts.online.priority_tiers` in id order — drawn
/// straight into columns, with no [`Request`] built. A degenerate rate
/// is reported first, then a policy time past the clock, then an
/// arrival, as the two calls in turn would.
pub fn serve_generated(
    design: &MultiSystemDesign,
    names: &[String],
    modules: &[&Module],
    kernels: &[&cgen::CKernel],
    opts: &RuntimeOptions,
) -> Result<ServeOutcome, RuntimeError> {
    opts.arrival.validate()?;
    check_times(opts)?;
    let stream = Stream::draw(opts)?;
    serve_columns(design, (names, modules, kernels), stream, opts)
}

/// The compiled program's stages: `names`, `modules`, `kernels` of [`serve`].
pub(crate) type Stages<'a> = (&'a [String], &'a [&'a Module], &'a [&'a cgen::CKernel]);

/// The serving core on one board over a whole stream: schedule it, then
/// (under `execute`) run every completed request once.
fn serve_columns(
    design: &MultiSystemDesign,
    stages: Stages,
    mut stream: Stream,
    opts: &RuntimeOptions,
) -> Result<ServeOutcome, RuntimeError> {
    let arrivals = match stream.order.is_empty() {
        true => std::mem::take(&mut stream.arrivals),
        false => (stream.order.iter())
            .map(|&i| stream.arrivals[i as usize])
            .collect(),
    };
    let n = arrivals.len();
    let report = serve_stream(design, &stream, &stream.order, arrivals, opts)?;
    let statuses = &report.traces.statuses;
    let completed = (0..n).filter(|&k| statuses[k] == StreamStatus::Completed);
    let outputs = stream.execute(stages, n, completed.map(|k| stream.admitted(k)), opts)?;
    Ok(ServeOutcome { report, outputs })
}

/// The scheduling core behind [`serve`] and every fleet board: it runs
/// no tensor. The board's stream is two columns in admission order:
/// `index[k]` is the position in `stream` of the `k`-th request (`index`
/// empty: the `k`-th itself) and `arrivals[k]` its arrival tick here
/// (sorted; a request the fleet requeued arrives at its shed tick).
pub(crate) fn serve_stream(
    design: &MultiSystemDesign,
    stream: &Stream,
    index: &[u32],
    arrivals: Vec<Time>,
    opts: &RuntimeOptions,
) -> Result<ServiceReport, RuntimeError> {
    if arrivals.is_empty() {
        return Err(RuntimeError::NoRequests);
    }
    let position = |k: usize| position(index, k);
    let n = arrivals.len();
    let capacity = opts.batch.capacity(design.config.m);
    let overlap = opts.overlap_dma && opts.batch != BatchPolicy::Disabled;
    let spec = opts.recovery.to_spec();
    let tier = |k: usize| stream.tier(position(k));
    let tiered = opts.online.priority_tiers > 1 && (0..n).any(|k| tier(k) != 0);
    let tiers = if tiered {
        (0..n).map(tier).collect()
    } else {
        Vec::new()
    };
    let online_spec = zynq::OnlineSpec {
        slo_ticks: opts.online.slo_s.map(secs),
        max_queue: opts.online.shed_queue,
        tiers,
    };
    let out = zynq::simulate_online_stream(
        design,
        &SimConfig::default(),
        &arrivals,
        capacity,
        overlap,
        &opts.faults,
        &spec,
        &online_spec,
    );

    let latencies = (out.completion_ticks.iter().zip(&arrivals))
        .map(|(resolved, arrival)| resolved.saturating_sub(*arrival));
    let count = |want: StreamStatus| out.statuses.iter().filter(|&&s| s == want).count();
    let completed = count(StreamStatus::Completed);
    let [mean, p50, p99, max] = latency_stats(&mut latencies.clone().collect::<Vec<u64>>());
    // Over the completed requests alone there is no p99 when nothing
    // completed, and the same p99 when nothing else happened.
    let p99_completed = match completed {
        0 => None,
        _ if completed == n => Some(p99),
        _ => {
            let mut ticks: Vec<u64> = (latencies.zip(&out.statuses))
                .filter(|(_, &s)| s == StreamStatus::Completed)
                .map(|(latency, _)| latency)
                .collect();
            Some(*ticks.select_nth_unstable(rank(completed, 0.99)).1)
        }
    };

    let per_s = |k: usize| per_second(k, out.makespan_ticks);
    Ok(ServiceReport {
        requests: n,
        policy: opts.batch,
        arrival: opts.arrival,
        capacity,
        overlap_dma: out.double_buffered,
        rounds: out.rounds(),
        fast_forwarded_rounds: out.fast_forwarded_rounds,
        mean_fill: match out.rounds() {
            0 => 0.0,
            rounds => out.round_fills.iter().sum::<usize>() as f64 / rounds as f64,
        },
        exec_ticks: out.exec_ticks,
        transfer_ticks: out.transfer_ticks,
        overlapped_ticks: out.overlapped_ticks,
        makespan_ticks: out.makespan_ticks,
        throughput_rps: per_s(n),
        latency_mean_s: to_secs(mean),
        latency_p50_s: to_secs(p50),
        latency_p99_s: to_secs(p99),
        latency_max_s: to_secs(max),
        latency_p99_completed_s: p99_completed.map(to_secs),
        overlap_fraction: out.overlap_fraction(),
        completed,
        retried: out.attempts.iter().filter(|&&a| a > 1).count(),
        timed_out: count(StreamStatus::TimedOut),
        shed: count(StreamStatus::Shed),
        failed: count(StreamStatus::Failed),
        transient_faults: out.transient_faults,
        dma_stalls: out.dma_stalls,
        corrupt_payloads: out.corrupt_payloads,
        goodput_rps: (completed > 0).then(|| per_s(completed)),
        fault_plan: opts.faults.label(),
        recovery: opts.recovery,
        online: opts.online.enabled(),
        online_policy: opts.online.clone(),
        backpressure_shed: out.backpressure_shed,
        early_closed_rounds: out.early_closed_rounds,
        // Last: the scheduler's per-request columns move in.
        traces: Traces::new((0..n).map(|k| stream.id(position(k))), arrivals, out),
    })
}

impl ServiceReport {
    /// Render as an aligned text table.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "served {} requests ({} arrivals, batch {}, capacity {}/round, overlap {}):\n",
            self.requests,
            self.arrival,
            self.policy,
            self.capacity,
            if self.overlap_dma { "on" } else { "off" },
        ));
        s.push_str(&format!(
            "  {} rounds ({} fast-forwarded), mean fill {:.2}\n",
            self.rounds, self.fast_forwarded_rounds, self.mean_fill,
        ));
        s.push_str(&format!(
            "  throughput {:.1} req/s over {:.4} s makespan\n",
            self.throughput_rps,
            to_secs(self.makespan_ticks),
        ));
        s.push_str(&format!(
            "  latency mean {:.4} s | p50 {:.4} s | p99 {:.4} s | max {:.4} s\n",
            self.latency_mean_s, self.latency_p50_s, self.latency_p99_s, self.latency_max_s,
        ));
        s.push_str(&format!(
            "  exec {:.4} s | transfers {:.4} s | overlap fraction {:.2}\n",
            to_secs(self.exec_ticks),
            to_secs(self.transfer_ticks),
            self.overlap_fraction,
        ));
        s.push_str(&format!(
            "  reliability {}/{} completed ({} retried, {} timed-out, {} shed, {} failed)\n",
            self.completed, self.requests, self.retried, self.timed_out, self.shed, self.failed,
        ));
        s.push_str(&format!(
            "  goodput {} req/s of {:.1} offered | p99 completed {} s\n",
            self.goodput_rps
                .map_or_else(|| "-".to_string(), |v| format!("{v:.1}")),
            self.throughput_rps,
            self.latency_p99_completed_s
                .map_or_else(|| "-".to_string(), |v| format!("{v:.4}")),
        ));
        if self.online_policy.armed() {
            s.push_str(&format!(
                "  online [{}]: {} early-closed rounds, {} backpressure-shed\n",
                self.online_policy, self.early_closed_rounds, self.backpressure_shed,
            ));
        }
        if self.fault_plan != "none" {
            s.push_str(&format!(
                "  faults [{}] policy [{}]: {} transient, {} stalls, {} corrupt\n",
                self.fault_plan,
                self.recovery,
                self.transient_faults,
                self.dma_stalls,
                self.corrupt_payloads,
            ));
        }
        s
    }

    /// Serialize as JSON: one buffer, reserved at `json_capacity`,
    /// filled by `write_json`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.json_capacity("") + 1);
        // Invariant: `fmt::Write` for a `String` never returns an error.
        self.write_json(&mut out, "")
            .expect("writing to a String cannot fail");
        out.push('\n');
        out
    }

    /// Upper bound on the bytes `write_json` appends behind `pad`, tight
    /// enough to reserve: the trace rows' bound plus a flat allowance
    /// for the header (0.8 KB of literals, 30 numbers, four policy
    /// labels, under 20 lines behind the pad).
    pub(crate) fn json_capacity(&self, pad: &str) -> usize {
        2_048
            + json::escaped_len(&self.fault_plan)
            + 20 * pad.len()
            + self.traces.json_capacity(pad)
    }

    /// Append the document — no trailing newline, every line after the
    /// first behind `pad` — to `out`. The trace loop does not allocate.
    pub(crate) fn write_json(&self, out: &mut String, pad: &str) -> fmt::Result {
        write!(
            out,
            "{{\n{pad}  \"requests\": {},\n{pad}  \"policy\": \"",
            self.requests
        )?;
        write!(
            out,
            "{}\",\n{pad}  \"arrival\": \"{}",
            self.policy, self.arrival
        )?;
        write!(
            out,
            "\",\n{pad}  \"capacity\": {},\n{pad}  \"overlap_dma\": {},\n{pad}  \"rounds\": {},\n\
             {pad}  \"fast_forwarded_rounds\": {},\n{pad}  \"mean_fill\": {:.4},\n\
             {pad}  \"throughput_rps\": {:.3},\n{pad}  \"makespan_s\": {:.6},\n\
             {pad}  \"latency\": {{\"mean_s\": {:.6}, \"p50_s\": {:.6}, \"p99_s\": {:.6}, \"max_s\": {:.6}}},\n\
             {pad}  \"dma\": {{\"exec_s\": {:.6}, \"transfer_s\": {:.6}, \"overlap_fraction\": {:.4}}},\n\
             {pad}  \"reliability\": {{\"completed\": {}, \"retried\": {}, \"timed_out\": {}, \
             \"shed\": {}, \"failed\": {}, \"goodput_rps\": ",
            self.capacity,
            self.overlap_dma,
            self.rounds,
            self.fast_forwarded_rounds,
            self.mean_fill,
            self.throughput_rps,
            to_secs(self.makespan_ticks),
            self.latency_mean_s,
            self.latency_p50_s,
            self.latency_p99_s,
            self.latency_max_s,
            to_secs(self.exec_ticks),
            to_secs(self.transfer_ticks),
            self.overlap_fraction,
            self.completed,
            self.retried,
            self.timed_out,
            self.shed,
            self.failed,
        )?;
        push_opt_fixed(out, self.goodput_rps, 3);
        write!(
            out,
            ", \"offered_rps\": {:.3}, \"p99_completed_s\": ",
            self.throughput_rps
        )?;
        push_opt_fixed(out, self.latency_p99_completed_s, 6);
        write!(out, "}},\n{pad}  \"faults\": {{\"plan\": \"")?;
        push_escaped(out, &self.fault_plan);
        out.push_str("\", \"policy\": \"");
        write!(out, "{}", self.recovery)?;
        writeln!(
            out,
            "\", \"transient\": {}, \"dma_stalls\": {}, \"corrupt\": {}}},",
            self.transient_faults, self.dma_stalls, self.corrupt_payloads
        )?;
        if self.online_policy.armed() {
            write!(out, "{pad}  \"online\": {{\"policy\": \"")?;
            write!(out, "{}", self.online_policy)?;
            out.push_str("\", \"slo_s\": ");
            push_opt_fixed(out, self.online_policy.slo_s, 6);
            match self.online_policy.shed_queue {
                Some(depth) => write!(out, ", \"shed_queue\": {depth}")?,
                None => out.push_str(", \"shed_queue\": null"),
            }
            writeln!(
                out,
                ", \"priority_tiers\": {}, \"early_closed_rounds\": {}, \
                 \"backpressure_shed\": {}}},",
                self.online_policy.priority_tiers, self.early_closed_rounds, self.backpressure_shed
            )?;
        }
        writeln!(out, "{pad}  \"traces\": [")?;
        self.traces.write_json(out, pad);
        write!(out, "{pad}  ]\n{pad}}}")
    }
}

impl Traces {
    /// A row of the report's `traces` array behind `pad`, closed by
    /// `end` after the outcome label.
    #[inline]
    fn json_row<S: Sink>(
        s: &mut S,
        pad: &str,
        [id, arrival, admitted, resolved, latency, attempts]: [u64; 6],
        outcome: &str,
        end: &str,
    ) {
        s.lit(pad);
        s.lit("    {\"id\": ");
        s.int(id);
        s.lit(", \"arrival_s\": ");
        s.secs6(arrival);
        s.lit(", \"admitted_s\": ");
        s.secs6(admitted);
        s.lit(", \"completed_s\": ");
        s.secs6(resolved);
        s.lit(", \"latency_s\": ");
        s.secs6(latency);
        s.lit(", \"attempts\": ");
        s.int(attempts);
        s.lit(", \"outcome\": \"");
        s.lit(outcome);
        s.lit(end);
    }

    /// Upper bound on the bytes [`Traces::write_json`] appends: every
    /// row as wide as the columns' maxima make one, plus the labels.
    fn json_capacity(&self, pad: &str) -> usize {
        let max = |column: &[Time]| column.iter().copied().max().unwrap_or(0);
        let resolved = max(&self.resolved);
        let last = self.len().saturating_sub(1);
        let widest = [
            self.ids.iter().copied().max().unwrap_or(last) as u64,
            max(&self.arrival),
            max(&self.admitted),
            resolved,
            resolved,
            self.attempts.iter().copied().max().unwrap_or(0).into(),
        ];
        let row = json::width(|w| Traces::json_row(w, pad, widest, "", "\"},\n"));
        let labels = self.statuses.iter().map(|s| s.label().len());
        self.len() * row + labels.sum::<usize>()
    }

    /// Append the rows of the `traces` array, in id order, each behind
    /// `pad`. Does not allocate.
    fn write_json(&self, out: &mut String, pad: &str) {
        let mut line = Line::new(out);
        for i in 0..self.len() {
            let p = self.position(i);
            let (arrival, resolved) = (self.arrival[p], self.resolved[p]);
            let values = [
                self.id(p) as u64,
                arrival,
                self.admitted[p],
                resolved,
                resolved.saturating_sub(arrival),
                self.attempts[p].into(),
            ];
            let end = if i + 1 == self.len() {
                "\"}\n"
            } else {
                "\"},\n"
            };
            Traces::json_row(&mut line, pad, values, self.statuses[p].label(), end);
            line.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgen::{build_kernel, CodegenOptions};
    use pschedule::{KernelModel, Schedule};
    use sysgen::Platform;
    use teil::layout::LayoutPlan;
    use teil::lower::lower;
    use teil::transform::factorize;

    pub(crate) fn design(ks: Vec<usize>, m: usize, latencies: &[u64]) -> MultiSystemDesign {
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
            bytes_in_per_element: 1331 * 8,
            bytes_out_per_element: 1331 * 8,
            handoff_bytes_per_element: 0,
        };
        MultiSystemDesign::build(&platform, &stages, &memory, cfg, host).unwrap()
    }

    fn timing_opts(batch: BatchPolicy, overlap: bool) -> RuntimeOptions {
        RuntimeOptions {
            batch,
            overlap_dma: overlap,
            execute: false,
            ..Default::default()
        }
    }

    pub(crate) fn timing_requests(n: usize) -> Vec<Request> {
        (0..n)
            .map(|id| Request {
                id,
                arrival_s: 0.0,
                tier: 0,
                inputs: HashMap::new(),
            })
            .collect()
    }

    #[test]
    fn batching_multiplies_throughput_over_disabled() {
        let d = design(vec![2], 8, &[200_000]);
        let reqs = timing_requests(64);
        let auto = serve(
            &d,
            &[],
            &[],
            &[],
            &reqs,
            &timing_opts(BatchPolicy::Auto, false),
        )
        .unwrap();
        let seq = serve(
            &d,
            &[],
            &[],
            &[],
            &reqs,
            &timing_opts(BatchPolicy::Disabled, false),
        )
        .unwrap();
        let speedup = auto.report.throughput_rps / seq.report.throughput_rps;
        assert!((speedup - 8.0).abs() < 1e-9, "speedup {speedup}");
        assert_eq!(auto.report.rounds, 8);
        assert_eq!(seq.report.rounds, 64);
        assert!(seq.report.fast_forwarded_rounds > 0);
    }

    #[test]
    fn fixed_policy_caps_fill_and_clamps() {
        let d = design(vec![2], 8, &[200_000]);
        let reqs = timing_requests(16);
        let two = serve(
            &d,
            &[],
            &[],
            &[],
            &reqs,
            &timing_opts(BatchPolicy::Fixed(2), false),
        )
        .unwrap();
        assert_eq!(two.report.rounds, 8);
        assert_eq!(two.report.capacity, 2);
        let big = serve(
            &d,
            &[],
            &[],
            &[],
            &reqs,
            &timing_opts(BatchPolicy::Fixed(512), false),
        )
        .unwrap();
        assert_eq!(big.report.capacity, 8, "clamped to m");
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let d = design(vec![2, 2], 4, &[100_000, 200_000]);
        let reqs = timing_requests(33);
        let r = serve(
            &d,
            &[],
            &[],
            &[],
            &reqs,
            &timing_opts(BatchPolicy::Auto, true),
        )
        .unwrap()
        .report;
        assert!(r.latency_p50_s <= r.latency_p99_s);
        assert!(r.latency_p99_s <= r.latency_max_s);
        assert!(r.latency_mean_s > 0.0);
        for t in &r.traces {
            assert!((t.latency_s - (t.completed_s - t.arrival_s)).abs() < 1e-12);
            assert!(t.admitted_s >= t.arrival_s);
        }
    }

    #[test]
    fn poisson_arrivals_are_sorted_and_deterministic() {
        let src = cfdlang::examples::axpy(3);
        let typed = cfdlang::check(&cfdlang::parse(&src).unwrap()).unwrap();
        let module = factorize(&lower(&typed).unwrap());
        let modules = vec![&module];
        let a = generate_requests(&modules, 16, &Arrival::Poisson { rate_rps: 100.0 }, 7).unwrap();
        let b = generate_requests(&modules, 16, &Arrival::Poisson { rate_rps: 100.0 }, 7).unwrap();
        assert_eq!(a.len(), 16);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_s, y.arrival_s);
        }
        assert!(a.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert!(a.last().unwrap().arrival_s > 0.0);
        // Different seeds change both inputs and arrivals.
        let c = generate_requests(&modules, 16, &Arrival::Poisson { rate_rps: 100.0 }, 8).unwrap();
        assert!(c[5].arrival_s != a[5].arrival_s);
        // The timing-only stream is arrival-identical (and tensor-free).
        let t = generate_timing_requests(16, &Arrival::Poisson { rate_rps: 100.0 }, 7).unwrap();
        for (x, y) in a.iter().zip(&t) {
            assert_eq!(x.arrival_s, y.arrival_s);
        }
        assert!(t.iter().all(|r| r.inputs.is_empty()));
    }

    /// The one stage of `axpy(3)`, lowered, factorised and generated
    /// under the reference schedule: a program small enough to execute.
    pub(crate) fn axpy_stage() -> (Module, cgen::CKernel) {
        let src = cfdlang::examples::axpy(3);
        let typed = cfdlang::check(&cfdlang::parse(&src).unwrap()).unwrap();
        let module = factorize(&lower(&typed).unwrap());
        let layout = LayoutPlan::row_major(&module);
        let km = KernelModel::build(&module, &layout);
        let sched = Schedule::reference(&km);
        let kernel = build_kernel(&module, &km, &sched, &CodegenOptions::default());
        (module, kernel)
    }

    #[test]
    fn executed_outputs_match_standalone_chain() {
        let (module, kernel) = axpy_stage();
        let names = vec!["main".to_string()];
        let modules = vec![&module];
        let kernels = vec![&kernel];
        let d = design(vec![2], 4, &[100_000]);
        let reqs = generate_requests(&modules, 5, &Arrival::Closed, 3).unwrap();
        let opts = RuntimeOptions {
            execute: true,
            ..Default::default()
        };
        let out = serve(&d, &names, &modules, &kernels, &reqs, &opts).unwrap();
        assert_eq!(out.outputs.len(), 5);
        for (req, got) in reqs.iter().zip(&out.outputs) {
            let solo = zynq::run_program_chain(&names, &modules, &kernels, &req.inputs).unwrap();
            assert_eq!(&solo, got, "request {} diverged", req.id);
        }
    }

    #[test]
    fn policy_and_arrival_parsing() {
        assert_eq!(BatchPolicy::parse("auto"), Ok(BatchPolicy::Auto));
        assert_eq!(BatchPolicy::parse("off"), Ok(BatchPolicy::Disabled));
        assert_eq!(BatchPolicy::parse("4"), Ok(BatchPolicy::Fixed(4)));
        assert!(BatchPolicy::parse("0").is_err());
        assert!(BatchPolicy::parse("huge?").is_err());
        assert!(Arrival::parse("closed", 0.0).is_ok());
        assert!(Arrival::parse("poisson", 50.0).is_ok());
        assert!(Arrival::parse("poisson", 0.0).is_err());
        assert!(Arrival::parse("poisson", f64::NAN).is_err());
        assert!(Arrival::parse("poisson", f64::INFINITY).is_err());
        assert!(Arrival::parse("burst", 1.0).is_err());
    }

    #[test]
    fn backoff_cap_is_sixteen_times_the_base() {
        let policy = RecoveryPolicy {
            max_retries: 5,
            backoff_s: 1e-3,
            deadline_s: Some(0.5),
        };
        let spec = policy.to_spec();
        assert_eq!(spec.max_retries, 5);
        assert_eq!(spec.backoff_ticks, secs(1e-3));
        assert_eq!(spec.backoff_cap_ticks, 16 * secs(1e-3));
        assert_eq!(spec.deadline_ticks, Some(secs(0.5)));
        assert_eq!(spec.backoff_after(5), 16 * secs(1e-3));
        assert_eq!(spec.backoff_after(10), 16 * secs(1e-3));
        // A zero base requeues immediately at every attempt.
        let spec = RecoveryPolicy::default().to_spec();
        assert_eq!((spec.backoff_ticks, spec.backoff_cap_ticks), (0, 0));
        assert_eq!(spec.backoff_after(3), 0);
    }

    #[test]
    fn degenerate_poisson_rates_are_structured_errors() {
        // A zero or non-finite rate used to produce inf/NaN arrival
        // times (the -ln(1-u)/rate draw) that poisoned the schedule.
        for rate in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let arrival = Arrival::Poisson { rate_rps: rate };
            let timing = generate_timing_requests(8, &arrival, 1);
            match timing {
                Err(RuntimeError::InvalidRate { rate_rps }) => {
                    assert!(rate_rps.is_nan() == rate.is_nan() || rate_rps == rate)
                }
                other => panic!("rate {rate}: expected InvalidRate, got {other:?}"),
            }
            let full = generate_requests(&[], 8, &arrival, 1);
            assert!(
                matches!(full, Err(RuntimeError::InvalidRate { .. })),
                "rate {rate}: generate_requests must reject too"
            );
        }
        // The error renders a one-line diagnosis for the CLI.
        let msg = RuntimeError::InvalidRate { rate_rps: 0.0 }.to_string();
        assert!(msg.contains("positive finite rate"), "{msg}");
    }

    #[test]
    fn serving_times_past_the_clock_are_structured_errors() {
        let d = design(vec![2], 8, &[200_000]);
        let fleet = [crate::FleetBoard::healthy(d.clone())];
        let late = |s: f64| {
            let mut reqs = timing_requests(4);
            reqs[2].arrival_s = s;
            reqs
        };
        let mut backoff = RuntimeOptions::default();
        backoff.recovery.backoff_s = 1e300;
        let mut cap = RuntimeOptions::default();
        cap.recovery.backoff_s = 1.5e6;
        let mut deadline = RuntimeOptions::default();
        deadline.recovery.deadline_s = Some(1e9);
        let mut slo = RuntimeOptions::default();
        slo.online.slo_s = Some(-1.0);
        let cases = [
            (late(1e9), RuntimeOptions::default(), "arrival", 1e9),
            (
                late(f64::NAN),
                RuntimeOptions::default(),
                "arrival",
                f64::NAN,
            ),
            (timing_requests(4), backoff, "backoff", 1e300),
            (timing_requests(4), cap, "backoff cap", 2.4e7),
            (timing_requests(4), deadline, "deadline", 1e9),
            (timing_requests(4), slo, "SLO", -1.0),
        ];
        for (reqs, opts, what, seconds) in cases {
            let want = RuntimeError::TimeOutOfRange { what, seconds };
            let served = serve(&d, &[], &[], &[], &reqs, &opts).map(|_| ());
            let base = FleetOptions {
                base: opts,
                ..FleetOptions::default()
            };
            let fleet_served = serve_fleet(&fleet, &[], &[], &[], &reqs, &base).map(|_| ());
            for got in [served, fleet_served] {
                match got {
                    Err(RuntimeError::TimeOutOfRange {
                        what: w,
                        seconds: s,
                    }) if w == what && s.total_cmp(&seconds).is_eq() => {}
                    other => panic!("{what}: expected {want:?}, got {other:?}"),
                }
            }
        }
        // Times near the end of the clock are served.
        let mut fits = RuntimeOptions::default();
        fits.recovery.backoff_s = 1.1e6;
        fits.recovery.deadline_s = Some(1.8e7);
        assert!(serve(&d, &[], &[], &[], &timing_requests(4), &fits).is_ok());
        let opts = RuntimeOptions::default();
        assert!(serve(&d, &[], &[], &[], &late(1.8e7), &opts).is_ok());
        let msg = RuntimeError::TimeOutOfRange {
            what: "arrival",
            seconds: 1e9,
        }
        .to_string();
        assert_eq!(
            msg,
            "arrival of 1e9 s does not fit the picosecond clock (0 to 18446744 s)"
        );
    }

    #[test]
    fn empty_fault_plan_serve_is_bit_identical_to_default() {
        // A FaultPlan with a seed but no armed classes is "empty": the
        // report (and its JSON bytes) must match the default serve
        // under every batch policy.
        let d = design(vec![2, 2], 4, &[100_000, 200_000]);
        let reqs = timing_requests(24);
        for batch in [
            BatchPolicy::Auto,
            BatchPolicy::Fixed(2),
            BatchPolicy::Disabled,
        ] {
            for overlap in [false, true] {
                let base = timing_opts(batch, overlap);
                let with_plan = RuntimeOptions {
                    faults: zynq::FaultPlan {
                        seed: 99,
                        ..zynq::FaultPlan::none()
                    },
                    ..base.clone()
                };
                let a = serve(&d, &[], &[], &[], &reqs, &base).unwrap().report;
                let b = serve(&d, &[], &[], &[], &reqs, &with_plan).unwrap().report;
                assert_eq!(a, b);
                assert_eq!(a.to_json(), b.to_json(), "JSON bytes must match");
                assert_eq!(a.completed, 24);
                assert_eq!(a.failed + a.shed + a.timed_out + a.retried, 0);
                assert_eq!(a.goodput_rps, Some(a.throughput_rps));
            }
        }
    }

    #[test]
    fn faulty_serve_reports_reliability_and_replays_byte_identically() {
        let d = design(vec![2], 8, &[200_000]);
        let reqs = timing_requests(64);
        let opts = RuntimeOptions {
            faults: zynq::FaultPlan::transient(7, 0.2),
            recovery: RecoveryPolicy {
                max_retries: 6,
                ..RecoveryPolicy::default()
            },
            ..timing_opts(BatchPolicy::Auto, true)
        };
        let a = serve(&d, &[], &[], &[], &reqs, &opts).unwrap().report;
        let b = serve(&d, &[], &[], &[], &reqs, &opts).unwrap().report;
        assert_eq!(a.to_json(), b.to_json(), "replay must be byte-identical");
        assert_eq!(a.completed, 64, "enough retries to absorb 20% faults");
        assert!(a.retried > 0, "some rounds must have failed");
        assert!(a.transient_faults > 0);
        assert!(a.goodput_rps.unwrap() <= a.throughput_rps);
        assert!(a.fault_plan.contains("transient=0.2"));
        let json = a.to_json();
        for key in [
            "\"reliability\"",
            "\"goodput_rps\"",
            "\"p99_completed_s\"",
            "\"faults\"",
            "\"outcome\"",
            "\"attempts\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(a.render_table().contains("reliability"));
        assert!(a.render_table().contains("faults ["));
    }

    #[test]
    fn failed_requests_get_structured_outcomes_and_empty_outputs() {
        let (module, kernel) = axpy_stage();
        let names = vec!["main".to_string()];
        let modules = vec![&module];
        let kernels = vec![&kernel];
        let d = design(vec![2], 4, &[100_000]);
        let reqs = generate_requests(&modules, 6, &Arrival::Closed, 3).unwrap();
        let opts = RuntimeOptions {
            execute: true,
            // Every attempt corrupts: everything fails after the cap.
            faults: zynq::FaultPlan {
                corrupt_rate: 1.0,
                ..zynq::FaultPlan::none()
            },
            recovery: RecoveryPolicy {
                max_retries: 1,
                ..RecoveryPolicy::default()
            },
            ..Default::default()
        };
        let out = serve(&d, &names, &modules, &kernels, &reqs, &opts).unwrap();
        assert_eq!(out.report.failed, 6);
        assert_eq!(out.report.completed, 0);
        assert_eq!(out.report.goodput_rps, None);
        assert_eq!(out.report.latency_p99_completed_s, None);
        for t in &out.report.traces {
            assert_eq!(t.outcome, StreamStatus::Failed);
            assert_eq!(t.attempts, 2);
        }
        assert_eq!(out.outputs.len(), 6);
        assert!(out.outputs.iter().all(|o| o.is_empty()));
    }

    #[test]
    fn total_outage_pins_the_empty_completed_set_semantics() {
        // Board dies at t=0, never recovers: zero requests complete, so
        // the completed-set metrics have no value — `null` in JSON and
        // `-` in tables, never a misleading 0.
        let d = design(vec![2], 4, &[100_000]);
        let reqs = timing_requests(8);
        let opts = RuntimeOptions {
            faults: zynq::FaultPlan {
                outage: Some(zynq::Outage {
                    fail_at: 0,
                    recover_at: None,
                }),
                ..zynq::FaultPlan::none()
            },
            ..timing_opts(BatchPolicy::Auto, true)
        };
        let r = serve(&d, &[], &[], &[], &reqs, &opts).unwrap().report;
        assert_eq!(r.completed, 0);
        assert_eq!(r.shed, 8);
        assert_eq!(r.goodput_rps, None);
        assert_eq!(r.latency_p99_completed_s, None);
        let j = r.to_json();
        json::validate(&j).unwrap();
        assert!(j.contains("\"goodput_rps\": null"), "{j}");
        assert!(j.contains("\"p99_completed_s\": null"), "{j}");
        let t = r.render_table();
        assert!(t.contains("goodput - req/s"), "{t}");
        assert!(t.contains("p99 completed - s"), "{t}");
    }

    #[test]
    fn bare_event_loop_report_is_byte_identical_to_offline() {
        // `--online` with no policy armed must not perturb a single
        // byte of the report (the integration proptests randomize this
        // further; this pins the plumbing).
        let d = design(vec![2, 2], 4, &[100_000, 200_000]);
        let reqs = generate_timing_requests(24, &Arrival::Poisson { rate_rps: 900.0 }, 5).unwrap();
        for batch in [
            BatchPolicy::Auto,
            BatchPolicy::Fixed(2),
            BatchPolicy::Disabled,
        ] {
            for overlap in [false, true] {
                let base = timing_opts(batch, overlap);
                let online = RuntimeOptions {
                    online: OnlinePolicy {
                        event_loop: true,
                        ..OnlinePolicy::default()
                    },
                    ..base.clone()
                };
                let a = serve(&d, &[], &[], &[], &reqs, &base).unwrap().report;
                let b = serve(&d, &[], &[], &[], &reqs, &online).unwrap().report;
                assert!(b.online && !a.online);
                assert_eq!(a.to_json(), b.to_json(), "bytes diverged");
                assert_eq!(a.makespan_ticks, b.makespan_ticks);
                assert_eq!(a.fast_forwarded_rounds, b.fast_forwarded_rounds);
            }
        }
    }

    #[test]
    fn armed_online_policies_reach_the_report_surfaces() {
        let d = design(vec![2], 8, &[200_000]);
        let mut reqs = timing_requests(32);
        for r in &mut reqs {
            r.tier = (r.id % 2) as u8;
        }
        let opts = RuntimeOptions {
            online: OnlinePolicy {
                event_loop: true,
                slo_s: Some(0.005),
                shed_queue: Some(16),
                priority_tiers: 2,
            },
            ..timing_opts(BatchPolicy::Auto, true)
        };
        let r = serve(&d, &[], &[], &[], &reqs, &opts).unwrap().report;
        let j = r.to_json();
        json::validate(&j).unwrap();
        assert!(j.contains("\"online\""), "{j}");
        assert!(j.contains("\"priority_tiers\": 2"), "{j}");
        assert!(r.render_table().contains("online ["));
        assert!(r.backpressure_shed > 0, "32 arrivals into a 16-deep queue");
        // Every completed request made its SLO.
        for t in &r.traces {
            if t.outcome == StreamStatus::Completed {
                assert!(t.latency_s <= 0.005 + 1e-12);
            }
        }
    }

    #[test]
    fn report_json_has_the_service_keys() {
        let d = design(vec![2], 4, &[100_000]);
        let reqs = timing_requests(6);
        let r = serve(
            &d,
            &[],
            &[],
            &[],
            &reqs,
            &timing_opts(BatchPolicy::Auto, true),
        )
        .unwrap()
        .report;
        let j = r.to_json();
        for key in [
            "\"throughput_rps\"",
            "\"latency\"",
            "\"p99_s\"",
            "\"overlap_fraction\"",
            "\"traces\"",
            "\"fast_forwarded_rounds\"",
            "\"reliability\"",
            "\"goodput_rps\"",
            "\"outcome\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(r.render_table().contains("req/s"));
    }

    impl ServiceReport {
        /// The emitter `to_json` replaced, verbatim: one `format!` per
        /// line. What the streaming writer must reproduce byte for byte.
        pub(crate) fn to_json_reference(&self) -> String {
            let mut s = String::new();
            s.push_str("{\n");
            s.push_str(&format!("  \"requests\": {},\n", self.requests));
            s.push_str(&format!(
                "  \"policy\": \"{}\",\n",
                json_escape(&self.policy.to_string())
            ));
            s.push_str(&format!(
                "  \"arrival\": \"{}\",\n",
                json_escape(&self.arrival.to_string())
            ));
            s.push_str(&format!("  \"capacity\": {},\n", self.capacity));
            s.push_str(&format!("  \"overlap_dma\": {},\n", self.overlap_dma));
            s.push_str(&format!("  \"rounds\": {},\n", self.rounds));
            s.push_str(&format!(
                "  \"fast_forwarded_rounds\": {},\n",
                self.fast_forwarded_rounds
            ));
            s.push_str(&format!("  \"mean_fill\": {:.4},\n", self.mean_fill));
            s.push_str(&format!(
                "  \"throughput_rps\": {:.3},\n",
                self.throughput_rps
            ));
            s.push_str(&format!(
                "  \"makespan_s\": {:.6},\n",
                to_secs(self.makespan_ticks)
            ));
            s.push_str(&format!(
                "  \"latency\": {{\"mean_s\": {:.6}, \"p50_s\": {:.6}, \"p99_s\": {:.6}, \"max_s\": {:.6}}},\n",
                self.latency_mean_s, self.latency_p50_s, self.latency_p99_s, self.latency_max_s
            ));
            s.push_str(&format!(
                "  \"dma\": {{\"exec_s\": {:.6}, \"transfer_s\": {:.6}, \"overlap_fraction\": {:.4}}},\n",
                to_secs(self.exec_ticks),
                to_secs(self.transfer_ticks),
                self.overlap_fraction
            ));
            s.push_str(&format!(
                "  \"reliability\": {{\"completed\": {}, \"retried\": {}, \"timed_out\": {}, \
                 \"shed\": {}, \"failed\": {}, \"goodput_rps\": {}, \"offered_rps\": {:.3}, \
                 \"p99_completed_s\": {}}},\n",
                self.completed,
                self.retried,
                self.timed_out,
                self.shed,
                self.failed,
                self.goodput_rps
                    .map_or_else(|| "null".to_string(), |v| format!("{v:.3}")),
                self.throughput_rps,
                self.latency_p99_completed_s
                    .map_or_else(|| "null".to_string(), |v| format!("{v:.6}"))
            ));
            s.push_str(&format!(
                "  \"faults\": {{\"plan\": \"{}\", \"policy\": \"{}\", \"transient\": {}, \
                 \"dma_stalls\": {}, \"corrupt\": {}}},\n",
                json_escape(&self.fault_plan),
                json_escape(&self.recovery.to_string()),
                self.transient_faults,
                self.dma_stalls,
                self.corrupt_payloads
            ));
            if self.online_policy.armed() {
                s.push_str(&format!(
                    "  \"online\": {{\"policy\": \"{}\", \"slo_s\": {}, \"shed_queue\": {}, \
                     \"priority_tiers\": {}, \"early_closed_rounds\": {}, \
                     \"backpressure_shed\": {}}},\n",
                    json_escape(&self.online_policy.to_string()),
                    self.online_policy
                        .slo_s
                        .map_or_else(|| "null".to_string(), |v| format!("{v:.6}")),
                    self.online_policy
                        .shed_queue
                        .map_or_else(|| "null".to_string(), |v| v.to_string()),
                    self.online_policy.priority_tiers,
                    self.early_closed_rounds,
                    self.backpressure_shed
                ));
            }
            s.push_str("  \"traces\": [\n");
            for (i, t) in self.traces.iter().enumerate() {
                s.push_str(&format!(
                    "    {{\"id\": {}, \"arrival_s\": {:.6}, \"admitted_s\": {:.6}, \
                     \"completed_s\": {:.6}, \"latency_s\": {:.6}, \"attempts\": {}, \
                     \"outcome\": \"{}\"}}{}\n",
                    t.id,
                    t.arrival_s,
                    t.admitted_s,
                    t.completed_s,
                    t.latency_s,
                    t.attempts,
                    t.outcome.label(),
                    if i + 1 == self.traces.len() { "" } else { "," },
                ));
            }
            s.push_str("  ]\n}\n");
            s
        }
    }

    /// A report with every field drawn from `seed`: hostile labels,
    /// every outcome, `None`/`Some` options, armed or bare online
    /// policy (`seed` odd or even), `traces` rows.
    pub(crate) fn generated_report(seed: u64, traces_len: usize) -> ServiceReport {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut count = |below: u64| (rng.next_u64() % below) as usize;
        let statuses = [
            StreamStatus::Completed,
            StreamStatus::TimedOut,
            StreamStatus::Shed,
            StreamStatus::Failed,
        ];
        let mut traces = Traces::default();
        for i in 0..traces_len {
            let arrival = count(1 << 40) as u64;
            let admitted = arrival + count(1 << 36) as u64;
            traces.ids.push(i * (1 + seed as usize % 3));
            traces.arrival.push(arrival);
            traces.admitted.push(admitted);
            traces.resolved.push(admitted + count(1 << 44) as u64);
            traces.attempts.push(count(5) as u32);
            let status = if seed.is_multiple_of(4) { 0 } else { count(4) };
            traces.statuses.push(statuses[status]);
        }
        let armed = seed % 2 == 1;
        ServiceReport {
            requests: traces_len,
            policy: [
                BatchPolicy::Auto,
                BatchPolicy::Fixed(3),
                BatchPolicy::Disabled,
            ][count(3)],
            arrival: [Arrival::Closed, Arrival::Poisson { rate_rps: 1234.56 }][count(2)],
            capacity: count(64),
            overlap_dma: count(2) == 0,
            rounds: count(1 << 20),
            fast_forwarded_rounds: count(1 << 20),
            mean_fill: count(1 << 20) as f64 / 1024.0,
            exec_ticks: count(1 << 50) as u64,
            transfer_ticks: count(1 << 50) as u64,
            overlapped_ticks: 0,
            makespan_ticks: count(1 << 50) as u64,
            throughput_rps: count(1 << 40) as f64 / 128.0,
            latency_mean_s: to_secs(count(1 << 44) as u64),
            latency_p50_s: to_secs(count(1 << 44) as u64),
            latency_p99_s: to_secs(count(1 << 44) as u64),
            latency_max_s: to_secs(count(1 << 44) as u64),
            latency_p99_completed_s: (!seed.is_multiple_of(3))
                .then(|| to_secs(count(1 << 44) as u64)),
            overlap_fraction: count(1 << 20) as f64 / (1 << 20) as f64,
            completed: count(1 << 30),
            retried: count(1 << 30),
            timed_out: count(100),
            shed: count(100),
            failed: count(100),
            transient_faults: count(100),
            dma_stalls: count(100),
            corrupt_payloads: count(100),
            goodput_rps: (!seed.is_multiple_of(3)).then(|| count(1 << 40) as f64 / 64.0),
            fault_plan: ["none", "seed=7,\"fail\"@1\\2\n\t\r\u{1}\u{1f}é"][count(2)].into(),
            recovery: RecoveryPolicy {
                backoff_s: 0.5 * count(2) as f64,
                deadline_s: (count(2) == 0).then_some(0.25),
                ..RecoveryPolicy::default()
            },
            online: armed,
            online_policy: OnlinePolicy {
                event_loop: armed,
                slo_s: (armed && count(2) == 0).then_some(0.006),
                shed_queue: (armed && count(2) == 0).then_some(64),
                priority_tiers: if armed { 3 } else { 1 },
            },
            backpressure_shed: count(100),
            early_closed_rounds: count(100),
            traces,
        }
    }

    /// Put the rows of `traces` on the edges of `secs6`, row by row in
    /// turn: one column on a decimal tie (`t % 10^6 == 500 000`), every
    /// column past the `2^51` ticks where it hands over to the float, or
    /// both, so that every column — arrival, admitted, completed and
    /// latency — meets each. The last kind sits one tick past a tie near
    /// `2^60`, where the float has lost that tick and the exact digits
    /// would round the other way. A report sizes every row by its
    /// widest, so the large reports of the capacity tests are left as
    /// drawn.
    pub(crate) fn onto_secs6_edges(traces: &mut Traces) {
        const WIDE: Time = 1 << 51;
        let tie = |t: Time| t.div_ceil(1_000_000) * 1_000_000 + 500_000;
        for p in 0..traces.len() {
            let a = &mut traces.arrival[p];
            let b = &mut traces.admitted[p];
            let c = &mut traces.resolved[p];
            match p % 10 {
                0 => *a = tie(*a),
                1 => *b = tie(*b),
                2 => *c = tie(*c),
                3 => *c = *a + tie(*c - *a),
                4 => (*a, *b, *c) = (*a + WIDE, *b + WIDE, *c + WIDE),
                5 => *c += WIDE,
                6 => (*a, *b, *c) = (tie(*a + WIDE), *b + WIDE, tie(*c + 2 * WIDE)),
                7 => (*a, *b, *c) = (*a + WIDE, tie(*b + WIDE), *c + WIDE),
                8 => *c = *a + tie(*c - *a + WIDE),
                _ => *c = *a + tie(*c + (1 << 60)) + 1,
            }
            *b = (*b).max(*a);
            *c = (*c).max(*b);
        }
    }

    #[test]
    fn streaming_writer_reproduces_the_reference_emitter() {
        for seed in 0..48 {
            let mut r = generated_report(seed, [0, 1, 2, 37][seed as usize % 4]);
            if seed % 8 >= 4 {
                onto_secs6_edges(&mut r.traces);
            }
            let json = r.to_json();
            assert_eq!(json, r.to_json_reference(), "seed {seed}");
            json::validate(&json).unwrap();
            assert_eq!(json.capacity(), r.json_capacity("") + 1, "seed {seed}");
        }
    }

    #[test]
    fn json_capacity_is_a_tight_upper_bound_on_a_large_report() {
        for seed in [0, 1, 2] {
            let json = generated_report(seed, 10_000).to_json();
            assert!(json.capacity() as f64 <= 1.05 * json.len() as f64);
        }
    }

    /// 65 536 Poisson arrivals at overload under an SLO, a bounded
    /// queue, three tiers and a 5 % fault plan: every outcome occurs,
    /// and the reserved buffer is never outgrown and barely oversized.
    #[test]
    fn json_capacity_holds_on_a_65536_row_online_report_with_mixed_outcomes() {
        let d = design(vec![2], 8, &[200_000]);
        let n = 65_536;
        let mut reqs =
            generate_timing_requests(n, &Arrival::Poisson { rate_rps: 2_600.0 }, 11).unwrap();
        for r in &mut reqs {
            r.tier = (r.id % 3) as u8;
        }
        let opts = RuntimeOptions {
            faults: FaultPlan {
                seed: 5,
                transient_rate: 0.05,
                corrupt_rate: 0.3,
                ..FaultPlan::none()
            },
            recovery: RecoveryPolicy {
                max_retries: 1,
                ..RecoveryPolicy::default()
            },
            online: OnlinePolicy {
                event_loop: true,
                slo_s: Some(0.010),
                shed_queue: Some(10),
                priority_tiers: 3,
            },
            ..timing_opts(BatchPolicy::Auto, true)
        };
        let r = serve(&d, &[], &[], &[], &reqs, &opts).unwrap().report;
        for outcomes in [r.completed, r.timed_out, r.shed, r.failed, r.retried] {
            assert!(outcomes > 0, "{}", r.render_table());
        }
        let json = r.to_json();
        assert_eq!(json.capacity(), r.json_capacity("") + 1, "the buffer grew");
        // Rows are sized by the widest: a 25 s run pays a byte per time
        // for every row of its first ten seconds.
        assert!(json.capacity() as f64 <= 1.02 * json.len() as f64);
        assert_eq!(json.matches("\"outcome\"").count(), n);
        json::validate(&json).unwrap();
    }

    /// The trace list `serve` built before the tick store, verbatim:
    /// one `RequestTrace` of float seconds per request in admission
    /// order, sorted by id. What [`Traces`] must hand out.
    pub(crate) fn traces_reference(
        design: &MultiSystemDesign,
        requests: &[Request],
        opts: &RuntimeOptions,
    ) -> Vec<RequestTrace> {
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by(|&a, &b| {
            requests[a]
                .arrival_s
                .total_cmp(&requests[b].arrival_s)
                .then(requests[a].id.cmp(&requests[b].id))
        });
        let arrivals: Vec<Time> = order.iter().map(|&i| secs(requests[i].arrival_s)).collect();
        let tiered = opts.online.priority_tiers > 1 && requests.iter().any(|r| r.tier != 0);
        let tiers = if tiered {
            order.iter().map(|&i| requests[i].tier).collect()
        } else {
            Vec::new()
        };
        let out = zynq::simulate_online_stream(
            design,
            &SimConfig::default(),
            &arrivals,
            opts.batch.capacity(design.config.m),
            opts.overlap_dma && opts.batch != BatchPolicy::Disabled,
            &opts.faults,
            &opts.recovery.to_spec(),
            &zynq::OnlineSpec {
                slo_ticks: opts.online.slo_s.map(secs),
                max_queue: opts.online.shed_queue,
                tiers,
            },
        );
        let mut traces: Vec<RequestTrace> = order
            .iter()
            .enumerate()
            .map(|(pos, &i)| {
                let arrival = arrivals[pos];
                let resolved = out.completion_ticks[pos];
                RequestTrace {
                    id: requests[i].id,
                    arrival_s: to_secs(arrival),
                    admitted_s: to_secs(out.admitted_ticks[pos]),
                    completed_s: to_secs(resolved),
                    latency_s: to_secs(resolved.saturating_sub(arrival)),
                    attempts: out.attempts[pos],
                    outcome: out.statuses[pos],
                }
            })
            .collect();
        traces.sort_by_key(|t| t.id);
        traces
    }

    /// `n` timing-only requests drawn from `seed`: shuffled ids with
    /// gaps, Poisson or closed arrivals handed over out of order, tiers.
    pub(crate) fn shuffled_requests(seed: u64, n: usize) -> Vec<Request> {
        let mut rng = StdRng::seed_from_u64(seed);
        let arrival = [Arrival::Closed, Arrival::Poisson { rate_rps: 2e4 }][seed as usize % 2];
        let mut reqs = generate_timing_requests(n, &arrival, seed).unwrap();
        // Ids at random against the arrivals, then the caller's order at
        // random against both.
        for k in (1..n).rev() {
            let j = (rng.next_u64() % (k as u64 + 1)) as usize;
            let (a, b) = (reqs[k].id, reqs[j].id);
            (reqs[k].id, reqs[j].id) = (b, a);
        }
        for k in (1..n).rev() {
            reqs.swap(k, (rng.next_u64() % (k as u64 + 1)) as usize);
        }
        for r in &mut reqs {
            r.id = 3 * r.id + 1;
            r.tier = (rng.next_u64() % 3) as u8;
        }
        reqs
    }

    /// Serving options drawn from `seed`: every batch policy, faults,
    /// retries, deadlines and online policies, armed or not.
    pub(crate) fn generated_options(seed: u64) -> RuntimeOptions {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0F_F1CE);
        let mut pick = |below: u64| rng.next_u64() % below;
        let online = pick(2) == 0;
        RuntimeOptions {
            batch: [
                BatchPolicy::Auto,
                BatchPolicy::Fixed(3),
                BatchPolicy::Disabled,
            ][pick(3) as usize],
            overlap_dma: pick(2) == 0,
            faults: FaultPlan {
                seed,
                transient_rate: [0.0, 0.15][pick(2) as usize],
                corrupt_rate: [0.0, 0.2][pick(2) as usize],
                ..FaultPlan::none()
            },
            recovery: RecoveryPolicy {
                max_retries: pick(3) as u32,
                deadline_s: (pick(3) == 0).then_some(0.004),
                ..RecoveryPolicy::default()
            },
            online: OnlinePolicy {
                event_loop: online,
                slo_s: (online && pick(2) == 0).then_some(0.003),
                shed_queue: (online && pick(2) == 0).then_some(24),
                priority_tiers: if online { 1 + pick(3) as u8 } else { 1 },
            },
            ..Default::default()
        }
    }

    #[test]
    fn traces_hand_out_the_reference_list_on_generated_runs() {
        let d = design(vec![2, 2], 4, &[100_000, 200_000]);
        let (mut permuted, mut unresolved) = (0, 0);
        for seed in 0..96 {
            let reqs = shuffled_requests(seed, 1 + (seed as usize * 7) % 150);
            let opts = generated_options(seed);
            let report = serve(&d, &[], &[], &[], &reqs, &opts).unwrap().report;
            // Every attempt rides one slot of one dispatched round.
            let slots: u32 = report.traces.iter().map(|t| t.attempts).sum();
            let fill = match report.rounds {
                0 => 0.0,
                rounds => slots as f64 / rounds as f64,
            };
            assert_eq!(report.mean_fill, fill, "seed {seed}");
            assert!(report.mean_fill <= report.capacity as f64, "seed {seed}");
            let traces = report.traces;
            let reference = traces_reference(&d, &reqs, &opts);
            assert_eq!(traces.iter().collect::<Vec<_>>(), reference, "seed {seed}");
            assert_eq!(traces.len(), reference.len());
            for (i, t) in reference.iter().enumerate() {
                assert_eq!(&traces.get(i), t, "seed {seed} row {i}");
            }
            permuted += usize::from(!traces.by_id.is_empty());
            unresolved += usize::from(
                reference
                    .iter()
                    .any(|t| t.outcome != StreamStatus::Completed),
            );
        }
        // Closed arrivals tie on the tick, so admission order is id order.
        assert!(permuted >= 40 && unresolved > 16, "{permuted} {unresolved}");
        // In id order already: the scheduler's columns are the store,
        // and ids that are positions keep no column.
        let sorted = timing_requests(40);
        let traces = serve(&d, &[], &[], &[], &sorted, &generated_options(1));
        let traces = traces.unwrap().report.traces;
        assert!(traces.by_id.is_empty() && traces.ids.is_empty());
    }

    /// A list handed over out of admission order serves as the same list
    /// sorted into that order, on one board and on a fleet: the adapter's
    /// admission sort against the identity order it keeps for a sorted
    /// list.
    #[test]
    fn a_shuffled_list_serves_as_its_admission_sorted_copy() {
        let d = design(vec![2, 2], 4, &[100_000, 200_000]);
        let boards = [
            crate::FleetBoard::healthy(d.clone()),
            crate::FleetBoard::healthy(design(vec![2], 8, &[300_000])),
        ];
        for seed in 0..48 {
            let reqs = shuffled_requests(seed, 2 + (seed as usize * 11) % 120);
            let mut sorted = reqs.clone();
            sorted.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));
            assert!(!admission_order(&reqs).unwrap().is_empty(), "seed {seed}");
            assert!(admission_order(&sorted).unwrap().is_empty(), "seed {seed}");
            let opts = generated_options(seed);
            let shuffled = serve(&d, &[], &[], &[], &reqs, &opts).unwrap().report;
            let in_order = serve(&d, &[], &[], &[], &sorted, &opts).unwrap().report;
            assert_eq!(shuffled, in_order, "seed {seed}");
            assert_eq!(shuffled.to_json(), in_order.to_json());
            let fopts = FleetOptions {
                route: [
                    crate::RoutePolicy::RoundRobin,
                    crate::RoutePolicy::ShortestQueue,
                    crate::RoutePolicy::Predictive,
                ][seed as usize % 3],
                parallel: false,
                base: opts,
            };
            let shuffled = serve_fleet(&boards, &[], &[], &[], &reqs, &fopts).unwrap();
            let in_order = serve_fleet(&boards, &[], &[], &[], &sorted, &fopts).unwrap();
            assert_eq!(shuffled.report, in_order.report, "seed {seed}");
            assert_eq!(shuffled.report.to_json(), in_order.report.to_json());
        }
    }

    #[test]
    fn a_list_past_two_to_the_32_requests_is_an_error() {
        assert_eq!(request_count(7), Ok(7));
        assert_eq!(request_count(u32::MAX as usize), Ok(u32::MAX));
        #[cfg(target_pointer_width = "64")]
        {
            let requests = 1usize << 32;
            let e = request_count(requests).unwrap_err();
            assert_eq!(e, RuntimeError::TooManyRequests { requests });
            assert!(e.to_string().starts_with("4294967296 requests exceed"));
        }
    }

    #[test]
    fn latency_stats_are_the_sorted_columns_and_the_mean_does_not_wrap() {
        let huge = u64::MAX / 2 - 7;
        let [mean, p50, p99, max] = latency_stats(&mut [huge, huge + 3, huge - 3, huge]);
        assert_eq!([mean, p50, p99, max], [huge, huge, huge + 3, huge + 3]);
        assert_eq!(latency_stats(&mut [4, 1, 2])[0], 2, "the mean rounds down");
        assert_eq!(latency_stats(&mut [u64::MAX; 5]), [u64::MAX; 4]);
        let mut rng = StdRng::seed_from_u64(99);
        for n in (1..400).chain([1_000, 4_097]) {
            let mut ticks: Vec<u64> = (0..n).map(|_| rng.next_u64() % (1 + n / 3)).collect();
            let [mean, p50, p99, max] = latency_stats(&mut ticks.clone());
            ticks.sort_unstable();
            assert_eq!(mean, ticks.iter().sum::<u64>() / n);
            let sorted = [
                percentile(&ticks, 0.50),
                percentile(&ticks, 0.99),
                ticks[ticks.len() - 1],
            ];
            assert_eq!([p50, p99, max], sorted, "{n} latencies");
        }
    }
}
