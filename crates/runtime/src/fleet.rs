//! Fleet-scale serving: shard one request stream across a catalog of
//! heterogeneous boards and simulate every board in parallel.
//!
//! One [`crate::serve`] call time-multiplexes one compiled system. A
//! deployment that must absorb fleet-scale load runs N boards —
//! possibly different platforms and clocks, each with its own compiled
//! system and its own fault exposure — behind one dispatcher:
//!
//! ```text
//!              requests (one stream, admission order)
//!                  │
//!            ┌─────▼──────┐  route: rr | jsq | predictive
//!            │ dispatcher │  (cost model per board: probed round ticks)
//!            └─┬───┬────┬─┘
//!        ┌─────┘   │    └──────┐
//!   ┌────▼───┐ ┌───▼────┐ ┌────▼───┐
//!   │ board 0│ │ board 1│ │ board N│   per-board DES on scoped
//!   │ serve()│ │ serve()│ │ serve()│   threads (phase 1)
//!   └────┬───┘ └───┬────┘ └────┬───┘
//!        │  shed (fatal outage)│        drain + requeue on the
//!        └──────►──┤           │        surviving boards (phase 2)
//!                  │           │
//!            ┌─────▼───────────▼─┐
//!            │ deterministic merge│ → FleetReport (aggregate req/s,
//!            └───────────────────┘   goodput, p99, per-board util,
//!                                    req/s per kLUT)
//! ```
//!
//! Three properties make the layer trustworthy rather than merely fast:
//!
//! * **Fleet-of-1 ≡ serve.** Every routing policy sends the whole
//!   stream to a lone board, and the board's report *is* a
//!   [`crate::serve`] report — same code path, tick- and byte-identical
//!   (`tests/fleet_properties.rs` proves it).
//! * **Parallel ≡ serial.** Each board's DES is a pure function of its
//!   request list; results are merged by board index, so the scoped
//!   thread fan-out is bit-identical to the serial loop.
//! * **Routing never touches data.** Policies only choose *where* a
//!   request runs — what moves is a position in the caller's request
//!   list, and for a requeue its shed tick. Boards only schedule; each
//!   request that completed in the final placement then runs its kernel
//!   chain once, so completed outputs stay bit-exact against
//!   `zynq::run_program_reference` under every policy.
//!
//! Routing happens before simulation, from a deterministic cost model:
//! each board's full round cost is probed once with a one-request
//! stream (host-side round cost does not depend on fill — the host
//! always moves all `m` PLM sets), giving an estimated per-request
//! service time `round_ticks / capacity` that `jsq` and `predictive`
//! consume. A board whose [`FaultPlan`] holds an unrecovered outage
//! sheds its queued work at the failure tick; the dispatcher drains
//! those requests and requeues them — same policy, continued state —
//! on the surviving boards, with the shed tick as their new arrival.

use std::collections::{HashMap, VecDeque};
use std::fmt::{self, Write};

use sysgen::MultiSystemDesign;
use teil::ir::Module;
use zynq::des::{to_secs, Time};
use zynq::fault::FaultPlan;

use zynq::StreamStatus;

use crate::json::{self, push_opt_fixed, row_end, Line, Sink};
use crate::{
    check_times, latency_stats, per_second, serve_stream, Request, RuntimeError, RuntimeOptions,
    ServiceReport, Stages, Stream,
};

/// How the dispatcher picks a board for each admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// Admission order modulo board count — the zero-knowledge
    /// baseline, and the default.
    #[default]
    RoundRobin,
    /// Join-shortest-queue over the dispatcher's virtual queues: the
    /// board with the fewest routed requests whose estimated completion
    /// lies after the arrival.
    ShortestQueue,
    /// Earliest estimated completion using each board's probed cost
    /// model — heterogeneity-aware.
    Predictive,
}

impl RoutePolicy {
    /// Parse a CLI spec: `rr`, `jsq`, or `predictive`.
    pub fn parse(s: &str) -> Result<RoutePolicy, String> {
        match s {
            "rr" => Ok(RoutePolicy::RoundRobin),
            "jsq" => Ok(RoutePolicy::ShortestQueue),
            "predictive" => Ok(RoutePolicy::Predictive),
            other => Err(format!(
                "unknown routing policy '{other}' (rr | jsq | predictive)"
            )),
        }
    }

    /// Stable JSON/label token.
    pub fn label(&self) -> &'static str {
        match self {
            RoutePolicy::RoundRobin => "rr",
            RoutePolicy::ShortestQueue => "jsq",
            RoutePolicy::Predictive => "predictive",
        }
    }
}

/// One board worker: a compiled system plus its own fault exposure.
#[derive(Debug, Clone)]
pub struct FleetBoard {
    /// Display name (usually the platform id, deduplicated by the
    /// caller when a platform appears twice).
    pub name: String,
    pub design: MultiSystemDesign,
    /// This board's deterministic fault plan (`FaultPlan::none()` for a
    /// healthy board). Replaces `FleetOptions::base.faults` per board.
    pub faults: FaultPlan,
}

impl FleetBoard {
    /// A healthy board named after its platform.
    pub fn healthy(design: MultiSystemDesign) -> FleetBoard {
        FleetBoard {
            name: design.platform.id.to_string(),
            design,
            faults: FaultPlan::none(),
        }
    }
}

/// Options for one fleet serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOptions {
    pub route: RoutePolicy,
    /// Simulate boards on scoped threads (bit-identical to the serial
    /// loop — the differential tests compare both).
    pub parallel: bool,
    /// Per-board serving options. `base.faults` is ignored: each
    /// [`FleetBoard`] carries its own plan.
    pub base: RuntimeOptions,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            route: RoutePolicy::default(),
            parallel: true,
            base: RuntimeOptions::default(),
        }
    }
}

/// Per-board slice of a [`FleetReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct BoardReport {
    pub name: String,
    /// Platform id of the board's design.
    pub platform: String,
    /// Programmable-logic capacity of the board (the cost denominator).
    pub board_luts: usize,
    /// Requests routed here in phase 1.
    pub assigned: usize,
    /// Requests rescued onto this board after another board's outage.
    pub rescued_in: usize,
    /// Requests this board shed that a survivor picked up.
    pub rescued_out: usize,
    /// Estimated per-request service ticks from the probe (the routing
    /// cost model).
    pub est_request_ticks: u64,
    /// Fraction of the fleet makespan this board spent computing.
    pub utilization: f64,
    /// Completed requests per second per 1000 board LUTs — the
    /// cost-efficiency axis of the fleet frontier.
    pub rps_per_kluts: f64,
    /// The board's own service report (`None` when no request was ever
    /// routed here).
    pub report: Option<ServiceReport>,
}

/// Aggregate + per-board results of one fleet serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    pub route: RoutePolicy,
    pub parallel: bool,
    pub requests: usize,
    pub completed: usize,
    pub retried: usize,
    pub timed_out: usize,
    pub shed: usize,
    pub failed: usize,
    /// Requests drained off a dead board and requeued on a survivor.
    pub requeued: usize,
    /// Fleet makespan: the latest board-local makespan (all boards
    /// share the t=0 epoch).
    pub makespan_ticks: u64,
    /// All requests over the fleet makespan.
    pub aggregate_rps: f64,
    /// Completed requests over the fleet makespan. `None` when zero
    /// requests completed — a total outage has no goodput, not a
    /// goodput of 0.0 (JSON emits `null`, the table a `-`).
    pub goodput_rps: Option<f64>,
    /// Latency statistics over all requests, measured from each
    /// request's *original* arrival (a rescued request's latency
    /// includes its time on the dead board).
    pub latency_mean_s: f64,
    pub latency_p50_s: f64,
    pub latency_p99_s: f64,
    pub latency_max_s: f64,
    pub boards: Vec<BoardReport>,
    /// Final placement: `(request id, board index)` in request-id
    /// order. Every request appears exactly once — the conservation
    /// property the proptests check.
    pub assignment: Vec<(usize, usize)>,
}

/// A fleet run's report plus (when `execute` was set) every request's
/// output tensors, run once per request completed in the final placement
/// (an empty map for any other); `outputs[i]` belongs to `requests[i]` of
/// the [`serve_fleet`] call, matching by position like [`crate::ServeOutcome`].
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    pub report: FleetReport,
    pub outputs: Vec<HashMap<String, Vec<f64>>>,
}

/// Deterministic routing state, shared between the initial placement
/// and the outage requeue so phase 2 continues — not restarts — the
/// policy.
struct Dispatcher {
    policy: RoutePolicy,
    /// Round-robin cursor.
    next: usize,
    /// Per-board estimated completion ticks of in-flight work (virtual
    /// queues, kept under `jsq` only). A board's estimates never
    /// decrease, so the ones a request's arrival has passed are always
    /// at the front.
    queues: Vec<VecDeque<Time>>,
    /// Per-board estimated busy horizon (for `predictive`).
    busy_until: Vec<Time>,
    /// Per-board estimated service ticks per request.
    req_ticks: Vec<u64>,
    /// Virtual-queue entries examined.
    #[cfg(test)]
    visits: usize,
}

impl Dispatcher {
    fn new(policy: RoutePolicy, req_ticks: Vec<u64>) -> Dispatcher {
        let n = req_ticks.len();
        Dispatcher {
            policy,
            next: 0,
            queues: vec![VecDeque::new(); n],
            busy_until: vec![0; n],
            req_ticks,
            #[cfg(test)]
            visits: 0,
        }
    }

    /// Pick a board among `live` (candidate indices, ascending) for a
    /// request arriving at tick `t`. Ties break toward the lowest board
    /// index, so routing is a pure function of the admitted prefix.
    fn route(&mut self, t: Time, live: &[usize]) -> usize {
        debug_assert!(!live.is_empty());
        let pick = match self.policy {
            RoutePolicy::RoundRobin => {
                let b = live[self.next % live.len()];
                self.next += 1;
                b
            }
            RoutePolicy::ShortestQueue => {
                for &b in live {
                    let queue = &mut self.queues[b];
                    let passed = queue.iter().take_while(|&&done| done <= t).count();
                    queue.drain(..passed);
                    #[cfg(test)]
                    {
                        self.visits += passed + 1;
                    }
                }
                // Invariant: the dispatcher routes only while a board is live.
                *live
                    .iter()
                    .min_by_key(|&&b| (self.queues[b].len(), b))
                    .unwrap()
            }
            // The first board of the soonest estimated completion, by a
            // plain scan: its cost per request does not depend on how the
            // stream splits across the boards (`min_by_key` on
            // `(done, b)` does).
            RoutePolicy::Predictive => {
                let (mut pick, mut soonest) = (live[0], Time::MAX);
                for &b in live {
                    let done = self.busy_until[b].max(t) + self.req_ticks[b];
                    if done < soonest {
                        (pick, soonest) = (b, done);
                    }
                }
                pick
            }
        };
        let done = self.busy_until[pick].max(t) + self.req_ticks[pick];
        self.busy_until[pick] = done;
        if self.policy == RoutePolicy::ShortestQueue {
            self.queues[pick].push_back(done);
        }
        pick
    }
}

/// Price one request on one board. The host-side round cost is
/// fill-independent (the host always moves all `m` PLM sets), so one
/// round divided by the fill capacity prices one request.
fn probe_request_ticks(board: &FleetBoard, opts: &RuntimeOptions) -> u64 {
    let round_ticks = zynq::program_round(&board.design, &zynq::SimConfig::default()).total();
    let capacity = opts.batch.capacity(board.design.config.m).max(1);
    (round_ticks / capacity as u64).max(1)
}

/// A board's share of the stream, in admission order: positions in the
/// caller's request list and their arrival ticks on this board (a
/// rescued request arrives at its shed tick). A run takes `arrivals`
/// with it, so a filled `arrivals` also marks a board that has to run.
struct Share {
    index: Vec<u32>,
    arrivals: Vec<Time>,
}

/// Schedule every board whose share is waiting, either on scoped
/// threads or serially. Reports land in board-index order, so the merge
/// is deterministic regardless of completion order.
fn run_boards(
    boards: &[FleetBoard],
    stream: &Stream,
    shares: &mut [Share],
    opts: &FleetOptions,
    results: &mut [Option<ServiceReport>],
) -> Result<(), RuntimeError> {
    let waiting: Vec<(usize, Vec<Time>)> = (shares.iter_mut().enumerate())
        .filter(|(_, share)| !share.arrivals.is_empty())
        .map(|(b, share)| (b, std::mem::take(&mut share.arrivals)))
        .collect();
    let shares = &*shares;
    let run = &|(b, arrivals): (usize, Vec<Time>)| {
        let board_opts = RuntimeOptions {
            faults: boards[b].faults.clone(),
            ..opts.base.clone()
        };
        let (design, index) = (&boards[b].design, &shares[b].index);
        let served = serve_stream(design, stream, index, arrivals, &board_opts);
        (b, served)
    };
    let done: Vec<_> = if opts.parallel && waiting.len() > 1 {
        std::thread::scope(|s| {
            let workers: Vec<_> = (waiting.into_iter())
                .map(|share| (share.0, s.spawn(move || run(share))))
                .collect();
            (workers.into_iter())
                .map(|(board, worker)| {
                    (worker.join()).map_err(|_| RuntimeError::WorkerPanicked { board })
                })
                .collect::<Result<_, _>>()
        })?
    } else {
        waiting.into_iter().map(run).collect()
    };
    for (b, served) in done {
        results[b] = Some(served?);
    }
    Ok(())
}

/// Serve `requests` across a fleet of boards: route each request to a
/// board (phase 1), simulate every board's stream — in parallel when
/// `opts.parallel` — then drain requests shed by an unrecovered board
/// outage and requeue them on the surviving boards (phase 2). The
/// merged [`FleetReport`] aggregates throughput, goodput, fleet-level
/// latency percentiles, per-board utilization and cost efficiency.
///
/// `names`/`modules`/`kernels` describe the compiled program exactly as
/// in [`crate::serve`]: every board runs its scheduling core, then each
/// request that completed in the final placement runs the chain once.
/// Requests are routed as positions in `requests`, never copied.
pub fn serve_fleet(
    boards: &[FleetBoard],
    names: &[String],
    modules: &[&Module],
    kernels: &[&cgen::CKernel],
    requests: &[Request],
    opts: &FleetOptions,
) -> Result<FleetOutcome, RuntimeError> {
    check_fleet(boards, requests.len(), opts)?;
    let stream = Stream::of_requests(requests)?;
    serve_fleet_columns(boards, (names, modules, kernels), &stream, opts)
}

/// [`serve_fleet`] of the stream `opts.base` describes, drawn straight
/// into columns as [`crate::serve_generated`] draws it. A degenerate
/// rate is reported first, then what [`serve_fleet`] reports.
pub fn serve_fleet_generated(
    boards: &[FleetBoard],
    names: &[String],
    modules: &[&Module],
    kernels: &[&cgen::CKernel],
    opts: &FleetOptions,
) -> Result<FleetOutcome, RuntimeError> {
    opts.base.arrival.validate()?;
    check_fleet(boards, opts.base.requests, opts)?;
    let stream = Stream::draw(&opts.base)?;
    serve_fleet_columns(boards, (names, modules, kernels), &stream, opts)
}

/// What a fleet run refuses before it looks at an arrival: no board, no
/// request, then a policy time past the clock.
fn check_fleet(
    boards: &[FleetBoard],
    requests: usize,
    opts: &FleetOptions,
) -> Result<(), RuntimeError> {
    if boards.is_empty() {
        return Err(RuntimeError::NoBoards);
    }
    if requests == 0 {
        return Err(RuntimeError::NoRequests);
    }
    check_times(&opts.base)
}

/// The fleet over a stream's columns: route, run the boards, requeue,
/// merge.
fn serve_fleet_columns(
    boards: &[FleetBoard],
    stages: Stages,
    stream: &Stream,
    opts: &FleetOptions,
) -> Result<FleetOutcome, RuntimeError> {
    let n = stream.len();
    let nb = boards.len();
    let arrivals = &stream.arrivals;
    let id = |i: u32| stream.id(i as usize);

    // Phase 1: place every request in admission order — the same total
    // order `serve` uses, so routing is a pure function of the stream —
    // then cut the stream into exactly sized shares. `placement` is by
    // caller position until the end.
    let req_ticks: Vec<u64> = boards
        .iter()
        .map(|b| probe_request_ticks(b, &opts.base))
        .collect();
    let mut dispatcher = Dispatcher::new(opts.route, req_ticks.clone());
    let all: Vec<usize> = (0..nb).collect();
    let mut placement: Vec<(usize, usize)> = (0..n).map(|i| (stream.id(i), 0)).collect();
    let mut assigned = vec![0usize; nb];
    for k in 0..n {
        let i = stream.admitted(k);
        let b = dispatcher.route(arrivals[i], &all);
        placement[i].1 = b;
        assigned[b] += 1;
    }
    let mut shares: Vec<Share> = (assigned.iter())
        .map(|&k| Share {
            index: Vec::with_capacity(k),
            arrivals: Vec::with_capacity(k),
        })
        .collect();
    for k in 0..n {
        let i = stream.admitted(k);
        let share = &mut shares[placement[i].1];
        share.index.push(i as u32);
        share.arrivals.push(arrivals[i]);
    }

    let mut results: Vec<Option<ServiceReport>> = (0..nb).map(|_| None).collect();
    run_boards(boards, stream, &mut shares, opts, &mut results)?;

    // Phase 2: drain requests shed by a fatal outage and requeue them
    // on the surviving boards, arriving at their shed tick. `Shed` only
    // arises from an unrecovered outage, and survivors cannot shed, so
    // one wave settles the fleet. The dead board keeps its phase-1
    // report and share — that stream is what physically ran before the
    // rescue — but its drained requests leave the dispatcher's books,
    // so the merge below takes their final outcome from the rescue
    // board.
    let survivors: Vec<usize> = (0..nb)
        .filter(|&b| !boards[b].faults.fatal_outage())
        .collect();
    let mut rescued_in = vec![0usize; nb];
    let mut rescued_out = vec![0usize; nb];
    let mut requeued = 0usize;
    if !survivors.is_empty() {
        // (shed tick, caller position), in deterministic drain order.
        let mut sheds: Vec<(Time, u32)> = Vec::new();
        for (b, report) in results.iter().enumerate() {
            let Some(report) = report.as_ref().filter(|_| boards[b].faults.fatal_outage()) else {
                continue;
            };
            let traces = &report.traces;
            let rows = (traces.statuses.iter().zip(&traces.resolved)).zip(&shares[b].index);
            sheds.extend(
                rows.filter(|((&status, _), _)| status == StreamStatus::Shed)
                    .map(|((_, &at), &i)| (at, i)),
            );
        }
        sheds.sort_by_key(|&(at, i)| (at, id(i)));
        let mut rescued: Vec<Vec<(Time, u32)>> = vec![Vec::new(); nb];
        for &(at, i) in &sheds {
            let b = dispatcher.route(at, &survivors);
            let home = &mut placement[i as usize].1;
            rescued_out[*home] += 1;
            *home = b;
            rescued[b].push((at, i));
            requeued += 1;
        }
        // Re-simulate only the rescue boards: their streams gained
        // requests. Dead boards are inert after the failure tick, so
        // their phase-1 streams stand as simulated.
        for (b, rescued) in rescued.into_iter().enumerate() {
            if rescued.is_empty() {
                continue;
            }
            rescued_in[b] = rescued.len();
            let share = &mut shares[b];
            let mut merged: Vec<(Time, u32)> = (share.index.iter())
                .map(|&i| (arrivals[i as usize], i))
                .chain(rescued)
                .collect();
            merged.sort_by_key(|&(at, i)| (at, id(i)));
            (share.arrivals, share.index) = merged.into_iter().unzip();
        }
        run_boards(boards, stream, &mut shares, opts, &mut results)?;
    }

    // Deterministic merge. Row `k` of a board's columns is request
    // `index[k]` of its share; entries a rescue moved away are skipped —
    // their final outcome lives on the rescue board — and latencies
    // count from the original arrivals. `done` collects what to execute.
    let mut latency_ticks: Vec<u64> = Vec::with_capacity(n);
    let (mut completed, mut timed_out, mut shed, mut failed) = (0usize, 0usize, 0usize, 0usize);
    let mut retried = 0usize;
    let mut done: Vec<usize> = Vec::new();
    for (b, report) in results.iter().enumerate() {
        let Some(report) = report else { continue };
        let traces = &report.traces;
        for (k, &i) in shares[b].index.iter().enumerate() {
            if placement[i as usize].1 != b {
                continue;
            }
            if opts.base.execute && traces.statuses[k] == StreamStatus::Completed {
                done.push(i as usize);
            }
            latency_ticks.push(traces.resolved[k].saturating_sub(arrivals[i as usize]));
            *match traces.statuses[k] {
                StreamStatus::Completed => &mut completed,
                StreamStatus::TimedOut => &mut timed_out,
                StreamStatus::Shed => &mut shed,
                StreamStatus::Failed => &mut failed,
            } += 1;
            retried += usize::from(traces.attempts[k] > 1);
        }
    }
    let [mean, p50, p99, max] = latency_stats(&mut latency_ticks);
    let makespan_ticks = results
        .iter()
        .flatten()
        .map(|r| r.makespan_ticks)
        .max()
        .unwrap_or(0);
    let per_s = |k: usize| per_second(k, makespan_ticks);

    let board_reports: Vec<BoardReport> = (results.into_iter().enumerate())
        .map(|(b, report)| {
            let exec_ticks = report.as_ref().map_or(0, |r| r.exec_ticks);
            let board_completed = report.as_ref().map_or(0, |r| r.completed);
            let kluts = boards[b].design.platform.board.luts as f64 / 1000.0;
            BoardReport {
                name: boards[b].name.clone(),
                platform: boards[b].design.platform.id.to_string(),
                board_luts: boards[b].design.platform.board.luts,
                assigned: assigned[b],
                rescued_in: rescued_in[b],
                rescued_out: rescued_out[b],
                est_request_ticks: req_ticks[b],
                utilization: if makespan_ticks > 0 {
                    exec_ticks as f64 / makespan_ticks as f64
                } else {
                    0.0
                },
                rps_per_kluts: if kluts > 0.0 {
                    per_s(board_completed) / kluts
                } else {
                    0.0
                },
                report,
            }
        })
        .collect();
    placement.sort_unstable();

    let report = FleetReport {
        route: opts.route,
        parallel: opts.parallel,
        requests: n,
        completed,
        retried,
        timed_out,
        shed,
        failed,
        requeued,
        makespan_ticks,
        aggregate_rps: per_s(n),
        goodput_rps: (completed > 0).then(|| per_s(completed)),
        latency_mean_s: to_secs(mean),
        latency_p50_s: to_secs(p50),
        latency_p99_s: to_secs(p99),
        latency_max_s: to_secs(max),
        boards: board_reports,
        assignment: placement,
    };
    let outputs = stream.execute(stages, n, done, &opts.base)?;
    Ok(FleetOutcome { report, outputs })
}

impl FleetReport {
    /// Render as an aligned text table.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "fleet served {} requests across {} boards (route {}, {}):\n",
            self.requests,
            self.boards.len(),
            self.route.label(),
            if self.parallel { "parallel" } else { "serial" },
        ));
        s.push_str(&format!(
            "  aggregate {:.1} req/s | goodput {} req/s over {:.4} s makespan\n",
            self.aggregate_rps,
            self.goodput_rps
                .map_or_else(|| "-".to_string(), |v| format!("{v:.1}")),
            to_secs(self.makespan_ticks),
        ));
        s.push_str(&format!(
            "  latency mean {:.4} s | p50 {:.4} s | p99 {:.4} s | max {:.4} s\n",
            self.latency_mean_s, self.latency_p50_s, self.latency_p99_s, self.latency_max_s,
        ));
        s.push_str(&format!(
            "  reliability {}/{} completed ({} retried, {} timed-out, {} shed, {} failed, {} requeued across boards)\n",
            self.completed,
            self.requests,
            self.retried,
            self.timed_out,
            self.shed,
            self.failed,
            self.requeued,
        ));
        for b in &self.boards {
            let (rounds, completed, plan) = match &b.report {
                Some(r) => (r.rounds, r.completed, r.fault_plan.clone()),
                None => (0, 0, "none".into()),
            };
            s.push_str(&format!(
                "  board {:<10} [{:>9} LUT] assigned {:>4} (+{} in, -{} out) | {} rounds | {} ok | util {:.2} | {:.2} req/s/kLUT{}\n",
                b.name,
                b.board_luts,
                b.assigned,
                b.rescued_in,
                b.rescued_out,
                rounds,
                completed,
                b.utilization,
                b.rps_per_kluts,
                if plan == "none" {
                    String::new()
                } else {
                    format!(" | faults [{plan}]")
                },
            ));
        }
        s
    }

    /// Serialize as JSON into one buffer reserved up front. Per-board
    /// reports are written in place by [`ServiceReport`]'s own writer
    /// behind a four-space pad, so a fleet-of-1 JSON carries the
    /// byte-exact single-board report.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.json_capacity());
        // Invariant: `fmt::Write` for a `String` never returns an error.
        self.write_json(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Upper bound on the document's bytes (see
    /// `ServiceReport::json_capacity`): the boards', their reports' and
    /// the assignment entries' own bounds plus a flat header allowance.
    fn json_capacity(&self) -> usize {
        let boards = self.boards.iter().map(|b| {
            let report = b.report.as_ref().map_or(4, |r| r.json_capacity(BOARD_PAD));
            json::width(|w| b.json_row(w)) + report + "},\n".len()
        });
        let entries = self
            .assignment
            .iter()
            .map(|&entry| json::width(|w| assignment_row(w, entry, "}, ")));
        1_024 + boards.sum::<usize>() + entries.sum::<usize>()
    }

    /// Append the document, trailing newline included, to `out`. The
    /// board and assignment loops do not allocate.
    fn write_json(&self, out: &mut String) -> fmt::Result {
        write!(
            out,
            "{{\n  \"route\": \"{}\",\n  \"parallel\": {},\n  \"requests\": {},\n  \"boards\": {},\n  \
             \"makespan_s\": {:.6},\n  \"aggregate_rps\": {:.3},\n  \"goodput_rps\": ",
            self.route.label(),
            self.parallel,
            self.requests,
            self.boards.len(),
            to_secs(self.makespan_ticks),
            self.aggregate_rps,
        )?;
        push_opt_fixed(out, self.goodput_rps, 3);
        write!(
            out,
            ",\n  \"latency\": {{\"mean_s\": {:.6}, \"p50_s\": {:.6}, \"p99_s\": {:.6}, \"max_s\": {:.6}}},\n  \
             \"reliability\": {{\"completed\": {}, \"retried\": {}, \"timed_out\": {}, \
             \"shed\": {}, \"failed\": {}, \"requeued_across_boards\": {}}},\n  \"per_board\": [\n",
            self.latency_mean_s,
            self.latency_p50_s,
            self.latency_p99_s,
            self.latency_max_s,
            self.completed,
            self.retried,
            self.timed_out,
            self.shed,
            self.failed,
            self.requeued,
        )?;
        for (k, b) in self.boards.iter().enumerate() {
            json::write_row(out, |line| b.json_row(line));
            match &b.report {
                Some(r) => r.write_json(out, BOARD_PAD)?,
                None => out.push_str("null"),
            }
            out.push_str(row_end(k, self.boards.len()));
        }
        out.push_str("  ],\n  \"assignment\": [");
        let mut line = Line::new(out);
        for (k, &entry) in self.assignment.iter().enumerate() {
            let last = k + 1 == self.assignment.len();
            assignment_row(&mut line, entry, if last { "}" } else { "}, " });
            line.flush();
        }
        out.push_str("]\n}\n");
        Ok(())
    }
}

/// Indentation of a board's embedded report.
const BOARD_PAD: &str = "    ";

impl BoardReport {
    /// The `per_board` row up to the value of `"report"`.
    fn json_row<S: Sink>(&self, s: &mut S) {
        s.lit("    {\"name\": \"");
        s.str(&self.name);
        s.lit("\", \"platform\": \"");
        s.str(&self.platform);
        s.lit("\", \"board_luts\": ");
        s.int(self.board_luts as u64);
        s.lit(", \"assigned\": ");
        s.int(self.assigned as u64);
        s.lit(", \"rescued_in\": ");
        s.int(self.rescued_in as u64);
        s.lit(", \"rescued_out\": ");
        s.int(self.rescued_out as u64);
        s.lit(", \"est_request_ticks\": ");
        s.int(self.est_request_ticks);
        s.lit(", \"utilization\": ");
        s.fixed(self.utilization, 4);
        s.lit(", \"rps_per_kluts\": ");
        s.fixed(self.rps_per_kluts, 4);
        s.lit(", \"report\": ");
    }
}

/// One `(request id, board index)` entry of the `assignment` array,
/// closed by `end`.
#[inline]
fn assignment_row<S: Sink>(s: &mut S, (id, board): (usize, usize), end: &str) {
    s.lit("{\"id\": ");
    s.int(id as u64);
    s.lit(", \"board\": ");
    s.int(board as u64);
    s.lit(end);
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{
        design, generated_options, generated_report, onto_secs6_edges, shuffled_requests,
        timing_requests, traces_reference,
    };
    use crate::{serve, Arrival, BatchPolicy};
    use zynq::des::secs;
    use zynq::fault::Outage;

    fn boards3() -> Vec<FleetBoard> {
        // Three boards with distinct speeds: routing must notice.
        vec![
            FleetBoard::healthy(design(vec![2], 8, &[200_000])),
            FleetBoard::healthy(design(vec![2], 8, &[400_000])),
            FleetBoard::healthy(design(vec![2], 8, &[100_000])),
        ]
    }

    fn fleet_opts(route: RoutePolicy) -> FleetOptions {
        FleetOptions {
            route,
            parallel: false,
            base: RuntimeOptions {
                batch: BatchPolicy::Auto,
                overlap_dma: false,
                execute: false,
                ..Default::default()
            },
        }
    }

    /// The `jsq` virtual queues as the dispatcher first kept them: at
    /// every decision each live board's list drops the estimates the
    /// arrival has passed, wherever they sit. The definition the head
    /// index routes by.
    struct RetainQueues {
        queues: Vec<Vec<Time>>,
        busy_until: Vec<Time>,
        req_ticks: Vec<u64>,
    }

    impl RetainQueues {
        fn route(&mut self, t: Time, live: &[usize]) -> usize {
            for &b in live {
                self.queues[b].retain(|&done| done > t);
            }
            let pick = *live
                .iter()
                .min_by_key(|&&b| (self.queues[b].len(), b))
                .unwrap();
            let done = self.busy_until[pick].max(t) + self.req_ticks[pick];
            self.busy_until[pick] = done;
            self.queues[pick].push(done);
            pick
        }
    }

    /// Closed, Poisson and outage-requeue streams route the same through
    /// the head index as through `retain`, and each decision examines a
    /// bounded number of queue entries per board.
    #[test]
    fn jsq_head_index_routes_as_retain_did() {
        let req_ticks = vec![
            389_197_500,
            700_000_001,
            150_000_000,
            150_000_000,
            90_000_007,
        ];
        let nb = req_ticks.len();
        let all: Vec<usize> = (0..nb).collect();
        let survivors = [0, 2, 4];
        let ticks = |arrival: Arrival, n: usize| -> Vec<Time> {
            let reqs = crate::generate_timing_requests(n, &arrival, 5).unwrap();
            reqs.iter().map(|r| secs(r.arrival_s)).collect()
        };
        let closed = ticks(Arrival::Closed, 3_000);
        let poisson = ticks(Arrival::Poisson { rate_rps: 60_000.0 }, 6_000);
        // A requeue wave arrives at shed ticks inside the first phase's
        // span, on the survivors only.
        let mut wave: Vec<Time> = poisson.iter().step_by(3).map(|t| t / 2).collect();
        wave.sort_unstable();
        // Arrivals on a grid the estimates of boards 2 and 3 land on: an
        // estimate equal to the arrival has passed.
        let grid: Vec<Time> = (0..4_000).map(|k| k * 25_000_000).collect();
        let streams = [
            ("closed", &closed, &[][..]),
            ("poisson", &poisson, &[][..]),
            ("requeue", &poisson, &wave[..]),
            ("grid", &grid, &[][..]),
        ];
        for (name, placed, requeued) in streams {
            let calls = (placed.iter().map(|&t| (t, &all[..])))
                .chain(requeued.iter().map(|&t| (t, &survivors[..])));
            let mut head = Dispatcher::new(RoutePolicy::ShortestQueue, req_ticks.clone());
            let mut reference = RetainQueues {
                queues: vec![Vec::new(); nb],
                busy_until: vec![0; nb],
                req_ticks: req_ticks.clone(),
            };
            let mut deepest = 0;
            for (k, (t, live)) in calls.enumerate() {
                let want = reference.route(t, live);
                assert_eq!(head.route(t, live), want, "{name}: request {k}");
                deepest = deepest.max(reference.queues[want].len());
            }
            assert!(
                deepest >= 20,
                "{name}: the queues stayed shallow ({deepest})"
            );
            let routed = placed.len() + requeued.len();
            assert!(
                head.visits <= 2 * nb * routed,
                "{name}: {} entries examined for {routed} requests",
                head.visits,
            );
        }
    }

    #[test]
    fn fleet_of_one_matches_serve_exactly() {
        let d = design(vec![2], 8, &[200_000]);
        let reqs = timing_requests(48);
        let solo = serve(
            &d,
            &[],
            &[],
            &[],
            &reqs,
            &fleet_opts(RoutePolicy::RoundRobin).base,
        )
        .unwrap()
        .report;
        for route in [
            RoutePolicy::RoundRobin,
            RoutePolicy::ShortestQueue,
            RoutePolicy::Predictive,
        ] {
            let fleet = serve_fleet(
                &[FleetBoard::healthy(d.clone())],
                &[],
                &[],
                &[],
                &reqs,
                &fleet_opts(route),
            )
            .unwrap()
            .report;
            let br = fleet.boards[0].report.as_ref().unwrap();
            assert_eq!(br, &solo, "route {}", route.label());
            assert_eq!(br.to_json(), solo.to_json());
            assert_eq!(fleet.makespan_ticks, solo.makespan_ticks);
            assert_eq!(fleet.completed, solo.completed);
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let boards = boards3();
        let reqs = timing_requests(64);
        for route in [
            RoutePolicy::RoundRobin,
            RoutePolicy::ShortestQueue,
            RoutePolicy::Predictive,
        ] {
            let serial = serve_fleet(&boards, &[], &[], &[], &reqs, &fleet_opts(route))
                .unwrap()
                .report;
            let par = serve_fleet(
                &boards,
                &[],
                &[],
                &[],
                &reqs,
                &FleetOptions {
                    parallel: true,
                    ..fleet_opts(route)
                },
            )
            .unwrap()
            .report;
            assert_eq!(serial.makespan_ticks, par.makespan_ticks);
            assert_eq!(serial.assignment, par.assignment);
            // The only field allowed to differ is the `parallel` flag.
            let mut par2 = par.clone();
            par2.parallel = false;
            assert_eq!(serial, par2, "route {}", route.label());
        }
    }

    #[test]
    fn fleet_scales_throughput_over_single_board() {
        let boards = boards3();
        let reqs = timing_requests(96);
        let solo = serve(
            &boards[0].design,
            &[],
            &[],
            &[],
            &reqs,
            &fleet_opts(RoutePolicy::Predictive).base,
        )
        .unwrap()
        .report;
        let fleet = serve_fleet(
            &boards,
            &[],
            &[],
            &[],
            &reqs,
            &fleet_opts(RoutePolicy::Predictive),
        )
        .unwrap()
        .report;
        assert_eq!(fleet.completed, 96);
        assert!(
            fleet.aggregate_rps > 1.5 * solo.throughput_rps,
            "fleet {:.0} vs solo {:.0}",
            fleet.aggregate_rps,
            solo.throughput_rps
        );
        // Every board did some work under the cost-aware policy.
        for b in &fleet.boards {
            assert!(b.assigned > 0, "board {} idle", b.name);
        }
    }

    #[test]
    fn predictive_favors_the_faster_board() {
        let boards = boards3();
        let reqs = timing_requests(90);
        let fleet = serve_fleet(
            &boards,
            &[],
            &[],
            &[],
            &reqs,
            &fleet_opts(RoutePolicy::Predictive),
        )
        .unwrap()
        .report;
        // Board 2 runs at half the latency of board 0 and a quarter of
        // board 1: predictive routing must give it the largest share.
        assert!(fleet.boards[2].assigned > fleet.boards[1].assigned);
    }

    #[test]
    fn outage_drains_and_requeues_on_survivors() {
        let mut boards = boards3();
        // Board 1 dies early and never recovers: everything it had
        // queued must finish elsewhere.
        boards[1].faults = FaultPlan {
            seed: 3,
            outage: Some(Outage {
                fail_at: secs(0.0001),
                recover_at: None,
            }),
            ..FaultPlan::none()
        };
        let reqs = timing_requests(60);
        for route in [
            RoutePolicy::RoundRobin,
            RoutePolicy::ShortestQueue,
            RoutePolicy::Predictive,
        ] {
            let fleet = serve_fleet(&boards, &[], &[], &[], &reqs, &fleet_opts(route))
                .unwrap()
                .report;
            assert_eq!(
                fleet.shed,
                0,
                "route {}: sheds must be rescued",
                route.label()
            );
            assert_eq!(fleet.completed, 60, "route {}", route.label());
            assert!(
                fleet.requeued > 0,
                "route {}: outage must requeue",
                route.label()
            );
            // Conservation: every id placed exactly once, none on the
            // dead board beyond what it finished before failing.
            assert_eq!(fleet.assignment.len(), 60);
            let ids: Vec<usize> = fleet.assignment.iter().map(|(id, _)| *id).collect();
            let mut uniq = ids.clone();
            uniq.dedup();
            assert_eq!(ids, uniq);
            let kept: usize = fleet.assignment.iter().filter(|(_, b)| *b == 1).count();
            assert_eq!(
                kept + fleet.requeued,
                fleet.boards[1].assigned,
                "drained requests must leave the dead board's books"
            );
            assert_eq!(fleet.boards[1].rescued_out, fleet.requeued);
            assert_eq!(
                fleet.boards[0].rescued_in + fleet.boards[2].rescued_in,
                fleet.requeued
            );
        }
    }

    /// Every board's traces — the dead board's, and the rescue boards'
    /// with requeued requests arriving at their shed ticks — are the
    /// list the old `serve` built for the same requests.
    #[test]
    fn board_traces_hand_out_the_reference_list_across_an_outage() {
        let (mut permuted, mut requeued) = (0, 0);
        for seed in 0..24 {
            let mut boards = boards3();
            boards[seed as usize % 3].faults = FaultPlan {
                seed,
                outage: Some(Outage {
                    fail_at: secs(0.0004),
                    recover_at: None,
                }),
                ..FaultPlan::none()
            };
            let reqs = shuffled_requests(seed, 40 + seed as usize * 5);
            let opts = FleetOptions {
                route: [RoutePolicy::RoundRobin, RoutePolicy::Predictive][seed as usize % 2],
                parallel: seed % 4 == 0,
                base: RuntimeOptions {
                    faults: FaultPlan::none(),
                    ..generated_options(seed)
                },
            };
            let fleet = serve_fleet(&boards, &[], &[], &[], &reqs, &opts)
                .unwrap()
                .report;
            requeued += fleet.requeued;
            let mut shed_at = HashMap::new();
            for (board, row) in boards.iter().zip(&fleet.boards) {
                let Some(report) = &row.report else { continue };
                // The board's stream as the old `serve` took it.
                let stream: Vec<Request> = (report.traces.iter())
                    .map(|t| Request {
                        arrival_s: t.arrival_s,
                        ..reqs.iter().find(|r| r.id == t.id).unwrap().clone()
                    })
                    .collect();
                let board_opts = RuntimeOptions {
                    faults: board.faults.clone(),
                    ..opts.base.clone()
                };
                let reference = traces_reference(&board.design, &stream, &board_opts);
                assert_eq!(report.traces.iter().collect::<Vec<_>>(), reference);
                permuted += usize::from(!report.traces.by_id.is_empty());
                for t in &report.traces {
                    if t.outcome == StreamStatus::Shed && board.faults.fatal_outage() {
                        shed_at.insert(t.id, t.completed_s);
                    }
                }
            }
            // A rescued request arrives where its first board shed it.
            let live = (boards.iter().zip(&fleet.boards)).filter(|(b, _)| !b.faults.fatal_outage());
            let rescued = (live
                .flat_map(|(_, row)| &row.report)
                .flat_map(|r| &r.traces))
            .filter(|t| shed_at.get(&t.id).is_some_and(|&at| at == t.arrival_s));
            assert_eq!(rescued.count(), fleet.requeued, "seed {seed}");
            assert_eq!(shed_at.len(), fleet.requeued, "seed {seed}");
        }
        assert!(permuted > 24 && requeued > 100, "{permuted} {requeued}");
    }

    /// Under an outage with rescues, every request that completed in the
    /// final placement runs its kernel chain exactly once: a rescue board
    /// is scheduled again over its whole share, and scheduling runs no
    /// tensor.
    #[test]
    fn each_completed_request_runs_its_chain_once_through_a_rescue() {
        let (module, kernel) = crate::tests::axpy_stage();
        let names = ["main".to_string()];
        let (modules, kernels) = ([&module], [&kernel]);
        let mut boards = boards3();
        boards[0].faults = FaultPlan {
            seed: 3,
            outage: Some(Outage {
                fail_at: secs(0.0001),
                recover_at: None,
            }),
            ..FaultPlan::none()
        };
        let reqs = crate::generate_requests(&modules, 48, &Arrival::Closed, 9).unwrap();
        for route in [RoutePolicy::RoundRobin, RoutePolicy::Predictive] {
            let mut opts = fleet_opts(route);
            opts.parallel = true;
            opts.base.execute = true;
            let stream = Stream::of_requests(&reqs).unwrap();
            let stages = (&names[..], &modules[..], &kernels[..]);
            let out = serve_fleet_columns(&boards, stages, &stream, &opts).unwrap();
            let report = &out.report;
            assert!(report.requeued > 0, "route {}", route.label());
            let rescue_ran_phase1 =
                (report.boards.iter().skip(1)).any(|b| b.rescued_in > 0 && b.assigned > 0);
            assert!(rescue_ran_phase1, "route {}", route.label());
            let runs = stream.chain_runs.load(std::sync::atomic::Ordering::Relaxed);
            assert_eq!(runs, report.completed, "route {}", route.label());
            let executed = out.outputs.iter().filter(|o| !o.is_empty()).count();
            assert_eq!(executed, report.completed, "route {}", route.label());
        }
    }

    #[test]
    fn fleet_without_survivors_keeps_shed_requests() {
        let d = design(vec![2], 8, &[200_000]);
        let dead = FaultPlan {
            seed: 1,
            outage: Some(Outage {
                fail_at: secs(0.0001),
                recover_at: None,
            }),
            ..FaultPlan::none()
        };
        let boards = vec![FleetBoard {
            name: "only".into(),
            design: d.clone(),
            faults: dead.clone(),
        }];
        let reqs = timing_requests(40);
        let fleet = serve_fleet(
            &boards,
            &[],
            &[],
            &[],
            &reqs,
            &fleet_opts(RoutePolicy::RoundRobin),
        )
        .unwrap()
        .report;
        // Identical to a single-board serve under the same plan.
        let solo = serve(
            &d,
            &[],
            &[],
            &[],
            &reqs,
            &RuntimeOptions {
                faults: dead,
                ..fleet_opts(RoutePolicy::RoundRobin).base
            },
        )
        .unwrap()
        .report;
        assert_eq!(fleet.shed, solo.shed);
        assert!(fleet.shed > 0);
        assert_eq!(fleet.requeued, 0);
        assert_eq!(fleet.boards[0].report.as_ref().unwrap(), &solo);
    }

    #[test]
    fn route_parsing_and_labels() {
        assert_eq!(RoutePolicy::parse("rr"), Ok(RoutePolicy::RoundRobin));
        assert_eq!(RoutePolicy::parse("jsq"), Ok(RoutePolicy::ShortestQueue));
        assert_eq!(
            RoutePolicy::parse("predictive"),
            Ok(RoutePolicy::Predictive)
        );
        assert!(RoutePolicy::parse("random").is_err());
        assert_eq!(RoutePolicy::RoundRobin.label(), "rr");
    }

    #[test]
    fn empty_inputs_are_structured_errors() {
        let reqs = timing_requests(4);
        assert_eq!(
            serve_fleet(&[], &[], &[], &[], &reqs, &FleetOptions::default()).unwrap_err(),
            RuntimeError::NoBoards
        );
        let boards = vec![FleetBoard::healthy(design(vec![2], 8, &[200_000]))];
        assert_eq!(
            serve_fleet(&boards, &[], &[], &[], &[], &FleetOptions::default()).unwrap_err(),
            RuntimeError::NoRequests
        );
    }

    #[test]
    fn report_json_has_the_fleet_keys() {
        let boards = boards3();
        let reqs = timing_requests(24);
        let r = serve_fleet(
            &boards,
            &[],
            &[],
            &[],
            &reqs,
            &fleet_opts(RoutePolicy::ShortestQueue),
        )
        .unwrap()
        .report;
        let j = r.to_json();
        for key in [
            "\"route\"",
            "\"aggregate_rps\"",
            "\"goodput_rps\"",
            "\"per_board\"",
            "\"utilization\"",
            "\"rps_per_kluts\"",
            "\"requeued_across_boards\"",
            "\"assignment\"",
            "\"throughput_rps\"",
        ] {
            assert!(j.contains(key), "missing {key}");
        }
        assert!(r.render_table().contains("req/s/kLUT"));
        // Poisson arrivals flow through the same admission order.
        let preqs =
            crate::generate_timing_requests(24, &Arrival::Poisson { rate_rps: 5000.0 }, 9).unwrap();
        let pr = serve_fleet(
            &boards,
            &[],
            &[],
            &[],
            &preqs,
            &fleet_opts(RoutePolicy::Predictive),
        )
        .unwrap()
        .report;
        assert_eq!(pr.requests, 24);
        assert!(pr.latency_p50_s <= pr.latency_p99_s);
    }

    impl FleetReport {
        /// The emitter `to_json` replaced, verbatim but for the names of
        /// the reference functions it calls.
        fn to_json_reference(&self) -> String {
            let mut s = String::new();
            s.push_str("{\n");
            s.push_str(&format!("  \"route\": \"{}\",\n", self.route.label()));
            s.push_str(&format!("  \"parallel\": {},\n", self.parallel));
            s.push_str(&format!("  \"requests\": {},\n", self.requests));
            s.push_str(&format!("  \"boards\": {},\n", self.boards.len()));
            s.push_str(&format!(
                "  \"makespan_s\": {:.6},\n",
                to_secs(self.makespan_ticks)
            ));
            s.push_str(&format!(
                "  \"aggregate_rps\": {:.3},\n",
                self.aggregate_rps
            ));
            s.push_str(&format!(
                "  \"goodput_rps\": {},\n",
                self.goodput_rps
                    .map_or_else(|| "null".to_string(), |v| format!("{v:.3}"))
            ));
            s.push_str(&format!(
                "  \"latency\": {{\"mean_s\": {:.6}, \"p50_s\": {:.6}, \"p99_s\": {:.6}, \"max_s\": {:.6}}},\n",
                self.latency_mean_s, self.latency_p50_s, self.latency_p99_s, self.latency_max_s
            ));
            s.push_str(&format!(
                "  \"reliability\": {{\"completed\": {}, \"retried\": {}, \"timed_out\": {}, \
                 \"shed\": {}, \"failed\": {}, \"requeued_across_boards\": {}}},\n",
                self.completed, self.retried, self.timed_out, self.shed, self.failed, self.requeued
            ));
            s.push_str("  \"per_board\": [\n");
            for (k, b) in self.boards.iter().enumerate() {
                s.push_str(&format!(
                    "    {{\"name\": \"{}\", \"platform\": \"{}\", \"board_luts\": {}, \
                     \"assigned\": {}, \"rescued_in\": {}, \"rescued_out\": {}, \
                     \"est_request_ticks\": {}, \
                     \"utilization\": {:.4}, \"rps_per_kluts\": {:.4}, \"report\": {}}}{}\n",
                    crate::json_escape(&b.name),
                    crate::json_escape(&b.platform),
                    b.board_luts,
                    b.assigned,
                    b.rescued_in,
                    b.rescued_out,
                    b.est_request_ticks,
                    b.utilization,
                    b.rps_per_kluts,
                    match &b.report {
                        Some(r) => indent_json(&r.to_json_reference(), 4),
                        None => "null".into(),
                    },
                    if k + 1 == self.boards.len() { "" } else { "," },
                ));
            }
            s.push_str("  ],\n");
            s.push_str("  \"assignment\": [");
            for (k, (id, b)) in self.assignment.iter().enumerate() {
                s.push_str(&format!(
                    "{{\"id\": {id}, \"board\": {b}}}{}",
                    if k + 1 == self.assignment.len() {
                        ""
                    } else {
                        ", "
                    },
                ));
            }
            s.push_str("]\n}\n");
            s
        }
    }

    /// Re-indent an embedded JSON document by `by` spaces (first line
    /// stays in place — it follows a `"key": ` prefix).
    fn indent_json(doc: &str, by: usize) -> String {
        let pad = " ".repeat(by);
        doc.trim_end()
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == 0 {
                    l.to_string()
                } else {
                    format!("\n{pad}{l}")
                }
            })
            .collect()
    }

    /// A fleet report over generated board reports: hostile names, a
    /// board that never got a request, `None` goodput on odd seeds.
    fn generated_fleet(seed: u64, boards: usize, traces: usize) -> FleetReport {
        let per_board: Vec<BoardReport> = (0..boards as u64)
            .map(|b| BoardReport {
                name: format!("board\"{b}\\\n"),
                platform: format!("zcu{b}\u{2}"),
                board_luts: 53_200 << b,
                assigned: traces,
                rescued_in: b as usize,
                rescued_out: 7 * b as usize,
                est_request_ticks: 389_197_500 + b,
                utilization: 0.125 * b as f64,
                rps_per_kluts: 1234.5678 / (1 + b) as f64,
                report: (b != 1).then(|| generated_report(seed + b, traces)),
            })
            .collect();
        let r = generated_report(seed, 0);
        FleetReport {
            route: [RoutePolicy::RoundRobin, RoutePolicy::Predictive][seed as usize % 2],
            parallel: seed.is_multiple_of(2),
            requests: boards * traces,
            completed: r.completed,
            retried: r.retried,
            timed_out: r.timed_out,
            shed: r.shed,
            failed: r.failed,
            requeued: r.rounds,
            makespan_ticks: r.makespan_ticks,
            aggregate_rps: r.throughput_rps,
            goodput_rps: r.goodput_rps,
            latency_mean_s: r.latency_mean_s,
            latency_p50_s: r.latency_p50_s,
            latency_p99_s: r.latency_p99_s,
            latency_max_s: r.latency_max_s,
            assignment: (0..boards * traces).map(|i| (i * 3, i % boards)).collect(),
            boards: per_board,
        }
    }

    #[test]
    fn streaming_writer_reproduces_the_reference_emitter() {
        for (seed, boards, traces) in [(0, 1, 0), (1, 2, 1), (2, 3, 5), (3, 5, 40), (4, 0, 0)] {
            let mut r = generated_fleet(seed, boards, traces);
            // The first board's report stays as drawn.
            let reports = r.boards.iter_mut().filter_map(|b| b.report.as_mut());
            for report in reports.skip(1) {
                onto_secs6_edges(&mut report.traces);
            }
            let json = r.to_json();
            assert_eq!(json, r.to_json_reference(), "seed {seed}");
            crate::json::validate(&json).unwrap();
            assert_eq!(json.capacity(), r.json_capacity(), "seed {seed}");
        }
    }

    #[test]
    fn json_capacity_is_a_tight_upper_bound_on_a_five_board_fleet() {
        let json = generated_fleet(8, 5, 4_000).to_json();
        assert!(json.capacity() as f64 <= 1.05 * json.len() as f64);
    }
}
