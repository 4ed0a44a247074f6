//! The measuring loop shared by every workload.
//!
//! One process, one running thread, fixed work: a run is a fixed number
//! of rounds of a fixed list of op kinds. The round count follows from
//! `--seconds` through a per-workload constant tuned once, so that the
//! same `--seconds` and `--seed` always give exactly the same ops. Each
//! round is bracketed by calibration ops and every op time is divided
//! by its round's calibration times (see [`crate::cal`]); every reported
//! time is a median over rounds.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crate::alloc::{self, AllocCount};
use crate::cal::CalOp;
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median, percentile};
use crate::trace::{SpanAgg, Tracer};
use crate::{host, Args};

/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
/// Calibration ops averaged on each side of one set-up.
const SETUP_BRACKET: usize = 5;
const MIN_ROUNDS: usize = 4;

/// One kind of host op. A round runs every kind once, in order.
#[derive(Debug, Clone)]
pub struct OpKind {
    pub name: String,
    /// Work units one op of this kind completes (programs, design
    /// points, requests).
    pub units: u64,
}

/// Outputs of the simulated platform model for the design(s) a workload
/// builds. Host-independent: the same on every round and every machine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimMetrics {
    pub speedup_vs_arm: f64,
    pub plm_brams: f64,
    pub kernels_fit: f64,
    pub goodput_rps: f64,
    pub p99_ms: f64,
    pub served_share: f64,
}

pub trait Workload: Sized {
    /// What one op returns; handed to [`Workload::check`] outside the
    /// timed region.
    type Out;

    /// Rounds per second of `--seconds`, tuned once on the reference
    /// box so that the measured phase lasts about `--seconds`.
    const ROUNDS_PER_SECOND: f64;

    /// The calibration op the workload's wall times are divided by: the
    /// one that slows down the way the workload's code does (README,
    /// "Calibration").
    const CAL: CalOp;

    /// Generate inputs from the seed, compile what the workload
    /// serves, fill caches, verify every compiled program bit-exactly
    /// against the reference interpreter and record the reference
    /// output of every op kind.
    fn setup(seed: u64, out_dir: &Path) -> Result<Self, String>;

    fn kinds(&self) -> &[OpKind];

    /// Index of the kind `op_p50_cal_ms` reports.
    fn headline(&self) -> usize;

    /// Run one op. With the tracer off this is the user's entry point,
    /// called as a user would; with it on, the same work through the
    /// layers' public functions, one span per call.
    fn run(&mut self, kind: usize, tracer: &mut Tracer) -> Self::Out;

    /// Compare an op's output with the reference recorded in set-up.
    fn check(&self, kind: usize, out: &Self::Out) -> Result<(), String>;

    fn sim(&self) -> SimMetrics;

    /// Per-layer metrics of this workload: from the traced rounds'
    /// spans plus direct probes of single layers. A probe that fails
    /// fails the run.
    fn layers(&mut self, agg: &SpanAgg, m: &mut Metrics) -> Result<(), String>;
}

pub fn rounds_for<W: Workload>(seconds: u64) -> usize {
    ((seconds as f64 * W::ROUNDS_PER_SECOND).round() as usize).max(MIN_ROUNDS)
}

struct OpRec {
    raw_s: f64,
    alloc: AllocCount,
    /// Most bytes live at once while the op ran (the workload's
    /// resident state included).
    peak_live_bytes: u64,
}

struct RoundRec {
    traced: bool,
    /// Wall seconds of the calibration op right before and right after
    /// the round.
    cal_before_s: f64,
    cal_after_s: f64,
    /// Wall seconds → cal-seconds for this round.
    scale: f64,
    ops: Vec<OpRec>,
}

impl RoundRec {
    fn cal_total_s(&self) -> f64 {
        self.ops.iter().map(|o| o.raw_s).sum::<f64>() * self.scale
    }
}

struct Phase {
    rounds: Vec<RoundRec>,
    /// Traced round index of each op id (`None`: not in a traced round).
    op_round: Vec<Option<usize>>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
    runqueue_wait_ns: u64,
}

/// Run one round per entry of `traced`, each bracketed by calibration
/// ops (adjacent rounds share one). Outputs are checked outside the
/// timed region; a failed check is a failed op.
fn measure<W: Workload>(w: &mut W, traced: &[bool], tracer: &mut Tracer) -> Phase {
    let n_kinds = w.kinds().len();
    let mut phase = Phase {
        rounds: Vec::with_capacity(traced.len()),
        op_round: vec![None],
        attempted: 0,
        failed: 0,
        wall_s: 0.0,
        runqueue_wait_ns: 0,
    };
    let wait_base = host::runqueue_wait_ns();
    let started = Instant::now();
    let mut traced_rounds = 0usize;
    let mut cal_before_s = W::CAL.measure();
    for &is_traced in traced {
        tracer.set_enabled(is_traced);
        let mut ops = Vec::with_capacity(n_kinds);
        for kind in 0..n_kinds {
            let op = tracer.begin_op() as usize;
            phase.op_round.resize(op + 1, None);
            phase.op_round[op] = is_traced.then_some(traced_rounds);
            let alloc_base = AllocCount::now();
            alloc::restart_peak();
            let t = Instant::now();
            let out = black_box(w.run(kind, tracer));
            let raw_s = t.elapsed().as_secs_f64();
            let alloc = AllocCount::now().since(alloc_base);
            let peak_live_bytes = alloc::peak_live_bytes();
            phase.attempted += 1;
            if let Err(e) = w.check(kind, &out) {
                phase.failed += 1;
                eprintln!("op '{}' failed its check: {e}", w.kinds()[kind].name);
            }
            ops.push(OpRec {
                raw_s,
                alloc,
                peak_live_bytes,
            });
        }
        let cal_after_s = W::CAL.measure();
        phase.rounds.push(RoundRec {
            traced: is_traced,
            cal_before_s,
            cal_after_s,
            scale: W::CAL.normalise(1.0, cal_before_s, cal_after_s),
            ops,
        });
        traced_rounds += usize::from(is_traced);
        cal_before_s = cal_after_s;
    }
    tracer.set_enabled(false);
    phase.wall_s = started.elapsed().as_secs_f64();
    phase.runqueue_wait_ns = host::runqueue_wait_ns().saturating_sub(wait_base);
    eprintln!(
        "measured phase: {} rounds of {} op kind(s) in {:.2} s",
        traced.len(),
        n_kinds,
        phase.wall_s
    );
    phase
}

/// Median calibrated seconds of each op kind over the rounds selected
/// by `traced`.
fn kind_medians(phase: &Phase, n_kinds: usize, traced: bool) -> Vec<f64> {
    (0..n_kinds)
        .map(|k| {
            let samples: Vec<f64> = phase
                .rounds
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| r.ops[k].raw_s * r.scale)
                .collect();
            median(&samples)
        })
        .collect()
}

fn units_per_round(kinds: &[OpKind]) -> f64 {
    kinds.iter().map(|k| k.units).sum::<u64>() as f64
}

/// One set-up, bracketed by calibration ops; returns the state and the
/// calibrated set-up seconds.
fn timed_setup<W: Workload>(args: &Args) -> Result<(W, f64), String> {
    let cal_before_s = W::CAL.mean(SETUP_BRACKET);
    let t = Instant::now();
    let w = W::setup(args.seed, &args.out_dir)?;
    let wall_s = t.elapsed().as_secs_f64();
    let cal_after_s = W::CAL.mean(SETUP_BRACKET);
    Ok((w, W::CAL.normalise(wall_s, cal_before_s, cal_after_s)))
}

/// The discarded warm-up round. Its outputs are still checked: a wrong
/// answer here is a wrong answer.
fn warm_up<W: Workload>(w: &mut W) -> Result<(), String> {
    let mut tracer = Tracer::new(false);
    for kind in 0..w.kinds().len() {
        let out = w.run(kind, &mut tracer);
        w.check(kind, &out)
            .map_err(|e| format!("warm-up op '{}': {e}", w.kinds()[kind].name))?;
    }
    Ok(())
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics_json: String,
}

impl RunResult {
    /// The contract's result line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct, self.attempted, self.failed, self.metrics_json
        )
    }
}

/// `--trace 0`: the end-to-end metrics.
pub fn run_end_to_end<W: Workload>(args: &Args) -> Result<RunResult, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous state first so set-ups do not stack in memory.
        drop(state.take());
        let (w, cal_s) = timed_setup::<W>(args)?;
        setups.push(cal_s);
        state = Some(w);
    }
    let mut w = state.expect("SETUP_REPEATS >= 1");
    warm_up(&mut w)?;

    let rounds = rounds_for::<W>(args.seconds);
    let mut tracer = Tracer::new(false);
    let phase = measure(&mut w, &vec![false; rounds], &mut tracer);

    let kinds = w.kinds();
    let per_kind = kind_medians(&phase, kinds.len(), false);
    let units = units_per_round(kinds);
    let mut alloc = AllocCount::default();
    let mut peak_live_bytes = 0;
    for op in phase.rounds.iter().flat_map(|r| &r.ops) {
        alloc.add(op.alloc);
        peak_live_bytes = peak_live_bytes.max(op.peak_live_bytes);
    }
    let total_units = units * rounds as f64;
    let sim = w.sim();
    // The machine, for whoever reads the log: raw wall numbers never
    // enter an end-to-end metric.
    let raw_s: f64 = phase
        .rounds
        .iter()
        .flat_map(|r| &r.ops)
        .map(|o| o.raw_s)
        .sum();
    let round_cal_s: Vec<f64> = phase.rounds.iter().map(RoundRec::cal_total_s).collect();
    eprintln!(
        "host: raw_units_per_s={} cal_op_ms={} round_iqr_share={}",
        total_units / raw_s,
        cal_op_ms(&phase),
        iqr_share(&round_cal_s)
    );

    let mut m = Metrics::default();
    m.set("setup_s", median(&setups));
    m.set("units_per_cal_s", units / per_kind.iter().sum::<f64>());
    m.set("op_p50_cal_ms", per_kind[w.headline()] * 1e3);
    m.set("peak_heap_mb", peak_live_bytes as f64 / (1024.0 * 1024.0));
    m.set("allocs_per_unit", alloc.calls as f64 / total_units);
    m.set(
        "alloc_kb_per_unit",
        alloc.bytes as f64 / 1024.0 / total_units,
    );
    set_sim(&mut m, &sim);
    Ok(RunResult {
        correct: phase.failed == 0,
        attempted: phase.attempted,
        failed: phase.failed,
        metrics_json: m.to_json(END_TO_END),
    })
}

/// Median wall time of the calibration op over the phase, ms.
fn cal_op_ms(phase: &Phase) -> f64 {
    let ops: Vec<f64> = phase.rounds.iter().map(|r| r.cal_after_s).collect();
    median(&ops) * 1e3
}

/// `<out_dir>/rounds-<workload>.tsv`: one line per measured op — round,
/// whether it was traced, op kind, the calibration op's wall time before
/// and after the round, the op's raw wall time (seconds). What the
/// calibration can be judged on (README, "Calibration").
fn write_rounds_log(args: &Args, kinds: &[OpKind], phase: &Phase) -> Result<(), String> {
    let mut text = String::from("round\ttraced\tkind\tcal_before_s\tcal_after_s\traw_s\n");
    for (i, r) in phase.rounds.iter().enumerate() {
        for (kind, op) in kinds.iter().zip(&r.ops) {
            text.push_str(&format!(
                "{i}\t{}\t{}\t{}\t{}\t{}\n",
                u8::from(r.traced),
                kind.name,
                r.cal_before_s,
                r.cal_after_s,
                op.raw_s
            ));
        }
    }
    let path = args.out_dir.join(format!("rounds-{}.tsv", args.workload));
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn set_sim(m: &mut Metrics, sim: &SimMetrics) {
    m.set("sim_speedup_vs_arm", sim.speedup_vs_arm);
    m.set("sim_plm_brams", sim.plm_brams);
    m.set("sim_kernels_fit", sim.kernels_fit);
    m.set("sim_goodput_rps", sim.goodput_rps);
    m.set("sim_p99_ms", sim.p99_ms);
    m.set("sim_served_share", sim.served_share);
}

/// `--trace 1`: the per-layer metrics. Untraced and traced rounds
/// alternate, so both see the same machine; their difference is the
/// tracing overhead. Writes the spans to `<out_dir>/trace-<workload>.json`
/// and every round's times to `<out_dir>/rounds-<workload>.tsv`.
pub fn run_traced<W: Workload>(args: &Args) -> Result<RunResult, String> {
    let (mut w, _) = timed_setup::<W>(args)?;
    warm_up(&mut w)?;

    let rounds = rounds_for::<W>(args.seconds);
    let plan: Vec<bool> = (0..rounds).map(|i| i % 2 == 1).collect();
    let mut tracer = Tracer::new(false);
    let phase = measure(&mut w, &plan, &mut tracer);
    // Before any probe: `VmHWM` only ever grows, and the probes of
    // `layers` allocate more than the workload does.
    let peak_rss_mb = host::peak_rss_mb();

    let kinds = w.kinds().to_vec();
    let n = kinds.len();
    let units = units_per_round(&kinds);
    let untraced = kind_medians(&phase, n, false);
    let traced = kind_medians(&phase, n, true);
    let untraced_rate = units / untraced.iter().sum::<f64>();
    let traced_rate = units / traced.iter().sum::<f64>();

    let round_scale: Vec<f64> = phase
        .rounds
        .iter()
        .filter(|r| r.traced)
        .map(|r| r.scale)
        .collect();
    let mut agg = SpanAgg::build(&tracer, &phase.op_round, &round_scale);
    agg.untraced_round_s = untraced.iter().sum();

    let mut m = Metrics::default();
    w.layers(&agg, &mut m)
        .map_err(|e| format!("per-layer probes: {e}"))?;

    let plain: Vec<&RoundRec> = phase.rounds.iter().filter(|r| !r.traced).collect();
    let headline: Vec<f64> = plain
        .iter()
        .map(|r| r.ops[w.headline()].raw_s * r.scale)
        .collect();
    let round_cal_s: Vec<f64> = plain.iter().map(|r| r.cal_total_s()).collect();
    let raw_s: f64 = plain.iter().flat_map(|r| &r.ops).map(|o| o.raw_s).sum();
    m.set("host.cal_op_ms", cal_op_ms(&phase));
    m.set("host.raw_units_per_s", units * plain.len() as f64 / raw_s);
    m.set("host.op_p95_cal_ms", percentile(&headline, 0.95) * 1e3);
    m.set("host.op_samples", headline.len() as f64);
    m.set("host.round_iqr_share", iqr_share(&round_cal_s));
    m.set("host.peak_rss_mb", peak_rss_mb);
    m.set(
        "host.runqueue_wait_share",
        phase.runqueue_wait_ns as f64 * 1e-9 / phase.wall_s,
    );
    m.set(
        "host.trace_overhead_share",
        1.0 - traced_rate / untraced_rate,
    );

    let trace_json = tracer.to_json(&args.workload, args.seed);
    runtime::json::validate(&trace_json).map_err(|e| format!("trace file is not JSON: {e}"))?;
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|_| {
            std::fs::write(
                args.out_dir.join(format!("trace-{}.json", args.workload)),
                trace_json,
            )
        })
        .map_err(|e| {
            format!(
                "cannot write the trace under {}: {e}",
                args.out_dir.display()
            )
        })?;
    write_rounds_log(args, &kinds, &phase)?;

    Ok(RunResult {
        correct: phase.failed == 0,
        attempted: phase.attempted,
        failed: phase.failed,
        metrics_json: m.to_json(PER_LAYER),
    })
}

/// Median calibrated seconds of `f` over `reps` runs, each bracketed by
/// calibration ops — for probing one layer's public function directly.
/// `cal` is the probing workload's.
pub fn probe_s<T>(cal: CalOp, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    let mut cal_before_s = cal.measure();
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f());
        let wall_s = t.elapsed().as_secs_f64();
        let cal_after_s = cal.measure();
        samples.push(cal.normalise(wall_s, cal_before_s, cal_after_s));
        cal_before_s = cal_after_s;
    }
    median(&samples)
}

/// FNV-1a over bytes: the fingerprint the correctness checks compare.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

pub fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: the benchmark's own generator for everything drawn from
/// `--seed`, so the inputs do not depend on a product crate.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_and_splitmix_are_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64_extend(fnv64(b"a"), b"b"), fnv64(b"ab"));
        let (mut a, mut b) = (7u64, 7u64);
        assert_eq!(splitmix(&mut a), splitmix(&mut b));
        let mut c = 8u64;
        assert_ne!(splitmix(&mut a), splitmix(&mut c));
    }

    #[test]
    fn result_line_is_valid_json_with_the_four_keys() {
        let r = RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics_json: "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}".into(),
        };
        let line = r.to_json();
        runtime::json::validate(&line).unwrap();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"));
    }
}
