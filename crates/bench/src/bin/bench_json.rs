//! Machine-readable perf baseline emitter.
//!
//! Times the hot paths this repository optimizes — compiler stages,
//! interpreter, full-system simulation, the DSE sweep, the multi-kernel
//! program flow, the compile cache, the multi-board portfolio sweep,
//! and the batched multi-request serving runtime — and writes
//! `BENCH_pr10.json` (schema `cfdfpga-bench-v1`, documented in
//! README.md, "Reading `BENCH_*.json`"). The committed file carries
//! both the numbers of the tree it was generated from and the frozen
//! PR-9 medians (`baseline_pr9`, lifted from the committed
//! `BENCH_pr9.json`), so the perf trajectory is tracked in-repo and
//! regressions are diffable. The `fleet` section records the PR-9
//! acceptance figures: a 64-requests-per-board backlog sharded across
//! the whole board catalog under predictive routing must reach >= 3x
//! the single-board `runtime/serve64_batched` aggregate req/s. The
//! `polyhedra` section records the
//! feasibility-oracle counters accumulated across the whole run —
//! simplex calls, memo hits/misses, FM fallbacks (PR 8). The
//! `platforms` section records, per
//! catalog platform, the paper kernel's largest feasible replication
//! and its simulated time — the portfolio figures. The `runtime`
//! section records the serving acceptance figures: batched vs
//! sequential requests/sec on the zcu106 (the emitter asserts the 2x or
//! better speedup), p99 latency, the DMA/compute overlap fraction, and
//! the PR-7 fault-tolerance figure: the same backlog served under a 10%
//! transient-error plan must keep goodput at >= 0.8x the fault-free
//! throughput (`runtime/serve_faulty_10pct`). The `compile_cache`
//! section records the PR-6 acceptance figures: cold (parallel +
//! optimized) and warm (content-hash hit) program compiles against the
//! frozen PR-5 `program/compile_simstep` median — the emitter asserts
//! >= 2x cold and >= 10x warm.
//!
//! ```sh
//! cargo run --release -p bench --bin bench_json            # writes BENCH_pr10.json
//! cargo run --release -p bench --bin bench_json -- --smoke # 3 samples, stdout only
//! cargo run --release -p bench --bin bench_json -- --check # CI gate: committed
//!                        # BENCH_pr10.json medians vs BENCH_pr9.json,
//!                        # >25% after drift correction fails
//! ```

use cfd_core::program::{ProgramFlow, ProgramOptions};
use cfd_core::{CompileCache, FleetBoard, FleetOptions, FlowOptions, RoutePolicy};
use pschedule::{CompatibilityGraph, Dependences, KernelModel, Liveness, SchedulerOptions};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use teil::interp::{Interpreter, Tensor};
use teil::layout::LayoutPlan;

struct Args {
    samples: usize,
    out: Option<String>,
    /// `--check`: compare committed BENCH_pr10.json against the frozen
    /// BENCH_pr9.json baselines instead of measuring.
    check: bool,
}

/// Wall-clock benches (whole-sweep timings) repeat this many times and
/// report the median — `samples: 1` point estimates were too noisy to
/// gate on.
const WALL_REPS: usize = 3;

/// Median wall time over `reps` runs of `f`, with no warm-up run —
/// these are whole-sweep timings where an extra run is expensive.
/// Returns the median and the last run's result so the caller can keep
/// reporting from a real sweep.
fn median_wall<T>(reps: usize, mut f: impl FnMut() -> T) -> (u64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(std::hint::black_box(f()));
        times.push(t.elapsed().as_nanos() as u64);
    }
    times.sort_unstable();
    (times[times.len() / 2], last.expect("reps >= 1"))
}

fn parse_args() -> Args {
    let mut samples = 9usize;
    let mut out = Some("BENCH_pr10.json".to_string());
    let mut check = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => {
                samples = 3;
                out = None;
            }
            "--samples" => {
                samples = it.next().and_then(|v| v.parse().ok()).expect("--samples N");
            }
            "-o" | "--out" => out = Some(it.next().expect("-o PATH")),
            "--check" => check = true,
            other => panic!("unknown argument '{other}'"),
        }
    }
    Args {
        samples: samples.max(1),
        out,
        check,
    }
}

/// Extract `(name, median_ns)` pairs from a `cfdfpga-bench-v1` JSON
/// file's `benches` array (hand-rolled — the dependency set has no
/// serde_json).
fn read_bench_medians(path: &str) -> Vec<(String, u64)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read '{path}': {e} (run bench_json to generate it)"));
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name_at) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[name_at + 9..];
        let Some(name_end) = rest.find('"') else {
            continue;
        };
        let name = &rest[..name_end];
        let Some(med_at) = line.find("\"median_ns\": ") else {
            continue;
        };
        let digits: String = line[med_at + 13..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        if let Ok(ns) = digits.parse::<u64>() {
            out.push((name.to_string(), ns));
        }
    }
    out
}

/// CI regression gate: every bench name present in both committed files
/// must not have regressed by more than `CHECK_TOLERANCE` from PR 9 to
/// PR 10 **after correcting for tree-wide machine drift**. Purely
/// file-vs-file (deterministic — no timing in CI).
///
/// The two committed files are wall-clock medians measured in different
/// sessions, possibly under different host contention; on a shared
/// single-core box the whole tree drifts ±50% between windows. Such
/// drift is uniform, so the gate first estimates a machine factor from
/// the current/baseline ratios of the stable (>= 1 ms) benches and then
/// flags only *differential* regressions: a path slower than the
/// tree-wide factor times the tolerance. A genuine regression in one
/// subsystem moves a few benches, not the whole distribution.
///
/// The factor is the *densest cluster* of the ratios (the geometric
/// mean of the shortest log-ratio window covering half the benches —
/// the least-median-of-squares location estimate), not their plain
/// median. Uniform machine drift shifts every untouched bench by the
/// same factor, so the untouched majority forms a tight cluster, while
/// paths the PR genuinely changed land outside it. A plain median is
/// biased whenever a PR deliberately speeds up several stable benches:
/// the improved ratios drag the estimate below the true machine factor
/// and every untouched bench then reads as a spurious regression.
///
/// Microsecond-scale benches drift well past the tolerance from binary
/// layout and CPU state alone, so a regression must also exceed an
/// absolute noise floor (scaled by the drift factor) to fail the gate:
/// relative checks on a 2 us median gate nothing but the weather.
const CHECK_NOISE_FLOOR_NS: u64 = 100_000;
/// Differential tolerance on top of the drift factor. Wider than the
/// old 20% absolute gate because the factor is itself a point estimate
/// from ~10 benches and parallel (`--jobs`) sweeps do not scale with
/// scalar benches under contention.
const CHECK_TOLERANCE: f64 = 1.25;
/// Benches with a baseline at least this large feed the drift estimate;
/// sub-millisecond medians are too layout-sensitive to vote.
const DRIFT_ESTIMATE_MIN_NS: u64 = 1_000_000;

fn run_check() -> ! {
    let baseline = read_bench_medians("BENCH_pr9.json");
    let current = read_bench_medians("BENCH_pr10.json");
    assert!(!baseline.is_empty(), "no benches in BENCH_pr9.json");
    assert!(!current.is_empty(), "no benches in BENCH_pr10.json");

    // Tree-wide drift factor: densest half-cluster of the ratios over
    // the stable benches (falling back to all overlapping benches if
    // too few qualify) — see the doc comment above for why not the
    // plain median. Clamped to >= 1 so a *faster* machine never
    // tightens the gate.
    let ratios = |min_ns: u64| -> Vec<f64> {
        baseline
            .iter()
            .filter(|(_, b)| *b >= min_ns)
            .filter_map(|(name, b)| {
                current
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, c)| *c as f64 / (*b).max(1) as f64)
            })
            .collect()
    };
    let mut drift = ratios(DRIFT_ESTIMATE_MIN_NS);
    if drift.len() < 3 {
        drift = ratios(0);
    }
    let machine = if drift.is_empty() {
        1.0
    } else {
        // Shortest half in log space: drift is multiplicative, so the
        // cluster search runs on log-ratios and the estimate is the
        // geometric mean of the tightest window holding half the
        // benches.
        let mut logs: Vec<f64> = drift.iter().map(|r| r.ln()).collect();
        logs.sort_by(f64::total_cmp);
        let h = logs.len() / 2 + 1;
        let best = (0..=logs.len() - h)
            .min_by(|&a, &b| (logs[a + h - 1] - logs[a]).total_cmp(&(logs[b + h - 1] - logs[b])))
            .unwrap();
        let window = &logs[best..best + h];
        (window.iter().sum::<f64>() / h as f64).exp()
    }
    .max(1.0);
    println!(
        "  machine drift factor: {machine:.3}x (densest half-cluster of {} stable benches)",
        drift.len()
    );

    let mut compared = 0usize;
    let mut failures = Vec::new();
    let mut missing = Vec::new();
    for (name, base_ns) in &baseline {
        let Some((_, cur_ns)) = current.iter().find(|(n, _)| n == name) else {
            // A baseline path that vanished from the current file would
            // silently escape the gate — treat it as a failure so
            // renames/drops are conscious decisions.
            missing.push(name.clone());
            continue;
        };
        compared += 1;
        let ratio = *cur_ns as f64 / (*base_ns).max(1) as f64;
        let adjusted_base = *base_ns as f64 * machine;
        let over_floor = *cur_ns as f64 > adjusted_base + CHECK_NOISE_FLOOR_NS as f64 * machine;
        let verdict = if ratio > machine * CHECK_TOLERANCE && over_floor {
            failures.push(name.clone());
            "REGRESSED"
        } else if ratio > machine * CHECK_TOLERANCE {
            "noise (below absolute floor)"
        } else {
            "ok"
        };
        println!(
            "  {name}: {:.3} ms -> {:.3} ms ({:+.1}%, {:+.1}% after drift) {verdict}",
            *base_ns as f64 / 1e6,
            *cur_ns as f64 / 1e6,
            (ratio - 1.0) * 100.0,
            (ratio / machine - 1.0) * 100.0,
        );
    }
    assert!(compared > 0, "no overlapping bench names to compare");
    if failures.is_empty() && missing.is_empty() {
        println!(
            "bench check: {compared} medians within {:.0}% of BENCH_pr9.json (drift {machine:.3}x)",
            (CHECK_TOLERANCE - 1.0) * 100.0
        );
        std::process::exit(0)
    }
    if !failures.is_empty() {
        eprintln!(
            "bench check FAILED: {} medians regressed >{:.0}% beyond tree drift: {}",
            failures.len(),
            (CHECK_TOLERANCE - 1.0) * 100.0,
            failures.join(", ")
        );
    }
    if !missing.is_empty() {
        eprintln!(
            "bench check FAILED: {} baseline benches missing from BENCH_pr10.json: {}",
            missing.len(),
            missing.join(", ")
        );
    }
    std::process::exit(1)
}

/// Median wall time of `f` over `samples` runs, in nanoseconds.
fn median_ns<T>(samples: usize, mut f: impl FnMut() -> T) -> u64 {
    std::hint::black_box(f()); // warm-up
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn main() {
    let args = parse_args();
    if args.check {
        run_check();
    }
    let samples = args.samples;
    let mut rows: Vec<(String, u64, usize)> = Vec::new();
    let mut push = |name: &str, ns: u64, n: usize| {
        println!("  {name}: median {:.3} ms ({n} samples)", ns as f64 / 1e6);
        rows.push((name.to_string(), ns, n));
    };

    // --- Compiler stages on the paper kernel (mirrors benches/compiler_stages.rs).
    println!("compiler stages (p = {}):", bench::PAPER_P);
    let src = cfdlang::examples::inverse_helmholtz(bench::PAPER_P);
    let ast = cfdlang::parse(&src).unwrap();
    let typed = cfdlang::check(&ast).unwrap();
    let lowered = teil::lower(&typed).unwrap();
    let module = teil::transform::factorize(&lowered);
    let layout = LayoutPlan::row_major(&module);
    let model = KernelModel::build(&module, &layout);
    let deps = Dependences::analyze(&model);
    let sched = pschedule::reschedule(&module, &model, &deps, &SchedulerOptions::default());

    push(
        "compiler/parse_and_check",
        median_ns(samples, || {
            cfdlang::check(&cfdlang::parse(&src).unwrap()).unwrap()
        }),
        samples,
    );
    push(
        "compiler/lower",
        median_ns(samples, || teil::lower(&typed).unwrap()),
        samples,
    );
    push(
        "compiler/factorize",
        median_ns(samples, || teil::transform::factorize(&lowered)),
        samples,
    );
    push(
        "compiler/polyhedral_model",
        median_ns(samples, || KernelModel::build(&module, &layout)),
        samples,
    );
    push(
        "compiler/dependence_analysis",
        median_ns(samples, || Dependences::analyze(&model)),
        samples,
    );
    push(
        "compiler/reschedule",
        median_ns(samples, || {
            pschedule::reschedule(&module, &model, &deps, &SchedulerOptions::default())
        }),
        samples,
    );
    push(
        "compiler/liveness",
        median_ns(samples, || {
            CompatibilityGraph::build(&model, &Liveness::analyze(&module, &model, &sched))
        }),
        samples,
    );
    push(
        "compiler/codegen_c99",
        median_ns(samples, || {
            let k = cgen::build_kernel(&module, &model, &sched, &cgen::CodegenOptions::default());
            cgen::emit_c99(&k)
        }),
        samples,
    );

    // --- Whole-flow ablation (mirrors benches/ablation.rs).
    println!("flow:");
    push(
        "ablation/flow_factored",
        median_ns(samples, || {
            cfd_core::Flow::compile(&src, &FlowOptions::default()).unwrap()
        }),
        samples,
    );
    push(
        "ablation/flow_naive",
        median_ns(samples, || {
            cfd_core::Flow::compile(
                &src,
                &FlowOptions {
                    factorize: false,
                    ..Default::default()
                },
            )
            .unwrap()
        }),
        samples,
    );

    // --- Full-system simulation (mirrors benches/parallel_speedup.rs).
    println!("simulation:");
    let art = bench::compile_paper_kernel(true, true);
    for k in [1usize, 16] {
        push(
            &format!("fig9/simulate_k{k}"),
            median_ns(samples, || bench::simulate(&art, k, k, 4_000)),
            samples,
        );
    }

    // --- Interpreter (flat walk vs the seed multi-index oracle).
    println!("interpreter (p = 7):");
    let imod = teil::transform::factorize(
        &teil::lower(
            &cfdlang::check(&cfdlang::parse(&cfdlang::examples::inverse_helmholtz(7)).unwrap())
                .unwrap(),
        )
        .unwrap(),
    );
    let mut inputs: HashMap<String, Tensor> = HashMap::new();
    for id in imod.of_kind(teil::TensorKind::Input) {
        inputs.insert(
            imod.name(id).to_string(),
            Tensor::from_fn(imod.shape(id), |i| {
                i.iter().sum::<usize>() as f64 * 0.25 - 1.0
            }),
        );
    }
    let interp = Interpreter::new(&imod);
    push(
        "interp/flat_walk",
        median_ns(samples, || interp.run(&inputs).unwrap()),
        samples,
    );
    push(
        "interp/multi_index_reference",
        median_ns(samples, || interp.run_reference(&inputs).unwrap()),
        samples,
    );

    // --- DSE sweep: wall clock (median over repetitions) + the
    // engine's own per-point accounting from the last sweep.
    println!("dse sweep:");
    let (sweep_ns, report) = median_wall(WALL_REPS, || bench::dse_sweep(2_000, 4));
    push("dse/sweep_32pt_wall", sweep_ns, WALL_REPS);

    // --- Multi-kernel program flow: the whole simulation_step chain
    // (interpolation → inverse Helmholtz → projection) compiled into
    // one shared-memory system, plus its chained simulation.
    println!("multi-kernel program (simulation_step, p = 7):");
    let psrc = cfdlang::examples::simulation_step(7);
    let popts = ProgramOptions::default();
    let cold_ns = median_ns(samples, || ProgramFlow::compile(&psrc, &popts).unwrap());
    push("program/compile_simstep", cold_ns, samples);
    let part = ProgramFlow::compile(&psrc, &popts).unwrap();
    let psys = part.system.as_ref().expect("program fits");
    push(
        "program/simulate_simstep",
        median_ns(samples, || {
            zynq::simulate_program(
                psys,
                &zynq::SimConfig {
                    elements: 4_000,
                    ..Default::default()
                },
            )
        }),
        samples,
    );
    let program_brams = (part.memory.brams, part.per_kernel_plm_brams());
    // Multi-kernel liveness: re-run `Liveness::analyze` and the
    // compatibility graph over every kernel of the compiled simstep
    // program — the cross-kernel analog of `compiler/liveness`.
    push(
        "compiler/liveness_simstep",
        median_ns(samples, || {
            for a in &part.kernels {
                let lv = Liveness::analyze(&a.module, &a.model, &a.schedule);
                std::hint::black_box(CompatibilityGraph::build(&a.model, &lv));
            }
        }),
        samples,
    );

    // --- Incremental compile cache: warm (in-memory content-hash hit)
    // and disk-warm (fresh cache over a populated directory, modeling a
    // new process) program compiles. The PR-6 acceptance gates compare
    // against the frozen PR-5 `program/compile_simstep` median: the
    // cold path must be >= 2x faster and the warm path >= 10x.
    println!("compile cache (simulation_step, p = 7):");
    let ccache = Arc::new(CompileCache::in_memory());
    ProgramFlow::compile_cached(&psrc, &popts, Arc::clone(&ccache)).unwrap();
    let warm_ns = median_ns(samples, || {
        ProgramFlow::compile_cached(&psrc, &popts, Arc::clone(&ccache)).unwrap()
    });
    push("compile_cache/warm_simstep", warm_ns, samples);
    let cache_dir =
        std::env::temp_dir().join(format!("cfdfpga-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let writer = Arc::new(CompileCache::with_dir(&cache_dir).expect("usable cache dir"));
    ProgramFlow::compile_cached(&psrc, &popts, writer).unwrap();
    let disk_warm_ns = median_ns(samples, || {
        let fresh = Arc::new(CompileCache::with_dir(&cache_dir).expect("usable cache dir"));
        ProgramFlow::compile_cached(&psrc, &popts, fresh).unwrap()
    });
    push("compile_cache/disk_warm_simstep", disk_warm_ns, samples);
    // Disk-warm acceptance: reviving the scheduling products from disk
    // (fresh process, populated store) must stay at least 2x under a
    // cold compile — the canonical-row fast path skips per-constraint
    // normalization and quadratic dedup when parsing entries.
    let disk_warm_x = cold_ns as f64 / disk_warm_ns as f64;
    println!("  disk-warm revival: {disk_warm_x:.2}x under cold");
    assert!(
        disk_warm_x >= 2.0,
        "disk-warm compile must stay >= 2x under cold (got {disk_warm_x:.2}x)"
    );
    let cache_counters = ccache.counters();
    let _ = std::fs::remove_dir_all(&cache_dir);
    let baseline_pr5 = read_bench_medians("BENCH_pr5.json");
    let pr5_compile = baseline_pr5
        .iter()
        .find(|(name, _)| name == "program/compile_simstep")
        .map(|(_, ns)| *ns);
    let (mut cold_x, mut warm_x) = (0.0f64, 0.0f64);
    if let Some(base) = pr5_compile {
        cold_x = base as f64 / cold_ns as f64;
        warm_x = base as f64 / warm_ns as f64;
        println!(
            "  vs PR-5 compile_simstep ({base} ns): cold {cold_x:.1}x, warm {warm_x:.1}x, \
             disk-warm {:.1}x",
            base as f64 / disk_warm_ns as f64
        );
        assert!(
            cold_x >= 2.0,
            "cold program compile must be >= 2x PR-5 (got {cold_x:.2}x)"
        );
        assert!(
            warm_x >= 10.0,
            "warm-cache program compile must be >= 10x PR-5 (got {warm_x:.2}x)"
        );
    }

    // --- Batched serving runtime: 64 queued requests on the zcu106
    // simstep system, batched (auto fill + double-buffered DMA) vs the
    // sequential per-request baseline — the PR-5 acceptance figures.
    println!("serving runtime (simulation_step, p = 7, 64 requests):");
    let serve_opts = cfd_core::RuntimeOptions {
        requests: 64,
        ..Default::default()
    };
    push(
        "runtime/serve64_batched",
        median_ns(samples, || part.serve(&serve_opts).unwrap()),
        samples,
    );
    push(
        "runtime/serve64_sequential",
        median_ns(samples, || {
            part.serve_sequential_baseline(&serve_opts).unwrap()
        }),
        samples,
    );
    let batched = part.serve(&serve_opts).unwrap().report;
    let sequential = part.serve_sequential_baseline(&serve_opts).unwrap();
    let serve_speedup = batched.throughput_rps / sequential.throughput_rps;
    println!(
        "  batched {:.1} req/s vs sequential {:.1} req/s -> {serve_speedup:.2}x, \
         p99 {:.4} s, overlap {:.2}",
        batched.throughput_rps,
        sequential.throughput_rps,
        batched.latency_p99_s,
        batched.overlap_fraction,
    );
    assert!(
        serve_speedup >= 2.0,
        "batched serving must be >= 2x sequential (got {serve_speedup:.2}x)"
    );
    // Double-buffered variant: halve the replication (k = m/2) so every
    // stage keeps a spare PLM set and the DMA overlaps compute.
    let m = part.system.as_ref().expect("simstep fits").config.m;
    let overlapped = ProgramFlow::compile(
        &psrc,
        &ProgramOptions {
            system: Some(sysgen::ProgramSystemConfig::uniform(m / 2, m, 3)),
            ..Default::default()
        },
    )
    .unwrap()
    .serve(&serve_opts)
    .unwrap()
    .report;
    println!(
        "  double-buffered (k={}, m={m}): {:.1} req/s, overlap fraction {:.2}",
        m / 2,
        overlapped.throughput_rps,
        overlapped.overlap_fraction,
    );
    assert!(
        overlapped.overlap_fraction > 0.0,
        "spare PLM sets must overlap DMA with compute"
    );
    // Fault tolerance: the same backlog under a 10% transient-error
    // plan (stock recovery policy: 3 retries, no backoff), at a fixed
    // fill of 4 so the plan draws across 16+ rounds rather than 4. The
    // PR-7 acceptance figure — goodput must stay at >= 0.8x the
    // fault-free throughput of the identical policy, and the
    // deterministic plan completes every request.
    let faulty_base = cfd_core::RuntimeOptions {
        requests: 64,
        batch: cfd_core::BatchPolicy::Fixed(4),
        ..Default::default()
    };
    let faulty_opts = cfd_core::RuntimeOptions {
        faults: cfd_core::FaultPlan::transient(7, 0.10),
        ..faulty_base.clone()
    };
    push(
        "runtime/serve_faulty_10pct",
        median_ns(samples, || part.serve(&faulty_opts).unwrap()),
        samples,
    );
    let fault_free = part.serve(&faulty_base).unwrap().report;
    let faulty = part.serve(&faulty_opts).unwrap().report;
    let goodput_ratio = faulty.goodput_rps.unwrap_or(0.0) / fault_free.throughput_rps;
    println!(
        "  faulty [{}]: goodput {:.1} req/s ({:.2}x fault-free), \
         {} completed / {} retried / {} failed, {} transient rounds",
        faulty.fault_plan,
        faulty.goodput_rps.unwrap_or(0.0),
        goodput_ratio,
        faulty.completed,
        faulty.retried,
        faulty.failed,
        faulty.transient_faults,
    );
    assert!(
        goodput_ratio >= 0.8,
        "10% transient faults must keep goodput >= 0.8x fault-free (got {goodput_ratio:.2}x)"
    );
    assert_eq!(
        faulty.completed, 64,
        "the retry policy must complete every request under the smoke plan"
    );
    assert!(
        faulty.transient_faults > 0,
        "the 10% plan must actually fire over 16 rounds (vacuous figure otherwise)"
    );

    // --- Online serving: the PR-10 event loop at a Poisson overload
    // point. Offered load is 4x the closed-backlog service rate, so the
    // queue grows and the capacity-fill FIFO's completed-request p99
    // inflates with the backlog. The SLO batcher sheds structurally
    // hopeless requests at admission and closes batches early when the
    // oldest queued request's budget is at risk, so its *completed* p99
    // stays bounded by the budget — the PR-10 acceptance figure: SLO
    // p99 strictly below capacity-fill p99 at the same overload point.
    let service_rps = batched.throughput_rps;
    let overload_rps = 4.0 * service_rps;
    // ~4 effective round cadences: comfortably serveable when admitted
    // promptly, far below the latency the overload backlog builds up.
    let slo_s = 4.0 * batched.capacity as f64 / service_rps;
    println!(
        "online serving (simulation_step, p = 7, 64 Poisson requests at {overload_rps:.0} req/s, \
         slo {slo_s:.4} s):"
    );
    let fifo_opts = cfd_core::RuntimeOptions {
        requests: 64,
        arrival: cfd_core::Arrival::Poisson {
            rate_rps: overload_rps,
        },
        online: cfd_core::OnlinePolicy {
            event_loop: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let slo_opts = cfd_core::RuntimeOptions {
        online: cfd_core::OnlinePolicy {
            event_loop: true,
            slo_s: Some(slo_s),
            ..Default::default()
        },
        ..fifo_opts.clone()
    };
    push(
        "runtime/serve_online_fifo64",
        median_ns(samples, || part.serve(&fifo_opts).unwrap()),
        samples,
    );
    push(
        "runtime/serve_online_slo64",
        median_ns(samples, || part.serve(&slo_opts).unwrap()),
        samples,
    );
    let online_fifo = part.serve(&fifo_opts).unwrap().report;
    let online_slo = part.serve(&slo_opts).unwrap().report;
    let fifo_p99 = online_fifo
        .latency_p99_completed_s
        .expect("capacity-fill FIFO completes the whole backlog");
    let slo_p99 = online_slo
        .latency_p99_completed_s
        .expect("the SLO policy must complete requests at this operating point");
    println!(
        "  capacity-fill p99 {fifo_p99:.4} s ({} completed) vs slo-aware p99 {slo_p99:.4} s \
         ({} completed, {} early-closed rounds, {} shed) -> {:.2}x p99 improvement",
        online_fifo.completed,
        online_slo.completed,
        online_slo.early_closed_rounds,
        online_slo.timed_out + online_slo.shed,
        fifo_p99 / slo_p99,
    );
    assert!(
        online_slo.completed > 0,
        "the SLO policy must keep serving under overload"
    );
    assert!(
        slo_p99 < fifo_p99,
        "SLO-aware batching must beat capacity-fill p99 under Poisson overload \
         (got {slo_p99:.4} s vs {fifo_p99:.4} s)"
    );
    assert!(
        slo_p99 <= slo_s + 1e-9,
        "completed-request p99 must respect the SLO budget (got {slo_p99:.4} s > {slo_s:.4} s)"
    );

    // --- Fleet serving: a 64-requests-per-board backlog (the serve64
    // per-board load, scaled to the fleet width) sharded across every
    // catalog board that fits the simstep program, under predictive
    // (cost-model) routing on scoped threads. Batching rounds cost the
    // same regardless of fill, so the aggregate-rate comparison holds
    // per-board load fixed rather than starving five boards on one
    // board's backlog. The PR-9 acceptance figure: fleet-aggregate
    // req/s must be >= 3x the single-board `runtime/serve64_batched`
    // rate.
    println!("fleet serving (simulation_step, p = 7, 64 requests/board, catalog):");
    let mut fleet_boards: Vec<FleetBoard> = Vec::new();
    for platform in sysgen::Platform::catalog() {
        let fopts = ProgramOptions {
            flow: cfd_core::FlowOptions::for_platform(platform.clone()),
            ..Default::default()
        };
        match ProgramFlow::compile(&psrc, &fopts).unwrap().system {
            Some(design) => fleet_boards.push(FleetBoard::healthy(design)),
            None => println!("  {}: program does not fit, skipped", platform.id),
        }
    }
    assert!(
        fleet_boards.len() >= 3,
        "the fleet must span at least 3 catalog boards"
    );
    let fleet_backlog = 64 * fleet_boards.len();
    let fleet_opts = FleetOptions {
        route: RoutePolicy::Predictive,
        parallel: true,
        base: cfd_core::RuntimeOptions {
            requests: fleet_backlog,
            ..serve_opts.clone()
        },
    };
    let (fleet_ns, fleet_out) = median_wall(WALL_REPS, || {
        part.serve_fleet(&fleet_boards, &fleet_opts).unwrap()
    });
    push("fleet/serve_5board_wall", fleet_ns, WALL_REPS);
    let fleet = fleet_out.report;
    let fleet_speedup = fleet.aggregate_rps / batched.throughput_rps;
    println!(
        "  {} boards [{}]: aggregate {:.1} req/s ({fleet_speedup:.2}x single-board batched), \
         goodput {:.1} req/s, p99 {:.4} s",
        fleet.boards.len(),
        fleet.route.label(),
        fleet.aggregate_rps,
        fleet.goodput_rps.unwrap_or(0.0),
        fleet.latency_p99_s,
    );
    for b in &fleet.boards {
        println!(
            "    {}: assigned {}, utilization {:.2}, {:.1} req/s/kLUT",
            b.name, b.assigned, b.utilization, b.rps_per_kluts
        );
    }
    assert_eq!(
        fleet.completed, fleet_backlog,
        "the fleet must complete the backlog"
    );
    assert!(
        fleet_speedup >= 3.0,
        "fleet aggregate must be >= 3x single-board serve64 (got {fleet_speedup:.2}x)"
    );

    // --- Large-N execute-path regression guard: 2048 executed requests
    // through a cheap kernel. The completion-order lookup used to be a
    // linear scan per request (quadratic in N); the precomputed inverse
    // index keeps this wall time linear.
    println!("large-N serving (axpy, 2048 executed requests):");
    let nsrc = cfdlang::examples::axpy(4);
    let npart = ProgramFlow::compile(&nsrc, &ProgramOptions::default()).unwrap();
    let nopts = cfd_core::RuntimeOptions {
        requests: 2048,
        execute: true,
        ..Default::default()
    };
    let (large_n_ns, _) = median_wall(WALL_REPS, || npart.serve(&nopts).unwrap());
    push("runtime/serve2048_execute_wall", large_n_ns, WALL_REPS);

    // --- Multi-board portfolio: per-platform figures for the paper
    // kernel (largest feasible k = m at the default clock + simulated
    // time), plus the portfolio sweep wall time.
    println!("platform portfolio (paper kernel):");
    let mut platform_rows: Vec<(String, f64, usize, usize, usize, f64)> = Vec::new();
    for platform in sysgen::Platform::catalog() {
        let popts = cfd_core::FlowOptions::for_platform(platform.clone());
        let part = bench::paper_engine()
            .artifacts_for(&popts)
            .expect("paper kernel compiles on every platform");
        match &part.system {
            Some(sys) => {
                let r = zynq::simulate_hw(
                    sys,
                    &zynq::SimConfig {
                        elements: 4_000,
                        ..Default::default()
                    },
                );
                println!(
                    "  {}: k=m={} @ {:.0} MHz, {:.4} s / 4000 elements",
                    platform.id, sys.config.k, platform.default_clock_mhz, r.total_s
                );
                platform_rows.push((
                    platform.id.clone(),
                    platform.default_clock_mhz,
                    sys.config.k,
                    sys.luts,
                    sys.brams,
                    r.total_s,
                ));
            }
            None => {
                println!("  {}: nothing fits", platform.id);
                platform_rows.push((
                    platform.id.clone(),
                    platform.default_clock_mhz,
                    0,
                    0,
                    0,
                    0.0,
                ));
            }
        }
    }
    let (portfolio_ns, portfolio) = median_wall(WALL_REPS, || {
        bench::paper_engine().run_portfolio(
            &sysgen::Platform::catalog(),
            &cfd_core::dse::DseGrid::default(),
            4,
            2_000,
        )
    });
    push("portfolio/sweep_catalog_wall", portfolio_ns, WALL_REPS);
    assert!(
        portfolio.feasible_platforms().len() >= 3,
        "portfolio must span the catalog"
    );
    // Thousand-point sweep: a dense grid (11 replications × 3 batch
    // factors × sharing × decoupling × 2 partitions = 264 points) across
    // the full catalog and every clock ladder — 4000+ evaluated design
    // points. The PR-8 acceptance figure: with the memoized simplex
    // oracle the whole sweep stays under a second of wall clock.
    let dense_grid = cfd_core::dse::DseGrid {
        k: vec![1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16],
        batch: vec![1, 2, 4],
        sharing: vec![true, false],
        decoupled: vec![true, false],
        partition: vec![1, 2],
    };
    let (dense_ns, dense) = median_wall(WALL_REPS, || {
        bench::paper_engine().run_portfolio(&sysgen::Platform::catalog(), &dense_grid, 4, 2_000)
    });
    push("portfolio/sweep_4096pt_wall", dense_ns, WALL_REPS);
    println!(
        "  dense sweep: {} points evaluated, {} feasible, {:.1} ms",
        dense.evaluated,
        dense.feasible,
        dense_ns as f64 / 1e6
    );
    assert!(
        dense.evaluated >= 4096,
        "dense sweep must evaluate >= 4096 points (got {})",
        dense.evaluated
    );
    assert!(
        dense_ns < 1_000_000_000,
        "dense {}-point sweep must finish under 1 s (got {:.3} s)",
        dense.evaluated,
        dense_ns as f64 / 1e9
    );

    // --- Emit JSON.
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"cfdfpga-bench-v1\",\n");
    s.push_str("  \"pr\": 10,\n");
    s.push_str(&format!("  \"samples\": {samples},\n"));
    s.push_str("  \"benches\": [\n");
    for (i, (name, ns, n)) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"median_ns\": {ns}, \"samples\": {n}}}{}\n",
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"dse\": {{\"points\": {}, \"feasible\": {}, \"backend_compiles\": {}, \
         \"backend_reuses\": {}, \"backend_compile_s\": {:.6}, \"eval_total_s\": {:.6}, \
         \"eval_mean_s\": {:.6}, \"eval_max_s\": {:.6}, \"wall_s\": {:.6}}},\n",
        report.evaluated,
        report.feasible,
        report.backend_compiles,
        report.backend_reuses,
        report.backend_s,
        report.eval_total_s,
        report.eval_mean_s,
        report.eval_max_s,
        report.wall_s,
    ));
    s.push_str(&format!(
        "  \"program\": {{\"kernels\": 3, \"plm_brams_shared\": {}, \"plm_brams_concat\": {}}},\n",
        program_brams.0, program_brams.1
    ));
    // Compile-cache acceptance figures: cold / warm / disk-warm program
    // compile medians, speedups vs the frozen PR-5 cold compile
    // (asserted above: >= 2x cold, >= 10x warm), and the in-memory
    // cache's cumulative counters from the warm runs.
    s.push_str(&format!(
        "  \"compile_cache\": {{\"cold_ns\": {cold_ns}, \"warm_ns\": {warm_ns}, \
         \"disk_warm_ns\": {disk_warm_ns}, \"cold_speedup_vs_pr5\": {cold_x:.3}, \
         \"warm_speedup_vs_pr5\": {warm_x:.3}, \"disk_warm_speedup_vs_cold\": {disk_warm_x:.3}, \
         \"hits\": {}, \"disk_hits\": {}, \
         \"misses\": {}, \"stores\": {}, \"invalidations\": {}}},\n",
        cache_counters.hits,
        cache_counters.disk_hits,
        cache_counters.misses,
        cache_counters.stores,
        cache_counters.invalidations,
    ));
    // Serving acceptance figures: batched vs sequential requests/sec on
    // the zcu106 (>= 2x asserted above), p99, overlap, and the PR-7
    // fault-tolerance figure (goodput >= 0.8x fault-free asserted
    // above).
    s.push_str(&format!(
        "  \"runtime\": {{\"requests\": 64, \"board\": \"zcu106\", \"batched_rps\": {:.3}, \
         \"sequential_rps\": {:.3}, \"speedup\": {:.3}, \"p99_s\": {:.6}, \
         \"rounds\": {}, \"capacity\": {}, \
         \"double_buffered\": {{\"ks\": {}, \"m\": {}, \"rps\": {:.3}, \"overlap_fraction\": {:.4}}}, \
         \"faulty\": {{\"plan\": \"{}\", \"goodput_rps\": {:.3}, \"goodput_ratio\": {:.4}, \
         \"completed\": {}, \"retried\": {}, \"failed\": {}, \"transient_faults\": {}}}}},\n",
        batched.throughput_rps,
        sequential.throughput_rps,
        serve_speedup,
        batched.latency_p99_s,
        batched.rounds,
        batched.capacity,
        overlapped.capacity / 2,
        overlapped.capacity,
        overlapped.throughput_rps,
        overlapped.overlap_fraction,
        faulty.fault_plan,
        faulty.goodput_rps.unwrap_or(0.0),
        goodput_ratio,
        faulty.completed,
        faulty.retried,
        faulty.failed,
        faulty.transient_faults,
    ));
    // Online-serving acceptance figures: SLO-aware adaptive batching vs
    // capacity-fill FIFO at the same Poisson overload point (the p99
    // improvement is asserted above before anything is written).
    s.push_str(&format!(
        "  \"online\": {{\"requests\": 64, \"offered_rps\": {:.3}, \"slo_s\": {:.6}, \
         \"fifo_p99_completed_s\": {:.6}, \"slo_p99_completed_s\": {:.6}, \
         \"p99_improvement\": {:.3}, \"slo_completed\": {}, \"slo_timed_out\": {}, \
         \"slo_shed\": {}, \"early_closed_rounds\": {}}},\n",
        overload_rps,
        slo_s,
        fifo_p99,
        slo_p99,
        fifo_p99 / slo_p99,
        online_slo.completed,
        online_slo.timed_out,
        online_slo.shed,
        online_slo.early_closed_rounds,
    ));
    // Fleet acceptance figures: the serve64 backlog across the board
    // catalog under predictive routing (>= 3x single-board asserted
    // above), with the per-board utilization / cost-efficiency split.
    s.push_str(&format!(
        "  \"fleet\": {{\"route\": \"{}\", \"boards\": {}, \"requests\": {}, \
         \"aggregate_rps\": {:.3}, \"goodput_rps\": {:.3}, \"speedup_vs_single\": {:.3}, \
         \"p99_s\": {:.6}, \"requeued\": {}, \"per_board\": [",
        fleet.route.label(),
        fleet.boards.len(),
        fleet.requests,
        fleet.aggregate_rps,
        fleet.goodput_rps.unwrap_or(0.0),
        fleet_speedup,
        fleet.latency_p99_s,
        fleet.requeued,
    ));
    for (i, b) in fleet.boards.iter().enumerate() {
        s.push_str(&format!(
            "{{\"name\": \"{}\", \"assigned\": {}, \"utilization\": {:.4}, \
             \"rps_per_kluts\": {:.3}}}{}",
            b.name,
            b.assigned,
            b.utilization,
            b.rps_per_kluts,
            if i + 1 == fleet.boards.len() {
                ""
            } else {
                ", "
            }
        ));
    }
    s.push_str("]},\n");
    // Per-platform portfolio figures for the paper kernel.
    s.push_str("  \"platforms\": [\n");
    for (i, (id, clock, k, luts, brams, total_s)) in platform_rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"platform\": \"{id}\", \"clock_mhz\": {clock:.1}, \"max_k\": {k}, \
             \"luts\": {luts}, \"brams\": {brams}, \"total_s_4000\": {total_s:.6}, \
             \"feasible\": {}}}{}\n",
            *k > 0,
            if i + 1 == platform_rows.len() {
                ""
            } else {
                ","
            }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"portfolio\": {{\"evaluated\": {}, \"feasible\": {}, \"backend_compiles\": {}, \
         \"backend_reuses\": {}, \"pareto_points\": {}, \"platforms_spanned\": {}, \
         \"dense_evaluated\": {}, \"dense_feasible\": {}, \"dense_wall_ns\": {dense_ns}}},\n",
        portfolio.evaluated,
        portfolio.feasible,
        portfolio.backend_compiles,
        portfolio.backend_reuses,
        portfolio.pareto_frontier().len(),
        portfolio.feasible_platforms().len(),
        dense.evaluated,
        dense.feasible,
    ));
    // Feasibility-oracle counters accumulated over the entire bench run
    // (same schema as `cfdc --json` and the DSE/portfolio reports):
    // layered quick exits, verdict-memo traffic, simplex calls and FM
    // fallbacks, projection-memo traffic.
    s.push_str(&format!(
        "  \"polyhedra\": {},\n",
        polyhedra::OracleCounters::snapshot().json()
    ));
    // Freeze the PR-9 medians from the committed file so the
    // before/after comparison travels with this one.
    let baseline_pr9 = read_bench_medians("BENCH_pr9.json");
    s.push_str("  \"baseline_pr9\": {\n");
    for (i, (name, ns)) in baseline_pr9.iter().enumerate() {
        s.push_str(&format!(
            "    \"{name}\": {ns}{}\n",
            if i + 1 == baseline_pr9.len() { "" } else { "," }
        ));
    }
    s.push_str("  }\n}\n");

    match &args.out {
        Some(path) => {
            std::fs::write(path, &s).expect("write bench json");
            println!("wrote {path}");
        }
        None => print!("{s}"),
    }

    // Sanity: the flat walk and the reference walk agree (cheap spot
    // check so a bench run can't silently time diverging paths).
    let a = interp.run(&inputs).unwrap();
    let b = interp.run_reference(&inputs).unwrap();
    assert_eq!(a.stats, b.stats, "flat walk diverged from reference");
}
