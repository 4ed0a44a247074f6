//! Property-based fault-injection suite for the fault-tolerant runtime.
//!
//! Four obligations, mirrored from the differential contract of the
//! deterministic `FaultPlan`:
//!
//! * **Fault-free identity** — an empty plan leaves `serve` on the
//!   clean scheduler, and even when the fault-aware loop is *forced*
//!   (via a deadline that can never fire) the tick schedule and the
//!   output bytes are identical to the clean path.
//! * **Completed bit-exactness** — under random fault plans, every
//!   request that reports `Completed` produces outputs bit-identical
//!   to the reference interpreter; retries share hardware, never data.
//!   Requests that did not complete produce nothing.
//! * **Deterministic replay** — the same `(seed, plan, policy)` yields
//!   a byte-identical JSON report, run after run.
//! * **Retry cap** — no request is ever attempted more than
//!   `max_retries + 1` times, and a `Failed` request used exactly its
//!   full allowance.
//!
//! One plain test pins the PR-7 goodput figure on `simulation_step(7)`.

use cfd_core::program::{ProgramFlow, ProgramOptions};
use proptest::prelude::*;
use runtime::{generate_requests, serve, Arrival, BatchPolicy, RecoveryPolicy, RuntimeOptions};
use zynq::{FaultPlan, StreamStatus};

/// Generated-kernel pool: same shapes as the runtime differential
/// suite, sized to compile and execute in milliseconds.
fn source_for(choice: usize, size: usize) -> String {
    match choice % 5 {
        0 => cfdlang::examples::axpy(2 + size),
        1 => cfdlang::examples::matrix_sandwich(2 + size),
        2 => cfdlang::examples::inverse_helmholtz(2 + size),
        3 => cfdlang::examples::axpy_chain(2 + size),
        _ => cfdlang::examples::simulation_step(2 + size),
    }
}

struct Compiled {
    art: cfd_core::ProgramArtifacts,
}

impl Compiled {
    fn new(source: &str) -> Compiled {
        Compiled {
            art: ProgramFlow::compile(source, &ProgramOptions::default())
                .expect("test kernel compiles"),
        }
    }

    fn modules(&self) -> Vec<&teil::ir::Module> {
        self.art.kernels.iter().map(|a| &*a.module).collect()
    }

    fn kernels(&self) -> Vec<&cgen::CKernel> {
        self.art.kernels.iter().map(|a| &a.kernel).collect()
    }

    fn system(&self) -> &sysgen::MultiSystemDesign {
        self.art.system.as_ref().expect("system fits zcu106")
    }
}

fn batch_for(policy: usize) -> BatchPolicy {
    match policy % 3 {
        0 => BatchPolicy::Auto,
        1 => BatchPolicy::Fixed(2),
        _ => BatchPolicy::Disabled,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Fault-free identity, the hard way: a deadline too large to ever
    /// fire forces the fault-aware scheduler (no fast-forward, per-round
    /// fault draws — all of them `false`), yet ticks, traces and output
    /// bytes must match the clean dispatch exactly.
    #[test]
    fn forced_fault_loop_without_faults_is_tick_and_byte_identical(
        choice in 0usize..5,
        size in 0usize..2,
        n in 2usize..6,
        policy in 0usize..3,
        overlap in proptest::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let src = source_for(choice, size);
        let c = Compiled::new(&src);
        let modules = c.modules();
        let kernels = c.kernels();
        let requests = generate_requests(&modules, n, &Arrival::Closed, seed).unwrap();
        let base = RuntimeOptions {
            requests: n,
            batch: batch_for(policy),
            overlap_dma: overlap,
            execute: true,
            seed,
            ..Default::default()
        };
        let clean = serve(c.system(), &c.art.names, &modules, &kernels, &requests, &base).unwrap();
        let forced = serve(c.system(), &c.art.names, &modules, &kernels, &requests, &RuntimeOptions {
            recovery: RecoveryPolicy {
                deadline_s: Some(1.0e6), // ~1e18 ticks: unreachable
                ..RecoveryPolicy::default()
            },
            ..base.clone()
        }).unwrap();
        let (a, b) = (&clean.report, &forced.report);
        // The clean path may fast-forward closed backlogs; the forced
        // loop never does. Everything else is tick-identical.
        prop_assert_eq!(a.rounds, b.rounds);
        prop_assert_eq!(a.exec_ticks, b.exec_ticks);
        prop_assert_eq!(a.transfer_ticks, b.transfer_ticks);
        prop_assert_eq!(a.overlapped_ticks, b.overlapped_ticks);
        prop_assert_eq!(a.makespan_ticks, b.makespan_ticks);
        prop_assert_eq!(b.fast_forwarded_rounds, 0);
        for (ta, tb) in a.traces.iter().zip(&b.traces) {
            prop_assert_eq!(ta.id, tb.id);
            prop_assert_eq!(ta.completed_s.to_bits(), tb.completed_s.to_bits());
            prop_assert_eq!(tb.outcome, StreamStatus::Completed);
            prop_assert_eq!(tb.attempts, 1);
        }
        // And the functional outputs are the same bytes.
        prop_assert_eq!(clean.outputs.len(), forced.outputs.len());
        for (oa, ob) in clean.outputs.iter().zip(&forced.outputs) {
            prop_assert_eq!(oa.len(), ob.len());
            for (key, va) in oa {
                let vb = &ob[key];
                prop_assert_eq!(va.len(), vb.len());
                for (x, y) in va.iter().zip(vb) {
                    prop_assert!(x.to_bits() == y.to_bits(), "output '{}' diverged", key);
                }
            }
        }
    }

    /// Random fault plans never change the bytes of completed work:
    /// every `Completed` request matches the reference interpreter bit
    /// for bit, however many retries it took; everything else produced
    /// no output at all.
    #[test]
    fn completed_requests_stay_bit_exact_under_random_plans(
        choice in 0usize..5,
        size in 0usize..2,
        n in 2usize..6,
        policy in 0usize..3,
        overlap in proptest::bool::ANY,
        seed in 0u64..1_000,
        transient_pct in 0u32..40,
        stall_pct in 0u32..40,
        corrupt_pct in 0u32..25,
    ) {
        let src = source_for(choice, size);
        let c = Compiled::new(&src);
        let modules = c.modules();
        let kernels = c.kernels();
        let requests = generate_requests(&modules, n, &Arrival::Closed, seed).unwrap();
        let plan = FaultPlan {
            seed: seed ^ 0x5eed,
            transient_rate: transient_pct as f64 / 100.0,
            stall_rate: stall_pct as f64 / 100.0,
            corrupt_rate: corrupt_pct as f64 / 100.0,
            outage: None,
        };
        let opts = RuntimeOptions {
            requests: n,
            batch: batch_for(policy),
            overlap_dma: overlap,
            execute: true,
            seed,
            faults: plan,
            recovery: RecoveryPolicy {
                max_retries: 16,
                ..RecoveryPolicy::default()
            },
            ..Default::default()
        };
        let served = serve(c.system(), &c.art.names, &modules, &kernels, &requests, &opts).unwrap();
        prop_assert_eq!(served.outputs.len(), n);
        for (req, got) in requests.iter().zip(&served.outputs) {
            let trace = served.report.traces.iter().find(|t| t.id == req.id).unwrap();
            if trace.outcome != StreamStatus::Completed {
                prop_assert!(got.is_empty(), "non-completed request {} has outputs", req.id);
                continue;
            }
            let reference = zynq::run_program_reference(&c.art.names, &modules, &req.inputs).unwrap();
            prop_assert_eq!(reference.len(), got.len());
            for (key, tensor) in &reference {
                let g = &got[key];
                prop_assert_eq!(tensor.data.len(), g.len());
                for (a, b) in tensor.data.iter().zip(g) {
                    prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "request {} output '{}' not bit-identical after {} attempts",
                        req.id, key, trace.attempts
                    );
                }
            }
        }
    }

    /// Replay: the same `(seed, plan, policy)` serves to a byte-identical
    /// JSON report — including an outage window cutting through the
    /// schedule.
    #[test]
    fn same_seed_and_plan_replay_byte_identically(
        choice in 0usize..5,
        n in 2usize..8,
        policy in 0usize..3,
        overlap in proptest::bool::ANY,
        seed in 0u64..1_000,
        transient_pct in 0u32..50,
        corrupt_pct in 0u32..50,
        fail_ms in 0u64..4,
        recovers in proptest::bool::ANY,
    ) {
        let src = source_for(choice, 0);
        let c = Compiled::new(&src);
        let modules = c.modules();
        let requests = generate_requests(&modules, n, &Arrival::Closed, seed).unwrap();
        let mut spec = format!(
            "{}:transient={},corrupt={}",
            seed ^ 0xfa17,
            transient_pct as f64 / 100.0,
            corrupt_pct as f64 / 100.0,
        );
        if fail_ms > 0 {
            spec.push_str(&format!(",fail={}", fail_ms as f64 * 1e-3));
            if recovers {
                spec.push_str(&format!(",recover={}", fail_ms as f64 * 2e-3));
            }
        }
        let opts = RuntimeOptions {
            requests: n,
            batch: batch_for(policy),
            overlap_dma: overlap,
            execute: false,
            seed,
            faults: FaultPlan::parse(&spec).unwrap(),
            recovery: RecoveryPolicy {
                max_retries: 4,
                backoff_s: 1.0e-4,
                deadline_s: Some(10.0),
            },
            ..Default::default()
        };
        let kernels = c.kernels();
        let run = || serve(c.system(), &c.art.names, &modules, &kernels, &requests, &opts).unwrap();
        let (first, second) = (run(), run());
        prop_assert_eq!(&first.report, &second.report);
        prop_assert_eq!(first.report.to_json(), second.report.to_json());
    }

    /// The retry cap is absolute: no trace ever records more than
    /// `max_retries + 1` attempts, and a `Failed` request exhausted
    /// exactly that allowance.
    #[test]
    fn attempts_never_exceed_the_retry_cap(
        choice in 0usize..5,
        n in 2usize..8,
        policy in 0usize..3,
        overlap in proptest::bool::ANY,
        seed in 0u64..1_000,
        max_retries in 0u32..4,
        corrupt_pct in 30u32..90,
    ) {
        let src = source_for(choice, 0);
        let c = Compiled::new(&src);
        let modules = c.modules();
        let requests = generate_requests(&modules, n, &Arrival::Closed, seed).unwrap();
        let opts = RuntimeOptions {
            requests: n,
            batch: batch_for(policy),
            overlap_dma: overlap,
            execute: false,
            seed,
            faults: FaultPlan {
                corrupt_rate: corrupt_pct as f64 / 100.0,
                transient_rate: 0.2,
                ..FaultPlan::transient(seed ^ 0xcafe, 0.0)
            },
            recovery: RecoveryPolicy {
                max_retries,
                ..RecoveryPolicy::default()
            },
            ..Default::default()
        };
        let kernels = c.kernels();
        let report = serve(c.system(), &c.art.names, &modules, &kernels, &requests, &opts)
            .unwrap()
            .report;
        let mut retried = 0usize;
        for trace in &report.traces {
            prop_assert!(
                trace.attempts <= max_retries + 1,
                "request {} used {} attempts (cap {})",
                trace.id, trace.attempts, max_retries + 1
            );
            if trace.outcome == StreamStatus::Failed {
                prop_assert_eq!(trace.attempts, max_retries + 1);
            }
            if trace.attempts > 1 {
                retried += 1;
            }
        }
        prop_assert_eq!(report.retried, retried);
        let outcomes = report.completed + report.timed_out + report.shed + report.failed;
        prop_assert_eq!(outcomes, n, "every request reaches a terminal outcome");
    }
}

/// The PR-7 acceptance figure: 64 closed requests of `simulation_step(7)`
/// at a fixed fill of 4 (so the plan draws over 16 rounds, not 4) under
/// a seeded 10% transient plan and the stock recovery policy. Every
/// request completes, the plan fires, and goodput stays at ≥ 0.8× the
/// fault-free throughput of the same batch policy.
#[test]
fn ten_percent_transient_faults_keep_goodput_near_fault_free() {
    let art = ProgramFlow::compile(
        &cfdlang::examples::simulation_step(7),
        &ProgramOptions::default(),
    )
    .unwrap();
    let clean = RuntimeOptions {
        requests: 64,
        batch: BatchPolicy::Fixed(4),
        ..Default::default()
    };
    let faulty = RuntimeOptions {
        faults: FaultPlan::transient(7, 0.10),
        ..clean.clone()
    };
    let fault_free = art.serve(&clean).unwrap().report;
    let report = art.serve(&faulty).unwrap().report;
    assert_eq!(report.completed, 64, "the retries recover every request");
    assert!(report.transient_faults > 0, "the plan must fire");
    let goodput = report.goodput_rps.expect("requests completed");
    assert!(
        goodput >= 0.8 * fault_free.throughput_rps,
        "goodput {goodput:.1} req/s vs fault-free {:.1} req/s",
        fault_free.throughput_rps
    );
}
