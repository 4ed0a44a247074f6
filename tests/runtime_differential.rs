//! Differential testing of the batched multi-request runtime.
//!
//! Property-based request streams (random kernel, random sizes, random
//! arrival order, random batch policy) are served through
//! `runtime::serve` and checked against the sequential references:
//!
//! * **Functional identity** — the batched runtime's output tensors are
//!   bit-identical to running every request alone through the generated
//!   kernel chain *and* to the chained reference interpreter; batching
//!   shares hardware, never data.
//! * **Tick identity** — with batching disabled (one request per round,
//!   no DMA overlap) the runtime's tick counts are *exactly* the
//!   sequential `simulate_program` schedule: each request costs one
//!   round, rounds chain back to back from each request's arrival, and
//!   the closed-backlog makespan is precisely `N × round`.
//! * **Throughput** — a closed backlog served with `Auto` batching
//!   dispatches `ceil(N / m)` rounds instead of `N`, an exact `m×`
//!   rate multiplier when rounds stay full.

use std::collections::HashMap;

use cfd_core::program::{ProgramFlow, ProgramOptions};
use proptest::prelude::*;
use runtime::{generate_requests, serve, Arrival, BatchPolicy, Request, RuntimeOptions};
use sysgen::ProgramSystemConfig;
use teil::ir::Module;
use zynq::des::secs;
use zynq::SimConfig;

/// The generated-kernel pool the properties draw from: index, size
/// bounds chosen so every case compiles and executes in milliseconds.
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
    fn new(source: &str, system: Option<ProgramSystemConfig>) -> Compiled {
        let opts = ProgramOptions {
            system,
            ..Default::default()
        };
        Compiled {
            art: ProgramFlow::compile(source, &opts).expect("test kernel compiles"),
        }
    }

    fn modules(&self) -> Vec<&Module> {
        self.art.kernels.iter().map(|a| &*a.module).collect()
    }

    fn kernels(&self) -> Vec<&cgen::CKernel> {
        self.art.kernels.iter().map(|a| &a.kernel).collect()
    }

    fn system(&self) -> &sysgen::MultiSystemDesign {
        self.art.system.as_ref().expect("system fits zcu106")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Batched runtime outputs are bit-identical to the sequential
    /// references — both the generated-chain path and the reference
    /// interpreter — for every request, under every batch policy.
    #[test]
    fn outputs_bit_identical_to_sequential_references(
        choice in 0usize..5,
        size in 0usize..2,
        n in 2usize..5,
        policy in 0usize..3,
        overlap in proptest::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let src = source_for(choice, size);
        let c = Compiled::new(&src, None);
        let modules = c.modules();
        let kernels = c.kernels();
        let requests = generate_requests(&modules, n, &Arrival::Closed, seed).unwrap();
        let batch = match policy {
            0 => BatchPolicy::Auto,
            1 => BatchPolicy::Fixed(2),
            _ => BatchPolicy::Disabled,
        };
        let opts = RuntimeOptions {
            requests: n,
            batch,
            overlap_dma: overlap,
            execute: true,
            seed,
            ..Default::default()
        };
        let served = serve(c.system(), &c.art.names, &modules, &kernels, &requests, &opts).unwrap();
        prop_assert_eq!(served.outputs.len(), n);
        for (req, got) in requests.iter().zip(&served.outputs) {
            // Sequential hardware-path reference: this request alone.
            let solo = zynq::run_program_chain(&c.art.names, &modules, &kernels, &req.inputs).unwrap();
            prop_assert_eq!(&solo, got, "request {} diverged from solo chain", req.id);
            // Independent reference: the chained interpreter, bit for bit.
            let reference = zynq::run_program_reference(&c.art.names, &modules, &req.inputs).unwrap();
            prop_assert_eq!(reference.len(), got.len());
            for (key, tensor) in &reference {
                let g = &got[key];
                prop_assert_eq!(tensor.data.len(), g.len());
                for (a, b) in tensor.data.iter().zip(g) {
                    prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "request {} output '{}' not bit-identical", req.id, key
                    );
                }
            }
        }
    }

    /// With batching disabled the runtime's tick schedule is exactly the
    /// sequential one: every request costs one `simulate_program` round,
    /// chained from its arrival, whatever the arrival order.
    #[test]
    fn disabled_batching_ticks_are_exactly_sequential(
        choice in 0usize..5,
        size in 0usize..2,
        arrivals_ms in proptest::collection::vec(0u64..40, 6),
        seed in 0u64..1_000,
    ) {
        let src = source_for(choice, size);
        let c = Compiled::new(&src, None);
        let modules = c.modules();
        let n = arrivals_ms.len();
        // Arbitrary (unsorted) arrival order, built by hand.
        let requests: Vec<Request> = arrivals_ms
            .iter()
            .enumerate()
            .map(|(id, &ms)| Request {
                id,
                arrival_s: ms as f64 * 1e-3,
                inputs: zynq::random_program_inputs(&modules, seed.wrapping_add(id as u64)),
                tier: 0,
            })
            .collect();
        let opts = RuntimeOptions {
            requests: n,
            batch: BatchPolicy::Disabled,
            overlap_dma: false,
            execute: false,
            ..Default::default()
        };
        let served = serve(c.system(), &c.art.names, &modules, &c.kernels(), &requests, &opts).unwrap();
        let r = &served.report;

        // One sequential simulate_program run = exactly one round.
        let single = c.art.simulate(&SimConfig { elements: 1, ..Default::default() }).unwrap();
        let rt = secs(single.total_s);

        // Fold the sorted arrivals through the sequential schedule.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            requests[a].arrival_s.total_cmp(&requests[b].arrival_s).then(a.cmp(&b))
        });
        let mut now = 0u64;
        let mut expected: Vec<(usize, u64)> = Vec::new();
        for &i in &order {
            let a = secs(requests[i].arrival_s);
            now = now.max(a) + rt;
            expected.push((i, now));
        }
        prop_assert_eq!(r.makespan_ticks, now, "makespan diverged from sequential fold");
        prop_assert_eq!(r.rounds, n);
        prop_assert_eq!(r.exec_ticks, n as u64 * secs(single.exec_s));
        prop_assert_eq!(r.transfer_ticks, n as u64 * secs(single.transfer_s));
        prop_assert_eq!(r.overlapped_ticks, 0);
        for (i, ticks) in expected {
            let trace = r.traces.get(i);
            prop_assert_eq!(trace.id, i);
            prop_assert_eq!(secs(trace.completed_s), ticks, "request {} completion", i);
        }
    }

    /// Closed-backlog identity: N queued requests make the makespan
    /// exactly N rounds, fast-forwarded in one multiplication.
    #[test]
    fn closed_backlog_makespan_is_n_rounds(
        choice in 0usize..5,
        n in 1usize..12,
        seed in 0u64..1_000,
    ) {
        let src = source_for(choice, 0);
        let c = Compiled::new(&src, None);
        let modules = c.modules();
        let requests = generate_requests(&modules, n, &Arrival::Closed, seed).unwrap();
        let opts = RuntimeOptions {
            requests: n,
            batch: BatchPolicy::Disabled,
            overlap_dma: false,
            execute: false,
            ..Default::default()
        };
        let r = serve(c.system(), &c.art.names, &modules, &c.kernels(), &requests, &opts)
            .unwrap()
            .report;
        let single = c.art.simulate(&SimConfig { elements: 1, ..Default::default() }).unwrap();
        prop_assert_eq!(r.makespan_ticks, n as u64 * secs(single.total_s));
        prop_assert_eq!(r.fast_forwarded_rounds, n);
    }
}

/// Auto batching on a closed backlog is an exact `m×` rate multiplier
/// while rounds stay full (round cost is fill-independent — the host
/// program always moves `m` PLM sets).
#[test]
fn auto_batching_multiplies_closed_throughput_by_m() {
    let src = cfdlang::examples::axpy_chain(3);
    let c = Compiled::new(&src, Some(ProgramSystemConfig::uniform(2, 4, 2)));
    let m = c.system().config.m;
    assert_eq!(m, 4);
    let modules = c.modules();
    let n = 64;
    let requests = generate_requests(&modules, n, &Arrival::Closed, 9).unwrap();
    let run = |batch, overlap| {
        serve(
            c.system(),
            &c.art.names,
            &modules,
            &c.kernels(),
            &requests,
            &RuntimeOptions {
                requests: n,
                batch,
                overlap_dma: overlap,
                execute: false,
                ..Default::default()
            },
        )
        .unwrap()
        .report
    };
    let seq = run(BatchPolicy::Disabled, false);
    let auto = run(BatchPolicy::Auto, false);
    assert_eq!(seq.rounds, 64);
    assert_eq!(auto.rounds, 16);
    // Exact in tick space: 16 full rounds vs 64.
    assert_eq!(seq.makespan_ticks, auto.makespan_ticks * m as u64);
    // Double-buffered DMA then shaves the transfer tail off as well.
    let olap = run(BatchPolicy::Auto, true);
    assert!(olap.makespan_ticks < auto.makespan_ticks);
    assert!(olap.overlap_fraction > 0.0);
    assert!(olap.throughput_rps > auto.throughput_rps);
}

/// Poisson arrivals: latency percentiles reflect queueing, and the
/// functional outputs stay bit-identical to the solo references.
#[test]
fn poisson_stream_queues_and_stays_bit_identical() {
    let src = cfdlang::examples::simulation_step(3);
    let c = Compiled::new(&src, None);
    let modules = c.modules();
    let kernels = c.kernels();
    // Arrival rate far above the service rate: a queue must build.
    let requests =
        generate_requests(&modules, 24, &Arrival::Poisson { rate_rps: 1.0e4 }, 5).unwrap();
    assert!(requests
        .windows(2)
        .all(|w| w[0].arrival_s <= w[1].arrival_s));
    let opts = RuntimeOptions {
        requests: 24,
        batch: BatchPolicy::Auto,
        overlap_dma: true,
        execute: true,
        ..Default::default()
    };
    let served = serve(
        c.system(),
        &c.art.names,
        &modules,
        &kernels,
        &requests,
        &opts,
    )
    .unwrap();
    let r = &served.report;
    assert!(r.latency_p50_s <= r.latency_p99_s);
    assert!(r.latency_p99_s <= r.latency_max_s);
    // Later arrivals wait behind earlier ones at this rate.
    assert!(r.latency_max_s > r.traces.get(0).latency_s);
    let mut outputs_by_id: HashMap<usize, &HashMap<String, Vec<f64>>> = HashMap::new();
    for (req, out) in requests.iter().zip(&served.outputs) {
        outputs_by_id.insert(req.id, out);
    }
    for req in &requests {
        let solo = zynq::run_program_chain(&c.art.names, &modules, &kernels, &req.inputs).unwrap();
        assert_eq!(&&solo, outputs_by_id.get(&req.id).unwrap());
    }
}
