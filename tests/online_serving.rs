//! Differential properties of the online serving event loop.
//!
//! The PR-10 reactor claims it is not a new scheduler but the *same*
//! schedule, re-derived event by event. These properties pin that
//! claim:
//!
//! * **FIFO identity** — with the event loop on but no policy armed
//!   (no SLO, no queue bound, one tier), every serving report is
//!   byte-identical to the offline PR-5 scheduler's: same JSON
//!   document, same tick totals, same per-request traces — for closed
//!   *and* Poisson arrivals, serial and double-buffered, across batch
//!   capacities.
//! * **Priority conservation** — tiered serving reorders admission but
//!   never loses a request: every id resolves exactly once, and under
//!   bounded load (no deadline, no shedding) every tier drains — the
//!   low tier is delayed at round boundaries, never starved.
//! * **Emitter well-formedness** — every report JSON parses under the
//!   minimal validator, and `json_escape` keeps hostile labels inside
//!   one string literal.
//! * **SLO under overload** — at a 4× Poisson overload point on
//!   `simulation_step(7)`, SLO-aware batching keeps the completed p99
//!   inside its budget and below capacity-fill FIFO's (the PR-10
//!   acceptance figure).

use cfd_core::program::{ProgramFlow, ProgramOptions};
use proptest::prelude::*;
use runtime::{
    generate_timing_requests, json, serve, Arrival, BatchPolicy, OnlinePolicy, RuntimeOptions,
};
use teil::ir::Module;
use zynq::StreamStatus;

/// Small generated kernels that compile in milliseconds.
fn source_for(choice: usize) -> String {
    match choice % 3 {
        0 => cfdlang::examples::axpy(3),
        1 => cfdlang::examples::matrix_sandwich(2),
        _ => cfdlang::examples::axpy_chain(3),
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

    fn modules(&self) -> Vec<&Module> {
        self.art.kernels.iter().map(|a| &*a.module).collect()
    }

    fn system(&self) -> &sysgen::MultiSystemDesign {
        self.art.system.as_ref().expect("system fits zcu106")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The neutral event loop is the offline scheduler, byte for byte:
    /// identical report JSON (the replay surface), identical tick
    /// totals, identical per-request traces.
    #[test]
    fn online_fifo_report_is_byte_identical_to_offline(
        choice in 0usize..3,
        n in 2usize..10,
        poisson in proptest::bool::ANY,
        rate_rps in 50u64..5_000,
        policy in 0usize..3,
        overlap in proptest::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let c = Compiled::new(&source_for(choice));
        let modules = c.modules();
        let arrival = if poisson {
            Arrival::Poisson { rate_rps: rate_rps as f64 }
        } else {
            Arrival::Closed
        };
        let requests = generate_timing_requests(n, &arrival, seed).unwrap();
        let batch = match policy {
            0 => BatchPolicy::Auto,
            1 => BatchPolicy::Fixed(2),
            _ => BatchPolicy::Disabled,
        };
        let opts = RuntimeOptions {
            requests: n,
            arrival,
            batch,
            overlap_dma: overlap,
            execute: false,
            seed,
            ..Default::default()
        };
        let online_opts = RuntimeOptions {
            online: OnlinePolicy {
                event_loop: true,
                ..Default::default()
            },
            ..opts.clone()
        };
        let off = serve(c.system(), &c.art.names, &modules, &[], &requests, &opts)
            .unwrap()
            .report;
        let on = serve(c.system(), &c.art.names, &modules, &[], &requests, &online_opts)
            .unwrap()
            .report;
        prop_assert_eq!(on.to_json(), off.to_json(), "replay JSON diverged");
        prop_assert_eq!(on.makespan_ticks, off.makespan_ticks);
        prop_assert_eq!(on.exec_ticks, off.exec_ticks);
        prop_assert_eq!(on.transfer_ticks, off.transfer_ticks);
        prop_assert_eq!(on.overlapped_ticks, off.overlapped_ticks);
        prop_assert_eq!(on.rounds, off.rounds);
        prop_assert_eq!(on.fast_forwarded_rounds, off.fast_forwarded_rounds);
        prop_assert_eq!(&on.traces, &off.traces);
    }

    /// Tiered admission conserves requests and, with no deadline and no
    /// queue bound, drains every tier — the low tier waits at round
    /// boundaries but is never starved.
    #[test]
    fn priority_tiers_conserve_requests_without_starvation(
        choice in 0usize..3,
        n in 4usize..12,
        tiers in 2u32..4,
        poisson in proptest::bool::ANY,
        rate_rps in 50u64..2_000,
        overlap in proptest::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let c = Compiled::new(&source_for(choice));
        let modules = c.modules();
        let arrival = if poisson {
            Arrival::Poisson { rate_rps: rate_rps as f64 }
        } else {
            Arrival::Closed
        };
        let mut requests = generate_timing_requests(n, &arrival, seed).unwrap();
        for r in &mut requests {
            r.tier = (r.id % tiers as usize) as u8;
        }
        let opts = RuntimeOptions {
            requests: n,
            arrival,
            overlap_dma: overlap,
            execute: false,
            seed,
            online: OnlinePolicy {
                event_loop: true,
                priority_tiers: tiers as u8,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = serve(c.system(), &c.art.names, &modules, &[], &requests, &opts)
            .unwrap()
            .report;
        // Conservation: every id resolves exactly once.
        prop_assert_eq!(
            report.completed + report.timed_out + report.shed + report.failed,
            n
        );
        prop_assert_eq!(report.traces.len(), n);
        for (id, t) in report.traces.iter().enumerate() {
            prop_assert_eq!(t.id, id, "traces must stay in id order");
        }
        // No starvation: bounded load with no deadline completes all
        // tiers, including the lowest.
        prop_assert_eq!(report.completed, n);
        for t in &report.traces {
            prop_assert_eq!(&t.outcome, &StreamStatus::Completed);
        }
        prop_assert!(json::validate(&report.to_json()).is_ok());
    }

    /// Every armed-policy report stays one well-formed JSON document
    /// under the minimal parser.
    #[test]
    fn report_json_always_validates(
        n in 2usize..10,
        slo_ms in 0u64..50,
        shed in 0usize..4,
        rate_rps in 100u64..20_000,
        overlap in proptest::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let c = Compiled::new(&source_for(0));
        let modules = c.modules();
        let arrival = Arrival::Poisson { rate_rps: rate_rps as f64 };
        let requests = generate_timing_requests(n, &arrival, seed).unwrap();
        let opts = RuntimeOptions {
            requests: n,
            arrival,
            overlap_dma: overlap,
            execute: false,
            seed,
            online: OnlinePolicy {
                event_loop: true,
                // 0 draws the unarmed side of each knob.
                slo_s: (slo_ms > 0).then_some(slo_ms as f64 * 1e-3),
                shed_queue: (shed > 0).then_some(shed),
                ..Default::default()
            },
            ..Default::default()
        };
        let report = serve(c.system(), &c.art.names, &modules, &[], &requests, &opts)
            .unwrap()
            .report;
        if let Err(e) = json::validate(&report.to_json()) {
            panic!("invalid report JSON: {e}");
        }
    }

    /// `json_escape` confines arbitrary strings to one JSON string
    /// literal: the wrapped document always validates.
    #[test]
    fn json_escape_confines_arbitrary_strings(
        codes in proptest::collection::vec(0u32..0xD800, 24),
    ) {
        let s: String = codes
            .iter()
            .map(|&c| char::from_u32(c).expect("below the surrogate range"))
            .collect();
        let doc = format!("{{\"label\": \"{}\"}}", json::json_escape(&s));
        if let Err(e) = json::validate(&doc) {
            panic!("escape broke the document: {e}");
        }
    }
}

/// A hostile board name must not break the fleet JSON document.
#[test]
fn fleet_json_survives_hostile_board_names() {
    let c = Compiled::new(&cfdlang::examples::axpy(3));
    let modules = c.modules();
    let mut board = runtime::FleetBoard::healthy(c.system().clone());
    board.name = "evil\"board\\name\n".to_string();
    let boards = vec![board];
    let fopts = runtime::FleetOptions {
        base: RuntimeOptions {
            requests: 6,
            execute: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let requests = generate_timing_requests(6, &Arrival::Closed, 7).unwrap();
    let fleet = runtime::serve_fleet(&boards, &c.art.names, &modules, &[], &requests, &fopts)
        .unwrap()
        .report;
    let doc = fleet.to_json();
    json::validate(&doc).unwrap();
    assert!(doc.contains("evil\\\"board\\\\name\\n"));
}

/// 64 Poisson requests offered at 4× the closed-backlog service rate,
/// once under capacity-fill FIFO and once under an SLO of about four
/// round cadences: the SLO run keeps serving, and its completed p99
/// beats FIFO's and stays within the budget.
#[test]
fn slo_batching_beats_capacity_fill_p99_under_overload() {
    let c = Compiled::new(&cfdlang::examples::simulation_step(7));
    let closed = c
        .art
        .serve(&RuntimeOptions {
            requests: 64,
            ..Default::default()
        })
        .unwrap()
        .report;
    let service_rps = closed.throughput_rps;
    let slo_s = 4.0 * closed.capacity as f64 / service_rps;
    let fifo_opts = RuntimeOptions {
        requests: 64,
        arrival: Arrival::Poisson {
            rate_rps: 4.0 * service_rps,
        },
        online: OnlinePolicy {
            event_loop: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let slo_opts = RuntimeOptions {
        online: OnlinePolicy {
            event_loop: true,
            slo_s: Some(slo_s),
            ..Default::default()
        },
        ..fifo_opts.clone()
    };
    let fifo = c.art.serve(&fifo_opts).unwrap().report;
    let slo = c.art.serve(&slo_opts).unwrap().report;
    assert!(slo.completed > 0, "the SLO policy must keep serving");
    let fifo_p99 = fifo.latency_p99_completed_s.expect("FIFO completes");
    let slo_p99 = slo.latency_p99_completed_s.expect("SLO completes");
    assert!(slo_p99 < fifo_p99, "slo p99 {slo_p99} vs fifo {fifo_p99}");
    assert!(slo_p99 <= slo_s + 1e-9, "p99 {slo_p99} over budget {slo_s}");
}

/// Forming a round does not rescan the tier column: a stream whose only
/// non-zero tier is its last request serves 262 144 requests (queue
/// bound 64, capacity 16, offered at 1.25x the serial service rate)
/// within 2x the same stream with no tiers. A per-round scan of the
/// column made it about 100x (2.6 s against 25 ms).
#[test]
#[cfg_attr(debug_assertions, ignore = "a timing bound: release builds only")]
fn a_late_tier_costs_a_small_multiple_of_the_untiered_stream() {
    use zynq::{simulate_round_stream, FaultPlan, OnlineSpec, RecoverySpec};
    const N: usize = 262_144;
    let round = (30, 1_000, 30);
    // 16 requests per 1 060-tick serial round; one arrival every 53.
    let arrivals: Vec<u64> = (0..N as u64).map(|i| i * 53).collect();
    let mut last_only = vec![0u8; N];
    last_only[N - 1] = 1;
    let timed = |tiers: &Vec<u8>| {
        let spec = OnlineSpec {
            max_queue: Some(64),
            tiers: tiers.clone(),
            ..OnlineSpec::fifo()
        };
        let runs = (0..3).map(|_| {
            let t = std::time::Instant::now();
            let out = simulate_round_stream(
                round,
                &[1],
                16,
                &arrivals,
                16,
                false,
                &FaultPlan::none(),
                &RecoverySpec::default(),
                &spec,
            );
            assert!(out.backpressure_shed > 0, "the queue must back up");
            t.elapsed()
        });
        runs.min().unwrap()
    };
    let (untiered, late) = (timed(&Vec::new()), timed(&last_only));
    assert!(
        late < 2 * untiered,
        "last-only tier {late:?} against untiered {untiered:?}"
    );
}
