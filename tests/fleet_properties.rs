//! Property-based differential tests of fleet serving.
//!
//! Random kernels, request streams and routing policies are pushed
//! through `runtime::serve_fleet` and checked against the single-board
//! runtime and the reference interpreter:
//!
//! * **Fleet-of-1 identity** — a fleet with one healthy board is
//!   tick-identical AND byte-identical (report, JSON, outputs) to a
//!   plain `runtime::serve` run, under every routing policy; through
//!   `ProgramArtifacts` too, priority tiers included.
//! * **Parallel ≡ serial** — the scoped-thread board fan-out produces
//!   a bit-identical `FleetReport` and identical outputs to the serial
//!   board loop, under every routing policy.
//! * **Outage conservation** — when one board dies and never recovers,
//!   every drained request is requeued on a survivor exactly once:
//!   nothing is lost, nothing is served twice, and the per-board
//!   rescued-in/rescued-out books balance.
//! * **Functional identity** — completed outputs are bit-exact against
//!   the chained reference interpreter for every request, under every
//!   routing policy and through an outage's rescue; routing shares
//!   hardware, never data.
//!
//! Three plain tests pin the catalog fleet: predictive routing serves
//! ≥ 3× one board, the outage drain's report hashes to the bytes the
//! quadratic drain wrote, and (release builds) a large outage costs a
//! small multiple of the healthy run.

use cfd_core::program::{ProgramFlow, ProgramOptions};
use proptest::prelude::*;
use runtime::{
    generate_requests, generate_timing_requests, serve, serve_fleet, Arrival, BatchPolicy,
    FleetBoard, FleetOptions, OnlinePolicy, RoutePolicy, RuntimeOptions,
};
use sysgen::Platform;
use teil::ir::Module;
use zynq::des::secs;
use zynq::fault::{FaultPlan, Outage};
use zynq::StreamStatus;

/// The generated-kernel pool the properties draw from (same pool as
/// `runtime_differential`): small enough that every case compiles and
/// serves in milliseconds.
fn source_for(choice: usize, size: usize) -> String {
    match choice % 5 {
        0 => cfdlang::examples::axpy(2 + size),
        1 => cfdlang::examples::matrix_sandwich(2 + size),
        2 => cfdlang::examples::inverse_helmholtz(2 + size),
        3 => cfdlang::examples::axpy_chain(2 + size),
        _ => cfdlang::examples::simulation_step(2 + size),
    }
}

const ROUTES: [RoutePolicy; 3] = [
    RoutePolicy::RoundRobin,
    RoutePolicy::ShortestQueue,
    RoutePolicy::Predictive,
];

struct Compiled {
    art: cfd_core::ProgramArtifacts,
}

impl Compiled {
    /// Compile for one named catalog platform (`None` = default board).
    fn new(source: &str, platform: Option<&str>) -> Compiled {
        let mut opts = ProgramOptions::default();
        if let Some(name) = platform {
            let p = Platform::by_name(name).expect("catalog platform");
            opts.flow.hls.clock_mhz = p.default_clock_mhz;
            opts.flow.platform = p;
        }
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

    fn design(&self) -> sysgen::MultiSystemDesign {
        self.art.system.clone().expect("system fits the board")
    }
}

/// A heterogeneous three-board fleet: the same program compiled for
/// three different catalog platforms (distinct clocks and capacities,
/// so routing decisions actually differ).
fn boards_het(source: &str) -> (Compiled, Vec<FleetBoard>) {
    let main = Compiled::new(source, Some("zcu106"));
    let small = Compiled::new(source, Some("pynq-z2"));
    let mid = Compiled::new(source, Some("zc706"));
    let boards = vec![
        FleetBoard::healthy(main.design()),
        FleetBoard::healthy(small.design()),
        FleetBoard::healthy(mid.design()),
    ];
    (main, boards)
}

fn fleet_opts(route: RoutePolicy, base: RuntimeOptions) -> FleetOptions {
    FleetOptions {
        route,
        parallel: true,
        base,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A fleet of one healthy board IS `runtime::serve`: same report
    /// ticks, same JSON bytes, same output tensors — whatever the
    /// routing policy (with one board every policy picks board 0).
    #[test]
    fn fleet_of_one_is_serve_tick_and_byte_identical(
        choice in 0usize..5,
        size in 0usize..2,
        n in 2usize..6,
        overlap in proptest::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let src = source_for(choice, size);
        let c = Compiled::new(&src, None);
        let modules = c.modules();
        let kernels = c.kernels();
        let requests = generate_requests(&modules, n, &Arrival::Closed, seed).unwrap();
        let base = RuntimeOptions {
            requests: n,
            batch: BatchPolicy::Auto,
            overlap_dma: overlap,
            execute: true,
            seed,
            ..Default::default()
        };
        let solo = serve(&c.design(), &c.art.names, &modules, &kernels, &requests, &base).unwrap();
        for route in ROUTES {
            let fleet = serve_fleet(
                &[FleetBoard::healthy(c.design())],
                &c.art.names,
                &modules,
                &kernels,
                &requests,
                &fleet_opts(route, base.clone()),
            )
            .unwrap();
            let br = fleet.report.boards[0].report.as_ref().unwrap();
            prop_assert_eq!(br, &solo.report, "route {}: report diverged", route.label());
            prop_assert_eq!(br.to_json(), solo.report.to_json());
            prop_assert_eq!(fleet.report.makespan_ticks, solo.report.makespan_ticks);
            prop_assert_eq!(fleet.outputs.len(), solo.outputs.len());
            for (i, (a, b)) in fleet.outputs.iter().zip(&solo.outputs).enumerate() {
                prop_assert_eq!(a.len(), b.len());
                for (key, tensor) in a {
                    let other = &b[key];
                    prop_assert_eq!(tensor.len(), other.len());
                    for (x, y) in tensor.iter().zip(other) {
                        prop_assert!(
                            x.to_bits() == y.to_bits(),
                            "request {} output '{}' not bit-identical under {}",
                            i, key, route.label()
                        );
                    }
                }
            }
        }
    }

    /// The scoped-thread board fan-out is bit-identical to the serial
    /// board loop: same `FleetReport` (modulo the `parallel` flag),
    /// same assignment, same outputs — under every routing policy, on
    /// a heterogeneous fleet.
    #[test]
    fn parallel_fleet_is_bit_identical_to_serial(
        choice in 0usize..5,
        n in 4usize..10,
        rate_idx in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let src = source_for(choice, 0);
        let (main, boards) = boards_het(&src);
        let arrival = if rate_idx == 0 {
            Arrival::Closed
        } else {
            Arrival::Poisson { rate_rps: 5.0e4 }
        };
        let requests = generate_timing_requests(n, &arrival, seed).unwrap();
        let base = RuntimeOptions {
            requests: n,
            batch: BatchPolicy::Auto,
            overlap_dma: false,
            execute: false,
            seed,
            ..Default::default()
        };
        for route in ROUTES {
            let serial = serve_fleet(
                &boards, &main.art.names, &[], &[], &requests,
                &FleetOptions { parallel: false, ..fleet_opts(route, base.clone()) },
            )
            .unwrap();
            let par = serve_fleet(
                &boards, &main.art.names, &[], &[], &requests,
                &fleet_opts(route, base.clone()),
            )
            .unwrap();
            let mut par_report = par.report.clone();
            par_report.parallel = false;
            prop_assert_eq!(&serial.report, &par_report, "route {}", route.label());
            prop_assert_eq!(serial.report.to_json(), par_report.to_json());
            prop_assert_eq!(serial.outputs, par.outputs);
        }
    }

    /// One board dies and never recovers: every request it had queued
    /// is requeued onto a survivor exactly once. Request counts are
    /// conserved (completed = n, nothing shed, no duplicate ids) and
    /// the per-board rescue books balance — under jsq, predictive and
    /// round-robin alike.
    #[test]
    fn outage_drain_conserves_request_counts(
        choice in 0usize..5,
        n in 12usize..24,
        dead in 0usize..3,
        fail_us in 50u64..500,
        seed in 0u64..1_000,
    ) {
        let src = source_for(choice, 0);
        let (main, mut boards) = boards_het(&src);
        boards[dead].faults = FaultPlan {
            seed,
            outage: Some(Outage {
                fail_at: secs(fail_us as f64 * 1e-6),
                recover_at: None,
            }),
            ..FaultPlan::none()
        };
        let requests = generate_timing_requests(n, &Arrival::Closed, seed).unwrap();
        let base = RuntimeOptions {
            requests: n,
            batch: BatchPolicy::Auto,
            overlap_dma: false,
            execute: false,
            seed,
            ..Default::default()
        };
        for route in ROUTES {
            let fleet = serve_fleet(
                &boards, &main.art.names, &[], &[], &requests,
                &fleet_opts(route, base.clone()),
            )
            .unwrap()
            .report;
            // Conservation: everything completes somewhere, nothing is
            // shed, and the outcome counters sum to n.
            prop_assert_eq!(fleet.completed, n, "route {}", route.label());
            prop_assert_eq!(fleet.shed, 0);
            prop_assert_eq!(
                fleet.completed + fleet.timed_out + fleet.shed + fleet.failed,
                n
            );
            // Every id is placed on exactly one board.
            prop_assert_eq!(fleet.assignment.len(), n);
            let mut ids: Vec<usize> = fleet.assignment.iter().map(|(id, _)| *id).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), n, "route {}: duplicate placement", route.label());
            // The rescue books balance: what left the dead board landed
            // on survivors, and assigned-minus-kept equals requeued.
            let kept = fleet.assignment.iter().filter(|(_, b)| *b == dead).count();
            prop_assert_eq!(kept + fleet.requeued, fleet.boards[dead].assigned);
            prop_assert_eq!(fleet.boards[dead].rescued_out, fleet.requeued);
            let rescued_in: usize = fleet.boards.iter().map(|b| b.rescued_in).sum();
            prop_assert_eq!(rescued_in, fleet.requeued);
            prop_assert_eq!(fleet.boards[dead].rescued_in, 0);
        }
    }

    /// Completed outputs are bit-exact against the chained reference
    /// interpreter for every request under every routing policy on a
    /// heterogeneous fleet, healthy and with board 0 dead from a
    /// seed-drawn tick on (its shed work rescued by the survivors): the
    /// dispatcher moves work, never data. A request that did not
    /// complete gets an empty map.
    #[test]
    fn fleet_outputs_bit_exact_vs_reference_under_every_policy(
        choice in 0usize..5,
        size in 0usize..2,
        n in 3usize..7,
        seed in 0u64..1_000,
    ) {
        let src = source_for(choice, size);
        let (main, healthy) = boards_het(&src);
        let mut dead0 = healthy.clone();
        dead0[0].faults = FaultPlan {
            seed,
            outage: Some(Outage {
                fail_at: secs((seed % 500) as f64 * 1e-6),
                recover_at: None,
            }),
            ..FaultPlan::none()
        };
        let modules = main.modules();
        let kernels = main.kernels();
        let requests = generate_requests(&modules, n, &Arrival::Closed, seed).unwrap();
        let base = RuntimeOptions {
            requests: n,
            batch: BatchPolicy::Auto,
            overlap_dma: false,
            execute: true,
            seed,
            ..Default::default()
        };
        for (boards, fleet_name) in [(&healthy, "healthy"), (&dead0, "board 0 dead")] {
            for route in ROUTES {
                let fleet = serve_fleet(
                    boards, &main.art.names, &modules, &kernels, &requests,
                    &fleet_opts(route, base.clone()),
                )
                .unwrap();
                let label = format!("{fleet_name}, {}", route.label());
                prop_assert_eq!(fleet.outputs.len(), n);
                if fleet_name == "healthy" {
                    prop_assert_eq!(fleet.report.completed, n, "{}", label);
                }
                let executed = fleet.outputs.iter().filter(|o| !o.is_empty()).count();
                prop_assert_eq!(executed, fleet.report.completed, "{}", label);
                for (req, got) in requests.iter().zip(&fleet.outputs) {
                    // The request's final outcome is on the board it was
                    // last placed on.
                    let (_, b) = fleet.report.assignment[req.id];
                    let report = fleet.report.boards[b].report.as_ref().unwrap();
                    let trace = report.traces.iter().find(|t| t.id == req.id).unwrap();
                    if trace.outcome != StreamStatus::Completed {
                        prop_assert!(got.is_empty(), "request {} under {}", req.id, label);
                        continue;
                    }
                    let reference =
                        zynq::run_program_reference(&main.art.names, &modules, &req.inputs)
                            .unwrap();
                    prop_assert_eq!(reference.len(), got.len());
                    for (key, tensor) in &reference {
                        let g = &got[key];
                        prop_assert_eq!(tensor.data.len(), g.len());
                        for (a, b) in tensor.data.iter().zip(g) {
                            prop_assert!(
                                a.to_bits() == b.to_bits(),
                                "request {} output '{}' diverged under {}",
                                req.id, key, label
                            );
                        }
                    }
                }
            }
        }
    }
}

/// `ProgramArtifacts::serve_fleet` on one board generates the request
/// stream `ProgramArtifacts::serve` does, priority tiers included: the
/// board's report is the solo report, tick for tick and byte for byte.
#[test]
fn program_fleet_of_one_keeps_priority_tiers() {
    let c = Compiled::new(&cfdlang::examples::inverse_helmholtz(4), None);
    let fifo = RuntimeOptions {
        requests: 64,
        ..RuntimeOptions::default()
    };
    let tiered = RuntimeOptions {
        online: OnlinePolicy {
            priority_tiers: 3,
            ..OnlinePolicy::default()
        },
        ..fifo.clone()
    };
    let solo = c.art.serve(&tiered).unwrap().report;
    let fifo_solo = c.art.serve(&fifo).unwrap().report;
    assert_ne!(
        solo.traces, fifo_solo.traces,
        "the tiers must move completions"
    );
    for route in ROUTES {
        let fleet = c
            .art
            .serve_fleet(
                &[FleetBoard::healthy(c.design())],
                &fleet_opts(route, tiered.clone()),
            )
            .unwrap();
        let br = fleet.report.boards[0].report.as_ref().unwrap();
        assert_eq!(br, &solo, "route {}: report diverged", route.label());
        assert_eq!(br.to_json(), solo.to_json());
    }
}

/// The fleet of `cfdc serve simstep:7 --fleet all`: the program
/// compiled for every catalog board it fits.
fn catalog_fleet() -> (Vec<Compiled>, Vec<FleetBoard>) {
    let source = cfdlang::examples::simulation_step(7);
    let compiled: Vec<Compiled> = Platform::catalog()
        .iter()
        .map(|p| Compiled::new(&source, Some(&p.id)))
        .filter(|c| c.art.system.is_some())
        .collect();
    let boards = compiled
        .iter()
        .map(|c| FleetBoard::healthy(c.design()))
        .collect();
    (compiled, boards)
}

/// `--route rr --faults 7:fail=2e-3` on that fleet: `requests` closed
/// timing-only requests, a fatal outage 2 ms in on the first board (or
/// no fault at all).
fn serve_closed(
    (compiled, boards): &(Vec<Compiled>, Vec<FleetBoard>),
    requests: usize,
    outage: bool,
) -> runtime::FleetReport {
    let mut boards = boards.clone();
    if outage {
        boards[0].faults = FaultPlan::parse("7:fail=2e-3").unwrap();
    }
    let base = RuntimeOptions {
        requests,
        ..Default::default()
    };
    let fopts = fleet_opts(RoutePolicy::RoundRobin, base);
    compiled[0].art.serve_fleet(&boards, &fopts).unwrap().report
}

/// The PR-9 acceptance figure: 64 requests per board that fits, routed
/// predictively across the catalog, all complete at ≥ 3× the aggregate
/// rate of one zcu106 serving 64.
#[test]
fn catalog_fleet_serves_three_times_one_board() {
    let (compiled, boards) = catalog_fleet();
    assert!(boards.len() >= 3, "{} boards fit", boards.len());
    let backlog = 64 * boards.len();
    let base = RuntimeOptions {
        requests: backlog,
        ..Default::default()
    };
    let fleet = compiled[0]
        .art
        .serve_fleet(&boards, &fleet_opts(RoutePolicy::Predictive, base))
        .unwrap()
        .report;
    assert_eq!(fleet.completed, backlog);
    let one = Compiled::new(&cfdlang::examples::simulation_step(7), None)
        .art
        .serve(&RuntimeOptions {
            requests: 64,
            ..Default::default()
        })
        .unwrap()
        .report;
    assert!(
        fleet.aggregate_rps >= 3.0 * one.throughput_rps,
        "fleet {:.1} req/s vs one board {:.1} req/s",
        fleet.aggregate_rps,
        one.throughput_rps
    );
}

/// The report of a 4 000-request fatal-outage fleet is, byte for byte,
/// what commit 2b1c449 wrote (its per-trace list scan and its
/// `format!` emitter): `cfdc serve simstep:7 --requests 4000 --fleet
/// all --route rr --faults 7:fail=2e-3 --json`, FNV-64 and length of
/// the document without the newline `println!` adds. Rewritten since:
/// the dead board's `mean_fill`, 800 → 4 (requests per dispatched round,
/// no longer per request handed to the board), and the zcu102's rows,
/// whose design the per-stage replication search moved from
/// `k = [16,16,16], m = 16` to `k = [32,16,32], m = 32` (32 rounds
/// instead of 63, so its requests' latencies, the fleet's latency
/// figures and its board estimate moved; the length did not).
#[test]
fn outage_report_equals_the_bytes_the_quadratic_drain_wrote() {
    let report = serve_closed(&catalog_fleet(), 4_000, true);
    assert_eq!(report.requeued, 796);
    let json = report.to_json();
    let fnv64 = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!((json.len(), fnv64), (851_090, 0x5e0e_5117_e740_ed6e));
}

/// Draining a dead board is not quadratic in its backlog: 256 000
/// requests with a fatal outage 2 ms in (51 196 requeued) serve within
/// 3x the healthy fleet's time (measured 1.1x). The per-trace scan took
/// 30x here, 6.5x on a whole `cfdc` run.
#[test]
#[cfg_attr(debug_assertions, ignore = "a timing bound: release builds only")]
fn a_large_outage_costs_a_small_multiple_of_the_healthy_run() {
    let fleet = catalog_fleet();
    let timed = |outage: bool| {
        let runs = (0..3).map(|_| {
            let t = std::time::Instant::now();
            let report = serve_closed(&fleet, 256_000, outage);
            assert_eq!(report.requeued, if outage { 51_196 } else { 0 });
            t.elapsed()
        });
        runs.min().unwrap()
    };
    let (healthy, outage) = (timed(false), timed(true));
    assert!(
        outage < 3 * healthy,
        "outage {outage:?} against healthy {healthy:?}"
    );
}
