//! The drawn request stream against the `Request` adapter.
//!
//! `ProgramArtifacts::serve` and `serve_fleet` draw their stream
//! straight into columns (`runtime::serve_generated` and
//! `runtime::serve_fleet_generated`); `runtime::serve` and
//! `runtime::serve_fleet` read a caller's `Request` list into the same
//! columns. Over the list `generate_requests` (or
//! `generate_timing_requests`) builds for the same options, with tiers
//! cycling through the configured count in id order, both must write
//! byte-identical reports and equal outputs, and refuse bad input with
//! the same error.

use cfd_core::program::{ProgramArtifacts, ProgramFlow, ProgramOptions};
use runtime::{
    generate_requests, generate_timing_requests, serve, serve_fleet, Arrival, BatchPolicy,
    FleetBoard, FleetOptions, OnlinePolicy, RecoveryPolicy, Request, RoutePolicy, RuntimeOptions,
};
use sysgen::Platform;
use teil::ir::Module;
use zynq::fault::FaultPlan;

fn compile(source: &str, platform: &str) -> ProgramArtifacts {
    let mut opts = ProgramOptions::default();
    let p = Platform::by_name(platform).expect("catalog platform");
    opts.flow.hls.clock_mhz = p.default_clock_mhz;
    opts.flow.platform = p;
    ProgramFlow::compile(source, &opts).expect("test program compiles")
}

fn stages(art: &ProgramArtifacts) -> (Vec<&Module>, Vec<&cgen::CKernel>) {
    let modules = art.kernels.iter().map(|a| &*a.module).collect();
    let kernels = art.kernels.iter().map(|a| &a.kernel).collect();
    (modules, kernels)
}

/// The list `opts` describes, as `ProgramArtifacts` built it before it
/// drew columns.
fn request_list(modules: &[&Module], opts: &RuntimeOptions) -> Result<Vec<Request>, String> {
    let mut requests = if opts.execute {
        generate_requests(modules, opts.requests, &opts.arrival, opts.seed)
    } else {
        generate_timing_requests(opts.requests, &opts.arrival, opts.seed)
    }
    .map_err(|e| e.to_string())?;
    let tiers = opts.online.priority_tiers as usize;
    if tiers > 1 {
        for r in &mut requests {
            r.tier = (r.id % tiers) as u8;
        }
    }
    Ok(requests)
}

/// Closed and Poisson arrivals, one or three tiers (with an SLO and a
/// queue bound), faults or none, timing only or executed.
fn option_grid() -> Vec<RuntimeOptions> {
    let mut grid = Vec::new();
    for arrival in [Arrival::Closed, Arrival::Poisson { rate_rps: 9_000.0 }] {
        for tiers in [1, 3] {
            for faults in ["", "7:0.2", "3:transient=0.1,corrupt=0.1"] {
                for execute in [false, true] {
                    grid.push(RuntimeOptions {
                        requests: 40,
                        arrival,
                        batch: [BatchPolicy::Auto, BatchPolicy::Fixed(3)][tiers as usize / 3],
                        seed: 11 + grid.len() as u64,
                        execute,
                        faults: match faults {
                            "" => FaultPlan::none(),
                            spec => FaultPlan::parse(spec).unwrap(),
                        },
                        recovery: RecoveryPolicy {
                            max_retries: 2,
                            ..RecoveryPolicy::default()
                        },
                        online: OnlinePolicy {
                            event_loop: tiers > 1,
                            slo_s: (tiers > 1).then_some(0.02),
                            shed_queue: (tiers > 1).then_some(24),
                            priority_tiers: tiers,
                        },
                        ..RuntimeOptions::default()
                    });
                }
            }
        }
    }
    grid
}

#[test]
fn drawn_streams_serve_as_the_generated_request_lists() {
    let art = compile(&cfdlang::examples::axpy(3), "zcu106");
    let (modules, kernels) = stages(&art);
    let design = art.system.as_ref().expect("fits the zcu106");
    let mut executed = 0;
    for opts in option_grid() {
        let drawn = art.serve(&opts).unwrap();
        let requests = request_list(&modules, &opts).unwrap();
        let listed = serve(design, &art.names, &modules, &kernels, &requests, &opts).unwrap();
        assert_eq!(drawn.report, listed.report, "{opts:?}");
        assert_eq!(drawn.report.to_json(), listed.report.to_json());
        assert_eq!(drawn.outputs, listed.outputs);
        executed += drawn.outputs.iter().filter(|o| !o.is_empty()).count();
    }
    assert!(executed > 100, "{executed} requests executed");
}

#[test]
fn drawn_fleet_streams_serve_as_the_generated_request_lists() {
    let source = cfdlang::examples::axpy(3);
    let art = compile(&source, "zcu106");
    let (modules, kernels) = stages(&art);
    let mut boards: Vec<FleetBoard> = ["zcu106", "pynq-z2", "zc706"]
        .iter()
        .map(|p| FleetBoard::healthy(compile(&source, p).system.expect("fits")))
        .collect();
    let mut requeued = 0;
    for (k, base) in option_grid().into_iter().enumerate() {
        // Every third run loses its second board for good mid-stream.
        boards[1].faults = match k % 3 {
            0 => FaultPlan::parse("5:fail=1e-4").unwrap(),
            _ => base.faults.clone(),
        };
        let opts = FleetOptions {
            route: [
                RoutePolicy::RoundRobin,
                RoutePolicy::ShortestQueue,
                RoutePolicy::Predictive,
            ][k % 3],
            parallel: k % 2 == 0,
            base,
        };
        let drawn = art.serve_fleet(&boards, &opts).unwrap();
        let requests = request_list(&modules, &opts.base).unwrap();
        let listed =
            serve_fleet(&boards, &art.names, &modules, &kernels, &requests, &opts).unwrap();
        assert_eq!(drawn.report, listed.report, "{opts:?}");
        assert_eq!(drawn.report.to_json(), listed.report.to_json());
        assert_eq!(drawn.outputs, listed.outputs);
        requeued += drawn.report.requeued;
    }
    assert!(requeued > 0, "no outage requeued a request");
}

/// A degenerate rate first, then a policy time past the clock (the SLO,
/// the backoff), then an arrival past it: the drawn stream refuses in
/// the order generating the list and serving it does.
#[test]
fn drawn_streams_refuse_what_the_adapter_refuses_first() {
    let source = cfdlang::examples::axpy(3);
    let art = compile(&source, "zcu106");
    let (modules, kernels) = stages(&art);
    let design = art.system.as_ref().expect("fits the zcu106");
    let boards = [FleetBoard::healthy(design.clone())];
    let slow = Arrival::Poisson { rate_rps: 1e-9 };
    let mut cases = Vec::new();
    for (arrival, slo_s, backoff_s) in [
        (slow, Some(1e300), 0.0),
        (slow, None, 1e300),
        (slow, None, 0.0),
        (Arrival::Poisson { rate_rps: 0.0 }, Some(1e300), 0.0),
        (Arrival::Closed, Some(-1.0), 0.0),
    ] {
        cases.push(RuntimeOptions {
            requests: 4,
            arrival,
            recovery: RecoveryPolicy {
                backoff_s,
                ..RecoveryPolicy::default()
            },
            online: OnlinePolicy {
                slo_s,
                ..OnlinePolicy::default()
            },
            ..RuntimeOptions::default()
        });
    }
    let mut seen = Vec::new();
    for opts in &cases {
        let drawn = art.serve(opts).map(|_| ()).unwrap_err().to_string();
        let listed = request_list(&modules, opts).and_then(|requests| {
            let served = serve(design, &art.names, &modules, &kernels, &requests, opts);
            served.map(|_| ()).map_err(|e| e.to_string())
        });
        assert_eq!(drawn, listed.unwrap_err());
        let fopts = FleetOptions {
            base: opts.clone(),
            ..FleetOptions::default()
        };
        let drawn = art.serve_fleet(&boards, &fopts).map(|_| ()).unwrap_err();
        let listed = request_list(&modules, opts).and_then(|requests| {
            let served = serve_fleet(&boards, &art.names, &modules, &kernels, &requests, &fopts);
            served.map(|_| ()).map_err(|e| e.to_string())
        });
        assert_eq!(drawn.to_string(), listed.unwrap_err());
        seen.push(drawn.to_string());
    }
    for (case, what) in ["SLO", "backoff", "arrival", "positive finite rate", "SLO"]
        .iter()
        .enumerate()
    {
        assert!(seen[case].contains(what), "case {case}: {}", seen[case]);
    }
    // No board is refused before any time is looked at.
    let fopts = FleetOptions {
        base: cases[0].clone(),
        ..FleetOptions::default()
    };
    let none = art.serve_fleet(&[], &fopts).map(|_| ()).unwrap_err();
    assert!(none.to_string().contains("at least one board"), "{none}");
}
