//! `serve_fleet_backlog`: a closed backlog sharded across the board
//! catalog.
//!
//! One op is `ProgramArtifacts::serve_fleet` of 131 072 closed-arrival
//! timing-only requests over every catalog board that fits
//! `simulation_step(7)`, predictive routing, neutral policy, boards
//! simulated one after the other (`parallel: false`, bit-identical to
//! the threaded merge by `tests/fleet_properties.rs`), then
//! `FleetReport::to_json`. The DES fast-forwards a closed backlog, so
//! host time is dispatcher routing, per-board trace and report
//! building, sorting, merging and JSON — `runtime` does the work and
//! `zynq` almost none, the opposite split to `serve_online`. Closed
//! arrivals and no faults: the seed only picks the verification inputs.
//!
//! The traced run also carries the roadmap's N-sweep (1k → 32k → 1M
//! timing-only requests, one board and the whole fleet).

use std::path::Path;

use cfd_core::program::ProgramArtifacts;
use cfd_core::{FleetBoard, FleetOptions, FleetReport, RoutePolicy, RuntimeOptions};
use sysgen::Platform;
use zynq::SimConfig;

use super::{
    compile, conserves, program_options, program_round_ns, same_json, speedup_vs_arm, stages,
    valid_json, verify_bitexact, SERVED_P,
};
use crate::alloc::AllocCount;
use crate::cal;
use crate::harness::{fnv64, probe_s, OpKind, SimMetrics, Workload};
use crate::host;
use crate::metrics::Metrics;
use crate::stats::geomean;
use crate::trace::{SpanAgg, Tracer};

const REQUESTS: usize = 131_072;
/// Request counts of the traced run's scaling sweep.
const SCALE_POINTS: [usize; 3] = [1_000, 32_000, 1_000_000];

pub struct FleetOut {
    report: FleetReport,
    json: String,
}

pub struct ServeFleetBacklog {
    kinds: Vec<OpKind>,
    /// The ZCU106 artifact: its kernel chain is what every board runs.
    art: ProgramArtifacts,
    boards: Vec<FleetBoard>,
    opts: FleetOptions,
    reference: u64,
    sim: SimMetrics,
    /// Allocator calls of the last traced op.
    traced_allocs: u64,
}

fn fleet_options(requests: usize, parallel: bool) -> FleetOptions {
    FleetOptions {
        route: RoutePolicy::Predictive,
        parallel,
        base: RuntimeOptions {
            requests,
            ..RuntimeOptions::default()
        },
    }
}

fn check_fleet(report: &FleetReport) -> Result<(), String> {
    let resolved = report.completed + report.timed_out + report.shed + report.failed;
    if resolved != report.requests || report.assignment.len() != report.requests {
        return Err(format!(
            "request conservation broken: {resolved} resolved, {} placed, {} offered",
            report.assignment.len(),
            report.requests
        ));
    }
    for board in &report.boards {
        if let Some(r) = &board.report {
            conserves(r).map_err(|e| format!("board {}: {e}", board.name))?;
        }
    }
    Ok(())
}

impl ServeFleetBacklog {
    /// The op as `ProgramArtifacts::serve_fleet` composes it, over the
    /// runtime's public functions.
    fn serve_staged(&self, t: &mut Tracer) -> FleetOut {
        let (modules, kernels) = stages(&self.art);
        let base = &self.opts.base;
        let requests = t.leaf("runtime.gen_requests", || {
            runtime::generate_timing_requests(base.requests, &base.arrival, base.seed)
                .expect("closed arrivals never fail")
        });
        let report = t.leaf("runtime.serve_fleet", || {
            runtime::serve_fleet(
                &self.boards,
                &self.art.names,
                &modules,
                &kernels,
                &requests,
                &self.opts,
            )
            .expect("served in set-up")
            .report
        });
        // The product's entry point drops the request stream before it
        // returns; holding it longer changes what the allocator sees.
        drop(requests);
        let json = t.leaf("runtime.report_json", || report.to_json());
        FleetOut { report, json }
    }
}

impl Workload for ServeFleetBacklog {
    type Out = FleetOut;

    const ROUNDS_PER_SECOND: f64 = 4.25;
    const CAL: cal::CalOp = cal::MEM;

    fn setup(seed: u64, _out_dir: &Path) -> Result<Self, String> {
        let source = cfdlang::examples::simulation_step(SERVED_P);
        let mut boards = Vec::new();
        let (mut speedups, mut plm_brams, mut kernels_fit) = (Vec::new(), 0usize, 0usize);
        let mut zcu106 = None;
        for platform in Platform::catalog() {
            let id = platform.id.clone();
            let art = compile(&source, &program_options(platform))?;
            verify_bitexact(&id, &art, seed)?;
            if let Some(design) = &art.system {
                speedups.push(speedup_vs_arm(&id, &art)?);
                plm_brams += art.memory.brams;
                kernels_fit += design.config.m;
                boards.push(FleetBoard::healthy(design.clone()));
            }
            if id == "zcu106" {
                zcu106 = Some(art);
            }
        }
        let art = zcu106.ok_or("the catalog has no zcu106")?;
        if boards.len() < 3 {
            return Err(format!(
                "only {} catalog boards fit the program",
                boards.len()
            ));
        }
        let mut w = ServeFleetBacklog {
            kinds: vec![OpKind {
                name: format!("serve_fleet_{REQUESTS}"),
                units: REQUESTS as u64,
            }],
            art,
            boards,
            opts: fleet_options(REQUESTS, false),
            reference: 0,
            sim: SimMetrics {
                speedup_vs_arm: geomean(&speedups),
                plm_brams: plm_brams as f64,
                kernels_fit: kernels_fit as f64,
                ..SimMetrics::default()
            },
            traced_allocs: 0,
        };
        let out = w.run(0, &mut Tracer::new(false));
        check_fleet(&out.report)?;
        valid_json("fleet report", &out.json)?;
        w.reference = fnv64(out.json.as_bytes());
        w.sim.goodput_rps = out.report.goodput_rps.unwrap_or(0.0);
        w.sim.p99_ms = out.report.latency_p99_s * 1e3;
        w.sim.served_share = out.report.completed as f64 / out.report.requests as f64;
        Ok(w)
    }

    fn kinds(&self) -> &[OpKind] {
        &self.kinds
    }

    fn headline(&self) -> usize {
        0
    }

    fn run(&mut self, _kind: usize, tracer: &mut Tracer) -> FleetOut {
        if !tracer.enabled() {
            let report = self
                .art
                .serve_fleet(&self.boards, &self.opts)
                .expect("served in set-up")
                .report;
            let json = report.to_json();
            return FleetOut { report, json };
        }
        let base = AllocCount::now();
        let out = tracer.span("op.serve_fleet", |t| self.serve_staged(t));
        self.traced_allocs = AllocCount::now().since(base).calls;
        out
    }

    fn check(&self, _kind: usize, out: &FleetOut) -> Result<(), String> {
        check_fleet(&out.report)?;
        same_json(&out.json, self.reference)
    }

    fn sim(&self) -> SimMetrics {
        self.sim
    }

    fn layers(&mut self, agg: &SpanAgg, m: &mut Metrics) -> Result<(), String> {
        let ns_per_req = 1e9 / REQUESTS as f64;
        m.set(
            "runtime.gen_requests_ns_per_req",
            agg.per_call_s("runtime.gen_requests") * ns_per_req,
        );
        m.set(
            "runtime.report_json_ns_per_req",
            agg.per_call_s("runtime.report_json") * ns_per_req,
        );
        m.set(
            "runtime.allocs_per_req",
            self.traced_allocs as f64 / REQUESTS as f64,
        );
        self.probe_layers(agg, m)
    }
}

impl ServeFleetBacklog {
    fn probe_layers(&self, agg: &SpanAgg, m: &mut Metrics) -> Result<(), String> {
        let ns = 1e9;
        let (modules, kernels) = stages(&self.art);
        let base = &self.opts.base;
        let requests = runtime::generate_timing_requests(REQUESTS, &base.arrival, base.seed)
            .map_err(|e| e.to_string())?;
        let out = runtime::serve_fleet(
            &self.boards,
            &self.art.names,
            &modules,
            &kernels,
            &requests,
            &self.opts,
        )
        .map_err(|e| e.to_string())?;
        let report = &out.report;
        m.set(
            "runtime.report_json_bytes_per_req",
            report.to_json().len() as f64 / REQUESTS as f64,
        );
        m.set("runtime.fleet_requeued", report.requeued as f64);
        m.set(
            "zynq.fast_forwarded_rounds",
            report
                .boards
                .iter()
                .filter_map(|b| b.report.as_ref())
                .map(|r| r.fast_forwarded_rounds)
                .sum::<usize>() as f64,
        );

        // What the boards' own `serve` calls cost when made directly on
        // the dispatcher's placement; the rest of `serve_fleet` is
        // routing and merging. Inside one board's `serve`, the direct
        // stream call is zynq's part and the rest is the runtime's.
        let mut lists: Vec<Vec<runtime::Request>> = vec![Vec::new(); self.boards.len()];
        for &(id, board) in &report.assignment {
            lists[board].push(requests[id].clone());
        }
        let sim = SimConfig::default();
        let (mut boards_s, mut stream_s) = (0.0, 0.0);
        for (board, list) in self.boards.iter().zip(&lists) {
            if list.is_empty() {
                continue;
            }
            let opts = RuntimeOptions {
                requests: list.len(),
                ..base.clone()
            };
            boards_s += probe_s(Self::CAL, 5, || {
                runtime::serve(
                    &board.design,
                    &self.art.names,
                    &modules,
                    &kernels,
                    list,
                    &opts,
                )
                .map(|o| o.report.rounds)
            });
            let arrivals = vec![0u64; list.len()];
            stream_s += probe_s(Self::CAL, 5, || {
                zynq::simulate_batch_stream(
                    &board.design,
                    &sim,
                    &arrivals,
                    board.design.config.m,
                    true,
                )
            });
        }
        let fleet_s = agg.per_call_s("runtime.serve_fleet");
        m.set(
            "runtime.fleet_route_merge_ns_per_req",
            (fleet_s - boards_s) / REQUESTS as f64 * ns,
        );
        m.set(
            "runtime.serve_self_ns_per_req",
            (boards_s - stream_s) / REQUESTS as f64 * ns,
        );
        m.set(
            "zynq.batch_stream_ns_per_req",
            stream_s / REQUESTS as f64 * ns,
        );
        let zcu106 = self.art.system.as_ref().ok_or("no zcu106 system")?;
        m.set("zynq.program_round_ns", program_round_ns(Self::CAL, zcu106));

        // Threads against the serial loop: informational on a 2-core box.
        let parallel = fleet_options(REQUESTS, true);
        let threaded_s = probe_s(Self::CAL, 3, || {
            self.art
                .serve_fleet(&self.boards, &parallel)
                .map(|o| o.report.completed)
        });
        let serial_s = probe_s(Self::CAL, 3, || {
            self.art
                .serve_fleet(&self.boards, &self.opts)
                .map(|o| o.report.completed)
        });
        m.set("runtime.fleet_parallel_wall_ratio", threaded_s / serial_s);

        self.scale_sweep(m)
    }

    /// Timing-only closed requests from 1k to 1M on one board and on
    /// the fleet: host ns per request at each size, the least-squares
    /// slope over the three sizes, and peak RSS after the 1M run.
    fn scale_sweep(&self, m: &mut Metrics) -> Result<(), String> {
        let names = [
            [
                "runtime.scale_ns_per_req_1k",
                "runtime.scale_ns_per_req_32k",
                "runtime.scale_ns_per_req_1m",
                "runtime.scale_slope_ns_per_req",
                "runtime.scale_rss_mb_1m",
            ],
            [
                "runtime.scale_ns_per_req_1k_5b",
                "runtime.scale_ns_per_req_32k_5b",
                "runtime.scale_ns_per_req_1m_5b",
                "runtime.scale_slope_ns_per_req_5b",
                "runtime.scale_rss_mb_1m_5b",
            ],
        ];
        for (fleet, names) in names.iter().enumerate() {
            let mut points = Vec::with_capacity(SCALE_POINTS.len());
            for (&n, name) in SCALE_POINTS.iter().zip(names) {
                let reps = if n >= 1_000_000 { 3 } else { 7 };
                let s = if fleet == 1 {
                    let opts = fleet_options(n, false);
                    probe_s(Self::CAL, reps, || {
                        self.art
                            .serve_fleet(&self.boards, &opts)
                            .map(|o| o.report.completed)
                    })
                } else {
                    let opts = RuntimeOptions {
                        requests: n,
                        ..RuntimeOptions::default()
                    };
                    probe_s(Self::CAL, reps, || {
                        self.art.serve(&opts).map(|o| o.report.completed)
                    })
                };
                m.set(name, s / n as f64 * 1e9);
                points.push((n as f64, s));
            }
            m.set(names[3], slope(&points) * 1e9);
            m.set(names[4], host::peak_rss_mb());
        }
        Ok(())
    }
}

/// Least-squares slope of `y` over `x`.
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    sxy / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_a_line_is_its_gradient() {
        let pts = [
            (1e3, 0.5 + 2e-6 * 1e3),
            (32e3, 0.5 + 2e-6 * 32e3),
            (1e6, 0.5 + 2.0),
        ];
        assert!((slope(&pts) - 2e-6).abs() < 1e-15);
    }
}
