//! `serve_online`: open-loop serving through the online event loop.
//!
//! One op is `ProgramArtifacts::serve` of 65 536 timing-only requests
//! on the ZCU106 `simulation_step(7)` system, then
//! `ServiceReport::to_json`. Simulated arrivals are open-loop Poisson at
//! 12 000 req/s — about 1.15x the system's simulated batched capacity —
//! under `OnlinePolicy {event_loop, slo_s: 0.006, shed_queue: 64,
//! priority_tiers: 3}`, a 5 % transient-fault plan and 3 retries. With
//! a deadline and a fault plan armed nothing fast-forwards, so
//! `zynq::online`/`stream`/`fault` run one event at a time. The seed
//! draws the arrival process and the fault plan. On the host side this
//! is still a closed loop with one client: the next op starts when the
//! previous one returns.
//!
//! Simulated latency is measured from simulated arrival over all
//! offered requests; a request that is shed, timed out or failed counts
//! as unserved (`sim_served_share`) and as missing any latency limit.

use std::path::Path;

use cfd_core::program::ProgramArtifacts;
use cfd_core::{Arrival, FaultPlan, OnlinePolicy, RecoveryPolicy, RuntimeOptions, ServiceReport};
use runtime::Request;
use sysgen::Platform;
use zynq::des::secs;
use zynq::{OnlineSpec, SimConfig};

use super::{
    compile, conserves, program_options, program_round_ns, same_json, sim_of, stages, valid_json,
    verify_bitexact, SERVED_P,
};
use crate::alloc::AllocCount;
use crate::cal;
use crate::harness::{fnv64, probe_s, splitmix, OpKind, SimMetrics, Workload};
use crate::metrics::Metrics;
use crate::trace::{SpanAgg, Tracer};

const REQUESTS: usize = 65_536;
const RATE_RPS: f64 = 12_000.0;
const SLO_S: f64 = 0.006;
/// Offered load of the traced run's latency ladder, as multiples of the
/// simulated batched capacity, with the metric that reports the p99 at
/// that load. The whole ladder feeds `zynq.slo_max_rate_rps`.
const LADDER: [(f64, Option<&str>); 9] = [
    (0.5, Some("zynq.sim_p99_ms_at_0.5x")),
    (0.6, None),
    (0.7, None),
    (0.8, Some("zynq.sim_p99_ms_at_0.8x")),
    (0.9, None),
    (1.0, Some("zynq.sim_p99_ms_at_1.0x")),
    (1.1, None),
    (1.25, Some("zynq.sim_p99_ms_at_1.25x")),
    (1.4, None),
];
/// Arrivals the offline faulty-stream probe replays. That scheduler is
/// quadratic in the backlog (0.6 us/request at 2k arrivals, 28 at 64k),
/// so its per-request cost is quoted at a fixed size.
const FAULTY_PROBE_REQUESTS: usize = 8_192;
/// Share of offered requests that must complete inside the SLO for a
/// ladder rate to count as meeting it: the p99 limit with every
/// unserved request counted as a miss.
const SLO_SERVED_SHARE: f64 = 0.99;

pub struct OnlineOut {
    report: ServiceReport,
    json: String,
}

pub struct ServeOnline {
    kinds: Vec<OpKind>,
    art: ProgramArtifacts,
    opts: RuntimeOptions,
    /// Simulated closed-backlog throughput of the system, req/s.
    capacity_rps: f64,
    reference: u64,
    sim: SimMetrics,
    traced_allocs: u64,
}

fn online_options(seed: u64, rate_rps: f64) -> RuntimeOptions {
    let mut rng = seed ^ 0x0FA0_17ED;
    let fault_seed = splitmix(&mut rng) % 1_000_000;
    RuntimeOptions {
        requests: REQUESTS,
        arrival: Arrival::Poisson { rate_rps },
        seed,
        faults: FaultPlan::parse(&format!("{fault_seed}:0.05")).expect("a well-formed fault spec"),
        recovery: RecoveryPolicy {
            max_retries: 3,
            ..RecoveryPolicy::default()
        },
        online: OnlinePolicy {
            event_loop: true,
            slo_s: Some(SLO_S),
            shed_queue: Some(64),
            priority_tiers: 3,
        },
        ..RuntimeOptions::default()
    }
}

impl ServeOnline {
    /// The request stream `ProgramArtifacts::serve` builds for `opts`.
    fn requests(opts: &RuntimeOptions) -> Vec<Request> {
        let mut requests =
            runtime::generate_timing_requests(opts.requests, &opts.arrival, opts.seed)
                .expect("a positive finite rate");
        let tiers = opts.online.priority_tiers as usize;
        if tiers > 1 {
            for r in &mut requests {
                r.tier = (r.id % tiers) as u8;
            }
        }
        requests
    }

    /// The op as `ProgramArtifacts::serve` composes it, over the
    /// runtime's public functions.
    fn serve_staged(&self, t: &mut Tracer) -> OnlineOut {
        let design = self.art.system.as_ref().expect("fits, checked in set-up");
        let (modules, kernels) = stages(&self.art);
        let requests = t.leaf("runtime.gen_requests", || Self::requests(&self.opts));
        let report = t.leaf("runtime.serve", || {
            runtime::serve(
                design,
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
        OnlineOut { report, json }
    }
}

impl Workload for ServeOnline {
    type Out = OnlineOut;

    const ROUNDS_PER_SECOND: f64 = 11.25;
    const CAL: cal::CalOp = cal::MEM;

    fn setup(seed: u64, _out_dir: &Path) -> Result<Self, String> {
        let source = cfdlang::examples::simulation_step(SERVED_P);
        let art = compile(&source, &program_options(Platform::zcu106()))?;
        verify_bitexact("simulation_step_7", &art, seed)?;
        let closed = art
            .serve(&RuntimeOptions {
                requests: REQUESTS,
                ..RuntimeOptions::default()
            })
            .map_err(|e| e.to_string())?
            .report;
        conserves(&closed)?;
        let mut w = ServeOnline {
            kinds: vec![OpKind {
                name: format!("serve_online_{REQUESTS}"),
                units: REQUESTS as u64,
            }],
            art,
            opts: online_options(seed, RATE_RPS),
            capacity_rps: closed.throughput_rps,
            reference: 0,
            sim: SimMetrics::default(),
            traced_allocs: 0,
        };
        let out = w.run(0, &mut Tracer::new(false));
        conserves(&out.report)?;
        valid_json("service report", &out.json)?;
        if out.report.transient_faults == 0 || out.report.completed == 0 {
            return Err("the fault plan never fired or nothing completed".into());
        }
        w.reference = fnv64(out.json.as_bytes());
        w.sim = sim_of("simulation_step_7", &w.art, &out.report)?;
        Ok(w)
    }

    fn kinds(&self) -> &[OpKind] {
        &self.kinds
    }

    fn headline(&self) -> usize {
        0
    }

    fn run(&mut self, _kind: usize, tracer: &mut Tracer) -> OnlineOut {
        if !tracer.enabled() {
            let report = self.art.serve(&self.opts).expect("served in set-up").report;
            let json = report.to_json();
            return OnlineOut { report, json };
        }
        let base = AllocCount::now();
        let out = tracer.span("op.serve", |t| self.serve_staged(t));
        self.traced_allocs = AllocCount::now().since(base).calls;
        out
    }

    fn check(&self, _kind: usize, out: &OnlineOut) -> Result<(), String> {
        conserves(&out.report)?;
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

        // zynq's share of `serve`: the same stream call made directly.
        let design = self.art.system.as_ref().expect("fits, checked in set-up");
        let requests = Self::requests(&self.opts);
        let arrivals: Vec<u64> = requests.iter().map(|r| secs(r.arrival_s)).collect();
        let spec = OnlineSpec {
            slo_ticks: self.opts.online.slo_s.map(secs),
            max_queue: self.opts.online.shed_queue,
            tiers: requests.iter().map(|r| r.tier).collect(),
        };
        let recovery = self.opts.recovery.to_spec();
        let sim = SimConfig::default();
        let capacity = design.config.m;
        let online_s = probe_s(Self::CAL, 9, || {
            zynq::simulate_online_stream(
                design,
                &sim,
                &arrivals,
                capacity,
                true,
                &self.opts.faults,
                &recovery,
                &spec,
            )
        });
        m.set("zynq.online_ns_per_req", online_s * ns_per_req);
        m.set(
            "runtime.serve_self_ns_per_req",
            (agg.per_call_s("runtime.serve") - online_s) * ns_per_req,
        );
        let prefix = &arrivals[..FAULTY_PROBE_REQUESTS];
        m.set(
            "zynq.faulty_stream_ns_per_req",
            probe_s(Self::CAL, 5, || {
                zynq::simulate_faulty_stream(
                    design,
                    &sim,
                    prefix,
                    capacity,
                    true,
                    &self.opts.faults,
                    &recovery,
                )
            }) / FAULTY_PROBE_REQUESTS as f64
                * 1e9,
        );
        m.set("zynq.program_round_ns", program_round_ns(Self::CAL, design));

        let (modules, kernels) = stages(&self.art);
        let serve = |opts: &RuntimeOptions| {
            runtime::serve(
                design,
                &self.art.names,
                &modules,
                &kernels,
                &Self::requests(opts),
                opts,
            )
            .map(|o| o.report)
            .map_err(|e| e.to_string())
        };
        let r = serve(&self.opts)?;
        m.set(
            "runtime.report_json_bytes_per_req",
            r.to_json().len() as f64 / REQUESTS as f64,
        );
        m.set(
            "zynq.online_rounds_per_kreq",
            r.rounds as f64 / (REQUESTS as f64 / 1e3),
        );
        m.set(
            "zynq.online_early_closed_rounds",
            r.early_closed_rounds as f64,
        );
        m.set("zynq.fast_forwarded_rounds", r.fast_forwarded_rounds as f64);
        m.set("zynq.transient_faults", r.transient_faults as f64);

        // Simulated p99 at fixed offered rates, and the highest ladder
        // rate that meets the SLO. Every completed request is inside the
        // SLO (it is also the deadline), so meeting it means: nothing
        // shed, and at most 1 % of the offered requests unserved.
        let mut slo_max_rate_rps = 0.0;
        for (load, p99_metric) in LADDER {
            let rate_rps = load * self.capacity_rps;
            let r = serve(&online_options(self.opts.seed, rate_rps))
                .map_err(|e| format!("latency ladder at {load}x: {e}"))?;
            if let Some(name) = p99_metric {
                m.set(name, r.latency_p99_s * 1e3);
            }
            let served = r.completed as f64 / r.requests as f64;
            if r.latency_p99_s <= SLO_S && r.shed == 0 && served >= SLO_SERVED_SHARE {
                slo_max_rate_rps = f64::max(slo_max_rate_rps, rate_rps);
            }
        }
        m.set("zynq.slo_max_rate_rps", slo_max_rate_rps);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_drives_arrivals_and_the_fault_plan() {
        let (a, b) = (online_options(1, RATE_RPS), online_options(2, RATE_RPS));
        assert_ne!(a.faults.label(), b.faults.label());
        assert_eq!(a.faults.label(), online_options(1, RATE_RPS).faults.label());
        let (ra, rb) = (ServeOnline::requests(&a), ServeOnline::requests(&b));
        assert_eq!(ra.len(), REQUESTS);
        assert_ne!(ra[10].arrival_s, rb[10].arrival_s);
        assert_eq!(
            (ra[0].tier, ra[1].tier, ra[2].tier, ra[3].tier),
            (0, 1, 2, 0)
        );
    }
}
