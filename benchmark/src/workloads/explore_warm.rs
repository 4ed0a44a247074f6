//! `explore_warm`: design-space exploration off a disk-warm compile
//! cache.
//!
//! One round runs two ops. **A** (the headline, the roadmap's
//! `sweep_4096pt`): open a fresh in-memory cache over a warm cache
//! directory, `DseEngine::prepare_cached` on `inverse_helmholtz(11)`,
//! `run_portfolio` of the 264-point dense grid across the board catalog
//! and every clock ladder (4488 evaluated points), `to_json`. **B**: the
//! same through `ProgramDseEngine` on `simulation_step(7)` with the
//! default grid. The front half of the compiler is bypassed (cache read
//! path); the time goes to `cfd-core::dse`, the per-point
//! hls/mnemosyne/sysgen backends and thousands of 64-request service
//! probes through the online loop. Nothing here depends on the seed
//! except the inputs the compiled programs are verified on.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cfd_core::cache::schedule_key;
use cfd_core::dse::{DseEngine, DseGrid, PortfolioOutcome, PortfolioReport, ProgramDseEngine};
use cfd_core::program::ProgramOptions;
use cfd_core::{CompileCache, FlowOptions, OnlinePolicy, RuntimeOptions};
use sysgen::{MultiSystemDesign, Platform, SystemConfig};
use zynq::SimConfig;

use super::{
    arm_chain_s, compile, program_options, program_round_ns, valid_json, verify_bitexact, SERVED_P,
};
use crate::cal;
use crate::harness::{fnv64, fnv64_extend, probe_s, OpKind, SimMetrics, Workload};
use crate::metrics::Metrics;
use crate::stats::geomean;
use crate::trace::{SpanAgg, Tracer};

/// Elements every design point is simulated with (as in the repo's own
/// sweep benches).
const ELEMENTS: usize = 2_000;
const PAPER_P: usize = 11;
/// Requests of the DSE engine's per-point service probe.
const PROBE_REQUESTS: usize = 64;

pub struct ExploreOut {
    json: String,
    evaluated: usize,
}

/// What the traced run remembers of the last report of each op.
#[derive(Default, Clone, Copy)]
struct ReportFacts {
    evaluated: usize,
    feasible: usize,
    backend_compiles: usize,
    backend_reuses: usize,
    json_bytes: usize,
    cache_hits: usize,
    cache_misses: usize,
}

pub struct ExploreWarm {
    kinds: Vec<OpKind>,
    cache_dir: PathBuf,
    helm_source: String,
    step_source: String,
    flow: FlowOptions,
    program: ProgramOptions,
    catalog: Vec<Platform>,
    dense: DseGrid,
    /// Hash of each op's report JSON, `wall_s` line excluded.
    reference: [u64; 2],
    sim: SimMetrics,
    facts: [ReportFacts; 2],
}

impl Drop for ExploreWarm {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

/// The roadmap's dense grid: 11 replications × 3 batch factors ×
/// sharing × decoupling × 2 partitions = 264 points.
fn dense_grid() -> DseGrid {
    DseGrid {
        k: vec![1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16],
        batch: vec![1, 2, 4],
        sharing: vec![true, false],
        decoupled: vec![true, false],
        partition: vec![1, 2],
    }
}

/// The report's JSON carries one wall-clock field; everything else must
/// repeat byte for byte.
fn stable_hash(json: &str) -> u64 {
    json.lines()
        .filter(|l| !l.trim_start().starts_with("\"wall_s\":"))
        .fold(fnv64(b""), |h, l| fnv64_extend(h, l.as_bytes()))
}

fn best(report: &PortfolioReport) -> Result<&PortfolioOutcome, String> {
    report
        .outcomes
        .iter()
        .filter(|o| o.outcome.feasible)
        .max_by(|a, b| {
            a.outcome
                .throughput_eps
                .total_cmp(&b.outcome.throughput_eps)
                // `max_by` keeps the last of equals; prefer the first.
                .then(std::cmp::Ordering::Greater)
        })
        .ok_or_else(|| "the sweep found no feasible design".to_string())
}

/// Largest feasible `k = m` on the paper's board.
fn kernels_fit(report: &PortfolioReport) -> usize {
    report
        .outcomes
        .iter()
        .filter(|o| o.platform == "zcu106" && o.outcome.feasible)
        .filter(|o| o.outcome.point.k == o.outcome.point.m)
        .map(|o| o.outcome.point.k)
        .max()
        .unwrap_or(0)
}

impl ExploreWarm {
    fn fresh_cache(&self) -> Arc<CompileCache> {
        Arc::new(CompileCache::with_dir(&self.cache_dir).expect("cache dir was usable in set-up"))
    }

    fn sweep_a(&self, t: &mut Tracer) -> (PortfolioReport, String, cfd_core::CacheCounters) {
        let cache = t.leaf("cfd-core.cache_open", || self.fresh_cache());
        let engine = t.leaf("cfd-core.prepare", || {
            DseEngine::prepare_cached(&self.helm_source, &self.flow, cache)
                .expect("prepared in set-up")
        });
        let report = t.leaf("cfd-core.portfolio", || {
            engine.run_portfolio(&self.catalog, &self.dense, 1, ELEMENTS)
        });
        let json = t.leaf("cfd-core.portfolio_json", || report.to_json());
        (report, json, engine.pipeline().cache_counters())
    }

    fn sweep_b(&self, t: &mut Tracer) -> (PortfolioReport, String, cfd_core::CacheCounters) {
        let cache = t.leaf("cfd-core.cache_open", || self.fresh_cache());
        let engine = t.leaf("cfd-core.prepare", || {
            ProgramDseEngine::prepare_cached(&self.step_source, &self.program, cache)
                .expect("prepared in set-up")
        });
        let report = t.leaf("cfd-core.portfolio", || {
            engine.run_portfolio(&self.catalog, &DseGrid::default(), 1, ELEMENTS)
        });
        let json = t.leaf("cfd-core.portfolio_json", || report.to_json());
        (report, json, engine.pipeline().cache_counters())
    }

    fn sweep(
        &self,
        kind: usize,
        t: &mut Tracer,
    ) -> (PortfolioReport, String, cfd_core::CacheCounters) {
        if kind == 0 {
            self.sweep_a(t)
        } else {
            self.sweep_b(t)
        }
    }
}

impl Workload for ExploreWarm {
    type Out = ExploreOut;

    const ROUNDS_PER_SECOND: f64 = 8.25;
    const CAL: cal::CalOp = cal::MEM;

    fn setup(seed: u64, out_dir: &Path) -> Result<Self, String> {
        let cache_dir = out_dir.join(format!("cache-explore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let program = program_options(Platform::zcu106());
        let mut w = ExploreWarm {
            kinds: Vec::new(),
            cache_dir,
            helm_source: cfdlang::examples::inverse_helmholtz(PAPER_P),
            step_source: cfdlang::examples::simulation_step(SERVED_P),
            flow: program.flow.clone(),
            program,
            catalog: Platform::catalog(),
            dense: dense_grid(),
            reference: [0; 2],
            sim: SimMetrics {
                served_share: 1.0,
                ..SimMetrics::default()
            },
            facts: [ReportFacts::default(); 2],
        };

        // The programs explored are correct: verified bit-exactly.
        let helm = compile(&w.helm_source, &w.program)?;
        verify_bitexact("inverse_helmholtz_11", &helm, seed)?;
        let step = compile(&w.step_source, &w.program)?;
        verify_bitexact("simulation_step_7", &step, seed)?;

        // Warm the cache directory: a cold prepare of both engines
        // stores every kernel's scheduling products on disk.
        let writer = Arc::new(
            CompileCache::with_dir(&w.cache_dir)
                .map_err(|e| format!("cache dir {}: {e}", w.cache_dir.display()))?,
        );
        DseEngine::prepare_cached(&w.helm_source, &w.flow, Arc::clone(&writer))
            .map_err(|e| e.to_string())?;
        ProgramDseEngine::prepare_cached(&w.step_source, &w.program, writer)
            .map_err(|e| e.to_string())?;

        let mut tracer = Tracer::new(false);
        let mut speedups = Vec::new();
        for kind in 0..2 {
            let (report, json, cache) = w.sweep(kind, &mut tracer);
            if cache.misses != 0 || cache.disk_hits == 0 {
                return Err(format!(
                    "op {kind}: the cache directory is not warm: {cache:?}"
                ));
            }
            valid_json("portfolio report", &json)?;
            let top = best(&report)?;
            let modules: Vec<&teil::Module> = if kind == 0 {
                helm.kernels.iter().map(|k| &*k.module).collect()
            } else {
                step.kernels.iter().map(|k| &*k.module).collect()
            };
            speedups.push(arm_chain_s(modules, ELEMENTS)? / top.outcome.total_s);
            w.sim.plm_brams += top.outcome.plm_brams as f64;
            w.sim.kernels_fit += kernels_fit(&report) as f64;
            if kind == 0 {
                w.sim.goodput_rps = top.outcome.service_rps;
                w.sim.p99_ms = top.outcome.service_p99_s * 1e3;
            }
            w.reference[kind] = stable_hash(&json);
            w.kinds.push(OpKind {
                name: [
                    "portfolio_dense_helmholtz_11",
                    "portfolio_default_simstep_7",
                ][kind]
                    .into(),
                units: report.evaluated as u64,
            });
        }
        w.sim.speedup_vs_arm = geomean(&speedups);
        Ok(w)
    }

    fn kinds(&self) -> &[OpKind] {
        &self.kinds
    }

    fn headline(&self) -> usize {
        0
    }

    fn run(&mut self, kind: usize, tracer: &mut Tracer) -> ExploreOut {
        let traced = tracer.enabled();
        let (report, json, cache) = tracer.span("op.explore", |t| self.sweep(kind, t));
        if traced {
            self.facts[kind] = ReportFacts {
                evaluated: report.evaluated,
                feasible: report.feasible,
                backend_compiles: report.backend_compiles,
                backend_reuses: report.backend_reuses,
                json_bytes: json.len(),
                cache_hits: cache.total_hits(),
                cache_misses: cache.misses,
            };
        }
        ExploreOut {
            json,
            evaluated: report.evaluated,
        }
    }

    fn check(&self, kind: usize, out: &ExploreOut) -> Result<(), String> {
        if out.evaluated as u64 != self.kinds[kind].units {
            return Err(format!(
                "evaluated {} points, set-up evaluated {}",
                out.evaluated, self.kinds[kind].units
            ));
        }
        let got = stable_hash(&out.json);
        if got != self.reference[kind] {
            return Err(format!(
                "portfolio JSON hash {got:016x} differs from the reference {:016x}",
                self.reference[kind]
            ));
        }
        Ok(())
    }

    fn sim(&self) -> SimMetrics {
        self.sim
    }

    fn layers(&mut self, agg: &SpanAgg, m: &mut Metrics) -> Result<(), String> {
        let us = 1e6;
        let [a, b] = self.facts;
        let points = (a.evaluated + b.evaluated).max(1) as f64;
        m.set(
            "cfd-core.dse_us_per_point",
            agg.per_round_s(&["cfd-core.portfolio"]) / points * us,
        );
        m.set(
            "cfd-core.dse_backend_compiles",
            (a.backend_compiles + b.backend_compiles) as f64,
        );
        m.set(
            "cfd-core.dse_backend_reuses",
            (a.backend_reuses + b.backend_reuses) as f64,
        );
        m.set(
            "cfd-core.dse_feasible_share",
            (a.feasible + b.feasible) as f64 / points,
        );
        m.set(
            "cfd-core.portfolio_json_us",
            agg.per_round_s(&["cfd-core.portfolio_json"]) * us,
        );
        m.set(
            "cfd-core.portfolio_json_bytes",
            (a.json_bytes + b.json_bytes) as f64,
        );
        let lookups = a.cache_hits + b.cache_hits + a.cache_misses + b.cache_misses;
        m.set(
            "cfd-core.cache_hit_ratio",
            (a.cache_hits + b.cache_hits) as f64 / lookups.max(1) as f64,
        );
        self.probe_layers(m)
    }
}

impl ExploreWarm {
    /// Direct probes of single layers: the compile cache's three paths,
    /// the per-point backends, the service probe and the simulated
    /// round behind it.
    fn probe_layers(&self, m: &mut Metrics) -> Result<(), String> {
        let (us, ns) = (1e6, 1e9);
        let engine = DseEngine::prepare_cached(&self.helm_source, &self.flow, self.fresh_cache())
            .map_err(|e| e.to_string())?;
        let sched = engine.scheduled();
        let key = schedule_key(&sched.middle.module, &self.flow);

        // Compile cache: write side, memory hit, disk revival.
        let warm = self.fresh_cache();
        let entry = warm
            .lookup(key)
            .ok_or("the paper kernel's schedule is not in the warm cache")?;
        let store_dir = self.cache_dir.join("probe-store");
        let store = CompileCache::with_dir(&store_dir).map_err(|e| e.to_string())?;
        m.set(
            "cfd-core.cache_store_us_per_prog",
            probe_s(Self::CAL, 15, || store.store(key, Arc::clone(&entry))) * us,
        );
        const MEM_LOOKUPS: usize = 1_000;
        m.set(
            "cfd-core.cache_mem_hit_us_per_prog",
            probe_s(Self::CAL, 15, || {
                (0..MEM_LOOKUPS)
                    .filter(|_| warm.lookup(key).is_some())
                    .count()
            }) / MEM_LOOKUPS as f64
                * us,
        );
        let mut cold: Vec<Arc<CompileCache>> = (0..15).map(|_| self.fresh_cache()).collect();
        m.set(
            "cfd-core.cache_disk_revive_us_per_prog",
            probe_s(Self::CAL, cold.len(), || {
                cold.pop().expect("one cache per repetition").lookup(key)
            }) * us,
        );
        let (entries, bytes) = CompileCache::disk_stats(&store_dir).map_err(|e| e.to_string())?;
        m.set(
            "cfd-core.cache_entry_bytes_per_prog",
            bytes as f64 / entries.max(1) as f64,
        );

        // The backends a design point pays for, on the paper's kernel.
        let be = engine.pipeline().backend(sched, &self.flow);
        m.set(
            "hls.estimate_us_per_kernel",
            probe_s(Self::CAL, 25, || {
                hls::synthesize(&be.kernel, &self.flow.hls)
            }) * us,
        );
        m.set(
            "mnemosyne.synthesize_us_per_prog",
            probe_s(Self::CAL, 25, || {
                mnemosyne::synthesize(&be.mnemosyne_config, &self.flow.memory)
            }) * us,
        );
        let sys_opts = FlowOptions {
            system: Some(SystemConfig { k: 8, m: 8 }),
            ..self.flow.clone()
        };
        m.set(
            "sysgen.system_us_per_prog",
            probe_s(Self::CAL, 25, || engine.pipeline().system(&be, &sys_opts)) * us,
        );

        // The 64-request closed service probe every feasible point runs,
        // here on the k = m = 8 design, and the zynq calls under it.
        let single = engine
            .pipeline()
            .system(&be, &sys_opts)
            .map_err(|e| e.to_string())?
            .system
            .ok_or("k = m = 8 does not fit the zcu106")?;
        let design = MultiSystemDesign::from_single(&single);
        let probe_opts = RuntimeOptions {
            requests: PROBE_REQUESTS,
            seed: 0,
            online: OnlinePolicy {
                event_loop: true,
                ..OnlinePolicy::default()
            },
            ..RuntimeOptions::default()
        };
        let requests = runtime::generate_timing_requests(PROBE_REQUESTS, &probe_opts.arrival, 0)
            .map_err(|e| e.to_string())?;
        m.set(
            "cfd-core.dse_probe_us_per_point",
            probe_s(Self::CAL, 25, || {
                runtime::serve(&design, &[], &[], &[], &requests, &probe_opts)
                    .map(|o| o.report.rounds)
            }) * us,
        );
        let sim = SimConfig::default();
        m.set(
            "zynq.program_round_ns",
            program_round_ns(Self::CAL, &design),
        );
        let arrivals = vec![0u64; PROBE_REQUESTS];
        m.set(
            "zynq.batch_stream_ns_per_req",
            probe_s(Self::CAL, 25, || {
                zynq::simulate_batch_stream(&design, &sim, &arrivals, design.config.m, true)
            }) / PROBE_REQUESTS as f64
                * ns,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_hash_ignores_only_the_wall_clock_line() {
        let a = "{\n  \"evaluated\": 3,\n  \"wall_s\": 0.100000,\n  \"x\": 1\n}\n";
        let b = "{\n  \"evaluated\": 3,\n  \"wall_s\": 0.200000,\n  \"x\": 1\n}\n";
        let c = "{\n  \"evaluated\": 4,\n  \"wall_s\": 0.100000,\n  \"x\": 1\n}\n";
        assert_eq!(stable_hash(a), stable_hash(b));
        assert_ne!(stable_hash(a), stable_hash(c));
    }

    #[test]
    fn dense_grid_has_264_points() {
        assert_eq!(dense_grid().points().len(), 264);
    }
}
