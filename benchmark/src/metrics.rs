//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` at the repo root lists the same names (a
//! test keeps the two in step); README.md says what each one means and
//! which end-to-end metric, on which workload, each layer metric should
//! move.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression (end-to-end
    /// metrics only; 0 for per-layer metrics, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

/// End-to-end metrics; every workload reports every one.
///
/// `setup_s`, `units_per_cal_s` and `op_p50_cal_ms` are calibrated host
/// time, `peak_heap_mb` and the two allocation metrics are host memory,
/// and the `sim_*` metrics are outputs of the simulated platform model:
/// host-independent, identical on every round of a run, and not
/// validated against hardware (the repo holds the paper's figures, not
/// a measurement).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("units_per_cal_s", "1/cal-s", Better::Higher, 0.1),
    e2e("op_p50_cal_ms", "cal-ms", Better::Lower, 0.1),
    e2e("peak_heap_mb", "MB", Better::Lower, 0.005),
    e2e("allocs_per_unit", "count", Better::Lower, 0.005),
    e2e("alloc_kb_per_unit", "KiB", Better::Lower, 0.005),
    e2e("sim_speedup_vs_arm", "x", Better::Higher, 0.001),
    e2e("sim_plm_brams", "count", Better::Lower, 0.001),
    e2e("sim_kernels_fit", "count", Better::Higher, 0.001),
    e2e("sim_goodput_rps", "1/sim-s", Better::Higher, 0.02),
    e2e("sim_p99_ms", "sim-ms", Better::Lower, 0.005),
    e2e("sim_served_share", "ratio", Better::Higher, 0.03),
];

/// Per-layer metrics of the traced run (layer = crate). A workload
/// reports 0 for a layer metric it does not exercise.
pub const PER_LAYER: &[MetricDef] = &[
    lower("cfdlang.parse_check_us_per_prog", "cal-us"),
    lower("cfdlang.source_bytes_per_prog", "B"),
    lower("teil.lower_factorize_us_per_kernel", "cal-us"),
    lower("teil.ir_stmts_after_factorize", "count"),
    lower("teil.interp_us_per_req", "cal-us"),
    lower("teil.interp_flops_per_req", "count"),
    lower("polyhedra.is_empty_queries_per_prog", "count"),
    higher("polyhedra.corner_hits_per_prog", "count"),
    higher("polyhedra.memo_hit_ratio", "ratio"),
    lower("polyhedra.simplex_calls_per_prog", "count"),
    lower("polyhedra.fm_fallbacks_per_prog", "count"),
    higher("polyhedra.proj_hit_ratio", "ratio"),
    higher("polyhedra.between_hit_ratio", "ratio"),
    lower("pschedule.model_us_per_kernel", "cal-us"),
    lower("pschedule.deps_us_per_kernel", "cal-us"),
    lower("pschedule.reschedule_us_per_kernel", "cal-us"),
    lower("pschedule.liveness_us_per_kernel", "cal-us"),
    lower("pschedule.link_us_per_prog", "cal-us"),
    lower("cgen.build_emit_us_per_kernel", "cal-us"),
    lower("cgen.c_bytes_per_kernel", "B"),
    lower("cgen.exec_us_per_req", "cal-us"),
    lower("hls.estimate_us_per_kernel", "cal-us"),
    lower("mnemosyne.synthesize_us_per_prog", "cal-us"),
    lower("mnemosyne.paper_plm_brams_shared", "count"),
    lower("mnemosyne.paper_plm_brams_unshared", "count"),
    lower("sysgen.system_us_per_prog", "cal-us"),
    higher("sysgen.paper_kernels_fit_shared", "count"),
    higher("sysgen.paper_kernels_fit_unshared", "count"),
    higher("sysgen.paper_speedup_k16", "x"),
    higher("sysgen.paper_speedup_k8", "x"),
    lower("cfd-core.compile_unattributed_share", "ratio"),
    lower("cfd-core.cache_store_us_per_prog", "cal-us"),
    lower("cfd-core.cache_mem_hit_us_per_prog", "cal-us"),
    lower("cfd-core.cache_disk_revive_us_per_prog", "cal-us"),
    lower("cfd-core.cache_entry_bytes_per_prog", "B"),
    higher("cfd-core.cache_hit_ratio", "ratio"),
    lower("cfd-core.dse_us_per_point", "cal-us"),
    lower("cfd-core.dse_backend_compiles", "count"),
    higher("cfd-core.dse_backend_reuses", "count"),
    higher("cfd-core.dse_feasible_share", "ratio"),
    lower("cfd-core.dse_probe_us_per_point", "cal-us"),
    lower("cfd-core.portfolio_json_us", "cal-us"),
    lower("cfd-core.portfolio_json_bytes", "B"),
    lower("zynq.program_round_ns", "cal-ns"),
    lower("zynq.batch_stream_ns_per_req", "cal-ns"),
    lower("zynq.faulty_stream_ns_per_req", "cal-ns"),
    lower("zynq.online_ns_per_req", "cal-ns"),
    lower("zynq.online_rounds_per_kreq", "count"),
    lower("zynq.online_early_closed_rounds", "count"),
    higher("zynq.fast_forwarded_rounds", "count"),
    lower("zynq.transient_faults", "count"),
    lower("zynq.sim_p99_ms_at_0.5x", "sim-ms"),
    lower("zynq.sim_p99_ms_at_0.8x", "sim-ms"),
    lower("zynq.sim_p99_ms_at_1.0x", "sim-ms"),
    lower("zynq.sim_p99_ms_at_1.25x", "sim-ms"),
    higher("zynq.slo_max_rate_rps", "1/sim-s"),
    lower("zynq.verify_mismatches", "count"),
    lower("runtime.gen_requests_ns_per_req", "cal-ns"),
    lower("runtime.serve_self_ns_per_req", "cal-ns"),
    lower("runtime.report_json_ns_per_req", "cal-ns"),
    lower("runtime.report_json_bytes_per_req", "B"),
    lower("runtime.allocs_per_req", "count"),
    lower("runtime.fleet_route_merge_ns_per_req", "cal-ns"),
    lower("runtime.fleet_requeued", "count"),
    lower("runtime.fleet_parallel_wall_ratio", "ratio"),
    lower("runtime.scale_ns_per_req_1k", "cal-ns"),
    lower("runtime.scale_ns_per_req_32k", "cal-ns"),
    lower("runtime.scale_ns_per_req_1m", "cal-ns"),
    lower("runtime.scale_slope_ns_per_req", "cal-ns"),
    lower("runtime.scale_rss_mb_1m", "MB"),
    lower("runtime.scale_ns_per_req_1k_5b", "cal-ns"),
    lower("runtime.scale_ns_per_req_32k_5b", "cal-ns"),
    lower("runtime.scale_ns_per_req_1m_5b", "cal-ns"),
    lower("runtime.scale_slope_ns_per_req_5b", "cal-ns"),
    lower("runtime.scale_rss_mb_1m_5b", "MB"),
    lower("host.cal_op_ms", "ms"),
    higher("host.raw_units_per_s", "1/s"),
    lower("host.op_p95_cal_ms", "cal-ms"),
    higher("host.op_samples", "count"),
    lower("host.round_iqr_share", "ratio"),
    lower("host.peak_rss_mb", "MB"),
    lower("host.runqueue_wait_share", "ratio"),
    lower("host.trace_overhead_share", "ratio"),
];

/// Values collected during a run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` for every metric of
    /// `table`, in table order. A per-layer metric the workload did not
    /// set reads 0; a name outside the table is a bug in the caller.
    pub fn to_json(&self, table: &[MetricDef]) -> String {
        for name in self.0.keys() {
            assert!(
                table.iter().any(|d| d.name == *name),
                "metric '{name}' is not in the table"
            );
        }
        let body: Vec<String> = table
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(self.get(d.name).unwrap_or(0.0)),
                    d.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite float with all its digits; non-finite values have no JSON
/// form and would only come from a bug, so they read 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn label(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name '{}'", d.name);
            assert!(valid_unit(d.unit), "bad unit '{}' on {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate metric '{}'", d.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let max = END_TO_END.iter().map(|d| d.bound).fold(0.0, f64::max);
        assert!(
            max <= 0.25 && setup.bound == max,
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        runtime::json::validate(&text).unwrap();
        for d in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                label(d.better),
                d.bound
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for d in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                label(d.better)
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for w in crate::WORKLOADS {
            assert!(text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")));
        }
    }

    #[test]
    fn emitted_metrics_are_valid_json_with_every_table_name() {
        let mut m = Metrics::default();
        m.set("host.cal_op_ms", 5.612345678);
        m.set("zynq.verify_mismatches", f64::NAN);
        let json = m.to_json(PER_LAYER);
        runtime::json::validate(&json).unwrap();
        for d in PER_LAYER {
            assert!(json.contains(&format!("\"{}\": {{\"value\": ", d.name)));
        }
        assert!(json.contains("\"host.cal_op_ms\": {\"value\": 5.612345678, \"unit\": \"ms\"}"));
        assert!(json.contains("\"zynq.verify_mismatches\": {\"value\": 0, \"unit\": \"count\"}"));
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn a_name_outside_the_table_is_rejected() {
        let mut m = Metrics::default();
        m.set("host.cal_op_ms", 1.0);
        m.to_json(END_TO_END);
    }
}
