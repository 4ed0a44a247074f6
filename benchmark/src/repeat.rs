//! `--repeat N --sets 2`: the steadiness table.
//!
//! Runs every workload (or the one named) `N` times per set, the sets
//! alternating run by run so both see the same stretch of machine time,
//! run `i` of every set with seed `--seed + i`. Each run is a fresh
//! process of this binary. For every end-to-end metric the table shows
//! both set medians, by how much the second is worse than the first,
//! the interquartile spread of each set as a share of its median
//! (Python's `statistics.quantiles(values, n=4)`), and the bound. The
//! run is red — exit code 1 — if a difference or a spread exceeds its
//! bound (`setup_s` is exempt from the spread rule, as in the
//! acceptance rule this mirrors) or if any run reports a failed op.
//!
//! The spreads are over runs with different seeds, so they cannot show
//! that a metric repeats exactly. That is checked separately: run `i`
//! of every set has the same seed, and on the metrics of
//! [`EXACT_PER_SEED`] those runs must agree digit for digit.
//!
//! Two more rows show the machine the runs saw — raw throughput and
//! the calibration op's time, from each run's stderr. They have no
//! bound; they are there so the calibrated spread can be read next to
//! the raw one.

use std::process::Command;

use crate::metrics::{json_number, Better, MetricDef, END_TO_END};
use crate::stats::{iqr_share, median};
use crate::{Args, WORKLOADS};

/// What a `--trace 0` run logs about the machine (`host: key=value ...`
/// on stderr), shown unbounded under each table.
const HOST_ROWS: [(&str, &str); 2] = [("raw_units_per_s", "1/s"), ("cal_op_ms", "ms")];

/// Metrics that depend on nothing but the code and the seed: every
/// simulated metric, the allocation counts and the heap high-water
/// mark. Two runs with one seed must print the same digits.
const EXACT_PER_SEED: [&str; 9] = [
    "peak_heap_mb",
    "allocs_per_unit",
    "alloc_kb_per_unit",
    "sim_speedup_vs_arm",
    "sim_plm_brams",
    "sim_kernels_fit",
    "sim_goodput_rps",
    "sim_p99_ms",
    "sim_served_share",
];

/// `value` with five significant digits.
fn fmt_sig(value: f64) -> String {
    if value == 0.0 || !value.is_finite() {
        return json_number(value);
    }
    let digits = (4 - value.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{value:.digits$}")
}

/// `key=<number>` in the run's `host:` log line → the number.
fn host_value(stderr: &str, key: &str) -> Option<f64> {
    let line = stderr.lines().find(|l| l.starts_with("host: "))?;
    let rest = &line[line.find(&format!("{key}="))? + key.len() + 1..];
    rest.split_whitespace().next()?.parse().ok()
}

/// `"name": {"value": <number>` → the number.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// One run: the end-to-end metrics in table order, then [`HOST_ROWS`].
fn run_once(args: &Args, workload: &str, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .output()
        .map_err(|e| format!("cannot start a run of {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    let line = stdout.lines().last().unwrap_or("");
    if !output.status.success() || !line.contains("\"correct\": true") {
        return Err(format!(
            "{workload} seed {seed} failed ({}): {line}\n{stderr}",
            output.status
        ));
    }
    let metrics = END_TO_END.iter().map(|d| {
        metric_value(line, d.name)
            .ok_or_else(|| format!("{workload}: no metric '{}' in: {line}", d.name))
    });
    let host = HOST_ROWS.iter().map(|(key, _)| {
        host_value(&stderr, key).ok_or_else(|| format!("{workload}: no '{key}' in: {stderr}"))
    });
    metrics.chain(host).collect()
}

/// Share by which `second` is worse than `first` (negative: better).
fn worsening(def: &MetricDef, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return if second == first { 0.0 } else { f64::INFINITY };
    }
    match def.better {
        Better::Lower => (second - first) / first.abs(),
        Better::Higher => (first - second) / first.abs(),
    }
}

/// One table row; returns whether the metric is within its bound.
fn row(def: &MetricDef, sets: &[Vec<f64>]) -> (String, bool) {
    let medians: Vec<f64> = sets.iter().map(|s| median(s)).collect();
    let spreads: Vec<f64> = sets.iter().map(|s| iqr_share(s)).collect();
    let worse = medians
        .windows(2)
        .map(|w| worsening(def, w[0], w[1]))
        .fold(0.0, f64::max);
    let spread_ok = def.name == "setup_s" || spreads.iter().all(|s| *s <= def.bound);
    let ok = worse <= def.bound && spread_ok;
    let cells = |v: &[f64], f: &dyn Fn(f64) -> String| {
        v.iter().map(|x| f(*x)).collect::<Vec<_>>().join(" / ")
    };
    let text = format!(
        "| `{}` | {} | {} | {:+.2} % | {} | {} % | {} |",
        def.name,
        def.unit,
        cells(&medians, &fmt_sig),
        worse * 100.0,
        cells(&spreads, &|s| format!("{:.2} %", s * 100.0)),
        fmt_sig(def.bound * 100.0),
        if ok { "ok" } else { "OVER" }
    );
    (text, ok)
}

/// `(metric, run, values per set)` for every [`EXACT_PER_SEED`] metric
/// on which the same-seed runs of the sets disagree.
/// `values[set][metric][run]`.
fn same_seed_mismatches(values: &[Vec<Vec<f64>>]) -> Vec<(&'static str, usize, Vec<f64>)> {
    let mut bad = Vec::new();
    for (mi, def) in END_TO_END.iter().enumerate() {
        if !EXACT_PER_SEED.contains(&def.name) {
            continue;
        }
        for run in 0..values[0][mi].len() {
            let per_set: Vec<f64> = values.iter().map(|set| set[mi][run]).collect();
            if per_set.iter().any(|v| *v != per_set[0]) {
                bad.push((def.name, run, per_set));
            }
        }
    }
    bad
}

/// Returns `Ok(true)` when every metric of every workload is green.
pub fn run(args: &Args, n: usize) -> Result<bool, String> {
    let workloads: Vec<&str> = if args.workload.is_empty() {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut green = true;
    for workload in workloads {
        // values[set][metric][run]
        let columns = END_TO_END.len() + HOST_ROWS.len();
        let mut values = vec![vec![Vec::with_capacity(n); columns]; args.sets];
        for i in 0..n {
            for set in values.iter_mut() {
                let run = run_once(args, workload, args.seed + i as u64)?;
                for (slot, v) in set.iter_mut().zip(run) {
                    slot.push(v);
                }
            }
        }
        println!(
            "\n### `{workload}` — {n} runs per set, {} sets, seeds {}..{}, {} s\n",
            args.sets,
            args.seed,
            args.seed + n as u64 - 1,
            args.seconds
        );
        println!(
            "| metric | unit | set medians | later set worse by | IQR ÷ median per set | bound | |"
        );
        println!("|---|---|---|---|---|---|---|");
        for (mi, def) in END_TO_END.iter().enumerate() {
            let per_set: Vec<Vec<f64>> = values.iter().map(|set| set[mi].clone()).collect();
            let (text, ok) = row(def, &per_set);
            println!("{text}");
            green &= ok;
        }
        let mismatches = same_seed_mismatches(&values);
        for (name, run, per_set) in &mismatches {
            println!(
                "| `{name}`, seed {} | | {} | not identical | | exact | OVER |",
                args.seed + *run as u64,
                per_set
                    .iter()
                    .map(|v| json_number(*v))
                    .collect::<Vec<_>>()
                    .join(" / ")
            );
        }
        if mismatches.is_empty() {
            println!(
                "| same seed, every set: {} metrics | | identical on all {n} seeds | | | exact | ok |",
                EXACT_PER_SEED.len()
            );
        }
        green &= mismatches.is_empty();
        for (hi, (key, unit)) in HOST_ROWS.iter().enumerate() {
            let per_set = values.iter().map(|set| &set[END_TO_END.len() + hi]);
            let medians: Vec<String> = per_set.clone().map(|v| fmt_sig(median(v))).collect();
            let spreads: Vec<String> = per_set
                .map(|v| format!("{:.2} %", iqr_share(v) * 100.0))
                .collect();
            println!(
                "| the machine: `{key}` | {unit} | {} | | {} | none | |",
                medians.join(" / "),
                spreads.join(" / ")
            );
        }
    }
    println!(
        "\n{}",
        if green {
            "all within bounds"
        } else {
            "OVER a bound"
        }
    );
    Ok(green)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_sig_keeps_five_significant_digits() {
        assert_eq!(fmt_sig(1234.5678), "1234.6");
        assert_eq!(fmt_sig(0.0123456), "0.012346");
        assert_eq!(fmt_sig(16.0), "16.000");
        assert_eq!(fmt_sig(0.0), "0");
    }

    #[test]
    fn extracts_the_machine_from_the_host_log_line() {
        let stderr = "measured phase: 4 rounds\nhost: raw_units_per_s=98.5 cal_op_ms=5.25 \
                      round_iqr_share=0.1\n";
        assert_eq!(host_value(stderr, "raw_units_per_s"), Some(98.5));
        assert_eq!(host_value(stderr, "cal_op_ms"), Some(5.25));
        assert_eq!(host_value(stderr, "nope"), None);
        assert_eq!(host_value("no host line", "cal_op_ms"), None);
    }

    #[test]
    fn extracts_a_metric_from_the_result_line() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
                    \"sim_p99_ms\": {\"value\": 5.9, \"unit\": \"sim-ms\"}}}";
        assert_eq!(metric_value(line, "setup_s"), Some(0.8127));
        assert_eq!(metric_value(line, "sim_p99_ms"), Some(5.9));
        assert_eq!(metric_value(line, "p99_ms"), None);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = &END_TO_END[0];
        assert_eq!(lower.better, Better::Lower);
        assert!((worsening(lower, 2.0, 2.2) - 0.1).abs() < 1e-12);
        let higher = END_TO_END
            .iter()
            .find(|d| d.better == Better::Higher)
            .unwrap();
        assert!((worsening(higher, 2.0, 1.8) - 0.1).abs() < 1e-12);
        assert!(worsening(higher, 2.0, 2.2) < 0.0);
    }

    #[test]
    fn same_seed_runs_must_agree_exactly_on_simulated_and_allocation_metrics() {
        let index = |name: &str| END_TO_END.iter().position(|d| d.name == name).unwrap();
        // Two sets of three runs; every metric reads 1 + run.
        let set: Vec<Vec<f64>> = vec![vec![1.0, 2.0, 3.0]; END_TO_END.len()];
        let mut values = vec![set.clone(), set];
        assert!(same_seed_mismatches(&values).is_empty());
        // Host time may differ between same-seed runs.
        values[1][index("units_per_cal_s")][1] = 2.5;
        assert!(same_seed_mismatches(&values).is_empty());
        // A simulated metric or an allocation count may not, by any amount.
        values[1][index("sim_goodput_rps")][2] = 3.0 + 1e-9;
        values[1][index("allocs_per_unit")][0] = 1.5;
        let bad = same_seed_mismatches(&values);
        assert_eq!(bad.len(), 2);
        assert_eq!((bad[0].0, bad[0].1), ("allocs_per_unit", 0));
        assert_eq!((bad[1].0, bad[1].1), ("sim_goodput_rps", 2));
        for name in EXACT_PER_SEED {
            index(name);
        }
    }

    #[test]
    fn a_row_is_red_when_the_spread_or_the_difference_is_over() {
        let def = END_TO_END
            .iter()
            .find(|d| d.name == "units_per_cal_s")
            .unwrap();
        let steady = vec![vec![100.0, 100.5, 101.0, 100.2, 100.8]; 2];
        assert!(row(def, &steady).1);
        let drifted = vec![steady[0].clone(), vec![80.0, 80.5, 81.0, 80.2, 80.8]];
        assert!(!row(def, &drifted).1);
        let noisy = vec![vec![60.0, 100.0, 140.0, 90.0, 120.0]; 2];
        assert!(!row(def, &noisy).1);
        // setup_s is exempt from the spread rule only.
        let setup = &END_TO_END[0];
        assert!(row(setup, &noisy).1);
    }
}
