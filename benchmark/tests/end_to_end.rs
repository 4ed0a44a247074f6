//! Drives the built benchmark binary the way the driver does.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Where the runs started here write: under the build directory, so the
/// tests leave nothing outside it.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("bench-out-{}", std::process::id()))
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cfdfpga-benchmark"))
        .args(args)
        .arg("--out-dir")
        .arg(out_dir())
        .output()
        .expect("the benchmark binary starts")
}

fn result_line(out: &Output) -> String {
    assert!(
        out.status.success(),
        "benchmark failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .expect("a result line")
        .to_string()
}

/// `"name": {"value": <number>` → the number, as text (all digits).
fn value<'a>(line: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {line}"))
        + key.len()..];
    &rest[..rest.find(',').expect("a unit follows the value")]
}

/// Same workload, same seed, twice: the allocator counts, the heap
/// high-water mark and every simulated metric must repeat exactly,
/// digit for digit.
#[test]
fn allocation_counts_and_simulated_metrics_repeat_exactly() {
    let args = [
        "--workload",
        "compile_cold",
        "--seed",
        "11",
        "--seconds",
        "1",
        "--trace",
        "0",
    ];
    let (a, b) = (result_line(&bench(&args)), result_line(&bench(&args)));
    for line in [&a, &b] {
        runtime::json::validate(line).unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    }
    for name in [
        "peak_heap_mb",
        "allocs_per_unit",
        "alloc_kb_per_unit",
        "sim_speedup_vs_arm",
        "sim_plm_brams",
        "sim_kernels_fit",
        "sim_goodput_rps",
        "sim_p99_ms",
        "sim_served_share",
    ] {
        assert_eq!(
            value(&a, name),
            value(&b, name),
            "{name} differs between two runs"
        );
        assert_ne!(value(&a, name).parse::<f64>().unwrap(), 0.0, "{name} is 0");
    }
}

/// The traced run prints every per-layer metric and writes a span file
/// that `runtime::json`'s validating parser accepts.
#[test]
fn traced_run_writes_a_valid_span_file() {
    let out = bench(&[
        "--workload",
        "serve_online",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "1",
    ]);
    let line = result_line(&out);
    runtime::json::validate(&line).unwrap();
    for name in [
        "zynq.online_ns_per_req",
        "runtime.report_json_ns_per_req",
        "host.cal_op_ms",
    ] {
        assert!(
            value(&line, name).parse::<f64>().unwrap() > 0.0,
            "{name} not measured"
        );
    }
    assert_eq!(value(&line, "cfdlang.parse_check_us_per_prog"), "0");
    let text =
        std::fs::read_to_string(out_dir().join("trace-serve_online.json")).expect("the span file");
    runtime::json::validate(&text).unwrap();
    assert!(text.contains("\"name\": \"runtime.serve\""));
    assert!(text.contains("\"name\": \"op.serve\", "));
    let rounds =
        std::fs::read_to_string(out_dir().join("rounds-serve_online.tsv")).expect("the rounds log");
    assert!(rounds.starts_with("round\ttraced\tkind\t"));
    assert!(rounds.lines().count() > 4);
}

#[test]
fn bad_arguments_exit_with_a_usage_error() {
    let out = bench(&["--workload", "no_such_workload"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}
