//! The repo's benchmark: a calibrated, single-threaded layer ledger.
//!
//! ```sh
//! # one run of one workload: end-to-end metrics (`--trace 0`) or
//! # per-layer metrics plus a span file (`--trace 1`)
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve_online --seed 20210907 --seconds 12 --trace 0
//! # steadiness table: every workload N times in two alternating sets
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --repeat 5 --sets 2
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod alloc;
mod cal;
mod harness;
mod host;
mod metrics;
mod repeat;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{run_end_to_end, run_traced, RunResult, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seed used when `--seed` is not given, and by the committed tables.
pub const DEFAULT_SEED: u64 = 20_210_907;
/// A seed never used while the benchmark was written or tuned: a claim
/// made on [`DEFAULT_SEED`] must also hold here.
pub const HELD_OUT_SEED: u64 = 770_413;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 12;
/// Runs per set of the repeat mode when `--repeat` names no count.
const DEFAULT_REPEAT: usize = 5;

pub const WORKLOADS: [&str; 5] = [
    "compile_cold",
    "explore_warm",
    "serve_fleet_backlog",
    "serve_online",
    "serve_execute",
];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where the traced run's span file and rounds log and the explore
    /// workload's cache directory go. Relative to the working directory,
    /// which is the repo root.
    pub out_dir: PathBuf,
    /// `--repeat N`: run the steadiness table instead of one workload.
    pub repeat: Option<usize>,
    pub sets: usize,
}

fn usage() -> String {
    format!(
        "usage: cfdfpga-benchmark --workload <{}> [--seed N] [--seconds N] [--trace 0|1] \
         [--out-dir DIR]\n       cfdfpga-benchmark --repeat [N] [--sets 2] [--workload W] \
         [--seed N] [--seconds N]\n       default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED}",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
        repeat: None,
        sets: 2,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got '{v}'"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.clamp(1, 60),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            // `--repeat` on its own means the default of 5 runs per set.
            "--repeat" => {
                let given = it.peek().and_then(|v| v.parse::<usize>().ok());
                if given.is_some() {
                    it.next();
                }
                args.repeat = Some(given.unwrap_or(DEFAULT_REPEAT).max(2));
            }
            "--sets" => args.sets = number(value()?)?.max(1) as usize,
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    // The repeat mode takes no workload to mean all of them.
    let all = args.repeat.is_some() && args.workload.is_empty();
    if !all && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'\n{}", args.workload, usage()));
    }
    Ok(args)
}

fn run<W: Workload>(args: &Args) -> Result<RunResult, String> {
    if args.trace {
        run_traced::<W>(args)
    } else {
        run_end_to_end::<W>(args)
    }
}

fn run_workload(args: &Args) -> Result<RunResult, String> {
    match args.workload.as_str() {
        "compile_cold" => run::<workloads::compile_cold::CompileCold>(args),
        "explore_warm" => run::<workloads::explore_warm::ExploreWarm>(args),
        "serve_fleet_backlog" => run::<workloads::serve_fleet_backlog::ServeFleetBacklog>(args),
        "serve_online" => run::<workloads::serve_online::ServeOnline>(args),
        "serve_execute" => run::<workloads::serve_execute::ServeExecute>(args),
        other => Err(format!("unknown workload '{other}'")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        return match repeat::run(&args, n) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("repeat mode failed: {e}");
                ExitCode::from(1)
            }
        };
    }
    match run_workload(&args) {
        Ok(result) => {
            let line = result.to_json();
            if let Err(e) = runtime::json::validate(&line) {
                eprintln!("result line is not JSON: {e}");
                return ExitCode::from(1);
            }
            println!("{line}");
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload serve_online --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_online", 9, 3, true)
        );
        assert_eq!(a.out_dir, PathBuf::from("benchmark/out"));
    }

    #[test]
    fn rejects_unknown_workloads_flags_and_values() {
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload serve_online --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve_online --seed x")).is_err());
        assert!(parse_args(&argv("--workload serve_online --bogus")).is_err());
        assert!(parse_args(&argv("--workload")).is_err());
    }

    #[test]
    fn repeat_mode_needs_no_workload() {
        let a = parse_args(&argv("--repeat 7 --sets 2")).unwrap();
        assert_eq!((a.repeat, a.sets), (Some(7), 2));
        let b = parse_args(&argv("--repeat --sets 3 --workload serve_online")).unwrap();
        assert_eq!((b.repeat, b.sets), (Some(DEFAULT_REPEAT), 3));
        assert_eq!(
            parse_args(&argv("--repeat")).unwrap().repeat,
            Some(DEFAULT_REPEAT)
        );
        assert!(parse_args(&argv("--repeat 5 --workload nope")).is_err());
    }
}
