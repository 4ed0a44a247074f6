//! `cfdc` — command-line driver for the CFDlang-to-FPGA flow.
//!
//! ```text
//! cfdc boards
//! cfdc compile  <file.cfd> [--board NAME] [--no-factorize] [--no-sharing]
//!               [--no-decouple] [--no-cross-sharing] [--kernel NAME]
//!               [--emit c|host|ir|dot|report|memory|all] [-o DIR]
//!               [--elements N] [--k K --m M]
//!               [--jobs N] [--cache-dir PATH] [--no-cache] [--json]
//! cfdc cache    stats|clear --cache-dir PATH
//! cfdc simulate <file.cfd> [--board NAME] [--elements N] [--k K] [--m M] [--kernel NAME]
//! cfdc verify   <file.cfd> [--board NAME] [--elements N] [--seed S] [--kernel NAME]
//! cfdc explore  <file.cfd> [--board NAME | --boards all|A,B,..] [--grid]
//!               [--jobs N] [--json] [--elements N]
//! cfdc serve    <file.cfd> [--board NAME] [--requests N] [--arrival closed|poisson]
//!               [--rate R] [--batch auto|off|K] [--no-overlap] [--seed S] [--json]
//!               [--online] [--slo SECS] [--shed DEPTH] [--priority TIERS]
//!               [--fleet all|A,B,..] [--route rr|jsq|predictive]
//! ```
//!
//! Every command targets one platform from the catalog (`cfdc boards`
//! lists it; default ZCU106). `explore` lists feasible replications;
//! with `--grid` it runs the full parallel design-space sweep
//! (k × batch × sharing × decoupling) on the staged pipeline — the
//! frontend and middle end compile once, the per-point backend/system
//! stages fan out over `--jobs` workers. With `--boards all` (or a
//! comma-separated list) it sweeps the **platform × clock × grid**
//! portfolio and reports the Pareto frontier of simulated time vs.
//! resource fit across boards, plus the service frontier (requests/sec
//! vs. p99 latency vs. fit).
//!
//! `serve` runs the batched multi-request runtime: a queue of
//! `--requests` independent invocations of the compiled system is
//! coalesced into hardware rounds (`--batch auto` fills the design's
//! `m`, `--batch K` caps the fill, `--batch off` is the sequential
//! reference), time-multiplexed with double-buffered DMA, and reported
//! as requests/sec, p50/p99 latency and DMA/compute overlap. With
//! `--fleet` the same stream is sharded across a whole board set by a
//! deterministic dispatcher (`--route rr|jsq|predictive`) and reported
//! as fleet-aggregate req/s plus per-board utilization.
//!
//! **Multi-kernel programs** (sources with `kernel name { ... }` blocks)
//! compile as a whole into one shared-memory accelerator system —
//! `compile` prints per-kernel *and* aggregate resource tables,
//! `simulate`/`verify`/`serve` run the chained execution, `explore
//! --grid` sweeps joint design points. `--kernel NAME` instead selects
//! one kernel of the program and compiles it alone. Every command
//! compiles through one function ([`compile_program`]); a single-kernel
//! source is the one-kernel program, and the kernel outputs render its
//! one kernel slot and one-stage system.
//!
//! `<file.cfd>` may be a path or one of the built-in kernels:
//! `helmholtz[:p]`, `interpolation[:n:m]`, `sandwich[:n]`, `axpy[:n]`,
//! or the built-in programs `simstep[:p]`, `axpychain[:n]`.
//!
//! Malformed arguments never panic: every flag value routes through the
//! structured [`CliError`] path (exit code 2 with a one-line
//! diagnosis), mirroring the structured `FlowError::DoesNotFit`
//! introduced for small-board compiles.

use cfd_core::dse::{DseEngine, DseGrid};
use cfd_core::program::{ProgramArtifacts, ProgramFlow, ProgramOptions};
use cfd_core::{
    Arrival, BatchPolicy, CompileCache, FaultPlan, FleetBoard, FleetOptions, FlowError,
    RoutePolicy, RuntimeOptions,
};
use std::process::exit;
use std::sync::Arc;
use sysgen::{Platform, ProgramSystemConfig};
use zynq::SimConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    match args[0].as_str() {
        "compile" => cmd_compile(&args[1..]),
        "simulate" => cmd_simulate(&args[1..]),
        "verify" => cmd_verify(&args[1..]),
        "explore" => cmd_explore(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "boards" => cmd_boards(),
        "cache" => cmd_cache(&args[1..]),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown command '{other}'");
            usage();
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "cfdc — CFDlang-to-FPGA flow\n\n\
         USAGE:\n\
         \tcfdc boards\n\
         \tcfdc compile  <kernel> [--board NAME] [--no-factorize] [--no-sharing] [--no-decouple]\n\
         \t              [--no-cross-sharing] [--kernel NAME] [--emit WHAT] [-o DIR]\n\
         \t              [--elements N] [--k K --m M]\n\
         \t              [--jobs N] [--cache-dir PATH] [--no-cache] [--json]\n\
         \tcfdc cache    stats|clear --cache-dir PATH\n\
         \tcfdc simulate <kernel> [--board NAME] [--elements N] [--k K] [--m M] [--kernel NAME]\n\
         \tcfdc verify   <kernel> [--board NAME] [--elements N] [--seed S] [--kernel NAME]\n\
         \tcfdc explore  <kernel> [--board NAME | --boards all|A,B,..] [--grid] [--jobs N]\n\
         \t              [--json] [--elements N]\n\
         \tcfdc serve    <kernel> [--board NAME] [--requests N] [--arrival closed|poisson]\n\
         \t              [--rate R] [--batch auto|off|K] [--no-overlap] [--seed S] [--json]\n\
         \t              [--faults SEED:SPEC] [--deadline SECS] [--retries N] [--backoff SECS]\n\
         \t              [--online] [--slo SECS] [--shed DEPTH] [--priority TIERS]\n\
         \t              [--fleet all|A,B,..] [--route rr|jsq|predictive]\n\n\
         KERNEL: a .cfd file path, a kernel helmholtz[:p] | interpolation[:n:m] | sandwich[:n] | axpy[:n],\n\
         \tor a multi-kernel program simstep[:p] | axpychain[:n]\n\
         EMIT:   c | host | ir | dot | report | memory | all (default: report)\n\
         BOARD:  a catalog platform (see `cfdc boards`); default zcu106\n\n\
         Multi-kernel sources compile into ONE shared-memory accelerator system;\n\
         --kernel NAME selects a single kernel of the program instead.\n\
         `explore --boards all` sweeps the platform x clock x (k, m) portfolio and\n\
         reports the Pareto frontier (simulated time vs. resource fit) per board.\n\
         `serve` batches a queue of independent requests onto one compiled system\n\
         and reports requests/sec, p50/p99 latency and DMA/compute overlap.\n\
         --faults arms a deterministic fault plan (`7:0.1` = seed 7, 10% transient\n\
         round errors; or `7:transient=0.1,stall=0.05,corrupt=0.01,fail=2e-3,recover=4e-3`);\n\
         --retries/--backoff/--deadline set the recovery policy, and the report\n\
         grows completed/retried/shed/failed counts plus goodput vs offered load.\n\
         --online marks the run as online serving and arms nothing (the schedule\n\
         and report bytes change only when a policy is armed); --slo SECS closes batches\n\
         early when the oldest queued request's p99 budget is at risk and sheds\n\
         structurally hopeless requests, --shed DEPTH bounds the admission queue\n\
         (arrivals beyond it are load-shed), --priority TIERS serves tier 0\n\
         first with preemption at round boundaries (requests cycle tiers by id).\n\
         `serve --fleet` shards ONE request stream across a board set (compiled\n\
         once per platform; boards that cannot fit the program are skipped) and\n\
         reports fleet-aggregate req/s, goodput, p99 and per-board utilization;\n\
         --route picks the dispatcher (rr round-robin | jsq join-shortest-queue |\n\
         predictive via each board's cost model), and --faults arms board 0 only\n\
         so a board outage drains and requeues onto the survivors.\n\
         --cache-dir PATH persists the scheduling-stage products under a content\n\
         hash: a re-compile of unchanged source reports cache hits and emits\n\
         bit-identical output (`cfdc cache stats|clear` inspects the store)."
    );
    exit(2)
}

/// A structured CLI error: every malformed argument routes through this
/// (printed as one line, exit code 2) instead of panicking or being
/// silently ignored.
#[derive(Debug, Clone, PartialEq)]
enum CliError {
    /// No kernel/file argument at all — fall back to the usage text.
    MissingKernel,
    MissingValue {
        flag: String,
    },
    InvalidValue {
        flag: String,
        value: String,
        expected: &'static str,
    },
    UnknownOption(String),
    /// A known option the command never reads.
    NotApplicable {
        flag: String,
        command: &'static str,
    },
    /// `--k` or `--m` without the other.
    Unpaired {
        flag: &'static str,
        partner: &'static str,
    },
    UnknownBoard {
        name: String,
        catalog: Vec<String>,
    },
    UnknownKernel {
        name: String,
        kernels: Vec<String>,
    },
    CannotRead {
        path: String,
        error: String,
    },
    /// The `--cache-dir` location cannot be created, probed for
    /// writability, or enumerated.
    CacheDir {
        path: String,
        error: String,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::MissingKernel => write!(f, "missing kernel argument"),
            CliError::MissingValue { flag } => write!(f, "option '{flag}' needs a value"),
            CliError::InvalidValue {
                flag,
                value,
                expected,
            } => write!(f, "invalid value '{value}' for {flag}: expected {expected}"),
            CliError::UnknownOption(o) => write!(f, "unknown option '{o}'"),
            CliError::NotApplicable { flag, command } => {
                write!(f, "option '{flag}' does not apply to 'cfdc {command}'")
            }
            CliError::Unpaired { flag, partner } => {
                write!(f, "option '{flag}' needs '{partner}' as well")
            }
            CliError::UnknownBoard { name, catalog } => write!(
                f,
                "unknown board '{name}' (catalog: {})",
                catalog.join(", ")
            ),
            CliError::UnknownKernel { name, kernels } => write!(
                f,
                "no kernel '{name}' in program (kernels: {})",
                kernels.join(", ")
            ),
            CliError::CannotRead { path, error } => write!(f, "cannot read '{path}': {error}"),
            CliError::CacheDir { path, error } => {
                write!(f, "cannot use cache directory '{path}': {error}")
            }
        }
    }
}

/// The section kinds `--emit` accepts.
const EMIT_KINDS: [&str; 7] = ["c", "host", "ir", "dot", "report", "memory", "all"];

/// Parse a flag value, naming the flag and the expectation on failure.
fn parse_value<T: std::str::FromStr>(
    flag: &str,
    value: String,
    expected: &'static str,
) -> Result<T, CliError> {
    parse_checked(flag, value, expected, |_| true)
}

/// Parse a value that must also pass `valid`: a malformed and an
/// out-of-range value are the same error.
fn parse_checked<T: std::str::FromStr>(
    flag: &str,
    value: String,
    expected: &'static str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, CliError> {
    match value.parse() {
        Ok(v) if valid(&v) => Ok(v),
        _ => Err(CliError::InvalidValue {
            flag: flag.to_string(),
            value,
            expected,
        }),
    }
}

/// Parse a count that must be at least 1.
fn parse_positive(flag: &str, value: String) -> Result<usize, CliError> {
    parse_checked(flag, value, "a positive integer", |&n| n > 0)
}

/// Consume the value following `args[*i]`.
fn take_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, CliError> {
    *i += 1;
    args.get(*i).cloned().ok_or_else(|| CliError::MissingValue {
        flag: flag.to_string(),
    })
}

fn load_source(spec: &str) -> Result<String, CliError> {
    let mut parts = spec.split(':');
    let head = parts.next().unwrap_or_default();
    let p1 = parts.next();
    let p2 = parts.next();
    let num = |v: Option<&str>, default: usize| -> Result<usize, CliError> {
        match v {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| CliError::InvalidValue {
                flag: format!("kernel parameter of '{head}'"),
                value: s.to_string(),
                expected: "a positive integer",
            }),
        }
    };
    Ok(match head {
        "helmholtz" => cfdlang::examples::inverse_helmholtz(num(p1, 11)?),
        "interpolation" => cfdlang::examples::interpolation(num(p1, 8)?, num(p2, 12)?),
        "sandwich" => cfdlang::examples::matrix_sandwich(num(p1, 8)?),
        "axpy" => cfdlang::examples::axpy(num(p1, 8)?),
        "simstep" => cfdlang::examples::simulation_step(num(p1, 11)?),
        "axpychain" => cfdlang::examples::axpy_chain(num(p1, 8)?),
        _ => std::fs::read_to_string(spec).map_err(|e| CliError::CannotRead {
            path: spec.to_string(),
            error: e.to_string(),
        })?,
    })
}

#[derive(Debug)]
struct Parsed {
    source: String,
    /// Compile options: the flow flags, `--no-cross-sharing`, and the
    /// uniform replication of every kernel from `--k`/`--m` (which
    /// come together or not at all).
    program: ProgramOptions,
    /// Serving options: requests, arrivals, batching, DMA overlap,
    /// seed, faults, recovery and online policy (the seed also drives
    /// `verify`).
    runtime: RuntimeOptions,
    /// Kernel count of the (possibly `--kernel`-reduced) source,
    /// parsed once in `parse_common`.
    kernel_count: usize,
    emit: String,
    out_dir: Option<String>,
    /// Whether --elements was given explicitly (commands pick their own
    /// defaults otherwise); the count itself is `program.flow.elements`.
    elements_set: bool,
    grid: bool,
    json: bool,
    /// On-disk compile-cache directory (`--cache-dir`); compiles run
    /// uncached when absent or when `--no-cache` is given.
    cache_dir: Option<String>,
    no_cache: bool,
    /// Portfolio platforms from `--boards` (explore only).
    boards: Option<Vec<Platform>>,
    /// Fleet platforms from `--fleet` (serve only): shard the request
    /// stream across this board set instead of serving one board.
    fleet: Option<Vec<Platform>>,
    /// Dispatcher routing policy from `--route` (fleet serving).
    route: RoutePolicy,
    /// Every option given, in order (checked against the command by
    /// [`applies`]).
    flags: Vec<String>,
}

impl Parsed {
    /// Whether the source is a multi-kernel program.
    fn is_program(&self) -> bool {
        self.kernel_count > 1
    }

    /// Whether `--emit` selects the section kind `what` (one of
    /// [`EMIT_KINDS`]).
    fn wants(&self, what: &str) -> bool {
        self.emit == what || self.emit == "all"
    }

    /// Build the compile cache requested by `--cache-dir` (none when
    /// absent or disabled with `--no-cache`). An unusable directory is
    /// the structured [`CliError::CacheDir`] — reported once, up front.
    fn cache(&self) -> Result<Option<Arc<CompileCache>>, CliError> {
        match &self.cache_dir {
            Some(dir) if !self.no_cache => CompileCache::with_dir(dir)
                .map(|c| Some(Arc::new(c)))
                .map_err(|e| CliError::CacheDir {
                    path: dir.clone(),
                    error: e.to_string(),
                }),
            _ => Ok(None),
        }
    }
}

fn parse_common(args: &[String]) -> Result<Parsed, CliError> {
    if args.is_empty() {
        return Err(CliError::MissingKernel);
    }
    let mut source = load_source(&args[0])?;
    let mut program = ProgramOptions::default();
    let opts = &mut program.flow;
    let mut runtime = RuntimeOptions::default();
    let mut kernel: Option<String> = None;
    let mut emit = "report".to_string();
    let mut out_dir = None;
    let mut elements_set = false;
    let mut k = None;
    let mut m = None;
    let mut grid = false;
    let mut json = false;
    let mut cache_dir: Option<String> = None;
    let mut no_cache = false;
    let mut board: Option<String> = None;
    let mut boards: Option<Vec<Platform>> = None;
    let mut arrival_spec = "closed".to_string();
    let mut rate: Option<f64> = None;
    let mut fleet: Option<Vec<Platform>> = None;
    let mut route = RoutePolicy::RoundRobin;
    let mut flags = Vec::new();
    let mut i = 1;
    while i < args.len() {
        flags.push(args[i].clone());
        match args[i].as_str() {
            "--no-factorize" => opts.factorize = false,
            "--no-decouple" => opts.decoupled = false,
            "--no-sharing" => opts.memory.sharing = false,
            "--no-cross-sharing" => program.cross_sharing = false,
            "--kernel" => kernel = Some(take_value(args, &mut i, "--kernel")?),
            "--emit" => {
                emit = parse_checked(
                    "--emit",
                    take_value(args, &mut i, "--emit")?,
                    "c | host | ir | dot | report | memory | all",
                    |e: &String| EMIT_KINDS.contains(&e.as_str()),
                )?
            }
            "-o" => out_dir = Some(take_value(args, &mut i, "-o")?),
            "--elements" => {
                opts.elements =
                    parse_positive("--elements", take_value(args, &mut i, "--elements")?)?;
                elements_set = true;
            }
            "--seed" => {
                runtime.seed = parse_value(
                    "--seed",
                    take_value(args, &mut i, "--seed")?,
                    "an unsigned integer",
                )?
            }
            "--k" => k = Some(parse_positive("--k", take_value(args, &mut i, "--k")?)?),
            "--m" => m = Some(parse_positive("--m", take_value(args, &mut i, "--m")?)?),
            "--grid" => grid = true,
            "--board" => board = Some(take_value(args, &mut i, "--board")?),
            "--boards" => {
                let spec = take_value(args, &mut i, "--boards")?;
                boards = Some(if spec == "all" {
                    Platform::catalog()
                } else {
                    spec.split(',')
                        .map(lookup_platform)
                        .collect::<Result<Vec<_>, _>>()?
                });
            }
            // --jobs drives both the compile-stage fan-out and the
            // exploration worker pool.
            "--jobs" => {
                opts.jobs = parse_value(
                    "--jobs",
                    take_value(args, &mut i, "--jobs")?,
                    "a worker count (0 = all cores)",
                )?
            }
            "--json" => json = true,
            "--cache-dir" => cache_dir = Some(take_value(args, &mut i, "--cache-dir")?),
            "--no-cache" => no_cache = true,
            "--requests" => {
                runtime.requests =
                    parse_positive("--requests", take_value(args, &mut i, "--requests")?)?;
            }
            "--arrival" => arrival_spec = take_value(args, &mut i, "--arrival")?,
            "--rate" => {
                rate = Some(parse_value(
                    "--rate",
                    take_value(args, &mut i, "--rate")?,
                    "requests per second (a positive number)",
                )?)
            }
            "--batch" => {
                let spec = take_value(args, &mut i, "--batch")?;
                runtime.batch = BatchPolicy::parse(&spec).map_err(|_| CliError::InvalidValue {
                    flag: "--batch".to_string(),
                    value: spec,
                    expected: "auto | off | a fixed fill K >= 1",
                })?;
            }
            "--no-overlap" => runtime.overlap_dma = false,
            "--faults" => {
                let spec = take_value(args, &mut i, "--faults")?;
                runtime.faults = FaultPlan::parse(&spec).map_err(|_| CliError::InvalidValue {
                    flag: "--faults".to_string(),
                    value: spec,
                    expected:
                        "SEED:RATE, or SEED:transient=..,stall=..,corrupt=..,fail=..,recover=.. \
                               (rates in [0,1], fail/recover in seconds with recover > fail)",
                })?;
            }
            "--deadline" => {
                runtime.recovery.deadline_s = Some(parse_checked(
                    "--deadline",
                    take_value(args, &mut i, "--deadline")?,
                    "a latency budget in seconds",
                    |&d: &f64| d.is_finite() && d > 0.0,
                )?);
            }
            "--retries" => {
                runtime.recovery.max_retries = parse_value(
                    "--retries",
                    take_value(args, &mut i, "--retries")?,
                    "a retry cap (0 = fail on first fault)",
                )?;
            }
            "--backoff" => {
                runtime.recovery.backoff_s = parse_checked(
                    "--backoff",
                    take_value(args, &mut i, "--backoff")?,
                    "a base backoff in seconds",
                    |&b: &f64| b.is_finite() && b >= 0.0,
                )?;
            }
            "--fleet" => {
                let spec = take_value(args, &mut i, "--fleet")?;
                fleet = Some(if spec == "all" {
                    Platform::catalog()
                } else {
                    spec.split(',')
                        .map(lookup_platform)
                        .collect::<Result<Vec<_>, _>>()?
                });
            }
            "--route" => {
                let spec = take_value(args, &mut i, "--route")?;
                route = RoutePolicy::parse(&spec).map_err(|_| CliError::InvalidValue {
                    flag: "--route".to_string(),
                    value: spec,
                    expected: "rr | jsq | predictive",
                })?;
            }
            "--online" => runtime.online.event_loop = true,
            "--slo" => {
                runtime.online.slo_s = Some(parse_checked(
                    "--slo",
                    take_value(args, &mut i, "--slo")?,
                    "a p99 budget in seconds",
                    |&d: &f64| d.is_finite() && d > 0.0,
                )?);
            }
            "--shed" => {
                runtime.online.shed_queue = Some(parse_checked(
                    "--shed",
                    take_value(args, &mut i, "--shed")?,
                    "a queue depth >= 1",
                    |&depth: &usize| depth > 0,
                )?);
            }
            "--priority" => {
                runtime.online.priority_tiers = parse_checked(
                    "--priority",
                    take_value(args, &mut i, "--priority")?,
                    "a tier count >= 1",
                    |&tiers: &u8| tiers > 0,
                )?;
            }
            other => return Err(CliError::UnknownOption(other.to_string())),
        }
        i += 1;
    }
    runtime.arrival =
        Arrival::parse(&arrival_spec, rate.unwrap_or(0.0)).map_err(|_| CliError::InvalidValue {
            flag: "--arrival".to_string(),
            value: arrival_spec.clone(),
            expected: "closed, or poisson with --rate R > 0",
        })?;
    if let Some(name) = &board {
        let platform = lookup_platform(name)?;
        opts.hls.clock_mhz = platform.default_clock_mhz;
        opts.platform = platform;
    }
    let unpaired =
        |flag, partner| -> Result<Parsed, CliError> { Err(CliError::Unpaired { flag, partner }) };
    // A rate only shapes Poisson arrivals; a closed backlog would
    // silently drop it.
    if rate.is_some() && runtime.arrival == Arrival::Closed {
        return unpaired("--rate", "--arrival poisson");
    }
    let replication = match (k, m) {
        (Some(_), None) => return unpaired("--k", "--m"),
        (None, Some(_)) => return unpaired("--m", "--k"),
        (k, m) => k.zip(m),
    };
    // Parse once: program detection, and the --kernel NAME reduction
    // of a program source to one of its kernels. (Parse errors are
    // deferred to the command's own compile for a uniform message.)
    let mut kernel_count = 1;
    if let Ok(set) = cfdlang::parse_set(&source) {
        kernel_count = set.kernels.len();
        if let Some(name) = &kernel {
            match set.find_kernel(name) {
                Some(k) => source = cfdlang::pretty(&k.program),
                None => {
                    return Err(CliError::UnknownKernel {
                        name: name.clone(),
                        kernels: set.kernel_names().iter().map(|s| s.to_string()).collect(),
                    })
                }
            }
            kernel_count = 1;
        }
    }
    program.system = replication.map(|(k, m)| ProgramSystemConfig::uniform(k, m, kernel_count));
    Ok(Parsed {
        source,
        program,
        runtime,
        kernel_count,
        emit,
        out_dir,
        elements_set,
        grid,
        json,
        cache_dir,
        no_cache,
        boards,
        fleet,
        route,
        flags,
    })
}

/// Whether `cfdc command` reads `flag`. Options not named here
/// (`--board`, `--kernel`, `--jobs` and the flow switches) apply to
/// every command.
fn applies(command: &str, flag: &str) -> bool {
    match flag {
        "--emit" | "-o" => command == "compile",
        "--seed" => matches!(command, "verify" | "serve"),
        "--json" => matches!(command, "compile" | "explore" | "serve"),
        "--grid" | "--boards" => command == "explore",
        "--cache-dir" | "--no-cache" | "--k" | "--m" => command != "explore",
        "--elements" => command != "serve",
        "--requests" | "--arrival" | "--rate" | "--batch" | "--no-overlap" | "--faults"
        | "--deadline" | "--retries" | "--backoff" | "--online" | "--slo" | "--shed"
        | "--priority" | "--fleet" | "--route" => command == "serve",
        _ => true,
    }
}

/// Parse the arguments of `cfdc command`, or exit with the structured
/// one-line error (usage text when no kernel was named at all): a
/// malformed argument, or an option the command never reads.
fn parse_or_exit(command: &'static str, args: &[String]) -> Parsed {
    let parsed =
        parse_common(args).and_then(|p| match p.flags.iter().find(|f| !applies(command, f)) {
            Some(flag) => Err(CliError::NotApplicable {
                flag: flag.clone(),
                command,
            }),
            None => Ok(p),
        });
    match parsed {
        Ok(p) => p,
        Err(CliError::MissingKernel) => usage(),
        Err(e) => {
            eprintln!("error: {e}");
            exit(2)
        }
    }
}

/// Resolve a `--board`/`--boards` name against the platform catalog.
fn lookup_platform(name: &str) -> Result<Platform, CliError> {
    Platform::by_name(name).ok_or_else(|| CliError::UnknownBoard {
        name: name.to_string(),
        catalog: Platform::catalog().into_iter().map(|p| p.id).collect(),
    })
}

/// `cfdc boards`: the platform catalog.
fn cmd_boards() {
    println!("platform catalog (use with --board / --boards):");
    println!(
        "  id          board                       LUT        FF    DSP  BRAM36  host CPU                fabric clocks (MHz)"
    );
    for p in Platform::catalog() {
        let clocks: Vec<String> = p
            .clock_ladder_mhz
            .iter()
            .map(|c| {
                if (*c - p.default_clock_mhz).abs() < 1e-9 {
                    format!("[{c:.0}]")
                } else {
                    format!("{c:.0}")
                }
            })
            .collect();
        println!(
            "  {:<10}  {:<22}  {:>9}  {:>8}  {:>5}  {:>6}  {:<22}  {}",
            p.id,
            p.board.name,
            p.board.luts,
            p.board.ffs,
            p.board.dsps,
            p.board.brams,
            format!("{} @ {:.2} GHz", p.host.name, p.host.hz / 1e9),
            clocks.join(" "),
        );
    }
    println!("  (default clock bracketed; default board: zcu106)");
}

/// Build the `--cache-dir` cache or exit with the structured error.
fn cache_or_exit(p: &Parsed) -> Option<Arc<CompileCache>> {
    p.cache().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(2)
    })
}

/// One-line cache summary on stderr — stdout stays bit-identical
/// between cold and warm runs, which the CI cache-smoke job checks.
fn report_cache(t: &cfd_core::StageTimings, enabled: bool) {
    if enabled {
        let c = &t.cache;
        eprintln!(
            "compile cache: {} memory hits, {} disk hits, {} misses, {} stored, {} invalidated",
            c.hits, c.disk_hits, c.misses, c.stores, c.invalidations
        );
    }
}

/// The `--json` compile summary: stage timings plus cache and
/// polyhedra-oracle counters.
fn timings_json(kernels: usize, t: &cfd_core::StageTimings) -> String {
    format!(
        "{{\n  \"kernels\": {},\n  \"timings_s\": {{\"frontend\": {:.6}, \"middle_end\": {:.6}, \
         \"schedule\": {:.6}, \"link\": {:.6}, \"backend\": {:.6}, \"system\": {:.6}, \"total\": {:.6}}},\n  \
         \"compile_cache\": {{\"hits\": {}, \"disk_hits\": {}, \"misses\": {}, \"stores\": {}, \"invalidations\": {}}},\n  \
         \"polyhedra\": {}\n}}",
        kernels,
        t.frontend_s,
        t.middle_end_s,
        t.schedule_s,
        t.link_s,
        t.backend_s,
        t.system_s,
        t.total_s(),
        t.cache.hits,
        t.cache.disk_hits,
        t.cache.misses,
        t.cache.stores,
        t.cache.invalidations,
        t.oracle.json(),
    )
}

/// The one compile of every command: the source as a (possibly
/// one-kernel) program under `opts`, through `cache` when given.
fn compile_program(
    p: &Parsed,
    opts: &ProgramOptions,
    cache: Option<Arc<CompileCache>>,
) -> Result<ProgramArtifacts, FlowError> {
    match cache {
        Some(c) => ProgramFlow::compile_cached(&p.source, opts, c),
        None => ProgramFlow::compile(&p.source, opts),
    }
}

/// [`compile_program`] of the command line's options through the
/// `--cache-dir` cache (its counters on stderr), or exit 1 with the
/// compile error.
fn compile_or_exit(p: &Parsed) -> ProgramArtifacts {
    let cache = cache_or_exit(p);
    let cached = cache.is_some();
    let art = compile_program(p, &p.program, cache).unwrap_or_else(|e| {
        eprintln!("compilation failed: {e}");
        exit(1)
    });
    report_cache(&art.timings, cached);
    art
}

/// `cfdc cache stats|clear --cache-dir PATH`: inspect or empty the
/// on-disk compile cache without running a compile.
fn cmd_cache(args: &[String]) {
    let err = |e: CliError| -> ! {
        eprintln!("error: {e}");
        exit(2)
    };
    let sub = match args.first().map(String::as_str) {
        Some(s @ ("stats" | "clear")) => s,
        Some(other) => err(CliError::InvalidValue {
            flag: "cache".to_string(),
            value: other.to_string(),
            expected: "stats | clear",
        }),
        None => err(CliError::InvalidValue {
            flag: "cache".to_string(),
            value: String::new(),
            expected: "stats | clear",
        }),
    };
    let mut dir: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--cache-dir" => {
                dir = Some(take_value(args, &mut i, "--cache-dir").unwrap_or_else(|e| err(e)))
            }
            other => err(CliError::UnknownOption(other.to_string())),
        }
        i += 1;
    }
    let dir = dir.unwrap_or_else(|| {
        err(CliError::MissingValue {
            flag: "--cache-dir".to_string(),
        })
    });
    let path = std::path::Path::new(&dir);
    let cache_err = |e: std::io::Error| -> ! {
        err(CliError::CacheDir {
            path: dir.clone(),
            error: e.to_string(),
        })
    };
    match sub {
        "stats" => {
            let (entries, bytes) = CompileCache::disk_stats(path).unwrap_or_else(|e| cache_err(e));
            println!("cache at {dir}: {entries} entries, {bytes} bytes");
        }
        "clear" => {
            let removed = CompileCache::clear_disk(path).unwrap_or_else(|e| cache_err(e));
            println!("cache at {dir}: removed {removed} entries");
        }
        _ => unreachable!(),
    }
}

/// Per-kernel + aggregate resource tables of a compiled program.
fn program_report(art: &ProgramArtifacts) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "program: {} kernels, {} handoffs, cross-kernel PLM edges: {}\n",
        art.kernel_count(),
        art.cross.handoffs.len(),
        art.memory_plan.cross_edges,
    ));
    s.push_str("  kernel                  latency(cyc)      LUT      FF   DSP  PLM-BRAM(alone)\n");
    for (name, a) in art.names.iter().zip(&art.kernels) {
        s.push_str(&format!(
            "  {:<22} {:>13}  {:>7}  {:>6}  {:>4}  {:>15}\n",
            name,
            a.hls_report.latency_cycles,
            a.hls_report.luts,
            a.hls_report.ffs,
            a.hls_report.dsps,
            a.memory.brams,
        ));
    }
    s.push_str(&format!(
        "  shared PLM set: {} BRAMs ({} if concatenated) in {} units\n",
        art.memory.brams,
        art.per_kernel_plm_brams(),
        art.memory.units.len(),
    ));
    let routing = if art.options.cross_sharing {
        "in-fabric"
    } else {
        "host-mediated copy"
    };
    for h in &art.cross.handoffs {
        s.push_str(&format!(
            "  handoff: {} --{}--> {} ({} words, {routing})\n",
            art.names[h.from], h.name, art.names[h.to], h.words
        ));
    }
    match &art.system {
        Some(sys) => {
            let ks: Vec<String> = sys.config.ks.iter().map(|k| k.to_string()).collect();
            s.push_str(&format!(
                "aggregate system: k=[{}] m={} | {} LUT {} FF {} DSP {} BRAM\n",
                ks.join(","),
                sys.config.m,
                sys.luts,
                sys.ffs,
                sys.dsps,
                sys.brams
            ));
            let (l, f, d, b) = sys.slack();
            s.push_str(&format!(
                "slack vs {}: {} LUT {} FF {} DSP {} BRAM\n",
                sys.board().name,
                l,
                f,
                d,
                b
            ));
        }
        None => s.push_str("aggregate system: no feasible configuration\n"),
    }
    s
}

fn cmd_compile(args: &[String]) {
    let p = parse_or_exit("compile", args);
    let art = compile_or_exit(&p);
    let sections = if p.is_program() {
        program_sections(&p, &art)
    } else {
        kernel_sections(&p, &art)
    };
    write_sections(&p, &sections);
    if p.json {
        println!("{}", timings_json(art.kernel_count(), &art.timings));
    }
}

/// The `--emit` sections of a kernel compile: its one kernel slot, and
/// the one-stage system's `host.c`.
fn kernel_sections(p: &Parsed, art: &ProgramArtifacts) -> Vec<(String, String)> {
    let kernel = &art.kernels[0];
    let mut sections: Vec<(String, String)> = Vec::new();
    if p.wants("ir") {
        sections.push(("kernel.ir".into(), kernel.module.to_string()));
    }
    if p.wants("c") {
        sections.push(("kernel.c".into(), kernel.c_source.clone()));
    }
    if p.wants("host") {
        host_sections(art, &mut sections);
    }
    if p.wants("dot") {
        sections.push(("compat.dot".into(), kernel.compat.to_dot()));
    }
    if p.wants("memory") {
        let mut s = memory_units(&kernel.memory);
        s.push_str(&format!("total {} BRAMs\n", kernel.memory.brams));
        sections.push(("memory.txt".into(), s));
    }
    if p.wants("report") {
        let mut s = kernel.hls_report.to_string();
        if let Some(sys) = &art.system {
            s.push_str(&format!(
                "\nsystem: k={} m={} | {} LUT {} FF {} DSP {} BRAM\n",
                sys.config.ks[0], sys.config.m, sys.luts, sys.ffs, sys.dsps, sys.brams
            ));
        }
        sections.push(("report.txt".into(), s));
    }
    sections
}

/// The `--emit` sections of a multi-kernel program compile.
fn program_sections(p: &Parsed, art: &ProgramArtifacts) -> Vec<(String, String)> {
    let mut sections: Vec<(String, String)> = Vec::new();
    if p.wants("ir") {
        for (name, a) in art.names.iter().zip(&art.kernels) {
            sections.push((format!("{name}.ir"), a.module.to_string()));
        }
    }
    if p.wants("c") {
        // Program-unique symbols (`<stage>_body`) so the emitted
        // sources link into one system.
        for (i, name) in art.names.iter().enumerate() {
            sections.push((format!("{name}.c"), art.stage_c_source(i)));
        }
    }
    if p.wants("host") {
        host_sections(art, &mut sections);
    }
    if p.wants("dot") {
        for (name, a) in art.names.iter().zip(&art.kernels) {
            sections.push((format!("{name}.compat.dot"), a.compat.to_dot()));
        }
    }
    if p.wants("memory") {
        let mut s = memory_units(&art.memory);
        s.push_str(&format!(
            "total {} BRAMs ({} cross-kernel units)\n",
            art.memory.brams,
            art.memory_plan.cross_kernel_units(&art.memory)
        ));
        sections.push(("memory.txt".into(), s));
    }
    if p.wants("report") {
        sections.push(("report.txt".into(), program_report(art)));
    }
    sections
}

/// The `--emit host` sections: `host.c` and the fixed `cfd_driver.h` it
/// includes.
fn host_sections(art: &ProgramArtifacts, sections: &mut Vec<(String, String)>) {
    sections.push(("host.c".into(), art.host_source.clone()));
    sections.push(("cfd_driver.h".into(), sysgen::CFD_DRIVER_H.into()));
}

/// One line per PLM unit of `memory`, as `--emit memory` prints them.
fn memory_units(memory: &mnemosyne::MemorySubsystem) -> String {
    let mut s = String::new();
    for u in &memory.units {
        s.push_str(&format!(
            "{}: {} words, {} BRAM36, {}R{}W, members {:?}\n",
            u.name, u.words, u.brams, u.read_ports, u.write_ports, u.members
        ));
    }
    s
}

/// Write each `(name, content)` section to `-o DIR/name`, or print it
/// under a `=== name ===` header.
fn write_sections(p: &Parsed, sections: &[(String, String)]) {
    let Some(dir) = &p.out_dir else {
        for (name, content) in sections {
            println!("=== {name} ===\n{content}");
        }
        return;
    };
    std::fs::create_dir_all(dir).unwrap_or_else(|e| {
        eprintln!("cannot create '{dir}': {e}");
        exit(1)
    });
    for (name, content) in sections {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, content).unwrap_or_else(|e| {
            eprintln!("cannot write '{path}': {e}");
            exit(1)
        });
        println!("wrote {path}");
    }
}

fn cmd_simulate(args: &[String]) {
    let p = parse_or_exit("simulate", args);
    let art = compile_or_exit(&p);
    let elements = p.program.flow.elements;
    if art.system.is_none() && !p.is_program() {
        eprintln!("simulation failed: no feasible system configuration");
        exit(1);
    }
    let r = art
        .simulate(&SimConfig {
            elements,
            ..Default::default()
        })
        .unwrap_or_else(|e| {
            eprintln!("simulation failed: {e}");
            exit(1)
        });
    if p.is_program() {
        let ks: Vec<String> = r.ks.iter().map(|k| k.to_string()).collect();
        println!(
            "program k=[{}] m={} | {} elements in {} rounds",
            ks.join(","),
            r.m,
            r.elements,
            r.rounds
        );
        for (name, exec) in art.names.iter().zip(&r.stage_exec_s) {
            println!("  stage {name}: exec {exec:.4} s");
        }
    } else {
        println!(
            "k={} m={} | {} elements in {} rounds",
            r.ks[0], r.m, r.elements, r.rounds
        );
    }
    println!(
        "exec {:.4} s | transfers {:.4} s | total {:.4} s ({:.2} ms/element)",
        r.exec_s,
        r.transfer_s,
        r.total_s,
        r.total_per_element_s() * 1e3
    );
    if !p.is_program() {
        let (sw_ref, sw_hls) = art.kernels[0].sw_times(elements).unwrap();
        println!(
            "ARM A53: reference {:.4} s, HLS-style code {:.4} s -> HW speedup {:.2}x",
            sw_ref.total_s,
            sw_hls.total_s,
            sw_ref.total_s / r.total_s
        );
    }
}

fn cmd_verify(args: &[String]) {
    let mut p = parse_or_exit("verify", args);
    if !p.elements_set {
        p.program.flow.elements = 8; // verification default: a sample, not the full run
    }
    let art = compile_or_exit(&p);
    let v = art
        .verify(p.program.flow.elements, p.runtime.seed)
        .unwrap_or_else(|e| {
            eprintln!("verification failed: {e}");
            exit(1)
        });
    if p.is_program() {
        println!(
            "verified {} chained elements ({} kernels): bitexact={}, max_rel_diff={:.3e}",
            v.elements,
            art.kernel_count(),
            v.bitexact,
            v.max_rel_diff
        );
    } else {
        println!(
            "verified {} elements: bitexact={}, max_rel_diff={:.3e}",
            v.elements, v.bitexact, v.max_rel_diff
        );
    }
    if !v.bitexact {
        exit(1);
    }
}

/// `cfdc serve`: batched multi-request runtime on the compiled system.
/// Single-kernel sources serve as the degenerate one-kernel program.
fn cmd_serve(args: &[String]) {
    let p = parse_or_exit("serve", args);
    if p.fleet.is_some() {
        return cmd_serve_fleet(&p);
    }
    let art = compile_or_exit(&p);
    let opts = &p.runtime;
    let out = art.serve(opts).unwrap_or_else(|e| {
        eprintln!("serving failed: {e}");
        exit(1)
    });
    if p.json {
        println!("{}", out.report.to_json());
        return;
    }
    print!("{}", out.report.render_table());
    // With --batch off the run IS the sequential baseline — comparing it
    // against itself would just print a meaningless 1.00x.
    if opts.batch == BatchPolicy::Disabled {
        return;
    }
    let seq = art.serve_sequential_baseline(opts).unwrap_or_else(|e| {
        eprintln!("serving failed: {e}");
        exit(1)
    });
    println!(
        "sequential baseline: {:.1} req/s -> batching speedup {:.2}x",
        seq.throughput_rps,
        out.report.throughput_rps / seq.throughput_rps
    );
}

/// `cfdc serve --fleet`: shard the request stream across a board set.
/// The program is compiled once per distinct platform; boards the
/// program cannot target are skipped with a warning (a compile error
/// there is not fatal; it is fatal only when no board remains). `--faults` arms
/// board 0 only, so an outage always leaves survivors to requeue onto.
fn cmd_serve_fleet(p: &Parsed) {
    let platforms = p.fleet.as_ref().expect("fleet platforms");
    // One compile per distinct platform id — repeated boards share it.
    let mut compiled: Vec<(String, Result<ProgramArtifacts, String>)> = Vec::new();
    for platform in platforms {
        if !compiled.iter().any(|(id, _)| *id == platform.id) {
            // The platform and its default clock override `--board`.
            let mut opts = p.program.clone();
            opts.flow.platform = platform.clone();
            opts.flow.hls.clock_mhz = platform.default_clock_mhz;
            let art = compile_program(p, &opts, cache_or_exit(p)).map_err(|e| e.to_string());
            compiled.push((platform.id.clone(), art));
        }
    }
    let art_for = |id: &str| &compiled.iter().find(|(cid, _)| cid == id).unwrap().1;
    // Board list in catalog order, with repeats of one platform named
    // id#2, id#3, ... and --faults armed on the first board only.
    let mut boards: Vec<FleetBoard> = Vec::new();
    let mut reference: Option<&ProgramArtifacts> = None;
    for platform in platforms {
        let art = match art_for(&platform.id) {
            Ok(art) => art,
            Err(e) => {
                eprintln!("warning: skipping {}: {e}", platform.id);
                continue;
            }
        };
        let Some(design) = art.system.clone() else {
            eprintln!(
                "warning: skipping {}: program has no system design for this board",
                platform.id
            );
            continue;
        };
        reference.get_or_insert(art);
        let mut board = FleetBoard::healthy(design);
        let repeats = boards
            .iter()
            .filter(|b| b.name.starts_with(&board.name))
            .count();
        if repeats > 0 {
            board.name = format!("{}#{}", board.name, repeats + 1);
        }
        if boards.is_empty() {
            board.faults = p.runtime.faults.clone();
        }
        boards.push(board);
    }
    let Some(art) = reference else {
        eprintln!("no fleet board fits the program");
        exit(1)
    };
    let fopts = FleetOptions {
        route: p.route,
        parallel: true,
        base: p.runtime.clone(),
    };
    let out = art.serve_fleet(&boards, &fopts).unwrap_or_else(|e| {
        eprintln!("fleet serving failed: {e}");
        exit(1)
    });
    if p.json {
        println!("{}", out.report.to_json());
        return;
    }
    print!("{}", out.report.render_table());
}

fn cmd_explore(args: &[String]) {
    let p = parse_or_exit("explore", args);
    if p.boards.is_none() && !p.grid {
        return explore_listing(&p);
    }
    let engine = DseEngine::prepare(&p.source, &p.program).unwrap_or_else(|e| {
        eprintln!("compilation failed: {e}");
        exit(1)
    });
    // Sweep default: small enough to keep the simulations quick.
    let elements = if p.elements_set {
        p.program.flow.elements
    } else {
        10_000
    };
    if let Some(platforms) = &p.boards {
        let report = engine.run_portfolio(
            platforms,
            &DseGrid::default(),
            p.program.flow.jobs,
            elements,
        );
        exit_on_overflow(report.ticks_overflows, elements);
        return print_portfolio(&report, p.json);
    }
    let report = engine.run(&DseGrid::default(), p.program.flow.jobs, elements);
    exit_on_overflow(report.ticks_overflows, elements);
    if p.json {
        println!("{}", report.to_json());
        return;
    }
    print!("{}", report.render_table());
    if let Some(best) = report.best() {
        let program = if p.is_program() {
            format!(", program {}", best.kernel)
        } else {
            String::new()
        };
        println!(
            "best: {} ({:.0} elements/s{program})",
            best.point.label(),
            best.throughput_eps
        );
    }
}

/// Exit 1 with [`FlowError::TicksOverflow`]'s line when `overflows`
/// rows of a sweep over `elements` elements ran past the simulator's
/// clock: a printed time would be wrong.
fn exit_on_overflow(overflows: usize, elements: usize) {
    if overflows > 0 {
        eprintln!(
            "exploration failed: {}",
            FlowError::TicksOverflow { elements }
        );
        exit(1)
    }
}

/// Render a portfolio sweep (table or JSON) with its Pareto frontier.
fn print_portfolio(report: &cfd_core::dse::PortfolioReport, json: bool) {
    if json {
        println!("{}", report.to_json());
        return;
    }
    print!("{}", report.render_table());
    let frontier = report.pareto_frontier();
    println!("pareto frontier ({} points):", frontier.len());
    for o in frontier {
        println!(
            "  {} @ {:.0} MHz: k={} m={} -> {:.4} s ({:.0} el/s) at {:.1}% fit",
            o.platform,
            o.clock_mhz,
            o.outcome.point.k,
            o.outcome.point.m,
            o.outcome.total_s,
            o.outcome.throughput_eps,
            o.utilization * 100.0
        );
    }
    let service = report.service_frontier();
    println!("service frontier ({} points):", service.len());
    for o in service {
        println!(
            "  {} @ {:.0} MHz: k={} m={} -> {:.0} req/s at p99 {:.4} s, {:.1}% fit",
            o.platform,
            o.clock_mhz,
            o.outcome.point.k,
            o.outcome.point.m,
            o.outcome.service_rps,
            o.outcome.service_p99_s,
            o.utilization * 100.0
        );
    }
    let cost = report.cost_frontier();
    println!("cost-efficiency frontier ({} points):", cost.len());
    for (o, per_kluts) in cost {
        println!(
            "  {} @ {:.0} MHz: k={} m={} -> {:.0} req/s, {:.1} req/s per kLUT ({} LUTs)",
            o.platform,
            o.clock_mhz,
            o.outcome.point.k,
            o.outcome.point.m,
            o.outcome.service_rps,
            per_kluts,
            o.outcome.luts
        );
    }
}

/// The feasibility listing: compile the (one-kernel) program once, then
/// list every uniform replication Eq. (3) admits on the board
/// ([`sysgen::enumerate_program_designs`]). `--k`/`--m` do not apply.
fn explore_listing(p: &Parsed) {
    let opts = ProgramOptions {
        system: None,
        ..p.program.clone()
    };
    let art = compile_program(p, &opts, None).unwrap_or_else(|e| {
        eprintln!("compilation failed: {e}");
        exit(1)
    });
    let stages: Vec<(String, hls::HlsReport)> = art
        .names
        .iter()
        .zip(&art.kernels)
        .map(|(n, a)| (n.clone(), a.hls_report.clone()))
        .collect();
    let platform = &p.program.flow.platform;
    let designs = sysgen::enumerate_program_designs(platform, &stages, &art.memory);
    if p.is_program() {
        print!("{}", program_report(&art));
        println!(
            "feasible uniform configurations on {}:",
            platform.board.name
        );
        println!("   k    m     LUT   BRAM");
        for d in &designs {
            println!(
                "  {:>2}  {:>3}  {:>6}  {:>5}",
                d.config.ks[0], d.config.m, d.luts, d.brams
            );
        }
        return;
    }
    let kernel = &art.kernels[0];
    println!(
        "kernel: {} LUT {} FF {} DSP | PLM {} BRAM",
        kernel.hls_report.luts, kernel.hls_report.ffs, kernel.hls_report.dsps, kernel.memory.brams
    );
    println!("feasible configurations on {}:", platform.board.name);
    println!("   k    m  batch     LUT   BRAM   slack(BRAM)");
    for d in &designs {
        let (_, _, _, slack_brams) = d.slack();
        println!(
            "  {:>2}  {:>3}  {:>4}   {:>6}  {:>5}   {:>6}",
            d.config.ks[0],
            d.config.m,
            d.config.batch(0),
            d.luts,
            d.brams,
            slack_brams
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn malformed_numeric_flag_values_are_structured_errors() {
        for (flag, bad) in [
            ("--k", "x"),
            ("--m", "2.5"),
            ("--elements", "lots"),
            ("--elements", "0"),
            ("--k", "0"),
            ("--m", "0"),
            ("--jobs", "-1"),
            ("--seed", "0x2a"),
            ("--requests", "many"),
            ("--requests", "0"),
            ("--rate", "fast"),
        ] {
            let e = parse_common(&args(&["axpy:2", flag, bad])).unwrap_err();
            match &e {
                CliError::InvalidValue { flag: f, value, .. } => {
                    assert_eq!(f, flag);
                    assert_eq!(value, bad);
                }
                other => panic!("{flag} {bad}: expected InvalidValue, got {other:?}"),
            }
            // And the rendered message names the flag and the value.
            let msg = e.to_string();
            assert!(msg.contains(flag) && msg.contains(bad), "{msg}");
        }
    }

    #[test]
    fn k_without_m_is_a_structured_error() {
        let e = parse_common(&args(&["helmholtz:5", "--k", "4"])).unwrap_err();
        assert_eq!(
            e,
            CliError::Unpaired {
                flag: "--k",
                partner: "--m"
            }
        );
        assert_eq!(e.to_string(), "option '--k' needs '--m' as well");
        let p = parse_common(&args(&["helmholtz:5", "--k", "2", "--m", "8"])).unwrap();
        assert_eq!(
            p.program.system,
            Some(ProgramSystemConfig::uniform(2, 8, 1))
        );
    }

    #[test]
    fn m_without_k_is_a_structured_error() {
        let e = parse_common(&args(&["helmholtz:5", "--m", "8"])).unwrap_err();
        assert_eq!(
            e,
            CliError::Unpaired {
                flag: "--m",
                partner: "--k"
            }
        );
        assert_eq!(e.to_string(), "option '--m' needs '--k' as well");
    }

    #[test]
    fn missing_value_at_end_of_args_is_reported() {
        for flag in [
            "--k",
            "--elements",
            "--boards",
            "--batch",
            "--emit",
            "--cache-dir",
            "--fleet",
            "--route",
        ] {
            let e = parse_common(&args(&["axpy:2", flag])).unwrap_err();
            assert_eq!(
                e,
                CliError::MissingValue {
                    flag: flag.to_string()
                }
            );
        }
    }

    #[test]
    fn unknown_options_and_boards_are_reported() {
        assert!(matches!(
            parse_common(&args(&["axpy:2", "--grids"])).unwrap_err(),
            CliError::UnknownOption(o) if o == "--grids"
        ));
        let e = parse_common(&args(&["axpy:2", "--board", "zcu9999"])).unwrap_err();
        match e {
            CliError::UnknownBoard { name, catalog } => {
                assert_eq!(name, "zcu9999");
                assert!(catalog.iter().any(|c| c == "zcu106"));
            }
            other => panic!("expected UnknownBoard, got {other:?}"),
        }
        // A malformed entry inside a --boards list fails the same way.
        let e = parse_common(&args(&["axpy:2", "--boards", "zcu106,bogus"])).unwrap_err();
        assert!(matches!(e, CliError::UnknownBoard { name, .. } if name == "bogus"));
    }

    #[test]
    fn malformed_builtin_kernel_parameters_are_reported() {
        let e = parse_common(&args(&["helmholtz:eleven"])).unwrap_err();
        assert!(
            matches!(&e, CliError::InvalidValue { value, .. } if value == "eleven"),
            "{e:?}"
        );
        let e = parse_common(&args(&["interpolation:4:big"])).unwrap_err();
        assert!(matches!(&e, CliError::InvalidValue { value, .. } if value == "big"));
    }

    #[test]
    fn serve_flags_validate_policy_and_arrival() {
        let e = parse_common(&args(&["axpy:2", "--batch", "wat"])).unwrap_err();
        assert!(matches!(&e, CliError::InvalidValue { flag, .. } if flag == "--batch"));
        let e = parse_common(&args(&["axpy:2", "--batch", "0"])).unwrap_err();
        assert!(matches!(&e, CliError::InvalidValue { flag, .. } if flag == "--batch"));
        let e = parse_common(&args(&["axpy:2", "--arrival", "burst"])).unwrap_err();
        assert!(matches!(&e, CliError::InvalidValue { flag, .. } if flag == "--arrival"));
        // Poisson without a positive --rate is rejected up front.
        let e = parse_common(&args(&["axpy:2", "--arrival", "poisson"])).unwrap_err();
        assert!(matches!(&e, CliError::InvalidValue { flag, .. } if flag == "--arrival"));
        // A rate without Poisson arrivals would be silently ignored.
        for closed in [
            &["axpy:2", "--rate", "50"][..],
            &["axpy:2", "--arrival", "closed", "--rate", "50"],
        ] {
            let e = parse_common(&args(closed)).unwrap_err();
            assert_eq!(
                e.to_string(),
                "option '--rate' needs '--arrival poisson' as well"
            );
        }
        let p = parse_common(&args(&[
            "axpy:2",
            "--arrival",
            "poisson",
            "--rate",
            "50",
            "--batch",
            "4",
        ]))
        .unwrap();
        assert_eq!(p.runtime.arrival, Arrival::Poisson { rate_rps: 50.0 });
        assert_eq!(p.runtime.batch, BatchPolicy::Fixed(4));
    }

    #[test]
    fn fleet_flags_parse_boards_and_routing_policy() {
        // Defaults: no fleet, round-robin routing.
        let p = parse_common(&args(&["axpy:2"])).unwrap();
        assert!(p.fleet.is_none());
        assert_eq!(p.route, RoutePolicy::RoundRobin);
        // --fleet all expands to the whole catalog.
        let p = parse_common(&args(&["axpy:2", "--fleet", "all"])).unwrap();
        assert_eq!(p.fleet.as_ref().unwrap().len(), Platform::catalog().len());
        // A comma-separated list resolves each name (repeats allowed).
        let p = parse_common(&args(&[
            "axpy:2",
            "--fleet",
            "zcu106,pynq-z2,zcu106",
            "--route",
            "predictive",
        ]))
        .unwrap();
        let ids: Vec<&str> = p
            .fleet
            .as_ref()
            .unwrap()
            .iter()
            .map(|pl| pl.id.as_str())
            .collect();
        assert_eq!(ids, ["zcu106", "pynq-z2", "zcu106"]);
        assert_eq!(p.route, RoutePolicy::Predictive);
        // jsq parses; unknown policies and boards are structured errors.
        let p = parse_common(&args(&["axpy:2", "--fleet", "all", "--route", "jsq"])).unwrap();
        assert_eq!(p.route, RoutePolicy::ShortestQueue);
        let e = parse_common(&args(&["axpy:2", "--route", "fastest"])).unwrap_err();
        assert!(matches!(
            &e,
            CliError::InvalidValue { flag, value, .. }
                if flag == "--route" && value == "fastest"
        ));
        let e = parse_common(&args(&["axpy:2", "--fleet", "zcu106,nope"])).unwrap_err();
        assert!(matches!(&e, CliError::UnknownBoard { name, .. } if name == "nope"));
    }

    #[test]
    fn fault_flags_parse_and_reach_the_runtime_options() {
        let p = parse_common(&args(&[
            "axpychain:3",
            "--faults",
            "7:transient=0.1,corrupt=0.05",
            "--retries",
            "5",
            "--backoff",
            "0.002",
            "--deadline",
            "0.5",
        ]))
        .unwrap();
        let opts = &p.runtime;
        assert!(opts.faults.armed());
        assert_eq!(opts.faults.label(), "seed=7,transient=0.1,corrupt=0.05");
        assert_eq!(opts.recovery.max_retries, 5);
        assert_eq!(opts.recovery.backoff_s, 0.002);
        assert_eq!(opts.recovery.deadline_s, Some(0.5));
        // Bare-rate shorthand: SEED:RATE arms transient errors only.
        let p = parse_common(&args(&["axpy:2", "--faults", "3:0.25"])).unwrap();
        assert_eq!(p.runtime.faults, FaultPlan::transient(3, 0.25));
        // Defaults: no plan, stock policy.
        let p = parse_common(&args(&["axpy:2"])).unwrap();
        assert_eq!(p.runtime, RuntimeOptions::default());
    }

    #[test]
    fn malformed_fault_flags_are_structured_errors() {
        for (flag, bad) in [
            ("--faults", "nocolon"),
            ("--faults", "x:0.1"),
            ("--faults", "7:1.5"),
            ("--faults", "7:transient=-0.1"),
            ("--faults", "7:wat=1"),
            ("--faults", "7:fail=2e-3,recover=1e-3"),
            ("--deadline", "0"),
            ("--deadline", "-1"),
            ("--deadline", "inf"),
            ("--deadline", "soon"),
            ("--retries", "-2"),
            ("--retries", "few"),
            ("--backoff", "-0.1"),
            ("--backoff", "NaN"),
        ] {
            let e = parse_common(&args(&["axpy:2", flag, bad])).unwrap_err();
            match &e {
                CliError::InvalidValue { flag: f, value, .. } => {
                    assert_eq!(f, flag);
                    assert_eq!(value, bad);
                }
                other => panic!("{flag} {bad}: expected InvalidValue, got {other:?}"),
            }
        }
        for flag in ["--faults", "--deadline", "--retries", "--backoff"] {
            let e = parse_common(&args(&["axpy:2", flag])).unwrap_err();
            assert_eq!(
                e,
                CliError::MissingValue {
                    flag: flag.to_string()
                }
            );
        }
    }

    #[test]
    fn unknown_program_kernel_selection_is_reported() {
        let e = parse_common(&args(&["axpychain:3", "--kernel", "nope"])).unwrap_err();
        match e {
            CliError::UnknownKernel { name, kernels } => {
                assert_eq!(name, "nope");
                assert_eq!(kernels, vec!["axpy_scale", "axpy_update"]);
            }
            other => panic!("expected UnknownKernel, got {other:?}"),
        }
    }

    #[test]
    fn unreadable_paths_are_reported_not_panicked() {
        let e = parse_common(&args(&["/nonexistent/kernel.cfd"])).unwrap_err();
        assert!(matches!(&e, CliError::CannotRead { path, .. } if path.contains("nonexistent")));
    }

    #[test]
    fn unusable_cache_dir_is_a_structured_error() {
        // A path under a file can never become a directory.
        let p = parse_common(&args(&["axpy:2", "--cache-dir", "/dev/null/sub"])).unwrap();
        let e = p.cache().unwrap_err();
        match &e {
            CliError::CacheDir { path, .. } => assert_eq!(path, "/dev/null/sub"),
            other => panic!("expected CacheDir, got {other:?}"),
        }
        assert!(e.to_string().contains("/dev/null/sub"));
        // --no-cache disables the cache even when a directory is named.
        let p = parse_common(&args(&[
            "axpy:2",
            "--cache-dir",
            "/dev/null/sub",
            "--no-cache",
        ]))
        .unwrap();
        assert!(p.cache().unwrap().is_none());
        // And no --cache-dir means no cache at all.
        let p = parse_common(&args(&["axpy:2"])).unwrap();
        assert!(p.cache().unwrap().is_none());
    }

    #[test]
    fn jobs_flag_reaches_the_flow_options() {
        let p = parse_common(&args(&["axpy:2", "--jobs", "3"])).unwrap();
        assert_eq!(p.program.flow.jobs, 3);
        let p = parse_common(&args(&["axpy:2"])).unwrap();
        assert_eq!(p.program.flow.jobs, 0);
    }

    #[test]
    fn wellformed_args_parse_with_defaults() {
        let p = parse_common(&args(&["axpychain:3", "--requests", "16", "--no-overlap"])).unwrap();
        assert_eq!(p.kernel_count, 2);
        assert!(p.is_program());
        assert_eq!(p.runtime.requests, 16);
        assert!(!p.runtime.overlap_dma);
        assert_eq!(p.runtime.batch, BatchPolicy::Auto);
        assert_eq!(p.runtime.arrival, Arrival::Closed);
        assert_eq!(p.runtime.seed, 42);
        assert!(p.program.cross_sharing && p.program.system.is_none());
        assert_eq!(p.program.flow.elements, 50_000);
        assert!(!p.elements_set);
    }
}
