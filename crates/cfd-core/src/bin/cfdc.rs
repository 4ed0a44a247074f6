//! `cfdc` — command-line driver for the CFDlang-to-FPGA flow.
//!
//! `cfdc --help` lists the commands and every option. Each option is
//! declared once, in [`FLAGS`]: its name, its value, the commands that
//! read it, its parser with the range it accepts, and its help line.
//! Parsing, the "does not apply" error and the help text derive from
//! that table, and a test holds README's option table to it.
//!
//! Every source compiles as a program through one function
//! ([`compile_program`]), and every command prints the program format:
//! a single-kernel source is the one-kernel program whose one stage is
//! `main` (`--emit all` writes `main.c`, defining `main_body`).
//! `simulate` prints the ARM A53 software baseline of every source, the
//! sum of its stages' times.
//!
//! Malformed arguments never panic: every flag value routes through the
//! structured [`CliError`] path (exit code 2 with a one-line
//! diagnosis), mirroring the structured `FlowError::DoesNotFit`
//! introduced for small-board compiles. Nor does a closed stdout:
//! every command prints through [`write_out`], and a reader that stops
//! early (`cfdc ... | head`) ends the process quietly with status 0.

#![forbid(unsafe_code)]

use cfd_core::dse::{DseEngine, DseGrid};
use cfd_core::program::{ProgramArtifacts, ProgramFlow, ProgramOptions};
use cfd_core::{
    Arrival, BatchPolicy, CompileCache, FaultPlan, FleetBoard, FleetOptions, FlowError,
    RoutePolicy, RuntimeOptions,
};
use std::io::{ErrorKind, Write};
use std::process::exit;
use std::sync::Arc;
use sysgen::{Platform, ProgramSystemConfig};
use zynq::SimConfig;

/// Write to stdout through [`write_out`]: `print!`'s arguments.
macro_rules! out {
    ($($arg:tt)*) => { write_out(format_args!($($arg)*)) };
}

/// [`out!`] with a newline: `println!`'s arguments.
macro_rules! outln {
    ($($arg:tt)*) => { write_out(format_args!("{}\n", format_args!($($arg)*))) };
}

/// The one writer of everything a command prints. A reader that closed
/// its end early (`cfdc ... | head`) ends the process quietly with
/// status 0; any other write error is a one-line error with status 1.
fn write_out(args: std::fmt::Arguments) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == ErrorKind::BrokenPipe {
            exit(0)
        }
        eprintln!("error: cannot write output: {e}");
        exit(1)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage_error()
    };
    let rest = &args[1..];
    match command.as_str() {
        "compile" => cmd_compile(rest),
        "simulate" => cmd_simulate(rest),
        "verify" => cmd_verify(rest),
        "explore" => cmd_explore(rest),
        "serve" => cmd_serve(rest),
        "boards" => cmd_boards(rest),
        "cache" => cmd_cache(rest),
        "--help" | "-h" | "help" => out!("{}", usage()),
        other => {
            eprintln!("unknown command '{other}'");
            usage_error()
        }
    }
}

/// The `--help` text: the commands, the sources, and every option of
/// [`FLAGS`] with the commands that read it.
fn usage() -> String {
    let mut s = String::from(
        "cfdc — CFDlang-to-FPGA flow\n\n\
         USAGE:\n\
         \tcfdc compile  <source> [OPTIONS]    emit C, host code, IR, memory plan and reports\n\
         \tcfdc simulate <source> [OPTIONS]    simulate the system against the ARM A53 baseline\n\
         \tcfdc verify   <source> [OPTIONS]    run the kernels bit-exact against the reference\n\
         \tcfdc explore  <source> [OPTIONS]    list feasible replications, or sweep designs\n\
         \tcfdc serve    <source> [OPTIONS]    serve a request stream on one board or a fleet\n\
         \tcfdc cache    stats|clear OPTIONS   inspect or empty an on-disk compile cache\n\
         \tcfdc boards                        list the platform catalog\n\n\
         SOURCE: a .cfd file path, a kernel helmholtz[:p] | interpolation[:n:m] | sandwich[:n]\n\
         \t| axpy[:n], or a multi-kernel program simstep[:p] | axpychain[:n]. Every source\n\
         \tcompiles into ONE shared-memory accelerator system; a kernel is the one-kernel\n\
         \tprogram whose stage is `main`.\n\n\
         OPTIONS:\n",
    );
    for f in FLAGS {
        s.push_str(&format!(
            "\t{:<26} {}\n\t{:<26} read by: {}\n",
            f.synopsis(),
            f.help,
            "",
            f.commands.join(" ")
        ));
    }
    s
}

/// The usage text on stderr with exit status 2: no command, an unknown
/// one, or no source.
fn usage_error() -> ! {
    eprint!("{}", usage());
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
    /// A required option was not given; names it with its value.
    MissingOption(String),
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
            CliError::MissingOption(synopsis) => write!(f, "missing required option '{synopsis}'"),
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

/// Print the one-line usage error and exit 2.
fn fail(e: CliError) -> ! {
    eprintln!("error: {e}");
    exit(2)
}

/// The value of `result`, or exit 1 with `"{what} failed: {error}"`.
fn or_exit<T>(what: &str, result: Result<T, impl std::fmt::Display>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{what} failed: {e}");
        exit(1)
    })
}

/// One option of the command line.
#[derive(Debug)]
struct Flag {
    name: &'static str,
    /// The commands that read it; any other command rejects it.
    commands: &'static [&'static str],
    help: &'static str,
    takes: Takes,
}

/// What an option takes, and where it puts it.
#[derive(Debug)]
enum Takes {
    /// No value.
    Switch(fn(&mut Parsed)),
    /// A value (named by the placeholder) stored as written.
    Text(&'static str, fn(&mut Parsed, String)),
    /// A value (named by the placeholder) that must parse.
    Parse(&'static str, fn(&mut Parsed, Given) -> Result<(), CliError>),
}
use Takes::{Parse, Switch, Text};

impl Flag {
    /// The option as the help text writes it: `--k K`, `--json`.
    fn synopsis(&self) -> String {
        match self.takes {
            Switch(_) => self.name.to_string(),
            Text(value, _) | Parse(value, _) => format!("{} {value}", self.name),
        }
    }
}

/// A value given to the option `flag`.
struct Given {
    flag: &'static str,
    value: String,
}

impl Given {
    /// Parse the value, which must also pass `valid`: a malformed and
    /// an out-of-range value are the same error, naming `expected`.
    fn parse<T: std::str::FromStr>(
        self,
        expected: &'static str,
        valid: impl Fn(&T) -> bool,
    ) -> Result<T, CliError> {
        match self.value.parse() {
            Ok(v) if valid(&v) => Ok(v),
            _ => Err(self.invalid(expected)),
        }
    }

    /// A count that must be at least 1.
    fn positive(self) -> Result<usize, CliError> {
        self.parse("a positive integer", |&n| n > 0)
    }

    /// A value a library parser checks.
    fn spec<T>(
        self,
        parse: fn(&str) -> Result<T, String>,
        expected: &'static str,
    ) -> Result<T, CliError> {
        parse(&self.value).map_err(|_| self.invalid(expected))
    }

    fn invalid(self, expected: &'static str) -> CliError {
        CliError::InvalidValue {
            flag: self.flag.to_string(),
            value: self.value,
            expected,
        }
    }
}

/// The section kinds `--emit` accepts.
const EMIT_KINDS: [&str; 7] = ["c", "host", "ir", "dot", "report", "memory", "all"];

/// The commands that compile a source.
const SOURCE: &[&str] = &["compile", "simulate", "verify", "explore", "serve"];
/// The commands that build one system (`explore` lists or sweeps them).
const BUILT: &[&str] = &["compile", "simulate", "verify", "serve"];
const SERVE: &[&str] = &["serve"];

/// Options that other checks name.
const K: &str = "--k";
const M: &str = "--m";
const RATE: &str = "--rate";
const ARRIVAL: &str = "--arrival";
const CACHE_DIR: &str = "--cache-dir";

/// Every option of every command, in help order.
static FLAGS: &[Flag] = &[
    Flag {
        name: "--board",
        commands: SOURCE,
        help: "target a catalog platform at its default clock (default zcu106)",
        takes: Text("NAME", |p, v| p.board = Some(v)),
    },
    Flag {
        name: "--kernel",
        commands: SOURCE,
        help: "compile one kernel of a multi-kernel program alone",
        takes: Text("NAME", |p, v| p.kernel = Some(v)),
    },
    Flag {
        name: "--no-factorize",
        commands: SOURCE,
        help: "skip the contraction factorization (Section IV-A)",
        takes: Switch(|p| p.program.flow.factorize = false),
    },
    Flag {
        name: "--no-sharing",
        commands: SOURCE,
        help: "give every array its own PLM: no address-space sharing",
        takes: Switch(|p| p.program.flow.memory.sharing = false),
    },
    Flag {
        name: "--no-decouple",
        commands: SOURCE,
        help: "keep temporaries in the kernel instead of exporting them to PLM units",
        takes: Switch(|p| p.program.flow.decoupled = false),
    },
    Flag {
        name: "--no-cross-sharing",
        commands: SOURCE,
        help: "concatenate the kernels' PLMs: no co-location across a program",
        takes: Switch(|p| p.program.cross_sharing = false),
    },
    Flag {
        name: "--jobs",
        commands: SOURCE,
        help: "workers for the compile stages and the sweeps (default 0 = all cores)",
        takes: Parse("N", |p, v| {
            v.parse("a worker count (0 = all cores)", |_| true)
                .map(|jobs| p.program.flow.jobs = jobs)
        }),
    },
    Flag {
        name: "--elements",
        commands: &["compile", "simulate", "verify", "explore"],
        help: "element count (default 50000; verify 8, explore sweeps 10000)",
        takes: Parse("N", |p, v| {
            p.program.flow.elements = v.positive()?;
            p.elements_set = true;
            Ok(())
        }),
    },
    Flag {
        name: K,
        commands: BUILT,
        help: "replicate every kernel K times (default: one k per kernel, the cheapest design that fits)",
        takes: Parse("K", |p, v| v.positive().map(|k| p.k = Some(k))),
    },
    Flag {
        name: M,
        commands: BUILT,
        help: "instantiate M PLM sets, a power-of-two multiple of K",
        takes: Parse("M", |p, v| v.positive().map(|m| p.m = Some(m))),
    },
    Flag {
        name: "--emit",
        commands: &["compile"],
        help: "c | host | ir | dot | report | memory | all (default report)",
        takes: Parse("WHAT", |p, v| {
            v.parse(
                "c | host | ir | dot | report | memory | all",
                |e: &String| EMIT_KINDS.contains(&e.as_str()),
            )
            .map(|emit| p.emit = emit)
        }),
    },
    Flag {
        name: "-o",
        commands: &["compile"],
        help: "write each emitted file into DIR instead of printing it",
        takes: Text("DIR", |p, v| p.out_dir = Some(v)),
    },
    Flag {
        name: "--json",
        commands: &["compile", "explore", "serve"],
        help: "print the report as JSON (compile: stage timings and counters)",
        takes: Switch(|p| p.json = true),
    },
    Flag {
        name: CACHE_DIR,
        commands: &["compile", "simulate", "verify", "serve", "cache"],
        help: "keep scheduling products in an on-disk compile cache (cache needs it)",
        takes: Text("PATH", |p, v| p.cache_dir = Some(v)),
    },
    Flag {
        name: "--no-cache",
        commands: BUILT,
        help: "compile uncached even when a cache directory is named",
        takes: Switch(|p| p.no_cache = true),
    },
    Flag {
        name: "--seed",
        commands: &["verify", "serve"],
        help: "seed of the verified inputs and of the request stream (default 42)",
        takes: Parse("S", |p, v| {
            v.parse("an unsigned integer", |_| true)
                .map(|seed| p.runtime.seed = seed)
        }),
    },
    Flag {
        name: "--grid",
        commands: &["explore"],
        help: "sweep k x batch x sharing x decoupling on --board at its default clock",
        takes: Switch(|p| p.grid = true),
    },
    Flag {
        name: "--boards",
        commands: &["explore"],
        help: "sweep the platform x clock x (k, m) portfolio and its Pareto frontiers",
        takes: Parse("all|A,B,..", |p, v| {
            platforms(&v.value).map(|b| p.boards = Some(b))
        }),
    },
    Flag {
        name: "--requests",
        commands: SERVE,
        help: "requests in the stream (default 64)",
        takes: Parse("N", |p, v| v.positive().map(|n| p.runtime.requests = n)),
    },
    Flag {
        name: ARRIVAL,
        commands: SERVE,
        help: "a closed backlog, or Poisson arrivals at the rate R (default closed)",
        takes: Text("closed|poisson", |p, v| p.arrival = v),
    },
    Flag {
        name: RATE,
        commands: SERVE,
        help: "Poisson arrival rate in requests per second",
        takes: Parse("R", |p, v| {
            v.parse("requests per second (a positive number)", |_| true)
                .map(|rate| p.rate = Some(rate))
        }),
    },
    Flag {
        name: "--batch",
        commands: SERVE,
        help: "round fill: the design's m, sequential, or at most K (default auto)",
        takes: Parse("auto|off|K", |p, v| {
            v.spec(BatchPolicy::parse, "auto | off | a fixed fill K >= 1")
                .map(|batch| p.runtime.batch = batch)
        }),
    },
    Flag {
        name: "--no-overlap",
        commands: SERVE,
        help: "serialise DMA and compute: no double buffering",
        takes: Switch(|p| p.runtime.overlap_dma = false),
    },
    Flag {
        name: "--faults",
        commands: SERVE,
        help: "seeded faults, 7:0.1 or 7:transient=..,stall=..,corrupt=..,fail=..,recover=..",
        takes: Parse("SEED:SPEC", |p, v| {
            v.spec(
                FaultPlan::parse,
                "SEED:RATE, or SEED:transient=..,stall=..,corrupt=..,fail=..,recover=.. \
                 (rates in [0,1], fail/recover in seconds with recover > fail)",
            )
            .map(|faults| p.runtime.faults = faults)
        }),
    },
    Flag {
        name: "--deadline",
        commands: SERVE,
        help: "per-request latency budget from arrival",
        takes: Parse("SECS", |p, v| {
            v.parse("a latency budget in seconds", |&d: &f64| {
                d.is_finite() && d > 0.0
            })
            .map(|d| p.runtime.recovery.deadline_s = Some(d))
        }),
    },
    Flag {
        name: "--retries",
        commands: SERVE,
        help: "retries per request after a fault (default 3)",
        takes: Parse("N", |p, v| {
            v.parse(
                "a retry cap in 0..=4294967295 (0 = fail on first fault)",
                |_| true,
            )
            .map(|n| p.runtime.recovery.max_retries = n)
        }),
    },
    Flag {
        name: "--backoff",
        commands: SERVE,
        help: "base retry backoff, doubling per failure up to 16x (default 0)",
        takes: Parse("SECS", |p, v| {
            v.parse("a base backoff in seconds", |&b: &f64| {
                b.is_finite() && b >= 0.0
            })
            .map(|b| p.runtime.recovery.backoff_s = b)
        }),
    },
    Flag {
        name: "--online",
        commands: SERVE,
        help: "mark the run as online serving; arms no policy by itself",
        takes: Switch(|p| p.runtime.online.event_loop = true),
    },
    Flag {
        name: "--slo",
        commands: SERVE,
        help: "close batches early for the p99 budget and shed hopeless requests",
        takes: Parse("SECS", |p, v| {
            v.parse("a p99 budget in seconds", |&d: &f64| {
                d.is_finite() && d > 0.0
            })
            .map(|d| p.runtime.online.slo_s = Some(d))
        }),
    },
    Flag {
        name: "--shed",
        commands: SERVE,
        help: "bound the admission queue; arrivals beyond it are load-shed",
        takes: Parse("DEPTH", |p, v| {
            v.parse("a queue depth >= 1", |&depth: &usize| depth > 0)
                .map(|depth| p.runtime.online.shed_queue = Some(depth))
        }),
    },
    Flag {
        name: "--priority",
        commands: SERVE,
        help: "serve tier 0 first, preempting at rounds (requests cycle tiers by id)",
        takes: Parse("TIERS", |p, v| {
            v.parse("a tier count in 1..=255", |&tiers: &u8| tiers > 0)
                .map(|tiers| p.runtime.online.priority_tiers = tiers)
        }),
    },
    Flag {
        name: "--fleet",
        commands: SERVE,
        help: "shard the stream across a board set; boards that cannot fit are skipped",
        takes: Parse("all|A,B,..", |p, v| {
            platforms(&v.value).map(|f| p.fleet = Some(f))
        }),
    },
    Flag {
        name: "--route",
        commands: SERVE,
        help: "fleet dispatcher: round-robin, join-shortest-queue or cost model (default rr)",
        takes: Parse("rr|jsq|predictive", |p, v| {
            v.spec(RoutePolicy::parse, "rr | jsq | predictive")
                .map(|route| p.route = route)
        }),
    },
];

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

#[derive(Debug, Default)]
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
    /// The values [`parse_common`] resolves once every option is read:
    /// `--kernel`, `--board`, `--k`, `--m`, `--arrival` and `--rate`.
    kernel: Option<String>,
    board: Option<String>,
    k: Option<usize>,
    m: Option<usize>,
    arrival: String,
    rate: Option<f64>,
    /// Every option given, in order (checked against the command by
    /// [`checked_or_exit`]).
    flags: Vec<&'static Flag>,
}

impl Parsed {
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

/// Read `args` as options through [`FLAGS`]: an unknown option, a
/// missing value or a malformed one is the first error.
fn parse_options(args: &[String]) -> Result<Parsed, CliError> {
    let mut p = Parsed {
        emit: "report".to_string(),
        arrival: "closed".to_string(),
        ..Parsed::default()
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(flag) = FLAGS.iter().find(|f| f.name == arg) else {
            return Err(CliError::UnknownOption(arg.clone()));
        };
        p.flags.push(flag);
        let mut value = || {
            args.next().cloned().ok_or_else(|| CliError::MissingValue {
                flag: flag.name.to_string(),
            })
        };
        match flag.takes {
            Switch(set) => set(&mut p),
            Text(_, set) => set(&mut p, value()?),
            Parse(_, set) => set(
                &mut p,
                Given {
                    flag: flag.name,
                    value: value()?,
                },
            )?,
        }
    }
    Ok(p)
}

/// Read the source `args[0]` and its options, then resolve the options
/// that depend on each other or on the source.
fn parse_common(args: &[String]) -> Result<Parsed, CliError> {
    let Some(spec) = args.first() else {
        return Err(CliError::MissingKernel);
    };
    let source = load_source(spec)?;
    let mut p = parse_options(&args[1..])?;
    p.source = source;
    p.runtime.arrival =
        Arrival::parse(&p.arrival, p.rate.unwrap_or(0.0)).map_err(|_| CliError::InvalidValue {
            flag: ARRIVAL.to_string(),
            value: p.arrival.clone(),
            expected: "closed, or poisson with --rate R > 0",
        })?;
    if let Some(name) = &p.board {
        let platform = lookup_platform(name)?;
        p.program.flow.hls.clock_mhz = platform.default_clock_mhz;
        p.program.flow.platform = platform;
    }
    let unpaired = |flag, partner| Err(CliError::Unpaired { flag, partner });
    // A rate only shapes Poisson arrivals; a closed backlog would
    // silently drop it.
    if p.rate.is_some() && p.runtime.arrival == Arrival::Closed {
        return unpaired(RATE, "--arrival poisson");
    }
    let replication = match (p.k, p.m) {
        (Some(_), None) => return unpaired(K, M),
        (None, Some(_)) => return unpaired(M, K),
        (k, m) => k.zip(m),
    };
    // Parse once: the kernel count, and the --kernel NAME reduction
    // of a program source to one of its kernels. (Parse errors are
    // deferred to the command's own compile for a uniform message.)
    let mut kernel_count = 1;
    if let Ok(set) = cfdlang::parse_set(&p.source) {
        kernel_count = set.kernels.len();
        if let Some(name) = &p.kernel {
            match set.find_kernel(name) {
                Some(k) => p.source = cfdlang::pretty(&k.program),
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
    p.program.system = replication.map(|(k, m)| ProgramSystemConfig::uniform(k, m, kernel_count));
    Ok(p)
}

/// The parsed options of `cfdc command`, or exit with the structured
/// one-line error (usage text when no source was named at all): a
/// malformed argument, or an option the command never reads.
fn checked_or_exit(command: &'static str, parsed: Result<Parsed, CliError>) -> Parsed {
    let p = match parsed {
        Ok(p) => p,
        Err(CliError::MissingKernel) => usage_error(),
        Err(e) => fail(e),
    };
    if let Some(flag) = p.flags.iter().find(|f| !f.commands.contains(&command)) {
        fail(CliError::NotApplicable {
            flag: flag.name.to_string(),
            command,
        })
    }
    p
}

/// Resolve a `--board`/`--boards` name against the platform catalog.
fn lookup_platform(name: &str) -> Result<Platform, CliError> {
    Platform::by_name(name).ok_or_else(|| CliError::UnknownBoard {
        name: name.to_string(),
        catalog: Platform::catalog()
            .into_iter()
            .map(|p| p.id.to_string())
            .collect(),
    })
}

/// The boards of a `--boards` / `--fleet` list: `all` (the catalog) or
/// comma-separated ids.
fn platforms(spec: &str) -> Result<Vec<Platform>, CliError> {
    if spec == "all" {
        return Ok(Platform::catalog());
    }
    spec.split(',').map(lookup_platform).collect()
}

/// `cfdc boards`: the platform catalog. It reads no option.
fn cmd_boards(args: &[String]) {
    checked_or_exit("boards", parse_options(args));
    outln!("platform catalog (use with --board / --boards):");
    outln!(
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
        outln!(
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
    outln!("  (default clock bracketed; default board: zcu106)");
}

/// Build the `--cache-dir` cache or exit with the structured error.
fn cache_or_exit(p: &Parsed) -> Option<Arc<CompileCache>> {
    p.cache().unwrap_or_else(|e| fail(e))
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

/// The `--json` compile summary: stage timings plus cache counters.
fn timings_json(kernels: usize, t: &cfd_core::StageTimings) -> String {
    format!(
        "{{\n  \"kernels\": {},\n  \"timings_s\": {{\"frontend\": {:.6}, \"middle_end\": {:.6}, \
         \"schedule\": {:.6}, \"link\": {:.6}, \"backend\": {:.6}, \"system\": {:.6}, \"total\": {:.6}}},\n  \
         \"compile_cache\": {}\n}}",
        kernels,
        t.frontend_s,
        t.middle_end_s,
        t.schedule_s,
        t.link_s,
        t.backend_s,
        t.system_s,
        t.total_s(),
        t.cache,
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
    let art = or_exit("compilation", compile_program(p, &p.program, cache));
    report_cache(&art.timings, cached);
    art
}

/// `cfdc cache stats|clear --cache-dir PATH`: inspect or empty the
/// on-disk compile cache without running a compile.
fn cmd_cache(args: &[String]) {
    let sub = match args.first().map(String::as_str) {
        Some(s @ ("stats" | "clear")) => s,
        other => fail(CliError::InvalidValue {
            flag: "cache".to_string(),
            value: other.unwrap_or_default().to_string(),
            expected: "stats | clear",
        }),
    };
    let p = checked_or_exit("cache", parse_options(&args[1..]));
    let Some(dir) = &p.cache_dir else {
        let flag = FLAGS.iter().find(|f| f.name == CACHE_DIR);
        let flag = flag.expect("the cache directory option is in FLAGS");
        fail(CliError::MissingOption(flag.synopsis()))
    };
    let path = std::path::Path::new(dir);
    let cache_err = |e: std::io::Error| -> ! {
        fail(CliError::CacheDir {
            path: dir.clone(),
            error: e.to_string(),
        })
    };
    if sub == "stats" {
        let (entries, bytes) = CompileCache::disk_stats(path).unwrap_or_else(|e| cache_err(e));
        outln!("cache at {dir}: {entries} entries, {bytes} bytes");
    } else {
        let removed = CompileCache::clear_disk(path).unwrap_or_else(|e| cache_err(e));
        outln!("cache at {dir}: removed {removed} entries");
    }
}

/// `n kernel(s)`.
fn kernels(n: usize) -> String {
    format!("{n} kernel{}", if n == 1 { "" } else { "s" })
}

/// Per-kernel + aggregate resource tables of a compiled program.
fn program_report(art: &ProgramArtifacts) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "program: {}, {} handoffs, cross-kernel PLM edges: {}\n",
        kernels(art.kernel_count()),
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

/// What stops each stage's next doubling ([`sysgen::next_doubling`]),
/// one line; empty when no system fits.
fn next_doublings(art: &ProgramArtifacts) -> String {
    let Some(sys) = &art.system else {
        return String::new();
    };
    let sim = SimConfig::default();
    let cost = zynq::RoundPricer::of(sys, &sim);
    let stages: Vec<String> = (art.names.iter().enumerate())
        .map(|(i, name)| format!("{name} {}", sysgen::next_doubling(sys, i, &cost)))
        .collect();
    format!("next doubling: {}\n", stages.join(", "))
}

fn cmd_compile(args: &[String]) {
    let p = checked_or_exit("compile", parse_common(args));
    let art = compile_or_exit(&p);
    write_sections(&p, &sections(&p, &art));
    if p.json {
        outln!("{}", timings_json(art.kernel_count(), &art.timings));
    }
}

/// The `--emit` sections of a compile: per stage its IR, its C under
/// the program-unique symbol `<stage>_body` (so the sources link into
/// one system) and its compatibility graph; `host.c` with the fixed
/// `cfd_driver.h` it includes; the shared PLM units; and the report,
/// the program tables followed by each stage's HLS report.
fn sections(p: &Parsed, art: &ProgramArtifacts) -> Vec<(String, String)> {
    let stages = || art.names.iter().zip(&art.kernels);
    let mut sections: Vec<(String, String)> = Vec::new();
    if p.wants("ir") {
        for (name, a) in stages() {
            sections.push((format!("{name}.ir"), a.module.to_string()));
        }
    }
    if p.wants("c") {
        for (i, name) in art.names.iter().enumerate() {
            sections.push((format!("{name}.c"), art.stage_c_source(i)));
        }
    }
    if p.wants("host") {
        sections.push(("host.c".into(), art.host_source.clone()));
        sections.push(("cfd_driver.h".into(), sysgen::CFD_DRIVER_H.into()));
    }
    if p.wants("dot") {
        for (name, a) in stages() {
            sections.push((format!("{name}.compat.dot"), a.compat.to_dot()));
        }
    }
    if p.wants("memory") {
        let mut s = String::new();
        for u in &art.memory.units {
            s.push_str(&format!(
                "{}: {} words, {} BRAM36, {}R{}W, members {:?}\n",
                u.name, u.words, u.brams, u.read_ports, u.write_ports, u.members
            ));
        }
        s.push_str(&format!(
            "total {} BRAMs ({} cross-kernel units)\n",
            art.memory.brams,
            art.memory_plan.cross_kernel_units(&art.memory)
        ));
        sections.push(("memory.txt".into(), s));
    }
    if p.wants("report") {
        let mut s = program_report(art);
        s.push_str(&next_doublings(art));
        for (name, a) in stages() {
            s.push_str(&format!("\n{}", a.hls_report.renamed(name.clone())));
        }
        sections.push(("report.txt".into(), s));
    }
    sections
}

/// Write each `(name, content)` section to `-o DIR/name`, or print it
/// under a `=== name ===` header.
fn write_sections(p: &Parsed, sections: &[(String, String)]) {
    let Some(dir) = &p.out_dir else {
        for (name, content) in sections {
            outln!("=== {name} ===\n{content}");
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
        outln!("wrote {path}");
    }
}

fn cmd_simulate(args: &[String]) {
    let p = checked_or_exit("simulate", parse_common(args));
    let art = compile_or_exit(&p);
    let elements = p.program.flow.elements;
    let r = or_exit(
        "simulation",
        art.simulate(&SimConfig {
            elements,
            ..Default::default()
        }),
    );
    // The software baseline of a program runs its stages one after
    // another on the host CPU.
    let (mut sw_ref, mut sw_hls) = (0.0, 0.0);
    for a in &art.kernels {
        let (reference, hls_code) = or_exit("simulation", a.sw_times(elements));
        sw_ref += reference.total_s;
        sw_hls += hls_code.total_s;
    }
    let ks: Vec<String> = r.ks.iter().map(|k| k.to_string()).collect();
    outln!(
        "program k=[{}] m={} | {} elements in {} rounds",
        ks.join(","),
        r.m,
        r.elements,
        r.rounds
    );
    for (name, exec) in art.names.iter().zip(&r.stage_exec_s) {
        outln!("  stage {name}: exec {exec:.4} s");
    }
    outln!(
        "exec {:.4} s | transfers {:.4} s | total {:.4} s ({:.2} ms/element)",
        r.exec_s,
        r.transfer_s,
        r.total_s,
        r.total_per_element_s() * 1e3
    );
    outln!(
        "ARM A53: reference {sw_ref:.4} s, HLS-style code {sw_hls:.4} s -> HW speedup {:.2}x",
        sw_ref / r.total_s
    );
}

fn cmd_verify(args: &[String]) {
    let mut p = checked_or_exit("verify", parse_common(args));
    if !p.elements_set {
        p.program.flow.elements = 8; // verification default: a sample, not the full run
    }
    let art = compile_or_exit(&p);
    let mut v = or_exit(
        "verification",
        art.verify(p.program.flow.elements, p.runtime.seed),
    );
    // The first element also holds the interpreter to its definition.
    v.bitexact &= or_exit("verification", art.matches_the_definition(p.runtime.seed));
    outln!(
        "verified {} chained elements ({}): bitexact={}, max_rel_diff={:.3e}",
        v.elements,
        kernels(art.kernel_count()),
        v.bitexact,
        v.max_rel_diff
    );
    if !v.bitexact {
        exit(1);
    }
}

/// `cfdc serve`: batched multi-request runtime on the compiled system.
fn cmd_serve(args: &[String]) {
    let p = checked_or_exit("serve", parse_common(args));
    if p.fleet.is_some() {
        return cmd_serve_fleet(&p);
    }
    let art = compile_or_exit(&p);
    let opts = &p.runtime;
    let out = or_exit("serving", art.serve(opts));
    if p.json {
        outln!("{}", out.report.to_json());
        return;
    }
    out!("{}", out.report.render_table());
    // With --batch off the run IS the sequential baseline — comparing it
    // against itself would just print a meaningless 1.00x.
    if opts.batch == BatchPolicy::Disabled {
        return;
    }
    let seq = or_exit("serving", art.serve_sequential_baseline(opts));
    outln!(
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
    let mut compiled: Vec<(&str, Result<ProgramArtifacts, String>)> = Vec::new();
    for platform in platforms {
        if !compiled.iter().any(|(id, _)| *id == platform.id) {
            // The platform and its default clock override `--board`.
            let mut opts = p.program.clone();
            opts.flow.platform = platform.clone();
            opts.flow.hls.clock_mhz = platform.default_clock_mhz;
            let art = compile_program(p, &opts, cache_or_exit(p)).map_err(|e| e.to_string());
            compiled.push((platform.id, art));
        }
    }
    let art_for = |id: &str| &compiled.iter().find(|(cid, _)| *cid == id).unwrap().1;
    // Board list in catalog order, with repeats of one platform named
    // id#2, id#3, ... and --faults armed on the first board only.
    let mut boards: Vec<FleetBoard> = Vec::new();
    let mut reference: Option<&ProgramArtifacts> = None;
    for platform in platforms {
        let art = match art_for(platform.id) {
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
    let out = or_exit("fleet serving", art.serve_fleet(&boards, &fopts));
    if p.json {
        outln!("{}", out.report.to_json());
        return;
    }
    out!("{}", out.report.render_table());
}

/// `cfdc explore`: the feasible-design listing, or a sweep of the
/// default grid — over the `--boards` portfolio, or with `--grid` on
/// the `--board` platform at its one default clock.
fn cmd_explore(args: &[String]) {
    let p = checked_or_exit("explore", parse_common(args));
    if p.boards.is_some() {
        // The portfolio sets its own boards and clocks.
        let sweep = p
            .flags
            .iter()
            .find(|f| ["--grid", "--board"].contains(&f.name));
        if let Some(flag) = sweep {
            fail(CliError::NotApplicable {
                flag: flag.name.to_string(),
                command: "explore --boards",
            })
        }
    } else if !p.grid {
        return explore_listing(&p);
    }
    let engine = or_exit("compilation", DseEngine::prepare(&p.source, &p.program));
    // Sweep default: small enough to keep the simulations quick.
    let elements = if p.elements_set {
        p.program.flow.elements
    } else {
        10_000
    };
    let flow = &p.program.flow;
    let board = [Platform {
        clock_ladder_mhz: vec![flow.hls.clock_mhz],
        ..flow.platform.clone()
    }];
    let platforms = p.boards.as_deref().unwrap_or(&board);
    let report = engine.run_portfolio(platforms, &DseGrid::default(), flow.jobs, elements);
    // A time past the simulator's clock would print wrong: exit 1.
    if report.ticks_overflows > 0 {
        or_exit("exploration", Err(FlowError::TicksOverflow { elements }))
    }
    print_portfolio(&report, p.json);
}

/// Render a portfolio sweep (table or JSON) with its Pareto frontier.
fn print_portfolio(report: &cfd_core::dse::PortfolioReport, json: bool) {
    if json {
        outln!("{}", report.to_json());
        return;
    }
    out!("{}", report.render_table());
    let frontier = report.pareto_frontier();
    outln!("pareto frontier ({} points):", frontier.len());
    for o in frontier {
        outln!(
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
    outln!("service frontier ({} points):", service.len());
    for o in service {
        outln!(
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
    outln!("cost-efficiency frontier ({} points):", cost.len());
    for (o, per_kluts) in cost {
        outln!(
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

/// The feasibility listing: compile the program once, then list every
/// uniform replication Eq. (3) admits on the board
/// ([`sysgen::enumerate_program_designs`]). `--k`/`--m` do not apply.
fn explore_listing(p: &Parsed) {
    let art = or_exit("compilation", compile_program(p, &p.program, None));
    let stages: Vec<(String, hls::HlsReport)> = art
        .names
        .iter()
        .zip(&art.kernels)
        .map(|(n, a)| (n.clone(), a.hls_report.clone()))
        .collect();
    let platform = &p.program.flow.platform;
    let designs = sysgen::enumerate_program_designs(platform, &stages, &art.memory);
    out!("{}", program_report(&art));
    outln!(
        "feasible uniform configurations on {}:",
        platform.board.name
    );
    outln!("   k    m  batch     LUT   BRAM   slack(BRAM)");
    for d in &designs {
        let (_, _, _, slack_brams) = d.slack();
        outln!(
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
        let ids: Vec<&str> = p.fleet.as_ref().unwrap().iter().map(|pl| pl.id).collect();
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
        assert_eq!(p.flags.len(), 2);
        assert_eq!(p.runtime.requests, 16);
        assert!(!p.runtime.overlap_dma);
        assert_eq!(p.runtime.batch, BatchPolicy::Auto);
        assert_eq!(p.runtime.arrival, Arrival::Closed);
        assert_eq!(p.runtime.seed, 42);
        assert!(p.program.cross_sharing && p.program.system.is_none());
        assert_eq!(p.program.flow.elements, 50_000);
        assert!(!p.elements_set);
        // --k/--m replicate every kernel of the source.
        let p = parse_common(&args(&["axpychain:3", "--k", "2", "--m", "4"])).unwrap();
        assert_eq!(
            p.program.system,
            Some(ProgramSystemConfig::uniform(2, 4, 2))
        );
    }

    /// Each option is declared once, and README's option list and the
    /// `--help` text both name it with its value.
    #[test]
    fn every_flag_is_declared_once_and_documented() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README.md");
        let help = usage();
        for (i, f) in FLAGS.iter().enumerate() {
            assert!(
                FLAGS[..i].iter().all(|g| g.name != f.name),
                "{} is declared twice",
                f.name
            );
            let synopsis = f.synopsis();
            assert!(
                readme.contains(&format!("`{synopsis}`")),
                "README.md does not document `{synopsis}`"
            );
            assert!(
                help.contains(&format!("\t{synopsis} ")),
                "--help omits {synopsis}"
            );
            assert!(!f.commands.is_empty() && !f.help.is_empty(), "{}", f.name);
        }
    }
}
