//! The option table, [`FLAGS`], and the parsing every command shares.

use std::sync::Arc;

use cfd_core::program::ProgramOptions;
use cfd_core::{Arrival, BatchPolicy, CompileCache, FaultPlan, RoutePolicy, RuntimeOptions};
use sysgen::{Platform, ProgramSystemConfig};

use crate::{fail, usage_error, CliError};

/// One option of the command line.
#[derive(Debug)]
pub(crate) struct Flag {
    pub(crate) name: &'static str,
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
    pub(crate) fn synopsis(&self) -> String {
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
/// The option `cfdc cache` requires.
pub(crate) const CACHE_DIR: Flag = Flag {
    name: "--cache-dir",
    commands: &["compile", "simulate", "verify", "serve", "cache"],
    help: "keep scheduling products in an on-disk compile cache (cache needs it)",
    takes: Text("PATH", |p, v| p.cache_dir = Some(v)),
};

/// Every option of every command, in help order.
pub(crate) static FLAGS: &[Flag] = &[
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
    CACHE_DIR,
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
            let boards = platforms(&v.value)?;
            // A portfolio sweeps each board once: a repeat would print
            // its rows twice.
            let twice = (boards.iter().enumerate())
                .find(|&(i, b)| boards[..i].iter().any(|a| a.id == b.id));
            if let Some((_, board)) = twice {
                return Err(CliError::RepeatedBoard(board.id.to_string()));
            }
            p.boards = Some(boards);
            Ok(())
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

/// The `--help` text: the commands, the sources, and every option of
/// [`FLAGS`] with the commands that read it.
pub(crate) fn usage() -> String {
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
pub(crate) struct Parsed {
    pub(crate) source: String,
    /// Compile options: the flow flags, `--no-cross-sharing`, and the
    /// uniform replication of every kernel from `--k`/`--m` (which
    /// come together or not at all).
    pub(crate) program: ProgramOptions,
    /// Serving options: requests, arrivals, batching, DMA overlap,
    /// seed, faults, recovery and online policy (the seed also drives
    /// `verify`).
    pub(crate) runtime: RuntimeOptions,
    emit: String,
    pub(crate) out_dir: Option<String>,
    /// Whether --elements was given explicitly (commands pick their own
    /// defaults otherwise); the count itself is `program.flow.elements`.
    pub(crate) elements_set: bool,
    pub(crate) grid: bool,
    pub(crate) json: bool,
    /// On-disk compile-cache directory (`--cache-dir`); compiles run
    /// uncached when absent or when `--no-cache` is given.
    pub(crate) cache_dir: Option<String>,
    pub(crate) no_cache: bool,
    /// Portfolio platforms from `--boards` (explore only).
    pub(crate) boards: Option<Vec<Platform>>,
    /// Fleet platforms from `--fleet` (serve only): shard the request
    /// stream across this board set instead of serving one board.
    pub(crate) fleet: Option<Vec<Platform>>,
    /// Dispatcher routing policy from `--route` (fleet serving).
    pub(crate) route: RoutePolicy,
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
    pub(crate) flags: Vec<&'static Flag>,
}

impl Parsed {
    /// Whether `--emit` selects the section kind `what` (one of
    /// [`EMIT_KINDS`]).
    pub(crate) fn wants(&self, what: &str) -> bool {
        self.emit == what || self.emit == "all"
    }

    /// Build the compile cache requested by `--cache-dir` (none when
    /// absent or disabled with `--no-cache`). An unusable directory is
    /// the structured [`CliError::CacheDir`] — reported once, up front.
    pub(crate) fn cache(&self) -> Result<Option<Arc<CompileCache>>, CliError> {
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
pub(crate) fn parse_options(args: &[String]) -> Result<Parsed, CliError> {
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
pub(crate) fn parse_common(args: &[String]) -> Result<Parsed, CliError> {
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
pub(crate) fn checked_or_exit(command: &'static str, parsed: Result<Parsed, CliError>) -> Parsed {
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
