//! `cfdc` — command-line driver for the CFDlang-to-FPGA flow.
//!
//! `cfdc --help` lists the commands and every option. Each option is
//! declared once, in [`FLAGS`](flags::FLAGS): its name, its value, the
//! commands that read it, its parser with the range it accepts, and its
//! help line. Parsing, the "does not apply" error and the help text
//! derive from that table, and a test holds README's option table to
//! it. Each command is one module.
//!
//! Every source compiles as a program through one function
//! ([`compile::compile`]), and every command prints the program format:
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

use std::io::{ErrorKind, Write};
use std::process::exit;

/// Write to stdout through [`write_out`]: `print!`'s arguments.
macro_rules! out {
    ($($arg:tt)*) => { $crate::write_out(format_args!($($arg)*)) };
}

/// [`out!`] with a newline: `println!`'s arguments.
macro_rules! outln {
    ($($arg:tt)*) => { $crate::write_out(format_args!("{}\n", format_args!($($arg)*))) };
}

mod boards;
mod cache;
mod compile;
mod explore;
mod flags;
mod serve;
mod simulate;
mod verify;

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
        "compile" => compile::cmd_compile(rest),
        "simulate" => simulate::cmd_simulate(rest),
        "verify" => verify::cmd_verify(rest),
        "explore" => explore::cmd_explore(rest),
        "serve" => serve::cmd_serve(rest),
        "boards" => boards::cmd_boards(rest),
        "cache" => cache::cmd_cache(rest),
        "--help" | "-h" | "help" => out!("{}", flags::usage()),
        other => {
            eprintln!("unknown command '{other}'");
            usage_error()
        }
    }
}

/// The usage text on stderr with exit status 2: no command, an unknown
/// one, or no source.
fn usage_error() -> ! {
    eprint!("{}", flags::usage());
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
    /// A `--boards` list that names a board twice.
    RepeatedBoard(String),
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
            CliError::RepeatedBoard(name) => {
                write!(f, "board '{name}' is named twice in --boards")
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
