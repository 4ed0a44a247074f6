//! `cfdc`'s command-line edges: a source without a statement is a
//! one-line compile error with exit status 1 for every subcommand that
//! compiles it, as is a simulation past the tick clock; and
//! `--elements` reaches every output that counts elements. A serve
//! flag that the chosen arrival process would ignore, and a flag the
//! command never reads, are one-line usage errors with exit status 2,
//! and so is an unknown `--emit` kind, before anything compiles, or a
//! count past its integer type, whose message names the range. A
//! serving time past the tick clock is a one-line serving error with
//! exit status 1. A reader that closes `cfdc`'s stdout early ends it
//! quietly, without a panic.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn a_source_without_statements_exits_one_with_one_line() {
    let dir = std::env::temp_dir().join(format!("cfdc-cli-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sources = [
        ("empty.cfd", ""),
        ("inputs_only.cfd", "var input a : [4]\n"),
        ("idle_kernel.cfd", "kernel idle {\n\tvar input a : [4]\n}\n"),
    ];
    for (name, text) in sources {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let path = path.to_str().unwrap();
        for args in [
            &["compile", path][..],
            &["compile", path, "--json"],
            &["simulate", path, "--elements", "10"],
            &["explore", path, "--elements", "10"],
        ] {
            let out = Command::new(env!("CARGO_BIN_EXE_cfdc"))
                .args(args)
                .output()
                .expect("cfdc runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "cfdc {args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "cfdc {args:?} printed a result");
            assert_eq!(stderr.lines().count(), 1, "cfdc {args:?}: {stderr}");
            assert!(stderr.contains("program has no statement"), "{stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `cfdc simulate` of more elements than the simulator's `u64`
/// picosecond clock can count (about 213 days, ~7.8e10 elements of
/// helmholtz:11 on the ZCU106) is a one-line error with exit status 1,
/// not a wrapped total; ten times fewer elements print a total equal to
/// exec plus transfers.
#[test]
fn simulated_ticks_past_u64_exit_one_with_one_line() {
    let simulate = |elements: &str| {
        Command::new(env!("CARGO_BIN_EXE_cfdc"))
            .args(["simulate", "helmholtz:11", "--elements", elements])
            .output()
            .expect("cfdc runs")
    };
    let out = simulate("100000000000");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "printed a result");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("picosecond clock"), "{stderr}");

    let out = simulate("10000000000");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout.lines().find(|l| l.starts_with("exec ")).unwrap();
    // "exec X s | transfers Y s | total Z s (...)"
    let secs: Vec<f64> = line
        .split(" s")
        .filter_map(|part| part.rsplit(' ').next()?.parse().ok())
        .collect();
    let [exec, transfers, total] = secs[..] else {
        panic!("unexpected line: {line}")
    };
    assert!(total > 2e6, "{line}");
    assert!((total - (exec + transfers)).abs() <= 1e-3, "{line}");
}

/// Every `cfdc explore` mode that prints a simulated time refuses to
/// print one past the `u64` picosecond clock: one line, exit status 1.
/// At 1e11 elements the wrapped clock used to rank k=2 m=4 first; at
/// 1e10 only the slow rows wrap (k=1 m=1, whose `cfdc simulate` fails
/// the same way), which is still a wrong row. At 1e9 the sweep prints,
/// and ranks k=8 m=8 first, at 2409 elements/s.
#[test]
fn explored_ticks_past_u64_exit_one_with_one_line() {
    let explore = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_cfdc"))
            .args(["explore", "helmholtz:11"])
            .args(args)
            .output()
            .expect("cfdc runs")
    };
    for (elements, modes) in [
        (
            "100000000000",
            &[
                &["--grid"][..],
                &["--grid", "--json"],
                &["--boards", "all"],
                &["--boards", "all", "--json"],
            ][..],
        ),
        ("10000000000", &[&["--grid"][..]]),
    ] {
        for mode in modes {
            let mut args = mode.to_vec();
            args.extend_from_slice(&["--elements", elements]);
            let out = explore(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{args:?} printed a result");
            assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
            assert!(stderr.contains("picosecond clock"), "{args:?}: {stderr}");
        }
    }

    let out = explore(&["--grid", "--elements", "1000000000"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    // The first ranked row follows the table's column header; its
    // columns, bar a leading `*` (on the Pareto frontier), are the
    // header's.
    let mut lines = stdout.lines();
    lines.find(|l| l.trim_start().starts_with("platform "));
    let best = lines.next().unwrap();
    let columns: Vec<&str> = best.split_whitespace().filter(|&c| c != "*").collect();
    assert_eq!(
        (columns[2], columns[3], columns[10]),
        ("8", "8", "2409"),
        "{best}"
    );
}

/// `cfdc explore --boards` sweeps the boards it names, each at every
/// clock of its ladder, so `--grid` (one board at one clock) and
/// `--board` do not apply to it. Both used to be dropped silently:
/// `--grid --boards` and `--board pynq-z2 --boards zcu106,u250` printed
/// the portfolio of the `--boards` alone and exited 0. Each is one line,
/// exit 2, naming the first of the two given.
#[test]
fn explore_boards_refuses_grid_and_board_with_one_line() {
    let cases: &[(&[&str], &str)] = &[
        (&["--grid", "--boards", "all"], "--grid"),
        (&["--boards", "zcu106", "--grid", "--json"], "--grid"),
        (
            &["--board", "pynq-z2", "--boards", "zcu106,u250"],
            "--board",
        ),
        (
            &["--boards", "all", "--board", "zcu106", "--grid"],
            "--board",
        ),
    ];
    for (flags, first) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_cfdc"))
            .args(["explore", "axpy:2"])
            .args(*flags)
            .output()
            .expect("cfdc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?} printed a result");
        assert_eq!(
            stderr.trim_end(),
            format!("error: option '{first}' does not apply to 'cfdc explore --boards'"),
            "{flags:?}"
        );
    }
}

/// A `--boards` list that names a board twice used to sweep it twice:
/// `--boards zcu106,zcu106` printed "2 platforms" and every row and
/// summary twice. It is one line naming the board, exit 2. A `--fleet`
/// list keeps its repeats: there they are separate boards.
#[test]
fn a_board_named_twice_in_boards_exits_two_with_one_line() {
    for (boards, twice) in [("zcu106,zcu106", "zcu106"), ("u250,pynq-z2,u250", "u250")] {
        for json in [&[][..], &["--json"]] {
            let mut args = vec!["explore", "helmholtz:4", "--boards", boards];
            args.extend_from_slice(json);
            let (status, stdout, stderr) = cfdc(&args);
            assert_eq!(status, Some(2), "{args:?}: {stderr}");
            assert!(stdout.is_empty(), "{args:?} printed a result");
            assert_eq!(
                stderr,
                format!("error: board '{twice}' is named twice in --boards\n"),
                "{args:?}"
            );
        }
    }
    let (status, stdout, stderr) = cfdc(&[
        "serve",
        "axpy:2",
        "--requests",
        "8",
        "--fleet",
        "zcu106,zcu106",
    ]);
    assert_eq!(status, Some(0), "{stderr}");
    assert!(stdout.contains("zcu106#2"), "{stdout}");
}

/// `cfdc compile --elements N` sizes the host program's main loop: a
/// kernel's `host.c` and a program's run `ceil(N / m)` rounds of the
/// automatic replication (m = 32 for helmholtz:5, m = 16 for simstep:7
/// on the ZCU106), not the default 50 000 elements' rounds.
#[test]
fn compile_elements_sizes_the_host_loop() {
    for (kernel, rounds) in [("helmholtz:5", "i < 25;"), ("simstep:7", "i < 49;")] {
        let out = Command::new(env!("CARGO_BIN_EXE_cfdc"))
            .args(["compile", kernel, "--emit", "host", "--elements", "777"])
            .output()
            .expect("cfdc runs");
        assert!(out.status.success(), "{kernel}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains(rounds), "{kernel}: {stdout}");
    }
}

/// `cfdc serve --rate R` without `--arrival poisson` used to serve a
/// closed backlog and drop the rate; it is now a usage error (exit 2,
/// one line), while the Poisson run with the same rate serves.
#[test]
fn serve_rate_without_poisson_exits_two_with_one_line() {
    let serve = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_cfdc"))
            .args(["serve", "axpy:2", "--requests", "8"])
            .args(args)
            .output()
            .expect("cfdc runs")
    };
    for args in [
        &["--rate", "50"][..],
        &["--arrival", "closed", "--rate", "50"],
    ] {
        let out = serve(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert_eq!(
            stderr.trim_end(),
            "error: option '--rate' needs '--arrival poisson' as well"
        );
    }
    let out = serve(&["--arrival", "poisson", "--rate", "50"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("poisson(50.0/s)"), "{stdout}");
}

/// A serving time past the picosecond clock used to saturate: a 1e300 s
/// backoff served the same 4 rounds as no backoff, and Poisson arrivals
/// at 1e-9/s completed before they arrived. Each is now one
/// `serving failed` line with exit status 1, on one board and on a
/// fleet.
#[test]
fn serving_times_past_the_clock_exit_one_with_one_line() {
    let cases: [(&[&str], &str); 4] = [
        (
            &[
                "--requests",
                "64",
                "--backoff",
                "1e300",
                "--faults",
                "7:0.5",
            ],
            "backoff of 1e300 s does not fit the picosecond clock",
        ),
        (
            &[
                "--requests",
                "4",
                "--arrival",
                "poisson",
                "--rate",
                "1e-9",
                "--json",
            ],
            "arrival of ",
        ),
        (
            &["--requests", "4", "--deadline", "1e30", "--fleet", "all"],
            "deadline of 1e30 s does not fit",
        ),
        (
            &["--requests", "4", "--online", "--slo", "1e30"],
            "SLO of 1e30 s does not fit",
        ),
    ];
    for (args, message) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_cfdc"))
            .args(["serve", "helmholtz:4"])
            .args(args)
            .output()
            .expect("cfdc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains("serving failed: "), "{stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

/// A known flag the command never reads used to be dropped silently
/// (`cfdc verify helmholtz:4 --grid --fleet all --json` exited 0). Each
/// row gives a command one such flag (with a valid value), after any
/// flags it does read; the error names the first flag that does not
/// apply.
#[test]
fn a_flag_its_command_never_reads_exits_two_with_one_line() {
    let cases: &[(&str, &[&str], &str)] = &[
        ("verify", &["--grid", "--fleet", "all", "--json"], "--grid"),
        (
            "explore",
            &["--cache-dir", "/nonexistent/x", "--grid"],
            "--cache-dir",
        ),
        ("simulate", &["--emit", "c"], "--emit"),
        ("verify", &["-o", "out"], "-o"),
        ("explore", &["--grid", "--emit", "host"], "--emit"),
        ("compile", &["--seed", "3"], "--seed"),
        ("simulate", &["--seed", "3"], "--seed"),
        ("explore", &["--seed", "3"], "--seed"),
        ("simulate", &["--json"], "--json"),
        ("verify", &["--json"], "--json"),
        ("compile", &["--json", "--grid"], "--grid"),
        ("serve", &["--boards", "all"], "--boards"),
        ("simulate", &["--boards", "zcu106"], "--boards"),
        ("explore", &["--no-cache"], "--no-cache"),
        ("explore", &["--k", "2", "--m", "2"], "--k"),
        (
            "serve",
            &["--k", "2", "--m", "2", "--elements", "10"],
            "--elements",
        ),
        ("compile", &["--requests", "4"], "--requests"),
        ("simulate", &["--arrival", "closed"], "--arrival"),
        (
            "verify",
            &["--arrival", "poisson", "--rate", "5"],
            "--arrival",
        ),
        ("explore", &["--batch", "4"], "--batch"),
        ("compile", &["--no-overlap"], "--no-overlap"),
        ("simulate", &["--faults", "7:0.1"], "--faults"),
        ("verify", &["--deadline", "5"], "--deadline"),
        ("explore", &["--retries", "2"], "--retries"),
        ("compile", &["--backoff", "0.001"], "--backoff"),
        ("simulate", &["--online"], "--online"),
        ("verify", &["--slo", "0.006"], "--slo"),
        ("explore", &["--shed", "4"], "--shed"),
        ("compile", &["--priority", "2"], "--priority"),
        ("simulate", &["--fleet", "all"], "--fleet"),
        ("explore", &["--route", "jsq"], "--route"),
    ];
    for (command, flags, first) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_cfdc"))
            .args([command, "axpy:2"])
            .args(*flags)
            .output()
            .expect("cfdc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("cfdc {command} {flags:?}");
        assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
        assert!(out.stdout.is_empty(), "{what} printed a result");
        assert_eq!(
            stderr.trim_end(),
            format!("error: option '{first}' does not apply to 'cfdc {command}'"),
            "{what}"
        );
    }
}

/// An unknown `--emit` kind used to be noticed only after the compile:
/// `cfdc compile helmholtz:4 --emit bogus` compiled and then exited 2,
/// and a source that fails to compile exited 1 with its compile error.
/// The kind is now checked while the flags are parsed, before any
/// compile: one line, exit 2, nothing on stdout, for either source.
#[test]
fn an_unknown_emit_kind_exits_two_before_compiling() {
    let path = std::env::temp_dir().join(format!("cfdc-emit-bogus-{}.cfd", std::process::id()));
    std::fs::write(&path, "").unwrap();
    for source in ["helmholtz:4", path.to_str().unwrap()] {
        let out = Command::new(env!("CARGO_BIN_EXE_cfdc"))
            .args(["compile", source, "--emit", "bogus"])
            .output()
            .expect("cfdc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{source}: {stderr}");
        assert!(out.stdout.is_empty(), "{source} printed a result");
        assert_eq!(
            stderr.trim_end(),
            "error: invalid value 'bogus' for --emit: expected c | host | ir | dot | report \
             | memory | all"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

/// `--priority 300` said "expected a tier count >= 1", though 300 is one;
/// the limit is the `u8` tier index. A count past its type now names
/// the range it must lie in, for `--priority` and `--retries` (`u32`).
#[test]
fn a_count_past_its_type_names_the_range() {
    for (flag, value, expected) in [
        ("--priority", "300", "a tier count in 1..=255"),
        ("--priority", "0", "a tier count in 1..=255"),
        (
            "--retries",
            "4294967296",
            "a retry cap in 0..=4294967295 (0 = fail on first fault)",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cfdc"))
            .args(["serve", "axpy:2", "--requests", "8", flag, value])
            .output()
            .expect("cfdc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} {value} printed a result");
        assert_eq!(
            stderr.trim_end(),
            format!("error: invalid value '{value}' for {flag}: expected {expected}")
        );
    }
}

/// Run `cfdc args` and return (exit status, stdout, stderr).
fn cfdc(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cfdc"))
        .args(args)
        .output()
        .expect("cfdc runs");
    (
        out.status.code(),
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

/// `cfdc boards --bogus` and `cfdc boards extra` used to print the
/// catalog and exit 0. `boards` reads no option, so any argument is the
/// usual one-line error with exit status 2.
#[test]
fn boards_arguments_exit_two_with_one_line() {
    for (args, message) in [
        (
            &["boards", "--bogus"][..],
            "error: unknown option '--bogus'",
        ),
        (&["boards", "extra"], "error: unknown option 'extra'"),
        (
            &["boards", "--board", "zcu106"],
            "error: option '--board' does not apply to 'cfdc boards'",
        ),
    ] {
        let (status, stdout, stderr) = cfdc(args);
        assert_eq!(status, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} printed the catalog");
        assert_eq!(stderr.trim_end(), message, "{args:?}");
    }
    let (status, stdout, _) = cfdc(&["boards"]);
    assert_eq!(status, Some(0));
    assert!(stdout.starts_with("platform catalog"), "{stdout}");
}

/// `cfdc cache stats` without `--cache-dir` said "option '--cache-dir'
/// needs a value", though the option was never given. It is now a
/// missing required option, named with its value; a given option
/// without its value keeps the old message.
#[test]
fn cache_without_its_directory_names_the_missing_option() {
    for sub in ["stats", "clear"] {
        let (status, stdout, stderr) = cfdc(&["cache", sub]);
        assert_eq!(status, Some(2), "{sub}: {stderr}");
        assert!(stdout.is_empty(), "{sub} printed a result");
        assert_eq!(
            stderr.trim_end(),
            "error: missing required option '--cache-dir PATH'"
        );
    }
    let (status, _, stderr) = cfdc(&["cache", "stats", "--cache-dir"]);
    assert_eq!(status, Some(2));
    assert_eq!(
        stderr.trim_end(),
        "error: option '--cache-dir' needs a value"
    );
    let (status, _, stderr) = cfdc(&["cache", "stats", "--json"]);
    assert_eq!(status, Some(2));
    assert_eq!(
        stderr.trim_end(),
        "error: option '--json' does not apply to 'cfdc cache'"
    );
}

/// `cfdc --help`, `-h` and `help` used to print the usage on stderr
/// and exit 2. Asked for, it goes to stdout with exit status 0. A
/// missing or unknown command, or a command without its source, still
/// prints it on stderr with exit status 2.
#[test]
fn help_goes_to_stdout_and_usage_errors_to_stderr() {
    let (status, help, stderr) = cfdc(&["--help"]);
    assert_eq!(status, Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
    assert!(help.starts_with("cfdc — CFDlang-to-FPGA flow\n"), "{help}");
    assert!(help.contains("--cache-dir PATH"), "{help}");
    for asked in ["-h", "help"] {
        assert_eq!(cfdc(&[asked]), (Some(0), help.clone(), String::new()));
    }
    for (args, first_line) in [
        (&[][..], "cfdc — CFDlang-to-FPGA flow"),
        (&["bogus"], "unknown command 'bogus'"),
        (&["compile"], "cfdc — CFDlang-to-FPGA flow"),
        (&["serve"], "cfdc — CFDlang-to-FPGA flow"),
    ] {
        let (status, stdout, stderr) = cfdc(args);
        assert_eq!(status, Some(2), "{args:?}");
        assert!(stdout.is_empty(), "{args:?} printed on stdout");
        assert_eq!(stderr.lines().next(), Some(first_line), "{args:?}");
        assert!(stderr.ends_with(&help), "{args:?}: {stderr}");
    }
}

/// `cfdc serve ... --json | head -1`: the report (about 3 MB, far past
/// a 64 KiB pipe buffer) meets a closed pipe after its first line.
/// `cfdc` used to panic there (`failed printing to stdout`, exit 101);
/// it now ends quietly.
#[test]
fn a_closed_stdout_ends_cfdc_without_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cfdc"))
        .args(["serve", "helmholtz:4", "--requests", "20000", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cfdc runs");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert_eq!(first, "{\n");
    drop(stdout);
    let out = child.wait_with_output().expect("cfdc exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
