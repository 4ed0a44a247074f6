//! `cfdc` turns a source without a statement into a one-line compile
//! error with exit status 1, for every subcommand that compiles it.

use std::process::Command;

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
