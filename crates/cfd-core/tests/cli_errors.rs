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
