//! Golden-snapshot tests for `cfdc`'s machine-readable surfaces.
//!
//! Each test runs the real binary (`CARGO_BIN_EXE_cfdc`) and compares
//! its output against a committed fixture under `tests/snapshots/`.
//! JSON surfaces are compared **structurally**: the set of key paths
//! (with scalar/array/object kinds) must match exactly, so renaming or
//! dropping a key fails loudly in CI while numeric values — timings,
//! throughputs — are free to drift. The `boards` listing is plain text
//! and compared byte for byte.
//!
//! The `explore` sweeps are also compared **by value**: the
//! `tests/golden/explore_*.json` files at the workspace root are `cfdc
//! explore … --jobs 1 --json --elements 2000` as commit 9736267 printed
//! it — the last commit that built every design point's system — with
//! the wall-clock fields masked ([`mask_timings`]). A sweep must
//! reproduce them at any `--jobs`; they are never regenerated.
//!
//! Regenerate after an intentional schema change with:
//!
//! ```sh
//! UPDATE_SNAPSHOTS=1 cargo test -p cfd-core --test snapshots
//! ```

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

// ---------------------------------------------------------------------
// A minimal JSON reader (the dependency set has no serde_json): just
// enough to extract the structural shape of cfdc's hand-rolled output.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Scalar,
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Reader<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Reader<'a> {
    fn new(s: &'a str) -> Reader<'a> {
        Reader {
            s: s.as_bytes(),
            i: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.i < self.s.len() && (self.s[self.i] as char).is_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.s
            .get(self.i)
            .copied()
            .ok_or_else(|| "unexpected end of JSON".to_string())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != c {
            return Err(format!(
                "expected '{}' at byte {}, found '{}'",
                c as char, self.i, got as char
            ));
        }
        self.i += 1;
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.i;
        while self.i < self.s.len() && self.s[self.i] != b'"' {
            // cfdc's output never escapes quotes; reject if it starts to.
            if self.s[self.i] == b'\\' {
                return Err("escape sequences unsupported".into());
            }
            self.i += 1;
        }
        let out = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
        self.expect(b'"')?;
        Ok(out)
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                if self.peek()? == b'}' {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    match self.peek()? {
                        b',' => self.i += 1,
                        b'}' => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        c => return Err(format!("expected ',' or '}}', found '{}'", c as char)),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek()? {
                        b',' => self.i += 1,
                        b']' => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        c => return Err(format!("expected ',' or ']', found '{}'", c as char)),
                    }
                }
            }
            b'"' => {
                self.string()?;
                Ok(Json::Scalar)
            }
            _ => {
                // number / true / false / null — consume the token.
                let start = self.i;
                while self.i < self.s.len()
                    && !matches!(self.s[self.i], b',' | b'}' | b']')
                    && !(self.s[self.i] as char).is_whitespace()
                {
                    self.i += 1;
                }
                if self.i == start {
                    return Err(format!("empty scalar at byte {start}"));
                }
                Ok(Json::Scalar)
            }
        }
    }
}

fn parse_json(s: &str) -> Json {
    let mut r = Reader::new(s);
    let v = r
        .value()
        .unwrap_or_else(|e| panic!("unparsable JSON: {e}\n{s}"));
    r.skip_ws();
    assert!(r.i == r.s.len(), "trailing bytes after JSON document");
    v
}

/// The structural shape: every key path with its kind. Array elements
/// all fold into one `[]` segment, so optional/varying rows still
/// contribute their keys.
fn shape(j: &Json, prefix: &str, out: &mut BTreeSet<String>) {
    match j {
        Json::Scalar => {
            out.insert(format!("{prefix}:scalar"));
        }
        Json::Arr(items) => {
            out.insert(format!("{prefix}:array"));
            for it in items {
                shape(it, &format!("{prefix}[]"), out);
            }
        }
        Json::Obj(fields) => {
            out.insert(format!("{prefix}:object"));
            for (k, v) in fields {
                shape(v, &format!("{prefix}.{k}"), out);
            }
        }
    }
}

fn json_shape(s: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    shape(&parse_json(s), "$", &mut out);
    out
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(name)
}

fn run_cfdc(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cfdc"))
        .args(args)
        .output()
        .expect("cfdc runs");
    assert!(
        out.status.success(),
        "cfdc {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

/// Compare (or, with UPDATE_SNAPSHOTS=1, rewrite) a fixture.
fn check_snapshot(name: &str, actual: &str, structural: bool) {
    let path = fixture_path(name);
    if std::env::var("UPDATE_SNAPSHOTS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {path:?} ({e}); run with UPDATE_SNAPSHOTS=1 to create it")
    });
    if structural {
        let want = json_shape(&expected);
        let got = json_shape(actual);
        if want != got {
            let missing: Vec<&String> = want.difference(&got).collect();
            let extra: Vec<&String> = got.difference(&want).collect();
            panic!(
                "JSON structure of {name} changed.\n\
                 Missing vs fixture: {missing:#?}\n\
                 New vs fixture: {extra:#?}\n\
                 If intentional, regenerate with UPDATE_SNAPSHOTS=1."
            );
        }
    } else {
        assert_eq!(
            actual, expected,
            "text snapshot {name} changed; regenerate with UPDATE_SNAPSHOTS=1 if intentional"
        );
    }
}

/// `line` with the number after every `"key": ` for which `masked(key)`
/// holds replaced by `0`.
fn mask_values(line: &str, masked: impl Fn(&str) -> bool) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find("\": ") {
        let (head, tail) = rest.split_at(at + 3);
        let key = head[..at].rsplit('"').next().unwrap_or("");
        let number = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(tail.len());
        out.push_str(head);
        out.push_str(if number > 0 && masked(key) {
            "0"
        } else {
            &tail[..number]
        });
        rest = &tail[number..];
    }
    out + rest
}

/// An `explore` report with what depends on the wall clock masked —
/// `wall_s` — and, with `mask_jobs`, the worker count. The `sed` twin
/// is in `.github/workflows/ci.yml`.
fn mask_timings(json: &str, mask_jobs: bool) -> String {
    let mut out = String::with_capacity(json.len());
    for line in json.lines() {
        out += &mask_values(line, |key| key == "wall_s" || (mask_jobs && key == "jobs"));
        out.push('\n');
    }
    out
}

fn explore_golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("golden {path:?}: {e}"))
}

/// A kernel's and a program's `--grid` and `--boards all` sweeps print
/// the values the build-every-point sweep printed, at one worker and at
/// eight. The `--grid` goldens are in the portfolio format since
/// `--grid` became the one-board, one-clock portfolio; every row's `k`
/// … `service_p99_s` fields are the build-every-point sweep's.
#[test]
fn explore_reports_reproduce_the_parent_written_goldens() {
    for (kernel, stem) in [("helmholtz:11", "helmholtz11"), ("simstep:7", "simstep7")] {
        for (mode, what) in [
            (&["--grid"][..], "grid"),
            (&["--boards", "all"][..], "portfolio"),
        ] {
            let golden = explore_golden(&format!("explore_{what}_{stem}.json"));
            for jobs in ["1", "8"] {
                let mut args = vec!["explore", kernel];
                args.extend_from_slice(mode);
                args.extend_from_slice(&["--jobs", jobs, "--json", "--elements", "2000"]);
                let got = mask_timings(&run_cfdc(&args), true);
                assert!(
                    got == mask_timings(&golden, true),
                    "cfdc {args:?} no longer prints tests/golden/explore_{what}_{stem}.json"
                );
            }
        }
    }
}

/// `tests/golden/compile_catalog.sh` (every `--emit all` file of the
/// builtin kernels over five flag sets and three boards, hashed)
/// prints the manifest committed beside it.
#[test]
fn compile_catalog_reproduces_the_committed_manifest() {
    let script =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/compile_catalog.sh");
    let out = Command::new("bash")
        .arg(&script)
        .arg(env!("CARGO_BIN_EXE_cfdc"))
        .output()
        .expect("bash runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("utf8 manifest");
    assert!(
        got == explore_golden("compile_catalog.sha256"),
        "cfdc compile --emit all no longer writes tests/golden/compile_catalog.sha256"
    );
}

/// `tests/golden/kernel_cli.sh` (the `explore` listing, `simulate`,
/// `verify` and `compile --emit report|host` of single-kernel sources,
/// which print as their one-kernel programs) prints the transcript
/// committed beside it.
#[test]
fn kernel_cli_reproduces_the_committed_transcript() {
    let script = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/kernel_cli.sh");
    let out = Command::new("bash")
        .arg(&script)
        .arg(env!("CARGO_BIN_EXE_cfdc"))
        .output()
        .expect("bash runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("utf8 transcript");
    assert!(
        got == explore_golden("kernel_cli.txt"),
        "cfdc's single-kernel runs no longer print tests/golden/kernel_cli.txt"
    );
}

/// A table's first line with its wall-clock `{:.3} s` field, the one
/// figure that depends on the host, written `T s`.
fn mask_table_wall_clock(table: &str) -> String {
    let mut out = String::with_capacity(table.len());
    for line in table.lines() {
        match line.split_once(" jobs, ") {
            Some((head, tail)) if line.starts_with("portfolio: ") => {
                let (_, rest) = tail.split_once(" s, ").unwrap_or(("", tail));
                out += &format!("{head} jobs, T s, {rest}");
            }
            _ => out += line,
        }
        out.push('\n');
    }
    out
}

/// `tests/golden/explore_tables.txt` is the text table, platform
/// summaries and frontier sections of a kernel's `--grid` sweep and a
/// program's `--boards all` portfolio, as the parent of the change that
/// moved the frontier sections into `PortfolioReport::render_table`
/// printed them (wall clock masked by [`mask_table_wall_clock`]):
///
/// ```sh
/// for args in "helmholtz:11 --grid" "simstep:7 --boards all"; do
///     echo "=== cfdc explore $args --jobs 1 --elements 2000 ==="
///     cfdc explore $args --jobs 1 --elements 2000
/// done | sed -E 's/^(portfolio: .* jobs, )[0-9]+\.[0-9]{3} s,/\1T s,/'
/// ```
#[test]
fn explore_tables_reproduce_the_committed_transcript() {
    let mut got = String::new();
    for args in [
        &["helmholtz:11", "--grid"][..],
        &["simstep:7", "--boards", "all"],
    ] {
        let mut args = [&["explore"][..], args].concat();
        args.extend_from_slice(&["--jobs", "1", "--elements", "2000"]);
        got += &format!("=== cfdc {} ===\n", args.join(" "));
        got += &mask_table_wall_clock(&run_cfdc(&args));
    }
    assert!(
        got == explore_golden("explore_tables.txt"),
        "cfdc explore's text tables no longer print tests/golden/explore_tables.txt"
    );
}

/// A sweep's report does not depend on the worker count: rows are
/// placed by combination index, so which of two tied points carries a
/// Pareto flag cannot depend on thread timing.
#[test]
fn sweeps_are_identical_at_any_worker_count() {
    use cfd_core::dse::{DseEngine, DseGrid};
    let catalog = sysgen::Platform::catalog();
    let grid = DseGrid::default();
    let single = DseEngine::prepare(
        &cfdlang::examples::inverse_helmholtz(5),
        &cfd_core::FlowOptions::default(),
    )
    .unwrap();
    let program = DseEngine::prepare(
        &cfdlang::examples::simulation_step(4),
        &cfd_core::ProgramOptions::default(),
    )
    .unwrap();
    // What `cfdc explore --grid` sweeps: the default board at its one
    // default clock.
    let zcu106 = sysgen::Platform::zcu106();
    let board = [sysgen::Platform {
        clock_ladder_mhz: vec![zcu106.default_clock_mhz],
        ..zcu106
    }];
    let reports = |jobs: usize| {
        [
            single.run_portfolio(&board, &grid, jobs, 500).to_json(),
            single.run_portfolio(&catalog, &grid, jobs, 500).to_json(),
            program.run_portfolio(&board, &grid, jobs, 500).to_json(),
            program.run_portfolio(&catalog, &grid, jobs, 500).to_json(),
        ]
        .map(|json| mask_timings(&json, true))
    };
    let serial = reports(1);
    for jobs in [2, 8] {
        let parallel = reports(jobs);
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert!(a == b, "report {i} differs at {jobs} workers");
        }
    }
}

/// 64-bit FNV-1a.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The benchmark's dense sweep — helmholtz:11 over 11 replications
/// (3, 5, 6, 7, 10, 12 and 16 among them), batch 1, 2 and 4, sharing,
/// decoupling and partition 1 and 2, on every catalog board and ladder
/// clock: 4 488 rows — prints, timings masked, the bytes the parent
/// commit's sweep printed, less the `"polyhedra"` counter line that left
/// the reports with the oracle. Only the default 32-point grid has
/// goldens on disk; this pins the rest of the grid by hash.
#[test]
fn dense_portfolio_reproduces_the_parent_hash() {
    use cfd_core::dse::{DseEngine, DseGrid};
    let dense = DseGrid {
        k: vec![1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16],
        batch: vec![1, 2, 4],
        sharing: vec![true, false],
        decoupled: vec![true, false],
        partition: vec![1, 2],
    };
    let engine = DseEngine::prepare(
        &cfdlang::examples::inverse_helmholtz(11),
        &cfd_core::FlowOptions::default(),
    )
    .unwrap();
    let report = engine.run_portfolio(&sysgen::Platform::catalog(), &dense, 1, 2_000);
    assert_eq!(report.evaluated, 4_488);
    let json = mask_timings(&report.to_json(), false);
    assert_eq!(
        format!("{:016x}", fnv64(json.as_bytes())),
        "a70244f8ecf43a52",
        "the dense helmholtz:11 portfolio changed"
    );
}

#[test]
fn mask_timings_masks_the_wall_clock_and_nothing_else() {
    let json = "{\n  \"jobs\": 4,\n  \"wall_s\": 0.123,\n  \
                \"backend_cache\": {\"compiles\": 12, \"reuses\": 20},\n  \
                \"outcomes\": [\n    {\"k\": 2, \"total_s\": 0.326863, \"service_p99_s\": 0.000021}\n  ]\n}\n";
    let want = json.replace("\"wall_s\": 0.123", "\"wall_s\": 0");
    assert_eq!(mask_timings(json, false), want);
    assert_eq!(
        mask_timings(json, true),
        want.replace("\"jobs\": 4", "\"jobs\": 0")
    );
}

#[test]
fn explore_grid_json_schema_is_stable() {
    let out = run_cfdc(&[
        "explore",
        "helmholtz:4",
        "--grid",
        "--json",
        "--elements",
        "500",
        "--jobs",
        "2",
    ]);
    check_snapshot("explore_grid.json", &out, true);
    // Spot-check the keys the CI jobs and bench tooling grep for.
    for key in ["\"outcomes\"", "\"service_rps\"", "\"backend_cache\""] {
        assert!(out.contains(key), "missing {key}");
    }
}

#[test]
fn portfolio_json_schema_is_stable() {
    let out = run_cfdc(&[
        "explore",
        "helmholtz:4",
        "--boards",
        "all",
        "--json",
        "--elements",
        "500",
        "--jobs",
        "2",
    ]);
    check_snapshot("explore_portfolio.json", &out, true);
    for key in [
        "\"pareto_frontier\"",
        "\"service_frontier\"",
        "\"platforms\"",
    ] {
        assert!(out.contains(key), "missing {key}");
    }
}

#[test]
fn serve_json_schema_is_stable() {
    let out = run_cfdc(&[
        "serve",
        "simstep:4",
        "--requests",
        "8",
        "--seed",
        "7",
        "--json",
    ]);
    check_snapshot("serve.json", &out, true);
    for key in ["\"throughput_rps\"", "\"latency\"", "\"traces\""] {
        assert!(out.contains(key), "missing {key}");
    }
}

#[test]
fn serve_faults_json_schema_is_stable() {
    // An armed fault plan with the full recovery policy: the reliability
    // and fault sections plus the per-trace outcome fields must all be
    // present and stay stable.
    let out = run_cfdc(&[
        "serve",
        "simstep:4",
        "--requests",
        "8",
        "--seed",
        "7",
        "--faults",
        "7:transient=0.2,corrupt=0.1",
        "--retries",
        "6",
        "--backoff",
        "0.0001",
        "--deadline",
        "5",
        "--json",
    ]);
    check_snapshot("serve_faults.json", &out, true);
    for key in [
        "\"reliability\"",
        "\"goodput_rps\"",
        "\"faults\"",
        "\"outcome\"",
        "\"attempts\"",
    ] {
        assert!(out.contains(key), "missing {key}");
    }
}

#[test]
fn boards_listing_is_stable() {
    // Pure catalog data — deterministic, compared byte for byte.
    let out = run_cfdc(&["boards"]);
    check_snapshot("boards.txt", &out, false);
}

#[test]
fn structural_compare_catches_renames() {
    // The comparator itself: a renamed key must be a detected diff.
    let a = r#"{"requests": 3, "latency": {"p99_s": 0.5}, "rows": [{"id": 1}, {"id": 2}]}"#;
    let b = r#"{"requests": 9, "latency": {"p99_s": 1.5}, "rows": [{"id": 7}]}"#;
    let c = r#"{"request_count": 3, "latency": {"p99_s": 0.5}, "rows": [{"id": 1}]}"#;
    assert_eq!(json_shape(a), json_shape(b), "value drift must not trip");
    assert_ne!(json_shape(a), json_shape(c), "key rename must trip");
}
