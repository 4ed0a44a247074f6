//! The emitted kernel C is the artifact, and it runs bit-exact. Every
//! kernel `.c` (`Artifacts::c_source`) and stage `.c`
//! (`ProgramArtifacts::stage_c_source`) of the six example programs,
//! under the default flow and `--no-factorize`, compiles under the
//! kernel `.c` flag contract, `cc -std=c99 -O2 -ffp-contract=off -Wall
//! -Wextra -Werror`, whose `cc -std=c99 -ffp-contract=off` each source
//! names in its header comment. A generated `main.c` then marshals the
//! parameters exactly as `zynq::run_program_chain` does: every kernel
//! input is the latest earlier kernel's output of that name, else the
//! external tensor; every other parameter starts at zero. Its outputs
//! must equal `run_program_reference` bit for bit on three seeds, once
//! through the stage objects and once through the kernel objects. The
//! same holds for the first tenth of the generated programs of
//! `common/` (`CFD_GENERATED_PROGRAMS / 10`, 20 by default) under the
//! default flow. A missing `cc` fails the test.

mod common;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use cfdfpga::flow::{FlowOptions, ProgramArtifacts, ProgramFlow, ProgramOptions};
use cfdfpga::teil::TensorKind;
use cfdfpga::zynq::{random_program_inputs, run_program_reference};

/// The kernel `.c` flag contract.
const CFLAGS: [&str; 6] = [
    "-std=c99",
    "-O2",
    "-ffp-contract=off",
    "-Wall",
    "-Wextra",
    "-Werror",
];

const SEEDS: [u64; 3] = [1, 7, 2021];

/// Run `cc` with the flag contract plus `args` in `dir`; panics with the
/// compiler's diagnostics when it fails.
fn cc(dir: &Path, args: &[&str]) {
    let out = Command::new("cc")
        .args(CFLAGS)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("`cc` must be on PATH: the kernel .c contract is cc -std=c99 -ffp-contract=off");
    assert!(
        out.status.success(),
        "cc {args:?} in {}:\n{}",
        dir.display(),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A harness array holding a kernel's output: its C name and length.
struct Slot {
    c: String,
    words: usize,
}

/// The harness for one program: `main.c` and what it reads and writes.
struct Harness {
    main_c: String,
    /// The external tensors `main` reads from stdin, in order, with the
    /// words each must have.
    loads: Vec<(String, usize)>,
    /// The `"kernel.tensor"` outputs `main` writes to stdout, in order.
    stores: Vec<(String, usize)>,
}

/// `main.c` calling `symbols[i]` for kernel `i`, with the parameters
/// marshalled as `zynq::run_program_chain` does.
fn harness(art: &ProgramArtifacts, symbols: &[String]) -> Harness {
    let mut decls = String::new();
    let mut body = String::new();
    let mut loads = Vec::new();
    let mut stores = Vec::new();
    // Latest producer of each tensor name: the handoff buffers.
    let mut produced: HashMap<String, Slot> = HashMap::new();
    for (i, (k, symbol)) in art.kernels.iter().zip(symbols).enumerate() {
        let slot = |name: &str| format!("k{i}_{name}");
        let params = &k.kernel.params;
        for p in params {
            writeln!(decls, "static double {}[{}];", slot(&p.name), p.words).unwrap();
        }
        let protos: Vec<String> = params.iter().map(|_| "double *restrict".into()).collect();
        writeln!(decls, "void {symbol}({});", protos.join(", ")).unwrap();
        let module = &k.module;
        for id in module.of_kind(TensorKind::Input) {
            let name = module.name(id);
            let p = (params.iter().find(|p| p.name == name))
                .unwrap_or_else(|| panic!("input '{name}' is a parameter of kernel {i}"));
            match produced.get(name) {
                Some(from) => {
                    assert_eq!(from.words, p.words, "handoff '{name}'");
                    writeln!(
                        body,
                        "\tmemcpy({}, {}, sizeof {});",
                        slot(name),
                        from.c,
                        from.c
                    )
                    .unwrap();
                }
                None => {
                    writeln!(body, "\tload({}, {});", slot(name), p.words).unwrap();
                    loads.push((name.to_string(), p.words));
                }
            }
        }
        let args: Vec<String> = params.iter().map(|p| slot(&p.name)).collect();
        writeln!(body, "\t{symbol}({});", args.join(", ")).unwrap();
        for id in module.of_kind(TensorKind::Output) {
            let name = module.name(id);
            let p = (params.iter().find(|p| p.name == name))
                .unwrap_or_else(|| panic!("output '{name}' is a parameter of kernel {i}"));
            writeln!(body, "\tstore({}, {});", slot(name), p.words).unwrap();
            stores.push((format!("{}.{name}", art.names[i]), p.words));
            let latest = Slot {
                c: slot(name),
                words: p.words,
            };
            produced.insert(name.to_string(), latest);
        }
    }
    let main_c = format!(
        "#include <stdio.h>\n#include <stdlib.h>\n#include <string.h>\n\n\
         static void load(double *a, size_t n) {{\n\
         \tif (fread(a, sizeof *a, n, stdin) != n) exit(2);\n}}\n\n\
         static void store(const double *a, size_t n) {{\n\
         \tif (fwrite(a, sizeof *a, n, stdout) != n) exit(3);\n}}\n\n\
         {decls}\nint main(void) {{\n{body}\treturn 0;\n}}\n"
    );
    Harness {
        main_c,
        loads,
        stores,
    }
}

/// Run the harness `exe` in `dir` on every seed's inputs and compare
/// each output word with the reference interpreter.
fn run_against_reference(art: &ProgramArtifacts, dir: &Path, what: &str, h: &Harness, exe: &str) {
    let modules: Vec<&cfdfpga::teil::Module> = art.kernels.iter().map(|k| &*k.module).collect();
    for seed in SEEDS {
        let external = random_program_inputs(&modules, seed);
        let expect = run_program_reference(&art.names, &modules, &external).unwrap();
        let mut stdin = Vec::new();
        for (name, words) in &h.loads {
            let data = &external[name].data;
            assert_eq!(data.len(), *words, "{what}: input '{name}'");
            stdin.extend(data.iter().flat_map(|v| v.to_le_bytes()));
        }
        let mut child = Command::new(dir.join(exe))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("the harness runs");
        child.stdin.take().unwrap().write_all(&stdin).unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "{what} {exe}: {:?}", out.status);
        let mut words = out
            .stdout
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()).to_bits());
        assert_eq!(expect.len(), h.stores.len(), "{what}: output set");
        for (key, n) in &h.stores {
            let want = &expect[key].data;
            assert_eq!(want.len(), *n, "{what}: output '{key}'");
            for (w, want) in want.iter().enumerate() {
                let got = words.next().expect("the harness wrote every output");
                assert_eq!(
                    got,
                    want.to_bits(),
                    "{what} {exe} seed {seed}: '{key}'[{w}] is {} not {want}",
                    f64::from_bits(got)
                );
            }
        }
        assert!(words.next().is_none(), "{what}: trailing output");
    }
}

/// Compile every kernel and stage `.c` of `art` and check both chains.
fn check_program(root: &Path, what: &str, art: &ProgramArtifacts) {
    let dir: PathBuf = root.join(what.replace([':', ' ', '-'], "_"));
    std::fs::create_dir_all(&dir).unwrap();
    // Stage sources carry program-unique symbols; the kernel sources all
    // define their kernel's own symbol, so each is renamed on the
    // command line to link beside the others.
    let mut stage_objs = Vec::new();
    let mut kernel_objs = Vec::new();
    let mut stage_syms = Vec::new();
    let mut kernel_syms = Vec::new();
    for (i, k) in art.kernels.iter().enumerate() {
        // Each source names the contract it is built under here.
        let source = art.stage_c_source(i);
        assert!(
            source.contains(" * build contract: cc -std=c99 -ffp-contract=off */"),
            "{what}: stage {i} does not name its build contract"
        );
        let stage = format!("stage{i}.c");
        std::fs::write(dir.join(&stage), source).unwrap();
        cc(&dir, &["-c", &stage]);
        stage_objs.push(format!("stage{i}.o"));
        stage_syms.push(format!("{}_body", art.names[i]));

        let kernel = format!("kernel{i}.c");
        std::fs::write(dir.join(&kernel), &k.c_source).unwrap();
        let symbol = format!("kernel{i}_{}", k.kernel.name);
        let rename = format!("-D{}={symbol}", k.kernel.name);
        cc(&dir, &["-c", &rename, &kernel]);
        kernel_objs.push(format!("kernel{i}.o"));
        kernel_syms.push(symbol);
    }
    for (exe, symbols, objects) in [
        ("stages", &stage_syms, &stage_objs),
        ("kernels", &kernel_syms, &kernel_objs),
    ] {
        let h = harness(art, symbols);
        let main = format!("{exe}_main.c");
        std::fs::write(dir.join(&main), &h.main_c).unwrap();
        let mut args: Vec<&str> = vec![&main];
        args.extend(objects.iter().map(String::as_str));
        args.extend(["-o", exe]);
        cc(&dir, &args);
        run_against_reference(art, &dir, what, &h, exe);
    }
}

#[test]
fn emitted_kernel_c_runs_bit_exact_against_the_reference() {
    use cfdfpga::cfdlang::examples as ex;
    let root = std::env::temp_dir().join(format!("cfdfpga-kernel-c-{}", std::process::id()));
    let programs = [
        ("helmholtz:4", ex::inverse_helmholtz(4)),
        ("interpolation:4:6", ex::interpolation(4, 6)),
        ("sandwich:4", ex::matrix_sandwich(4)),
        ("axpy:4", ex::axpy(4)),
        ("simstep:4", ex::simulation_step(4)),
        ("axpychain:4", ex::axpy_chain(4)),
    ];
    let mut checked = 0;
    for (name, src) in &programs {
        for factorize in [true, false] {
            let opts = ProgramOptions::from(FlowOptions {
                factorize,
                ..FlowOptions::default()
            });
            let art = ProgramFlow::compile(src, &opts).unwrap();
            let what = format!("{name}{}", if factorize { "" } else { " --no-factorize" });
            check_program(&root, &what, &art);
            checked += art.kernels.len();
        }
    }
    // simstep has three stages and axpychain two.
    assert_eq!(checked, 2 * (1 + 1 + 1 + 1 + 3 + 2));
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn generated_programs_kernel_c_runs_bit_exact_against_the_reference() {
    let root = std::env::temp_dir().join(format!("cfdfpga-kernel-c-gen-{}", std::process::id()));
    let mut cov = common::Coverage::default();
    let count = common::program_count() / 10;
    for seed in 0..count {
        let (source, _) = common::program(seed, &mut cov);
        let art = ProgramFlow::compile(&source, &ProgramOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed}: compile failed: {e}\n{source}"));
        check_program(&root, &format!("generated {seed}"), &art);
    }
    if count > 0 {
        std::fs::remove_dir_all(&root).unwrap();
    }
}
