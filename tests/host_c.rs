//! `host.c` is C, and it runs the rounds the simulator prices. Each
//! program's `host.c` is built with `cfd_driver.h` and a recording stub
//! driver under `cc -std=c99 -Wall -Wextra -Werror`, run over padded
//! buffers of `rounds × m` elements, and its driver calls are checked
//! against the system: every transfer stays inside the buffers, moves
//! `m` elements' bytes, there is one per round of `simulate_program`,
//! and each round starts and waits for every stage's batches. A missing
//! `cc` fails the test.

use cfdfpga::flow::{ProgramFlow, ProgramOptions};
use cfdfpga::sysgen::{Platform, ProgramSystemConfig};
use cfdfpga::zynq::SimConfig;
use std::path::Path;
use std::process::Command;

/// A driver that checks nothing and prints one line per call: `W`/`R`
/// with the offset (in doubles) into `in`/`out` and the byte count, `S`
/// with the register and value, `I` for an interrupt wait.
const STUB_DRIVER: &str = r#"#include <stdio.h>
#include <stdlib.h>
#include "cfd_driver.h"

static const double *g_in;
static double *g_out;

void dma_write(const double *src, size_t bytes) {
    printf("W %td %zu\n", src - g_in, bytes);
}

void dma_read(double *dst, size_t bytes) {
    printf("R %td %zu\n", dst - g_out, bytes);
}

void axi_lite_write(size_t reg, unsigned value) {
    printf("S %zu %u\n", reg, value);
}

void wait_for_interrupt(void) {
    printf("I\n");
}

int main(int argc, char **argv) {
    double *in, *out;
    if (argc != 3) {
        return 2;
    }
    in = calloc(strtoul(argv[1], NULL, 10) + 1, sizeof *in);
    out = calloc(strtoul(argv[2], NULL, 10) + 1, sizeof *out);
    if (!in || !out) {
        return 3;
    }
    g_in = in;
    g_out = out;
    run_simulation(in, out);
    free(in);
    free(out);
    return 0;
}
"#;

/// Build `host.c` against the stub in `dir` and run it over buffers of
/// `in_words` and `out_words` doubles; the recorded calls.
fn build_and_run(dir: &Path, host_c: &str, in_words: usize, out_words: usize) -> Vec<String> {
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("host.c"), host_c).unwrap();
    std::fs::write(dir.join("cfd_driver.h"), cfdfpga::sysgen::CFD_DRIVER_H).unwrap();
    std::fs::write(dir.join("stub.c"), STUB_DRIVER).unwrap();
    let exe = dir.join("host");
    let cc = Command::new("cc")
        .args([
            "-std=c99", "-Wall", "-Wextra", "-Werror", "host.c", "stub.c", "-o",
        ])
        .arg(&exe)
        .current_dir(dir)
        .output()
        .expect("`cc` must be on PATH: host.c's build contract is cc -std=c99");
    assert!(
        cc.status.success(),
        "cc rejects host.c:\n{}\n{host_c}",
        String::from_utf8_lossy(&cc.stderr)
    );
    let run = Command::new(&exe)
        .args([in_words.to_string(), out_words.to_string()])
        .output()
        .expect("host program runs");
    assert!(run.status.success(), "{run:?}");
    String::from_utf8(run.stdout)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn host_c_compiles_and_runs_the_simulated_rounds() {
    use cfdfpga::cfdlang::examples as ex;
    const ELEMENTS: usize = 1_001;
    let root = std::env::temp_dir().join(format!("cfdfpga-host-c-{}", std::process::id()));
    // The automatic replications on the zcu106 (k = m), one with k < m
    // batches, and the zcu102's per-stage pick for simstep:7, whose
    // middle stage runs two batches a round.
    let batched = ProgramSystemConfig::uniform(2, 8, 3);
    let (zcu106, zcu102) = (Platform::zcu106(), Platform::zcu102());
    for (what, src, system, platform) in [
        ("helmholtz:4", ex::inverse_helmholtz(4), None, &zcu106),
        ("simstep:4", ex::simulation_step(4), None, &zcu106),
        ("axpychain:4", ex::axpy_chain(4), None, &zcu106),
        (
            "simstep:4 --k 2 --m 8",
            ex::simulation_step(4),
            Some(batched),
            &zcu106,
        ),
        (
            "simstep:7 --board zcu102",
            ex::simulation_step(7),
            None,
            &zcu102,
        ),
    ] {
        let mut opts = ProgramOptions {
            system,
            ..ProgramOptions::default()
        };
        opts.flow.platform = platform.clone();
        opts.flow.hls.clock_mhz = platform.default_clock_mhz;
        opts.flow.elements = ELEMENTS;
        let art = ProgramFlow::compile(&src, &opts).unwrap();
        let sys = art.system.as_ref().expect("a system fits");
        if platform == &zcu102 {
            assert_eq!(sys.config.ks, [32, 16, 32], "{what}");
        }
        let (m, host) = (sys.config.m, &sys.host);
        assert_ne!(ELEMENTS % m, 0, "{what}: the last round must be partial");
        let sim = SimConfig {
            elements: ELEMENTS,
            ..SimConfig::default()
        };
        let rounds = art.simulate(&sim).unwrap().rounds;
        let (bytes_in, bytes_out) = (
            host.bytes_in_per_element * m,
            host.bytes_out_per_element * m,
        );
        // The padded buffers: rounds × m elements each.
        let in_words = rounds * m * host.bytes_in_per_element / 8;
        let out_words = rounds * m * host.bytes_out_per_element / 8;
        let calls = build_and_run(
            &root.join(what.replace([':', ' ', '-'], "_")),
            &art.host_source,
            in_words,
            out_words,
        );

        let (mut writes, mut reads, mut waits) = (0, 0, 0);
        let mut starts: Vec<(String, usize)> = Vec::new();
        for call in &calls {
            let f: Vec<&str> = call.split(' ').collect();
            match f[..] {
                [dir @ ("W" | "R"), offset, bytes] => {
                    let (offset, bytes): (i64, usize) =
                        (offset.parse().unwrap(), bytes.parse().unwrap());
                    let (len, want, n) = if dir == "W" {
                        (in_words, bytes_in, &mut writes)
                    } else {
                        (out_words, bytes_out, &mut reads)
                    };
                    assert_eq!(bytes, want, "{what}: {call}");
                    assert!(
                        offset >= 0 && offset as usize + bytes / 8 <= len,
                        "{what}: {call} leaves a buffer of {len} doubles"
                    );
                    *n += 1;
                }
                ["S", reg, "1"] => match starts.iter_mut().find(|(r, _)| r == reg) {
                    Some((_, n)) => *n += 1,
                    None => starts.push((reg.to_string(), 1)),
                },
                ["I"] => waits += 1,
                _ => panic!("{what}: unexpected call {call}"),
            }
        }
        assert_eq!((writes, reads), (rounds, rounds), "{what}");
        // One start register per stage, in chain order, each started
        // batch(i) times per round.
        assert_eq!(starts.len(), sys.stages.len(), "{what}: {starts:?}");
        for (i, (_, n)) in starts.iter().enumerate() {
            assert_eq!(*n, rounds * sys.config.batch(i), "{what}: stage {i}");
        }
        let batches: usize = (0..sys.stages.len()).map(|i| sys.config.batch(i)).sum();
        assert_eq!(waits, rounds * batches, "{what}");
    }
    std::fs::remove_dir_all(&root).unwrap();
}
