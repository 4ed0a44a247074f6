//! Generated programs as the correctness engine: the seeded generator
//! of `common/` writes cfdlang sources the six examples never reach.
//!
//! Every program compiles with and without factorization, multi-kernel
//! programs also without cross-kernel sharing, on every catalog board.
//! Wherever a system fits, the compiled kernels must verify bit-exact
//! against the reference interpreter. Every stage's interpreter lane
//! walk must also meet the multi-index walk it replaced, which this
//! compares with nothing else. Every tenth program also goes
//! through the portfolio sweep, which must not depend on its worker
//! count and must rank first on each board a design that compiles to
//! the row's totals and simulated time. `CFD_GENERATED_PROGRAMS` sets
//! the program count (default 200). A failure prints the seed and the
//! program's `pretty_set` source. Apart from that count, 1 000
//! single-edit mutants of generated sources must compile or fail with a
//! structured error on every board, never panic.

mod common;

use cfdfpga::flow::dse::{DseEngine, DseGrid};
use cfdfpga::flow::program::{ProgramArtifacts, ProgramFlow, ProgramOptions};
use cfdfpga::pschedule::LadderCounters;
use cfdfpga::sysgen::{Platform, ProgramSystemConfig};
use cfdfpga::teil::Interpreter;
use cfdfpga::zynq::SimConfig;
use common::{program, program_count, Coverage};

/// Elements each verification runs.
const ELEMENTS: usize = 2;

/// Elements each swept point is simulated with.
const SWEPT_ELEMENTS: usize = 2_000;

/// A portfolio's JSON without the two lines that may differ between
/// worker counts: the wall clock and the worker count itself.
fn without_jobs_and_wall_clock(json: &str) -> String {
    (json.lines())
        .filter(|l| !l.starts_with("  \"wall_s\": ") && !l.starts_with("  \"jobs\": "))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Sweep the `source` of `seed` (`kernels` kernels) over every
/// catalog board and clock on a 16-point grid, at 1 and 3 workers,
/// which must print the same report. Each board's best feasible row must be what compiling
/// that design reports: LUT and BRAM totals, PLM BRAMs and the
/// simulated time, bit for bit. Returns the rows checked.
fn check_sweep(seed: u64, source: &str, kernels: usize, boards: &[Platform]) -> usize {
    let grid = DseGrid {
        k: vec![1, 2],
        batch: vec![1, 2],
        sharing: vec![true, false],
        decoupled: vec![true, false],
        partition: vec![1],
    };
    let engine = DseEngine::prepare(source, &ProgramOptions::default())
        .unwrap_or_else(|e| panic!("seed {seed}: prepare failed: {e}\n{source}"));
    let report = engine.run_portfolio(boards, &grid, 1, SWEPT_ELEMENTS);
    let threaded = engine.run_portfolio(boards, &grid, 3, SWEPT_ELEMENTS);
    assert_eq!(
        without_jobs_and_wall_clock(&report.to_json()),
        without_jobs_and_wall_clock(&threaded.to_json()),
        "seed {seed}: the sweep depends on its worker count\n{source}"
    );
    let mut checked = 0;
    for platform in boards {
        let Some(best) =
            (report.outcomes.iter()).find(|o| o.platform == platform.id && o.outcome.feasible)
        else {
            continue;
        };
        let (row, point) = (&best.outcome, best.outcome.point);
        let at = format!(
            "seed {seed}, {} @ {} MHz, {}",
            platform.id,
            best.clock_mhz,
            point.label()
        );
        let mut opts = ProgramOptions::default();
        opts.flow.platform = platform.clone();
        opts.flow.hls.clock_mhz = best.clock_mhz;
        opts.flow.decoupled = point.decoupled;
        opts.flow.memory.sharing = point.sharing;
        opts.flow.jobs = 1;
        opts.system = Some(ProgramSystemConfig::uniform(point.k, point.m, kernels));
        let art = ProgramFlow::compile(source, &opts)
            .unwrap_or_else(|e| panic!("{at}: compile failed: {e}\n{source}"));
        let system = art.system.as_ref().expect("the swept design fits");
        assert_eq!(
            (system.luts, system.brams, art.memory.brams),
            (row.luts, row.brams, row.plm_brams),
            "{at}: LUTs, BRAMs, PLM BRAMs\n{source}"
        );
        let sim = SimConfig {
            elements: SWEPT_ELEMENTS,
            ..SimConfig::default()
        };
        let total_s = art.simulate(&sim).unwrap().total_s;
        assert_eq!(
            total_s.to_bits(),
            row.total_s.to_bits(),
            "{at}: {total_s} s\n{source}"
        );
        checked += 1;
    }
    checked
}

/// Every stage of `art` through [`Interpreter::run`] (the lane walk) and
/// [`Interpreter::run_reference`] (the multi-index walk) on random
/// inputs: equal operation counts, every tensor equal bit for bit. The
/// bit-exact verification alone would pass if the generated-program
/// executor and the lane walk shared a bug. Returns the stages checked.
fn check_lane_walk(what: &str, art: &ProgramArtifacts, seed: u64) -> usize {
    for (name, stage) in art.names.iter().zip(&art.kernels) {
        let m = &stage.module;
        let inputs = cfdfpga::zynq::random_program_inputs(&[m], seed);
        let interp = Interpreter::new(m);
        let lanes = interp.run(&inputs).unwrap();
        let reference = interp.run_reference(&inputs).unwrap();
        assert_eq!(lanes.stats, reference.stats, "{what}, stage {name}: counts");
        for (id, (a, b)) in lanes.values.iter().zip(&reference.values).enumerate() {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(a.shape, b.shape, "{what}, stage {name}: tensor {id}");
            assert_eq!(
                bits(&a.data),
                bits(&b.data),
                "{what}, stage {name}: tensor {id}"
            );
        }
    }
    art.kernels.len()
}

#[test]
fn generated_programs_verify_bit_exact_on_every_board_they_fit() {
    let mut cov = Coverage::default();
    let mut verified = 0;
    let mut unfit = 0;
    let mut swept = 0;
    let mut lane_checked = 0;
    let boards = Platform::catalog();
    for seed in 0..program_count() {
        let (source, kernels) = program(seed, &mut cov);
        let pretty = || match cfdfpga::cfdlang::parse_set(&source) {
            Ok(set) => cfdfpga::cfdlang::pretty_set(&set),
            Err(_) => source.clone(),
        };
        if seed % 10 == 0 {
            swept += check_sweep(seed, &source, kernels, &boards);
        }
        for factorize in [true, false] {
            let cross = if kernels > 1 {
                &[true, false][..]
            } else {
                &[true]
            };
            for &cross_sharing in cross {
                for platform in &boards {
                    let mut opts = ProgramOptions::default();
                    opts.flow.factorize = factorize;
                    opts.flow.platform = platform.clone();
                    opts.flow.hls.clock_mhz = platform.default_clock_mhz;
                    opts.flow.jobs = 1;
                    opts.cross_sharing = cross_sharing;
                    let what = format!(
                        "seed {seed}, factorize {factorize}, cross-sharing {cross_sharing}, {}",
                        platform.id
                    );
                    let art = ProgramFlow::compile(&source, &opts)
                        .unwrap_or_else(|e| panic!("{what}: compile failed: {e}\n{}", pretty()));
                    // The stages do not depend on the board or on sharing.
                    if cross_sharing && platform.id == boards[0].id {
                        lane_checked += check_lane_walk(&what, &art, seed);
                    }
                    if art.system.is_none() {
                        unfit += 1;
                        continue;
                    }
                    let v = art
                        .verify(ELEMENTS, seed)
                        .unwrap_or_else(|e| panic!("{what}: verify failed: {e}\n{}", pretty()));
                    assert!(
                        v.bitexact,
                        "{what}: not bit-exact (max rel diff {:e})\n{}",
                        v.max_rel_diff,
                        pretty()
                    );
                    verified += 1;
                }
            }
        }
    }
    // The generator must keep reaching what it claims to cover (a run
    // of fewer than 100 programs checks nothing but bit-exactness).
    let n = program_count() as usize;
    assert!(verified >= n, "{verified} verified, {unfit} unfit");
    assert!(swept >= n.div_ceil(10), "{swept} swept rows checked");
    assert!(
        lane_checked >= 2 * n,
        "{lane_checked} stages through both walks"
    );
    if n < 100 {
        return;
    }
    assert!(cov.kernels[1] > 0 && cov.kernels[2] > 0 && cov.kernels[3] > 0);
    assert!(cov.ranks[1..].iter().all(|&r| r > 0), "{cov:?}");
    assert!(
        cov.unit_extents > 0
            && cov.contractions > 0
            && cov.three_operand_products > 0
            && cov.repeated_operands > 0
            && cov.parenthesized_operands > 0
            && cov.chained_contractions > 0
            && cov.scalar_results > 0
            && cov.mixed_statements > 0
            && cov.traces > 0
            && cov.elementwise > 0
            && cov.self_reads > 0
            && cov.pure_self_reads > 0,
        "{cov:?}"
    );
}

/// Never a panic from source text: 1 000 single-edit mutants of
/// generated sources (`common::mutant`), each compiled on every catalog
/// board, end in `Ok` or a structured `Err`. The mutants that compile
/// run the replication search as well.
#[test]
fn mutated_sources_compile_or_fail_without_a_panic() {
    const MUTANTS: u64 = 1_000;
    let boards = Platform::catalog();
    let mut cov = Coverage::default();
    let (mut systems, mut errors) = (0, 0);
    for seed in 0..MUTANTS {
        let (source, _) = program(seed, &mut cov);
        let mutant = common::mutant(&source, seed);
        for platform in &boards {
            let mut opts = ProgramOptions::default();
            opts.flow.platform = platform.clone();
            opts.flow.hls.clock_mhz = platform.default_clock_mhz;
            opts.flow.jobs = 1;
            let compile = || ProgramFlow::compile(&mutant, &opts);
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(compile)) {
                Ok(Ok(art)) => systems += art.system.is_some() as usize,
                Ok(Err(_)) => errors += 1,
                Err(_) => panic!(
                    "seed {seed} on {}: the compile panicked\n{mutant}",
                    platform.id
                ),
            }
        }
    }
    assert!(
        systems > 0 && errors > 0,
        "{systems} systems, {errors} errors"
    );
}

/// What the compiler's polyhedral questions come to on the generated
/// zoo, compiled with and without factorisation: every address-space
/// question is settled by schedule-box corners (disjoint hulls or a
/// common live point), no array's live set is walked, and some RAW edge
/// joins statements of equal `seq` (a pure self-contraction reading its
/// own output), which only the capped legality walk decides.
#[test]
fn generated_programs_settle_liveness_at_the_corners() {
    let mut cov = Coverage::default();
    let base = LadderCounters::snapshot();
    let mut equal_seq = 0;
    for seed in 0..program_count() {
        let (source, _) = program(seed, &mut cov);
        for factorize in [true, false] {
            let mut opts = ProgramOptions::default();
            opts.flow.factorize = factorize;
            opts.flow.jobs = 1;
            let art = ProgramFlow::compile(&source, &opts)
                .unwrap_or_else(|e| panic!("seed {seed}, factorize {factorize}: {e}\n{source}"));
            for k in &art.kernels {
                let seq = &k.schedule.seq;
                equal_seq += (k.dependences().raw())
                    .filter(|d| seq[d.src] == seq[d.dst])
                    .count();
            }
        }
    }
    let counts = LadderCounters::snapshot().since(base);
    assert_eq!(counts.expanded, 0, "{counts:?}");
    assert!(counts.hull > 0 && counts.witness > 0, "{counts:?}");
    assert!(equal_seq > 0, "no RAW edge of equal seq");
}
