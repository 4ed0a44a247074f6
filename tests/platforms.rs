//! Platform-portability guarantees over the whole catalog:
//!
//! * **functional portability** — a program's computed tensors are
//!   bit-identical on every catalog platform (timing differs, results
//!   never),
//! * **Eq. (3) soundness** — every configuration the enumerators accept
//!   actually fits its platform's resources, on every board,
//! * **structured infeasibility** — a replication that exceeds a small
//!   board comes back as [`FlowError::DoesNotFit`], never a panic, and
//!   the automatic choice degrades to a smaller feasible system.

use std::collections::HashMap;

use cfdfpga::flow::dse::{DseEngine, DseGrid, PortfolioOutcome};
use cfdfpga::flow::program::{ProgramFlow, ProgramOptions};
use cfdfpga::flow::{Flow, FlowError, FlowOptions};
use cfdfpga::sysgen::{self, Platform, SystemConfig};
use cfdfpga::zynq;
use proptest::prelude::*;
use teil::Module;

fn program_options(platform: Platform) -> ProgramOptions {
    ProgramOptions {
        flow: FlowOptions::for_platform(platform),
        ..Default::default()
    }
}

/// Satellite: cross-platform bit-exactness. The `simulation_step`
/// chain is compiled for every catalog platform and executed through
/// the generated kernels with identical random inputs — every output
/// tensor must match the ZCU106 compilation bit for bit, while the
/// synthesis clock (and hence timing) differs across platforms.
#[test]
fn simulation_step_tensors_bit_identical_on_every_platform() {
    let src = cfdfpga::cfdlang::examples::simulation_step(5);
    let reference = ProgramFlow::compile(&src, &program_options(Platform::zcu106())).unwrap();
    let ref_modules: Vec<&Module> = reference.kernels.iter().map(|a| &*a.module).collect();
    let external = zynq::random_program_inputs(&ref_modules, 20_260_727);
    let ref_kernels: Vec<&cgen::CKernel> = reference.kernels.iter().map(|a| &a.kernel).collect();
    let want =
        zynq::run_program_chain(&reference.names, &ref_modules, &ref_kernels, &external).unwrap();

    let mut clocks_seen = Vec::new();
    for platform in Platform::catalog() {
        let id = platform.id;
        let art = ProgramFlow::compile(&src, &program_options(platform)).unwrap();
        let modules: Vec<&Module> = art.kernels.iter().map(|a| &*a.module).collect();
        let kernels: Vec<&cgen::CKernel> = art.kernels.iter().map(|a| &a.kernel).collect();
        let got = zynq::run_program_chain(&art.names, &modules, &kernels, &external).unwrap();
        assert_eq!(want.len(), got.len(), "{id}: output set differs");
        for (key, w) in &want {
            let g = &got[key];
            assert_eq!(w.len(), g.len(), "{id}: {key} length differs");
            for (a, b) in w.iter().zip(g) {
                assert_eq!(a.to_bits(), b.to_bits(), "{id}: {key} diverged");
            }
        }
        clocks_seen.push(art.kernels[0].hls_report.clock_mhz);
    }
    // The identical tensors came from genuinely different syntheses.
    clocks_seen.sort_by(f64::total_cmp);
    clocks_seen.dedup();
    assert!(
        clocks_seen.len() >= 2,
        "catalog should span several default clocks, saw {clocks_seen:?}"
    );
}

/// Satellite: the structured small-board error. A replication the
/// ZCU106 accepts must come back from the Pynq-Z2 as
/// [`FlowError::DoesNotFit`] naming the board — and the automatic
/// choice must degrade to a smaller feasible system instead of
/// panicking or failing.
#[test]
fn small_board_requests_degrade_or_error_structurally() {
    let src = cfdfpga::cfdlang::examples::inverse_helmholtz(11);
    let on_zcu106 = ProgramFlow::compile(&src, &ProgramOptions::default()).unwrap();
    let big = &on_zcu106.system.as_ref().expect("paper config fits").config;
    assert_eq!((big.ks[0], big.m), (16, 16));
    let big = SystemConfig {
        k: big.ks[0],
        m: big.m,
    };

    // Explicit oversized request: structured error, board named.
    let opts = FlowOptions {
        system: Some(big),
        ..FlowOptions::for_platform(Platform::pynq_z2())
    };
    match Flow::compile(&src, &opts).unwrap_err() {
        FlowError::DoesNotFit { k, m, board } => {
            assert_eq!((k, m), (16, 16));
            assert!(board.contains("Pynq"), "board name in error: {board}");
        }
        other => panic!("expected DoesNotFit, got {other}"),
    }

    // Automatic choice: degrade to the largest feasible replication.
    let auto = ProgramFlow::compile(&src, &program_options(Platform::pynq_z2())).unwrap();
    let small = &auto.system.as_ref().expect("something fits").config;
    assert!(small.ks[0] < big.k, "degraded: {small:?} vs {big:?}");
    let sim = auto
        .simulate(&zynq::SimConfig {
            elements: 64,
            ..Default::default()
        })
        .unwrap();
    assert!(sim.total_s > 0.0);
}

/// An invalid (k, m) relation is rejected as a structured error too —
/// the Eq. (3) precondition never reaches the panicking assert.
#[test]
fn invalid_replication_shape_is_a_flow_error() {
    let src = cfdfpga::cfdlang::examples::inverse_helmholtz(4);
    let opts = FlowOptions {
        system: Some(SystemConfig { k: 3, m: 7 }),
        ..Default::default()
    };
    match Flow::compile(&src, &opts).unwrap_err() {
        FlowError::Backend(msg) => assert!(msg.contains("invalid replication")),
        other => panic!("expected Backend error, got {other}"),
    }
}

/// Every row of `engine`'s sweep of `grid` over the catalog at `jobs`
/// workers equals, bar its three frontier flags, the same point's row
/// in the sweep of its board alone at its clock alone — what `cfdc
/// explore --grid` prints for that board and clock.
fn assert_one_clock_rows_match(engine: &DseEngine, grid: &DseGrid, jobs: usize, elements: usize) {
    let catalog = Platform::catalog();
    let full = engine.run_portfolio(&catalog, grid, jobs, elements);
    let key = |o: &PortfolioOutcome| (o.platform, o.clock_mhz.to_bits(), o.outcome.point.label());
    let rows: HashMap<_, _> = full.outcomes.iter().map(|o| (key(o), o)).collect();
    assert_eq!(rows.len(), full.evaluated, "a grid point repeats");
    // Debug text tells `-0.0` from `0.0` and prints every digit.
    let unflagged = |o: &PortfolioOutcome| {
        let o = PortfolioOutcome {
            pareto: false,
            service_pareto: false,
            cost_pareto: false,
            ..o.clone()
        };
        format!("{o:?}")
    };
    let mut compared = 0;
    for platform in &catalog {
        for &clock in &platform.clock_ladder_mhz {
            let board = Platform {
                clock_ladder_mhz: vec![clock],
                ..platform.clone()
            };
            let one = engine.run_portfolio(&[board], grid, jobs, elements);
            assert_eq!(one.evaluated, grid.points().len());
            for o in &one.outcomes {
                let twin = rows[&key(o)];
                let at = format!("{} @ {clock} MHz, {}", o.platform, o.outcome.point.label());
                assert_eq!(unflagged(o), unflagged(twin), "jobs={jobs} {at}");
            }
            compared += one.evaluated;
        }
    }
    assert_eq!(compared, full.evaluated);
}

/// Tentpole acceptance: the portfolio sweep spans the catalog, its
/// Pareto frontier covers ≥3 platforms, backends are memoized per
/// (clock, backend key), and every row equals the single-board,
/// single-clock sweep's row of its point.
#[test]
fn portfolio_sweep_spans_platforms_and_matches_single_board() {
    let src = cfdfpga::cfdlang::examples::inverse_helmholtz(5);
    let engine = DseEngine::prepare(&src, &FlowOptions::default()).unwrap();
    let grid = DseGrid {
        k: vec![1, 4, 16],
        batch: vec![1],
        sharing: vec![true, false],
        decoupled: vec![true],
        partition: vec![1],
    };
    let catalog = Platform::catalog();
    let report = engine.run_portfolio(&catalog, &grid, 2, 2_000);

    // Every platform × ladder-rung × grid-point combination evaluated.
    let combos: usize = catalog.len() * 6; // 6 grid points
    let rungs: usize = catalog.iter().map(|p| p.clock_ladder_mhz.len()).sum();
    assert_eq!(report.evaluated, rungs * 6);
    assert!(report.feasible > combos / 2, "most combos fit somewhere");

    // Backends memoized per (clock, backend key): unique clocks × 2
    // sharing variants, independent of platforms and k.
    let mut clocks: Vec<u64> = catalog
        .iter()
        .flat_map(|p| p.clock_ladder_mhz.iter().map(|c| c.to_bits()))
        .collect();
    clocks.sort_unstable();
    clocks.dedup();
    assert_eq!(report.backend_compiles, clocks.len() * 2);
    assert_eq!(
        report.backend_reuses,
        report.evaluated - report.backend_compiles
    );

    // Per-platform feasibility lands in the summaries, and the Pareto
    // frontier spans at least three platforms.
    assert!(report.summaries.iter().filter(|s| s.feasible > 0).count() >= 3);
    let frontier = report.pareto_frontier();
    let mut frontier_platforms: Vec<&str> = frontier.iter().map(|o| o.platform).collect();
    frontier_platforms.sort_unstable();
    frontier_platforms.dedup();
    assert!(
        frontier_platforms.len() >= 3,
        "frontier spans {frontier_platforms:?}"
    );
    for o in &frontier {
        assert!(o.outcome.feasible && o.utilization > 0.0 && o.utilization <= 1.0);
    }

    assert_one_clock_rows_match(&engine, &grid, 2, 2_000);

    // JSON carries the frontier and the per-platform feasibility.
    let json = report.to_json();
    assert!(json.contains("\"pareto_frontier\""));
    assert!(json.contains("\"platforms\""));
    assert!(json.contains("\"pynq-z2\""));
}

/// A one-board, one-clock sweep — `cfdc explore --grid` — is the
/// catalog sweep's rows of that board at that clock, bar the frontier
/// flags: on every catalog board and rung of its ladder, for
/// helmholtz:11's dense grid and simstep:7's default grid, at 1 and 4
/// jobs.
#[test]
fn a_one_clock_portfolio_equals_the_full_ladder_at_that_clock() {
    let cases = [
        (
            cfdfpga::cfdlang::examples::inverse_helmholtz(11),
            dense_grid(),
        ),
        (
            cfdfpga::cfdlang::examples::simulation_step(7),
            DseGrid::default(),
        ),
    ];
    for (src, grid) in cases {
        let engine = DseEngine::prepare(&src, &ProgramOptions::default()).unwrap();
        for jobs in [1, 4] {
            assert_one_clock_rows_match(&engine, &grid, jobs, 2_000);
        }
    }
}

/// The dense grid: 11 replications × 3 batch factors × sharing ×
/// decoupling × 2 partitions = 264 points.
fn dense_grid() -> DseGrid {
    DseGrid {
        k: vec![1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16],
        batch: vec![1, 2, 4],
        sharing: vec![true, false],
        decoupled: vec![true, false],
        partition: vec![1, 2],
    }
}

/// The dense grid over every platform and clock rung of the catalog:
/// the thousand-point sweep evaluates ≥ 4 096 design points of the
/// paper kernel.
#[test]
fn dense_portfolio_sweep_evaluates_four_thousand_points() {
    let src = cfdfpga::cfdlang::examples::inverse_helmholtz(11);
    let engine = DseEngine::prepare(&src, &FlowOptions::default()).unwrap();
    let catalog = Platform::catalog();
    let report = engine.run_portfolio(&catalog, &dense_grid(), 2, 2_000);
    let rungs: usize = catalog.iter().map(|p| p.clock_ladder_mhz.len()).sum();
    assert_eq!(report.evaluated, rungs * 264);
    assert!(report.evaluated >= 4_096, "{} points", report.evaluated);
}

/// The joint program sweep has the same portfolio shape: per-kernel
/// backends memoized on (kernel, clock, backend key), frontier across
/// boards.
#[test]
fn program_portfolio_sweeps_the_catalog() {
    let src = cfdfpga::cfdlang::examples::axpy_chain(4);
    let engine = DseEngine::prepare(&src, &ProgramOptions::default()).unwrap();
    let grid = DseGrid {
        k: vec![1, 4],
        batch: vec![1],
        sharing: vec![true],
        decoupled: vec![true],
        partition: vec![1],
    };
    let catalog = Platform::catalog();
    let report = engine.run_portfolio(&catalog, &grid, 2, 1_000);
    let rungs: usize = catalog.iter().map(|p| p.clock_ladder_mhz.len()).sum();
    assert_eq!(report.evaluated, rungs * 2);
    let mut clocks: Vec<u64> = catalog
        .iter()
        .flat_map(|p| p.clock_ladder_mhz.iter().map(|c| c.to_bits()))
        .collect();
    clocks.sort_unstable();
    clocks.dedup();
    // One backend per (clock, key) per kernel of the 2-kernel chain;
    // every evaluation looks up one memoized backend per kernel.
    assert_eq!(report.backend_compiles, clocks.len() * 2);
    assert_eq!(
        report.backend_reuses,
        report.evaluated * 2 - report.backend_compiles
    );
    assert!(report.summaries.iter().filter(|s| s.feasible > 0).count() >= 3);
    assert!(report.pareto_frontier().len() >= 3);
}

/// Invalid program replications are structured errors, not panics —
/// the program twin of `invalid_replication_shape_is_a_flow_error`.
#[test]
fn invalid_program_replication_is_a_flow_error() {
    use cfdfpga::sysgen::ProgramSystemConfig;
    let src = cfdfpga::cfdlang::examples::axpy_chain(3);
    let bad_shape = ProgramOptions {
        system: Some(ProgramSystemConfig {
            ks: vec![3, 3],
            m: 5,
        }),
        ..Default::default()
    };
    match ProgramFlow::compile(&src, &bad_shape).unwrap_err() {
        FlowError::Backend(msg) => assert!(msg.contains("invalid replication")),
        other => panic!("expected Backend error, got {other}"),
    }
    let wrong_len = ProgramOptions {
        system: Some(ProgramSystemConfig::uniform(2, 2, 3)),
        ..Default::default()
    };
    match ProgramFlow::compile(&src, &wrong_len).unwrap_err() {
        FlowError::Backend(msg) => assert!(msg.contains("stages")),
        other => panic!("expected Backend error, got {other}"),
    }
}

/// The replication rungs the enumerators walk.
const LADDER: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The automatic replication's definition, for one kernel: build the
/// design of every `(k, m)` pair (placeholder host), keep those that fit,
/// filter `k = m`, take the largest.
fn max_equal_by_building(
    platform: &Platform,
    kernel: &hls::HlsReport,
    memory: &mnemosyne::MemorySubsystem,
) -> (Vec<SystemConfig>, Option<SystemConfig>) {
    let pairs = LADDER
        .iter()
        .flat_map(|&k| LADDER.map(|m| SystemConfig { k, m }));
    let built: Vec<SystemConfig> = (pairs.filter(|c| c.m >= c.k))
        .filter(|&c| {
            let stages = [("main".to_string(), kernel.clone())];
            let cfg = sysgen::ProgramSystemConfig::uniform(c.k, c.m, 1);
            let host = sysgen::ProgramHostProgram::placeholder(cfg.clone(), &stages);
            sysgen::MultiSystemDesign::build(platform, &stages, memory, cfg, host).is_some()
        })
        .collect();
    let max = built
        .iter()
        .copied()
        .filter(|c| c.k == c.m)
        .max_by_key(|c| c.k);
    (built, max)
}

/// `max_equal_config`, the one-stage `enumerate_program_designs` (a
/// kernel's feasibility listing) and `max_equal_program_config` decide
/// on `Totals::fit` alone; on every catalog board, over the six
/// examples with and without sharing, they return what building every
/// design and filtering `k = m` returns, and the flow's design is the
/// replication search's pick (`tests/replication.rs` holds the search to
/// its definition). The sweep meets a capped (`k = 64`) choice, and an
/// oversized kernel meets `None`.
#[test]
fn automatic_replication_equals_the_build_and_filter_rule() {
    use cfdfpga::cfdlang::examples as ex;
    let sources = [
        ex::inverse_helmholtz(11),
        ex::interpolation(8, 12),
        ex::matrix_sandwich(8),
        ex::axpy(8),
        ex::simulation_step(11),
        ex::axpy_chain(8),
    ];
    let mut seen = std::collections::BTreeSet::new();
    for platform in Platform::catalog() {
        for src in &sources {
            for sharing in [true, false] {
                let mut opts = program_options(platform.clone());
                opts.flow.memory.sharing = sharing;
                opts.cross_sharing = sharing;
                let art = ProgramFlow::compile(src, &opts).unwrap();
                let mut stages = Vec::new();
                for (name, k) in art.names.iter().zip(&art.kernels) {
                    let (built, max) = max_equal_by_building(&platform, &k.hls_report, &k.memory);
                    let configs = one_stage_configs(&platform, &k.hls_report, &k.memory);
                    assert_eq!(configs, built, "{} {name}", platform.id);
                    let chosen = sysgen::max_equal_config(&platform, &k.hls_report, &k.memory);
                    assert_eq!(chosen, max, "{} {name} sharing {sharing}", platform.id);
                    seen.insert(chosen.map(|c| c.k));
                    stages.push((name.clone(), k.hls_report.renamed(name.clone())));
                }
                let designs = sysgen::enumerate_program_designs(&platform, &stages, &art.memory);
                let max = (designs.into_iter().map(|d| d.config))
                    .filter(|c| c.ks.iter().all(|&k| k == c.m))
                    .max_by_key(|c| c.m);
                let chosen = sysgen::max_equal_program_config(&platform, &stages, &art.memory);
                assert_eq!(
                    chosen, max,
                    "{} {:?} sharing {sharing}",
                    platform.id, art.names
                );
                // The flow starts its replication search from that pick
                // and picks what the search picks on the same price.
                let design = art.system.as_ref();
                let sim = zynq::SimConfig::default();
                let searched = design.and_then(|d| {
                    let cost = zynq::RoundPricer::of(d, &sim);
                    sysgen::best_program_config(&platform, &stages, &art.memory, &cost)
                });
                assert_eq!(design.map(|d| d.config.clone()), searched);
                assert_eq!(searched.is_some(), chosen.is_some());
                seen.insert(chosen.map(|c| c.m));
            }
        }
        // A kernel as large as the board fits no rung.
        let art = Flow::compile(&sources[0], &FlowOptions::for_platform(platform.clone())).unwrap();
        let mut huge = art.hls_report.clone();
        huge.luts = platform.board.luts;
        assert_eq!(max_equal_by_building(&platform, &huge, &art.memory).1, None);
        assert_eq!(
            sysgen::max_equal_config(&platform, &huge, &art.memory),
            None
        );
        let stages = [("huge".to_string(), huge)];
        assert_eq!(
            sysgen::max_equal_program_config(&platform, &stages, &art.memory),
            None
        );
    }
    assert!(
        seen.contains(&Some(64)),
        "no choice was capped at 64: {seen:?}"
    );
}

/// The `(k, m)` pairs of a kernel's feasibility listing: its one-stage
/// program designs.
fn one_stage_configs(
    platform: &Platform,
    kernel: &hls::HlsReport,
    memory: &mnemosyne::MemorySubsystem,
) -> Vec<SystemConfig> {
    let stages = [("main".to_string(), kernel.clone())];
    let designs = sysgen::enumerate_program_designs(platform, &stages, memory);
    designs
        .iter()
        .map(|d| SystemConfig {
            k: d.config.ks[0],
            m: d.config.m,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite property: every configuration a kernel's feasibility
    /// listing accepts fits its platform's resources on ALL catalog boards
    /// (Eq. (3) never violated), and every power-of-two request outside
    /// the enumerated set returns the structured error instead of
    /// panicking.
    #[test]
    fn enumerated_configs_always_fit_their_platform(
        p in 3usize..6,
        sharing in proptest::bool::ANY,
        k_exp in 0u32..7,
        batch_exp in 0u32..3,
    ) {
        let src = cfdfpga::cfdlang::examples::inverse_helmholtz(p);
        let mut base = FlowOptions::default();
        base.memory.sharing = sharing;
        let engine = DseEngine::prepare(&src, &base).unwrap();
        let be = engine.pipeline().backend(engine.scheduled(), &base);
        let k = 1usize << k_exp;
        let m = k << batch_exp;
        for platform in Platform::catalog() {
            let configs = one_stage_configs(&platform, &be.hls_report, &be.memory);
            for cfg in &configs {
                let stages = [("main".to_string(), be.hls_report.clone())];
                let pcfg = sysgen::ProgramSystemConfig::uniform(cfg.k, cfg.m, 1);
                let host = sysgen::ProgramHostProgram::placeholder(pcfg.clone(), &stages);
                let d = sysgen::MultiSystemDesign::build(&platform, &stages, &be.memory, pcfg, host)
                    .expect("enumerated config must build");
                let (l, f, ds, br) = d.slack();
                prop_assert!(l >= 0 && f >= 0 && ds >= 0 && br >= 0,
                    "{}: Eq. (3) violated for {:?}", platform.id, cfg);
                prop_assert!(d.utilization() <= 1.0 + 1e-12);
            }
            // A request for (k, m): either enumerated (system builds) or
            // a structured DoesNotFit — never a panic.
            let cfg = SystemConfig { k, m };
            let mut opts = FlowOptions::for_platform(platform.clone());
            opts.memory.sharing = sharing;
            opts.system = Some(cfg);
            let enumerable = m <= 64; // the enumerators cap k, m at 64
            match engine.pipeline().system(&be, &opts) {
                Ok(stage) => {
                    prop_assert!(!enumerable || configs.contains(&cfg),
                        "{}: built a non-enumerated config {:?}", platform.id, cfg);
                    let d = stage.system.expect("built system present");
                    let (l, f, ds, br) = sysgen::MultiSystemDesign::from_single(&d).slack();
                    prop_assert!(l >= 0 && f >= 0 && ds >= 0 && br >= 0);
                }
                Err(FlowError::DoesNotFit { k: ek, m: em, board }) => {
                    prop_assert!(!configs.contains(&cfg),
                        "{}: rejected an enumerated config {:?}", platform.id, cfg);
                    prop_assert_eq!((ek, em), (k, m));
                    prop_assert_eq!(&board, &platform.board.name);
                }
                Err(other) => prop_assert!(false, "unexpected error: {}", other),
            }
        }
    }

    /// The program enumerators obey the same soundness on every board.
    #[test]
    fn enumerated_program_designs_always_fit(p in 3usize..5) {
        let src = cfdfpga::cfdlang::examples::simulation_step(p);
        let art = ProgramFlow::compile(&src, &program_options(Platform::zcu106())).unwrap();
        let stages: Vec<(String, hls::HlsReport)> = art
            .names
            .iter()
            .zip(&art.kernels)
            .map(|(n, a)| (n.clone(), a.hls_report.renamed(n.clone())))
            .collect();
        for platform in Platform::catalog() {
            for d in sysgen::enumerate_program_designs(&platform, &stages, &art.memory) {
                let (l, f, ds, br) = d.slack();
                prop_assert!(l >= 0 && f >= 0 && ds >= 0 && br >= 0,
                    "{}: Eq. (3) violated for {:?}", platform.id, d.config);
            }
        }
    }
}
