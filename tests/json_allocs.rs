//! Each report's `to_json` allocates exactly once: the buffer it
//! reserves up front, which no row outgrows. Rows are written through a
//! stack line, and nothing on that path — not a decimal tie, a tick
//! count past `2^51` nor a label that needs escaping — formats into a
//! temporary `String`. Checked on the reports the benchmark serializes
//! (a 65 536-request online `ServiceReport`, a five-board `FleetReport`
//! and the dense 4 488-point helmholtz:11 `PortfolioReport`) and on the
//! one-board, one-clock portfolio of the same grid, which `cfdc explore
//! --grid` prints.
//! The portfolio sweep itself allocates nothing per row, and a bounded
//! number of bytes per row: a row holds its point and its score, the
//! label and board names live once on the report, a round is priced
//! without collecting its stages, and each distinct round is probed
//! once. A compile that rejects an array too wide to analyse makes no
//! allocation near the array's size.
//!
//! The counting allocator counts per thread, so tests running beside
//! each other on other threads do not disturb a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cfd_core::dse::{DseEngine, DseGrid};
use cfd_core::program::{ProgramFlow, ProgramOptions};
use runtime::{
    Arrival, FleetBoard, FleetOptions, OnlinePolicy, RecoveryPolicy, RoutePolicy, RuntimeOptions,
};
use sysgen::Platform;
use zynq::fault::FaultPlan;

thread_local! {
    /// Allocations and reallocations made on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// The bytes they asked for.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// The largest of them, in bytes.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
    LARGEST.with(|n| n.set(n.get().max(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which meets the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local `Cell`s without a destructor, which
// neither allocates nor can be gone while the thread runs.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator,
        // that is from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What `f` returns and the allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, allocs, _) = allocations_and_bytes(f);
    (out, allocs)
}

/// What `f` returns, the allocations it made on this thread and the
/// bytes they asked for.
fn allocations_and_bytes<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let after = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    (out, after.0 - before.0, after.1 - before.1)
}

/// The benchmark's dense grid: 4 488 points over the catalog's clock
/// ladders for helmholtz:11.
fn dense_grid() -> DseGrid {
    DseGrid {
        k: vec![1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16],
        batch: vec![1, 2, 4],
        sharing: vec![true, false],
        decoupled: vec![true, false],
        partition: vec![1, 2],
    }
}

fn helmholtz11() -> DseEngine {
    let source = cfdlang::examples::inverse_helmholtz(11);
    DseEngine::prepare(&source, &cfd_core::FlowOptions::default()).unwrap()
}

/// `simulation_step(7)` compiled for `platform` (the default board for
/// `None`).
fn simstep7(platform: Option<&Platform>) -> cfd_core::ProgramArtifacts {
    let mut opts = ProgramOptions::default();
    if let Some(p) = platform {
        opts.flow.hls.clock_mhz = p.default_clock_mhz;
        opts.flow.platform = p.clone();
    }
    ProgramFlow::compile(&cfdlang::examples::simulation_step(7), &opts).expect("simstep:7 compiles")
}

/// The online workload: 65 536 Poisson arrivals past capacity under an
/// SLO, a bounded queue, three tiers, retries and a 5 % fault plan.
#[test]
fn an_online_service_report_allocates_once() {
    let opts = RuntimeOptions {
        requests: 65_536,
        arrival: Arrival::Poisson { rate_rps: 12_000.0 },
        faults: FaultPlan::parse("7:0.05").unwrap(),
        recovery: RecoveryPolicy {
            max_retries: 3,
            ..RecoveryPolicy::default()
        },
        online: OnlinePolicy {
            event_loop: true,
            slo_s: Some(0.006),
            shed_queue: Some(64),
            priority_tiers: 3,
        },
        ..RuntimeOptions::default()
    };
    let report = simstep7(None).serve(&opts).unwrap().report;
    assert_eq!(report.traces.len(), 65_536);
    assert!(report.shed > 0 && report.completed > 0);
    let (json, allocs) = allocations(|| report.to_json());
    assert_eq!(allocs, 1, "{} bytes", json.len());
    runtime::json::validate(&json).unwrap();
}

/// `cfdc serve simstep:7 --fleet all --route jsq` with a fatal outage
/// on the first board: every catalog board, each with its report.
#[test]
fn a_five_board_fleet_report_allocates_once() {
    let compiled: Vec<_> = Platform::catalog()
        .iter()
        .map(|p| simstep7(Some(p)))
        .collect();
    let mut boards: Vec<FleetBoard> = compiled
        .iter()
        .map(|art| FleetBoard::healthy(art.system.clone().expect("simstep:7 fits every board")))
        .collect();
    boards[0].faults = FaultPlan::parse("7:fail=1e-3").unwrap();
    let fopts = FleetOptions {
        base: RuntimeOptions {
            requests: 4_096,
            ..RuntimeOptions::default()
        },
        route: RoutePolicy::ShortestQueue,
        parallel: false,
    };
    let report = compiled[0].serve_fleet(&boards, &fopts).unwrap().report;
    assert_eq!(report.boards.len(), 5);
    let (json, allocs) = allocations(|| report.to_json());
    assert_eq!(allocs, 1, "{} bytes", json.len());
    runtime::json::validate(&json).unwrap();
}

/// The benchmark's dense helmholtz:11 portfolio over the catalog, and
/// the same grid on the default board at its one default clock.
#[test]
fn dse_reports_allocate_once() {
    let dense = dense_grid();
    let engine = helmholtz11();
    let zcu106 = Platform::zcu106();
    let board = Platform {
        clock_ladder_mhz: vec![zcu106.default_clock_mhz],
        ..zcu106
    };
    for (platforms, rows) in [(Platform::catalog(), 4_488), (vec![board], 264)] {
        let portfolio = engine.run_portfolio(&platforms, &dense, 1, 2_000);
        assert_eq!(portfolio.evaluated, rows);
        let (json, allocs) = allocations(|| portfolio.to_json());
        assert_eq!(allocs, 1, "{} bytes", json.len());
        runtime::json::validate(&json).unwrap();
    }
}

/// The dense portfolio sweep at one job, so that `fan_out` scores every
/// row on this thread. It makes 2 760 allocations, 0.615 per row, none
/// of them a row's own: the backend pieces, the service probes of the
/// 359 distinct rounds of the 3 206 rows that fit (a probe builds no
/// round) and the ranking. A row that copied its board's name,
/// collected its round's stage ticks or probed its own round would add
/// about one allocation per row each. It asks for 1 373 160 bytes,
/// 305.96 per row (28 bytes more in all in a debug build), most of
/// them the rows and their scores: a wider rank key or another table
/// per row would show here first.
#[test]
fn a_portfolio_sweep_allocates_nothing_per_row() {
    let engine = helmholtz11();
    let (portfolio, allocs, bytes) = allocations_and_bytes(|| {
        engine.run_portfolio(&Platform::catalog(), &dense_grid(), 1, 2_000)
    });
    assert_eq!(portfolio.evaluated, 4_488);
    let per_row = allocs as f64 / portfolio.evaluated as f64;
    assert!(per_row < 0.62, "{allocs} allocations, {per_row:.4} per row");
    let bytes_per_row = bytes as f64 / portfolio.evaluated as f64;
    assert!(
        bytes_per_row <= 306.0,
        "{bytes} bytes, {bytes_per_row:.1} per row"
    );
}

/// A `[4097 4097]` array, 16 785 409 words, is wider than the compiler
/// images addresses: the compile is a structured error naming the array,
/// raised before any stage sizes anything by it, so no allocation on the
/// way reaches a megabyte.
#[test]
fn an_array_too_wide_to_analyse_fails_without_a_large_allocation() {
    let source = "var input a : [4097 4097]\nvar input s : [4097 4097]\n\
                  var output c : [4097 4097]\nc = a * s\n";
    let mut opts = ProgramOptions::default();
    opts.flow.jobs = 1;
    LARGEST.with(|n| n.set(0));
    let err = ProgramFlow::compile(source, &opts).expect_err("a 2^24-word array is rejected");
    let largest = LARGEST.with(Cell::get);
    assert!(
        matches!(&err, cfd_core::FlowError::Backend(m) if m.contains("array 'a'")),
        "{err}"
    );
    assert!(largest < 1 << 20, "{largest} bytes allocated at once");
}
