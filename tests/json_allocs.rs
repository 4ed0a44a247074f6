//! Each report's `to_json` allocates exactly once: the buffer it
//! reserves up front, which no row outgrows. Rows are written through a
//! stack line, and nothing on that path — not a decimal tie, a tick
//! count past `2^51` nor a label that needs escaping — formats into a
//! temporary `String`. Checked on the reports the benchmark serializes:
//! a 65 536-request online `ServiceReport`, a five-board `FleetReport`,
//! the dense 4 488-point helmholtz:11 `PortfolioReport` and a
//! `DseReport`.
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
}

struct Counting;

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which meets the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local `Cell` without a destructor, which
// neither allocates nor can be gone while the thread runs.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// The document `to_json` returns and the allocations it made.
fn allocations(to_json: impl FnOnce() -> String) -> (String, u64) {
    let before = ALLOCS.with(Cell::get);
    let json = to_json();
    (json, ALLOCS.with(Cell::get) - before)
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
/// a sweep of the same grid on the default board.
#[test]
fn dse_reports_allocate_once() {
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
    let portfolio = engine.run_portfolio(&Platform::catalog(), &dense, 1, 2_000);
    assert_eq!(portfolio.evaluated, 4_488);
    let (json, allocs) = allocations(|| portfolio.to_json());
    assert_eq!(allocs, 1, "{} bytes", json.len());
    runtime::json::validate(&json).unwrap();

    let sweep = engine.run(&dense, 1, 2_000);
    assert!(sweep.evaluated > 100);
    let (json, allocs) = allocations(|| sweep.to_json());
    assert_eq!(allocs, 1, "{} bytes", json.len());
    runtime::json::validate(&json).unwrap();
}
