//! Differential properties of the incremental compile cache and the
//! parallel compile fan-out: a warm-cache compile must be bit-identical
//! to a cold one across option/platform combinations, on-disk entries
//! must survive a process boundary (modeled as a fresh cache over the
//! same directory), and `--jobs 1` vs `--jobs N` must not change a
//! single artifact byte.

use cfdfpga::flow::cache::{write_entry, CachedSchedule, CompileCache};
use cfdfpga::flow::program::{ProgramFlow, ProgramOptions};
use cfdfpga::flow::{Artifacts, Flow, FlowOptions};
use cfdfpga::sysgen::Platform;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Canonical rendering of one kernel slot (the system and host programs
/// live on the program: see `canonical_program`). The scheduling-stage
/// products go through the cache's own serializer (which is a canonical
/// printer), so `HashMap` iteration order and memoization cells never
/// leak into the comparison.
fn canonical(art: &Artifacts) -> String {
    let entry = CachedSchedule {
        schedule: Arc::clone(&art.schedule),
        compat: Arc::clone(&art.compat),
    };
    format!(
        "{}\n---c---\n{}\n---hls---\n{:?}\n---mem---\n{:?}",
        write_entry(&entry),
        art.c_source,
        art.hls_report,
        art.memory,
    )
}

/// Canonical rendering of everything a program compile produces: every
/// kernel slot, the `host.c`, the program memory and the replicated
/// system.
fn canonical_program(art: &cfdfpga::flow::ProgramArtifacts) -> String {
    let mut s = String::new();
    for (name, k) in art.names.iter().zip(&art.kernels) {
        s.push_str(&format!("=== {name} ===\n{}\n", canonical(k)));
    }
    s.push_str(&format!(
        "---program---\n{}\n---host---\n{:?}\n{:?}",
        art.host_source, art.memory, art.system
    ));
    s
}

/// An option combination drawn from the axes the cache key must cover.
fn options_combo(board: usize, decoupled: bool, sharing: bool) -> FlowOptions {
    let catalog = Platform::catalog();
    let platform = catalog[board % catalog.len()].clone();
    let mut opts = FlowOptions {
        decoupled,
        ..FlowOptions::default()
    };
    opts.memory.sharing = sharing;
    opts.hls.clock_mhz = platform.default_clock_mhz;
    opts.platform = platform;
    opts
}

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory per proptest case.
fn scratch_dir() -> std::path::PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("cfdcache-prop-{}-{}", std::process::id(), n));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Warm-cache compiles are bit-identical to cold ones for every
    /// generated (source, platform, decoupling, memory) combination, and
    /// the cache actually served the warm run: the kernel slot
    /// `Flow::compile` returns, and the one-kernel program's system and
    /// host programs.
    #[test]
    fn warm_cache_compile_is_bit_identical(
        n in 3usize..6,
        board in 0usize..8,
        decoupled in proptest::bool::ANY,
        sharing in proptest::bool::ANY,
    ) {
        let src = cfdfpga::cfdlang::examples::inverse_helmholtz(n);
        let opts = options_combo(board, decoupled, sharing);
        let cold = Flow::compile(&src, &opts).unwrap();

        let cache = Arc::new(CompileCache::in_memory());
        let first = Flow::compile_cached(&src, &opts, Arc::clone(&cache)).unwrap();
        let warm = Flow::compile_cached(&src, &opts, Arc::clone(&cache)).unwrap();

        prop_assert_eq!(first.timings.cache.misses, 1);
        prop_assert_eq!(warm.timings.cache.hits, 1, "second compile must hit");
        prop_assert_eq!(canonical(&cold), canonical(&first));
        prop_assert_eq!(canonical(&cold), canonical(&warm));

        let popts: ProgramOptions = opts.into();
        let cold = ProgramFlow::compile(&src, &popts).unwrap();
        let cache = Arc::new(CompileCache::in_memory());
        let first = ProgramFlow::compile_cached(&src, &popts, Arc::clone(&cache)).unwrap();
        let warm = ProgramFlow::compile_cached(&src, &popts, Arc::clone(&cache)).unwrap();
        prop_assert_eq!(first.timings.cache.misses, 1);
        prop_assert_eq!(warm.timings.cache.hits, 1, "second compile must hit");
        prop_assert_eq!(canonical_program(&cold), canonical_program(&first));
        prop_assert_eq!(canonical_program(&cold), canonical_program(&warm));
    }

    /// On-disk entries revive across a process boundary (a fresh cache
    /// over the same directory) and still reproduce the cold artifacts
    /// byte for byte: the kernel slot, and the one-kernel program's
    /// system and host programs.
    #[test]
    fn disk_warm_compile_is_bit_identical(
        n in 3usize..6,
        board in 0usize..8,
    ) {
        let src = cfdfpga::cfdlang::examples::inverse_helmholtz(n);
        let opts = options_combo(board, true, true);
        let cold = Flow::compile(&src, &opts).unwrap();

        let dir = scratch_dir();
        let writer = Arc::new(CompileCache::with_dir(&dir).unwrap());
        Flow::compile_cached(&src, &opts, writer).unwrap();

        let reader = Arc::new(CompileCache::with_dir(&dir).unwrap());
        let warm = Flow::compile_cached(&src, &opts, Arc::clone(&reader)).unwrap();
        prop_assert_eq!(warm.timings.cache.disk_hits, 1, "must be served from disk");
        prop_assert_eq!(warm.timings.cache.misses, 0);
        prop_assert_eq!(canonical(&cold), canonical(&warm));

        let popts: ProgramOptions = opts.into();
        let cold = ProgramFlow::compile(&src, &popts).unwrap();
        let warm = ProgramFlow::compile_cached(&src, &popts, reader).unwrap();
        prop_assert_eq!(warm.timings.cache.misses, 0);
        prop_assert_eq!(canonical_program(&cold), canonical_program(&warm));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The parallel program compile (`jobs > 1`) produces artifacts
    /// bit-identical to the fully serial one, for programs and worker
    /// counts alike.
    #[test]
    fn parallel_program_compile_is_deterministic(
        p in 3usize..6,
        jobs in 2usize..5,
        cross_sharing in proptest::bool::ANY,
    ) {
        let src = cfdfpga::cfdlang::examples::simulation_step(p);
        let serial = ProgramOptions {
            flow: FlowOptions { jobs: 1, ..FlowOptions::default() },
            cross_sharing,
            system: None,
        };
        let parallel = ProgramOptions {
            flow: FlowOptions { jobs, ..serial.flow.clone() },
            ..serial.clone()
        };
        let a = ProgramFlow::compile(&src, &serial).unwrap();
        let b = ProgramFlow::compile(&src, &parallel).unwrap();
        prop_assert_eq!(canonical_program(&a), canonical_program(&b));
    }
}

/// A cached *program* compile: per-kernel schedule stages are memoized
/// individually, so a warm compile of a 3-kernel program reports three
/// hits — and the artifacts stay bit-identical.
#[test]
fn warm_program_compile_hits_per_kernel_and_matches() {
    let src = cfdfpga::cfdlang::examples::simulation_step(4);
    let opts = ProgramOptions::default();
    let cold = ProgramFlow::compile(&src, &opts).unwrap();

    let cache = Arc::new(CompileCache::in_memory());
    let first = ProgramFlow::compile_cached(&src, &opts, Arc::clone(&cache)).unwrap();
    let warm = ProgramFlow::compile_cached(&src, &opts, Arc::clone(&cache)).unwrap();

    assert_eq!(first.timings.cache.misses, 3);
    assert_eq!(first.timings.cache.stores, 3);
    // Counters accumulate on the shared cache: 3 misses then 3 hits.
    assert_eq!(warm.timings.cache.hits, 3);
    assert_eq!(canonical_program(&cold), canonical_program(&first));
    assert_eq!(canonical_program(&cold), canonical_program(&warm));
}

/// Changing any keyed input (source, clock, platform) must miss rather
/// than serve a stale entry.
#[test]
fn cache_never_serves_across_changed_inputs() {
    let cache = Arc::new(CompileCache::in_memory());
    let base = FlowOptions::default();
    let src5 = cfdfpga::cfdlang::examples::inverse_helmholtz(5);
    let src6 = cfdfpga::cfdlang::examples::inverse_helmholtz(6);

    Flow::compile_cached(&src5, &base, Arc::clone(&cache)).unwrap();
    // Different source: miss.
    let a = Flow::compile_cached(&src6, &base, Arc::clone(&cache)).unwrap();
    assert_eq!(a.timings.cache.hits, 0);
    // Different clock: miss.
    let mut other_clock = base.clone();
    other_clock.hls.clock_mhz = 150.0;
    let b = Flow::compile_cached(&src5, &other_clock, Arc::clone(&cache)).unwrap();
    assert_eq!(b.timings.cache.hits, 0);
    // Different platform: miss.
    let mut other_board = base.clone();
    other_board.platform = Platform::catalog()[1].clone();
    other_board.hls.clock_mhz = other_board.platform.default_clock_mhz;
    let c = Flow::compile_cached(&src5, &other_board, Arc::clone(&cache)).unwrap();
    assert_eq!(c.timings.cache.hits, 0);
    // Unchanged inputs: hit.
    let d = Flow::compile_cached(&src5, &base, Arc::clone(&cache)).unwrap();
    assert_eq!(d.timings.cache.hits, 1);
}
