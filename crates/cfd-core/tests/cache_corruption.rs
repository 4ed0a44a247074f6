//! Robustness of the on-disk compile cache against corrupt entries.
//!
//! The store is plain text files under a user-supplied directory, so it
//! must survive anything a crash, a partial copy, or a hand edit can
//! leave behind: truncated entries, garbage bytes (UTF-8 or not), a
//! stale schema version, and the leftovers of an interrupted write.
//! The contract in every case is the same — **invalidate and
//! recompile**: the poisoned entry is detected (never panics), dropped
//! or overwritten (never served stale), and the recompiled artifacts
//! are bit-identical to an uncached compile.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cfd_core::cache::SCHEMA;
use cfd_core::program::{ProgramFlow, ProgramOptions};
use cfd_core::{CacheCounters, CompileCache, ProgramArtifacts};

/// A fresh scratch directory per test (parallel test binaries must not
/// share stores).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cfdfpga-corrupt-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn source() -> String {
    cfdlang::examples::simulation_step(2)
}

/// One compile against a fresh cache handle over `dir` (a new process,
/// as far as the store is concerned). Returns the artifacts and the
/// compile's own cache counters.
fn compile_with(dir: &Path) -> (ProgramArtifacts, CacheCounters) {
    let cache = Arc::new(CompileCache::with_dir(dir).unwrap());
    let art = ProgramFlow::compile_cached(&source(), &ProgramOptions::default(), cache)
        .expect("cached compile succeeds");
    let counters = art.timings.cache;
    (art, counters)
}

/// The on-disk entry files of the store.
fn entries(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|f| f.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("cfdcache"))
        .collect();
    out.sort();
    assert!(!out.is_empty(), "seed compile wrote no cache entries");
    out
}

/// Bit-level artifact identity: the generated C and the canonical IR of
/// every kernel, and the host skeleton.
fn assert_bit_identical(a: &ProgramArtifacts, b: &ProgramArtifacts) {
    assert_eq!(a.names, b.names);
    for (ka, kb) in a.kernels.iter().zip(&b.kernels) {
        assert_eq!(ka.c_source, kb.c_source, "generated C diverged");
        assert_eq!(
            ka.module.to_string(),
            kb.module.to_string(),
            "scheduled IR diverged"
        );
    }
    assert_eq!(a.host_source, b.host_source);
}

#[test]
fn truncated_entries_invalidate_and_recompile_bit_identically() {
    let dir = scratch("truncated");
    let (reference, seeded) = compile_with(&dir);
    assert!(seeded.stores > 0, "seed compile must populate the store");

    // Simulate a crash mid-write / partial copy: keep half of each file.
    for path in entries(&dir) {
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    }

    let (recompiled, counters) = compile_with(&dir);
    assert!(
        counters.invalidations > 0,
        "truncated entries must be detected: {counters:?}"
    );
    assert_eq!(counters.disk_hits, 0, "nothing stale may be served");
    assert_bit_identical(&reference, &recompiled);

    // The recompile healed the store: a third run hits disk cleanly.
    let (_, healed) = compile_with(&dir);
    assert!(healed.disk_hits > 0, "healed store must hit: {healed:?}");
    assert_eq!(healed.invalidations, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn garbage_and_wrong_schema_entries_are_invalidated_not_served() {
    let dir = scratch("garbage");
    let (reference, _) = compile_with(&dir);
    let paths = entries(&dir);

    // First entry: UTF-8 garbage after a valid-looking prefix. The
    // rest: a schema bump — structurally plausible, but versioned away.
    for (i, p) in paths.iter().enumerate() {
        if i == 0 {
            fs::write(p, format!("{SCHEMA} schedule kernel oops ][")).unwrap();
        } else {
            let old = fs::read_to_string(p).unwrap();
            fs::write(p, old.replacen(SCHEMA, "cfdfpga-cache-v0", 1)).unwrap();
        }
    }

    let (recompiled, counters) = compile_with(&dir);
    assert_eq!(
        counters.invalidations,
        paths.len(),
        "every poisoned entry must be invalidated: {counters:?}"
    );
    assert_eq!(counters.disk_hits, 0);
    assert_bit_identical(&reference, &recompiled);

    // Poisoned files were removed and rewritten; the store serves again.
    let (_, healed) = compile_with(&dir);
    assert!(healed.disk_hits > 0);
    assert_eq!(healed.invalidations, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn binary_garbage_is_a_miss_and_gets_overwritten() {
    let dir = scratch("binary");
    let (reference, _) = compile_with(&dir);

    // Non-UTF-8 bytes: unreadable as text, reported as a plain miss.
    for path in entries(&dir) {
        fs::write(&path, [0xffu8, 0xfe, 0x00, 0x80, 0xc3]).unwrap();
    }

    let (recompiled, counters) = compile_with(&dir);
    assert_eq!(counters.disk_hits, 0, "binary garbage must never parse");
    assert!(counters.stores > 0, "recompile must rewrite the entries");
    assert_bit_identical(&reference, &recompiled);

    // The atomic-rename store replaced the garbage in place.
    let (_, healed) = compile_with(&dir);
    assert!(healed.disk_hits > 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_write_leftovers_are_harmless() {
    let dir = scratch("interrupted");
    let (reference, _) = compile_with(&dir);
    let paths = entries(&dir);

    // A crash between the temp write and the rename leaves a stray
    // `.tmp` beside a damaged entry. Neither may confuse the store.
    let stray = dir.join(".00000000000000000000000000000000.tmp.999");
    fs::write(&stray, "half a").unwrap();
    let bytes = fs::read(&paths[0]).unwrap();
    fs::write(&paths[0], &bytes[..bytes.len().min(7)]).unwrap();

    let (recompiled, counters) = compile_with(&dir);
    assert!(counters.invalidations > 0, "{counters:?}");
    assert_bit_identical(&reference, &recompiled);

    // Stray temp files are invisible to stats and clearing is complete.
    let (n, _) = CompileCache::disk_stats(&dir).unwrap();
    assert_eq!(n, paths.len(), "tmp leftovers must not count as entries");
    let removed = CompileCache::clear_disk(&dir).unwrap();
    assert_eq!(removed, paths.len());
    let (_, cold) = compile_with(&dir);
    assert_eq!(cold.disk_hits, 0);
    assert!(cold.stores > 0);
    let _ = fs::remove_dir_all(&dir);
}

/// A store the previous format (`cfdfpga-cache-v2`, schedule + liveness
/// sets + graph) left behind: `fixtures/cache-v2` holds the entry the
/// parent commit's `cfdc compile axpy:3 --cache-dir` wrote, which that
/// commit's library serves as a disk hit for exactly this compile. Under
/// its own key it is never looked up — a clean miss; renamed onto the
/// current key it fails the schema check and is invalidated. Neither
/// panics, neither is served, both recompile bit-identically.
#[test]
fn a_parent_written_v2_entry_is_a_clean_miss() {
    use cfd_core::{Flow, FlowOptions};
    let compile = |dir: &Path| {
        let cache = Arc::new(CompileCache::with_dir(dir).unwrap());
        Flow::compile_cached(&cfdlang::examples::axpy(3), &FlowOptions::default(), cache)
            .expect("cached compile succeeds")
    };
    let reference = Flow::compile(&cfdlang::examples::axpy(3), &FlowOptions::default()).unwrap();
    let dir = scratch("v2");
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cache-v2");
    let v2: Vec<PathBuf> = entries(&fixtures)
        .iter()
        .map(|p| {
            let copy = dir.join(p.file_name().unwrap());
            fs::copy(p, &copy).unwrap();
            copy
        })
        .collect();
    let v2_text = fs::read_to_string(&v2[0]).unwrap();
    assert!(v2_text.starts_with("cfdfpga-cache-v2\n"));

    let art = compile(&dir);
    let c = art.timings.cache;
    assert_eq!(
        (c.hits, c.disk_hits, c.misses, c.invalidations),
        (0, 0, 1, 0)
    );
    assert_eq!(art.c_source, reference.c_source);
    assert_eq!(art.compat.edges, reference.compat.edges);
    assert_eq!(
        fs::read_to_string(&v2[0]).unwrap(),
        v2_text,
        "v2 entry untouched"
    );

    // The v2 text under the key this version wrote.
    let current: Vec<PathBuf> = entries(&dir)
        .into_iter()
        .filter(|p| !v2.contains(p))
        .collect();
    assert_eq!(current.len(), 1);
    fs::write(&current[0], &v2_text).unwrap();
    let art = compile(&dir);
    let c = art.timings.cache;
    assert_eq!(
        (c.hits, c.disk_hits, c.misses, c.invalidations),
        (0, 0, 1, 1)
    );
    assert_eq!(art.c_source, reference.c_source);
    assert!(fs::read_to_string(&current[0]).unwrap().starts_with(SCHEMA));
    let _ = fs::remove_dir_all(&dir);
}
