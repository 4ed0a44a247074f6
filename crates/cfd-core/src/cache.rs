//! Content-hashed incremental compile cache.
//!
//! The scheduling stage (reschedule + liveness → compatibility graph)
//! dominated the cost of a compile when this cache was added; its
//! products depend only on the canonicalized tensor IR and
//! (conservatively) the target platform and clock. [`CompileCache`]
//! memoizes those products under a stable 128-bit FNV-1a content hash,
//! so a re-compile of unchanged source skips the stage — in process via
//! an in-memory map, and across processes via an optional on-disk
//! store.
//!
//! The stage is cheap now, and the cache saves little. At the ROADMAP's
//! item 9 anchor run, the stages a hit skips summed to about 71 cal-µs
//! per kernel of a whole one-kernel compile of about 213 cal-µs
//! (`compile_cold`), while a store cost about 436 cal-µs and a disk
//! revive about 66 cal-µs per program (`explore_warm`, helmholtz:11):
//! a store costs about twice a whole compile. Item 9 retires the cache
//! once the benchmark re-baseline (item 5) confirms those figures.
//!
//! ## Cache key
//!
//! [`schedule_key`] hashes, in order:
//!
//! 1. the schema string [`SCHEMA`] (versioning: a format change makes
//!    every old key unreachable),
//! 2. the canonical text of the tensor IR module (**after**
//!    canonicalization, so `factorize`/`clean` are captured by their
//!    effect rather than their flag values),
//! 3. the platform id and the bit pattern of the HLS clock.
//!
//! The rescheduler has one configuration, so it is not keyed.
//!
//! The worker count ([`FlowOptions::jobs`]) is deliberately excluded:
//! artifacts are bit-identical for every value.
//!
//! ## On-disk layout
//!
//! Each entry is one whitespace-token text file
//! `<032x-key>.cfdcache` inside the cache directory, starting with the
//! [`SCHEMA`] line and holding the schedule and the compatibility graph
//! — the stage's only products (liveness leaves no sets behind; see
//! [`pschedule::liveness`]). Writes go through a temporary file in the
//! same directory followed by an atomic rename, so a concurrent reader
//! never observes a half-written entry. A file that fails to parse
//! (truncated, schema mismatch, hand-edited) is **invalidated**:
//! counted, removed, and treated as a miss. An entry of an older schema
//! sits under a key this version never computes, so it is a clean miss.
//!
//! ```
//! use cfd_core::cache::{schedule_key, CompileCache};
//! use cfd_core::{FlowOptions, Pipeline};
//! use std::sync::Arc;
//!
//! let cache = Arc::new(CompileCache::in_memory());
//! let p = Pipeline::with_cache(Arc::clone(&cache));
//! let src = cfdlang::examples::inverse_helmholtz(4);
//! let opts = FlowOptions::default();
//! let (_, fe) = p.program_frontend(&src).unwrap().remove(0);
//! let me = p.middle_end(&fe, &opts).unwrap();
//! let cold = p.schedule(&me, &opts);
//! let warm = p.schedule(&me, &opts);
//! assert_eq!(cache.counters().hits, 1);
//! assert_eq!(p.counters().schedule, 1); // the stage ran once
//! assert_eq!(cold.schedule, warm.schedule);
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use pschedule::{CompatKind, CompatibilityGraph, Schedule};
use teil::layout::ArrayId;
use teil::Module;

use crate::FlowOptions;

/// Format version: first token of every key and every on-disk entry.
/// Bump on any change to the serialization below — old entries then
/// simply never match and age out.
pub const SCHEMA: &str = "cfdfpga-cache-v3";

/// File extension of on-disk entries.
const EXT: &str = "cfdcache";

/// The cached products of one scheduling-stage run.
#[derive(Debug, Clone)]
pub struct CachedSchedule {
    pub schedule: Arc<Schedule>,
    pub compat: Arc<CompatibilityGraph>,
}

/// Hit/miss/invalidation counters of a [`CompileCache`].
///
/// `hits` counts in-memory hits, `disk_hits` entries revived from the
/// on-disk store (a disk hit is *not* also counted as an in-memory hit),
/// `misses` lookups that found nothing, `stores` entries written, and
/// `invalidations` on-disk entries that failed to parse and were
/// removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    pub hits: usize,
    pub disk_hits: usize,
    pub misses: usize,
    pub stores: usize,
    pub invalidations: usize,
}

impl CacheCounters {
    /// Total lookups served from either cache layer.
    pub fn total_hits(&self) -> usize {
        self.hits + self.disk_hits
    }
}

/// The `compile_cache` JSON object of `cfdc compile --json` and of the
/// explore reports.
impl std::fmt::Display for CacheCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{{\"hits\": {}, \"disk_hits\": {}, \"misses\": {}, \"stores\": {}, \"invalidations\": {}}}",
            self.hits, self.disk_hits, self.misses, self.stores, self.invalidations
        )
    }
}

/// A two-layer (in-memory + optional on-disk) store of scheduling-stage
/// products, keyed by [`schedule_key`]. All methods are `&self`; the
/// cache is shared across pipelines and threads behind an [`Arc`].
#[derive(Debug, Default)]
pub struct CompileCache {
    mem: Mutex<HashMap<u128, Arc<CachedSchedule>>>,
    dir: Option<PathBuf>,
    hits: AtomicUsize,
    disk_hits: AtomicUsize,
    misses: AtomicUsize,
    stores: AtomicUsize,
    invalidations: AtomicUsize,
}

impl CompileCache {
    /// A process-local cache with no on-disk persistence.
    pub fn in_memory() -> CompileCache {
        CompileCache::default()
    }

    /// A cache persisted under `dir`. Creates the directory if missing
    /// and probes it for writability, so an unusable location fails
    /// here — once — rather than silently on every store.
    pub fn with_dir(dir: impl Into<PathBuf>) -> io::Result<CompileCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let probe = dir.join(format!(".probe.{}", std::process::id()));
        std::fs::write(&probe, SCHEMA)?;
        std::fs::remove_file(&probe)?;
        Ok(CompileCache {
            dir: Some(dir),
            ..CompileCache::default()
        })
    }

    /// The on-disk directory, if this cache persists.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Snapshot of the counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// The memory layer. Each use is one `get` or `insert`, which leaves
    /// the map whole even when it panics, so a poisoned lock is reused.
    fn mem(&self) -> MutexGuard<'_, HashMap<u128, Arc<CachedSchedule>>> {
        self.mem.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of entries resident in memory.
    pub fn len(&self) -> usize {
        self.mem().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look `key` up: memory first, then disk. A disk hit is revived
    /// into memory; a corrupt disk entry is invalidated (counted and
    /// removed) and reported as a miss.
    pub fn lookup(&self, key: u128) -> Option<Arc<CachedSchedule>> {
        if let Some(e) = self.mem().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(e));
        }
        if let Some(dir) = &self.dir {
            let path = entry_path(dir, key);
            if let Ok(text) = std::fs::read_to_string(&path) {
                match parse_entry(&text) {
                    Some(e) => {
                        let e = Arc::new(e);
                        self.disk_hits.fetch_add(1, Ordering::Relaxed);
                        self.mem().insert(key, Arc::clone(&e));
                        return Some(e);
                    }
                    None => {
                        self.invalidations.fetch_add(1, Ordering::Relaxed);
                        let _ = std::fs::remove_file(&path);
                    }
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Insert an entry; persists to disk when a directory is attached.
    /// Disk write failures are swallowed — the in-memory layer still
    /// serves the entry, and the next process recompiles.
    pub fn store(&self, key: u128, entry: Arc<CachedSchedule>) {
        self.mem().insert(key, Arc::clone(&entry));
        self.stores.fetch_add(1, Ordering::Relaxed);
        if let Some(dir) = &self.dir {
            let text = write_entry(&entry);
            let tmp = dir.join(format!(".{:032x}.tmp.{}", key, std::process::id()));
            if std::fs::write(&tmp, text).is_ok()
                && std::fs::rename(&tmp, entry_path(dir, key)).is_err()
            {
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }

    /// `(entries, bytes)` of the on-disk store at `dir`.
    pub fn disk_stats(dir: &Path) -> io::Result<(usize, u64)> {
        let mut entries = 0usize;
        let mut bytes = 0u64;
        for f in std::fs::read_dir(dir)? {
            let f = f?;
            if f.path().extension().and_then(|e| e.to_str()) == Some(EXT) {
                entries += 1;
                bytes += f.metadata()?.len();
            }
        }
        Ok((entries, bytes))
    }

    /// Remove every cache entry under `dir`; returns how many.
    pub fn clear_disk(dir: &Path) -> io::Result<usize> {
        let mut removed = 0usize;
        for f in std::fs::read_dir(dir)? {
            let path = f?.path();
            if path.extension().and_then(|e| e.to_str()) == Some(EXT) {
                std::fs::remove_file(&path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

fn entry_path(dir: &Path, key: u128) -> PathBuf {
    dir.join(format!("{:032x}.{}", key, EXT))
}

// ---------------------------------------------------------------------------
// Key derivation
// ---------------------------------------------------------------------------

/// 128-bit FNV-1a. Stable across platforms and runs — the property the
/// on-disk store depends on (`DefaultHasher` guarantees neither).
#[derive(Debug, Clone)]
pub struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;

    pub fn new() -> Fnv128 {
        Fnv128(Self::OFFSET)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        // Separator byte: distinguishes ("ab","c") from ("a","bc").
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    pub fn finish(&self) -> u128 {
        self.0
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128::new()
    }
}

/// The content key of a scheduling-stage run: canonicalized module text
/// plus every option that (conservatively) reaches the stage. See the
/// module docs for the exact field list.
pub fn schedule_key(module: &Module, opts: &FlowOptions) -> u128 {
    let mut h = Fnv128::new();
    h.update(SCHEMA.as_bytes());
    h.update(module.to_string().as_bytes());
    h.update(opts.platform.id.as_bytes());
    h.update(&opts.hls.clock_mhz.to_bits().to_le_bytes());
    h.finish()
}

// ---------------------------------------------------------------------------
// Serialization (hand-rolled: the dependency set has no serde_json)
// ---------------------------------------------------------------------------
//
// Whitespace-separated tokens; strings are length-prefixed (`<len> <bytes>`)
// so array names survive any content. The writers below double as a
// canonical printer: two semantically identical products serialize to
// the same text, which the differential tests exploit.

/// Serialize an entry to the on-disk text format.
pub fn write_entry(e: &CachedSchedule) -> String {
    let mut s = String::new();
    s.push_str(SCHEMA);
    s.push('\n');
    w_schedule(&mut s, &e.schedule);
    w_compat(&mut s, &e.compat);
    s.push_str("end\n");
    s
}

/// Parse the on-disk text format; `None` on any structural mismatch.
pub fn parse_entry(text: &str) -> Option<CachedSchedule> {
    let mut c = Cursor { text, pos: 0 };
    if c.tok()? != SCHEMA {
        return None;
    }
    let schedule = r_schedule(&mut c)?;
    let compat = r_compat(&mut c)?;
    if c.tok()? != "end" {
        return None;
    }
    Some(CachedSchedule {
        schedule: Arc::new(schedule),
        compat: Arc::new(compat),
    })
}

fn w_str(out: &mut String, s: &str) {
    let _ = write!(out, "{} {} ", s.len(), s);
}

fn w_schedule(out: &mut String, sch: &Schedule) {
    let _ = write!(out, "schedule {} {} ", sch.dim, sch.seq.len());
    for v in &sch.seq {
        let _ = write!(out, "{} ", v);
    }
    for p in &sch.perms {
        let _ = write!(out, "{} ", p.len());
        for v in p {
            let _ = write!(out, "{} ", v);
        }
    }
    for v in &sch.micro {
        let _ = write!(out, "{} ", v);
    }
    out.push('\n');
}

fn w_compat(out: &mut String, cg: &CompatibilityGraph) {
    let _ = writeln!(out, "compat {} {}", cg.nodes.len(), cg.edges.len());
    for (arr, name, words, iface) in &cg.nodes {
        let _ = write!(out, "{} ", arr.0);
        w_str(out, name);
        let _ = write!(out, "{} {} ", words, if *iface { 1 } else { 0 });
    }
    for (a, b, kind) in &cg.edges {
        let k = match kind {
            CompatKind::AddressSpace => 0,
            CompatKind::MemoryInterface => 1,
        };
        let _ = write!(out, "{} {} {} ", a, b, k);
    }
    out.push('\n');
}

struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Next whitespace-delimited token.
    fn tok(&mut self) -> Option<&'a str> {
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        let start = self.pos;
        while self.pos < bytes.len() && !bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        (self.pos > start).then(|| &self.text[start..self.pos])
    }

    /// The next token as a number (`"12x"` is not one).
    fn num<T: std::str::FromStr>(&mut self) -> Option<T> {
        self.tok()?.parse().ok()
    }

    /// A length-prefixed string: `<len> <exactly len bytes>`.
    fn string(&mut self) -> Option<String> {
        let len = self.num()?;
        let bytes = self.text.as_bytes();
        if self.pos >= bytes.len() || bytes[self.pos] != b' ' {
            return None;
        }
        self.pos += 1;
        let end = self.pos.checked_add(len)?;
        if end > bytes.len() || !self.text.is_char_boundary(end) {
            return None;
        }
        let s = &self.text[self.pos..end];
        self.pos = end;
        Some(s.to_string())
    }
}

fn r_schedule(c: &mut Cursor) -> Option<Schedule> {
    if c.tok()? != "schedule" {
        return None;
    }
    let dim = c.num()?;
    let n = c.num()?;
    let seq = (0..n).map(|_| c.num()).collect::<Option<Vec<_>>>()?;
    let mut perms = Vec::with_capacity(n);
    for _ in 0..n {
        let rank = c.num()?;
        perms.push((0..rank).map(|_| c.num()).collect::<Option<Vec<_>>>()?);
    }
    let micro = (0..n).map(|_| c.num()).collect::<Option<Vec<_>>>()?;
    Some(Schedule {
        dim,
        seq,
        perms,
        micro,
    })
}

fn r_compat(c: &mut Cursor) -> Option<CompatibilityGraph> {
    if c.tok()? != "compat" {
        return None;
    }
    let nn = c.num()?;
    let ne = c.num()?;
    let mut nodes = Vec::with_capacity(nn);
    for _ in 0..nn {
        let arr = ArrayId(c.num()?);
        let name = c.string()?;
        let words = c.num()?;
        let iface = c.num::<usize>()? != 0;
        nodes.push((arr, name, words, iface));
    }
    let mut edges = Vec::with_capacity(ne);
    for _ in 0..ne {
        let a = c.num()?;
        let b = c.num()?;
        let kind = match c.num::<usize>()? {
            0 => CompatKind::AddressSpace,
            1 => CompatKind::MemoryInterface,
            _ => return None,
        };
        edges.push((a, b, kind));
    }
    Some(CompatibilityGraph { nodes, edges })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;

    fn scheduled_products(src: &str, opts: &FlowOptions) -> CachedSchedule {
        let p = Pipeline::new();
        let (_, fe) = p.program_frontend(src).unwrap().remove(0);
        let me = p.middle_end(&fe, opts).unwrap();
        let sc = p.schedule(&me, opts);
        CachedSchedule {
            schedule: sc.schedule,
            compat: sc.compat,
        }
    }

    fn assert_entries_equal(a: &CachedSchedule, b: &CachedSchedule) {
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(write_entry(a), write_entry(b));
    }

    #[test]
    fn entry_round_trips_bit_identically() {
        let src = cfdlang::examples::inverse_helmholtz(5);
        let opts = FlowOptions::default();
        let entry = scheduled_products(&src, &opts);
        let text = write_entry(&entry);
        let back = parse_entry(&text).expect("round trip parses");
        assert_entries_equal(&entry, &back);
        // The rebuilt entry re-serializes to the same bytes: the format
        // is a canonical printer, not just a round trip.
        assert_eq!(text, write_entry(&back));
    }

    #[test]
    fn corrupt_entries_are_rejected() {
        let src = cfdlang::examples::inverse_helmholtz(4);
        let entry = scheduled_products(&src, &FlowOptions::default());
        let text = write_entry(&entry);
        assert!(parse_entry("").is_none());
        assert!(parse_entry("wrong-schema 1 2 3").is_none());
        assert!(parse_entry(&text[..text.len() / 2]).is_none());
        assert!(parse_entry(&text.replace("end", "not-the-end")).is_none());
    }

    #[test]
    fn key_is_stable_and_content_sensitive() {
        let src = cfdlang::examples::inverse_helmholtz(4);
        let opts = FlowOptions::default();
        let p = Pipeline::new();
        let (_, fe) = p.program_frontend(&src).unwrap().remove(0);
        let me = p.middle_end(&fe, &opts).unwrap();
        let k1 = schedule_key(&me.module, &opts);
        let k2 = schedule_key(&me.module, &opts);
        assert_eq!(k1, k2);
        // jobs is non-semantic: same key.
        let more_jobs = FlowOptions {
            jobs: 7,
            ..opts.clone()
        };
        assert_eq!(k1, schedule_key(&me.module, &more_jobs));
        // The clock and the platform are part of the key.
        let mut other_clock = opts.clone();
        other_clock.hls.clock_mhz = 150.0;
        assert_ne!(k1, schedule_key(&me.module, &other_clock));
        let mut other_board = opts.clone();
        other_board.platform = sysgen::Platform::zcu102();
        assert_ne!(k1, schedule_key(&me.module, &other_board));
        // Different source, different key.
        let src2 = cfdlang::examples::inverse_helmholtz(6);
        let (_, fe2) = p.program_frontend(&src2).unwrap().remove(0);
        let me2 = p.middle_end(&fe2, &opts).unwrap();
        assert_ne!(k1, schedule_key(&me2.module, &opts));
    }

    #[test]
    fn disk_store_revives_and_invalidates() {
        let dir = std::env::temp_dir().join(format!("cfdcache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let src = cfdlang::examples::inverse_helmholtz(4);
        let opts = FlowOptions::default();
        let entry = Arc::new(scheduled_products(&src, &opts));
        let key = 0x1234_5678_9abc_def0_u128;

        let cache = CompileCache::with_dir(&dir).unwrap();
        assert!(cache.lookup(key).is_none());
        cache.store(key, Arc::clone(&entry));
        let (entries, bytes) = CompileCache::disk_stats(&dir).unwrap();
        assert_eq!(entries, 1);
        assert!(bytes > 0);

        // A fresh cache (new process, in effect) revives from disk.
        let fresh = CompileCache::with_dir(&dir).unwrap();
        let revived = fresh.lookup(key).expect("disk hit");
        assert_entries_equal(&entry, &revived);
        let c = fresh.counters();
        assert_eq!((c.hits, c.disk_hits, c.misses), (0, 1, 0));
        // Second lookup is served from memory.
        assert!(fresh.lookup(key).is_some());
        assert_eq!(fresh.counters().hits, 1);

        // Corruption is detected, counted and cleaned up.
        let path = dir.join(format!("{:032x}.{}", key, EXT));
        std::fs::write(&path, format!("{SCHEMA} garbage")).unwrap();
        let poisoned = CompileCache::with_dir(&dir).unwrap();
        assert!(poisoned.lookup(key).is_none());
        assert_eq!(poisoned.counters().invalidations, 1);
        assert!(!path.exists(), "corrupt entry removed");

        // clear_disk removes what store wrote.
        cache.store(key, entry);
        assert_eq!(CompileCache::clear_disk(&dir).unwrap(), 1);
        assert_eq!(CompileCache::disk_stats(&dir).unwrap().0, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
