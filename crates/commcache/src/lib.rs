//! Schedule compilation cache — turning schedules into cacheable,
//! persistable artifacts.
//!
//! The paper's whole economic argument is **amortization**: an
//! unstructured communication pattern is scheduled once and executed
//! across many iterations of the application, so schedule-construction
//! cost is paid off over reuse. This crate is that argument as
//! infrastructure, in four parts:
//!
//! * [`Fingerprint`] — a canonical 128-bit key over *(matrix contents,
//!   topology identity, scheduler name, seed)* with a documented, stable
//!   byte serialization, so keys survive process restarts.
//! * An in-memory cache of eight mutex-guarded shards keyed by
//!   fingerprint, each a byte-budgeted LRU list — the same list the
//!   incremental layer keeps its retained bases in.
//! * [`ArtifactStore`] — schedules persisted in a versioned on-disk
//!   format (magic + version header + checksum) under `results/cache/`,
//!   with corrupted or foreign-version files surfacing as typed
//!   [`StoreError`]s, never trusted data.
//! * [`SchedCache`] — the one reuse step: memory first, then
//!   load-on-miss from the store, then patch a retained base
//!   ([`IncrementalCache`], opt-in) or compile, write through, and
//!   register the result as a future patch base.
//!
//! Caching changes *cost*, never *results*: schedules are deterministic
//! functions of the fingerprinted inputs, the artifact round-trip is
//! exact (tested), and the runtime's grids are verified byte-identical
//! with the cache on and off.
//!
//! ```
//! use commcache::{CacheConfig, SchedCache};
//! use commsched::{registry, CommMatrix};
//! use hypercube::Hypercube;
//!
//! let cache = SchedCache::new(CacheConfig::in_memory());
//! let cube = Hypercube::new(4);
//! let mut com = CommMatrix::new(16);
//! com.set(0, 5, 1024);
//! let entry = registry::find("RS_NL").unwrap();
//!
//! let cold = cache.get_or_schedule(entry, &com, &cube, 7); // compiles
//! let warm = cache.get_or_schedule(entry, &com, &cube, 7); // cache hit
//! assert_eq!(cold, warm);
//! let stats = cache.stats();
//! assert_eq!((stats.mem_hits, stats.misses), (1, 1));
//! ```

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use commsched::{CommMatrix, Schedule, Scheduler};
use hypercube::Topology;

mod cache;
mod checksum;
pub mod codec;
mod fingerprint;
mod incremental;
mod recency;
mod store;

pub use cache::schedule_weight_bytes;
use cache::ShardedCache;
pub use checksum::{checksum64, hash128};
pub use fingerprint::{canonical_bytes, Fingerprint, InstanceKey, LAYOUT_VERSION};
pub use incremental::{IncrementalCache, IncrementalConfig, IncrementalStats};
pub use store::{
    decode_artifact, decode_artifact_full, encode_artifact, encode_artifact_with, ArtifactStore,
    StoreError, TopologyMeta, EXTENSION, FORMAT_VERSION, MAGIC,
};

/// Mutex-guarded shards of a [`SchedCache`]'s in-memory cache.
const SHARDS: usize = 8;

/// Configuration of a [`SchedCache`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total in-memory byte budget, split evenly across the eight shards
    /// and enforced by LRU eviction (metered via [`schedule_weight_bytes`]).
    pub byte_budget: usize,
    /// Artifact-store directory; `None` disables persistence. Freshly
    /// compiled schedules are written through to it.
    pub persist_dir: Option<PathBuf>,
    /// Delta-aware compilation ([`IncrementalCache`]); `None` (the
    /// default) keeps the cache byte-identical to a cold compile —
    /// patched schedules may differ structurally from cold ones, so the
    /// layer is strictly opt-in.
    pub incremental: Option<IncrementalConfig>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            byte_budget: 64 << 20, // 64 MiB
            persist_dir: None,
            incremental: None,
        }
    }
}

impl CacheConfig {
    /// Memory-only cache with the default shard count and budget.
    pub fn in_memory() -> Self {
        CacheConfig::default()
    }

    /// Persistent cache (load-on-miss + write-through) rooted at `dir`.
    pub fn persistent(dir: impl Into<PathBuf>) -> Self {
        CacheConfig {
            persist_dir: Some(dir.into()),
            ..CacheConfig::default()
        }
    }

    /// Override the in-memory byte budget.
    pub fn with_byte_budget(mut self, bytes: usize) -> Self {
        self.byte_budget = bytes;
        self
    }

    /// Enable delta-aware compilation with `config`.
    pub fn with_incremental(mut self, config: IncrementalConfig) -> Self {
        self.incremental = Some(config);
        self
    }

    /// Enable delta-aware compilation with default settings.
    pub fn incremental_default(self) -> Self {
        self.with_incremental(IncrementalConfig::default())
    }
}

/// A point-in-time snapshot of every cache counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `get_or_*` requests served.
    pub requests: u64,
    /// Requests answered by the in-memory cache.
    pub mem_hits: u64,
    /// Requests answered by the artifact store (then promoted to memory).
    pub store_hits: u64,
    /// Requests that compiled a schedule (true misses).
    pub misses: u64,
    /// Distinct keys inserted into memory.
    pub insertions: u64,
    /// Entries evicted under the byte budget.
    pub evictions: u64,
    /// Schedules too heavy for a shard budget, never cached.
    pub rejected: u64,
    /// Entries currently resident in memory.
    pub entries: usize,
    /// Metered weight currently resident (bytes): schedules, and the
    /// artifacts kept beside them ([`SchedCache::artifact`]).
    pub bytes_in_use: usize,
    /// Artifacts written through to the store.
    pub store_writes: u64,
    /// Store files skipped as foreign format versions (treated as misses).
    pub store_skips: u64,
    /// Store reads/writes that failed (corrupt, truncated, I/O); each is
    /// absorbed as a miss, never an answer.
    pub store_errors: u64,
}

impl CacheStats {
    /// Requests answered without compiling (memory + store hits).
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.store_hits
    }

    /// Fraction of requests answered without compiling (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits() as f64 / self.requests as f64
        }
    }
}

/// The schedule cache: eight LRU shards in memory in front of an
/// optional [`ArtifactStore`], with an optional [`IncrementalCache`].
///
/// Lookup policy per request: fingerprint the inputs, try memory, then
/// (if persistent) try the store — a store hit is promoted into memory —
/// then patch a retained base or compile, cache, and (if persistent)
/// write through. Store files that are corrupt or a foreign version are
/// *skipped*: the request falls through to compilation and the bad
/// artifact is overwritten by the write-through, which is the
/// self-healing behaviour an on-disk cache wants.
///
/// Concurrency: all methods take `&self`; the cache is shared across
/// threads (the grid executor does). Two threads missing the same key
/// simultaneously may both compile it — schedules are deterministic, so
/// both compute identical values and either insert wins; correctness
/// never depends on single-flight.
pub struct SchedCache {
    mem: ShardedCache,
    store: Option<ArtifactStore>,
    incremental: Option<IncrementalCache>,
    requests: AtomicU64,
    store_hits: AtomicU64,
    misses: AtomicU64,
    store_writes: AtomicU64,
    store_skips: AtomicU64,
    store_errors: AtomicU64,
}

impl SchedCache {
    /// Build a cache from its configuration.
    pub fn new(config: CacheConfig) -> Self {
        SchedCache {
            mem: ShardedCache::new(SHARDS, config.byte_budget),
            store: config.persist_dir.map(ArtifactStore::new),
            incremental: config.incremental.map(IncrementalCache::new),
            requests: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            store_writes: AtomicU64::new(0),
            store_skips: AtomicU64::new(0),
            store_errors: AtomicU64::new(0),
        }
    }

    /// Memory-only cache with default configuration.
    pub fn in_memory() -> Self {
        SchedCache::new(CacheConfig::in_memory())
    }

    /// The artifact store, when persistence is configured.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    /// Schedule `com` on `topo` with `entry` at `seed`, served from cache
    /// when possible. Without the incremental layer, equal inputs always
    /// return an equal schedule — a hit returns exactly what the compile
    /// would have produced. With [`CacheConfig::incremental`] enabled, a
    /// fingerprint miss may instead be served by *patching* a retained
    /// base schedule (validated against `com`, falling back to a cold
    /// compile on any rejection), and every served schedule is retained
    /// as a future patch base.
    pub fn get_or_schedule(
        &self,
        entry: &dyn Scheduler,
        com: &CommMatrix,
        topo: &dyn Topology,
        seed: u64,
    ) -> Arc<Schedule> {
        let key = InstanceKey::compute(com, topo);
        self.get_or_schedule_keyed(entry, key, com, topo, seed).0
    }

    /// [`get_or_schedule`](Self::get_or_schedule) given `key`, the
    /// instance key of `(com, topo)`: memory, then the store, then patch
    /// a retained base or compile, then (incremental layer on) retain
    /// `(key, com)` as a patch base holding the schedule. The flag is
    /// `true` when this call patched or compiled, i.e. when it counted
    /// one of [`CacheStats::misses`].
    pub fn get_or_schedule_keyed(
        &self,
        entry: &dyn Scheduler,
        key: InstanceKey,
        com: &CommMatrix,
        topo: &dyn Topology,
        seed: u64,
    ) -> (Arc<Schedule>, bool) {
        let produced = Cell::new(false);
        let fp = key.schedule_key(entry.name(), seed);
        let schedule = self.get_or_compute_on(fp, topo, || {
            produced.set(true);
            self.incremental
                .as_ref()
                .and_then(|inc| inc.get_patched(entry, key, com, topo, seed))
                .unwrap_or_else(|| Arc::new(entry.schedule(com, topo, seed)))
        });
        // With the incremental layer on, every served schedule becomes a
        // patch base, so drifting patterns chain.
        if let Some(inc) = &self.incremental {
            inc.register(key, com, topo, entry.name(), seed, Arc::clone(&schedule));
        }
        (schedule, produced.get())
    }

    /// Serve `key` from memory, then the store, then `compile` (caching
    /// and write-through on the way out), for callers that derive keys
    /// themselves (e.g. via [`InstanceKey`]). `compile` may return a
    /// [`Schedule`] or an [`Arc<Schedule>`]. Write-through artifacts
    /// record `topo` (`schedctl inspect` renders it).
    pub fn get_or_compute_on<S: Into<Arc<Schedule>>>(
        &self,
        key: Fingerprint,
        topo: &dyn Topology,
        compile: impl FnOnce() -> S,
    ) -> Arc<Schedule> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if let Some(schedule) = self.mem.get(key) {
            return schedule;
        }
        if let Some(store) = &self.store {
            match store.load(key) {
                Ok(Some(schedule)) => {
                    self.store_hits.fetch_add(1, Ordering::Relaxed);
                    let schedule = Arc::new(schedule);
                    self.mem.insert(key, Arc::clone(&schedule));
                    return schedule;
                }
                Ok(None) => {}
                Err(StoreError::UnsupportedVersion(_)) => {
                    self.store_skips.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    self.store_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let schedule = compile().into();
        self.mem.insert(key, Arc::clone(&schedule));
        if let Some(store) = &self.store {
            match store.store_with(key, &schedule, Some(&TopologyMeta::of(topo))) {
                Ok(_) => {
                    self.store_writes.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    self.store_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        schedule
    }

    /// Serve `key`, the fingerprint of `instance` under `(entry, seed)`,
    /// from memory alone, when `accept` takes the resident schedule. A hit
    /// counts one request and one memory hit, exactly what
    /// [`get_or_schedule_keyed`](Self::get_or_schedule_keyed) counts for
    /// it, and with the incremental layer on records the schedule on the
    /// base retained under `instance`, as that step would. A miss counts
    /// and changes nothing and never reads the store, so a caller that
    /// goes on to the full step has the request counted once. With the
    /// layer on, a base that is no longer retained makes this a miss:
    /// only the full step, which holds the matrix, can retain it again.
    pub fn get_resident(
        &self,
        key: Fingerprint,
        accept: impl FnOnce(&Arc<Schedule>) -> bool,
        entry: &dyn Scheduler,
        instance: InstanceKey,
        seed: u64,
    ) -> Option<Arc<Schedule>> {
        let resident = || {
            let schedule = self.mem.get_if(key, accept)?;
            self.requests.fetch_add(1, Ordering::Relaxed);
            Some(schedule)
        };
        match &self.incremental {
            None => resident(),
            Some(inc) => inc.refresh_with(instance, entry.name(), seed, resident),
        }
    }

    /// The artifact of `schedule` under `key`
    /// ([`encode_artifact`]`(key, schedule)`), encoded at most once while
    /// `schedule` stays resident under `key`: the bytes are kept beside it,
    /// metered by the byte budget, so a repeat is answered with bytes the
    /// cache already holds. A schedule that is not resident gets fresh
    /// bytes.
    pub fn artifact(&self, key: Fingerprint, schedule: &Arc<Schedule>) -> Arc<Vec<u8>> {
        self.mem
            .artifact(key, schedule, || encode_artifact(key, schedule))
    }

    /// The incremental layer, when delta-aware compilation is enabled.
    pub fn incremental(&self) -> Option<&IncrementalCache> {
        self.incremental.as_ref()
    }

    /// Snapshot the incremental counters (`None` when the layer is off).
    pub fn incremental_stats(&self) -> Option<IncrementalStats> {
        self.incremental.as_ref().map(IncrementalCache::stats)
    }

    /// Snapshot every counter.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            requests: self.requests.load(Ordering::Relaxed),
            mem_hits: self.mem.hits(),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.mem.insertions(),
            evictions: self.mem.evictions(),
            rejected: self.mem.rejected(),
            entries: self.mem.len(),
            bytes_in_use: self.mem.bytes_in_use(),
            store_writes: self.store_writes.load(Ordering::Relaxed),
            store_skips: self.store_skips.load(Ordering::Relaxed),
            store_errors: self.store_errors.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for SchedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedCache")
            .field("persist_dir", &self.store.as_ref().map(ArtifactStore::dir))
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsched::registry;
    use hypercube::Hypercube;

    fn sample_com() -> CommMatrix {
        let mut com = CommMatrix::new(16);
        com.set(0, 5, 1024);
        com.set(5, 0, 1024);
        com.set(2, 9, 256);
        com
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("commcache_lib_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn hits_return_the_compiled_schedule() {
        let cache = SchedCache::in_memory();
        let com = sample_com();
        let cube = Hypercube::new(4);
        let entry = registry::find("RS_NL").unwrap();
        let cold = cache.get_or_schedule(entry, &com, &cube, 7);
        let warm = cache.get_or_schedule(entry, &com, &cube, 7);
        assert!(Arc::ptr_eq(&cold, &warm));
        assert_eq!(*cold, entry.schedule(&com, &cube, 7));
        let stats = cache.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.mem_hits, 1);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_schedulers_and_seeds_do_not_alias() {
        let cache = SchedCache::in_memory();
        let com = sample_com();
        let cube = Hypercube::new(4);
        let rs_n = registry::find("RS_N").unwrap();
        let rs_nl = registry::find("RS_NL").unwrap();
        cache.get_or_schedule(rs_n, &com, &cube, 7);
        cache.get_or_schedule(rs_nl, &com, &cube, 7);
        cache.get_or_schedule(rs_nl, &com, &cube, 8);
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn persistent_cache_survives_a_new_process_image() {
        // Two SchedCache instances over one directory model two runs of
        // one binary: the second's memory is cold, the store is not.
        let dir = tmp_dir("survive");
        let com = sample_com();
        let cube = Hypercube::new(4);
        let entry = registry::find("RS_NL").unwrap();

        let first = SchedCache::new(CacheConfig::persistent(&dir));
        let compiled = first.get_or_schedule(entry, &com, &cube, 3);
        assert_eq!(first.stats().store_writes, 1);

        let second = SchedCache::new(CacheConfig::persistent(&dir));
        let loaded = second.get_or_schedule(entry, &com, &cube, 3);
        assert_eq!(*loaded, *compiled);
        let stats = second.stats();
        assert_eq!(stats.store_hits, 1);
        assert_eq!(stats.misses, 0);
        // The store hit was promoted: a third request is a memory hit.
        second.get_or_schedule(entry, &com, &cube, 3);
        assert_eq!(second.stats().mem_hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_resident_lookup_never_reads_the_store_and_counts_only_a_hit() {
        let dir = tmp_dir("resident");
        let com = sample_com();
        let cube = Hypercube::new(4);
        let entry = registry::find("RS_NL").unwrap();
        let instance = InstanceKey::compute(&com, &cube);
        let fp = instance.schedule_key(entry.name(), 3);
        SchedCache::new(CacheConfig::persistent(&dir)).get_or_schedule(entry, &com, &cube, 3);

        // Cold memory over a warm store: nothing resident, nothing counted.
        let cache = SchedCache::new(CacheConfig::persistent(&dir));
        let resident = |accept: bool| cache.get_resident(fp, |_| accept, entry, instance, 3);
        assert!(resident(true).is_none());
        assert_eq!(cache.stats(), SchedCache::in_memory().stats());
        let loaded = cache.get_or_schedule(entry, &com, &cube, 3);
        let stats = cache.stats();
        assert_eq!((stats.requests, stats.store_hits), (1, 1));

        // Resident now: a hit counted as `get_or_schedule` counts one.
        assert!(resident(false).is_none(), "refused");
        let resident = resident(true).expect("promoted into memory");
        assert!(Arc::ptr_eq(&resident, &loaded));
        let stats = cache.stats();
        assert_eq!((stats.requests, stats.mem_hits, stats.misses), (2, 1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_artifacts_are_recompiled_and_healed() {
        let dir = tmp_dir("heal");
        let com = sample_com();
        let cube = Hypercube::new(4);
        let entry = registry::find("RS_N").unwrap();
        let cache = SchedCache::new(CacheConfig::persistent(&dir));
        let schedule = cache.get_or_schedule(entry, &com, &cube, 1);
        // Corrupt the payload on disk.
        let fp = Fingerprint::compute(&com, &cube, entry.name(), 1);
        let path = cache.store().unwrap().path_for(fp);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 9; // inside the payload, before checksum
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let fresh = SchedCache::new(CacheConfig::persistent(&dir));
        let recompiled = fresh.get_or_schedule(entry, &com, &cube, 1);
        assert_eq!(*recompiled, *schedule);
        let stats = fresh.stats();
        assert_eq!(stats.store_errors, 1, "corrupt read absorbed");
        assert_eq!(stats.misses, 1, "fell through to compile");
        assert_eq!(stats.store_writes, 1, "healed by write-through");
        // The healed artifact now loads cleanly.
        let healed = SchedCache::new(CacheConfig::persistent(&dir));
        healed.get_or_schedule(entry, &com, &cube, 1);
        assert_eq!(healed.stats().store_hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_registry_entry_roundtrips_through_the_cache() {
        let dir = tmp_dir("registry");
        let com = sample_com();
        let cube = Hypercube::new(4);
        let writer = SchedCache::new(CacheConfig::persistent(&dir));
        let reader = SchedCache::new(CacheConfig::persistent(&dir));
        for &entry in registry::all() {
            let direct = entry.schedule(&com, &cube, 11);
            let cold = writer.get_or_schedule(entry, &com, &cube, 11);
            let warm = reader.get_or_schedule(entry, &com, &cube, 11);
            assert_eq!(*cold, direct, "{}", entry.name());
            assert_eq!(*warm, direct, "{} via store", entry.name());
        }
        assert_eq!(reader.stats().store_hits, registry::all().len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incremental_cache_patches_drifting_patterns() {
        let cache = SchedCache::new(CacheConfig::in_memory().incremental_default());
        let cube = Hypercube::new(5);
        let entry = registry::find("RS_NL").unwrap();
        let mut com = CommMatrix::new(32);
        for i in 0..32 {
            com.set(i, (i + 1) % 32, 256);
            com.set(i, (i + 7) % 32, 512);
        }
        // Cold compile registers the base.
        cache.get_or_schedule(entry, &com, &cube, 7);
        // Drift: each iteration moves one message, and the patched result
        // must stay a valid schedule of the drifted matrix.
        for step in 0..5usize {
            let from = (step * 3) % 32;
            com.set(from, (from + 1) % 32, 0);
            com.set(from, (from + 11) % 32, 64);
            let s = cache.get_or_schedule(entry, &com, &cube, 7);
            commsched::validate_schedule(&com, &s).unwrap();
            assert!(s.link_contention_free(&cube));
        }
        let inc = cache.incremental_stats().unwrap();
        assert_eq!(inc.patches, 5, "every drift step patched: {inc:?}");
        assert_eq!(inc.validation_rejections, 0);
        assert!(cache.incremental().is_some());
        // Replaying an already-seen matrix is still an exact memory hit —
        // the incremental layer only runs on fingerprint misses.
        cache.get_or_schedule(entry, &com, &cube, 7);
        assert_eq!(cache.stats().mem_hits, 1);
    }

    #[test]
    fn incremental_off_by_default_keeps_exact_semantics() {
        let config = CacheConfig::in_memory();
        assert!(config.incremental.is_none());
        let cache = SchedCache::new(config);
        assert!(cache.incremental_stats().is_none());
        let com = sample_com();
        let cube = Hypercube::new(4);
        let entry = registry::find("RS_NL").unwrap();
        let cached = cache.get_or_schedule(entry, &com, &cube, 7);
        assert_eq!(*cached, entry.schedule(&com, &cube, 7));
    }

    #[test]
    fn debug_renders_stats_not_internals() {
        let cache = SchedCache::in_memory();
        let s = format!("{cache:?}");
        assert!(s.contains("SchedCache"));
        assert!(s.contains("requests"));
    }
}
