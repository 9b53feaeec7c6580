//! The sharded in-memory schedule cache.
//!
//! Keys ([`Fingerprint`]s) are spread over N independently mutex-guarded
//! shards — concurrent grid workers looking up different keys contend on
//! different locks. Each shard evicts least-recently-used entries once its
//! slice of the byte budget is exceeded; budgets are enforced per shard
//! (`total / shards`), so a pathological key distribution can evict a
//! little early, never late.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use commsched::Schedule;

use crate::Fingerprint;

/// Approximate resident size of a cached schedule in bytes: a 64-byte
/// header plus, per phase, 32 bytes and one 4-byte destination word per
/// node. This is the weight the byte budget meters — a deliberate model,
/// not an exact `size_of` walk. A schedule holds exactly one word per
/// node per phase in a single table, so the model bounds the struct plus
/// [`Schedule::heap_bytes`] from above (tested on every registry entry);
/// the formula is older than that layout and kept so eviction order does
/// not move.
pub fn schedule_weight_bytes(s: &Schedule) -> usize {
    64 + s.num_phases() * (32 + s.n() * 4)
}

struct Entry {
    schedule: Arc<Schedule>,
    weight: usize,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u128, Entry>,
    /// Recency index: `last_used` tick → key. Ticks are unique (the clock
    /// only advances under the shard lock), so this is a faithful LRU
    /// order and eviction pops its first entry in O(log n) instead of
    /// scanning the map.
    lru: BTreeMap<u64, u128>,
    /// Monotone per-shard clock stamping recency.
    clock: u64,
    bytes: usize,
}

/// A fixed-shard, byte-budgeted, LRU-evicting map from [`Fingerprint`] to
/// [`Arc<Schedule>`].
///
/// All operations are `&self`; the cache is shared across threads as-is
/// (the grid executor holds one per run).
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    rejected: AtomicU64,
}

impl ShardedCache {
    /// A cache of `shards` shards (clamped to at least 1) sharing
    /// `byte_budget` bytes of schedule weight.
    pub fn new(shards: usize, byte_budget: usize) -> Self {
        let shards = shards.max(1);
        ShardedCache {
            shard_budget: byte_budget / shards,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: Fingerprint) -> &Mutex<Shard> {
        // The key is a 128-bit hash; its low bits are already uniform.
        &self.shards[(key.0 as usize) % self.shards.len()]
    }

    /// Look `key` up, refreshing its recency. Counts a hit or a miss.
    pub fn get(&self, key: Fingerprint) -> Option<Arc<Schedule>> {
        let found = self.get_resident(key);
        if found.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// [`get`](Self::get) that counts only a hit: a caller that goes on
    /// to `get` after a miss has that miss counted once.
    pub fn get_resident(&self, key: Fingerprint) -> Option<Arc<Schedule>> {
        let mut guard = self.shard(key).lock().expect("no panics hold the shard");
        let shard = &mut *guard;
        let entry = shard.map.get_mut(&key.0)?;
        shard.clock += 1;
        let clock = shard.clock;
        shard.lru.remove(&entry.last_used);
        shard.lru.insert(clock, key.0);
        entry.last_used = clock;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&entry.schedule))
    }

    /// Insert `schedule` under `key`, evicting least-recently-used entries
    /// of the shard until its byte budget holds. A schedule heavier than a
    /// whole shard budget is rejected (counted, not cached) — caching it
    /// would evict everything else for a single entry.
    pub fn insert(&self, key: Fingerprint, schedule: Arc<Schedule>) {
        let weight = schedule_weight_bytes(&schedule);
        if weight > self.shard_budget {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut guard = self.shard(key).lock().expect("no panics hold the shard");
        let shard = &mut *guard;
        shard.clock += 1;
        let clock = shard.clock;
        if let Some(old) = shard.map.insert(
            key.0,
            Entry {
                schedule,
                weight,
                last_used: clock,
            },
        ) {
            // Re-insert under the same key: swap the accounting, no
            // eviction pressure change beyond the weight delta.
            shard.bytes -= old.weight;
            shard.lru.remove(&old.last_used);
        } else {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
        shard.lru.insert(clock, key.0);
        shard.bytes += weight;
        while shard.bytes > self.shard_budget {
            let (_, lru_key) = shard
                .lru
                .pop_first()
                .expect("over budget implies non-empty");
            let evicted = shard.map.remove(&lru_key).expect("recency index in sync");
            shard.bytes -= evicted.weight;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Entries currently resident, over all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("no panics hold the shard").map.len())
            .sum()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Metered schedule weight currently resident, over all shards.
    pub fn bytes_in_use(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("no panics hold the shard").bytes)
            .sum()
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct keys inserted (re-inserts of a resident key not counted).
    pub fn insertions(&self) -> u64 {
        self.insertions.load(Ordering::Relaxed)
    }

    /// Entries evicted under the byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Oversize schedules refused outright (heavier than a shard budget).
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsched::{ac, CommMatrix};

    fn schedule(n: usize) -> Arc<Schedule> {
        Arc::new(ac(&CommMatrix::new(n)))
    }

    fn key(i: u128) -> Fingerprint {
        Fingerprint(i)
    }

    #[test]
    fn get_after_insert_hits() {
        let cache = ShardedCache::new(4, 1 << 20);
        assert!(cache.get(key(1)).is_none());
        let s = schedule(8);
        cache.insert(key(1), Arc::clone(&s));
        let got = cache.get(key(1)).expect("hit");
        assert!(Arc::ptr_eq(&got, &s));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.bytes_in_use() > 0);
    }

    #[test]
    fn a_resident_lookup_counts_only_its_hit() {
        let cache = ShardedCache::new(2, 1 << 20);
        assert!(cache.get_resident(key(1)).is_none());
        assert_eq!(
            (cache.hits(), cache.misses()),
            (0, 0),
            "a miss counts nothing"
        );
        cache.insert(key(1), schedule(8));
        assert!(cache.get_resident(key(1)).is_some());
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
    }

    #[test]
    fn lru_eviction_respects_recency() {
        // One shard, a budget fitting exactly two AC schedules.
        let weight = schedule_weight_bytes(&schedule(8));
        let cache = ShardedCache::new(1, 2 * weight);
        cache.insert(key(1), schedule(8));
        cache.insert(key(2), schedule(8));
        // Touch 1 so 2 becomes the LRU entry.
        assert!(cache.get(key(1)).is_some());
        cache.insert(key(3), schedule(8));
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(key(1)).is_some(), "recently used survives");
        assert!(cache.get(key(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(key(3)).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn sustained_over_budget_churn_keeps_map_and_index_in_sync() {
        // Thousands of unique keys through a budget holding ~4 entries:
        // every insert evicts, interleaved gets re-stamp survivors, and
        // the map/recency-index/bytes accounting must stay consistent.
        let weight = schedule_weight_bytes(&schedule(8));
        let cache = ShardedCache::new(2, 8 * weight); // 4 per shard
        for i in 0..5_000u128 {
            cache.insert(key(i), schedule(8));
            cache.get(key(i / 2));
        }
        assert!(cache.len() <= 8);
        assert_eq!(cache.bytes_in_use(), cache.len() * weight);
        assert_eq!(
            cache.insertions() - cache.evictions(),
            cache.len() as u64,
            "inserted minus evicted is what is resident"
        );
    }

    #[test]
    fn oversize_entries_are_rejected_not_cached() {
        let cache = ShardedCache::new(2, 64); // 32 bytes per shard
        cache.insert(key(7), schedule(64));
        assert_eq!(cache.rejected(), 1);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.bytes_in_use(), 0);
    }

    #[test]
    fn reinsert_replaces_without_double_accounting() {
        let cache = ShardedCache::new(1, 1 << 20);
        cache.insert(key(1), schedule(8));
        let before = cache.bytes_in_use();
        cache.insert(key(1), schedule(8));
        assert_eq!(cache.bytes_in_use(), before);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.insertions(), 1);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let cache = ShardedCache::new(0, 1 << 20);
        assert_eq!(cache.shards(), 1);
        cache.insert(key(9), schedule(4));
        assert!(cache.get(key(9)).is_some());
    }

    #[test]
    fn concurrent_access_is_safe_and_counted() {
        let cache = Arc::new(ShardedCache::new(8, 1 << 20));
        std::thread::scope(|scope| {
            for t in 0..8u128 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..50 {
                        cache.insert(key(t * 1000 + i), schedule(8));
                        assert!(cache.get(key(t * 1000 + i)).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.len(), 400);
        assert_eq!(cache.hits(), 400);
        assert_eq!(cache.insertions(), 400);
    }
}
