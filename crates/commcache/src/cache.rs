//! The sharded in-memory schedule cache.
//!
//! Keys ([`Fingerprint`]s) are spread over N independently mutex-guarded
//! shards — concurrent grid workers looking up different keys contend on
//! different locks. Each shard is a [`Recency`] list that evicts
//! least-recently-used entries once its slice of the byte budget is
//! exceeded; budgets are enforced per shard (`total / shards`), so a
//! pathological key distribution can evict a little early, never late.
//!
//! Beside each schedule a shard can keep its encoded artifact
//! ([`crate::encode_artifact`]), the bytes a daemon's reply carries: it is
//! encoded at most once per residency, metered with the schedule, and
//! leaves with it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use commsched::Schedule;

use crate::recency::Recency;
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

/// One resident schedule, and its artifact once a reply has asked for it.
struct Resident {
    schedule: Arc<Schedule>,
    artifact: Option<Arc<Vec<u8>>>,
}

/// A fixed-shard, byte-budgeted, LRU-evicting map from [`Fingerprint`] to
/// [`Arc<Schedule>`].
///
/// All operations are `&self`; the cache is shared across threads as-is
/// (the grid executor holds one per run).
pub(crate) struct ShardedCache {
    shards: Vec<Mutex<Recency<Resident>>>,
    hits: AtomicU64,
    evictions: AtomicU64,
    rejected: AtomicU64,
}

impl ShardedCache {
    /// A cache of `shards` shards (clamped to at least 1) sharing
    /// `byte_budget` bytes of schedule weight.
    pub fn new(shards: usize, byte_budget: usize) -> Self {
        let shards = shards.max(1);
        ShardedCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Recency::new(byte_budget / shards)))
                .collect(),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: Fingerprint) -> std::sync::MutexGuard<'_, Recency<Resident>> {
        // The key is a 128-bit hash; its low bits are already uniform.
        self.shards[(key.0 as usize) % self.shards.len()]
            .lock()
            .expect("no panics hold the shard")
    }

    /// Look `key` up, refreshing its recency. Counts a hit; a miss
    /// counts nothing (the caller counts what it does next).
    pub fn get(&self, key: Fingerprint) -> Option<Arc<Schedule>> {
        self.get_if(key, |_| true)
    }

    /// [`get`](Self::get), when `accept` takes the resident schedule; a
    /// schedule it refuses is a miss, and recency does not move.
    pub fn get_if(
        &self,
        key: Fingerprint,
        accept: impl FnOnce(&Arc<Schedule>) -> bool,
    ) -> Option<Arc<Schedule>> {
        let mut shard = self.shard(key);
        if !accept(&shard.peek(key.0)?.schedule) {
            return None;
        }
        let schedule = Arc::clone(&shard.get(key.0)?.schedule);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(schedule)
    }

    /// Insert `schedule` under `key`, evicting least-recently-used entries
    /// of the shard until its byte budget holds. A schedule heavier than a
    /// whole shard budget is rejected (counted, not cached).
    pub fn insert(&self, key: Fingerprint, schedule: Arc<Schedule>) {
        let weight = schedule_weight_bytes(&schedule);
        let resident = Resident {
            schedule,
            artifact: None,
        };
        match self.shard(key).insert(key.0, resident, weight) {
            Some(evicted) => self.evictions.fetch_add(evicted, Ordering::Relaxed),
            None => self.rejected.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// The artifact `encode` makes of `schedule`, encoded at most once
    /// while `schedule` is the one resident under `key`: the first call
    /// keeps the bytes beside it, metered by the byte budget (which may
    /// evict older entries), and later calls share them. A schedule not
    /// resident under `key`, or whose artifact would not fit the shard's
    /// budget, gets fresh bytes that are not kept. The bytes are kept in
    /// the allocation `encode` made.
    pub fn artifact(
        &self,
        key: Fingerprint,
        schedule: &Arc<Schedule>,
        encode: impl FnOnce() -> Vec<u8>,
    ) -> Arc<Vec<u8>> {
        let ours = |r: &Resident| Arc::ptr_eq(&r.schedule, schedule);
        if let Some(kept) = self.shard(key).peek(key.0).filter(|r| ours(r)) {
            if let Some(artifact) = &kept.artifact {
                return Arc::clone(artifact);
            }
        }
        // Encoded outside the lock: other lookups of the shard go on.
        let artifact = Arc::new(encode());
        let mut shard = self.shard(key);
        if shard
            .peek(key.0)
            .is_some_and(|r| ours(r) && r.artifact.is_none())
        {
            let kept = Arc::clone(&artifact);
            if let Some(evicted) = shard.grow(key.0, artifact.len(), |r| r.artifact = Some(kept)) {
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
            }
        }
        artifact
    }

    /// Entries currently resident, over all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("no panics hold the shard").len())
            .sum()
    }

    /// Metered weight currently resident, over all shards: schedules and
    /// the artifacts kept beside them.
    pub fn bytes_in_use(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("no panics hold the shard").bytes())
            .sum()
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Distinct keys inserted (re-inserts of a resident key not counted):
    /// nothing leaves but by eviction, so those resident plus those evicted.
    pub fn insertions(&self) -> u64 {
        self.len() as u64 + self.evictions()
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
        assert_eq!(cache.len(), 1);
        assert!(cache.bytes_in_use() > 0);
    }

    #[test]
    fn a_resident_lookup_counts_only_its_hit() {
        let cache = ShardedCache::new(2, 1 << 20);
        assert!(cache.get(key(1)).is_none());
        assert_eq!(cache.hits(), 0, "a miss counts nothing");
        cache.insert(key(1), schedule(8));
        assert!(cache.get(key(1)).is_some());
        assert_eq!(cache.hits(), 1);
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
    fn an_artifact_is_encoded_once_per_residency_and_metered() {
        let weight = schedule_weight_bytes(&schedule(8));
        let cache = ShardedCache::new(1, 3 * weight);
        let s = schedule(8);
        cache.insert(key(1), Arc::clone(&s));
        let encodes = std::cell::Cell::new(0);
        let encoded = std::cell::Cell::new(std::ptr::null());
        let encode = || {
            encodes.set(encodes.get() + 1);
            let bytes = vec![7u8; weight];
            encoded.set(bytes.as_ptr());
            bytes
        };
        let first = cache.artifact(key(1), &s, encode);
        assert_eq!(
            first.as_ptr(),
            encoded.get(),
            "the encoded bytes were copied"
        );
        let again = cache.artifact(key(1), &s, encode);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(encodes.get(), 1, "encoded once while resident");
        assert_eq!(cache.bytes_in_use(), 2 * weight);
        // Another schedule under the key is another residency; a schedule
        // not resident under the key is encoded and not kept.
        let other = schedule(8);
        cache.insert(key(1), Arc::clone(&other));
        assert_eq!(cache.bytes_in_use(), weight, "the artifact left with it");
        assert_eq!(cache.artifact(key(1), &s, encode).len(), weight);
        assert_eq!((encodes.get(), cache.bytes_in_use()), (2, weight));
        cache.artifact(key(1), &other, encode);
        cache.artifact(key(1), &other, encode);
        assert_eq!((encodes.get(), cache.bytes_in_use()), (3, 2 * weight));
        // Kept bytes count against the budget: a second schedule with its
        // artifact no longer fits beside the first.
        cache.insert(key(2), schedule(8));
        cache.artifact(key(2), &cache.get(key(2)).unwrap(), encode);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(key(1)).is_none() && cache.get(key(2)).is_some());
        // An artifact that could not fit even alone is handed out unkept.
        let big = ShardedCache::new(1, weight + 1);
        big.insert(key(3), Arc::clone(&s));
        assert_eq!(big.artifact(key(3), &s, encode).len(), weight);
        assert_eq!((big.bytes_in_use(), big.evictions()), (weight, 0));
    }

    #[test]
    fn a_refused_schedule_is_a_miss_that_moves_nothing() {
        let weight = schedule_weight_bytes(&schedule(8));
        let cache = ShardedCache::new(1, 2 * weight);
        cache.insert(key(1), schedule(8));
        cache.insert(key(2), schedule(8));
        assert!(cache.get_if(key(1), |_| false).is_none());
        assert_eq!(cache.hits(), 0);
        // Key 1 is still the oldest: the next insert evicts it.
        cache.insert(key(3), schedule(8));
        assert!(cache.get(key(1)).is_none() && cache.get(key(2)).is_some());
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let cache = ShardedCache::new(0, 1 << 20);
        assert_eq!(cache.shards.len(), 1);
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
