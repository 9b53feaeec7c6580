//! The incremental compilation layer: retained base instances and
//! delta-patched schedules.
//!
//! A 1%-perturbed matrix misses the fingerprint cache *entirely* — any
//! changed cell changes the [`crate::Fingerprint`] — and would pay a full
//! cold compile. This layer closes that gap: it retains recent base
//! instances (matrix + the schedules compiled for it) keyed by
//! [`InstanceKey`] under its own byte budget, and on a fingerprint miss
//! diffs the incoming matrix against the most recent compatible bases. A
//! base within the structural-delta threshold is **patched** via
//! [`Scheduler::patch_schedule`] instead of recompiled.
//!
//! Correctness gate: every patched schedule is checked with
//! [`validate_schedule`] against the *perturbed* matrix (plus the entry's
//! link-contention guarantee when it claims one) before it is served;
//! rejects are counted and fall back to a cold compile. Patching trades
//! exact schedule reproduction for compile latency, never validity —
//! which is why the layer is **opt-in**
//! ([`crate::CacheConfig::incremental`] is `None` by default) and the
//! byte-identical repro grids run without it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use commsched::{
    validate_schedule, CommMatrix, MatrixDelta, PathsTable, Schedule, Scheduler, SILENT,
};
use hypercube::Topology;

use crate::cache::schedule_weight_bytes;
use crate::recency::Recency;
use crate::InstanceKey;

/// Fallback threshold: a base qualifies when the delta's *structural*
/// edits (added + removed; resizes patch for free) per 1000 base messages
/// stay at or under this. 50 ≙ 5%; a 1%-drift workload (remove + re-add
/// ≈ 20‰) fits comfortably.
const MAX_DELTA_PERMILLE: usize = 50;

/// Most-recent compatible bases diffed per lookup before giving up —
/// bounds the diff work a single miss can spend.
const MAX_CANDIDATES: usize = 8;

/// Configuration of the [`IncrementalCache`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IncrementalConfig {
    /// Byte budget for retained bases (matrix weight + schedule weights),
    /// enforced by LRU eviction.
    pub byte_budget: usize,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            byte_budget: 32 << 20, // 32 MiB
        }
    }
}

impl IncrementalConfig {
    /// Override the byte budget.
    pub fn with_byte_budget(mut self, bytes: usize) -> Self {
        self.byte_budget = bytes;
        self
    }
}

/// A point-in-time snapshot of the incremental counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Fingerprint misses routed through the incremental layer.
    pub lookups: u64,
    /// Lookups that found a retained base within the delta threshold.
    pub base_hits: u64,
    /// Lookups with no base within threshold (cold compile follows).
    pub base_misses: u64,
    /// Patched schedules served (validated against the perturbed matrix).
    pub patches: u64,
    /// Base hits that still recompiled: no base schedule for the
    /// scheduler/seed, the entry declined to patch, or validation
    /// rejected the patch.
    pub fallbacks: u64,
    /// Patched schedules rejected by the validation gate (subset of
    /// `fallbacks`).
    pub validation_rejections: u64,
    /// Bases currently retained.
    pub bases_resident: usize,
    /// Metered base weight currently retained (bytes).
    pub bytes_in_use: usize,
    /// Bases evicted under the byte budget.
    pub evictions: u64,
}

impl IncrementalStats {
    /// Fraction of lookups served by a patch (0 when idle).
    pub fn patch_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.patches as f64 / self.lookups as f64
        }
    }
}

/// Link gate for patched schedules, priced per *touched* phase. A phase
/// whose circuits are a subset of the base phase at the same index
/// inherits the base's link guarantee — removing circuits from a
/// link-disjoint phase cannot make two of the survivors share a link,
/// and every retained base under a link-free entry was itself compiled
/// or gated under that guarantee. The subset test compares the two rows
/// word by word. Only phases that gained circuits (or shifted index when
/// an emptied phase was dropped) pay a route sweep, all of them on one
/// reservation table.
fn patched_link_free(patched: &Schedule, base: &Schedule, topo: &dyn Topology) -> bool {
    let base_phases = base.phases();
    let mut paths = PathsTable::new(topo);
    let mut route = Vec::with_capacity(topo.diameter());
    patched.phases().iter().enumerate().all(|(k, pm)| {
        base_phases.get(k).is_some_and(|b| {
            let (sub, sup) = (pm.words(), b.words());
            sub.len() == sup.len() && sub.iter().zip(sup).all(|(&w, &v)| w == SILENT || w == v)
        }) || pm.is_link_free_in(topo, &mut paths, &mut route)
    })
}

/// Approximate resident size of a retained base matrix: header and table.
fn matrix_weight_bytes(com: &CommMatrix) -> usize {
    64 + com.heap_bytes()
}

struct Base {
    com: Arc<CommMatrix>,
    topo_name: String,
    topo_nodes: usize,
    /// Schedules compiled (or patched) for this base, by
    /// `(scheduler name, seed)`.
    schedules: HashMap<(String, u64), Arc<Schedule>>,
}

impl Base {
    /// The weight the byte budget meters: the matrix and every schedule.
    fn weight(&self) -> usize {
        let schedules: usize = self
            .schedules
            .values()
            .map(|s| schedule_weight_bytes(s))
            .sum();
        matrix_weight_bytes(&self.com) + schedules
    }
}

/// Retained base instances for delta patching: `InstanceKey` → (matrix,
/// schedules), LRU-evicted under a byte budget, with hit/patch/fallback
/// counters. Shared across threads as-is (all methods take `&self`).
pub struct IncrementalCache {
    bases: Mutex<Recency<Base>>,
    lookups: AtomicU64,
    base_hits: AtomicU64,
    base_misses: AtomicU64,
    patches: AtomicU64,
    fallbacks: AtomicU64,
    validation_rejections: AtomicU64,
    evictions: AtomicU64,
}

impl IncrementalCache {
    /// Build the layer from its configuration.
    pub fn new(config: IncrementalConfig) -> Self {
        IncrementalCache {
            bases: Mutex::new(Recency::new(config.byte_budget)),
            lookups: AtomicU64::new(0),
            base_hits: AtomicU64::new(0),
            base_misses: AtomicU64::new(0),
            patches: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            validation_rejections: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Try to produce a schedule for `(entry, com, topo, seed)` by
    /// patching a retained base. `None` means the caller compiles cold:
    /// no compatible base within the delta threshold, no base schedule
    /// for this scheduler/seed, the entry declined to patch, or the
    /// validation gate rejected the patch — each outcome counted.
    pub fn get_patched(
        &self,
        entry: &dyn Scheduler,
        key: InstanceKey,
        com: &CommMatrix,
        topo: &dyn Topology,
        seed: u64,
    ) -> Option<Arc<Schedule>> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let topo_name = topo.name();
        let sched_key = (entry.name().to_string(), seed);

        // Snapshot the most recent compatible candidates under the lock;
        // diff outside it (diffing is the expensive part).
        let candidates: Vec<(u128, Arc<CommMatrix>, Option<Arc<Schedule>>)> = {
            let bases = self.bases.lock().expect("no panics hold the base map");
            bases
                .iter()
                .filter(|(_, e)| {
                    e.topo_name == topo_name
                        && e.topo_nodes == topo.num_nodes()
                        && e.com.n() == com.n()
                })
                .take(MAX_CANDIDATES)
                .map(|(raw, e)| {
                    (
                        raw,
                        Arc::clone(&e.com),
                        e.schedules.get(&sched_key).cloned(),
                    )
                })
                .collect()
        };

        let mut hit_without_schedule = false;
        let mut chosen = None;
        for (raw, base_com, base_schedule) in candidates {
            // Bounded: another chain's base is rejected after a few rows.
            let base_msgs = base_com.message_count().max(1);
            let max_structural = MAX_DELTA_PERMILLE * base_msgs / 1000;
            let Ok(Some(delta)) = MatrixDelta::diff_within(&base_com, com, max_structural) else {
                continue;
            };
            match base_schedule {
                Some(s) => {
                    chosen = Some((raw, s, delta));
                    break;
                }
                None => hit_without_schedule = true,
            }
        }

        let (raw, base_schedule, delta) = match chosen {
            Some(c) => c,
            None => {
                if hit_without_schedule {
                    // A base matched but was never scheduled under this
                    // scheduler/seed: nothing to patch from.
                    self.base_hits.fetch_add(1, Ordering::Relaxed);
                    self.fallbacks.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.base_misses.fetch_add(1, Ordering::Relaxed);
                }
                return None;
            }
        };
        self.base_hits.fetch_add(1, Ordering::Relaxed);
        self.bases
            .lock()
            .expect("no panics hold the base map")
            .get(raw);

        let patched = match entry.patch_schedule(&base_schedule, &delta, topo, seed) {
            Some(s) => s,
            None => {
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        // The correctness gate: a patched schedule is served only if it is
        // a valid decomposition of the *perturbed* matrix and upholds the
        // entry's registered link guarantee.
        let valid = validate_schedule(com, &patched).is_ok()
            && (!entry.link_contention_free() || patched_link_free(&patched, &base_schedule, topo));
        if !valid {
            self.validation_rejections.fetch_add(1, Ordering::Relaxed);
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.patches.fetch_add(1, Ordering::Relaxed);
        let _ = key; // the caller registers the result under `key`
        Some(Arc::new(patched))
    }

    /// The retained base matrix under exactly `key`, if resident — how
    /// the daemon resolves a delta submit that names its base by
    /// [`InstanceKey`]. Counts as a use for eviction purposes.
    pub fn base_matrix(&self, key: InstanceKey) -> Option<Arc<CommMatrix>> {
        let mut bases = self.bases.lock().expect("no panics hold the base map");
        bases.get(key.raw()).map(|e| Arc::clone(&e.com))
    }

    /// Retain `(key, com)` as a future patch base, recording `schedule`
    /// under `(entry_name, seed)`. Called on every served request so
    /// drifting patterns chain: each perturbed matrix becomes the next
    /// iteration's base. Cheap when the base is already resident.
    pub fn register(
        &self,
        key: InstanceKey,
        com: &CommMatrix,
        topo: &dyn Topology,
        entry_name: &str,
        seed: u64,
        schedule: Arc<Schedule>,
    ) {
        let raw = key.raw();
        let mut bases = self.bases.lock().expect("no panics hold the base map");
        let resident = bases.remove(raw);
        let was_resident = resident.is_some();
        let mut base = resident.unwrap_or_else(|| Base {
            com: Arc::new(com.clone()),
            topo_name: topo.name().to_string(),
            topo_nodes: topo.num_nodes(),
            schedules: HashMap::new(),
        });
        base.schedules
            .insert((entry_name.to_string(), seed), schedule);
        self.retain(&mut bases, raw, base, was_resident);
    }

    /// [`register`](Self::register) without the matrix, for a base that is
    /// already retained: while the base map is held, `serve` is asked for
    /// the schedule, and the one it hands back is recorded on the base
    /// under `(entry_name, seed)`. `None`, with `serve` never asked and
    /// nothing changed, when no base is retained under `key`.
    pub(crate) fn refresh_with(
        &self,
        key: InstanceKey,
        entry_name: &str,
        seed: u64,
        serve: impl FnOnce() -> Option<Arc<Schedule>>,
    ) -> Option<Arc<Schedule>> {
        let raw = key.raw();
        let mut bases = self.bases.lock().expect("no panics hold the base map");
        if !bases.contains(raw) {
            return None;
        }
        let schedule = serve()?;
        let mut base = bases.remove(raw).expect("checked under the same lock");
        base.schedules
            .insert((entry_name.to_string(), seed), Arc::clone(&schedule));
        self.retain(&mut bases, raw, base, true);
        Some(schedule)
    }

    /// Put `base` back as the most recent base. Re-inserting re-meters
    /// it: a replaced schedule's weight leaves with it. A base heavier
    /// than the whole budget is never retained; one that grew past it
    /// counts as evicted.
    fn retain(&self, bases: &mut Recency<Base>, raw: u128, base: Base, was_resident: bool) {
        let weight = base.weight();
        let evicted = bases
            .insert(raw, base, weight)
            .unwrap_or(u64::from(was_resident));
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Snapshot every counter.
    pub fn stats(&self) -> IncrementalStats {
        let (bases_resident, bytes_in_use) = {
            let bases = self.bases.lock().expect("no panics hold the base map");
            (bases.len(), bases.bytes())
        };
        IncrementalStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            base_hits: self.base_hits.load(Ordering::Relaxed),
            base_misses: self.base_misses.load(Ordering::Relaxed),
            patches: self.patches.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            validation_rejections: self.validation_rejections.load(Ordering::Relaxed),
            bases_resident,
            bytes_in_use,
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for IncrementalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalCache")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsched::registry;
    use hypercube::Hypercube;

    fn sample_com(n: usize) -> CommMatrix {
        let mut com = CommMatrix::new(n);
        for i in 0..n {
            com.set(i, (i + 1) % n, 256);
            com.set(i, (i + 5) % n, 512);
        }
        com
    }

    #[test]
    fn patch_after_register_and_counters() {
        let inc = IncrementalCache::new(IncrementalConfig::default());
        let cube = Hypercube::new(5);
        let base = sample_com(32);
        let entry = registry::find("RS_NL").unwrap();
        let key = InstanceKey::compute(&base, &cube);
        let cold = Arc::new(entry.schedule(&base, &cube, 7));
        inc.register(key, &base, &cube, entry.name(), 7, Arc::clone(&cold));

        let mut drifted = base.clone();
        drifted.set(0, 1, 0);
        drifted.set(4, 20, 64);
        let dkey = InstanceKey::compute(&drifted, &cube);
        let patched = inc
            .get_patched(entry, dkey, &drifted, &cube, 7)
            .expect("within threshold");
        validate_schedule(&drifted, &patched).unwrap();
        assert!(patched.link_contention_free(&cube));
        let stats = inc.stats();
        assert_eq!(stats.base_hits, 1);
        assert_eq!(stats.patches, 1);
        assert_eq!(stats.validation_rejections, 0);
        assert!((stats.patch_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_refresh_registers_on_a_retained_base_and_touches_nothing_else() {
        let cube = Hypercube::new(4);
        let entry = registry::find("RS_N").unwrap();
        let (a, b) = (sample_com(16), {
            let mut b = sample_com(16);
            b.set(0, 1, 7);
            b
        });
        let (key_a, key_b) = (
            InstanceKey::compute(&a, &cube),
            InstanceKey::compute(&b, &cube),
        );
        let one = matrix_weight_bytes(&a) + schedule_weight_bytes(&entry.schedule(&a, &cube, 0));
        // Two twins with room for two bases: one registers, one refreshes.
        let twins = [(); 2].map(|()| {
            IncrementalCache::new(IncrementalConfig::default().with_byte_budget(2 * one))
        });
        for inc in &twins {
            for (key, com) in [(key_a, &a), (key_b, &b)] {
                let schedule = Arc::new(entry.schedule(com, &cube, 0));
                inc.register(key, com, &cube, entry.name(), 0, schedule);
            }
        }
        let [registered, refreshed] = &twins;
        // Not retained, or nothing served: nothing asked, nothing changed.
        let before = refreshed.stats();
        let stranger = InstanceKey::from_bytes([9; 16]);
        assert!(refreshed
            .refresh_with(stranger, "RS_N", 0, || unreachable!())
            .is_none());
        assert!(refreshed.refresh_with(key_a, "RS_N", 0, || None).is_none());
        assert_eq!(refreshed.stats(), before);
        // Retained: base a takes the schedule (here under a new seed, so
        // it grows) and becomes the most recent base, exactly as a
        // registration does; b is the older one and leaves.
        let schedule = Arc::new(entry.schedule(&a, &cube, 1));
        registered.register(key_a, &a, &cube, entry.name(), 1, Arc::clone(&schedule));
        let served = refreshed
            .refresh_with(key_a, entry.name(), 1, || Some(Arc::clone(&schedule)))
            .expect("retained");
        assert!(Arc::ptr_eq(&served, &schedule));
        assert_eq!(refreshed.stats(), registered.stats());
        assert_eq!(refreshed.stats().evictions, 1);
        assert!(refreshed.base_matrix(key_b).is_none());
    }

    #[test]
    fn over_threshold_deltas_miss() {
        let inc = IncrementalCache::new(IncrementalConfig::default());
        let cube = Hypercube::new(4);
        let base = sample_com(16); // 32 messages; 50‰ admits 1 structural edit
        let entry = registry::find("RS_N").unwrap();
        let key = InstanceKey::compute(&base, &cube);
        inc.register(
            key,
            &base,
            &cube,
            entry.name(),
            1,
            Arc::new(entry.schedule(&base, &cube, 1)),
        );
        let mut far = base.clone();
        far.set(0, 1, 0);
        far.set(2, 9, 5);
        assert!(inc
            .get_patched(entry, InstanceKey::compute(&far, &cube), &far, &cube, 1)
            .is_none());
        assert_eq!(inc.stats().base_misses, 1);
        // Resizes are non-structural: a resize-only drift still patches.
        let mut resized = base.clone();
        resized.set(0, 1, 9999);
        assert!(inc
            .get_patched(
                entry,
                InstanceKey::compute(&resized, &cube),
                &resized,
                &cube,
                1
            )
            .is_some());
    }

    #[test]
    fn base_without_matching_schedule_falls_back() {
        let inc = IncrementalCache::new(IncrementalConfig::default());
        let cube = Hypercube::new(4);
        let base = sample_com(16);
        let rs_n = registry::find("RS_N").unwrap();
        let rs_nl = registry::find("RS_NL").unwrap();
        let key = InstanceKey::compute(&base, &cube);
        inc.register(
            key,
            &base,
            &cube,
            rs_n.name(),
            1,
            Arc::new(rs_n.schedule(&base, &cube, 1)),
        );
        let mut drifted = base.clone();
        drifted.set(2, 9, 5);
        // Same base, but no RS_NL schedule retained for it.
        assert!(inc
            .get_patched(
                rs_nl,
                InstanceKey::compute(&drifted, &cube),
                &drifted,
                &cube,
                1
            )
            .is_none());
        let stats = inc.stats();
        assert_eq!(stats.base_hits, 1);
        assert_eq!(stats.fallbacks, 1);
        assert_eq!(stats.patches, 0);
    }

    #[test]
    fn a_replaced_schedule_takes_its_weight_with_it() {
        // One key, one (scheduler, seed), two schedules of different
        // weight: the base is metered at the one it holds now.
        let inc = IncrementalCache::new(IncrementalConfig::default());
        let cube = Hypercube::new(4);
        let base = sample_com(16);
        let key = InstanceKey::compute(&base, &cube);
        let heavy = Arc::new(registry::find("AC").unwrap().schedule(&base, &cube, 1));
        let light = Arc::new(registry::find("RS_N").unwrap().schedule(&base, &cube, 1));
        let (heavy_w, light_w) = (schedule_weight_bytes(&heavy), schedule_weight_bytes(&light));
        assert_ne!(heavy_w, light_w, "the two weights must differ");
        inc.register(key, &base, &cube, "RS_N", 1, heavy);
        assert_eq!(
            inc.stats().bytes_in_use,
            matrix_weight_bytes(&base) + heavy_w
        );
        inc.register(key, &base, &cube, "RS_N", 1, light);
        let stats = inc.stats();
        assert_eq!(stats.bases_resident, 1);
        assert_eq!(stats.bytes_in_use, matrix_weight_bytes(&base) + light_w);
    }

    #[test]
    fn a_base_outgrowing_the_budget_leaves_alone() {
        let cube = Hypercube::new(4);
        let rs_n = registry::find("RS_N").unwrap();
        let lp = registry::find("LP").unwrap();
        let a = sample_com(16);
        let mut b = a.clone();
        b.set(0, 1, 7); // a resize: same weight, another key
        let one = matrix_weight_bytes(&a) + schedule_weight_bytes(&rs_n.schedule(&a, &cube, 0));
        let inc = IncrementalCache::new(IncrementalConfig::default().with_byte_budget(2 * one));
        let (key_a, key_b) = (
            InstanceKey::compute(&a, &cube),
            InstanceKey::compute(&b, &cube),
        );
        for (key, com) in [(key_a, &a), (key_b, &b)] {
            let schedule = Arc::new(rs_n.schedule(com, &cube, 0));
            inc.register(key, com, &cube, rs_n.name(), 0, schedule);
        }
        assert_eq!((inc.stats().bases_resident, inc.stats().evictions), (2, 0));
        // An LP schedule makes b alone heavier than the whole budget: b
        // goes, counted as one eviction, and a stays.
        let heavy = Arc::new(lp.schedule(&b, &cube, 0));
        assert!(one + schedule_weight_bytes(&heavy) > 2 * one);
        inc.register(key_b, &b, &cube, lp.name(), 0, heavy);
        let stats = inc.stats();
        assert_eq!((stats.bases_resident, stats.evictions), (1, 1));
        assert_eq!(stats.bytes_in_use, one);
        assert!(inc.base_matrix(key_a).is_some() && inc.base_matrix(key_b).is_none());
    }

    #[test]
    fn byte_budget_evicts_oldest_bases() {
        let base = sample_com(16);
        let entry = registry::find("RS_N").unwrap();
        let cube = Hypercube::new(4);
        let one = matrix_weight_bytes(&base)
            + schedule_weight_bytes(&entry.schedule(&base, &cube, 0)) * 2;
        let inc = IncrementalCache::new(IncrementalConfig::default().with_byte_budget(one));
        for seed_shift in 0..4u32 {
            let mut com = base.clone();
            com.set(0, 8 + seed_shift as usize % 8, 7 + seed_shift);
            let key = InstanceKey::compute(&com, &cube);
            inc.register(
                key,
                &com,
                &cube,
                entry.name(),
                0,
                Arc::new(entry.schedule(&com, &cube, 0)),
            );
        }
        let stats = inc.stats();
        assert!(stats.evictions >= 3, "evictions: {}", stats.evictions);
        assert!(stats.bytes_in_use <= one);
        assert!(stats.bases_resident <= 2);
    }

    #[test]
    fn the_default_budget_holds_ten_times_the_dense_bases() {
        // A dense n = 1024 base was charged 4 MiB for its matrix alone, so
        // the default 32 MiB held seven; a d = 4 table is about 40 KiB.
        let inc = IncrementalCache::new(IncrementalConfig::default());
        let cube = Hypercube::new(10);
        let entry = registry::find("RS_N").unwrap();
        for seed in 0..70 {
            let com = workloads::random_dregular(1024, 4, 1024, seed);
            let schedule = Arc::new(entry.schedule(&com, &cube, 0));
            let key = InstanceKey::compute(&com, &cube);
            inc.register(key, &com, &cube, entry.name(), 0, schedule);
        }
        let stats = inc.stats();
        assert_eq!((stats.bases_resident, stats.evictions), (70, 0));
    }

    #[test]
    fn ac_declines_patching_and_counts_a_fallback() {
        let inc = IncrementalCache::new(IncrementalConfig::default());
        let cube = Hypercube::new(4);
        let base = sample_com(16);
        let ac = registry::find("AC").unwrap();
        let key = InstanceKey::compute(&base, &cube);
        inc.register(
            key,
            &base,
            &cube,
            ac.name(),
            0,
            Arc::new(ac.schedule(&base, &cube, 0)),
        );
        let mut drifted = base.clone();
        drifted.set(2, 9, 5);
        assert!(inc
            .get_patched(
                ac,
                InstanceKey::compute(&drifted, &cube),
                &drifted,
                &cube,
                0
            )
            .is_none());
        let stats = inc.stats();
        assert_eq!(stats.base_hits, 1);
        assert_eq!(stats.fallbacks, 1);
    }
}
