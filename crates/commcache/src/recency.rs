//! The byte-budgeted recency list both reuse layers keep: each shard of
//! the fingerprint cache, and the incremental layer's retained bases.
//!
//! A map from a 128-bit key to a weighted value, a tick-ordered recency
//! index, a clock and a byte count. Ticks are unique (the clock only
//! advances under the owner's lock), so the index is a faithful LRU order
//! and eviction pops its first entry in O(log n) instead of scanning the
//! map. The list is not synchronised itself: its owner holds it under a
//! mutex.

use std::collections::{BTreeMap, HashMap};

struct Slot<V> {
    value: V,
    weight: usize,
    tick: u64,
}

/// An LRU-evicting map under a byte budget (see the module docs).
pub(crate) struct Recency<V> {
    map: HashMap<u128, Slot<V>>,
    /// Recency index: tick → key, oldest first.
    order: BTreeMap<u64, u128>,
    /// Monotone clock stamping recency.
    clock: u64,
    bytes: usize,
    budget: usize,
}

impl<V> Recency<V> {
    /// An empty list holding at most `budget` bytes of weight.
    pub fn new(budget: usize) -> Self {
        Recency {
            map: HashMap::new(),
            order: BTreeMap::new(),
            clock: 0,
            bytes: 0,
            budget,
        }
    }

    /// Look `key` up and make it the most recent entry.
    pub fn get(&mut self, key: u128) -> Option<&V> {
        let slot = self.map.get_mut(&key)?;
        self.clock += 1;
        self.order.remove(&slot.tick);
        self.order.insert(self.clock, key);
        slot.tick = self.clock;
        Some(&slot.value)
    }

    /// Look `key` up without touching recency.
    pub fn peek(&self, key: u128) -> Option<&V> {
        self.map.get(&key).map(|slot| &slot.value)
    }

    /// Whether `key` is resident, without touching recency.
    pub fn contains(&self, key: u128) -> bool {
        self.map.contains_key(&key)
    }

    /// Change the value under `key` in place with `update` and meter it
    /// `extra` bytes heavier, then evict least-recently-used entries
    /// until the budget holds (the grown entry too, if it is the oldest);
    /// the number evicted. `None` when `key` is not resident or the grown
    /// entry alone would exceed the whole budget: nothing changes.
    pub fn grow(&mut self, key: u128, extra: usize, update: impl FnOnce(&mut V)) -> Option<u64> {
        let slot = self.map.get_mut(&key)?;
        if slot.weight + extra > self.budget {
            return None;
        }
        update(&mut slot.value);
        slot.weight += extra;
        self.bytes += extra;
        Some(self.evict_over_budget())
    }

    /// Take `key` out of the list.
    pub fn remove(&mut self, key: u128) -> Option<V> {
        let slot = self.map.remove(&key)?;
        self.order.remove(&slot.tick);
        self.bytes -= slot.weight;
        Some(slot.value)
    }

    /// Insert `value` under `key` at `weight` as the most recent entry,
    /// replacing (and re-metering) any value resident under `key`, then
    /// evict least-recently-used entries until the budget holds; the
    /// number evicted. `None` when `weight` alone exceeds the whole
    /// budget: the value is dropped and the list left as it was, since
    /// keeping it would evict everything else for a single entry.
    pub fn insert(&mut self, key: u128, value: V, weight: usize) -> Option<u64> {
        if weight > self.budget {
            return None;
        }
        self.clock += 1;
        let slot = Slot {
            value,
            weight,
            tick: self.clock,
        };
        if let Some(old) = self.map.insert(key, slot) {
            self.order.remove(&old.tick);
            self.bytes -= old.weight;
        }
        self.order.insert(self.clock, key);
        self.bytes += weight;
        Some(self.evict_over_budget())
    }

    /// Evict least-recently-used entries until the budget holds; the
    /// number evicted.
    fn evict_over_budget(&mut self) -> u64 {
        let mut evicted = 0;
        while self.bytes > self.budget {
            let (_, oldest) = self
                .order
                .pop_first()
                .expect("over budget implies non-empty");
            let slot = self.map.remove(&oldest).expect("recency index in sync");
            self.bytes -= slot.weight;
            evicted += 1;
        }
        evicted
    }

    /// Every entry, most recent first, without touching recency.
    pub fn iter(&self) -> impl Iterator<Item = (u128, &V)> {
        self.order
            .values()
            .rev()
            .map(|key| (*key, &self.map[key].value))
    }

    /// Entries resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Weight resident.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: a vector ordered oldest first, scanned linearly.
    struct Naive {
        entries: Vec<(u128, u64, usize)>,
        budget: usize,
    }

    impl Naive {
        fn get(&mut self, key: u128) -> Option<u64> {
            let at = self.entries.iter().position(|e| e.0 == key)?;
            let entry = self.entries.remove(at);
            self.entries.push(entry);
            Some(entry.1)
        }

        fn remove(&mut self, key: u128) -> Option<u64> {
            let at = self.entries.iter().position(|e| e.0 == key)?;
            Some(self.entries.remove(at).1)
        }

        fn insert(&mut self, key: u128, value: u64, weight: usize) -> Option<u64> {
            if weight > self.budget {
                return None;
            }
            self.remove(key);
            self.entries.push((key, value, weight));
            let mut evicted = 0;
            while self.bytes() > self.budget {
                self.entries.remove(0);
                evicted += 1;
            }
            Some(evicted)
        }

        fn bytes(&self) -> usize {
            self.entries.iter().map(|e| e.2).sum()
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn matches_a_naive_recency_vector_step_for_step() {
        for seed in 0..20u64 {
            let budget = 200 + 40 * seed as usize;
            let mut list = Recency::new(budget);
            let mut naive = Naive {
                entries: Vec::new(),
                budget,
            };
            let mut rng = seed;
            let mut ops = [0u32; 4];
            for step in 0..2_000 {
                // Twelve keys keep re-inserts and hits frequent.
                let key = u128::from(splitmix(&mut rng) % 12);
                let value = splitmix(&mut rng);
                let draw = splitmix(&mut rng);
                let op = (draw % 10) as usize;
                match op {
                    0..=3 => {
                        // Weights up to a little over the budget, so
                        // rejections and multi-entry evictions both occur.
                        let weight = (draw >> 8) as usize % (budget + budget / 8) + 1;
                        let got = list.insert(key, value, weight);
                        let want = naive.insert(key, value, weight);
                        assert_eq!(got, want, "seed {seed} step {step}: insert");
                        ops[usize::from(got.is_none())] += 1;
                    }
                    4..=7 => {
                        let got = list.get(key).copied();
                        assert_eq!(got, naive.get(key), "seed {seed} step {step}: get");
                        ops[2] += u32::from(got.is_some());
                    }
                    _ => {
                        let got = list.remove(key);
                        assert_eq!(got, naive.remove(key), "seed {seed} step {step}: remove");
                        ops[3] += u32::from(got.is_some());
                    }
                }
                let order: Vec<(u128, u64)> = list.iter().map(|(k, v)| (k, *v)).collect();
                let want: Vec<(u128, u64)> =
                    naive.entries.iter().rev().map(|e| (e.0, e.1)).collect();
                assert_eq!(order, want, "seed {seed} step {step}: recency order");
                assert_eq!(
                    list.bytes(),
                    naive.bytes(),
                    "seed {seed} step {step}: bytes"
                );
                assert_eq!(list.len(), naive.entries.len());
                assert!(list.bytes() <= budget);
                assert_eq!(list.order.len(), list.map.len(), "index in sync");
            }
            // Not vacuous: every kind of step happened.
            assert!(ops.iter().all(|&n| n > 0), "seed {seed}: {ops:?}");
        }
    }

    #[test]
    fn a_reinsert_re_meters_its_key() {
        let mut list = Recency::new(100);
        list.insert(1, 'a', 30).unwrap();
        list.insert(2, 'b', 30).unwrap();
        assert_eq!(list.insert(1, 'c', 50), Some(0));
        assert_eq!((list.bytes(), list.len()), (80, 2));
        // Key 1 is the most recent now, so growing it evicts key 2.
        assert_eq!(list.insert(1, 'd', 90), Some(1));
        assert_eq!(list.bytes(), 90);
        assert_eq!(list.iter().collect::<Vec<_>>(), vec![(1, &'d')]);
        // Heavier than the whole budget: refused, the resident value kept.
        assert!(list.insert(1, 'e', 101).is_none());
        assert_eq!(list.get(1), Some(&'d'));
        assert_eq!(list.bytes(), 90);
    }

    #[test]
    fn growing_an_entry_re_meters_it_in_place_and_evicts_the_oldest() {
        let mut list = Recency::new(100);
        list.insert(1, 'a', 30).unwrap();
        list.insert(2, 'b', 30).unwrap();
        list.insert(3, 'c', 30).unwrap();
        // Key 2 grows past what fits: key 1, the oldest, goes; recency
        // does not move.
        assert_eq!(list.grow(2, 20, |v| *v = 'B'), Some(1));
        assert_eq!(list.bytes(), 80);
        assert_eq!(list.iter().collect::<Vec<_>>(), vec![(3, &'c'), (2, &'B')]);
        assert_eq!(list.peek(2), Some(&'B'));
        // Absent, or heavier than the whole budget: nothing changes.
        assert_eq!(list.grow(9, 1, |_| unreachable!()), None);
        assert_eq!(list.grow(3, 71, |_| unreachable!()), None);
        assert_eq!((list.bytes(), list.peek(3)), (80, Some(&'c')));
        assert!(list.contains(3) && !list.contains(1));
        // The oldest entry may be the one that grew.
        assert_eq!(list.grow(2, 30, |v| *v = 'x'), Some(1));
        assert_eq!(list.iter().collect::<Vec<_>>(), vec![(3, &'c')]);
        assert_eq!(list.bytes(), 30);
    }
}
