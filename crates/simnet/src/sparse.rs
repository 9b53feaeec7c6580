//! Sparse resource tables: cost proportional to *touched* resources,
//! not to the size of the machine.
//!
//! A d=20 hypercube has ~1M nodes and ~20M directed links; dense
//! per-resource vectors cost hundreds of MB before the first transfer is
//! priced. [`SparseMap`] keeps the dense representation — one slot per
//! resource, O(1) access, the fastest layout below [`DENSE_CROSSOVER`] —
//! and switches to an open-addressed hash table above it, where only
//! resources actually claimed by traffic occupy memory.
//!
//! The table is deliberately minimal: no removal (callers "clear" an
//! entry by writing the class's empty value back; the key stays
//! resident, bounding the table by the number of *distinct* resources
//! ever touched, which is traffic-proportional), linear probing over a
//! power-of-two capacity, and Fibonacci hashing of the resource id.
//! Absence of tombstones keeps probes short and makes `reset`-style
//! loops (write empty back over a dirty list) exactly as cheap as the
//! dense path's.

use crate::PoolMode;

/// Universe size at and below which the dense layout wins: a dense
/// `Vec` per resource class on a d=16 fabric (65_536 nodes, ~1M links)
/// is still a few MB — cheaper to index and friendlier to scan than any
/// hash table. Above it, memory goes quadratic-ish with dimension while
/// traffic does not; sparse wins.
pub(crate) const DENSE_CROSSOVER: usize = 1 << 16;

impl PoolMode {
    /// Whether a table over `universe` resources takes the dense layout
    /// under this mode — the one representation switch behind a
    /// [`SparseMap`], a [`crate::LoadModel`] class and the event engine's
    /// resource table.
    pub(crate) fn is_dense_at(self, universe: usize) -> bool {
        match self {
            PoolMode::Auto => universe <= DENSE_CROSSOVER,
            PoolMode::Dense => true,
            PoolMode::Sparse => false,
        }
    }
}

const EMPTY_KEY: usize = usize::MAX;
/// Initial sparse capacity (power of two, so the probe mask is `cap-1`).
const MIN_CAP: usize = 16;

/// Map from a resource id (`0..universe`) to a value, with a
/// caller-supplied `empty` value standing in for absent entries.
#[derive(Clone, Debug)]
pub(crate) struct SparseMap<V> {
    empty: V,
    repr: Repr<V>,
}

#[derive(Clone, Debug)]
enum Repr<V> {
    Dense(Vec<V>),
    Sparse {
        /// Slot keys; `EMPTY_KEY` marks a free slot. Never shrinks and
        /// never tombstones: once resident, a key stays.
        keys: Vec<usize>,
        vals: Vec<V>,
        len: usize,
    },
}

impl<V: Clone> SparseMap<V> {
    pub(crate) fn new(universe: usize, empty: V, mode: PoolMode) -> Self {
        let repr = if mode.is_dense_at(universe) {
            Repr::Dense(vec![empty.clone(); universe])
        } else {
            Repr::Sparse {
                keys: vec![EMPTY_KEY; MIN_CAP],
                vals: vec![empty.clone(); MIN_CAP],
                len: 0,
            }
        };
        SparseMap { empty, repr }
    }

    #[cfg(test)]
    pub(crate) fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Dense(_))
    }

    /// Current value for `key` (the empty value when absent).
    pub(crate) fn get(&self, key: usize) -> V {
        self.peek(key).clone()
    }

    /// Current value for `key`, by reference.
    pub(crate) fn peek(&self, key: usize) -> &V {
        match &self.repr {
            Repr::Dense(v) => &v[key],
            Repr::Sparse { keys, vals, .. } => {
                let mask = keys.len() - 1;
                let mut i = hash(key) & mask;
                loop {
                    if keys[i] == key {
                        return &vals[i];
                    }
                    if keys[i] == EMPTY_KEY {
                        return &self.empty;
                    }
                    i = (i + 1) & mask;
                }
            }
        }
    }

    /// Mutable slot for `key`, inserting the empty value first if the key
    /// is not yet resident.
    pub(crate) fn slot(&mut self, key: usize) -> &mut V {
        let idx = match &mut self.repr {
            Repr::Dense(_) => key,
            Repr::Sparse { keys, vals, len } => {
                // Grow up front whenever an insert could push the load
                // factor past 3/4 (at worst one doubling early).
                if (*len + 1) * 4 > keys.len() * 3 {
                    grow(keys, vals, &self.empty);
                }
                let mask = keys.len() - 1;
                let mut i = hash(key) & mask;
                loop {
                    if keys[i] == key {
                        break i;
                    }
                    if keys[i] == EMPTY_KEY {
                        keys[i] = key;
                        *len += 1;
                        break i;
                    }
                    i = (i + 1) & mask;
                }
            }
        };
        match &mut self.repr {
            Repr::Dense(v) => &mut v[idx],
            Repr::Sparse { vals, .. } => &mut vals[idx],
        }
    }

    /// Values of every resident key (tests).
    #[cfg(test)]
    pub(crate) fn resident_values(&self) -> Vec<&V> {
        match &self.repr {
            Repr::Dense(v) => v.iter().collect(),
            Repr::Sparse { keys, vals, .. } => keys
                .iter()
                .zip(vals)
                .filter_map(|(&k, v)| (k != EMPTY_KEY).then_some(v))
                .collect(),
        }
    }

    /// Approximate heap footprint in bytes (the scale bench's RSS proxy).
    pub(crate) fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        match &self.repr {
            Repr::Dense(v) => v.capacity() * size_of::<V>(),
            Repr::Sparse { keys, vals, .. } => {
                keys.capacity() * size_of::<usize>() + vals.capacity() * size_of::<V>()
            }
        }
    }
}

/// Fibonacci hashing: multiply by 2^64/φ and keep the high bits the mask
/// selects. Resource ids are near-sequential (node and link indices);
/// the multiply spreads them across the table.
fn hash(key: usize) -> usize {
    (key as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(32) as usize
}

fn grow<V: Clone>(keys: &mut Vec<usize>, vals: &mut Vec<V>, empty: &V) {
    let new_cap = keys.len() * 2;
    let old_keys = std::mem::replace(keys, vec![EMPTY_KEY; new_cap]);
    let old_vals = std::mem::replace(vals, vec![empty.clone(); new_cap]);
    let mask = new_cap - 1;
    for (k, v) in old_keys.into_iter().zip(old_vals) {
        if k == EMPTY_KEY {
            continue;
        }
        let mut i = hash(k) & mask;
        while keys[i] != EMPTY_KEY {
            i = (i + 1) & mask;
        }
        keys[i] = k;
        vals[i] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_sparse_agree_on_random_traffic() {
        let universe = 1 << 20;
        let mut dense = SparseMap::new(universe, 0u64, PoolMode::Dense);
        let mut sparse = SparseMap::new(universe, 0u64, PoolMode::Sparse);
        assert!(dense.is_dense());
        assert!(!sparse.is_dense());
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut touched = Vec::new();
        for _ in 0..10_000 {
            let key = (rand() as usize) % universe;
            let delta = rand() % 1000;
            *dense.slot(key) += delta;
            *sparse.slot(key) += delta;
            touched.push(key);
        }
        for &key in &touched {
            assert_eq!(dense.get(key), sparse.get(key), "key {key}");
        }
        // Untouched keys read as empty in both.
        assert_eq!(dense.get(universe - 1), sparse.get(universe - 1));
    }

    #[test]
    fn auto_picks_dense_below_the_crossover_and_sparse_above() {
        assert!(SparseMap::new(DENSE_CROSSOVER, 0u32, PoolMode::Auto).is_dense());
        assert!(!SparseMap::new(DENSE_CROSSOVER + 1, 0u32, PoolMode::Auto).is_dense());
    }

    #[test]
    fn clearing_keeps_keys_resident_but_reads_empty() {
        let mut m = SparseMap::new(1 << 20, 7u32, PoolMode::Sparse);
        *m.slot(42) = 9;
        assert_eq!(m.get(42), 9);
        *m.slot(42) = 7; // write the empty value back: the "reset" idiom
        assert_eq!(m.get(42), 7);
        assert_eq!(m.get(43), 7);
    }

    #[test]
    fn sparse_footprint_tracks_traffic_not_universe() {
        let mut m = SparseMap::new(1 << 24, 0u64, PoolMode::Sparse);
        for k in 0..100 {
            *m.slot(k * 131) = k as u64;
        }
        // 100 entries fit in a 256-slot table: ~6KB, not the 128MB a
        // dense u64 vector over 2^24 resources would take.
        assert!(m.resident_bytes() < 1 << 14, "{}", m.resident_bytes());
        for k in 0..100 {
            assert_eq!(m.get(k * 131), k as u64);
        }
    }

    #[test]
    fn growth_preserves_entries_under_heavy_load() {
        let mut m = SparseMap::new(usize::MAX - 1, 0usize, PoolMode::Sparse);
        for k in 0..10_000 {
            *m.slot(k * k + 1) = k + 1;
        }
        for k in 0..10_000 {
            assert_eq!(m.get(k * k + 1), k + 1);
        }
    }
}
