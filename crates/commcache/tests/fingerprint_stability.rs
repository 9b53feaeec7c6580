//! Property tests of fingerprint stability — the contract that lets keys
//! outlive processes: equal inputs always collide, any single
//! perturbation separates, and the concrete digest of a pinned input
//! never drifts (golden value).

use commcache::{canonical_bytes, Fingerprint, InstanceKey};
use commsched::CommMatrix;
use hypercube::Hypercube;
use proptest::prelude::*;
use topo::Torus;

/// Sparse matrix on `n = 2^dim` nodes from raw triples (same construction
/// as the registry property tests).
fn matrix_from(dim: u32, cells: &[(usize, usize, u32)]) -> CommMatrix {
    let n = 1usize << dim;
    let mut com = CommMatrix::new(n);
    for &(s, d, bytes) in cells {
        let (s, d) = (s % n, d % n);
        if s != d && com.get(s, d) == 0 {
            com.set(s, d, bytes);
        }
    }
    com
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn equal_inputs_always_collide(
        dim in 3u32..6,
        cells in proptest::collection::vec((0usize..32, 0usize..32, 1u32..65_536), 0..128),
        seed in 0u64..10_000,
    ) {
        // Independently constructed (but equal) matrices and topologies
        // must produce identical keys — across both derivation paths.
        let cube_a = Hypercube::new(dim);
        let cube_b = Hypercube::new(dim);
        let com_a = matrix_from(dim, &cells);
        let com_b = matrix_from(dim, &cells);
        for entry in commsched::registry::all() {
            let a = Fingerprint::compute(&com_a, &cube_a, entry.name(), seed);
            let b = Fingerprint::compute(&com_b, &cube_b, entry.name(), seed);
            prop_assert_eq!(a, b);
            let split = InstanceKey::compute(&com_b, &cube_b).schedule_key(entry.name(), seed);
            prop_assert_eq!(a, split);
        }
    }

    #[test]
    fn any_single_weight_perturbation_changes_the_key(
        dim in 3u32..6,
        cells in proptest::collection::vec((0usize..32, 0usize..32, 1u32..65_535), 1..128),
        pick in 0usize..128,
        seed in 0u64..10_000,
    ) {
        let cube = Hypercube::new(dim);
        let com = matrix_from(dim, &cells);
        let base = Fingerprint::compute(&com, &cube, "RS_NL", seed);
        // Perturb one existing message's weight by +1 (stays non-zero, so
        // the pattern shape is unchanged — only the weight moved).
        let messages: Vec<_> = com.messages().collect();
        if let Some(&(src, dst, bytes)) = messages.get(pick % messages.len().max(1)) {
            let mut perturbed = com.clone();
            perturbed.set(src.index(), dst.index(), bytes + 1);
            prop_assert_ne!(Fingerprint::compute(&perturbed, &cube, "RS_NL", seed), base);
        }
        // Seed and scheduler-name (i.e. options) perturbations.
        prop_assert_ne!(Fingerprint::compute(&com, &cube, "RS_NL", seed ^ 1), base);
        prop_assert_ne!(Fingerprint::compute(&com, &cube, "RS_NL_NOPAIR", seed), base);
    }

    #[test]
    fn topology_identity_is_part_of_the_key(
        cells in proptest::collection::vec((0usize..16, 0usize..16, 1u32..4096), 1..64),
        seed in 0u64..1000,
    ) {
        // Same 16-node matrix, three different 16-node machines: distinct
        // keys (a schedule for one is not a schedule for another).
        let com = matrix_from(4, &cells);
        let cube = Fingerprint::compute(&com, &Hypercube::new(4), "RS_NL", seed);
        let mesh = Fingerprint::compute(&com, &Torus::mesh(4, 4), "RS_NL", seed);
        let flat = Fingerprint::compute(&com, &Torus::mesh(2, 8), "RS_NL", seed);
        prop_assert_ne!(cube, mesh);
        prop_assert_ne!(mesh, flat);
        prop_assert_ne!(cube, flat);
    }
}

/// Keys of `serve_drift`-shaped neighbours: one 64-node 8-regular base on
/// `cube:d=6` and chains that drift away from it, each step 1–4 edits — a
/// message retargeted to an empty cell of its row, or resized to a
/// neighbouring or a random size. Every 16 steps a chain starts over from
/// the base. Node 0's first message is never edited and carries the step
/// number as its size, so no two inputs are equal however the edits fall,
/// while any two share all but a handful of their 512 records.
fn drift_keys(count: usize, seed: u64) -> Vec<u128> {
    // SplitMix64: a few million reproducible draws need no crate.
    let mut state = seed;
    let mut below = move |bound: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    };
    let n = 64;
    let cube = Hypercube::new(6);
    let base = workloads::random_dregular(n, 8, 1024, seed);
    let (_, counter, _) = base.messages().next().expect("the base has messages");
    let mut keys = Vec::with_capacity(count);
    let mut com = base.clone();
    for step in 0..count {
        if step % 16 == 0 {
            com = base.clone();
        }
        com.set(0, counter.index(), 1 + step as u32);
        for _ in 0..1 + below(4) {
            let src = 1 + below(n - 1);
            let sent: Vec<usize> = (0..n).filter(|&j| com.get(src, j) > 0).collect();
            let dst = sent[below(sent.len())];
            let bytes = com.get(src, dst);
            match below(4) {
                0 => com.set(src, dst, bytes.saturating_add(1)),
                1 => com.set(src, dst, bytes.saturating_sub(1).max(1)),
                2 => com.set(src, dst, 1 + below(u32::MAX as usize) as u32),
                _ => {
                    let to = loop {
                        let to = below(n);
                        if to != src && com.get(src, to) == 0 {
                            break to;
                        }
                    };
                    com.set(src, dst, 0);
                    com.set(src, to, bytes);
                }
            }
        }
        let key = InstanceKey::compute(&com, &cube);
        keys.push(u128::from_le_bytes(key.to_bytes()));
    }
    keys
}

/// Distinct values among `keys` after `part` is applied.
fn distinct<T: Ord>(keys: &[u128], part: fn(u128) -> T) -> usize {
    let mut parts: Vec<T> = keys.iter().map(|&k| part(k)).collect();
    parts.sort_unstable();
    parts.dedup();
    parts.len()
}

#[test]
fn a_million_drifting_neighbours_never_collide_in_either_half() {
    // A million keys in an optimised build (CI runs this file with
    // `--release`); an unoptimised one walks matrices a hundred times
    // slower, so it hunts through the first 50 000 of the same sequence.
    let count = if cfg!(debug_assertions) {
        50_000
    } else {
        1_000_000
    };
    let keys = drift_keys(count, 18);
    assert_eq!(distinct(&keys, |k| k), keys.len(), "full keys collide");
    assert_eq!(distinct(&keys, |k| k as u64), keys.len(), "low halves");
    assert_eq!(distinct(&keys, |k| (k >> 64) as u64), keys.len(), "high");
}

#[test]
fn drifting_neighbours_spread_evenly_over_the_lru_shards() {
    // The sharded cache takes the low bits of the key (`key % shards`);
    // 10 000 neighbouring keys must fill 8 shards within 10 % of even.
    let mut shards = [0usize; 8];
    for key in drift_keys(10_000, 19) {
        shards[(key % 8) as usize] += 1;
    }
    for (shard, &held) in shards.iter().enumerate() {
        assert!(
            (1125..=1375).contains(&held),
            "shard {shard} holds {held} of 10 000 keys: {shards:?}"
        );
    }
}

/// The cross-process stability contract, pinned: this exact digest was
/// computed once and hardcoded; any process, platform, or refactor that
/// produces a different value has silently invalidated every persisted
/// artifact and must bump [`commcache::LAYOUT_VERSION`] instead.
#[test]
fn golden_fingerprint_never_drifts() {
    let mut com = CommMatrix::new(8);
    com.set(0, 1, 16);
    com.set(1, 2, 32);
    com.set(7, 0, 128);
    let cube = Hypercube::new(3);
    let fp = Fingerprint::compute(&com, &cube, "RS_NL", 12345);
    assert_eq!(
        fp.to_hex(),
        "14ffc61efc583544cdf99e7da0cc7489",
        "layout 2: hash128 — the key drifted; bump LAYOUT_VERSION if intentional"
    );
    // And the canonical byte stream itself is pinned at the field level.
    let bytes = canonical_bytes(&com, &cube, "RS_NL", 12345);
    assert_eq!(&bytes[..4], b"CCFP");
    assert_eq!(bytes[4], commcache::LAYOUT_VERSION);
    let name = cube_name_len();
    // tag(5) + name len(4) + name + nodes(8) + links(8) + n(8) + count(8)
    // + 3 messages * 12 + sched name len(4) + "RS_NL"(5) + seed(8).
    assert_eq!(bytes.len(), 5 + 4 + name + 8 + 8 + 8 + 8 + 36 + 4 + 5 + 8);
}

fn cube_name_len() -> usize {
    use hypercube::Topology;
    Hypercube::new(3).name().len()
}

/// Golden keys across every topology kind: one pinned 16-node matrix on
/// four distinct 16-node fabrics (plus the 16-node mesh). Each kind's
/// report name feeds the hash, so each digest is a cross-process contract
/// — a drift here invalidates every persisted artifact for that fabric.
#[test]
fn golden_fingerprints_per_topology_kind() {
    let mut com = CommMatrix::new(16);
    com.set(0, 5, 64);
    com.set(5, 0, 64);
    com.set(3, 12, 4096);
    com.set(9, 2, 1);
    let golden = [
        ("cube:d=4", "04595adf52a82eeaeee8bb6334ff7489"),
        ("mesh:4x4", "52f5e15845be1730ddba0752dfcaf416"),
        ("torus:4x4", "f54fca60f41728ce61edfb4b2ed47917"),
        ("torus:2x2x2x2", "21687512de5f2a3079dacd8f9672e2c4"),
        ("fattree:k=4", "f610081ee045bbe0da6846316039a7fa"),
    ];
    for (spec, hex) in golden {
        let kind: topo::TopologyKind = spec.parse().unwrap();
        let t = kind.build();
        let fp = Fingerprint::compute(&com, t.as_ref(), "RS_NL", 7);
        assert_eq!(
            fp.to_hex(),
            hex,
            "layout 2: hash128 — the key for {spec} drifted; bump LAYOUT_VERSION if intentional"
        );
    }
    // All five are distinct: same matrix, five incompatible machines.
    let mut keys: Vec<&str> = golden.iter().map(|(_, h)| *h).collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), golden.len());
}
