//! Byte-for-byte pins of the delta path and of the two gates around it.
//!
//! * Every patchable registry entry's patched schedule — each phase's
//!   pairs, `ops()` and `compress_ops()` — under eight deltas: one to four
//!   retargeting moves, a remove-only delta, an add-only delta that
//!   overflows every phase with one sender's new messages (so the patch
//!   appends a phase), a removal that empties a phase, and a resize-only
//!   delta; on two cubes, two tori and a mesh, three seeds each.
//! * `IncrementalCache::stats()` after a fixed register/patch replay.
//! * The exact `Err` of `validate_schedule` for every `ValidationError`
//!   variant, and for inputs carrying two faults, so the reporting order
//!   is pinned.
//! * The exact `decode_artifact` error for an out-of-range destination
//!   word, a hostile phase count and each truncation class.
//!
//! Hand-built schedules enter through `decode_artifact` of hand-built
//! format-4 bytes, so this file depends on the artifact format, not on
//! how a schedule stores its phases. Digested with
//! `commcache::checksum64` (a stability contract).

use std::sync::Arc;

use commcache::{
    checksum64, decode_artifact, schedule_weight_bytes, IncrementalCache, IncrementalConfig,
    IncrementalStats, InstanceKey, FORMAT_VERSION, MAGIC,
};
use commsched::{registry, validate_schedule, CommMatrix, MatrixDelta, Schedule};
use hypercube::NodeId;
use topo::TopologyKind;

const SEEDS: [u64; 3] = [1, 3, 7];
const SILENT: u32 = u32::MAX;

fn put(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Every phase's pairs, then the two operation counts.
fn put_schedule(buf: &mut Vec<u8>, s: &Schedule) {
    put(buf, s.num_phases() as u64);
    for pm in s.phases() {
        put(buf, pm.pairs().count() as u64);
        for (src, dst) in pm.pairs() {
            put(buf, u64::from(src.0) << 32 | u64::from(dst.0));
        }
    }
    put(buf, s.ops());
    put(buf, s.compress_ops());
}

/// A small deterministic stream (SplitMix64) for picking cells.
struct Picks(u64);

impl Picks {
    fn next(&mut self) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as usize
    }
}

/// `moves` retargets: each picks a message and re-points it at the first
/// free destination scanning from a picked start.
fn drift(base: &CommMatrix, moves: usize, picks: &mut Picks) -> CommMatrix {
    let n = base.n();
    let mut out = base.clone();
    for _ in 0..moves {
        let msgs: Vec<_> = out.messages().collect();
        let (src, old, bytes) = msgs[picks.next() % msgs.len()];
        out.set(src.index(), old.index(), 0);
        let start = picks.next() % n;
        if let Some(dst) = (0..n)
            .map(|off| (start + off) % n)
            .find(|&d| d != src.index() && d != old.index() && out.get(src.index(), d) == 0)
        {
            out.set(src.index(), dst, bytes);
        }
    }
    out
}

/// The deltas that do not depend on the base schedule: one to four moves,
/// three removals, one resize.
fn matrix_deltas(base: &CommMatrix, seed: u64) -> Vec<MatrixDelta> {
    let mut picks = Picks(seed);
    let mut deltas: Vec<MatrixDelta> = (1..=4)
        .map(|moves| MatrixDelta::diff(base, &drift(base, moves, &mut picks)).unwrap())
        .collect();
    let msgs: Vec<_> = base.messages().collect();
    let mut removed = base.clone();
    for _ in 0..3 {
        let (s, d, _) = msgs[picks.next() % msgs.len()];
        removed.set(s.index(), d.index(), 0);
    }
    deltas.push(MatrixDelta::diff(base, &removed).unwrap());
    let (s, d, bytes) = msgs[picks.next() % msgs.len()];
    let mut resized = base.clone();
    resized.set(s.index(), d.index(), bytes * 3 + 1);
    deltas.push(MatrixDelta::diff(base, &resized).unwrap());
    deltas
}

/// One sender gains a message to every node it did not message before,
/// one more than there are phases where possible: each phase admits at
/// most one message per sender, so the patch must append.
fn appending_delta(base: &CommMatrix, cold: &Schedule) -> MatrixDelta {
    let n = base.n();
    let src = (0..n).max_by_key(|&s| (0..n).filter(|&d| d != s && base.get(s, d) == 0).count());
    let src = src.unwrap();
    let added: Vec<_> = (0..n)
        .filter(|&d| d != src && base.get(src, d) == 0)
        .take(cold.num_phases() + 1)
        .map(|d| (NodeId(src as u32), NodeId(d as u32), 512))
        .collect();
    MatrixDelta::from_parts(n, added, Vec::new(), Vec::new()).unwrap()
}

/// Remove every message of the base schedule's sparsest non-empty phase.
fn emptying_delta(base: &CommMatrix, cold: &Schedule) -> MatrixDelta {
    let sparsest = cold
        .phases()
        .iter()
        .filter(|pm| pm.pairs().count() > 0)
        .min_by_key(|pm| pm.pairs().count())
        .expect("a non-empty base has a non-empty phase");
    let removed: Vec<_> = sparsest.pairs().collect();
    MatrixDelta::from_parts(base.n(), Vec::new(), removed, Vec::new()).unwrap()
}

/// Every patchable entry on `fabric`, under every delta and seed.
fn digest(fabric: &str) -> u64 {
    let topo = TopologyKind::parse(fabric).unwrap().build();
    let n = topo.num_nodes();
    let mut buf = Vec::new();
    for seed in SEEDS {
        let base = workloads::random_dregular(n, 4, 1024, seed);
        let shared = matrix_deltas(&base, seed);
        for entry in registry::all() {
            if entry.name() == "AC" || !entry.supports_topology(&*topo) {
                continue;
            }
            let cold = entry.schedule(&base, &*topo, seed);
            let mut deltas = shared.clone();
            deltas.push(appending_delta(&base, &cold));
            deltas.push(emptying_delta(&base, &cold));
            for delta in &deltas {
                match entry.patch_schedule(&cold, delta, &*topo, seed) {
                    Some(patched) => {
                        let target = delta.apply(&base).unwrap();
                        validate_schedule(&target, &patched)
                            .unwrap_or_else(|e| panic!("{fabric}/{}: {e}", entry.name()));
                        put(&mut buf, 1);
                        put_schedule(&mut buf, &patched);
                    }
                    None => put(&mut buf, 0),
                }
            }
        }
    }
    checksum64(&buf)
}

/// Compare every fabric before failing, so one run prints every digest
/// that moved.
fn assert_pinned(pins: &[(&str, u64)]) {
    let moved: Vec<String> = pins
        .iter()
        .map(|&(fabric, pinned)| (fabric, digest(fabric), pinned))
        .filter(|(_, got, pinned)| got != pinned)
        .map(|(f, got, p)| format!("(\"{f}\", {got:#018x}), // pinned {p:#018x}"))
        .collect();
    assert!(moved.is_empty(), "patches moved:\n{}", moved.join("\n"));
}

#[test]
fn patched_schedules_are_pinned() {
    assert_pinned(&[
        ("cube:d=4", 0xc1a5_ba6e_1c78_b9e0),
        ("cube:d=6", 0x80de_e9cf_ac8a_5b31),
        ("torus:4x4", 0xf13e_2b25_0de9_0ff3),
        ("torus:8x8", 0x6d4c_e51c_6423_2062),
        ("mesh:4x8", 0x986b_ccef_4428_639d),
    ]);
}

#[test]
fn the_appending_delta_appends_and_the_emptying_delta_empties() {
    let topo = TopologyKind::parse("cube:d=4").unwrap().build();
    let base = workloads::random_dregular(16, 4, 1024, 3);
    for name in ["RS_N", "RS_NL", "GREEDY"] {
        let entry = registry::find(name).unwrap();
        let cold = entry.schedule(&base, &*topo, 3);
        let grown = entry
            .patch_schedule(&cold, &appending_delta(&base, &cold), &*topo, 3)
            .unwrap();
        assert!(grown.num_phases() > cold.num_phases(), "{name}");
        let shrunk = entry
            .patch_schedule(&cold, &emptying_delta(&base, &cold), &*topo, 3)
            .unwrap();
        assert_eq!(shrunk.num_phases() + 1, cold.num_phases(), "{name}");
    }
}

/// `schedule_weight_bytes` meters at least what a schedule really holds —
/// the struct and its heap — for every registry entry, cold and patched
/// under every delta, on every fabric and seed of the pins.
#[test]
fn the_metered_weight_covers_the_real_bytes() {
    for fabric in ["cube:d=4", "cube:d=6", "torus:4x4", "torus:8x8", "mesh:4x8"] {
        let topo = TopologyKind::parse(fabric).unwrap().build();
        for seed in SEEDS {
            let base = workloads::random_dregular(topo.num_nodes(), 4, 1024, seed);
            let shared = matrix_deltas(&base, seed);
            for entry in registry::all() {
                if !entry.supports_topology(&*topo) {
                    continue;
                }
                let cold = entry.schedule(&base, &*topo, seed);
                let mut deltas = shared.clone();
                if cold.num_phases() > 0 {
                    deltas.push(appending_delta(&base, &cold));
                    deltas.push(emptying_delta(&base, &cold));
                }
                let patched = deltas
                    .iter()
                    .filter_map(|d| entry.patch_schedule(&cold, d, &*topo, seed));
                for s in patched.chain([cold.clone()]) {
                    let real = std::mem::size_of::<Schedule>() + s.heap_bytes();
                    assert!(
                        schedule_weight_bytes(&s) >= real,
                        "{fabric}/{}: metered {} < held {real}",
                        entry.name(),
                        schedule_weight_bytes(&s)
                    );
                }
            }
        }
    }
}

/// A drifting chain per entry through a small budget, with an unrelated
/// instance now and then: patches, fallbacks, misses and evictions.
#[test]
fn incremental_stats_after_a_fixed_replay_are_pinned() {
    let topo = TopologyKind::parse("cube:d=5").unwrap().build();
    let inc = IncrementalCache::new(IncrementalConfig::default().with_byte_budget(96 << 10));
    let mut picks = Picks(11);
    for (k, name) in ["RS_NL", "RS_N", "GREEDY", "LP", "AC", "RS_NL_DET"]
        .into_iter()
        .enumerate()
    {
        let entry = registry::find(name).unwrap();
        let seed = k as u64;
        let mut com = workloads::random_dregular(32, 4, 2048, seed);
        for step in 0..8 {
            if step == 5 {
                com = workloads::random_dense(32, 6, 512, seed + 100);
            } else if step > 0 {
                com = drift(&com, 1 + step % 3, &mut picks);
            }
            let key = InstanceKey::compute(&com, &*topo);
            let schedule = inc
                .get_patched(entry, key, &com, &*topo, seed)
                .unwrap_or_else(|| Arc::new(entry.schedule(&com, &*topo, seed)));
            validate_schedule(&com, &schedule).unwrap();
            inc.register(key, &com, &*topo, entry.name(), seed, schedule);
        }
    }
    assert_eq!(
        inc.stats(),
        IncrementalStats {
            lookups: 48,
            base_hits: 36,
            base_misses: 12,
            patches: 30,
            fallbacks: 6,
            validation_rejections: 0,
            bases_resident: 26,
            bytes_in_use: 96_368,
            evictions: 22,
        }
    );
}

/// A complete format-4 artifact around `words` (`phases × n`), fingerprint
/// zero, no topology or cost section.
fn artifact(kind: u8, n: u64, phases: u64, words: &[u32]) -> Vec<u8> {
    let mut payload = vec![kind, 2];
    for v in [n, 7, 3, phases] {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    for w in words {
        payload.extend_from_slice(&w.to_le_bytes());
    }
    payload.extend_from_slice(&[0, 0]);
    seal(&payload)
}

/// Header, payload and checksum around a payload.
fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&[0; 16]);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum64(payload).to_le_bytes());
    out
}

/// A phased schedule over `n` nodes from its rows of destination words.
fn phased(n: usize, rows: &[&[u32]]) -> Schedule {
    let words: Vec<u32> = rows.iter().flat_map(|r| r.iter().copied()).collect();
    assert_eq!(words.len(), n * rows.len());
    decode_artifact(&artifact(1, n as u64, rows.len() as u64, &words))
        .unwrap()
        .1
}

/// 0 -> 1, 1 -> 2, 2 -> 0, 3 -> 1 on four nodes.
fn com4() -> CommMatrix {
    let mut com = CommMatrix::new(4);
    for (s, d) in [(0, 1), (1, 2), (2, 0), (3, 1)] {
        com.set(s, d, 64);
    }
    com
}

#[test]
fn validation_errors_and_their_order_are_pinned() {
    const S: u32 = SILENT;
    let com = com4();
    let cases: Vec<(&str, Schedule, &str)> = vec![
        (
            "valid",
            phased(4, &[&[1, 2, 0, S], &[S, S, S, 1]]),
            "Ok(())",
        ),
        (
            "wrong size",
            phased(5, &[&[1, 2, 0, S, S]]),
            "Err(WrongSize { matrix: 4, schedule: 5 })",
        ),
        (
            "two senders, one receiver",
            phased(4, &[&[1, 2, 0, 1]]),
            "Err(NotPermutation { phase: 0 })",
        ),
        (
            "self-send",
            phased(4, &[&[1, 2, 0, S], &[S, S, S, 3]]),
            "Err(NotPermutation { phase: 1 })",
        ),
        (
            "unknown message",
            phased(4, &[&[1, 2, 0, S], &[S, S, S, 1], &[2, S, S, S]]),
            "Err(UnknownMessage { phase: 2, src: 0, dst: 2 })",
        ),
        (
            "duplicate message",
            phased(4, &[&[1, 2, 0, S], &[S, 2, S, 1]]),
            "Err(DuplicateMessage { src: 1, dst: 2 })",
        ),
        (
            "missing message",
            phased(4, &[&[1, 2, S, S], &[S, S, S, 1]]),
            "Err(MissingMessage { src: 2, dst: 0 })",
        ),
        (
            "unknown in phase 0 before a collision in phase 1",
            phased(4, &[&[3, 2, 0, S], &[1, S, S, 1]]),
            "Err(UnknownMessage { phase: 0, src: 0, dst: 3 })",
        ),
        (
            "a collision outranks an unknown message of the same phase",
            phased(4, &[&[3, 0, 1, 1]]),
            "Err(NotPermutation { phase: 0 })",
        ),
        (
            "the first bad pair of a phase in sender order",
            phased(4, &[&[1, 2, 0, S], &[3, 2, S, S]]),
            "Err(UnknownMessage { phase: 1, src: 0, dst: 3 })",
        ),
        (
            "duplicate before missing",
            phased(4, &[&[1, 2, S, S], &[1, S, S, S]]),
            "Err(DuplicateMessage { src: 0, dst: 1 })",
        ),
        (
            "wrong size before a collision",
            phased(2, &[&[1, 1]]),
            "Err(WrongSize { matrix: 4, schedule: 2 })",
        ),
        (
            "two missing messages: the first in row order",
            phased(4, &[&[S, 2, S, S], &[S, S, S, 1]]),
            "Err(MissingMessage { src: 0, dst: 1 })",
        ),
    ];
    for (what, schedule, want) in cases {
        let got = format!("{:?}", validate_schedule(&com, &schedule));
        assert_eq!(got, want, "{what}");
    }
    // An async schedule is checked for its size only.
    let async_ok = decode_artifact(&artifact(0, 4, 0, &[])).unwrap().1;
    assert_eq!(validate_schedule(&com, &async_ok), Ok(()));
    let async_wrong = decode_artifact(&artifact(0, 3, 0, &[])).unwrap().1;
    assert_eq!(
        format!("{:?}", validate_schedule(&com, &async_wrong)),
        "Err(WrongSize { matrix: 4, schedule: 3 })"
    );
}

#[test]
fn decode_errors_are_pinned() {
    let good = artifact(1, 4, 2, &[1, 2, 0, SILENT, SILENT, SILENT, SILENT, 1]);
    assert!(decode_artifact(&good).is_ok());
    let decode = |bytes: &[u8]| format!("{:?}", decode_artifact(bytes).map(|(fp, _)| fp));

    // A destination word past the node count, in the second phase.
    let out_of_range = artifact(1, 4, 2, &[1, 2, 0, SILENT, SILENT, 9, SILENT, 1]);
    assert_eq!(
        decode(&out_of_range),
        "Err(Corrupt(\"destination 9 out of 4 nodes\"))"
    );
    // The first bad word wins, even when a later one is worse.
    let two_bad = artifact(1, 4, 1, &[4, 0xffff_fffe, SILENT, SILENT]);
    assert_eq!(
        decode(&two_bad),
        "Err(Corrupt(\"destination 4 out of 4 nodes\"))"
    );
    // Hostile phase counts: more phases than the payload holds, and one
    // whose byte size overflows.
    for phases in [3, 1 << 60, u64::MAX] {
        let hostile = artifact(1, 4, phases, &[1, 2, 0, SILENT, SILENT, SILENT, SILENT, 1]);
        assert_eq!(decode(&hostile), "Err(Truncated)", "{phases} phases");
    }
    // A node count of zero or past u32.
    for n in [0, 1 << 32] {
        assert_eq!(
            decode(&artifact(1, n, 0, &[])),
            format!("Err(Corrupt(\"node count {n}\"))")
        );
    }

    // Truncation classes of the frame: inside the magic, the version, the
    // fingerprint, the payload length, the payload and the checksum.
    let frame_cuts = [0, 5, 8, 10, 12, 20, 28, 30, 36, 50];
    for cut in frame_cuts
        .into_iter()
        .chain([good.len() - 8, good.len() - 1])
    {
        assert_eq!(decode(&good[..cut]), "Err(Truncated)", "cut at {cut}");
    }
    // ...and of the payload (checksum intact): inside the fixed fields,
    // inside the phase words, and inside each optional section.
    let payload = &good[36..good.len() - 8];
    for cut in [1, 2, 9, 17, 25, 33, 34, 40, 65, payload.len() - 1] {
        assert_eq!(
            decode(&seal(&payload[..cut])),
            "Err(Truncated)",
            "payload cut at {cut}"
        );
    }
    let mut sections = payload[..payload.len() - 2].to_vec();
    sections.extend_from_slice(&[1, 9, 0, 0, 0, b'r', b'i']);
    assert_eq!(decode(&seal(&sections)), "Err(Truncated)", "topology kind");
    let mut sections = payload[..payload.len() - 2].to_vec();
    sections.extend_from_slice(&[1, 2, 0, 0, 0, b'r', b'i', 4, 0, 0]);
    assert_eq!(decode(&seal(&sections)), "Err(Truncated)", "topology nodes");
    let mut sections = payload[..payload.len() - 1].to_vec();
    sections.extend_from_slice(&[1, 5, 0, 0, 0, b'u']);
    assert_eq!(decode(&seal(&sections)), "Err(Truncated)", "cost model");
    // Trailing bytes and a bad flag are corruption, not truncation.
    let mut trailing = payload.to_vec();
    trailing.push(0);
    assert_eq!(
        decode(&seal(&trailing)),
        "Err(Corrupt(\"trailing payload bytes\"))"
    );
}
