//! Byte-for-byte pins of `CommMatrix` as its consumers read it: the
//! `messages()` walk of every workload family, the matrix's derived
//! properties, `MatrixDelta` diffs, bounded diffs and applications, and
//! the first error a `Submit` body with two anomalies decodes to.
//!
//! The literals were recorded on the dense `n × n` layout. A matrix that
//! stores its messages any other way must reproduce them: the fingerprint
//! layout, the `Submit` encoder and every scheduler's set-up read the
//! `messages()` order, and the daemon reports the anomaly at the earliest
//! wire position whatever order the body lists its messages in.
//!
//! Digested with `commcache::checksum64` (a stability contract). On a
//! mismatch the test prints the whole table as it now reads, so a
//! deliberate move is one paste.

use commcache::checksum64;
use commrt::BackendKind;
use commsched::{CommMatrix, MatrixDelta};
use hypercube::NodeId;
use schedd::{LinkCostModel, Request, SchemeChoice, SubmitRequest, TopologySpec};
use workloads::{collective, irregular, random_dense, random_dregular, random_nonuniform};
use workloads::{structured, SampleSet};

const SIZES: [usize; 4] = [16, 64, 100, 1024];
const SEEDS: [u64; 3] = [1, 2, 3];

/// SplitMix64: the test's own deterministic draws.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn put(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_message(buf: &mut Vec<u8>, (src, dst, bytes): (NodeId, NodeId, u32)) {
    for w in [src.0, dst.0, bytes] {
        buf.extend_from_slice(&w.to_le_bytes());
    }
}

/// `n`, then every message in `messages()` order.
fn matrix_digest(com: &CommMatrix) -> String {
    let mut buf = Vec::new();
    put(&mut buf, com.n() as u64);
    com.messages().for_each(|m| put_message(&mut buf, m));
    format!("{:#018x}", checksum64(&buf))
}

fn delta_digest(delta: &MatrixDelta) -> String {
    let mut buf = Vec::new();
    put(&mut buf, delta.n() as u64);
    put(&mut buf, delta.added().len() as u64);
    delta.added().iter().for_each(|&m| put_message(&mut buf, m));
    put(&mut buf, delta.removed().len() as u64);
    for &(src, dst) in delta.removed() {
        put_message(&mut buf, (src, dst, 0));
    }
    put(&mut buf, delta.resized().len() as u64);
    delta
        .resized()
        .iter()
        .for_each(|&m| put_message(&mut buf, m));
    format!("{:#018x}", checksum64(&buf))
}

/// Compare `actual` with the pinned table; on any difference print the
/// table as it now reads and fail.
fn check(section: &str, expected: &[(&str, &str)], actual: Vec<(String, String)>) {
    let matches = expected.len() == actual.len()
        && expected
            .iter()
            .zip(&actual)
            .all(|(e, a)| e.0 == a.0 && e.1 == a.1);
    if !matches {
        let mut table = String::new();
        for (label, value) in &actual {
            table.push_str(&format!("    ({label:?}, {value:?}),\n"));
        }
        let wrong: Vec<&str> = expected
            .iter()
            .filter(|e| !actual.iter().any(|a| a.0 == e.0 && a.1 == e.1))
            .map(|e| e.0)
            .collect();
        panic!("{section}: {} pins differ: {wrong:?}\n{table}", wrong.len());
    }
}

fn side(n: usize) -> usize {
    (n as f64).sqrt() as usize
}

/// Torus extents of `n` nodes.
fn extents(n: usize) -> Vec<usize> {
    match n {
        16 => vec![4, 4],
        64 => vec![4, 4, 4],
        100 => vec![10, 10],
        _ => vec![32, 32],
    }
}

/// Every workload family at every size it allows, seeded ones under three
/// seeds, then the `grid_paper` point d = 48 on 64 nodes.
fn families() -> Vec<(String, CommMatrix)> {
    let mut out: Vec<(String, CommMatrix)> = Vec::new();
    for n in SIZES {
        let s = side(n);
        for seed in SEEDS {
            out.push((
                format!("random_dense n={n} seed={seed}"),
                random_dense(n, 4, 1024, seed),
            ));
            out.push((
                format!("random_dregular n={n} seed={seed}"),
                random_dregular(n, 4, 1024, seed),
            ));
            out.push((
                format!("random_nonuniform n={n} seed={seed}"),
                random_nonuniform(n, 4, 16, 1 << 16, seed),
            ));
            out.push((
                format!("hotspot n={n} seed={seed}"),
                irregular::hotspot(n, 2, 3, 512, seed),
            ));
            out.push((
                format!("powerlaw n={n} seed={seed}"),
                irregular::powerlaw(n, 8, 1.0, 256, seed),
            ));
            out.push((
                format!("irregular_halo n={n} seed={seed}"),
                irregular::irregular_halo(s, s, 4096, 2, 1024, seed),
            ));
        }
        out.push((
            format!("grid_halo n={n}"),
            irregular::grid_halo(s, s, 4096, 1024),
        ));
        out.push((format!("transpose n={n}"), structured::transpose(n, 64)));
        out.push((format!("shift n={n}"), structured::shift(n, 3, 64)));
        out.push((format!("all_to_all n={n}"), structured::all_to_all(n, 8)));
        out.push((format!("ring_halo n={n}"), structured::ring_halo(n, 2, 64)));
        out.push((
            format!("torus_halo n={n}"),
            structured::torus_halo(&extents(n), 64),
        ));
        out.push((
            format!("torus_neighborhood n={n}"),
            structured::torus_neighborhood(&extents(n), 2, 64),
        ));
        if n.is_power_of_two() {
            let dims = n.trailing_zeros();
            out.push((format!("bit_reverse n={n}"), structured::bit_reverse(n, 64)));
            out.push((
                format!("bit_complement n={n}"),
                structured::bit_complement(n, 64),
            ));
            out.push((
                format!("butterfly_stage n={n}"),
                collective::butterfly_stage(n, dims - 1, 64),
            ));
            out.push((
                format!("butterfly_all_stages n={n}"),
                collective::butterfly_all_stages(n, 64),
            ));
            out.push((
                format!("embedded_grid_halo n={n}"),
                collective::embedded_grid_halo(dims / 2, dims - dims / 2, 64),
            ));
        }
    }
    for seed in SampleSet::new(7, 3).seeds() {
        out.push((
            format!("grid_paper d=48 seed={seed}"),
            random_dregular(64, 48, 4096, seed),
        ));
    }
    out
}

#[test]
fn every_family_walks_its_messages_as_pinned() {
    let actual = families()
        .into_iter()
        .map(|(label, com)| (label, matrix_digest(&com)))
        .collect();
    check("messages()", FAMILY_DIGESTS, actual);
}

/// Everything a matrix answers about itself, digested: density,
/// uniformity, symmetry, counts, every node's degrees, and the matrix
/// under a seeded relabeling.
fn properties_digest(com: &CommMatrix, seed: u64) -> String {
    let n = com.n();
    let mut buf = Vec::new();
    put(&mut buf, com.density() as u64);
    put(&mut buf, u64::from(com.is_uniform()));
    put(&mut buf, u64::from(com.is_symmetric_pattern()));
    put(&mut buf, com.message_count() as u64);
    put(&mut buf, com.total_bytes());
    for i in 0..n {
        put(&mut buf, com.out_degree(i) as u64);
        put(&mut buf, com.in_degree(i) as u64);
    }
    let mut perm: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    let mut rng = Mix(seed);
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    let relabeled = com.relabeled(&perm);
    relabeled.messages().for_each(|m| put_message(&mut buf, m));
    format!("{:#018x}", checksum64(&buf))
}

#[test]
fn matrix_properties_are_pinned() {
    let actual = families()
        .into_iter()
        .filter(|(_, com)| com.n() <= 100)
        .enumerate()
        .map(|(k, (label, com))| (label, properties_digest(&com, k as u64)))
        .collect();
    check("properties", PROPERTY_DIGESTS, actual);
}

/// `edits` random edits of `base`: removals, additions to empty cells and
/// resizes, each touching a distinct cell.
fn drift(base: &CommMatrix, edits: usize, rng: &mut Mix) -> CommMatrix {
    let n = base.n();
    let mut out = base.clone();
    let mut touched: Vec<(usize, usize)> = Vec::new();
    for e in 0..edits {
        let messages: Vec<_> = out.messages().collect();
        let pick = |rng: &mut Mix| {
            if messages.is_empty() {
                None
            } else {
                let (s, d, b) = messages[rng.below(messages.len())];
                Some((s.index(), d.index(), b))
            }
        };
        match e % 3 {
            0 => {
                if let Some((s, d, _)) = pick(rng).filter(|&(s, d, _)| !touched.contains(&(s, d))) {
                    out.set(s, d, 0);
                    touched.push((s, d));
                }
            }
            1 => {
                let (s, d) = (rng.below(n), rng.below(n));
                if s != d && out.get(s, d) == 0 && !touched.contains(&(s, d)) {
                    out.set(s, d, 1 + rng.below(1 << 20) as u32);
                    touched.push((s, d));
                }
            }
            _ => {
                if let Some((s, d, b)) = pick(rng).filter(|&(s, d, _)| !touched.contains(&(s, d))) {
                    out.set(s, d, b.wrapping_mul(3).max(1) ^ 1);
                    touched.push((s, d));
                }
            }
        }
    }
    out
}

#[test]
fn deltas_diff_bound_and_apply_as_pinned() {
    let mut rng = Mix(2024);
    let mut actual = Vec::new();
    let bases: Vec<(String, CommMatrix)> = families()
        .into_iter()
        .filter(|(label, com)| com.n() <= 100 && !label.starts_with("all_to_all"))
        .step_by(4)
        .collect();
    for (label, base) in &bases {
        for edits in [0usize, 1, 2, 4, 7] {
            let target = drift(base, edits, &mut rng);
            let case = format!("{label} edits={edits}");
            let delta = MatrixDelta::diff(base, &target).unwrap();
            actual.push((format!("{case} diff"), delta_digest(&delta)));
            let bounded: Vec<String> = (0..=4)
                .map(
                    |bound| match MatrixDelta::diff_within(base, &target, bound).unwrap() {
                        None => "-".to_string(),
                        Some(d) => (d.structural_count()).to_string(),
                    },
                )
                .collect();
            actual.push((format!("{case} within"), bounded.join(",")));
            let applied = delta.apply(base).unwrap();
            assert_eq!(applied, target, "{case}");
            actual.push((format!("{case} apply"), matrix_digest(&applied)));
            // The delta against the wrong base: its target.
            let wrong = match delta.apply(&target) {
                Ok(m) => matrix_digest(&m),
                Err(e) => format!("{e:?}"),
            };
            actual.push((format!("{case} apply to target"), wrong));
        }
    }
    // Hand-assembled deltas: malformed lists and edits of the wrong base.
    let base = &bases[0].1;
    let n = base.n();
    let (s0, d0, b0) = base.messages().next().unwrap();
    let absent = (0..n)
        .flat_map(|s| (0..n).map(move |d| (s, d)))
        .find(|&(s, d)| s != d && base.get(s, d) == 0)
        .map(|(s, d)| (NodeId(s as u32), NodeId(d as u32)))
        .unwrap();
    let node = |i: usize| NodeId(i as u32);
    let hand: Vec<(&str, MatrixDelta)> = vec![
        (
            "add existing",
            MatrixDelta::from_parts(n, vec![(s0, d0, 5)], vec![], vec![]).unwrap(),
        ),
        (
            "remove absent",
            MatrixDelta::from_parts(n, vec![], vec![absent], vec![]).unwrap(),
        ),
        (
            "resize absent",
            MatrixDelta::from_parts(n, vec![], vec![], vec![(absent.0, absent.1, 9)]).unwrap(),
        ),
        (
            "resize then add existing",
            MatrixDelta::from_parts(n, vec![(s0, d0, 5)], vec![], vec![(absent.0, absent.1, 9)])
                .unwrap(),
        ),
        (
            "unsorted edits",
            MatrixDelta::from_parts(
                n,
                vec![(absent.0, absent.1, 77)],
                vec![],
                vec![(s0, d0, b0 + 1)],
            )
            .unwrap(),
        ),
        (
            "wrong size",
            MatrixDelta::from_parts(n + 1, vec![], vec![], vec![]).unwrap(),
        ),
    ];
    for (what, delta) in hand {
        let outcome = match delta.apply(base) {
            Ok(m) => matrix_digest(&m),
            Err(e) => format!("{e:?}"),
        };
        actual.push((format!("hand {what}"), outcome));
    }
    let parts: Vec<(&str, Result<MatrixDelta, _>)> = vec![
        (
            "out of range",
            MatrixDelta::from_parts(n, vec![(node(0), node(n), 1)], vec![], vec![]),
        ),
        (
            "self",
            MatrixDelta::from_parts(n, vec![], vec![(node(2), node(2))], vec![]),
        ),
        (
            "zero",
            MatrixDelta::from_parts(n, vec![], vec![], vec![(node(1), node(2), 0)]),
        ),
        (
            "duplicate cell",
            MatrixDelta::from_parts(
                n,
                vec![(node(1), node(2), 3)],
                vec![(node(1), node(2))],
                vec![],
            ),
        ),
    ];
    for (what, result) in parts {
        actual.push((format!("from_parts {what}"), format!("{:?}", result.err())));
    }
    check("deltas", DELTA_PINS, actual);
}

/// One wire message: `(src, dst, bytes)`.
type Record = (u32, u32, u32);

/// A `Submit` body on 16 nodes whose messages are exactly `records`, in
/// that wire order.
fn submit_body(records: &[Record]) -> Vec<u8> {
    let mut matrix = CommMatrix::new(16);
    for k in 0..records.len() {
        matrix.set(0, k + 1, 1);
    }
    let body = Request::Submit(SubmitRequest {
        request_id: 3,
        want_schedule: false,
        topology: TopologySpec::Hypercube { dims: 4 },
        scheduler: "RS_N".into(),
        scheme: SchemeChoice::Default,
        backend: BackendKind::Analytic,
        seed: 1,
        matrix,
        cost_model: LinkCostModel::Uniform,
    })
    .encode();
    // A uniform cost model adds nothing, so the records end the body.
    let mut body = body;
    let at = body.len() - 12 * records.len();
    for (k, &(src, dst, bytes)) in records.iter().enumerate() {
        let rec = &mut body[at + 12 * k..at + 12 * (k + 1)];
        rec[0..4].copy_from_slice(&src.to_le_bytes());
        rec[4..8].copy_from_slice(&dst.to_le_bytes());
        rec[8..12].copy_from_slice(&bytes.to_le_bytes());
    }
    body
}

#[test]
fn submit_decode_reports_the_earliest_anomaly() {
    let cases: Vec<(&str, Vec<Record>)> = vec![
        (
            "duplicate before out-of-range",
            vec![(3, 4, 8), (0, 1, 5), (0, 1, 6), (0, 99, 5)],
        ),
        (
            "out-of-range before duplicate",
            vec![(3, 4, 8), (0, 99, 5), (0, 1, 5), (0, 1, 6)],
        ),
        (
            "out-of-range source before duplicate",
            vec![(40, 2, 8), (0, 1, 5), (0, 1, 6)],
        ),
        (
            "two duplicates, the later row first",
            vec![(5, 6, 1), (0, 1, 1), (5, 6, 2), (0, 1, 2)],
        ),
        (
            "two duplicates, the earlier row first",
            vec![(5, 6, 1), (0, 1, 1), (0, 1, 2), (5, 6, 2)],
        ),
        (
            "one cell three times",
            vec![(7, 2, 1), (7, 2, 2), (7, 2, 3)],
        ),
        (
            "zero bytes after a duplicate",
            vec![(9, 8, 4), (9, 8, 4), (2, 3, 0)],
        ),
        (
            "zero bytes before a duplicate",
            vec![(2, 3, 0), (9, 8, 4), (9, 8, 4)],
        ),
        (
            "self-message after a duplicate",
            vec![(12, 1, 4), (12, 1, 4), (6, 6, 2)],
        ),
        (
            "self-message before a zero-byte one",
            vec![(6, 6, 2), (2, 3, 0)],
        ),
        (
            "a valid body out of row-major order",
            vec![(9, 1, 4), (2, 15, 7), (2, 3, 9), (0, 8, 1), (15, 0, 2)],
        ),
        (
            "a valid body in row-major order",
            vec![(0, 8, 1), (2, 3, 9)],
        ),
    ];
    let actual = cases
        .into_iter()
        .map(|(what, records)| {
            let outcome = match Request::decode(&submit_body(&records)) {
                Ok(Request::Submit(req)) => matrix_digest(&req.matrix),
                Ok(other) => format!("decoded as {other:?}"),
                Err(e) => format!("{e:?}"),
            };
            (what.to_string(), outcome)
        })
        .collect();
    check("submit decode", DECODE_PINS, actual);
}

const FAMILY_DIGESTS: &[(&str, &str)] = &[
    ("random_dense n=16 seed=1", "0xb1946e6d1f6d3af2"),
    ("random_dregular n=16 seed=1", "0x450bd0bd593eae95"),
    ("random_nonuniform n=16 seed=1", "0x219087e75845a792"),
    ("hotspot n=16 seed=1", "0x857b11cfea6e168f"),
    ("powerlaw n=16 seed=1", "0x2fd3cd32448e486f"),
    ("irregular_halo n=16 seed=1", "0x28281c73662f16f5"),
    ("random_dense n=16 seed=2", "0x26318eaee23b9dc6"),
    ("random_dregular n=16 seed=2", "0x5c3545407f054e4d"),
    ("random_nonuniform n=16 seed=2", "0xbfbdec4d42f27af9"),
    ("hotspot n=16 seed=2", "0xe14916d85082a33b"),
    ("powerlaw n=16 seed=2", "0xbf19d14319b44478"),
    ("irregular_halo n=16 seed=2", "0x6ef184b92be8a52b"),
    ("random_dense n=16 seed=3", "0x0bcad53e456c9210"),
    ("random_dregular n=16 seed=3", "0x67048a4190276182"),
    ("random_nonuniform n=16 seed=3", "0x85a3b873f6d95881"),
    ("hotspot n=16 seed=3", "0x846bb6d4962eb0bd"),
    ("powerlaw n=16 seed=3", "0x0e8e318dcb515b52"),
    ("irregular_halo n=16 seed=3", "0x05dc81c34c70445a"),
    ("grid_halo n=16", "0x292bb3f71b3d2514"),
    ("transpose n=16", "0x8137d96d7a3e4fb9"),
    ("shift n=16", "0x3e5edf7ee1389047"),
    ("all_to_all n=16", "0x0808e1a8cdf3fae4"),
    ("ring_halo n=16", "0x122a7c5e9f2c3498"),
    ("torus_halo n=16", "0x76c23fd0ae5b2f6d"),
    ("torus_neighborhood n=16", "0xe190754a4fa67e35"),
    ("bit_reverse n=16", "0xee6da6e140469df7"),
    ("bit_complement n=16", "0x740568966eeb3a1d"),
    ("butterfly_stage n=16", "0x9d7952f85f983e0f"),
    ("butterfly_all_stages n=16", "0x0ea0de143ae9835a"),
    ("embedded_grid_halo n=16", "0x538d7745e794330a"),
    ("random_dense n=64 seed=1", "0xd64b5fca3e4bda4e"),
    ("random_dregular n=64 seed=1", "0xfd857f7da4a0344f"),
    ("random_nonuniform n=64 seed=1", "0x49a57f91ec1b24d9"),
    ("hotspot n=64 seed=1", "0xbd0db220b1d6cd30"),
    ("powerlaw n=64 seed=1", "0x5df086ea88edbfcc"),
    ("irregular_halo n=64 seed=1", "0xc2304332d717f127"),
    ("random_dense n=64 seed=2", "0x5f74a326a4bb72e7"),
    ("random_dregular n=64 seed=2", "0xee11a003fe2f70ae"),
    ("random_nonuniform n=64 seed=2", "0x88b4d4755359b102"),
    ("hotspot n=64 seed=2", "0x79508d29027f5d70"),
    ("powerlaw n=64 seed=2", "0x91008322911525ee"),
    ("irregular_halo n=64 seed=2", "0x50d64935a35189b0"),
    ("random_dense n=64 seed=3", "0x4a744707e4a6adc0"),
    ("random_dregular n=64 seed=3", "0xaf1d5f13794996f9"),
    ("random_nonuniform n=64 seed=3", "0xb2f83a472d52088e"),
    ("hotspot n=64 seed=3", "0xb5926e731a754e7a"),
    ("powerlaw n=64 seed=3", "0xe2e22c81672c6399"),
    ("irregular_halo n=64 seed=3", "0x3d9dd52445ff2bf6"),
    ("grid_halo n=64", "0x506e28d951c7792b"),
    ("transpose n=64", "0x55910110a86e24ef"),
    ("shift n=64", "0xf105513012e5b8a2"),
    ("all_to_all n=64", "0x1156d3b7c49600e3"),
    ("ring_halo n=64", "0x24ab4116447d3ffb"),
    ("torus_halo n=64", "0xc603f963e0bf5681"),
    ("torus_neighborhood n=64", "0xb2019b7b3ff40d0f"),
    ("bit_reverse n=64", "0x98167683db241ec8"),
    ("bit_complement n=64", "0xed9f74cd14276324"),
    ("butterfly_stage n=64", "0x4da658faf540e978"),
    ("butterfly_all_stages n=64", "0x08bd8412605f173d"),
    ("embedded_grid_halo n=64", "0x590fe5e20503b06f"),
    ("random_dense n=100 seed=1", "0x8e8953da97330bfa"),
    ("random_dregular n=100 seed=1", "0xf640090ec4771629"),
    ("random_nonuniform n=100 seed=1", "0x95b6857fe985082f"),
    ("hotspot n=100 seed=1", "0x89ffc949963dce99"),
    ("powerlaw n=100 seed=1", "0x9e74c0602581a562"),
    ("irregular_halo n=100 seed=1", "0xbc6c4241a036642a"),
    ("random_dense n=100 seed=2", "0x8d848f0f7faf6470"),
    ("random_dregular n=100 seed=2", "0x529c125f798e9b19"),
    ("random_nonuniform n=100 seed=2", "0x1c42c0e93eb7d958"),
    ("hotspot n=100 seed=2", "0xb154d50f8d940323"),
    ("powerlaw n=100 seed=2", "0xdb4ad957c3a7ecc5"),
    ("irregular_halo n=100 seed=2", "0x3aa58b21189f98dd"),
    ("random_dense n=100 seed=3", "0xa9774cf368e2b1d0"),
    ("random_dregular n=100 seed=3", "0xcb24a967c9ce1988"),
    ("random_nonuniform n=100 seed=3", "0x3fe44d56e5d98357"),
    ("hotspot n=100 seed=3", "0x9b2aad3bf47d578e"),
    ("powerlaw n=100 seed=3", "0x0689df680c60e12f"),
    ("irregular_halo n=100 seed=3", "0xdf617347c5b130a1"),
    ("grid_halo n=100", "0x5c55a8c1f94122bb"),
    ("transpose n=100", "0xbf6c24696186c7ba"),
    ("shift n=100", "0x406d7fa481ffeb8c"),
    ("all_to_all n=100", "0xe0239046faddcfe2"),
    ("ring_halo n=100", "0x3b019dd19c715a5f"),
    ("torus_halo n=100", "0x58589333e4c9a996"),
    ("torus_neighborhood n=100", "0xb1300c95ffac9eae"),
    ("random_dense n=1024 seed=1", "0xe46e771ca014a2ca"),
    ("random_dregular n=1024 seed=1", "0xb91bac74316a034c"),
    ("random_nonuniform n=1024 seed=1", "0xc3cdd47b3bd3561f"),
    ("hotspot n=1024 seed=1", "0x31141a57d26faffa"),
    ("powerlaw n=1024 seed=1", "0x9c5e5b150a19ce28"),
    ("irregular_halo n=1024 seed=1", "0x7e2c8a4e1eddfddf"),
    ("random_dense n=1024 seed=2", "0x05593b471a524f20"),
    ("random_dregular n=1024 seed=2", "0x7faa19c75c7e76ae"),
    ("random_nonuniform n=1024 seed=2", "0x2384840cd1344c00"),
    ("hotspot n=1024 seed=2", "0xc8f4efa59e9ec4f1"),
    ("powerlaw n=1024 seed=2", "0xd580441d57862696"),
    ("irregular_halo n=1024 seed=2", "0x487032fbf84432dd"),
    ("random_dense n=1024 seed=3", "0x5a2afae44064582a"),
    ("random_dregular n=1024 seed=3", "0x8ea37013ab4227a2"),
    ("random_nonuniform n=1024 seed=3", "0xa73021e88a15bb95"),
    ("hotspot n=1024 seed=3", "0xe3154b24de934e72"),
    ("powerlaw n=1024 seed=3", "0xd3db6f53af88b730"),
    ("irregular_halo n=1024 seed=3", "0xd8d1f076ae0ee594"),
    ("grid_halo n=1024", "0x0dcddfff34d2f6c2"),
    ("transpose n=1024", "0x96e429b7ebd587be"),
    ("shift n=1024", "0x14c4357a1b4b9813"),
    ("all_to_all n=1024", "0x4a71c86445a09dc2"),
    ("ring_halo n=1024", "0x25f376b5d50c42c7"),
    ("torus_halo n=1024", "0x0cdd1dfa04728e72"),
    ("torus_neighborhood n=1024", "0x6d4bd5dff81fbb1c"),
    ("bit_reverse n=1024", "0x5c887a4eb7dc57ec"),
    ("bit_complement n=1024", "0x5496eff53406d2fe"),
    ("butterfly_stage n=1024", "0x7b6f461c34a7a219"),
    ("butterfly_all_stages n=1024", "0xa59c64b709d2f8f3"),
    ("embedded_grid_halo n=1024", "0x499839c13ae01569"),
    ("grid_paper d=48 seed=7000", "0x66947d97dc505b50"),
    ("grid_paper d=48 seed=7001", "0xa72db57646d7fd64"),
    ("grid_paper d=48 seed=7002", "0xc0f4281801007a10"),
];

const PROPERTY_DIGESTS: &[(&str, &str)] = &[
    ("random_dense n=16 seed=1", "0x1f15e411e419d9c8"),
    ("random_dregular n=16 seed=1", "0x6f86db908c5959cb"),
    ("random_nonuniform n=16 seed=1", "0xc88b99d895ef0b7c"),
    ("hotspot n=16 seed=1", "0x276bce822bc6251c"),
    ("powerlaw n=16 seed=1", "0xc2ef01016c1d3001"),
    ("irregular_halo n=16 seed=1", "0xca467861a9c0d3f2"),
    ("random_dense n=16 seed=2", "0x4b57c447d3cfea9e"),
    ("random_dregular n=16 seed=2", "0xcac443190435a777"),
    ("random_nonuniform n=16 seed=2", "0xfddca80f0ae0fa08"),
    ("hotspot n=16 seed=2", "0x919e48370b366451"),
    ("powerlaw n=16 seed=2", "0x03d5db34fc1c6f66"),
    ("irregular_halo n=16 seed=2", "0x9c445217be6cbb73"),
    ("random_dense n=16 seed=3", "0xa0afe388ff82ae72"),
    ("random_dregular n=16 seed=3", "0xf0deb1a150a48f79"),
    ("random_nonuniform n=16 seed=3", "0xc4d5abf86cd3948d"),
    ("hotspot n=16 seed=3", "0xf99ffdb89fd14663"),
    ("powerlaw n=16 seed=3", "0x482e0c25d70d0a20"),
    ("irregular_halo n=16 seed=3", "0x6192afd3a152c4d3"),
    ("grid_halo n=16", "0x1ff4ea6ec957cfa6"),
    ("transpose n=16", "0x2183e6624d87947c"),
    ("shift n=16", "0x3f210e60a28c9132"),
    ("all_to_all n=16", "0xe6e93c1109ef8aa2"),
    ("ring_halo n=16", "0x7eb4f2de86deceba"),
    ("torus_halo n=16", "0xbf40437612838a5b"),
    ("torus_neighborhood n=16", "0xc436dbaffd18a44b"),
    ("bit_reverse n=16", "0xbb9f003664576608"),
    ("bit_complement n=16", "0x697eb21418543a73"),
    ("butterfly_stage n=16", "0x329e79327b961bf3"),
    ("butterfly_all_stages n=16", "0x450deabd275a298b"),
    ("embedded_grid_halo n=16", "0x0b2ed26ab4029912"),
    ("random_dense n=64 seed=1", "0xc9ae9368cf228941"),
    ("random_dregular n=64 seed=1", "0xccdf66cb4c5f251f"),
    ("random_nonuniform n=64 seed=1", "0x23f51ffe1985a05c"),
    ("hotspot n=64 seed=1", "0x0d28c300135a2051"),
    ("powerlaw n=64 seed=1", "0xaf70e9b032496d43"),
    ("irregular_halo n=64 seed=1", "0xc972a93bbcce95fd"),
    ("random_dense n=64 seed=2", "0x86cb9eaa29af2471"),
    ("random_dregular n=64 seed=2", "0x958e6f130bf6439e"),
    ("random_nonuniform n=64 seed=2", "0x44e99f16907a4dbd"),
    ("hotspot n=64 seed=2", "0x0af4ba01be7a4eb4"),
    ("powerlaw n=64 seed=2", "0x535efa596ecba19b"),
    ("irregular_halo n=64 seed=2", "0x9b2116717b529a8a"),
    ("random_dense n=64 seed=3", "0x8c180104d412a2f8"),
    ("random_dregular n=64 seed=3", "0xbe2b9c2ba2785b28"),
    ("random_nonuniform n=64 seed=3", "0xf34b4360caa81044"),
    ("hotspot n=64 seed=3", "0xcab06e52df274397"),
    ("powerlaw n=64 seed=3", "0xcb805b7732ec4e73"),
    ("irregular_halo n=64 seed=3", "0x5d7cf6dbe998d3d8"),
    ("grid_halo n=64", "0x1f0e1dab238a1e90"),
    ("transpose n=64", "0xf50f9367f6c326c6"),
    ("shift n=64", "0x410c44d29521e351"),
    ("all_to_all n=64", "0xb894ea504a9dbfa8"),
    ("ring_halo n=64", "0x910b0971add84757"),
    ("torus_halo n=64", "0xe976c999c2951734"),
    ("torus_neighborhood n=64", "0xab3222a2cd7fd400"),
    ("bit_reverse n=64", "0x441c8b240322badf"),
    ("bit_complement n=64", "0xf40bbae1377de2f9"),
    ("butterfly_stage n=64", "0x3ed38262fd25910b"),
    ("butterfly_all_stages n=64", "0x904f5684c2daceeb"),
    ("embedded_grid_halo n=64", "0x350284cd43a130bc"),
    ("random_dense n=100 seed=1", "0x60fd7410f6019702"),
    ("random_dregular n=100 seed=1", "0x1554006f4f566621"),
    ("random_nonuniform n=100 seed=1", "0xd21168b76b635174"),
    ("hotspot n=100 seed=1", "0x0b193bd132333f7e"),
    ("powerlaw n=100 seed=1", "0x220cb649aecbf14f"),
    ("irregular_halo n=100 seed=1", "0xd3a2caec90e1d8bf"),
    ("random_dense n=100 seed=2", "0xfca67d8ba2af0182"),
    ("random_dregular n=100 seed=2", "0xe787f5fa27831462"),
    ("random_nonuniform n=100 seed=2", "0x291dfcd36b0b94f4"),
    ("hotspot n=100 seed=2", "0x59339ae94bca23ea"),
    ("powerlaw n=100 seed=2", "0x43d2d8d3b301303c"),
    ("irregular_halo n=100 seed=2", "0x6c41ab437b066779"),
    ("random_dense n=100 seed=3", "0x7ff6b79571d386d5"),
    ("random_dregular n=100 seed=3", "0x9954410224f1dc13"),
    ("random_nonuniform n=100 seed=3", "0x518224ccec21e2c2"),
    ("hotspot n=100 seed=3", "0x0cbc977d346cc22f"),
    ("powerlaw n=100 seed=3", "0xe885203692b6bd08"),
    ("irregular_halo n=100 seed=3", "0xc5fa5c2906e8c26d"),
    ("grid_halo n=100", "0xa341083110061415"),
    ("transpose n=100", "0x0edef3dbcd2091d9"),
    ("shift n=100", "0x6be75f9f4e6625d0"),
    ("all_to_all n=100", "0x094e61c52f87b393"),
    ("ring_halo n=100", "0x7e1da645862b04ed"),
    ("torus_halo n=100", "0x38f416b0b1705150"),
    ("torus_neighborhood n=100", "0xedeb8e293ecffe7f"),
    ("grid_paper d=48 seed=7000", "0xd152f014b9c66723"),
    ("grid_paper d=48 seed=7001", "0x765d2be7016d11b2"),
    ("grid_paper d=48 seed=7002", "0x897522d584618060"),
];

const DELTA_PINS: &[(&str, &str)] = &[
    (
        "random_dense n=16 seed=1 edits=0 diff",
        "0xa42a41e0fc9e0912",
    ),
    ("random_dense n=16 seed=1 edits=0 within", "0,0,0,0,0"),
    (
        "random_dense n=16 seed=1 edits=0 apply",
        "0xb1946e6d1f6d3af2",
    ),
    (
        "random_dense n=16 seed=1 edits=0 apply to target",
        "0xb1946e6d1f6d3af2",
    ),
    (
        "random_dense n=16 seed=1 edits=1 diff",
        "0x84874ffc1141382a",
    ),
    ("random_dense n=16 seed=1 edits=1 within", "-,1,1,1,1"),
    (
        "random_dense n=16 seed=1 edits=1 apply",
        "0x28b2f9ad56d48113",
    ),
    (
        "random_dense n=16 seed=1 edits=1 apply to target",
        "MissingMessage { src: 5, dst: 3 }",
    ),
    (
        "random_dense n=16 seed=1 edits=2 diff",
        "0x2a580e92084e0ed8",
    ),
    ("random_dense n=16 seed=1 edits=2 within", "-,-,2,2,2"),
    (
        "random_dense n=16 seed=1 edits=2 apply",
        "0x5fdb84939a56e499",
    ),
    (
        "random_dense n=16 seed=1 edits=2 apply to target",
        "AddExisting { src: 15, dst: 9 }",
    ),
    (
        "random_dense n=16 seed=1 edits=4 diff",
        "0x8c0557ef3168fe16",
    ),
    ("random_dense n=16 seed=1 edits=4 within", "-,-,-,3,3"),
    (
        "random_dense n=16 seed=1 edits=4 apply",
        "0x1da402c85baf27a4",
    ),
    (
        "random_dense n=16 seed=1 edits=4 apply to target",
        "AddExisting { src: 7, dst: 2 }",
    ),
    (
        "random_dense n=16 seed=1 edits=7 diff",
        "0x6a47d199edf84aa3",
    ),
    ("random_dense n=16 seed=1 edits=7 within", "-,-,-,-,-"),
    (
        "random_dense n=16 seed=1 edits=7 apply",
        "0x0ebf6abb47f65818",
    ),
    (
        "random_dense n=16 seed=1 edits=7 apply to target",
        "AddExisting { src: 11, dst: 5 }",
    ),
    ("powerlaw n=16 seed=1 edits=0 diff", "0xa42a41e0fc9e0912"),
    ("powerlaw n=16 seed=1 edits=0 within", "0,0,0,0,0"),
    ("powerlaw n=16 seed=1 edits=0 apply", "0x2fd3cd32448e486f"),
    (
        "powerlaw n=16 seed=1 edits=0 apply to target",
        "0x2fd3cd32448e486f",
    ),
    ("powerlaw n=16 seed=1 edits=1 diff", "0x9b9d9ea42d70c7df"),
    ("powerlaw n=16 seed=1 edits=1 within", "-,1,1,1,1"),
    ("powerlaw n=16 seed=1 edits=1 apply", "0x68c5ab85dc4a8fe7"),
    (
        "powerlaw n=16 seed=1 edits=1 apply to target",
        "MissingMessage { src: 13, dst: 3 }",
    ),
    ("powerlaw n=16 seed=1 edits=2 diff", "0x8f801529e87fa6c4"),
    ("powerlaw n=16 seed=1 edits=2 within", "-,-,2,2,2"),
    ("powerlaw n=16 seed=1 edits=2 apply", "0x1bf09c7ad34ca78d"),
    (
        "powerlaw n=16 seed=1 edits=2 apply to target",
        "AddExisting { src: 7, dst: 9 }",
    ),
    ("powerlaw n=16 seed=1 edits=4 diff", "0xbaa2d24fb6ba263a"),
    ("powerlaw n=16 seed=1 edits=4 within", "-,-,-,3,3"),
    ("powerlaw n=16 seed=1 edits=4 apply", "0xa3cc39d47d7691a7"),
    (
        "powerlaw n=16 seed=1 edits=4 apply to target",
        "AddExisting { src: 6, dst: 0 }",
    ),
    ("powerlaw n=16 seed=1 edits=7 diff", "0x774093a6456c7bb5"),
    ("powerlaw n=16 seed=1 edits=7 within", "-,-,-,-,-"),
    ("powerlaw n=16 seed=1 edits=7 apply", "0x36e5da2845ed11e2"),
    (
        "powerlaw n=16 seed=1 edits=7 apply to target",
        "AddExisting { src: 0, dst: 8 }",
    ),
    (
        "random_nonuniform n=16 seed=2 edits=0 diff",
        "0xa42a41e0fc9e0912",
    ),
    ("random_nonuniform n=16 seed=2 edits=0 within", "0,0,0,0,0"),
    (
        "random_nonuniform n=16 seed=2 edits=0 apply",
        "0xbfbdec4d42f27af9",
    ),
    (
        "random_nonuniform n=16 seed=2 edits=0 apply to target",
        "0xbfbdec4d42f27af9",
    ),
    (
        "random_nonuniform n=16 seed=2 edits=1 diff",
        "0xaef2c7939207cf94",
    ),
    ("random_nonuniform n=16 seed=2 edits=1 within", "-,1,1,1,1"),
    (
        "random_nonuniform n=16 seed=2 edits=1 apply",
        "0x70c62b5ea8b134c0",
    ),
    (
        "random_nonuniform n=16 seed=2 edits=1 apply to target",
        "MissingMessage { src: 0, dst: 7 }",
    ),
    (
        "random_nonuniform n=16 seed=2 edits=2 diff",
        "0x991b6a89e7081dcc",
    ),
    ("random_nonuniform n=16 seed=2 edits=2 within", "-,-,2,2,2"),
    (
        "random_nonuniform n=16 seed=2 edits=2 apply",
        "0x246ed5952a1b6b47",
    ),
    (
        "random_nonuniform n=16 seed=2 edits=2 apply to target",
        "AddExisting { src: 11, dst: 12 }",
    ),
    (
        "random_nonuniform n=16 seed=2 edits=4 diff",
        "0x83a686ab1fb38e3b",
    ),
    ("random_nonuniform n=16 seed=2 edits=4 within", "-,-,2,2,2"),
    (
        "random_nonuniform n=16 seed=2 edits=4 apply",
        "0x10996387a8605168",
    ),
    (
        "random_nonuniform n=16 seed=2 edits=4 apply to target",
        "MissingMessage { src: 0, dst: 7 }",
    ),
    (
        "random_nonuniform n=16 seed=2 edits=7 diff",
        "0x9acb6f68cb06ac6b",
    ),
    ("random_nonuniform n=16 seed=2 edits=7 within", "-,-,-,-,4"),
    (
        "random_nonuniform n=16 seed=2 edits=7 apply",
        "0x9049b900a3f86d12",
    ),
    (
        "random_nonuniform n=16 seed=2 edits=7 apply to target",
        "AddExisting { src: 12, dst: 8 }",
    ),
    (
        "random_dense n=16 seed=3 edits=0 diff",
        "0xa42a41e0fc9e0912",
    ),
    ("random_dense n=16 seed=3 edits=0 within", "0,0,0,0,0"),
    (
        "random_dense n=16 seed=3 edits=0 apply",
        "0x0bcad53e456c9210",
    ),
    (
        "random_dense n=16 seed=3 edits=0 apply to target",
        "0x0bcad53e456c9210",
    ),
    (
        "random_dense n=16 seed=3 edits=1 diff",
        "0x3e609f1893a0e3ce",
    ),
    ("random_dense n=16 seed=3 edits=1 within", "-,1,1,1,1"),
    (
        "random_dense n=16 seed=3 edits=1 apply",
        "0x9862d4be614787ac",
    ),
    (
        "random_dense n=16 seed=3 edits=1 apply to target",
        "MissingMessage { src: 1, dst: 3 }",
    ),
    (
        "random_dense n=16 seed=3 edits=2 diff",
        "0xf2dae907e8278f10",
    ),
    ("random_dense n=16 seed=3 edits=2 within", "-,-,2,2,2"),
    (
        "random_dense n=16 seed=3 edits=2 apply",
        "0xc15491622100367c",
    ),
    (
        "random_dense n=16 seed=3 edits=2 apply to target",
        "AddExisting { src: 11, dst: 2 }",
    ),
    (
        "random_dense n=16 seed=3 edits=4 diff",
        "0xad84d510dda9d912",
    ),
    ("random_dense n=16 seed=3 edits=4 within", "-,-,2,2,2"),
    (
        "random_dense n=16 seed=3 edits=4 apply",
        "0xadc809af1ec22dd9",
    ),
    (
        "random_dense n=16 seed=3 edits=4 apply to target",
        "MissingMessage { src: 10, dst: 2 }",
    ),
    (
        "random_dense n=16 seed=3 edits=7 diff",
        "0x479f6469bcccb592",
    ),
    ("random_dense n=16 seed=3 edits=7 within", "-,-,-,-,-"),
    (
        "random_dense n=16 seed=3 edits=7 apply",
        "0xd70be7b1a353a395",
    ),
    (
        "random_dense n=16 seed=3 edits=7 apply to target",
        "AddExisting { src: 1, dst: 6 }",
    ),
    ("powerlaw n=16 seed=3 edits=0 diff", "0xa42a41e0fc9e0912"),
    ("powerlaw n=16 seed=3 edits=0 within", "0,0,0,0,0"),
    ("powerlaw n=16 seed=3 edits=0 apply", "0x0e8e318dcb515b52"),
    (
        "powerlaw n=16 seed=3 edits=0 apply to target",
        "0x0e8e318dcb515b52",
    ),
    ("powerlaw n=16 seed=3 edits=1 diff", "0x543a692f0d8592d1"),
    ("powerlaw n=16 seed=3 edits=1 within", "-,1,1,1,1"),
    ("powerlaw n=16 seed=3 edits=1 apply", "0xccde01e0f15c0f07"),
    (
        "powerlaw n=16 seed=3 edits=1 apply to target",
        "MissingMessage { src: 15, dst: 1 }",
    ),
    ("powerlaw n=16 seed=3 edits=2 diff", "0x6088856db8d6703c"),
    ("powerlaw n=16 seed=3 edits=2 within", "-,-,2,2,2"),
    ("powerlaw n=16 seed=3 edits=2 apply", "0xee2e2f4e33221bd2"),
    (
        "powerlaw n=16 seed=3 edits=2 apply to target",
        "AddExisting { src: 0, dst: 9 }",
    ),
    ("powerlaw n=16 seed=3 edits=4 diff", "0x9b053b2667082d0b"),
    ("powerlaw n=16 seed=3 edits=4 within", "-,-,2,2,2"),
    ("powerlaw n=16 seed=3 edits=4 apply", "0x8b9a80a1ae85f290"),
    (
        "powerlaw n=16 seed=3 edits=4 apply to target",
        "MissingMessage { src: 0, dst: 10 }",
    ),
    ("powerlaw n=16 seed=3 edits=7 diff", "0x4c5513de6bf9d085"),
    ("powerlaw n=16 seed=3 edits=7 within", "-,-,-,-,4"),
    ("powerlaw n=16 seed=3 edits=7 apply", "0x50474365aa3ec70f"),
    (
        "powerlaw n=16 seed=3 edits=7 apply to target",
        "AddExisting { src: 12, dst: 7 }",
    ),
    ("shift n=16 edits=0 diff", "0xa42a41e0fc9e0912"),
    ("shift n=16 edits=0 within", "0,0,0,0,0"),
    ("shift n=16 edits=0 apply", "0x3e5edf7ee1389047"),
    ("shift n=16 edits=0 apply to target", "0x3e5edf7ee1389047"),
    ("shift n=16 edits=1 diff", "0xf750bdf9f1e8087b"),
    ("shift n=16 edits=1 within", "-,1,1,1,1"),
    ("shift n=16 edits=1 apply", "0xfebf7df9a35158b7"),
    (
        "shift n=16 edits=1 apply to target",
        "MissingMessage { src: 2, dst: 5 }",
    ),
    ("shift n=16 edits=2 diff", "0xd90152ff5874dc29"),
    ("shift n=16 edits=2 within", "-,-,2,2,2"),
    ("shift n=16 edits=2 apply", "0x236b691db78e8519"),
    (
        "shift n=16 edits=2 apply to target",
        "AddExisting { src: 0, dst: 10 }",
    ),
    ("shift n=16 edits=4 diff", "0x071a2b0d41da1ca5"),
    ("shift n=16 edits=4 within", "-,-,-,3,3"),
    ("shift n=16 edits=4 apply", "0x3dedf1bc0eb86894"),
    (
        "shift n=16 edits=4 apply to target",
        "AddExisting { src: 7, dst: 11 }",
    ),
    ("shift n=16 edits=7 diff", "0x855fa54169ff419d"),
    ("shift n=16 edits=7 within", "-,-,-,3,3"),
    ("shift n=16 edits=7 apply", "0x56c1399223f0aa8e"),
    (
        "shift n=16 edits=7 apply to target",
        "AddExisting { src: 12, dst: 1 }",
    ),
    ("bit_reverse n=16 edits=0 diff", "0xa42a41e0fc9e0912"),
    ("bit_reverse n=16 edits=0 within", "0,0,0,0,0"),
    ("bit_reverse n=16 edits=0 apply", "0xee6da6e140469df7"),
    (
        "bit_reverse n=16 edits=0 apply to target",
        "0xee6da6e140469df7",
    ),
    ("bit_reverse n=16 edits=1 diff", "0xcab0e7c90819be49"),
    ("bit_reverse n=16 edits=1 within", "-,1,1,1,1"),
    ("bit_reverse n=16 edits=1 apply", "0xdcdaa00a1b346572"),
    (
        "bit_reverse n=16 edits=1 apply to target",
        "MissingMessage { src: 11, dst: 13 }",
    ),
    ("bit_reverse n=16 edits=2 diff", "0x1ef30c92b1dfa5a9"),
    ("bit_reverse n=16 edits=2 within", "-,-,2,2,2"),
    ("bit_reverse n=16 edits=2 apply", "0xadb81c2bf159d0ff"),
    (
        "bit_reverse n=16 edits=2 apply to target",
        "AddExisting { src: 9, dst: 2 }",
    ),
    ("bit_reverse n=16 edits=4 diff", "0xbe181306b609c72c"),
    ("bit_reverse n=16 edits=4 within", "-,-,-,3,3"),
    ("bit_reverse n=16 edits=4 apply", "0x22aabdb4d295ecc3"),
    (
        "bit_reverse n=16 edits=4 apply to target",
        "AddExisting { src: 6, dst: 8 }",
    ),
    ("bit_reverse n=16 edits=7 diff", "0x94b06d585c64e506"),
    ("bit_reverse n=16 edits=7 within", "-,-,-,-,-"),
    ("bit_reverse n=16 edits=7 apply", "0x601a6575ab9d30eb"),
    (
        "bit_reverse n=16 edits=7 apply to target",
        "AddExisting { src: 1, dst: 9 }",
    ),
    ("embedded_grid_halo n=16 edits=0 diff", "0xa42a41e0fc9e0912"),
    ("embedded_grid_halo n=16 edits=0 within", "0,0,0,0,0"),
    (
        "embedded_grid_halo n=16 edits=0 apply",
        "0x538d7745e794330a",
    ),
    (
        "embedded_grid_halo n=16 edits=0 apply to target",
        "0x538d7745e794330a",
    ),
    ("embedded_grid_halo n=16 edits=1 diff", "0xf79758ee74f87e3b"),
    ("embedded_grid_halo n=16 edits=1 within", "-,1,1,1,1"),
    (
        "embedded_grid_halo n=16 edits=1 apply",
        "0xcf5c8a389a8ec96f",
    ),
    (
        "embedded_grid_halo n=16 edits=1 apply to target",
        "MissingMessage { src: 14, dst: 6 }",
    ),
    ("embedded_grid_halo n=16 edits=2 diff", "0xf6d1bd67f686dcbe"),
    ("embedded_grid_halo n=16 edits=2 within", "-,1,1,1,1"),
    (
        "embedded_grid_halo n=16 edits=2 apply",
        "0x3f219307daecf4c8",
    ),
    (
        "embedded_grid_halo n=16 edits=2 apply to target",
        "MissingMessage { src: 11, dst: 15 }",
    ),
    ("embedded_grid_halo n=16 edits=4 diff", "0xdf72a252b80554c4"),
    ("embedded_grid_halo n=16 edits=4 within", "-,-,-,3,3"),
    (
        "embedded_grid_halo n=16 edits=4 apply",
        "0xc807209b77f5acba",
    ),
    (
        "embedded_grid_halo n=16 edits=4 apply to target",
        "AddExisting { src: 5, dst: 0 }",
    ),
    ("embedded_grid_halo n=16 edits=7 diff", "0x304c01890131419a"),
    ("embedded_grid_halo n=16 edits=7 within", "-,-,-,-,4"),
    (
        "embedded_grid_halo n=16 edits=7 apply",
        "0xf4f409ae7b902ac0",
    ),
    (
        "embedded_grid_halo n=16 edits=7 apply to target",
        "AddExisting { src: 0, dst: 8 }",
    ),
    ("hotspot n=64 seed=1 edits=0 diff", "0x9862984e392b34ea"),
    ("hotspot n=64 seed=1 edits=0 within", "0,0,0,0,0"),
    ("hotspot n=64 seed=1 edits=0 apply", "0xbd0db220b1d6cd30"),
    (
        "hotspot n=64 seed=1 edits=0 apply to target",
        "0xbd0db220b1d6cd30",
    ),
    ("hotspot n=64 seed=1 edits=1 diff", "0xd76bfccabdc0a05b"),
    ("hotspot n=64 seed=1 edits=1 within", "-,1,1,1,1"),
    ("hotspot n=64 seed=1 edits=1 apply", "0x6f5744c5557fd1e9"),
    (
        "hotspot n=64 seed=1 edits=1 apply to target",
        "MissingMessage { src: 5, dst: 35 }",
    ),
    ("hotspot n=64 seed=1 edits=2 diff", "0x85be898d7ba2f978"),
    ("hotspot n=64 seed=1 edits=2 within", "-,-,2,2,2"),
    ("hotspot n=64 seed=1 edits=2 apply", "0x0cde229d30f2404b"),
    (
        "hotspot n=64 seed=1 edits=2 apply to target",
        "AddExisting { src: 13, dst: 46 }",
    ),
    ("hotspot n=64 seed=1 edits=4 diff", "0x3d43007ba78649c0"),
    ("hotspot n=64 seed=1 edits=4 within", "-,-,-,3,3"),
    ("hotspot n=64 seed=1 edits=4 apply", "0x2b16aa858b849e28"),
    (
        "hotspot n=64 seed=1 edits=4 apply to target",
        "AddExisting { src: 28, dst: 27 }",
    ),
    ("hotspot n=64 seed=1 edits=7 diff", "0xc6e8b9e7c33147e3"),
    ("hotspot n=64 seed=1 edits=7 within", "-,-,-,-,-"),
    ("hotspot n=64 seed=1 edits=7 apply", "0x150db40b46678625"),
    (
        "hotspot n=64 seed=1 edits=7 apply to target",
        "AddExisting { src: 31, dst: 28 }",
    ),
    (
        "random_dregular n=64 seed=2 edits=0 diff",
        "0x9862984e392b34ea",
    ),
    ("random_dregular n=64 seed=2 edits=0 within", "0,0,0,0,0"),
    (
        "random_dregular n=64 seed=2 edits=0 apply",
        "0xee11a003fe2f70ae",
    ),
    (
        "random_dregular n=64 seed=2 edits=0 apply to target",
        "0xee11a003fe2f70ae",
    ),
    (
        "random_dregular n=64 seed=2 edits=1 diff",
        "0x414890e9746a845d",
    ),
    ("random_dregular n=64 seed=2 edits=1 within", "-,1,1,1,1"),
    (
        "random_dregular n=64 seed=2 edits=1 apply",
        "0x2fe9af9561ef3c02",
    ),
    (
        "random_dregular n=64 seed=2 edits=1 apply to target",
        "MissingMessage { src: 59, dst: 45 }",
    ),
    (
        "random_dregular n=64 seed=2 edits=2 diff",
        "0x00ca9195d0c3dda6",
    ),
    ("random_dregular n=64 seed=2 edits=2 within", "-,-,2,2,2"),
    (
        "random_dregular n=64 seed=2 edits=2 apply",
        "0x110e052d753cbb7d",
    ),
    (
        "random_dregular n=64 seed=2 edits=2 apply to target",
        "AddExisting { src: 22, dst: 49 }",
    ),
    (
        "random_dregular n=64 seed=2 edits=4 diff",
        "0x31ac08cb1d9fc8a0",
    ),
    ("random_dregular n=64 seed=2 edits=4 within", "-,-,-,3,3"),
    (
        "random_dregular n=64 seed=2 edits=4 apply",
        "0x3a2627efd7441cf3",
    ),
    (
        "random_dregular n=64 seed=2 edits=4 apply to target",
        "AddExisting { src: 10, dst: 55 }",
    ),
    (
        "random_dregular n=64 seed=2 edits=7 diff",
        "0xda7ff56495af6a2e",
    ),
    ("random_dregular n=64 seed=2 edits=7 within", "-,-,-,-,-"),
    (
        "random_dregular n=64 seed=2 edits=7 apply",
        "0x93d96e905ee99211",
    ),
    (
        "random_dregular n=64 seed=2 edits=7 apply to target",
        "AddExisting { src: 4, dst: 30 }",
    ),
    (
        "irregular_halo n=64 seed=2 edits=0 diff",
        "0x9862984e392b34ea",
    ),
    ("irregular_halo n=64 seed=2 edits=0 within", "0,0,0,0,0"),
    (
        "irregular_halo n=64 seed=2 edits=0 apply",
        "0x50d64935a35189b0",
    ),
    (
        "irregular_halo n=64 seed=2 edits=0 apply to target",
        "0x50d64935a35189b0",
    ),
    (
        "irregular_halo n=64 seed=2 edits=1 diff",
        "0x4b31b3683ad9074a",
    ),
    ("irregular_halo n=64 seed=2 edits=1 within", "-,1,1,1,1"),
    (
        "irregular_halo n=64 seed=2 edits=1 apply",
        "0x1917bcc50398a0e6",
    ),
    (
        "irregular_halo n=64 seed=2 edits=1 apply to target",
        "MissingMessage { src: 10, dst: 18 }",
    ),
    (
        "irregular_halo n=64 seed=2 edits=2 diff",
        "0x9a70a27730c0559d",
    ),
    ("irregular_halo n=64 seed=2 edits=2 within", "-,-,2,2,2"),
    (
        "irregular_halo n=64 seed=2 edits=2 apply",
        "0x32ae561231e87607",
    ),
    (
        "irregular_halo n=64 seed=2 edits=2 apply to target",
        "AddExisting { src: 39, dst: 4 }",
    ),
    (
        "irregular_halo n=64 seed=2 edits=4 diff",
        "0x115bc9ccdcf43729",
    ),
    ("irregular_halo n=64 seed=2 edits=4 within", "-,-,2,2,2"),
    (
        "irregular_halo n=64 seed=2 edits=4 apply",
        "0x1fcb03fe882141c3",
    ),
    (
        "irregular_halo n=64 seed=2 edits=4 apply to target",
        "MissingMessage { src: 6, dst: 59 }",
    ),
    (
        "irregular_halo n=64 seed=2 edits=7 diff",
        "0x2664bd431a215ca6",
    ),
    ("irregular_halo n=64 seed=2 edits=7 within", "-,-,-,-,-"),
    (
        "irregular_halo n=64 seed=2 edits=7 apply",
        "0x164c450fd0a78900",
    ),
    (
        "irregular_halo n=64 seed=2 edits=7 apply to target",
        "AddExisting { src: 19, dst: 22 }",
    ),
    ("hotspot n=64 seed=3 edits=0 diff", "0x9862984e392b34ea"),
    ("hotspot n=64 seed=3 edits=0 within", "0,0,0,0,0"),
    ("hotspot n=64 seed=3 edits=0 apply", "0xb5926e731a754e7a"),
    (
        "hotspot n=64 seed=3 edits=0 apply to target",
        "0xb5926e731a754e7a",
    ),
    ("hotspot n=64 seed=3 edits=1 diff", "0xaddfefa74acff284"),
    ("hotspot n=64 seed=3 edits=1 within", "-,1,1,1,1"),
    ("hotspot n=64 seed=3 edits=1 apply", "0x55a1c27795bf5a59"),
    (
        "hotspot n=64 seed=3 edits=1 apply to target",
        "MissingMessage { src: 39, dst: 47 }",
    ),
    ("hotspot n=64 seed=3 edits=2 diff", "0x9adff508e562f77d"),
    ("hotspot n=64 seed=3 edits=2 within", "-,-,2,2,2"),
    ("hotspot n=64 seed=3 edits=2 apply", "0x11e57a351bcea2ef"),
    (
        "hotspot n=64 seed=3 edits=2 apply to target",
        "AddExisting { src: 28, dst: 34 }",
    ),
    ("hotspot n=64 seed=3 edits=4 diff", "0x438b51fcea5ed948"),
    ("hotspot n=64 seed=3 edits=4 within", "-,-,2,2,2"),
    ("hotspot n=64 seed=3 edits=4 apply", "0x1cc535bd2d7bfabb"),
    (
        "hotspot n=64 seed=3 edits=4 apply to target",
        "MissingMessage { src: 38, dst: 43 }",
    ),
    ("hotspot n=64 seed=3 edits=7 diff", "0x01cbf17d3d173676"),
    ("hotspot n=64 seed=3 edits=7 within", "-,-,-,-,-"),
    ("hotspot n=64 seed=3 edits=7 apply", "0x387ce7e7c3b26fe8"),
    (
        "hotspot n=64 seed=3 edits=7 apply to target",
        "AddExisting { src: 36, dst: 2 }",
    ),
    ("transpose n=64 edits=0 diff", "0x9862984e392b34ea"),
    ("transpose n=64 edits=0 within", "0,0,0,0,0"),
    ("transpose n=64 edits=0 apply", "0x55910110a86e24ef"),
    (
        "transpose n=64 edits=0 apply to target",
        "0x55910110a86e24ef",
    ),
    ("transpose n=64 edits=1 diff", "0x8cb4c3c40b27f0ab"),
    ("transpose n=64 edits=1 within", "-,1,1,1,1"),
    ("transpose n=64 edits=1 apply", "0x6e61192ce0ff6b35"),
    (
        "transpose n=64 edits=1 apply to target",
        "MissingMessage { src: 6, dst: 48 }",
    ),
    ("transpose n=64 edits=2 diff", "0x04ae1a9948fda1b1"),
    ("transpose n=64 edits=2 within", "-,-,2,2,2"),
    ("transpose n=64 edits=2 apply", "0xdaff064394844b44"),
    (
        "transpose n=64 edits=2 apply to target",
        "AddExisting { src: 15, dst: 52 }",
    ),
    ("transpose n=64 edits=4 diff", "0x7cc1067a0fffa9fd"),
    ("transpose n=64 edits=4 within", "-,-,-,3,3"),
    ("transpose n=64 edits=4 apply", "0xdeedfa8cbd9305c8"),
    (
        "transpose n=64 edits=4 apply to target",
        "AddExisting { src: 59, dst: 18 }",
    ),
    ("transpose n=64 edits=7 diff", "0xcb20a461b50ed1e9"),
    ("transpose n=64 edits=7 within", "-,-,-,-,-"),
    ("transpose n=64 edits=7 apply", "0xca3beefd99de6741"),
    (
        "transpose n=64 edits=7 apply to target",
        "AddExisting { src: 32, dst: 2 }",
    ),
    ("torus_neighborhood n=64 edits=0 diff", "0x9862984e392b34ea"),
    ("torus_neighborhood n=64 edits=0 within", "0,0,0,0,0"),
    (
        "torus_neighborhood n=64 edits=0 apply",
        "0xb2019b7b3ff40d0f",
    ),
    (
        "torus_neighborhood n=64 edits=0 apply to target",
        "0xb2019b7b3ff40d0f",
    ),
    ("torus_neighborhood n=64 edits=1 diff", "0xadbfa0067aafee02"),
    ("torus_neighborhood n=64 edits=1 within", "-,1,1,1,1"),
    (
        "torus_neighborhood n=64 edits=1 apply",
        "0x41d76eb7ba6f581b",
    ),
    (
        "torus_neighborhood n=64 edits=1 apply to target",
        "MissingMessage { src: 27, dst: 59 }",
    ),
    ("torus_neighborhood n=64 edits=2 diff", "0x65cc2db834c38015"),
    ("torus_neighborhood n=64 edits=2 within", "-,-,2,2,2"),
    (
        "torus_neighborhood n=64 edits=2 apply",
        "0xf66009b55df7b0e3",
    ),
    (
        "torus_neighborhood n=64 edits=2 apply to target",
        "AddExisting { src: 17, dst: 53 }",
    ),
    ("torus_neighborhood n=64 edits=4 diff", "0x08dd6ed11fc3d10c"),
    ("torus_neighborhood n=64 edits=4 within", "-,-,-,3,3"),
    (
        "torus_neighborhood n=64 edits=4 apply",
        "0x2121bcfcf3ffdc72",
    ),
    (
        "torus_neighborhood n=64 edits=4 apply to target",
        "AddExisting { src: 63, dst: 1 }",
    ),
    ("torus_neighborhood n=64 edits=7 diff", "0x50f7d1f326664f8f"),
    ("torus_neighborhood n=64 edits=7 within", "-,-,-,-,4"),
    (
        "torus_neighborhood n=64 edits=7 apply",
        "0x1cb82834868ff017",
    ),
    (
        "torus_neighborhood n=64 edits=7 apply to target",
        "AddExisting { src: 51, dst: 41 }",
    ),
    (
        "butterfly_all_stages n=64 edits=0 diff",
        "0x9862984e392b34ea",
    ),
    ("butterfly_all_stages n=64 edits=0 within", "0,0,0,0,0"),
    (
        "butterfly_all_stages n=64 edits=0 apply",
        "0x08bd8412605f173d",
    ),
    (
        "butterfly_all_stages n=64 edits=0 apply to target",
        "0x08bd8412605f173d",
    ),
    (
        "butterfly_all_stages n=64 edits=1 diff",
        "0x20d13203c8018d15",
    ),
    ("butterfly_all_stages n=64 edits=1 within", "-,1,1,1,1"),
    (
        "butterfly_all_stages n=64 edits=1 apply",
        "0xb4dc611889a07a9d",
    ),
    (
        "butterfly_all_stages n=64 edits=1 apply to target",
        "MissingMessage { src: 8, dst: 10 }",
    ),
    (
        "butterfly_all_stages n=64 edits=2 diff",
        "0x6532611b69f0e403",
    ),
    ("butterfly_all_stages n=64 edits=2 within", "-,-,2,2,2"),
    (
        "butterfly_all_stages n=64 edits=2 apply",
        "0x2ab2c2d24036812a",
    ),
    (
        "butterfly_all_stages n=64 edits=2 apply to target",
        "AddExisting { src: 11, dst: 34 }",
    ),
    (
        "butterfly_all_stages n=64 edits=4 diff",
        "0x637b356f9873c61a",
    ),
    ("butterfly_all_stages n=64 edits=4 within", "-,-,2,2,2"),
    (
        "butterfly_all_stages n=64 edits=4 apply",
        "0x2138d1517b402956",
    ),
    (
        "butterfly_all_stages n=64 edits=4 apply to target",
        "MissingMessage { src: 27, dst: 59 }",
    ),
    (
        "butterfly_all_stages n=64 edits=7 diff",
        "0x0d4a2c6211fb456c",
    ),
    ("butterfly_all_stages n=64 edits=7 within", "-,-,-,-,-"),
    (
        "butterfly_all_stages n=64 edits=7 apply",
        "0xa8bf8605b199d389",
    ),
    (
        "butterfly_all_stages n=64 edits=7 apply to target",
        "AddExisting { src: 12, dst: 60 }",
    ),
    (
        "random_nonuniform n=100 seed=1 edits=0 diff",
        "0xf14ede70b6ba3c0e",
    ),
    ("random_nonuniform n=100 seed=1 edits=0 within", "0,0,0,0,0"),
    (
        "random_nonuniform n=100 seed=1 edits=0 apply",
        "0x95b6857fe985082f",
    ),
    (
        "random_nonuniform n=100 seed=1 edits=0 apply to target",
        "0x95b6857fe985082f",
    ),
    (
        "random_nonuniform n=100 seed=1 edits=1 diff",
        "0x72177913a9bdfe9f",
    ),
    ("random_nonuniform n=100 seed=1 edits=1 within", "-,1,1,1,1"),
    (
        "random_nonuniform n=100 seed=1 edits=1 apply",
        "0x4dc285798be844f9",
    ),
    (
        "random_nonuniform n=100 seed=1 edits=1 apply to target",
        "MissingMessage { src: 68, dst: 10 }",
    ),
    (
        "random_nonuniform n=100 seed=1 edits=2 diff",
        "0x52a47a93fc86c37f",
    ),
    ("random_nonuniform n=100 seed=1 edits=2 within", "-,-,2,2,2"),
    (
        "random_nonuniform n=100 seed=1 edits=2 apply",
        "0x24c21f54c23f20d3",
    ),
    (
        "random_nonuniform n=100 seed=1 edits=2 apply to target",
        "AddExisting { src: 43, dst: 77 }",
    ),
    (
        "random_nonuniform n=100 seed=1 edits=4 diff",
        "0x31eaccf2f995e8fc",
    ),
    ("random_nonuniform n=100 seed=1 edits=4 within", "-,-,-,3,3"),
    (
        "random_nonuniform n=100 seed=1 edits=4 apply",
        "0xef42f71daf1f4771",
    ),
    (
        "random_nonuniform n=100 seed=1 edits=4 apply to target",
        "AddExisting { src: 53, dst: 73 }",
    ),
    (
        "random_nonuniform n=100 seed=1 edits=7 diff",
        "0xac947043ee3a4edb",
    ),
    ("random_nonuniform n=100 seed=1 edits=7 within", "-,-,-,-,-"),
    (
        "random_nonuniform n=100 seed=1 edits=7 apply",
        "0x0bc7ca852cd41bdf",
    ),
    (
        "random_nonuniform n=100 seed=1 edits=7 apply to target",
        "AddExisting { src: 12, dst: 28 }",
    ),
    (
        "random_dense n=100 seed=2 edits=0 diff",
        "0xf14ede70b6ba3c0e",
    ),
    ("random_dense n=100 seed=2 edits=0 within", "0,0,0,0,0"),
    (
        "random_dense n=100 seed=2 edits=0 apply",
        "0x8d848f0f7faf6470",
    ),
    (
        "random_dense n=100 seed=2 edits=0 apply to target",
        "0x8d848f0f7faf6470",
    ),
    (
        "random_dense n=100 seed=2 edits=1 diff",
        "0xce0aef2a54f25396",
    ),
    ("random_dense n=100 seed=2 edits=1 within", "-,1,1,1,1"),
    (
        "random_dense n=100 seed=2 edits=1 apply",
        "0xe6c9aafa9a98889a",
    ),
    (
        "random_dense n=100 seed=2 edits=1 apply to target",
        "MissingMessage { src: 96, dst: 84 }",
    ),
    (
        "random_dense n=100 seed=2 edits=2 diff",
        "0xf998e82c14a1108d",
    ),
    ("random_dense n=100 seed=2 edits=2 within", "-,-,2,2,2"),
    (
        "random_dense n=100 seed=2 edits=2 apply",
        "0x23c23d6ed3fdb16b",
    ),
    (
        "random_dense n=100 seed=2 edits=2 apply to target",
        "AddExisting { src: 52, dst: 86 }",
    ),
    (
        "random_dense n=100 seed=2 edits=4 diff",
        "0x2515f83e4d0b326c",
    ),
    ("random_dense n=100 seed=2 edits=4 within", "-,-,-,3,3"),
    (
        "random_dense n=100 seed=2 edits=4 apply",
        "0x1202e8ab2b7d4bd6",
    ),
    (
        "random_dense n=100 seed=2 edits=4 apply to target",
        "AddExisting { src: 79, dst: 61 }",
    ),
    (
        "random_dense n=100 seed=2 edits=7 diff",
        "0x099ca331c22f9a12",
    ),
    ("random_dense n=100 seed=2 edits=7 within", "-,-,-,-,-"),
    (
        "random_dense n=100 seed=2 edits=7 apply",
        "0x785663c3a5f8d5ed",
    ),
    (
        "random_dense n=100 seed=2 edits=7 apply to target",
        "AddExisting { src: 3, dst: 19 }",
    ),
    ("powerlaw n=100 seed=2 edits=0 diff", "0xf14ede70b6ba3c0e"),
    ("powerlaw n=100 seed=2 edits=0 within", "0,0,0,0,0"),
    ("powerlaw n=100 seed=2 edits=0 apply", "0xdb4ad957c3a7ecc5"),
    (
        "powerlaw n=100 seed=2 edits=0 apply to target",
        "0xdb4ad957c3a7ecc5",
    ),
    ("powerlaw n=100 seed=2 edits=1 diff", "0x367abbdde19d600f"),
    ("powerlaw n=100 seed=2 edits=1 within", "-,1,1,1,1"),
    ("powerlaw n=100 seed=2 edits=1 apply", "0x1826227d3d3245ab"),
    (
        "powerlaw n=100 seed=2 edits=1 apply to target",
        "MissingMessage { src: 83, dst: 8 }",
    ),
    ("powerlaw n=100 seed=2 edits=2 diff", "0x5ca064c95dbfc410"),
    ("powerlaw n=100 seed=2 edits=2 within", "-,-,2,2,2"),
    ("powerlaw n=100 seed=2 edits=2 apply", "0x0117b1ccdef17fa9"),
    (
        "powerlaw n=100 seed=2 edits=2 apply to target",
        "AddExisting { src: 20, dst: 97 }",
    ),
    ("powerlaw n=100 seed=2 edits=4 diff", "0x81993fe128b3efc2"),
    ("powerlaw n=100 seed=2 edits=4 within", "-,-,-,3,3"),
    ("powerlaw n=100 seed=2 edits=4 apply", "0x874c37ad698dd9f5"),
    (
        "powerlaw n=100 seed=2 edits=4 apply to target",
        "AddExisting { src: 39, dst: 24 }",
    ),
    ("powerlaw n=100 seed=2 edits=7 diff", "0xc104a5db65f71814"),
    ("powerlaw n=100 seed=2 edits=7 within", "-,-,-,-,-"),
    ("powerlaw n=100 seed=2 edits=7 apply", "0x6f0ad6da6a505bc5"),
    (
        "powerlaw n=100 seed=2 edits=7 apply to target",
        "AddExisting { src: 0, dst: 84 }",
    ),
    (
        "random_nonuniform n=100 seed=3 edits=0 diff",
        "0xf14ede70b6ba3c0e",
    ),
    ("random_nonuniform n=100 seed=3 edits=0 within", "0,0,0,0,0"),
    (
        "random_nonuniform n=100 seed=3 edits=0 apply",
        "0x3fe44d56e5d98357",
    ),
    (
        "random_nonuniform n=100 seed=3 edits=0 apply to target",
        "0x3fe44d56e5d98357",
    ),
    (
        "random_nonuniform n=100 seed=3 edits=1 diff",
        "0x5566c8eae0d12eac",
    ),
    ("random_nonuniform n=100 seed=3 edits=1 within", "-,1,1,1,1"),
    (
        "random_nonuniform n=100 seed=3 edits=1 apply",
        "0xc12036c1036bc966",
    ),
    (
        "random_nonuniform n=100 seed=3 edits=1 apply to target",
        "MissingMessage { src: 40, dst: 45 }",
    ),
    (
        "random_nonuniform n=100 seed=3 edits=2 diff",
        "0x15b140eab8e13732",
    ),
    ("random_nonuniform n=100 seed=3 edits=2 within", "-,-,2,2,2"),
    (
        "random_nonuniform n=100 seed=3 edits=2 apply",
        "0x59eea5b6833e4f76",
    ),
    (
        "random_nonuniform n=100 seed=3 edits=2 apply to target",
        "AddExisting { src: 32, dst: 47 }",
    ),
    (
        "random_nonuniform n=100 seed=3 edits=4 diff",
        "0xbb1633b94943ccc2",
    ),
    ("random_nonuniform n=100 seed=3 edits=4 within", "-,-,-,3,3"),
    (
        "random_nonuniform n=100 seed=3 edits=4 apply",
        "0x1fb3cf83efba1c2b",
    ),
    (
        "random_nonuniform n=100 seed=3 edits=4 apply to target",
        "AddExisting { src: 85, dst: 26 }",
    ),
    (
        "random_nonuniform n=100 seed=3 edits=7 diff",
        "0x56f8454dd5025b5a",
    ),
    ("random_nonuniform n=100 seed=3 edits=7 within", "-,-,-,-,4"),
    (
        "random_nonuniform n=100 seed=3 edits=7 apply",
        "0x221a2d65c3dc2a28",
    ),
    (
        "random_nonuniform n=100 seed=3 edits=7 apply to target",
        "AddExisting { src: 40, dst: 82 }",
    ),
    ("grid_halo n=100 edits=0 diff", "0xf14ede70b6ba3c0e"),
    ("grid_halo n=100 edits=0 within", "0,0,0,0,0"),
    ("grid_halo n=100 edits=0 apply", "0x5c55a8c1f94122bb"),
    (
        "grid_halo n=100 edits=0 apply to target",
        "0x5c55a8c1f94122bb",
    ),
    ("grid_halo n=100 edits=1 diff", "0xd9207d555407c436"),
    ("grid_halo n=100 edits=1 within", "-,1,1,1,1"),
    ("grid_halo n=100 edits=1 apply", "0x5d1fe9a58fc82cb5"),
    (
        "grid_halo n=100 edits=1 apply to target",
        "MissingMessage { src: 67, dst: 77 }",
    ),
    ("grid_halo n=100 edits=2 diff", "0x514904428f24239c"),
    ("grid_halo n=100 edits=2 within", "-,-,2,2,2"),
    ("grid_halo n=100 edits=2 apply", "0x8337d2dc54173a88"),
    (
        "grid_halo n=100 edits=2 apply to target",
        "AddExisting { src: 55, dst: 86 }",
    ),
    ("grid_halo n=100 edits=4 diff", "0x910f24763b0385de"),
    ("grid_halo n=100 edits=4 within", "-,-,-,3,3"),
    ("grid_halo n=100 edits=4 apply", "0x00c95ad1cc666968"),
    (
        "grid_halo n=100 edits=4 apply to target",
        "AddExisting { src: 70, dst: 96 }",
    ),
    ("grid_halo n=100 edits=7 diff", "0xe93a948131a9f505"),
    ("grid_halo n=100 edits=7 within", "-,-,-,-,-"),
    ("grid_halo n=100 edits=7 apply", "0xb2af7a4987358bd4"),
    (
        "grid_halo n=100 edits=7 apply to target",
        "AddExisting { src: 58, dst: 19 }",
    ),
    ("torus_halo n=100 edits=0 diff", "0xf14ede70b6ba3c0e"),
    ("torus_halo n=100 edits=0 within", "0,0,0,0,0"),
    ("torus_halo n=100 edits=0 apply", "0x58589333e4c9a996"),
    (
        "torus_halo n=100 edits=0 apply to target",
        "0x58589333e4c9a996",
    ),
    ("torus_halo n=100 edits=1 diff", "0xfc76cfda5fcaef58"),
    ("torus_halo n=100 edits=1 within", "-,1,1,1,1"),
    ("torus_halo n=100 edits=1 apply", "0x915f1f9907aeb66f"),
    (
        "torus_halo n=100 edits=1 apply to target",
        "MissingMessage { src: 32, dst: 31 }",
    ),
    ("torus_halo n=100 edits=2 diff", "0xd0a8fcda8c11b014"),
    ("torus_halo n=100 edits=2 within", "-,-,2,2,2"),
    ("torus_halo n=100 edits=2 apply", "0x5656305f5b0d57f2"),
    (
        "torus_halo n=100 edits=2 apply to target",
        "AddExisting { src: 36, dst: 53 }",
    ),
    ("torus_halo n=100 edits=4 diff", "0xfe434e2fa11df6d4"),
    ("torus_halo n=100 edits=4 within", "-,-,-,3,3"),
    ("torus_halo n=100 edits=4 apply", "0x62aa1ce1f7618baa"),
    (
        "torus_halo n=100 edits=4 apply to target",
        "AddExisting { src: 53, dst: 77 }",
    ),
    ("torus_halo n=100 edits=7 diff", "0xdf40db4413d337fb"),
    ("torus_halo n=100 edits=7 within", "-,-,-,-,-"),
    ("torus_halo n=100 edits=7 apply", "0x3ea24e6c3c9da2e8"),
    (
        "torus_halo n=100 edits=7 apply to target",
        "AddExisting { src: 25, dst: 57 }",
    ),
    (
        "grid_paper d=48 seed=7002 edits=0 diff",
        "0x9862984e392b34ea",
    ),
    ("grid_paper d=48 seed=7002 edits=0 within", "0,0,0,0,0"),
    (
        "grid_paper d=48 seed=7002 edits=0 apply",
        "0xc0f4281801007a10",
    ),
    (
        "grid_paper d=48 seed=7002 edits=0 apply to target",
        "0xc0f4281801007a10",
    ),
    (
        "grid_paper d=48 seed=7002 edits=1 diff",
        "0xc408fefa79636476",
    ),
    ("grid_paper d=48 seed=7002 edits=1 within", "-,1,1,1,1"),
    (
        "grid_paper d=48 seed=7002 edits=1 apply",
        "0x660ab8327ae94092",
    ),
    (
        "grid_paper d=48 seed=7002 edits=1 apply to target",
        "MissingMessage { src: 14, dst: 31 }",
    ),
    (
        "grid_paper d=48 seed=7002 edits=2 diff",
        "0x7de5e0d7ed874947",
    ),
    ("grid_paper d=48 seed=7002 edits=2 within", "-,1,1,1,1"),
    (
        "grid_paper d=48 seed=7002 edits=2 apply",
        "0xadd93f4c9ed296af",
    ),
    (
        "grid_paper d=48 seed=7002 edits=2 apply to target",
        "MissingMessage { src: 46, dst: 39 }",
    ),
    (
        "grid_paper d=48 seed=7002 edits=4 diff",
        "0xb0b667dafb00359b",
    ),
    ("grid_paper d=48 seed=7002 edits=4 within", "-,-,-,3,3"),
    (
        "grid_paper d=48 seed=7002 edits=4 apply",
        "0x3ad3197aa9ce3970",
    ),
    (
        "grid_paper d=48 seed=7002 edits=4 apply to target",
        "AddExisting { src: 53, dst: 21 }",
    ),
    (
        "grid_paper d=48 seed=7002 edits=7 diff",
        "0x114247648501bb64",
    ),
    ("grid_paper d=48 seed=7002 edits=7 within", "-,-,-,-,4"),
    (
        "grid_paper d=48 seed=7002 edits=7 apply",
        "0xd9257fc0da8b4f9b",
    ),
    (
        "grid_paper d=48 seed=7002 edits=7 apply to target",
        "AddExisting { src: 8, dst: 59 }",
    ),
    ("hand add existing", "AddExisting { src: 0, dst: 1 }"),
    ("hand remove absent", "MissingMessage { src: 0, dst: 3 }"),
    ("hand resize absent", "MissingMessage { src: 0, dst: 3 }"),
    (
        "hand resize then add existing",
        "AddExisting { src: 0, dst: 1 }",
    ),
    ("hand unsorted edits", "0xa77beebfef53ca6c"),
    ("hand wrong size", "WrongSize { delta: 17, matrix: 16 }"),
    (
        "from_parts out of range",
        "Some(OutOfRange { src: 0, dst: 16, n: 16 })",
    ),
    ("from_parts self", "Some(SelfMessage { node: 2 })"),
    ("from_parts zero", "Some(ZeroBytes { src: 1, dst: 2 })"),
    (
        "from_parts duplicate cell",
        "Some(DuplicateCell { src: 1, dst: 2 })",
    ),
];

const DECODE_PINS: &[(&str, &str)] = &[
    (
        "duplicate before out-of-range",
        "Invalid(\"duplicate message 0 -> 1\")",
    ),
    (
        "out-of-range before duplicate",
        "Invalid(\"message endpoint 99 out of 16 nodes\")",
    ),
    (
        "out-of-range source before duplicate",
        "Invalid(\"message endpoint 40 out of 16 nodes\")",
    ),
    (
        "two duplicates, the later row first",
        "Invalid(\"duplicate message 5 -> 6\")",
    ),
    (
        "two duplicates, the earlier row first",
        "Invalid(\"duplicate message 0 -> 1\")",
    ),
    (
        "one cell three times",
        "Invalid(\"duplicate message 7 -> 2\")",
    ),
    (
        "zero bytes after a duplicate",
        "Invalid(\"duplicate message 9 -> 8\")",
    ),
    (
        "zero bytes before a duplicate",
        "Invalid(\"zero-byte message 2 -> 3\")",
    ),
    (
        "self-message after a duplicate",
        "Invalid(\"duplicate message 12 -> 1\")",
    ),
    (
        "self-message before a zero-byte one",
        "Invalid(\"self-message at node 6\")",
    ),
    ("a valid body out of row-major order", "0x08825056e3e06cbb"),
    ("a valid body in row-major order", "0x84b8fc45279f9926"),
];
