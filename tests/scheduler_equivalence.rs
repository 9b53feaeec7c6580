//! Byte-for-byte pins of what every registry entry compiles: each
//! phase's pairs, `Schedule::ops()` and `compress_ops()`, plus the
//! `CompressedMatrix` both RS families start from (its live rows, width
//! and `ops()`), on every fabric family at the sizes where a row or the
//! matrix walk changes shape.
//!
//! `route_once_equivalence.rs` pins the RS_NL family on six 16–64-node
//! fabrics; nothing there pins GREEDY, RS_N or LP on skewed, degenerate
//! or non-power-of-64 inputs. These digests were recorded on the code
//! that read `COM` through `out_degree`, `in_degree`, `density()`, row
//! scans and `get` probes, and a scheduler that reads it any other way
//! must reproduce them. The battery per size: d-regular and expected-d
//! ("dense") traffic at a light and a heavy density, a hot spot, a
//! power law, the empty matrix, one message and one full row, each under
//! three seeds.
//!
//! Digested with `commcache::checksum64` (a stability contract), not
//! `DefaultHasher` (not one).

use commcache::checksum64;
use commsched::nonuniform::rs_n_largest_first;
use commsched::{registry, CommMatrix, CompressedMatrix, Schedule};
use topo::TopologyKind;
use workloads::irregular::{hotspot, powerlaw};

const SEEDS: [u64; 3] = [1, 3, 7];

fn put(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Every phase's pairs (in the permutation's own order), then the two
/// operation counts.
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

fn put_compressed(buf: &mut Vec<u8>, c: &CompressedMatrix) {
    put(buf, c.width() as u64);
    for i in 0..c.n() {
        put(buf, c.remaining(i) as u64);
        for &y in c.live_row(i) {
            put(buf, y as u64);
        }
    }
    put(buf, c.ops());
}

/// The battery on `n` nodes for one seed.
fn battery(n: usize, seed: u64) -> Vec<CommMatrix> {
    let mut coms = vec![CommMatrix::new(n)];
    if n < 2 {
        return coms;
    }
    for d in [4.min(n - 1), 32.min(n - 1)] {
        coms.push(workloads::random_dregular(n, d, 1024, seed));
        coms.push(workloads::random_dense(n, d, 1024, seed));
    }
    let spots = 2.min(n - 1);
    coms.push(hotspot(n, spots, 3.min(n - 1 - spots), 256, seed));
    coms.push(powerlaw(n, (n / 4).max(1), 1.0, 512, seed));
    let mut lone = CommMatrix::new(n);
    lone.set(n - 1, 0, 4096);
    coms.push(lone);
    let mut full_row = CommMatrix::new(n);
    for j in (0..n).filter(|&j| j != n / 2) {
        full_row.set(n / 2, j, 64 + j as u32);
    }
    coms.push(full_row);
    coms
}

/// Every registry entry that accepts `fabric`, and the seeded compression,
/// over the battery under every seed, in that order.
fn digest(fabric: &str) -> u64 {
    let topo = TopologyKind::parse(fabric).unwrap().build();
    let mut buf = Vec::new();
    for seed in SEEDS {
        for com in battery(topo.num_nodes(), seed) {
            put_compressed(&mut buf, &CompressedMatrix::compress(&com, seed));
            for entry in registry::all() {
                if entry.supports_topology(&*topo) {
                    put_schedule(&mut buf, &entry.schedule(&com, &*topo, seed));
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
    assert!(moved.is_empty(), "schedules moved:\n{}", moved.join("\n"));
}

/// n ∈ {1, 2, 8, 63, 65}: a 1-node mesh, every family at 2 nodes, and
/// rows one cell short of and one cell past a 64-cell chunk.
#[test]
fn small_and_odd_sizes_are_pinned() {
    assert_pinned(&[
        ("mesh:1x1", 0x9e60_026d_2d77_97bd),
        ("cube:d=1", 0x6f4d_1882_8353_a2a3),
        ("mesh:1x2", 0xc2de_d8b7_692e_6118),
        ("torus:2", 0xc2de_d8b7_692e_6118),
        ("fattree:k=2", 0x2d09_ebee_6482_9fc4),
        ("cube:d=3", 0x57ec_1e84_1966_a907),
        ("mesh:2x4", 0x3409_8e70_9df6_b5c1),
        ("torus:2x4", 0x2ba4_882f_1095_bda0),
        ("mesh:7x9", 0x8a1d_6784_53ee_6dde),
        ("torus:7x9", 0x5dd0_22eb_3bc8_297b),
        ("mesh:5x13", 0xe574_4d1d_acfa_4f06),
        ("torus:5x13", 0x679f_3358_0dc2_e6dc),
    ]);
}

/// n ∈ {16, 64, 100, 128}: the paper's machine on every family, and the
/// two 100-node fabrics.
#[test]
fn paper_sizes_are_pinned() {
    assert_pinned(&[
        ("cube:d=6", 0xbd71_e2d0_c06b_f0ac),
        ("torus:8x8", 0x66c3_827e_5b58_3d2a),
        ("torus:4x4x4", 0x14ad_4d21_0c1c_8ab5),
        ("mesh:8x8", 0x2fde_880c_8ab0_6371),
        ("fattree:k=4", 0xf84c_0c14_03cb_2c47),
        ("fattree:k=8", 0xd4b2_0b25_39f3_59e5),
        ("mesh:10x10", 0x6f56_6cd9_eb10_e459),
        ("torus:10x10", 0x1719_486a_7cd6_3317),
    ]);
}

#[test]
fn n256_is_pinned() {
    assert_pinned(&[
        ("cube:d=8", 0x035f_a39b_b91e_4d87),
        ("torus:16x16", 0x2e65_d450_2c01_b856),
        ("mesh:16x16", 0x5aa2_018c_687f_d86d),
    ]);
}

/// The largest-first scheduler is no registry entry, so the digests
/// above miss it: its phases and op counts over the battery under every
/// seed, per size.
#[test]
fn largest_first_is_pinned() {
    let pins: [(usize, u64); 3] = [
        (8, 0x55f2_9358_f738_3e10),
        (64, 0x9477_0eaa_8fb0_6989),
        (65, 0x6c5d_280e_bf6b_279a),
    ];
    let moved: Vec<String> = pins
        .iter()
        .map(|&(n, pinned)| {
            let mut buf = Vec::new();
            for seed in SEEDS {
                for com in battery(n, seed) {
                    put_schedule(&mut buf, &rs_n_largest_first(&com, seed));
                }
            }
            (n, checksum64(&buf), pinned)
        })
        .filter(|(_, got, pinned)| got != pinned)
        .map(|(n, got, p)| format!("({n}, {got:#018x}), // pinned {p:#018x}"))
        .collect();
    assert!(moved.is_empty(), "schedules moved:\n{}", moved.join("\n"));
}

/// `density()` is one `messages()` walk; this is the definition it
/// replaced — a scan of every row and a strided scan of every column.
#[test]
fn density_matches_row_and_column_scans() {
    for n in [1, 2, 8, 63, 64, 65, 100, 256, 1024] {
        for seed in SEEDS {
            for com in battery(n, seed) {
                let scanned = (0..n)
                    .map(|i| com.out_degree(i).max(com.in_degree(i)))
                    .max()
                    .unwrap_or(0);
                assert_eq!(com.density(), scanned, "n = {n}, seed {seed}");
            }
        }
    }
}

/// n = 1024, one test per fabric so the three run side by side.
#[test]
fn n1024_cube_is_pinned() {
    assert_pinned(&[("cube:d=10", 0x1890_873f_ea3d_960d)]);
}

#[test]
fn n1024_torus_is_pinned() {
    assert_pinned(&[("torus:32x32", 0x2f47_aa83_0dbc_c84a)]);
}

#[test]
fn n1024_fattree_is_pinned() {
    assert_pinned(&[("fattree:k=16", 0xcb44_fb00_d636_6720)]);
}
