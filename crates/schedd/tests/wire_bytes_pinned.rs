//! The bytes of `Submit` and `SubmitDelta` bodies, pinned: a change to how
//! the encoder walks the matrix must leave every digest below untouched.
//!
//! Each row is one matrix shape at one size. Its `submit` digest is
//! [`checksum64`] over the uniform-cost body followed by the `loggp` body
//! of a full submit; `delta` is the same for a `SubmitDelta` that edits
//! the matrix (resize to 1, resize to `u32::MAX`, one removal, one
//! addition — whichever the shape leaves room for). The delta's `base`
//! key is a fixed byte string, not a computed [`InstanceKey`], so the
//! digests depend on the wire layout alone and not on the key layout.
//!
//! The size table only names cubes and meshes; a second table pins the
//! same two digests on two tori, a fat-tree and the 1×1 mesh, so each of
//! the four topology kind bytes sits in front of a pinned body.

use commcache::{checksum64, InstanceKey};
use commrt::BackendKind;
use commsched::{CommMatrix, MatrixDelta};
use schedd::{
    LinkCostModel, Request, SchemeChoice, SubmitDeltaRequest, SubmitRequest, TopologySpec,
};
use workloads::irregular::hotspot;
use workloads::{random_dense, random_dregular};

const SHAPES: [&str; 5] = ["dregular", "dense", "hotspot", "empty", "full"];

fn topology(n: usize) -> TopologySpec {
    match n {
        1 => TopologySpec::Mesh2d { rows: 1, cols: 1 },
        8 => TopologySpec::Hypercube { dims: 3 },
        63 => TopologySpec::Mesh2d { rows: 7, cols: 9 },
        64 => TopologySpec::Hypercube { dims: 6 },
        65 => TopologySpec::Mesh2d { rows: 5, cols: 13 },
        100 => TopologySpec::Mesh2d { rows: 10, cols: 10 },
        256 => TopologySpec::Hypercube { dims: 8 },
        other => panic!("no topology chosen for {other} nodes"),
    }
}

/// The matrix of one row. Generated shapes carry 1 KiB messages except
/// the first (1 byte) and the last (`u32::MAX` bytes) in row-major order.
fn matrix(shape: &str, n: usize) -> CommMatrix {
    let d = 8.min(n / 2);
    let mut com = match shape {
        "dregular" => random_dregular(n, d, 1024, n as u64),
        "dense" => random_dense(n, n / 2, 1024, n as u64),
        "hotspot" => hotspot(n, 2, d.saturating_sub(3), 1024, n as u64),
        "empty" => return CommMatrix::new(n),
        "full" => {
            let mut com = CommMatrix::new(n);
            for i in 0..n {
                for j in (0..n).filter(|&j| j != i) {
                    com.set(i, j, ((i * 31 + j * 17) % 1000 + 2) as u32);
                }
            }
            com
        }
        other => panic!("unknown shape {other}"),
    };
    let cells: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .filter(|&(i, j)| com.get(i, j) > 0)
        .collect();
    if let (Some(&(i, j)), Some(&(k, l))) = (cells.first(), cells.last()) {
        com.set(k, l, u32::MAX);
        com.set(i, j, 1);
    }
    com
}

/// `base` after a drift step: the second message resized to 1, the
/// second-to-last to `u32::MAX`, the middle one removed, and the last
/// empty off-diagonal cell filled.
fn drifted(base: &CommMatrix) -> CommMatrix {
    let n = base.n();
    let cells: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .filter(|&(i, j)| i != j)
        .collect();
    let (set, empty): (Vec<_>, Vec<_>) = cells.iter().partition(|&&(i, j)| base.get(i, j) > 0);
    let mut target = base.clone();
    if set.len() >= 5 {
        let (i, j) = set[1];
        target.set(i, j, 1);
        let (i, j) = set[set.len() - 2];
        target.set(i, j, u32::MAX);
        let (i, j) = set[set.len() / 2];
        target.set(i, j, 0);
    }
    if let Some(&(i, j)) = empty.last() {
        target.set(i, j, 4096);
    }
    target
}

fn costs() -> [LinkCostModel; 2] {
    [
        LinkCostModel::Uniform,
        "loggp:o=75000,g=10000,G=1.5".parse().unwrap(),
    ]
}

fn submit_digest(topology: &TopologySpec, matrix: &CommMatrix) -> u64 {
    let mut bodies = Vec::new();
    for cost_model in costs() {
        bodies.extend(
            Request::Submit(SubmitRequest {
                request_id: 0x0102_0304_0506_0708,
                want_schedule: true,
                topology: topology.clone(),
                scheduler: "RS_NL".into(),
                scheme: SchemeChoice::Default,
                backend: BackendKind::Analytic,
                seed: 7,
                matrix: matrix.clone(),
                cost_model,
            })
            .encode(),
        );
    }
    checksum64(&bodies)
}

fn delta_digest(topology: &TopologySpec, matrix: &CommMatrix) -> u64 {
    let delta = MatrixDelta::diff(matrix, &drifted(matrix)).unwrap();
    let mut bodies = Vec::new();
    for cost_model in costs() {
        bodies.extend(
            Request::SubmitDelta(SubmitDeltaRequest {
                request_id: 0x1112_1314_1516_1718,
                want_schedule: false,
                topology: topology.clone(),
                scheduler: "GREEDY".into(),
                scheme: SchemeChoice::S2,
                backend: BackendKind::Des,
                seed: 11,
                base: InstanceKey::from_bytes(*b"a fixed base key"),
                delta: delta.clone(),
                cost_model,
            })
            .encode(),
        );
    }
    checksum64(&bodies)
}

/// `(n, shape, submit digest, delta digest)`.
const PINNED: &[(usize, &str, u64, u64)] = &[
    (1, "empty", 0xc832_77a6_ddcf_8d1b, 0xbba2_4e24_3554_eee9),
    (8, "dregular", 0xaa78_d4a8_eedc_dfb8, 0xa469_d07d_61c7_5934),
    (8, "dense", 0xd6b1_a33f_9cee_c902, 0x228b_c6bc_36de_ebd6),
    (8, "hotspot", 0x040e_a23b_3df0_def7, 0xdf75_59e7_50c0_c117),
    (8, "empty", 0x22d5_f31d_310b_a3e9, 0x9daf_34bd_7a66_6f64),
    (8, "full", 0x4cc1_655a_48d8_d7f6, 0x9058_87ab_ab67_9032),
    (63, "dregular", 0x369b_de4b_43cd_0d1b, 0x2a20_96ce_d212_4a82),
    (63, "dense", 0x8ce9_f524_3a6c_f55d, 0x9c18_3dec_8904_37c8),
    (63, "hotspot", 0xd84e_4872_a683_ee88, 0x6874_75e2_c0ea_39fe),
    (63, "empty", 0x4b02_e9b3_35bb_a9c5, 0x80d8_624a_182d_0fe3),
    (63, "full", 0xeac7_ca01_67ad_7bb0, 0x7d93_ea65_9c81_fa21),
    (64, "dregular", 0xf062_9e5c_3c13_13e1, 0x3d12_4e35_44f5_f048),
    (64, "dense", 0xa68c_df76_4583_b535, 0x7c81_a30d_6c8b_5c4e),
    (64, "hotspot", 0x0e77_85df_65d7_4549, 0x005b_dd7d_896a_0dda),
    (64, "empty", 0x55b7_4f90_7be8_0f5c, 0x0b65_bf13_3046_d351),
    (64, "full", 0xe4e2_c9af_6bbb_2349, 0x9693_5e8f_d4d8_8e86),
    (65, "dregular", 0xb467_1d1b_da87_e044, 0xdf4d_97f9_997d_616b),
    (65, "dense", 0xac2d_1162_8da6_1612, 0x5048_0f3d_78d5_e6b2),
    (65, "hotspot", 0x96b1_7f84_2c44_f836, 0xa240_3f43_8cec_1e7b),
    (65, "empty", 0xb668_dcef_7700_2f87, 0x1aa1_0476_622c_b9a7),
    (65, "full", 0x614c_b548_c651_42d9, 0xfb43_ff78_dcc3_e07b),
    (
        100,
        "dregular",
        0xaf8f_5490_346f_0bfb,
        0x3466_8553_6023_c655,
    ),
    (100, "dense", 0xfde5_1d1a_d14b_19b8, 0xc84c_35e3_e057_b8b5),
    (100, "hotspot", 0xa842_f981_1c6d_75d3, 0x3f61_13ed_4001_3879),
    (100, "empty", 0xe464_2aad_428d_dbc0, 0x9706_9369_8640_2630),
    (100, "full", 0x3371_6c83_a8ae_fd5d, 0x265e_b62a_a374_94f6),
    (
        256,
        "dregular",
        0x8b17_11e3_b3a9_e733,
        0x80b7_2863_d8fb_eb92,
    ),
    (256, "dense", 0x54ac_7adf_6f3b_d57a, 0xb5f4_3e9f_ba19_376f),
    (256, "hotspot", 0x084f_d95a_32de_c0a7, 0x25fe_5e0e_3458_6049),
    (256, "empty", 0x497e_da1d_4fe8_93b0, 0xb11b_70ce_6da0_5e52),
    (256, "full", 0x3b85_2812_6e94_7ace, 0xe9af_807e_2178_3377),
];

#[test]
fn submit_and_delta_bodies_are_pinned_byte_for_byte() {
    let mut actual = Vec::new();
    for n in [1usize, 8, 63, 64, 65, 100, 256] {
        // One node has no off-diagonal cell: every shape is the empty one.
        let shapes = if n == 1 { &SHAPES[3..4] } else { &SHAPES[..] };
        for &shape in shapes {
            let com = matrix(shape, n);
            let topology = topology(n);
            actual.push((
                n,
                shape,
                submit_digest(&topology, &com),
                delta_digest(&topology, &com),
            ));
        }
    }
    let rendered: String = actual
        .iter()
        .map(|(n, shape, s, d)| format!("    ({n}, {shape:?}, {s:#018x}, {d:#018x}),\n"))
        .collect();
    assert!(
        actual.as_slice() == PINNED,
        "the wire bytes moved; the encoder now produces\n{rendered}"
    );
}

/// The fabrics the size table leaves out, so that every topology kind
/// byte (0 cube, 1 mesh, 2 torus, 3 fat-tree) has a pinned body.
fn fabrics() -> [(&'static str, TopologySpec); 4] {
    [
        (
            "torus:4x4",
            TopologySpec::Torus {
                extents: vec![4, 4],
            },
        ),
        (
            "torus:4x4x2",
            TopologySpec::Torus {
                extents: vec![4, 4, 2],
            },
        ),
        ("fattree:k=4", TopologySpec::FatTree { k: 4 }),
        ("mesh:1x1", TopologySpec::Mesh2d { rows: 1, cols: 1 }),
    ]
}

/// `(fabric, submit digest, delta digest)` over the d-regular matrix of
/// the fabric's size (the empty one on a single node), uniform body then
/// `loggp` body as above.
const PINNED_FABRICS: &[(&str, u64, u64)] = &[
    ("torus:4x4", 0xb155_9a68_3c97_1b78, 0x62bb_11a4_2262_58f8),
    ("torus:4x4x2", 0x799d_c77c_ef61_bff4, 0x0ce6_3341_8e17_c09d),
    ("fattree:k=4", 0x17aa_5985_cb38_5500, 0xe1c7_6aed_471c_92c2),
    ("mesh:1x1", 0xc832_77a6_ddcf_8d1b, 0xbba2_4e24_3554_eee9),
];

#[test]
fn every_topology_kind_is_pinned_byte_for_byte() {
    let actual: Vec<(&str, u64, u64)> = fabrics()
        .into_iter()
        .map(|(name, topology)| {
            let n = topology.num_nodes();
            let com = matrix(if n == 1 { "empty" } else { "dregular" }, n);
            (
                name,
                submit_digest(&topology, &com),
                delta_digest(&topology, &com),
            )
        })
        .collect();
    let rendered: String = actual
        .iter()
        .map(|(name, s, d)| format!("    ({name:?}, {s:#018x}, {d:#018x}),\n"))
        .collect();
    assert!(
        actual.as_slice() == PINNED_FABRICS,
        "the wire bytes moved; the encoder now produces\n{rendered}"
    );
    // The kind byte sits behind the frame kind, the id and the flag.
    let kinds: Vec<u8> = fabrics()
        .into_iter()
        .map(|(_, topology)| {
            let n = topology.num_nodes();
            Request::Submit(SubmitRequest {
                request_id: 0,
                want_schedule: false,
                topology,
                scheduler: "AC".into(),
                scheme: SchemeChoice::Default,
                backend: BackendKind::Analytic,
                seed: 0,
                matrix: CommMatrix::new(n),
                cost_model: LinkCostModel::Uniform,
            })
            .encode()[10]
        })
        .collect();
    assert_eq!(kinds, [2, 2, 3, 1]);
}

#[test]
fn the_pinned_shapes_are_the_ones_described() {
    // The table is only worth its literals if the inputs are what the
    // header says: both weight extremes present, the full shape full, the
    // serve_hot body size reproduced.
    for n in [8usize, 63, 64, 65, 100, 256] {
        for shape in ["dregular", "dense", "hotspot", "full"] {
            let com = matrix(shape, n);
            let sizes: Vec<u32> = com.messages().map(|(_, _, b)| b).collect();
            assert_eq!(sizes.first(), Some(&1), "{shape} n={n}");
            assert_eq!(sizes.last(), Some(&u32::MAX), "{shape} n={n}");
        }
        assert_eq!(matrix("full", n).message_count(), n * (n - 1));
        assert_eq!(matrix("empty", n).message_count(), 0);
        assert_eq!(matrix("dregular", n).message_count(), n * 8.min(n / 2));
        let delta = MatrixDelta::diff(&matrix("dense", n), &drifted(&matrix("dense", n))).unwrap();
        assert_eq!(
            (
                delta.added().len(),
                delta.removed().len(),
                delta.resized().len()
            ),
            (1, 1, 2)
        );
    }
    let hot = Request::Submit(SubmitRequest {
        request_id: 0,
        want_schedule: true,
        topology: topology(64),
        scheduler: "RS_NL".into(),
        scheme: SchemeChoice::Default,
        backend: BackendKind::Analytic,
        seed: 0,
        matrix: random_dregular(64, 8, 1024, 1),
        cost_model: LinkCostModel::Uniform,
    });
    assert_eq!(hot.encode().len(), 6194);
}
