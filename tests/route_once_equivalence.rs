//! Byte-for-byte pins for the two stages that route circuits: RS_NL's
//! `Check_Path`/`Mark_Path` reservation and the analytic backend's
//! pricing.
//!
//! `registry_properties.rs` checks that RS_NL is deterministic,
//! `backend_conformance.rs` that the analytic estimate stays inside its
//! band, `sparse_pool_diff.rs` that dense = sparse — none of them would
//! notice a schedule whose phases, `ops()` (the paper's Figure 10/11 cost
//! model) or estimate moved by one unit. These digests do: they were
//! recorded on the code that re-routed every circuit on every probe and
//! rescanned every resource after every phase, and any code that claims
//! to compute the same thing must reproduce them.
//!
//! The four tests after the original two pin what a change to the hop
//! loops, the load model's tables or the S1 recurrence can break and the
//! balanced sweeps above never reach: skewed in-degrees (shrinking spans,
//! dipping S2 profiles), a `hetero:` cost model, the empty matrix and a
//! single message down to a 2-node cube and a 1-node mesh, LP at its
//! full 63 phases, and `cube:d=13`, whose links sit above the load
//! model's dense/sparse crossover while its engines sit below it.
//!
//! Digested with `commcache::checksum64` (a stability contract), not
//! `DefaultHasher` (not one).

use commcache::checksum64;
use commrt::{AnalyticBackend, BackendReport, Scheme, SimBackend};
use commsched::{registry, CommMatrix, Schedule, Scheduler};
use simnet::{LinkCostModel, LoadModel, MachineParams, PortModel, SimError};
use topo::TopologyKind;
use workloads::irregular::{hotspot, powerlaw};

const FABRICS: [&str; 6] = [
    "cube:d=4",
    "cube:d=6",
    "torus:8x8",
    "torus:4x4x4",
    "mesh:8x8",
    "fattree:k=8",
];
const SEEDS: [u64; 3] = [1, 3, 7];
const COSTS: [&str; 4] = [
    "uniform",
    "loggp:o=2000,g=500,G=1.25",
    "faulty:p=0.02,seed=7",
    // Sparser faults: the 4x4x4 torus detours instead of stranding.
    "faulty:p=0.003,seed=7",
];

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

/// Every field of a report, or the error's text.
fn put_report(buf: &mut Vec<u8>, report: &Result<BackendReport, SimError>) {
    match report {
        Ok(r) => {
            put(buf, r.makespan_ns);
            put(buf, r.phase_end_ns.len() as u64);
            for &end in &r.phase_end_ns {
                put(buf, end);
            }
            put(buf, r.contention.max_engine_busy_ns);
            put(buf, r.contention.max_link_busy_ns);
            put(buf, r.contention.contended_transfers);
            put(buf, r.contention.contended_phases as u64);
        }
        Err(e) => buf.extend_from_slice(e.to_string().as_bytes()),
    }
}

/// The matrices of one fabric with their seeds: exactly d-regular and
/// expected-d-regular ("dense") traffic at a light and a heavy density.
fn matrices(n: usize) -> Vec<(u64, CommMatrix)> {
    let mut out = Vec::new();
    for seed in SEEDS {
        for d in [4, n / 2 - 1] {
            out.push((seed, workloads::random_dregular(n, d, 1024, seed)));
            out.push((seed, workloads::random_dense(n, d, 1024, seed)));
        }
    }
    out
}

fn rs_nl_digest(fabric: &str) -> u64 {
    let topo = TopologyKind::parse(fabric).unwrap().build();
    let mut buf = Vec::new();
    for name in ["RS_NL", "RS_NL_NOPAIR", "RS_NL_DET"] {
        let entry = registry::find(name).unwrap();
        assert!(entry.supports_topology(&*topo), "{name} on {fabric}");
        for (seed, com) in matrices(topo.num_nodes()) {
            put_schedule(&mut buf, &entry.schedule(&com, &*topo, seed));
        }
    }
    checksum64(&buf)
}

/// The analytic report of every `entries` member that accepts `fabric`
/// (schedules compiled with seed 9) × `coms` × S1, S2 × `costs` × both
/// port models, digested in that order; `each` sees every report too.
fn sweep_digest(
    fabric: &str,
    entries: &[&dyn Scheduler],
    coms: &[CommMatrix],
    costs: &[&str],
    mut each: impl FnMut(Scheme, &Result<BackendReport, SimError>),
) -> u64 {
    let topo = TopologyKind::parse(fabric).unwrap().build();
    let mut buf = Vec::new();
    for &entry in entries {
        if !entry.supports_topology(&*topo) {
            continue;
        }
        for com in coms {
            let schedule = entry.schedule(com, &*topo, 9);
            for scheme in [Scheme::S1, Scheme::S2] {
                for cost in costs {
                    let cost = LinkCostModel::parse(cost).unwrap();
                    for ports in [PortModel::Unified, PortModel::Split] {
                        let params = MachineParams {
                            ports,
                            ..MachineParams::ipsc860()
                        };
                        let report = AnalyticBackend
                            .estimate_costed(&params, &cost, &*topo, com, &schedule, scheme);
                        put_report(&mut buf, &report);
                        each(scheme, &report);
                    }
                }
            }
        }
    }
    checksum64(&buf)
}

fn analytic_digest(fabric: &str) -> u64 {
    let n = TopologyKind::parse(fabric).unwrap().build().num_nodes();
    // Mixed sizes so the short and the long protocol both price, and a
    // symmetric part so RS_NL fuses exchange pairs under S1.
    let mut mixed = workloads::random_nonuniform(n, 6, 64, 128 * 1024, 11);
    for i in 0..n / 2 {
        let j = n - 1 - i;
        mixed.set(i, j, 2048 + i as u32);
        mixed.set(j, i, 512);
    }
    let coms = [workloads::random_dregular(n, 8, 1024, 5), mixed];
    sweep_digest(fabric, registry::all(), &coms, &COSTS, |_, _| {})
}

/// Compare every fabric before failing, so one run prints every digest
/// that moved.
fn assert_digests(what: &str, fabrics: &[&str], got: &[u64], pinned: &[u64]) {
    assert_eq!(fabrics.len(), pinned.len());
    let moved: Vec<String> = fabrics
        .iter()
        .zip(got.iter().zip(pinned))
        .filter(|(_, (g, p))| g != p)
        .map(|(f, (g, p))| format!("{f}: {g:#018x} (pinned {p:#018x})"))
        .collect();
    assert!(moved.is_empty(), "{what} moved:\n{}", moved.join("\n"));
}

fn assert_pinned(what: &str, digest: fn(&str) -> u64, pinned: [u64; 6]) {
    let got: Vec<u64> = FABRICS.iter().map(|f| digest(f)).collect();
    assert_digests(what, &FABRICS, &got, &pinned);
}

#[test]
fn rs_nl_family_phases_and_ops_are_pinned() {
    assert_pinned(
        "RS_NL schedules",
        rs_nl_digest,
        [
            0xc0d2_9124_9787_ae6a,
            0xf45f_95fc_e1f8_ce10,
            0x8a1a_dbc5_e9b8_a4b4,
            0x5dc8_1064_a7e4_665d,
            0xfea3_1274_ab7d_0f3d,
            0x2cc9_25c4_5755_e382,
        ],
    );
}

#[test]
fn analytic_reports_are_pinned() {
    assert_pinned(
        "analytic reports",
        analytic_digest,
        [
            0xe99c_92bc_9ccc_89ec,
            0xa0f6_f051_ed0f_4226,
            0xfa59_6799_d56d_0965,
            0x6459_e453_6b60_2c1a,
            0x5456_82e0_2589_795f,
            0x59ec_6e48_5ebe_30c8,
        ],
    );
}

const HETERO: &str = "hetero:factor=4,frac=0.25,lat=1000,seed=7";

fn nodes_of(fabric: &str) -> usize {
    TopologyKind::parse(fabric).unwrap().build().num_nodes()
}

fn entries(names: &[&str]) -> Vec<&'static dyn Scheduler> {
    names.iter().map(|n| registry::find(n).unwrap()).collect()
}

/// Hot-spot and power-law traffic of small messages: in-degrees skewed
/// enough that S2 leads sit far below and far above a busy time, so
/// shared resources' spans shrink (the load model's stale rule) and
/// `phase_end_ns` dips — neither of which balanced traffic reaches.
#[test]
fn skewed_traffic_reports_are_pinned() {
    const SKEWED: [&str; 4] = ["cube:d=4", "cube:d=6", "torus:4x4x4", "fattree:k=4"];
    let mut dipped = 0;
    let got = SKEWED.map(|fabric| {
        let n = nodes_of(fabric);
        let coms = [
            hotspot(n, 1, 0, 1, 2),
            hotspot(n, 3, 2, 81, 4),
            hotspot(n, 2, 3, 241, 12),
            powerlaw(n, n / 4, 1.0, 41, 3),
            powerlaw(n, n / 2 - 1, 0.5, 4096, 8),
        ];
        sweep_digest(
            fabric,
            registry::all(),
            &coms,
            &["uniform", HETERO],
            |scheme, r| {
                let ends = &r.as_ref().unwrap().phase_end_ns;
                if scheme == Scheme::S2 && ends.windows(2).any(|w| w[0] > w[1]) {
                    dipped += 1;
                }
            },
        )
    });
    assert!(
        dipped > 0,
        "no S2 profile dipped: the stale path went unpinned"
    );
    assert_digests(
        "skewed-traffic reports",
        &SKEWED,
        &got,
        &[
            0x001f_36e8_4d3d_670c,
            0x054c_9aa6_782c_b8e6,
            0xbb39_b9a3_ddca_ba48,
            0xaa61_e81a_294b_4a80,
        ],
    );
}

/// The empty matrix and a single message, under every cost model, on
/// the six fabrics plus the two smallest there are (a 1-node mesh holds
/// no message at all).
#[test]
fn degenerate_inputs_are_pinned() {
    let fabrics = [&FABRICS[..], &["cube:d=1", "mesh:1x1"]].concat();
    let costs = [&COSTS[..], &[HETERO]].concat();
    let got: Vec<u64> = fabrics
        .iter()
        .map(|fabric| {
            let n = nodes_of(fabric);
            let mut coms = vec![CommMatrix::new(n)];
            if n > 1 {
                let mut lone = CommMatrix::new(n);
                lone.set(n - 1, 0, 4096);
                coms.push(lone);
            }
            sweep_digest(fabric, registry::all(), &coms, &costs, |_, _| {})
        })
        .collect();
    assert_digests(
        "degenerate reports",
        &fabrics,
        &got,
        &[
            0xe908_624b_e852_5676,
            0x4fab_b569_0045_1f7f,
            0x1b5e_fc39_3a6a_b519,
            0xae97_1368_ab35_5192,
            0x0761_2b2a_aa9b_c4ea,
            0x91a6_078e_21a8_02d8,
            0x56f7_8feb_5069_15a5,
            0x47e3_12c4_68aa_fb59,
        ],
    );
}

/// LP at its longest: 63 phases of 32 exchange pairs (all-to-all), 63
/// phases of mixed pairs and one-way messages (d = 32), and the sparse
/// one-way chain `i -> i + 1`.
#[test]
fn lp_full_length_schedules_are_pinned() {
    let lp = entries(&["LP"]);
    let coms = [
        workloads::structured::all_to_all(64, 1024),
        workloads::random_dregular(64, 32, 1024, 5),
        workloads::random_nonuniform(64, 32, 64, 128 * 1024, 11),
        workloads::structured::shift(64, 1, 256),
    ];
    let cube = TopologyKind::parse("cube:d=6").unwrap().build();
    for com in &coms[..3] {
        assert_eq!(lp[0].schedule(com, &*cube, 9).num_phases(), 63);
    }
    let costs = ["uniform", "loggp:o=2000,g=500,G=1.25", HETERO];
    let got = sweep_digest("cube:d=6", &lp, &coms, &costs, |_, _| {});
    assert_digests(
        "LP reports",
        &["cube:d=6"],
        &[got],
        &[0x2834_19f3_f979_b56b],
    );
}

/// `cube:d=13`: 8 192 engines sit below the load model's dense/sparse
/// crossover and 106 496 links above it, so one pool runs both
/// representations side by side. One matrix, and RS_N (S2, one growing
/// pool) and RS_NL (S1, the recurrence) under their own schemes only: at
/// this size a debug build spends a second per S2 estimate just walking
/// the matrix's 67 M cells.
#[test]
fn mixed_representation_fabric_is_pinned() {
    let topo = TopologyKind::parse("cube:d=13").unwrap().build();
    assert!(topo.num_nodes() <= 1 << 16 && topo.link_count() > 1 << 16);
    assert!(!LoadModel::new(&*topo, PortModel::Unified).is_dense());
    // Balanced traffic with a 48-sender hot spot of small messages laid
    // over it (the whole-machine `hotspot` would schedule 8 191 phases).
    let mut com = workloads::random_dregular(topo.num_nodes(), 2, 41, 3);
    for i in 1..=48 {
        com.set(i * 97, 0, 41);
    }
    let mut buf = Vec::new();
    for entry in entries(&["RS_N", "RS_NL"]) {
        let schedule = entry.schedule(&com, &*topo, 9);
        for cost in ["uniform", HETERO] {
            let cost = LinkCostModel::parse(cost).unwrap();
            for ports in [PortModel::Unified, PortModel::Split] {
                let params = MachineParams {
                    ports,
                    ..MachineParams::ipsc860()
                };
                let scheme = Scheme::for_scheduler(entry);
                let report = AnalyticBackend
                    .estimate_costed(&params, &cost, &*topo, &com, &schedule, scheme);
                put_report(&mut buf, &report);
            }
        }
    }
    let got = checksum64(&buf);
    assert_digests(
        "cube:d=13 reports",
        &["cube:d=13"],
        &[got],
        &[0xe3ea_3ac1_83e5_52b3],
    );
}
