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
//! Digested with `commcache::checksum64` (a stability contract), not
//! `DefaultHasher` (not one).

use commcache::checksum64;
use commrt::{AnalyticBackend, Scheme, SimBackend};
use commsched::{registry, CommMatrix, Schedule};
use simnet::{LinkCostModel, MachineParams, PortModel};
use topo::TopologyKind;

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

fn analytic_digest(fabric: &str) -> u64 {
    let topo = TopologyKind::parse(fabric).unwrap().build();
    let n = topo.num_nodes();
    // Mixed sizes so the short and the long protocol both price, and a
    // symmetric part so RS_NL fuses exchange pairs under S1.
    let mut mixed = workloads::random_nonuniform(n, 6, 64, 128 * 1024, 11);
    for i in 0..n / 2 {
        let j = n - 1 - i;
        mixed.set(i, j, 2048 + i as u32);
        mixed.set(j, i, 512);
    }
    let coms = [workloads::random_dregular(n, 8, 1024, 5), mixed];
    let mut buf = Vec::new();
    for &entry in registry::all() {
        if !entry.supports_topology(&*topo) {
            continue;
        }
        for com in &coms {
            let schedule = entry.schedule(com, &*topo, 9);
            for scheme in [Scheme::S1, Scheme::S2] {
                for cost in COSTS {
                    let cost = LinkCostModel::parse(cost).unwrap();
                    for ports in [PortModel::Unified, PortModel::Split] {
                        let params = MachineParams {
                            ports,
                            ..MachineParams::ipsc860()
                        };
                        match AnalyticBackend
                            .estimate_costed(&params, &cost, &*topo, com, &schedule, scheme)
                        {
                            Ok(r) => {
                                put(&mut buf, r.makespan_ns);
                                put(&mut buf, r.phase_end_ns.len() as u64);
                                for &end in &r.phase_end_ns {
                                    put(&mut buf, end);
                                }
                                put(&mut buf, r.contention.max_engine_busy_ns);
                                put(&mut buf, r.contention.max_link_busy_ns);
                                put(&mut buf, r.contention.contended_transfers);
                                put(&mut buf, r.contention.contended_phases as u64);
                            }
                            Err(e) => buf.extend_from_slice(e.to_string().as_bytes()),
                        }
                    }
                }
            }
        }
    }
    checksum64(&buf)
}

/// Compare every fabric before failing, so one run prints every digest
/// that moved.
fn assert_pinned(what: &str, digest: fn(&str) -> u64, pinned: [u64; 6]) {
    let got: Vec<u64> = FABRICS.iter().map(|f| digest(f)).collect();
    let moved: Vec<String> = FABRICS
        .iter()
        .zip(got.iter().zip(pinned))
        .filter(|(_, (&g, p))| g != *p)
        .map(|(f, (g, p))| format!("{f}: {g:#018x} (pinned {p:#018x})"))
        .collect();
    assert!(moved.is_empty(), "{what} moved:\n{}", moved.join("\n"));
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
