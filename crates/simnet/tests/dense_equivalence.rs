//! Dense-contention equivalence pins: the event engine's *entire*
//! observable output — every `TraceEvent::compact` line, then the
//! `SimReport` (or the `SimError`: a deadlock must stay the same
//! deadlock) — digested over a battery built to make the atomic claim
//! policy's pending set deep, and pinned per (fabric, machine).
//!
//! `trace_golden.rs` pins four-message fixtures that never contend, so it
//! cannot see a change in how pending transfers are arbitrated. This
//! battery can: `dregular(n, d, M)` for d ∈ {4, 12, 48} and M ∈ {64 B,
//! 1 KiB, 128 KiB} (short protocol without the sender issue gate, long
//! protocol with it), every registry entry under both S1 and S2, and AC's
//! send-detect variant (all arrivals through the system buffer), on three
//! fabrics × four machines (the paper's, split ports, a 64 KiB system
//! buffer, split ports + 8 KiB). One more group prices a torus and the cube
//! under a faulty link-cost model (detours and typed `LinkDown`).
//!
//! The digests were taken on the engine that rescanned its whole pending
//! vector after every release; any engine that claims to be the same
//! simulator must reproduce them bit for bit. Two `SimStats` fields are
//! host accounting, not simulated behaviour, and are zeroed before
//! digesting: `state_bytes` and `claim_checks`.

use commrt::{compile, compile_ac_send_detect, Scheme};
use commsched::{registry, ScheduleKind};
use hypercube::Hypercube;
use simnet::{
    simulate_traced, LinkCostModel, MachineParams, PortModel, SimError, SimReport, TraceEvent,
};
use topo::TopologyKind;

const DENSITIES: [usize; 3] = [4, 12, 48];
const SIZES: [u32; 3] = [64, 1024, 128 * 1024];

fn machines() -> [(&'static str, MachineParams); 4] {
    let base = MachineParams::ipsc860();
    [
        ("ipsc860", base.clone()),
        (
            "split",
            MachineParams {
                ports: PortModel::Split,
                ..base.clone()
            },
        ),
        (
            "buf64k",
            MachineParams {
                buffer_bytes: Some(64 * 1024),
                ..base.clone()
            },
        ),
        (
            "split+buf8k",
            MachineParams {
                ports: PortModel::Split,
                buffer_bytes: Some(8 * 1024),
                ..base
            },
        ),
    ]
}

/// FNV-1a, 64 bit.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Fold one run's whole observable outcome into `h`.
fn digest_run(h: &mut Fnv, outcome: Result<(SimReport, Vec<TraceEvent>), SimError>) {
    match outcome {
        Ok((mut report, trace)) => {
            for ev in &trace {
                h.write(ev.compact().as_bytes());
                h.write(b"\n");
            }
            report.stats.state_bytes = 0;
            report.stats.claim_checks = 0;
            h.write(format!("{report:?}\n").as_bytes());
        }
        Err(e) => h.write(format!("{e:?}\n").as_bytes()),
    }
}

/// One digest per machine for the full battery on `kind`.
fn fabric_digests(kind: &str) -> Vec<(&'static str, u64)> {
    let topo = TopologyKind::parse(kind).expect("fixture kind").build();
    let n = topo.num_nodes();
    let machines = machines();
    let mut digests = [Fnv::new(); 4];
    for density in DENSITIES.into_iter().filter(|&d| d < n) {
        for bytes in SIZES {
            let seed = 1000 * density as u64 + u64::from(bytes);
            let com = workloads::random_dregular(n, density, bytes, seed);
            let mut batteries = Vec::new();
            for &entry in registry::all() {
                if !entry.supports_topology(&*topo) {
                    continue;
                }
                let schedule = entry.schedule(&com, &*topo, 7);
                batteries.push(compile(&com, &schedule, Scheme::S2));
                // AC's program ignores the scheme.
                if schedule.kind() == ScheduleKind::Phased {
                    batteries.push(compile(&com, &schedule, Scheme::S1));
                }
            }
            batteries.push(compile_ac_send_detect(&com));
            for programs in batteries {
                for ((_, params), h) in machines.iter().zip(&mut digests) {
                    digest_run(
                        h,
                        simulate_traced(&*topo, params, &LinkCostModel::Uniform, programs.clone()),
                    );
                }
            }
        }
    }
    machines
        .iter()
        .zip(digests)
        .map(|((name, _), h)| (*name, h.0))
        .collect()
}

fn assert_pinned(what: &str, actual: &[(&'static str, u64)], pinned: &[(&str, u64)]) {
    let render = |rows: &[(&str, u64)]| {
        rows.iter()
            .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
            .collect::<String>()
    };
    assert!(
        actual == pinned,
        "{what}: the engine's event stream moved.\nactual:\n{}pinned:\n{}",
        render(actual),
        render(pinned)
    );
}

#[test]
fn cube_d6_dense_battery_is_pinned() {
    assert_pinned(
        "cube:d=6",
        &fabric_digests("cube:d=6"),
        &[
            ("ipsc860", 0x5361_d2df_b66b_e3dd),
            ("split", 0x7bad_ebbb_1a36_7154),
            ("buf64k", 0xd7c5_3f1a_8984_db0e),
            ("split+buf8k", 0xf5f4_0805_5eab_4757),
        ],
    );
}

#[test]
fn torus_8x8_dense_battery_is_pinned() {
    assert_pinned(
        "torus:8x8",
        &fabric_digests("torus:8x8"),
        &[
            ("ipsc860", 0xe6ed_170c_654c_06ce),
            ("split", 0x637a_fa92_2c93_280d),
            ("buf64k", 0xad27_2a83_7385_df92),
            ("split+buf8k", 0x0927_78df_b3fc_6e88),
        ],
    );
}

#[test]
fn cube_d4_dense_battery_is_pinned() {
    assert_pinned(
        "cube:d=4",
        &fabric_digests("cube:d=4"),
        &[
            ("ipsc860", 0x084c_c80b_280c_e862),
            ("split", 0x4583_8441_7813_2453),
            ("buf64k", 0x6d5b_db02_1566_08a4),
            ("split+buf8k", 0x675b_f083_1336_8167),
        ],
    );
}

#[test]
fn faulty_cost_model_runs_are_pinned() {
    // Per-link extras ride on every duration; dead links detour the long
    // way round on the torus and surface a typed `LinkDown` on the cube,
    // which has no detour.
    let cost = LinkCostModel::parse("faulty:p=0.05,seed=42").expect("cost model");
    let params = MachineParams::ipsc860();
    let mut actual = Vec::new();
    for kind in ["torus:4x4", "cube:d=6"] {
        let topo = TopologyKind::parse(kind).expect("fixture kind").build();
        let com = workloads::random_dregular(topo.num_nodes(), 12, 4096, 12);
        let mut h = Fnv::new();
        for &entry in registry::all() {
            if !entry.supports_topology(&*topo) {
                continue;
            }
            let schedule = entry.schedule(&com, &*topo, 7);
            let programs = compile(&com, &schedule, Scheme::for_scheduler(entry));
            digest_run(&mut h, simulate_traced(&*topo, &params, &cost, programs));
        }
        actual.push((kind, h.0));
    }
    assert_pinned(
        "faulty:p=0.05,seed=42",
        &actual,
        &[
            ("torus:4x4", 0x023a_ae22_d9e4_343a),
            ("cube:d=6", 0x20d6_fbe5_d8f6_914c),
        ],
    );
}

/// Feasibility examinations per unit of simulated work: the rescan must
/// cost O(resources freed), so `claim_checks` stays within a small
/// constant of `transfers + events` however deep the pending set gets.
/// (The whole-set rescan read ~10^7 checks for ~3 k transfers here.)
fn assert_linear_claim_checks(what: &str, report: &SimReport) {
    let stats = &report.stats;
    let work = stats.transfers + stats.events;
    assert!(
        stats.transfers_blocked > stats.transfers / 2,
        "{what}: the case is meant to contend ({} of {} blocked)",
        stats.transfers_blocked,
        stats.transfers
    );
    assert!(
        stats.claim_checks <= 2 * work,
        "{what}: {} claim checks for {} transfers + {} events",
        stats.claim_checks,
        stats.transfers,
        stats.events
    );
}

#[test]
fn claim_checks_stay_linear_on_the_densest_s2_cells() {
    let topo = TopologyKind::parse("cube:d=6").expect("kind").build();
    let com = workloads::random_dregular(topo.num_nodes(), 48, 128 * 1024, 48);
    for name in ["AC", "RS_N", "GREEDY"] {
        let entry = registry::find(name).expect("registered");
        let schedule = entry.schedule(&com, &*topo, 7);
        let programs = compile(&com, &schedule, Scheme::S2);
        let report = simnet::simulate(&*topo, &MachineParams::ipsc860(), programs)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_linear_claim_checks(name, &report);
    }
}

#[test]
fn claim_checks_stay_linear_on_the_scale_bench_case() {
    // AC on dregular(d=16, M=4096) as the fabric grows 64 → 1024 nodes:
    // the deep-pending-set regime. The count is a function of the run,
    // not of the host, so the bound on the rescan's cost per transfer is
    // deterministic.
    let entry = registry::find("AC").expect("registered");
    for dim in [6, 8, 10] {
        let what = format!("AC on cube:d={dim}");
        let cube = Hypercube::new(dim);
        let com = workloads::random_dregular(1 << dim, 16, 4096, 7);
        let schedule = entry.schedule(&com, &cube, 7);
        let programs = compile(&com, &schedule, Scheme::S2);
        let report = simnet::simulate(&cube, &MachineParams::ipsc860(), programs)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_linear_claim_checks(&what, &report);
        let stats = &report.stats;
        assert!(
            stats.claim_checks <= 12 * stats.transfers,
            "{what}: {} claim checks for {} transfers",
            stats.claim_checks,
            stats.transfers
        );
    }
}
