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
//! The hold-and-wait policy — FIFO wait queues per resource, circuits that
//! hold everything while they wait on delivery — runs the same battery on
//! two fabrics (its deadlocks under an 8 KiB buffer are pinned `stuck` text
//! and all), `cube:d=13` puts both policies on the hashed resource layout,
//! an error battery pins every runtime `SimError` by its `Debug` text, and
//! the `hetero:` and `loggp:` cost models sit beside the `faulty:` group.
//!
//! The digests were taken on the engine that rescanned its whole pending
//! vector after every release; any engine that claims to be the same
//! simulator must reproduce them bit for bit. Two `SimStats` fields are
//! host accounting, not simulated behaviour, and are zeroed before
//! digesting: `state_bytes` and `claim_checks`.

use commrt::{compile, compile_ac_send_detect, Scheme};
use commsched::{registry, ScheduleKind};
use hypercube::Hypercube;
use hypercube::{NodeId, Topology};
use simnet::{
    simulate_with, LinkCostModel, MachineParams, PortModel, Program, ProgramBuilder, SimError,
    SimReport, Tag, TraceEvent,
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

fn hold_and_wait_machines() -> [(&'static str, MachineParams); 2] {
    let base = MachineParams::ipsc860_hold_and_wait();
    [
        ("hold-and-wait", base.clone()),
        (
            "hold-and-wait+buf8k",
            MachineParams {
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

/// One run with its full trace.
fn traced_run<T: Topology + ?Sized>(
    topo: &T,
    params: &MachineParams,
    cost: &LinkCostModel,
    programs: Vec<Program>,
) -> Result<(SimReport, Vec<TraceEvent>), SimError> {
    let mut trace = Vec::new();
    let report = simulate_with(topo, params, cost, programs, Some(&mut trace))?;
    Ok((report, trace))
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
fn fabric_digests(
    kind: &str,
    machines: &[(&'static str, MachineParams)],
) -> Vec<(&'static str, u64)> {
    let topo = TopologyKind::parse(kind).expect("fixture kind").build();
    let n = topo.num_nodes();
    let mut digests = vec![Fnv::new(); machines.len()];
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
                        traced_run(&*topo, params, &LinkCostModel::Uniform, programs.clone()),
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
        &fabric_digests("cube:d=6", &machines()),
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
        &fabric_digests("torus:8x8", &machines()),
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
        &fabric_digests("cube:d=4", &machines()),
        &[
            ("ipsc860", 0x084c_c80b_280c_e862),
            ("split", 0x4583_8441_7813_2453),
            ("buf64k", 0x6d5b_db02_1566_08a4),
            ("split+buf8k", 0x675b_f083_1336_8167),
        ],
    );
}

/// One digest per fabric: every registry entry under its own scheme on
/// `dregular(n, 12, 4 KiB)`, priced under `cost` on `params`.
fn cost_model_digests(
    cost: &str,
    kinds: &[&'static str],
    params: &MachineParams,
) -> Vec<(&'static str, u64)> {
    let cost = LinkCostModel::parse(cost).expect("cost model");
    let mut actual = Vec::new();
    for &kind in kinds {
        let topo = TopologyKind::parse(kind).expect("fixture kind").build();
        let com = workloads::random_dregular(topo.num_nodes(), 12, 4096, 12);
        let mut h = Fnv::new();
        for &entry in registry::all() {
            if !entry.supports_topology(&*topo) {
                continue;
            }
            let schedule = entry.schedule(&com, &*topo, 7);
            let programs = compile(&com, &schedule, Scheme::for_scheduler(entry));
            digest_run(&mut h, traced_run(&*topo, params, &cost, programs));
        }
        actual.push((kind, h.0));
    }
    actual
}

#[test]
fn faulty_cost_model_runs_are_pinned() {
    // Per-link extras ride on every duration; dead links detour the long
    // way round on the torus and surface a typed `LinkDown` on the cube,
    // which has no detour.
    assert_pinned(
        "faulty:p=0.05,seed=42",
        &cost_model_digests(
            "faulty:p=0.05,seed=42",
            &["torus:4x4", "cube:d=6"],
            &MachineParams::ipsc860(),
        ),
        &[
            ("torus:4x4", 0x023a_ae22_d9e4_343a),
            ("cube:d=6", 0x20d6_fbe5_d8f6_914c),
        ],
    );
}

#[test]
fn hetero_and_loggp_cost_model_runs_are_pinned() {
    // Costed fabrics route through `LinkCostModel::route_into` and price
    // every duration through the model; hold-and-wait adds only the
    // model's extras to its wire time, so it is pinned beside the atomic
    // machine.
    let mut actual = Vec::new();
    for cost in [
        "hetero:factor=4,frac=0.25,lat=1000,seed=7",
        "loggp:o=500,g=200,G=1.5",
    ] {
        for (machine, params) in [
            ("ipsc860", MachineParams::ipsc860()),
            ("hold-and-wait", MachineParams::ipsc860_hold_and_wait()),
        ] {
            let digest = cost_model_digests(cost, &["torus:4x4"], &params)[0].1;
            actual.push((machine, digest));
        }
    }
    assert_pinned(
        "hetero: then loggp: on torus:4x4",
        &actual,
        &[
            ("ipsc860", 0x421d_b729_97a3_a014),
            ("hold-and-wait", 0x24cc_da4a_9594_f880),
            ("ipsc860", 0xe91f_883a_1107_a78a),
            ("hold-and-wait", 0xea53_46d9_4a3a_975d),
        ],
    );
}

#[test]
fn cube_d6_hold_and_wait_battery_is_pinned() {
    assert_pinned(
        "cube:d=6",
        &fabric_digests("cube:d=6", &hold_and_wait_machines()),
        &[
            ("hold-and-wait", 0x5a58_9227_823b_b5f7),
            ("hold-and-wait+buf8k", 0x9162_dd18_fba5_1a3b),
        ],
    );
}

#[test]
fn torus_8x8_hold_and_wait_battery_is_pinned() {
    assert_pinned(
        "torus:8x8",
        &fabric_digests("torus:8x8", &hold_and_wait_machines()),
        &[
            ("hold-and-wait", 0x2dda_1091_e236_34d3),
            ("hold-and-wait+buf8k", 0x7943_2b5b_7322_5b4a),
        ],
    );
}

#[test]
fn cube_d13_hashed_layout_runs_are_pinned() {
    // 8 192 nodes and 106 496 directed links: the resource tables of a run
    // on this fabric are hashed, not dense. AC and RS_N under S2, RS_NL
    // under S1 (handshakes, blocking sends, pairwise exchanges); LP would
    // schedule 8 191 phases of 8 192 slots each.
    let topo = TopologyKind::parse("cube:d=13")
        .expect("fixture kind")
        .build();
    assert!(topo.link_count() > 1 << 16);
    let com = workloads::random_dregular(topo.num_nodes(), 4, 1024, 13);
    let machines = [
        ("ipsc860", MachineParams::ipsc860()),
        ("hold-and-wait", MachineParams::ipsc860_hold_and_wait()),
    ];
    let mut digests = [Fnv::new(); 2];
    for (name, scheme) in [
        ("AC", Scheme::S2),
        ("RS_N", Scheme::S2),
        ("RS_NL", Scheme::S1),
    ] {
        let entry = registry::find(name).expect("registered");
        let schedule = entry.schedule(&com, &*topo, 7);
        let programs = compile(&com, &schedule, scheme);
        for ((_, params), h) in machines.iter().zip(&mut digests) {
            digest_run(
                h,
                traced_run(&*topo, params, &LinkCostModel::Uniform, programs.clone()),
            );
        }
    }
    let actual: Vec<_> = machines
        .iter()
        .zip(digests)
        .map(|((name, _), h)| (*name, h.0))
        .collect();
    assert_pinned(
        "cube:d=13",
        &actual,
        &[
            ("ipsc860", 0xe4c4_1f22_c835_e3d9),
            ("hold-and-wait", 0x4d3b_0df2_fa34_bd24),
        ],
    );
}

/// Two-to-four-node programs that each end in one runtime `SimError`.
fn error_cases() -> Vec<(&'static str, u32, Vec<Program>)> {
    let program = |build: &dyn Fn(&mut ProgramBuilder)| {
        let mut b = Program::builder();
        build(&mut b);
        b.build()
    };
    let (p0, p1) = (NodeId(0), NodeId(1));
    vec![
        (
            "duplicate PostRecv while posted",
            1,
            vec![
                Program::empty(),
                program(&|b| {
                    b.post_recv(p0, Tag(3)).post_recv(p0, Tag(3));
                }),
            ],
        ),
        (
            "duplicate PostRecv after delivery",
            1,
            vec![
                program(&|b| {
                    b.send(p1, 512, Tag(3));
                }),
                program(&|b| {
                    b.post_recv(p0, Tag(3))
                        .wait_recv(p0, Tag(3))
                        .post_recv(p0, Tag(3));
                }),
            ],
        ),
        (
            "WaitRecv without a post",
            1,
            vec![
                Program::empty(),
                program(&|b| {
                    b.wait_recv(p0, Tag(5));
                }),
            ],
        ),
        (
            "duplicate PostRecv while in flight",
            1,
            vec![
                program(&|b| {
                    b.send(p1, 128 * 1024, Tag(3));
                }),
                program(&|b| {
                    b.post_recv(p0, Tag(3))
                        .compute(2_000_000)
                        .post_recv(p0, Tag(3));
                }),
            ],
        ),
        (
            "second message after the first was delivered",
            1,
            vec![
                program(&|b| {
                    b.send_async(p1, 64, Tag(1))
                        .send_async(p1, 64, Tag(1))
                        .wait_all_sends();
                }),
                program(&|b| {
                    b.post_recv(p0, Tag(1)).wait_all_recvs();
                }),
            ],
        ),
        (
            "second message while the first sits in the system buffer",
            1,
            vec![
                program(&|b| {
                    b.send(p1, 64, Tag(1)).send(p1, 64, Tag(1));
                }),
                Program::empty(),
            ],
        ),
        (
            "exchange size mismatch",
            1,
            vec![
                program(&|b| {
                    b.exchange(p1, 100, 200, Tag(0));
                }),
                program(&|b| {
                    b.compute(1_000).exchange(p0, 300, 100, Tag(0));
                }),
            ],
        ),
        (
            "exchange whose partner never arrives",
            2,
            vec![
                program(&|b| {
                    b.exchange(p1, 64, 64, Tag(0));
                }),
                program(&|b| {
                    b.exchange(p0, 64, 64, Tag(1));
                }),
                program(&|b| {
                    b.exchange(NodeId(3), 64, 64, Tag(0));
                }),
                Program::empty(),
            ],
        ),
        (
            "blocking send into a full buffer nobody drains",
            1,
            vec![
                program(&|b| {
                    b.send(p1, 6000, Tag(0)).send(p1, 6000, Tag(1));
                }),
                program(&|b| {
                    b.post_recv(p0, Tag(9)).wait_recv(p0, Tag(9));
                }),
            ],
        ),
    ]
}

#[test]
fn runtime_errors_are_pinned() {
    // The `Debug` text of each error (node, message, `stuck` diagnoses) on
    // the atomic machine and on hold-and-wait, both with an 8 KiB buffer.
    let machines = [
        MachineParams {
            buffer_bytes: Some(8 * 1024),
            ..MachineParams::ipsc860()
        },
        MachineParams {
            buffer_bytes: Some(8 * 1024),
            ..MachineParams::ipsc860_hold_and_wait()
        },
    ];
    let mut actual = Vec::new();
    for (what, dims, programs) in error_cases() {
        let cube = Hypercube::new(dims);
        let mut h = Fnv::new();
        for params in &machines {
            let outcome = traced_run(&cube, params, &LinkCostModel::Uniform, programs.clone());
            assert!(outcome.is_err(), "{what}: expected an error");
            digest_run(&mut h, outcome);
        }
        actual.push((what, h.0));
    }
    // A down link with no detour: typed, and raised at creation time under
    // either policy.
    let cost = LinkCostModel::parse("faulty:p=0.3,seed=5").expect("cost model");
    let cube = Hypercube::new(3);
    let com = workloads::random_dregular(8, 3, 2048, 3);
    let schedule = registry::find("AC")
        .expect("registered")
        .schedule(&com, &cube, 7);
    let mut h = Fnv::new();
    for params in &machines {
        let outcome = traced_run(&cube, params, &cost, compile(&com, &schedule, Scheme::S2));
        assert!(
            matches!(outcome, Err(SimError::LinkDown { .. })),
            "{outcome:?}"
        );
        digest_run(&mut h, outcome);
    }
    actual.push(("LinkDown under faulty:", h.0));
    assert_pinned(
        "runtime errors",
        &actual,
        &[
            ("duplicate PostRecv while posted", 0x59ce_14e2_17e8_7a45),
            ("duplicate PostRecv after delivery", 0xda9c_5cf1_11f4_7909),
            ("WaitRecv without a post", 0x7271_f2a5_a6db_bc75),
            ("duplicate PostRecv while in flight", 0x3fef_d8ff_431f_b8ef),
            (
                "second message after the first was delivered",
                0x639d_676f_6c94_43fd,
            ),
            (
                "second message while the first sits in the system buffer",
                0x8ac0_3910_d1eb_c2bb,
            ),
            ("exchange size mismatch", 0x214c_8c08_eaf5_57e5),
            (
                "exchange whose partner never arrives",
                0xfdcc_b63a_d0ba_7337,
            ),
            (
                "blocking send into a full buffer nobody drains",
                0x66c2_3ecd_0ab3_8537,
            ),
            ("LinkDown under faulty:", 0xa219_00ea_8205_d267),
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
