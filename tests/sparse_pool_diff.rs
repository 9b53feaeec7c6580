//! Differential pinning of the analytic pool representations: the dense
//! (one slot per resource) and sparse (open-addressed, traffic-sized)
//! layouts of [`simnet::LoadModel`] must be **bit-identical** in every
//! observable — makespan, per-class maxima, contention flags, and the
//! per-add "joined a shared resource" return — across random pools,
//! topologies, and port models. Representation is a space/time trade,
//! never a semantics knob; this suite is what lets `PoolMode::Auto`
//! switch layouts at the crossover without a conformance question.

use hypercube::{Hypercube, NodeId, Topology};
use proptest::prelude::*;
use simnet::{LoadModel, MachineParams, PoolMode, PortModel, Program, Tag, TransferSpec};

/// Raw proptest tuple → a valid spec on an `n`-node machine.
fn spec_on(n: usize, raw: ((usize, usize), (u64, u64, u8))) -> Option<TransferSpec> {
    let ((src, dst), (busy, lead, fused)) = raw;
    let fused = fused != 0;
    let (src, dst) = (src % n, dst % n);
    if src == dst {
        return None;
    }
    Some(TransferSpec {
        src: NodeId(src as u32),
        dst: NodeId(dst as u32),
        busy_ns: busy % 1_000_000,
        lead_ns: lead % 100_000,
        fused,
    })
}

/// Drive the same pool through both layouts and assert every observable
/// agrees after every single add, after a reset, and after refilling.
fn assert_bit_identical<T: Topology + ?Sized>(topo: &T, ports: PortModel, specs: &[TransferSpec]) {
    let mut dense = LoadModel::with_mode(topo, ports, PoolMode::Dense);
    let mut sparse = LoadModel::with_mode(topo, ports, PoolMode::Sparse);
    assert!(dense.is_dense());
    assert!(!sparse.is_dense());
    for round in 0..2 {
        for (i, &spec) in specs.iter().enumerate() {
            let d = dense.add(topo, spec);
            let s = sparse.add(topo, spec);
            assert_eq!(d, s, "shared flag diverges at add {i} (round {round})");
            assert_eq!(
                dense.makespan_ns(),
                sparse.makespan_ns(),
                "makespan diverges at add {i} (round {round})"
            );
        }
        assert_eq!(dense.max_engine_ns(), sparse.max_engine_ns());
        assert_eq!(dense.max_link_ns(), sparse.max_link_ns());
        assert_eq!(dense.contended(), sparse.contended());
        assert_eq!(dense.transfers(), sparse.transfers());
        // Round 2 replays the pool through the dirty-list reset path.
        dense.reset();
        sparse.reset();
        assert_eq!(dense.makespan_ns(), 0);
        assert_eq!(sparse.makespan_ns(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dense_and_sparse_pools_agree_on_random_hypercube_traffic(
        dim in 1u32..8,
        raw in proptest::collection::vec(
            ((0usize..256, 0usize..256), (0u64..u64::MAX, 0u64..u64::MAX, 0u8..2)),
            0..96,
        ),
        split in 0u8..2,
    ) {
        let cube = Hypercube::new(dim);
        let n = cube.num_nodes();
        let ports = if split != 0 { PortModel::Split } else { PortModel::Unified };
        let specs: Vec<_> = raw.iter().filter_map(|&r| spec_on(n, r)).collect();
        assert_bit_identical(&cube, ports, &specs);
    }

    #[test]
    fn dense_and_sparse_pools_agree_on_random_mesh_traffic(
        rows in 1usize..9,
        cols in 1usize..9,
        raw in proptest::collection::vec(
            ((0usize..128, 0usize..128), (0u64..u64::MAX, 0u64..u64::MAX, 0u8..2)),
            0..64,
        ),
        split in 0u8..2,
    ) {
        let mesh = topo::Torus::mesh(rows, cols);
        let n = mesh.num_nodes();
        if n < 2 {
            return Ok(());
        }
        let ports = if split != 0 { PortModel::Split } else { PortModel::Unified };
        let specs: Vec<_> = raw.iter().filter_map(|&r| spec_on(n, r)).collect();
        assert_bit_identical(&mesh, ports, &specs);
    }
}

#[test]
fn auto_goes_sparse_above_the_crossover_and_still_matches_dense() {
    // d=17 (131_072 nodes) is the smallest cube past the 2^16 crossover:
    // Auto must pick sparse for every class, and a forced-dense model —
    // expensive, but still buildable at this size — must agree on an
    // LCG-generated pool bit for bit.
    let cube = Hypercube::new(17);
    let n = cube.num_nodes();
    let auto = LoadModel::new(&cube, PortModel::Unified);
    assert!(!auto.is_dense(), "d=17 must cross to sparse under Auto");

    let mut state = 0x00ff_1234_5678_9abcu64;
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut specs = Vec::new();
    while specs.len() < 300 {
        if let Some(spec) = spec_on(
            n,
            (
                (rand() as usize, rand() as usize),
                (rand(), rand(), (rand() % 2) as u8),
            ),
        ) {
            specs.push(spec);
        }
    }
    assert_bit_identical(&cube, PortModel::Unified, &specs);
}

/// Split ports with every second transfer a fused exchange (four
/// node-class slots per claim set), leads far below and far above any
/// busy time (spans shrink, maxima go stale), and a reset after every
/// k-th add — on a dense-only fabric, and on `cube:d=13`, where `Auto`
/// keeps the engines dense and hashes the links, so three pools must
/// agree.
#[test]
fn split_ports_fused_exchanges_resets_and_extreme_leads_agree() {
    let mut state = 0x5eed_cafe_f00d_0001u64;
    let mut rand = move |below: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % below
    };
    for (dims, adds) in [(5, 4_000), (13, 1_500)] {
        let cube = Hypercube::new(dims);
        let n = cube.num_nodes() as u64;
        for reset_every in [1, 7, 64, usize::MAX] {
            let mut pools = [PoolMode::Dense, PoolMode::Sparse, PoolMode::Auto]
                .map(|mode| LoadModel::with_mode(&cube, PortModel::Split, mode));
            assert_eq!(pools[2].is_dense(), dims == 5);
            for add in 0..adds {
                if add % reset_every == 0 {
                    pools.iter_mut().for_each(LoadModel::reset);
                }
                // A few hot nodes, so resources are shared at any size.
                let src = if rand(2) == 0 { rand(8) } else { rand(n) };
                let spec = TransferSpec {
                    src: NodeId(src as u32),
                    dst: NodeId(((src + 1 + rand(n - 1)) % n) as u32),
                    busy_ns: rand(1000),
                    lead_ns: match rand(3) {
                        0 => rand(50),
                        1 => rand(20_000),
                        _ => 1_000_000 + rand(1_000_000),
                    },
                    fused: add % 2 == 0,
                };
                let read = pools.each_mut().map(|pool| {
                    let joined = pool.add(&cube, spec);
                    (
                        joined,
                        pool.makespan_ns(),
                        pool.max_engine_ns(),
                        pool.max_link_ns(),
                        pool.contended(),
                        pool.transfers(),
                    )
                });
                let at = format!("d={dims} reset every {reset_every}, add {add}");
                assert_eq!(read[0], read[1], "dense vs sparse, {at}");
                assert_eq!(read[0], read[2], "dense vs auto, {at}");
            }
        }
    }
}

#[test]
fn million_node_pool_costs_traffic_not_topology() {
    // The headline scaling property: pricing ~1K transfers on a d=20
    // fabric (1M nodes, ~20M directed links) must cost memory
    // proportional to the transfers. A dense pool would allocate
    // ~500 MB of occupancy tables before the first add.
    let cube = Hypercube::new(20);
    let n = cube.num_nodes();
    let mut pool = LoadModel::new(&cube, PortModel::Unified);
    assert!(!pool.is_dense());
    let mut state = 0x0123_4567_89ab_cdefu64;
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut added = 0;
    while added < 1024 {
        let spec = TransferSpec {
            src: NodeId((rand() as usize % n) as u32),
            dst: NodeId((rand() as usize % n) as u32),
            busy_ns: 1 + rand() % 100_000,
            lead_ns: rand() % 10_000,
            fused: false,
        };
        if spec.src == spec.dst {
            continue;
        }
        pool.add(&cube, spec);
        added += 1;
    }
    assert!(pool.makespan_ns() > 0);
    assert_eq!(pool.transfers(), 1024);
    // 1K transfers touch <= ~42K resources (2 endpoints + <=20 links
    // twice over); the tables stay in the low megabytes.
    assert!(
        pool.resident_bytes() < 8 << 20,
        "resident {} bytes on a d=20 fabric",
        pool.resident_bytes()
    );
}

#[test]
fn million_node_des_state_tracks_live_transfers() {
    // The event engine's counterpart: 512 long messages from random
    // senders on a d=20 cube converge on 8 hot receivers, so most of them
    // wait — on an engine, on a shared link near a receiver, or behind
    // their sender's issue cursor. `state_bytes` (transfer arena + router
    // occupancy + pending index) must follow the transfers in flight; one
    // dense 8-byte table over the ~20M directed links would be 160 MB.
    let cube = Hypercube::new(20);
    let n = cube.num_nodes();
    let mut state = 0x0fed_cba9_8765_4321u64;
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let hot: Vec<usize> = (0..8).map(|_| rand() as usize % n).collect();
    let mut builders: std::collections::HashMap<usize, simnet::ProgramBuilder> = Default::default();
    let mut messages = 0u32;
    while messages < 512 {
        let (src, dst) = (rand() as usize % n, hot[messages as usize % hot.len()]);
        if src == dst {
            continue;
        }
        let tag = Tag(messages);
        builders
            .entry(dst)
            .or_insert_with(Program::builder)
            .post_recv(NodeId(src as u32), tag);
        builders
            .entry(src)
            .or_insert_with(Program::builder)
            .send_async(NodeId(dst as u32), 4096, tag);
        messages += 1;
    }
    let mut programs = vec![Program::empty(); n];
    for (node, mut b) in builders {
        b.wait_all_sends();
        b.wait_all_recvs();
        programs[node] = b.build();
    }
    let report = simnet::simulate(&cube, &MachineParams::ipsc860(), programs).unwrap();
    let stats = &report.stats;
    assert_eq!(stats.transfers, 512);
    assert!(stats.transfers_blocked > 400, "{}", stats.transfers_blocked);
    assert!(
        stats.peak_transfers_live >= 256,
        "{}",
        stats.peak_transfers_live
    );
    assert!(
        stats.state_bytes < 2048 * stats.peak_transfers_live,
        "{} state bytes for {} live transfers on a d=20 fabric",
        stats.state_bytes,
        stats.peak_transfers_live
    );
}
