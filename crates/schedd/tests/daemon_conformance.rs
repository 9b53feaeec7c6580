//! Differential conformance: for a pinned request set (dims 2–6, every
//! registry entry, both backends), responses served through a live
//! daemon are **byte-identical** to in-process library calls — same
//! schedule (compared as commcache artifact bytes), same estimate, same
//! fingerprint. The daemon is a transport, never a semantic layer.

use commcache::{encode_artifact, CacheConfig, Fingerprint, InstanceKey};
use commrt::{compile, BackendKind, Scheme};
use commsched::{registry, MatrixDelta};
use schedd::{
    Client, ClientError, Endpoint, ErrorCode, Request, Response, SchemeChoice, Server,
    ServiceConfig, SubmitDeltaRequest, SubmitRequest, TopologySpec,
};
use simnet::{simulate, MachineParams};
use workloads::Generator;

/// The pinned request set: one d-regular instance per dimension.
fn pinned_requests() -> Vec<SubmitRequest> {
    let mut requests = Vec::new();
    for dims in 2u32..=6 {
        let n = 1usize << dims;
        let matrix = Generator::dregular(n, 3.min(n - 1), 2048).generate(u64::from(dims));
        for entry in registry::all() {
            for backend in BackendKind::all() {
                requests.push(SubmitRequest {
                    request_id: 0,
                    want_schedule: true,
                    topology: TopologySpec::Hypercube { dims },
                    scheduler: entry.name().to_string(),
                    scheme: SchemeChoice::Default,
                    backend,
                    seed: 1000 + u64::from(dims),
                    matrix: matrix.clone(),
                    cost_model: schedd::LinkCostModel::Uniform,
                });
            }
        }
    }
    requests
}

#[test]
fn daemon_responses_are_byte_identical_to_in_process_calls() {
    let endpoint = Endpoint::Unix(
        std::env::temp_dir().join(format!("schedd-conf-{}.sock", std::process::id())),
    );
    let handle = Server::start(ServiceConfig::default(), &endpoint).expect("daemon starts");
    let mut client = Client::connect(&endpoint).expect("connect");
    let params = MachineParams::ipsc860();

    let requests = pinned_requests();
    assert_eq!(
        requests.len(),
        5 * registry::all().len() * 2,
        "5 dims x 8 entries x 2 backends"
    );

    for req in &requests {
        let reply = client
            .submit(req.clone())
            .unwrap_or_else(|e| panic!("{} dims={}: {e}", req.scheduler, req.topology));

        // In-process reference: the same calls the daemon's pipeline
        // must reduce to.
        let entry = registry::find(&req.scheduler).unwrap();
        let topo = req.topology.build();
        let expect_schedule = entry.schedule(&req.matrix, topo.as_ref(), req.seed);
        let expect_fp = Fingerprint::compute(&req.matrix, topo.as_ref(), entry.name(), req.seed);
        let scheme = Scheme::for_scheduler(entry);
        let expect_estimate = req
            .backend
            .backend()
            .estimate(
                &params,
                topo.as_ref(),
                &req.matrix,
                &expect_schedule,
                scheme,
            )
            .expect("in-process estimate succeeds");

        assert_eq!(reply.fingerprint, expect_fp, "{}", req.scheduler);
        assert_eq!(reply.estimate, expect_estimate, "{}", req.scheduler);
        // Byte-level, not just structural: the artifact encoding of the
        // schedule the daemon returned equals the artifact encoding of
        // the locally compiled one.
        let got_schedule = reply.schedule.as_ref().expect("schedule streamed back");
        assert_eq!(
            encode_artifact(reply.fingerprint, got_schedule),
            encode_artifact(expect_fp, &expect_schedule),
            "{} dims={}",
            req.scheduler,
            req.topology
        );

        // The DES estimate must agree with the raw simulator run —
        // the daemon inherits the backend conformance contract.
        if req.backend == BackendKind::Des {
            let sim = simulate(
                topo.as_ref(),
                &params,
                compile(&req.matrix, &expect_schedule, scheme),
            )
            .expect("simulation succeeds");
            assert_eq!(
                reply.estimate.makespan_ns, sim.makespan_ns,
                "{}",
                req.scheduler
            );
        }
    }

    // Replaying the full set: every schedule is already cached, no new
    // compiles, and the bytes are *still* identical.
    let compiles_after_first_pass = handle.stats().compiles;
    for req in &requests {
        let reply = client.submit(req.clone()).expect("replay succeeds");
        assert!(
            !reply.freshly_compiled,
            "{} replay recompiled",
            req.scheduler
        );
        let entry = registry::find(&req.scheduler).unwrap();
        let topo = req.topology.build();
        let expect_schedule = entry.schedule(&req.matrix, topo.as_ref(), req.seed);
        assert_eq!(
            encode_artifact(reply.fingerprint, reply.schedule.as_ref().unwrap()),
            encode_artifact(reply.fingerprint, &expect_schedule),
        );
    }
    assert_eq!(handle.stats().compiles, compiles_after_first_pass);

    // One compile per unique (matrix, scheduler, seed): backends share
    // the fingerprint, so 5 dims x 8 entries.
    assert_eq!(compiles_after_first_pass, 5 * registry::all().len() as u64);
    handle.shutdown();
}

#[test]
fn delta_submits_are_byte_identical_to_full_submits() {
    // Daemons A and B run identical incremental configurations and are
    // seeded with the same base. A answers a `SubmitDelta`; B answers a
    // full submit of the same perturbed matrix. The reply frames must
    // be **byte-identical**: the delta frame is transport compression,
    // and patching is deterministic across processes — two daemons
    // given the same base and the same drift serve the same schedule.
    let endpoint_a = Endpoint::Unix(
        std::env::temp_dir().join(format!("schedd-delta-a-{}.sock", std::process::id())),
    );
    let endpoint_b = Endpoint::Unix(
        std::env::temp_dir().join(format!("schedd-delta-b-{}.sock", std::process::id())),
    );
    let incremental_config = ServiceConfig {
        cache: CacheConfig::in_memory().incremental_default(),
        ..Default::default()
    };
    let daemon_a = Server::start(incremental_config.clone(), &endpoint_a).expect("daemon A starts");
    let daemon_b = Server::start(incremental_config, &endpoint_b).expect("daemon B starts");
    let mut client_a = Client::connect(&endpoint_a).expect("connect A");
    let mut client_b = Client::connect(&endpoint_b).expect("connect B");

    let dims = 4u32;
    let base = Generator::dregular(16, 4, 2048).generate(99);
    let cube = TopologySpec::Hypercube { dims }.build();
    let base_key = InstanceKey::compute(&base, cube.as_ref());

    // ~1% perturbation: drop one message, add one elsewhere.
    let mut target = base.clone();
    let (src, dst, _) = base.messages().next().expect("non-empty base");
    target.set(src.index(), dst.index(), 0);
    let free_dst = (0..16)
        .find(|&d| d != src.index() && target.get(src.index(), d) == 0)
        .expect("sparse row has a free cell");
    target.set(src.index(), free_dst, 512);
    let delta = MatrixDelta::diff(&base, &target).expect("same size");

    for (i, entry) in registry::all().iter().enumerate() {
        let request_id = 1000 + i as u64;
        // Seed both daemons with the base so each has the same schedule
        // to patch from.
        for client in [&mut client_a, &mut client_b] {
            client
                .submit(SubmitRequest {
                    request_id: 0,
                    want_schedule: true,
                    topology: TopologySpec::Hypercube { dims },
                    scheduler: entry.name().to_string(),
                    scheme: SchemeChoice::Default,
                    backend: BackendKind::Des,
                    seed: 7,
                    matrix: base.clone(),
                    cost_model: schedd::LinkCostModel::Uniform,
                })
                .expect("base submit");
        }

        // Raw send/recv so both daemons see the same request_id and the
        // response frames can be compared byte for byte.
        client_a
            .send(&Request::SubmitDelta(SubmitDeltaRequest {
                request_id,
                want_schedule: true,
                topology: TopologySpec::Hypercube { dims },
                scheduler: entry.name().to_string(),
                scheme: SchemeChoice::Default,
                backend: BackendKind::Des,
                seed: 7,
                base: base_key,
                delta: delta.clone(),
                cost_model: schedd::LinkCostModel::Uniform,
            }))
            .expect("send delta");
        let via_delta = client_a.recv().expect("delta reply");

        client_b
            .send(&Request::Submit(SubmitRequest {
                request_id,
                want_schedule: true,
                topology: TopologySpec::Hypercube { dims },
                scheduler: entry.name().to_string(),
                scheme: SchemeChoice::Default,
                backend: BackendKind::Des,
                seed: 7,
                matrix: target.clone(),
                cost_model: schedd::LinkCostModel::Uniform,
            }))
            .expect("send full");
        let via_full = client_b.recv().expect("full reply");

        assert!(
            matches!(via_delta, Response::Schedule(_)),
            "{}: delta submit failed: {via_delta:?}",
            entry.name()
        );
        assert_eq!(
            via_delta.encode(),
            via_full.encode(),
            "{}: delta and full replies differ",
            entry.name()
        );
    }

    // The patching schedulers served their deltas by patching; AC (and
    // any validation reject) fell back — but every delta was answered.
    let stats = daemon_a.stats();
    assert_eq!(stats.delta_submits, registry::all().len() as u64);
    assert!(
        stats.incr_patches >= 6,
        "expected most registry entries to patch, got {}",
        stats.incr_patches
    );
    assert_eq!(stats.incr_validation_rejections, 0);
    assert!(stats.patch_rate() > 0.5);

    // A delta against a base the daemon never saw is a typed
    // unknown-base error, and the client-side fallback (full submit)
    // then succeeds.
    let bogus = InstanceKey::from_bytes([0xAB; 16]);
    let err = client_a
        .submit_delta(SubmitDeltaRequest {
            request_id: 0,
            want_schedule: false,
            topology: TopologySpec::Hypercube { dims },
            scheduler: "RS_NL".into(),
            scheme: SchemeChoice::Default,
            backend: BackendKind::Des,
            seed: 7,
            base: bogus,
            delta: delta.clone(),
            cost_model: schedd::LinkCostModel::Uniform,
        })
        .expect_err("unknown base must not be served");
    match err {
        ClientError::Server(reply) => assert_eq!(reply.code, ErrorCode::UnknownBase),
        other => panic!("expected a typed server error, got {other:?}"),
    }

    // A daemon without the incremental layer declines every delta with
    // the same recoverable code.
    let endpoint_plain = Endpoint::Unix(
        std::env::temp_dir().join(format!("schedd-delta-plain-{}.sock", std::process::id())),
    );
    let daemon_plain =
        Server::start(ServiceConfig::default(), &endpoint_plain).expect("plain daemon starts");
    let err = Client::connect(&endpoint_plain)
        .expect("connect plain")
        .submit_delta(SubmitDeltaRequest {
            request_id: 0,
            want_schedule: false,
            topology: TopologySpec::Hypercube { dims },
            scheduler: "RS_NL".into(),
            scheme: SchemeChoice::Default,
            backend: BackendKind::Des,
            seed: 7,
            base: base_key,
            delta,
            cost_model: schedd::LinkCostModel::Uniform,
        })
        .expect_err("non-incremental daemon must decline deltas");
    match err {
        ClientError::Server(reply) => assert_eq!(reply.code, ErrorCode::UnknownBase),
        other => panic!("expected a typed server error, got {other:?}"),
    }

    daemon_a.shutdown();
    daemon_b.shutdown();
    daemon_plain.shutdown();
}

#[test]
fn torus_and_fattree_submits_conform_too() {
    // The new wire kinds inherit the transport contract: replies for
    // torus and fat-tree submits are byte-identical (as artifact bytes)
    // to in-process compiles, estimates match on both backends, and a
    // scheduler that declines the fabric declines with the same typed
    // code through the socket as in-process.
    let endpoint = Endpoint::Unix(
        std::env::temp_dir().join(format!("schedd-conf-topo-{}.sock", std::process::id())),
    );
    let handle = Server::start(ServiceConfig::default(), &endpoint).expect("daemon starts");
    let mut client = Client::connect(&endpoint).expect("connect");
    let params = MachineParams::ipsc860();

    let specs = [
        TopologySpec::Torus {
            extents: vec![4, 4],
        },
        TopologySpec::Torus {
            extents: vec![2, 2, 2, 2],
        },
        TopologySpec::FatTree { k: 4 },
    ];
    let matrix = Generator::dregular(16, 3, 2048).generate(41);
    let mut served = 0u32;
    let mut declined = 0u32;
    for spec in &specs {
        let topo = spec.build();
        for entry in registry::all() {
            let supported = entry.supports_topology(topo.as_ref());
            for backend in BackendKind::all() {
                let req = SubmitRequest {
                    request_id: 0,
                    want_schedule: true,
                    topology: spec.clone(),
                    scheduler: entry.name().to_string(),
                    scheme: SchemeChoice::Default,
                    backend,
                    seed: 7,
                    matrix: matrix.clone(),
                    cost_model: schedd::LinkCostModel::Uniform,
                };
                if !supported {
                    let err = client
                        .submit(req)
                        .expect_err("unsupported fabric must decline");
                    match err {
                        ClientError::Server(reply) => {
                            assert_eq!(
                                reply.code,
                                ErrorCode::UnsupportedTopology,
                                "{} on {spec}",
                                entry.name()
                            );
                        }
                        other => panic!("expected a typed decline, got {other:?}"),
                    }
                    declined += 1;
                    continue;
                }
                let reply = client
                    .submit(req.clone())
                    .unwrap_or_else(|e| panic!("{} on {spec}: {e}", entry.name()));
                let expect_schedule = entry.schedule(&req.matrix, topo.as_ref(), req.seed);
                let expect_fp =
                    Fingerprint::compute(&req.matrix, topo.as_ref(), entry.name(), req.seed);
                let scheme = Scheme::for_scheduler(*entry);
                let expect_estimate = backend
                    .backend()
                    .estimate(
                        &params,
                        topo.as_ref(),
                        &req.matrix,
                        &expect_schedule,
                        scheme,
                    )
                    .expect("in-process estimate succeeds");
                assert_eq!(reply.fingerprint, expect_fp, "{} on {spec}", entry.name());
                assert_eq!(
                    reply.estimate,
                    expect_estimate,
                    "{} on {spec}",
                    entry.name()
                );
                assert_eq!(
                    encode_artifact(reply.fingerprint, reply.schedule.as_ref().unwrap()),
                    encode_artifact(expect_fp, &expect_schedule),
                    "{} on {spec}",
                    entry.name()
                );
                served += 1;
            }
        }
    }
    // LP declines all three non-cube fabrics on both backends; everyone
    // else serves them.
    assert_eq!(declined, 3 * 2);
    assert_eq!(
        served,
        3 * (registry::all().len() as u32 - 1) * 2,
        "every deterministic-routing scheduler serves every fabric"
    );
    handle.shutdown();
}

#[test]
fn explicit_scheme_choices_conform_too() {
    // S1 and S2 forced explicitly (not the per-scheduler default) must
    // also match in-process estimates — the scheme byte travels intact.
    let endpoint = Endpoint::Unix(
        std::env::temp_dir().join(format!("schedd-conf-scheme-{}.sock", std::process::id())),
    );
    let handle = Server::start(ServiceConfig::default(), &endpoint).expect("daemon starts");
    let mut client = Client::connect(&endpoint).expect("connect");
    let params = MachineParams::ipsc860();

    let matrix = Generator::dregular(16, 3, 1024).generate(77);
    for (choice, scheme) in [
        (SchemeChoice::S1, Scheme::S1),
        (SchemeChoice::S2, Scheme::S2),
    ] {
        for backend in BackendKind::all() {
            let req = SubmitRequest {
                request_id: 0,
                want_schedule: false,
                topology: TopologySpec::Hypercube { dims: 4 },
                scheduler: "AC".into(),
                scheme: choice,
                backend,
                seed: 0,
                matrix: matrix.clone(),
                cost_model: schedd::LinkCostModel::Uniform,
            };
            let reply = client.submit(req.clone()).expect("submit succeeds");
            let entry = registry::find("AC").unwrap();
            let topo = req.topology.build();
            let schedule = entry.schedule(&req.matrix, topo.as_ref(), req.seed);
            let expect = backend
                .backend()
                .estimate(&params, topo.as_ref(), &req.matrix, &schedule, scheme)
                .unwrap();
            assert_eq!(reply.estimate, expect, "{choice:?} on {}", backend.label());
            assert!(reply.schedule.is_none(), "schedule not requested");
        }
    }
    handle.shutdown();
}

/// `com` with its first message moved to the first free destination of
/// its row: one structural edit, well inside the patch threshold.
fn moved(com: &commsched::CommMatrix) -> commsched::CommMatrix {
    let mut next = com.clone();
    let (src, dst, bytes) = com.messages().next().expect("non-empty matrix");
    let (src, dst) = (src.index(), dst.index());
    next.set(src, dst, 0);
    let free = (0..com.n())
        .find(|&d| d != src && d != dst && com.get(src, d) == 0)
        .expect("a sparse row has a free cell");
    next.set(src, free, bytes);
    next
}

#[test]
fn an_estimate_answers_only_for_the_schedule_it_priced() {
    // An incremental daemon patches B from A and memoises the patched
    // schedule's estimate. Then B's schedule and every base leave memory
    // (the schedule cache holds nothing, the base cache five), and B
    // comes back: it compiles cold, to another schedule, and its reply
    // must carry that schedule's own estimate, not the memo's.
    let params = MachineParams::ipsc860();
    let mut recompiled_differently = 0;
    for scheduler in ["RS_N", "RS_NL", "GREEDY"] {
        let state = schedd::ServiceState::new(&ServiceConfig {
            cache: CacheConfig::in_memory()
                .with_byte_budget(1)
                .with_incremental(commcache::IncrementalConfig::default().with_byte_budget(40_000)),
            ..ServiceConfig::default()
        });
        for trial in 0..4u64 {
            let request = |matrix: &commsched::CommMatrix| SubmitRequest {
                request_id: 0,
                want_schedule: true,
                topology: TopologySpec::Hypercube { dims: 6 },
                scheduler: scheduler.to_string(),
                scheme: SchemeChoice::Default,
                backend: BackendKind::Analytic,
                seed: 5,
                matrix: matrix.clone(),
                cost_model: schedd::LinkCostModel::Uniform,
            };
            let a = Generator::dregular(64, 8, 1024).generate(100 + trial);
            let b = moved(&a);
            state.process(&request(&a)).expect("A compiles");
            let patched = state.process(&request(&b)).expect("B patches from A");
            for filler in 0..6 {
                let other = Generator::dregular(64, 8, 1024).generate(1000 * trial + filler);
                state.process(&request(&other)).expect("a filler compiles");
            }
            let again = state.process(&request(&b)).expect("B compiles again");
            let schedule = again.schedule.as_ref().expect("asked for");
            recompiled_differently += usize::from(patched.schedule.as_ref() != Some(schedule));
            let topo = TopologySpec::Hypercube { dims: 6 }.build();
            let entry = registry::find(scheduler).unwrap();
            let direct = BackendKind::Analytic
                .backend()
                .estimate(
                    &params,
                    topo.as_ref(),
                    &b,
                    schedule,
                    Scheme::for_scheduler(entry),
                )
                .expect("prices");
            assert_eq!(again.estimate, direct, "{scheduler} trial {trial}");
        }
    }
    assert!(
        recompiled_differently > 0,
        "no trial recompiled B differently"
    );
}
