//! One scripted session against a real daemon, pinned: every response
//! body by its [`checksum64`], then the daemon's timing-independent
//! counters.
//!
//! The script keeps one request in flight, so each answer and each
//! counter is a function of the script alone. It covers the shapes a
//! repeat-serving daemon distinguishes: first submits that compile and
//! exact repeats that hit; the same matrix under another seed, another
//! registry entry and another backend; a non-uniform cost model (same
//! schedule, its own estimate); a delta chain on a daemon with the
//! incremental layer, one delta naming an unknown base; a malformed body;
//! admission errors; and served schedules on the walked fabrics (an 8x8
//! torus and an 8x8 mesh) under RS_NL and GREEDY on both backends. How
//! the daemon routes a request between its threads, and how it keeps
//! the fabrics it routes on, may change, but none of the bytes or counts
//! below may.

use commcache::{checksum64, CacheConfig, InstanceKey};
use commrt::BackendKind;
use commsched::{CommMatrix, MatrixDelta};
use schedd::{
    read_frame, write_frame, DaemonStats, Endpoint, LinkCostModel, Request, Response, SchemeChoice,
    Server, ServerHandle, ServiceConfig, Stream, SubmitDeltaRequest, SubmitRequest, TopologySpec,
};
use workloads::Generator;

const DIMS: u32 = 4;

fn start(tag: &str, config: ServiceConfig) -> (ServerHandle, Stream) {
    let endpoint = Endpoint::Unix(
        std::env::temp_dir().join(format!("schedd-session-{tag}-{}.sock", std::process::id())),
    );
    let handle = Server::start(config, &endpoint).expect("daemon starts");
    let stream = endpoint.connect().expect("connect");
    (handle, stream)
}

fn submit(request_id: u64, matrix: &CommMatrix) -> SubmitRequest {
    SubmitRequest {
        request_id,
        want_schedule: true,
        topology: TopologySpec::Hypercube { dims: DIMS },
        scheduler: "RS_NL".into(),
        scheme: SchemeChoice::Default,
        backend: BackendKind::Analytic,
        seed: 1,
        matrix: matrix.clone(),
        cost_model: LinkCostModel::Uniform,
    }
}

fn delta(request_id: u64, base: &CommMatrix, target: &CommMatrix) -> SubmitDeltaRequest {
    let cube = TopologySpec::Hypercube { dims: DIMS }.build();
    SubmitDeltaRequest {
        request_id,
        want_schedule: true,
        topology: TopologySpec::Hypercube { dims: DIMS },
        scheduler: "RS_NL".into(),
        scheme: SchemeChoice::Default,
        backend: BackendKind::Analytic,
        seed: 1,
        base: InstanceKey::compute(base, cube.as_ref()),
        delta: MatrixDelta::diff(base, target).expect("same size"),
        cost_model: LinkCostModel::Uniform,
    }
}

/// `com` with its first message dropped and `bytes` sent from that
/// message's source to the first free destination instead.
fn drift(com: &CommMatrix, bytes: u32) -> CommMatrix {
    let mut next = com.clone();
    let (src, dst, _) = com.messages().next().expect("non-empty matrix");
    next.set(src.index(), dst.index(), 0);
    let free = (0..com.n())
        .find(|&d| d != src.index() && d != dst.index() && next.get(src.index(), d) == 0)
        .expect("a sparse row has a free cell");
    next.set(src.index(), free, bytes);
    next
}

/// One framed body out, one framed body back.
fn call(stream: &mut Stream, body: &[u8]) -> Vec<u8> {
    write_frame(stream, body).expect("write");
    read_frame(stream).expect("read").expect("a reply frame")
}

/// What one reply was: a schedule (and whether it compiled) or an error.
fn kind(body: &[u8]) -> String {
    match Response::decode(body).expect("reply decodes") {
        Response::Schedule(reply) if reply.freshly_compiled => "compiled".into(),
        Response::Schedule(_) => "served".into(),
        Response::Error(err) => format!("{:?}", err.code),
        other => panic!("unexpected reply {other:?}"),
    }
}

/// The counters a one-in-flight session fixes, once the daemon is idle.
/// In order: submits, completed, compiles; cache requests, memory hits
/// and misses; estimate hits and misses; the four incremental counters
/// (base hits, patches, fallbacks, validation rejections); malformed and
/// other errors; delta submits.
fn settled_counters(stream: &mut Stream) -> [u64; 15] {
    for _ in 0..10_000 {
        let body = call(stream, &Request::Stats { request_id: 0 }.encode());
        let stats: DaemonStats = match Response::decode(&body).expect("stats decode") {
            Response::Stats { stats, .. } => stats,
            other => panic!("expected stats, got {other:?}"),
        };
        // A job leaves `inflight` when its reply is laid out.
        if stats.inflight == 0 {
            return [
                stats.submits,
                stats.completed,
                stats.compiles,
                stats.cache_requests,
                stats.cache_mem_hits,
                stats.cache_misses,
                stats.estimate_hits,
                stats.estimate_misses,
                stats.incr_base_hits,
                stats.incr_patches,
                stats.incr_fallbacks,
                stats.incr_validation_rejections,
                stats.errors_malformed,
                stats.errors_other,
                stats.delta_submits,
            ];
        }
        std::thread::yield_now();
    }
    panic!("the daemon never went idle");
}

type Step = (&'static str, Vec<u8>);

fn run(stream: &mut Stream, script: Vec<Step>) -> Vec<(&'static str, String, u64)> {
    script
        .into_iter()
        .map(|(label, body)| {
            let reply = call(stream, &body);
            (label, kind(&reply), checksum64(&reply))
        })
        .collect()
}

fn assert_pinned(got: &[(&str, String, u64)], want: &[(&str, &str, u64)]) {
    let got: Vec<(&str, &str, u64)> = got.iter().map(|(l, k, s)| (*l, k.as_str(), *s)).collect();
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g, w, "step {}", w.0);
    }
    assert_eq!(got.len(), want.len(), "script length");
}

#[test]
fn a_plain_daemon_session_is_pinned() {
    let (handle, mut stream) = start("plain", ServiceConfig::default());
    let m = Generator::dregular(16, 4, 2048).generate(99);
    let encode = |req: SubmitRequest| Request::Submit(req).encode();
    let mut seeded = submit(0, &m);
    seeded.seed = 2;
    let mut greedy = submit(0, &m);
    greedy.scheduler = "GREEDY".into();
    let mut des = submit(0, &m);
    des.backend = BackendKind::Des;
    let mut costed = submit(0, &m);
    costed.cost_model = "loggp:o=5000,g=1000,G=2.0".parse().unwrap();
    let mut unknown = submit(0, &m);
    unknown.scheduler = "NO_SUCH_ALGORITHM".into();
    // LP runs on e-cube hypercubes only.
    let mut declined = submit(0, &m);
    declined.scheduler = "LP".into();
    declined.topology = TopologySpec::Mesh2d { rows: 4, cols: 4 };
    let mut quiet = submit(0, &m);
    quiet.want_schedule = false;

    let mut script: Vec<Step> = Vec::new();
    let mut step = |label, mut req: SubmitRequest| {
        req.request_id = script.len() as u64 + 1;
        script.push((label, encode(req)));
    };
    step("first", submit(0, &m));
    step("repeat", submit(0, &m));
    step("seed 2", seeded.clone());
    step("seed 2 repeat", seeded);
    step("GREEDY", greedy.clone());
    step("GREEDY repeat", greedy);
    step("DES", des.clone());
    step("DES repeat", des);
    step("loggp", costed.clone());
    step("loggp repeat", costed);
    step("no schedule", quiet);
    step("unknown entry", unknown);
    step("LP on a mesh", declined);
    script.push(("malformed", vec![0x55, 1, 2, 3]));
    script.push(("after malformed", encode(submit(99, &m))));

    let got = run(&mut stream, script);
    assert_pinned(
        &got,
        &[
            ("first", "compiled", 0x71e1805ecaeb1ad8),
            ("repeat", "served", 0x9d2058404065e18a),
            ("seed 2", "compiled", 0xfbc8c14c787e7db0),
            ("seed 2 repeat", "served", 0x5378c222f560aa28),
            ("GREEDY", "compiled", 0xc00b3f57fe1caa51),
            ("GREEDY repeat", "served", 0x913f431231ab06d9),
            ("DES", "served", 0xdc925e282043a706),
            ("DES repeat", "served", 0x9c251272bef51b8e),
            ("loggp", "served", 0x4bdde8eda707f429),
            ("loggp repeat", "served", 0xca5f815304a51f3b),
            ("no schedule", "served", 0x3743880aba18d0b0),
            ("unknown entry", "UnknownScheduler", 0x69a80b896bba7553),
            ("LP on a mesh", "UnsupportedTopology", 0xc7e36e41cc0adf2b),
            ("malformed", "Malformed", 0xa6110f2c161c41fb),
            ("after malformed", "served", 0x7cd1535ea3dcd10c),
        ],
    );
    assert_eq!(
        settled_counters(&mut stream),
        [14, 12, 3, 12, 9, 3, 7, 5, 0, 0, 0, 0, 1, 2, 0]
    );
    drop(stream);
    handle.shutdown();
}

#[test]
fn an_incremental_daemon_session_is_pinned() {
    let (handle, mut stream) = start(
        "incr",
        ServiceConfig {
            cache: CacheConfig::in_memory().incremental_default(),
            ..ServiceConfig::default()
        },
    );
    let m0 = Generator::dregular(16, 4, 2048).generate(99);
    let m1 = drift(&m0, 512);
    let m2 = drift(&m1, 768);
    let never = Generator::dregular(16, 4, 2048).generate(7);

    let script: Vec<Step> = vec![
        ("base", Request::Submit(submit(1, &m0)).encode()),
        ("base repeat", Request::Submit(submit(2, &m0)).encode()),
        ("delta 1", Request::SubmitDelta(delta(3, &m0, &m1)).encode()),
        ("delta 2", Request::SubmitDelta(delta(4, &m1, &m2)).encode()),
        (
            "delta 2 repeat",
            Request::SubmitDelta(delta(5, &m1, &m2)).encode(),
        ),
        ("full m2", Request::Submit(submit(6, &m2)).encode()),
        (
            "unknown base",
            Request::SubmitDelta(delta(7, &never, &m1)).encode(),
        ),
        ("base again", Request::Submit(submit(8, &m0)).encode()),
    ];
    let got = run(&mut stream, script);
    assert_pinned(
        &got,
        &[
            ("base", "compiled", 0x71e1805ecaeb1ad8),
            ("base repeat", "served", 0x9d2058404065e18a),
            ("delta 1", "compiled", 0x8b54c38779b7acc0),
            ("delta 2", "compiled", 0x1ea481a2d43ac4b5),
            ("delta 2 repeat", "served", 0x358d6fd0adfabae5),
            ("full m2", "served", 0xce16bbe686221c43),
            ("unknown base", "UnknownBase", 0xc621aaa5fb7588ec),
            ("base again", "served", 0x1641531fb74ccc0d),
        ],
    );
    assert_eq!(
        settled_counters(&mut stream),
        [7, 7, 3, 7, 4, 3, 4, 3, 2, 2, 0, 0, 0, 1, 4]
    );
    drop(stream);
    handle.shutdown();
}

#[test]
fn a_walked_fabric_session_is_pinned() {
    // RS_NL reserves every message's circuit and both backends price
    // them, so these replies pin the torus' and the mesh's routes as the
    // daemon reads them, not only as the fabrics compute them.
    let (handle, mut stream) = start("walked", ServiceConfig::default());
    let m = Generator::dregular(64, 4, 2048).generate(99);
    let torus = TopologySpec::Torus {
        extents: vec![8, 8],
    };
    let mesh = TopologySpec::Mesh2d { rows: 8, cols: 8 };
    let (analytic, des) = (BackendKind::Analytic, BackendKind::Des);
    let script: Vec<Step> = [
        ("torus RS_NL", &torus, "RS_NL", analytic),
        ("torus RS_NL DES", &torus, "RS_NL", des),
        ("torus RS_NL repeat", &torus, "RS_NL", analytic),
        ("torus GREEDY DES", &torus, "GREEDY", des),
        ("torus GREEDY", &torus, "GREEDY", analytic),
        ("mesh RS_NL", &mesh, "RS_NL", analytic),
        ("mesh RS_NL DES", &mesh, "RS_NL", des),
        ("mesh RS_NL repeat", &mesh, "RS_NL", analytic),
        ("mesh GREEDY DES", &mesh, "GREEDY", des),
        ("mesh GREEDY", &mesh, "GREEDY", analytic),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (label, topology, scheduler, backend))| {
        let mut req = submit(i as u64 + 1, &m);
        req.topology = topology.clone();
        req.scheduler = scheduler.into();
        req.backend = backend;
        (label, Request::Submit(req).encode())
    })
    .collect();
    let got = run(&mut stream, script);
    assert_pinned(
        &got,
        &[
            ("torus RS_NL", "compiled", 0x0cbc3b2d603b27d4),
            ("torus RS_NL DES", "served", 0x2f6c9428fe326db9),
            ("torus RS_NL repeat", "served", 0x9f618359099cbe68),
            ("torus GREEDY DES", "compiled", 0x80173a3218d05078),
            ("torus GREEDY", "served", 0x29281d9da09d4470),
            ("mesh RS_NL", "compiled", 0xe3911b89e6c10e37),
            ("mesh RS_NL DES", "served", 0x42803cae296b2131),
            ("mesh RS_NL repeat", "served", 0x5bc978778a6e25b0),
            ("mesh GREEDY DES", "compiled", 0xd3309590567dbfcf),
            ("mesh GREEDY", "served", 0x400cb0bac9c3853c),
        ],
    );
    assert_eq!(
        settled_counters(&mut stream),
        [10, 10, 4, 10, 6, 4, 2, 8, 0, 0, 0, 0, 0, 0, 0]
    );
    drop(stream);
    handle.shutdown();
}
