//! Fault injection against a live (in-process) daemon: mid-stream
//! disconnects, hostile frame headers, quota exhaustion, and full-queue
//! overload each surface their documented typed error — and the daemon
//! keeps serving, proven by a follow-up successful request in the same
//! test.

use std::io::Write;
use std::path::PathBuf;

use commrt::BackendKind;
use schedd::{
    read_frame, write_frame, Client, ClientError, Endpoint, ErrorCode, Request, Response,
    SchemeChoice, Server, ServerHandle, ServiceConfig, Stream, SubmitDeltaRequest, SubmitRequest,
    TopologySpec,
};

fn sock_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("schedd-fault-{tag}-{}.sock", std::process::id()))
}

fn start(tag: &str, config: ServiceConfig) -> (ServerHandle, Endpoint) {
    let endpoint = Endpoint::Unix(sock_path(tag));
    let handle = Server::start(config, &endpoint).expect("daemon starts");
    (handle, endpoint)
}

fn request(seed: u64) -> SubmitRequest {
    SubmitRequest {
        request_id: 0,
        want_schedule: false,
        topology: TopologySpec::Hypercube { dims: 3 },
        scheduler: "RS_NL".into(),
        scheme: SchemeChoice::Default,
        backend: BackendKind::Analytic,
        seed,
        matrix: workloads::Generator::dregular(8, 3, 512).generate(seed),
        cost_model: schedd::LinkCostModel::Uniform,
    }
}

/// The "daemon still serves" probe every fault test ends with.
fn assert_serving(endpoint: &Endpoint, seed: u64) {
    let mut client = Client::connect(endpoint).expect("connect after fault");
    let reply = client.submit(request(seed)).expect("daemon still serves");
    assert!(reply.estimate.makespan_ns > 0);
}

#[test]
fn disconnect_mid_frame_is_counted_and_survived() {
    let (handle, endpoint) = start("midstream", ServiceConfig::default());
    // Write half a frame, then vanish.
    {
        let mut stream = endpoint.connect().unwrap();
        stream.write_all(&schedd::FRAME_MAGIC).unwrap();
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[0u8; 10]).unwrap(); // 90 bytes short
    }
    // The daemon notices the torn stream and keeps serving.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while handle.stats().disconnects_midstream == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "disconnect not observed"
        );
        std::thread::yield_now();
    }
    assert_serving(&endpoint, 1);
    assert_eq!(handle.stats().disconnects_midstream, 1);
    handle.shutdown();
}

#[test]
fn hostile_headers_get_typed_errors_and_do_not_kill_the_daemon() {
    let (handle, endpoint) = start("hostile", ServiceConfig::default());

    // Wrong magic: the daemon answers Malformed, then hangs up.
    {
        let mut stream = endpoint.connect().unwrap();
        stream
            .write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        stream.flush().unwrap();
        let resp = schedd::read_frame(&mut stream)
            .expect("error frame arrives")
            .map(|body| Response::decode(&body).expect("decodes"));
        match resp {
            Some(Response::Error(err)) => assert_eq!(err.code, ErrorCode::Malformed),
            other => panic!("expected Malformed error frame, got {other:?}"),
        }
    }

    // Oversized length header: same typed rejection.
    {
        let mut stream = endpoint.connect().unwrap();
        stream.write_all(&schedd::FRAME_MAGIC).unwrap();
        stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
        stream.flush().unwrap();
        let resp = schedd::read_frame(&mut stream)
            .expect("error frame arrives")
            .map(|body| Response::decode(&body).expect("decodes"));
        match resp {
            Some(Response::Error(err)) => assert_eq!(err.code, ErrorCode::Malformed),
            other => panic!("expected Malformed error frame, got {other:?}"),
        }
    }

    // Corrupted body checksum: typed rejection again.
    {
        let mut stream = endpoint.connect().unwrap();
        let mut wire = Vec::new();
        schedd::write_frame(&mut wire, &Request::Stats { request_id: 1 }.encode()).unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0xFF;
        stream.write_all(&wire).unwrap();
        stream.flush().unwrap();
        let resp = schedd::read_frame(&mut stream)
            .expect("error frame arrives")
            .map(|body| Response::decode(&body).expect("decodes"));
        match resp {
            Some(Response::Error(err)) => assert_eq!(err.code, ErrorCode::Malformed),
            other => panic!("expected Malformed error frame, got {other:?}"),
        }
    }

    // A well-framed but undecodable body: Malformed, and the SAME
    // connection stays usable (framing survived).
    {
        let mut client = Client::connect(&endpoint).unwrap();
        let mut stream = endpoint.connect().unwrap();
        let mut wire = Vec::new();
        schedd::write_frame(&mut wire, &[0x55, 1, 2, 3]).unwrap();
        stream.write_all(&wire).unwrap();
        stream.flush().unwrap();
        let body = schedd::read_frame(&mut stream).unwrap().unwrap();
        match Response::decode(&body).unwrap() {
            Response::Error(err) => {
                assert_eq!(err.code, ErrorCode::Malformed);
                assert_eq!(err.request_id, 0, "id unknown for undecodable bodies");
            }
            other => panic!("expected error, got {other:?}"),
        }
        drop(stream);
        let reply = client.submit(request(2)).expect("same daemon still serves");
        assert!(reply.freshly_compiled);
    }

    assert!(handle.stats().errors_malformed >= 4);
    assert_serving(&endpoint, 3);
    handle.shutdown();
}

#[test]
fn an_old_protocol_peer_gets_one_malformed_frame_and_a_closed_connection() {
    let (handle, endpoint) = start("oldpeer", ServiceConfig::default());
    // A well-formed SDF1 frame: `Stats { request_id: 1 }` under the old
    // magic with SDF1's trailer, the FNV-1a-64 of the body — a literal,
    // since nothing in the tree computes that sum any more (SDF2 frames
    // end in `checksum64`).
    let body = Request::Stats { request_id: 1 }.encode();
    let mut wire = b"SDF1".to_vec();
    wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
    wire.extend_from_slice(&body);
    wire.extend_from_slice(&0xedde_65ec_42d6_cbc4u64.to_le_bytes());
    let mut stream = endpoint.connect().unwrap();
    stream.write_all(&wire).unwrap();
    stream.flush().unwrap();
    let reply = schedd::read_frame(&mut stream)
        .expect("error frame arrives")
        .expect("before the close");
    match Response::decode(&reply).expect("decodes") {
        Response::Error(err) => {
            assert_eq!(err.code, ErrorCode::Malformed);
            assert!(err.detail.contains("magic"), "{}", err.detail);
        }
        other => panic!("expected Malformed error frame, got {other:?}"),
    }
    // No negotiation and no second frame: the daemon hangs up (a reset
    // rather than a clean EOF when it closed with our bytes unread).
    match schedd::read_frame(&mut stream) {
        Ok(None) | Err(schedd::FrameError::Io(_)) => {}
        other => panic!("expected a closed connection, got {other:?}"),
    }
    assert_eq!(handle.stats().errors_malformed, 1);
    assert_serving(&endpoint, 4);
    handle.shutdown();
}

#[test]
fn unknown_scheduler_and_bad_topology_are_typed_not_fatal() {
    let (handle, endpoint) = start("admission", ServiceConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();

    let mut unknown = request(1);
    unknown.scheduler = "NO_SUCH_ALGORITHM".into();
    match client.submit(unknown) {
        Err(ClientError::Server(err)) => assert_eq!(err.code, ErrorCode::UnknownScheduler),
        other => panic!("expected UnknownScheduler, got {other:?}"),
    }

    // LP declines meshes: UnsupportedTopology through the wire.
    let mut mesh = request(1);
    mesh.scheduler = "LP".into();
    mesh.topology = TopologySpec::Mesh2d { rows: 2, cols: 4 };
    mesh.matrix = {
        let mut m = commsched::CommMatrix::new(8);
        m.set(0, 1, 64);
        m
    };
    match client.submit(mesh) {
        Err(ClientError::Server(err)) => assert_eq!(err.code, ErrorCode::UnsupportedTopology),
        other => panic!("expected UnsupportedTopology, got {other:?}"),
    }

    // The very same connection still serves good requests.
    let reply = client.submit(request(1)).expect("still serving");
    assert!(reply.estimate.makespan_ns > 0);
    assert_eq!(handle.stats().errors_other, 2);
    handle.shutdown();
}

#[test]
fn quota_exhaustion_is_typed_and_recoverable() {
    let quota = 4;
    let (handle, endpoint) = start(
        "quota",
        ServiceConfig {
            max_inflight_per_client: quota,
            ..ServiceConfig::default()
        },
    );
    // Freeze the workers so in-flight occupancy is deterministic.
    handle.pause_workers();

    let mut client = Client::connect(&endpoint).unwrap();
    for _ in 0..quota {
        let id = client.next_request_id();
        let mut req = request(9);
        req.request_id = id;
        client.send(&Request::Submit(req)).unwrap();
    }
    // The quota is full; one more submit is rejected immediately.
    let overflow_id = client.next_request_id();
    let mut overflow = request(9);
    overflow.request_id = overflow_id;
    client.send(&Request::Submit(overflow)).unwrap();
    match client
        .recv()
        .expect("rejection arrives while workers are paused")
    {
        Response::Error(err) => {
            assert_eq!(err.code, ErrorCode::QuotaExceeded);
            assert_eq!(err.request_id, overflow_id);
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    assert_eq!(handle.stats().rejected_quota, 1);

    // Unfreeze: the queued work completes, the quota frees up, and the
    // same connection serves again.
    handle.resume_workers();
    for _ in 0..quota {
        match client.recv().expect("queued responses drain") {
            Response::Schedule(_) => {}
            other => panic!("expected schedules, got {other:?}"),
        }
    }
    let reply = client.submit(request(9)).expect("quota freed");
    assert!(!reply.freshly_compiled, "duplicate of the drained requests");
    handle.shutdown();
}

#[test]
fn full_queue_overload_is_typed_and_recoverable() {
    let (handle, endpoint) = start(
        "overload",
        ServiceConfig {
            queue_capacity: 2,
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    handle.pause_workers();

    let mut client = Client::connect(&endpoint).unwrap();
    for _ in 0..2 {
        let id = client.next_request_id();
        let mut req = request(5);
        req.request_id = id;
        client.send(&Request::Submit(req)).unwrap();
    }
    // Nothing waits on a reply here, so the held requests go out now.
    client.flush().unwrap();
    // Queue depth 2 reached; the next submit overflows.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while handle.stats().queue_depth < 2 {
        assert!(std::time::Instant::now() < deadline, "queue never filled");
        std::thread::yield_now();
    }
    let overflow_id = client.next_request_id();
    let mut overflow = request(5);
    overflow.request_id = overflow_id;
    client.send(&Request::Submit(overflow)).unwrap();
    match client.recv().expect("overload rejection arrives") {
        Response::Error(err) => {
            assert_eq!(err.code, ErrorCode::Overloaded);
            assert_eq!(err.request_id, overflow_id);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(handle.stats().rejected_overload, 1);

    handle.resume_workers();
    for _ in 0..2 {
        match client.recv().expect("queued responses drain") {
            Response::Schedule(_) => {}
            other => panic!("expected schedules, got {other:?}"),
        }
    }
    assert_serving(&endpoint, 5);
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_admitted_work_and_rejects_new() {
    let (handle, endpoint) = start("drain", ServiceConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();
    handle.pause_workers();

    // Admit work, then request shutdown while it is still queued.
    let id = client.next_request_id();
    let mut req = request(7);
    req.request_id = id;
    client.send(&Request::Submit(req)).unwrap();
    let shutdown_id = client.next_request_id();
    client
        .send(&Request::Shutdown {
            request_id: shutdown_id,
        })
        .unwrap();
    match client.recv().expect("ack arrives") {
        Response::ShutdownAck { request_id } => assert_eq!(request_id, shutdown_id),
        other => panic!("expected ack, got {other:?}"),
    }

    // New submits are now rejected with ShuttingDown...
    let late_id = client.next_request_id();
    let mut late = request(8);
    late.request_id = late_id;
    client.send(&Request::Submit(late)).unwrap();
    match client.recv().expect("rejection arrives") {
        Response::Error(err) => {
            assert_eq!(err.code, ErrorCode::ShuttingDown);
            assert_eq!(err.request_id, late_id);
        }
        other => panic!("expected ShuttingDown, got {other:?}"),
    }

    // ...but the admitted job is still served during the drain (workers
    // are paused; shutdown() closes the queue, which overrides pause).
    let drainer = std::thread::spawn(move || handle.shutdown());
    match client.recv().expect("drained response arrives") {
        Response::Schedule(reply) => assert_eq!(reply.request_id, id),
        other => panic!("expected drained schedule, got {other:?}"),
    }
    drainer.join().unwrap();
    // The socket is gone: connecting now fails.
    assert!(Client::connect(&endpoint).is_err());
}

/// Submit `seed` and wait for it, so its schedule and estimate are
/// resident and its worker has let go of it (a job leaves the in-flight
/// count when its reply is laid out, before it is written); returns the
/// request for repeating.
fn warmed(handle: &ServerHandle, client: &mut Client, seed: u64) -> SubmitRequest {
    let req = request(seed);
    let reply = client.submit(req.clone()).expect("warm-up submit");
    assert!(reply.freshly_compiled);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while handle.stats().inflight > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the worker never finished"
        );
        std::thread::yield_now();
    }
    req
}

/// Pipeline one submit; returns its request id.
fn send(client: &mut Client, mut req: SubmitRequest) -> u64 {
    req.request_id = client.next_request_id();
    let id = req.request_id;
    client.send(&Request::Submit(req)).unwrap();
    id
}

fn expect_schedule(client: &mut Client, id: u64, freshly_compiled: bool) {
    match client.recv().expect("a reply arrives") {
        Response::Schedule(reply) => {
            assert_eq!(reply.request_id, id);
            assert_eq!(reply.freshly_compiled, freshly_compiled);
        }
        other => panic!("expected the schedule for {id}, got {other:?}"),
    }
}

#[test]
fn paused_workers_do_not_hold_back_a_resident_repeat() {
    let (handle, endpoint) = start("resident-paused", ServiceConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();
    let hot = warmed(&handle, &mut client, 11);
    handle.pause_workers();

    let miss = send(&mut client, request(12));
    let repeat = send(&mut client, hot);
    // The reader answers the repeat itself; the miss waits for a worker.
    expect_schedule(&mut client, repeat, false);
    let stats = handle.stats();
    assert_eq!(
        (stats.queue_depth, stats.inflight),
        (1, 1),
        "the miss stays queued"
    );

    handle.resume_workers();
    expect_schedule(&mut client, miss, true);
    handle.shutdown();
}

/// One framed body out, the first frame back.
fn call(stream: &mut Stream, body: &[u8]) -> Vec<u8> {
    write_frame(stream, body).unwrap();
    read_frame(stream).unwrap().expect("a reply frame")
}

/// `req`'s body (uniform cost model) with its message records in reverse
/// order: the same request to the full decode, and never canonical.
fn reversed(req: &SubmitRequest) -> Vec<u8> {
    let body = Request::Submit(req.clone()).encode();
    let start = body.len() - 12 * req.matrix.message_count();
    let mut out = body[..start].to_vec();
    out.extend(body[start..].rchunks_exact(12).flatten());
    assert_eq!(Request::decode(&out).unwrap(), Request::Submit(req.clone()));
    out
}

#[test]
fn paused_workers_do_not_hold_back_a_decoded_repeat() {
    // Repeats the reader decodes in full: a cost-model string, a body
    // whose messages are not row-major, and a delta that resolves to a
    // resident fingerprint.
    let config = ServiceConfig {
        cache: commcache::CacheConfig::in_memory().incremental_default(),
        ..ServiceConfig::default()
    };
    let (handle, endpoint) = start("decoded-paused", config);
    let mut stream = endpoint.connect().unwrap();
    let base = request(51);
    let mut costed = request(51);
    costed.request_id = 1;
    costed.cost_model = "loggp:o=5000,g=1000,G=2.0".parse().unwrap();
    let shuffled = SubmitRequest {
        request_id: 2,
        ..request(52)
    };
    let mut drifted = base.matrix.clone();
    let (src, dst, _) = drifted.messages().next().expect("non-empty matrix");
    drifted.set(src.index(), dst.index(), 0);
    let cube = base.topology.build();
    let delta = SubmitDeltaRequest {
        request_id: 3,
        want_schedule: true,
        topology: base.topology.clone(),
        scheduler: base.scheduler.clone(),
        scheme: base.scheme,
        backend: base.backend,
        seed: base.seed,
        base: commcache::InstanceKey::compute(&base.matrix, cube.as_ref()),
        delta: commsched::MatrixDelta::diff(&base.matrix, &drifted).unwrap(),
        cost_model: schedd::LinkCostModel::Uniform,
    };
    let bodies = [
        Request::Submit(costed).encode(),
        reversed(&shuffled),
        Request::SubmitDelta(delta).encode(),
    ];

    // Unpaused: the base (the delta's), then each body twice — a miss,
    // then the answer a repeat gets.
    call(&mut stream, &Request::Submit(base).encode());
    let answers: Vec<Vec<u8>> = bodies
        .iter()
        .map(|body| {
            call(&mut stream, body);
            call(&mut stream, body)
        })
        .collect();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while handle.stats().inflight > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "a worker never finished"
        );
        std::thread::yield_now();
    }

    handle.pause_workers();
    for (body, answer) in bodies.iter().zip(&answers) {
        // The reader takes frames in order: a repeat it answers arrives
        // before the stats, a queued one after them.
        write_frame(&mut stream, body).unwrap();
        let stats = Request::Stats { request_id: 0 }.encode();
        assert!(
            call(&mut stream, &stats) == *answer,
            "the paused reply differs"
        );
        let reply = read_frame(&mut stream).unwrap().expect("the stats frame");
        match Response::decode(&reply).unwrap() {
            Response::Stats { stats, .. } => {
                assert_eq!((stats.queue_depth, stats.inflight), (0, 0));
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }
    handle.resume_workers();
    drop(stream);
    handle.shutdown();
}

#[test]
fn a_connection_at_its_quota_still_gets_resident_repeats() {
    let quota = 2;
    let (handle, endpoint) = start(
        "resident-quota",
        ServiceConfig {
            max_inflight_per_client: quota,
            ..ServiceConfig::default()
        },
    );
    let mut client = Client::connect(&endpoint).unwrap();
    let hot = warmed(&handle, &mut client, 21);
    handle.pause_workers();

    let misses = [
        send(&mut client, request(22)),
        send(&mut client, request(23)),
    ];
    // At its quota, the connection is still answered from memory...
    let repeat = send(&mut client, hot);
    expect_schedule(&mut client, repeat, false);
    // ...but one more miss is not admitted.
    let overflow = send(&mut client, request(24));
    match client.recv().expect("rejection arrives") {
        Response::Error(err) => {
            assert_eq!(err.code, ErrorCode::QuotaExceeded);
            assert_eq!(err.request_id, overflow);
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    assert_eq!(handle.stats().rejected_quota, 1);

    handle.resume_workers();
    for _ in misses {
        match client.recv().expect("queued responses drain") {
            Response::Schedule(reply) => assert!(misses.contains(&reply.request_id)),
            other => panic!("expected schedules, got {other:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn a_resident_repeat_after_the_drain_mark_is_shutting_down() {
    let (handle, endpoint) = start("resident-drain", ServiceConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();
    let hot = warmed(&handle, &mut client, 31);
    let shutdown_id = client.next_request_id();
    client
        .send(&Request::Shutdown {
            request_id: shutdown_id,
        })
        .unwrap();
    match client.recv().expect("ack arrives") {
        Response::ShutdownAck { request_id } => assert_eq!(request_id, shutdown_id),
        other => panic!("expected ack, got {other:?}"),
    }

    let late = send(&mut client, hot);
    match client.recv().expect("rejection arrives") {
        Response::Error(err) => {
            assert_eq!(err.code, ErrorCode::ShuttingDown);
            assert_eq!(err.request_id, late);
        }
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    let stats = handle.stats();
    assert_eq!((stats.rejected_shutdown, stats.completed), (1, 1));
    handle.shutdown();
}

#[test]
fn a_pipelined_miss_and_hit_both_arrive_matched_by_id() {
    let (handle, endpoint) = start("resident-pipelined", ServiceConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();
    let hot = warmed(&handle, &mut client, 41);

    let miss = send(&mut client, request(42));
    let hit = send(&mut client, hot);
    // Either may arrive first: the hit on the reader, the miss on a worker.
    let mut replies = std::collections::HashMap::new();
    for _ in 0..2 {
        match client.recv().expect("both replies arrive") {
            Response::Schedule(reply) => replies.insert(reply.request_id, reply),
            other => panic!("expected schedules, got {other:?}"),
        };
    }
    assert!(replies[&miss].freshly_compiled);
    assert!(!replies[&hit].freshly_compiled);
    assert_ne!(replies[&miss].fingerprint, replies[&hit].fingerprint);
    handle.shutdown();
}

#[test]
fn a_regular_file_at_the_socket_path_survives_and_start_fails() {
    let path = sock_path("regular-file");
    std::fs::write(&path, b"not a socket").unwrap();
    let err = Server::start(ServiceConfig::default(), &Endpoint::Unix(path.clone()))
        .err()
        .expect("the daemon refuses a path holding a regular file");
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    assert_eq!(std::fs::read(&path).unwrap(), b"not a socket");
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_second_daemon_on_a_live_socket_fails_and_the_first_keeps_serving() {
    let (handle, endpoint) = start("live", ServiceConfig::default());
    let err = Server::start(ServiceConfig::default(), &endpoint)
        .err()
        .expect("the second daemon refuses a live socket");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    let mut client = Client::connect(&endpoint).expect("the first daemon is reachable");
    client.stats().expect("the first daemon answers Stats");
    handle.shutdown();
}

#[test]
fn a_stale_socket_file_is_reclaimed() {
    let path = sock_path("stale");
    std::fs::remove_file(&path).ok();
    // A listener dropped without unlinking leaves a socket nobody serves.
    drop(std::os::unix::net::UnixListener::bind(&path).unwrap());
    assert!(path.exists());
    let (handle, endpoint) = start("stale", ServiceConfig::default());
    assert_serving(&endpoint, 2);
    handle.shutdown();
}

/// The bodies of a mixed pipelined batch, by request id: three resident
/// repeats of `hot` (with the schedule, without it, with it again), one
/// miss, one body that does not decode (answered with id 0), a delta
/// against a base the daemon never saw, and `Stats` last.
fn mixed_batch(hot: &SubmitRequest) -> Vec<(u64, Vec<u8>)> {
    let repeat = |request_id, want_schedule| {
        let req = SubmitRequest {
            request_id,
            want_schedule,
            ..hot.clone()
        };
        Request::Submit(req).encode()
    };
    let miss = SubmitRequest {
        request_id: 3,
        ..request(62)
    };
    let never = request(63);
    let unknown = SubmitDeltaRequest {
        request_id: 5,
        want_schedule: true,
        topology: never.topology.clone(),
        scheduler: never.scheduler.clone(),
        scheme: never.scheme,
        backend: never.backend,
        seed: never.seed,
        base: commcache::InstanceKey::compute(&never.matrix, never.topology.build().as_ref()),
        delta: commsched::MatrixDelta::diff(&never.matrix, &never.matrix).unwrap(),
        cost_model: schedd::LinkCostModel::Uniform,
    };
    vec![
        (1, repeat(1, true)),
        (2, repeat(2, false)),
        (3, Request::Submit(miss).encode()),
        (0, vec![0x55, 1, 2, 3]),
        (5, Request::SubmitDelta(unknown).encode()),
        (6, repeat(6, true)),
        (7, Request::Stats { request_id: 7 }.encode()),
    ]
}

/// The request id a reply frame answers.
fn reply_id(frame: &[u8]) -> u64 {
    match Response::decode(frame).unwrap() {
        Response::Schedule(reply) => reply.request_id,
        Response::Error(err) => err.request_id,
        Response::Stats { request_id, .. } | Response::ShutdownAck { request_id } => request_id,
    }
}

#[test]
fn a_pipelined_mixed_batch_is_answered_as_if_sent_alone() {
    let config = ServiceConfig {
        cache: commcache::CacheConfig::in_memory().incremental_default(),
        ..ServiceConfig::default()
    };
    // The reference: each request alone, its reply read before the next
    // is sent, on a daemon warmed the same way.
    let (handle, endpoint) = start("batch-alone", config.clone());
    let hot = warmed(&handle, &mut Client::connect(&endpoint).unwrap(), 61);
    let mut stream = endpoint.connect().unwrap();
    let alone: std::collections::HashMap<u64, Vec<u8>> = mixed_batch(&hot)
        .into_iter()
        .map(|(id, body)| (id, call(&mut stream, &body)))
        .collect();
    drop(stream);
    handle.shutdown();

    // The batch: every frame in one write, with the workers paused, so
    // the miss waits in the queue and every other reply is the reader's.
    let (handle, endpoint) = start("batch-pipelined", config);
    let hot = warmed(&handle, &mut Client::connect(&endpoint).unwrap(), 61);
    let mut stream = endpoint.connect().unwrap();
    let mut wire = Vec::new();
    for (_, body) in mixed_batch(&hot) {
        write_frame(&mut wire, &body).unwrap();
    }
    handle.pause_workers();
    stream.write_all(&wire).unwrap();
    let mut replies: Vec<Vec<u8>> = (0..6)
        .map(|_| read_frame(&mut stream).unwrap().expect("a reader reply"))
        .collect();
    handle.resume_workers();
    replies.push(read_frame(&mut stream).unwrap().expect("the miss's reply"));
    let ids: Vec<u64> = replies.iter().map(|frame| reply_id(frame)).collect();
    assert_eq!(
        ids,
        [1, 2, 0, 5, 6, 7, 3],
        "reader replies in request order"
    );

    // Every reply but the stats is the one the request gets alone.
    for (id, frame) in ids.iter().zip(&replies) {
        if *id != 7 {
            assert!(*frame == alone[id], "the reply to {id} differs");
        }
    }
    // The stats count the warm-up and the three repeats answered ahead of it.
    match Response::decode(&replies[5]).unwrap() {
        Response::Stats { stats, .. } => {
            assert_eq!((stats.submits, stats.delta_submits), (5, 1));
            assert_eq!(stats.completed, 4);
            assert_eq!((stats.errors_malformed, stats.errors_other), (1, 1));
        }
        other => panic!("expected stats, got {other:?}"),
    }
    drop(stream);
    handle.shutdown();
}
