//! The daemon answers a resident repeat from its `Submit` body's bytes:
//! it keys the instance from the message slice and replies with the
//! estimate and artifact bytes it already holds. These tests hold that
//! path to the full decode it stands in for.
//!
//! * **Differential.** Two daemons get the same script, one as row-major
//!   bodies (the bytes path answers their repeats) and one with every
//!   body's messages reversed (any order decodes, but only row-major is
//!   keyed from the bytes, so every request there takes the full path).
//!   Every reply is byte-identical, and so are the daemons' counters.
//! * **Corruption battery.** Every truncation and every single-byte
//!   corruption (one byte XORed with `0xff`) of a hot `Submit` body gets,
//!   byte for byte, the reply an in-process reference gives it through the
//!   full decode and `ServiceState::process`, and the counters agree.

use commcache::{CacheConfig, IncrementalConfig};
use commrt::BackendKind;
use commsched::CommMatrix;
use schedd::{
    read_frame, write_frame, DaemonStats, Endpoint, ErrorCode, ErrorReply, LinkCostModel,
    ProtocolLimits, Request, Response, SchemeChoice, Server, ServerHandle, ServiceConfig,
    ServiceState, Stream, SubmitRequest, TopologySpec,
};
use workloads::{random_dregular, Generator};

fn start(tag: &str, config: ServiceConfig) -> (ServerHandle, Stream) {
    let endpoint = Endpoint::Unix(
        std::env::temp_dir().join(format!("schedd-bytes-{tag}-{}.sock", std::process::id())),
    );
    let handle = Server::start(config, &endpoint).expect("daemon starts");
    let stream = endpoint.connect().expect("connect");
    (handle, stream)
}

/// One framed body out, one framed body back.
fn call(stream: &mut Stream, body: &[u8]) -> Vec<u8> {
    write_frame(stream, body).expect("write");
    read_frame(stream).expect("read").expect("a reply frame")
}

/// Every counter, once the daemon is idle (a job leaves `inflight` when
/// its reply is laid out, before it is written).
fn settled(stream: &mut Stream) -> DaemonStats {
    for _ in 0..10_000 {
        let body = call(stream, &Request::Stats { request_id: 0 }.encode());
        match Response::decode(&body).expect("stats decode") {
            Response::Stats { stats, .. } if stats.inflight == 0 => return stats,
            Response::Stats { .. } => std::thread::yield_now(),
            other => panic!("expected stats, got {other:?}"),
        }
    }
    panic!("the daemon never went idle");
}

fn submit(request_id: u64, matrix: &CommMatrix) -> SubmitRequest {
    SubmitRequest {
        request_id,
        want_schedule: true,
        topology: TopologySpec::Hypercube { dims: 5 },
        scheduler: "RS_NL".into(),
        scheme: SchemeChoice::Default,
        backend: BackendKind::Analytic,
        seed: 1,
        matrix: matrix.clone(),
        cost_model: LinkCostModel::Uniform,
    }
}

/// `req`'s body with its message records in reverse order: the same
/// request to the full decode, and never canonical.
fn reversed(req: &SubmitRequest) -> Vec<u8> {
    let body = Request::Submit(req.clone()).encode();
    let uniform = SubmitRequest {
        cost_model: LinkCostModel::Uniform,
        ..req.clone()
    };
    let tail = body.len() - Request::Submit(uniform).encode().len();
    let end = body.len() - tail;
    let start = end - 12 * req.matrix.message_count();
    let mut out = body[..start].to_vec();
    out.extend(body[start..end].rchunks_exact(12).flatten());
    out.extend_from_slice(&body[end..]);
    assert_eq!(Request::decode(&out).unwrap(), Request::Submit(req.clone()));
    out
}

/// Run `script` through a row-major daemon and a reversed-body daemon
/// with `config`: every reply and the settled counters must agree.
fn assert_bytes_path_is_invisible(tag: &str, config: ServiceConfig, script: &[SubmitRequest]) {
    let (plain, mut plain_stream) = start(&format!("{tag}-plain"), config.clone());
    let (shuffled, mut shuffled_stream) = start(&format!("{tag}-reversed"), config);
    for (step, req) in script.iter().enumerate() {
        let want = call(&mut shuffled_stream, &reversed(req));
        let got = call(&mut plain_stream, &Request::Submit(req.clone()).encode());
        assert!(got == want, "{tag} step {step}: the replies differ");
        assert!(matches!(
            Response::decode(&got).unwrap(),
            Response::Schedule(_)
        ));
    }
    assert_eq!(
        settled(&mut plain_stream),
        settled(&mut shuffled_stream),
        "{tag}: counters"
    );
    drop((plain_stream, shuffled_stream));
    plain.shutdown();
    shuffled.shutdown();
}

#[test]
fn row_major_and_shuffled_bodies_get_the_same_replies_and_counters() {
    let m = Generator::dregular(32, 6, 1024).generate(3);
    let other = Generator::dregular(32, 6, 1024).generate(4);
    let mut quiet = submit(0, &m);
    quiet.want_schedule = false;
    let mut costed = submit(0, &m);
    costed.cost_model = "loggp:o=5000,g=1000,G=2.0".parse().unwrap();
    let mut des = submit(0, &m);
    des.backend = BackendKind::Des;
    let mut script = Vec::new();
    for req in [
        submit(0, &m),
        submit(0, &m),
        quiet.clone(),
        quiet,
        costed.clone(),
        costed,
        des.clone(),
        des,
        submit(0, &other),
        submit(0, &m),
        submit(0, &other),
    ] {
        script.push(SubmitRequest {
            request_id: script.len() as u64 + 1,
            ..req
        });
    }
    assert_bytes_path_is_invisible("plain", ServiceConfig::default(), &script);
    assert_bytes_path_is_invisible(
        "incremental",
        ServiceConfig {
            cache: CacheConfig::in_memory().incremental_default(),
            ..ServiceConfig::default()
        },
        &script,
    );
}

#[test]
fn a_repeat_whose_base_was_evicted_is_answered_as_the_full_path_answers_it() {
    // The base cache holds two bases and the schedule cache holds
    // everything, so a matrix's schedule and estimate can be resident
    // while its base is not. Each base's fate shows in whether a later
    // drift of its matrix patches:
    // * a repeat whose base is retained makes it the most recent base,
    //   so the next new matrix evicts the other one;
    // * a repeat whose base was evicted must rebuild it from the matrix.
    let m: Vec<CommMatrix> = (0..6)
        .map(|seed| Generator::dregular(32, 6, 1024).generate(10 + seed))
        .collect();
    let mut script = Vec::new();
    for matrix in &m[..5] {
        script.push(submit(0, matrix));
        script.push(submit(0, matrix));
    }
    // Bases m3 and m4 are retained now.
    for matrix in [&m[3], &m[5], &moved(&m[3]), &m[0], &moved(&m[0])] {
        script.push(submit(0, matrix));
    }
    for (id, req) in script.iter_mut().enumerate() {
        req.request_id = id as u64 + 1;
    }
    let config = ServiceConfig {
        cache: CacheConfig::in_memory()
            .with_incremental(IncrementalConfig::default().with_byte_budget(7_000)),
        ..ServiceConfig::default()
    };
    // Not vacuous: both drifts patch.
    let probe = ServiceState::new(&config);
    for req in &script {
        probe.process(req).unwrap();
    }
    assert_eq!(probe.incremental_stats().unwrap().patches, 2);
    assert_bytes_path_is_invisible("evicted-base", config, &script);
}

/// `com` with its first message moved to the first free destination of
/// its row: one structural edit, inside the patch threshold.
fn moved(com: &CommMatrix) -> CommMatrix {
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

/// The counters the reference can know, in order: submits, completed,
/// malformed and other errors; cache requests, memory hits, misses;
/// estimate hits and misses; incremental base hits and patches.
fn known(stats: &DaemonStats) -> [u64; 11] {
    [
        stats.submits,
        stats.completed,
        stats.errors_malformed,
        stats.errors_other,
        stats.cache_requests,
        stats.cache_mem_hits,
        stats.cache_misses,
        stats.estimate_hits,
        stats.estimate_misses,
        stats.incr_base_hits,
        stats.incr_patches,
    ]
}

/// Today's full path in process: decode, then `ServiceState::process`,
/// with the server's counters kept beside it.
struct Reference {
    state: ServiceState,
    limits: ProtocolLimits,
    /// submits, completed, malformed, other errors.
    counts: [u64; 4],
}

impl Reference {
    fn new(config: &ServiceConfig) -> Reference {
        Reference {
            state: ServiceState::new(config),
            limits: config.limits,
            counts: [0; 4],
        }
    }

    fn reply(&mut self, body: &[u8]) -> Vec<u8> {
        let error = |request_id, code, detail| {
            Response::Error(ErrorReply {
                request_id,
                code,
                detail,
            })
        };
        let response = match Request::decode_with(body, &self.limits) {
            Err(e) => {
                self.counts[2] += 1;
                error(0, ErrorCode::Malformed, e.to_string())
            }
            Ok(Request::Submit(req)) => {
                self.counts[0] += 1;
                match self.state.process(&req) {
                    Ok(reply) => {
                        self.counts[1] += 1;
                        Response::Schedule(reply)
                    }
                    Err(e) => {
                        self.counts[3] += 1;
                        error(req.request_id, e.code(), e.to_string())
                    }
                }
            }
            Ok(other) => panic!("a corrupted submit decoded as {other:?}"),
        };
        response.encode()
    }

    fn known(&self) -> [u64; 11] {
        let cache = self.state.cache_stats();
        let (estimate_hits, estimate_misses) = self.state.estimate_stats();
        let incr = self.state.incremental_stats().unwrap_or_default();
        let [submits, completed, malformed, other] = self.counts;
        [
            submits,
            completed,
            malformed,
            other,
            cache.requests,
            cache.mem_hits,
            cache.misses,
            estimate_hits,
            estimate_misses,
            incr.base_hits,
            incr.patches,
        ]
    }
}

#[test]
fn every_truncation_and_corruption_of_a_hot_body_is_answered_as_the_full_decode_answers_it() {
    // An 8-node pattern with one `u32::MAX` message, so both ends of the
    // byte range sit in a record.
    let mut matrix = random_dregular(8, 3, 1024, 5);
    let (src, dst, _) = matrix.messages().next().expect("a message");
    matrix.set(src.index(), dst.index(), u32::MAX);
    let mut hot = submit(0x0102_0304_0506_0708, &matrix);
    hot.topology = TopologySpec::Hypercube { dims: 3 };
    let body = Request::Submit(hot).encode();
    assert_eq!(body.len(), 338);

    for (tag, config) in [
        ("plain", ServiceConfig::default()),
        (
            "incremental",
            ServiceConfig {
                cache: CacheConfig::in_memory().incremental_default(),
                ..ServiceConfig::default()
            },
        ),
    ] {
        let (daemon, mut stream) = start(&format!("battery-{tag}"), config.clone());
        let mut reference = Reference::new(&config);
        let mut check = |what: &str, bytes: &[u8]| {
            let want = reference.reply(bytes);
            let got = call(&mut stream, bytes);
            assert!(got == want, "{tag} {what}: the replies differ");
        };
        // Hot: compiled, then resident.
        check("first", &body);
        check("repeat", &body);
        for len in 0..body.len() {
            check(&format!("cut at {len}"), &body[..len]);
        }
        let mut flipped = body.clone();
        for at in 0..body.len() {
            flipped[at] ^= 0xff;
            check(&format!("byte {at} flipped"), &flipped);
            flipped[at] ^= 0xff;
        }
        check("clean again", &body);
        let stats = settled(&mut stream);
        assert_eq!(known(&stats), reference.known(), "{tag}: counters");
        // Not vacuous: the battery reached every outcome.
        let [_, _, malformed, _, _, mem_hits, misses, ..] = known(&stats);
        assert!(malformed > 300, "{tag}: {stats:?}");
        assert!(mem_hits > 8 && misses > 8, "{tag}: {stats:?}");
        drop(stream);
        daemon.shutdown();
    }
}
