//! One fixed body per frame kind, and one schedule artifact, pinned: the
//! bytes each encoder writes, and what each decoder makes of every
//! truncation and every single-byte corruption of those bytes.
//!
//! A row pins two digests. `bytes` is [`checksum64`] of the encoding.
//! `hostile` is [`checksum64`] of the `Debug` text of the decoder's
//! answer to every prefix of the encoding (shortest first), then to every
//! copy of it with one byte XORed with `0xff` (first byte first). The
//! second digest covers every error value and its text, so a decoder
//! rewrite that reorders its checks or rewords an error moves it.

use std::sync::Arc;

use commcache::{
    checksum64, decode_artifact_full, encode_artifact_with, Fingerprint, InstanceKey, TopologyMeta,
};
use commrt::{BackendKind, BackendReport, ContentionStats};
use commsched::{rs_nl, CommMatrix, MatrixDelta};
use hypercube::Hypercube;
use schedd::{
    DaemonStats, ErrorCode, ErrorReply, LinkCostModel, Request, Response, SchemeChoice,
    SubmitDeltaRequest, SubmitReply, SubmitRequest, TopologySpec,
};
use workloads::random_dregular;

/// An 8-node d-regular pattern with one `u32::MAX` message, so both ends
/// of the byte range sit in a record.
fn matrix() -> CommMatrix {
    let mut com = random_dregular(8, 3, 1024, 5);
    let (src, dst, _) = com.messages().next().expect("a message");
    com.set(src.0 as usize, dst.0 as usize, u32::MAX);
    com
}

fn submit(cost_model: LinkCostModel) -> Request {
    Request::Submit(SubmitRequest {
        request_id: 0x0102_0304_0506_0708,
        want_schedule: true,
        topology: TopologySpec::Hypercube { dims: 3 },
        scheduler: "RS_NL".into(),
        scheme: SchemeChoice::Default,
        backend: BackendKind::Analytic,
        seed: 7,
        matrix: matrix(),
        cost_model,
    })
}

/// A delta that adds, removes and resizes one message each.
fn submit_delta() -> Request {
    let base = matrix();
    let mut target = base.clone();
    let mut messages = base.messages();
    let (src, dst, _) = messages.next().expect("a message");
    target.set(src.0 as usize, dst.0 as usize, 0);
    let (src, dst, _) = messages.next().expect("a second message");
    target.set(src.0 as usize, dst.0 as usize, 1);
    let empty = (0..8)
        .flat_map(|i| (0..8).map(move |j| (i, j)))
        .find(|&(i, j)| i != j && base.get(i, j) == 0)
        .expect("an empty cell");
    target.set(empty.0, empty.1, 4096);
    Request::SubmitDelta(SubmitDeltaRequest {
        request_id: 0x1112_1314_1516_1718,
        want_schedule: false,
        topology: TopologySpec::Hypercube { dims: 3 },
        scheduler: "GREEDY".into(),
        scheme: SchemeChoice::S2,
        backend: BackendKind::Des,
        seed: 11,
        base: InstanceKey::from_bytes(*b"a fixed base key"),
        delta: MatrixDelta::diff(&base, &target).expect("a valid delta"),
        cost_model: "faulty:p=0.05,seed=7".parse().expect("a cost model"),
    })
}

const FP: Fingerprint = Fingerprint(0x0f0e_0d0c_0b0a_0908_0706_0504_0302_0100);

fn schedule(want: bool) -> Response {
    Response::Schedule(SubmitReply {
        request_id: 0x2122_2324_2526_2728,
        fingerprint: FP,
        freshly_compiled: want,
        estimate: BackendReport {
            makespan_ns: 123_456,
            phase_end_ns: vec![40_000, 90_000, 123_456],
            contention: ContentionStats {
                max_engine_busy_ns: 70_000,
                max_link_busy_ns: 60_000,
                contended_transfers: 3,
                contended_phases: 2,
            },
        },
        schedule: want.then(|| Arc::new(rs_nl(&matrix(), &Hypercube::new(3), 5))),
    })
}

/// Every counter distinct, so a field read into the wrong slot shows.
fn stats() -> Response {
    Response::Stats {
        request_id: 0x3132_3334_3536_3738,
        stats: DaemonStats {
            connections_accepted: 1,
            connections_active: 2,
            disconnects_midstream: 3,
            submits: 4,
            completed: 5,
            compiles: 6,
            coalesced: 7,
            cache_requests: 8,
            cache_mem_hits: 9,
            cache_store_hits: 10,
            cache_misses: 11,
            estimate_hits: 12,
            estimate_misses: 13,
            rejected_quota: 14,
            rejected_overload: 15,
            rejected_shutdown: 16,
            errors_malformed: 17,
            errors_other: 18,
            write_failures: 19,
            queue_depth: 20,
            inflight: 21,
            draining: 22,
            delta_submits: 23,
            incr_base_hits: 24,
            incr_patches: 25,
            incr_fallbacks: 26,
            incr_validation_rejections: 27,
        },
    }
}

fn artifact() -> Vec<u8> {
    let meta = TopologyMeta::of(&Hypercube::new(3));
    encode_artifact_with(FP, &rs_nl(&matrix(), &Hypercube::new(3), 5), Some(&meta))
}

/// The `hostile` digest of `bytes` under `decode`.
fn hostile<T: std::fmt::Debug>(bytes: &[u8], decode: impl Fn(&[u8]) -> T) -> u64 {
    let mut text = String::new();
    for len in 0..bytes.len() {
        text += &format!("{:?}\n", decode(&bytes[..len]));
    }
    let mut flipped = bytes.to_vec();
    for at in 0..bytes.len() {
        flipped[at] ^= 0xff;
        text += &format!("{:?}\n", decode(&flipped));
        flipped[at] ^= 0xff;
    }
    checksum64(text.as_bytes())
}

/// Every pinned encoding: `(name, bytes, hostile digest)`.
fn rows() -> Vec<(&'static str, u64, u64)> {
    let mut rows = Vec::new();
    let requests = [
        ("submit", submit(LinkCostModel::Uniform)),
        (
            "submit_loggp",
            submit("loggp:o=75000,g=10000,G=1.5".parse().expect("a cost model")),
        ),
        ("submit_delta", submit_delta()),
        ("stats_req", Request::Stats { request_id: 41 }),
        ("shutdown", Request::Shutdown { request_id: 42 }),
    ];
    for (name, request) in requests {
        let body = request.encode();
        assert_eq!(Request::decode(&body).expect("a round trip"), request);
        rows.push((name, checksum64(&body), hostile(&body, Request::decode)));
    }
    let responses = [
        ("schedule", schedule(true)),
        ("schedule_bare", schedule(false)),
        ("stats", stats()),
        (
            "error",
            Response::Error(ErrorReply {
                request_id: 43,
                code: ErrorCode::UnknownBase,
                detail: "base 00ff not retained".into(),
            }),
        ),
        ("shutdown_ack", Response::ShutdownAck { request_id: 44 }),
    ];
    for (name, response) in responses {
        let body = response.encode();
        assert_eq!(Response::decode(&body).expect("a round trip"), response);
        rows.push((name, checksum64(&body), hostile(&body, Response::decode)));
    }
    let bytes = artifact();
    decode_artifact_full(&bytes).expect("a round trip");
    rows.push((
        "artifact",
        checksum64(&bytes),
        hostile(&bytes, decode_artifact_full),
    ));
    rows
}

/// `(name, bytes, hostile)`.
const PINNED: &[(&str, u64, u64)] = &[
    ("submit", 0xe593_a93a_e053_d7eb, 0x85cf_1be0_65ad_0fab),
    ("submit_loggp", 0xd9d5_3d3f_31a4_7764, 0xb829_30d0_0001_5b0d),
    ("submit_delta", 0x2f3f_3211_82b1_5dda, 0x1a07_a782_ed71_6f11),
    ("stats_req", 0xc071_33c1_215c_9223, 0x299d_4281_e613_278f),
    ("shutdown", 0x95f9_f62d_531a_ce36, 0x9e76_9c63_2c26_33c0),
    ("schedule", 0x108a_f521_5461_d12d, 0xb342_8f6e_2326_3b7e),
    (
        "schedule_bare",
        0x71c2_1c10_2075_3fe0,
        0xcab7_4cd2_b968_53b5,
    ),
    ("stats", 0x6f7e_6c6a_dc77_550c, 0x9aad_cd5f_626e_7731),
    ("error", 0x876a_e5de_1266_59b0, 0x72cb_82eb_379b_1927),
    ("shutdown_ack", 0x5a0f_bc6b_65f7_dc2d, 0x982c_8a51_46cf_a96b),
    ("artifact", 0x95a8_48a4_cb64_f026, 0xa9af_bd81_2274_573a),
];

#[test]
fn every_frame_kind_and_the_artifact_are_pinned() {
    let actual = rows();
    let rendered: String = actual
        .iter()
        .map(|(name, b, h)| format!("    ({name:?}, {b:#018x}, {h:#018x}),\n"))
        .collect();
    assert!(
        actual.as_slice() == PINNED,
        "the codec moved; it now produces\n{rendered}"
    );
}
