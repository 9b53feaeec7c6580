//! Property and adversarial tests of the `schedd` wire protocol: every
//! request/response frame — all 8 registry schedulers × both backends,
//! every error code, stats snapshots — encodes→decodes identically, and
//! every malformation (truncation at any byte offset, single-byte
//! corruption, hostile headers) surfaces as a typed
//! [`FrameError`]/[`DecodeError`], never a panic and never wrong data.

use std::sync::Arc;

use commcache::{Fingerprint, InstanceKey};
use commrt::{BackendKind, BackendReport, ContentionStats};
use commsched::{registry, CommMatrix, MatrixDelta};
use proptest::prelude::*;
use schedd::protocol::split_frame;
use schedd::{
    read_frame, write_frame, DaemonStats, DecodeError, ErrorCode, ErrorReply, FrameError,
    LinkCostModel, ProtocolLimits, Request, Response, SchemeChoice, ServiceConfig, ServiceError,
    ServiceState, SubmitDeltaRequest, SubmitReply, SubmitRequest, TopologySpec, FRAME_MAGIC,
};

/// The four cost-model kinds, cycled through the property tests.
fn cost_model_from(idx: usize) -> LinkCostModel {
    [
        LinkCostModel::Uniform,
        "loggp:o=75000,g=10000,G=1.5".parse().unwrap(),
        "hetero:factor=4.0,frac=0.1,lat=2000,seed=9"
            .parse()
            .unwrap(),
        "faulty:p=0.05,seed=42".parse().unwrap(),
    ][idx % 4]
}

/// Sparse matrix on `n = 2^dim` nodes from raw triples.
fn matrix_from(dim: u32, cells: &[(usize, usize, u32)]) -> CommMatrix {
    let n = 1usize << dim;
    let mut com = CommMatrix::new(n);
    for &(s, d, bytes) in cells {
        let (s, d) = (s % n, d % n);
        if s != d && com.get(s, d) == 0 {
            com.set(s, d, bytes.max(1));
        }
    }
    com
}

fn scheme_from(idx: usize) -> SchemeChoice {
    [SchemeChoice::S1, SchemeChoice::S2, SchemeChoice::Default][idx % 3]
}

fn frame(body: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, body).expect("frame within bounds");
    wire
}

/// The frame a stream that ends after `wire` starts with, as the daemon's
/// connection core splits it off its read window (`split_frame`): a
/// prefix of a frame is torn once the stream has ended.
fn split_at_end(wire: &[u8]) -> Result<Option<Vec<u8>>, FrameError> {
    match split_frame(wire)? {
        Some((body, _)) => Ok(Some(body.to_vec())),
        None if wire.is_empty() => Ok(None),
        None => Err(FrameError::Truncated),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn submit_requests_roundtrip_for_every_scheduler_and_backend(
        dim in 2u32..6,
        cells in proptest::collection::vec((0usize..32, 0usize..32, 1u32..65_536), 0..96),
        seed in 0u64..10_000,
        request_id in 0u64..u64::MAX,
        scheme_idx in 0usize..3,
        want_flag in 0u8..2,
        cost_idx in 0usize..4,
    ) {
        let matrix = matrix_from(dim, &cells);
        let want_schedule = want_flag == 1;
        for entry in registry::all() {
            for backend in BackendKind::all() {
                let req = Request::Submit(SubmitRequest {
                    request_id,
                    want_schedule,
                    topology: TopologySpec::Hypercube { dims: dim },
                    scheduler: entry.name().to_string(),
                    scheme: scheme_from(scheme_idx),
                    backend,
                    seed,
                    matrix: matrix.clone(),
                    cost_model: cost_model_from(cost_idx),
                });
                // Through the full framing layer, not just the body.
                let wire = frame(&req.encode());
                let body = read_frame(&mut wire.as_slice())
                    .expect("well-formed frame")
                    .expect("not EOF");
                prop_assert_eq!(Request::decode(&body).expect("decode"), req);
            }
        }
    }

    #[test]
    fn schedule_replies_roundtrip_for_every_scheduler(
        dim in 2u32..5,
        cells in proptest::collection::vec((0usize..16, 0usize..16, 1u32..4096), 1..48),
        seed in 0u64..1000,
        want_flag in 0u8..2,
        makespan in 0u64..u64::MAX,
        phase_ends in proptest::collection::vec(0u64..u64::MAX, 0..12),
    ) {
        let matrix = matrix_from(dim, &cells);
        let want_schedule = want_flag == 1;
        let cube = TopologySpec::Hypercube { dims: dim }.build();
        for entry in registry::all() {
            let schedule = entry.schedule(&matrix, cube.as_ref(), seed);
            let fp = Fingerprint::compute(&matrix, cube.as_ref(), entry.name(), seed);
            let resp = Response::Schedule(SubmitReply {
                request_id: seed,
                fingerprint: fp,
                freshly_compiled: want_schedule,
                estimate: BackendReport {
                    makespan_ns: makespan,
                    phase_end_ns: phase_ends.clone(),
                    contention: ContentionStats {
                        max_engine_busy_ns: makespan / 2,
                        max_link_busy_ns: makespan / 3,
                        contended_transfers: seed,
                        contended_phases: phase_ends.len(),
                    },
                },
                schedule: want_schedule.then(|| Arc::new(schedule)),
            });
            let wire = frame(&resp.encode());
            let body = read_frame(&mut wire.as_slice()).unwrap().unwrap();
            prop_assert_eq!(Response::decode(&body).expect("decode"), resp);
        }
    }

    #[test]
    fn delta_requests_roundtrip_and_truncations_are_typed(
        dim in 2u32..6,
        base_cells in proptest::collection::vec((0usize..32, 0usize..32, 1u32..65_536), 1..64),
        target_cells in proptest::collection::vec((0usize..32, 0usize..32, 1u32..65_536), 1..64),
        seed in 0u64..10_000,
        request_id in 0u64..u64::MAX,
        scheme_idx in 0usize..3,
        want_flag in 0u8..2,
        cut_pct in 0usize..100,
    ) {
        // A delta between two arbitrary sparse matrices exercises all
        // three edit lists (added/removed/resized) in one frame.
        let base = matrix_from(dim, &base_cells);
        let target = matrix_from(dim, &target_cells);
        let delta = MatrixDelta::diff(&base, &target).expect("same size");
        let cube = TopologySpec::Hypercube { dims: dim }.build();
        let key = InstanceKey::compute(&base, cube.as_ref());
        for entry in registry::all() {
            let req = Request::SubmitDelta(SubmitDeltaRequest {
                request_id,
                want_schedule: want_flag == 1,
                topology: TopologySpec::Hypercube { dims: dim },
                scheduler: entry.name().to_string(),
                scheme: scheme_from(scheme_idx),
                backend: BackendKind::all()[scheme_idx % 2],
                seed,
                base: key,
                delta: delta.clone(),
                cost_model: cost_model_from(scheme_idx),
            });
            let wire = frame(&req.encode());
            let body = read_frame(&mut wire.as_slice())
                .expect("well-formed frame")
                .expect("not EOF");
            prop_assert_eq!(Request::decode(&body).expect("decode"), req.clone());
            // Cutting the body at any offset must be a typed error,
            // never a panic and never a silently-shorter delta. Run on
            // the uniform encoding: for non-uniform requests a cut at
            // the optional cost-field boundary is, by design, a valid
            // shorter (uniform) request, not a malformation.
            let plain = match &req {
                Request::SubmitDelta(r) => {
                    let mut r = r.clone();
                    r.cost_model = LinkCostModel::Uniform;
                    r.encode()
                }
                _ => unreachable!(),
            };
            let cut = (plain.len() - 1) * cut_pct / 100;
            prop_assert!(Request::decode(&plain[..cut]).is_err());
        }
    }

    #[test]
    fn raised_limits_roundtrip_large_dims(
        dim in 11u32..13,
        cells in proptest::collection::vec((0usize..4096, 0usize..4096, 1u32..65_536), 0..64),
        seed in 0u64..10_000,
        request_id in 0u64..u64::MAX,
    ) {
        // Requests past the default 1024-node cap roundtrip unchanged
        // once the daemon raises its limits (--max-nodes), and the
        // default decoder keeps declining them with the typed error.
        let limits = ProtocolLimits::with_max_nodes(1 << 12);
        let req = Request::Submit(SubmitRequest {
            request_id,
            want_schedule: false,
            topology: TopologySpec::Hypercube { dims: dim },
            scheduler: "AC".into(),
            scheme: SchemeChoice::Default,
            backend: BackendKind::Analytic,
            seed,
            matrix: matrix_from(dim, &cells),
            cost_model: LinkCostModel::Uniform,
        });
        let wire = frame(&req.encode());
        let body = read_frame(&mut wire.as_slice()).unwrap().unwrap();
        prop_assert_eq!(Request::decode_with(&body, &limits).expect("decode"), req);
        prop_assert!(matches!(
            Request::decode(&body),
            Err(DecodeError::LimitExceeded { field: "topology.nodes", .. })
        ));
    }

    #[test]
    fn stats_and_error_frames_roundtrip(
        fields in proptest::collection::vec(0u64..u64::MAX, 27..28),
        request_id in 0u64..u64::MAX,
        detail_seed in 0u64..u64::MAX,
    ) {
        let detail = format!("diagnostic detail {detail_seed}");
        let stats = DaemonStats {
            connections_accepted: fields[0],
            connections_active: fields[1],
            disconnects_midstream: fields[2],
            submits: fields[3],
            completed: fields[4],
            compiles: fields[5],
            coalesced: fields[6],
            cache_requests: fields[7],
            cache_mem_hits: fields[8],
            cache_store_hits: fields[9],
            cache_misses: fields[10],
            estimate_hits: fields[11],
            estimate_misses: fields[12],
            rejected_quota: fields[13],
            rejected_overload: fields[14],
            rejected_shutdown: fields[15],
            errors_malformed: fields[16],
            errors_other: fields[17],
            write_failures: fields[18],
            queue_depth: fields[19],
            inflight: fields[20],
            draining: fields[21],
            delta_submits: fields[22],
            incr_base_hits: fields[23],
            incr_patches: fields[24],
            incr_fallbacks: fields[25],
            incr_validation_rejections: fields[26],
        };
        let resp = Response::Stats { request_id, stats };
        prop_assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        for code in ErrorCode::all() {
            let resp = Response::Error(ErrorReply {
                request_id,
                code,
                detail: detail.clone(),
            });
            let wire = frame(&resp.encode());
            let body = read_frame(&mut wire.as_slice()).unwrap().unwrap();
            prop_assert_eq!(Response::decode(&body).unwrap(), resp);
        }
    }

    #[test]
    fn truncation_at_any_offset_is_a_typed_error(
        cells in proptest::collection::vec((0usize..16, 0usize..16, 1u32..4096), 1..48),
        cut_pct in 0usize..100,
    ) {
        let req = Request::Submit(SubmitRequest {
            request_id: 42,
            want_schedule: true,
            topology: TopologySpec::Hypercube { dims: 4 },
            scheduler: "RS_NL".into(),
            scheme: SchemeChoice::Default,
            backend: BackendKind::Des,
            seed: 7,
            matrix: matrix_from(4, &cells),
            // Uniform on purpose: a non-uniform body cut exactly at the
            // optional cost-field boundary is a valid shorter request.
            cost_model: LinkCostModel::Uniform,
        });
        let wire = frame(&req.encode());
        let cut = (wire.len() - 1) * cut_pct / 100;
        // Cutting the wire mid-frame: read_frame must type the failure
        // (or report clean EOF for cut == 0), never panic; so must the
        // daemon's split once the stream has ended.
        for read in [read_frame(&mut &wire[..cut]), split_at_end(&wire[..cut])] {
            match read {
                Ok(None) => prop_assert!(cut == 0, "EOF only legal at a frame boundary"),
                Err(FrameError::Truncated) => {}
                other => prop_assert!(false, "cut at {}: expected Truncated, got {:?}", cut, other),
            }
        }
        // Cutting the already-verified body mid-field: Request::decode
        // must type the failure too (in-process callers hit this path).
        let body = req.encode();
        let body_cut = (body.len() - 1) * cut_pct / 100;
        match Request::decode(&body[..body_cut]) {
            Err(_) => {}
            Ok(_) => prop_assert!(false, "decoded a body truncated at {}", body_cut),
        }
    }

    #[test]
    fn hostile_topology_arithmetic_never_panics(
        extents in proptest::collection::vec(0u32..=u32::MAX, 0..16),
        rows in 0u32..=u32::MAX,
        cols in 0u32..=u32::MAX,
        dims in 0u32..=u32::MAX,
        k in 0u32..=u32::MAX,
        max_nodes in 1u64..=u64::MAX,
    ) {
        // Hand-built specs bypass decode limits entirely: the node
        // arithmetic and the builders must be total. `num_nodes` used to
        // overflow on u32::MAX-extent tori; now it saturates and
        // `try_build` types the rejection.
        let specs = [
            TopologySpec::Torus { extents: extents.clone() },
            TopologySpec::Mesh2d { rows, cols },
            TopologySpec::Hypercube { dims },
            TopologySpec::FatTree { k },
        ];
        for spec in &specs {
            let _ = spec.num_nodes();
            let _ = spec.try_build();
        }

        // The same hostility on the wire: a Submit prefix carrying the
        // raw extents must decode to a typed error (or a legal spec),
        // never a panic — under the default limits and under a daemon
        // that raised --max-nodes arbitrarily high.
        let mut torus = vec![2u8];
        torus.extend_from_slice(&(extents.len() as u32).to_le_bytes());
        for &e in &extents {
            torus.extend_from_slice(&e.to_le_bytes());
        }
        let mut mesh = vec![1u8];
        mesh.extend_from_slice(&rows.to_le_bytes());
        mesh.extend_from_slice(&cols.to_le_bytes());
        let raised = ProtocolLimits::with_max_nodes(max_nodes);
        for topo_bytes in [torus, mesh] {
            let mut body = vec![0x01u8]; // Submit
            body.extend_from_slice(&1u64.to_le_bytes()); // request_id
            body.push(0); // want_schedule
            body.extend_from_slice(&topo_bytes);
            // Truncated after the topology: any outcome but a panic.
            let _ = Request::decode(&body);
            let _ = Request::decode_with(&body, &raised);
        }
    }

    #[test]
    fn a_fabric_has_one_description(
        extents in proptest::collection::vec(1u32..6, 0..10),
        rows in 0u32..40,
        cols in 0u32..40,
        dims in 0u32..24,
        k in 0u32..70,
    ) {
        // One bounds function, one grammar: on arbitrary hand-built kinds
        // `validate`, `try_build`, the kind-string parser and the wire
        // decoder all draw the same line, and whatever the daemon prints
        // about a fabric reads back as that fabric.
        let state = ServiceState::new(&ServiceConfig::default());
        for kind in [
            TopologySpec::Torus { extents: extents.clone() },
            TopologySpec::Mesh2d { rows, cols },
            TopologySpec::Hypercube { dims },
            TopologySpec::FatTree { k },
        ] {
            let valid = kind.validate().is_ok();
            prop_assert!(valid == kind.try_build().is_ok(), "{:?}", &kind);
            let reparsed = TopologySpec::parse(&kind.to_string());
            prop_assert!(reparsed.ok() == valid.then(|| kind.clone()), "{:?}", &kind);

            let n = kind.num_nodes();
            let req = SubmitRequest {
                request_id: 1,
                want_schedule: false,
                topology: kind.clone(),
                scheduler: "LP".into(),
                scheme: SchemeChoice::Default,
                backend: BackendKind::Analytic,
                seed: 0,
                // Only a servable fabric gets a matrix of its own size;
                // the others must be refused before the matrix is read.
                matrix: CommMatrix::new(if valid && n <= 1024 { n } else { 1 }),
                cost_model: LinkCostModel::Uniform,
            };
            match Request::decode(&Request::Submit(req.clone()).encode()) {
                Ok(decoded) => {
                    prop_assert!(valid && n <= 1024, "{:?} decoded", &kind);
                    prop_assert_eq!(decoded, Request::Submit(req.clone()));
                }
                Err(DecodeError::LimitExceeded { field, value, .. }) => {
                    prop_assert!(valid && n > 1024, "{:?} hit the node cap", &kind);
                    prop_assert_eq!((field, value), ("topology.nodes", n as u64));
                }
                Err(DecodeError::Invalid(what)) => {
                    prop_assert!(!valid, "{:?}: {}", &kind, what);
                    prop_assert_eq!(what, kind.validate().unwrap_err().to_string());
                }
                // The one bound the decoder restates, ahead of allocating.
                Err(DecodeError::BadValue { field: "topology.torus.ndims", .. }) => {
                    prop_assert!(!valid && extents.len() > 8, "{:?}", &kind);
                }
                Err(other) => prop_assert!(false, "{:?}: {:?}", &kind, other),
            }

            // LP serves e-cube hypercubes only; its refusal names the
            // fabric in the grammar `schedctl --topo` parses.
            if valid && n <= 1024 && !matches!(kind, TopologySpec::Hypercube { .. }) {
                match state.admit(&req) {
                    Err(e @ ServiceError::UnsupportedTopology { .. }) => {
                        let detail = e.to_string();
                        let named = detail.rsplit(' ').next().unwrap();
                        prop_assert_eq!(TopologySpec::parse(named).ok(), Some(kind.clone()));
                    }
                    other => prop_assert!(false, "{:?}: {:?}", &kind, other),
                }
            }
        }
    }

    #[test]
    fn single_byte_corruption_is_always_caught(
        victim in 0usize..100_000,
        flip in 1u8..=255,
        cells in proptest::collection::vec((0usize..16, 0usize..16, 1u32..4096), 1..48),
    ) {
        let req = Request::Submit(SubmitRequest {
            request_id: 9,
            want_schedule: false,
            topology: TopologySpec::Hypercube { dims: 4 },
            scheduler: "AC".into(),
            scheme: SchemeChoice::S2,
            backend: BackendKind::Analytic,
            seed: 3,
            matrix: matrix_from(4, &cells),
            cost_model: cost_model_from(cells.len()),
        });
        let mut wire = frame(&req.encode());
        let at = victim % wire.len();
        wire[at] ^= flip;
        // Any single flipped byte must yield a typed frame error: a
        // magic/length/checksum flip fails framing, and a body flip
        // fails the body checksum. A silently different request must
        // never come back.
        for read in [read_frame(&mut wire.as_slice()), split_at_end(&wire)] {
            match read {
                Err(_) => {}
                Ok(body) => prop_assert!(false, "byte {} flipped undetected: {:?}", at, body),
            }
        }
    }
}

#[test]
fn the_frame_layout_is_pinned_byte_for_byte() {
    // A real `serve_hot` request (64-node 8-regular 1 KiB pattern on
    // cube:d=6 for RS_NL, schedule wanted): its trailer is the sum that
    // `commcache`'s known-answer test pins on the same bytes assembled by
    // hand, so neither the encoder nor the checksum can move unseen.
    let body = Request::Submit(SubmitRequest {
        request_id: 0,
        want_schedule: true,
        topology: TopologySpec::Hypercube { dims: 6 },
        scheduler: "RS_NL".into(),
        scheme: SchemeChoice::Default,
        backend: BackendKind::Analytic,
        seed: 0,
        matrix: workloads::Generator::dregular(64, 8, 1024).generate(1),
        cost_model: LinkCostModel::Uniform,
    })
    .encode();
    let wire = frame(&body);
    assert_eq!(wire[..4], *b"SDF2");
    assert_eq!(wire[4..8], 6194u32.to_le_bytes());
    assert_eq!(wire[8..8 + 6194], body[..]);
    assert_eq!(wire[8 + 6194..], 0xb354_61c2_70f2_5801u64.to_le_bytes());

    // And a small frame in full.
    assert_eq!(
        frame(&Request::Stats { request_id: 1 }.encode()),
        [
            b'S', b'D', b'F', b'2', 9, 0, 0, 0, // magic, body length
            2, 1, 0, 0, 0, 0, 0, 0, 0, // Stats, request_id = 1
            0x0e, 0x2c, 0x7d, 0x7b, 0xa9, 0x94, 0xc3, 0xb1, // checksum64(body), LE
        ]
    );
}

/// A `serve_hot`-sized request body: 64 nodes, 8-regular, 1 KiB
/// messages (6 194 bytes), or the same on `dims` cube dimensions.
fn cube_submit_body(dims: u32) -> Vec<u8> {
    let n = 1usize << dims;
    Request::Submit(SubmitRequest {
        request_id: u64::from(dims),
        want_schedule: true,
        topology: TopologySpec::Hypercube { dims },
        scheduler: "RS_NL".into(),
        scheme: SchemeChoice::Default,
        backend: BackendKind::Analytic,
        seed: 0,
        matrix: workloads::Generator::dregular(n, 8, 1024).generate(1),
        cost_model: LinkCostModel::Uniform,
    })
    .encode()
}

/// A reader that hands out one byte per `read` call, however much room
/// the caller offers.
struct ByteAtATime<'a>(&'a [u8]);

impl std::io::Read for ByteAtATime<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match (self.0.split_first(), buf.first_mut()) {
            (Some((&byte, rest)), Some(slot)) => {
                *slot = byte;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

#[test]
fn a_frame_read_one_byte_per_call_decodes() {
    let body = cube_submit_body(6);
    let wire = frame(&body);
    let mut reader = ByteAtATime(&wire);
    assert_eq!(read_frame(&mut reader).unwrap(), Some(body));
    assert_eq!(read_frame(&mut reader).unwrap(), None);
}

#[test]
fn buffered_back_to_back_frames_decode_then_eof() {
    // The second body outgrows the 8 KiB buffer, so the reader refills
    // mid-frame as well as across the frame boundary.
    let (first, second) = (cube_submit_body(6), cube_submit_body(8));
    assert!(second.len() > 8 * 1024);
    let mut wire = frame(&first);
    wire.extend_from_slice(&frame(&second));
    let mut reader = std::io::BufReader::new(wire.as_slice());
    assert_eq!(read_frame(&mut reader).unwrap(), Some(first));
    assert_eq!(read_frame(&mut reader).unwrap(), Some(second));
    assert_eq!(read_frame(&mut reader).unwrap(), None);
}

#[test]
fn a_buffered_frame_cut_at_any_offset_is_truncated() {
    let wire = frame(&cube_submit_body(6));
    for cut in 0..wire.len() {
        let buffered = read_frame(&mut std::io::BufReader::new(&wire[..cut]));
        for read in [buffered, split_at_end(&wire[..cut])] {
            match read {
                Ok(None) => assert_eq!(cut, 0, "EOF only legal at a frame boundary"),
                Err(FrameError::Truncated) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }
}

#[test]
fn hostile_and_oversized_headers_are_typed_errors() {
    // Not our protocol at all.
    let http = b"GET / HTTP/1.1\r\nHost: x\r\n\r\n";
    for read in [read_frame(&mut &http[..]), split_at_end(http)] {
        assert!(matches!(read, Err(FrameError::BadMagic(_))));
    }
    // Correct magic, absurd length claim: rejected before allocation.
    let mut wire = Vec::new();
    wire.extend_from_slice(&FRAME_MAGIC);
    wire.extend_from_slice(&u32::MAX.to_le_bytes());
    wire.extend_from_slice(&[0u8; 64]);
    for read in [read_frame(&mut wire.as_slice()), split_at_end(&wire)] {
        assert!(matches!(read, Err(FrameError::Oversized(_))));
    }
    // Correct framing, hostile body: a Submit claiming 2^20 nodes must
    // be rejected by the node cap, not by allocating a 4 TiB matrix.
    let mut body = vec![0x01u8]; // Submit
    body.extend_from_slice(&1u64.to_le_bytes()); // request_id
    body.push(0); // want_schedule
    body.push(0); // hypercube
    body.extend_from_slice(&20u32.to_le_bytes()); // dims = 20: 2^20 nodes
    match Request::decode(&body) {
        Err(DecodeError::LimitExceeded {
            field,
            value,
            limit,
        }) => {
            assert_eq!(field, "topology.nodes");
            assert_eq!((value, limit), (1 << 20, 1024));
        }
        other => panic!("expected LimitExceeded, got {other:?}"),
    }
    // Raising the node cap admits the *name* but keeps the allocation
    // bomb guard: the dense-matrix cell budget fires instead.
    let limits = ProtocolLimits::with_max_nodes(1 << 20);
    body.extend_from_slice(&2u32.to_le_bytes()); // scheduler = "AC"
    body.extend_from_slice(b"AC");
    body.push(2); // scheme default
    body.push(0); // backend des
    body.extend_from_slice(&0u64.to_le_bytes()); // seed
    body.extend_from_slice(&(1u64 << 20).to_le_bytes()); // n = 2^20
    body.extend_from_slice(&0u64.to_le_bytes()); // message count
    match Request::decode_with(&body, &limits) {
        Err(DecodeError::LimitExceeded { field, value, .. }) => {
            assert_eq!(field, "matrix.cells");
            assert_eq!(value, 1u64 << 40);
        }
        other => panic!("expected the cell budget, got {other:?}"),
    }
    // A message-count claim far past the body's end must be caught by
    // the bytes-remaining bound before any allocation.
    let mut body = vec![0x01u8];
    body.extend_from_slice(&1u64.to_le_bytes());
    body.push(0);
    body.push(0);
    body.extend_from_slice(&4u32.to_le_bytes()); // dims = 4
    body.extend_from_slice(&5u32.to_le_bytes()); // scheduler = "RS_NL"
    body.extend_from_slice(b"RS_NL");
    body.push(2); // scheme default
    body.push(0); // backend des
    body.extend_from_slice(&0u64.to_le_bytes()); // seed
    body.extend_from_slice(&16u64.to_le_bytes()); // n
    body.extend_from_slice(&u64::MAX.to_le_bytes()); // count bomb
    assert!(matches!(
        Request::decode(&body),
        Err(DecodeError::Truncated)
    ));
}

#[test]
fn delta_semantic_garbage_is_invalid_not_panic() {
    // One added message (0 -> 1, 64 bytes), nothing removed or resized:
    // the encoded tail is added_count(8) + triple(12) + removed_count(8)
    // + resized_count(8), which makes the offsets below exact.
    let base = CommMatrix::new(8);
    let mut target = CommMatrix::new(8);
    target.set(0, 1, 64);
    let delta = MatrixDelta::diff(&base, &target).unwrap();
    let cube = TopologySpec::Hypercube { dims: 3 }.build();
    let req = SubmitDeltaRequest {
        request_id: 5,
        want_schedule: false,
        topology: TopologySpec::Hypercube { dims: 3 },
        scheduler: "RS_NL".into(),
        scheme: SchemeChoice::Default,
        backend: BackendKind::Des,
        seed: 0,
        base: InstanceKey::compute(&base, cube.as_ref()),
        delta,
        cost_model: LinkCostModel::Uniform,
    };
    let body = req.encode();
    assert_eq!(
        Request::decode(&body).unwrap(),
        Request::SubmitDelta(req.clone())
    );

    // Zero-byte added message: matrix semantics rejected at decode.
    let mut zero_bytes = body.clone();
    let at = body.len() - 20; // the triple's `bytes` field
    zero_bytes[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        Request::decode(&zero_bytes),
        Err(DecodeError::Invalid(_))
    ));

    // Self-message: dst patched to equal src.
    let mut self_msg = body.clone();
    let at = body.len() - 24; // the triple's `dst` field
    self_msg[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        Request::decode(&self_msg),
        Err(DecodeError::Invalid(_))
    ));

    // Out-of-range endpoint on an 8-node topology.
    let mut out_of_range = body.clone();
    let at = body.len() - 28; // the triple's `src` field
    out_of_range[at..at + 4].copy_from_slice(&100u32.to_le_bytes());
    assert!(matches!(
        Request::decode(&out_of_range),
        Err(DecodeError::Invalid(_))
    ));

    // An added-count claim far past the body's end must be caught by
    // the bytes-remaining bound before any allocation.
    let mut count_bomb = body.clone();
    let at = body.len() - 36; // added_count
    count_bomb[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        Request::decode(&count_bomb),
        Err(DecodeError::Truncated)
    ));

    // A delta whose node count disagrees with its topology.
    let mut mismatched = req;
    mismatched.topology = TopologySpec::Hypercube { dims: 4 };
    assert!(matches!(
        Request::decode(&mismatched.encode()),
        Err(DecodeError::Invalid(_))
    ));
}

#[test]
fn semantic_garbage_is_invalid_not_panic() {
    let mut base = SubmitRequest {
        request_id: 1,
        want_schedule: false,
        topology: TopologySpec::Hypercube { dims: 3 },
        scheduler: "AC".into(),
        scheme: SchemeChoice::Default,
        backend: BackendKind::Des,
        seed: 0,
        matrix: CommMatrix::new(8),
        cost_model: LinkCostModel::Uniform,
    };
    base.matrix.set(0, 1, 64);
    // A topology/matrix size mismatch on the wire is rejected at decode.
    let mut mismatched = base.clone();
    mismatched.topology = TopologySpec::Hypercube { dims: 4 };
    assert!(matches!(
        Request::decode(&mismatched.encode()),
        Err(DecodeError::Invalid(_))
    ));
    // Mesh requests roundtrip too (the other topology arm).
    let mut mesh = base.clone();
    mesh.topology = TopologySpec::Mesh2d { rows: 2, cols: 4 };
    assert_eq!(
        Request::decode(&mesh.encode()).unwrap(),
        Request::Submit(mesh)
    );
    // Unknown kinds and torn trailing fields are typed. (A single
    // trailing byte reads as a torn optional cost-model field, so it is
    // truncation rather than trailing garbage.)
    assert!(matches!(
        Request::decode(&[0x55]),
        Err(DecodeError::BadKind(0x55))
    ));
    let mut trailing = base.encode();
    trailing.push(0xFF);
    assert!(matches!(
        Request::decode(&trailing),
        Err(DecodeError::Truncated)
    ));
    assert!(matches!(Request::decode(&[]), Err(DecodeError::Truncated)));
    // A cell listed twice with two sizes is not last-write-wins: the
    // daemon would schedule a matrix the client never described.
    let mut two = base.clone();
    two.matrix.set(0, 2, 32);
    let mut repeated = two.encode();
    let at = repeated.len() - 8; // the second record's `dst`
    repeated[at..at + 4].copy_from_slice(&1u32.to_le_bytes());
    match Request::decode(&repeated) {
        Err(DecodeError::Invalid(what)) => assert_eq!(what, "duplicate message 0 -> 1"),
        other => panic!("a repeated cell decoded as {other:?}"),
    }
}
