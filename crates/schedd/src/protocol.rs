//! The `schedd` wire protocol: length-prefixed, checksummed frames.
//!
//! Every message — client→server requests and server→client responses —
//! travels as one **frame**:
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0 | 4 | magic [`FRAME_MAGIC`] (`b"SDF2"`, version baked into the tag) |
//! | 4 | 4 | body length `u32` LE (≤ [`MAX_BODY_LEN`]) |
//! | 8 | len | body |
//! | 8+len | 8 | [`commcache::checksum64`] of the body, LE |
//!
//! The first body byte is the frame kind; the rest is kind-specific, all
//! integers little-endian, strings UTF-8 with a `u32` length prefix, all
//! read and written by [`commcache::codec`], which the schedule artifact
//! and the fingerprint layout share.
//! Responses can arrive **out of order** relative to their submissions
//! (the daemon's worker pool races), so every request carries a
//! `request_id` that the matching response echoes — that is what makes
//! pipelined submission possible over one connection.
//!
//! Decoding is hardened the way the artifact store is hardened: hostile
//! headers, truncation at any byte offset, and single-byte corruption all
//! surface as typed [`FrameError`]/[`DecodeError`] values — never panics,
//! never silently-wrong data (the body checksum catches corruption that a
//! length-prefixed stream format cannot otherwise see). The property
//! suite in `tests/protocol_roundtrip.rs` pins exactly that.
//!
//! Two payloads are other crates' types that this module only carries.
//! The fabric a request names is a [`topo::TopologyKind`]: the codec here
//! writes its kind byte and fields, its structural bounds are
//! [`TopologyKind::validate`]'s, and errors print it as the kind string
//! `schedctl --topo` parses. Schedules inside [`SubmitReply`] frames are
//! commcache artifacts ([`commcache::encode_artifact`]): one payload
//! format on disk and on the wire, one corruption suite hardening both.

use std::borrow::Cow;
use std::fmt;
use std::io::{self, IoSlice, Read, Write};
use std::sync::Arc;

use commcache::codec::{put_matrix, put_messages, put_str, CodecError, MatrixBlock, Reader};
use commcache::{checksum64, Fingerprint, InstanceKey};
use commrt::{BackendKind, BackendReport, ContentionStats, Scheme};
use commsched::{CommMatrix, MatrixDelta, Schedule, Scheduler};
use hypercube::NodeId;
use simnet::LinkCostModel;
use topo::TopologyKind;

/// Leading magic of every frame; the trailing `2` is the protocol
/// version, so a future layout change is a new magic, not an ambiguity.
pub const FRAME_MAGIC: [u8; 4] = *b"SDF2";

/// Hard upper bound on a frame body. Large enough for the biggest legal
/// response (a dense 1024-node LP schedule is ~4 MiB as an artifact),
/// small enough that a hostile length header cannot balloon allocation.
pub const MAX_BODY_LEN: u32 = 32 << 20;

/// Longest accepted scheduler name.
pub const MAX_NAME_LEN: usize = 64;

/// Longest accepted canonical link-cost-model string.
pub const MAX_COSTMODEL_LEN: usize = 128;

/// Default for [`ProtocolLimits::max_request_nodes`]: large enough for
/// every paper-scale request, small enough that a hostile header cannot
/// force a large allocation on an unconfigured daemon.
pub const MAX_REQUEST_NODES: u64 = 1024;

/// Largest `n²` a `Submit` matrix may span: 2^26 (n = 8192), a wire
/// contract in force however high `--max-nodes` goes. A [`CommMatrix`]
/// costs its messages, not `n²`, so the cap guards no allocation.
pub const MAX_MATRIX_CELLS: u64 = 1 << 26;

/// Decode-time size limits, configurable per daemon (`--max-nodes`).
///
/// The wire format itself has no node bound; these limits are what the
/// *decoder* enforces before allocating anything a hostile header could
/// inflate. [`Request::decode`] applies the defaults (the paper-scale
/// caps the protocol shipped with); a daemon serving bigger fabrics
/// passes its own limits via [`Request::decode_with`].
///
/// The node cap bounds [`TopologyKind::num_nodes`] of every decoded
/// fabric, whatever its kind. [`MAX_MATRIX_CELLS`] is independent of it:
/// a `Submit` whose `n²` exceeds that is rejected with
/// [`DecodeError::LimitExceeded`] however high the node cap is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtocolLimits {
    /// Largest node count a request may carry.
    pub max_request_nodes: u64,
}

impl Default for ProtocolLimits {
    fn default() -> Self {
        ProtocolLimits::with_max_nodes(MAX_REQUEST_NODES)
    }
}

impl ProtocolLimits {
    /// Limits for a daemon admitting up to `nodes` nodes.
    pub fn with_max_nodes(nodes: u64) -> Self {
        ProtocolLimits {
            max_request_nodes: nodes,
        }
    }
}

// Frame kinds: requests low, responses high bit set.
pub(crate) const K_SUBMIT: u8 = 0x01;
const K_STATS_REQ: u8 = 0x02;
const K_SHUTDOWN_REQ: u8 = 0x03;
const K_SUBMIT_DELTA: u8 = 0x04;
pub(crate) const K_SCHEDULE: u8 = 0x81;
const K_STATS: u8 = 0x82;
const K_ERROR: u8 = 0x83;
const K_SHUTDOWN_ACK: u8 = 0x84;

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Why a frame could not be read off the stream.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure.
    Io(io::Error),
    /// The stream does not start with [`FRAME_MAGIC`] — not a `schedd`
    /// peer (or a desynchronized one). The connection cannot be resynced.
    BadMagic([u8; 4]),
    /// The header claims a body larger than [`MAX_BODY_LEN`].
    Oversized(u32),
    /// The stream ended inside a frame.
    Truncated,
    /// The body checksum does not match — corruption in transit.
    Checksum,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::Oversized(len) => {
                write!(
                    f,
                    "frame body of {len} bytes exceeds the {MAX_BODY_LEN} cap"
                )
            }
            FrameError::Truncated => write!(f, "stream ended inside a frame"),
            FrameError::Checksum => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// The frame header of a `len`-byte body; `InvalidInput` past
/// [`MAX_BODY_LEN`].
fn frame_header(len: usize) -> io::Result<[u8; 8]> {
    if len > MAX_BODY_LEN as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body of {len} bytes exceeds the cap"),
        ));
    }
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&FRAME_MAGIC);
    header[4..].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(header)
}

/// Write one complete frame (header + body + checksum). The three parts
/// go out in one vectored write where the writer supports it; the body
/// is not copied.
///
/// # Errors
///
/// Propagates transport errors; `InvalidInput` if `body` exceeds
/// [`MAX_BODY_LEN`] (nothing is written).
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let header = frame_header(body.len())?;
    let sum = checksum64(body).to_le_bytes();
    let mut parts = [
        IoSlice::new(&header),
        IoSlice::new(body),
        IoSlice::new(&sum),
    ];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Start a frame at the end of `frame` and return where it starts: the
/// header is reserved, and the body is encoded after it in place.
/// [`seal_frame`] finishes it, so frames are built one after another in
/// one buffer and written with one `write_all`.
pub(crate) fn begin_frame(frame: &mut Vec<u8>) -> usize {
    let start = frame.len();
    frame.extend_from_slice(&[0; 8]);
    start
}

/// Finish the frame [`begin_frame`] started at `start`: fill in the
/// header and append the body's checksum.
///
/// # Errors
///
/// `InvalidInput` if the body exceeds [`MAX_BODY_LEN`] (the frame is left
/// unsealed).
pub(crate) fn seal_frame(frame: &mut Vec<u8>, start: usize) -> io::Result<()> {
    let body = &frame[start + 8..];
    let (header, sum) = (frame_header(body.len())?, checksum64(body));
    frame[start..start + 8].copy_from_slice(&header);
    frame.extend_from_slice(&sum.to_le_bytes());
    Ok(())
}

/// Read exactly `buf.len()` bytes; distinguishes clean EOF before the
/// first byte (`Ok(false)`) from EOF mid-buffer ([`FrameError::Truncated`]).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(FrameError::Truncated)
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}

/// The one parser of a frame header: the whole frame's length once the
/// header is in, checking the magic as soon as its bytes are and the
/// claimed body length against [`MAX_BODY_LEN`].
pub(crate) fn frame_len(window: &[u8]) -> Result<Option<usize>, FrameError> {
    let Some(&[a, b, c, d]) = window.get(..4) else {
        return Ok(None);
    };
    if [a, b, c, d] != FRAME_MAGIC {
        return Err(FrameError::BadMagic([a, b, c, d]));
    }
    let Some(&[a, b, c, d]) = window.get(4..8) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes([a, b, c, d]);
    if len > MAX_BODY_LEN {
        return Err(FrameError::Oversized(len));
    }
    Ok(Some(8 + len as usize + 8))
}

fn check_sum(body: &[u8], sum: [u8; 8]) -> Result<(), FrameError> {
    if u64::from_le_bytes(sum) != checksum64(body) {
        return Err(FrameError::Checksum);
    }
    Ok(())
}

/// Read one frame body off the stream. `Ok(None)` is a clean EOF at a
/// frame boundary (the peer hung up between messages).
///
/// # Errors
///
/// Every malformation is a typed [`FrameError`]; this function never
/// panics on hostile bytes and never allocates more than the header's
/// (bounds-checked) claim.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 8];
    if !read_exact_or_eof(r, &mut header[..4])? {
        return Ok(None);
    }
    frame_len(&header[..4])?; // the magic, before another byte is read
    if !read_exact_or_eof(r, &mut header[4..])? {
        return Err(FrameError::Truncated);
    }
    let len = frame_len(&header)?.expect("a whole header");
    let mut body = vec![0u8; len - 16];
    let mut sum = [0u8; 8];
    if !read_exact_or_eof(r, &mut body)? || !read_exact_or_eof(r, &mut sum)? {
        return Err(FrameError::Truncated);
    }
    check_sum(&body, sum)?;
    Ok(Some(body))
}

/// Split off the frame `window` starts with, in place and checked as
/// [`read_frame`] checks it: `Ok(Some((body, len)))` once all `len` bytes
/// of it are in, `Ok(None)` before (the caller knows if the stream ended).
///
/// # Errors
///
/// [`FrameError::BadMagic`], [`FrameError::Oversized`] or
/// [`FrameError::Checksum`].
pub fn split_frame(window: &[u8]) -> Result<Option<(&[u8], usize)>, FrameError> {
    let Some(len) = frame_len(window)? else {
        return Ok(None);
    };
    let Some(frame) = window.get(8..len) else {
        return Ok(None);
    };
    let (body, sum) = frame.split_at(len - 16);
    check_sum(body, sum.try_into().expect("eight checksum bytes"))?;
    Ok(Some((body, len)))
}

// ---------------------------------------------------------------------------
// Body decode plumbing
// ---------------------------------------------------------------------------

/// Why a well-framed body could not be decoded.
#[derive(Debug)]
pub enum DecodeError {
    /// The body ended before its own structure did.
    Truncated,
    /// Bytes remain after the last field.
    TrailingBytes,
    /// Unknown frame kind byte.
    BadKind(u8),
    /// An enum-coded field carries an unassigned value.
    BadValue {
        /// Which field.
        field: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A string field is not valid UTF-8 or exceeds its cap.
    BadString(&'static str),
    /// A size field exceeds the daemon's [`ProtocolLimits`] — a legal
    /// encoding the receiving daemon declines to allocate for.
    LimitExceeded {
        /// Which field.
        field: &'static str,
        /// The claimed size.
        value: u64,
        /// The limit in force.
        limit: u64,
    },
    /// Structurally sound but semantically impossible (self-message,
    /// node index out of range, matrix/topology size mismatch, ...).
    Invalid(String),
    /// The embedded schedule artifact failed to decode.
    Artifact(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "body ended inside a field"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after the last field"),
            DecodeError::BadKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            DecodeError::BadValue { field, value } => {
                write!(f, "field `{field}` carries unassigned value {value}")
            }
            DecodeError::BadString(field) => {
                write!(f, "field `{field}` is not valid UTF-8 or too long")
            }
            DecodeError::LimitExceeded {
                field,
                value,
                limit,
            } => {
                write!(
                    f,
                    "field `{field}` claims {value}, above this daemon's limit of {limit}"
                )
            }
            DecodeError::Invalid(what) => write!(f, "invalid request: {what}"),
            DecodeError::Artifact(what) => write!(f, "embedded schedule artifact: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<CodecError> for DecodeError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => DecodeError::Truncated,
            CodecError::TrailingBytes => DecodeError::TrailingBytes,
            CodecError::BadString(field) => DecodeError::BadString(field),
        }
    }
}

/// One byte naming a value of `T`; an unassigned code is a typed error
/// carrying `field`.
fn coded<T>(
    rd: &mut Reader<'_>,
    field: &'static str,
    from_code: impl FnOnce(u8) -> Option<T>,
) -> Result<T, DecodeError> {
    let code = rd.u8()?;
    from_code(code).ok_or(DecodeError::BadValue {
        field,
        value: code.into(),
    })
}

fn flag(rd: &mut Reader<'_>, field: &'static str) -> Result<bool, DecodeError> {
    coded(rd, field, |code| (code <= 1).then_some(code == 1))
}

/// Append a frame kind and a request id, how every body opens.
fn put_id(out: &mut Vec<u8>, kind: u8, request_id: u64) {
    out.push(kind);
    out.extend_from_slice(&request_id.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Request model
// ---------------------------------------------------------------------------

/// Write a fabric as its wire kind byte (0 hypercube, 1 mesh, 2 torus,
/// 3 fat-tree) and the kind's `u32` fields; a torus carries its
/// dimension count first.
fn encode_topology(kind: &TopologyKind, out: &mut Vec<u8>) {
    match kind {
        TopologyKind::Hypercube { dims } => {
            out.push(0);
            out.extend_from_slice(&dims.to_le_bytes());
        }
        TopologyKind::Mesh2d { rows, cols } => {
            out.push(1);
            out.extend_from_slice(&rows.to_le_bytes());
            out.extend_from_slice(&cols.to_le_bytes());
        }
        TopologyKind::Torus { extents } => {
            out.push(2);
            out.extend_from_slice(&(extents.len() as u32).to_le_bytes());
            for &k in extents {
                out.extend_from_slice(&k.to_le_bytes());
            }
        }
        TopologyKind::FatTree { k } => {
            out.push(3);
            out.extend_from_slice(&k.to_le_bytes());
        }
    }
}

/// Read a fabric back: whether the fields describe one is
/// [`TopologyKind::validate`]'s call, whether this daemon serves one
/// that large is the node cap's — the same two checks for every kind.
fn decode_topology(
    rd: &mut Reader<'_>,
    limits: &ProtocolLimits,
) -> Result<TopologyKind, DecodeError> {
    let kind = match rd.u8()? {
        0 => TopologyKind::Hypercube { dims: rd.u32()? },
        1 => TopologyKind::Mesh2d {
            rows: rd.u32()?,
            cols: rd.u32()?,
        },
        2 => {
            let ndims = rd.u32()?;
            // No torus has more than 8 dimensions: refuse before
            // allocating anything proportional to the claimed count.
            if ndims > 8 {
                return Err(DecodeError::BadValue {
                    field: "topology.torus.ndims",
                    value: ndims.into(),
                });
            }
            TopologyKind::Torus {
                extents: (0..ndims).map(|_| rd.u32()).collect::<Result<_, _>>()?,
            }
        }
        3 => TopologyKind::FatTree { k: rd.u32()? },
        other => {
            return Err(DecodeError::BadValue {
                field: "topology.kind",
                value: other.into(),
            })
        }
    };
    kind.validate()
        .map_err(|e| DecodeError::Invalid(e.to_string()))?;
    let nodes = kind.num_nodes() as u64;
    if nodes > limits.max_request_nodes {
        return Err(DecodeError::LimitExceeded {
            field: "topology.nodes",
            value: nodes,
            limit: limits.max_request_nodes,
        });
    }
    Ok(kind)
}

/// The communication scheme a request asks for: explicit, or the paper
/// default of whatever scheduler serves it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchemeChoice {
    /// Loose synchrony with exchange fusion.
    S1,
    /// Post-everything-then-blast.
    S2,
    /// [`Scheme::for_scheduler`] of the resolved registry entry.
    #[default]
    Default,
}

impl SchemeChoice {
    /// Resolve against the entry that will serve the request.
    pub fn resolve(self, entry: &dyn Scheduler) -> Scheme {
        match self {
            SchemeChoice::S1 => Scheme::S1,
            SchemeChoice::S2 => Scheme::S2,
            SchemeChoice::Default => Scheme::for_scheduler(entry),
        }
    }

    fn code(self) -> u8 {
        match self {
            SchemeChoice::S1 => 0,
            SchemeChoice::S2 => 1,
            SchemeChoice::Default => 2,
        }
    }

    fn from_code(code: u8) -> Option<SchemeChoice> {
        [SchemeChoice::S1, SchemeChoice::S2, SchemeChoice::Default]
            .into_iter()
            .find(|choice| choice.code() == code)
    }
}

fn backend_code(kind: BackendKind) -> u8 {
    match kind {
        BackendKind::Des => 0,
        BackendKind::Analytic => 1,
    }
}

fn backend_from_code(code: u8) -> Option<BackendKind> {
    [BackendKind::Des, BackendKind::Analytic]
        .into_iter()
        .find(|&kind| backend_code(kind) == code)
}

/// What `Submit` and `SubmitDelta` share, in wire order: the frame kind
/// byte, these seven fields, the frame's own payload, then the trailing
/// optional cost model ([`put_cost_model`] / [`decode_cost_model`]). The
/// daemon admits a request from its envelope
/// ([`crate::service`]'s `Pending`) and echoes its id and flag.
pub(crate) struct Envelope<'a> {
    pub(crate) request_id: u64,
    pub(crate) want_schedule: bool,
    pub(crate) topology: Cow<'a, TopologyKind>,
    pub(crate) scheduler: Cow<'a, str>,
    pub(crate) scheme: SchemeChoice,
    pub(crate) backend: BackendKind,
    pub(crate) seed: u64,
}

impl Envelope<'_> {
    fn encode(&self, frame_kind: u8, out: &mut Vec<u8>) {
        put_id(out, frame_kind, self.request_id);
        out.push(u8::from(self.want_schedule));
        encode_topology(&self.topology, out);
        put_str(out, &self.scheduler);
        out.push(self.scheme.code());
        out.push(backend_code(self.backend));
        out.extend_from_slice(&self.seed.to_le_bytes());
    }

    fn decode<'a>(
        rd: &mut Reader<'a>,
        limits: &ProtocolLimits,
    ) -> Result<Envelope<'a>, DecodeError> {
        // Field initialisers run top to bottom: this is the wire order.
        Ok(Envelope {
            request_id: rd.u64()?,
            want_schedule: flag(rd, "flags")?,
            topology: Cow::Owned(decode_topology(rd, limits)?),
            scheduler: Cow::Borrowed(rd.str_ref("scheduler", MAX_NAME_LEN)?),
            scheme: coded(rd, "scheme", SchemeChoice::from_code)?,
            backend: coded(rd, "backend", backend_from_code)?,
            seed: rd.u64()?,
        })
    }

    /// The full submit these fields head.
    fn into_submit(self, matrix: CommMatrix, cost_model: LinkCostModel) -> SubmitRequest {
        SubmitRequest {
            request_id: self.request_id,
            want_schedule: self.want_schedule,
            topology: self.topology.into_owned(),
            scheduler: self.scheduler.into_owned(),
            scheme: self.scheme,
            backend: self.backend,
            seed: self.seed,
            matrix,
            cost_model,
        }
    }

    /// The full delta submit these fields head.
    fn into_delta(
        self,
        base: InstanceKey,
        delta: MatrixDelta,
        cost_model: LinkCostModel,
    ) -> SubmitDeltaRequest {
        SubmitDeltaRequest {
            request_id: self.request_id,
            want_schedule: self.want_schedule,
            topology: self.topology.into_owned(),
            scheduler: self.scheduler.into_owned(),
            scheme: self.scheme,
            backend: self.backend,
            seed: self.seed,
            base,
            delta,
            cost_model,
        }
    }

    /// The payload's node count: positive, within the node cap, and the
    /// size of the fabric the envelope names.
    fn node_count(
        &self,
        rd: &mut Reader<'_>,
        limits: &ProtocolLimits,
        field: &'static str,
    ) -> Result<usize, DecodeError> {
        let n = rd.u64()?;
        if n == 0 {
            return Err(DecodeError::BadValue { field, value: n });
        }
        if n > limits.max_request_nodes {
            return Err(DecodeError::LimitExceeded {
                field,
                value: n,
                limit: limits.max_request_nodes,
            });
        }
        if n != self.topology.num_nodes() as u64 {
            return Err(DecodeError::Invalid(format!(
                "{field} is {n} but the topology {} has {} nodes",
                self.topology,
                self.topology.num_nodes()
            )));
        }
        Ok(n as usize)
    }
}

/// One schedule request: exactly the commcache fingerprint inputs —
/// *(matrix, topology, scheduler, seed)* — plus how to price the result
/// (scheme, backend) and what to stream back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmitRequest {
    /// Client-chosen id echoed by the matching response (pipelining).
    pub request_id: u64,
    /// Stream the compiled schedule back (estimates always come back).
    pub want_schedule: bool,
    /// Where the communication happens.
    pub topology: TopologyKind,
    /// Registry name of the scheduler ([`commsched::registry::find`]).
    pub scheduler: String,
    /// Communication scheme for the estimate.
    pub scheme: SchemeChoice,
    /// Simulation backend pricing the estimate.
    pub backend: BackendKind,
    /// Scheduler seed.
    pub seed: u64,
    /// The communication matrix.
    pub matrix: CommMatrix,
    /// Per-link cost model pricing the estimate.
    ///
    /// Travels as a **trailing optional field**: uniform requests encode
    /// nothing, so a uniform body is byte-identical whether or not the
    /// sender knows about cost models — body-level tests and everything
    /// keyed on the encoded request stay put — and non-uniform models
    /// append their canonical string.
    pub cost_model: LinkCostModel,
}

impl SubmitRequest {
    /// The envelope heading this request, borrowing its fields.
    pub(crate) fn envelope(&self) -> Envelope<'_> {
        Envelope {
            request_id: self.request_id,
            want_schedule: self.want_schedule,
            topology: Cow::Borrowed(&self.topology),
            scheduler: Cow::Borrowed(&self.scheduler),
            scheme: self.scheme,
            backend: self.backend,
            seed: self.seed,
        }
    }

    /// Encode into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_to(&mut out);
        out
    }

    /// Append the frame body to `out`.
    fn encode_to(&self, out: &mut Vec<u8>) {
        out.reserve(64 + 12 * self.matrix.message_count());
        self.envelope().encode(K_SUBMIT, out);
        put_matrix(out, &self.matrix);
        put_cost_model(out, &self.cost_model);
    }

    /// Everything before the messages: the envelope and the matrix's
    /// node count, checked against the fabric and the cell budget.
    fn decode_head<'a>(
        rd: &mut Reader<'a>,
        limits: &ProtocolLimits,
    ) -> Result<(Envelope<'a>, usize), DecodeError> {
        let head = Envelope::decode(rd, limits)?;
        let n = head.node_count(rd, limits, "matrix.n")?;
        let cells = (n as u64).saturating_mul(n as u64);
        if cells > MAX_MATRIX_CELLS {
            return Err(DecodeError::LimitExceeded {
                field: "matrix.cells",
                value: cells,
                limit: MAX_MATRIX_CELLS,
            });
        }
        Ok((head, n))
    }

    fn decode(rd: &mut Reader<'_>, limits: &ProtocolLimits) -> Result<Self, DecodeError> {
        let (head, n) = Self::decode_head(rd, limits)?;
        // Any message order decodes; the anomaly reported is the one at
        // the earliest wire position.
        let matrix = CommMatrix::from_messages(n, rd.messages()?)
            .map_err(|e| DecodeError::Invalid(e.to_string()))?;
        Ok(head.into_submit(matrix, decode_cost_model(rd)?))
    }
}

/// A `Submit` body read only as far as recognising a repeat needs: its
/// envelope, and its matrix block borrowed from the body. The daemon's
/// reader admits the request from the envelope, keys the instance from
/// the block's bytes ([`InstanceKey::of_block`]) and answers a resident
/// repeat without building the matrix.
///
/// [`parse`](Self::parse) accepts a body only when the full
/// [`Request::decode_with`] accepts it too, with the same fields, a
/// uniform cost model, and a matrix whose block is byte for byte the
/// body's: anything else (an error, any message order but row-major, a
/// cost-model string) is `None`, and the caller decodes the long way,
/// which words every error.
pub(crate) struct SubmitView<'a> {
    pub(crate) head: Envelope<'a>,
    pub(crate) block: MatrixBlock<'a>,
}

impl<'a> SubmitView<'a> {
    pub(crate) fn parse(body: &'a [u8], limits: &ProtocolLimits) -> Option<SubmitView<'a>> {
        let mut rd = Reader::new(body);
        if rd.u8().ok()? != K_SUBMIT {
            return None;
        }
        let (head, n) = SubmitRequest::decode_head(&mut rd, limits).ok()?;
        let block = rd.canonical_messages(n)?;
        // Nothing may follow: a uniform request carries no cost model.
        rd.finish().ok()?;
        Some(SubmitView { head, block })
    }
}

/// Encode the trailing optional cost-model field: nothing for uniform,
/// the canonical string otherwise.
fn put_cost_model(out: &mut Vec<u8>, cost_model: &LinkCostModel) {
    if !cost_model.is_uniform() {
        put_str(out, &cost_model.to_string());
    }
}

/// Decode the trailing optional cost-model field: absent means uniform
/// (the pre-cost-model wire format), present means a canonical string
/// validated by the [`LinkCostModel`] grammar.
fn decode_cost_model(rd: &mut Reader<'_>) -> Result<LinkCostModel, DecodeError> {
    if rd.remaining() == 0 {
        return Ok(LinkCostModel::Uniform);
    }
    let s = rd.str("cost_model", MAX_COSTMODEL_LEN)?;
    s.parse()
        .map_err(|e| DecodeError::Invalid(format!("cost model {s:?}: {e}")))
}

/// A schedule request expressed as an **edit list against a base the
/// daemon already holds**, instead of a full matrix.
///
/// The envelope (id, topology, scheduler, scheme, backend, seed) is the
/// same as [`SubmitRequest`]; the matrix is replaced by the base's
/// [`InstanceKey`] plus a [`MatrixDelta`]. The daemon resolves the base
/// from its incremental cache, applies the delta, and from there the
/// request is indistinguishable from a full submit of the perturbed
/// matrix — same fingerprint, same cache, byte-identical reply. A base
/// the daemon no longer retains is a typed
/// [`ErrorCode::UnknownBase`]; the client falls back to a full submit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmitDeltaRequest {
    /// Client-chosen id echoed by the matching response (pipelining).
    pub request_id: u64,
    /// Stream the compiled schedule back (estimates always come back).
    pub want_schedule: bool,
    /// Where the communication happens.
    pub topology: TopologyKind,
    /// Registry name of the scheduler ([`commsched::registry::find`]).
    pub scheduler: String,
    /// Communication scheme for the estimate.
    pub scheme: SchemeChoice,
    /// Simulation backend pricing the estimate.
    pub backend: BackendKind,
    /// Scheduler seed.
    pub seed: u64,
    /// Key of the base matrix this delta edits
    /// ([`InstanceKey::compute`] over the base).
    pub base: InstanceKey,
    /// The edits.
    pub delta: MatrixDelta,
    /// Per-link cost model pricing the estimate (trailing optional
    /// field; see [`SubmitRequest::cost_model`]).
    pub cost_model: LinkCostModel,
}

impl SubmitDeltaRequest {
    fn envelope(&self) -> Envelope<'_> {
        Envelope {
            request_id: self.request_id,
            want_schedule: self.want_schedule,
            topology: Cow::Borrowed(&self.topology),
            scheduler: Cow::Borrowed(&self.scheduler),
            scheme: self.scheme,
            backend: self.backend,
            seed: self.seed,
        }
    }

    /// The full submit this delta denotes, given `matrix` — its base
    /// with the edits applied.
    pub fn to_submit(&self, matrix: CommMatrix) -> SubmitRequest {
        self.envelope().into_submit(matrix, self.cost_model)
    }

    /// Encode into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_to(&mut out);
        out
    }

    /// Append the frame body to `out`.
    fn encode_to(&self, out: &mut Vec<u8>) {
        out.reserve(96 + self.delta.change_count() * 12);
        self.envelope().encode(K_SUBMIT_DELTA, out);
        out.extend_from_slice(&self.base.to_bytes());
        out.extend_from_slice(&(self.delta.n() as u64).to_le_bytes());
        let (added, resized) = (self.delta.added(), self.delta.resized());
        put_messages(out, added.len(), added.iter().copied());
        out.extend_from_slice(&(self.delta.removed().len() as u64).to_le_bytes());
        for &(src, dst) in self.delta.removed() {
            out.extend_from_slice(&src.0.to_le_bytes());
            out.extend_from_slice(&dst.0.to_le_bytes());
        }
        put_messages(out, resized.len(), resized.iter().copied());
        put_cost_model(out, &self.cost_model);
    }

    fn decode(rd: &mut Reader<'_>, limits: &ProtocolLimits) -> Result<Self, DecodeError> {
        let head = Envelope::decode(rd, limits)?;
        let base = InstanceKey::from_bytes(rd.array()?);
        let n = head.node_count(rd, limits, "delta.n")?;
        let added = rd.messages()?.collect();
        let removed = rd.list(8, |rd| Ok((NodeId(rd.u32()?), NodeId(rd.u32()?))))?;
        let resized = rd.messages()?.collect();
        // `from_parts` re-runs the matrix-level semantic checks
        // (ranges, self-messages, zero bytes, duplicate cells), so a
        // hostile delta surfaces as a typed error here, not a panic in
        // the daemon's apply path.
        let delta = MatrixDelta::from_parts(n, added, removed, resized)
            .map_err(|e| DecodeError::Invalid(e.to_string()))?;
        Ok(head.into_delta(base, delta, decode_cost_model(rd)?))
    }
}

/// Every client→server frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Schedule + estimate one request.
    Submit(SubmitRequest),
    /// Schedule + estimate a delta against a retained base.
    SubmitDelta(SubmitDeltaRequest),
    /// Snapshot the daemon counters.
    Stats {
        /// Echoed by the response.
        request_id: u64,
    },
    /// Ask the daemon to drain and exit.
    Shutdown {
        /// Echoed by the acknowledgement.
        request_id: u64,
    },
}

impl Request {
    /// Encode into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_to(&mut out);
        out
    }

    /// Append the frame body to `out` (a frame [`begin_frame`] started).
    pub(crate) fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            Request::Submit(req) => req.encode_to(out),
            Request::SubmitDelta(req) => req.encode_to(out),
            Request::Stats { request_id } => put_id(out, K_STATS_REQ, *request_id),
            Request::Shutdown { request_id } => put_id(out, K_SHUTDOWN_REQ, *request_id),
        }
    }

    /// Decode a frame body under the default [`ProtocolLimits`].
    ///
    /// # Errors
    ///
    /// Typed [`DecodeError`] for every malformation; never panics.
    pub fn decode(body: &[u8]) -> Result<Request, DecodeError> {
        Request::decode_with(body, &ProtocolLimits::default())
    }

    /// Decode a frame body under a daemon's own size limits.
    ///
    /// # Errors
    ///
    /// Typed [`DecodeError`] for every malformation — size claims above
    /// `limits` are [`DecodeError::LimitExceeded`]; never panics.
    pub fn decode_with(body: &[u8], limits: &ProtocolLimits) -> Result<Request, DecodeError> {
        let mut rd = Reader::new(body);
        let req = match rd.u8()? {
            K_SUBMIT => Request::Submit(SubmitRequest::decode(&mut rd, limits)?),
            K_SUBMIT_DELTA => Request::SubmitDelta(SubmitDeltaRequest::decode(&mut rd, limits)?),
            K_STATS_REQ => Request::Stats {
                request_id: rd.u64()?,
            },
            K_SHUTDOWN_REQ => Request::Shutdown {
                request_id: rd.u64()?,
            },
            other => return Err(DecodeError::BadKind(other)),
        };
        rd.finish()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Response model
// ---------------------------------------------------------------------------

/// Typed failure classes a response can carry. The numeric codes are
/// wire-stable: new codes append, existing codes never renumber.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The frame or body could not be decoded (the echoed id is 0 when
    /// the failure predates knowing one).
    Malformed = 1,
    /// No registry entry under the requested name.
    UnknownScheduler = 2,
    /// The entry declines the topology ([`Scheduler::supports_topology`]).
    UnsupportedTopology = 3,
    /// Structurally decodable but unservable request.
    BadRequest = 4,
    /// The client exceeded its in-flight quota; resubmit after a reply.
    QuotaExceeded = 5,
    /// The compile queue is full; backpressure — resubmit later.
    Overloaded = 6,
    /// The daemon is draining; no new work is admitted.
    ShuttingDown = 7,
    /// The simulation backend rejected the request.
    SimFailed = 8,
    /// A daemon-side invariant failure.
    Internal = 9,
    /// A delta submit named a base the daemon does not retain (evicted,
    /// never seen, or incremental compilation disabled). Recoverable:
    /// resubmit the full matrix.
    UnknownBase = 10,
}

impl ErrorCode {
    /// Every assigned code, in numeric order.
    pub fn all() -> [ErrorCode; 10] {
        [
            ErrorCode::Malformed,
            ErrorCode::UnknownScheduler,
            ErrorCode::UnsupportedTopology,
            ErrorCode::BadRequest,
            ErrorCode::QuotaExceeded,
            ErrorCode::Overloaded,
            ErrorCode::ShuttingDown,
            ErrorCode::SimFailed,
            ErrorCode::Internal,
            ErrorCode::UnknownBase,
        ]
    }

    fn from_code(code: u8) -> Option<ErrorCode> {
        ErrorCode::all().into_iter().find(|c| *c as u8 == code)
    }

    /// Stable lowercase label for logs and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::UnknownScheduler => "unknown-scheduler",
            ErrorCode::UnsupportedTopology => "unsupported-topology",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::QuotaExceeded => "quota-exceeded",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::SimFailed => "sim-failed",
            ErrorCode::Internal => "internal",
            ErrorCode::UnknownBase => "unknown-base",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A typed error response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorReply {
    /// The offending request's id (0 when unknown).
    pub request_id: u64,
    /// Failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for ErrorReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

/// A successful schedule response: the fingerprint, the estimate, and
/// (when asked for) the schedule itself as a commcache artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmitReply {
    /// Echo of [`SubmitRequest::request_id`].
    pub request_id: u64,
    /// Canonical key of the request ([`Fingerprint::compute`]).
    pub fingerprint: Fingerprint,
    /// Whether *this* request ran the compile (false = served by dedup,
    /// the cache, or the artifact store).
    pub freshly_compiled: bool,
    /// The backend's estimate.
    pub estimate: BackendReport,
    /// The compiled schedule, present iff the request asked for it.
    /// `Arc` so the daemon streams cache-shared schedules without deep
    /// copies.
    pub schedule: Option<Arc<Schedule>>,
}

/// Append a whole `Schedule` reply body: the one layout of that frame,
/// from its parts. [`SubmitReply`] encodes through it, and so does every
/// answer the daemon writes, straight from the estimate's report and the
/// artifact bytes the schedule cache keeps
/// ([`commcache::SchedCache::artifact`]); `artifact` is present iff the
/// request asked for the schedule.
pub(crate) fn put_schedule_reply(
    out: &mut Vec<u8>,
    request_id: u64,
    fingerprint: Fingerprint,
    freshly_compiled: bool,
    estimate: &BackendReport,
    artifact: Option<&[u8]>,
) {
    let phases = &estimate.phase_end_ns;
    out.reserve(90 + 8 * phases.len() + artifact.map_or(0, <[u8]>::len));
    put_id(out, K_SCHEDULE, request_id);
    out.extend_from_slice(&fingerprint.to_bytes());
    out.push(u8::from(freshly_compiled));
    out.extend_from_slice(&estimate.makespan_ns.to_le_bytes());
    out.extend_from_slice(&(phases.len() as u64).to_le_bytes());
    for &end in phases {
        out.extend_from_slice(&end.to_le_bytes());
    }
    let c = &estimate.contention;
    out.extend_from_slice(&c.max_engine_busy_ns.to_le_bytes());
    out.extend_from_slice(&c.max_link_busy_ns.to_le_bytes());
    out.extend_from_slice(&c.contended_transfers.to_le_bytes());
    out.extend_from_slice(&(c.contended_phases as u64).to_le_bytes());
    match artifact {
        None => out.push(0),
        Some(artifact) => {
            out.push(1);
            out.extend_from_slice(&(artifact.len() as u64).to_le_bytes());
            out.extend_from_slice(artifact);
        }
    }
}

impl SubmitReply {
    fn encode_to(&self, out: &mut Vec<u8>) {
        let artifact = (self.schedule.as_ref())
            .map(|schedule| commcache::encode_artifact(self.fingerprint, schedule));
        put_schedule_reply(
            out,
            self.request_id,
            self.fingerprint,
            self.freshly_compiled,
            &self.estimate,
            artifact.as_deref(),
        );
    }

    fn decode(rd: &mut Reader<'_>) -> Result<SubmitReply, DecodeError> {
        // Field initialisers run top to bottom: this is the wire order.
        let mut reply = SubmitReply {
            request_id: rd.u64()?,
            fingerprint: Fingerprint::from_bytes(rd.array()?),
            freshly_compiled: flag(rd, "freshly_compiled")?,
            estimate: BackendReport {
                makespan_ns: rd.u64()?,
                phase_end_ns: rd.list(8, Reader::u64)?,
                contention: ContentionStats {
                    max_engine_busy_ns: rd.u64()?,
                    max_link_busy_ns: rd.u64()?,
                    contended_transfers: rd.u64()?,
                    contended_phases: rd.u64()? as usize,
                },
            },
            schedule: None,
        };
        if flag(rd, "schedule_present")? {
            let len = rd.u64()? as usize;
            let (fp, schedule) = commcache::decode_artifact(rd.take(len)?)
                .map_err(|e| DecodeError::Artifact(e.to_string()))?;
            if fp != reply.fingerprint {
                return Err(DecodeError::Invalid(format!(
                    "artifact keyed {fp} inside a reply keyed {}",
                    reply.fingerprint
                )));
            }
            reply.schedule = Some(Arc::new(schedule));
        }
        Ok(reply)
    }
}

/// A point-in-time snapshot of every daemon counter, as carried by a
/// stats response. All fields are `u64`; the wire layout is the struct
/// field order, which is append-only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Connections ever accepted.
    pub connections_accepted: u64,
    /// Connections currently open (gauge).
    pub connections_active: u64,
    /// Connections that died inside a frame (mid-stream disconnects).
    pub disconnects_midstream: u64,
    /// Submit frames received.
    pub submits: u64,
    /// Schedule responses successfully written back.
    pub completed: u64,
    /// Requests whose flight compiled or patched a schedule: the
    /// schedule cache's misses, so always equal to `cache_misses`.
    pub compiles: u64,
    /// Requests that piggybacked on another request's in-flight compile
    /// (the dedup/batch stage's single-flight coalescing).
    pub coalesced: u64,
    /// Schedule-cache requests ([`commcache::CacheStats::requests`]).
    pub cache_requests: u64,
    /// Schedule-cache memory hits.
    pub cache_mem_hits: u64,
    /// Schedule-cache artifact-store hits.
    pub cache_store_hits: u64,
    /// Schedule-cache misses (the same count as `compiles`).
    pub cache_misses: u64,
    /// Estimate-cache hits.
    pub estimate_hits: u64,
    /// Estimate-cache misses.
    pub estimate_misses: u64,
    /// Submits rejected for exceeding the per-client in-flight quota.
    pub rejected_quota: u64,
    /// Submits rejected because the compile queue was full.
    pub rejected_overload: u64,
    /// Submits rejected because the daemon was draining.
    pub rejected_shutdown: u64,
    /// Frames or bodies that failed to decode.
    pub errors_malformed: u64,
    /// Other error responses (unknown scheduler, bad request, sim
    /// failure, internal).
    pub errors_other: u64,
    /// Responses that could not be written (client went away).
    pub write_failures: u64,
    /// Jobs waiting in the compile queue (gauge).
    pub queue_depth: u64,
    /// Admitted jobs not yet answered (gauge).
    pub inflight: u64,
    /// 1 while the daemon is draining.
    pub draining: u64,
    /// Delta submits received ([`SubmitDeltaRequest`] frames).
    pub delta_submits: u64,
    /// Incremental lookups that found a within-threshold retained base.
    pub incr_base_hits: u64,
    /// Compiles served by patching a base schedule instead of a full
    /// recompile (validated patches only).
    pub incr_patches: u64,
    /// Incremental lookups that fell back to a full compile (scheduler
    /// declined, no usable base schedule, or validation rejected).
    pub incr_fallbacks: u64,
    /// Patched schedules the validation gate rejected (each is also a
    /// fallback).
    pub incr_validation_rejections: u64,
}

impl DaemonStats {
    /// The wire fields, in layout order.
    fn fields_mut(&mut self) -> [&mut u64; 27] {
        [
            &mut self.connections_accepted,
            &mut self.connections_active,
            &mut self.disconnects_midstream,
            &mut self.submits,
            &mut self.completed,
            &mut self.compiles,
            &mut self.coalesced,
            &mut self.cache_requests,
            &mut self.cache_mem_hits,
            &mut self.cache_store_hits,
            &mut self.cache_misses,
            &mut self.estimate_hits,
            &mut self.estimate_misses,
            &mut self.rejected_quota,
            &mut self.rejected_overload,
            &mut self.rejected_shutdown,
            &mut self.errors_malformed,
            &mut self.errors_other,
            &mut self.write_failures,
            &mut self.queue_depth,
            &mut self.inflight,
            &mut self.draining,
            &mut self.delta_submits,
            &mut self.incr_base_hits,
            &mut self.incr_patches,
            &mut self.incr_fallbacks,
            &mut self.incr_validation_rejections,
        ]
    }

    /// Fraction of delta submits served by a patched base schedule —
    /// the drifting-pattern counterpart of
    /// [`dedup_hit_rate`](Self::dedup_hit_rate).
    pub fn patch_rate(&self) -> f64 {
        if self.delta_submits == 0 {
            0.0
        } else {
            self.incr_patches as f64 / self.delta_submits as f64
        }
    }

    /// Fraction of completed schedule responses that did **not** run a
    /// compile — the service-level dedup metric.
    pub fn dedup_hit_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            1.0 - self.compiles as f64 / self.completed as f64
        }
    }
}

/// Every server→client frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// A served schedule request.
    Schedule(SubmitReply),
    /// A daemon counter snapshot.
    Stats {
        /// Echo of the stats request's id.
        request_id: u64,
        /// The snapshot.
        stats: DaemonStats,
    },
    /// A typed failure.
    Error(ErrorReply),
    /// Shutdown acknowledged; the daemon drains and exits.
    ShutdownAck {
        /// Echo of the shutdown request's id.
        request_id: u64,
    },
}

impl Response {
    /// The request id this response answers.
    pub fn request_id(&self) -> u64 {
        match self {
            Response::Schedule(r) => r.request_id,
            Response::Stats { request_id, .. } => *request_id,
            Response::Error(e) => e.request_id,
            Response::ShutdownAck { request_id } => *request_id,
        }
    }

    /// Encode into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_to(&mut out);
        out
    }

    /// Append the frame body to `out` (a frame [`begin_frame`] started).
    pub(crate) fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            Response::Schedule(reply) => reply.encode_to(out),
            Response::Stats { request_id, stats } => {
                put_id(out, K_STATS, *request_id);
                let mut stats = *stats;
                for field in stats.fields_mut() {
                    out.extend_from_slice(&field.to_le_bytes());
                }
            }
            Response::Error(err) => {
                put_id(out, K_ERROR, err.request_id);
                out.push(err.code as u8);
                put_str(out, &err.detail);
            }
            Response::ShutdownAck { request_id } => put_id(out, K_SHUTDOWN_ACK, *request_id),
        }
    }

    /// Decode a frame body.
    ///
    /// # Errors
    ///
    /// Typed [`DecodeError`] for every malformation; never panics.
    pub fn decode(body: &[u8]) -> Result<Response, DecodeError> {
        let mut rd = Reader::new(body);
        let resp = match rd.u8()? {
            K_SCHEDULE => Response::Schedule(SubmitReply::decode(&mut rd)?),
            K_STATS => {
                let request_id = rd.u64()?;
                let mut stats = DaemonStats::default();
                for field in stats.fields_mut() {
                    *field = rd.u64()?;
                }
                Response::Stats { request_id, stats }
            }
            K_ERROR => Response::Error(ErrorReply {
                request_id: rd.u64()?,
                code: coded(&mut rd, "error.code", ErrorCode::from_code)?,
                detail: rd.str("error.detail", 4096)?,
            }),
            K_SHUTDOWN_ACK => Response::ShutdownAck {
                request_id: rd.u64()?,
            },
            other => return Err(DecodeError::BadKind(other)),
        };
        rd.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsched::registry;

    fn sample_request() -> SubmitRequest {
        let mut matrix = CommMatrix::new(16);
        matrix.set(0, 5, 1024);
        matrix.set(5, 0, 1024);
        matrix.set(2, 9, 64);
        SubmitRequest {
            request_id: 77,
            want_schedule: true,
            topology: TopologyKind::Hypercube { dims: 4 },
            scheduler: "RS_NL".into(),
            scheme: SchemeChoice::Default,
            backend: BackendKind::Des,
            seed: 9,
            matrix,
            cost_model: LinkCostModel::Uniform,
        }
    }

    #[test]
    fn request_roundtrips_through_frames() {
        for req in [
            Request::Submit(sample_request()),
            Request::Stats { request_id: 3 },
            Request::Shutdown { request_id: 4 },
        ] {
            let mut wire = Vec::new();
            write_frame(&mut wire, &req.encode()).unwrap();
            let body = read_frame(&mut wire.as_slice()).unwrap().unwrap();
            assert_eq!(Request::decode(&body).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrips_with_and_without_schedule() {
        let req = sample_request();
        let entry = registry::find("RS_NL").unwrap();
        let topo = req.topology.build();
        let schedule = entry.schedule(&req.matrix, topo.as_ref(), req.seed);
        let fp = Fingerprint::compute(&req.matrix, topo.as_ref(), entry.name(), req.seed);
        for schedule in [Some(Arc::new(schedule)), None] {
            let resp = Response::Schedule(SubmitReply {
                request_id: 77,
                fingerprint: fp,
                freshly_compiled: schedule.is_some(),
                estimate: BackendReport {
                    makespan_ns: 1234,
                    phase_end_ns: vec![100, 1234],
                    contention: ContentionStats {
                        max_engine_busy_ns: 9,
                        max_link_busy_ns: 8,
                        contended_transfers: 7,
                        contended_phases: 1,
                    },
                },
                schedule,
            });
            let decoded = Response::decode(&resp.encode()).unwrap();
            assert_eq!(decoded, resp);
            assert_eq!(decoded.request_id(), 77);
        }
    }

    #[test]
    fn stats_and_errors_roundtrip() {
        let stats = DaemonStats {
            submits: 10,
            completed: 8,
            compiles: 2,
            ..DaemonStats::default()
        };
        let resp = Response::Stats {
            request_id: 5,
            stats,
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        assert!((stats.dedup_hit_rate() - 0.75).abs() < 1e-12);
        for code in ErrorCode::all() {
            let resp = Response::Error(ErrorReply {
                request_id: 1,
                code,
                detail: format!("{code} happened"),
            });
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
        let ack = Response::ShutdownAck { request_id: 2 };
        assert_eq!(Response::decode(&ack.encode()).unwrap(), ack);
    }

    /// The frame a stream that ends after `wire` starts with, as the
    /// daemon's connection core splits it off its read window: a prefix of
    /// a frame is torn once the stream has ended.
    fn split_at_end(wire: &[u8]) -> Result<Option<Vec<u8>>, FrameError> {
        match split_frame(wire)? {
            Some((body, _)) => Ok(Some(body.to_vec())),
            None if wire.is_empty() => Ok(None),
            None => Err(FrameError::Truncated),
        }
    }

    #[test]
    fn clean_eof_is_none_and_torn_frames_are_typed() {
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
        assert!(split_at_end(&[]).unwrap().is_none());
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Stats { request_id: 1 }.encode()).unwrap();
        for cut in 1..wire.len() {
            for read in [read_frame(&mut &wire[..cut]), split_at_end(&wire[..cut])] {
                match read {
                    Err(FrameError::Truncated) => {}
                    other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn hostile_headers_are_typed_errors() {
        let garbage = *b"GET / HTTP/1.1\r\n";
        for read in [read_frame(&mut garbage.as_slice()), split_at_end(&garbage)] {
            assert!(matches!(read, Err(FrameError::BadMagic(_))));
        }
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&FRAME_MAGIC);
        oversized.extend_from_slice(&u32::MAX.to_le_bytes());
        for read in [
            read_frame(&mut oversized.as_slice()),
            split_at_end(&oversized),
        ] {
            assert!(matches!(read, Err(FrameError::Oversized(_))));
        }
        assert!(write_frame(&mut Vec::new(), &vec![0; MAX_BODY_LEN as usize + 1]).is_err());
    }

    #[test]
    fn matrix_semantics_are_validated_at_decode() {
        let req = sample_request();
        let good = req.encode();
        // Topology/matrix size mismatch.
        let mut mismatched = sample_request();
        mismatched.topology = TopologyKind::Hypercube { dims: 5 };
        assert!(matches!(
            Request::decode(&mismatched.encode()),
            Err(DecodeError::Invalid(_))
        ));
        // A torn trailing field (the optional cost model needs at least
        // a length prefix) is truncation, not silent acceptance.
        let mut torn = good.clone();
        torn.push(0);
        assert!(matches!(
            Request::decode(&torn),
            Err(DecodeError::Truncated)
        ));
        // Bytes after a complete cost-model field are trailing garbage.
        let mut req = sample_request();
        req.cost_model = "faulty:p=0.05,seed=3".parse().unwrap();
        let mut trailing = req.encode();
        trailing.push(0);
        assert!(matches!(
            Request::decode(&trailing),
            Err(DecodeError::TrailingBytes)
        ));
        // Unassigned enum values.
        assert!(matches!(
            Request::decode(&[0x7f]),
            Err(DecodeError::BadKind(0x7f))
        ));
        // A cell listed twice, with two sizes: the daemon must not pick one.
        let mut twice = CommMatrix::new(16);
        twice.set(3, 7, 64);
        twice.set(3, 8, 128);
        let mut req = sample_request();
        req.matrix = twice;
        let mut body = req.encode();
        let at = body.len() - 8; // the second record's `dst`
        body[at..at + 4].copy_from_slice(&7u32.to_le_bytes());
        match Request::decode(&body) {
            Err(DecodeError::Invalid(what)) => assert_eq!(what, "duplicate message 3 -> 7"),
            other => panic!("a repeated cell decoded as {other:?}"),
        }
    }

    fn two_cell_request(topology: TopologyKind) -> Request {
        let n = topology.num_nodes();
        let mut matrix = CommMatrix::new(n);
        matrix.set(0, n - 1, 8);
        matrix.set(n / 4, n / 2, 64);
        Request::Submit(SubmitRequest {
            request_id: 5,
            want_schedule: false,
            topology,
            scheduler: "AC".into(),
            scheme: SchemeChoice::Default,
            backend: BackendKind::Analytic,
            seed: 1,
            matrix,
            cost_model: LinkCostModel::Uniform,
        })
    }

    #[test]
    fn raised_limits_roundtrip_large_fabrics() {
        // A d=12 cube (4096 nodes) is over the default node cap but
        // legal under a daemon started with --max-nodes 4096.
        let limits = ProtocolLimits::with_max_nodes(4096);
        let req = two_cell_request(TopologyKind::Hypercube { dims: 12 });
        let body = req.encode();
        assert!(matches!(
            Request::decode(&body),
            Err(DecodeError::LimitExceeded {
                field: "topology.nodes",
                value: 4096,
                limit: MAX_REQUEST_NODES,
            })
        ));
        assert_eq!(Request::decode_with(&body, &limits).unwrap(), req);

        // --max-nodes 1000: every 1024-node fabric is refused at the
        // topology, whatever its kind — the cube used to slip through to
        // `matrix.n` because its dimension cap was rounded up to 10.
        let limits = ProtocolLimits::with_max_nodes(1000);
        for kind in ["cube:d=10", "mesh:32x32", "torus:32x32", "fattree:k=16"] {
            let req = two_cell_request(kind.parse().unwrap());
            let body = req.encode();
            assert!(
                matches!(
                    Request::decode_with(&body, &limits),
                    Err(DecodeError::LimitExceeded {
                        field: "topology.nodes",
                        value: 1024,
                        limit: 1000,
                    })
                ),
                "{kind}"
            );
            assert_eq!(Request::decode(&body).unwrap(), req, "{kind}");
        }
    }

    #[test]
    fn matrix_cell_budget_survives_raised_node_caps() {
        // --max-nodes 65536 admits d=16 *names*, but a dense 65536-node
        // matrix is 2^32 cells (16 GiB): the cell budget must reject it
        // before the allocation, however high the node cap goes.
        let limits = ProtocolLimits::with_max_nodes(1 << 20);
        let mut body = vec![0x01u8]; // Submit
        body.extend_from_slice(&1u64.to_le_bytes()); // request_id
        body.push(0); // want_schedule
        body.push(0); // hypercube
        body.extend_from_slice(&20u32.to_le_bytes()); // dims = 20
        body.extend_from_slice(&2u32.to_le_bytes()); // scheduler = "AC"
        body.extend_from_slice(b"AC");
        body.push(2); // scheme default
        body.push(1); // backend analytic
        body.extend_from_slice(&0u64.to_le_bytes()); // seed
        body.extend_from_slice(&(1u64 << 20).to_le_bytes()); // n = 2^20
        body.extend_from_slice(&0u64.to_le_bytes()); // message count
        match Request::decode_with(&body, &limits) {
            Err(DecodeError::LimitExceeded { field, limit, .. }) => {
                assert_eq!(field, "matrix.cells");
                assert_eq!(limit, MAX_MATRIX_CELLS);
            }
            other => panic!("expected the cell budget to fire, got {other:?}"),
        }
    }

    #[test]
    fn scheme_choice_resolves_paper_defaults() {
        let rs_nl = registry::find("RS_NL").unwrap();
        let ac = registry::find("AC").unwrap();
        assert_eq!(SchemeChoice::Default.resolve(rs_nl), Scheme::S1);
        assert_eq!(SchemeChoice::Default.resolve(ac), Scheme::S2);
        assert_eq!(SchemeChoice::S2.resolve(rs_nl), Scheme::S2);
        assert_eq!(SchemeChoice::S1.resolve(ac), Scheme::S1);
    }

    #[test]
    fn topology_specs_build_what_they_name() {
        let cube = TopologyKind::Hypercube { dims: 3 };
        assert_eq!(cube.num_nodes(), 8);
        assert_eq!(cube.build().num_nodes(), 8);
        let mesh = TopologyKind::Mesh2d { rows: 3, cols: 4 };
        assert_eq!(mesh.num_nodes(), 12);
        assert_eq!(mesh.build().num_nodes(), 12);
        assert_eq!(format!("{mesh}"), "mesh:3x4");
        let torus = TopologyKind::Torus {
            extents: vec![4, 4, 2],
        };
        assert_eq!(torus.num_nodes(), 32);
        assert_eq!(torus.build().num_nodes(), 32);
        assert_eq!(format!("{torus}"), "torus:4x4x2");
        let ft = TopologyKind::FatTree { k: 4 };
        assert_eq!(ft.num_nodes(), 16);
        assert_eq!(ft.build().num_nodes(), 16);
        assert_eq!(format!("{ft}"), "fattree:k=4");
    }

    #[test]
    fn torus_and_fattree_specs_roundtrip_on_the_wire() {
        let limits = ProtocolLimits::default();
        for topology in [
            TopologyKind::Torus {
                extents: vec![4, 4],
            },
            TopologyKind::Torus {
                extents: vec![2, 2, 2, 2],
            },
            TopologyKind::FatTree { k: 4 },
        ] {
            let mut com = CommMatrix::new(topology.num_nodes());
            com.set(0, 1, 64);
            let req = Request::Submit(SubmitRequest {
                request_id: 9,
                want_schedule: true,
                topology: topology.clone(),
                scheduler: "RS_N".into(),
                scheme: SchemeChoice::Default,
                backend: BackendKind::Analytic,
                seed: 0,
                matrix: com,
                cost_model: LinkCostModel::Uniform,
            });
            let body = req.encode();
            assert_eq!(Request::decode_with(&body, &limits).unwrap(), req);
        }
    }

    #[test]
    fn hostile_topology_specs_are_typed_decode_errors() {
        let limits = ProtocolLimits::default();
        // (kind bytes, expected field — or, for a bound stated by
        // `TopologyKind::validate`, the text its error carries) — each is
        // the topology prefix of a Submit body; decode must fail before
        // reading further fields.
        let cases: Vec<(Vec<u8>, &str)> = vec![
            // Torus claiming 2^32-ish dims: bounded before allocation.
            {
                let mut b = vec![2u8];
                b.extend_from_slice(&u32::MAX.to_le_bytes());
                (b, "topology.torus.ndims")
            },
            // Torus with a 1-extent (degenerate ring).
            {
                let mut b = vec![2u8];
                b.extend_from_slice(&2u32.to_le_bytes());
                b.extend_from_slice(&4u32.to_le_bytes());
                b.extend_from_slice(&1u32.to_le_bytes());
                (b, "bad torus spec: every extent must be >= 2")
            },
            // Torus no builder accepts (2^30 nodes).
            {
                let mut b = vec![2u8];
                b.extend_from_slice(&3u32.to_le_bytes());
                for _ in 0..3 {
                    b.extend_from_slice(&1024u32.to_le_bytes());
                }
                (
                    b,
                    "bad torus spec: larger than 2^20 nodes: torus:1024x1024x1024",
                )
            },
            // Torus over the node budget (2048 nodes).
            {
                let mut b = vec![2u8];
                b.extend_from_slice(&2u32.to_le_bytes());
                b.extend_from_slice(&64u32.to_le_bytes());
                b.extend_from_slice(&32u32.to_le_bytes());
                (b, "topology.nodes")
            },
            // Odd fat-tree arity.
            {
                let mut b = vec![3u8];
                b.extend_from_slice(&5u32.to_le_bytes());
                (
                    b,
                    "bad fattree spec: arity must be even and in 2..=64, got 5",
                )
            },
            // Fat-tree over the node budget (k=34 → 9826 hosts).
            {
                let mut b = vec![3u8];
                b.extend_from_slice(&34u32.to_le_bytes());
                (b, "topology.nodes")
            },
            // Zero-dimensional cube, empty mesh, dimensionless torus.
            {
                let mut b = vec![0u8];
                b.extend_from_slice(&0u32.to_le_bytes());
                (b, "bad cube spec: dimension must be in 1..=20, got 0")
            },
            {
                let mut b = vec![1u8];
                b.extend_from_slice(&0u32.to_le_bytes());
                b.extend_from_slice(&4u32.to_le_bytes());
                (b, "bad mesh spec: extents must be positive")
            },
            {
                let mut b = vec![2u8];
                b.extend_from_slice(&0u32.to_le_bytes());
                (b, "bad torus spec: must have 1..=8 dimensions, got 0")
            },
            // Unknown kind byte.
            (vec![9u8], "topology.kind"),
        ];
        for (topo_bytes, want) in cases {
            let mut body = vec![0x01u8]; // Submit
            body.extend_from_slice(&1u64.to_le_bytes()); // request_id
            body.push(0); // want_schedule
            body.extend_from_slice(&topo_bytes);
            match Request::decode_with(&body, &limits) {
                Err(DecodeError::BadValue { field, .. })
                | Err(DecodeError::LimitExceeded { field, .. }) => {
                    assert_eq!(field, want);
                }
                Err(DecodeError::Invalid(what)) => assert_eq!(what, want),
                other => panic!("expected typed error for {want}, got {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_specs_saturate_num_nodes_instead_of_overflowing() {
        // Hand-built specs bypass the decode limits entirely; the
        // arithmetic itself must be total. Each of these used to
        // overflow (debug panic / silent wrap in release).
        let overflowing = [
            TopologyKind::Hypercube { dims: u32::MAX },
            TopologyKind::Hypercube { dims: 64 },
            TopologyKind::Torus {
                extents: vec![u32::MAX; 8],
            },
            TopologyKind::Torus {
                extents: vec![1 << 22, 1 << 22, 1 << 22],
            },
        ];
        for spec in &overflowing {
            assert_eq!(spec.num_nodes(), usize::MAX, "{spec}");
        }
        // The worst mesh still fits 64-bit usize exactly (the overflow
        // was a 32-bit hazard); saturating_mul computes it precisely.
        let mesh = TopologyKind::Mesh2d {
            rows: u32::MAX,
            cols: u32::MAX,
        };
        assert_eq!(
            mesh.num_nodes(),
            (u32::MAX as usize).saturating_mul(u32::MAX as usize)
        );
        // FatTree k is capped at u32, k³/4 saturates rather than wraps.
        let ft = TopologyKind::FatTree { k: u32::MAX };
        assert!(ft.num_nodes() >= usize::MAX / 4);
        // Sane specs are untouched by the checked arithmetic.
        assert_eq!(TopologyKind::Hypercube { dims: 10 }.num_nodes(), 1024);
    }

    #[test]
    fn unbuildable_specs_are_typed_errors_not_panics() {
        let cases = [
            TopologyKind::Hypercube { dims: 0 },
            TopologyKind::Hypercube { dims: u32::MAX },
            TopologyKind::Mesh2d { rows: 0, cols: 4 },
            TopologyKind::Torus {
                extents: vec![u32::MAX; 8],
            },
            TopologyKind::Torus { extents: vec![] },
            TopologyKind::FatTree { k: 7 },
            TopologyKind::FatTree { k: u32::MAX },
        ];
        for spec in cases {
            assert!(spec.try_build().is_err(), "{spec} should not build");
        }
    }

    #[test]
    fn cost_model_rides_the_wire_and_uniform_stays_byte_identical() {
        // Uniform encodes nothing: the body is byte-for-byte the
        // pre-cost-model body.
        let uniform = sample_request();
        let mut legacy = uniform.clone();
        legacy.cost_model = LinkCostModel::Uniform;
        assert_eq!(uniform.encode(), legacy.encode());
        match Request::decode(&uniform.encode()).unwrap() {
            Request::Submit(req) => assert!(req.cost_model.is_uniform()),
            other => panic!("expected submit, got {other:?}"),
        }
        // Non-uniform models roundtrip through their canonical string.
        for model in [
            "loggp:o=75000,g=10000,G=1.5",
            "hetero:factor=4.0,frac=0.1,lat=2000,seed=9",
            "faulty:p=0.05,seed=42",
        ] {
            let mut req = sample_request();
            req.cost_model = model.parse().unwrap();
            let decoded = Request::decode(&req.encode()).unwrap();
            assert_eq!(decoded, Request::Submit(req));
        }
    }

    #[test]
    fn hostile_cost_model_strings_are_typed_errors() {
        let mut body = sample_request().encode();
        // A syntactically valid string field that fails the grammar.
        let junk = b"faulty:p=fast";
        body.extend_from_slice(&(junk.len() as u32).to_le_bytes());
        body.extend_from_slice(junk);
        assert!(matches!(
            Request::decode(&body),
            Err(DecodeError::Invalid(msg)) if msg.contains("cost model")
        ));
        // A length prefix pointing past the body is truncation.
        let mut torn = sample_request().encode();
        torn.extend_from_slice(&64u32.to_le_bytes());
        torn.extend_from_slice(b"faulty:");
        assert!(matches!(
            Request::decode(&torn),
            Err(DecodeError::Truncated)
        ));
        // An oversized claimed length trips the string bomb guard
        // before any allocation proportional to it.
        let mut bomb = sample_request().encode();
        bomb.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            Request::decode(&bomb),
            Err(DecodeError::BadString("cost_model"))
        ));
    }
}
