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
//! integers little-endian, strings UTF-8 with a `u32` length prefix.
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
//! Schedules inside [`SubmitReply`] frames reuse the commcache artifact
//! serialization ([`commcache::encode_artifact`]): one payload format on
//! disk and on the wire, one corruption suite hardening both.

use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

use commcache::{checksum64, Fingerprint, InstanceKey};
use commrt::{BackendKind, BackendReport, ContentionStats, Scheme};
use commsched::{CommMatrix, MatrixDelta, Schedule, Scheduler};
use hypercube::{Hypercube, Mesh2d, NodeId, Topology};
use simnet::LinkCostModel;

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

/// Default for [`ProtocolLimits::max_dims`] (`2^10` nodes).
pub const MAX_DIMS: u32 = 10;

/// Default for [`ProtocolLimits::max_matrix_cells`]: 2^26 dense cells
/// (a 256 MiB `u32` matrix) — the allocation bomb guard that stays in
/// force however high `--max-nodes` is raised.
pub const MAX_MATRIX_CELLS: u64 = 1 << 26;

/// Decode-time size limits, configurable per daemon (`--max-nodes`).
///
/// The wire format itself has no node bound; these limits are what the
/// *decoder* enforces before allocating anything a hostile header could
/// inflate. [`Request::decode`] applies the defaults (the paper-scale
/// caps the protocol shipped with); a daemon serving bigger fabrics
/// passes its own limits via [`Request::decode_with`].
///
/// [`max_matrix_cells`](Self::max_matrix_cells) is deliberately
/// independent of the node cap: a dense [`CommMatrix`] costs `n²`
/// cells, so raising `--max-nodes` alone must not let a single frame
/// demand a 16 GiB matrix — topology-sized requests above the cell
/// budget are rejected with [`DecodeError::LimitExceeded`] before the
/// allocation happens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtocolLimits {
    /// Largest node count a request may carry.
    pub max_request_nodes: u64,
    /// Largest hypercube dimension a request may name.
    pub max_dims: u32,
    /// Largest dense matrix (`n²` cells) a decode may allocate.
    pub max_matrix_cells: u64,
}

impl Default for ProtocolLimits {
    fn default() -> Self {
        ProtocolLimits {
            max_request_nodes: MAX_REQUEST_NODES,
            max_dims: MAX_DIMS,
            max_matrix_cells: MAX_MATRIX_CELLS,
        }
    }
}

impl ProtocolLimits {
    /// Limits for a daemon admitting up to `nodes` nodes: the dimension
    /// cap follows as `ceil(log2(nodes))`, and the matrix-cell bomb
    /// guard keeps its default — node count bounds what a request may
    /// *name*, the cell budget bounds what a decode may *allocate*.
    pub fn with_max_nodes(nodes: u64) -> Self {
        let nodes = nodes.max(2);
        ProtocolLimits {
            max_request_nodes: nodes,
            max_dims: (u64::BITS - (nodes - 1).leading_zeros()).max(1),
            ..ProtocolLimits::default()
        }
    }
}

// Frame kinds: requests low, responses high bit set.
const K_SUBMIT: u8 = 0x01;
const K_STATS_REQ: u8 = 0x02;
const K_SHUTDOWN_REQ: u8 = 0x03;
const K_SUBMIT_DELTA: u8 = 0x04;
const K_SCHEDULE: u8 = 0x81;
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

/// Write one complete frame (header + body + checksum).
///
/// # Errors
///
/// Propagates transport errors; `InvalidInput` if `body` exceeds
/// [`MAX_BODY_LEN`] (nothing is written).
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_BODY_LEN as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body of {} bytes exceeds the cap", body.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + 4 + body.len() + 8);
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    frame.extend_from_slice(&checksum64(body).to_le_bytes());
    w.write_all(&frame)
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

/// Read one frame body off the stream. `Ok(None)` is a clean EOF at a
/// frame boundary (the peer hung up between messages).
///
/// # Errors
///
/// Every malformation is a typed [`FrameError`]; this function never
/// panics on hostile bytes and never allocates more than the header's
/// (bounds-checked) claim.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut magic = [0u8; 4];
    if !read_exact_or_eof(r, &mut magic)? {
        return Ok(None);
    }
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let mut len_bytes = [0u8; 4];
    if !read_exact_or_eof(r, &mut len_bytes)? {
        return Err(FrameError::Truncated);
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_BODY_LEN {
        return Err(FrameError::Oversized(len));
    }
    let mut body = vec![0u8; len as usize];
    if !read_exact_or_eof(r, &mut body)? {
        return Err(FrameError::Truncated);
    }
    let mut sum = [0u8; 8];
    if !read_exact_or_eof(r, &mut sum)? {
        return Err(FrameError::Truncated);
    }
    if u64::from_le_bytes(sum) != checksum64(&body) {
        return Err(FrameError::Checksum);
    }
    Ok(Some(body))
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

/// Little-endian field cursor over a frame body.
struct Rd<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Rd<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Rd { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.at.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.bytes.len() {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn str(&mut self, field: &'static str, cap: usize) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        if len > cap {
            return Err(DecodeError::BadString(field));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadString(field))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Request model
// ---------------------------------------------------------------------------

/// The topology a request schedules on, as named on the wire.
///
/// Wire kind bytes: 0 hypercube, 1 mesh, 2 torus, 3 fat-tree. Old peers
/// reject the new kinds with `topology.kind` — a typed decode error, not
/// a protocol break.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TopologySpec {
    /// `dims`-dimensional hypercube under e-cube routing.
    Hypercube {
        /// Cube dimension (1 ≤ dims ≤ [`MAX_DIMS`]).
        dims: u32,
    },
    /// `rows × cols` 2-D mesh under XY routing.
    Mesh2d {
        /// Mesh rows (≥ 1).
        rows: u32,
        /// Mesh columns (≥ 1).
        cols: u32,
    },
    /// k-ary n-cube torus under dimension-ordered shortest-direction
    /// routing.
    Torus {
        /// Per-dimension ring extents (1–8 dims, each ≥ 2).
        extents: Vec<u32>,
    },
    /// k-ary fat-tree under deterministic up-down routing.
    FatTree {
        /// Switch arity (even, 2 ≤ k ≤ 64); hosts = k³/4.
        k: u32,
    },
}

impl TopologySpec {
    /// Number of nodes the spec describes, saturating at `usize::MAX`.
    ///
    /// Hand-built specs are not bounded by [`ProtocolLimits`], so the
    /// arithmetic here must never overflow: a hostile
    /// `torus(4294967295x4294967295x…)` saturates instead of panicking,
    /// and the decode-side comparison against the matrix node count then
    /// rejects it as a typed mismatch.
    pub fn num_nodes(&self) -> usize {
        match self {
            TopologySpec::Hypercube { dims } => 1usize.checked_shl(*dims).unwrap_or(usize::MAX),
            TopologySpec::Mesh2d { rows, cols } => (*rows as usize).saturating_mul(*cols as usize),
            TopologySpec::Torus { extents } => extents
                .iter()
                .try_fold(1usize, |acc, &k| acc.checked_mul(k as usize))
                .unwrap_or(usize::MAX),
            TopologySpec::FatTree { k } => {
                let k = *k as usize;
                k.saturating_mul(k).saturating_mul(k) / 4
            }
        }
    }

    /// Materialize the topology, surfacing impossible specs as typed
    /// errors instead of panicking in the builders.
    ///
    /// Specs that came through [`Request::decode`] have already passed
    /// the [`ProtocolLimits`] bounds and cannot fail here; hand-built
    /// specs (tests, embedding code) get the same hardening the decoder
    /// provides.
    pub fn try_build(&self) -> Result<Box<dyn Topology>, DecodeError> {
        match self {
            TopologySpec::Hypercube { dims } => {
                // Mirror `Hypercube::new`'s own bound so its assert can
                // never fire on a hand-built spec.
                if !(1..=20).contains(dims) {
                    return Err(DecodeError::BadValue {
                        field: "topology.dims",
                        value: (*dims).into(),
                    });
                }
                Ok(Box::new(Hypercube::new(*dims)))
            }
            TopologySpec::Mesh2d { rows, cols } => {
                let nodes = u64::from(*rows) * u64::from(*cols);
                // Mirror `Mesh2d::new`'s bounds: positive extents, node
                // count within u32.
                if *rows == 0 || *cols == 0 || nodes > u64::from(u32::MAX) {
                    return Err(DecodeError::BadValue {
                        field: "topology.mesh",
                        value: nodes,
                    });
                }
                Ok(Box::new(Mesh2d::new(*rows as usize, *cols as usize)))
            }
            TopologySpec::Torus { extents } => {
                let extents: Vec<usize> = extents.iter().map(|&k| k as usize).collect();
                topo::Torus::try_new(&extents)
                    .map(|t| Box::new(t) as Box<dyn Topology>)
                    .map_err(|e| DecodeError::Invalid(format!("{self}: {e}")))
            }
            TopologySpec::FatTree { k } => topo::FatTree::try_new(*k as usize)
                .map(|t| Box::new(t) as Box<dyn Topology>)
                .map_err(|e| DecodeError::Invalid(format!("{self}: {e}"))),
        }
    }

    /// Materialize the topology.
    ///
    /// # Panics
    ///
    /// On specs no builder can realize (see [`try_build`](Self::try_build)
    /// for the fallible form). Decoded specs never panic here.
    pub fn build(&self) -> Box<dyn Topology> {
        self.try_build()
            .unwrap_or_else(|e| panic!("unbuildable topology spec {self}: {e}"))
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TopologySpec::Hypercube { dims } => {
                out.push(0);
                out.extend_from_slice(&dims.to_le_bytes());
            }
            TopologySpec::Mesh2d { rows, cols } => {
                out.push(1);
                out.extend_from_slice(&rows.to_le_bytes());
                out.extend_from_slice(&cols.to_le_bytes());
            }
            TopologySpec::Torus { extents } => {
                out.push(2);
                out.extend_from_slice(&(extents.len() as u32).to_le_bytes());
                for &k in extents {
                    out.extend_from_slice(&k.to_le_bytes());
                }
            }
            TopologySpec::FatTree { k } => {
                out.push(3);
                out.extend_from_slice(&k.to_le_bytes());
            }
        }
    }

    fn decode(rd: &mut Rd<'_>, limits: &ProtocolLimits) -> Result<TopologySpec, DecodeError> {
        match rd.u8()? {
            0 => {
                let dims = rd.u32()?;
                if dims == 0 {
                    return Err(DecodeError::BadValue {
                        field: "topology.dims",
                        value: dims.into(),
                    });
                }
                if dims > limits.max_dims {
                    return Err(DecodeError::LimitExceeded {
                        field: "topology.dims",
                        value: dims.into(),
                        limit: limits.max_dims.into(),
                    });
                }
                Ok(TopologySpec::Hypercube { dims })
            }
            1 => {
                let rows = rd.u32()?;
                let cols = rd.u32()?;
                let nodes = u64::from(rows) * u64::from(cols);
                if rows == 0 || cols == 0 {
                    return Err(DecodeError::BadValue {
                        field: "topology.mesh",
                        value: nodes,
                    });
                }
                if nodes > limits.max_request_nodes {
                    return Err(DecodeError::LimitExceeded {
                        field: "topology.mesh",
                        value: nodes,
                        limit: limits.max_request_nodes,
                    });
                }
                Ok(TopologySpec::Mesh2d { rows, cols })
            }
            2 => {
                let ndims = rd.u32()?;
                // The torus builder caps at 8 dimensions; reject before
                // allocating anything proportional to the claimed count.
                if ndims == 0 || ndims > 8 {
                    return Err(DecodeError::BadValue {
                        field: "topology.torus.ndims",
                        value: ndims.into(),
                    });
                }
                let mut extents = Vec::with_capacity(ndims as usize);
                let mut nodes: u64 = 1;
                for _ in 0..ndims {
                    let k = rd.u32()?;
                    if k < 2 {
                        return Err(DecodeError::BadValue {
                            field: "topology.torus.extent",
                            value: k.into(),
                        });
                    }
                    nodes = nodes.saturating_mul(u64::from(k));
                    extents.push(k);
                }
                if nodes > limits.max_request_nodes {
                    return Err(DecodeError::LimitExceeded {
                        field: "topology.torus",
                        value: nodes,
                        limit: limits.max_request_nodes,
                    });
                }
                Ok(TopologySpec::Torus { extents })
            }
            3 => {
                let k = rd.u32()?;
                if !(2..=64).contains(&k) || !k.is_multiple_of(2) {
                    return Err(DecodeError::BadValue {
                        field: "topology.fattree.k",
                        value: k.into(),
                    });
                }
                let hosts = u64::from(k) * u64::from(k) * u64::from(k) / 4;
                if hosts > limits.max_request_nodes {
                    return Err(DecodeError::LimitExceeded {
                        field: "topology.fattree",
                        value: hosts,
                        limit: limits.max_request_nodes,
                    });
                }
                Ok(TopologySpec::FatTree { k })
            }
            other => Err(DecodeError::BadValue {
                field: "topology.kind",
                value: other.into(),
            }),
        }
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologySpec::Hypercube { dims } => write!(f, "hypercube(d={dims})"),
            TopologySpec::Mesh2d { rows, cols } => write!(f, "mesh({rows}x{cols})"),
            TopologySpec::Torus { extents } => {
                write!(f, "torus(")?;
                for (i, k) in extents.iter().enumerate() {
                    if i > 0 {
                        write!(f, "x")?;
                    }
                    write!(f, "{k}")?;
                }
                write!(f, ")")
            }
            TopologySpec::FatTree { k } => write!(f, "fattree(k={k})"),
        }
    }
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
        match code {
            0 => Some(SchemeChoice::S1),
            1 => Some(SchemeChoice::S2),
            2 => Some(SchemeChoice::Default),
            _ => None,
        }
    }
}

fn backend_code(kind: BackendKind) -> u8 {
    match kind {
        BackendKind::Des => 0,
        BackendKind::Analytic => 1,
    }
}

fn backend_from_code(code: u8) -> Option<BackendKind> {
    match code {
        0 => Some(BackendKind::Des),
        1 => Some(BackendKind::Analytic),
        _ => None,
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
    pub topology: TopologySpec,
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
    /// Encode into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        // Room for the envelope and a message per node; the walk finds
        // the real count, and a denser matrix grows the buffer from here.
        let mut out = Vec::with_capacity(64 + 12 * self.matrix.n());
        out.push(K_SUBMIT);
        out.extend_from_slice(&self.request_id.to_le_bytes());
        out.push(u8::from(self.want_schedule));
        self.topology.encode(&mut out);
        put_str(&mut out, &self.scheduler);
        out.push(self.scheme.code());
        out.push(backend_code(self.backend));
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&(self.matrix.n() as u64).to_le_bytes());
        // The count is known once the one walk over the matrix is done.
        let count_at = out.len();
        out.extend_from_slice(&[0; 8]);
        let mut count = 0u64;
        self.matrix.messages().for_each(|(src, dst, bytes)| {
            let mut record = [0u8; 12];
            record[..4].copy_from_slice(&src.0.to_le_bytes());
            record[4..8].copy_from_slice(&dst.0.to_le_bytes());
            record[8..].copy_from_slice(&bytes.to_le_bytes());
            out.extend_from_slice(&record);
            count += 1;
        });
        out[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
        if !self.cost_model.is_uniform() {
            put_str(&mut out, &self.cost_model.to_string());
        }
        out
    }

    fn decode(rd: &mut Rd<'_>, limits: &ProtocolLimits) -> Result<SubmitRequest, DecodeError> {
        let request_id = rd.u64()?;
        let want_schedule = match rd.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(DecodeError::BadValue {
                    field: "flags",
                    value: other.into(),
                })
            }
        };
        let topology = TopologySpec::decode(rd, limits)?;
        let scheduler = rd.str("scheduler", MAX_NAME_LEN)?;
        let scheme = rd.u8()?;
        let scheme = SchemeChoice::from_code(scheme).ok_or(DecodeError::BadValue {
            field: "scheme",
            value: scheme.into(),
        })?;
        let backend = rd.u8()?;
        let backend = backend_from_code(backend).ok_or(DecodeError::BadValue {
            field: "backend",
            value: backend.into(),
        })?;
        let seed = rd.u64()?;
        let n = rd.u64()?;
        if n == 0 {
            return Err(DecodeError::BadValue {
                field: "matrix.n",
                value: n,
            });
        }
        if n > limits.max_request_nodes {
            return Err(DecodeError::LimitExceeded {
                field: "matrix.n",
                value: n,
                limit: limits.max_request_nodes,
            });
        }
        // The dense matrix below costs n² cells; the cell budget guards
        // that allocation independently of how high the node cap is set.
        if n.saturating_mul(n) > limits.max_matrix_cells {
            return Err(DecodeError::LimitExceeded {
                field: "matrix.cells",
                value: n.saturating_mul(n),
                limit: limits.max_matrix_cells,
            });
        }
        let n = n as usize;
        if n != topology.num_nodes() {
            return Err(DecodeError::Invalid(format!(
                "matrix spans {n} nodes but the topology {topology} has {}",
                topology.num_nodes()
            )));
        }
        let count = rd.u64()? as usize;
        // Bound the claimed count by the bytes actually present before
        // allocating anything proportional to it.
        if count > rd.remaining() / 12 {
            return Err(DecodeError::Truncated);
        }
        let mut matrix = CommMatrix::new(n);
        for _ in 0..count {
            let src = rd.u32()? as usize;
            let dst = rd.u32()? as usize;
            let bytes = rd.u32()?;
            if src >= n || dst >= n {
                return Err(DecodeError::Invalid(format!(
                    "message endpoint {} out of {n} nodes",
                    src.max(dst)
                )));
            }
            if src == dst {
                return Err(DecodeError::Invalid(format!("self-message at node {src}")));
            }
            if bytes == 0 {
                return Err(DecodeError::Invalid(format!(
                    "zero-byte message {src} -> {dst}"
                )));
            }
            // Sizes are non-zero, so a cell already set was listed before.
            if matrix.get(src, dst) != 0 {
                return Err(DecodeError::Invalid(format!(
                    "duplicate message {src} -> {dst}"
                )));
            }
            matrix.set(src, dst, bytes);
        }
        let cost_model = decode_cost_model(rd)?;
        Ok(SubmitRequest {
            request_id,
            want_schedule,
            topology,
            scheduler,
            scheme,
            backend,
            seed,
            matrix,
            cost_model,
        })
    }
}

/// Decode the trailing optional cost-model field: absent means uniform
/// (the pre-cost-model wire format), present means a canonical string
/// validated by the [`LinkCostModel`] grammar.
fn decode_cost_model(rd: &mut Rd<'_>) -> Result<LinkCostModel, DecodeError> {
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
    pub topology: TopologySpec,
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
    /// Encode into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(96 + self.delta.change_count() * 12);
        out.push(K_SUBMIT_DELTA);
        out.extend_from_slice(&self.request_id.to_le_bytes());
        out.push(u8::from(self.want_schedule));
        self.topology.encode(&mut out);
        put_str(&mut out, &self.scheduler);
        out.push(self.scheme.code());
        out.push(backend_code(self.backend));
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.base.to_bytes());
        out.extend_from_slice(&(self.delta.n() as u64).to_le_bytes());
        out.extend_from_slice(&(self.delta.added().len() as u64).to_le_bytes());
        for &(src, dst, bytes) in self.delta.added() {
            out.extend_from_slice(&src.0.to_le_bytes());
            out.extend_from_slice(&dst.0.to_le_bytes());
            out.extend_from_slice(&bytes.to_le_bytes());
        }
        out.extend_from_slice(&(self.delta.removed().len() as u64).to_le_bytes());
        for &(src, dst) in self.delta.removed() {
            out.extend_from_slice(&src.0.to_le_bytes());
            out.extend_from_slice(&dst.0.to_le_bytes());
        }
        out.extend_from_slice(&(self.delta.resized().len() as u64).to_le_bytes());
        for &(src, dst, bytes) in self.delta.resized() {
            out.extend_from_slice(&src.0.to_le_bytes());
            out.extend_from_slice(&dst.0.to_le_bytes());
            out.extend_from_slice(&bytes.to_le_bytes());
        }
        if !self.cost_model.is_uniform() {
            put_str(&mut out, &self.cost_model.to_string());
        }
        out
    }

    fn decode(rd: &mut Rd<'_>, limits: &ProtocolLimits) -> Result<SubmitDeltaRequest, DecodeError> {
        let request_id = rd.u64()?;
        let want_schedule = match rd.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(DecodeError::BadValue {
                    field: "flags",
                    value: other.into(),
                })
            }
        };
        let topology = TopologySpec::decode(rd, limits)?;
        let scheduler = rd.str("scheduler", MAX_NAME_LEN)?;
        let scheme = rd.u8()?;
        let scheme = SchemeChoice::from_code(scheme).ok_or(DecodeError::BadValue {
            field: "scheme",
            value: scheme.into(),
        })?;
        let backend = rd.u8()?;
        let backend = backend_from_code(backend).ok_or(DecodeError::BadValue {
            field: "backend",
            value: backend.into(),
        })?;
        let seed = rd.u64()?;
        let mut key = [0u8; 16];
        key.copy_from_slice(rd.take(16)?);
        let base = InstanceKey::from_bytes(key);
        let n = rd.u64()?;
        if n == 0 {
            return Err(DecodeError::BadValue {
                field: "delta.n",
                value: n,
            });
        }
        if n > limits.max_request_nodes {
            return Err(DecodeError::LimitExceeded {
                field: "delta.n",
                value: n,
                limit: limits.max_request_nodes,
            });
        }
        let n = n as usize;
        if n != topology.num_nodes() {
            return Err(DecodeError::Invalid(format!(
                "delta spans {n} nodes but the topology {topology} has {}",
                topology.num_nodes()
            )));
        }
        // Each list bounds its claimed count by the bytes actually
        // present before allocating anything proportional to it.
        let added_count = rd.u64()? as usize;
        if added_count > rd.remaining() / 12 {
            return Err(DecodeError::Truncated);
        }
        let mut added = Vec::with_capacity(added_count);
        for _ in 0..added_count {
            let src = rd.u32()?;
            let dst = rd.u32()?;
            let bytes = rd.u32()?;
            added.push((NodeId(src), NodeId(dst), bytes));
        }
        let removed_count = rd.u64()? as usize;
        if removed_count > rd.remaining() / 8 {
            return Err(DecodeError::Truncated);
        }
        let mut removed = Vec::with_capacity(removed_count);
        for _ in 0..removed_count {
            let src = rd.u32()?;
            let dst = rd.u32()?;
            removed.push((NodeId(src), NodeId(dst)));
        }
        let resized_count = rd.u64()? as usize;
        if resized_count > rd.remaining() / 12 {
            return Err(DecodeError::Truncated);
        }
        let mut resized = Vec::with_capacity(resized_count);
        for _ in 0..resized_count {
            let src = rd.u32()?;
            let dst = rd.u32()?;
            let bytes = rd.u32()?;
            resized.push((NodeId(src), NodeId(dst), bytes));
        }
        // `from_parts` re-runs the matrix-level semantic checks
        // (ranges, self-messages, zero bytes, duplicate cells), so a
        // hostile delta surfaces as a typed error here, not a panic in
        // the daemon's apply path.
        let delta = MatrixDelta::from_parts(n, added, removed, resized)
            .map_err(|e| DecodeError::Invalid(e.to_string()))?;
        let cost_model = decode_cost_model(rd)?;
        Ok(SubmitDeltaRequest {
            request_id,
            want_schedule,
            topology,
            scheduler,
            scheme,
            backend,
            seed,
            base,
            delta,
            cost_model,
        })
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
        match self {
            Request::Submit(req) => req.encode(),
            Request::SubmitDelta(req) => req.encode(),
            Request::Stats { request_id } => {
                let mut out = vec![K_STATS_REQ];
                out.extend_from_slice(&request_id.to_le_bytes());
                out
            }
            Request::Shutdown { request_id } => {
                let mut out = vec![K_SHUTDOWN_REQ];
                out.extend_from_slice(&request_id.to_le_bytes());
                out
            }
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
        let mut rd = Rd::new(body);
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

impl SubmitReply {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.request_id.to_le_bytes());
        out.extend_from_slice(&self.fingerprint.to_bytes());
        out.push(u8::from(self.freshly_compiled));
        out.extend_from_slice(&self.estimate.makespan_ns.to_le_bytes());
        out.extend_from_slice(&(self.estimate.phase_end_ns.len() as u64).to_le_bytes());
        for &end in &self.estimate.phase_end_ns {
            out.extend_from_slice(&end.to_le_bytes());
        }
        let c = &self.estimate.contention;
        out.extend_from_slice(&c.max_engine_busy_ns.to_le_bytes());
        out.extend_from_slice(&c.max_link_busy_ns.to_le_bytes());
        out.extend_from_slice(&c.contended_transfers.to_le_bytes());
        out.extend_from_slice(&(c.contended_phases as u64).to_le_bytes());
        match &self.schedule {
            None => out.push(0),
            Some(schedule) => {
                out.push(1);
                let artifact = commcache::encode_artifact(self.fingerprint, schedule);
                out.extend_from_slice(&(artifact.len() as u64).to_le_bytes());
                out.extend_from_slice(&artifact);
            }
        }
    }

    fn decode(rd: &mut Rd<'_>) -> Result<SubmitReply, DecodeError> {
        let request_id = rd.u64()?;
        let fingerprint = Fingerprint::from_bytes(rd.take(16)?.try_into().expect("16 bytes"));
        let freshly_compiled = match rd.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(DecodeError::BadValue {
                    field: "freshly_compiled",
                    value: other.into(),
                })
            }
        };
        let makespan_ns = rd.u64()?;
        let phase_count = rd.u64()? as usize;
        if phase_count > rd.remaining() / 8 {
            return Err(DecodeError::Truncated);
        }
        let mut phase_end_ns = Vec::with_capacity(phase_count);
        for _ in 0..phase_count {
            phase_end_ns.push(rd.u64()?);
        }
        let contention = ContentionStats {
            max_engine_busy_ns: rd.u64()?,
            max_link_busy_ns: rd.u64()?,
            contended_transfers: rd.u64()?,
            contended_phases: rd.u64()? as usize,
        };
        let schedule = match rd.u8()? {
            0 => None,
            1 => {
                let len = rd.u64()? as usize;
                let bytes = rd.take(len)?;
                let (fp, schedule) = commcache::decode_artifact(bytes)
                    .map_err(|e| DecodeError::Artifact(e.to_string()))?;
                if fp != fingerprint {
                    return Err(DecodeError::Invalid(format!(
                        "artifact keyed {fp} inside a reply keyed {fingerprint}"
                    )));
                }
                Some(Arc::new(schedule))
            }
            other => {
                return Err(DecodeError::BadValue {
                    field: "schedule_present",
                    value: other.into(),
                })
            }
        };
        Ok(SubmitReply {
            request_id,
            fingerprint,
            freshly_compiled,
            estimate: BackendReport {
                makespan_ns,
                phase_end_ns,
                contention,
            },
            schedule,
        })
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
    /// Requests that actually ran a schedule compile (true misses).
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
    /// Schedule-cache misses (equals compiles when only the daemon uses
    /// the cache).
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
    fn fields(&self) -> [u64; 27] {
        [
            self.connections_accepted,
            self.connections_active,
            self.disconnects_midstream,
            self.submits,
            self.completed,
            self.compiles,
            self.coalesced,
            self.cache_requests,
            self.cache_mem_hits,
            self.cache_store_hits,
            self.cache_misses,
            self.estimate_hits,
            self.estimate_misses,
            self.rejected_quota,
            self.rejected_overload,
            self.rejected_shutdown,
            self.errors_malformed,
            self.errors_other,
            self.write_failures,
            self.queue_depth,
            self.inflight,
            self.draining,
            self.delta_submits,
            self.incr_base_hits,
            self.incr_patches,
            self.incr_fallbacks,
            self.incr_validation_rejections,
        ]
    }

    fn from_fields(f: [u64; 27]) -> DaemonStats {
        DaemonStats {
            connections_accepted: f[0],
            connections_active: f[1],
            disconnects_midstream: f[2],
            submits: f[3],
            completed: f[4],
            compiles: f[5],
            coalesced: f[6],
            cache_requests: f[7],
            cache_mem_hits: f[8],
            cache_store_hits: f[9],
            cache_misses: f[10],
            estimate_hits: f[11],
            estimate_misses: f[12],
            rejected_quota: f[13],
            rejected_overload: f[14],
            rejected_shutdown: f[15],
            errors_malformed: f[16],
            errors_other: f[17],
            write_failures: f[18],
            queue_depth: f[19],
            inflight: f[20],
            draining: f[21],
            delta_submits: f[22],
            incr_base_hits: f[23],
            incr_patches: f[24],
            incr_fallbacks: f[25],
            incr_validation_rejections: f[26],
        }
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
        match self {
            Response::Schedule(reply) => {
                out.push(K_SCHEDULE);
                reply.encode(&mut out);
            }
            Response::Stats { request_id, stats } => {
                out.push(K_STATS);
                out.extend_from_slice(&request_id.to_le_bytes());
                for field in stats.fields() {
                    out.extend_from_slice(&field.to_le_bytes());
                }
            }
            Response::Error(err) => {
                out.push(K_ERROR);
                out.extend_from_slice(&err.request_id.to_le_bytes());
                out.push(err.code as u8);
                put_str(&mut out, &err.detail);
            }
            Response::ShutdownAck { request_id } => {
                out.push(K_SHUTDOWN_ACK);
                out.extend_from_slice(&request_id.to_le_bytes());
            }
        }
        out
    }

    /// Decode a frame body.
    ///
    /// # Errors
    ///
    /// Typed [`DecodeError`] for every malformation; never panics.
    pub fn decode(body: &[u8]) -> Result<Response, DecodeError> {
        let mut rd = Rd::new(body);
        let resp = match rd.u8()? {
            K_SCHEDULE => Response::Schedule(SubmitReply::decode(&mut rd)?),
            K_STATS => {
                let request_id = rd.u64()?;
                let mut fields = [0u64; 27];
                for f in &mut fields {
                    *f = rd.u64()?;
                }
                Response::Stats {
                    request_id,
                    stats: DaemonStats::from_fields(fields),
                }
            }
            K_ERROR => {
                let request_id = rd.u64()?;
                let code = rd.u8()?;
                let code = ErrorCode::from_code(code).ok_or(DecodeError::BadValue {
                    field: "error.code",
                    value: code.into(),
                })?;
                let detail = rd.str("error.detail", 4096)?;
                Response::Error(ErrorReply {
                    request_id,
                    code,
                    detail,
                })
            }
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
            topology: TopologySpec::Hypercube { dims: 4 },
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

    #[test]
    fn clean_eof_is_none_and_torn_frames_are_typed() {
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Stats { request_id: 1 }.encode()).unwrap();
        for cut in 1..wire.len() {
            match read_frame(&mut &wire[..cut]) {
                Err(FrameError::Truncated) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_headers_are_typed_errors() {
        let garbage = *b"GET / HTTP/1.1\r\n";
        assert!(matches!(
            read_frame(&mut garbage.as_slice()),
            Err(FrameError::BadMagic(_))
        ));
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&FRAME_MAGIC);
        oversized.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut oversized.as_slice()),
            Err(FrameError::Oversized(_))
        ));
        assert!(write_frame(&mut Vec::new(), &vec![0; MAX_BODY_LEN as usize + 1]).is_err());
    }

    #[test]
    fn matrix_semantics_are_validated_at_decode() {
        let req = sample_request();
        let good = req.encode();
        // Topology/matrix size mismatch.
        let mut mismatched = sample_request();
        mismatched.topology = TopologySpec::Hypercube { dims: 5 };
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

    #[test]
    fn raised_limits_roundtrip_large_fabrics() {
        // A d=12 cube (4096 nodes) is over the default node cap but
        // legal under a daemon started with --max-nodes 4096.
        let limits = ProtocolLimits::with_max_nodes(4096);
        assert_eq!(limits.max_dims, 12);
        let mut matrix = CommMatrix::new(4096);
        matrix.set(0, 4095, 8);
        matrix.set(1000, 3000, 64);
        let req = Request::Submit(SubmitRequest {
            request_id: 5,
            want_schedule: false,
            topology: TopologySpec::Hypercube { dims: 12 },
            scheduler: "AC".into(),
            scheme: SchemeChoice::Default,
            backend: BackendKind::Analytic,
            seed: 1,
            matrix,
            cost_model: LinkCostModel::Uniform,
        });
        let body = req.encode();
        assert!(matches!(
            Request::decode(&body),
            Err(DecodeError::LimitExceeded {
                field: "topology.dims",
                ..
            })
        ));
        assert_eq!(Request::decode_with(&body, &limits).unwrap(), req);
    }

    #[test]
    fn matrix_cell_budget_survives_raised_node_caps() {
        // --max-nodes 65536 admits d=16 *names*, but a dense 65536-node
        // matrix is 2^32 cells (16 GiB): the cell budget must reject it
        // before the allocation, however high the node cap goes.
        let limits = ProtocolLimits::with_max_nodes(1 << 20);
        assert_eq!(limits.max_dims, 20);
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
        let cube = TopologySpec::Hypercube { dims: 3 };
        assert_eq!(cube.num_nodes(), 8);
        assert_eq!(cube.build().num_nodes(), 8);
        let mesh = TopologySpec::Mesh2d { rows: 3, cols: 4 };
        assert_eq!(mesh.num_nodes(), 12);
        assert_eq!(mesh.build().num_nodes(), 12);
        assert_eq!(format!("{mesh}"), "mesh(3x4)");
        let torus = TopologySpec::Torus {
            extents: vec![4, 4, 2],
        };
        assert_eq!(torus.num_nodes(), 32);
        assert_eq!(torus.build().num_nodes(), 32);
        assert_eq!(format!("{torus}"), "torus(4x4x2)");
        let ft = TopologySpec::FatTree { k: 4 };
        assert_eq!(ft.num_nodes(), 16);
        assert_eq!(ft.build().num_nodes(), 16);
        assert_eq!(format!("{ft}"), "fattree(k=4)");
    }

    #[test]
    fn torus_and_fattree_specs_roundtrip_on_the_wire() {
        let limits = ProtocolLimits::default();
        for topology in [
            TopologySpec::Torus {
                extents: vec![4, 4],
            },
            TopologySpec::Torus {
                extents: vec![2, 2, 2, 2],
            },
            TopologySpec::FatTree { k: 4 },
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
        // (kind bytes, expected field) — each is the topology prefix of a
        // Submit body; decode must fail before reading further fields.
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
                (b, "topology.torus.extent")
            },
            // Torus over the node budget.
            {
                let mut b = vec![2u8];
                b.extend_from_slice(&3u32.to_le_bytes());
                for _ in 0..3 {
                    b.extend_from_slice(&1024u32.to_le_bytes());
                }
                (b, "topology.torus")
            },
            // Odd fat-tree arity.
            {
                let mut b = vec![3u8];
                b.extend_from_slice(&5u32.to_le_bytes());
                (b, "topology.fattree.k")
            },
            // Fat-tree over the node budget (k=34 → 9826 hosts).
            {
                let mut b = vec![3u8];
                b.extend_from_slice(&34u32.to_le_bytes());
                (b, "topology.fattree")
            },
            // Unknown kind byte.
            (vec![9u8], "topology.kind"),
        ];
        for (topo_bytes, want_field) in cases {
            let mut body = vec![0x01u8]; // Submit
            body.extend_from_slice(&1u64.to_le_bytes()); // request_id
            body.push(0); // want_schedule
            body.extend_from_slice(&topo_bytes);
            match Request::decode_with(&body, &limits) {
                Err(DecodeError::BadValue { field, .. })
                | Err(DecodeError::LimitExceeded { field, .. }) => {
                    assert_eq!(field, want_field);
                }
                other => panic!("expected typed error for {want_field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_specs_saturate_num_nodes_instead_of_overflowing() {
        // Hand-built specs bypass the decode limits entirely; the
        // arithmetic itself must be total. Each of these used to
        // overflow (debug panic / silent wrap in release).
        let overflowing = [
            TopologySpec::Hypercube { dims: u32::MAX },
            TopologySpec::Hypercube { dims: 64 },
            TopologySpec::Torus {
                extents: vec![u32::MAX; 8],
            },
            TopologySpec::Torus {
                extents: vec![1 << 22, 1 << 22, 1 << 22],
            },
        ];
        for spec in &overflowing {
            assert_eq!(spec.num_nodes(), usize::MAX, "{spec}");
        }
        // The worst mesh still fits 64-bit usize exactly (the overflow
        // was a 32-bit hazard); saturating_mul computes it precisely.
        let mesh = TopologySpec::Mesh2d {
            rows: u32::MAX,
            cols: u32::MAX,
        };
        assert_eq!(
            mesh.num_nodes(),
            (u32::MAX as usize).saturating_mul(u32::MAX as usize)
        );
        // FatTree k is capped at u32, k³/4 saturates rather than wraps.
        let ft = TopologySpec::FatTree { k: u32::MAX };
        assert!(ft.num_nodes() >= usize::MAX / 4);
        // Sane specs are untouched by the checked arithmetic.
        assert_eq!(TopologySpec::Hypercube { dims: 10 }.num_nodes(), 1024);
    }

    #[test]
    fn unbuildable_specs_are_typed_errors_not_panics() {
        let cases = [
            TopologySpec::Hypercube { dims: 0 },
            TopologySpec::Hypercube { dims: u32::MAX },
            TopologySpec::Mesh2d { rows: 0, cols: 4 },
            TopologySpec::Torus {
                extents: vec![u32::MAX; 8],
            },
            TopologySpec::Torus { extents: vec![] },
            TopologySpec::FatTree { k: 7 },
            TopologySpec::FatTree { k: u32::MAX },
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
