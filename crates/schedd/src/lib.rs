//! # schedd — the scheduling daemon
//!
//! The paper's schedulers run at *runtime*, right before the
//! communication they organize, so for a fleet the dominant costs are
//! compile latency and **repeated, near-identical requests**. `schedd`
//! packages the whole stack — registry schedulers, the commcache
//! compilation cache, and both simulation backends — as a long-running
//! service: clients submit `(matrix, topology, scheduler, scheme, seed)`
//! over a framed Unix/TCP socket and get back the compiled schedule
//! plus a simulated cost estimate.
//!
//! The daemon is a pipeline of separately-testable stages:
//!
//! ```text
//! decode ─ admission ─┬─ resident answer (reader) ─────────────────────────┬─ reply
//!                     └─ queue ─ dedup/batch ─ compile ─ simulate (worker) ┘
//! (protocol) (server)    (queue) (dedup)       (commcache) (commrt)           (service)
//! ```
//!
//! The reader answers a resident repeat before the queue and dedup;
//! either way one writer lays the reply out.
//!
//! * [`protocol`] — the framed wire format: length-prefixed,
//!   checksummed, hardened against truncation/corruption/hostile
//!   headers with typed errors.
//! * [`queue`] — bounded MPMC job queue; full = typed `Overloaded`
//!   backpressure, closed = graceful drain.
//! * [`dedup`] — single-flight coalescing so concurrent identical
//!   fingerprints run **one** compile.
//! * [`service`] — the transport-free pipeline core ([`ServiceState`]),
//!   also callable in-process (that is how the conformance suite pins
//!   daemon responses byte-identical to library calls).
//! * [`net`] / [`server`] / [`client`] — sockets, the threaded daemon
//!   shell over one `conn` core per connection, and the blocking
//!   (pipelining-capable) client.
//!
//! Binaries: `schedd` (the daemon); `schedctl` (in `repro_bench`) is
//! its command-line client (`submit`/`bench`/`stats`/`shutdown`). Load
//! is measured by the `serve_*` workloads of `benchmark/` (see
//! `benchmark/README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod client;
mod conn;
pub mod dedup;
pub mod net;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod service;

pub use client::{Client, ClientError};
pub use dedup::{FlightStats, SingleFlight};
pub use net::{Endpoint, Stream};
pub use protocol::{
    read_frame, write_frame, DaemonStats, DecodeError, ErrorCode, ErrorReply, FrameError,
    ProtocolLimits, Request, Response, SchemeChoice, SubmitDeltaRequest, SubmitReply,
    SubmitRequest, FRAME_MAGIC,
};
pub use queue::{BoundedQueue, PushError};
pub use server::{Server, ServerHandle};
pub use service::{ServiceConfig, ServiceError, ServiceState};
pub use simnet::{CostModelError, LinkCostModel};
/// The fabric a request names is a [`topo::TopologyKind`]; `protocol`
/// holds only its wire codec. The alias survives because `benchmark/`
/// spells it.
pub use topo::TopologyKind as TopologySpec;
