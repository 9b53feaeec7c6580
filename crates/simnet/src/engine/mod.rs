//! The discrete-event engine's internals, split by concern:
//!
//! * [`queue`] — the simulation clock: a deterministic, tie-stable event
//!   queue (indexed 4-ary min-heap).
//! * [`node`] — per-node protocol state: program progress, blocking
//!   conditions, receive-side message states, buffer accounting.
//! * [`router`] — circuit reservation: transfers and the occupancy tables
//!   of the shared resources (engines, receive ports, directed links),
//!   with FIFO wait queues for the hold-and-wait policy.
//! * [`claim`] — the transfer lifecycle: creation, the atomic and
//!   hold-and-wait claim policies, delivery, and completion.
//! * [`arena`] — slab storage for transfers and their routed circuits:
//!   slot reuse keeps live memory proportional to *concurrent* traffic.
//! * [`pending`] — the atomic policy's pending set, indexed by blocking
//!   resource: parked transfers wake on release instead of being rescanned.
//!
//! The driver that ties them together — the event loop and per-node
//! program execution, plus deadlock detection — is `crate::sim`.

pub(crate) mod arena;
pub(crate) mod claim;
pub(crate) mod node;
pub(crate) mod pending;
pub(crate) mod queue;
pub(crate) mod router;
