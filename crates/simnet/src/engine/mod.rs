//! The discrete-event engine's internals, split by concern:
//!
//! * [`queue`] — the simulation clock: a deterministic, tie-stable event
//!   queue of packed 16-byte keys (a FIFO lane per event kind in front of
//!   a 4-ary min-heap).
//! * [`node`] — per-node protocol state: program progress, blocking
//!   conditions, buffer accounting, and the receive-side state machine of
//!   a message slot.
//! * [`pending`] — the run's resource table: one 32-byte record per
//!   engine, receive port, link and per-node wait condition, holding the
//!   holder, the busy time and the ends of the waiting list — parked
//!   transfers under the atomic policy, FIFO queues under hold-and-wait.
//! * [`router`] — circuit reservation over that table: what a transfer
//!   claims and in which order, claim checks, claims, releases.
//! * [`claim`] — the transfer lifecycle: creation, the atomic and
//!   hold-and-wait claim policies, delivery, and completion.
//! * [`arena`] — slab storage for transfers and their routed circuits:
//!   slot reuse keeps live memory proportional to *concurrent* traffic.
//!
//! The driver that ties them together — binding, the event loop and
//! per-node program execution, plus deadlock detection — is `crate::sim`.
//!
//! What a run costs. Binding is one sort over the ops that name a message.
//! After it nothing in the loop hashes or allocates on a dense fabric: a
//! three-hop message is routed into the circuit arena through a scratch
//! buffer, reads five resource records to learn that it may start, writes
//! them to claim and again to release, and reads or writes its receive
//! state by slot number four times; each of its (typically four) events is
//! one 16-byte key, most of them appended to and taken from a FIFO lane.

pub(crate) mod arena;
pub(crate) mod claim;
pub(crate) mod node;
pub(crate) mod pending;
pub(crate) mod queue;
pub(crate) mod router;
