//! All-to-many personalized communication scheduling — the primary
//! contribution of *Wang & Ranka, "Scheduling of Unstructured Communication
//! on the Intel iPSC/860" (1994)*.
//!
//! Given an `n x n` communication matrix `COM` (entry `(i, j)` is the number
//! of bytes node `i` must send to node `j`), this crate decomposes the
//! communication into a sequence of **partial permutations**: per phase,
//! every node sends at most one message and receives at most one message
//! (no *node contention*), and optionally no two circuits of a phase share
//! a channel of the underlying network (no *link contention*).
//!
//! # The four algorithms
//!
//! | Function  | Paper section | Avoids                | Notes |
//! |-----------|---------------|-----------------------|-------|
//! | [`ac`]    | 3             | nothing               | no schedule at all; messages fly asynchronously |
//! | [`lp`]    | 4.1           | node + link contention| phase `k` pairs `i` with `i ^ k`; always `n-1` phases; all pairwise exchanges |
//! | [`rs_n`]  | 4.2           | node contention       | randomized greedy over the compressed matrix; ~`d + log d` phases |
//! | [`rs_nl`] | 5             | node + link contention| `rs_n` plus e-cube path reservation and pairwise-exchange preference |
//!
//! Every scheduler counts the abstract operations it performs
//! ([`Schedule::ops`]); [`I860CostModel`] converts those counts into
//! simulated scheduling time on the paper's 40 MHz i860 nodes, which is how
//! the reproduction regenerates the comp/comm overhead figures (10 and 11).
//!
//! # The scheduler registry
//!
//! Beyond the four free functions, every algorithm — including the
//! deterministic [`greedy`] baseline and the [`RsOptions`] ablation
//! variants — is registered as a [`Scheduler`] trait object in
//! [`registry`]. Downstream layers (the runtime's experiment driver, the
//! repro binaries, the benches, the property tests) enumerate
//! [`registry::all`] instead of matching on an enum, so registering a new
//! algorithm there is the *only* change needed to surface it in every
//! table, figure, and test. [`SchedulerKind`] survives as a thin compat
//! shim: [`SchedulerKind::scheduler`] resolves the enum value to its
//! registry entry.
//!
//! # Example
//!
//! ```
//! use commsched::{rs_nl, validate_schedule, CommMatrix};
//! use hypercube::Hypercube;
//!
//! let cube = Hypercube::new(4); // 16 nodes
//! let mut com = CommMatrix::new(16);
//! com.set(0, 5, 1024);
//! com.set(5, 0, 1024);
//! com.set(3, 7, 1024);
//!
//! let schedule = rs_nl(&com, &cube, 12345);
//! validate_schedule(&com, &schedule).unwrap();
//! assert!(schedule.link_contention_free(&cube));
//! ```

#![forbid(unsafe_code)]

mod algorithms;
mod compress;
mod cost;
pub mod delta;
mod matrix;
pub mod nonuniform;
mod paths_table;
mod phase;
pub mod registry;
mod schedule;
pub mod stats;
mod validate;

pub use algorithms::{ac, greedy, lp, rs_n, rs_n_with, rs_nl, rs_nl_with, RsOptions};
pub use compress::CompressedMatrix;
pub use cost::I860CostModel;
pub use delta::{DeltaError, MatrixDelta};
pub use matrix::{CommMatrix, MatrixError};
pub use paths_table::PathsTable;
pub use phase::{PartialPermutation, SILENT};
pub use registry::Scheduler;
pub use schedule::{PhaseIter, Phases, Schedule, ScheduleKind, SchedulerKind};
pub use stats::ScheduleQuality;
pub use validate::{validate_schedule, ValidationError};
