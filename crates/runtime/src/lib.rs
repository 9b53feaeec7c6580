//! Runtime layer: turns a communication matrix plus a schedule into
//! executable per-node [`simnet::Program`]s and runs experiments.
//!
//! This crate plays the role of the NX message-passing library and the
//! experiment driver in the paper:
//!
//! * [`compile`] implements the two communication schemes of Section 6 —
//!   **S1** (receiver posts its buffer, sends a 0-byte *ready* signal, the
//!   sender transmits on the signal; reciprocal pairs are fused into
//!   concurrent pairwise exchanges) and **S2** (post all receives up front,
//!   send everything in schedule order, confirm at the end). Asynchronous
//!   (AC) schedules compile to the post/send/confirm program of Figure 1.
//!   [`simnet::simulate`] runs the programs (example below).
//! * [`allgather`] implements the *concatenate* operation the paper uses to
//!   replicate every node's send vector before runtime scheduling
//!   (recursive doubling on the hypercube).
//! * [`ExperimentRunner`] reproduces the paper's measurement methodology:
//!   many independently seeded samples per configuration, cost = maximum
//!   time over processors, averaged over samples. It holds every run-wide
//!   setting (machine, backend, link costs, schedule cache, threads), and
//!   one sample body on it schedules and prices every sample of a cell or
//!   a grid, on the grid's work-stealing pool.
//! * [`ExperimentRunner::with_cache`] opts the registry-driven paths into
//!   the [`commcache`] schedule cache: repeated *(matrix, topology,
//!   scheduler, seed)* requests are served from a sharded in-memory LRU
//!   (optionally backed by the persistent artifact store) instead of
//!   rescheduling. Caching changes cost, never results — grids are
//!   byte-identical with the cache on and off.
//! * [`grid`] declares whole experiment *grids* — scheduler columns ×
//!   workload points × topologies — and executes every cell on a
//!   work-stealing pool with sample matrices generated once per
//!   `(workload, seed)` point and shared across scheduler columns. The
//!   repro binaries are thin renderers over [`GridResult`]s.
//! * [`backend`] makes the simulation substrate pluggable: a
//!   [`SimBackend`] trait with the exact event engine ([`DesBackend`])
//!   and a fast contention-aware occupancy model ([`AnalyticBackend`]),
//!   selected on the runner only ([`ExperimentRunner::with_backend`]),
//!   which every cell of a grid prices under; the repro binaries set it
//!   from `IPSC_BACKEND`. Both route, price and claim through `simnet`'s
//!   one vocabulary ([`simnet::LinkCostModel::route_into`],
//!   [`simnet::LinkCostModel::exchange_ns`],
//!   [`simnet::TransferSpec::node_claims`]), and the two are validated
//!   against each other by a differential conformance suite.
//!
//! ```
//! use commrt::{compile, Scheme};
//! use commsched::rs_nl;
//! use hypercube::Hypercube;
//! use simnet::{simulate, MachineParams};
//!
//! let cube = Hypercube::new(4);
//! let com = workloads::random_dense(16, 3, 1024, 7);
//! let schedule = rs_nl(&com, &cube, 7);
//! let programs = compile(&com, &schedule, Scheme::S1);
//! let report = simulate(&cube, &MachineParams::ipsc860(), programs).unwrap();
//! assert!(report.makespan_ns > 0);
//! ```

#![forbid(unsafe_code)]

pub mod allgather;
pub mod backend;
mod compile;
mod experiment;
pub mod grid;
mod report;
mod scheme;

pub use backend::{
    AnalyticBackend, BackendKind, BackendReport, ContentionStats, DesBackend, SimBackend,
};
pub use commcache::{CacheConfig, CacheStats, SchedCache};
pub use compile::{compile, compile_ac_send_detect};
pub use experiment::{CellResult, ExperimentRunner};
pub use grid::{ExperimentGrid, GridResult, WorkloadPoint};
pub use report::{write_csv, write_grid_markdown, write_json, CellRecord};
pub use scheme::Scheme;
pub use simnet::{CostModelError, LinkCostModel};
