//! The benchmark of the ipsc-sched stack.
//!
//! Four workloads (`serve_hot`, `serve_cold`, `serve_drift`,
//! `grid_paper`), six end-to-end metrics each, and a traced per-layer
//! replay. Every layer is reached through the public functions the
//! `ipsc_sched` facade re-exports; see `README.md` beside this crate.

pub mod affinity;
pub mod grid;
pub mod layers;
pub mod mirror;
pub mod ops;
pub mod replay;
pub mod run;
pub mod serve;
pub mod spec;
pub mod suite;
pub mod trace;
pub mod util;
