//! The pluggable topology family beyond the hypercube.
//!
//! The scheduling stack programs against [`hypercube::Topology`] — a
//! deterministic, oblivious router over directed channels — and the paper
//! only ever instantiates it with the iPSC/860 binary cube. This crate
//! opens the scenario space the ROADMAP names:
//!
//! * [`Torus`] — the k-ary n-cube with wraparound rings per dimension and
//!   dimension-ordered routing that walks the shorter direction around
//!   each ring (ties break toward the positive direction), with
//!   closed-form `hops`/`diameter`. The QCDSP machine (hep-lat/9908024)
//!   is a 4D instance. [`Torus::mesh`] builds the 2-D mesh, the same
//!   grid without wraparound, routed XY (column first).
//! * [`FatTree`] — the k-ary fat-tree (k/2² hosts per pod, k pods,
//!   (k/2)² core switches) under deterministic up-down routing: the
//!   upward aggregation and core choices are pure functions of the
//!   destination, so every host pair owns exactly one circuit.
//! * [`TopologyKind`] — a parser/registry making topologies *data*:
//!   `"cube:d=6"`, `"mesh:4x8"`, `"torus:4x4x4x4"`, `"fattree:k=8"`
//!   round-trip through strings at every entry point (CLI flags, grid
//!   axes, daemon requests, test sweeps).
//!
//! Every structural bound (dimensions, extents, arity, the `2^20`-node
//! cap) is stated as a typed error once, in [`TopologyKind::validate`];
//! the constructors assert the same bounds.
//!
//! A kind builds two ways. [`TopologyKind::build`] hands back the fabric
//! itself, which walks each route when asked. [`TopologyKind::build_arc`]
//! is the long-lived form that grid axes and the daemon's one fabric per
//! kind use: a mesh, torus or fat-tree whose all-pairs circuit table
//! would be no larger than the 8x8 torus's comes back with every circuit
//! routed once into that table (4 bytes of offset per ordered pair and 4
//! per hop; 80 KiB for the 8x8 torus), so a route is a slice copy. A
//! table did not beat the e-cube hypercube's closed-form router, and no
//! larger table has been measured to pay for itself, so both come back
//! as `build` builds them.
//!
//! Schedulers do not name these types; they ask one question,
//! [`Topology::is_ecube_hypercube`](hypercube::Topology::is_ecube_hypercube),
//! and decide honestly — RS families run on any fabric (every
//! `Topology` routes deterministically), LP declines anything that is
//! not an e-cube hypercube.
//!
//! # Example
//!
//! ```
//! use topo::TopologyKind;
//! use hypercube::{NodeId, Topology};
//!
//! let torus = TopologyKind::parse("torus:4x4").unwrap().build();
//! assert_eq!(torus.num_nodes(), 16);
//! // Wraparound: 0 -> 3 is one hop around the ring, not three across.
//! assert_eq!(torus.hops(NodeId(0), NodeId(3)), 1);
//! // A mesh of the same shape has no wraparound: three hops across.
//! let mesh = TopologyKind::parse("mesh:4x4").unwrap().build();
//! assert_eq!(mesh.hops(NodeId(0), NodeId(3)), 3);
//! assert!(!mesh.is_ecube_hypercube());
//! ```

#![forbid(unsafe_code)]

mod fattree;
mod kind;
mod mesh;
mod table;
mod torus;

pub use fattree::FatTree;
pub use kind::{KindError, TopologyKind};
pub use torus::Torus;
