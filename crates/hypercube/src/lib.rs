//! Interconnection-network topologies with deterministic, oblivious routing.
//!
//! This crate is the topology substrate for the Wang & Ranka (1994)
//! unstructured-communication scheduling stack. It provides:
//!
//! * [`Hypercube`] — the binary hypercube of the Intel iPSC/860, with
//!   **e-cube** routing (bits corrected from least- to most-significant, the
//!   exact deterministic algorithm the iPSC/860 hardware used),
//! * the [`Topology`] trait that the simulator, the schedulers and the
//!   other fabrics (the `topo` crate's tori, meshes and fat-trees)
//!   program against, and
//! * permutation utilities ([`perm`]) for the special contention-free
//!   communication classes the paper exploits (XOR / linear permutations,
//!   bit-complement).
//!
//! # Conventions
//!
//! Links are **directed channels**: every physical full-duplex wire between
//! neighbours `u` and `v` appears as two independent [`LinkId`]s, one per
//! direction. This matches the iPSC/860, where a pairwise exchange between
//! neighbours proceeds concurrently in both directions. A *circuit* (the
//! unit of circuit-switched reservation) is an ordered sequence of directed
//! links returned by [`Topology::route`].
//!
//! # Example
//!
//! ```
//! use hypercube::{Hypercube, NodeId, Topology};
//!
//! let cube = Hypercube::new(6); // the 64-node iPSC/860 at CalTech
//! assert_eq!(cube.num_nodes(), 64);
//!
//! let path = cube.route(NodeId(0), NodeId(5));
//! // e-cube fixes bit 0 first (0 -> 1), then bit 2 (1 -> 5).
//! assert_eq!(path.hops(), 2);
//! ```

#![forbid(unsafe_code)]

mod cube;
pub mod embed;
mod link;
mod node;
mod path;
pub mod perm;
mod topology;

pub use cube::Hypercube;
pub use link::LinkId;
pub use node::NodeId;
pub use path::Path;
pub use topology::Topology;
