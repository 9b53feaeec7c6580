//! Workload generators for unstructured-communication experiments.
//!
//! The paper's test set is "50 randomly generated samples for each density
//! `d`" with uniform message sizes on 64 nodes ([`random_dense`] +
//! [`SampleSet`]). Beyond that, this crate generates the structured
//! permutations classically used on hypercubes ([`structured`]) and the
//! irregular application-like patterns (PARTI/CHAOS lineage) that motivate
//! the paper: partitioned-mesh halo exchanges, hot-spots, and skewed
//! power-law traffic ([`irregular`]).
//!
//! All generators are deterministic functions of their seed.

#![forbid(unsafe_code)]

pub mod collective;
mod generator;
pub mod irregular;
mod random;
mod samples;
pub mod structured;

pub use generator::Generator;
pub use random::{random_dense, random_dregular, random_nonuniform};
pub use samples::SampleSet;

use commsched::CommMatrix;
use hypercube::NodeId;
use rand::{rngs::StdRng, RngExt};

/// The matrix with a `bytes`-byte message in each of `cells`.
fn uniform(n: usize, bytes: u32, cells: impl IntoIterator<Item = (usize, usize)>) -> CommMatrix {
    let message = |(src, dst): (usize, usize)| (NodeId(src as u32), NodeId(dst as u32), bytes);
    let messages = cells.into_iter().map(message);
    CommMatrix::from_messages(n, messages).expect("generated cells are distinct and off-diagonal")
}

/// Give row `i` of `com` `count` messages to distinct random peers it does
/// not send to yet, each sized by `size` once its peer is drawn.
fn draw_row(
    com: &mut CommMatrix,
    i: usize,
    count: usize,
    rng: &mut StdRng,
    mut size: impl FnMut(&mut StdRng) -> u32,
) {
    let mut placed = 0;
    while placed < count {
        let j = rng.random_range(0..com.n());
        if j != i && com.get(i, j) == 0 {
            com.set(i, j, size(rng));
            placed += 1;
        }
    }
}
