//! The four scheduling algorithms of the paper.

mod ac;
mod greedy;
mod lp;
pub(crate) mod rs_n;
mod rs_nl;

pub use ac::ac;
pub use greedy::greedy;
pub use lp::lp;
pub use rs_n::{rs_n, rs_n_with};
pub use rs_nl::{rs_nl, rs_nl_with};

/// Tuning knobs shared by the randomized schedulers; the defaults are the
/// paper's configuration, the toggles exist for the ablation benches.
#[derive(Clone, Copy, Debug)]
pub struct RsOptions {
    /// Shuffle the live entries within each `CCOM` row (Section 4.2: "this
    /// is necessary to reduce collisions"). Off = the ablation showing node
    /// contention clustering on small ids.
    pub randomize_rows: bool,
    /// Start each phase's row sweep at a random row (`x = random(0..n-1)`
    /// in Figures 3 and 4). Off = always start at row 0.
    pub random_start: bool,
    /// RS_NL only: prefer candidates that complete a reciprocal pair, so
    /// the runtime can fuse them into concurrent pairwise exchanges
    /// (Section 5, step 3(c)i).
    pub pairwise_preference: bool,
}

impl Default for RsOptions {
    fn default() -> Self {
        RsOptions {
            randomize_rows: true,
            random_start: true,
            pairwise_preference: true,
        }
    }
}
