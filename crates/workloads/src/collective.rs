//! Collective-operation traffic patterns: the communication rounds of
//! classic parallel kernels (FFT butterfly, Gray-embedded grid halos),
//! expressed as communication matrices for the schedulers. These exercise
//! the schedulers on traffic with strong structure — the opposite extreme
//! from the random test sets of the paper's Section 6.

use commsched::CommMatrix;
use hypercube::embed;

use crate::uniform;

/// One butterfly stage of an FFT over `n = 2^dims` nodes: stage `s`
/// exchanges between partners differing in bit `s` — exactly the XOR
/// permutation `k = 2^s`, the best case for every scheduler.
///
/// # Panics
///
/// Panics unless `n` is a power of two, `stage < log2(n)`, and `bytes > 0`.
pub fn butterfly_stage(n: usize, stage: u32, bytes: u32) -> CommMatrix {
    assert!(n.is_power_of_two(), "butterfly needs a power-of-two n");
    assert!((1usize << stage) < n, "stage {stage} out of range");
    assert!(bytes > 0);
    uniform(n, bytes, (0..n).map(|i| (i, i ^ (1 << stage))))
}

/// The union of all `log2(n)` butterfly stages — the complete FFT
/// communication volume as one matrix (density `log2 n`, fully symmetric).
///
/// # Panics
///
/// Panics unless `n` is a power of two and `bytes > 0`.
pub fn butterfly_all_stages(n: usize, bytes: u32) -> CommMatrix {
    assert!(n.is_power_of_two(), "butterfly needs a power-of-two n");
    assert!(bytes > 0);
    let stages = n.trailing_zeros();
    let cells = (0..n).flat_map(|i| (0..stages).map(move |s| (i, i ^ (1usize << s))));
    uniform(n, bytes, cells)
}

/// Halo exchange of a `2^r x 2^c` grid embedded on the `2^(r+c)`-node cube
/// with Gray codes: every message travels exactly one physical hop. The
/// best-case locality the mapping literature aims for, and a useful
/// contrast to [`crate::irregular::irregular_halo`].
///
/// # Panics
///
/// Panics if `r + c > 20` or `bytes == 0`.
pub fn embedded_grid_halo(r: u32, c: u32, bytes: u32) -> CommMatrix {
    assert!(bytes > 0);
    let grid = embed::grid_embedding(r, c);
    let rows = grid.len();
    let cols = grid[0].len();
    let n = rows * cols;
    let mut cells = Vec::new();
    for y in 0..rows {
        for x in 0..cols {
            let src = grid[y][x].index();
            let mut link = |ny: usize, nx: usize| cells.push((src, grid[ny][nx].index()));
            if y > 0 {
                link(y - 1, x);
            }
            if y + 1 < rows {
                link(y + 1, x);
            }
            if x > 0 {
                link(y, x - 1);
            }
            if x + 1 < cols {
                link(y, x + 1);
            }
        }
    }
    uniform(n, bytes, cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypercube::{Hypercube, NodeId, Topology};

    #[test]
    fn butterfly_stage_is_an_xor_permutation() {
        let com = butterfly_stage(16, 2, 256);
        for (s, d, _) in com.messages() {
            assert_eq!(s.0 ^ d.0, 4);
        }
        assert_eq!(com.density(), 1);
        assert!(com.is_symmetric_pattern());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn butterfly_stage_bounds() {
        butterfly_stage(16, 4, 256);
    }

    #[test]
    fn all_stages_have_density_log_n() {
        let com = butterfly_all_stages(64, 128);
        assert_eq!(com.density(), 6);
        assert_eq!(com.message_count(), 64 * 6);
    }

    #[test]
    fn embedded_halo_is_single_hop() {
        let cube = Hypercube::new(6);
        let com = embedded_grid_halo(3, 3, 4096);
        for (s, d, _) in com.messages() {
            assert_eq!(cube.hops(s, d), 1, "{s}->{d} is not one hop");
        }
        assert!(com.is_symmetric_pattern());
        // Interior cells have 4 neighbours.
        assert_eq!(com.density(), 4);
    }

    #[test]
    fn embedded_halo_beats_naive_layout_on_hops() {
        // The same logical 8x8 halo laid out row-major (node = y*8+x) has
        // messages spanning multiple cube dimensions; Gray embedding
        // removes all of that.
        let cube = Hypercube::new(6);
        let naive = {
            let mut com = CommMatrix::new(64);
            for y in 0..8usize {
                for x in 0..8usize {
                    let src = y * 8 + x;
                    if x + 1 < 8 {
                        com.set(src, src + 1, 4096);
                        com.set(src + 1, src, 4096);
                    }
                    if y + 1 < 8 {
                        com.set(src, src + 8, 4096);
                        com.set(src + 8, src, 4096);
                    }
                }
            }
            com
        };
        let naive_hops: usize = naive.messages().map(|(s, d, _)| cube.hops(s, d)).sum();
        let embedded = embedded_grid_halo(3, 3, 4096);
        let embedded_hops: usize = embedded.messages().map(|(s, d, _)| cube.hops(s, d)).sum();
        assert_eq!(embedded_hops, embedded.message_count());
        assert!(naive_hops > embedded_hops);
        let _ = NodeId(0);
    }
}
