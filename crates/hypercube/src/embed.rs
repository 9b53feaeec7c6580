//! Classic hypercube embeddings: Gray codes map rings and grids onto the
//! cube so that logical neighbours are physical neighbours — the standard
//! technique (Ranka & Sahni, reference 13 of the paper) for laying out the structured workloads
//! this stack generates.

use crate::NodeId;

/// The `bits`-bit binary-reflected Gray code: `gray(i) = i ^ (i >> 1)`.
///
/// Successive codes differ in exactly one bit, so walking `0..2^bits`
/// through [`gray`] traverses a Hamiltonian cycle of the hypercube.
#[inline]
pub fn gray(i: u32) -> u32 {
    i ^ (i >> 1)
}

/// Embed a `2^r x 2^c` logical grid into a `2^(r+c)`-node cube by crossing
/// two Gray codes: grid position `(y, x)` lives on node
/// `gray(y) << c | gray(x)`. Grid neighbours (up/down/left/right, no
/// wraparound needed — Gray codes also connect the wrapped ends) are cube
/// neighbours.
///
/// # Panics
///
/// Panics if `r + c > 20`.
pub fn grid_embedding(r: u32, c: u32) -> Vec<Vec<NodeId>> {
    assert!(r + c <= 20, "cube too large");
    (0..(1u32 << r))
        .map(|y| {
            (0..(1u32 << c))
                .map(|x| NodeId((gray(y) << c) | gray(x)))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_codes_differ_in_one_bit() {
        for i in 0..1023u32 {
            assert_eq!((gray(i) ^ gray(i + 1)).count_ones(), 1);
        }
    }

    #[test]
    fn gray_is_a_bijection() {
        let mut seen = [false; 1024];
        for i in 0..1024u32 {
            let g = gray(i);
            assert!(!seen[g as usize]);
            seen[g as usize] = true;
        }
    }

    #[test]
    fn ring_embedding_is_a_hamiltonian_cycle() {
        // Ring position `p` on node `gray(p)`: ring neighbours are cube
        // neighbours.
        let ring: Vec<NodeId> = (0..64).map(|p| NodeId(gray(p))).collect();
        assert_eq!(ring.len(), 64);
        for w in ring.windows(2) {
            assert_eq!(w[0].hamming(w[1]), 1);
        }
        // And it closes the loop.
        assert_eq!(ring[0].hamming(ring[63]), 1);
    }

    #[test]
    fn grid_embedding_neighbours_are_adjacent() {
        let grid = grid_embedding(3, 3); // 8x8 on a 64-node cube
        for y in 0..8 {
            for x in 0..8 {
                if x + 1 < 8 {
                    assert_eq!(grid[y][x].hamming(grid[y][x + 1]), 1);
                }
                if y + 1 < 8 {
                    assert_eq!(grid[y][x].hamming(grid[y + 1][x]), 1);
                }
            }
        }
        // All 64 nodes used exactly once.
        let mut seen = [false; 64];
        for row in &grid {
            for n in row {
                assert!(!seen[n.index()]);
                seen[n.index()] = true;
            }
        }
    }
}
