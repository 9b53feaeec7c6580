//! Irregular, application-like patterns — the PARTI/CHAOS workloads the
//! paper's introduction motivates: communication derived at runtime from a
//! partitioned unstructured problem.

use commsched::CommMatrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::draw_row;

/// Halo (ghost-cell) exchange of a 2-D grid block-partitioned over
/// `pr x pc` processors: every processor exchanges a face with each of its
/// up/down/left/right neighbours and a corner sliver with its diagonal
/// neighbours. The per-face byte count is `face_bytes`; corners carry
/// `corner_bytes`.
///
/// This is the archetypal "unstructured at compile time, structured at run
/// time" pattern: sparse (density <= 8), symmetric, highly pairable.
///
/// # Panics
///
/// Panics if either processor-grid extent is zero or `face_bytes == 0`.
pub fn grid_halo(pr: usize, pc: usize, face_bytes: u32, corner_bytes: u32) -> CommMatrix {
    assert!(pr > 0 && pc > 0, "empty processor grid");
    assert!(face_bytes > 0);
    let n = pr * pc;
    let mut com = CommMatrix::new(n);
    let id = |r: usize, c: usize| r * pc + c;
    for r in 0..pr {
        for c in 0..pc {
            let src = id(r, c);
            let mut link = |dr: isize, dc: isize, bytes: u32| {
                if bytes == 0 {
                    return;
                }
                let (nr, nc) = (r as isize + dr, c as isize + dc);
                if nr >= 0 && nr < pr as isize && nc >= 0 && nc < pc as isize {
                    com.set(src, id(nr as usize, nc as usize), bytes);
                }
            };
            link(-1, 0, face_bytes);
            link(1, 0, face_bytes);
            link(0, -1, face_bytes);
            link(0, 1, face_bytes);
            link(-1, -1, corner_bytes);
            link(-1, 1, corner_bytes);
            link(1, -1, corner_bytes);
            link(1, 1, corner_bytes);
        }
    }
    com
}

/// Halo exchange of a randomly partitioned unstructured mesh: like
/// [`grid_halo`] but each processor additionally talks to `extra` random
/// far-away partitions (the irregular coupling a graph partitioner leaves
/// behind), with `far_bytes` each, symmetrically.
///
/// # Panics
///
/// Panics if the grid is empty or `face_bytes == 0`.
pub fn irregular_halo(
    pr: usize,
    pc: usize,
    face_bytes: u32,
    extra: usize,
    far_bytes: u32,
    seed: u64,
) -> CommMatrix {
    let mut com = grid_halo(pr, pc, face_bytes, face_bytes / 4);
    let n = pr * pc;
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        let mut placed = 0;
        let mut guard = 0;
        while placed < extra && guard < 100 * (extra + 1) {
            guard += 1;
            let j = rng.random_range(0..n);
            if j != i && com.get(i, j) == 0 && far_bytes > 0 {
                com.set(i, j, far_bytes);
                com.set(j, i, far_bytes);
                placed += 1;
            }
        }
    }
    com
}

/// Hot-spot traffic: every node sends to `spots` popular receivers (plus
/// `background` random peers). Maximal node contention by construction —
/// the pattern where scheduling pays off most.
///
/// # Panics
///
/// Panics if `spots == 0` or `spots + background >= n`.
pub fn hotspot(n: usize, spots: usize, background: usize, bytes: u32, seed: u64) -> CommMatrix {
    assert!(spots > 0, "need at least one hot spot");
    assert!(spots + background < n, "pattern denser than the machine");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut com = CommMatrix::new(n);
    for i in 0..n {
        for s in 0..spots {
            if s != i {
                com.set(i, s, bytes);
            }
        }
        draw_row(&mut com, i, background, &mut rng, |_| bytes);
    }
    com
}

/// Skewed (power-law-ish) traffic: out-degrees follow a Zipf-like
/// distribution with exponent `alpha`, destinations uniform. Models the
/// load imbalance of real irregular applications.
///
/// # Panics
///
/// Panics if `n < 2`, `max_degree >= n`, or `alpha < 0`.
pub fn powerlaw(n: usize, max_degree: usize, alpha: f64, bytes: u32, seed: u64) -> CommMatrix {
    assert!(n >= 2 && max_degree < n, "bad power-law parameters");
    assert!(alpha >= 0.0, "alpha must be non-negative");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut com = CommMatrix::new(n);
    for i in 0..n {
        // rank of node i in the popularity order is a random permutation of
        // 1..=n; approximate with the node id shuffled by the seed.
        let rank = ((i as u64 * 2654435761 + seed) % n as u64) as f64 + 1.0;
        let deg = ((max_degree as f64) / rank.powf(alpha)).ceil().max(1.0) as usize;
        draw_row(&mut com, i, deg.min(max_degree), &mut rng, |_| bytes);
    }
    com
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_halo_degrees() {
        let com = grid_halo(4, 4, 1024, 64);
        // Interior nodes: 4 faces + 4 corners.
        let interior = 4 + 1; // node (1,1)
        assert_eq!(com.out_degree(interior), 8);
        // Corner nodes: 2 faces + 1 corner.
        assert_eq!(com.out_degree(0), 3);
        assert!(com.is_symmetric_pattern());
    }

    #[test]
    fn grid_halo_without_corners() {
        let com = grid_halo(3, 3, 512, 0);
        assert_eq!(com.out_degree(4), 4); // center: only faces
    }

    #[test]
    fn irregular_halo_adds_symmetric_far_edges() {
        let base = grid_halo(4, 8, 1024, 256);
        let com = irregular_halo(4, 8, 1024, 2, 128, 7);
        assert!(com.message_count() > base.message_count());
        assert!(com.is_symmetric_pattern());
    }

    #[test]
    fn hotspot_concentrates_in_degree() {
        let com = hotspot(64, 2, 2, 256, 1);
        assert!(com.in_degree(0) >= 60);
        assert!(com.in_degree(1) >= 60);
        assert!(com.density() >= 60);
    }

    #[test]
    #[should_panic(expected = "denser than the machine")]
    fn hotspot_density_bound() {
        hotspot(8, 4, 4, 1, 0);
    }

    #[test]
    fn powerlaw_is_skewed() {
        let com = powerlaw(64, 32, 1.2, 64, 3);
        let degs: Vec<usize> = (0..64).map(|i| com.out_degree(i)).collect();
        let max = *degs.iter().max().unwrap();
        let min = *degs.iter().min().unwrap();
        assert!(max >= 8 * min.max(1), "not skewed: max {max} min {min}");
        for &d in &degs {
            assert!(d >= 1);
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(
            irregular_halo(4, 4, 100, 1, 50, 5),
            irregular_halo(4, 4, 100, 1, 50, 5)
        );
        assert_eq!(hotspot(32, 1, 3, 8, 9), hotspot(32, 1, 3, 8, 9));
        assert_eq!(powerlaw(32, 8, 1.0, 8, 9), powerlaw(32, 8, 1.0, 8, 9));
    }
}
