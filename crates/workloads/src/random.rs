use commsched::CommMatrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::{draw_row, uniform};

/// The paper's random test pattern: every node sends `bytes`-byte messages
/// to `d` distinct random destinations (Section 2.1, assumption 2: nodes
/// send and receive an *approximately* equal number of messages — the
/// in-degree here is `d` only in expectation).
///
/// # Panics
///
/// Panics if `d >= n` (a node cannot have `n-1 < d` distinct peers) or if
/// `bytes == 0`.
pub fn random_dense(n: usize, d: usize, bytes: u32, seed: u64) -> CommMatrix {
    assert!(d < n, "density {d} needs at least {} nodes, got {n}", d + 1);
    assert!(bytes > 0, "messages must be non-empty");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut com = CommMatrix::new(n);
    for i in 0..n {
        draw_row(&mut com, i, d, &mut rng, |_| bytes);
    }
    com
}

/// Exactly `d`-regular random traffic: in-degree AND out-degree are `d` at
/// every node, built as the superposition of `d` random fixed-point-free
/// permutations with pairwise-disjoint edges (a random `d`-layer Latin
/// rectangle). This is the regime of the paper's assumption 2, where the
/// density bound is tight: RS_N's `~d + log d` phase count holds here.
///
/// Each layer is found with the classic random-walk augmenting matcher:
/// every row picks a random allowed column; if the column is taken, it is
/// stolen and the previous owner re-picks. Hall's theorem guarantees a
/// perfect matching exists for every layer (`d < n`), and the random walk
/// finds it quickly in expectation.
///
/// # Panics
///
/// Panics if `d >= n` or `bytes == 0`.
pub fn random_dregular(n: usize, d: usize, bytes: u32, seed: u64) -> CommMatrix {
    assert!(d < n, "density {d} needs at least {} nodes, got {n}", d + 1);
    assert!(bytes > 0, "messages must be non-empty");
    let mut rng = StdRng::seed_from_u64(seed);
    // The membership test of every draw, as one dense table; the matrix is
    // built once at the end.
    let mut taken = vec![false; n * n];
    let mut order: Vec<usize> = (0..n).collect();
    for _layer in 0..d {
        loop {
            if let Some(assign) = try_matching_layer(&taken, n, &mut order, &mut rng) {
                for (i, c) in assign.into_iter().enumerate() {
                    taken[i * n + c] = true;
                }
                break;
            }
            // Extremely unlikely (random-walk budget exhausted): retry the
            // layer with fresh randomness.
        }
    }
    uniform(
        n,
        bytes,
        (0..n * n).filter(|&c| taken[c]).map(|c| (c / n, c % n)),
    )
}

/// One random perfect matching avoiding the diagonal and every edge already
/// `taken` (row-major). Returns `None` if the random-walk budget runs out.
fn try_matching_layer(
    taken: &[bool],
    n: usize,
    order: &mut [usize],
    rng: &mut StdRng,
) -> Option<Vec<usize>> {
    let mut assign: Vec<Option<usize>> = vec![None; n];
    let mut col_owner: Vec<Option<usize>> = vec![None; n];
    order.shuffle(rng);
    let budget = 200 * n;
    let mut steps = 0usize;
    for &row in order.iter() {
        let mut i = row;
        loop {
            steps += 1;
            if steps > budget {
                return None;
            }
            // Random allowed column for row i (may steal an owned one).
            let mut c = rng.random_range(0..n);
            let mut tries = 0;
            while c == i || taken[i * n + c] || assign[i] == Some(c) {
                c = rng.random_range(0..n);
                tries += 1;
                if tries > 8 * n {
                    return None; // row has (nearly) no allowed columns left
                }
            }
            assign[i] = Some(c);
            match col_owner[c].replace(i) {
                None => break,
                Some(prev) => {
                    assign[prev] = None;
                    i = prev;
                }
            }
        }
    }
    Some(
        assign
            .into_iter()
            .map(|c| c.expect("all rows matched"))
            .collect(),
    )
}

/// Random pattern with non-uniform message sizes drawn log-uniformly from
/// `[min_bytes, max_bytes]` (for the thesis-extension experiments).
///
/// # Panics
///
/// Panics if `d >= n` or the byte range is empty/zero.
pub fn random_nonuniform(
    n: usize,
    d: usize,
    min_bytes: u32,
    max_bytes: u32,
    seed: u64,
) -> CommMatrix {
    assert!(d < n, "density {d} needs at least {} nodes, got {n}", d + 1);
    assert!(
        0 < min_bytes && min_bytes <= max_bytes,
        "bad byte range {min_bytes}..={max_bytes}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut com = CommMatrix::new(n);
    let lo = (min_bytes as f64).ln();
    let hi = (max_bytes as f64).ln();
    for i in 0..n {
        draw_row(&mut com, i, d, &mut rng, |rng| {
            let b = (lo + (hi - lo) * rng.random_range(0.0..1.0)).exp() as u32;
            b.clamp(min_bytes, max_bytes)
        });
    }
    com
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_has_exact_out_degree() {
        let com = random_dense(64, 8, 256, 1);
        for i in 0..64 {
            assert_eq!(com.out_degree(i), 8);
        }
        assert!(com.is_uniform());
        assert_eq!(com.message_count(), 64 * 8);
    }

    #[test]
    fn dense_in_degree_is_approximately_d() {
        let com = random_dense(64, 8, 256, 2);
        let max_in = (0..64).map(|j| com.in_degree(j)).max().unwrap();
        let min_in = (0..64).map(|j| com.in_degree(j)).min().unwrap();
        assert!(max_in <= 24, "in-degree blew up: {max_in}");
        assert!(min_in >= 1);
    }

    #[test]
    fn dense_is_deterministic_per_seed() {
        assert_eq!(random_dense(32, 4, 64, 9), random_dense(32, 4, 64, 9));
        assert_ne!(random_dense(32, 4, 64, 9), random_dense(32, 4, 64, 10));
    }

    #[test]
    #[should_panic(expected = "density")]
    fn dense_rejects_d_ge_n() {
        random_dense(8, 8, 64, 0);
    }

    #[test]
    fn dregular_has_exact_degrees_both_ways() {
        let com = random_dregular(32, 5, 128, 3);
        for i in 0..32 {
            assert_eq!(com.out_degree(i), 5);
            assert_eq!(com.in_degree(i), 5);
        }
        assert_eq!(com.density(), 5);
    }

    #[test]
    fn nonuniform_sizes_span_the_range() {
        let com = random_nonuniform(64, 6, 16, 131_072, 4);
        assert!(!com.is_uniform());
        for (_, _, b) in com.messages() {
            assert!((16..=131_072).contains(&b));
        }
        // Log-uniform should produce both small and large messages.
        let sizes: Vec<u32> = com.messages().map(|(_, _, b)| b).collect();
        assert!(sizes.iter().any(|&b| b < 1024));
        assert!(sizes.iter().any(|&b| b > 16_384));
    }

    #[test]
    #[should_panic(expected = "bad byte range")]
    fn nonuniform_rejects_empty_range() {
        random_nonuniform(8, 2, 100, 50, 0);
    }
}
