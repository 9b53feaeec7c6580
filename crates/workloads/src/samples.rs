use commsched::CommMatrix;

/// The paper's experimental test set: `count` independently seeded samples
/// of one workload configuration ("the test set used in the experiments
/// contains 50 randomly generated samples for each density d").
///
/// Sample `k` of a set with base seed `s` uses seed `s * 1000 + k`
/// (wrapping), so sets with different base seeds share no sample only
/// while each holds at most 1,000: sample 1,000 of base `s` is sample 0
/// of base `s + 1`. (Bases that agree modulo 2^61 also share samples,
/// because the product wraps.)
#[derive(Clone, Debug)]
pub struct SampleSet {
    base_seed: u64,
    count: usize,
}

impl SampleSet {
    /// The paper's default: 50 samples.
    pub fn paper(base_seed: u64) -> Self {
        Self::new(base_seed, 50)
    }

    /// A set of `count` samples derived from `base_seed`.
    ///
    /// An empty set (`count == 0`) is representable — consumers that need
    /// at least one sample must report that themselves (e.g.
    /// `ExperimentRunner::run_cell` returns an error) rather than assume
    /// construction already rejected it.
    pub fn new(base_seed: u64, count: usize) -> Self {
        SampleSet { base_seed, count }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the set has no samples.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The seed of sample `k`.
    ///
    /// Wrapping arithmetic: base seeds span the full `u64` range (e.g.
    /// hashed ad-hoc scheduler ordinals mixed into grid base seeds), and
    /// a seed only needs to be deterministic and well-spread, not
    /// order-preserving.
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    pub fn seed(&self, k: usize) -> u64 {
        assert!(k < self.count, "sample {k} out of {}", self.count);
        self.base_seed.wrapping_mul(1000).wrapping_add(k as u64)
    }

    /// All seeds of the set.
    pub fn seeds(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.count).map(|k| self.seed(k))
    }

    /// Generate every sample through `f`.
    pub fn generate(&self, f: impl Fn(u64) -> CommMatrix) -> Vec<CommMatrix> {
        self.seeds().map(f).collect()
    }

    /// Generate every sample of `g` — the [`crate::Generator`] form of
    /// [`SampleSet::generate`], for sweeps that pin the whole test set up
    /// front (e.g. fault sweeps re-pricing the same matrices under many
    /// link-cost models) instead of streaming seeds through a closure.
    pub fn realize(&self, g: &crate::Generator) -> Vec<CommMatrix> {
        self.generate(|seed| g.generate(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_dense;

    #[test]
    fn paper_set_has_fifty_samples() {
        let s = SampleSet::paper(1);
        assert_eq!(s.len(), 50);
        assert!(!s.is_empty());
    }

    #[test]
    fn seeds_are_distinct_within_and_across_sets() {
        let a = SampleSet::new(1, 50);
        let b = SampleSet::new(2, 50);
        let mut all: Vec<u64> = a.seeds().chain(b.seeds()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn generate_produces_distinct_matrices() {
        let set = SampleSet::new(3, 5);
        let mats = set.generate(|seed| random_dense(16, 3, 64, seed));
        assert_eq!(mats.len(), 5);
        assert_ne!(mats[0], mats[1]);
    }

    #[test]
    fn realize_matches_generate_over_the_same_seeds() {
        let set = SampleSet::new(7, 4);
        let g = crate::Generator::dregular(16, 3, 512);
        let via_realize = set.realize(&g);
        let via_generate = set.generate(|seed| crate::random_dregular(16, 3, 512, seed));
        assert_eq!(via_realize, via_generate);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn seed_bounds_checked() {
        SampleSet::new(1, 3).seed(3);
    }

    #[test]
    fn empty_sets_are_representable() {
        let s = SampleSet::new(9, 0);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.seeds().count(), 0);
        assert!(s.generate(|seed| random_dense(8, 2, 64, seed)).is_empty());
    }
}
