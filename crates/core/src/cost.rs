use crate::Schedule;

/// Converts abstract scheduler operation counts into simulated scheduling
/// time on the paper's hardware (40 MHz Intel i860 nodes).
///
/// **Why this exists.** The paper's Figures 10 and 11 plot the *ratio* of
/// scheduling (computation) cost to communication cost. Re-measuring the
/// scheduler's wall time on a ~5 GHz superscalar CPU and dividing by
/// *simulated* 1990s communication time would make that ratio meaningless
/// (off by three orders of magnitude). Instead every scheduler counts the
/// abstract inner-loop operations it executes — row visits, `CCOM` slot
/// scans, `Tsend`/`Trecv` initializations, `Check_Path` link inspections —
/// and this model charges a fixed i860 cost per operation.
///
/// The constant is calibrated against Table 1 of the paper: RS_N at
/// `n = 64, d = 48` costs ~20 ms, i.e. roughly 1.2 us per abstract
/// operation (≈48 cycles at 40 MHz — an inner loop with a couple of memory
/// references, which is exactly what these operations are).
///
/// This model is only for reproducing the paper's overhead ratios; it
/// says nothing about the host's wall-clock scheduling time.
#[derive(Clone, Copy, Debug)]
pub struct I860CostModel {
    /// Simulated nanoseconds per abstract scheduling operation.
    pub ns_per_op: f64,
}

impl Default for I860CostModel {
    fn default() -> Self {
        I860CostModel { ns_per_op: 1200.0 }
    }
}

impl I860CostModel {
    /// Simulated scheduling time for `schedule`, in nanoseconds, including
    /// the parallel `COM -> CCOM` compression step.
    pub fn schedule_ns(&self, schedule: &Schedule) -> u64 {
        ((schedule.ops() + schedule.compress_ops()) as f64 * self.ns_per_op) as u64
    }

    /// Simulated scheduling time in milliseconds (the unit of Table 1's
    /// "comp" rows).
    pub fn schedule_ms(&self, schedule: &Schedule) -> f64 {
        self.schedule_ns(schedule) as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{rs_n, rs_nl, CommMatrix};
    use hypercube::Hypercube;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Paper-style random traffic: each node sends d messages to distinct
    /// random destinations.
    fn random_com(n: usize, d: usize, seed: u64) -> CommMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = CommMatrix::new(n);
        for i in 0..n {
            let mut placed = 0;
            while placed < d {
                let j = rng.random_range(0..n);
                if j != i && m.get(i, j) == 0 {
                    m.set(i, j, 1024);
                    placed += 1;
                }
            }
        }
        m
    }

    #[test]
    fn rs_n_cost_matches_table1_magnitude() {
        // Table 1: RS_N comp at d=48 is ~20 ms, at d=4 is ~1.7 ms.
        let model = I860CostModel::default();
        let com48 = random_com(64, 48, 1);
        let ms48 = model.schedule_ms(&rs_n(&com48, 1));
        assert!(
            (10.0..35.0).contains(&ms48),
            "d=48 comp should be ~20 ms, got {ms48:.2}"
        );
        let com4 = random_com(64, 4, 1);
        let ms4 = model.schedule_ms(&rs_n(&com4, 1));
        assert!(
            (0.5..4.0).contains(&ms4),
            "d=4 comp should be ~1.7 ms, got {ms4:.2}"
        );
    }

    #[test]
    fn rs_nl_costs_a_few_times_rs_n() {
        // Table 1: RS_NL comp is ~3x RS_N at every density.
        let model = I860CostModel::default();
        let cube = Hypercube::new(6);
        let com = random_com(64, 16, 2);
        let n_ms = model.schedule_ms(&rs_n(&com, 2));
        let nl_ms = model.schedule_ms(&rs_nl(&com, &cube, 2));
        let ratio = nl_ms / n_ms;
        assert!(
            (1.8..6.0).contains(&ratio),
            "RS_NL/RS_N comp ratio should be ~3, got {ratio:.2}"
        );
    }

    #[test]
    fn lp_cost_is_negligible() {
        let model = I860CostModel::default();
        let com = random_com(64, 32, 3);
        let ms = model.schedule_ms(&crate::lp(&com));
        assert!(ms < 0.5, "LP comp should be ~0.08 ms, got {ms:.3}");
    }
}
