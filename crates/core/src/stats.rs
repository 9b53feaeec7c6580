//! Schedule-quality metrics: how full, how paired, and how route-heavy the
//! phases of a schedule are. These quantify the trade-offs Table 1 shows
//! in time units — e.g. LP's phases are fully paired but mostly empty at
//! low density, while RS_N's are dense but unpaired.

use hypercube::Topology;

use crate::{CommMatrix, PathsTable, Schedule};

/// Aggregate quality metrics of a phased schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleQuality {
    /// Number of phases.
    pub phases: usize,
    /// Total messages scheduled.
    pub messages: usize,
    /// Mean messages per phase divided by `n` (1.0 = every node sends in
    /// every phase).
    pub mean_fill: f64,
    /// Fill of the emptiest / fullest phase.
    pub min_fill: f64,
    /// Fill of the fullest phase.
    pub max_fill: f64,
    /// Fraction of messages that are half of a reciprocal (fusable) pair.
    pub pairing_rate: f64,
    /// Mean route length (hops) over all messages.
    pub mean_hops: f64,
    /// Number of phases that are link-contention-free on the measured
    /// topology.
    pub link_free_phases: usize,
}

impl ScheduleQuality {
    /// Measure `schedule` against the topology it will run on.
    pub fn measure<T: Topology + ?Sized>(schedule: &Schedule, topo: &T) -> Self {
        let n = schedule.n().max(1);
        let phases = schedule.phases();
        let mut messages = 0usize;
        let mut paired = 0usize;
        let mut hops_sum = 0usize;
        let mut min_fill = f64::INFINITY;
        let mut max_fill: f64 = 0.0;
        let mut link_free = 0usize;
        let mut paths = PathsTable::new(topo);
        let mut route = Vec::with_capacity(topo.diameter());
        for pm in phases {
            let len = pm.len();
            messages += len;
            paired += 2 * pm.exchange_pairs();
            let fill = len as f64 / n as f64;
            min_fill = min_fill.min(fill);
            max_fill = max_fill.max(fill);
            for (s, d) in pm.pairs() {
                hops_sum += topo.hops(s, d);
            }
            if pm.is_link_free_in(topo, &mut paths, &mut route) {
                link_free += 1;
            }
        }
        ScheduleQuality {
            phases: phases.len(),
            messages,
            mean_fill: if phases.is_empty() {
                0.0
            } else {
                messages as f64 / (phases.len() * n) as f64
            },
            min_fill: if phases.is_empty() { 0.0 } else { min_fill },
            max_fill,
            pairing_rate: if messages == 0 {
                0.0
            } else {
                paired as f64 / messages as f64
            },
            mean_hops: if messages == 0 {
                0.0
            } else {
                hops_sum as f64 / messages as f64
            },
            link_free_phases: link_free,
        }
    }
}

/// Lower bounds on the number of phases any node-contention-free schedule
/// needs for `com`: the density `d = max(in, out)` (paper assumption 3).
pub fn phase_lower_bound(com: &CommMatrix) -> usize {
    com.density()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lp, rs_n, rs_nl};
    use hypercube::Hypercube;

    fn symmetric(n: usize, w: usize) -> CommMatrix {
        let mut m = CommMatrix::new(n);
        for i in 0..n {
            for k in 1..=w {
                m.set(i, (i + k) % n, 1024);
                m.set((i + k) % n, i, 1024);
            }
        }
        m
    }

    #[test]
    fn lp_on_symmetric_traffic_is_fully_paired() {
        let cube = Hypercube::new(4);
        let com = symmetric(16, 2);
        let q = ScheduleQuality::measure(&lp(&com), &cube);
        assert_eq!(q.phases, 15);
        assert!((q.pairing_rate - 1.0).abs() < 1e-9);
        assert_eq!(q.link_free_phases, 15);
        assert!(q.mean_fill < 0.5, "LP fills few of its 15 phases at d=4");
    }

    #[test]
    fn rs_n_is_dense_but_rarely_link_free() {
        let cube = Hypercube::new(5);
        let com = symmetric(32, 4);
        let q = ScheduleQuality::measure(&rs_n(&com, 3), &cube);
        assert!(q.mean_fill > 0.6, "RS_N packs its phases: {}", q.mean_fill);
        let q_nl = ScheduleQuality::measure(&rs_nl(&com, &cube, 3), &cube);
        assert_eq!(q_nl.link_free_phases, q_nl.phases);
        assert!(q_nl.pairing_rate > q.pairing_rate);
    }

    #[test]
    fn lower_bound_is_density() {
        let com = symmetric(16, 3);
        assert_eq!(phase_lower_bound(&com), 6);
    }

    #[test]
    fn analytic_cost_tracks_phase_count_and_size() {
        let com = symmetric(16, 2);
        let s = rs_n(&com, 1);
        let cheap = crate::nonuniform::estimate_phased_cost(&s, &com, |max_bytes| {
            100_000 + (max_bytes as f64 * 357.0) as u64
        });
        // tau + M*phi per phase:
        let per_phase = 100_000 + (1024.0 * 357.0) as u64;
        assert_eq!(cheap, per_phase * s.num_phases() as u64);
    }

    #[test]
    fn empty_schedule_quality_is_zeroed() {
        let cube = Hypercube::new(3);
        let com = CommMatrix::new(8);
        let q = ScheduleQuality::measure(&rs_n(&com, 0), &cube);
        assert_eq!(q.phases, 0);
        assert_eq!(q.messages, 0);
        assert_eq!(q.mean_fill, 0.0);
        assert_eq!(q.pairing_rate, 0.0);
    }
}
