//! Where `BackendReport::phase_end_ns` is monotone, and where it is not.
//!
//! Under S2 the analytic backend reads each entry off one growing
//! `LoadModel`, and that model is *not* monotone in the transfers added: a
//! late transfer whose lead is far below a shared resource's `min_lead`
//! pulls the resource's span down (`simnet::analytic`'s
//! `an_early_lead_can_lower_the_makespan`). S2 leads are
//! `in_degree(src) · recv_post + (j + 1) · send_overhead` and a transfer is
//! busy for at least the 75 µs short-message start-up, so a dip needs a
//! lead gap of more than eight receive posts: in-degrees as skewed as a
//! hot spot's, with messages small enough that `busy` does not cover it.
//!
//! Both halves are hunted on every run, so the documented contract is
//! checked and not assumed: balanced and power-law traffic — what the
//! paper's grid, the benchmark and the daemon's workloads are made of —
//! never dips; hot-spot traffic does, and `phase_ns` absorbs it.

use commrt::{AnalyticBackend, BackendReport, Scheme, SimBackend};
use commsched::CommMatrix;
use hypercube::Hypercube;
use simnet::{MachineParams, PortModel};
use workloads::irregular::{hotspot, powerlaw};

const NODES: usize = 16;

/// The S2 reports of `com` under RS_N, GREEDY and RS_NL × both port
/// models; every report's last phase end is its makespan.
fn s2_reports(com: &CommMatrix, seed: u64) -> Vec<(String, BackendReport)> {
    let cube = Hypercube::new(4);
    let mut out = Vec::new();
    for name in ["RS_N", "GREEDY", "RS_NL"] {
        let entry = commsched::registry::find(name).unwrap();
        let schedule = entry.schedule(com, &cube, seed);
        for ports in [PortModel::Unified, PortModel::Split] {
            let params = MachineParams {
                ports,
                ..MachineParams::ipsc860()
            };
            let report = AnalyticBackend
                .estimate(&params, &cube, com, &schedule, Scheme::S2)
                .unwrap();
            assert_eq!(
                report.phase_end_ns.last().copied().unwrap_or(0),
                report.makespan_ns
            );
            out.push((format!("{name} seed {seed} {ports:?}"), report));
        }
    }
    out
}

fn dips(report: &BackendReport) -> bool {
    report.phase_end_ns.windows(2).any(|w| w[0] > w[1])
}

#[test]
fn s2_phase_ends_never_dip_on_balanced_or_power_law_traffic() {
    let mut cases = 0;
    for seed in 0..900u64 {
        // Small messages: 1 to 241 bytes.
        let bytes = 1 + (seed % 7) as u32 * 40;
        let d = 1 + (seed / 3 % 14) as usize;
        let com = match seed % 3 {
            0 => workloads::random_dregular(NODES, d, bytes, seed),
            1 => workloads::random_dense(NODES, d, bytes, seed),
            _ => powerlaw(NODES, d, 0.5 + (seed / 6 % 4) as f64 * 0.5, bytes, seed),
        };
        for (case, report) in s2_reports(&com, seed) {
            assert!(!dips(&report), "{case}: {:?}", report.phase_end_ns);
            cases += 1;
        }
    }
    assert_eq!(cases, 900 * 3 * 2);
}

#[test]
fn s2_phase_ends_can_dip_under_a_hot_spot_and_phase_ns_absorbs_it() {
    let mut dipped = 0;
    for seed in 0..300u64 {
        let bytes = 1 + (seed % 7) as u32 * 40;
        // 1-3 receivers everyone sends to, 0-3 random extras per sender.
        let com = hotspot(
            NODES,
            1 + (seed / 2 % 3) as usize,
            (seed / 6 % 4) as usize,
            bytes,
            seed,
        );
        for (case, report) in s2_reports(&com, seed) {
            if dips(&report) {
                dipped += 1;
                // A dipped phase reads as zero-length, never negative,
                // and the durations still end on the last phase end.
                let total: u64 = report.phase_ns().iter().sum();
                assert!(total >= report.makespan_ns, "{case}");
            }
        }
    }
    assert!(
        dipped > 0,
        "no hot-spot case dips any more: BackendReport::phase_end_ns can \
         promise monotonicity without the caveat"
    );
}
