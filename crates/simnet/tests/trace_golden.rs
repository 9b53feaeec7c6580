//! Golden execution traces: exact event order of the discrete-event
//! engine, pinned for one schedule per algorithm family on small cubes
//! (d = 2 and d = 3).
//!
//! The engine's determinism contract is stronger than "same makespan" —
//! it promises the same *event sequence* for the same inputs (ties break
//! on a monotone sequence number). Future engine refactors diff against
//! these fixtures: a changed line here means observable behavior moved,
//! which is either a bug or a deliberate model change that must update
//! the goldens (regenerate by printing `TraceEvent::compact` for each
//! event `simnet::simulate_with` records for the inputs below).
//!
//! Fixtures cover the protocol corners on purpose: AC's post/blast
//! program, LP's fused pairwise exchanges, RS_N under S2 ordering, and
//! RS_NL's S1 ready-handshake (0-byte odd-tag signals) — plus short- and
//! long-protocol messages and multi-hop routes on the d=3 cube.

use commrt::Scheme;
use commsched::{registry, CommMatrix};
use hypercube::Hypercube;
use simnet::{simulate_with, LinkCostModel, MachineParams};

/// The d=2 fixture: two reciprocal pairs mixing all four message sizes.
fn com_d2() -> CommMatrix {
    let mut com = CommMatrix::new(4);
    com.set(0, 3, 512);
    com.set(1, 2, 128);
    com.set(2, 1, 256);
    com.set(3, 0, 1024);
    com
}

/// The d=3 fixture: a long-protocol diameter route, a short-protocol
/// (<= 100 B) message, and one reciprocal pair.
fn com_d3() -> CommMatrix {
    let mut com = CommMatrix::new(8);
    com.set(0, 7, 4096);
    com.set(3, 4, 100);
    com.set(5, 2, 256);
    com.set(2, 5, 256);
    com
}

fn trace_of(dim: u32, com: &CommMatrix, algorithm: &str) -> String {
    let cube = Hypercube::new(dim);
    let entry = registry::find(algorithm).expect("registered algorithm");
    let schedule = entry.schedule(com, &cube, 7);
    let scheme = Scheme::for_scheduler(entry);
    let programs = commrt::compile(com, &schedule, scheme);
    let mut trace = Vec::new();
    let params = MachineParams::ipsc860();
    simulate_with(
        &cube,
        &params,
        &LinkCostModel::Uniform,
        programs,
        Some(&mut trace),
    )
    .expect("fixture simulates green");
    let mut out = String::new();
    for ev in &trace {
        out.push_str(&ev.compact());
        out.push('\n');
    }
    out
}

fn assert_golden(actual: &str, golden: &str, what: &str) {
    if actual == golden {
        return;
    }
    // A full diff beats assert_eq!'s one-line mismatch for event logs.
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "{what}: first divergence at event {i}");
    }
    panic!(
        "{what}: event counts differ ({} vs {} golden)",
        actual.lines().count(),
        golden.lines().count()
    );
}

const GOLDEN_AC_D2: &str = "\
t=10000 Requested P0->P3 tag=0 512B\n\
t=10000 Requested P1->P2 tag=0 128B\n\
t=10000 Requested P2->P1 tag=0 256B\n\
t=10000 Requested P3->P0 tag=0 1024B\n\
t=25000 Started P0->P3 tag=0 512B\n\
t=25000 Started P1->P2 tag=0 128B\n\
t=240696 Finished P1->P2 tag=0 128B\n\
t=240696 Started P2->P1 tag=0 256B\n\
t=377784 Finished P0->P3 tag=0 512B\n\
t=377784 Started P3->P0 tag=0 1024B\n\
t=502088 Finished P2->P1 tag=0 256B\n\
t=502088 NodeDone P1->P1 tag=0 0B\n\
t=502088 NodeDone P2->P2 tag=0 0B\n\
t=913352 Finished P3->P0 tag=0 1024B\n\
t=913352 NodeDone P0->P0 tag=0 0B\n\
t=913352 NodeDone P3->P3 tag=0 0B\n\
";

const GOLDEN_LP_D2: &str = "\
t=0 Requested P2->P1 tag=4 256B\n\
t=0 Started P2->P1 tag=4 256B\n\
t=0 Requested P3->P0 tag=4 1024B\n\
t=0 Started P3->P0 tag=4 1024B\n\
t=336392 Finished P2->P1 tag=4 256B\n\
t=336392 NodeDone P2->P2 tag=0 0B\n\
t=336392 NodeDone P1->P1 tag=0 0B\n\
t=610568 Finished P3->P0 tag=4 1024B\n\
t=610568 NodeDone P3->P3 tag=0 0B\n\
t=610568 NodeDone P0->P0 tag=0 0B\n\
";

const GOLDEN_RS_N_D2: &str = "\
t=10000 Requested P0->P3 tag=0 512B\n\
t=10000 Requested P1->P2 tag=0 128B\n\
t=10000 Requested P2->P1 tag=0 256B\n\
t=10000 Requested P3->P0 tag=0 1024B\n\
t=25000 Started P0->P3 tag=0 512B\n\
t=25000 Started P1->P2 tag=0 128B\n\
t=240696 Finished P1->P2 tag=0 128B\n\
t=240696 Started P2->P1 tag=0 256B\n\
t=377784 Finished P0->P3 tag=0 512B\n\
t=377784 Started P3->P0 tag=0 1024B\n\
t=502088 Finished P2->P1 tag=0 256B\n\
t=502088 NodeDone P1->P1 tag=0 0B\n\
t=502088 NodeDone P2->P2 tag=0 0B\n\
t=913352 Finished P3->P0 tag=0 1024B\n\
t=913352 NodeDone P0->P0 tag=0 0B\n\
t=913352 NodeDone P3->P3 tag=0 0B\n\
";

const GOLDEN_RS_NL_D2: &str = "\
t=0 Requested P2->P1 tag=0 256B\n\
t=0 Started P2->P1 tag=0 256B\n\
t=0 Requested P3->P0 tag=0 1024B\n\
t=0 Started P3->P0 tag=0 1024B\n\
t=336392 Finished P2->P1 tag=0 256B\n\
t=336392 NodeDone P2->P2 tag=0 0B\n\
t=336392 NodeDone P1->P1 tag=0 0B\n\
t=610568 Finished P3->P0 tag=0 1024B\n\
t=610568 NodeDone P3->P3 tag=0 0B\n\
t=610568 NodeDone P0->P0 tag=0 0B\n\
";

const GOLDEN_AC_D3: &str = "\
t=0 Requested P0->P7 tag=0 4096B\n\
t=0 NodeDone P1->P1 tag=0 0B\n\
t=0 Requested P3->P4 tag=0 100B\n\
t=0 NodeDone P6->P6 tag=0 0B\n\
t=10000 Requested P2->P5 tag=0 256B\n\
t=10000 Requested P5->P2 tag=0 256B\n\
t=15000 Started P0->P7 tag=0 4096B\n\
t=15000 Started P3->P4 tag=0 100B\n\
t=25000 Started P2->P5 tag=0 256B\n\
t=112000 Finished P3->P4 tag=0 100B\n\
t=112000 NodeDone P4->P4 tag=0 0B\n\
t=112000 NodeDone P3->P3 tag=0 0B\n\
t=296392 Finished P2->P5 tag=0 256B\n\
t=296392 Started P5->P2 tag=0 256B\n\
t=567784 Finished P5->P2 tag=0 256B\n\
t=567784 NodeDone P2->P2 tag=0 0B\n\
t=567784 NodeDone P5->P5 tag=0 0B\n\
t=1657272 Finished P0->P7 tag=0 4096B\n\
t=1657272 NodeDone P7->P7 tag=0 0B\n\
t=1657272 NodeDone P0->P0 tag=0 0B\n\
";

const GOLDEN_LP_D3: &str = "\
t=0 NodeDone P1->P1 tag=0 0B\n\
t=0 Requested P5->P2 tag=12 256B\n\
t=0 Started P5->P2 tag=12 256B\n\
t=0 NodeDone P6->P6 tag=0 0B\n\
t=10000 Requested P4->P3 tag=13 0B\n\
t=10000 Requested P7->P0 tag=13 0B\n\
t=25000 Started P4->P3 tag=13 0B\n\
t=25000 Started P7->P0 tag=13 0B\n\
t=120000 Finished P4->P3 tag=13 0B\n\
t=120000 Finished P7->P0 tag=13 0B\n\
t=120000 Requested P3->P4 tag=12 100B\n\
t=120000 Requested P0->P7 tag=12 4096B\n\
t=135000 Started P3->P4 tag=12 100B\n\
t=135000 Started P0->P7 tag=12 4096B\n\
t=232000 Finished P3->P4 tag=12 100B\n\
t=232000 NodeDone P4->P4 tag=0 0B\n\
t=232000 NodeDone P3->P3 tag=0 0B\n\
t=346392 Finished P5->P2 tag=12 256B\n\
t=346392 NodeDone P5->P5 tag=0 0B\n\
t=346392 NodeDone P2->P2 tag=0 0B\n\
t=1777272 Finished P0->P7 tag=12 4096B\n\
t=1777272 NodeDone P7->P7 tag=0 0B\n\
t=1777272 NodeDone P0->P0 tag=0 0B\n\
";

const GOLDEN_RS_N_D3: &str = "\
t=0 Requested P0->P7 tag=0 4096B\n\
t=0 NodeDone P1->P1 tag=0 0B\n\
t=0 Requested P3->P4 tag=0 100B\n\
t=0 NodeDone P6->P6 tag=0 0B\n\
t=10000 Requested P2->P5 tag=0 256B\n\
t=10000 Requested P5->P2 tag=0 256B\n\
t=15000 Started P0->P7 tag=0 4096B\n\
t=15000 Started P3->P4 tag=0 100B\n\
t=25000 Started P2->P5 tag=0 256B\n\
t=112000 Finished P3->P4 tag=0 100B\n\
t=112000 NodeDone P4->P4 tag=0 0B\n\
t=112000 NodeDone P3->P3 tag=0 0B\n\
t=296392 Finished P2->P5 tag=0 256B\n\
t=296392 Started P5->P2 tag=0 256B\n\
t=567784 Finished P5->P2 tag=0 256B\n\
t=567784 NodeDone P2->P2 tag=0 0B\n\
t=567784 NodeDone P5->P5 tag=0 0B\n\
t=1657272 Finished P0->P7 tag=0 4096B\n\
t=1657272 NodeDone P7->P7 tag=0 0B\n\
t=1657272 NodeDone P0->P0 tag=0 0B\n\
";

const GOLDEN_RS_NL_D3: &str = "\
t=0 NodeDone P1->P1 tag=0 0B\n\
t=0 Requested P5->P2 tag=0 256B\n\
t=0 Started P5->P2 tag=0 256B\n\
t=0 NodeDone P6->P6 tag=0 0B\n\
t=10000 Requested P4->P3 tag=1 0B\n\
t=10000 Requested P7->P0 tag=1 0B\n\
t=25000 Started P4->P3 tag=1 0B\n\
t=25000 Started P7->P0 tag=1 0B\n\
t=120000 Finished P4->P3 tag=1 0B\n\
t=120000 Finished P7->P0 tag=1 0B\n\
t=120000 Requested P3->P4 tag=0 100B\n\
t=120000 Requested P0->P7 tag=0 4096B\n\
t=135000 Started P3->P4 tag=0 100B\n\
t=135000 Started P0->P7 tag=0 4096B\n\
t=232000 Finished P3->P4 tag=0 100B\n\
t=232000 NodeDone P4->P4 tag=0 0B\n\
t=232000 NodeDone P3->P3 tag=0 0B\n\
t=346392 Finished P5->P2 tag=0 256B\n\
t=346392 NodeDone P5->P5 tag=0 0B\n\
t=346392 NodeDone P2->P2 tag=0 0B\n\
t=1777272 Finished P0->P7 tag=0 4096B\n\
t=1777272 NodeDone P7->P7 tag=0 0B\n\
t=1777272 NodeDone P0->P0 tag=0 0B\n\
";

#[test]
fn golden_ac_d2() {
    assert_golden(
        &trace_of(2, &com_d2(), "AC"),
        GOLDEN_AC_D2,
        "AC on the d=2 cube",
    );
}

#[test]
fn golden_lp_d2() {
    assert_golden(
        &trace_of(2, &com_d2(), "LP"),
        GOLDEN_LP_D2,
        "LP on the d=2 cube",
    );
}

#[test]
fn golden_rs_n_d2() {
    assert_golden(
        &trace_of(2, &com_d2(), "RS_N"),
        GOLDEN_RS_N_D2,
        "RS_N on the d=2 cube",
    );
}

#[test]
fn golden_rs_nl_d2() {
    assert_golden(
        &trace_of(2, &com_d2(), "RS_NL"),
        GOLDEN_RS_NL_D2,
        "RS_NL on the d=2 cube",
    );
}

#[test]
fn golden_ac_d3() {
    assert_golden(
        &trace_of(3, &com_d3(), "AC"),
        GOLDEN_AC_D3,
        "AC on the d=3 cube",
    );
}

#[test]
fn golden_lp_d3() {
    assert_golden(
        &trace_of(3, &com_d3(), "LP"),
        GOLDEN_LP_D3,
        "LP on the d=3 cube",
    );
}

#[test]
fn golden_rs_n_d3() {
    assert_golden(
        &trace_of(3, &com_d3(), "RS_N"),
        GOLDEN_RS_N_D3,
        "RS_N on the d=3 cube",
    );
}

#[test]
fn golden_rs_nl_d3() {
    assert_golden(
        &trace_of(3, &com_d3(), "RS_NL"),
        GOLDEN_RS_NL_D3,
        "RS_NL on the d=3 cube",
    );
}
