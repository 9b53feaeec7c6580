//! The traced replay times a mirror of `ServiceState::process`, not the
//! thing itself. This holds the two together: for the first 200 ops of
//! each serve workload the mirror's reply encodes byte-identically to the
//! real one, so the mirror cannot drift from the program unnoticed.

use ipsc_benchmark::run::replay_for_test;

fn assert_mirror_matches(workload: &str) {
    let replay = replay_for_test(workload, 7, 200).expect("replay runs");
    assert_eq!(replay.mirror_bodies.len(), 200);
    assert_eq!(replay.real_bodies.len(), 200);
    for (op, (mirror, real)) in replay
        .mirror_bodies
        .iter()
        .zip(&replay.real_bodies)
        .enumerate()
    {
        assert!(
            mirror == real,
            "{workload}: op {op} encodes differently in the mirror"
        );
    }
}

#[test]
fn serve_hot_mirror_is_byte_identical() {
    assert_mirror_matches("serve_hot");
}

#[test]
fn serve_cold_mirror_is_byte_identical() {
    assert_mirror_matches("serve_cold");
}

#[test]
fn serve_drift_mirror_is_byte_identical() {
    assert_mirror_matches("serve_drift");
}
