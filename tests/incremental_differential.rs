//! Differential properties of the incremental patching path.
//!
//! The patch contract is *validity, not reproduction*: a patched schedule
//! may place messages differently (and carry a few more phases) than a
//! from-scratch compile of the perturbed matrix. These properties pin
//! down what "validity" buys downstream:
//!
//! * every patched schedule validates against the perturbed matrix and
//!   upholds the entry's registered node/link-contention guarantees;
//! * simulated end-to-end, on **both** backends (event-driven and
//!   analytic), a patched schedule's makespan tracks the from-scratch
//!   schedule within a documented bound — each structural edit can add at
//!   most one phase, and no single phase can cost more than an entire
//!   from-scratch makespan, so `patched <= (k + 2) x scratch` for `k`
//!   structural edits (the `+2` covers per-phase overhead and
//!   store-and-forward buffering asymmetries);
//! * resize-only deltas patch to the *identical* phase structure.

use ipsc_sched::commsched::{registry, MatrixDelta};
use ipsc_sched::prelude::*;
use proptest::prelude::*;

/// Strategy: a random sparse communication matrix over `n` nodes with at
/// most `max_deg` messages per sender and sizes in 1..=64 KiB.
fn arb_matrix(n: usize, max_deg: usize) -> impl Strategy<Value = CommMatrix> {
    let cells = proptest::collection::vec((0..n, 0..n, 1u32..65_536), 1..(n * max_deg));
    cells.prop_map(move |entries| {
        let mut com = CommMatrix::new(n);
        for (s, d, bytes) in entries {
            if s != d && com.out_degree(s) < max_deg {
                com.set(s, d, bytes);
            }
        }
        com
    })
}

/// Apply `moves` as message retargets: each move picks a message and
/// re-points it at the first free destination scanning from a salt —
/// the drift pattern of an adaptive-refinement step (one removal + one
/// addition per move).
fn drift(base: &CommMatrix, moves: &[(u64, u64)]) -> CommMatrix {
    let n = base.n();
    let mut out = base.clone();
    for &(pick, salt) in moves {
        let msgs: Vec<_> = out.messages().collect();
        if msgs.is_empty() {
            break;
        }
        let (src, old_dst, bytes) = msgs[pick as usize % msgs.len()];
        out.set(src.index(), old_dst.index(), 0);
        let start = salt as usize % n;
        for off in 0..n {
            let dst = (start + off) % n;
            if dst != src.index() && out.get(src.index(), dst) == 0 {
                out.set(src.index(), dst, bytes);
                break;
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn patched_schedules_validate_and_keep_guarantees(
        base in arb_matrix(16, 4),
        moves in proptest::collection::vec((0u64..1_000_000, 0u64..1_000_000), 1..4),
        seed in 0u64..100,
    ) {
        let cube = Hypercube::new(4);
        let target = drift(&base, &moves);
        let delta = MatrixDelta::diff(&base, &target).unwrap();
        for entry in registry::all() {
            let cold_base = entry.schedule(&base, &cube, seed);
            let Some(patched) = entry.patch_schedule(&cold_base, &delta, &cube, seed) else {
                continue; // AC declines patching by design
            };
            prop_assert!(
                validate_schedule(&target, &patched).is_ok(),
                "{}: patched schedule invalid",
                entry.name()
            );
            if entry.node_contention_free() {
                for pm in patched.phases() {
                    prop_assert!(pm.is_partial_permutation(), "{}", entry.name());
                }
            }
            if entry.link_contention_free() {
                prop_assert!(patched.link_contention_free(&cube), "{}", entry.name());
            }
        }
    }

    #[test]
    fn patched_makespan_tracks_from_scratch_on_both_backends(
        base in arb_matrix(16, 3),
        moves in proptest::collection::vec((0u64..1_000_000, 0u64..1_000_000), 1..4),
        seed in 0u64..50,
    ) {
        let cube = Hypercube::new(4);
        let params = MachineParams::ipsc860();
        let target = drift(&base, &moves);
        let delta = MatrixDelta::diff(&base, &target).unwrap();
        let k = delta.structural_count() as u64;
        let backends: [&dyn SimBackend; 2] = [&DesBackend::default(), &AnalyticBackend];
        for entry in registry::all() {
            let cold_base = entry.schedule(&base, &cube, seed);
            let Some(patched) = entry.patch_schedule(&cold_base, &delta, &cube, seed) else {
                continue;
            };
            let scratch = entry.schedule(&target, &cube, seed);
            let scheme = if entry.link_contention_free() {
                Scheme::S1
            } else {
                Scheme::S2
            };
            for backend in backends {
                let patched_ns = backend
                    .estimate(&params, &cube, &target, &patched, scheme)
                    .unwrap_or_else(|e| panic!("{}/{}: patched: {e}", entry.name(), backend.name()))
                    .makespan_ns;
                let scratch_ns = backend
                    .estimate(&params, &cube, &target, &scratch, scheme)
                    .unwrap_or_else(|e| panic!("{}/{}: scratch: {e}", entry.name(), backend.name()))
                    .makespan_ns;
                prop_assert!(
                    patched_ns <= (k + 2) * scratch_ns,
                    "{}/{}: patched {patched_ns} ns vs from-scratch {scratch_ns} ns \
                     exceeds the (k + 2) = {} x bound",
                    entry.name(),
                    backend.name(),
                    k + 2
                );
            }
        }
    }

    #[test]
    fn resize_only_deltas_preserve_phase_structure(
        base in arb_matrix(16, 4),
        grow in 1u32..65_536,
        seed in 0u64..50,
    ) {
        let cube = Hypercube::new(4);
        let mut target = base.clone();
        let Some((src, dst, _)) = base.messages().next() else {
            return Ok(()); // empty matrix: nothing to resize
        };
        target.set(src.index(), dst.index(), grow);
        let delta = MatrixDelta::diff(&base, &target).unwrap();
        prop_assert_eq!(delta.structural_count(), 0);
        for entry in registry::all() {
            let cold_base = entry.schedule(&base, &cube, seed);
            let Some(patched) = entry.patch_schedule(&cold_base, &delta, &cube, seed) else {
                continue;
            };
            prop_assert!(
                patched.phases() == cold_base.phases(),
                "{}: a resize-only delta must not move messages",
                entry.name()
            );
            prop_assert!(validate_schedule(&target, &patched).is_ok(), "{}", entry.name());
        }
    }
}

#[test]
fn one_percent_drift_on_a_dense_256_node_instance_patches_and_validates() {
    // The serving path's drifting-pattern case at scale: 12,288 messages,
    // ~1 % retargeted. AC declines patching by design; one more miss is
    // budgeted. Every patch must be a valid schedule of the drifted
    // matrix.
    let cube = Hypercube::new(8);
    let base = ipsc_sched::workloads::random_dregular(256, 48, 4096, 7);
    let moves: Vec<(u64, u64)> = (0..base.messages().count() as u64 / 100)
        .map(|m| (m * 7919, m * 104_729))
        .collect();
    let target = drift(&base, &moves);
    let delta = MatrixDelta::diff(&base, &target).unwrap();
    let mut patched_entries = 0;
    for entry in registry::all() {
        let cold_base = entry.schedule(&base, &cube, 7);
        let Some(patched) = entry.patch_schedule(&cold_base, &delta, &cube, 7) else {
            continue;
        };
        validate_schedule(&target, &patched)
            .unwrap_or_else(|e| panic!("{}: patched schedule invalid: {e}", entry.name()));
        patched_entries += 1;
    }
    assert_eq!(registry::all().len(), 8);
    assert!(patched_entries >= 6, "only {patched_entries} of 8 patched");
}
