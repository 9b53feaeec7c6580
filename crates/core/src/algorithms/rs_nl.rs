use hypercube::{LinkId, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::algorithms::rs_n::{sweep, Pick};
use crate::algorithms::RsOptions;
use crate::{CommMatrix, CompressedMatrix, PathsTable, Schedule, SchedulerKind, SILENT};

/// Randomized scheduling avoiding node **and link** contention — `RS_NL`
/// (Section 5, Figure 4).
///
/// Figure 4 is RS_N's row sweep (Figure 3) with two additions, and so is
/// this: Figure 4's phase set-up (`Tsend`, `Trecv`, `PATHS`), random
/// start row and cyclic row visit are the phase loop RS_N runs on, and
/// RS_NL supplies only the body of one visit to row `x`, in two passes.
///
/// - Pass 1, the preference for a **reciprocal pair** (step 3(c)i): if row
///   `x` holds a live message to `y` while `y`, not yet sending or
///   receiving this phase, holds one to `x`, and both circuits are free,
///   both are placed in the same phase so the runtime can fuse them into
///   one concurrent pairwise exchange — the iPSC/860's cheap bidirectional
///   mode.
/// - Pass 2, RS_N's scan for the first free receiver, with the `PATHS`
///   reservation table: a candidate is admitted only if the deterministic
///   circuit to it (`Check_Path`) is disjoint from every circuit already
///   reserved this phase, after which the circuit is claimed
///   (`Mark_Path`).
///
/// The resulting phases are link-contention-free by construction on any
/// deterministic topology — hypercube or mesh.
///
/// Costs roughly 3x the scheduling operations of RS_N on the paper's cube
/// (every path check is charged the candidate circuit's length, at most
/// the fabric's diameter: `log n` on the cube, more on a torus or mesh),
/// the trade-off quantified by the paper's Figures 10 and 11. The circuits
/// themselves are routed once per compile, before the phase loop: a
/// deterministic route is a pure function of its endpoints, so every probe
/// of a candidate reads the same links.
pub fn rs_nl<T: Topology + ?Sized>(com: &CommMatrix, topo: &T, seed: u64) -> Schedule {
    rs_nl_with(com, topo, seed, RsOptions::default())
}

/// [`rs_nl`] with explicit [`RsOptions`] (ablations).
pub fn rs_nl_with<T: Topology + ?Sized>(
    com: &CommMatrix,
    topo: &T,
    seed: u64,
    opts: RsOptions,
) -> Schedule {
    let n = com.n();
    assert_eq!(
        topo.num_nodes(),
        n,
        "matrix is {n} nodes but topology has {}",
        topo.num_nodes()
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let ccom = CompressedMatrix::compress_with(com, opts.randomize_rows, &mut rng);
    let mut paths = PathsTable::new(topo);
    // Every message's circuit, routed here and nowhere else: row k of the
    // CSR table (`offsets[k]..offsets[k + 1]` into `links`) is the circuit
    // of message k in `messages()` order, the index CCOM carries beside
    // each slot. Check_Path and Mark_Path read these slices and charge
    // `ops` the circuit's length, the paper's cost of walking it.
    let mut offsets: Vec<u32> = vec![0];
    let mut links: Vec<LinkId> = Vec::new();
    let mut scratch = Vec::new();
    // reverse[k] = message y -> x of message k = x -> y, if any, and
    // pending[k] = message k not yet scheduled: an O(1) "does y still owe
    // x a message?" (each node keeps this bitmap of its own column for
    // free while building CCOM, so one op per probe is the honest cost).
    let mut reverse = Vec::with_capacity(com.message_count());
    for (s, d, _) in com.messages() {
        topo.route_into(s, d, &mut scratch);
        links.extend_from_slice(&scratch);
        offsets.push(u32::try_from(links.len()).expect("circuit table outgrew u32 offsets"));
        let r = com.locate(d.index(), s.index()).ok();
        reverse.push(r.map(|r| r as u32));
    }
    let mut pending = vec![true; com.message_count()];
    let circuit = |k: u32| -> &[LinkId] {
        &links[offsets[k as usize] as usize..offsets[k as usize + 1] as usize]
    };
    // The phase `paths` holds reservations for.
    let mut reserved_in = usize::MAX;

    sweep(ccom, rng, opts.random_start, SchedulerKind::RsNl, |v| {
        if v.phase != reserved_in {
            paths.clear();
            reserved_in = v.phase;
        }
        let x = v.x;
        let live = v.ccom.live_row(x).iter().zip(v.ccom.live_messages(x));
        let mut ops = 0;
        // Pass 1 (pairwise preference): find y with a live reverse message
        // y -> x, both endpoints free, both circuits free.
        if opts.pairwise_preference && v.free[x] {
            for (z, (&y, &k)) in live.clone().enumerate() {
                ops += 1;
                let yu = y as usize;
                if !v.free[yu] || v.tsend[yu] != SILENT {
                    continue;
                }
                // Does y still owe a message to x?
                ops += 1;
                let Some(r) = reverse[k as usize].filter(|&r| pending[r as usize]) else {
                    continue;
                };
                if paths.check(circuit(k), &mut ops) && paths.check(circuit(r), &mut ops) {
                    paths.mark(circuit(k));
                    paths.mark(circuit(r));
                    pending[k as usize] = false;
                    pending[r as usize] = false;
                    let back = v
                        .ccom
                        .live_messages(yu)
                        .iter()
                        .position(|&w| w == r)
                        .expect("reverse message verified live");
                    return (Pick::Pair(z, back), ops);
                }
            }
        }
        // Pass 2: the plain RS_N scan with the Check_Path condition.
        for (z, (&y, &k)) in live.enumerate() {
            ops += 1;
            if v.free[y as usize] && paths.check(circuit(k), &mut ops) {
                paths.mark(circuit(k));
                pending[k as usize] = false;
                return (Pick::Slot(z), ops);
            }
        }
        (Pick::Silent, ops)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_schedule;
    use hypercube::Hypercube;
    use topo::Torus;

    fn shift_pattern(n: usize, d: usize, bytes: u32) -> CommMatrix {
        let mut m = CommMatrix::new(n);
        for i in 0..n {
            for k in 1..=d {
                m.set(i, (i + k) % n, bytes);
            }
        }
        m
    }

    /// A symmetric pattern: i <-> i+k for k in 1..=d/2.
    fn symmetric_pattern(n: usize, half_d: usize, bytes: u32) -> CommMatrix {
        let mut m = CommMatrix::new(n);
        for i in 0..n {
            for k in 1..=half_d {
                m.set(i, (i + k) % n, bytes);
                m.set((i + k) % n, i, bytes);
            }
        }
        m
    }

    #[test]
    fn schedules_everything_and_is_link_free() {
        let cube = Hypercube::new(5);
        let com = shift_pattern(32, 6, 100);
        let s = rs_nl(&com, &cube, 11);
        validate_schedule(&com, &s).unwrap();
        assert!(s.link_contention_free(&cube));
    }

    #[test]
    fn works_on_meshes_too() {
        // The generality claim of Section 5: RS_NL only needs deterministic
        // routing, so it runs unchanged on a mesh.
        let mesh = Torus::mesh(4, 8);
        let com = shift_pattern(32, 5, 64);
        let s = rs_nl(&com, &mesh, 2);
        validate_schedule(&com, &s).unwrap();
        assert!(s.link_contention_free(&mesh));
    }

    #[test]
    fn pairwise_preference_creates_exchanges() {
        let cube = Hypercube::new(5);
        let com = symmetric_pattern(32, 3, 128);
        let with = rs_nl_with(&com, &cube, 9, RsOptions::default());
        let without = rs_nl_with(
            &com,
            &cube,
            9,
            RsOptions {
                pairwise_preference: false,
                ..RsOptions::default()
            },
        );
        validate_schedule(&com, &with).unwrap();
        validate_schedule(&com, &without).unwrap();
        assert!(
            with.exchange_pairs() > without.exchange_pairs(),
            "{} vs {}",
            with.exchange_pairs(),
            without.exchange_pairs()
        );
        // On a symmetric pattern the preference should pair most messages.
        assert!(with.exchange_pairs() * 2 >= com.message_count() / 2);
    }

    #[test]
    fn needs_more_phases_than_rs_n() {
        // Link avoidance can only delay messages relative to RS_N.
        let cube = Hypercube::new(6);
        let com = shift_pattern(64, 16, 100);
        let nl = rs_nl(&com, &cube, 4);
        let n_only = crate::rs_n(&com, 4);
        assert!(nl.num_phases() + 2 >= n_only.num_phases());
        validate_schedule(&com, &nl).unwrap();
    }

    #[test]
    fn costs_more_ops_than_rs_n() {
        let cube = Hypercube::new(6);
        let com = shift_pattern(64, 16, 100);
        let nl = rs_nl(&com, &cube, 4);
        let n_only = crate::rs_n(&com, 4);
        assert!(
            nl.ops() > 2 * n_only.ops(),
            "RS_NL {} vs RS_N {}",
            nl.ops(),
            n_only.ops()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let cube = Hypercube::new(5);
        let com = shift_pattern(32, 6, 100);
        assert_eq!(
            rs_nl(&com, &cube, 3).phases(),
            rs_nl(&com, &cube, 3).phases()
        );
    }

    #[test]
    #[should_panic(expected = "topology has")]
    fn topology_size_mismatch_panics() {
        let cube = Hypercube::new(3);
        let com = CommMatrix::new(16);
        rs_nl(&com, &cube, 0);
    }

    #[test]
    fn empty_matrix() {
        let cube = Hypercube::new(4);
        let com = CommMatrix::new(16);
        let s = rs_nl(&com, &cube, 0);
        assert_eq!(s.num_phases(), 0);
    }

    #[test]
    fn dense_all_to_all_completes() {
        let cube = Hypercube::new(4);
        let n = 16;
        let mut com = CommMatrix::new(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    com.set(i, j, 8);
                }
            }
        }
        let s = rs_nl(&com, &cube, 21);
        validate_schedule(&com, &s).unwrap();
        assert!(s.link_contention_free(&cube));
        // All-to-all needs at least n-1 phases.
        assert!(s.num_phases() >= n - 1);
    }
}
