//! The pluggable scheduler registry.
//!
//! Every scheduling algorithm in this crate — the paper's four, the
//! deterministic [`greedy`] baseline, and the [`RsOptions`] ablation
//! variants — is registered here as a [`Scheduler`] trait object. The
//! runtime, the repro binaries, and the benches enumerate the registry
//! instead of matching on a closed enum, so adding a scheduler is a
//! one-file change: implement the trait, add the entry to [`all`], and
//! every table, figure, and property test picks it up.
//!
//! # Example
//!
//! ```
//! use commsched::{registry, validate_schedule, CommMatrix};
//! use hypercube::Hypercube;
//!
//! let cube = Hypercube::new(4);
//! let mut com = CommMatrix::new(16);
//! com.set(0, 5, 1024);
//! for entry in registry::all() {
//!     let s = entry.schedule(&com, &cube, 7);
//!     validate_schedule(&com, &s).unwrap();
//!     if entry.link_contention_free() {
//!         assert!(s.link_contention_free(&cube));
//!     }
//! }
//! assert!(registry::find("GREEDY").is_some());
//! ```

use hypercube::Topology;

use crate::algorithms::{ac, greedy, lp, rs_n_with, rs_nl_with, RsOptions};
use crate::delta::{patch_lp, patch_phased};
use crate::{CommMatrix, MatrixDelta, Schedule, SchedulerKind};

/// A scheduling algorithm, as seen by the runtime and the repro harness.
///
/// Implementations must be deterministic functions of
/// `(matrix, topology, seed)`; seed-insensitive algorithms (AC, LP,
/// GREEDY) simply ignore the seed.
pub trait Scheduler: Sync {
    /// Unique label, used in tables, CSV/JSON records, and [`find`].
    fn name(&self) -> &str;

    /// The algorithm family, for compat consumers keyed on the closed
    /// [`SchedulerKind`] enum (protocol defaults, record grouping).
    fn family(&self) -> SchedulerKind;

    /// Whether every produced schedule's phases are guaranteed
    /// link-contention-free on the scheduling topology.
    fn link_contention_free(&self) -> bool;

    /// Whether every phase is guaranteed a partial permutation (each node
    /// sends ≤ 1 and receives ≤ 1 message). False only for AC, which does
    /// not schedule at all.
    fn node_contention_free(&self) -> bool;

    /// True for the ablation variants (alternative [`RsOptions`]); false
    /// for the primary table columns (the paper's four plus GREEDY).
    fn is_variant(&self) -> bool {
        false
    }

    /// Stable per-entry index mixed into experiment base seeds so no two
    /// entries share sample streams. The paper's four algorithms keep the
    /// values of the old `SchedulerKind as u64` cast (0–3), which pins the
    /// historical sample sets of every reproduced table cell.
    fn ordinal(&self) -> u64;

    /// Whether the algorithm can schedule for `topo` with its registered
    /// guarantees intact. The default, `true`, is every RS family's
    /// answer: RS_NL reserves links in its shadow `PATHS` table ahead of
    /// time, sound on any [`Topology`] because every one routes
    /// deterministically. LP asks [`Topology::is_ecube_hypercube`] and
    /// declines anything else (the `i ^ k` pairing needs the power-of-two
    /// address space and its link-freedom argument is e-cube-specific).
    /// Enumeration-driven consumers skip entries that decline the
    /// topology at hand.
    fn supports_topology(&self, topo: &dyn Topology) -> bool {
        let _ = topo;
        true
    }

    /// Produce the schedule.
    fn schedule(&self, com: &CommMatrix, topo: &dyn Topology, seed: u64) -> Schedule;

    /// Patch `base` — a schedule this entry previously produced for some
    /// matrix on `topo` with `seed` — into a schedule of that matrix with
    /// `delta` applied, editing only the touched phases instead of
    /// recompiling. `None` means the entry cannot patch (no
    /// implementation, or the delta is inconsistent with `base`); callers
    /// fall back to a full [`Scheduler::schedule`].
    ///
    /// The contract is **validity, not reproduction**: a patched schedule
    /// must pass [`crate::validate_schedule`] against the patched matrix
    /// and uphold the entry's registered contention guarantees, but its
    /// phase placement and op counts may differ from a cold compile.
    /// Callers that gate on correctness (the cache layers, the daemon)
    /// re-validate every patched result and fall back on rejection.
    fn patch_schedule(
        &self,
        base: &Schedule,
        delta: &MatrixDelta,
        topo: &dyn Topology,
        seed: u64,
    ) -> Option<Schedule> {
        let _ = (base, delta, topo, seed);
        None
    }
}

struct Ac;

impl Scheduler for Ac {
    fn name(&self) -> &str {
        "AC"
    }
    fn family(&self) -> SchedulerKind {
        SchedulerKind::Ac
    }
    fn link_contention_free(&self) -> bool {
        false
    }
    fn node_contention_free(&self) -> bool {
        false
    }
    fn ordinal(&self) -> u64 {
        0
    }
    fn schedule(&self, com: &CommMatrix, _topo: &dyn Topology, _seed: u64) -> Schedule {
        ac(com)
    }
}

struct Lp;

impl Scheduler for Lp {
    fn name(&self) -> &str {
        "LP"
    }
    fn family(&self) -> SchedulerKind {
        SchedulerKind::Lp
    }
    fn link_contention_free(&self) -> bool {
        true
    }
    fn node_contention_free(&self) -> bool {
        true
    }
    fn ordinal(&self) -> u64 {
        1
    }
    fn supports_topology(&self, topo: &dyn Topology) -> bool {
        // LP's `i ^ k` pairing needs the full power-of-two address space,
        // and its link-freedom guarantee is an e-cube argument — the paper
        // defines LP on the hypercube only, so the entry declines
        // everything else (a mesh or torus with a power-of-two node count
        // would run, but with the registry's guarantee silently broken).
        topo.num_nodes().is_power_of_two() && topo.is_ecube_hypercube()
    }
    fn schedule(&self, com: &CommMatrix, _topo: &dyn Topology, _seed: u64) -> Schedule {
        lp(com)
    }
    fn patch_schedule(
        &self,
        base: &Schedule,
        delta: &MatrixDelta,
        _topo: &dyn Topology,
        _seed: u64,
    ) -> Option<Schedule> {
        // LP patches exactly: message `i -> j` lives in phase `(i^j)-1` by
        // construction, so the patched schedule is bit-identical to a cold
        // `lp` of the perturbed matrix.
        patch_lp(base, delta)
    }
}

/// An RS-family entry: RS_N or RS_NL under explicit [`RsOptions`]. The
/// canonical `RS_N`/`RS_NL` registrations use the paper's defaults; the
/// ablation variants toggle one design choice each.
struct Rs {
    name: &'static str,
    /// RS_NL (node + link contention) rather than RS_N (node contention
    /// only).
    link_free: bool,
    opts: RsOptions,
    variant: bool,
    ordinal: u64,
}

impl Scheduler for Rs {
    fn name(&self) -> &str {
        self.name
    }
    fn family(&self) -> SchedulerKind {
        if self.link_free {
            SchedulerKind::RsNl
        } else {
            SchedulerKind::RsN
        }
    }
    fn link_contention_free(&self) -> bool {
        self.link_free
    }
    fn node_contention_free(&self) -> bool {
        true
    }
    fn is_variant(&self) -> bool {
        self.variant
    }
    fn ordinal(&self) -> u64 {
        self.ordinal
    }
    fn schedule(&self, com: &CommMatrix, topo: &dyn Topology, seed: u64) -> Schedule {
        if self.link_free {
            rs_nl_with(com, topo, seed, self.opts)
        } else {
            rs_n_with(com, seed, self.opts)
        }
    }
    fn patch_schedule(
        &self,
        base: &Schedule,
        delta: &MatrixDelta,
        topo: &dyn Topology,
        _seed: u64,
    ) -> Option<Schedule> {
        patch_phased(base, delta, topo, self.link_contention_free())
    }
}

struct Greedy;

impl Scheduler for Greedy {
    fn name(&self) -> &str {
        "GREEDY"
    }
    fn family(&self) -> SchedulerKind {
        SchedulerKind::RsN
    }
    fn link_contention_free(&self) -> bool {
        false
    }
    fn node_contention_free(&self) -> bool {
        true
    }
    fn ordinal(&self) -> u64 {
        4
    }
    fn schedule(&self, com: &CommMatrix, _topo: &dyn Topology, _seed: u64) -> Schedule {
        greedy(com)
    }
    fn patch_schedule(
        &self,
        base: &Schedule,
        delta: &MatrixDelta,
        topo: &dyn Topology,
        _seed: u64,
    ) -> Option<Schedule> {
        patch_phased(base, delta, topo, false)
    }
}

static AC_ENTRY: Ac = Ac;
static LP_ENTRY: Lp = Lp;
static RS_N_ENTRY: Rs = Rs {
    name: "RS_N",
    link_free: false,
    opts: RsOptions {
        randomize_rows: true,
        random_start: true,
        pairwise_preference: true,
    },
    variant: false,
    ordinal: 2,
};
static RS_NL_ENTRY: Rs = Rs {
    name: "RS_NL",
    link_free: true,
    opts: RsOptions {
        randomize_rows: true,
        random_start: true,
        pairwise_preference: true,
    },
    variant: false,
    ordinal: 3,
};
static GREEDY_ENTRY: Greedy = Greedy;
static RS_N_DET: Rs = Rs {
    name: "RS_N_DET",
    link_free: false,
    opts: RsOptions {
        randomize_rows: false,
        random_start: false,
        pairwise_preference: true,
    },
    variant: true,
    ordinal: 5,
};
static RS_NL_NOPAIR: Rs = Rs {
    name: "RS_NL_NOPAIR",
    link_free: true,
    opts: RsOptions {
        randomize_rows: true,
        random_start: true,
        pairwise_preference: false,
    },
    variant: true,
    ordinal: 6,
};
static RS_NL_DET: Rs = Rs {
    name: "RS_NL_DET",
    link_free: true,
    opts: RsOptions {
        randomize_rows: false,
        random_start: false,
        pairwise_preference: true,
    },
    variant: true,
    ordinal: 7,
};

/// Primary entries first (the paper's column order, then GREEDY), ablation
/// variants after.
static REGISTRY: &[&dyn Scheduler] = &[
    &AC_ENTRY,
    &LP_ENTRY,
    &RS_N_ENTRY,
    &RS_NL_ENTRY,
    &GREEDY_ENTRY,
    &RS_N_DET,
    &RS_NL_NOPAIR,
    &RS_NL_DET,
];

/// Every registered scheduler: primary entries in paper column order, then
/// the ablation variants.
pub fn all() -> &'static [&'static dyn Scheduler] {
    REGISTRY
}

/// The primary table columns: the paper's four algorithms plus GREEDY.
pub fn primary() -> impl Iterator<Item = &'static dyn Scheduler> {
    REGISTRY.iter().copied().filter(|e| !e.is_variant())
}

/// The ablation variants (alternative [`RsOptions`] configurations).
pub fn variants() -> impl Iterator<Item = &'static dyn Scheduler> {
    REGISTRY.iter().copied().filter(|e| e.is_variant())
}

/// Look an entry up by its unique [`Scheduler::name`].
pub fn find(name: &str) -> Option<&'static dyn Scheduler> {
    REGISTRY.iter().copied().find(|e| e.name() == name)
}

/// An *explicit* (non-registry) scheduler built from a closure — the
/// escape hatch for experiment grids that compare configurations which
/// have no registry entry (a one-off variant, a prototype, a
/// parameterized sweep point).
///
/// Guarantee flags default to the family's canonical entry; override them
/// when the closure strengthens or weakens them. The ordinal defaults to
/// a 32-bit hash of the name — distinct names get distinct sample
/// streams with overwhelming probability while staying far from the
/// registry's small pinned ordinals, and [`AdHoc::with_ordinal`] pins
/// one exactly.
///
/// ```
/// use commsched::{registry::AdHoc, rs_n_with, RsOptions, SchedulerKind};
/// use commsched::Scheduler;
/// use hypercube::Hypercube;
///
/// let largest_first = AdHoc::new("RS_N_LF", SchedulerKind::RsN, |com, _topo, seed| {
///     rs_n_with(com, seed, RsOptions::default())
/// });
/// let com = {
///     let mut m = commsched::CommMatrix::new(8);
///     m.set(0, 3, 64);
///     m
/// };
/// let s = largest_first.schedule(&com, &Hypercube::new(3), 1);
/// assert_eq!(s.algorithm(), SchedulerKind::RsN);
/// ```
pub struct AdHoc {
    name: String,
    family: SchedulerKind,
    ordinal: u64,
    #[allow(clippy::type_complexity)]
    f: Box<dyn Fn(&CommMatrix, &dyn Topology, u64) -> Schedule + Send + Sync>,
}

impl AdHoc {
    /// A scheduler named `name` in `family`, scheduling via `f`.
    pub fn new(
        name: impl Into<String>,
        family: SchedulerKind,
        f: impl Fn(&CommMatrix, &dyn Topology, u64) -> Schedule + Send + Sync + 'static,
    ) -> Self {
        let name = name.into();
        AdHoc {
            family,
            ordinal: fnv1a(&name),
            name,
            f: Box::new(f),
        }
    }

    /// Pin the seed-stream ordinal (defaulted to a hash of the name).
    pub fn with_ordinal(mut self, ordinal: u64) -> Self {
        self.ordinal = ordinal;
        self
    }
}

impl Scheduler for AdHoc {
    fn name(&self) -> &str {
        &self.name
    }
    fn family(&self) -> SchedulerKind {
        self.family
    }
    fn link_contention_free(&self) -> bool {
        self.family.scheduler().link_contention_free()
    }
    fn node_contention_free(&self) -> bool {
        self.family.scheduler().node_contention_free()
    }
    fn ordinal(&self) -> u64 {
        self.ordinal
    }
    fn schedule(&self, com: &CommMatrix, topo: &dyn Topology, seed: u64) -> Schedule {
        (self.f)(com, topo, seed)
    }
}

/// FNV-1a-shaped hash of the name bytes, folded to 32 bits: a stable,
/// dependency-free default ordinal for ad-hoc entries. The multiplier
/// is non-standard (2⁴⁸ + 0x1b3, not the FNV prime 2⁴⁰ + 0x1b3) and
/// frozen, because ordinals seed `paper_base_seed`. Kept small so
/// downstream seed mixes (`base * 1_000_003`-style) stay well inside
/// `u64` headroom.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    (h >> 32) ^ (h & 0xffff_ffff)
}

impl SchedulerKind {
    /// The registry entry this enum value is a shim for — the canonical
    /// paper configuration of the family. Enum-keyed call sites stay
    /// source-compatible while all scheduling goes through the registry.
    pub fn scheduler(self) -> &'static dyn Scheduler {
        find(self.label()).expect("the four paper algorithms are always registered")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_schedule;
    use hypercube::Hypercube;
    use topo::Torus;

    fn sample_com(n: usize) -> CommMatrix {
        let mut com = CommMatrix::new(n);
        for i in 0..n {
            com.set(i, (i + 1) % n, 256);
            com.set(i, (i + 5) % n, 512);
        }
        com
    }

    #[test]
    fn names_are_unique_and_findable() {
        let mut names: Vec<&str> = all().iter().map(|e| e.name()).collect();
        names.sort_unstable();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped, "duplicate registry names");
        for e in all() {
            assert!(std::ptr::eq(find(e.name()).unwrap(), *e));
        }
        assert!(find("NO_SUCH").is_none());
    }

    #[test]
    fn ordinals_are_unique_and_pin_the_paper_four() {
        let mut ords: Vec<u64> = all().iter().map(|e| e.ordinal()).collect();
        ords.sort_unstable();
        let mut deduped = ords.clone();
        deduped.dedup();
        assert_eq!(ords, deduped, "duplicate ordinals");
        // The historical `SchedulerKind as u64` values must stay pinned so
        // reproduced cells keep their sample streams.
        for kind in SchedulerKind::all() {
            assert_eq!(kind.scheduler().ordinal(), kind as u64, "{}", kind.label());
        }
    }

    #[test]
    fn primary_has_five_columns_including_greedy() {
        let names: Vec<&str> = primary().map(|e| e.name()).collect();
        assert_eq!(names, ["AC", "LP", "RS_N", "RS_NL", "GREEDY"]);
        assert!(variants().count() >= 2);
    }

    #[test]
    fn kind_shim_matches_direct_functions() {
        let com = sample_com(16);
        let cube = Hypercube::new(4);
        assert_eq!(
            SchedulerKind::RsNl
                .scheduler()
                .schedule(&com, &cube, 9)
                .phases(),
            crate::rs_nl(&com, &cube, 9).phases()
        );
        assert_eq!(
            SchedulerKind::Lp
                .scheduler()
                .schedule(&com, &cube, 0)
                .phases(),
            crate::lp(&com).phases()
        );
    }

    #[test]
    fn every_entry_schedules_validly_on_the_cube() {
        let com = sample_com(16);
        let cube = Hypercube::new(4);
        for entry in all() {
            assert!(entry.supports_topology(&cube), "{}", entry.name());
            let s = entry.schedule(&com, &cube, 3);
            validate_schedule(&com, &s).unwrap_or_else(|e| panic!("{}: {e}", entry.name()));
            if entry.link_contention_free() {
                assert!(s.link_contention_free(&cube), "{}", entry.name());
            }
            if entry.node_contention_free() {
                for pm in s.phases() {
                    assert!(pm.is_partial_permutation(), "{}", entry.name());
                }
            }
            assert_eq!(s.algorithm(), entry.family(), "{}", entry.name());
        }
    }

    #[test]
    fn lp_declines_non_hypercube_topologies() {
        let mesh = Torus::mesh(3, 4);
        assert!(!find("LP").unwrap().supports_topology(&mesh));
        // Even with a power-of-two node count a mesh is declined: LP's
        // link-freedom argument needs e-cube routing, not just `i ^ k`.
        assert!(!find("LP").unwrap().supports_topology(&Torus::mesh(4, 8)));
        assert!(find("LP").unwrap().supports_topology(&Hypercube::new(5)));
        assert!(find("RS_NL").unwrap().supports_topology(&mesh));
        let com = sample_com(12);
        let s = find("RS_NL").unwrap().schedule(&com, &mesh, 1);
        assert!(s.link_contention_free(&mesh));
    }

    #[test]
    fn ad_hoc_entry_defaults_from_its_family() {
        let entry = AdHoc::new("MY_RS_NL", SchedulerKind::RsNl, |com, topo, seed| {
            crate::rs_nl(com, topo, seed)
        });
        assert_eq!(entry.name(), "MY_RS_NL");
        assert!(entry.link_contention_free());
        assert!(entry.node_contention_free());
        assert_eq!(entry.family(), SchedulerKind::RsNl);
        // Distinct names get distinct default ordinals; explicit pinning
        // sticks.
        let other = AdHoc::new("OTHER", SchedulerKind::RsNl, |com, topo, seed| {
            crate::rs_nl(com, topo, seed)
        });
        assert_ne!(entry.ordinal(), other.ordinal());
        let pinned = other.with_ordinal(99);
        assert_eq!(pinned.ordinal(), 99);
        // And it schedules like the function it wraps.
        let com = sample_com(16);
        let cube = Hypercube::new(4);
        let s = entry.schedule(&com, &cube, 7);
        assert_eq!(s.phases(), crate::rs_nl(&com, &cube, 7).phases());
        validate_schedule(&com, &s).unwrap();
    }

    #[test]
    fn variants_actually_differ_from_their_base() {
        let com = sample_com(64);
        let cube = Hypercube::new(6);
        for v in variants() {
            let base = v.family().scheduler();
            let a = v.schedule(&com, &cube, 11);
            let b = base.schedule(&com, &cube, 11);
            assert!(
                a.phases() != b.phases() || a.ops() != b.ops(),
                "{} is indistinguishable from {}",
                v.name(),
                base.name()
            );
        }
    }
}
