use std::{iter::Map, slice::ChunksExact};

use hypercube::Topology;

use crate::{PartialPermutation, PathsTable, SILENT};

/// Which algorithm *family* produced a schedule.
///
/// This closed enum predates the [`crate::registry`]; it survives as a
/// thin compat shim. Variant entries of the registry (GREEDY, the
/// [`crate::RsOptions`] ablations) report the family they belong to, and
/// [`SchedulerKind::scheduler`] resolves an enum value back to its
/// canonical registry entry. New algorithms should be added to the
/// registry, not here.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Asynchronous communication (Section 3): no schedule.
    Ac,
    /// Linear permutation (Section 4.1).
    Lp,
    /// Randomized scheduling avoiding node contention (Section 4.2).
    RsN,
    /// Randomized scheduling avoiding node and link contention (Section 5).
    RsNl,
}

impl SchedulerKind {
    /// The short name used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Ac => "AC",
            SchedulerKind::Lp => "LP",
            SchedulerKind::RsN => "RS_N",
            SchedulerKind::RsNl => "RS_NL",
        }
    }

    /// All four algorithms, in the paper's column order.
    pub fn all() -> [SchedulerKind; 4] {
        [
            SchedulerKind::Ac,
            SchedulerKind::Lp,
            SchedulerKind::RsN,
            SchedulerKind::RsNl,
        ]
    }
}

/// How the runtime should interpret a [`Schedule`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleKind {
    /// No phases: every node posts its receives and blasts its sends
    /// (asynchronous communication).
    Async,
    /// Execute the phases in order under loose synchrony.
    Phased,
}

/// A communication schedule: the decomposition of a [`crate::CommMatrix`]
/// into ordered communication phases, plus cost accounting.
///
/// The phases are one table of `num_phases × n` destination words, row
/// `k` lent out as a [`PartialPermutation`] view — the `commcache`
/// artifact's phase payload verbatim, so codecs, clones and patches copy
/// words and never convert them.
///
/// Schedules compare by value (`PartialEq`): two schedules are equal when
/// every phase, count, and cost field matches — the property the
/// `commcache` artifact store's round-trip tests rely on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    kind: ScheduleKind,
    algorithm: SchedulerKind,
    n: usize,
    table: Vec<u32>,
    /// Abstract operations spent computing the schedule (inner-loop steps);
    /// see [`crate::I860CostModel`].
    ops_schedule: u64,
    /// Abstract operations spent compressing `COM` into `CCOM`.
    ops_compress: u64,
}

impl Schedule {
    /// Assemble a schedule around its phase table (spare capacity is
    /// released). A hand-assembled schedule — the artifact decoder's — is
    /// *not* presumed valid: run [`crate::validate_schedule`] if validity
    /// matters. Every word must be [`SILENT`] or below `n`.
    ///
    /// # Panics
    ///
    /// Panics if `table` is not a whole number of `n`-word rows.
    pub fn from_parts(
        kind: ScheduleKind,
        algorithm: SchedulerKind,
        n: usize,
        mut table: Vec<u32>,
        ops_schedule: u64,
        ops_compress: u64,
    ) -> Self {
        assert!(table.len().is_multiple_of(n), "not whole rows of {n} words");
        table.shrink_to_fit();
        Schedule {
            kind,
            algorithm,
            n,
            table,
            ops_schedule,
            ops_compress,
        }
    }

    /// Async or phased.
    pub fn kind(&self) -> ScheduleKind {
        self.kind
    }

    /// The producing algorithm.
    pub fn algorithm(&self) -> SchedulerKind {
        self.algorithm
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The communication phases (empty for [`ScheduleKind::Async`]).
    pub fn phases(&self) -> Phases<'_> {
        Phases {
            table: &self.table,
            n: self.n,
        }
    }

    /// The phase table: `num_phases × n` words, row-major, [`SILENT`] if silent.
    pub fn table(&self) -> &[u32] {
        &self.table
    }

    /// Heap bytes the schedule holds: its phase table.
    pub fn heap_bytes(&self) -> usize {
        self.table.capacity() * std::mem::size_of::<u32>()
    }

    /// Number of phases — the paper's "# iters" row.
    pub fn num_phases(&self) -> usize {
        self.phases().len()
    }

    /// Abstract scheduling operations (excluding compression).
    pub fn ops(&self) -> u64 {
        self.ops_schedule
    }

    /// Abstract operations of the `COM -> CCOM` compression step.
    pub fn compress_ops(&self) -> u64 {
        self.ops_compress
    }

    /// Total messages across all phases.
    pub fn message_count(&self) -> usize {
        self.table.iter().filter(|&&w| w != SILENT).count()
    }

    /// Total reciprocal (exchange) pairs across phases.
    pub fn exchange_pairs(&self) -> usize {
        self.phases().iter().map(|p| p.exchange_pairs()).sum()
    }

    /// The schedule under a node relabeling
    /// ([`PartialPermutation::relabeled`] applied phase-wise; kind,
    /// family, and op counts carry over). Relabeling by a topology
    /// automorphism maps a valid schedule of `com` to a valid schedule of
    /// the relabeled matrix with identical structure — phase counts,
    /// message counts, exchange pairs.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn relabeled(&self, perm: &[hypercube::NodeId]) -> Schedule {
        Schedule::from_parts(
            self.kind,
            self.algorithm,
            self.n,
            self.phases()
                .iter()
                .flat_map(|p| p.relabeled(perm))
                .collect(),
            self.ops_schedule,
            self.ops_compress,
        )
    }

    /// Whether every phase is link-contention-free on `topo` (the RS_NL /
    /// LP guarantee; generally false for RS_N), on one reservation table.
    pub fn link_contention_free<T: Topology + ?Sized>(&self, topo: &T) -> bool {
        let mut paths = PathsTable::new(topo);
        let mut route = Vec::with_capacity(topo.diameter());
        self.phases()
            .iter()
            .all(|p| p.is_link_free_in(topo, &mut paths, &mut route))
    }
}

/// The phases of a [`Schedule`]: a `Copy` view of its table, equal to
/// another when their phases are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Phases<'a> {
    table: &'a [u32],
    n: usize,
}

/// Iterator over the rows of a [`Phases`] view.
pub type PhaseIter<'a> = Map<ChunksExact<'a, u32>, fn(&'a [u32]) -> PartialPermutation<'a>>;

impl<'a> Phases<'a> {
    /// Number of phases.
    pub fn len(self) -> usize {
        self.iter().len()
    }

    /// Whether there are no phases.
    pub fn is_empty(self) -> bool {
        self.table.is_empty()
    }

    /// Phase `k`, if there is one.
    pub fn get(self, k: usize) -> Option<PartialPermutation<'a>> {
        self.iter().nth(k)
    }

    /// The phases in order.
    pub fn iter(self) -> PhaseIter<'a> {
        self.table
            .chunks_exact(self.n.max(1))
            .map(PartialPermutation::from_words)
    }
}

impl<'a> IntoIterator for Phases<'a> {
    type Item = PartialPermutation<'a>;
    type IntoIter = PhaseIter<'a>;

    fn into_iter(self) -> PhaseIter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u32 = SILENT;

    #[test]
    fn labels() {
        assert_eq!(SchedulerKind::RsNl.label(), "RS_NL");
        assert_eq!(SchedulerKind::all().len(), 4);
    }

    #[test]
    fn from_parts_rebuilds_an_equal_schedule() {
        let table = vec![1, 0, S, S, S, S, 3, S];
        let original =
            Schedule::from_parts(ScheduleKind::Phased, SchedulerKind::RsNl, 4, table, 42, 7);
        let rebuilt = Schedule::from_parts(
            original.kind(),
            original.algorithm(),
            original.n(),
            original.table().to_vec(),
            original.ops(),
            original.compress_ops(),
        );
        assert_eq!(original, rebuilt);
        // Any differing field breaks equality.
        let other = Schedule::from_parts(
            original.kind(),
            original.algorithm(),
            original.n(),
            original.table().to_vec(),
            original.ops() + 1,
            original.compress_ops(),
        );
        assert_ne!(original, other);
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn from_parts_rejects_mismatched_phase_widths() {
        Schedule::from_parts(
            ScheduleKind::Phased,
            SchedulerKind::RsN,
            4,
            vec![1, S, S, S, S],
            0,
            0,
        );
    }

    #[test]
    fn counts() {
        let table = vec![1, 0, 3, S, S, S, S, 2];
        let s = Schedule::from_parts(ScheduleKind::Phased, SchedulerKind::RsN, 4, table, 100, 10);
        assert_eq!(s.num_phases(), 2);
        assert_eq!(s.message_count(), 4);
        assert_eq!(s.exchange_pairs(), 1);
        assert_eq!(s.ops(), 100);
        assert_eq!(s.compress_ops(), 10);
        assert_eq!(s.phases().get(1).unwrap().words(), [S, S, S, 2]);
        assert_eq!(s.phases().get(1), Some(s.phases().get(1).unwrap()));
        assert_eq!(s.phases().get(2), None);
        assert_eq!(
            s.phases().iter().next_back(),
            Some(s.phases().get(1).unwrap())
        );
        assert_eq!(s.heap_bytes(), 8 * 4);
    }

    #[test]
    fn relabeling_keeps_structure() {
        let table = vec![1, 0, 3, S, S, S, S, 2];
        let s = Schedule::from_parts(ScheduleKind::Phased, SchedulerKind::RsN, 4, table, 5, 1);
        let perm: Vec<_> = [2u32, 3, 0, 1].map(hypercube::NodeId).to_vec();
        let r = s.relabeled(&perm);
        assert_eq!(r.table(), [1, S, 3, 2, S, 0, S, S]);
        assert_eq!((r.num_phases(), r.exchange_pairs(), r.ops()), (2, 1, 5));
    }

    #[test]
    fn a_zero_node_schedule_has_no_phases() {
        let s = Schedule::from_parts(ScheduleKind::Async, SchedulerKind::Ac, 0, vec![], 0, 0);
        assert_eq!(s.num_phases(), 0);
        assert!(s.phases().is_empty());
        assert_eq!(s.phases().iter().count(), 0);
    }
}
