//! Matrix deltas and schedule patching — the core of the incremental
//! compilation path.
//!
//! Real unstructured workloads re-schedule *near-identical* matrices every
//! timestep (AMR halo exchanges, iterative solvers with drifting
//! sparsity). A [`MatrixDelta`] captures exactly what changed between two
//! [`CommMatrix`] instances of the same size — messages added, removed,
//! or resized — and [`Scheduler::patch_schedule`](crate::Scheduler::patch_schedule)
//! turns a previously computed schedule of the base matrix into a schedule
//! of the perturbed one by editing only the touched phases, instead of
//! recompiling from scratch.
//!
//! Patched schedules are **never presumed valid**: every consumer of the
//! patching path (the `commcache` incremental layer, the daemon) gates the
//! result through [`crate::validate_schedule`] and falls back to a full
//! recompile on rejection. Patching trades *exact schedule reproduction*
//! (op counts and phase placement may differ from a cold compile) for
//! compile latency; it never trades correctness.
//!
//! # Example
//!
//! ```
//! use commsched::{registry, validate_schedule, CommMatrix, MatrixDelta};
//! use hypercube::Hypercube;
//!
//! let cube = Hypercube::new(4);
//! let mut base = CommMatrix::new(16);
//! base.set(0, 5, 1024);
//! base.set(5, 0, 1024);
//! let mut drifted = base.clone();
//! drifted.set(3, 7, 64); // one new message
//!
//! let delta = MatrixDelta::diff(&base, &drifted).unwrap();
//! assert_eq!(delta.change_count(), 1);
//!
//! let entry = registry::find("RS_NL").unwrap();
//! let cold = entry.schedule(&base, &cube, 7);
//! let patched = entry.patch_schedule(&cold, &delta, &cube, 7).unwrap();
//! validate_schedule(&drifted, &patched).unwrap();
//! assert!(patched.link_contention_free(&cube));
//! ```

use std::fmt;

use hypercube::{NodeId, Topology};

use crate::{CommMatrix, MatrixError, Schedule, ScheduleKind, SILENT};

/// Why a delta could not be built or applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// Delta and matrix disagree on the node count.
    WrongSize {
        /// Nodes the delta spans.
        delta: usize,
        /// Nodes in the matrix it was applied to.
        matrix: usize,
    },
    /// An endpoint lies outside `0..n`.
    OutOfRange {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
        /// Node count of the delta.
        n: usize,
    },
    /// A delta entry names a self-message.
    SelfMessage {
        /// The node sending to itself.
        node: usize,
    },
    /// An added or resized entry carries zero bytes (that is a removal).
    ZeroBytes {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
    },
    /// The same `(src, dst)` cell appears in more than one delta entry.
    DuplicateCell {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
    },
    /// An added message already exists in the base matrix.
    AddExisting {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
    },
    /// A removed or resized message does not exist in the base matrix.
    MissingMessage {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::WrongSize { delta, matrix } => {
                write!(f, "delta spans {delta} nodes, matrix {matrix}")
            }
            DeltaError::OutOfRange { src, dst, n } => {
                write!(f, "delta entry {src}->{dst} out of range for {n} nodes")
            }
            DeltaError::SelfMessage { node } => {
                write!(f, "delta entry {node}->{node} is a self-message")
            }
            DeltaError::ZeroBytes { src, dst } => {
                write!(f, "delta entry {src}->{dst} carries zero bytes")
            }
            DeltaError::DuplicateCell { src, dst } => {
                write!(f, "cell {src}->{dst} appears in more than one delta entry")
            }
            DeltaError::AddExisting { src, dst } => {
                write!(f, "added message {src}->{dst} already exists in the base")
            }
            DeltaError::MissingMessage { src, dst } => {
                write!(f, "message {src}->{dst} not present in the base")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// The difference between two same-sized communication matrices, as three
/// disjoint edit lists in row-major cell order:
///
/// * **added** — messages present in the target, absent in the base;
/// * **removed** — messages present in the base, absent in the target;
/// * **resized** — messages present in both with a different byte count
///   (the entry records the *target* byte count).
///
/// Resizes never change schedule *structure* (phases carry no byte
/// counts), so a resize-only delta patches for free. A delta built by
/// [`MatrixDelta::diff`] applied to its base via [`MatrixDelta::apply`]
/// reproduces the target exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatrixDelta {
    n: usize,
    added: Vec<(NodeId, NodeId, u32)>,
    removed: Vec<(NodeId, NodeId)>,
    resized: Vec<(NodeId, NodeId, u32)>,
}

impl MatrixDelta {
    /// Diff `target` against `base`.
    ///
    /// # Errors
    ///
    /// [`DeltaError::WrongSize`] when the matrices span different node
    /// counts — deltas only relate same-sized instances.
    pub fn diff(base: &CommMatrix, target: &CommMatrix) -> Result<MatrixDelta, DeltaError> {
        let unbounded = Self::diff_within(base, target, usize::MAX)?;
        Ok(unbounded.expect("no delta exceeds an unbounded walk"))
    }

    /// [`MatrixDelta::diff`], given up (`None`) once a row leaves more
    /// than `max_structural` messages added or removed: a caller with a
    /// [`MatrixDelta::structural_count`] threshold rejects an unrelated
    /// base after a few rows, not every message and every edit pushed. An
    /// unchanged row costs one slice compare; a changed one, a merge walk
    /// of its two sorted rows.
    ///
    /// # Errors
    ///
    /// [`DeltaError::WrongSize`], as [`MatrixDelta::diff`].
    pub fn diff_within(
        base: &CommMatrix,
        target: &CommMatrix,
        max_structural: usize,
    ) -> Result<Option<MatrixDelta>, DeltaError> {
        if base.n() != target.n() {
            return Err(DeltaError::WrongSize {
                delta: target.n(),
                matrix: base.n(),
            });
        }
        let n = base.n();
        let mut delta = MatrixDelta {
            n,
            added: Vec::new(),
            removed: Vec::new(),
            resized: Vec::new(),
        };
        for i in 0..n {
            let ((old_dst, old_bytes), (new_dst, new_bytes)) = (base.row(i), target.row(i));
            if old_dst == new_dst && old_bytes == new_bytes {
                continue;
            }
            // Both rows ascend, so one merge walk classifies every cell.
            let src = NodeId(i as u32);
            let (mut a, mut b) = (0, 0);
            while a < old_dst.len() || b < new_dst.len() {
                let (old, new) = (old_dst.get(a), new_dst.get(b));
                if old.is_some() && old == new {
                    if old_bytes[a] != new_bytes[b] {
                        delta.resized.push((src, NodeId(new_dst[b]), new_bytes[b]));
                    }
                    (a, b) = (a + 1, b + 1);
                } else if new.is_none_or(|new| old.is_some_and(|old| old < new)) {
                    delta.removed.push((src, NodeId(old_dst[a])));
                    a += 1;
                } else {
                    delta.added.push((src, NodeId(new_dst[b]), new_bytes[b]));
                    b += 1;
                }
            }
            if delta.structural_count() > max_structural {
                return Ok(None);
            }
        }
        Ok(Some(delta))
    }

    /// Reassemble a delta from its edit lists — the decode path of
    /// external serializers (the daemon's `SubmitDelta` frame). Unlike
    /// [`MatrixDelta::diff`] output, hand-assembled lists are checked:
    /// endpoints must be in range, self-messages and zero-byte
    /// adds/resizes are rejected, and no cell may appear twice.
    ///
    /// # Errors
    ///
    /// The first malformed entry found, as a [`DeltaError`].
    pub fn from_parts(
        n: usize,
        added: Vec<(NodeId, NodeId, u32)>,
        removed: Vec<(NodeId, NodeId)>,
        resized: Vec<(NodeId, NodeId, u32)>,
    ) -> Result<MatrixDelta, DeltaError> {
        // The listed cells, a removal as one byte, must make a matrix; a
        // malformed entry is reported where it is listed.
        let removals = removed.iter().map(|&(src, dst)| (src, dst, 1));
        let mut cells = added
            .iter()
            .copied()
            .chain(removals)
            .chain(resized.iter().copied());
        let checked = match n {
            0 => cells.next().map_or(Ok(()), |(s, d, _)| {
                let (src, dst) = (s.index(), d.index());
                Err(MatrixError::OutOfRange { src, dst, n })
            }),
            _ => CommMatrix::from_messages(n, cells).map(drop),
        };
        checked.map_err(|e| match e {
            MatrixError::OutOfRange { src, dst, n } => DeltaError::OutOfRange { src, dst, n },
            MatrixError::SelfMessage { node } => DeltaError::SelfMessage { node },
            MatrixError::ZeroBytes { src, dst } => DeltaError::ZeroBytes { src, dst },
            MatrixError::Duplicate { src, dst } => DeltaError::DuplicateCell { src, dst },
        })?;
        Ok(MatrixDelta {
            n,
            added,
            removed,
            resized,
        })
    }

    /// Node count the delta spans.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Messages added by the delta, with their byte counts.
    pub fn added(&self) -> &[(NodeId, NodeId, u32)] {
        &self.added
    }

    /// Messages removed by the delta.
    pub fn removed(&self) -> &[(NodeId, NodeId)] {
        &self.removed
    }

    /// Messages resized by the delta, with their *new* byte counts.
    pub fn resized(&self) -> &[(NodeId, NodeId, u32)] {
        &self.resized
    }

    /// Total edits (added + removed + resized).
    pub fn change_count(&self) -> usize {
        self.added.len() + self.removed.len() + self.resized.len()
    }

    /// Whether the delta edits nothing (base and target are identical).
    pub fn is_empty(&self) -> bool {
        self.change_count() == 0
    }

    /// Edits that change schedule *structure* (added + removed); resizes
    /// patch for free, so fallback thresholds meter this count.
    pub fn structural_count(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Apply the delta to `base`, producing the target matrix.
    ///
    /// # Errors
    ///
    /// [`DeltaError`] when the delta does not describe an edit of `base`:
    /// wrong size, an added message that already exists, or a
    /// removed/resized message that does not. A delta from
    /// [`MatrixDelta::diff`] applied to its own base never fails.
    pub fn apply(&self, base: &CommMatrix) -> Result<CommMatrix, DeltaError> {
        if base.n() != self.n {
            return Err(DeltaError::WrongSize {
                delta: self.n,
                matrix: base.n(),
            });
        }
        // A removal is a resize to zero bytes.
        let removed = self.removed.iter().map(|&(src, dst)| (src, dst, 0));
        let resized = removed.chain(self.resized.iter().copied());
        let mut edits: Vec<_> = self.added.iter().copied().chain(resized).collect();
        for (k, &(src, dst, _)) in edits.iter().enumerate() {
            let (src, dst) = (src.index(), dst.index());
            match (k < self.added.len(), base.get(src, dst) != 0) {
                (true, true) => return Err(DeltaError::AddExisting { src, dst }),
                (false, false) => return Err(DeltaError::MissingMessage { src, dst }),
                _ => {}
            }
        }
        // Edits name distinct cells: sorted, they merge into the base in one walk.
        edits.sort_unstable_by_key(|&(src, dst, _)| (src, dst));
        Ok(base.edited(&edits))
    }
}

/// Patch a **phased** base schedule by structural edit — the generic
/// patcher behind the RS-family and GREEDY
/// [`Scheduler::patch_schedule`](crate::Scheduler::patch_schedule)
/// implementations.
///
/// * Removed messages vacate their slot in the phase that carried them.
/// * Resized messages change nothing (phases carry no byte counts).
/// * Added messages go to the first phase — probed **newest first** — in
///   which the sender is silent, the receiver is free, and (when
///   `require_link_free`) the message's route shares no link with the
///   phase's existing circuits; a fresh phase is appended when no phase
///   admits the message.
/// * Phases emptied by removals are dropped.
///
/// Newest-first probing is what keeps a patch O(edits), not O(matrix):
/// dense early phases of a tight base schedule rarely admit a new
/// message anyway, while the sparse appendix phases earlier patches
/// created admit cheaply. The base table is copied once and edited in
/// place; a probe past the sender check scans the phase's row for the
/// receiver, and only a probe past that builds the phase's link map. The
/// tradeoff is a patched schedule that may carry a few more phases than a
/// cold compile; the patch contract is validity, not reproduction.
///
/// Op accounting: the base schedule's op count plus one op per slot or
/// link probed while patching — deterministic, and honest about the
/// (small) work the patch performed.
///
/// Returns `None` when the base is not patchable: an async schedule, a
/// node-count mismatch, or a removed message the base never scheduled
/// (the delta does not describe this schedule's matrix). Callers fall
/// back to a full recompile.
pub fn patch_phased(
    base: &Schedule,
    delta: &MatrixDelta,
    topo: &dyn Topology,
    require_link_free: bool,
) -> Option<Schedule> {
    if base.kind() != ScheduleKind::Phased || base.n() != delta.n() {
        return None;
    }
    let n = base.n();
    let mut table = base.table().to_vec();
    let mut probes: u64 = 0;

    for &(src, dst) in delta.removed() {
        let k = table
            .chunks_exact(n)
            .position(|row| row[src.index()] == dst.0)?;
        probes += k as u64 + 1;
        table[k * n + src.index()] = SILENT;
    }

    // Link maps of the phases the adds probe, built lazily (see above).
    // Removals all precede adds, so no map ever needs unclaiming.
    let mut links: Vec<Option<Vec<bool>>> = vec![None; base.num_phases()];
    let mut scratch = Vec::with_capacity(topo.diameter());
    let mut route = Vec::with_capacity(topo.diameter());
    for &(src, dst, _bytes) in delta.added() {
        if require_link_free {
            topo.route_into(src, dst, &mut route);
        }
        let mut placed = None;
        for k in (0..table.len() / n).rev() {
            probes += 1;
            let row = &table[k * n..(k + 1) * n];
            if row[src.index()] != SILENT || row.contains(&dst.0) {
                continue;
            }
            if require_link_free {
                let map = links[k]
                    .get_or_insert_with(|| claimed_links(row, topo, &mut scratch, &mut probes));
                probes += route.len() as u64;
                if route.iter().any(|l| map[l.index()]) {
                    continue;
                }
            }
            placed = Some(k);
            break;
        }
        let k = placed.unwrap_or_else(|| {
            table.resize(table.len() + n, SILENT);
            links.push(require_link_free.then(|| vec![false; topo.link_count()]));
            table.len() / n - 1
        });
        table[k * n + src.index()] = dst.0;
        if let Some(map) = &mut links[k] {
            for l in &route {
                probes += 1;
                map[l.index()] = true;
            }
        }
    }

    // Drop emptied phases, compacting the rows in place.
    let mut kept = 0;
    for k in 0..table.len() / n {
        if table[k * n..(k + 1) * n].iter().any(|&w| w != SILENT) {
            table.copy_within(k * n..(k + 1) * n, kept * n);
            kept += 1;
        }
    }
    table.truncate(kept * n);
    Some(Schedule::from_parts(
        ScheduleKind::Phased,
        base.algorithm(),
        n,
        table,
        base.ops() + probes,
        base.compress_ops(),
    ))
}

/// Links claimed by a phase's circuits, as a dense map.
fn claimed_links(
    row: &[u32],
    topo: &dyn Topology,
    scratch: &mut Vec<hypercube::LinkId>,
    probes: &mut u64,
) -> Vec<bool> {
    let mut claimed = vec![false; topo.link_count()];
    for (i, &w) in row.iter().enumerate().filter(|(_, &w)| w != SILENT) {
        topo.route_into(NodeId(i as u32), NodeId(w), scratch);
        for l in scratch.iter() {
            *probes += 1;
            claimed[l.index()] = true;
        }
    }
    claimed
}

/// Patch an LP base schedule **exactly**: in LP, message `i -> j` lives in
/// phase `(i ^ j) - 1` by construction, so edits land structurally —
/// removals vacate that slot, additions fill it (the slot is necessarily
/// free in a valid LP schedule of the base), resizes change nothing. The
/// result is bit-identical to `lp(target)`: same `n - 1` phases (empties
/// retained), same op counts.
///
/// Returns `None` when the base does not have LP's shape (`n` not a power
/// of two, phase count not `n - 1`, an edit inconsistent with the base).
pub fn patch_lp(base: &Schedule, delta: &MatrixDelta) -> Option<Schedule> {
    let n = base.n();
    if base.kind() != ScheduleKind::Phased
        || n != delta.n()
        || !n.is_power_of_two()
        || base.num_phases() != n - 1
    {
        return None;
    }
    let mut table = base.table().to_vec();
    // Message `i -> j` sits in row `(i ^ j) - 1`, column `i`.
    let slot = |src: NodeId, dst: NodeId| ((src.0 ^ dst.0) as usize - 1) * n + src.index();
    for &(src, dst) in delta.removed() {
        let at = slot(src, dst);
        if table[at] != dst.0 {
            return None;
        }
        table[at] = SILENT;
    }
    for &(src, dst, _bytes) in delta.added() {
        let at = slot(src, dst);
        if table[at] != SILENT {
            return None;
        }
        table[at] = dst.0;
    }
    Some(Schedule::from_parts(
        ScheduleKind::Phased,
        base.algorithm(),
        n,
        table,
        base.ops(),
        base.compress_ops(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lp, registry, rs_nl, validate_schedule};
    use hypercube::Hypercube;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn sample_com(n: usize) -> CommMatrix {
        let mut com = CommMatrix::new(n);
        for i in 0..n {
            com.set(i, (i + 1) % n, 256);
            com.set(i, (i + 5) % n, 512);
        }
        com
    }

    #[test]
    fn diff_classifies_and_apply_roundtrips() {
        let base = sample_com(16);
        let mut target = base.clone();
        target.set(0, 1, 0); // removed
        target.set(0, 5, 999); // resized
        target.set(2, 9, 64); // added
        let delta = MatrixDelta::diff(&base, &target).unwrap();
        assert_eq!(delta.added().len(), 1);
        assert_eq!(delta.removed().len(), 1);
        assert_eq!(delta.resized().len(), 1);
        assert_eq!(delta.change_count(), 3);
        assert_eq!(delta.structural_count(), 2);
        assert_eq!(delta.apply(&base).unwrap(), target);
    }

    #[test]
    fn a_bounded_diff_is_the_diff_or_nothing() {
        let base = sample_com(16);
        let mut target = base.clone();
        target.set(0, 1, 0); // removed
        target.set(0, 5, 999); // resized: never counts against the bound
        target.set(2, 9, 64); // added
        target.set(15, 3, 64); // added, in the last row
        let full = MatrixDelta::diff(&base, &target).unwrap();
        assert_eq!(full.structural_count(), 3);
        for bound in [3, 4, usize::MAX] {
            let bounded = MatrixDelta::diff_within(&base, &target, bound).unwrap();
            assert_eq!(bounded.as_ref(), Some(&full), "bound {bound}");
        }
        for bound in [0, 1, 2] {
            let bounded = MatrixDelta::diff_within(&base, &target, bound).unwrap();
            assert_eq!(bounded, None, "bound {bound}");
        }
        // Another instance altogether is rejected at any sane bound, and
        // a resize-only delta passes the tightest one.
        let other = CommMatrix::new(16);
        assert_eq!(MatrixDelta::diff_within(&base, &other, 31).unwrap(), None);
        let mut resized = base.clone();
        resized.set(7, 8, 1);
        let delta = MatrixDelta::diff_within(&base, &resized, 0)
            .unwrap()
            .unwrap();
        assert_eq!((delta.structural_count(), delta.change_count()), (0, 1));
        assert!(MatrixDelta::diff_within(&base, &CommMatrix::new(8), 0).is_err());
    }

    #[test]
    fn empty_delta_between_identical_matrices() {
        let base = sample_com(8);
        let delta = MatrixDelta::diff(&base, &base.clone()).unwrap();
        assert!(delta.is_empty());
        assert_eq!(delta.apply(&base).unwrap(), base);
    }

    #[test]
    fn diff_rejects_size_mismatch() {
        let err = MatrixDelta::diff(&CommMatrix::new(8), &CommMatrix::new(16)).unwrap_err();
        assert!(matches!(err, DeltaError::WrongSize { .. }));
    }

    #[test]
    fn from_parts_rejects_malformed_entries() {
        let n = 8;
        let oob = MatrixDelta::from_parts(n, vec![(NodeId(0), NodeId(9), 5)], vec![], vec![]);
        assert!(matches!(oob, Err(DeltaError::OutOfRange { .. })));
        let selfm = MatrixDelta::from_parts(n, vec![], vec![(NodeId(3), NodeId(3))], vec![]);
        assert!(matches!(selfm, Err(DeltaError::SelfMessage { node: 3 })));
        let zero = MatrixDelta::from_parts(n, vec![(NodeId(0), NodeId(1), 0)], vec![], vec![]);
        assert!(matches!(zero, Err(DeltaError::ZeroBytes { .. })));
        let dup = MatrixDelta::from_parts(
            n,
            vec![(NodeId(0), NodeId(1), 5)],
            vec![(NodeId(0), NodeId(1))],
            vec![],
        );
        assert!(matches!(dup, Err(DeltaError::DuplicateCell { .. })));
    }

    #[test]
    fn apply_rejects_inconsistent_edits() {
        let base = sample_com(8);
        let add_existing =
            MatrixDelta::from_parts(8, vec![(NodeId(0), NodeId(1), 5)], vec![], vec![]).unwrap();
        assert!(matches!(
            add_existing.apply(&base),
            Err(DeltaError::AddExisting { src: 0, dst: 1 })
        ));
        let remove_missing =
            MatrixDelta::from_parts(8, vec![], vec![(NodeId(0), NodeId(2))], vec![]).unwrap();
        assert!(matches!(
            remove_missing.apply(&base),
            Err(DeltaError::MissingMessage { src: 0, dst: 2 })
        ));
    }

    #[test]
    fn patch_phased_preserves_validity_and_link_freedom() {
        let cube = Hypercube::new(5);
        let base = sample_com(32);
        let mut target = base.clone();
        target.set(0, 1, 0);
        target.set(4, 20, 77);
        target.set(7, 12, 1);
        target.set(3, 8, 2048); // resize
        let delta = MatrixDelta::diff(&base, &target).unwrap();
        let cold = rs_nl(&base, &cube, 11);
        let patched = patch_phased(&cold, &delta, &cube, true).expect("patchable");
        validate_schedule(&target, &patched).unwrap();
        assert!(patched.link_contention_free(&cube));
        assert!(patched.ops() > cold.ops(), "probes are accounted");
    }

    #[test]
    fn patch_phased_rejects_foreign_deltas() {
        let cube = Hypercube::new(4);
        let base = sample_com(16);
        let cold = rs_nl(&base, &cube, 3);
        // A removal the base never scheduled: not this schedule's matrix.
        let foreign =
            MatrixDelta::from_parts(16, vec![], vec![(NodeId(0), NodeId(9))], vec![]).unwrap();
        assert!(patch_phased(&cold, &foreign, &cube, true).is_none());
        // Node-count mismatch.
        let wrong = MatrixDelta::from_parts(8, vec![], vec![], vec![]).unwrap();
        assert!(patch_phased(&cold, &wrong, &cube, true).is_none());
    }

    #[test]
    fn patch_lp_is_bit_identical_to_cold_lp() {
        let base = sample_com(16);
        let mut target = base.clone();
        target.set(0, 1, 0);
        target.set(2, 9, 64);
        target.set(0, 5, 4096);
        let delta = MatrixDelta::diff(&base, &target).unwrap();
        let patched = patch_lp(&lp(&base), &delta).expect("patchable");
        assert_eq!(patched, lp(&target));
    }

    #[test]
    fn registry_patches_validate_across_entries() {
        let cube = Hypercube::new(5);
        let base = sample_com(32);
        let mut target = base.clone();
        target.set(0, 1, 0);
        target.set(9, 3, 128);
        target.set(4, 9, 100);
        let delta = MatrixDelta::diff(&base, &target).unwrap();
        let mut patchable = 0;
        for entry in registry::all() {
            let cold = entry.schedule(&base, &cube, 5);
            match entry.patch_schedule(&cold, &delta, &cube, 5) {
                Some(patched) => {
                    patchable += 1;
                    validate_schedule(&target, &patched)
                        .unwrap_or_else(|e| panic!("{}: {e}", entry.name()));
                    if entry.link_contention_free() {
                        assert!(patched.link_contention_free(&cube), "{}", entry.name());
                    }
                    if entry.node_contention_free() {
                        for pm in patched.phases() {
                            assert!(pm.is_partial_permutation(), "{}", entry.name());
                        }
                    }
                }
                None => assert_eq!(entry.name(), "AC", "only AC declines patching"),
            }
        }
        assert_eq!(patchable, registry::all().len() - 1);
    }

    /// The patcher as it was written over one `Vec<Option<NodeId>>` per
    /// phase: every phase's receiver map built up front, link maps built
    /// lazily per probed phase. Returns the patched phases and the probes.
    fn reference_patch_phased(
        base: &Schedule,
        delta: &MatrixDelta,
        topo: &dyn Topology,
        require_link_free: bool,
    ) -> Option<(Vec<Vec<Option<NodeId>>>, u64)> {
        if base.kind() != ScheduleKind::Phased || base.n() != delta.n() {
            return None;
        }
        let n = base.n();
        let mut phases: Vec<Vec<Option<NodeId>>> = base
            .phases()
            .iter()
            .map(|pm| (0..n).map(|i| pm.dest(i)).collect())
            .collect();
        let mut probes: u64 = 0;
        let mut scratch = Vec::new();
        let mut receiver_busy: Vec<Vec<bool>> = phases
            .iter()
            .map(|phase| {
                let mut busy = vec![false; n];
                for d in phase.iter().flatten() {
                    busy[d.index()] = true;
                }
                busy
            })
            .collect();
        let mut claimed: Vec<Option<Vec<bool>>> = vec![None; phases.len()];
        let claimed_links = |phase: &[Option<NodeId>], scratch: &mut Vec<_>, probes: &mut u64| {
            let mut claimed = vec![false; topo.link_count()];
            for (i, d) in phase.iter().enumerate() {
                if let Some(d) = d {
                    topo.route_into(NodeId(i as u32), *d, scratch);
                    for l in scratch.iter() {
                        *probes += 1;
                        claimed[hypercube::LinkId::index(*l)] = true;
                    }
                }
            }
            claimed
        };
        for &(src, dst) in delta.removed() {
            let mut found = false;
            for (k, phase) in phases.iter_mut().enumerate() {
                probes += 1;
                if phase[src.index()] == Some(dst) {
                    phase[src.index()] = None;
                    receiver_busy[k][dst.index()] = false;
                    found = true;
                    break;
                }
            }
            if !found {
                return None;
            }
        }
        let mut route = Vec::new();
        for &(src, dst, _bytes) in delta.added() {
            if require_link_free {
                topo.route_into(src, dst, &mut route);
            }
            let mut placed = None;
            for k in (0..phases.len()).rev() {
                probes += 1;
                if phases[k][src.index()].is_some() || receiver_busy[k][dst.index()] {
                    continue;
                }
                if require_link_free {
                    let map = claimed[k].get_or_insert_with(|| {
                        claimed_links(&phases[k], &mut scratch, &mut probes)
                    });
                    let free = route.iter().all(|l| !map[l.index()]);
                    probes += route.len() as u64;
                    if !free {
                        continue;
                    }
                }
                placed = Some(k);
                break;
            }
            match placed {
                Some(k) => {
                    phases[k][src.index()] = Some(dst);
                    receiver_busy[k][dst.index()] = true;
                    if require_link_free {
                        let map = claimed[k].as_mut().expect("map built during probe");
                        for l in &route {
                            probes += 1;
                            map[l.index()] = true;
                        }
                    }
                }
                None => {
                    let mut fresh = vec![None; n];
                    fresh[src.index()] = Some(dst);
                    let mut busy = vec![false; n];
                    busy[dst.index()] = true;
                    if require_link_free {
                        let mut c = vec![false; topo.link_count()];
                        for l in &route {
                            probes += 1;
                            c[l.index()] = true;
                        }
                        claimed.push(Some(c));
                    } else {
                        claimed.push(None);
                    }
                    phases.push(fresh);
                    receiver_busy.push(busy);
                }
            }
        }
        phases.retain(|phase| phase.iter().any(|d| d.is_some()));
        Some((phases, probes))
    }

    /// A random matrix on `n` nodes, each sender with up to `d` messages.
    fn random_com(rng: &mut StdRng, n: usize, d: usize) -> CommMatrix {
        let mut com = CommMatrix::new(n);
        for i in 0..n {
            for _ in 0..rng.random_range(0..=d) {
                let j = rng.random_range(0..n);
                if j != i {
                    com.set(i, j, 64);
                }
            }
        }
        com
    }

    /// Random bases and deltas on a cube and two meshes: every entry that
    /// patches through `patch_phased` places every message in the phase
    /// the nested reference places it in, with the same probe count, and
    /// declines exactly where the reference declines.
    #[test]
    fn differential_patch_phased_matches_the_nested_reference() {
        let mut rng = StdRng::seed_from_u64(27);
        let fabrics: [Box<dyn Topology>; 3] = [
            Box::new(Hypercube::new(4)),
            Box::new(topo::Torus::mesh(4, 4)),
            Box::new(topo::Torus::mesh(2, 8)),
        ];
        let (mut appended, mut emptied, mut declined) = (0, 0, 0);
        for case in 0..300 {
            let topo = &*fabrics[case % 3];
            let n = topo.num_nodes();
            let base = random_com(&mut rng, n, 1 + case % 5);
            let mut target = base.clone();
            for _ in 0..rng.random_range(0..8usize) {
                let (s, d) = (rng.random_range(0..n), rng.random_range(0..n));
                if s != d {
                    let bytes = if target.get(s, d) == 0 { 32 } else { 0 };
                    target.set(s, d, bytes);
                }
            }
            let mut delta = MatrixDelta::diff(&base, &target).unwrap();
            if case % 40 == 39 {
                // A removal the base never scheduled.
                let (s, d) = (0..n * n)
                    .map(|c| (c / n, c % n))
                    .find(|&(s, d)| s != d && base.get(s, d) == 0)
                    .unwrap();
                delta = MatrixDelta::from_parts(
                    n,
                    vec![],
                    vec![(NodeId(s as u32), NodeId(d as u32))],
                    vec![],
                )
                .unwrap();
            }
            for name in [
                "RS_N",
                "RS_NL",
                "GREEDY",
                "RS_N_DET",
                "RS_NL_NOPAIR",
                "RS_NL_DET",
            ] {
                let entry = registry::find(name).unwrap();
                let cold = entry.schedule(&base, topo, case as u64);
                let link_free = entry.link_contention_free();
                let flat = patch_phased(&cold, &delta, topo, link_free);
                let want = reference_patch_phased(&cold, &delta, topo, link_free);
                let Some((phases, probes)) = want else {
                    assert!(flat.is_none(), "case {case} {name}: the reference declines");
                    declined += 1;
                    continue;
                };
                let flat = flat.unwrap_or_else(|| panic!("case {case} {name}: declined"));
                let got: Vec<Vec<Option<NodeId>>> = flat
                    .phases()
                    .iter()
                    .map(|pm| (0..n).map(|i| pm.dest(i)).collect())
                    .collect();
                assert_eq!(got, phases, "case {case} {name}");
                assert_eq!(flat.ops(), cold.ops() + probes, "case {case} {name}");
                assert_eq!(flat.compress_ops(), cold.compress_ops());
                appended += usize::from(flat.num_phases() > cold.num_phases());
                emptied += usize::from(flat.num_phases() < cold.num_phases());
            }
        }
        assert!(
            appended > 0 && emptied > 0 && declined > 0,
            "appended {appended}, emptied {emptied}, declined {declined}"
        );
    }

    #[test]
    fn resize_only_delta_patches_to_an_identical_structure() {
        let cube = Hypercube::new(4);
        let base = sample_com(16);
        let mut target = base.clone();
        target.set(0, 5, 9999);
        let delta = MatrixDelta::diff(&base, &target).unwrap();
        let cold = rs_nl(&base, &cube, 1);
        let patched = patch_phased(&cold, &delta, &cube, true).unwrap();
        assert_eq!(patched.phases(), cold.phases());
        validate_schedule(&target, &patched).unwrap();
    }
}
