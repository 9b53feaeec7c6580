//! The simulation clock: a deterministic time-ordered event queue.

/// Identifier of an in-flight transfer (index into the simulator's slab).
pub(crate) type TransferId = usize;

/// What happens when an event fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EvKind {
    /// Resume a node's program.
    Resume(usize),
    /// A transfer's data movement finished.
    XferDone(TransferId),
    /// A hold-and-wait transfer attempts its next claim step.
    XferAdvance(TransferId),
}

/// Deterministic time-ordered event queue: an indexed (slot-addressed,
/// `Vec`-backed) 4-ary min-heap over `(time, seq)` keys.
///
/// Ties at equal timestamps break on a monotonically increasing sequence
/// number, so simulation outcomes are a pure function of the inputs —
/// `(time, seq)` is a unique total order, which makes the pop sequence
/// independent of the heap implementation. Compared to wrapping
/// `std::collections::BinaryHeap` in `Reverse`, the hand-rolled heap keeps
/// entries inline in one `Vec` (no per-entry comparator indirection), uses
/// a fan-out of [`ARITY`] to cut tree depth (fewer cache lines touched per
/// push/pop on the simulator's hot path), and sifts with a single
/// hole-move pass instead of repeated swaps.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    /// `(time, seq, kind)` in d-ary min-heap order over `(time, seq)`.
    heap: Vec<(u64, u64, EvKind)>,
    seq: u64,
}

/// Heap fan-out. Four children per node halves the depth of the binary
/// heap while keeping each child scan inside one cache line of entries.
const ARITY: usize = 4;

impl EventQueue {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Enqueue `kind` at `time`. Events pushed at the same simulated time
    /// fire in push order.
    pub(crate) fn push(&mut self, time: u64, kind: EvKind) {
        self.seq += 1;
        let entry = (time, self.seq, kind);
        // Sift up with a hole: parents move down until the insert slot is
        // found, and the entry is written exactly once.
        let mut hole = self.heap.len();
        self.heap.push(entry);
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            let p = self.heap[parent];
            if (p.0, p.1) <= (entry.0, entry.1) {
                break;
            }
            self.heap[hole] = p;
            hole = parent;
        }
        self.heap[hole] = entry;
    }

    /// Remove and return the earliest event (ties in push order).
    pub(crate) fn pop(&mut self) -> Option<(u64, EvKind)> {
        let last = self.heap.pop()?;
        if self.heap.is_empty() {
            return Some((last.0, last.2));
        }
        let top = self.heap[0];
        // Sift the former tail down from the root with a hole.
        let mut hole = 0;
        let n = self.heap.len();
        loop {
            let first_child = hole * ARITY + 1;
            if first_child >= n {
                break;
            }
            let mut min_child = first_child;
            let mut min_key = (self.heap[first_child].0, self.heap[first_child].1);
            for c in (first_child + 1)..(first_child + ARITY).min(n) {
                let key = (self.heap[c].0, self.heap[c].1);
                if key < min_key {
                    min_child = c;
                    min_key = key;
                }
            }
            if min_key >= (last.0, last.1) {
                break;
            }
            self.heap[hole] = self.heap[min_child];
            hole = min_child;
        }
        self.heap[hole] = last;
        Some((top.0, top.2))
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(30, EvKind::Resume(0));
        q.push(10, EvKind::Resume(1));
        q.push(20, EvKind::Resume(2));
        assert_eq!(q.pop(), Some((10, EvKind::Resume(1))));
        assert_eq!(q.pop(), Some((20, EvKind::Resume(2))));
        assert_eq!(q.pop(), Some((30, EvKind::Resume(0))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(42, EvKind::Resume(i));
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((42, EvKind::Resume(i))));
        }
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, EvKind::XferDone(7));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn matches_a_reference_heap_on_interleaved_traffic() {
        // Model-check the d-ary heap against std::BinaryHeap on a pseudo-
        // random push/pop interleaving: identical pop sequences, including
        // tie handling, at every step.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut q = EventQueue::new();
        let mut model: BinaryHeap<Reverse<(u64, u64, EvKind)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rand = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..10_000usize {
            if rand() % 3 != 0 || model.is_empty() {
                let t = rand() % 64; // small range forces many ties
                let kind = EvKind::Resume(step);
                seq += 1;
                model.push(Reverse((t, seq, kind)));
                q.push(t, kind);
            } else {
                let Reverse((t, _, k)) = model.pop().unwrap();
                assert_eq!(q.pop(), Some((t, k)), "diverged at step {step}");
            }
        }
        while let Some(Reverse((t, _, k))) = model.pop() {
            assert_eq!(q.pop(), Some((t, k)));
        }
        assert_eq!(q.pop(), None);
    }
}
