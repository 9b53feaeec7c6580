//! The simulation clock: a deterministic time-ordered event queue. An
//! event costs one 16-byte key; most are appended to and taken from a FIFO
//! lane, the rest sift through a heap a few keys deep.

use std::collections::VecDeque;

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

/// Deterministic time-ordered event queue over packed 16-byte keys.
///
/// A key is `time << 64 | seq << 34 | kind << 32 | id`: `(time, seq)` major,
/// so one integer compare orders two events, and the payload rides in the
/// low bits where it can never decide a comparison (`seq` is unique). Ties
/// at equal timestamps therefore break on the monotonically increasing
/// sequence number — events pushed at one simulated time fire in push
/// order, and the pop sequence is a pure function of the inputs, whatever
/// the containers' shape.
///
/// Most events of a kind are pushed in time order — every resume one
/// posting overhead ahead of a clock that only advances, every deferred
/// request one send overhead ahead — so each kind has a FIFO *lane*: a key
/// no earlier than its lane's tail is appended there, and only the rest
/// (completions of unequal length, wake-ups behind a future resume) sift
/// through the 4-ary min-heap, which stays a few dozen keys deep. A pop
/// takes the least of the three lane fronts and the heap's root.
///
/// The field widths are checked, not assumed: a push whose sequence number
/// or id no longer fits is dropped and [`EventQueue::exhausted`] turns
/// true, which the driver reports as `EventBudgetExhausted`.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    lanes: [VecDeque<u128>; 3],
    heap: Vec<u128>,
    seq: u64,
    exhausted: bool,
}

/// Heap fan-out. Four children per node halves the depth of the binary
/// heap while keeping each child scan inside one cache line of keys.
const ARITY: usize = 4;

const ID_BITS: u32 = 32;
const KIND_BITS: u32 = 2;
/// Pushes a run may make: ten times the driver's budget of popped events.
const SEQ_LIMIT: u64 = 1 << (64 - ID_BITS - KIND_BITS);

impl EventQueue {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Enqueue `kind` at `time`. Events pushed at the same simulated time
    /// fire in push order.
    pub(crate) fn push(&mut self, time: u64, kind: EvKind) {
        let (code, id) = match kind {
            EvKind::Resume(node) => (0, node),
            EvKind::XferDone(id) => (1, id),
            EvKind::XferAdvance(id) => (2, id),
        };
        self.seq += 1;
        if self.seq >= SEQ_LIMIT || id >> ID_BITS != 0 {
            self.exhausted = true;
            return;
        }
        let low = (self.seq << KIND_BITS | code as u64) << ID_BITS | id as u64;
        let key = u128::from(time) << 64 | u128::from(low);
        let lane = &mut self.lanes[code];
        if lane.back().is_none_or(|&tail| tail < key) {
            lane.push_back(key);
            return;
        }
        // Sift up with a hole: parents move down until the insert slot is
        // found, and the key is written exactly once.
        let mut hole = self.heap.len();
        self.heap.push(key);
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            let p = self.heap[parent];
            if p <= key {
                break;
            }
            self.heap[hole] = p;
            hole = parent;
        }
        self.heap[hole] = key;
    }

    /// Remove and return the earliest event (ties in push order).
    pub(crate) fn pop(&mut self) -> Option<(u64, EvKind)> {
        // No key is all ones: a sequence number stays below `SEQ_LIMIT`.
        let mut top = self.heap.first().copied().unwrap_or(u128::MAX);
        let mut from = None;
        for (lane, keys) in self.lanes.iter().enumerate() {
            if let Some(&front) = keys.front().filter(|&&front| front < top) {
                (top, from) = (front, Some(lane));
            }
        }
        if let Some(lane) = from {
            self.lanes[lane].pop_front();
            return Some(Self::unpack(top));
        }
        // Sift the heap's former tail down from the root with a hole.
        let last = self.heap.pop()?;
        let n = self.heap.len();
        if n == 0 {
            return Some(Self::unpack(last));
        }
        let mut hole = 0;
        loop {
            let first_child = hole * ARITY + 1;
            if first_child >= n {
                break;
            }
            let mut min_child = first_child;
            for c in (first_child + 1)..(first_child + ARITY).min(n) {
                if self.heap[c] < self.heap[min_child] {
                    min_child = c;
                }
            }
            if self.heap[min_child] >= last {
                break;
            }
            self.heap[hole] = self.heap[min_child];
            hole = min_child;
        }
        self.heap[hole] = last;
        Some(Self::unpack(top))
    }

    fn unpack(key: u128) -> (u64, EvKind) {
        let id = (key as u64 & ((1 << ID_BITS) - 1)) as usize;
        let kind = match key as u64 >> ID_BITS & ((1 << KIND_BITS) - 1) {
            0 => EvKind::Resume(id),
            1 => EvKind::XferDone(id),
            _ => EvKind::XferAdvance(id),
        };
        ((key >> 64) as u64, kind)
    }

    /// Whether a push was dropped because its sequence number or id did
    /// not fit the key.
    pub(crate) fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Heap footprint in bytes (part of `SimStats::state_bytes`).
    pub(crate) fn resident_bytes(&self) -> usize {
        let keys = self.heap.capacity() + self.lanes.iter().map(VecDeque::capacity).sum::<usize>();
        keys * std::mem::size_of::<u128>()
    }

    /// Leave no sequence number for the next push (tests).
    #[cfg(test)]
    pub(crate) fn exhaust_sequence_numbers(&mut self) {
        self.seq = SEQ_LIMIT;
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
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
    fn ties_across_all_three_kinds_fire_in_push_order() {
        // The kind and the id sit below the sequence number in the key:
        // neither may reorder events of one timestamp, whether a key went
        // to its lane or — pushed behind a later one of its kind — to the
        // heap.
        let mut q = EventQueue::new();
        let late = [
            EvKind::Resume(1),
            EvKind::XferDone(1),
            EvKind::XferAdvance(1),
        ];
        for kind in late {
            q.push(9, kind);
        }
        let tied = [
            EvKind::XferAdvance(usize::MAX >> 32),
            EvKind::Resume(7),
            EvKind::XferDone(0),
            EvKind::Resume(0),
            EvKind::XferAdvance(3),
            EvKind::XferDone(usize::MAX >> 32),
        ];
        for kind in tied {
            q.push(5, kind);
        }
        for kind in tied.into_iter().chain(late) {
            let time = if late.contains(&kind) { 9 } else { 5 };
            assert_eq!(q.pop(), Some((time, kind)));
        }
        assert_eq!(q.pop(), None);
        assert!(!q.exhausted());
    }

    #[test]
    fn a_key_that_does_not_fit_is_dropped_and_reported() {
        // An id wider than its field.
        let mut q = EventQueue::new();
        q.push(1, EvKind::XferDone(1 << ID_BITS));
        assert!(q.exhausted() && q.is_empty());
        // The last sequence number that fits, then one that does not:
        // nothing wraps into the kind or the time.
        let mut q = EventQueue::new();
        q.seq = SEQ_LIMIT - 2;
        q.push(3, EvKind::Resume(4));
        assert!(!q.exhausted());
        q.push(2, EvKind::Resume(5));
        assert!(q.exhausted());
        assert_eq!(q.pop(), Some((3, EvKind::Resume(4))));
        assert_eq!(q.pop(), None);
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
