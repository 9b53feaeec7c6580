//! The atomic claim policy's pending set, indexed by blocking condition.
//!
//! A pending transfer found infeasible is *parked* on the first busy
//! condition its admission check reports ([`Blocker`]). Releasing that
//! condition moves its watchers to the candidate set, and a rescan
//! examines candidates only, oldest first. Activation only ever consumes
//! resources, so a parked transfer stays infeasible until its blocker is
//! released: skipping it is exactly what a scan of the whole set would
//! have done, at O(resources freed) instead of O(pending) per rescan.
//!
//! Watcher lists are intrusive (two ends per condition that ever blocked,
//! in a [`SparseMap`] forced to its hashed layout, plus a `next` link per
//! transfer slot), so the index is sized by the traffic like the router's
//! wait queues — never a table over the fabric.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::engine::queue::TransferId;
use crate::sparse::{MapMode, SparseMap};

/// The condition a parked transfer waits on. Each has one or more wake
/// sites in the driver, named on the variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Blocker {
    /// Head-of-line at the sender: the transfer is not yet at the node's
    /// issue cursor. Woken when `activate` advances the cursor — one
    /// watcher per advance, in issue order (see [`PendingIndex::wake`]).
    Issue(u32),
    /// A unified engine or split-mode send port (`release_engine`).
    Engine(u32),
    /// A split-mode receive port (`release_recv_port`).
    RecvPort(u32),
    /// One directed link of the circuit (`release_links`).
    Link(usize),
    /// Delivery at the destination: no posted buffer and no system-buffer
    /// space. Woken by a new `PostRecv`, by a finished copy freeing
    /// buffer, and by any delivery admitted at the node (which may have
    /// taken the watcher's own `(src, tag)` slot).
    Delivery(u32),
}

impl Blocker {
    /// Dense key over all classes: the resource index, tagged in the low
    /// bits.
    fn key(self) -> usize {
        let (class, index) = match self {
            Blocker::Issue(node) => (0, node as usize),
            Blocker::Engine(node) => (1, node as usize),
            Blocker::RecvPort(node) => (2, node as usize),
            Blocker::Link(link) => (3, link),
            Blocker::Delivery(node) => (4, node as usize),
        };
        index << 3 | class
    }
}

const NONE: TransferId = usize::MAX;

#[derive(Clone, Copy)]
struct Slot {
    /// Monotone pending age. Not the `TransferId`: arena slots are
    /// recycled, so ids say nothing about who asked first.
    age: u64,
    /// Next watcher of the same blocker.
    next: TransferId,
}

/// Watchers of one blocker, in parking order (`head == NONE`: nobody).
#[derive(Clone, Copy)]
struct Watchers {
    head: TransferId,
    tail: TransferId,
}

const NOBODY: Watchers = Watchers {
    head: NONE,
    tail: NONE,
};

/// Parked transfers by blocker, plus the candidates a rescan must examine.
pub(crate) struct PendingIndex {
    parked: SparseMap<Watchers>,
    slots: Vec<Slot>,
    candidates: BinaryHeap<Reverse<(u64, TransferId)>>,
    next_age: u64,
}

impl Default for PendingIndex {
    fn default() -> Self {
        PendingIndex {
            parked: SparseMap::new(0, NOBODY, MapMode::Sparse),
            slots: Vec::new(),
            candidates: BinaryHeap::new(),
            next_age: 0,
        }
    }
}

impl PendingIndex {
    /// Admit a new pending transfer as the youngest candidate.
    pub(crate) fn push(&mut self, id: TransferId) {
        if id >= self.slots.len() {
            self.slots.resize(id + 1, Slot { age: 0, next: NONE });
        }
        self.slots[id].age = self.next_age;
        self.candidates.push(Reverse((self.next_age, id)));
        self.next_age += 1;
    }

    /// The oldest transfer whose feasibility may have changed.
    pub(crate) fn next_candidate(&mut self) -> Option<TransferId> {
        self.candidates.pop().map(|Reverse((_, id))| id)
    }

    /// Park an examined candidate until `on` is released.
    pub(crate) fn park(&mut self, id: TransferId, on: Blocker) {
        self.slots[id].next = NONE;
        let watchers = self.parked.slot(on.key());
        if watchers.head == NONE {
            watchers.head = id;
        } else {
            self.slots[watchers.tail].next = id;
        }
        watchers.tail = id;
    }

    /// `on` was released: its watchers become candidates again — all of
    /// them, except at an issue cursor. A sender's transfers enter the
    /// pending set in issue order and the cursor advances one position at
    /// a time, so there exactly the first watcher can have become the
    /// head; the rest stay parked behind it.
    pub(crate) fn wake(&mut self, on: Blocker) {
        let mut id = self.parked.get(on.key()).head;
        if id == NONE {
            return;
        }
        let watchers = self.parked.slot(on.key());
        if matches!(on, Blocker::Issue(_)) {
            watchers.head = self.slots[id].next;
            self.candidates.push(Reverse((self.slots[id].age, id)));
            return;
        }
        *watchers = NOBODY;
        while id != NONE {
            let slot = self.slots[id];
            self.candidates.push(Reverse((slot.age, id)));
            id = slot.next;
        }
    }

    /// Every parked transfer (tests: the exact-predicate sweep).
    #[cfg(test)]
    pub(crate) fn parked(&self) -> Vec<TransferId> {
        let mut out = Vec::new();
        for watchers in self.parked.resident_values() {
            let mut id = watchers.head;
            while id != NONE {
                out.push(id);
                id = self.slots[id].next;
            }
        }
        out
    }

    /// Approximate heap footprint in bytes (part of `state_bytes`).
    pub(crate) fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.parked.resident_bytes()
            + self.slots.capacity() * size_of::<Slot>()
            + self.candidates.capacity() * size_of::<(u64, TransferId)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_come_back_oldest_first_whatever_the_wake_order() {
        let mut p = PendingIndex::default();
        // Ids deliberately run against age: slot 9 asked first.
        for id in [9, 4, 7, 1] {
            p.push(id);
        }
        let drained: Vec<_> = std::iter::from_fn(|| p.next_candidate()).collect();
        assert_eq!(drained, [9, 4, 7, 1]);
        p.park(7, Blocker::Link(3));
        p.park(9, Blocker::Engine(0));
        p.park(1, Blocker::Link(3));
        p.park(4, Blocker::Delivery(2));
        p.wake(Blocker::Link(3));
        p.wake(Blocker::Engine(0));
        p.wake(Blocker::Delivery(1)); // nobody waits there
        let drained: Vec<_> = std::iter::from_fn(|| p.next_candidate()).collect();
        assert_eq!(drained, [9, 7, 1]);
        assert_eq!(p.parked(), [4]);
        p.wake(Blocker::Delivery(2));
        assert_eq!(p.next_candidate(), Some(4));
        assert!(p.parked().is_empty());
    }

    #[test]
    fn an_issue_cursor_wakes_one_watcher_per_advance_in_issue_order() {
        let mut p = PendingIndex::default();
        for id in [3, 0, 5] {
            p.push(id);
        }
        while let Some(id) = p.next_candidate() {
            p.park(id, Blocker::Issue(7));
        }
        for expected in [3, 0, 5] {
            assert_eq!(p.next_candidate(), None);
            p.wake(Blocker::Issue(7));
            assert_eq!(p.next_candidate(), Some(expected));
        }
        p.wake(Blocker::Issue(7));
        assert_eq!(p.next_candidate(), None);
        assert!(p.parked().is_empty());
    }

    #[test]
    fn a_recycled_slot_takes_a_fresh_age() {
        let mut p = PendingIndex::default();
        p.push(0);
        p.push(1);
        assert_eq!(p.next_candidate(), Some(0));
        assert_eq!(p.next_candidate(), Some(1));
        p.park(1, Blocker::Engine(5));
        // Slot 0 started, finished and was reused by a younger transfer.
        p.push(0);
        p.wake(Blocker::Engine(5));
        assert_eq!(p.next_candidate(), Some(1), "older despite the larger id");
        assert_eq!(p.next_candidate(), Some(0));
    }

    #[test]
    fn million_node_index_stays_traffic_sized() {
        // d=20 resource ids: footprint follows the blocked resources and
        // the live transfer slots, not the ~20M-link universe.
        let mut p = PendingIndex::default();
        for id in 0..64 {
            p.push(id);
        }
        while let Some(id) = p.next_candidate() {
            let on = match id % 2 {
                0 => Blocker::Link(19_999_999 - id),
                _ => Blocker::Engine(1_048_575 - id as u32),
            };
            p.park(id, on);
        }
        assert!(p.resident_bytes() < 1 << 14, "{}", p.resident_bytes());
    }
}
