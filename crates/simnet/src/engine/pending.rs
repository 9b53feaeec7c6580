//! The run's resource table and the waiting lists threaded through it.
//!
//! Every shared resource (a node's engine, its split-mode receive port, a
//! directed link) and every per-node condition a transfer can wait on (the
//! sender's issue cursor, delivery at the destination) is one [`Record`] in
//! one id space: node `i`'s four records sit side by side at `4 * i`, the
//! links follow. A record holds the resource's holder, its accumulated
//! busy time and the two ends of an intrusive list of waiting transfers
//! (the `next` link lives in the transfer's slot), so checking, claiming,
//! releasing and waking a resource all touch the same 32 bytes, and a wake
//! with nobody waiting is a load and a compare. The table is dense up to
//! [`crate::sparse::DENSE_CROSSOVER`] records and hashed — traffic-sized —
//! above it; [`PendingIndex::new`] decides once per run.
//!
//! Under the atomic claim policy the lists hold *parked* transfers: one
//! found infeasible waits on the first busy condition its admission check
//! reports ([`Blocker`]). Releasing that condition moves its watchers to
//! the candidate set, and a rescan examines candidates only, oldest first.
//! Activation only ever consumes resources, so a parked transfer stays
//! infeasible until its blocker is released: skipping it is exactly what a
//! scan of the whole set would have done, at O(resources freed) instead of
//! O(pending) per rescan. Under hold-and-wait the same lists are the FIFO
//! wait queues of the resources: [`PendingIndex::park`] joins one,
//! [`PendingIndex::pop_waiter`] hands the resource to its head.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::engine::queue::TransferId;
use crate::sparse::SparseMap;
use crate::PoolMode;

/// The condition a waiting transfer waits on. Each has one or more wake
/// sites in the driver, named on the variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Blocker {
    /// Head-of-line at the sender: the transfer is not yet at the node's
    /// issue cursor. Woken when `activate` advances the cursor — one
    /// watcher per advance, in issue order (see [`PendingIndex::wake`]).
    Issue(u32),
    /// A unified engine or split-mode send port.
    Engine(u32),
    /// A split-mode receive port.
    RecvPort(u32),
    /// One directed link of the circuit.
    Link(usize),
    /// Delivery at the destination: no posted buffer and no system-buffer
    /// space. Woken by a new `PostRecv`, by a finished copy freeing
    /// buffer, and by any delivery admitted at the node (which may have
    /// taken the watcher's own `(src, tag)` slot).
    Delivery(u32),
}

/// "No transfer": a free resource, an empty list, the end of a list.
pub(crate) const NONE: TransferId = usize::MAX;

/// One resource or condition: who holds it, how long it has been busy,
/// and who waits for it, in arrival order (`head == NONE`: nobody).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Record {
    pub holder: TransferId,
    pub busy_ns: u64,
    head: TransferId,
    tail: TransferId,
}

impl Record {
    pub(crate) fn has_waiters(&self) -> bool {
        self.head != NONE
    }
}

const IDLE: Record = Record {
    holder: NONE,
    busy_ns: 0,
    head: NONE,
    tail: NONE,
};

#[derive(Clone, Copy)]
struct Slot {
    /// Monotone pending age. Not the `TransferId`: arena slots are
    /// recycled, so ids say nothing about who asked first.
    age: u64,
    /// Next waiter on the same record.
    next: TransferId,
}

/// The record table, plus the candidates an atomic rescan must examine.
pub(crate) struct PendingIndex {
    records: SparseMap<Record>,
    /// Key of link 0; the node records come first.
    link_base: usize,
    slots: Vec<Slot>,
    candidates: BinaryHeap<Reverse<(u64, TransferId)>>,
    /// The newest pending transfer, not yet examined: the youngest by
    /// construction, so it never needs the heap to find its turn.
    fresh: TransferId,
    next_age: u64,
}

impl Default for PendingIndex {
    /// A hashed table over no particular machine: any node or link index.
    fn default() -> Self {
        PendingIndex {
            link_base: usize::MAX / 2,
            ..PendingIndex::new(0, 0, PoolMode::Sparse)
        }
    }
}

impl PendingIndex {
    pub(crate) fn new(nodes: usize, links: usize, mode: PoolMode) -> Self {
        PendingIndex {
            records: SparseMap::new(4 * nodes + links, IDLE, mode),
            link_base: 4 * nodes,
            slots: Vec::new(),
            candidates: BinaryHeap::new(),
            fresh: NONE,
            next_age: 0,
        }
    }

    fn key(&self, on: Blocker) -> usize {
        match on {
            Blocker::Engine(node) => 4 * node as usize,
            Blocker::RecvPort(node) => 4 * node as usize + 1,
            Blocker::Issue(node) => 4 * node as usize + 2,
            Blocker::Delivery(node) => 4 * node as usize + 3,
            Blocker::Link(link) => self.link_base + link,
        }
    }

    /// The record of `on` (idle when nothing ever touched it).
    pub(crate) fn record(&self, on: Blocker) -> &Record {
        self.records.peek(self.key(on))
    }

    pub(crate) fn record_mut(&mut self, on: Blocker) -> &mut Record {
        self.records.slot(self.key(on))
    }

    fn slot_mut(&mut self, id: TransferId) -> &mut Slot {
        if id >= self.slots.len() {
            self.slots.resize(id + 1, Slot { age: 0, next: NONE });
        }
        &mut self.slots[id]
    }

    /// Admit a new pending transfer as the youngest candidate.
    pub(crate) fn push(&mut self, id: TransferId) {
        if self.fresh != NONE {
            self.candidate(self.fresh);
        }
        self.slot_mut(id).age = self.next_age;
        self.fresh = id;
        self.next_age += 1;
    }

    fn candidate(&mut self, id: TransferId) {
        self.candidates.push(Reverse((self.slots[id].age, id)));
    }

    /// The oldest transfer whose feasibility may have changed.
    pub(crate) fn next_candidate(&mut self) -> Option<TransferId> {
        match self.candidates.pop() {
            Some(Reverse((_, id))) => Some(id),
            None => (self.fresh != NONE).then(|| std::mem::replace(&mut self.fresh, NONE)),
        }
    }

    /// Append `id` to the waiters of `on`: parked until `on` is released
    /// (atomic), or queued for it (hold-and-wait).
    pub(crate) fn park(&mut self, id: TransferId, on: Blocker) {
        self.slot_mut(id).next = NONE;
        let record = self.records.slot(self.key(on));
        if record.head == NONE {
            record.head = id;
        } else {
            self.slots[record.tail].next = id;
        }
        record.tail = id;
    }

    /// `on` was released: its watchers become candidates again — all of
    /// them, except at an issue cursor. A sender's transfers enter the
    /// pending set in issue order and the cursor advances one position at
    /// a time, so there exactly the first watcher can have become the
    /// head; the rest stay parked behind it.
    pub(crate) fn wake(&mut self, on: Blocker) {
        if matches!(on, Blocker::Issue(_)) {
            if let Some(id) = self.pop_waiter(on) {
                self.candidate(id);
            }
            return;
        }
        let mut id = self.take_waiters(on);
        while id != NONE {
            self.candidate(id);
            id = self.slots[id].next;
        }
    }

    /// Detach and return the first waiter of `on`.
    pub(crate) fn pop_waiter(&mut self, on: Blocker) -> Option<TransferId> {
        let key = self.key(on);
        let id = self.records.peek(key).head;
        if id == NONE {
            return None;
        }
        self.records.slot(key).head = self.slots[id].next;
        Some(id)
    }

    /// Detach every waiter of `on`: the first is returned (`NONE`: nobody
    /// waited), the rest follow through [`PendingIndex::next_waiter`].
    pub(crate) fn take_waiters(&mut self, on: Blocker) -> TransferId {
        let key = self.key(on);
        let head = self.records.peek(key).head;
        if head != NONE {
            self.records.slot(key).head = NONE;
        }
        head
    }

    /// The waiter that arrived after `id` (until `id` is parked again).
    pub(crate) fn next_waiter(&self, id: TransferId) -> TransferId {
        self.slots[id].next
    }

    /// Every waiting transfer (tests: the exact-predicate sweep).
    #[cfg(test)]
    pub(crate) fn parked(&self) -> Vec<TransferId> {
        let mut out = Vec::new();
        for record in self.records.resident_values() {
            let mut id = record.head;
            while id != NONE {
                out.push(id);
                id = self.slots[id].next;
            }
        }
        out
    }

    /// Whether every record ever touched is free and has no waiters
    /// (tests: what a finished run leaves behind).
    #[cfg(test)]
    pub(crate) fn all_idle(&self) -> bool {
        let idle = |r: &&Record| r.holder == NONE && r.head == NONE;
        self.records.resident_values().iter().all(idle)
    }

    /// Heap footprint in bytes (part of `SimStats::state_bytes`).
    pub(crate) fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.records.resident_bytes()
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
    fn dense_and_hashed_tables_hand_out_the_same_candidates() {
        // One random script of pushes, parks, wakes, FIFO pops and drains
        // over a 16-node, 64-link machine on both layouts: the candidate
        // sequences, the popped waiters and the waiting sets agree.
        let mut dense = PendingIndex::new(16, 64, PoolMode::Dense);
        let mut hashed = PendingIndex::new(16, 64, PoolMode::Sparse);
        assert!(dense.records.is_dense() && !hashed.records.is_dense());
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        };
        let blocker = |r: usize| match r % 5 {
            0 => Blocker::Issue((r / 5 % 16) as u32),
            1 => Blocker::Engine((r / 5 % 16) as u32),
            2 => Blocker::RecvPort((r / 5 % 16) as u32),
            3 => Blocker::Link(r / 5 % 64),
            _ => Blocker::Delivery((r / 5 % 16) as u32),
        };
        let mut free: Vec<TransferId> = (0..256).rev().collect();
        let (mut examined, mut woken) = (0, 0);
        for _ in 0..20_000 {
            match rand() % 4 {
                0 if !free.is_empty() => {
                    let id = free.pop().unwrap();
                    dense.push(id);
                    hashed.push(id);
                }
                1 => {
                    let on = blocker(rand());
                    dense.wake(on);
                    hashed.wake(on);
                }
                2 => {
                    let on = blocker(rand());
                    let popped = dense.pop_waiter(on);
                    assert_eq!(popped, hashed.pop_waiter(on));
                    free.extend(popped);
                }
                // A rescan: every candidate is examined, and parks again
                // or starts (its slot returns to the arena).
                _ => loop {
                    let id = dense.next_candidate();
                    assert_eq!(id, hashed.next_candidate());
                    let Some(id) = id else { break };
                    examined += 1;
                    if rand() % 3 == 0 {
                        free.push(id);
                    } else {
                        let on = blocker(rand());
                        dense.park(id, on);
                        hashed.park(id, on);
                    }
                },
            }
            let (mut a, mut b) = (dense.parked(), hashed.parked());
            woken += usize::from(a.len() + free.len() < 256);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        assert!(examined > 5_000 && woken > 1_000, "{examined} {woken}");
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
