//! Slab arena for transfers and their routed circuits.
//!
//! The event engine used to grow a `Vec<Transfer>` monotonically, with a
//! fresh `Vec<LinkId>` heap allocation per transfer for the routed
//! circuit. On long runs that is O(total transfers) live memory and one
//! allocator round-trip per message. The arena fixes both:
//!
//! * **Slot reuse** — finished transfers return their slot to a free
//!   list ([`TransferArena::recycle`]); live memory tracks *concurrent*
//!   transfers, not the total ever created. Indices stay stable for the
//!   lifetime of the transfer (events reference transfers by id), and
//!   recycling happens only after the last reference is gone — the
//!   driver frees a transfer at the end of `finish_transfer`, when its
//!   events have fired, no node blocks on it, and no queue holds it.
//! * **Shared link storage** — circuits live in one contiguous
//!   `Vec<LinkId>` arena addressed by [`LinkRange`]; routing a transfer
//!   appends to it (the driver routes into a scratch buffer it owns, so
//!   no `Path` is built) and completion pops it back when the range is
//!   still the tail (the common LIFO case), so steady-state routing is
//!   allocation-free.
//!
//! `Index`/`IndexMut` keep call sites reading like the old
//! `self.transfers[id]` vector accesses.

use std::ops::{Index, IndexMut};

use hypercube::LinkId;

use crate::engine::queue::TransferId;
use crate::engine::router::{TState, Transfer};

/// A circuit's span inside the shared link arena.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct LinkRange {
    start: u32,
    len: u32,
}

impl LinkRange {
    pub(crate) const EMPTY: LinkRange = LinkRange { start: 0, len: 0 };

    pub(crate) fn len(self) -> usize {
        self.len as usize
    }

    /// This range and `next`, pushed right after it, as one claim set (a
    /// fused exchange's forward and reverse routes).
    pub(crate) fn join(self, next: LinkRange) -> LinkRange {
        debug_assert_eq!(self.start + self.len, next.start);
        LinkRange {
            start: self.start,
            len: self.len + next.len,
        }
    }
}

/// Slab store for [`Transfer`]s plus the shared circuit arena.
#[derive(Default)]
pub(crate) struct TransferArena {
    slots: Vec<Transfer>,
    free: Vec<TransferId>,
    links: Vec<LinkId>,
    live: usize,
    peak_live: usize,
    allocated: u64,
}

impl TransferArena {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Store a transfer, reusing a recycled slot when one is free.
    pub(crate) fn alloc(&mut self, t: Transfer) -> TransferId {
        self.allocated += 1;
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        match self.free.pop() {
            Some(id) => {
                self.slots[id] = t;
                id
            }
            None => {
                self.slots.push(t);
                self.slots.len() - 1
            }
        }
    }

    /// Return a finished transfer's slot (and, when it is the arena
    /// tail, its circuit storage) for reuse. Caller contract: nothing
    /// references `id` any more.
    pub(crate) fn recycle(&mut self, id: TransferId) {
        debug_assert_eq!(self.slots[id].state, TState::Done);
        let range = self.slots[id].links;
        if range.start as usize + range.len as usize == self.links.len() {
            self.links.truncate(range.start as usize);
        }
        self.slots[id].links = LinkRange::EMPTY;
        self.live -= 1;
        self.free.push(id);
    }

    /// Append one circuit to the link arena.
    pub(crate) fn push_links(&mut self, links: &[LinkId]) -> LinkRange {
        let start = self.links.len() as u32;
        self.links.extend_from_slice(links);
        LinkRange {
            start,
            len: links.len() as u32,
        }
    }

    pub(crate) fn links_of(&self, range: LinkRange) -> &[LinkId] {
        &self.links[range.start as usize..(range.start + range.len) as usize]
    }

    /// Transfers currently live (allocated and not yet recycled).
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of concurrently live transfers.
    pub(crate) fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Total transfers ever allocated (recycled slots count each reuse).
    #[cfg(test)]
    pub(crate) fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Approximate heap footprint in bytes (the scale bench's RSS proxy).
    pub(crate) fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slots.capacity() * size_of::<Transfer>()
            + self.free.capacity() * size_of::<TransferId>()
            + self.links.capacity() * size_of::<LinkId>()
    }
}

impl Index<TransferId> for TransferArena {
    type Output = Transfer;
    fn index(&self, id: TransferId) -> &Transfer {
        &self.slots[id]
    }
}

impl IndexMut<TransferId> for TransferArena {
    fn index_mut(&mut self, id: TransferId) -> &mut Transfer {
        &mut self.slots[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::router::TKind;
    use crate::program::Tag;

    fn transfer(links: LinkRange) -> Transfer {
        Transfer {
            kind: TKind::Data {
                exchange_part: false,
            },
            src: 0,
            dst: 1,
            bytes: 8,
            rev_bytes: 0,
            tag: Tag(0),
            slot: 0,
            links,
            duration: 1,
            request_ns: 0,
            state: TState::Pending,
            claim_idx: 0,
            issue_seq: None,
        }
    }

    #[test]
    fn slots_are_reused_after_recycle() {
        let mut a = TransferArena::new();
        let r0 = a.push_links(&[LinkId(3), LinkId(7)]);
        let id0 = a.alloc(transfer(r0));
        let id1 = a.alloc(transfer(LinkRange::EMPTY));
        assert_ne!(id0, id1);
        assert_eq!(a.live(), 2);
        assert_eq!(a.links_of(a[id0].links), &[LinkId(3), LinkId(7)]);

        a[id1].state = TState::Done;
        a.recycle(id1);
        a[id0].state = TState::Done;
        a.recycle(id0);
        assert_eq!(a.live(), 0);
        assert_eq!(a.peak_live(), 2);

        // LIFO circuit storage was reclaimed with the tail recycle.
        let r2 = a.push_links(&[LinkId(9)]);
        let id2 = a.alloc(transfer(r2));
        assert!(id2 == id0 || id2 == id1, "slot reused");
        assert_eq!(a.links_of(a[id2].links), &[LinkId(9)]);
        assert_eq!(a.allocated(), 3);
    }

    #[test]
    fn paired_circuits_are_contiguous() {
        let mut a = TransferArena::new();
        let r = a
            .push_links(&[LinkId(1)])
            .join(a.push_links(&[LinkId(2), LinkId(3)]));
        assert_eq!(r.len(), 3);
        assert_eq!(a.links_of(r), &[LinkId(1), LinkId(2), LinkId(3)]);
    }
}
