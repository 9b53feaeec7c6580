//! Per-node protocol state: program progress, blocking condition, and the
//! send/recv bookkeeping each node carries through a run.

use std::collections::HashMap;

use crate::engine::queue::TransferId;
use crate::program::Tag;
use crate::stats::NodeStats;

/// What a node's program is currently blocked on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Block {
    None,
    WaitRecv(u32, Tag),
    WaitSend(TransferId),
    WaitAllSends,
    WaitAllRecvs,
    Exchange,
}

/// Receive-side state of one expected message, keyed by `(src, tag)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RecvState {
    /// Application buffer posted, data not yet in flight.
    Posted,
    /// Data in flight directly into the posted buffer.
    InFlightDirect,
    /// Data in flight into the system buffer (no post yet).
    BufArriving { posted_meanwhile: bool },
    /// Data parked in the system buffer awaiting a post.
    Buffered(u32),
    /// Copy from system buffer to application buffer in progress.
    Copying,
    /// Delivered into the application buffer.
    Delivered,
}

pub(crate) struct NodeState {
    pub pc: usize,
    pub block: Block,
    pub done: bool,
    pub resume_scheduled: bool,
    pub outstanding_sends: usize,
    pub unfinished_recvs: usize,
    pub exchange_parts_left: u8,
    pub recvs: HashMap<(u32, u32), RecvState>,
    pub buffer_used: u64,
    /// Hold-and-wait transfers whose circuit is established but whose
    /// delivery waits on this node (a post or freed buffer space).
    pub delivery_waiters: Vec<TransferId>,
    /// Issue sequencing of outgoing data transfers (head-of-line at the
    /// sender): `issue_next` numbers new transfers, `issue_cursor` is the
    /// oldest not-yet-started one — only it may claim resources.
    pub issue_next: u32,
    pub issue_cursor: u32,
    pub stats: NodeStats,
}

impl NodeState {
    pub(crate) fn new() -> Self {
        NodeState {
            pc: 0,
            block: Block::None,
            done: false,
            resume_scheduled: false,
            outstanding_sends: 0,
            unfinished_recvs: 0,
            exchange_parts_left: 0,
            recvs: HashMap::new(),
            buffer_used: 0,
            delivery_waiters: Vec::new(),
            issue_next: 0,
            issue_cursor: 0,
            stats: NodeStats::default(),
        }
    }

    /// Record `bytes` parked in the system buffer (peak-tracked).
    pub(crate) fn buffer_in(&mut self, bytes: u32) {
        self.buffer_used += u64::from(bytes);
        let peak = &mut self.stats.peak_buffer_bytes;
        *peak = (*peak).max(self.buffer_used);
    }

    /// Whether a delivered `(src, tag)` message unblocks this node's
    /// program. Clears the block when it does.
    pub(crate) fn wake_receiver(&mut self, src: u32, tag: Tag) -> bool {
        let wake = match self.block {
            Block::WaitRecv(s, t) => s == src && t == tag,
            Block::WaitAllRecvs => self.unfinished_recvs == 0,
            _ => false,
        };
        if wake {
            self.block = Block::None;
        }
        wake
    }

    /// Whether a finished send transfer unblocks this node's program.
    /// Clears the block when it does.
    pub(crate) fn wake_sender(&mut self, id: TransferId) -> bool {
        let wake = match self.block {
            Block::WaitSend(w) => w == id,
            Block::WaitAllSends => self.outstanding_sends == 0,
            _ => false,
        };
        if wake {
            self.block = Block::None;
        }
        wake
    }

    /// Account one finished exchange direction; true when the whole
    /// exchange is complete and the node's program should resume.
    pub(crate) fn finish_exchange_part(&mut self) -> bool {
        debug_assert!(self.exchange_parts_left > 0);
        self.exchange_parts_left -= 1;
        let resume = self.exchange_parts_left == 0 && self.block == Block::Exchange;
        if resume {
            self.block = Block::None;
        }
        resume
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_receiver_matches_source_and_tag() {
        let mut n = NodeState::new();
        n.block = Block::WaitRecv(3, Tag(7));
        assert!(!n.wake_receiver(3, Tag(8)));
        assert!(!n.wake_receiver(2, Tag(7)));
        assert_eq!(n.block, Block::WaitRecv(3, Tag(7)));
        assert!(n.wake_receiver(3, Tag(7)));
        assert_eq!(n.block, Block::None);
    }

    #[test]
    fn wake_all_recvs_needs_zero_outstanding() {
        let mut n = NodeState::new();
        n.block = Block::WaitAllRecvs;
        n.unfinished_recvs = 2;
        assert!(!n.wake_receiver(0, Tag(0)));
        n.unfinished_recvs = 0;
        assert!(n.wake_receiver(0, Tag(0)));
    }

    #[test]
    fn wake_sender_matches_transfer_or_drained_queue() {
        let mut n = NodeState::new();
        n.block = Block::WaitSend(4);
        assert!(!n.wake_sender(5));
        assert!(n.wake_sender(4));
        n.block = Block::WaitAllSends;
        n.outstanding_sends = 1;
        assert!(!n.wake_sender(0));
        n.outstanding_sends = 0;
        assert!(n.wake_sender(0));
    }

    #[test]
    fn exchange_completes_after_all_parts() {
        let mut n = NodeState::new();
        n.block = Block::Exchange;
        n.exchange_parts_left = 2;
        assert!(!n.finish_exchange_part());
        assert_eq!(n.block, Block::Exchange);
        assert!(n.finish_exchange_part());
        assert_eq!(n.block, Block::None);
    }

    #[test]
    fn buffer_tracks_peak() {
        let mut n = NodeState::new();
        n.buffer_in(4096);
        n.buffer_in(1024);
        n.buffer_used -= 4096;
        n.buffer_in(512);
        assert_eq!(n.stats.peak_buffer_bytes, 5120);
        assert_eq!(n.buffer_used, 1536);
    }
}
