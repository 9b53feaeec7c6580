//! Per-node protocol state: program progress, blocking condition, and the
//! send/recv bookkeeping each node carries through a run.
//!
//! The receive side of a message is not here: every `(dst, src, tag)` a
//! run's programs name is bound to a dense *message slot* before the first
//! event ([`crate::sim`]), and its [`RecvState`] is one entry of the
//! driver's flat table — eight bytes, read and written by index.

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

/// Receive-side state of one message slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RecvState {
    /// Neither posted nor arrived yet.
    Absent,
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

/// The transitions: `Ok` is the state after the step, `Err` the state that
/// does not admit it (a program error the driver words).
impl RecvState {
    /// The receiver posts its buffer.
    pub(crate) fn post(self) -> Result<Self, Self> {
        match self {
            RecvState::Absent => Ok(RecvState::Posted),
            RecvState::Buffered(_) => Ok(RecvState::Copying),
            RecvState::BufArriving { .. } => Ok(RecvState::BufArriving {
                posted_meanwhile: true,
            }),
            other => Err(other),
        }
    }

    /// The message's circuit opens, `direct` into the posted buffer or
    /// into the system buffer.
    pub(crate) fn arrive(self) -> Result<Self, Self> {
        match self {
            RecvState::Posted => Ok(RecvState::InFlightDirect),
            RecvState::Absent => Ok(RecvState::BufArriving {
                posted_meanwhile: false,
            }),
            other => Err(other),
        }
    }

    /// The message's `bytes` have all landed where they were headed.
    pub(crate) fn land(self, bytes: u32) -> Result<Self, Self> {
        match self {
            RecvState::InFlightDirect => Ok(RecvState::Delivered),
            RecvState::BufArriving {
                posted_meanwhile: true,
            } => Ok(RecvState::Copying),
            RecvState::BufArriving { .. } => Ok(RecvState::Buffered(bytes)),
            other => Err(other),
        }
    }
}

/// One side of a pairwise-exchange rendezvous waiting for its partner. A
/// node blocks on its offer, so it has at most one outstanding.
#[derive(Clone, Copy)]
pub(crate) struct ExchangeOffer {
    pub partner: u32,
    pub tag: Tag,
    pub send_bytes: u32,
    pub recv_bytes: u32,
    /// Message slot of the offering node's outgoing direction.
    pub slot: u32,
}

pub(crate) struct NodeState {
    pub pc: usize,
    /// Index of this node's first op in the driver's bound-op table.
    pub op_base: usize,
    pub block: Block,
    pub done: bool,
    pub resume_scheduled: bool,
    pub outstanding_sends: usize,
    pub unfinished_recvs: usize,
    pub exchange_parts_left: u8,
    pub exchange_offer: Option<ExchangeOffer>,
    pub buffer_used: u64,
    /// Issue sequencing of outgoing data transfers (head-of-line at the
    /// sender): `issue_next` numbers new transfers, `issue_cursor` is the
    /// oldest not-yet-started one — only it may claim resources.
    pub issue_next: u32,
    pub issue_cursor: u32,
    pub stats: NodeStats,
}

impl NodeState {
    /// A node at the top of its program, its first resume already due.
    pub(crate) fn new(op_base: usize) -> Self {
        NodeState {
            pc: 0,
            op_base,
            block: Block::None,
            done: false,
            resume_scheduled: true,
            outstanding_sends: 0,
            unfinished_recvs: 0,
            exchange_parts_left: 0,
            exchange_offer: None,
            buffer_used: 0,
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
    use std::collections::HashMap;

    /// The receive bookkeeping as the engine kept it before messages had
    /// slots: one map per node keyed by `(src, tag)`, a missing entry for
    /// "neither posted nor arrived". Each step returns the state it
    /// rejected, like the transitions of [`RecvState`].
    #[derive(Default)]
    struct KeyedRecvs(HashMap<(u32, u32), RecvState>);

    impl KeyedRecvs {
        fn post(&mut self, key: (u32, u32)) -> Result<(), RecvState> {
            match self.0.get(&key).copied() {
                None => self.0.insert(key, RecvState::Posted),
                Some(RecvState::Buffered(_)) => self.0.insert(key, RecvState::Copying),
                Some(RecvState::BufArriving { .. }) => self.0.insert(
                    key,
                    RecvState::BufArriving {
                        posted_meanwhile: true,
                    },
                ),
                Some(other) => return Err(other),
            };
            Ok(())
        }

        fn arrive(&mut self, key: (u32, u32)) -> Result<(), RecvState> {
            match self.0.get(&key) {
                Some(RecvState::Posted) => self.0.insert(key, RecvState::InFlightDirect),
                Some(other) => return Err(*other),
                None => self.0.insert(
                    key,
                    RecvState::BufArriving {
                        posted_meanwhile: false,
                    },
                ),
            };
            Ok(())
        }

        fn land(&mut self, key: (u32, u32), bytes: u32) -> Result<(), RecvState> {
            match *self.0.get(&key).expect("an arrival has an entry") {
                RecvState::InFlightDirect => self.0.insert(key, RecvState::Delivered),
                RecvState::BufArriving { posted_meanwhile } => match posted_meanwhile {
                    true => self.0.insert(key, RecvState::Copying),
                    false => self.0.insert(key, RecvState::Buffered(bytes)),
                },
                other => return Err(other),
            };
            Ok(())
        }
    }

    #[test]
    fn the_slot_table_matches_keyed_maps_over_random_steps() {
        // 48 messages, 10 000 random posts, arrivals, landings and finished
        // copies — legal or not: the same states and the same rejections
        // after every step.
        const SLOTS: usize = 48;
        let key = |slot: usize| ((slot / 4) as u32, (slot % 4) as u32);
        let mut flat = vec![RecvState::Absent; SLOTS];
        let mut keyed = KeyedRecvs::default();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut rejected, mut delivered) = (0, 0);
        for step in 0..10_000 {
            let slot = rand() as usize % SLOTS;
            let bytes = rand() as u32 % 4096;
            let before = flat[slot];
            let (got, want) = match rand() % 4 {
                0 => (before.post(), keyed.post(key(slot))),
                1 => (before.arrive(), keyed.arrive(key(slot))),
                2 if before != RecvState::Absent => {
                    (before.land(bytes), keyed.land(key(slot), bytes))
                }
                // A finished copy delivers; a delivered message is consumed
                // now and then so the slot lives again.
                _ => {
                    let after = match before {
                        RecvState::Copying => RecvState::Delivered,
                        RecvState::Delivered if bytes & 1 == 0 => RecvState::Absent,
                        same => same,
                    };
                    match after {
                        RecvState::Absent => keyed.0.remove(&key(slot)),
                        _ if after != before => keyed.0.insert(key(slot), after),
                        _ => None,
                    };
                    (Ok(after), Ok(()))
                }
            };
            assert_eq!(got.err(), want.err(), "step {step}: rejections differ");
            if let Ok(after) = got {
                flat[slot] = after;
            }
            rejected += usize::from(got.is_err());
            delivered += usize::from(got == Ok(RecvState::Delivered) && before != got.unwrap());
            for (slot, &state) in flat.iter().enumerate() {
                let reference = keyed.0.get(&key(slot)).copied();
                assert_eq!(
                    reference.unwrap_or(RecvState::Absent),
                    state,
                    "step {step}, slot {slot}"
                );
                assert_ne!(reference, Some(RecvState::Absent));
            }
        }
        assert!(rejected > 1000 && delivered > 300, "{rejected} {delivered}");
    }

    #[test]
    fn wake_receiver_matches_source_and_tag() {
        let mut n = NodeState::new(0);
        n.block = Block::WaitRecv(3, Tag(7));
        assert!(!n.wake_receiver(3, Tag(8)));
        assert!(!n.wake_receiver(2, Tag(7)));
        assert_eq!(n.block, Block::WaitRecv(3, Tag(7)));
        assert!(n.wake_receiver(3, Tag(7)));
        assert_eq!(n.block, Block::None);
    }

    #[test]
    fn wake_all_recvs_needs_zero_outstanding() {
        let mut n = NodeState::new(0);
        n.block = Block::WaitAllRecvs;
        n.unfinished_recvs = 2;
        assert!(!n.wake_receiver(0, Tag(0)));
        n.unfinished_recvs = 0;
        assert!(n.wake_receiver(0, Tag(0)));
    }

    #[test]
    fn wake_sender_matches_transfer_or_drained_queue() {
        let mut n = NodeState::new(0);
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
        let mut n = NodeState::new(0);
        n.block = Block::Exchange;
        n.exchange_parts_left = 2;
        assert!(!n.finish_exchange_part());
        assert_eq!(n.block, Block::Exchange);
        assert!(n.finish_exchange_part());
        assert_eq!(n.block, Block::None);
    }

    #[test]
    fn buffer_tracks_peak() {
        let mut n = NodeState::new(0);
        n.buffer_in(4096);
        n.buffer_in(1024);
        n.buffer_used -= 4096;
        n.buffer_in(512);
        assert_eq!(n.stats.peak_buffer_bytes, 5120);
        assert_eq!(n.buffer_used, 1536);
    }
}
