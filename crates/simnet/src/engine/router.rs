//! Circuit reservation: transfers, and the shared network resources
//! (communication engines, receive ports, directed links) they claim.
//!
//! The router is policy-mechanism split: it owns the run's resource table
//! — one [`crate::engine::pending::Record`] per resource, holder and wait
//! list together — while the driver (`crate::sim`) decides *when* to
//! attempt claims (atomic all-or-nothing vs hold-and-wait incremental —
//! [`crate::ClaimPolicy`]) and what a release does with the waiters
//! (re-examine them all, or hand the resource to the first).
//!
//! A claim check reads one record per resource and a claim writes it; a
//! three-hop message touches five records to start and the same five to
//! finish. The table is dense below the crossover and hashed above it, so
//! a d=20 fabric costs memory proportional to the circuits actually
//! claimed, not to its ~20M directed links.

use hypercube::LinkId;

use crate::engine::pending::{Blocker, PendingIndex, NONE};
use crate::engine::queue::TransferId;
use crate::program::Tag;
use crate::{PoolMode, PortModel};

use crate::engine::arena::LinkRange;

/// What kind of movement a transfer is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TKind {
    Data { exchange_part: bool },
    Fused,
    Copy,
}

/// Lifecycle of a transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TState {
    Pending,
    Claiming,
    WaitDelivery,
    Active,
    Done,
}

/// One unit of data movement: a message circuit, a fused exchange (both
/// directions of a reciprocal pair), or a local buffer copy.
pub(crate) struct Transfer {
    pub kind: TKind,
    pub src: u32,
    pub dst: u32,
    pub bytes: u32,
    /// Fused exchanges only: bytes of the reverse (`dst -> src`)
    /// direction, delivered to `src` on completion. 0 otherwise.
    pub rev_bytes: u32,
    pub tag: Tag,
    /// Message slot of `(dst, src, tag)` in the driver's receive table
    /// (unused by fused exchanges, which bypass it).
    pub slot: u32,
    /// Claim set in the shared circuit arena: the route for data, both
    /// routes for a fused exchange, empty for copies.
    pub links: LinkRange,
    pub duration: u64,
    pub request_ns: u64,
    pub state: TState,
    /// Hold-and-wait claim progress: number of resources already held
    /// (0 = nothing, 1 = send port, 1+k = first k links, ...).
    pub claim_idx: u32,
    /// In-order issue position at the sender (None = exempt: exchange
    /// parts, copies, and 0-byte control signals bypass the data queue).
    pub issue_seq: Option<u32>,
}

/// Occupancy of the machine's shared communication resources.
pub(crate) struct Router {
    ports: PortModel,
    /// The resource table and the wait lists threaded through it.
    pub(crate) pending: PendingIndex,
    /// Running total/max of link busy time, so the driver's statistics
    /// never scan the link universe.
    link_busy_total: u64,
    link_busy_max: u64,
}

impl Router {
    pub(crate) fn new(n: usize, link_count: usize, ports: PortModel) -> Self {
        Router {
            ports,
            pending: PendingIndex::new(n, link_count, PoolMode::Auto),
            link_busy_total: 0,
            link_busy_max: 0,
        }
    }

    /// The resource that admits an incoming message at `node`: the unified
    /// engine, or the dedicated receive port in split mode.
    pub(crate) fn recv_port(&self, node: u32) -> Blocker {
        match self.ports {
            PortModel::Unified => Blocker::Engine(node),
            PortModel::Split => Blocker::RecvPort(node),
        }
    }

    fn free(&self, on: Blocker) -> bool {
        self.pending.record(on).holder == NONE
    }

    /// The node-side resources `t` claims, in claim order: a copy needs
    /// only the receive side; a fused exchange both engines (it exists
    /// only in the unified port model).
    pub(crate) fn ports_of(&self, t: &Transfer) -> (Option<Blocker>, Blocker) {
        match t.kind {
            TKind::Copy => (None, self.recv_port(t.dst)),
            TKind::Data { .. } => (Some(Blocker::Engine(t.src)), self.recv_port(t.dst)),
            TKind::Fused => (Some(Blocker::Engine(t.src)), Blocker::Engine(t.dst)),
        }
    }

    /// Atomic policy: can `t` claim *all* of its resources right now?
    /// `links` is `t`'s claim set (resolved from the circuit arena) and
    /// `issue_ok` the sender-side head-of-line condition of data
    /// transfers (the driver tracks issue cursors in per-node state).
    pub(crate) fn can_claim_atomic(&self, t: &Transfer, links: &[LinkId], issue_ok: bool) -> bool {
        let (send, recv) = self.ports_of(t);
        let links = links.iter().map(|l| Blocker::Link(l.index()));
        (issue_ok || !matches!(t.kind, TKind::Data { .. }))
            && send
                .into_iter()
                .chain([recv])
                .chain(links)
                .all(|on| self.free(on))
    }

    /// Atomic policy: the first resource of `t` that is busy, in claim
    /// order — sending side, receiving side, links (`None` = all free).
    /// This is what a pending transfer parks on; `can_claim_atomic` stays
    /// the oracle it is checked against.
    pub(crate) fn first_busy(&self, t: &Transfer, links: &[LinkId]) -> Option<Blocker> {
        let (send, recv) = self.ports_of(t);
        let busy = |on: &Blocker| !self.free(*on);
        let link = || links.iter().map(|l| Blocker::Link(l.index())).find(busy);
        send.filter(busy)
            .or_else(|| Some(recv).filter(busy))
            .or_else(link)
    }

    /// Atomic policy: claim every resource of `t` (the caller verified
    /// [`Router::first_busy`]).
    pub(crate) fn claim_atomic(&mut self, id: TransferId, t: &Transfer, links: &[LinkId]) {
        let (send, recv) = self.ports_of(t);
        for on in send.into_iter().chain([recv]) {
            self.pending.record_mut(on).holder = id;
        }
        for l in links {
            self.pending.record_mut(Blocker::Link(l.index())).holder = id;
        }
    }

    /// Hold-and-wait: take `on` or join its FIFO queue. True = held
    /// (already, or from now on).
    pub(crate) fn hw_claim(&mut self, on: Blocker, id: TransferId) -> bool {
        let record = self.pending.record_mut(on);
        if record.holder == NONE {
            record.holder = id;
        }
        let held = record.holder == id;
        if !held {
            self.pending.park(id, on);
        }
        held
    }

    /// Free `on`, held by `id`, after `busy_ns` more of accounted use
    /// (links only: a node's busy time lives in its `NodeStats`). True
    /// when transfers wait on it — the driver then wakes them (atomic) or
    /// calls [`Router::hand_off`] (hold-and-wait).
    pub(crate) fn release(&mut self, on: Blocker, id: TransferId, busy_ns: u64) -> bool {
        let record = self.pending.record_mut(on);
        debug_assert_eq!(record.holder, id);
        record.holder = NONE;
        record.busy_ns += busy_ns;
        let (busy, waited) = (record.busy_ns, record.has_waiters());
        self.link_busy_total += busy_ns;
        self.link_busy_max = self.link_busy_max.max(busy);
        waited
    }

    /// Hold-and-wait: give the just-freed `on` to the head of its queue;
    /// the driver re-advances the returned transfer.
    pub(crate) fn hand_off(&mut self, on: Blocker) -> Option<TransferId> {
        let next = self.pending.pop_waiter(on)?;
        self.pending.record_mut(on).holder = next;
        Some(next)
    }

    /// `(total, max)` accumulated busy time over all directed links —
    /// O(1), maintained incrementally at release time.
    pub(crate) fn link_busy_totals(&self) -> (u64, u64) {
        (self.link_busy_total, self.link_busy_max)
    }

    /// Heap footprint in bytes (part of `SimStats::state_bytes`).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.pending.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::arena::LinkRange;

    fn data(src: u32, dst: u32) -> Transfer {
        Transfer {
            kind: TKind::Data {
                exchange_part: false,
            },
            src,
            dst,
            bytes: 64,
            rev_bytes: 0,
            tag: Tag(0),
            slot: 0,
            links: LinkRange::EMPTY,
            duration: 10,
            request_ns: 0,
            state: TState::Pending,
            claim_idx: 0,
            issue_seq: None,
        }
    }

    #[test]
    fn atomic_claim_is_all_or_nothing() {
        let mut r = Router::new(4, 8, PortModel::Unified);
        let t0 = data(0, 1);
        let t0_links = [LinkId(3)];
        assert!(r.can_claim_atomic(&t0, &t0_links, true));
        assert!(
            !r.can_claim_atomic(&t0, &t0_links, false),
            "head-of-line gate"
        );
        r.claim_atomic(7, &t0, &t0_links);
        // Same link, disjoint endpoints: blocked on the channel.
        assert!(!r.can_claim_atomic(&data(2, 3), &[LinkId(3)], true));
        // Disjoint link and endpoints: admitted concurrently.
        assert!(r.can_claim_atomic(&data(2, 3), &[LinkId(5)], true));
        // A claim never enqueues anybody.
        assert!(r.pending.parked().is_empty());
    }

    #[test]
    fn unified_ports_serialize_send_and_recv() {
        let mut r = Router::new(2, 2, PortModel::Unified);
        r.claim_atomic(1, &data(0, 1), &[]);
        // Node 1's engine is busy receiving: it can neither send nor recv.
        assert!(!r.can_claim_atomic(&data(1, 0), &[], true));
        assert!(!r.free(r.recv_port(1)));

        let mut split = Router::new(2, 2, PortModel::Split);
        split.claim_atomic(1, &data(0, 1), &[]);
        // Split ports: node 1 may still send while receiving.
        assert!(split.can_claim_atomic(&data(1, 0), &[], true));
    }

    #[test]
    fn hold_and_wait_queues_fifo_and_hands_off_on_release() {
        let mut r = Router::new(2, 2, PortModel::Split);
        let engine = Blocker::Engine(0);
        assert!(r.hw_claim(engine, 1));
        assert!(r.hw_claim(engine, 1), "re-claim by the holder is a no-op");
        assert!(!r.hw_claim(engine, 2));
        assert!(!r.hw_claim(engine, 3));
        assert_eq!(r.pending.parked(), [2, 3], "queued in arrival order");
        assert!(r.release(engine, 1, 0));
        assert_eq!(r.hand_off(engine), Some(2), "FIFO hand-off");
        assert!(r.hw_claim(engine, 2), "the waiter now holds the engine");
        assert!(r.release(engine, 2, 0));
        assert_eq!(r.hand_off(engine), Some(3));
        assert!(!r.release(engine, 3, 0));
        assert_eq!(r.hand_off(engine), None);
        assert!(r.pending.parked().is_empty(), "the queue drained");
    }

    #[test]
    fn link_release_accounts_busy_time_and_wakes_waiters() {
        let mut r = Router::new(2, 4, PortModel::Unified);
        let link = Blocker::Link(2);
        assert!(r.hw_claim(link, 1));
        assert!(!r.hw_claim(link, 5));
        assert!(r.release(link, 1, 100));
        assert_eq!(r.hand_off(link), Some(5));
        assert_eq!(r.pending.record(link).busy_ns, 100);
        assert_eq!(r.link_busy_totals(), (100, 100));
        // The waiter now holds the link.
        assert!(r.hw_claim(link, 5));
    }

    #[test]
    fn million_node_router_stays_traffic_sized() {
        // d=20: ~1M nodes, ~20M directed links. A dense table would be
        // hundreds of MB; the hashed one stays in the KBs until circuits
        // are claimed.
        let n = 1 << 20;
        let links = n * 20;
        let mut r = Router::new(n, links, PortModel::Unified);
        assert!(r.resident_bytes() < 1 << 16, "{}", r.resident_bytes());
        let t = data(17, 900_000);
        let circuit = [LinkId(12_345_678), LinkId(19_999_999)];
        assert!(r.can_claim_atomic(&t, &circuit, true));
        r.claim_atomic(0, &t, &circuit);
        assert!(!r.can_claim_atomic(&data(2, 17), &[LinkId(12_345_678)], true));
        assert!(!r.release(Blocker::Engine(17), 0, 0));
        assert!(!r.release(Blocker::Engine(900_000), 0, 0));
        for l in circuit {
            assert!(!r.release(Blocker::Link(l.index()), 0, 55));
        }
        assert_eq!(r.link_busy_totals(), (110, 55));
        assert!(r.can_claim_atomic(&t, &circuit, true));
        assert!(r.resident_bytes() < 1 << 16, "{}", r.resident_bytes());
    }
}
