//! Circuit reservation: transfers, and the shared network resources
//! (communication engines, receive ports, directed links) they claim.
//!
//! The router is policy-mechanism split: it owns the resource occupancy
//! tables and their FIFO wait queues, while the driver (`crate::sim`)
//! decides *when* to attempt claims (atomic all-or-nothing vs hold-and-wait
//! incremental — [`crate::ClaimPolicy`]).
//!
//! Occupancy is held in [`SparseMap`]s (dense below the crossover, hashed
//! above it), so a d=20 fabric costs memory proportional to the circuits
//! actually claimed, not to its ~20M directed links. Wait queues are
//! allocated lazily on first block: the atomic claim policy never
//! enqueues a waiter, so it never pays for a queue at all.

use std::collections::{HashMap, VecDeque};

use hypercube::LinkId;

use crate::engine::pending::Blocker;
use crate::engine::queue::TransferId;
use crate::program::Tag;
use crate::sparse::{MapMode, SparseMap};
use crate::PortModel;

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

/// Occupancy slot value for a free resource.
const FREE: usize = usize::MAX;

/// Occupancy of the machine's shared communication resources, with one
/// FIFO wait queue per *blocked* resource (used by the hold-and-wait
/// policy; allocated on first block).
pub(crate) struct Router {
    ports: PortModel,
    /// Unified engine, or the send port in split mode. `FREE` = free,
    /// otherwise the holding transfer's id.
    engines: SparseMap<usize>,
    recv_ports: SparseMap<usize>,
    links: SparseMap<usize>,
    engine_q: HashMap<usize, VecDeque<TransferId>>,
    recv_q: HashMap<usize, VecDeque<TransferId>>,
    link_q: HashMap<usize, VecDeque<TransferId>>,
    /// Accumulated busy time per directed link that ever carried traffic,
    /// plus running total/max so the driver's statistics never scan the
    /// link universe.
    link_busy: SparseMap<u64>,
    link_busy_total: u64,
    link_busy_max: u64,
}

impl Default for Router {
    fn default() -> Self {
        Router::new(0, 0, PortModel::Unified)
    }
}

impl Router {
    pub(crate) fn new(n: usize, link_count: usize, ports: PortModel) -> Self {
        Router {
            ports,
            engines: SparseMap::new(n, FREE, MapMode::Auto),
            recv_ports: SparseMap::new(n, FREE, MapMode::Auto),
            links: SparseMap::new(link_count, FREE, MapMode::Auto),
            engine_q: HashMap::new(),
            recv_q: HashMap::new(),
            link_q: HashMap::new(),
            link_busy: SparseMap::new(link_count, 0, MapMode::Auto),
            link_busy_total: 0,
            link_busy_max: 0,
        }
    }

    /// The resource that admits an incoming message at `node`: the unified
    /// engine, or the dedicated receive port in split mode.
    pub(crate) fn port_free_for_recv(&self, node: usize) -> bool {
        match self.ports {
            PortModel::Unified => self.engines.get(node) == FREE,
            PortModel::Split => self.recv_ports.get(node) == FREE,
        }
    }

    /// Atomic policy: can `t` claim *all* of its resources right now?
    /// `links` is `t`'s claim set (resolved from the circuit arena) and
    /// `issue_ok` the sender-side head-of-line condition (the driver
    /// tracks issue cursors in per-node state).
    pub(crate) fn can_claim_atomic(&self, t: &Transfer, links: &[LinkId], issue_ok: bool) -> bool {
        let src = t.src as usize;
        let dst = t.dst as usize;
        match t.kind {
            TKind::Copy => self.port_free_for_recv(dst),
            TKind::Data { .. } => {
                issue_ok
                    && self.engines.get(src) == FREE
                    && self.port_free_for_recv(dst)
                    && links.iter().all(|l| self.links.get(l.index()) == FREE)
            }
            TKind::Fused => {
                // dst here is the partner; fused exchanges exist only in the
                // unified port model.
                self.engines.get(src) == FREE
                    && self.engines.get(dst) == FREE
                    && links.iter().all(|l| self.links.get(l.index()) == FREE)
            }
        }
    }

    /// Atomic policy: the first resource of `t` that is busy, in the order
    /// [`Router::can_claim_atomic`] checks them (`None` = all free). This
    /// is what a pending transfer parks on; `can_claim_atomic` stays the
    /// oracle it is checked against.
    pub(crate) fn first_busy(&self, t: &Transfer, links: &[LinkId]) -> Option<Blocker> {
        let engine =
            |node: u32| (self.engines.get(node as usize) != FREE).then_some(Blocker::Engine(node));
        let recv = |node: u32| match self.ports {
            PortModel::Unified => engine(node),
            PortModel::Split => {
                (self.recv_ports.get(node as usize) != FREE).then_some(Blocker::RecvPort(node))
            }
        };
        let link = || {
            let busy = links.iter().find(|l| self.links.get(l.index()) != FREE)?;
            Some(Blocker::Link(busy.index()))
        };
        match t.kind {
            TKind::Copy => recv(t.dst),
            TKind::Data { .. } => engine(t.src).or_else(|| recv(t.dst)).or_else(link),
            TKind::Fused => engine(t.src).or_else(|| engine(t.dst)).or_else(link),
        }
    }

    /// Atomic policy: claim every resource of `t` (the caller verified
    /// [`Router::can_claim_atomic`]).
    pub(crate) fn claim_atomic(&mut self, id: TransferId, t: &Transfer, links: &[LinkId]) {
        let src = t.src as usize;
        let dst = t.dst as usize;
        match t.kind {
            TKind::Copy => match self.ports {
                PortModel::Unified => *self.engines.slot(dst) = id,
                PortModel::Split => *self.recv_ports.slot(dst) = id,
            },
            TKind::Data { .. } => {
                *self.engines.slot(src) = id;
                match self.ports {
                    PortModel::Unified => *self.engines.slot(dst) = id,
                    PortModel::Split => *self.recv_ports.slot(dst) = id,
                }
                for l in links {
                    *self.links.slot(l.index()) = id;
                }
            }
            TKind::Fused => {
                *self.engines.slot(src) = id;
                *self.engines.slot(dst) = id;
                for l in links {
                    *self.links.slot(l.index()) = id;
                }
            }
        }
    }

    /// Hold-and-wait: take `node`'s engine or join its queue. True = held.
    pub(crate) fn hw_claim_engine(&mut self, node: usize, id: TransferId) -> bool {
        let slot = self.engines.slot(node);
        match *slot {
            FREE => {
                *slot = id;
                true
            }
            holder if holder == id => true,
            _ => {
                self.engine_q.entry(node).or_default().push_back(id);
                false
            }
        }
    }

    /// Hold-and-wait: take `node`'s receive port or join its queue.
    pub(crate) fn hw_claim_recv_port(&mut self, node: usize, id: TransferId) -> bool {
        let slot = self.recv_ports.slot(node);
        match *slot {
            FREE => {
                *slot = id;
                true
            }
            holder if holder == id => true,
            _ => {
                self.recv_q.entry(node).or_default().push_back(id);
                false
            }
        }
    }

    /// Hold-and-wait: take one link of the circuit or join its queue.
    pub(crate) fn hw_claim_link(&mut self, link: LinkId, id: TransferId) -> bool {
        let slot = self.links.slot(link.index());
        match *slot {
            FREE => {
                *slot = id;
                true
            }
            holder if holder == id => true,
            _ => {
                self.link_q.entry(link.index()).or_default().push_back(id);
                false
            }
        }
    }

    /// Pop the head waiter of `key`'s queue, dropping the queue when it
    /// drains (lazily allocated queues stay traffic-sized).
    fn pop_waiter(q: &mut HashMap<usize, VecDeque<TransferId>>, key: usize) -> Option<TransferId> {
        let queue = q.get_mut(&key)?;
        let next = queue.pop_front();
        if queue.is_empty() {
            q.remove(&key);
        }
        next
    }

    /// Free `node`'s engine; returns the next queued transfer, which now
    /// holds the engine and must be re-advanced by the driver.
    pub(crate) fn release_engine(&mut self, node: usize, id: TransferId) -> Option<TransferId> {
        debug_assert_eq!(self.engines.get(node), id);
        let next = Self::pop_waiter(&mut self.engine_q, node);
        *self.engines.slot(node) = next.unwrap_or(FREE);
        next
    }

    /// Free `node`'s receive port; returns the next queued transfer.
    pub(crate) fn release_recv_port(&mut self, node: usize, id: TransferId) -> Option<TransferId> {
        debug_assert_eq!(self.recv_ports.get(node), id);
        let next = Self::pop_waiter(&mut self.recv_q, node);
        *self.recv_ports.slot(node) = next.unwrap_or(FREE);
        next
    }

    /// Free every link of a circuit, accounting `duration` of busy time on
    /// each; `wake` is called for each queued transfer that now holds its
    /// link (the driver re-advances them).
    pub(crate) fn release_links(
        &mut self,
        id: TransferId,
        links: &[LinkId],
        duration: u64,
        mut wake: impl FnMut(TransferId),
    ) {
        for l in links {
            let busy = self.link_busy.slot(l.index());
            *busy += duration;
            self.link_busy_max = self.link_busy_max.max(*busy);
            self.link_busy_total += duration;
            debug_assert_eq!(self.links.get(l.index()), id);
            let next = Self::pop_waiter(&mut self.link_q, l.index());
            *self.links.slot(l.index()) = next.unwrap_or(FREE);
            if let Some(next) = next {
                wake(next);
            }
        }
    }

    /// `(total, max)` accumulated busy time over all directed links —
    /// O(1), maintained incrementally at release time.
    pub(crate) fn link_busy_totals(&self) -> (u64, u64) {
        (self.link_busy_total, self.link_busy_max)
    }

    /// Accumulated busy time of one link (tests and diagnostics).
    #[cfg(test)]
    pub(crate) fn link_busy_ns(&self, link: LinkId) -> u64 {
        self.link_busy.get(link.index())
    }

    /// Approximate heap footprint in bytes (the scale bench's RSS proxy).
    pub(crate) fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        // Entries, not `capacity()`: a std map's capacity after removals
        // depends on its per-process hash keys, and `state_bytes` must be
        // a function of the run.
        let q_bytes = |q: &HashMap<usize, VecDeque<TransferId>>| {
            q.values()
                .map(|v| v.capacity() * size_of::<TransferId>())
                .sum::<usize>()
                + q.len() * size_of::<(usize, VecDeque<TransferId>)>()
        };
        self.engines.resident_bytes()
            + self.recv_ports.resident_bytes()
            + self.links.resident_bytes()
            + self.link_busy.resident_bytes()
            + q_bytes(&self.engine_q)
            + q_bytes(&self.recv_q)
            + q_bytes(&self.link_q)
    }

    /// Whether any wait queue is currently allocated (tests: the atomic
    /// policy must never allocate one).
    #[cfg(test)]
    pub(crate) fn has_wait_queues(&self) -> bool {
        !self.engine_q.is_empty() || !self.recv_q.is_empty() || !self.link_q.is_empty()
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
        // The atomic policy never allocates a wait queue.
        assert!(!r.has_wait_queues());
    }

    #[test]
    fn unified_ports_serialize_send_and_recv() {
        let mut r = Router::new(2, 2, PortModel::Unified);
        r.claim_atomic(1, &data(0, 1), &[]);
        // Node 1's engine is busy receiving: it can neither send nor recv.
        assert!(!r.can_claim_atomic(&data(1, 0), &[], true));
        assert!(!r.port_free_for_recv(1));

        let mut split = Router::new(2, 2, PortModel::Split);
        split.claim_atomic(1, &data(0, 1), &[]);
        // Split ports: node 1 may still send while receiving.
        assert!(split.can_claim_atomic(&data(1, 0), &[], true));
    }

    #[test]
    fn hold_and_wait_queues_fifo_and_hands_off_on_release() {
        let mut r = Router::new(2, 2, PortModel::Split);
        assert!(r.hw_claim_engine(0, 1));
        assert!(r.hw_claim_engine(0, 1), "re-claim by the holder is a no-op");
        assert!(!r.hw_claim_engine(0, 2));
        assert!(!r.hw_claim_engine(0, 3));
        assert!(r.has_wait_queues(), "queue materializes on first block");
        assert_eq!(r.release_engine(0, 1), Some(2), "FIFO hand-off");
        assert_eq!(r.release_engine(0, 2), Some(3));
        assert_eq!(r.release_engine(0, 3), None);
        assert!(!r.has_wait_queues(), "drained queues are dropped");
    }

    #[test]
    fn link_release_accounts_busy_time_and_wakes_waiters() {
        let mut r = Router::new(2, 4, PortModel::Unified);
        assert!(r.hw_claim_link(LinkId(2), 1));
        assert!(!r.hw_claim_link(LinkId(2), 5));
        let mut woken = Vec::new();
        r.release_links(1, &[LinkId(2)], 100, |id| woken.push(id));
        assert_eq!(woken, [5]);
        assert_eq!(r.link_busy_ns(LinkId(2)), 100);
        assert_eq!(r.link_busy_totals(), (100, 100));
        // The waiter now holds the link.
        assert!(r.hw_claim_link(LinkId(2), 5));
    }

    #[test]
    fn million_node_router_stays_traffic_sized() {
        // d=20: ~1M nodes, ~20M directed links. Dense tables would be
        // hundreds of MB; the sparse router stays in the KBs until
        // circuits are claimed.
        let n = 1 << 20;
        let links = n * 20;
        let mut r = Router::new(n, links, PortModel::Unified);
        assert!(r.resident_bytes() < 1 << 16, "{}", r.resident_bytes());
        let t = data(17, 900_000);
        let circuit = [LinkId(12_345_678), LinkId(19_999_999)];
        assert!(r.can_claim_atomic(&t, &circuit, true));
        r.claim_atomic(0, &t, &circuit);
        assert!(!r.can_claim_atomic(&data(2, 17), &[LinkId(12_345_678)], true));
        r.release_engine(17, 0);
        r.release_engine(900_000, 0);
        r.release_links(0, &circuit, 55, |_| {});
        assert_eq!(r.link_busy_totals(), (110, 55));
        assert!(r.can_claim_atomic(&t, &circuit, true));
    }
}
