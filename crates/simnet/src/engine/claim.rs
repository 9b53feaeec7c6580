//! Transfer lifecycle: creation, the two circuit-claim policies (atomic
//! all-or-nothing and hold-and-wait incremental), delivery, and
//! completion. A second `impl` block of the driver's `Sim`, split out so
//! `sim.rs` stays the thin program-execution loop.

use hypercube::{NodeId, Topology};

use crate::engine::arena::LinkRange;
use crate::engine::node::RecvState;
use crate::engine::pending::{Blocker, NONE};
use crate::engine::queue::{EvKind, TransferId};
use crate::engine::router::{TKind, TState, Transfer};
use crate::program::Tag;
use crate::sim::Sim;
use crate::trace::TraceKind;
use crate::{ClaimPolicy, PortModel};

impl<T: Topology + ?Sized> Sim<'_, T> {
    // -- transfer creation --------------------------------------------------

    /// Route `src -> dst` under the active cost model into the link arena,
    /// through the scratch buffer ([`crate::LinkCostModel::route_into`]):
    /// `None` with [`crate::SimError::LinkDown`] staged in `self.err`,
    /// which the main loop surfaces after the current event.
    fn route(&mut self, src: u32, dst: u32) -> Option<LinkRange> {
        let routed = self
            .cost
            .route_into(self.topo, NodeId(src), NodeId(dst), &mut self.route);
        match routed {
            Ok(()) => Some(self.transfers.push_links(&self.route)),
            Err(e) => {
                self.err = Some(e);
                None
            }
        }
    }

    /// Hand a requested transfer to the claim machinery of the active
    /// policy.
    pub(crate) fn enter_claim(&mut self, id: TransferId) {
        match self.params.claim {
            ClaimPolicy::Atomic => {
                self.router.pending.push(id);
                self.request_retry();
            }
            ClaimPolicy::HoldAndWait => {
                self.transfers[id].state = TState::Claiming;
                self.hw_advance(id);
            }
        }
    }

    pub(crate) fn create_data_transfer(
        &mut self,
        src: u32,
        dst: u32,
        bytes: u32,
        tag: Tag,
        slot: u32,
        exchange_part: bool,
    ) -> Option<TransferId> {
        let links = self.route(src, dst)?;
        let path = self.transfers.links_of(links);
        let mut duration = match self.params.claim {
            ClaimPolicy::Atomic => self.cost.transfer_ns(self.params, bytes, path),
            // Hold-and-wait pays per-hop cost during claiming instead;
            // the cost model's per-link extras still ride on the wire time.
            ClaimPolicy::HoldAndWait => {
                self.params.wire_ns(bytes) + self.cost.extra_ns(self.params, bytes, path)
            }
        };
        if exchange_part && self.params.ports == PortModel::Split {
            duration += self.params.exchange_sync_ns;
        }
        // Initiating a send costs CPU time before the circuit is requested;
        // exchange parts already paid it during the rendezvous.
        let initiation = if exchange_part {
            0
        } else {
            self.params.send_overhead_ns
        };
        // Long-protocol messages issue in order at each sender (the DCM
        // drains its send queue head-first, stalling behind a head message
        // whose circuit cannot open — the head-of-line blocking that good
        // schedules eliminate). Short-protocol messages and 0-byte control
        // signals are fire-and-forget through system buffers and bypass the
        // queue; exchange parts are gated by their rendezvous instead.
        let issue_seq =
            (!exchange_part && bytes > self.params.protocol_threshold_bytes).then(|| {
                let next = &mut self.nodes[src as usize].issue_next;
                let seq = *next;
                *next = seq.checked_add(1).expect("fewer than 2^32 sends per node");
                seq
            });
        let id = self.transfers.alloc(Transfer {
            kind: TKind::Data { exchange_part },
            src,
            dst,
            bytes,
            rev_bytes: 0,
            tag,
            slot,
            links,
            duration,
            request_ns: self.now + initiation,
            state: TState::Pending,
            claim_idx: 0,
            issue_seq,
        });
        self.stats_transfers += 1;
        self.nodes[src as usize].outstanding_sends += 1;
        self.nodes[src as usize].stats.sends += 1;
        self.trace_push(TraceKind::Requested, src, dst, tag, bytes);
        if initiation > 0 {
            self.queue
                .push(self.now + initiation, EvKind::XferAdvance(id));
        } else {
            self.enter_claim(id);
        }
        Some(id)
    }

    pub(crate) fn create_fused_exchange(
        &mut self,
        a: u32,
        b: u32,
        ab_bytes: u32,
        ba_bytes: u32,
        tag: Tag,
    ) {
        let Some(fwd) = self.route(a, b) else {
            return;
        };
        let Some(rev) = self.route(b, a) else {
            return;
        };
        let duration = self.cost.exchange_ns(
            self.params,
            (ab_bytes, self.transfers.links_of(fwd)),
            (ba_bytes, self.transfers.links_of(rev)),
        );
        let id = self.transfers.alloc(Transfer {
            kind: TKind::Fused,
            src: a,
            dst: b,
            bytes: ab_bytes,
            rev_bytes: ba_bytes,
            tag,
            slot: 0,
            links: fwd.join(rev),
            duration,
            request_ns: self.now,
            state: TState::Pending,
            claim_idx: 0,
            issue_seq: None,
        });
        self.stats_transfers += 1;
        self.nodes[a as usize].stats.sends += 1;
        self.nodes[b as usize].stats.sends += 1;
        self.trace_push(TraceKind::Requested, a, b, tag, ab_bytes.max(ba_bytes));
        self.enter_claim(id);
    }

    pub(crate) fn create_copy_transfer(
        &mut self,
        node: u32,
        src: u32,
        bytes: u32,
        tag: Tag,
        slot: u32,
    ) {
        let id = self.transfers.alloc(Transfer {
            kind: TKind::Copy,
            src,
            dst: node,
            bytes,
            rev_bytes: 0,
            tag,
            slot,
            links: LinkRange::EMPTY,
            duration: self.params.copy_ns(bytes),
            request_ns: self.now,
            state: TState::Pending,
            claim_idx: 0,
            issue_seq: None,
        });
        self.enter_claim(id);
    }

    // -- atomic claim policy -------------------------------------------------

    /// Whether the receive side can accept this message right now, and how.
    /// `Ok(true)` = direct into a posted buffer, `Ok(false)` = via the system
    /// buffer. `Err(())` = must wait (buffer full).
    pub(crate) fn delivery_mode(&mut self, t_idx: TransferId) -> Result<bool, ()> {
        let t = &self.transfers[t_idx];
        let (dst, src, tag, bytes) = (t.dst as usize, t.src, t.tag, t.bytes);
        match self.recv[t.slot as usize].arrive() {
            Ok(RecvState::InFlightDirect) => Ok(true),
            Ok(_) => {
                let used = self.nodes[dst].buffer_used;
                match self.params.buffer_bytes {
                    Some(cap) if used + u64::from(bytes) > cap => Err(()),
                    _ => Ok(false),
                }
            }
            Err(other) => {
                self.error(
                    dst,
                    format!("second message ({src},{tag:?}) while first is {other:?}"),
                );
                Err(())
            }
        }
    }

    /// The sender-side head-of-line condition: only the oldest unissued
    /// long-protocol transfer of a node may claim resources.
    pub(crate) fn issue_ok(&self, t: &Transfer) -> bool {
        t.issue_seq
            .is_none_or(|s| s == self.nodes[t.src as usize].issue_cursor)
    }

    /// Whether pending transfer `id` can start right now: `Ok(direct)`
    /// with its delivery mode, or the first busy condition in the way —
    /// sender-side issue order, then the router's resources, then
    /// delivery at the destination.
    fn admission(&mut self, id: TransferId) -> Result<bool, Blocker> {
        let t = &self.transfers[id];
        if !self.issue_ok(t) {
            return Err(Blocker::Issue(t.src));
        }
        let links = self.transfers.links_of(t.links);
        let busy = self.router.first_busy(t, links);
        debug_assert_eq!(busy.is_none(), self.router.can_claim_atomic(t, links, true));
        if let Some(on) = busy {
            return Err(on);
        }
        match t.kind {
            TKind::Data { .. } => {
                let dst = t.dst;
                self.delivery_mode(id).map_err(|()| Blocker::Delivery(dst))
            }
            _ => Ok(true),
        }
    }

    /// Rescan the pending set: oldest-first, first-fit — a transfer starts
    /// as soon as every resource it needs is simultaneously free. Only
    /// candidates are examined (new arrivals and watchers of a released
    /// condition); everything parked is still infeasible. One age-ordered
    /// pass reaches the fixed point because activation only *consumes*
    /// resources, except for the issue cursor it advances — and the
    /// transfer that wakes joins this same pass at its own age.
    pub(crate) fn request_retry(&mut self) {
        while let Some(id) = self.router.pending.next_candidate() {
            self.stats_claim_checks += 1;
            match self.admission(id) {
                Ok(direct) => self.activate(id, direct),
                Err(on) => self.router.pending.park(id, on),
            }
            if self.err.is_some() {
                return;
            }
        }
        #[cfg(test)]
        self.assert_parked_infeasible();
    }

    /// The exact-predicate sweep: after a rescan, no parked transfer may
    /// pass `can_claim_atomic` + `delivery_mode`.
    #[cfg(test)]
    fn assert_parked_infeasible(&mut self) {
        for id in self.router.pending.parked() {
            let t = &self.transfers[id];
            let links = self.transfers.links_of(t.links);
            if !self.router.can_claim_atomic(t, links, self.issue_ok(t)) {
                continue;
            }
            let data = matches!(t.kind, TKind::Data { .. });
            assert!(
                data && self.delivery_mode(id).is_err() && self.err.is_none(),
                "parked transfer {id} is feasible"
            );
        }
    }

    pub(crate) fn activate(&mut self, id: TransferId, direct: bool) {
        let t = &self.transfers[id];
        let (kind, src, dst) = (t.kind, t.src as usize, t.dst);
        let links = self.transfers.links_of(t.links);
        self.router.claim_atomic(id, t, links);
        // Receive-side bookkeeping. The admitted message may have taken
        // the `(src, tag)` slot a delivery watcher was counting on.
        if matches!(kind, TKind::Data { .. }) {
            self.mark_delivery(id, direct);
            self.router.pending.wake(Blocker::Delivery(dst));
        }
        if let Some(s) = self.transfers[id].issue_seq {
            debug_assert_eq!(s, self.nodes[src].issue_cursor);
            self.nodes[src].issue_cursor = s + 1;
            self.router.pending.wake(Blocker::Issue(src as u32));
        }
        self.start(id);
    }

    /// Start a transfer that holds everything it needs: it goes active,
    /// the wait since its request counts as blocked time, its completion
    /// is scheduled and the start is traced — under either claim policy.
    fn start(&mut self, id: TransferId) {
        let t = &mut self.transfers[id];
        t.state = TState::Active;
        if self.now > t.request_ns {
            let delay = self.now - t.request_ns;
            self.stats_blocked += 1;
            self.stats_blocked_ns += delay;
            self.stats_blocked_max = self.stats_blocked_max.max(delay);
        }
        let (src, dst, tag, bytes) = (t.src, t.dst, t.tag, t.bytes);
        self.queue.push(self.now + t.duration, EvKind::XferDone(id));
        self.trace_push(TraceKind::Started, src, dst, tag, bytes);
    }

    /// Record how an admitted data transfer will land at the receiver:
    /// directly into the posted buffer, or parked in the system buffer.
    pub(crate) fn mark_delivery(&mut self, id: TransferId, direct: bool) {
        let t = &self.transfers[id];
        let (dst, bytes) = (t.dst as usize, t.bytes);
        let state = &mut self.recv[t.slot as usize];
        *state = state.arrive().expect("delivery_mode admitted it");
        if !direct {
            self.nodes[dst].buffer_in(bytes);
        }
    }

    // -- hold-and-wait claim policy ------------------------------------------

    /// Resource at claim step `idx` for a transfer: 0 = send port, then one
    /// slot per link of the route, then the receive port, then delivery.
    pub(crate) fn hw_advance(&mut self, id: TransferId) {
        loop {
            if self.err.is_some() || self.transfers[id].state != TState::Claiming {
                return;
            }
            let t = &self.transfers[id];
            let (kind, src, dst, nlinks, idx) =
                (t.kind, t.src, t.dst, t.links.len(), t.claim_idx as usize);
            let recv_port = self.router.recv_port(dst);
            if kind == TKind::Copy {
                // Copies only need the receive port.
                if idx == 0 {
                    if !self.router.hw_claim(recv_port, id) {
                        return;
                    }
                    self.transfers[id].claim_idx = 1;
                }
                self.start(id);
                return;
            }
            if idx == 0 {
                // Send port.
                if !self.router.hw_claim(Blocker::Engine(src), id) {
                    return;
                }
                self.transfers[id].claim_idx = 1;
                continue;
            }
            if idx <= nlinks {
                let link = self.transfers.links_of(t.links)[idx - 1];
                if !self.router.hw_claim(Blocker::Link(link.index()), id) {
                    return;
                }
                self.transfers[id].claim_idx += 1;
                // The circuit probe takes hop_ns to cross this link.
                if self.params.hop_ns > 0 {
                    self.queue
                        .push(self.now + self.params.hop_ns, EvKind::XferAdvance(id));
                    return;
                }
                continue;
            }
            if idx == nlinks + 1 {
                // Receive port.
                if !self.router.hw_claim(recv_port, id) {
                    return;
                }
                self.transfers[id].claim_idx += 1;
                continue;
            }
            // Delivery condition: the circuit is fully established and holds
            // everything while waiting (tree saturation / deadlock hazard).
            match self.delivery_mode(id) {
                Ok(direct) => {
                    self.mark_delivery(id, direct);
                    self.start(id);
                }
                Err(()) => {
                    if self.err.is_none() {
                        self.transfers[id].state = TState::WaitDelivery;
                        self.router.pending.park(id, Blocker::Delivery(dst));
                    }
                }
            }
            return;
        }
    }

    /// A post or a drained buffer at `node` may admit what waits on
    /// delivery there: parked transfers are examined again (atomic);
    /// established circuits, which held everything while they waited,
    /// start in arrival order (hold-and-wait).
    pub(crate) fn delivery_freed(&mut self, node: usize) {
        let on = Blocker::Delivery(node as u32);
        if self.params.claim == ClaimPolicy::Atomic {
            self.router.pending.wake(on);
            self.request_retry();
            return;
        }
        let mut id = self.router.pending.take_waiters(on);
        while id != NONE {
            debug_assert_eq!(self.transfers[id].state, TState::WaitDelivery);
            let next = self.router.pending.next_waiter(id);
            match self.delivery_mode(id) {
                Ok(direct) => {
                    self.transfers[id].state = TState::Claiming;
                    self.mark_delivery(id, direct);
                    self.start(id);
                }
                Err(()) => {
                    if self.err.is_some() {
                        return;
                    }
                    self.router.pending.park(id, on);
                }
            }
            id = next;
        }
    }

    // -- completion -----------------------------------------------------------

    pub(crate) fn finish_transfer(&mut self, id: TransferId) {
        let t = &mut self.transfers[id];
        t.state = TState::Done;
        let (kind, src, dst, bytes, tag, slot, duration, links) = (
            t.kind,
            t.src as usize,
            t.dst as usize,
            t.bytes,
            t.tag,
            t.slot,
            t.duration,
            t.links,
        );
        self.trace_push(TraceKind::Finished, src as u32, dst as u32, tag, bytes);

        // Release resources and account busy time: the node sides in claim
        // order, then the circuit.
        let (send_side, recv_side) = self.router.ports_of(&self.transfers[id]);
        if let Some(send_side) = send_side {
            self.release(send_side, id, 0);
            self.nodes[src].stats.engine_busy_ns += duration;
        }
        self.release(recv_side, id, 0);
        self.nodes[dst].stats.engine_busy_ns += duration;
        for i in 0..links.len() {
            let link = self.transfers.links_of(links)[i];
            self.release(Blocker::Link(link.index()), id, duration);
        }

        // Deliver / update protocol state.
        match kind {
            TKind::Copy => {
                self.nodes[dst].buffer_used -= u64::from(bytes);
                self.stats_copies += 1;
                self.recv[slot as usize] = RecvState::Delivered;
                self.nodes[dst].unfinished_recvs -= 1;
                self.trace_push(TraceKind::Copied, src as u32, dst as u32, tag, bytes);
                if self.nodes[dst].wake_receiver(src as u32, tag) {
                    self.schedule_resume(dst);
                }
                // Freed buffer space may unblock parked circuits or pending
                // transfers.
                self.delivery_freed(dst);
            }
            TKind::Data { exchange_part } => {
                let after = match self.recv[slot as usize].land(bytes) {
                    Ok(after) => after,
                    Err(other) => {
                        self.error(dst, format!("delivery into bad state {other:?}"));
                        return;
                    }
                };
                self.recv[slot as usize] = after;
                self.nodes[dst].stats.recvs += 1;
                if after == RecvState::Delivered {
                    self.nodes[dst].unfinished_recvs -= 1;
                    self.nodes[dst].stats.direct_bytes += u64::from(bytes);
                    if self.nodes[dst].wake_receiver(src as u32, tag) {
                        self.schedule_resume(dst);
                    }
                } else {
                    self.nodes[dst].stats.buffered_bytes += u64::from(bytes);
                    self.trace_push(TraceKind::Buffered, src as u32, dst as u32, tag, bytes);
                    if after == RecvState::Copying {
                        self.create_copy_transfer(dst as u32, src as u32, bytes, tag, slot);
                    }
                }
                // Sender-side completion.
                self.nodes[src].outstanding_sends -= 1;
                if self.nodes[src].wake_sender(id) {
                    self.schedule_resume(src);
                }
                if exchange_part {
                    self.finish_exchange_part(src);
                    self.finish_exchange_part(dst);
                }
                if self.params.claim == ClaimPolicy::Atomic {
                    self.request_retry();
                }
            }
            TKind::Fused => {
                self.nodes[src].stats.recvs += 1;
                self.nodes[dst].stats.recvs += 1;
                // The initiator (src) receives the reverse direction's
                // payload; the partner receives the forward one.
                self.nodes[src].stats.direct_bytes += u64::from(self.transfers[id].rev_bytes);
                self.nodes[dst].stats.direct_bytes += u64::from(bytes);
                self.finish_exchange_part(src);
                self.finish_exchange_part(dst);
                self.request_retry();
            }
        }
        // The transfer's events have all fired, its resources are released,
        // and nothing holds its id any more: return the slot to the arena.
        self.transfers.recycle(id);
    }

    /// Free `on`, held by `id`, accounting `busy_ns` on it; whoever waits
    /// there is examined again (atomic) or, first in line, takes it over
    /// and is re-advanced (hold-and-wait).
    fn release(&mut self, on: Blocker, id: TransferId, busy_ns: u64) {
        if !self.router.release(on, id, busy_ns) {
            return;
        }
        match self.params.claim {
            ClaimPolicy::Atomic => self.router.pending.wake(on),
            ClaimPolicy::HoldAndWait => {
                if let Some(next) = self.router.hand_off(on) {
                    self.queue.push(self.now, EvKind::XferAdvance(next));
                }
            }
        }
    }

    pub(crate) fn finish_exchange_part(&mut self, node: usize) {
        if self.nodes[node].finish_exchange_part() {
            self.schedule_resume(node);
        }
    }
}

#[cfg(test)]
mod tests {
    //! Under `cfg(test)` every rescan ends with the exact-predicate sweep
    //! (`assert_parked_infeasible`), so these runs check the parking
    //! invariant at every step of dense, contended traffic.

    use std::collections::HashMap;

    use hypercube::{Hypercube, NodeId};

    use crate::cost::LinkCostModel;
    use crate::sim::Sim;
    use crate::trace::TraceKind;
    use crate::{simulate, MachineParams, Op, PortModel, Program, SimError, Tag};

    const N: u32 = 16;

    /// Every node sends to its 12 successors, short and long protocol
    /// interleaved. `posts_first` is the S2 shape; otherwise receives are
    /// posted late, so arrivals fill the system buffers and queue on
    /// delivery until posts and copies drain them.
    fn dense_programs(posts_first: bool) -> Vec<Program> {
        (0..N)
            .map(|me| {
                let mut b = Program::builder();
                let posts = |b: &mut crate::ProgramBuilder| {
                    for k in 1..=12 {
                        b.post_recv(NodeId((me + N - k) % N), Tag(0));
                    }
                };
                if posts_first {
                    posts(&mut b);
                }
                for k in 1..=12 {
                    let bytes = if (me + k) % 3 == 0 { 64 } else { 4096 };
                    b.send_async(NodeId((me + k) % N), bytes, Tag(0));
                }
                if !posts_first {
                    b.compute(3_000_000);
                    posts(&mut b);
                }
                b.wait_all_sends();
                b.wait_all_recvs();
                b.build()
            })
            .collect()
    }

    /// Pairwise exchanges along every cube dimension, then a dense blast:
    /// fused (unified ports) or split exchange parts contend with data.
    fn exchange_programs() -> Vec<Program> {
        (0..N)
            .map(|me| {
                let mut b = Program::builder();
                for k in 1..=6 {
                    b.post_recv(NodeId((me + N - k) % N), Tag(9));
                }
                for dim in 0..4 {
                    b.exchange(NodeId(me ^ (1 << dim)), 2048, 2048, Tag(dim));
                    b.send_async(NodeId((me + dim + 1) % N), 1024, Tag(9));
                }
                b.send_async(NodeId((me + 5) % N), 64, Tag(9));
                b.send_async(NodeId((me + 6) % N), 64, Tag(9));
                b.wait_all_sends();
                b.wait_all_recvs();
                b.build()
            })
            .collect()
    }

    fn machines() -> Vec<MachineParams> {
        let base = MachineParams::ipsc860();
        let mut out = Vec::new();
        for ports in [PortModel::Unified, PortModel::Split] {
            for buffer_bytes in [None, Some(64 * 1024), Some(8 * 1024)] {
                out.push(MachineParams {
                    ports,
                    buffer_bytes,
                    ..base.clone()
                });
            }
        }
        out
    }

    #[test]
    fn no_parked_transfer_is_ever_feasible() {
        let cube = Hypercube::new(4);
        let mut contended = 0;
        for params in machines() {
            for programs in [
                dense_programs(true),
                dense_programs(false),
                exchange_programs(),
            ] {
                match simulate(&cube, &params, programs) {
                    Ok(report) => {
                        let stats = report.stats;
                        assert!(stats.claim_checks >= stats.transfers);
                        contended += stats.transfers_blocked;
                    }
                    // Tight buffers may deadlock the unposted variant; the
                    // sweep ran on every rescan up to that point.
                    Err(SimError::Deadlock { .. }) => {}
                    Err(e) => panic!("{e}"),
                }
            }
        }
        assert!(contended > 1000, "the battery is meant to contend");
    }

    #[test]
    fn delivery_watchers_wake_on_a_post_and_on_a_drained_buffer() {
        let cube = Hypercube::new(1);
        let params = MachineParams {
            buffer_bytes: Some(100),
            ..MachineParams::ipsc860()
        };
        // Tag 0 fits the buffer; tag 1 (160 > 100) waits on delivery until
        // tag 0's copy drains it; tag 2 still does not fit behind tag 1
        // and goes direct once its receive is posted.
        let mut sender = Program::builder();
        for tag in 0..3 {
            sender.send_async(NodeId(1), 80, Tag(tag));
        }
        sender.wait_all_sends();
        let mut receiver = Program::builder();
        receiver.compute(1_000_000);
        receiver.post_recv(NodeId(0), Tag(0));
        receiver.compute(1_000_000);
        receiver.post_recv(NodeId(0), Tag(2));
        receiver.compute(1_000_000);
        receiver.post_recv(NodeId(0), Tag(1));
        receiver.wait_all_recvs();
        let report = simulate(&cube, &params, vec![sender.build(), receiver.build()]).unwrap();
        assert_eq!(report.stats.copies, 2);
        assert_eq!(report.stats.nodes[1].direct_bytes, 80);
    }

    #[test]
    fn every_named_message_is_bound_to_exactly_one_slot() {
        // The binder against a map built the obvious way: over the dense
        // batteries, two ops share a slot iff they name one `(dst, src,
        // tag)`, slots are dense, and exchanges bind under split ports only.
        let cube = Hypercube::new(4);
        for params in machines() {
            let split = params.ports == PortModel::Split;
            for programs in [
                dense_programs(true),
                dense_programs(false),
                exchange_programs(),
            ] {
                let sim =
                    Sim::new(&cube, &params, &LinkCostModel::Uniform, programs, None).unwrap();
                let mut slot_of = HashMap::new();
                let mut bound = 0;
                for (node, program) in sim.programs.iter().enumerate() {
                    let me = node as u32;
                    for (pc, op) in program.ops().iter().enumerate() {
                        let message = match *op {
                            Op::PostRecv { src, tag } | Op::WaitRecv { src, tag } => {
                                (me, src.0, tag)
                            }
                            Op::Send { dst, tag, .. } | Op::SendAsync { dst, tag, .. } => {
                                (dst.0, me, tag)
                            }
                            Op::Exchange { partner, tag, .. } if split => (partner.0, me, tag),
                            _ => continue,
                        };
                        let slot = sim.op_slot[sim.nodes[node].op_base + pc];
                        assert_eq!(*slot_of.entry(message).or_insert(slot), slot);
                        bound += 1;
                    }
                }
                let mut slots: Vec<u32> = slot_of.values().copied().collect();
                slots.sort_unstable();
                assert!(slots.iter().copied().eq(0..sim.recv.len() as u32));
                assert!(bound > slots.len(), "posts and sends meet in one slot");
            }
        }
    }

    #[test]
    fn unposted_arrivals_and_never_sent_posts_get_slots() {
        let cube = Hypercube::new(1);
        let mut sender = Program::builder();
        sender
            .send(NodeId(1), 64, Tag(1))
            .send(NodeId(1), 64, Tag(2));
        let mut receiver = Program::builder();
        receiver
            .post_recv(NodeId(0), Tag(2))
            .post_recv(NodeId(0), Tag(3));
        let programs = vec![sender.build(), receiver.build()];
        let params = MachineParams::ipsc860();
        let sim = Sim::new(&cube, &params, &LinkCostModel::Uniform, programs, None).unwrap();
        // Tags 1 (never posted), 2, 3 (never sent), in key order.
        assert_eq!(sim.recv.len(), 3);
        assert_eq!(sim.op_slot, [0, 1, 1, 2]);
    }

    #[test]
    fn hold_and_wait_grants_a_link_an_engine_and_a_port_in_arrival_order() {
        // On cube:d=6 the transfers of a scenario need one shared resource
        // and nothing else in common: the first sender holds it for ~50 ms
        // of a 128 KiB message while the others arrive a millisecond apart
        // and queue. e-cube routes 7->15, 6->31, 5->47 and 3->63 all cross
        // link 7->15; the engine's and the port's partners are neighbours.
        let link = [(7, 15), (6, 31), (5, 47), (3, 63)];
        let engine = [(9, 8), (9, 11), (9, 13), (9, 1)];
        let port = [(32, 33), (35, 33), (37, 33), (41, 33)];
        let cube = Hypercube::new(6);
        let params = MachineParams::ipsc860_hold_and_wait();
        for scenario in [link, engine, port] {
            let mut builders = vec![Program::builder(); 64];
            for (i, &(src, dst)) in scenario.iter().enumerate() {
                let tag = Tag(i as u32);
                builders[dst].post_recv(NodeId(src as u32), tag);
                // One sender (the engine scenario) issues back to back.
                if src != scenario[0].0 || i == 0 {
                    builders[src].compute(1 + 1_000_000 * i as u64);
                }
                builders[src].send_async(NodeId(dst as u32), 128 * 1024, tag);
            }
            let programs = builders
                .into_iter()
                .map(|mut b| {
                    b.wait_all_sends().wait_all_recvs();
                    b.build()
                })
                .collect();
            let mut trace = Vec::new();
            let cost = &LinkCostModel::Uniform;
            let mut sim = Sim::new(&cube, &params, cost, programs, Some(&mut trace)).unwrap();
            sim.drain().unwrap();
            let events = |kind| {
                let trace = sim.trace.as_ref().unwrap().iter();
                trace.filter(move |e| e.kind == kind)
            };
            let started: Vec<_> = events(TraceKind::Started)
                .map(|e| (e.src.index(), e.dst.index()))
                .collect();
            assert_eq!(started, scenario, "granted in arrival order");
            // No double grant: a transfer re-advanced by a release holds
            // what it was handed, so each starts only once the one before
            // it has finished.
            let finished: Vec<u64> = events(TraceKind::Finished).map(|e| e.time_ns).collect();
            for (next, done) in events(TraceKind::Started).skip(1).zip(&finished) {
                assert!(next.time_ns >= *done);
            }
            assert!(sim.nodes.iter().all(|n| n.done));
            assert!(
                sim.router.pending.all_idle(),
                "a queue end outlived the run"
            );
        }
    }

    #[test]
    fn a_sequence_number_past_its_field_is_a_typed_error() {
        let cube = Hypercube::new(1);
        let mut sender = Program::builder();
        sender.send(NodeId(1), 64, Tag(0));
        let mut receiver = Program::builder();
        receiver.post_recv(NodeId(0), Tag(0)).wait_all_recvs();
        let params = MachineParams::ipsc860();
        let programs = vec![sender.build(), receiver.build()];
        let mut sim = Sim::new(&cube, &params, &LinkCostModel::Uniform, programs, None).unwrap();
        sim.queue.exhaust_sequence_numbers();
        assert!(matches!(sim.run(), Err(SimError::EventBudgetExhausted)));
    }
}
