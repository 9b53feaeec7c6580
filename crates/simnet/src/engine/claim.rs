//! Transfer lifecycle: creation, the two circuit-claim policies (atomic
//! all-or-nothing and hold-and-wait incremental), delivery, and
//! completion. A second `impl` block of the driver's `Sim`, split out so
//! `sim.rs` stays the thin program-execution loop.

use hypercube::{NodeId, Path, Topology};

use crate::engine::arena::LinkRange;
use crate::engine::node::RecvState;
use crate::engine::parallel::{ScanJob, ScanPool};
use crate::engine::queue::{EvKind, TransferId};
use crate::engine::router::{TKind, TState, Transfer};
use crate::program::Tag;
use crate::sim::Sim;
use crate::trace::TraceKind;
use crate::{ClaimPolicy, PortModel};

impl<T: Topology + ?Sized> Sim<'_, T> {
    // -- transfer creation --------------------------------------------------

    /// The route a transfer will take under the active cost model:
    /// the topology's deterministic route (uniform fast path), a detour
    /// around down links, or `None` with [`crate::SimError::LinkDown`]
    /// staged in `self.err` — the main loop surfaces it after the
    /// current event.
    fn resolve_route(&mut self, src: u32, dst: u32) -> Option<Path> {
        match crate::cost::resolve_route(self.topo, self.cost, NodeId(src), NodeId(dst)) {
            Ok(path) => Some(path),
            Err(e) => {
                self.err = Some(e);
                None
            }
        }
    }

    pub(crate) fn create_data_transfer(
        &mut self,
        src: u32,
        dst: u32,
        bytes: u32,
        tag: Tag,
        exchange_part: bool,
    ) -> Option<TransferId> {
        let path = self.resolve_route(src, dst)?;
        let mut duration = match self.params.claim {
            ClaimPolicy::Atomic => self.cost.transfer_ns(self.params, bytes, path.links()),
            // Hold-and-wait pays per-hop cost during claiming instead;
            // the cost model's per-link extras still ride on the wire time.
            ClaimPolicy::HoldAndWait => {
                self.params.wire_ns(bytes) + self.cost.extra_ns(self.params, bytes, path.links())
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
                let seq = self.nodes[src as usize].issue_next;
                self.nodes[src as usize].issue_next += 1;
                seq
            });
        let links = self.transfers.push_links(path.links());
        let id = self.transfers.alloc(Transfer {
            kind: TKind::Data { exchange_part },
            src,
            dst,
            bytes,
            rev_bytes: 0,
            tag,
            links,
            duration,
            request_ns: self.now + initiation,
            start_ns: 0,
            state: TState::Pending,
            claim_idx: 0,
            issue_seq,
        });
        self.stats_transfers += 1;
        self.nodes[src as usize].outstanding_sends += 1;
        self.nodes[src as usize].stats.sends += 1;
        self.trace_push(TraceKind::Requested, src, dst, tag, bytes);
        if initiation > 0 {
            self.push_event(self.now + initiation, EvKind::XferAdvance(id));
            return Some(id);
        }
        match self.params.claim {
            ClaimPolicy::Atomic => {
                self.pending.push(id);
                self.request_retry();
            }
            ClaimPolicy::HoldAndWait => {
                self.transfers[id].state = TState::Claiming;
                self.hw_advance(id);
            }
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
        let Some(fwd) = self.resolve_route(a, b) else {
            return;
        };
        let Some(rev) = self.resolve_route(b, a) else {
            return;
        };
        let duration = self.params.exchange_sync_ns
            + self
                .cost
                .transfer_ns(self.params, ab_bytes, fwd.links())
                .max(self.cost.transfer_ns(self.params, ba_bytes, rev.links()));
        let links = self.transfers.push_links_pair(fwd.links(), rev.links());
        let id = self.transfers.alloc(Transfer {
            kind: TKind::Fused,
            src: a,
            dst: b,
            bytes: ab_bytes,
            rev_bytes: ba_bytes,
            tag,
            links,
            duration,
            request_ns: self.now,
            start_ns: 0,
            state: TState::Pending,
            claim_idx: 0,
            issue_seq: None,
        });
        self.stats_transfers += 1;
        self.nodes[a as usize].stats.sends += 1;
        self.nodes[b as usize].stats.sends += 1;
        self.trace_push(TraceKind::Requested, a, b, tag, ab_bytes.max(ba_bytes));
        self.pending.push(id);
        self.request_retry();
    }

    pub(crate) fn create_copy_transfer(&mut self, node: u32, src: u32, bytes: u32, tag: Tag) {
        let id = self.transfers.alloc(Transfer {
            kind: TKind::Copy,
            src,
            dst: node,
            bytes,
            rev_bytes: 0,
            tag,
            links: LinkRange::EMPTY,
            duration: self.params.copy_ns(bytes),
            request_ns: self.now,
            start_ns: 0,
            state: TState::Pending,
            claim_idx: 0,
            issue_seq: None,
        });
        match self.params.claim {
            ClaimPolicy::Atomic => {
                self.pending.push(id);
                self.request_retry();
            }
            ClaimPolicy::HoldAndWait => {
                self.transfers[id].state = TState::Claiming;
                self.hw_advance(id);
            }
        }
    }

    // -- atomic claim policy -------------------------------------------------

    /// Whether the receive side can accept this message right now, and how.
    /// `Ok(true)` = direct into a posted buffer, `Ok(false)` = via the system
    /// buffer. `Err(())` = must wait (buffer full).
    pub(crate) fn delivery_mode(&mut self, t_idx: TransferId) -> Result<bool, ()> {
        let (dst, src, tag, bytes) = {
            let t = &self.transfers[t_idx];
            (t.dst as usize, t.src, t.tag, t.bytes)
        };
        match self.nodes[dst].recvs.get(&(src, tag.0)) {
            Some(RecvState::Posted) => Ok(true),
            Some(other) => {
                let other = *other;
                self.error(
                    dst,
                    format!("second message ({src},{tag:?}) while first is {other:?}"),
                );
                Err(())
            }
            None => {
                let used = self.nodes[dst].buffer_used;
                match self.params.buffer_bytes {
                    Some(cap) if used + u64::from(bytes) > cap => Err(()),
                    _ => Ok(false),
                }
            }
        }
    }

    /// The sender-side head-of-line condition: only the oldest unissued
    /// long-protocol transfer of a node may claim resources.
    pub(crate) fn issue_ok(&self, t: &Transfer) -> bool {
        t.issue_seq
            .is_none_or(|s| s == self.nodes[t.src as usize].issue_cursor)
    }

    /// Ask for a pending-set rescan. Sequential mode scans immediately
    /// (byte-identical to the historical engine); the parallel
    /// conservative-lookahead mode defers the scan to the end of the
    /// current timestamp batch (`Sim::run` drains it before the clock
    /// advances), collapsing the many same-time rescans of a dense
    /// completion burst into one batched pass.
    pub(crate) fn request_retry(&mut self) {
        if self.batched {
            self.scan_due = true;
        } else {
            self.retry_pending();
        }
    }

    pub(crate) fn retry_pending(&mut self) {
        // Oldest-first, first-fit: a transfer starts as soon as every
        // resource it needs is simultaneously free.
        let mut i = 0;
        while i < self.pending.len() {
            let id = self.pending[i];
            self.stats_claim_checks += 1;
            let t = &self.transfers[id];
            let links = self.transfers.links_of(t.links);
            if !self.router.can_claim_atomic(t, links, self.issue_ok(t)) {
                i += 1;
                continue;
            }
            // Delivery feasibility (posted buffer or system-buffer space).
            let deliverable = match self.transfers[id].kind {
                TKind::Data { .. } => self.delivery_mode(id).ok(),
                _ => Some(true),
            };
            if self.err.is_some() {
                return;
            }
            let Some(direct) = deliverable else {
                i += 1;
                continue;
            };
            self.pending.remove(i);
            self.activate(id, direct);
            // Restart the scan: activating may have consumed resources that
            // earlier-pended transfers were also waiting for, but it cannot
            // have *freed* anything, so continuing from `i` is also sound;
            // we restart for strict oldest-first fairness.
            i = 0;
        }
    }

    /// The parallel mode's deferred rescan: one age-ordered commit pass
    /// over a snapshot of the pending set, optionally prefiltered by the
    /// work-stealing feasibility scan ([`Sim::feasibility_flags`]).
    ///
    /// A single pass reaches the fixed point because activation only
    /// *consumes* resources — a candidate rejected earlier in the pass
    /// cannot become feasible later in it (the sequential scan's own
    /// comment makes the same argument for continuing instead of
    /// restarting). Commit order is the sequential oldest-first order;
    /// every prefilter flag is re-validated under the exact predicate
    /// before claiming, so the flags only save work, never change the
    /// outcome of this pass.
    pub(crate) fn retry_pending_batched(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let snap = std::mem::take(&mut self.pending);
        let flags = self.feasibility_flags(&snap);
        let mut keep = Vec::new();
        for (i, &id) in snap.iter().enumerate() {
            if self.err.is_some() {
                keep.push(id);
                continue;
            }
            if flags.as_ref().is_some_and(|f| !f[i]) {
                keep.push(id);
                continue;
            }
            self.stats_claim_checks += 1;
            let t = &self.transfers[id];
            let links = self.transfers.links_of(t.links);
            if !self.router.can_claim_atomic(t, links, self.issue_ok(t)) {
                keep.push(id);
                continue;
            }
            let deliverable = match self.transfers[id].kind {
                TKind::Data { .. } => self.delivery_mode(id).ok(),
                _ => Some(true),
            };
            if self.err.is_some() {
                keep.push(id);
                continue;
            }
            let Some(direct) = deliverable else {
                keep.push(id);
                continue;
            };
            self.activate(id, direct);
        }
        self.pending = keep;
    }

    /// Fan the feasibility scan out over the worker pool. `None` means
    /// "scan inline" — parallelism only pays for itself on big batches.
    fn feasibility_flags(&mut self, snap: &[TransferId]) -> Option<Vec<bool>> {
        /// Below this batch size the sequential scan beats the hand-off.
        const PAR_SCAN_MIN: usize = 512;
        if self.par_threads < 2 || snap.len() < PAR_SCAN_MIN {
            return None;
        }
        let pool = self
            .scan_pool
            .get_or_insert_with(|| ScanPool::new(self.par_threads));
        // `forbid(unsafe_code)` rules out scoped borrows across threads:
        // move the router and arena into the job, reclaim them after.
        let job = ScanJob::new(
            std::mem::take(&mut self.router),
            std::mem::take(&mut self.transfers),
            snap.to_vec(),
        );
        let job = pool.scan(job);
        self.router = job.router;
        self.transfers = job.transfers;
        Some(
            job.flags
                .iter()
                .map(|f| f.load(std::sync::atomic::Ordering::Relaxed))
                .collect(),
        )
    }

    pub(crate) fn activate(&mut self, id: TransferId, direct: bool) {
        let t = &self.transfers[id];
        let (kind, src, dst, bytes, tag, duration) = (
            t.kind,
            t.src as usize,
            t.dst as usize,
            t.bytes,
            t.tag,
            t.duration,
        );
        let links = self.transfers.links_of(t.links);
        self.router.claim_atomic(id, t, links);
        // Receive-side bookkeeping.
        if matches!(kind, TKind::Data { .. }) {
            self.mark_delivery(id, direct);
        }
        let t = &mut self.transfers[id];
        t.state = TState::Active;
        t.start_ns = self.now;
        if let Some(s) = t.issue_seq {
            debug_assert_eq!(s, self.nodes[src].issue_cursor);
            self.nodes[src].issue_cursor = s + 1;
        }
        if self.now > t.request_ns {
            let delay = self.now - t.request_ns;
            self.stats_blocked += 1;
            self.stats_blocked_ns += delay;
            self.stats_blocked_max = self.stats_blocked_max.max(delay);
        }
        self.push_event(self.now + duration, EvKind::XferDone(id));
        self.trace_push(TraceKind::Started, src as u32, dst as u32, tag, bytes);
    }

    /// Record how an admitted data transfer will land at the receiver:
    /// directly into the posted buffer, or parked in the system buffer.
    pub(crate) fn mark_delivery(&mut self, id: TransferId, direct: bool) {
        let (src, dst, bytes, tag) = {
            let t = &self.transfers[id];
            (t.src, t.dst as usize, t.bytes, t.tag)
        };
        let key = (src, tag.0);
        if direct {
            self.nodes[dst].recvs.insert(key, RecvState::InFlightDirect);
        } else {
            self.nodes[dst].recvs.insert(
                key,
                RecvState::BufArriving {
                    posted_meanwhile: false,
                },
            );
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
            let (kind, src, dst, nlinks, idx) = {
                let t = &self.transfers[id];
                (
                    t.kind,
                    t.src as usize,
                    t.dst as usize,
                    t.links.len(),
                    t.claim_idx,
                )
            };
            if kind == TKind::Copy {
                // Copies only need the receive port.
                if idx == 0 {
                    if !self.router.hw_claim_recv_port(dst, id) {
                        return;
                    }
                    self.transfers[id].claim_idx = 1;
                }
                self.hw_activate(id);
                return;
            }
            if idx == 0 {
                // Send port.
                if !self.router.hw_claim_engine(src, id) {
                    return;
                }
                self.transfers[id].claim_idx = 1;
                continue;
            }
            if idx <= nlinks {
                let range = self.transfers[id].links;
                let link = self.transfers.links_of(range)[idx - 1];
                if !self.router.hw_claim_link(link, id) {
                    return;
                }
                self.transfers[id].claim_idx = idx + 1;
                // The circuit probe takes hop_ns to cross this link.
                if self.params.hop_ns > 0 {
                    self.push_event(self.now + self.params.hop_ns, EvKind::XferAdvance(id));
                    return;
                }
                continue;
            }
            if idx == nlinks + 1 {
                // Receive port.
                if !self.router.hw_claim_recv_port(dst, id) {
                    return;
                }
                self.transfers[id].claim_idx = idx + 1;
                continue;
            }
            // Delivery condition: the circuit is fully established and holds
            // everything while waiting (tree saturation / deadlock hazard).
            match self.delivery_mode(id) {
                Ok(direct) => {
                    self.mark_delivery(id, direct);
                    self.hw_activate(id);
                }
                Err(()) => {
                    if self.err.is_none() {
                        self.transfers[id].state = TState::WaitDelivery;
                        self.nodes[dst].delivery_waiters.push(id);
                    }
                }
            }
            return;
        }
    }

    pub(crate) fn hw_activate(&mut self, id: TransferId) {
        let t = &mut self.transfers[id];
        t.state = TState::Active;
        t.start_ns = self.now;
        let duration = t.duration;
        if self.now > t.request_ns {
            let delay = self.now - t.request_ns;
            self.stats_blocked += 1;
            self.stats_blocked_ns += delay;
            self.stats_blocked_max = self.stats_blocked_max.max(delay);
        }
        let (src, dst, tag, bytes) = (t.src, t.dst, t.tag, t.bytes);
        self.push_event(self.now + duration, EvKind::XferDone(id));
        self.trace_push(TraceKind::Started, src, dst, tag, bytes);
    }

    pub(crate) fn check_delivery_waiters(&mut self, node: usize) {
        if self.nodes[node].delivery_waiters.is_empty() {
            return;
        }
        let waiters = std::mem::take(&mut self.nodes[node].delivery_waiters);
        for id in waiters {
            if self.transfers[id].state != TState::WaitDelivery {
                continue;
            }
            match self.delivery_mode(id) {
                Ok(direct) => {
                    self.transfers[id].state = TState::Claiming;
                    self.mark_delivery(id, direct);
                    self.hw_activate(id);
                }
                Err(()) => {
                    if self.err.is_some() {
                        return;
                    }
                    self.nodes[node].delivery_waiters.push(id);
                }
            }
        }
    }

    // -- completion -----------------------------------------------------------

    pub(crate) fn finish_transfer(&mut self, id: TransferId) {
        let (kind, src, dst, bytes, tag, duration) = {
            let t = &self.transfers[id];
            (
                t.kind,
                t.src as usize,
                t.dst as usize,
                t.bytes,
                t.tag,
                t.duration,
            )
        };
        self.transfers[id].state = TState::Done;
        self.trace_push(TraceKind::Finished, src as u32, dst as u32, tag, bytes);

        // Release resources and account busy time.
        match kind {
            TKind::Copy => {
                match self.params.ports {
                    PortModel::Unified => self.release_engine(dst, id),
                    PortModel::Split => self.release_recv_port(dst, id),
                }
                self.nodes[dst].stats.engine_busy_ns += duration;
            }
            TKind::Data { .. } => {
                self.release_engine(src, id);
                match self.params.ports {
                    PortModel::Unified => self.release_engine(dst, id),
                    PortModel::Split => self.release_recv_port(dst, id),
                }
                self.release_links(id, duration);
                self.nodes[src].stats.engine_busy_ns += duration;
                self.nodes[dst].stats.engine_busy_ns += duration;
            }
            TKind::Fused => {
                self.release_engine(src, id);
                self.release_engine(dst, id);
                self.release_links(id, duration);
                self.nodes[src].stats.engine_busy_ns += duration;
                self.nodes[dst].stats.engine_busy_ns += duration;
            }
        }

        // Deliver / update protocol state.
        match kind {
            TKind::Copy => {
                self.nodes[dst].buffer_used -= u64::from(bytes);
                self.stats_copies += 1;
                self.nodes[dst]
                    .recvs
                    .insert((src as u32, tag.0), RecvState::Delivered);
                self.nodes[dst].unfinished_recvs -= 1;
                self.trace_push(TraceKind::Copied, src as u32, dst as u32, tag, bytes);
                if self.nodes[dst].wake_receiver(src as u32, tag) {
                    self.schedule_resume(dst);
                }
                // Freed buffer space may unblock parked circuits or pending
                // transfers.
                self.check_delivery_waiters(dst);
                if self.params.claim == ClaimPolicy::Atomic {
                    self.request_retry();
                }
            }
            TKind::Data { exchange_part } => {
                let key = (src as u32, tag.0);
                let state = *self.nodes[dst]
                    .recvs
                    .get(&key)
                    .expect("active transfer must have a recv entry");
                match state {
                    RecvState::InFlightDirect => {
                        self.nodes[dst].recvs.insert(key, RecvState::Delivered);
                        self.nodes[dst].unfinished_recvs -= 1;
                        self.nodes[dst].stats.direct_bytes += u64::from(bytes);
                        self.nodes[dst].stats.recvs += 1;
                        if self.nodes[dst].wake_receiver(src as u32, tag) {
                            self.schedule_resume(dst);
                        }
                    }
                    RecvState::BufArriving { posted_meanwhile } => {
                        self.nodes[dst].stats.buffered_bytes += u64::from(bytes);
                        self.nodes[dst].stats.recvs += 1;
                        self.trace_push(TraceKind::Buffered, src as u32, dst as u32, tag, bytes);
                        if posted_meanwhile {
                            self.nodes[dst].recvs.insert(key, RecvState::Copying);
                            self.create_copy_transfer(dst as u32, src as u32, bytes, tag);
                        } else {
                            self.nodes[dst]
                                .recvs
                                .insert(key, RecvState::Buffered(bytes));
                        }
                    }
                    other => {
                        self.error(dst, format!("delivery into bad state {other:?}"));
                        return;
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

    pub(crate) fn release_engine(&mut self, node: usize, id: TransferId) {
        if let Some(next) = self.router.release_engine(node, id) {
            self.push_event(self.now, EvKind::XferAdvance(next));
        }
    }

    pub(crate) fn release_recv_port(&mut self, node: usize, id: TransferId) {
        if let Some(next) = self.router.release_recv_port(node, id) {
            self.push_event(self.now, EvKind::XferAdvance(next));
        }
    }

    pub(crate) fn release_links(&mut self, id: TransferId, duration: u64) {
        let range = self.transfers[id].links;
        let mut woken = Vec::new();
        let links = self.transfers.links_of(range);
        self.router
            .release_links(id, links, duration, |next| woken.push(next));
        for next in woken {
            self.push_event(self.now, EvKind::XferAdvance(next));
        }
    }

    pub(crate) fn finish_exchange_part(&mut self, node: usize) {
        if self.nodes[node].finish_exchange_part() {
            self.schedule_resume(node);
        }
    }
}
