//! The discrete-event driver: executes per-node programs against the
//! engine modules — the [`crate::engine::queue`] clock, the
//! [`crate::engine::node`] protocol state, and the
//! [`crate::engine::router`] circuit reservation — implementing the two
//! claim policies, message delivery, buffering, and deadlock detection.
//!
//! The driver binds before it runs: `Sim::new`'s validation walk also
//! gives every message `(dst, src, tag)` the programs name — posted,
//! awaited or sent — a dense *slot*, and every op its slot, so the event
//! loop reads and writes receive states by index and never looks a message
//! up by key.

use hypercube::{LinkId, NodeId, Topology};

use crate::cost::LinkCostModel;
use crate::engine::arena::TransferArena;
use crate::engine::node::{Block, ExchangeOffer, NodeState, RecvState};
use crate::engine::queue::{EvKind, EventQueue};
use crate::engine::router::{Router, TState};
use crate::program::{Op, Program, Tag};
use crate::stats::{SimError, SimReport, SimStats};
use crate::trace::{TraceEvent, TraceKind};
use crate::{MachineParams, PortModel};

/// Safety valve: no legitimate schedule on machines this crate targets comes
/// anywhere near this many events.
const EVENT_BUDGET: u64 = 100_000_000;

/// How a caller asks `commrt::DesBackend::with_exec` to execute. There
/// is one event loop and it is exact, so both spellings run it and return
/// identical results; `Parallel` remains an accepted spelling for the
/// callers that name it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// The single-threaded event loop.
    #[default]
    Sequential,
    /// Accepted for compatibility; runs the same loop.
    Parallel {
        /// Ignored.
        threads: usize,
    },
}

/// Run `programs` (one per node of `topo`) to completion on the paper's
/// uniform machine: [`simulate_with`] under [`LinkCostModel::Uniform`],
/// untraced.
///
/// # Errors
///
/// See [`SimError`]: invalid parameters, malformed programs, deadlock
/// (e.g. exhausted bounded buffers), or event-budget exhaustion.
pub fn simulate<T: Topology + ?Sized>(
    topo: &T,
    params: &MachineParams,
    programs: Vec<Program>,
) -> Result<SimReport, SimError> {
    simulate_with(topo, params, &LinkCostModel::Uniform, programs, None)
}

/// Run `programs` (one per node of `topo`) to completion, pricing
/// transfers under `cost`, and append every event the run records to
/// `trace` when a sink is given.
///
/// Routes that cross a down link detour where the fabric permits
/// ([`Topology::route_avoiding`]) and fail with [`SimError::LinkDown`]
/// where it does not; `LinkCostModel::Uniform` is byte-identical to
/// [`simulate`]. A run that fails leaves the events recorded up to the
/// failure in the sink.
///
/// # Errors
///
/// See [`simulate`], plus [`SimError::LinkDown`] for stranded transfers.
pub fn simulate_with<T: Topology + ?Sized>(
    topo: &T,
    params: &MachineParams,
    cost: &LinkCostModel,
    programs: Vec<Program>,
    trace: Option<&mut Vec<TraceEvent>>,
) -> Result<SimReport, SimError> {
    Sim::new(topo, params, cost, programs, trace)?.run()
}

pub(crate) struct Sim<'a, T: ?Sized> {
    pub(crate) topo: &'a T,
    pub(crate) params: &'a MachineParams,
    pub(crate) cost: &'a LinkCostModel,
    pub(crate) programs: Vec<Program>,
    /// Message slot of every op that names a message, all programs end to
    /// end (`NodeState::op_base` finds a node's first).
    pub(crate) op_slot: Vec<u32>,
    /// Receive-side state per message slot.
    pub(crate) recv: Vec<RecvState>,
    pub(crate) n: usize,
    pub(crate) queue: EventQueue,
    pub(crate) now: u64,
    pub(crate) nodes: Vec<NodeState>,
    pub(crate) transfers: TransferArena,
    /// The resource table, and the waiting lists of both claim policies.
    pub(crate) router: Router,
    /// Scratch for `Topology::route_into`.
    pub(crate) route: Vec<LinkId>,
    pub(crate) stats_transfers: u64,
    pub(crate) stats_blocked: u64,
    pub(crate) stats_blocked_ns: u64,
    pub(crate) stats_blocked_max: u64,
    pub(crate) stats_copies: u64,
    pub(crate) stats_claim_checks: u64,
    pub(crate) events: u64,
    pub(crate) last_activity_ns: u64,
    /// The caller's trace sink, if any.
    pub(crate) trace: Option<&'a mut Vec<TraceEvent>>,
    pub(crate) err: Option<SimError>,
}

impl<'a, T: Topology + ?Sized> Sim<'a, T> {
    pub(crate) fn new(
        topo: &'a T,
        params: &'a MachineParams,
        cost: &'a LinkCostModel,
        programs: Vec<Program>,
        trace: Option<&'a mut Vec<TraceEvent>>,
    ) -> Result<Self, SimError> {
        params.validate().map_err(SimError::BadParams)?;
        let n = topo.num_nodes();
        if programs.len() != n {
            return Err(SimError::BadParams(format!(
                "{} programs for {} nodes",
                programs.len(),
                n
            )));
        }
        // Static program validation (targets in range, no self-messages),
        // collecting one `dst | src | tag | op index` reference per op that
        // names a message: a receive names an inbound one, a send or a
        // split-port exchange its outbound one (a fused exchange never
        // touches the receive table).
        let split = params.ports == PortModel::Split;
        let mut refs: Vec<u128> = Vec::with_capacity(programs.iter().map(Program::len).sum());
        let mut nodes = Vec::with_capacity(n);
        let mut base = 0;
        for (i, prog) in programs.iter().enumerate() {
            nodes.push(NodeState::new(base));
            for (pc, op) in prog.ops().iter().enumerate() {
                let (peer, tag, inbound, bound) = match *op {
                    Op::PostRecv { src, tag } | Op::WaitRecv { src, tag } => (src, tag, true, true),
                    Op::Send { dst, tag, .. } | Op::SendAsync { dst, tag, .. } => {
                        (dst, tag, false, true)
                    }
                    Op::Exchange { partner, tag, .. } => (partner, tag, false, split),
                    _ => continue,
                };
                if peer.index() >= n {
                    return Err(SimError::ProgramError {
                        node: i,
                        msg: format!("references {peer} outside the {n}-node machine"),
                    });
                }
                if peer.index() == i && !inbound {
                    return Err(SimError::ProgramError {
                        node: i,
                        msg: "self-directed send or exchange".into(),
                    });
                }
                if bound {
                    let (dst, src) = if inbound {
                        (i, peer.index())
                    } else {
                        (peer.index(), i)
                    };
                    let message = (dst as u128) << 64 | (src as u128) << 32 | u128::from(tag.0);
                    refs.push(message << 32 | (base + pc) as u128);
                }
            }
            base += prog.len();
        }
        if u32::try_from(base).is_err() {
            return Err(SimError::BadParams(format!("{base} ops in one run")));
        }
        // Sorted, the references to one message are adjacent: number the
        // messages in that order and hand each op its message's slot.
        refs.sort_unstable();
        let mut op_slot = vec![0; base];
        let mut slots = 0u32;
        for message in refs.chunk_by(|a, b| a >> 32 == b >> 32) {
            for &r in message {
                op_slot[r as u32 as usize] = slots;
            }
            slots += 1;
        }
        Ok(Sim {
            topo,
            params,
            cost,
            programs,
            op_slot,
            recv: vec![RecvState::Absent; slots as usize],
            n,
            queue: EventQueue::new(),
            now: 0,
            nodes,
            transfers: TransferArena::new(),
            router: Router::new(n, topo.link_count(), params.ports),
            route: Vec::new(),
            stats_transfers: 0,
            stats_blocked: 0,
            stats_blocked_ns: 0,
            stats_blocked_max: 0,
            stats_copies: 0,
            stats_claim_checks: 0,
            events: 0,
            last_activity_ns: 0,
            trace,
            err: None,
        })
    }

    // -- main loop ---------------------------------------------------------

    pub(crate) fn run(mut self) -> Result<SimReport, SimError> {
        self.drain()?;
        // Queue drained: every node must have finished, otherwise the run
        // deadlocked (the classic bounded-buffer hazard of Section 3).
        let stuck: Vec<(usize, String)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.done)
            .map(|(i, s)| (i, self.describe_block(i, s)))
            .collect();
        if !stuck.is_empty() {
            return Err(SimError::Deadlock { stuck });
        }
        let makespan = self
            .nodes
            .iter()
            .map(|s| s.stats.finish_ns)
            .max()
            .unwrap_or(0)
            .max(self.last_activity_ns);
        let (link_busy_ns_total, link_busy_ns_max) = self.router.link_busy_totals();
        use std::mem::size_of;
        let state_bytes = self.recv.capacity() * size_of::<RecvState>()
            + self.op_slot.capacity() * size_of::<u32>()
            + self.router.resident_bytes()
            + self.transfers.resident_bytes()
            + self.queue.resident_bytes();
        let stats = SimStats {
            nodes: self.nodes.into_iter().map(|s| s.stats).collect(),
            transfers: self.stats_transfers,
            transfers_blocked: self.stats_blocked,
            blocked_ns_total: self.stats_blocked_ns,
            blocked_ns_max: self.stats_blocked_max,
            link_busy_ns_total,
            link_busy_ns_max,
            copies: self.stats_copies,
            events: self.events,
            claim_checks: self.stats_claim_checks,
            peak_transfers_live: self.transfers.peak_live() as u64,
            state_bytes: state_bytes as u64,
        };
        Ok(SimReport {
            makespan_ns: makespan,
            stats,
        })
    }

    /// Fire every event there is.
    pub(crate) fn drain(&mut self) -> Result<(), SimError> {
        // Every node's first resume is due at time zero, in node order and
        // ahead of anything those resumes schedule: they run straight from
        // this loop, so the queue holds only what the run itself creates.
        for node in 0..self.n {
            self.step(0, EvKind::Resume(node))?;
        }
        while let Some((t, kind)) = self.queue.pop() {
            self.step(t, kind)?;
        }
        Ok(())
    }

    /// Fire one event.
    fn step(&mut self, t: u64, kind: EvKind) -> Result<(), SimError> {
        self.now = t;
        self.last_activity_ns = self.last_activity_ns.max(t);
        self.events += 1;
        if self.events > EVENT_BUDGET {
            return Err(SimError::EventBudgetExhausted);
        }
        match kind {
            EvKind::Resume(node) => {
                self.nodes[node].resume_scheduled = false;
                if !self.nodes[node].done && self.nodes[node].block == Block::None {
                    self.run_program(node);
                }
            }
            EvKind::XferDone(id) => self.finish_transfer(id),
            EvKind::XferAdvance(id) => match self.transfers[id].state {
                // A deferred request (send-initiation overhead elapsed).
                TState::Pending => self.enter_claim(id),
                _ => self.hw_advance(id),
            },
        }
        match self.err.take() {
            Some(err) => Err(err),
            // An event that did not fit the queue's key was dropped.
            None if self.queue.exhausted() => Err(SimError::EventBudgetExhausted),
            None => Ok(()),
        }
    }

    pub(crate) fn describe_block(&self, i: usize, s: &NodeState) -> String {
        match s.block {
            Block::None => format!("runnable at pc={} (scheduler bug?)", s.pc),
            Block::WaitRecv(src, tag) => format!("waiting for message ({src},{tag:?})"),
            Block::WaitSend(id) => {
                let t = &self.transfers[id];
                format!(
                    "waiting for send to P{} ({} bytes) stuck in state {:?}",
                    t.dst, t.bytes, t.state
                )
            }
            Block::WaitAllSends => format!("waiting for {} outstanding sends", s.outstanding_sends),
            Block::WaitAllRecvs => {
                format!("waiting for {} outstanding receives", s.unfinished_recvs)
            }
            Block::Exchange => format!("waiting in a pairwise exchange (node {i})"),
        }
    }

    pub(crate) fn schedule_resume(&mut self, node: usize) {
        if !self.nodes[node].resume_scheduled {
            self.nodes[node].resume_scheduled = true;
            self.queue.push(self.now, EvKind::Resume(node));
        }
    }

    pub(crate) fn schedule_resume_at(&mut self, node: usize, at: u64) {
        // Timed resumes (compute/overhead) bypass the dedup flag on purpose:
        // the node is mid-instruction and cannot be woken by anything else.
        self.queue.push(at, EvKind::Resume(node));
    }

    pub(crate) fn error(&mut self, node: usize, msg: String) {
        if self.err.is_none() {
            self.err = Some(SimError::ProgramError { node, msg });
        }
    }

    pub(crate) fn trace_push(&mut self, kind: TraceKind, src: u32, dst: u32, tag: Tag, bytes: u32) {
        if let Some(tr) = &mut self.trace {
            tr.push(TraceEvent {
                time_ns: self.now,
                kind,
                src: NodeId(src),
                dst: NodeId(dst),
                tag,
                bytes,
            });
        }
    }

    // -- program execution -------------------------------------------------

    pub(crate) fn run_program(&mut self, node: usize) {
        loop {
            if self.err.is_some() {
                return;
            }
            let st = &self.nodes[node];
            if st.block != Block::None || st.done {
                return;
            }
            if st.pc >= self.programs[node].len() {
                let st = &mut self.nodes[node];
                st.done = true;
                st.stats.finish_ns = self.now;
                self.trace_push(TraceKind::NodeDone, node as u32, node as u32, Tag(0), 0);
                return;
            }
            let op = self.programs[node].ops()[st.pc];
            let slot = self.op_slot[st.op_base + st.pc];
            self.nodes[node].pc += 1;
            match op {
                Op::Compute { ns } => {
                    self.schedule_resume_at(node, self.now + ns);
                    return;
                }
                Op::PostRecv { src, tag } => {
                    self.do_post_recv(node, src.0, tag, slot);
                    let cost = self.params.recv_post_ns;
                    if cost > 0 {
                        self.schedule_resume_at(node, self.now + cost);
                        return;
                    }
                }
                Op::SendAsync { dst, bytes, tag } => {
                    self.create_data_transfer(node as u32, dst.0, bytes, tag, slot, false);
                    let cost = self.params.send_overhead_ns;
                    if cost > 0 {
                        self.schedule_resume_at(node, self.now + cost);
                        return;
                    }
                }
                Op::Send { dst, bytes, tag } => {
                    let id = self.create_data_transfer(node as u32, dst.0, bytes, tag, slot, false);
                    if let Some(id) = id {
                        if self.transfers[id].state != TState::Done {
                            self.nodes[node].block = Block::WaitSend(id);
                            return;
                        }
                    }
                }
                Op::WaitRecv { src, tag } => match self.recv[slot as usize] {
                    RecvState::Delivered => {}
                    RecvState::Absent => {
                        self.error(
                            node,
                            format!("WaitRecv({src}, {tag:?}) without a matching PostRecv"),
                        );
                        return;
                    }
                    _ => {
                        self.nodes[node].block = Block::WaitRecv(src.0, tag);
                        return;
                    }
                },
                Op::WaitAllRecvs => {
                    if self.nodes[node].unfinished_recvs > 0 {
                        self.nodes[node].block = Block::WaitAllRecvs;
                        return;
                    }
                }
                Op::WaitAllSends => {
                    if self.nodes[node].outstanding_sends > 0 {
                        self.nodes[node].block = Block::WaitAllSends;
                        return;
                    }
                }
                Op::Exchange {
                    partner,
                    send_bytes,
                    recv_bytes,
                    tag,
                } => {
                    self.do_exchange(node, partner.0, send_bytes, recv_bytes, tag, slot);
                    return;
                }
            }
        }
    }

    pub(crate) fn do_post_recv(&mut self, node: usize, src: u32, tag: Tag, slot: u32) {
        let before = self.recv[slot as usize];
        match before.post() {
            Ok(after) => {
                self.recv[slot as usize] = after;
                self.nodes[node].unfinished_recvs += 1;
                match before {
                    // A transfer may be waiting on delivery for this post.
                    RecvState::Absent => self.delivery_freed(node),
                    RecvState::Buffered(bytes) => {
                        self.create_copy_transfer(node as u32, src, bytes, tag, slot)
                    }
                    _ => {}
                }
            }
            Err(other) => self.error(
                node,
                format!("duplicate PostRecv for ({src},{tag:?}) in state {other:?}"),
            ),
        }
    }

    pub(crate) fn do_exchange(
        &mut self,
        node: usize,
        partner: u32,
        send_bytes: u32,
        recv_bytes: u32,
        tag: Tag,
        slot: u32,
    ) {
        let me = node as u32;
        self.nodes[node].block = Block::Exchange;
        // The partner is here already iff its one outstanding offer names
        // this node and this tag.
        let offer = &mut self.nodes[partner as usize].exchange_offer;
        let Some(half) = offer.take_if(|h| h.partner == me && h.tag == tag) else {
            self.nodes[node].exchange_offer = Some(ExchangeOffer {
                partner,
                tag,
                send_bytes,
                recv_bytes,
                slot,
            });
            return;
        };
        if half.send_bytes != recv_bytes || half.recv_bytes != send_bytes {
            self.error(
                node,
                format!(
                    "exchange size mismatch with P{partner}: {}+{} vs {}+{}",
                    half.send_bytes, half.recv_bytes, send_bytes, recv_bytes
                ),
            );
            return;
        }
        // Both partners are here: fire the transfers.
        match self.params.ports {
            PortModel::Unified => {
                self.nodes[node].exchange_parts_left = 1;
                self.nodes[partner as usize].exchange_parts_left = 1;
                self.create_fused_exchange(me, partner, send_bytes, recv_bytes, tag);
            }
            PortModel::Split => {
                self.nodes[node].exchange_parts_left = 2;
                self.nodes[partner as usize].exchange_parts_left = 2;
                self.create_data_transfer(me, partner, send_bytes, tag, slot, true);
                self.create_data_transfer(partner, me, recv_bytes, tag, half.slot, true);
            }
        }
    }
}
