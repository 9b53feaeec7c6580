//! The discrete-event driver: executes per-node programs against the
//! engine modules — the [`crate::engine::queue`] clock, the
//! [`crate::engine::node`] protocol state, and the
//! [`crate::engine::router`] circuit reservation — implementing the two
//! claim policies, message delivery, buffering, and deadlock detection.

use std::collections::HashMap;

use hypercube::{NodeId, Topology};

use crate::cost::LinkCostModel;
use crate::engine::arena::TransferArena;
use crate::engine::node::{Block, NodeState, RecvState};
use crate::engine::pending::{Blocker, PendingIndex};
use crate::engine::queue::{EvKind, EventQueue};
use crate::engine::router::{Router, TState};
use crate::program::{Op, Program, Tag};
use crate::stats::{SimError, SimReport, SimStats};
use crate::trace::{TraceEvent, TraceKind};
use crate::{ClaimPolicy, MachineParams, PortModel};

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
/// uniform machine.
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
    simulate_costed(topo, params, &LinkCostModel::Uniform, programs)
}

/// Like [`simulate`], pricing transfers under a [`LinkCostModel`]: routes
/// that cross a down link detour where the fabric permits
/// ([`Topology::route_avoiding`]) and fail with [`SimError::LinkDown`]
/// where it does not. `LinkCostModel::Uniform` is byte-identical to
/// [`simulate`].
pub fn simulate_costed<T: Topology + ?Sized>(
    topo: &T,
    params: &MachineParams,
    cost: &LinkCostModel,
    programs: Vec<Program>,
) -> Result<SimReport, SimError> {
    Sim::new(topo, params, cost, programs, false)?
        .run()
        .map(|(r, _)| r)
}

/// Like [`simulate_costed`], additionally returning the full execution
/// trace.
pub fn simulate_traced<T: Topology + ?Sized>(
    topo: &T,
    params: &MachineParams,
    cost: &LinkCostModel,
    programs: Vec<Program>,
) -> Result<(SimReport, Vec<TraceEvent>), SimError> {
    let (r, t) = Sim::new(topo, params, cost, programs, true)?.run()?;
    Ok((r, t.expect("trace was requested")))
}

/// One side of a pairwise-exchange rendezvous waiting for its partner.
pub(crate) struct ExchangeHalf {
    pub(crate) send_bytes: u32,
    pub(crate) recv_bytes: u32,
    pub(crate) node: u32,
}

pub(crate) struct Sim<'a, T: ?Sized> {
    pub(crate) topo: &'a T,
    pub(crate) params: &'a MachineParams,
    pub(crate) cost: &'a LinkCostModel,
    pub(crate) programs: Vec<Program>,
    pub(crate) n: usize,
    pub(crate) queue: EventQueue,
    pub(crate) now: u64,
    pub(crate) nodes: Vec<NodeState>,
    pub(crate) transfers: TransferArena,
    /// Atomic-policy pending transfers, indexed by what blocks them.
    pub(crate) pending: PendingIndex,
    pub(crate) router: Router,
    pub(crate) rendezvous: HashMap<(u32, u32, u32), ExchangeHalf>,
    pub(crate) stats_transfers: u64,
    pub(crate) stats_blocked: u64,
    pub(crate) stats_blocked_ns: u64,
    pub(crate) stats_blocked_max: u64,
    pub(crate) stats_copies: u64,
    pub(crate) stats_claim_checks: u64,
    pub(crate) events: u64,
    pub(crate) last_activity_ns: u64,
    pub(crate) trace: Option<Vec<TraceEvent>>,
    pub(crate) err: Option<SimError>,
}

impl<'a, T: Topology + ?Sized> Sim<'a, T> {
    pub(crate) fn new(
        topo: &'a T,
        params: &'a MachineParams,
        cost: &'a LinkCostModel,
        programs: Vec<Program>,
        traced: bool,
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
        // Static program validation: targets in range, no self-messages.
        for (i, prog) in programs.iter().enumerate() {
            for op in prog.ops() {
                let peer = match op {
                    Op::PostRecv { src, .. } | Op::WaitRecv { src, .. } => Some(*src),
                    Op::Send { dst, .. } | Op::SendAsync { dst, .. } => Some(*dst),
                    Op::Exchange { partner, .. } => Some(*partner),
                    _ => None,
                };
                if let Some(p) = peer {
                    if p.index() >= n {
                        return Err(SimError::ProgramError {
                            node: i,
                            msg: format!("references {p} outside the {n}-node machine"),
                        });
                    }
                    if p.index() == i && !matches!(op, Op::PostRecv { .. } | Op::WaitRecv { .. }) {
                        return Err(SimError::ProgramError {
                            node: i,
                            msg: "self-directed send or exchange".into(),
                        });
                    }
                }
            }
        }
        Ok(Sim {
            topo,
            params,
            cost,
            programs,
            n,
            queue: EventQueue::new(),
            now: 0,
            nodes: (0..n).map(|_| NodeState::new()).collect(),
            transfers: TransferArena::new(),
            pending: PendingIndex::default(),
            router: Router::new(n, topo.link_count(), params.ports),
            rendezvous: HashMap::new(),
            stats_transfers: 0,
            stats_blocked: 0,
            stats_blocked_ns: 0,
            stats_blocked_max: 0,
            stats_copies: 0,
            stats_claim_checks: 0,
            events: 0,
            last_activity_ns: 0,
            trace: traced.then(Vec::new),
            err: None,
        })
    }

    // -- main loop ---------------------------------------------------------

    pub(crate) fn run(mut self) -> Result<(SimReport, Option<Vec<TraceEvent>>), SimError> {
        for i in 0..self.n {
            self.schedule_resume(i);
        }
        while let Some((t, kind)) = self.queue.pop() {
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
                    // A deferred request (send-initiation overhead elapsed):
                    // enter the claim machinery of the active policy.
                    TState::Pending => match self.params.claim {
                        ClaimPolicy::Atomic => {
                            self.pending.push(id);
                            self.request_retry();
                        }
                        ClaimPolicy::HoldAndWait => {
                            self.transfers[id].state = TState::Claiming;
                            self.hw_advance(id);
                        }
                    },
                    _ => self.hw_advance(id),
                },
            }
            if let Some(err) = self.err.take() {
                return Err(err);
            }
        }
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
            state_bytes: (self.router.resident_bytes()
                + self.transfers.resident_bytes()
                + self.pending.resident_bytes()) as u64,
        };
        Ok((
            SimReport {
                makespan_ns: makespan,
                stats,
            },
            self.trace,
        ))
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
            let op = self.programs[node].ops()[self.nodes[node].pc];
            self.nodes[node].pc += 1;
            match op {
                Op::Compute { ns } => {
                    self.schedule_resume_at(node, self.now + ns);
                    return;
                }
                Op::PostRecv { src, tag } => {
                    self.do_post_recv(node, src.0, tag);
                    let cost = self.params.recv_post_ns;
                    if cost > 0 {
                        self.schedule_resume_at(node, self.now + cost);
                        return;
                    }
                }
                Op::SendAsync { dst, bytes, tag } => {
                    self.create_data_transfer(node as u32, dst.0, bytes, tag, false);
                    let cost = self.params.send_overhead_ns;
                    if cost > 0 {
                        self.schedule_resume_at(node, self.now + cost);
                        return;
                    }
                }
                Op::Send { dst, bytes, tag } => {
                    let id = self.create_data_transfer(node as u32, dst.0, bytes, tag, false);
                    if let Some(id) = id {
                        if self.transfers[id].state != TState::Done {
                            self.nodes[node].block = Block::WaitSend(id);
                            return;
                        }
                    }
                }
                Op::WaitRecv { src, tag } => match self.nodes[node].recvs.get(&(src.0, tag.0)) {
                    Some(RecvState::Delivered) => {}
                    Some(_) => {
                        self.nodes[node].block = Block::WaitRecv(src.0, tag);
                        return;
                    }
                    None => {
                        self.error(
                            node,
                            format!("WaitRecv({src}, {tag:?}) without a matching PostRecv"),
                        );
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
                    self.do_exchange(node, partner.0, send_bytes, recv_bytes, tag);
                    return;
                }
            }
        }
    }

    pub(crate) fn do_post_recv(&mut self, node: usize, src: u32, tag: Tag) {
        let entry = self.nodes[node].recvs.get(&(src, tag.0)).copied();
        match entry {
            None => {
                self.nodes[node]
                    .recvs
                    .insert((src, tag.0), RecvState::Posted);
                self.nodes[node].unfinished_recvs += 1;
                // A hold-and-wait transfer may be parked waiting for this post.
                self.check_delivery_waiters(node);
                self.pending.wake(Blocker::Delivery(node as u32));
                if self.params.claim == ClaimPolicy::Atomic {
                    self.request_retry();
                }
            }
            Some(RecvState::Buffered(bytes)) => {
                self.nodes[node].unfinished_recvs += 1;
                self.nodes[node]
                    .recvs
                    .insert((src, tag.0), RecvState::Copying);
                self.create_copy_transfer(node as u32, src, bytes, tag);
            }
            Some(RecvState::BufArriving { .. }) => {
                self.nodes[node].unfinished_recvs += 1;
                self.nodes[node].recvs.insert(
                    (src, tag.0),
                    RecvState::BufArriving {
                        posted_meanwhile: true,
                    },
                );
            }
            Some(other) => {
                self.error(
                    node,
                    format!("duplicate PostRecv for ({src},{tag:?}) in state {other:?}"),
                );
            }
        }
    }

    pub(crate) fn do_exchange(
        &mut self,
        node: usize,
        partner: u32,
        send_bytes: u32,
        recv_bytes: u32,
        tag: Tag,
    ) {
        let a = (node as u32).min(partner);
        let b = (node as u32).max(partner);
        let key = (a, b, tag.0);
        if let Some(half) = self.rendezvous.remove(&key) {
            if half.node == node as u32 {
                self.error(
                    node,
                    format!("duplicate Exchange with P{partner} tag {tag:?}"),
                );
                return;
            }
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
            // Both partners are here: block self, fire the transfers.
            self.nodes[node].block = Block::Exchange;
            let me = node as u32;
            match self.params.ports {
                PortModel::Unified => {
                    self.nodes[node].exchange_parts_left = 1;
                    self.nodes[partner as usize].exchange_parts_left = 1;
                    self.create_fused_exchange(me, partner, send_bytes, recv_bytes, tag);
                }
                PortModel::Split => {
                    self.nodes[node].exchange_parts_left = 2;
                    self.nodes[partner as usize].exchange_parts_left = 2;
                    self.create_data_transfer(me, partner, send_bytes, tag, true);
                    self.create_data_transfer(partner, me, recv_bytes, tag, true);
                }
            }
        } else {
            self.rendezvous.insert(
                key,
                ExchangeHalf {
                    send_bytes,
                    recv_bytes,
                    node: node as u32,
                },
            );
            self.nodes[node].block = Block::Exchange;
        }
    }
}
