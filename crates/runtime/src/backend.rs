//! Pluggable simulation backends: one trait, two ways to price a
//! schedule on a topology.
//!
//! A [`SimBackend`] estimates what executing a [`Schedule`] for a
//! [`CommMatrix`] on a [`Topology`] costs under a machine calibration —
//! per-phase completion times, the total makespan, and contention
//! pressure. Two implementations ship:
//!
//! * [`DesBackend`] — the exact oracle: compiles the schedule to per-node
//!   programs ([`crate::compile`]) and replays them on the discrete-event
//!   engine ([`simnet::simulate_with`], with a trace sink), extracting
//!   phase boundaries from the execution trace.
//! * [`AnalyticBackend`] — a contention-aware LogP/LogGP-style model
//!   built on [`simnet::LoadModel`]: no programs, no events — phase
//!   makespans follow from link/port occupancy sums and the machine's
//!   latency/bandwidth parameters. Orders of magnitude faster (the
//!   benchmark's `commrt.estimate.{des,analytic}_us`), which buys grid
//!   sweeps far beyond what event simulation can reach.
//!
//! The two backends are each other's oracle: the differential conformance
//! suite (`tests/backend_conformance.rs`, `simcheck` binary) pins exact
//! analytic = DES agreement on contention-free schedules and bounded
//! divergence everywhere else. The model equations and the tolerance
//! policy are documented in `docs/ARCHITECTURE.md`.
//!
//! Selection is threaded through the stack: [`crate::ExperimentRunner`]
//! carries a [`BackendKind`] for every sample it prices, every cell of a
//! grid prices under the grid's one runner, and the repro binaries set
//! the runner's from `IPSC_BACKEND`. Both backends route and price
//! through [`simnet::LinkCostModel`] and claim node resources by
//! [`simnet::TransferSpec::node_claims`].

use std::fmt;

use commsched::{CommMatrix, Schedule, ScheduleKind, SILENT};
use hypercube::{NodeId, Topology};
use simnet::{
    ExecMode, LinkCostModel, LoadModel, MachineParams, PortModel, SimError, TraceKind, TransferSpec,
};

use crate::compile::{compile, tag_phase};
use crate::Scheme;

/// Contention pressure of one estimated (or simulated) run.
///
/// The two backends fill these from different evidence — the event
/// engine from its router accounting, the analytic model from occupancy
/// sums — so treat them as *indicators* for cross-backend comparison,
/// not exact equalities. Makespans are the conformance surface; these
/// explain them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ContentionStats {
    /// Busiest node engine: total transfer time it carried (ns).
    pub max_engine_busy_ns: u64,
    /// Busiest directed link: total transfer time it carried (ns).
    pub max_link_busy_ns: u64,
    /// Transfers that had to wait on (analytic: share) a resource.
    pub contended_transfers: u64,
    /// Phases in which at least one transfer contended.
    pub contended_phases: usize,
}

/// What a backend reports for one `(matrix, schedule, topology, scheme)`
/// request.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BackendReport {
    /// Completion time of the slowest node (ns) — the paper's metric.
    pub makespan_ns: u64,
    /// Cumulative completion estimate after each phase (ns). One entry
    /// per schedule phase; a single entry for async (AC) schedules. The
    /// last entry never exceeds [`BackendReport::makespan_ns`].
    ///
    /// Non-decreasing from the event engine and from the analytic S1
    /// recurrence. The analytic S2 entries are prefix estimates of one
    /// growing pool, and [`simnet::LoadModel`] is not monotone in the
    /// transfers added: under hot-spot in-degrees with small messages an
    /// entry can read below its predecessor ([`BackendReport::phase_ns`]
    /// then reports a zero-length phase). Balanced (d-regular, random)
    /// and power-law traffic never dips;
    /// `crates/runtime/tests/phase_profile_monotone.rs` hunts both sides.
    pub phase_end_ns: Vec<u64>,
    /// Contention indicators.
    pub contention: ContentionStats,
}

impl BackendReport {
    /// Makespan in milliseconds (the unit of the paper's tables).
    pub fn makespan_ms(&self) -> f64 {
        self.makespan_ns as f64 / 1e6
    }

    /// Per-phase durations (ns): first differences of
    /// [`BackendReport::phase_end_ns`], zero where the profile dips.
    pub fn phase_ns(&self) -> Vec<u64> {
        let mut prev = 0;
        self.phase_end_ns
            .iter()
            .map(|&end| {
                let d = end.saturating_sub(prev);
                prev = end;
                d
            })
            .collect()
    }
}

/// A way to price a schedule on a topology under a machine calibration.
///
/// Implementations must be deterministic functions of their inputs and
/// must never panic on well-formed inputs; malformed requests (size
/// mismatches, self-messages smuggled into a hand-built schedule) surface
/// as [`SimError`]s.
pub trait SimBackend: Send + Sync {
    /// Stable backend label ("des", "analytic") for reports and env
    /// selection.
    fn name(&self) -> &'static str;

    /// Estimate executing `schedule` for `com` on `topo` under `scheme`.
    ///
    /// # Errors
    ///
    /// [`SimError::BadParams`] for invalid parameters or size mismatches;
    /// [`SimError::ProgramError`] for malformed schedules; the DES
    /// backend additionally propagates anything [`simnet::simulate`] can
    /// report (deadlock, event-budget exhaustion).
    fn estimate(
        &self,
        params: &MachineParams,
        topo: &dyn Topology,
        com: &CommMatrix,
        schedule: &Schedule,
        scheme: Scheme,
    ) -> Result<BackendReport, SimError>;

    /// [`SimBackend::estimate`] under a [`LinkCostModel`]: per-link
    /// latency/bandwidth costs ride on every transfer price, and routes
    /// crossing a down link detour or fail with [`SimError::LinkDown`].
    ///
    /// `LinkCostModel::Uniform` must be byte-identical to `estimate` —
    /// the default implementation guarantees that by delegating, and
    /// rejects every other model so third-party backends that never
    /// learned about link costs cannot silently misprice them.
    ///
    /// # Errors
    ///
    /// Everything [`SimBackend::estimate`] reports, plus
    /// [`SimError::LinkDown`] for stranded transfers.
    fn estimate_costed(
        &self,
        params: &MachineParams,
        cost: &LinkCostModel,
        topo: &dyn Topology,
        com: &CommMatrix,
        schedule: &Schedule,
        scheme: Scheme,
    ) -> Result<BackendReport, SimError> {
        if cost.is_uniform() {
            return self.estimate(params, topo, com, schedule, scheme);
        }
        Err(SimError::BadParams(format!(
            "backend {:?} does not support link-cost model {cost}",
            self.name()
        )))
    }
}

/// Shared input validation: the schedule must belong to the matrix and
/// the matrix must fit the machine.
pub(crate) fn check_shapes(
    topo: &dyn Topology,
    com: &CommMatrix,
    schedule: &Schedule,
) -> Result<(), SimError> {
    if com.n() != schedule.n() {
        return Err(SimError::BadParams(format!(
            "schedule spans {} nodes but the matrix spans {}",
            schedule.n(),
            com.n()
        )));
    }
    if com.n() != topo.num_nodes() {
        return Err(SimError::BadParams(format!(
            "matrix spans {} nodes but the topology has {}",
            com.n(),
            topo.num_nodes()
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Discrete-event backend
// ---------------------------------------------------------------------------

/// The exact backend: compile to per-node programs and replay on the
/// discrete-event engine, with phase boundaries read off the trace.
///
/// [`crate::ExperimentRunner`] prices its DES samples with the same
/// [`simnet::simulate_with`] call, without the trace sink; makespans
/// agree exactly.
#[derive(Clone, Copy, Debug, Default)]
pub struct DesBackend {
    /// How the caller spelled the engine's execution ([`simnet::ExecMode`]);
    /// both spellings run the one exact event loop.
    pub exec: ExecMode,
}

impl DesBackend {
    /// Backend running the engine under `exec`.
    pub fn with_exec(exec: ExecMode) -> Self {
        DesBackend { exec }
    }
}

impl SimBackend for DesBackend {
    fn name(&self) -> &'static str {
        "des"
    }

    fn estimate(
        &self,
        params: &MachineParams,
        topo: &dyn Topology,
        com: &CommMatrix,
        schedule: &Schedule,
        scheme: Scheme,
    ) -> Result<BackendReport, SimError> {
        self.estimate_costed(params, &LinkCostModel::Uniform, topo, com, schedule, scheme)
    }

    fn estimate_costed(
        &self,
        params: &MachineParams,
        cost: &LinkCostModel,
        topo: &dyn Topology,
        com: &CommMatrix,
        schedule: &Schedule,
        scheme: Scheme,
    ) -> Result<BackendReport, SimError> {
        check_shapes(topo, com, schedule)?;
        let programs = compile(com, schedule, scheme);
        let mut trace = Vec::new();
        let report = simnet::simulate_with(topo, params, cost, programs, Some(&mut trace))?;
        let phases = schedule.num_phases().max(1);
        let mut phase_end_ns = vec![0u64; phases];
        // Requested/Started per (src, dst, tag): blocked-start detection.
        // `send_overhead_ns` of request-to-start latency is the normal
        // initiation cost, not contention.
        let mut requested: std::collections::HashMap<(u32, u32, u32), u64> =
            std::collections::HashMap::new();
        let mut contended_phase = vec![false; phases];
        for ev in &trace {
            let key = (ev.src.0, ev.dst.0, ev.tag.0);
            // Ready signals do not mark phase completion.
            let (phase, data) = tag_phase(ev.tag);
            let phase = phase.min(phases - 1);
            match ev.kind {
                TraceKind::Requested => {
                    requested.entry(key).or_insert(ev.time_ns);
                }
                TraceKind::Started => {
                    if data {
                        if let Some(&req) = requested.get(&key) {
                            if ev.time_ns > req + params.send_overhead_ns {
                                contended_phase[phase] = true;
                            }
                        }
                    }
                }
                TraceKind::Finished | TraceKind::Copied => {
                    if data {
                        phase_end_ns[phase] = phase_end_ns[phase].max(ev.time_ns);
                    }
                }
                TraceKind::Buffered | TraceKind::NodeDone => {}
            }
        }
        // Phases with no traffic complete with their predecessor.
        let mut prev = 0;
        for end in &mut phase_end_ns {
            *end = (*end).max(prev);
            prev = *end;
        }
        Ok(BackendReport {
            makespan_ns: report.makespan_ns,
            phase_end_ns,
            contention: ContentionStats {
                max_engine_busy_ns: report
                    .stats
                    .nodes
                    .iter()
                    .map(|s| s.engine_busy_ns)
                    .max()
                    .unwrap_or(0),
                max_link_busy_ns: report.stats.link_busy_ns_max,
                contended_transfers: report.stats.transfers_blocked,
                contended_phases: contended_phase.iter().filter(|&&c| c).count(),
            },
        })
    }
}

// ---------------------------------------------------------------------------
// Analytic backend
// ---------------------------------------------------------------------------

/// The fast backend: contention-aware occupancy arithmetic, no events.
///
/// The model (equations in `docs/ARCHITECTURE.md`):
///
/// * Every message is priced like the event engine prices its circuit:
///   `busy = transfer_ns(bytes, hops)`; a fused S1 exchange costs
///   `exchange_sync_ns + max(both directions)`
///   ([`LinkCostModel::exchange_ns`]) and claims both circuits. Each
///   circuit is routed once per estimate
///   ([`LinkCostModel::route_into`]): the route's length is the hop count
///   it is priced at, and the same links are what it claims.
/// * **Async (AC) and phased-S2** schedules issue all sends up front, so
///   the whole run is one resource pool: the makespan is the slowest
///   critical transfer or the most-occupied engine/port/link, whichever
///   dominates, with software leads mirroring the compiled programs'
///   post/send initiation times. Phase ends are cumulative prefix
///   estimates of the same pool.
/// * **Phased-S1** schedules rendezvous per phase, so phases sum: each
///   phase is its own pool; the first active phase pays the full
///   ready-handshake (`recv_post + 2·send_overhead + transfer_ns(0)`),
///   later phases only the pipelined send initiation (the double
///   buffering of [`crate::compile`]'s S1 emitter).
///
/// On schedules whose phases neither share endpoints nor links the pool
/// maxima collapse to the exact event-engine answer — the conformance
/// suite pins that class bit-for-bit.
#[derive(Clone, Copy, Debug, Default)]
pub struct AnalyticBackend;

/// Each phase-table word's message size: `sizes[k·n + src]` is what
/// `src` sends in phase `k` (0 for a silent node, or a pair the matrix
/// lacks). One pass over each row of the matrix and that row's column of
/// the table, scattering the row into one `n`-word scratch:
/// O(messages + phases·n), with no row search and no `n × n` table.
fn word_sizes(com: &CommMatrix, schedule: &Schedule) -> Vec<u32> {
    let n = com.n();
    let table = schedule.table();
    let mut sizes = vec![0u32; table.len()];
    let mut row = vec![0u32; n];
    for src in 0..n {
        let (dsts, bytes) = com.row(src);
        if dsts.is_empty() {
            continue;
        }
        for (&dst, &b) in dsts.iter().zip(bytes) {
            row[dst as usize] = b;
        }
        for at in (src..table.len()).step_by(n) {
            if table[at] != SILENT {
                sizes[at] = row[table[at] as usize];
            }
        }
        for &dst in dsts {
            row[dst as usize] = 0;
        }
    }
    sizes
}

/// A self-pair a hand-assembled schedule smuggled past the matrix.
fn self_directed(node: NodeId) -> SimError {
    SimError::ProgramError {
        node: node.index(),
        msg: "self-directed message in a schedule phase".into(),
    }
}

impl AnalyticBackend {
    /// AC / phased-S2 pool estimate (see the type-level docs).
    ///
    /// `ramped` controls the send-initiation lead. Under S2 the j-th
    /// *phase* in which a node sends is a label-free quantity, so its
    /// send leads ramp `(j + 1) · send_overhead` exactly like the
    /// compiled program requests them. An async (AC) program's issue
    /// positions follow row-major destination order, which a node
    /// relabeling permutes — so async pools charge every send the flat
    /// first-send lead instead, keeping the estimate invariant under
    /// topology automorphisms (the metamorphic suite pins that) at the
    /// cost of a small, degree-bounded undershoot.
    fn estimate_pool<P: Iterator<Item = (NodeId, NodeId, u32)>>(
        &self,
        params: &MachineParams,
        cost: &LinkCostModel,
        topo: &dyn Topology,
        com: &CommMatrix,
        phases: impl Iterator<Item = P>,
        ramped: bool,
    ) -> Result<BackendReport, SimError> {
        let n = com.n();
        // Posts precede sends in both the AC and the S2 program shape:
        // the first send is requested at in_degree * recv_post +
        // send_overhead.
        // Counted in one pass over the messages' destinations.
        let mut in_degree = vec![0u32; n];
        com.messages()
            .for_each(|(_, dst, _)| in_degree[dst.index()] += 1);
        let mut sends_before = vec![0u64; n];
        let mut pool = LoadModel::new(topo, params.ports);
        let mut claims = Vec::with_capacity(topo.diameter());
        let mut phase_end_ns = Vec::with_capacity(phases.size_hint().0);
        let mut contended_transfers = 0u64;
        let mut contended_phases = 0usize;
        for phase in phases {
            let mut phase_contended = false;
            for (src, dst, bytes) in phase {
                if src == dst {
                    return Err(self_directed(src));
                }
                cost.route_into(topo, src, dst, &mut claims)?;
                let j = if ramped { sends_before[src.index()] } else { 0 };
                sends_before[src.index()] += 1;
                let spec = TransferSpec {
                    src,
                    dst,
                    busy_ns: cost.transfer_ns(params, bytes, &claims),
                    lead_ns: u64::from(in_degree[src.index()]) * params.recv_post_ns
                        + (j + 1) * params.send_overhead_ns,
                    fused: false,
                };
                if pool.add_with_route(spec, &claims) {
                    contended_transfers += 1;
                    phase_contended = true;
                }
            }
            contended_phases += usize::from(phase_contended);
            phase_end_ns.push(pool.makespan_ns());
        }
        Ok(BackendReport {
            makespan_ns: pool.makespan_ns(),
            phase_end_ns,
            contention: ContentionStats {
                max_engine_busy_ns: pool.max_engine_ns(),
                max_link_busy_ns: pool.max_link_ns(),
                contended_transfers,
                contended_phases,
            },
        })
    }

    /// Phased-S1 estimate: a max-plus recurrence over node and link
    /// availability times.
    ///
    /// S1 couples nodes *pairwise* per phase (rendezvous), not globally:
    /// a node silent in phase `k` sails straight into phase `k+1`, so
    /// sparse phases of disjoint pairs overlap freely in the event engine
    /// (LP's many XOR phases live off this). Summing per-phase makespans
    /// would charge a barrier that does not exist; instead each transfer
    /// starts when its two endpoints and every link of its circuit are
    /// free:
    ///
    /// ```text
    /// start = max(t[src], t[dst], link_free[route...]) + lead
    /// t[src] = t[dst] = link_free[route...] = start + busy
    /// ```
    ///
    /// — still pure arithmetic over occupancy times, no events. Every
    /// resource has one [`S1Resource`] record, so a transfer's claim set
    /// is read once (the start time) and written once (everything else).
    ///
    /// The recurrence serializes pessimistically on *chained* phases
    /// (0→1, 1→2, … builds an O(n) dependency chain the engine's
    /// arbitration actually resolves as interleaved ~2-transfer engine
    /// loads), while the per-phase occupancy pool
    /// (`Σ_k max_resource occupancy_k`) charges a barrier that sparse
    /// disjoint phases (LP's XOR classes) do not have. Each is an
    /// upper-bound-style schedule the engine never does worse than
    /// *both* of, so the estimate takes the phase-wise minimum of the
    /// two. For a single contention-free phase both collapse to
    /// `lead + busy`, the event engine's exact answer.
    fn estimate_s1(
        &self,
        params: &MachineParams,
        cost: &LinkCostModel,
        topo: &dyn Topology,
        com: &CommMatrix,
        schedule: &Schedule,
    ) -> Result<BackendReport, SimError> {
        let first_active = schedule.phases().iter().position(|pm| !pm.is_empty());
        let sizes = word_sizes(com, schedule);
        // One table: the nodes, then (split ports only) their receive
        // ports — which only the phase pool claims — then the links.
        let n = com.n();
        let split = params.ports == PortModel::Split;
        let link_base = if split { 2 * n } else { n };
        let mut table = vec![S1Resource::UNUSED; link_base + topo.link_count()];
        let mut in_phase = Vec::new(); // records the current phase's pool claimed
        let (mut max_engine_busy_ns, mut max_link_busy_ns) = (0u64, 0u64);
        let mut claims = Vec::new();
        let mut rev = Vec::new();
        let mut phase_end_ns = Vec::with_capacity(schedule.num_phases());
        let mut chain_ns = 0u64; // max-plus running makespan
        let mut sum_ns = 0u64; // per-phase pool running sum
        let mut contended_transfers = 0u64;
        let mut contended_phases = 0usize;
        for (k, pm) in schedule.phases().iter().enumerate() {
            let size = &sizes[k * n..(k + 1) * n];
            let mut path_ns = 0u64; // the phase pool's `max_t (lead_t + busy_t)`
            let mut phase_contended = false;
            for (src, dst) in pm.pairs() {
                if src == dst {
                    return Err(self_directed(src));
                }
                // One routing pass per direction covers the price, the
                // max-plus step, the busy totals and the phase pool.
                let spec = if pm.is_exchange_pair(src) {
                    // Each reciprocal pair fuses into one rendezvous
                    // transfer; account it once, from its lower endpoint.
                    if src.0 > dst.0 {
                        continue;
                    }
                    cost.route_into(topo, src, dst, &mut claims)?;
                    cost.route_into(topo, dst, src, &mut rev)?;
                    // One fused transfer covers both port models: the
                    // engine fuses the pair into a single rendezvous
                    // transfer under unified ports, and runs the
                    // directions as two concurrent sync-paying transfers
                    // under split ports — either way the pair occupies
                    // both circuits and completes at the exchange price
                    // after the rendezvous.
                    let busy_ns = cost.exchange_ns(
                        params,
                        (size[src.index()], &claims),
                        (size[dst.index()], &rev),
                    );
                    claims.extend_from_slice(&rev);
                    TransferSpec {
                        src,
                        dst,
                        busy_ns,
                        lead_ns: 0,
                        fused: true,
                    }
                } else {
                    // One-way message under loose synchrony: the receiver
                    // posts and signals ready, the sender transmits on the
                    // signal. The handshake of phase k+1 is prepared
                    // during phase k (double buffering), so only the
                    // first active phase pays it in full.
                    cost.route_into(topo, src, dst, &mut claims)?;
                    let lead_ns = if Some(k) == first_active {
                        // The zero-byte ready signal travels the reverse
                        // circuit (at its costed price).
                        cost.route_into(topo, dst, src, &mut rev)?;
                        params.recv_post_ns
                            + 2 * params.send_overhead_ns
                            + cost.transfer_ns(params, 0, &rev)
                    } else {
                        params.send_overhead_ns
                    };
                    TransferSpec {
                        src,
                        dst,
                        busy_ns: cost.transfer_ns(params, size[src.index()], &claims),
                        lead_ns,
                        fused: false,
                    }
                };
                let (busy_ns, lead_ns) = (spec.busy_ns, spec.lead_ns);

                // The max-plus step: read every claimed resource...
                let (s, d) = (src.index(), dst.index());
                let mut start = table[s].free_at.max(table[d].free_at);
                for l in &claims {
                    start = start.max(table[link_base + l.index()].free_at);
                }
                let end = start + lead_ns + busy_ns;
                chain_ns = chain_ns.max(end);
                path_ns = path_ns.max(lead_ns + busy_ns);
                // ...and write it: free again at `end`, busier by `busy`,
                // and in the phase pool, which claims the node resources
                // `LoadModel` would.
                for i in [s, d] {
                    max_engine_busy_ns = max_engine_busy_ns.max(table[i].occupy(end, busy_ns));
                }
                let (ends, count) = spec.node_claims(params.ports, n);
                let fresh_before = in_phase.len();
                for &i in &ends[..count] {
                    table[i].join_pool(i, busy_ns, lead_ns, &mut in_phase);
                }
                for l in &claims {
                    let i = link_base + l.index();
                    max_link_busy_ns = max_link_busy_ns.max(table[i].occupy(end, busy_ns));
                    table[i].join_pool(i, busy_ns, lead_ns, &mut in_phase);
                }
                // A claim that was not its resource's first joined a held one.
                let joined = in_phase.len() - fresh_before < count + claims.len();
                contended_transfers += u64::from(joined);
                phase_contended |= joined;
            }
            contended_phases += usize::from(phase_contended);
            // The pool's makespan, read off the records the phase
            // claimed as they leave the pool.
            let pool_ns = in_phase
                .drain(..)
                .map(|i: usize| table[i].leave_pool())
                .fold(path_ns, u64::max);
            sum_ns += pool_ns;
            phase_end_ns.push(chain_ns.min(sum_ns));
        }
        Ok(BackendReport {
            makespan_ns: chain_ns.min(sum_ns),
            phase_end_ns,
            contention: ContentionStats {
                max_engine_busy_ns,
                max_link_busy_ns,
                contended_transfers,
                contended_phases,
            },
        })
    }
}

/// One resource (node, receive port or link) of the S1 estimate: what
/// the max-plus recurrence, the contention indicators and the current
/// phase's occupancy pool each keep about it, side by side.
#[derive(Clone, Copy, Debug)]
struct S1Resource {
    /// When the recurrence next finds the resource free.
    free_at: u64,
    /// Busy time over all phases (the engine's `engine_busy_ns` analogue).
    busy_total: u64,
    /// Busy time in the current phase's pool.
    pool_busy: u64,
    /// Earliest lead among the pool's users of this resource;
    /// `u64::MAX` while the pool has not claimed it.
    pool_min_lead: u64,
}

impl S1Resource {
    const UNUSED: S1Resource = S1Resource {
        free_at: 0,
        busy_total: 0,
        pool_busy: 0,
        pool_min_lead: u64::MAX,
    };

    /// Held until `end`, for `busy_ns` more; the new busy total.
    #[inline]
    fn occupy(&mut self, end: u64, busy_ns: u64) -> u64 {
        self.free_at = end;
        self.busy_total += busy_ns;
        self.busy_total
    }

    /// Join the current phase's pool as [`simnet::LoadModel`] would claim
    /// the resource, noting record `i` in `in_phase` on its first claim
    /// of the phase.
    #[inline]
    fn join_pool(&mut self, i: usize, busy_ns: u64, lead_ns: u64, in_phase: &mut Vec<usize>) {
        if self.pool_min_lead == u64::MAX {
            in_phase.push(i);
        }
        self.pool_busy += busy_ns;
        self.pool_min_lead = self.pool_min_lead.min(lead_ns);
    }

    /// Leave the pool; the span `min_lead + busy` the resource had in it.
    #[inline]
    fn leave_pool(&mut self) -> u64 {
        let span = self.pool_min_lead + self.pool_busy;
        (self.pool_busy, self.pool_min_lead) = (0, u64::MAX);
        span
    }
}

impl SimBackend for AnalyticBackend {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn estimate(
        &self,
        params: &MachineParams,
        topo: &dyn Topology,
        com: &CommMatrix,
        schedule: &Schedule,
        scheme: Scheme,
    ) -> Result<BackendReport, SimError> {
        self.estimate_costed(params, &LinkCostModel::Uniform, topo, com, schedule, scheme)
    }

    fn estimate_costed(
        &self,
        params: &MachineParams,
        cost: &LinkCostModel,
        topo: &dyn Topology,
        com: &CommMatrix,
        schedule: &Schedule,
        scheme: Scheme,
    ) -> Result<BackendReport, SimError> {
        params.validate().map_err(SimError::BadParams)?;
        check_shapes(topo, com, schedule)?;
        match schedule.kind() {
            ScheduleKind::Async => {
                // All messages form one pool (the AC program blasts them
                // without ordering constraints).
                let all = com.messages();
                self.estimate_pool(params, cost, topo, com, std::iter::once(all), false)
            }
            ScheduleKind::Phased => match scheme {
                Scheme::S2 => {
                    let sizes = word_sizes(com, schedule);
                    let phases = (schedule.phases().iter())
                        .zip(sizes.chunks_exact(com.n()))
                        .map(|(pm, size)| pm.pairs().map(|(s, d)| (s, d, size[s.index()])));
                    self.estimate_pool(params, cost, topo, com, phases, true)
                }
                Scheme::S1 => self.estimate_s1(params, cost, topo, com, schedule),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Selection
// ---------------------------------------------------------------------------

static DES: DesBackend = DesBackend {
    exec: ExecMode::Sequential,
};
static ANALYTIC: AnalyticBackend = AnalyticBackend;

/// Which backend prices a measurement. `Copy`-cheap so runners, requests
/// and records can carry it by value.
///
/// Runner-level selection is *intentionally closed* over this enum:
/// cells stay comparable, hashable, and stably labeled (`des` /
/// `analytic` in reports), and the experiment hot path keeps its
/// zero-cost dispatch. A third-party [`SimBackend`]
/// implementation is still first-class for estimation — call its
/// [`SimBackend::estimate`] directly (the conformance harness drives
/// both built-ins exactly that way); it just cannot masquerade as a
/// registered backend inside [`crate::ExperimentRunner`] /
/// [`crate::ExperimentGrid`] cells.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The exact discrete-event engine ([`DesBackend`]).
    #[default]
    Des,
    /// The occupancy model ([`AnalyticBackend`]).
    Analytic,
}

impl BackendKind {
    /// Both backends, DES first.
    pub fn all() -> [BackendKind; 2] {
        [BackendKind::Des, BackendKind::Analytic]
    }

    /// Stable label ("des" / "analytic").
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Des => "des",
            BackendKind::Analytic => "analytic",
        }
    }

    /// The backend implementation.
    pub fn backend(self) -> &'static dyn SimBackend {
        match self {
            BackendKind::Des => &DES,
            BackendKind::Analytic => &ANALYTIC,
        }
    }

    /// Parse a label (as accepted by the repro binaries' `IPSC_BACKEND`):
    /// `des`/`sim`/`event` for the event engine, `analytic` for the model.
    /// Case-sensitive, by design — typos should fail loudly, not fall
    /// back.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "des" | "sim" | "event" => Some(BackendKind::Des),
            "analytic" => Some(BackendKind::Analytic),
            _ => None,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsched::{ac, lp, registry, rs_nl};
    use hypercube::Hypercube;

    #[test]
    fn kind_roundtrips_and_env_defaults() {
        for kind in BackendKind::all() {
            assert_eq!(BackendKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.backend().name(), kind.label());
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(BackendKind::parse("sim"), Some(BackendKind::Des));
        assert_eq!(BackendKind::parse("DES"), None);
        assert_eq!(BackendKind::default(), BackendKind::Des);
    }

    #[test]
    fn both_backends_reject_shape_mismatches() {
        let cube = Hypercube::new(3);
        let com = CommMatrix::new(16); // wrong size for the 8-node cube
        let schedule = ac(&com);
        let params = MachineParams::ipsc860();
        for kind in BackendKind::all() {
            let err = kind
                .backend()
                .estimate(&params, &cube, &com, &schedule, Scheme::S2)
                .unwrap_err();
            assert!(matches!(err, SimError::BadParams(_)), "{kind}: {err}");
        }
        // Schedule from a different matrix size.
        let com8 = CommMatrix::new(8);
        let foreign = ac(&CommMatrix::new(16));
        for kind in BackendKind::all() {
            let err = kind
                .backend()
                .estimate(&params, &cube, &com8, &foreign, Scheme::S2)
                .unwrap_err();
            assert!(matches!(err, SimError::BadParams(_)), "{kind}: {err}");
        }
    }

    #[test]
    fn analytic_rejects_invalid_params_like_the_engine() {
        let cube = Hypercube::new(3);
        let com = CommMatrix::new(8);
        let params = MachineParams {
            long_per_byte_ns: -1.0,
            ..MachineParams::ipsc860()
        };
        let err = AnalyticBackend
            .estimate(&params, &cube, &com, &ac(&com), Scheme::S2)
            .unwrap_err();
        assert!(matches!(err, SimError::BadParams(_)), "{err}");
    }

    #[test]
    fn analytic_rejects_self_directed_phases() {
        use commsched::{ScheduleKind, SchedulerKind, SILENT};
        let cube = Hypercube::new(3);
        let com = CommMatrix::new(8);
        let mut table = vec![SILENT; 8];
        table[2] = 2;
        let hostile =
            Schedule::from_parts(ScheduleKind::Phased, SchedulerKind::RsN, 8, table, 0, 0);
        let err = AnalyticBackend
            .estimate(&MachineParams::ipsc860(), &cube, &com, &hostile, Scheme::S2)
            .unwrap_err();
        assert!(
            matches!(err, SimError::ProgramError { node: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn empty_matrix_estimates_to_zero_on_both_backends() {
        let cube = Hypercube::new(3);
        let com = CommMatrix::new(8);
        let params = MachineParams::ipsc860();
        for kind in BackendKind::all() {
            for (schedule, scheme) in [(ac(&com), Scheme::S2), (lp(&com), Scheme::S1)] {
                let r = kind
                    .backend()
                    .estimate(&params, &cube, &com, &schedule, scheme)
                    .unwrap();
                assert_eq!(r.makespan_ns, 0, "{kind}");
                assert_eq!(r.contention, ContentionStats::default(), "{kind}");
            }
        }
    }

    #[test]
    fn single_message_agrees_exactly_across_backends() {
        // The contention-free anchor: one message, any schedule family.
        let cube = Hypercube::new(4);
        let params = MachineParams::ipsc860();
        let mut com = CommMatrix::new(16);
        com.set(3, 9, 4096);
        let hops = 2; // 3 ^ 9 = 0b1010
        for &entry in registry::all() {
            let schedule = entry.schedule(&com, &cube, 1);
            let scheme = Scheme::for_scheduler(entry);
            let des = DesBackend::default()
                .estimate(&params, &cube, &com, &schedule, scheme)
                .unwrap();
            let ana = AnalyticBackend
                .estimate(&params, &cube, &com, &schedule, scheme)
                .unwrap();
            assert_eq!(
                des.makespan_ns,
                ana.makespan_ns,
                "{} disagrees: des={} analytic={}",
                entry.name(),
                des.makespan_ns,
                ana.makespan_ns
            );
            assert!(!des.phase_end_ns.is_empty());
            assert_eq!(ana.phase_end_ns.len(), schedule.num_phases().max(1));
        }
        // And the value itself is the closed form.
        let schedule = ac(&com);
        let r = AnalyticBackend
            .estimate(&params, &cube, &com, &schedule, Scheme::S2)
            .unwrap();
        assert_eq!(
            r.makespan_ns,
            params.send_overhead_ns + params.transfer_ns(4096, hops)
        );
    }

    #[test]
    fn phase_profile_is_monotone_and_bounded() {
        let cube = Hypercube::new(4);
        let com = workloads::random_dregular(16, 4, 2048, 9);
        let params = MachineParams::ipsc860();
        let schedule = rs_nl(&com, &cube, 9);
        for kind in BackendKind::all() {
            let r = kind
                .backend()
                .estimate(&params, &cube, &com, &schedule, Scheme::S1)
                .unwrap();
            assert_eq!(r.phase_end_ns.len(), schedule.num_phases());
            let mut prev = 0;
            for &end in &r.phase_end_ns {
                assert!(end >= prev, "{kind}: non-monotone profile");
                prev = end;
            }
            assert!(prev <= r.makespan_ns, "{kind}");
            assert_eq!(r.phase_ns().iter().sum::<u64>(), prev, "{kind}");
            assert!(r.contention.max_engine_busy_ns > 0, "{kind}");
        }
    }

    #[test]
    fn every_word_is_sized_as_its_row_search_sizes_it() {
        let cube = Hypercube::new(5);
        let com = workloads::random_dregular(32, 6, 1024, 4);
        for &entry in registry::all() {
            let schedule = entry.schedule(&com, &cube, 2);
            let sizes = word_sizes(&com, &schedule);
            assert_eq!(sizes.len(), schedule.table().len());
            for (at, &word) in schedule.table().iter().enumerate() {
                let want = if word == SILENT {
                    0
                } else {
                    com.get(at % 32, word as usize)
                };
                assert_eq!(sizes[at], want, "{} word {at}", entry.name());
            }
        }
    }

    #[test]
    fn analytic_flags_contention_where_the_schedule_has_it() {
        let cube = Hypercube::new(3);
        let params = MachineParams::ipsc860();
        // Bit-reverse-style collisions: AC over a dense matrix contends.
        let com = workloads::random_dense(8, 4, 8192, 3);
        let contended = AnalyticBackend
            .estimate(&params, &cube, &com, &ac(&com), Scheme::S2)
            .unwrap();
        assert!(contended.contention.contended_transfers > 0);
        assert!(contended.contention.contended_phases >= 1);
        // A single-message matrix does not.
        let mut lone = CommMatrix::new(8);
        lone.set(0, 5, 512);
        let free = AnalyticBackend
            .estimate(&params, &cube, &lone, &ac(&lone), Scheme::S2)
            .unwrap();
        assert_eq!(free.contention.contended_transfers, 0);
        assert_eq!(free.contention.contended_phases, 0);
    }

    /// The S1 estimate as it was computed before the single-record
    /// table: availability times and busy totals in one `(free_at,
    /// busy_total)` vector per class, the phase occupancy in a
    /// [`LoadModel`] reset per phase — three structures, each transfer's
    /// claim set walked three times.
    fn reference_s1(
        params: &MachineParams,
        cost: &LinkCostModel,
        topo: &dyn Topology,
        com: &CommMatrix,
        schedule: &Schedule,
    ) -> Result<BackendReport, SimError> {
        let first_active = schedule.phases().iter().position(|pm| !pm.is_empty());
        // One table per resource class, `(free_at, busy_total)` per
        // resource: when the max-plus recurrence next finds it free, and
        // the cross-phase busy total behind the contention indicators
        // (the event engine's per-node `engine_busy_ns` analogue). A
        // transfer reads its claim set once (the start time) and writes
        // it once (both fields).
        let mut nodes = vec![(0u64, 0u64); com.n()];
        let mut links = vec![(0u64, 0u64); topo.link_count()];
        let (mut max_engine_busy_ns, mut max_link_busy_ns) = (0u64, 0u64);
        let mut claims = Vec::new();
        let mut rev = Vec::new();
        let mut phase_model = LoadModel::new(topo, params.ports);
        let mut phase_end_ns = Vec::with_capacity(schedule.num_phases());
        let mut chain_ns = 0u64; // max-plus running makespan
        let mut sum_ns = 0u64; // per-phase pool running sum
        let mut contended_transfers = 0u64;
        let mut contended_phases = 0usize;
        for (k, pm) in schedule.phases().iter().enumerate() {
            phase_model.reset();
            let mut phase_contended = false;
            for (src, dst) in pm.pairs() {
                // One routing pass per direction covers the price, the
                // max-plus step, the busy totals and the phase pool.
                let spec = if pm.is_exchange_pair(src) {
                    // Each reciprocal pair fuses into one rendezvous
                    // transfer; account it once, from its lower endpoint.
                    if src.0 > dst.0 {
                        continue;
                    }
                    cost.route_into(topo, src, dst, &mut claims)?;
                    cost.route_into(topo, dst, src, &mut rev)?;
                    let fwd_ns =
                        cost.transfer_ns(params, com.get(src.index(), dst.index()), &claims);
                    let rev_ns = cost.transfer_ns(params, com.get(dst.index(), src.index()), &rev);
                    claims.extend_from_slice(&rev);
                    // One fused spec covers both port models: the engine
                    // fuses the pair into a single rendezvous transfer
                    // under unified ports, and runs the directions as two
                    // concurrent sync-paying transfers under split ports
                    // — either way the pair occupies both circuits and
                    // completes at `sync + max(fwd, rev)` after the
                    // rendezvous, and `LoadModel` claims the endpoints
                    // per the active port model.
                    TransferSpec {
                        src,
                        dst,
                        busy_ns: params.exchange_sync_ns + fwd_ns.max(rev_ns),
                        lead_ns: 0,
                        fused: true,
                    }
                } else {
                    // One-way message under loose synchrony: the receiver
                    // posts and signals ready, the sender transmits on the
                    // signal. The handshake of phase k+1 is prepared
                    // during phase k (double buffering), so only the
                    // first active phase pays it in full.
                    cost.route_into(topo, src, dst, &mut claims)?;
                    let lead_ns = if Some(k) == first_active {
                        // The zero-byte ready signal travels the reverse
                        // circuit (at its costed price).
                        cost.route_into(topo, dst, src, &mut rev)?;
                        params.recv_post_ns
                            + 2 * params.send_overhead_ns
                            + cost.transfer_ns(params, 0, &rev)
                    } else {
                        params.send_overhead_ns
                    };
                    TransferSpec {
                        src,
                        dst,
                        busy_ns: cost.transfer_ns(
                            params,
                            com.get(src.index(), dst.index()),
                            &claims,
                        ),
                        lead_ns,
                        fused: false,
                    }
                };

                // The max-plus step: read every claimed resource...
                let ends = [spec.src.index(), spec.dst.index()];
                let mut start = nodes[ends[0]].0.max(nodes[ends[1]].0);
                for l in &claims {
                    start = start.max(links[l.index()].0);
                }
                let end = start + spec.lead_ns + spec.busy_ns;
                chain_ns = chain_ns.max(end);
                // ...and write it: free again at `end`, busier by `busy`.
                for i in ends {
                    let (free_at, busy) = &mut nodes[i];
                    *free_at = end;
                    *busy += spec.busy_ns;
                    max_engine_busy_ns = max_engine_busy_ns.max(*busy);
                }
                for l in &claims {
                    let (free_at, busy) = &mut links[l.index()];
                    *free_at = end;
                    *busy += spec.busy_ns;
                    max_link_busy_ns = max_link_busy_ns.max(*busy);
                }

                if phase_model.add_with_route(spec, &claims) {
                    contended_transfers += 1;
                    phase_contended = true;
                }
            }
            contended_phases += usize::from(phase_contended);
            sum_ns += phase_model.makespan_ns();
            phase_end_ns.push(chain_ns.min(sum_ns));
        }
        Ok(BackendReport {
            makespan_ns: chain_ns.min(sum_ns),
            phase_end_ns,
            contention: ContentionStats {
                max_engine_busy_ns,
                max_link_busy_ns,
                contended_transfers,
                contended_phases,
            },
        })
    }

    /// Every S1 report of `schedule` equals the reference's, field for
    /// field and phase for phase, under both port models and a uniform,
    /// a heterogeneous and a faulty fabric.
    fn assert_s1_equals_reference(topo: &dyn Topology, com: &CommMatrix, schedule: &Schedule) {
        for cost in [
            "uniform",
            "hetero:factor=4,frac=0.25,lat=1000,seed=7",
            "faulty:p=0.003,seed=7",
        ] {
            let cost = LinkCostModel::parse(cost).unwrap();
            for ports in [PortModel::Unified, PortModel::Split] {
                let params = MachineParams {
                    ports,
                    ..MachineParams::ipsc860()
                };
                let got = AnalyticBackend.estimate_s1(&params, &cost, topo, com, schedule);
                let want = reference_s1(&params, &cost, topo, com, schedule);
                let at = format!("{} {cost} {ports:?}", topo.name());
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(got.phase_end_ns, want.phase_end_ns, "{at}");
                        assert_eq!(got, want, "{at}");
                    }
                    (got, want) => assert_eq!(
                        got.map_err(|e| e.to_string()),
                        want.map_err(|e| e.to_string()),
                        "{at}"
                    ),
                }
            }
        }
    }

    #[test]
    fn s1_single_record_recurrence_equals_the_three_structure_reference() {
        // RS_NL and LP on traffic with a symmetric part, so phases mix
        // fused exchange pairs with one-way messages.
        for fabric in ["cube:d=4", "cube:d=6", "torus:4x4x4", "fattree:k=4"] {
            let topo = topo::TopologyKind::parse(fabric).unwrap().build();
            let n = topo.num_nodes();
            let mut mixed = workloads::random_nonuniform(n, 6, 64, 128 * 1024, 11);
            for i in 0..n / 2 {
                mixed.set(i, n - 1 - i, 2048 + i as u32);
                mixed.set(n - 1 - i, i, 512);
            }
            for com in [workloads::random_dregular(n, 5, 1024, 3), mixed] {
                for name in ["RS_NL", "LP", "RS_N"] {
                    let entry = registry::find(name).unwrap();
                    if entry.supports_topology(&*topo) {
                        let schedule = entry.schedule(&com, &*topo, 9);
                        assert_s1_equals_reference(&*topo, &com, &schedule);
                    }
                }
            }
        }

        // A hand-built schedule the recurrence serializes on: an empty
        // phase, then a first active phase of two exchange pairs beside
        // one-way chain links, then the chain 0 -> 1 -> ... -> 15 whole,
        // then the same chain again (links and engines still warm).
        use commsched::{SchedulerKind, SILENT};
        let cube = Hypercube::new(4);
        let mut com = CommMatrix::new(16);
        let mut first = vec![SILENT; 16];
        for (a, b) in [(2u32, 9u32), (5, 12)] {
            first[a as usize] = b;
            first[b as usize] = a;
            com.set(a as usize, b as usize, 4096 + a);
            com.set(b as usize, a as usize, 100 * b);
        }
        let mut chain = vec![SILENT; 16];
        for i in 0..15u32 {
            chain[i as usize] = i + 1;
            com.set(i as usize, i as usize + 1, 300 + 700 * i);
            let in_a_pair = |v| [2, 9, 5, 12].contains(&v);
            if !in_a_pair(i) && !in_a_pair(i + 1) {
                first[i as usize] = i + 1;
            }
        }
        let table = [vec![SILENT; 16], first, chain.clone(), chain].concat();
        let schedule =
            Schedule::from_parts(ScheduleKind::Phased, SchedulerKind::RsNl, 16, table, 0, 0);
        let first = schedule.phases().get(1).unwrap();
        assert!(first.is_exchange_pair(NodeId(9)) && !first.is_exchange_pair(NodeId(0)));
        assert_s1_equals_reference(&cube, &com, &schedule);
        let report = AnalyticBackend
            .estimate(
                &MachineParams::ipsc860(),
                &cube,
                &com,
                &schedule,
                Scheme::S1,
            )
            .unwrap();
        assert_eq!(report.phase_end_ns[0], 0, "nothing moves in an empty phase");
        assert!(report.phase_end_ns.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn des_backend_matches_the_runner_fast_path() {
        // DesBackend must report exactly what the untraced simulate
        // reports — the runner's default measurements are its numbers.
        let cube = Hypercube::new(4);
        let com = workloads::random_dregular(16, 3, 1024, 4);
        let params = MachineParams::ipsc860();
        let schedule = rs_nl(&com, &cube, 4);
        let direct =
            simnet::simulate(&cube, &params, crate::compile(&com, &schedule, Scheme::S1)).unwrap();
        let via_backend = DesBackend::default()
            .estimate(&params, &cube, &com, &schedule, Scheme::S1)
            .unwrap();
        assert_eq!(direct.makespan_ns, via_backend.makespan_ns);
    }
}
