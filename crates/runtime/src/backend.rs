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
//!   engine ([`simnet::simulate_traced`]), extracting phase boundaries
//!   from the execution trace.
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
//! carries a [`BackendKind`], grid columns can override it per column
//! ([`crate::grid::GridColumn::with_backend`]), and the repro binaries
//! read the `IPSC_BACKEND` environment variable.

use std::fmt;

use commsched::{CommMatrix, Schedule, ScheduleKind};
use hypercube::{LinkId, NodeId, Topology};
use simnet::cost::resolve_route;
use simnet::{
    ExecMode, LinkCostModel, LoadModel, MachineParams, SimError, TraceKind, TransferSpec,
};

use crate::compile::compile;
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
fn check_shapes(
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

/// Write the circuit a `src -> dst` transfer travels under `cost` into
/// `out` (cleared first): the topology's route on the uniform machine —
/// no allocation, and [`LinkCostModel::transfer_ns`] over it is *exactly*
/// the legacy `transfer_ns(bytes, hops)` — otherwise the resolved route,
/// detouring around down links where the fabric permits. Either way the
/// caller prices and claims the links actually travelled, from this one
/// routing pass.
///
/// # Errors
///
/// [`SimError::LinkDown`] when the route crosses a down link with no
/// detour.
fn circuit_into(
    topo: &dyn Topology,
    cost: &LinkCostModel,
    src: NodeId,
    dst: NodeId,
    out: &mut Vec<LinkId>,
) -> Result<(), SimError> {
    if cost.is_uniform() {
        topo.route_into(src, dst, out);
    } else {
        out.clear();
        out.extend_from_slice(resolve_route(topo, cost, src, dst)?.links());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Discrete-event backend
// ---------------------------------------------------------------------------

/// The exact backend: compile to per-node programs and replay on the
/// discrete-event engine, with phase boundaries read off the trace.
///
/// This is the same code path [`crate::ExperimentRunner`] fast-paths for
/// its default measurements (minus the trace); makespans agree exactly.
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
        let (report, trace) = simnet::simulate_traced(topo, params, cost, programs)?;
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
            // Data traffic carries even tags (`data_tag`); ready signals
            // are odd and do not mark phase completion.
            let phase = (ev.tag.0 as usize / 2).min(phases - 1);
            match ev.kind {
                TraceKind::Requested => {
                    requested.entry(key).or_insert(ev.time_ns);
                }
                TraceKind::Started => {
                    if ev.tag.0 % 2 == 0 {
                        if let Some(&req) = requested.get(&key) {
                            if ev.time_ns > req + params.send_overhead_ns {
                                contended_phase[phase] = true;
                            }
                        }
                    }
                }
                TraceKind::Finished | TraceKind::Copied => {
                    if ev.tag.0 % 2 == 0 {
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
///   `exchange_sync_ns + max(both directions)` and claims both circuits.
///   Each circuit is routed once per estimate: the route's length is the
///   hop count it is priced at, and the same links are what it claims.
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

impl AnalyticBackend {
    /// Reject self-pairs a hand-assembled schedule could smuggle past the
    /// matrix (which forbids diagonal entries).
    fn check_phases(schedule: &Schedule) -> Result<(), SimError> {
        for pm in schedule.phases() {
            for (src, dst) in pm.pairs() {
                if src == dst {
                    return Err(SimError::ProgramError {
                        node: src.index(),
                        msg: "self-directed message in a schedule phase".into(),
                    });
                }
            }
        }
        Ok(())
    }

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
    fn estimate_pool<P: Iterator<Item = (NodeId, NodeId)>>(
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
        let mut in_degree = vec![0u64; n];
        for (_, dst, _) in com.messages() {
            in_degree[dst.index()] += 1;
        }
        let mut sends_before = vec![0u64; n];
        let mut pool = LoadModel::new(topo, params.ports);
        let mut claims = Vec::new();
        let mut phase_end_ns = Vec::with_capacity(phases.size_hint().0);
        let mut contended_transfers = 0u64;
        let mut contended_phases = 0usize;
        for phase in phases {
            let mut phase_contended = false;
            for (src, dst) in phase {
                let bytes = com.get(src.index(), dst.index());
                circuit_into(topo, cost, src, dst, &mut claims)?;
                let j = if ramped { sends_before[src.index()] } else { 0 };
                sends_before[src.index()] += 1;
                let spec = TransferSpec {
                    src,
                    dst,
                    busy_ns: cost.transfer_ns(params, bytes, &claims),
                    lead_ns: in_degree[src.index()] * params.recv_post_ns
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
    /// — still pure arithmetic over occupancy times, no events. The
    /// availability times live beside the cross-phase busy totals in one
    /// `(free_at, busy_total)` table per resource class (nodes, links),
    /// so a transfer's claim set is read once and written once.
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
                    circuit_into(topo, cost, src, dst, &mut claims)?;
                    circuit_into(topo, cost, dst, src, &mut rev)?;
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
                    circuit_into(topo, cost, src, dst, &mut claims)?;
                    let lead_ns = if Some(k) == first_active {
                        // The zero-byte ready signal travels the reverse
                        // circuit (at its costed price).
                        circuit_into(topo, cost, dst, src, &mut rev)?;
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
        Self::check_phases(schedule)?;
        match schedule.kind() {
            ScheduleKind::Async => {
                // All messages form one pool (the AC program blasts them
                // without ordering constraints).
                let all = com.messages().map(|(s, d, _)| (s, d));
                self.estimate_pool(params, cost, topo, com, std::iter::once(all), false)
            }
            ScheduleKind::Phased => match scheme {
                Scheme::S2 => {
                    let phases = schedule.phases().iter().map(|pm| pm.pairs());
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

/// Which backend prices a measurement. `Copy`-cheap so runners, grid
/// columns, and records can carry it by value.
///
/// Runner-level selection is *intentionally closed* over this enum:
/// cells stay comparable, hashable, and stably labeled (`des` /
/// `analytic` in grid column labels and reports), and the experiment
/// hot path keeps its zero-cost dispatch. A third-party [`SimBackend`]
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

    /// Parse a label (as accepted by the `IPSC_BACKEND` environment
    /// variable): `des`/`sim`/`event` for the event engine, `analytic`
    /// for the model. Case-sensitive, by design — env typos should fail
    /// loudly, not fall back.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "des" | "sim" | "event" => Some(BackendKind::Des),
            "analytic" => Some(BackendKind::Analytic),
            _ => None,
        }
    }

    /// Backend selection from the `IPSC_BACKEND` environment variable;
    /// unset or empty means [`BackendKind::Des`].
    ///
    /// # Errors
    ///
    /// An unrecognized value, echoed back with the accepted set.
    pub fn from_env() -> Result<BackendKind, String> {
        match std::env::var("IPSC_BACKEND") {
            Err(std::env::VarError::NotPresent) => Ok(BackendKind::Des),
            // A present-but-garbled value must fail like any other typo,
            // not silently price the sweep on the default substrate.
            Err(std::env::VarError::NotUnicode(v)) => Err(format!(
                "IPSC_BACKEND={v:?} is not valid UTF-8; use \"des\" or \"analytic\""
            )),
            Ok(v) if v.is_empty() => Ok(BackendKind::Des),
            Ok(v) => BackendKind::parse(&v).ok_or(format!(
                "IPSC_BACKEND={v:?} is not a backend; use \"des\" or \"analytic\""
            )),
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
        use commsched::{PartialPermutation, ScheduleKind, SchedulerKind};
        let cube = Hypercube::new(3);
        let com = CommMatrix::new(8);
        let mut pm = PartialPermutation::empty(8);
        pm.assign(NodeId(2), NodeId(2));
        let hostile =
            Schedule::from_parts(ScheduleKind::Phased, SchedulerKind::RsN, 8, vec![pm], 0, 0);
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

    #[test]
    fn des_backend_matches_the_runner_fast_path() {
        // DesBackend must report exactly what the untraced simulate
        // reports — the runner's default measurements are its numbers.
        let cube = Hypercube::new(4);
        let com = workloads::random_dregular(16, 3, 1024, 4);
        let params = MachineParams::ipsc860();
        let schedule = rs_nl(&com, &cube, 4);
        let direct = crate::run_schedule(&cube, &params, &com, &schedule, Scheme::S1).unwrap();
        let via_backend = DesBackend::default()
            .estimate(&params, &cube, &com, &schedule, Scheme::S1)
            .unwrap();
        assert_eq!(direct.makespan_ns, via_backend.makespan_ns);
    }
}
