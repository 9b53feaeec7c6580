//! Contention-aware analytic load model — the event-free half of the
//! simulation layer.
//!
//! The discrete-event engine ([`crate::simulate`]) is exact but pays for
//! every circuit claim with heap events; large experiment grids are
//! simulation-bound. This module provides the machine-level arithmetic a
//! LogP/LogGP-style *analytic* backend builds on: callers describe one
//! pool of concurrent transfers as [`TransferSpec`]s (priced via
//! [`crate::MachineParams`]) and the [`LoadModel`] accumulates the
//! occupancy each transfer places on the machine's shared resources —
//! node communication engines (or split send/receive ports) and directed
//! links — exactly the resources the event engine's router arbitrates.
//!
//! The estimate for a pool is
//!
//! ```text
//! makespan = max( max_t (lead_t + busy_t),              // critical transfer
//!                 max_r (min_lead_r + occupancy_r) )    // saturated resource
//! ```
//!
//! where `busy_t` is the time transfer `t` holds its circuit, `lead_t` is
//! software latency before `t` can request the circuit, and `occupancy_r`
//! sums `busy_t` over every transfer claiming resource `r`. Transfers
//! sharing a resource serialize in the event engine; summing their busy
//! times models that serialization without replaying it. For a pool in
//! which no two transfers share a resource the two maxima coincide with
//! the event engine's exact answer — the conformance suite pins that
//! (`tests/backend_conformance.rs` at the workspace root).
//!
//! The model is hot-path code (one pool per schedule phase across whole
//! experiment grids), so every resource a transfer claims is touched
//! once: the pool's maxima are kept up to date as claims arrive,
//! [`LoadModel::reset`] starts a new generation instead of clearing
//! slots, and the rare rescan walks a dirty-index list of the resources
//! the current pool actually claimed, not the whole machine.
//!
//! What the model deliberately ignores (tolerance, not bug): idle gaps a
//! resource spends waiting on another resource's hand-off, claim-policy
//! differences ([`crate::ClaimPolicy`] is modeled as atomic), and
//! system-buffer traffic (arrivals are assumed posted).

use hypercube::{LinkId, NodeId, Topology};

use crate::sparse::{MapMode, SparseMap};
use crate::PortModel;

/// Resource-pool representation of a [`LoadModel`].
///
/// Dense keeps one slot per machine resource (fastest below
/// ~64K resources); Sparse keys occupancy by resource id in an
/// open-addressed table so memory and reset cost scale with the traffic,
/// admitting million-node fabrics (d=20: ~1M nodes, ~20M directed
/// links). `Auto` picks per resource class by machine size — the two
/// representations are bit-identical in output (pinned by proptests in
/// `tests/sparse_pool_diff.rs`), so the choice is purely a
/// space/time trade.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PoolMode {
    /// Dense at or below the crossover (65_536 resources), sparse above.
    #[default]
    Auto,
    /// Force dense vectors (one slot per resource).
    Dense,
    /// Force the open-addressed sparse tables.
    Sparse,
}

impl PoolMode {
    fn map_mode(self) -> MapMode {
        match self {
            PoolMode::Auto => MapMode::Auto,
            PoolMode::Dense => MapMode::Dense,
            PoolMode::Sparse => MapMode::Sparse,
        }
    }
}

/// One transfer in an analytic pool: endpoints, circuit-occupancy time,
/// and the software lead before the circuit is requested.
///
/// Pricing is the caller's job — [`crate::MachineParams::transfer_ns`]
/// for a plain message, the fused-exchange maximum for a pairwise
/// exchange — so the model stays protocol-agnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferSpec {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Time the transfer holds its circuit (ns).
    pub busy_ns: u64,
    /// Software latency before the circuit is requested (ns): send
    /// initiation, receive posting, handshake rounds.
    pub lead_ns: u64,
    /// Fused pairwise exchange: claims both endpoints' engines and the
    /// circuits of *both* directions for `busy_ns` (the event engine's
    /// `TKind::Fused`).
    pub fused: bool,
}

/// Occupancy of one resource: summed busy time, earliest lead among its
/// users, the user count, and the generation of its class the three were
/// written in — a slot from an earlier generation reads as unclaimed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Occ {
    busy_ns: u64,
    min_lead: u64,
    users: u32,
    gen: u32,
}

/// An unclaimed resource (the sparse map's empty value; generation 0 is
/// never current).
const FREE: Occ = Occ {
    busy_ns: 0,
    min_lead: u64::MAX,
    users: 0,
    gen: 0,
};

/// One class of identical resources (engines, receive ports, links) with
/// dirty-index bookkeeping: only entries claimed since the last reset are
/// ever scanned, and a reset touches none of them — it starts a new
/// generation, which every slot written before it no longer belongs to.
/// The occupancy table is a [`SparseMap`], so on million-node fabrics
/// memory follows the traffic, not the machine.
///
/// The three aggregates the pool reports — span maximum, busiest
/// occupancy, shared flag — are maintained as resources are claimed, so
/// reading them does not rescan the class. Occupancy and user counts only
/// grow, so their aggregates are exact running maxima. A span can
/// *shrink*: a claim that lowers a resource's `min_lead` by more than the
/// `busy` it adds lowers `min_lead + busy`. If that resource held the
/// maximum, `span_max` is only an upper bound from then on (`stale`) and
/// [`ResourceClass::span`] rescans the dirty list until a claim reaches
/// the bound again and becomes the exact maximum.
#[derive(Clone, Debug)]
struct ResourceClass {
    occ: SparseMap<Occ>,
    gen: u32,
    dirty: Vec<usize>,
    span_max: u64,
    stale: bool,
    busy_max: u64,
    shared: bool,
}

impl ResourceClass {
    fn new(len: usize, mode: MapMode) -> Self {
        ResourceClass {
            occ: SparseMap::new(len, FREE, mode),
            gen: 1,
            dirty: Vec::new(),
            span_max: 0,
            stale: false,
            busy_max: 0,
            shared: false,
        }
    }

    fn reset(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Generation wrap-around (one reset per phase: practically
            // unreachable): hard reset.
            self.occ.fill(FREE);
            self.gen = 1;
        }
        self.dirty.clear();
        self.span_max = 0;
        self.stale = false;
        self.busy_max = 0;
        self.shared = false;
    }

    /// Claim resource `i`; returns whether it was already claimed.
    fn claim(&mut self, i: usize, spec: &TransferSpec) -> bool {
        let gen = self.gen;
        let slot = self.occ.slot(i);
        let old = if slot.gen == gen { *slot } else { FREE };
        let new = Occ {
            busy_ns: old.busy_ns + spec.busy_ns,
            min_lead: old.min_lead.min(spec.lead_ns),
            users: old.users + 1,
            gen,
        };
        *slot = new;
        let shared = old.users > 0;
        let old_span = if shared {
            old.min_lead + old.busy_ns
        } else {
            0
        };
        let (span, busy) = (new.min_lead + new.busy_ns, new.busy_ns);
        if !shared {
            self.dirty.push(i);
        }
        self.shared |= shared;
        self.busy_max = self.busy_max.max(busy);
        if span >= self.span_max {
            // Every other resource is at or below the old bound.
            self.span_max = span;
            self.stale = false;
        } else if span < old_span && old_span == self.span_max {
            self.stale = true;
        }
        shared
    }

    /// `max_i (min_lead_i + busy_i)` over claimed entries.
    fn span(&self) -> u64 {
        if self.stale {
            self.rescan_span()
        } else {
            self.span_max
        }
    }

    /// [`ResourceClass::span`] from the occupancy table alone.
    fn rescan_span(&self) -> u64 {
        self.dirty
            .iter()
            .map(|&i| {
                let o = self.occ.get(i);
                o.min_lead + o.busy_ns
            })
            .max()
            .unwrap_or(0)
    }

    fn resident_bytes(&self) -> usize {
        self.occ.resident_bytes() + self.dirty.capacity() * std::mem::size_of::<usize>()
    }
}

/// Aggregated occupancy of one pool of concurrent transfers.
///
/// Feed transfers with [`LoadModel::add`] (or, on hot paths that already
/// hold the circuit, [`LoadModel::add_with_route`]); read the running
/// estimate with [`LoadModel::makespan_ns`] after any prefix of the pool
/// (the phased backends read it after every phase). The estimate is *not*
/// monotone in the transfers added: a resource's span starts at the
/// earliest lead among its users, so a late transfer with an early lead
/// can pull a shared resource's span — and with it the makespan — down.
#[derive(Clone, Debug)]
pub struct LoadModel {
    ports: PortModel,
    /// Unified engine per node, or the send port under split ports.
    engine: ResourceClass,
    /// Split-port receive side (unused under [`PortModel::Unified`]).
    recv: ResourceClass,
    link: ResourceClass,
    /// `max_t (lead_t + busy_t)` over everything added so far.
    path_max_ns: u64,
    transfers: usize,
    route_scratch: Vec<LinkId>,
    rev_scratch: Vec<LinkId>,
}

impl LoadModel {
    /// An empty pool over `topo`'s resources, with the pool
    /// representation picked automatically ([`PoolMode::Auto`]).
    pub fn new<T: Topology + ?Sized>(topo: &T, ports: PortModel) -> Self {
        Self::with_mode(topo, ports, PoolMode::Auto)
    }

    /// An empty pool with an explicit representation — the differential
    /// tests force [`PoolMode::Dense`] vs [`PoolMode::Sparse`] to pin
    /// bit-identity; callers pricing million-node fabrics below the
    /// crossover threshold can force sparse.
    pub fn with_mode<T: Topology + ?Sized>(topo: &T, ports: PortModel, mode: PoolMode) -> Self {
        let n = topo.num_nodes();
        let mode = mode.map_mode();
        LoadModel {
            ports,
            engine: ResourceClass::new(n, mode),
            recv: ResourceClass::new(n, mode),
            link: ResourceClass::new(topo.link_count(), mode),
            path_max_ns: 0,
            transfers: 0,
            route_scratch: Vec::new(),
            rev_scratch: Vec::new(),
        }
    }

    /// Whether every resource class is on the dense representation
    /// (diagnostics and tests).
    pub fn is_dense(&self) -> bool {
        self.engine.occ.is_dense() && self.recv.occ.is_dense() && self.link.occ.is_dense()
    }

    /// Approximate heap footprint of the occupancy state in bytes — the
    /// scale bench's peak-RSS proxy. Sparse pools stay traffic-sized on
    /// any fabric; dense pools scale with the machine.
    pub fn resident_bytes(&self) -> usize {
        self.engine.resident_bytes() + self.recv.resident_bytes() + self.link.resident_bytes()
    }

    /// Clear all occupancy (reuse across phases without reallocating) in
    /// constant time.
    pub fn reset(&mut self) {
        self.engine.reset();
        self.recv.reset();
        self.link.reset();
        self.path_max_ns = 0;
        self.transfers = 0;
    }

    /// Account one transfer whose full claim set (`links` = the circuit,
    /// plus the reverse circuit for fused exchanges) the caller already
    /// routed. Returns `true` when the transfer joined at least one
    /// resource another transfer already held — the analytic analogue of
    /// the event engine's "transfer could not start immediately".
    pub fn add_with_route(&mut self, spec: TransferSpec, links: &[LinkId]) -> bool {
        self.transfers += 1;
        self.path_max_ns = self.path_max_ns.max(spec.lead_ns + spec.busy_ns);
        let (src, dst) = (spec.src.index(), spec.dst.index());
        let mut shared = self.engine.claim(src, &spec);
        match self.ports {
            // A fused exchange occupies both unified engines symmetrically;
            // so does a plain message (Observation 1: one engine per node).
            PortModel::Unified => shared |= self.engine.claim(dst, &spec),
            PortModel::Split => {
                shared |= self.recv.claim(dst, &spec);
                if spec.fused {
                    shared |= self.engine.claim(dst, &spec);
                    shared |= self.recv.claim(src, &spec);
                }
            }
        }
        for l in links {
            shared |= self.link.claim(l.index(), &spec);
        }
        shared
    }

    /// [`LoadModel::add_with_route`], routing the circuit(s) on `topo`
    /// first.
    pub fn add<T: Topology + ?Sized>(&mut self, topo: &T, spec: TransferSpec) -> bool {
        let mut links = std::mem::take(&mut self.route_scratch);
        let mut rev = std::mem::take(&mut self.rev_scratch);
        route_claims(topo, &spec, &mut links, &mut rev);
        let shared = self.add_with_route(spec, &links);
        self.route_scratch = links;
        self.rev_scratch = rev;
        shared
    }

    /// The pool's makespan estimate: the slowest single transfer or the
    /// most occupied resource, whichever dominates.
    pub fn makespan_ns(&self) -> u64 {
        self.path_max_ns
            .max(self.engine.span())
            .max(self.recv.span())
            .max(self.link.span())
    }

    /// Busiest engine/port occupancy (ns) — contention pressure at nodes.
    pub fn max_engine_ns(&self) -> u64 {
        self.engine.busy_max.max(self.recv.busy_max)
    }

    /// Busiest directed-link occupancy (ns) — contention pressure on wires.
    pub fn max_link_ns(&self) -> u64 {
        self.link.busy_max
    }

    /// Transfers added so far.
    pub fn transfers(&self) -> usize {
        self.transfers
    }

    /// Whether any resource is claimed by two or more transfers.
    pub fn contended(&self) -> bool {
        self.engine.shared || self.recv.shared || self.link.shared
    }
}

/// Write `spec`'s full claim set into `out` (cleared first): the forward
/// circuit, plus the reverse circuit for fused exchanges. `scratch` is a
/// caller-owned buffer that keeps the reverse routing allocation-free on
/// hot paths.
pub fn route_claims<T: Topology + ?Sized>(
    topo: &T,
    spec: &TransferSpec,
    out: &mut Vec<LinkId>,
    scratch: &mut Vec<LinkId>,
) {
    topo.route_into(spec.src, spec.dst, out);
    if spec.fused {
        topo.route_into(spec.dst, spec.src, scratch);
        out.extend_from_slice(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypercube::Hypercube;

    fn spec(src: u32, dst: u32, busy: u64, lead: u64) -> TransferSpec {
        TransferSpec {
            src: NodeId(src),
            dst: NodeId(dst),
            busy_ns: busy,
            lead_ns: lead,
            fused: false,
        }
    }

    #[test]
    fn empty_pool_is_zero() {
        let cube = Hypercube::new(3);
        let m = LoadModel::new(&cube, PortModel::Unified);
        assert_eq!(m.makespan_ns(), 0);
        assert_eq!(m.max_engine_ns(), 0);
        assert_eq!(m.max_link_ns(), 0);
        assert!(!m.contended());
    }

    #[test]
    fn disjoint_transfers_take_the_slowest_path() {
        let cube = Hypercube::new(3);
        let mut m = LoadModel::new(&cube, PortModel::Unified);
        assert!(!m.add(&cube, spec(0, 1, 100, 10)));
        assert!(!m.add(&cube, spec(2, 3, 250, 5)));
        assert_eq!(m.makespan_ns(), 255);
        assert!(!m.contended());
    }

    #[test]
    fn shared_engine_serializes() {
        let cube = Hypercube::new(3);
        let mut m = LoadModel::new(&cube, PortModel::Unified);
        // Node 0 sends twice: its engine carries both transfers.
        assert!(!m.add(&cube, spec(0, 1, 100, 10)));
        assert!(m.add(&cube, spec(0, 2, 100, 25)), "second user is flagged");
        assert_eq!(m.makespan_ns(), 10 + 200);
        assert!(m.contended());
    }

    #[test]
    fn unified_receiver_engine_counts_too() {
        let cube = Hypercube::new(3);
        let mut m = LoadModel::new(&cube, PortModel::Unified);
        m.add(&cube, spec(0, 3, 100, 0));
        m.add(&cube, spec(5, 3, 100, 0));
        // Both messages land on node 3's unified engine.
        assert_eq!(m.makespan_ns(), 200);

        let mut split = LoadModel::new(&cube, PortModel::Split);
        split.add(&cube, spec(0, 3, 100, 0));
        split.add(&cube, spec(5, 3, 100, 0));
        // Still serialized — the split receive port is one resource.
        assert_eq!(split.makespan_ns(), 200);
        // But a send overlapping a receive is free under split ports.
        let mut duplex = LoadModel::new(&cube, PortModel::Split);
        assert!(!duplex.add(&cube, spec(0, 3, 100, 0)));
        assert!(!duplex.add(&cube, spec(3, 0, 100, 0)));
        assert_eq!(duplex.makespan_ns(), 100);
    }

    #[test]
    fn shared_link_serializes() {
        let cube = Hypercube::new(3);
        // 0 -> 3 (links (0,d0),(1,d1)) and 1 -> 7 (links (1,d1),(3,d2))
        // share directed link (1,d1); endpoints are disjoint.
        let mut m = LoadModel::new(&cube, PortModel::Unified);
        assert!(!m.add(&cube, spec(0, 3, 300, 0)));
        assert!(m.add(&cube, spec(1, 7, 300, 0)));
        assert_eq!(m.makespan_ns(), 600);
        assert_eq!(m.max_link_ns(), 600);
        assert!(m.contended());
    }

    #[test]
    fn fused_exchange_claims_both_directions() {
        let cube = Hypercube::new(3);
        let mut m = LoadModel::new(&cube, PortModel::Unified);
        m.add(
            &cube,
            TransferSpec {
                src: NodeId(0),
                dst: NodeId(1),
                busy_ns: 500,
                lead_ns: 0,
                fused: true,
            },
        );
        // A later transfer out of node 1 serializes behind the exchange.
        assert!(m.add(&cube, spec(1, 3, 100, 0)));
        assert_eq!(m.makespan_ns(), 600);
        // And the reverse link 1 -> 0 is occupied by the fused claim.
        assert_eq!(m.max_link_ns(), 500);
    }

    #[test]
    fn leads_shift_resource_spans_and_reset_clears() {
        let cube = Hypercube::new(3);
        let mut m = LoadModel::new(&cube, PortModel::Unified);
        m.add(&cube, spec(0, 1, 100, 40));
        m.add(&cube, spec(0, 2, 100, 90));
        // Engine span starts at the *earliest* lead among its users.
        assert_eq!(m.makespan_ns(), 40 + 200);
        m.reset();
        assert_eq!(m.makespan_ns(), 0);
        assert_eq!(m.transfers(), 0);
        assert!(!m.contended());
        // Reuse after reset behaves like a fresh model.
        assert!(!m.add(&cube, spec(0, 1, 7, 3)));
        assert_eq!(m.makespan_ns(), 10);
    }

    #[test]
    fn an_early_lead_can_lower_the_makespan() {
        let cube = Hypercube::new(3);
        let mut m = LoadModel::new(&cube, PortModel::Split);
        // Two sends out of node 0: its send port spans 100 + (10 + 10).
        m.add(&cube, spec(0, 1, 10, 100));
        m.add(&cube, spec(0, 2, 10, 100));
        assert_eq!(m.makespan_ns(), 120);
        // A third with no lead drags the port's start to 0: 0 + 25. The
        // port held the maximum, so the pool falls back to its slowest
        // single transfer.
        m.add(&cube, spec(0, 4, 5, 0));
        assert_eq!(m.makespan_ns(), 110);
        assert_eq!(m.max_engine_ns(), 25);
        assert!(m.contended());
    }

    #[test]
    fn generation_wrap_does_not_resurrect_old_claims() {
        let cube = Hypercube::new(3);
        let mut m = LoadModel::new(&cube, PortModel::Unified);
        // Claimed in generation 1...
        m.add(&cube, spec(0, 3, 100, 0));
        // ...and never touched again for 2^32 - 2 resets.
        for class in [&mut m.engine, &mut m.recv, &mut m.link] {
            class.gen = u32::MAX;
        }
        m.reset();
        assert_eq!(m.engine.gen, 1, "wrapped past the never-current 0");
        assert!(
            !m.add(&cube, spec(0, 3, 7, 0)),
            "generation 1 again, but a fresh pool"
        );
        assert_eq!(m.makespan_ns(), 7);
    }

    /// What the three aggregates of `c` must read, from its occupancy
    /// table alone: (span maximum, busiest occupancy, any resource shared).
    fn rescan(c: &ResourceClass) -> (u64, u64, bool) {
        let occs = c.dirty.iter().map(|&i| c.occ.get(i));
        (
            occs.clone()
                .map(|o| o.min_lead + o.busy_ns)
                .max()
                .unwrap_or(0),
            occs.clone().map(|o| o.busy_ns).max().unwrap_or(0),
            occs.clone().any(|o| o.users > 1),
        )
    }

    #[test]
    fn claim_time_aggregates_equal_a_rescan() {
        let cube = Hypercube::new(4);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = move |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        let (mut links, mut tmp) = (Vec::new(), Vec::new());
        let mut went_stale = 0;
        for ports in [PortModel::Unified, PortModel::Split] {
            for mode in [PoolMode::Dense, PoolMode::Sparse] {
                let mut m = LoadModel::with_mode(&cube, ports, mode);
                for step in 0..20_000 {
                    if rand(97) == 0 {
                        m.reset();
                    }
                    let src = rand(16) as u32;
                    let t = TransferSpec {
                        src: NodeId(src),
                        dst: NodeId((src + 1 + rand(15) as u32) % 16),
                        busy_ns: rand(1000),
                        // Leads both far below and far above a busy time,
                        // so spans shrink as well as grow.
                        lead_ns: if rand(3) == 0 { rand(50) } else { rand(20_000) },
                        fused: rand(4) == 0,
                    };
                    route_claims(&cube, &t, &mut links, &mut tmp);
                    m.add_with_route(t, &links);
                    let classes = [&m.engine, &m.recv, &m.link];
                    went_stale += classes.iter().filter(|c| c.stale).count();
                    let [e, r, l] = classes.map(rescan);
                    let at = format!("{ports:?}/{mode:?} step {step}");
                    assert_eq!(
                        m.makespan_ns(),
                        m.path_max_ns.max(e.0).max(r.0).max(l.0),
                        "{at}"
                    );
                    assert_eq!(m.max_engine_ns(), e.1.max(r.1), "{at}");
                    assert_eq!(m.max_link_ns(), l.1, "{at}");
                    assert_eq!(m.contended(), e.2 || r.2 || l.2, "{at}");
                }
            }
        }
        assert!(
            went_stale > 0,
            "the shrinking-maximum rule was never exercised"
        );
    }

    #[test]
    fn route_claims_covers_both_directions_for_fused() {
        let cube = Hypercube::new(3);
        let (mut links, mut tmp) = (Vec::new(), Vec::new());
        let one_way = spec(0, 3, 1, 0);
        route_claims(&cube, &one_way, &mut links, &mut tmp);
        assert_eq!(links.len(), 2);
        let fused = TransferSpec {
            fused: true,
            ..one_way
        };
        route_claims(&cube, &fused, &mut links, &mut tmp);
        assert_eq!(links.len(), 4, "forward + reverse circuits");
    }
}
