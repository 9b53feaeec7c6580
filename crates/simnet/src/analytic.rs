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
//! The model is hot-path code (one pool per request in the daemon), so
//! what a claim costs is the design: a resource is one 16-byte
//! `(busy, min_lead)` slot, and claiming it is one indexed
//! read-modify-write plus the compares that keep the pool's maxima up to
//! date as claims arrive. The slots of every class small enough to be
//! dense share one allocation; a class above the crossover hashes its
//! slots instead, which is decided when the pool is built and matched
//! once per transfer, outside the claim loop. [`LoadModel::reset`] and
//! the rare rescan walk a dirty list of the resources the current pool
//! actually claimed, never the whole machine.
//!
//! What the model deliberately ignores (tolerance, not bug): idle gaps a
//! resource spends waiting on another resource's hand-off, claim-policy
//! differences ([`crate::ClaimPolicy`] is modeled as atomic), and
//! system-buffer traffic (arrivals are assumed posted).

use std::ops::Range;

use hypercube::{LinkId, NodeId, Topology};

use crate::sparse::SparseMap;
use crate::PortModel;

/// Resource-table representation: of a [`LoadModel`]'s pools, and of the
/// event engine's resource table.
///
/// Dense keeps one slot per machine resource (fastest below
/// ~64K resources); Sparse keys occupancy by resource id in an
/// open-addressed table so memory scales with the traffic, admitting
/// million-node fabrics (d=20: ~1M nodes, ~20M directed links). `Auto`
/// picks per resource class by machine size — the two representations
/// are bit-identical in output (pinned by proptests in
/// `tests/sparse_pool_diff.rs`), so the choice is purely a space/time
/// trade.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PoolMode {
    /// Dense at or below the crossover (65_536 resources), sparse above.
    #[default]
    Auto,
    /// Force dense slots (one per resource).
    Dense,
    /// Force the open-addressed sparse tables.
    Sparse,
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
    /// initiation, receive posting, handshake rounds; below `u64::MAX`.
    pub lead_ns: u64,
    /// Fused pairwise exchange: claims both endpoints' engines and the
    /// circuits of *both* directions for `busy_ns` (the event engine's
    /// `TKind::Fused`).
    pub fused: bool,
}

impl TransferSpec {
    /// The node resources this transfer claims under `ports` on a machine
    /// of `nodes` nodes, in claim order, and how many of the four slots
    /// are used. Node `i`'s engine (its send port under
    /// [`PortModel::Split`]) is resource `i`, its receive port `nodes + i`.
    /// A plain message and a fused exchange both occupy the two unified
    /// engines (Observation 1: one engine per node); under split ports a
    /// message takes the sender's send port and the receiver's receive
    /// port, an exchange both ports of both ends.
    pub fn node_claims(&self, ports: PortModel, nodes: usize) -> ([usize; 4], usize) {
        let (src, dst) = (self.src.index(), self.dst.index());
        match (ports, self.fused) {
            (PortModel::Unified, _) => ([src, dst, 0, 0], 2),
            (PortModel::Split, false) => ([src, nodes + dst, 0, 0], 2),
            (PortModel::Split, true) => ([src, nodes + dst, dst, nodes + src], 4),
        }
    }
}

/// Occupancy of one resource: summed busy time and the earliest lead
/// among its users (`u64::MAX` while unclaimed) — sixteen bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Slot {
    busy_ns: u64,
    min_lead: u64,
}

const FREE: Slot = Slot {
    busy_ns: 0,
    min_lead: u64::MAX,
};

/// Where the slots of a [`ResourceClass`] live — decided once, when the
/// pool is built, and matched once per transfer, never per claim.
#[derive(Clone, Debug)]
enum Table {
    /// One slot per resource, at this range of [`LoadModel::flat`].
    Flat(Range<usize>),
    /// Open-addressed and traffic-sized, above the crossover.
    Hashed(SparseMap<Slot>),
}

/// The three aggregates a class reports — span maximum, busiest
/// occupancy, shared flag — maintained as resources are claimed, so
/// reading them does not rescan the class. Occupancy only grows and a
/// shared resource stays shared, so those two are exact running values.
/// A span can *shrink*: a claim that lowers a resource's `min_lead` by
/// more than the `busy` it adds lowers `min_lead + busy`. If that
/// resource held the maximum, `span_max` is only an upper bound from
/// then on (`stale`) and [`ResourceClass::span`] rescans the dirty list
/// until a claim reaches the bound again and becomes the exact maximum.
#[derive(Clone, Copy, Debug, Default)]
struct Maxima {
    span_max: u64,
    stale: bool,
    busy_max: u64,
    shared: bool,
}

impl Maxima {
    /// Add `spec` to `slot`; returns whether it was already claimed.
    #[inline]
    fn claim(&mut self, slot: &mut Slot, spec: &TransferSpec) -> bool {
        let old = *slot;
        let new = Slot {
            busy_ns: old.busy_ns + spec.busy_ns,
            min_lead: old.min_lead.min(spec.lead_ns),
        };
        *slot = new;
        let span = new.min_lead + new.busy_ns;
        self.busy_max = self.busy_max.max(new.busy_ns);
        if span >= self.span_max {
            // Every other resource is at or below the old bound.
            self.span_max = span;
            self.stale = false;
        } else if old.min_lead + old.busy_ns == self.span_max {
            // The resource that held the maximum shrank below it. (An
            // unclaimed slot's `u64::MAX + 0` never equals a maximum.)
            self.stale = true;
        }
        old.min_lead != u64::MAX
    }
}

/// One class of resources (node engines and ports; links): its slots,
/// its claim-time [`Maxima`], and in `dirty[..claimed]` the resources
/// claimed since the last reset, each once — the only slots a reset or a
/// rescan ever visits, so both cost what the pool's traffic cost, never
/// what the machine would.
#[derive(Clone, Debug)]
struct ResourceClass {
    table: Table,
    dirty: Vec<usize>,
    claimed: usize,
    maxima: Maxima,
}

impl ResourceClass {
    /// A class of `len` resources: dense slots appended to `flat` and a
    /// dirty list to match, or a hashed table and a list that grows.
    fn new(len: usize, dense: bool, flat: &mut Vec<Slot>) -> Self {
        let base = flat.len();
        let (table, room) = if dense {
            flat.resize(base + len, FREE);
            (Table::Flat(base..base + len), len + 1)
        } else {
            (
                Table::Hashed(SparseMap::new(len, FREE, PoolMode::Sparse)),
                16,
            )
        };
        ResourceClass {
            table,
            dirty: vec![0; room],
            claimed: 0,
            maxima: Maxima::default(),
        }
    }

    /// Claim every resource of `ids`; returns whether any of them was
    /// already claimed.
    #[inline]
    fn claim_all(
        &mut self,
        flat: &mut [Slot],
        ids: impl ExactSizeIterator<Item = usize>,
        spec: &TransferSpec,
    ) -> bool {
        let (count, before) = (ids.len(), self.claimed);
        if before + count >= self.dirty.len() {
            self.dirty.resize(2 * (before + count), 0);
        }
        // Whether a claim is the first on its resource is as good as
        // random, so the list does not branch on it: the id is written
        // just past its end every time and counted in only when the
        // claim was fresh.
        let (maxima, claimed, dirty) = (&mut self.maxima, &mut self.claimed, &mut self.dirty);
        let mut claim = |slot: &mut Slot, i: usize| {
            let shared = maxima.claim(slot, spec);
            dirty[*claimed] = i;
            *claimed += usize::from(!shared);
        };
        match &mut self.table {
            Table::Flat(range) => {
                let slots = &mut flat[range.clone()];
                ids.for_each(|i| claim(&mut slots[i], i));
            }
            Table::Hashed(map) => ids.for_each(|i| claim(map.slot(i), i)),
        }
        // A claim that did not lengthen the list joined a held resource.
        let joined = self.claimed - before < count;
        self.maxima.shared |= joined;
        joined
    }

    fn slot(&self, flat: &[Slot], i: usize) -> Slot {
        match &self.table {
            Table::Flat(range) => flat[range.clone()][i],
            Table::Hashed(map) => map.get(i),
        }
    }

    /// Free every claimed slot: O(claimed resources) on any machine.
    fn reset(&mut self, flat: &mut [Slot]) {
        let dirty = &self.dirty[..self.claimed];
        match &mut self.table {
            Table::Flat(range) => {
                let slots = &mut flat[range.clone()];
                dirty.iter().for_each(|&i| slots[i] = FREE);
            }
            Table::Hashed(map) => dirty.iter().for_each(|&i| *map.slot(i) = FREE),
        }
        self.claimed = 0;
        self.maxima = Maxima::default();
    }

    /// `max_i (min_lead_i + busy_i)` over claimed entries.
    fn span(&self, flat: &[Slot]) -> u64 {
        if self.maxima.stale {
            self.rescan_span(flat)
        } else {
            self.maxima.span_max
        }
    }

    /// [`ResourceClass::span`] from the slots alone.
    fn rescan_span(&self, flat: &[Slot]) -> u64 {
        let spans = self.dirty[..self.claimed].iter().map(|&i| {
            let s = self.slot(flat, i);
            s.min_lead + s.busy_ns
        });
        spans.max().unwrap_or(0)
    }

    fn resident_bytes(&self) -> usize {
        let hashed = match &self.table {
            Table::Flat(_) => 0,
            Table::Hashed(map) => map.resident_bytes(),
        };
        hashed + self.dirty.capacity() * std::mem::size_of::<usize>()
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
    /// Node count: under split ports node `i`'s receive port is resource
    /// `nodes + i` of the node class.
    nodes: usize,
    /// The slots of every dense class, in one allocation.
    flat: Vec<Slot>,
    /// Per node: the unified engine, or the send port followed (at
    /// `nodes + i`) by the receive port under [`PortModel::Split`].
    node: ResourceClass,
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
        let (nodes, links) = (topo.num_nodes(), topo.link_count());
        let sides = if ports == PortModel::Split { 2 } else { 1 };
        let mut flat = Vec::new();
        LoadModel {
            ports,
            nodes,
            node: ResourceClass::new(sides * nodes, mode.is_dense_at(nodes), &mut flat),
            link: ResourceClass::new(links, mode.is_dense_at(links), &mut flat),
            flat,
            path_max_ns: 0,
            transfers: 0,
            route_scratch: Vec::new(),
            rev_scratch: Vec::new(),
        }
    }

    /// Whether every resource class is on the dense representation
    /// (diagnostics and tests).
    pub fn is_dense(&self) -> bool {
        matches!(self.node.table, Table::Flat(_)) && matches!(self.link.table, Table::Flat(_))
    }

    /// Approximate heap footprint of the occupancy state in bytes — the
    /// scale bench's peak-RSS proxy. Sparse pools stay traffic-sized on
    /// any fabric; dense pools scale with the machine.
    pub fn resident_bytes(&self) -> usize {
        self.flat.capacity() * std::mem::size_of::<Slot>()
            + self.node.resident_bytes()
            + self.link.resident_bytes()
    }

    /// Clear all occupancy (reuse across phases without reallocating),
    /// touching only what the pool claimed.
    pub fn reset(&mut self) {
        self.node.reset(&mut self.flat);
        self.link.reset(&mut self.flat);
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
        let (ends, count) = spec.node_claims(self.ports, self.nodes);
        let flat = &mut self.flat[..];
        let at_nodes = self
            .node
            .claim_all(flat, ends[..count].iter().copied(), &spec);
        let links = links.iter().map(|l| l.index());
        at_nodes | self.link.claim_all(flat, links, &spec)
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
            .max(self.node.span(&self.flat))
            .max(self.link.span(&self.flat))
    }

    /// Busiest engine/port occupancy (ns) — contention pressure at nodes.
    pub fn max_engine_ns(&self) -> u64 {
        self.node.maxima.busy_max
    }

    /// Busiest directed-link occupancy (ns) — contention pressure on wires.
    pub fn max_link_ns(&self) -> u64 {
        self.link.maxima.busy_max
    }

    /// Transfers added so far.
    pub fn transfers(&self) -> usize {
        self.transfers
    }

    /// Whether any resource is claimed by two or more transfers.
    pub fn contended(&self) -> bool {
        self.node.maxima.shared || self.link.maxima.shared
    }
}

/// Write `spec`'s full claim set into `out` (cleared first): the forward
/// circuit, plus the reverse circuit for fused exchanges. `scratch` is a
/// caller-owned buffer that keeps the reverse routing allocation-free on
/// hot paths.
fn route_claims<T: Topology + ?Sized>(
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
    fn a_reset_does_not_resurrect_old_claims() {
        let cube = Hypercube::new(3);
        for mode in [PoolMode::Dense, PoolMode::Sparse] {
            let mut m = LoadModel::with_mode(&cube, PortModel::Split, mode);
            for round in 0..1000 {
                // A long fused exchange between 0 and 3, freed again...
                m.add(
                    &cube,
                    TransferSpec {
                        fused: true,
                        ..spec(0, 3, 1_000_000, 5)
                    },
                );
                m.reset();
                // ...leaves the same engines, ports and links unclaimed.
                let at = format!("{mode:?} round {round}");
                assert!(!m.add(&cube, spec(0, 3, 7, 0)), "{at}: a fresh pool");
                assert!(!m.add(&cube, spec(3, 0, 9, 0)), "{at}: a fresh pool");
                assert_eq!(m.makespan_ns(), 9, "{at}");
                assert_eq!((m.max_engine_ns(), m.max_link_ns()), (9, 9), "{at}");
                m.reset();
            }
            assert_eq!(m.node.claimed + m.link.claimed, 0);
        }
    }

    /// The pool as a plain map from resource to `(busy, min_lead, users)`,
    /// rebuilt from the claim rules alone: what every aggregate of the
    /// model must read after the same adds.
    #[derive(Default)]
    struct Shadow {
        /// Keyed `(class, id)`: class 0 engines / send ports, 1 receive
        /// ports, 2 links.
        occ: std::collections::BTreeMap<(u8, usize), (u64, u64, u32)>,
        path_max: u64,
    }

    impl Shadow {
        fn add(&mut self, ports: PortModel, t: &TransferSpec, links: &[LinkId]) -> bool {
            let (src, dst) = (t.src.index(), t.dst.index());
            let mut claims = match (ports, t.fused) {
                (PortModel::Unified, _) => vec![(0, src), (0, dst)],
                (PortModel::Split, false) => vec![(0, src), (1, dst)],
                (PortModel::Split, true) => vec![(0, src), (1, dst), (0, dst), (1, src)],
            };
            claims.extend(links.iter().map(|l| (2, l.index())));
            self.path_max = self.path_max.max(t.lead_ns + t.busy_ns);
            let mut joined = false;
            for key in claims {
                let o = self.occ.entry(key).or_insert((0, u64::MAX, 0));
                joined |= o.2 > 0;
                *o = (o.0 + t.busy_ns, o.1.min(t.lead_ns), o.2 + 1);
            }
            joined
        }

        /// (makespan, busiest engine or port, busiest link, contended).
        fn read(&self) -> (u64, u64, u64, bool) {
            let busiest = |link: bool| {
                let of_class = self.occ.iter().filter(|(k, _)| (k.0 == 2) == link);
                of_class.map(|(_, o)| o.0).max().unwrap_or(0)
            };
            let span = self.occ.values().map(|o| o.1 + o.0).max().unwrap_or(0);
            (
                self.path_max.max(span),
                busiest(false),
                busiest(true),
                self.occ.values().any(|o| o.2 > 1),
            )
        }
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
        // Resets at random, then after every k-th add; fused exchanges one
        // add in four, then every second add (under split ports a fused
        // claim is four node-class slots in one transfer).
        let variants = [
            (None, 4, 20_000),
            (Some(7), 2, 5_000),
            (Some(64), 4, 5_000),
            (Some(1), 2, 5_000),
        ];
        for ports in [PortModel::Unified, PortModel::Split] {
            for mode in [PoolMode::Dense, PoolMode::Sparse] {
                for (reset_every, fused_one_in, steps) in variants {
                    let mut m = LoadModel::with_mode(&cube, ports, mode);
                    let mut shadow = Shadow::default();
                    for step in 0..steps {
                        let reset = match reset_every {
                            None => rand(97) == 0,
                            Some(k) => step % k == 0,
                        };
                        if reset {
                            m.reset();
                            shadow = Shadow::default();
                        }
                        let src = rand(16) as u32;
                        let busy_ns = rand(1000);
                        let t = TransferSpec {
                            src: NodeId(src),
                            dst: NodeId((src + 1 + rand(15) as u32) % 16),
                            busy_ns,
                            // Leads far below and far above a busy time
                            // (and, one in eight, above a whole pool's),
                            // so spans shrink as well as grow.
                            lead_ns: match rand(8) {
                                0 => 1_000_000 + rand(1_000_000),
                                1..=2 => rand(50),
                                _ => rand(20_000),
                            },
                            fused: rand(fused_one_in) == 0,
                        };
                        route_claims(&cube, &t, &mut links, &mut tmp);
                        let at = format!("{ports:?}/{mode:?}/{reset_every:?} step {step}");
                        assert_eq!(
                            m.add_with_route(t, &links),
                            shadow.add(ports, &t, &links),
                            "{at}"
                        );
                        went_stale += usize::from(m.node.maxima.stale);
                        went_stale += usize::from(m.link.maxima.stale);
                        let read = (
                            m.makespan_ns(),
                            m.max_engine_ns(),
                            m.max_link_ns(),
                            m.contended(),
                        );
                        assert_eq!(read, shadow.read(), "{at}");
                        for class in [&m.node, &m.link] {
                            if !class.maxima.stale {
                                assert_eq!(
                                    class.maxima.span_max,
                                    class.rescan_span(&m.flat),
                                    "{at}"
                                );
                            }
                        }
                    }
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
