use hypercube::{LinkId, NodeId, Path, Topology};

/// A k-ary fat-tree (Clos) with deterministic up-down routing.
///
/// The standard three-tier construction: `k` pods, each with `k/2` edge
/// switches and `k/2` aggregation switches; every edge switch serves
/// `k/2` hosts; `(k/2)²` core switches each connect to one aggregation
/// switch in every pod. Hosts — the only [`NodeId`]-addressable compute
/// nodes — number `k³/4`, laid out pod-major: host
/// `h = pod·(k/2)² + edge·(k/2) + pos`.
///
/// Routing is **up-down**: up from the source host as far as necessary
/// (edge, aggregation, core), then down to the destination. Where a real
/// Clos would spread load with ECMP, this router is *deterministic*: the
/// aggregation switch is chosen by the destination's position within its
/// edge switch (`dst % (k/2)`) and the core by the destination's edge
/// index (`(dst/(k/2)) % (k/2)`), so every host pair owns exactly one
/// circuit and the schedulers can reserve links ahead of time. Routes
/// are minimal within the tree: 2 hops under one edge switch, 4 within
/// a pod, 6 across pods — the diameter.
///
/// Every wire of the tree appears as an up/down *channel pair*: graph
/// edge `e` owns `LinkId 2e` (upward, toward the core) and `2e+1`
/// (downward). Edges are numbered host↔edge first, then edge↔agg, then
/// agg↔core, giving `3k³/2` directed links in all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FatTree {
    k: u32,
    /// k/2 — the fan-out of every tier.
    half: u32,
    hosts: u32,
    name: String,
}

/// Upward direction of a channel pair (toward the core).
const UP: u32 = 0;
/// Downward direction (toward the hosts).
const DOWN: u32 = 1;

impl FatTree {
    /// A fat-tree of arity `k`.
    ///
    /// # Panics
    ///
    /// Panics unless `k` is even and in `2..=64` (k = 64 is already a
    /// 65 536-host fabric), the bounds
    /// [`TopologyKind::validate`](crate::TopologyKind::validate) states for
    /// `fattree:k=N`.
    pub fn new(k: usize) -> Self {
        assert!(
            (2..=64).contains(&k) && k.is_multiple_of(2),
            "fat-tree arity must be even and in 2..=64, got {k}"
        );
        let k = k as u32;
        let hosts = k * k * k / 4;
        // This string is hashed into cache fingerprints; it must never
        // change shape.
        let name = format!("fattree(k={k}, hosts={hosts})");
        FatTree {
            k,
            half: k / 2,
            hosts,
            name,
        }
    }

    /// The arity `k`.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// `(pod, edge switch index, position under the edge switch)` of a
    /// host.
    #[inline]
    pub fn host_coords(&self, host: NodeId) -> (u32, u32, u32) {
        let per_pod = self.half * self.half;
        (
            host.0 / per_pod,
            (host.0 / self.half) % self.half,
            host.0 % self.half,
        )
    }

    /// Number of undirected wires (channel pairs) in the tree.
    #[inline]
    fn edge_pairs(&self) -> u32 {
        // host↔edge + edge↔agg + agg↔core, k³/4 wires per tier.
        3 * self.hosts
    }

    /// Channel of the host↔edge wire of `host`.
    #[inline]
    fn host_channel(&self, host: u32, dir: u32) -> LinkId {
        LinkId(2 * host + dir)
    }

    /// Channel of the wire between edge switch `edge` and aggregation
    /// switch `agg` inside `pod`.
    #[inline]
    fn edge_agg_channel(&self, pod: u32, edge: u32, agg: u32, dir: u32) -> LinkId {
        let idx = (pod * self.half + edge) * self.half + agg;
        LinkId(2 * self.hosts + 2 * idx + dir)
    }

    /// Channel of the wire between aggregation switch `agg` of `pod` and
    /// its `m`-th core switch (core id `agg·(k/2) + m`).
    #[inline]
    fn agg_core_channel(&self, pod: u32, agg: u32, m: u32, dir: u32) -> LinkId {
        let idx = (pod * self.half + agg) * self.half + m;
        LinkId(2 * self.hosts + 2 * self.hosts + 2 * idx + dir)
    }

    /// Append the up-down route to `out` without intermediate allocation.
    fn route_into_vec(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        debug_assert!(
            src.0 < self.hosts && dst.0 < self.hosts,
            "hosts outside tree"
        );
        if src == dst {
            return;
        }
        let (sp, se, _) = self.host_coords(src);
        let (dp, de, dpos) = self.host_coords(dst);
        out.push(self.host_channel(src.0, UP));
        if sp == dp && se == de {
            out.push(self.host_channel(dst.0, DOWN));
            return;
        }
        // Deterministic up-path: the aggregation switch is the
        // destination's position, the core the destination's edge index.
        let agg = dpos;
        out.push(self.edge_agg_channel(sp, se, agg, UP));
        if sp != dp {
            let m = de;
            out.push(self.agg_core_channel(sp, agg, m, UP));
            out.push(self.agg_core_channel(dp, agg, m, DOWN));
        }
        out.push(self.edge_agg_channel(dp, de, agg, DOWN));
        out.push(self.host_channel(dst.0, DOWN));
    }
}

impl Topology for FatTree {
    fn num_nodes(&self) -> usize {
        self.hosts as usize
    }

    fn link_count(&self) -> usize {
        2 * self.edge_pairs() as usize
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Path {
        let mut links = Vec::with_capacity(self.hops(src, dst));
        self.route_into_vec(src, dst, &mut links);
        Path::new(src, dst, links)
    }

    fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        if src == dst {
            return 0;
        }
        let (sp, se, _) = self.host_coords(src);
        let (dp, de, _) = self.host_coords(dst);
        if sp != dp {
            6
        } else if se != de {
            4
        } else {
            2
        }
    }

    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        out.clear();
        self.route_into_vec(src, dst, out);
        debug_assert_eq!(out.len(), self.hops(src, dst));
    }

    fn diameter(&self) -> usize {
        6
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_arity_rejected() {
        FatTree::new(5);
    }

    #[test]
    fn new_panics_exactly_where_validate_rejects() {
        use crate::TopologyKind;
        for k in [0, 1, 2, 4, 5, 64, 66, u32::MAX] {
            let built = std::panic::catch_unwind(|| FatTree::new(k as usize));
            let valid = TopologyKind::FatTree { k }.validate();
            assert_eq!(built.is_ok(), valid.is_ok(), "k = {k}");
        }
    }

    #[test]
    fn counts_for_k4() {
        let t = FatTree::new(4);
        assert_eq!(t.name(), "fattree(k=4, hosts=16)");
        assert_eq!(t.num_nodes(), 16);
        // 3 tiers of 16 wires, two directed channels each.
        assert_eq!(t.link_count(), 96);
        assert_eq!(t.diameter(), 6);
    }

    #[test]
    fn hop_tiers() {
        let t = FatTree::new(4);
        // Hosts 0 and 1 share edge switch 0 of pod 0.
        assert_eq!(t.hops(NodeId(0), NodeId(1)), 2);
        // Hosts 0 and 2 share pod 0 but not an edge switch.
        assert_eq!(t.hops(NodeId(0), NodeId(2)), 4);
        // Hosts 0 and 4 live in different pods.
        assert_eq!(t.hops(NodeId(0), NodeId(4)), 6);
        assert_eq!(t.hops(NodeId(7), NodeId(7)), 0);
    }

    /// A vertex of the tree, for walking routes in tests.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Vertex {
        Host(u32),
        Edge(u32, u32),
        Agg(u32, u32),
        Core(u32, u32),
    }

    /// Decode a [`LinkId`] into its (from, to) vertices.
    fn endpoints(t: &FatTree, l: LinkId) -> (Vertex, Vertex) {
        let hosts = t.hosts;
        let half = t.half;
        let (pair, dir) = (l.0 / 2, l.0 % 2);
        let (lo, hi) = if pair < hosts {
            let host = pair;
            let pod = host / (half * half);
            let edge = (host / half) % half;
            (Vertex::Host(host), Vertex::Edge(pod, edge))
        } else if pair < 2 * hosts {
            let idx = pair - hosts;
            let pod = idx / (half * half);
            let edge = (idx / half) % half;
            let agg = idx % half;
            (Vertex::Edge(pod, edge), Vertex::Agg(pod, agg))
        } else {
            let idx = pair - 2 * hosts;
            let pod = idx / (half * half);
            let agg = (idx / half) % half;
            let m = idx % half;
            (Vertex::Agg(pod, agg), Vertex::Core(agg, m))
        };
        if dir == UP {
            (lo, hi)
        } else {
            (hi, lo)
        }
    }

    #[test]
    fn every_route_is_a_connected_walk_from_src_to_dst() {
        let t = FatTree::new(4);
        for s in 0..16u32 {
            for d in 0..16u32 {
                let p = t.route(NodeId(s), NodeId(d));
                assert_eq!(p.hops(), t.hops(NodeId(s), NodeId(d)));
                if s == d {
                    assert!(p.links().is_empty());
                    continue;
                }
                let mut cur = Vertex::Host(s);
                for &l in p.links() {
                    assert!(l.index() < t.link_count());
                    let (from, to) = endpoints(&t, l);
                    assert_eq!(from, cur, "{s} -> {d}: link leaves the current vertex");
                    cur = to;
                }
                assert_eq!(cur, Vertex::Host(d), "route ends at the destination");
            }
        }
    }

    #[test]
    fn down_paths_are_destination_owned_across_sources() {
        // The deterministic up-path choice keys on the destination, so
        // two different-pod sources sending to the same host converge on
        // the same core and share no *upward* links — their down-paths
        // coincide (that is the determinism), their up-paths are disjoint.
        let t = FatTree::new(4);
        let dst = NodeId(13);
        let a = t.route(NodeId(0), dst);
        let b = t.route(NodeId(4), dst);
        let ups = |p: &Path| {
            p.links()
                .iter()
                .filter(|l| l.0 % 2 == UP)
                .copied()
                .collect::<Vec<_>>()
        };
        assert!(ups(&a).iter().all(|l| !ups(&b).contains(l)));
    }

    #[test]
    fn route_into_override_matches_route() {
        let t = FatTree::new(4);
        let mut buf = Vec::new();
        for s in 0..16u32 {
            for d in 0..16u32 {
                t.route_into(NodeId(s), NodeId(d), &mut buf);
                assert_eq!(buf, t.route(NodeId(s), NodeId(d)).links());
            }
        }
    }

    #[test]
    fn smallest_and_larger_arities() {
        let t2 = FatTree::new(2);
        assert_eq!(t2.num_nodes(), 2);
        assert_eq!(
            t2.hops(NodeId(0), NodeId(1)),
            6,
            "k=2 hosts sit in different pods"
        );
        let t8 = FatTree::new(8);
        assert_eq!(t8.num_nodes(), 128);
        assert_eq!(t8.link_count(), 3 * 8 * 8 * 8 / 2);
    }

    #[test]
    fn routing_report() {
        let t = FatTree::new(4);
        assert!(!t.is_ecube_hypercube());
        // Up-down routing is single-path: no detour around a down link.
        assert!(t.route_avoiding(NodeId(0), NodeId(5), &|_| true).is_none());
    }
}
