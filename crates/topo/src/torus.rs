use hypercube::{LinkId, NodeId, Path, Topology};

/// Direction encoding for torus channels: around the ring toward higher
/// coordinates.
const PLUS: u32 = 0;
/// Toward lower coordinates.
const MINUS: u32 = 1;

/// A k-ary n-cube: `n` dimensions, each a wraparound ring of `k` nodes
/// (extents may differ per dimension — `4x4x2` is legal). Built by
/// [`Torus::mesh`], the same grid without the wraparound links: a 2-D
/// mesh.
///
/// Nodes are numbered mixed-radix with dimension 0 fastest: node id
/// `= Σ coordᵢ · strideᵢ` where `stride₀ = 1` and
/// `strideᵢ₊₁ = strideᵢ · extentᵢ`.
///
/// Routing is **dimension-ordered** (dimension 0 first). A torus walks
/// each ring in the *shorter* direction; when both directions are
/// equally long (an even extent, distance exactly `k/2`) the tie breaks
/// toward the positive direction, keeping the route a pure function of
/// the endpoints. A mesh walks straight toward the destination,
/// `|d − s|` steps. Every route is therefore minimal and
/// `hops`/`diameter` have closed forms: the per-dimension distance
/// (`min(Δ, k−Δ)` on a ring, `Δ` on a mesh) sums across dimensions, and
/// the diameter is `Σ ⌊extentᵢ/2⌋` on a torus, `Σ (extentᵢ − 1)` on a
/// mesh.
///
/// Every node owns two directed channels per dimension, one per
/// direction: `LinkId = node · 2n + 2·dim + dir`. A mesh's boundary
/// channels exist in that layout but no route uses them.
///
/// A route costs its hops plus two multiplies per endpoint and dimension
/// (a reciprocal precomputed per extent, no run-time divide), and
/// construction stays O(dimensions): big fabrics still build per request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Torus {
    extents: Vec<u32>,
    /// Mixed-radix strides; `strides[d]` is the id delta of one positive
    /// step in dimension `d` (before wraparound).
    strides: Vec<u32>,
    /// `⌈2^64 / extentᵢ⌉ − 1`, what [`Torus::peel`] multiplies by
    /// (`u64::MAX` for an extent of 1).
    reciprocals: Vec<u64>,
    /// Whether each dimension's last node links back to its first.
    wraps: bool,
    nodes: u32,
    name: String,
}

impl Torus {
    /// A torus with the given per-dimension ring sizes.
    ///
    /// # Panics
    ///
    /// Panics on a spec [`TopologyKind::validate`](crate::TopologyKind::validate)
    /// rejects: no dimensions or more than 8, an extent below 2 (a 1-ring
    /// has no links), or more than `2^20` nodes. Untrusted input (wire
    /// frames, CLI flags) goes through [`crate::TopologyKind`], which
    /// answers a typed error instead.
    pub fn new(extents: &[usize]) -> Self {
        assert!(
            extents.iter().all(|&k| k >= 2),
            "torus extent must be >= 2, got {extents:?}"
        );
        // This string is hashed into cache fingerprints; it must never
        // change shape.
        let name = format!(
            "torus({})",
            extents
                .iter()
                .map(|k| k.to_string())
                .collect::<Vec<_>>()
                .join("x")
        );
        Self::build(extents, true, name)
    }

    /// The grid [`Torus::new`] and [`Torus::mesh`] share, with or without
    /// its wraparound links.
    pub(crate) fn build(extents: &[usize], wraps: bool, name: String) -> Self {
        assert!(
            (1..=8).contains(&extents.len()),
            "{name}: must have 1..=8 dimensions, got {}",
            extents.len()
        );
        assert!(
            extents.iter().all(|&k| k > 0),
            "{name}: extents must be positive"
        );
        let nodes = extents
            .iter()
            .try_fold(1usize, |n, &k| n.checked_mul(k))
            .filter(|&n| n <= 1 << 20)
            .unwrap_or_else(|| panic!("{name}: larger than 2^20 nodes"));
        let strides = extents
            .iter()
            .scan(1, |stride, &k| {
                let here = *stride;
                *stride *= k as u32;
                Some(here)
            })
            .collect();
        Torus {
            extents: extents.iter().map(|&k| k as u32).collect(),
            strides,
            reciprocals: extents.iter().map(|&k| u64::MAX / k as u64).collect(),
            wraps,
            nodes: nodes as u32,
            name,
        }
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.extents.len()
    }

    /// Per-dimension ring sizes.
    #[inline]
    pub fn extents(&self) -> &[u32] {
        &self.extents
    }

    /// Coordinate of `node` along `dim`.
    #[inline]
    pub fn coord(&self, node: NodeId, dim: usize) -> u32 {
        (node.0 / self.strides[dim]) % self.extents[dim]
    }

    /// The directed channel leaving `node` along `dim` in `dir`
    /// (0 = positive, 1 = negative).
    #[inline]
    fn channel(&self, node: u32, dim: usize, dir: u32) -> LinkId {
        LinkId(node * (2 * self.extents.len() as u32) + 2 * dim as u32 + dir)
    }

    /// Decode a [`LinkId`] back into `(source node, dimension, direction)`.
    pub fn link_endpoints(&self, link: LinkId) -> (NodeId, usize, u32) {
        let per_node = 2 * self.extents.len() as u32;
        (
            NodeId(link.0 / per_node),
            ((link.0 % per_node) / 2) as usize,
            link.0 % 2,
        )
    }

    /// The ring neighbour of `node` along `dim` in `dir`. On a mesh a
    /// step off the edge lands on the far edge, where no channel leads.
    pub fn neighbor(&self, node: NodeId, dim: usize, dir: u32) -> NodeId {
        let k = self.extents[dim];
        let stride = self.strides[dim];
        let c = self.coord(node, dim);
        NodeId(match dir {
            PLUS if c + 1 < k => node.0 + stride,
            PLUS => node.0 - (k - 1) * stride,
            _ if c > 0 => node.0 - stride,
            _ => node.0 + (k - 1) * stride,
        })
    }

    /// Walk `steps` hops around ring `dim` in `dir` from `start` (whose
    /// coordinate along `dim` is `coord`), handing each channel to
    /// `visit`; stops early with `None` when `visit` refuses one,
    /// otherwise returns the node the walk ends on.
    ///
    /// The one stepping routine of the torus. It carries the coordinate,
    /// so a hop is an add, a wraparound select and a multiply by the
    /// stride with no branch on direction or position — [`Torus::neighbor`]
    /// re-derives the coordinate with a division on every call.
    fn ring_walk(
        &self,
        start: NodeId,
        coord: u32,
        dim: usize,
        dir: u32,
        steps: u32,
        mut visit: impl FnMut(LinkId) -> bool,
    ) -> Option<NodeId> {
        let k = self.extents[dim];
        let stride = self.strides[dim];
        // Around a `k`-ring one step back is `k - 1` steps forward.
        let step = if dir == PLUS { 1 } else { k - 1 };
        let (origin, mut c) = (start.0 - coord * stride, coord);
        for _ in 0..steps {
            if !visit(self.channel(origin + c * stride, dim, dir)) {
                return None;
            }
            c += step;
            c -= if c >= k { k } else { 0 };
        }
        Some(NodeId(origin + c * stride))
    }

    /// Hops and direction from coordinate `s` to `d` along an extent of
    /// `k`: the shorter arc of a ring (ties go the positive way), the
    /// straight line on a mesh; no hops when `s == d`.
    #[inline]
    fn arc(&self, k: u32, s: u32, d: u32) -> (u32, u32) {
        let fwd = if d >= s { d - s } else { d + k - s };
        let plus = if self.wraps { fwd <= k - fwd } else { d >= s };
        if plus {
            (fwd, PLUS)
        } else {
            (k - fwd, MINUS)
        }
    }

    /// `(rest / k, rest % k)` for dimension `dim`'s extent `k` by two
    /// multiplies, exact for every 32-bit `rest` (Lemire, Kaser & Kurz
    /// 2019): a divide by a run-time `k` costs more than the hops. The
    /// quotient is the top half of `⌈2^64/k⌉ · rest`, taken as
    /// `(⌈2^64/k⌉ − 1) · rest + rest` so that the stored factor fits 64
    /// bits at `k = 1` (a mesh of one row or column) too.
    #[inline]
    fn peel(&self, dim: usize, rest: u32) -> (u32, u32) {
        let rest = u128::from(rest);
        let quotient = ((u128::from(self.reciprocals[dim]) * rest + rest) >> 64) as u32;
        (quotient, rest as u32 - quotient * self.extents[dim])
    }

    /// Hand `arc(dim, coord, steps, dir)` every ring the route walks, in
    /// dimension order: from coordinate `coord`, `steps` hops in `dir`.
    /// Coordinates peel off dimension 0 first (mixed radix); earlier
    /// dimensions' walks never change a later coordinate.
    #[inline]
    fn for_each_arc(&self, src: NodeId, dst: NodeId, mut arc: impl FnMut(usize, u32, u32, u32)) {
        debug_assert!(
            src.0 < self.nodes && dst.0 < self.nodes,
            "nodes outside torus"
        );
        let (mut src_rest, mut dst_rest) = (src.0, dst.0);
        for (dim, &k) in self.extents.iter().enumerate() {
            let (s, d);
            (src_rest, s) = self.peel(dim, src_rest);
            (dst_rest, d) = self.peel(dim, dst_rest);
            let (steps, dir) = self.arc(k, s, d);
            arc(dim, s, steps, dir);
        }
    }

    /// Append the dimension-ordered route to `out` without intermediate
    /// allocation — shared by `route` and the `route_into` override.
    fn route_into_vec(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        let mut cur = src;
        self.for_each_arc(src, dst, |dim, coord, steps, dir| {
            cur = self
                .ring_walk(cur, coord, dim, dir, steps, |l| {
                    out.push(l);
                    true
                })
                .expect("an unconditional walk never stops early");
        });
        debug_assert_eq!(cur, dst);
    }

    /// [`Torus::ring_walk`] appending links to `out`; rolls `out` back
    /// and returns `None` if any link on the arc is down.
    fn walk_clear(
        &self,
        start: NodeId,
        dim: usize,
        dir: u32,
        steps: u32,
        down: &dyn Fn(LinkId) -> bool,
        out: &mut Vec<LinkId>,
    ) -> Option<NodeId> {
        let mark = out.len();
        let end = self.ring_walk(start, self.coord(start, dim), dim, dir, steps, |l| {
            let up = !down(l);
            if up {
                out.push(l);
            }
            up
        });
        if end.is_none() {
            out.truncate(mark);
        }
        end
    }
}

impl Topology for Torus {
    fn num_nodes(&self) -> usize {
        self.nodes as usize
    }

    fn link_count(&self) -> usize {
        self.nodes as usize * 2 * self.ndims()
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Path {
        let mut links = Vec::with_capacity(self.hops(src, dst));
        self.route_into_vec(src, dst, &mut links);
        Path::new(src, dst, links)
    }

    fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        let mut hops = 0;
        self.for_each_arc(src, dst, |_, _, steps, _| hops += steps as usize);
        hops
    }

    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        out.clear();
        self.route_into_vec(src, dst, out);
        debug_assert_eq!(out.len(), self.hops(src, dst));
    }

    /// The wraparound detour: each ring can be walked in either
    /// direction, so a dimension whose preferred (shorter) arc crosses a
    /// down link reroutes the long way around that ring. Dimensions stay
    /// ordered — if *both* arcs of some ring are blocked the fault has
    /// cut the dimension-ordered route entirely and this router gives up
    /// (`None`) rather than search non-dimension-ordered paths. A mesh
    /// has no long way round: a down link on its route is `None`.
    fn route_avoiding(
        &self,
        src: NodeId,
        dst: NodeId,
        down: &dyn Fn(LinkId) -> bool,
    ) -> Option<Path> {
        let mut links = Vec::new();
        let mut cur = src;
        for (dim, &k) in self.extents.iter().enumerate() {
            let (s, d) = (self.coord(cur, dim), self.coord(dst, dim));
            let (steps, dir) = self.arc(k, s, d);
            cur = match self.walk_clear(cur, dim, dir, steps, down, &mut links) {
                Some(end) => end,
                None if self.wraps => {
                    self.walk_clear(cur, dim, 1 - dir, k - steps, down, &mut links)?
                }
                None => return None,
            };
        }
        debug_assert_eq!(cur, dst);
        Some(Path::new(src, dst, links))
    }

    fn diameter(&self) -> usize {
        let span = |k: u32| if self.wraps { k / 2 } else { k - 1 };
        self.extents.iter().map(|&k| span(k) as usize).sum()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "extent must be >= 2")]
    fn unit_ring_rejected() {
        Torus::new(&[4, 1]);
    }

    #[test]
    #[should_panic(expected = "1..=8 dimensions")]
    fn zero_dims_rejected() {
        Torus::new(&[]);
    }

    #[test]
    #[should_panic(expected = "larger than 2^20 nodes")]
    fn product_past_usize_rejected() {
        // Past what a kind can even spell: `checked_mul` overflows.
        Torus::new(&[usize::MAX, usize::MAX]);
    }

    #[test]
    fn new_panics_exactly_where_validate_rejects() {
        use crate::TopologyKind;
        for extents in [
            &[][..],
            &[4, 1],
            &[0, 4],
            &[2; 9],
            &[2; 8],
            &[1 << 10, 1 << 10],
            &[1 << 10, 1 << 10, 2],
            &[u32::MAX as usize, u32::MAX as usize],
        ] {
            let kind = TopologyKind::Torus {
                extents: extents.iter().map(|&k| k as u32).collect(),
            };
            let built = std::panic::catch_unwind(|| Torus::new(extents));
            assert_eq!(built.is_ok(), kind.validate().is_ok(), "{extents:?}");
        }
    }

    #[test]
    fn route_avoiding_with_nothing_down_matches_route() {
        let t = Torus::new(&[4, 3]);
        let up = |_: LinkId| false;
        for s in 0..12u32 {
            for d in 0..12u32 {
                let p = t.route_avoiding(NodeId(s), NodeId(d), &up).unwrap();
                assert_eq!(p.links(), t.route(NodeId(s), NodeId(d)).links());
            }
        }
    }

    #[test]
    fn route_avoiding_detours_the_long_way_around() {
        let t = Torus::new(&[5]);
        // The primary route 0 -> 1 is one positive hop; down that link.
        let blocked = t.channel(0, 0, PLUS);
        let down = |l: LinkId| l == blocked;
        let p = t.route_avoiding(NodeId(0), NodeId(1), &down).unwrap();
        assert_eq!(p.hops(), 4, "the long way around the 5-ring");
        assert!(p.links().iter().all(|&l| l != blocked));
        // The detour is a connected walk ending at the destination.
        let mut cur = NodeId(0);
        for &l in p.links() {
            let (from, dim, dir) = t.link_endpoints(l);
            assert_eq!(from, cur);
            cur = t.neighbor(cur, dim, dir);
        }
        assert_eq!(cur, NodeId(1));
    }

    #[test]
    fn route_avoiding_gives_up_when_both_arcs_are_cut() {
        let t = Torus::new(&[4, 4]);
        // Every dimension-0 link is down: no route can change the
        // dimension-0 coordinate.
        let down = |l: LinkId| t.link_endpoints(l).1 == 0;
        assert!(t.route_avoiding(NodeId(0), NodeId(1), &down).is_none());
        // But a pure dimension-1 move still routes.
        let p = t.route_avoiding(NodeId(0), NodeId(4), &down).unwrap();
        assert_eq!(p.hops(), 1);
    }

    #[test]
    fn name_nodes_and_links() {
        let t = Torus::new(&[4, 4, 2]);
        assert_eq!(t.name(), "torus(4x4x2)");
        assert_eq!(t.num_nodes(), 32);
        assert_eq!(t.link_count(), 32 * 6);
        assert_eq!(t.diameter(), 2 + 2 + 1);
    }

    #[test]
    fn wraparound_is_one_hop() {
        let t = Torus::new(&[5]);
        assert_eq!(t.hops(NodeId(0), NodeId(4)), 1);
        let p = t.route(NodeId(0), NodeId(4));
        assert_eq!(p.links(), &[t.channel(0, 0, MINUS)]);
    }

    #[test]
    fn even_ring_tie_breaks_positive() {
        // Distance exactly k/2: both directions are 2 hops; the route
        // must deterministically take the positive one.
        let t = Torus::new(&[4]);
        let p = t.route(NodeId(0), NodeId(2));
        assert_eq!(p.links(), &[t.channel(0, 0, PLUS), t.channel(1, 0, PLUS)]);
    }

    #[test]
    fn routes_are_dimension_ordered_and_endpoint_correct() {
        let t = Torus::new(&[3, 4, 2]);
        for s in 0..t.num_nodes() as u32 {
            for d in 0..t.num_nodes() as u32 {
                let p = t.route(NodeId(s), NodeId(d));
                // Walk the path link by link; dimensions never decrease.
                let mut cur = NodeId(s);
                let mut last_dim = 0usize;
                for &l in p.links() {
                    let (from, dim, dir) = t.link_endpoints(l);
                    assert_eq!(from, cur, "link leaves the current node");
                    assert!(dim >= last_dim, "dimension order violated");
                    last_dim = dim;
                    cur = t.neighbor(cur, dim, dir);
                }
                assert_eq!(cur, NodeId(d), "route ends at the destination");
                assert_eq!(p.hops(), t.hops(NodeId(s), NodeId(d)));
                assert!(p.hops() <= t.diameter());
            }
        }
    }

    #[test]
    fn hops_is_symmetric_and_bounded() {
        let t = Torus::new(&[4, 4]);
        for s in 0..16u32 {
            for d in 0..16u32 {
                assert_eq!(t.hops(NodeId(s), NodeId(d)), t.hops(NodeId(d), NodeId(s)));
            }
        }
        // Opposite corners of a 4x4 torus are 4 apart (2 per dimension).
        assert_eq!(t.hops(NodeId(0), NodeId(10)), 4);
        assert_eq!(t.diameter(), 4);
    }

    #[test]
    fn route_into_override_matches_route() {
        let t = Torus::new(&[4, 3]);
        let mut buf = Vec::new();
        for s in 0..12u32 {
            for d in 0..12u32 {
                t.route_into(NodeId(s), NodeId(d), &mut buf);
                assert_eq!(buf, t.route(NodeId(s), NodeId(d)).links());
            }
        }
    }

    #[test]
    fn links_in_range_and_unique_per_route() {
        let t = Torus::new(&[4, 4]);
        for s in 0..16u32 {
            for d in 0..16u32 {
                let p = t.route(NodeId(s), NodeId(d));
                let mut seen = std::collections::HashSet::new();
                for l in p.links() {
                    assert!(l.index() < t.link_count());
                    assert!(seen.insert(*l), "minimal routes never revisit a link");
                }
            }
        }
    }

    #[test]
    fn peel_is_exact_division() {
        for k in [1, 2, 3, 5, 7, 8, 255, 256, 1000, 1 << 20] {
            // Dimension 0 of a one-row mesh has extent `k`, 1 included.
            let t = Torus::mesh(1, k);
            let rests = (0..4096)
                .chain((1 << 20) - 4096..1 << 20)
                .chain(u32::MAX - 4096..=u32::MAX);
            for rest in rests {
                let k = k as u32;
                assert_eq!(t.peel(0, rest), (rest / k, rest % k), "{rest} / {k}");
            }
        }
    }

    #[test]
    fn link_endpoints_roundtrip() {
        let t = Torus::new(&[3, 5]);
        for v in 0..15u32 {
            for dim in 0..2 {
                for dir in [PLUS, MINUS] {
                    let l = t.channel(v, dim, dir);
                    assert_eq!(t.link_endpoints(l), (NodeId(v), dim, dir));
                }
            }
        }
    }

    #[test]
    fn routing_report() {
        // Even a torus of 2-rings, the cube's shape, is not routed e-cube.
        assert!(!Torus::new(&[4, 4]).is_ecube_hypercube());
        assert!(!Torus::new(&[2, 2, 2, 2]).is_ecube_hypercube());
        assert!(!Torus::mesh(4, 4).is_ecube_hypercube());
    }
}
