use crate::{LinkId, NodeId, Path, Topology};

/// The binary hypercube interconnect of the Intel iPSC/860.
///
/// `Hypercube::new(d)` models a `2^d`-node machine; the CalTech machine in
/// the paper is `Hypercube::new(6)` (64 nodes). Every node has one
/// full-duplex wire per dimension, giving `2^d * d` **directed** channels.
///
/// Routing is **e-cube**: a message corrects the differing address bits from
/// least- to most-significant. The route is deterministic and the hardware
/// pre-claims the whole path (circuit switching) before data flows, which is
/// why link contention translates into blocked circuits rather than slow
/// shared links.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hypercube {
    dims: u32,
    name: String,
}

impl Hypercube {
    /// A hypercube with `dims` dimensions (`2^dims` nodes).
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0` or `dims > 20` (a million-node cube is assumed
    /// to be a bug in the caller).
    pub fn new(dims: u32) -> Self {
        assert!(
            (1..=20).contains(&dims),
            "hypercube dimension must be in 1..=20, got {dims}"
        );
        // This string is hashed into cache fingerprints; it must never
        // change shape.
        let name = format!("hypercube(dims={}, nodes={})", dims, 1usize << dims);
        Hypercube { dims, name }
    }

    /// A hypercube sized for (at least) `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two and at least 2: the paper's
    /// algorithms (notably LP's `i XOR k` pairing) require the node count of
    /// the physical cube.
    pub fn for_nodes(n: usize) -> Self {
        assert!(
            n >= 2 && n.is_power_of_two(),
            "hypercube node count must be a power of two >= 2, got {n}"
        );
        Hypercube::new(n.trailing_zeros())
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> u32 {
        self.dims
    }

    /// The directed channel leaving `node` along `dim`.
    #[inline]
    pub fn link(&self, node: NodeId, dim: u32) -> LinkId {
        debug_assert!(dim < self.dims);
        LinkId(node.0 * self.dims + dim)
    }

    /// Decode a [`LinkId`] back into `(source node, dimension)`.
    #[inline]
    pub fn link_endpoints(&self, link: LinkId) -> (NodeId, u32) {
        (NodeId(link.0 / self.dims), link.0 % self.dims)
    }

    /// Iterate the e-cube route without allocating the [`Path`].
    ///
    /// Calls `f(cur, dim, link)` for every hop: the circuit extends from
    /// node `cur` across dimension `dim` over directed channel `link`.
    ///
    /// Walks the *set* bits of `src ^ dst`, lowest first: an `h`-hop
    /// route costs `h` iterations and one loop-exit branch, not `dims`
    /// bit tests that random traffic mispredicts every other time.
    #[inline]
    pub fn for_each_hop<F: FnMut(NodeId, u32, LinkId)>(&self, src: NodeId, dst: NodeId, mut f: F) {
        let mut cur = src.0;
        let mut rest = src.0 ^ dst.0;
        debug_assert!(rest >> self.dims == 0, "nodes outside the cube");
        while rest != 0 {
            let dim = rest.trailing_zeros();
            f(NodeId(cur), dim, LinkId(cur * self.dims + dim));
            cur ^= 1 << dim;
            rest &= rest - 1;
        }
        debug_assert_eq!(cur, dst.0);
    }
}

impl Topology for Hypercube {
    fn num_nodes(&self) -> usize {
        1usize << self.dims
    }

    fn link_count(&self) -> usize {
        (1usize << self.dims) * self.dims as usize
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Path {
        let mut links = Vec::with_capacity(src.hamming(dst) as usize);
        self.for_each_hop(src, dst, |_, _, link| links.push(link));
        Path::new(src, dst, links)
    }

    fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        src.hamming(dst) as usize
    }

    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        out.clear();
        self.for_each_hop(src, dst, |_, _, link| out.push(link));
        debug_assert_eq!(out.len(), self.hops(src, dst));
    }

    fn is_ecube_hypercube(&self) -> bool {
        true
    }

    fn diameter(&self) -> usize {
        self.dims as usize
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "hypercube dimension")]
    fn zero_dims_rejected() {
        Hypercube::new(0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        Hypercube::for_nodes(48);
    }

    #[test]
    fn for_nodes_sizes() {
        assert_eq!(Hypercube::for_nodes(64).dims(), 6);
        assert_eq!(Hypercube::for_nodes(2).dims(), 1);
        assert_eq!(Hypercube::for_nodes(1024).dims(), 10);
    }

    #[test]
    fn ecube_fixes_bits_lsb_first() {
        let cube = Hypercube::new(3);
        // 0 -> 7 must go 0 -> 1 -> 3 -> 7 (bits 0, 1, 2 in that order).
        let path = cube.route(NodeId(0), NodeId(7));
        assert_eq!(
            path.links(),
            &[
                cube.link(NodeId(0), 0),
                cube.link(NodeId(1), 1),
                cube.link(NodeId(3), 2)
            ]
        );
    }

    #[test]
    fn route_is_empty_for_self() {
        let cube = Hypercube::new(6);
        assert_eq!(cube.route(NodeId(9), NodeId(9)).hops(), 0);
    }

    #[test]
    fn route_length_is_hamming_distance() {
        let cube = Hypercube::new(6);
        for s in 0..64u32 {
            for t in 0..64u32 {
                let p = cube.route(NodeId(s), NodeId(t));
                assert_eq!(p.hops() as u32, NodeId(s).hamming(NodeId(t)));
                assert_eq!(cube.hops(NodeId(s), NodeId(t)), p.hops());
            }
        }
    }

    #[test]
    fn route_links_are_in_range() {
        let cube = Hypercube::new(5);
        for s in 0..32u32 {
            for t in 0..32u32 {
                for l in cube.route(NodeId(s), NodeId(t)).links() {
                    assert!(l.index() < cube.link_count());
                }
            }
        }
    }

    #[test]
    fn link_endpoints_roundtrip() {
        let cube = Hypercube::new(6);
        for v in 0..64u32 {
            for d in 0..6 {
                let l = cube.link(NodeId(v), d);
                assert_eq!(cube.link_endpoints(l), (NodeId(v), d));
            }
        }
    }

    #[test]
    fn forward_and_reverse_routes_are_link_disjoint() {
        // Directed channels: x->y and y->x never share a LinkId, so pairwise
        // exchange never self-contends. (For adjacent nodes they use the two
        // directions of the same wire; for distant nodes even the wires
        // differ because e-cube visits different intermediate nodes.)
        let cube = Hypercube::new(6);
        for s in 0..64u32 {
            for t in 0..64u32 {
                if s == t {
                    continue;
                }
                let fwd = cube.route(NodeId(s), NodeId(t));
                let rev = cube.route(NodeId(t), NodeId(s));
                assert!(!fwd.intersects(&rev), "{s} <-> {t}");
            }
        }
    }

    #[test]
    fn paths_visit_monotone_dimensions() {
        // The e-cube invariant that makes hold-and-wait link claiming
        // deadlock-free: every circuit claims channels in strictly
        // increasing dimension order.
        let cube = Hypercube::new(6);
        for s in 0..64u32 {
            for t in 0..64u32 {
                let mut last_dim = None;
                cube.for_each_hop(NodeId(s), NodeId(t), |_, dim, _| {
                    if let Some(prev) = last_dim {
                        assert!(dim > prev);
                    }
                    last_dim = Some(dim);
                });
            }
        }
    }
}
