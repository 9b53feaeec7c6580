use crate::Torus;

impl Torus {
    /// A `rows x cols` 2-D mesh: the torus of extents `[cols, rows]` with
    /// no wraparound links.
    ///
    /// The paper's `PATHS` reservation table "can be much smaller for
    /// regular topologies like mesh and hypercube" (Section 5); the mesh
    /// shows the scheduling layer is topology-generic: RS_NL runs on it
    /// unchanged because all it needs is deterministic routing.
    ///
    /// Nodes are numbered row-major: node `(r, c)` has id `r · cols + c`.
    /// Dimension 0 is the column, so routing is XY: along the row to the
    /// destination's column first, then along the column. The channels
    /// `node · 4 + {0, 1, 2, 3}` leave a node east, west, south and north.
    ///
    /// # Panics
    ///
    /// Panics if either extent is zero or the mesh has more than `2^20`
    /// nodes, the bounds [`TopologyKind::validate`](crate::TopologyKind::validate)
    /// states for `mesh:RxC`.
    pub fn mesh(rows: usize, cols: usize) -> Self {
        // This string is hashed into cache fingerprints; it must never
        // change shape.
        Torus::build(&[cols, rows], false, format!("mesh2d({rows}x{cols})"))
    }
}

#[cfg(test)]
mod tests {
    use hypercube::perm::xor_permutation_is_link_free;
    use hypercube::{LinkId, NodeId, Topology};

    use crate::Torus;

    /// Channel directions of a mesh node, in `LinkId` order.
    const EAST: u32 = 0;
    const SOUTH: u32 = 2;

    #[test]
    #[should_panic(expected = "extents must be positive")]
    fn zero_extent_rejected() {
        Torus::mesh(0, 4);
    }

    #[test]
    #[should_panic(expected = "larger than 2^20 nodes")]
    fn more_than_two_to_the_twenty_nodes_rejected() {
        // 2^31 nodes: `node · 4 + dir` would overflow a 32-bit link id.
        Torus::mesh(1 << 16, 1 << 15);
    }

    #[test]
    fn coords_roundtrip() {
        let m = Torus::mesh(3, 5);
        for r in 0..3 {
            for c in 0..5 {
                let node = NodeId(r * 5 + c);
                assert_eq!((m.coord(node, 1), m.coord(node, 0)), (r, c));
            }
        }
    }

    #[test]
    fn xy_routing_goes_x_then_y() {
        let m = Torus::mesh(4, 4);
        // (0,0) -> (2,2): east, east, south, south.
        let p = m.route(NodeId(0), NodeId(10));
        assert_eq!(p.hops(), 4);
        assert_eq!(
            p.links(),
            &[
                LinkId(EAST),          // node 0, east
                LinkId(4 + EAST),      // node 1, east
                LinkId(2 * 4 + SOUTH), // node 2, south
                LinkId(6 * 4 + SOUTH), // node 6, south
            ]
        );
    }

    #[test]
    fn hops_is_manhattan_distance() {
        let m = Torus::mesh(5, 7);
        for a in 0..35u32 {
            for b in 0..35u32 {
                let d = (a / 7).abs_diff(b / 7) + (a % 7).abs_diff(b % 7);
                assert_eq!(m.hops(NodeId(a), NodeId(b)), d as usize);
                assert_eq!(m.route(NodeId(a), NodeId(b)).hops(), d as usize);
            }
        }
    }

    #[test]
    fn route_self_is_empty() {
        let m = Torus::mesh(2, 2);
        assert_eq!(m.route(NodeId(3), NodeId(3)).hops(), 0);
    }

    #[test]
    fn links_in_range() {
        let m = Torus::mesh(4, 6);
        for a in 0..m.num_nodes() {
            for b in 0..m.num_nodes() {
                for l in m.route(NodeId(a as u32), NodeId(b as u32)).links() {
                    assert!(l.index() < m.link_count());
                }
            }
        }
    }

    #[test]
    fn route_into_override_matches_route() {
        let m = Torus::mesh(3, 4);
        let mut buf = Vec::new();
        for a in 0..m.num_nodes() {
            for b in 0..m.num_nodes() {
                let (a, b) = (NodeId(a as u32), NodeId(b as u32));
                m.route_into(a, b, &mut buf);
                assert_eq!(buf, m.route(a, b).links());
            }
        }
    }

    #[test]
    fn diameter_corner_to_corner() {
        let m = Torus::mesh(4, 6);
        assert_eq!(m.diameter(), 8);
        assert_eq!(m.hops(NodeId(0), NodeId(23)), 8);
    }

    #[test]
    fn xor_phase_can_contend_on_a_mesh() {
        // On a mesh, XOR phases are NOT guaranteed link-free; this is why
        // LP is a hypercube-specific algorithm while RS_NL generalizes.
        let mesh = Torus::mesh(4, 4);
        let any_conflict = (1..16).any(|k| !xor_permutation_is_link_free(&mesh, k));
        assert!(any_conflict);
    }
}
