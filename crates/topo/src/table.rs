use hypercube::{LinkId, NodeId, Path, Topology};

/// The largest circuit table [`TopologyKind::build_arc`] builds, in
/// bytes: the 8x8 torus's, the one walked fabric whose table was timed
/// end to end. It holds `64² + 1` offsets and `64² · 4` links (a ring
/// of 8 averages 2 hops), 4 bytes each: 80 KiB.
///
/// [`TopologyKind::build_arc`]: crate::TopologyKind::build_arc
pub(crate) const TABLE_MAX_BYTES: usize = 4 * (64 * 64 + 1) + 4 * (64 * 64 * 4);

/// Every circuit of a wrapped fabric, routed once: a CSR over the `n²`
/// ordered pairs, where pair `(s, d)` is row `s · n + d` and its links
/// are `links[offsets[row]..offsets[row + 1]]`.
///
/// The table is filled from the fabric's own `route_into`, so the walk
/// stays the one statement of the route; the table only remembers it.
/// `route_into` copies a slice; everything else — the closed-form
/// `hops`, the fault detours of `route_avoiding`, the name — is the
/// wrapped fabric's answer.
pub(crate) struct CircuitTable {
    fabric: Box<dyn Topology>,
    nodes: u32,
    offsets: Box<[u32]>,
    links: Box<[LinkId]>,
}

impl CircuitTable {
    /// Whether `fabric`'s table stays within [`TABLE_MAX_BYTES`], worked
    /// out from its hop counts before anything is allocated.
    pub(crate) fn fits(fabric: &dyn Topology) -> bool {
        let n = fabric.num_nodes();
        let mut bytes = n.saturating_mul(n).saturating_add(1).saturating_mul(4);
        let mut rows = 0..n as u32;
        while bytes <= TABLE_MAX_BYTES {
            let Some(s) = rows.next() else { return true };
            bytes += (0..n as u32)
                .map(|d| 4 * fabric.hops(NodeId(s), NodeId(d)))
                .sum::<usize>();
        }
        false
    }

    /// Route every ordered pair of `fabric` once.
    pub(crate) fn new(fabric: Box<dyn Topology>) -> CircuitTable {
        let n = fabric.num_nodes();
        let mut offsets = Vec::with_capacity(n * n + 1);
        offsets.push(0);
        let mut links = Vec::new();
        let mut circuit = Vec::new();
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                fabric.route_into(NodeId(s), NodeId(d), &mut circuit);
                links.extend_from_slice(&circuit);
                offsets.push(u32::try_from(links.len()).expect("circuit table outgrew u32"));
            }
        }
        #[cfg(test)]
        TABLES_BUILT.with(|built| built.set(built.get() + 1));
        CircuitTable {
            fabric,
            nodes: n as u32,
            offsets: offsets.into_boxed_slice(),
            links: links.into_boxed_slice(),
        }
    }
}

impl Topology for CircuitTable {
    fn num_nodes(&self) -> usize {
        self.nodes as usize
    }

    fn link_count(&self) -> usize {
        self.fabric.link_count()
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Path {
        self.fabric.route(src, dst)
    }

    fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        self.fabric.hops(src, dst)
    }

    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        debug_assert!(src.0 < self.nodes && dst.0 < self.nodes);
        let row = (src.0 * self.nodes + dst.0) as usize;
        let (from, to) = (self.offsets[row], self.offsets[row + 1]);
        out.clear();
        out.extend_from_slice(&self.links[from as usize..to as usize]);
    }

    fn is_ecube_hypercube(&self) -> bool {
        self.fabric.is_ecube_hypercube()
    }

    fn route_avoiding(
        &self,
        src: NodeId,
        dst: NodeId,
        down: &dyn Fn(LinkId) -> bool,
    ) -> Option<Path> {
        self.fabric.route_avoiding(src, dst, down)
    }

    fn diameter(&self) -> usize {
        self.fabric.diameter()
    }

    fn name(&self) -> &str {
        self.fabric.name()
    }
}

#[cfg(test)]
thread_local! {
    /// Tables this thread has built.
    pub(crate) static TABLES_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TopologyKind;

    /// Tables `build_arc` makes for `kind`.
    fn tables_built(kind: &str) -> usize {
        let before = TABLES_BUILT.with(|built| built.get());
        let _ = TopologyKind::parse(kind).unwrap().build_arc();
        TABLES_BUILT.with(|built| built.get()) - before
    }

    #[test]
    fn the_cube_and_fabrics_over_the_bound_come_back_untabled() {
        for kind in ["torus:8x8", "torus:4x4x4", "mesh:3x5", "fattree:k=4"] {
            assert_eq!(tables_built(kind), 1, "{kind} is tabled");
        }
        for kind in [
            "cube:d=4",
            "cube:d=8",
            "mesh:8x8",
            "mesh:1x256",
            "torus:256",
            "torus:16x16",
            "torus:4x4x4x4",
            "fattree:k=8",
            "torus:32x32",
        ] {
            assert_eq!(tables_built(kind), 0, "{kind} is not tabled");
        }
    }

    #[test]
    fn the_bound_is_the_8x8_torus_table() {
        let torus = TopologyKind::parse("torus:8x8").unwrap().build();
        assert!(CircuitTable::fits(torus.as_ref()));
        let table = CircuitTable::new(torus);
        let bytes = 4 * (table.offsets.len() + table.links.len());
        assert_eq!(bytes, TABLE_MAX_BYTES);
    }

    #[test]
    fn a_table_answers_every_pair_as_its_fabric_does() {
        let fabric = TopologyKind::parse("torus:5x3").unwrap();
        let table = CircuitTable::new(fabric.build());
        let walked = fabric.build();
        let mut buf = vec![LinkId(u32::MAX)];
        let mut hops = 0;
        for s in 0..15 {
            for d in 0..15 {
                let (s, d) = (NodeId(s), NodeId(d));
                table.route_into(s, d, &mut buf);
                assert_eq!(buf, walked.route(s, d).links(), "{s:?} -> {d:?}");
                hops += walked.hops(s, d);
            }
        }
        assert_eq!(table.name(), walked.name());
        assert_eq!(table.link_count(), walked.link_count());
        // From each node the 5-ring is 6 hops around, the 3-ring 2.
        assert_eq!((table.links.len(), hops), (15 * (3 * 6 + 5 * 2), 420));
        assert_eq!(table.offsets.len(), 15 * 15 + 1);
    }
}
