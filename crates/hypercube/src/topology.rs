use crate::{LinkId, NodeId, Path};

/// A point-to-point interconnection network with **deterministic, oblivious
/// routing**: the circuit between two nodes is a pure function of the
/// endpoints.
///
/// Determinism is the property the link-contention-avoiding scheduler
/// (RS_NL, Section 5 of the paper) relies on: because the hardware route is
/// known at scheduling time, the scheduler can reserve links in a shadow
/// `PATHS` table and guarantee that no two transfers of one phase share a
/// channel.
pub trait Topology: Send + Sync {
    /// Number of compute nodes. Node ids are `0..num_nodes()`.
    fn num_nodes(&self) -> usize;

    /// Upper bound (exclusive) on [`crate::LinkId`] values used by
    /// [`Topology::route`]; occupancy tables are sized `link_count()`.
    fn link_count(&self) -> usize;

    /// The deterministic circuit from `src` to `dst`.
    ///
    /// Must return an empty path when `src == dst`.
    fn route(&self, src: NodeId, dst: NodeId) -> Path;

    /// Hop distance between two nodes (length of [`Topology::route`]).
    ///
    /// Implementations usually have a closed form that avoids materializing
    /// the path.
    fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        self.route(src, dst).hops()
    }

    /// Write the links of the `src -> dst` circuit into `out` (cleared
    /// first). Schedulers call this in their inner loops; implementations
    /// should avoid allocating.
    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        out.clear();
        out.extend_from_slice(self.route(src, dst).links());
        debug_assert_eq!(
            out.len(),
            self.hops(src, dst),
            "hops() disagrees with route() length for {}",
            self.name()
        );
    }

    /// Whether this topology is a hypercube under e-cube routing — the
    /// one routing fact a scheduler asks of a fabric.
    ///
    /// Some scheduling guarantees are e-cube-specific — LP's XOR phases
    /// are link-contention-free *only* under e-cube routing on a cube —
    /// so schedulers that rely on that structure probe it here instead of
    /// guessing from the node count or downcasting. Every other guarantee
    /// (RS_NL's `PATHS` reservation) needs only the deterministic routing
    /// every `Topology` promises. Defaults to `false`.
    fn is_ecube_hypercube(&self) -> bool {
        false
    }

    /// An alternative `src -> dst` circuit that avoids every link for
    /// which `down` returns `true`, or `None` when the router cannot
    /// offer one.
    ///
    /// This is the fault-tolerance escape hatch for link-cost models
    /// with dead links: fabrics whose routing admits a detour (torus
    /// rings can run the long way around a dimension) override this;
    /// single-path routers (the cube, the mesh, the fat-tree) answer
    /// `None`, and a down link on their route surfaces as a typed error
    /// upstream.
    ///
    /// Implementations must return a path whose links all pass `down ==
    /// false`; the detour need not be minimal.
    fn route_avoiding(
        &self,
        src: NodeId,
        dst: NodeId,
        down: &dyn Fn(LinkId) -> bool,
    ) -> Option<Path> {
        let _ = (src, dst, down);
        None
    }

    /// Network diameter: the maximum hop distance over all node pairs.
    fn diameter(&self) -> usize;

    /// Human-readable topology name for reports. Borrowed from the
    /// topology — implementations precompute it at construction so report
    /// rows and fingerprints never allocate a fresh `String` per call.
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hypercube;

    #[test]
    fn trait_object_safety_and_default_hops() {
        // Use through a trait object to guarantee object safety.
        let cube: Box<dyn Topology> = Box::new(Hypercube::new(4));
        assert_eq!(cube.num_nodes(), 16);
        assert_eq!(cube.hops(NodeId(0), NodeId(0b1011)), 3);
        assert_eq!(cube.diameter(), 4);
        assert!(cube.is_ecube_hypercube());
    }
}
