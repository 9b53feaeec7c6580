use hypercube::{LinkId, Topology};

/// The paper's `PATHS` array (Section 5): a shadow occupancy table over the
/// network's directed channels, used by RS_NL to reserve circuits during
/// scheduling so that no two transfers of one phase share a link.
///
/// The table knows links, not endpoints: callers hand it a circuit they
/// already routed (a deterministic route is a pure function of its
/// endpoints, so RS_NL routes each message once per compile and probes
/// the same slice as often as the scan revisits it).
///
/// Clearing between phases is O(1) via a generation stamp instead of
/// rewriting the table, which has one slot per directed channel of the
/// fabric (`Topology::link_count`) and is cleared once per phase.
#[derive(Clone, Debug)]
pub struct PathsTable {
    gen: u32,
    stamps: Vec<u32>,
}

impl PathsTable {
    /// A table sized for `topo`.
    pub fn new<T: Topology + ?Sized>(topo: &T) -> Self {
        PathsTable {
            gen: 1,
            stamps: vec![0; topo.link_count()],
        }
    }

    /// Release every reservation (start of a new phase).
    pub fn clear(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Stamp wrap-around: hard reset, so no stale stamp reads held.
            self.stamps.fill(0);
            self.gen = 1;
        }
    }

    /// The paper's `Check_Path(x, y)`: is the circuit `links` (the
    /// deterministic route from `x` to `y`) entirely unreserved in the
    /// current phase?
    ///
    /// Also adds the circuit's length to `ops` (the scheduling cost model
    /// counts a path check as walking the whole circuit, wherever the
    /// first reserved link sits).
    pub fn check(&self, links: &[LinkId], ops: &mut u64) -> bool {
        *ops += links.len() as u64;
        links.iter().all(|l| self.stamps[l.index()] != self.gen)
    }

    /// The paper's `Mark_Path(x, y)`: reserve every link of the circuit.
    pub fn mark(&mut self, links: &[LinkId]) {
        for l in links {
            debug_assert_ne!(self.stamps[l.index()], self.gen, "marking a claimed link");
            self.stamps[l.index()] = self.gen;
        }
    }

    /// Reserve the circuit link by link, up to the first link already held
    /// this phase: whether there was none. Charges no ops.
    pub(crate) fn claim_each(&mut self, links: &[LinkId]) -> bool {
        let gen = self.gen;
        for l in links {
            let stamp = &mut self.stamps[l.index()];
            if *stamp == gen {
                return false;
            }
            *stamp = gen;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypercube::{Hypercube, NodeId};

    fn route(cube: &Hypercube, src: u32, dst: u32) -> Vec<LinkId> {
        cube.route(NodeId(src), NodeId(dst)).links().to_vec()
    }

    #[test]
    fn check_mark_conflict() {
        let cube = Hypercube::new(3);
        let mut t = PathsTable::new(&cube);
        let mut ops = 0;
        // 0->3 uses (0,d0),(1,d1); 1->7 uses (1,d1),(3,d2): conflict.
        assert!(t.check(&route(&cube, 0, 3), &mut ops));
        t.mark(&route(&cube, 0, 3));
        assert!(!t.check(&route(&cube, 1, 7), &mut ops));
        // 4->6 uses (4,d1): free.
        assert!(t.check(&route(&cube, 4, 6), &mut ops));
        // Reverse circuits never collide with forward ones (directed links).
        assert!(t.check(&route(&cube, 3, 0), &mut ops));
        assert!(ops > 0);
    }

    #[test]
    fn clear_releases_everything() {
        let cube = Hypercube::new(3);
        let mut t = PathsTable::new(&cube);
        let mut ops = 0;
        t.mark(&route(&cube, 0, 7));
        assert!(!t.check(&route(&cube, 0, 7), &mut ops));
        t.clear();
        assert!(t.check(&route(&cube, 0, 7), &mut ops));
    }

    #[test]
    fn clear_at_the_stamp_wrap_releases_everything() {
        let cube = Hypercube::new(3);
        let mut t = PathsTable::new(&cube);
        let mut ops = 0;
        t.gen = u32::MAX;
        t.mark(&route(&cube, 0, 7));
        assert!(!t.check(&route(&cube, 0, 7), &mut ops));
        t.clear();
        assert!(t.check(&route(&cube, 0, 7), &mut ops));
        // The reset's generation holds a fresh mark until the next clear.
        t.mark(&route(&cube, 0, 7));
        assert!(!t.check(&route(&cube, 0, 7), &mut ops));
    }

    #[test]
    fn ops_count_links_inspected() {
        let cube = Hypercube::new(6);
        let t = PathsTable::new(&cube);
        let mut ops = 0;
        t.check(&route(&cube, 0, 63), &mut ops);
        assert_eq!(ops, 6); // diameter-length path
    }
}
