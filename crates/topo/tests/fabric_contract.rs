//! The routing contract every consumer leans on, checked in whatever
//! profile the test is built in — CI runs it under `--release`, where the
//! fabrics' own `debug_assert`s are compiled out:
//!
//! * `hops(s, d) == route_into(s, d).len() == route(s, d).links().len()`
//!   on every family. The analytic backend prices a transfer at the
//!   length of the circuit it routed, and RS_NL charges `ops` the same
//!   length, so a closed-form `hops` that drifted from the router would
//!   silently misprice both.
//! * The torus' ring stepper (coordinate carried beside the node id)
//!   produces, link for link, the route and the fault detours of a walk
//!   that re-derives every hop from [`Torus::neighbor`].
//! * Every `route_into` equals, link for link, a reference router written
//!   here from the documented channel layouts alone: the bit-test loop on
//!   cubes, the remainder-and-division peel on tori, the XY walk on
//!   meshes.
//! * A mesh never wraps: a down link on its XY route is a typed
//!   `LinkDown`, where the torus of the same shape detours.
//!
//! Every check runs on a kind's fabric both ways the stack builds one:
//! [`TopologyKind::build`], which walks each route when asked, and
//! [`TopologyKind::build_arc`], the long-lived form that answers a walked
//! fabric's circuits from an all-pairs table when that table is no larger
//! than the 8x8 torus's.

use std::sync::Arc;

use hypercube::{Hypercube, LinkId, NodeId, Topology};
use simnet::{LinkCostModel, SimError};
use topo::{FatTree, TopologyKind, Torus};

/// xorshift64: seeded, dependency-free, the same on every host.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// Every ordered pair for fabrics up to 256 nodes, 4096 sampled pairs
/// above.
fn pairs(n: usize) -> Vec<(NodeId, NodeId)> {
    if n <= 256 {
        (0..n as u32)
            .flat_map(|s| (0..n as u32).map(move |d| (NodeId(s), NodeId(d))))
            .collect()
    } else {
        let mut rng = Rng(0x5eed_0000 + n as u64);
        (0..4096)
            .map(|_| {
                (
                    NodeId(rng.below(n as u64) as u32),
                    NodeId(rng.below(n as u64) as u32),
                )
            })
            .collect()
    }
}

/// `kind`'s fabric as [`TopologyKind::build`] and as
/// [`TopologyKind::build_arc`] build it.
fn both_forms(kind: &TopologyKind) -> [Arc<dyn Topology>; 2] {
    [Arc::from(kind.build()), kind.build_arc()]
}

fn torus_kind(extents: &[usize]) -> TopologyKind {
    TopologyKind::Torus {
        extents: extents.iter().map(|&k| k as u32).collect(),
    }
}

fn assert_contract(topo: &dyn Topology) {
    let mut buf = vec![LinkId(u32::MAX)]; // route_into must clear it
    for (s, d) in pairs(topo.num_nodes()) {
        let path = topo.route(s, d);
        topo.route_into(s, d, &mut buf);
        let at = format!("{} {s:?} -> {d:?}", topo.name());
        assert_eq!(buf, path.links(), "{at}: route_into != route");
        assert_eq!(topo.hops(s, d), buf.len(), "{at}: hops != route length");
        assert!(buf.iter().all(|l| l.index() < topo.link_count()), "{at}");
        assert_eq!(s == d, buf.is_empty(), "{at}");
    }
}

#[test]
fn hops_equals_route_length_on_every_family() {
    for dims in [1, 2, 3, 6, 8, 10] {
        assert_contract(&Hypercube::new(dims));
    }
    for (rows, cols) in [(1, 2), (3, 5), (8, 8), (16, 16), (24, 32)] {
        assert_contract(&Torus::mesh(rows, cols));
    }
    for extents in [
        &[2][..],
        &[3, 5],
        &[8, 8],
        &[4, 4, 4],
        &[4, 4, 2],
        &[2, 2, 2, 2],
        &[7, 9, 5],
        &[32, 32],
    ] {
        assert_contract(&Torus::new(extents));
    }
    for k in [2, 4, 8, 16] {
        assert_contract(&FatTree::new(k));
    }
}

#[test]
fn both_forms_of_every_kind_keep_the_contract_and_route_alike() {
    // Every family within the table bound and past it (`torus:8x8` is at
    // the bound, `mesh:8x8` just over it, `torus:7x9x5` 315 nodes and
    // `fattree:k=16` 1,024 hosts).
    let mut buf = Vec::new();
    for kind in [
        "cube:d=1",
        "cube:d=6",
        "cube:d=10",
        "mesh:1x2",
        "mesh:3x5",
        "mesh:8x8",
        "mesh:16x16",
        "mesh:24x32",
        "torus:2",
        "torus:3x5",
        "torus:8x8",
        "torus:4x4x4",
        "torus:4x4x2",
        "torus:2x2x2x2",
        "torus:16x16",
        "torus:7x9x5",
        "fattree:k=2",
        "fattree:k=4",
        "fattree:k=8",
        "fattree:k=16",
    ] {
        let [built, long_lived] = both_forms(&TopologyKind::parse(kind).unwrap());
        assert_contract(long_lived.as_ref());
        assert_eq!(long_lived.name(), built.name(), "{kind}");
        assert_eq!(long_lived.num_nodes(), built.num_nodes(), "{kind}");
        assert_eq!(long_lived.link_count(), built.link_count(), "{kind}");
        assert_eq!(long_lived.diameter(), built.diameter(), "{kind}");
        assert_eq!(
            long_lived.is_ecube_hypercube(),
            built.is_ecube_hypercube(),
            "{kind}"
        );
        for (s, d) in pairs(built.num_nodes()) {
            long_lived.route_into(s, d, &mut buf);
            assert_eq!(buf, built.route(s, d).links(), "{kind} {s:?} -> {d:?}");
        }
    }
}

/// The torus router as it was before the ring stepper: every hop's
/// channel from the documented `LinkId` layout, every next node from
/// [`Torus::neighbor`]; a ring whose shorter arc crosses a down link is
/// walked the long way, and a ring cut both ways strands the route.
fn neighbor_walk(
    t: &Torus,
    src: NodeId,
    dst: NodeId,
    down: &dyn Fn(LinkId) -> bool,
) -> Option<Vec<LinkId>> {
    let channel = |node: NodeId, dim: usize, dir: u32| {
        LinkId(node.0 * 2 * t.ndims() as u32 + 2 * dim as u32 + dir)
    };
    let walk = |start: NodeId, dim: usize, dir: u32, steps: u32| {
        let mut cur = start;
        let mut arc = Vec::new();
        for _ in 0..steps {
            let l = channel(cur, dim, dir);
            if down(l) {
                return None;
            }
            arc.push(l);
            cur = t.neighbor(cur, dim, dir);
        }
        Some((cur, arc))
    };
    let mut links = Vec::new();
    let mut cur = src;
    for dim in 0..t.ndims() {
        let k = t.extents()[dim];
        let fwd = (t.coord(dst, dim) + k - t.coord(cur, dim)) % k;
        if fwd == 0 {
            continue;
        }
        let (steps, dir) = if fwd <= k - fwd {
            (fwd, 0)
        } else {
            (k - fwd, 1)
        };
        let (end, arc) =
            walk(cur, dim, dir, steps).or_else(|| walk(cur, dim, 1 - dir, k - steps))?;
        links.extend(arc);
        cur = end;
    }
    assert_eq!(cur, dst);
    Some(links)
}

const SHAPES: [&[usize]; 5] = [&[2], &[3, 5], &[8, 8], &[4, 4, 2], &[2, 2, 2, 2]];

#[test]
fn torus_stepper_equals_the_neighbor_walk_link_for_link() {
    let up = |_: LinkId| false;
    let mut buf = Vec::new();
    for extents in SHAPES {
        let t = Torus::new(extents);
        let long_lived = torus_kind(extents).build_arc();
        for (s, d) in pairs(t.num_nodes()) {
            let want = neighbor_walk(&t, s, d, &up).unwrap();
            t.route_into(s, d, &mut buf);
            assert_eq!(buf, want, "{} {s:?} -> {d:?}", t.name());
            long_lived.route_into(s, d, &mut buf);
            assert_eq!(buf, want, "build_arc {} {s:?} -> {d:?}", t.name());
            // The channel layout the reference assumes is the real one.
            for &l in &want {
                let (from, dim, dir) = t.link_endpoints(l);
                assert_eq!(
                    l.0,
                    from.0 * 2 * t.ndims() as u32 + 2 * dim as u32 + dir,
                    "{}",
                    t.name()
                );
            }
        }
    }
}

#[test]
fn torus_detours_equal_the_neighbor_walk_under_random_faults() {
    let mut rng = Rng(0xfa17_5eed);
    for extents in SHAPES {
        let t = Torus::new(extents);
        let long_lived = torus_kind(extents).build_arc();
        let (mut detoured, mut stranded) = (0, 0);
        for _ in 0..200 {
            // Between 1 % and 30 % of the links down.
            let p = 1 + rng.below(30);
            let dead: Vec<bool> = (0..t.link_count()).map(|_| rng.below(100) < p).collect();
            let down = |l: LinkId| dead[l.index()];
            for (s, d) in pairs(t.num_nodes()) {
                let want = neighbor_walk(&t, s, d, &down);
                let got = t.route_avoiding(s, d, &down);
                assert_eq!(
                    got.as_ref().map(|p| p.links()),
                    want.as_deref(),
                    "{} {s:?} -> {d:?}",
                    t.name()
                );
                assert_eq!(
                    long_lived.route_avoiding(s, d, &down),
                    got,
                    "build_arc {} {s:?} -> {d:?}",
                    t.name()
                );
                match got {
                    Some(p) if p.links() != t.route(s, d).links() => detoured += 1,
                    None => stranded += 1,
                    Some(_) => {}
                }
            }
        }
        assert!(detoured > 0, "{}: no down-set forced a detour", t.name());
        assert!(stranded > 0, "{}: no down-set cut a ring", t.name());
    }
}

/// The e-cube router as a bit-test loop: one hop per differing address
/// bit, least significant first, over channel `node · dims + dim`.
fn ecube_reference(dims: u32, src: NodeId, dst: NodeId) -> Vec<LinkId> {
    let mut links = Vec::new();
    let mut cur = src.0;
    for dim in 0..dims {
        if (src.0 ^ dst.0) & (1 << dim) != 0 {
            links.push(LinkId(cur * dims + dim));
            cur ^= 1 << dim;
        }
    }
    assert_eq!(cur, dst.0);
    links
}

/// The dimension-ordered torus router with nothing precomputed: both
/// endpoints' coordinates peeled off by remainder and division, every
/// ring walked the shorter way (ties positive) one [`Torus::neighbor`]
/// at a time, over channel `node · 2n + 2 · dim + dir`.
fn peel_reference(t: &Torus, src: NodeId, dst: NodeId) -> Vec<LinkId> {
    let mut links = Vec::new();
    let mut cur = src;
    let (mut src_rest, mut dst_rest, mut stride) = (src.0, dst.0, 1);
    for (dim, &k) in t.extents().iter().enumerate() {
        let (s, d) = (src_rest % k, dst_rest % k);
        (src_rest, dst_rest) = (src_rest / k, dst_rest / k);
        let fwd = (d + k - s) % k;
        let (steps, dir) = if fwd <= k - fwd {
            (fwd, 0)
        } else {
            (k - fwd, 1)
        };
        let mut c = s;
        for _ in 0..steps {
            links.push(LinkId(cur.0 * 2 * t.ndims() as u32 + 2 * dim as u32 + dir));
            let next = if dir == 0 {
                (c + 1) % k
            } else {
                (c + k - 1) % k
            };
            // The neighbour is the node whose `dim` coordinate moved.
            let moved = NodeId(cur.0 - c * stride + next * stride);
            assert_eq!(t.neighbor(cur, dim, dir), moved, "{}", t.name());
            (cur, c) = (moved, next);
        }
        stride *= k;
    }
    assert_eq!(cur, dst);
    links
}

#[test]
fn every_router_equals_its_reference_link_for_link() {
    let mut buf = Vec::new();
    for dims in [1, 6, 20] {
        let cube = Hypercube::new(dims);
        let long_lived = TopologyKind::Hypercube { dims }.build_arc();
        for (s, d) in pairs(cube.num_nodes()) {
            let want = ecube_reference(dims, s, d);
            cube.route_into(s, d, &mut buf);
            assert_eq!(buf, want, "{} {s:?} -> {d:?}", cube.name());
            let mut hops = Vec::new();
            cube.for_each_hop(s, d, |_, _, l| hops.push(l));
            assert_eq!(hops, buf, "{} {s:?} -> {d:?}", cube.name());
            long_lived.route_into(s, d, &mut buf);
            assert_eq!(buf, want, "build_arc {} {s:?} -> {d:?}", cube.name());
        }
    }
    for extents in [&[8, 8][..], &[5, 3, 2], &[32, 32, 32]] {
        let t = Torus::new(extents);
        let long_lived = torus_kind(extents).build_arc();
        for (s, d) in pairs(t.num_nodes()) {
            let want = peel_reference(&t, s, d);
            t.route_into(s, d, &mut buf);
            assert_eq!(buf, want, "{} {s:?} -> {d:?}", t.name());
            long_lived.route_into(s, d, &mut buf);
            assert_eq!(buf, want, "build_arc {} {s:?} -> {d:?}", t.name());
        }
    }
}

/// The XY mesh router from its documented channel layout alone: nodes
/// row-major (`r · cols + c`), four channels per node (`node · 4 +`
/// E = 0, W = 1, S = 2, N = 3), the column walked first, then the row,
/// one step at a time and never around the edge.
fn xy_reference(rows: u32, cols: u32, src: NodeId, dst: NodeId) -> Vec<LinkId> {
    let (mut r, mut c) = (src.0 / cols, src.0 % cols);
    let (dr, dc) = (dst.0 / cols, dst.0 % cols);
    assert!(r < rows && dr < rows);
    let mut links = Vec::new();
    while c != dc {
        let (dir, next) = if c < dc { (0, c + 1) } else { (1, c - 1) };
        links.push(LinkId((r * cols + c) * 4 + dir));
        c = next;
    }
    while r != dr {
        let (dir, next) = if r < dr { (2, r + 1) } else { (3, r - 1) };
        links.push(LinkId((r * cols + c) * 4 + dir));
        r = next;
    }
    links
}

fn mesh(rows: usize, cols: usize) -> Torus {
    Torus::mesh(rows, cols)
}

#[test]
fn mesh_router_equals_the_xy_reference_link_for_link() {
    let mut buf = Vec::new();
    for (rows, cols) in [
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
        (1, 7),
        (7, 1),
        (3, 5),
        (8, 8),
        (24, 32),
    ] {
        let kind = TopologyKind::Mesh2d {
            rows: rows as u32,
            cols: cols as u32,
        };
        for m in [Arc::new(mesh(rows, cols)), kind.build_arc()] {
            assert_eq!(m.name(), format!("mesh2d({rows}x{cols})"));
            assert_eq!(m.num_nodes(), rows * cols);
            assert_eq!(m.link_count(), 4 * rows * cols);
            assert_eq!(m.diameter(), rows + cols - 2);
            for (s, d) in pairs(m.num_nodes()) {
                let want = xy_reference(rows as u32, cols as u32, s, d);
                m.route_into(s, d, &mut buf);
                assert_eq!(buf, want, "{} {s:?} -> {d:?}", m.name());
                assert_eq!(m.hops(s, d), want.len(), "{} {s:?} -> {d:?}", m.name());
            }
        }
    }
}

#[test]
fn a_cut_xy_route_is_link_down_where_the_torus_detours() {
    // 3 rows x 5 columns both ways: node 0 -> node 1 is one hop east
    // (channel 0) on either fabric.
    let built: [Arc<dyn Topology>; 2] = [Arc::new(mesh(3, 5)), Arc::new(Torus::new(&[5, 3]))];
    let long_lived = [
        TopologyKind::Mesh2d { rows: 3, cols: 5 }.build_arc(),
        torus_kind(&[5, 3]).build_arc(),
    ];
    for [m, t] in [built, long_lived] {
        let (s, d) = (NodeId(0), NodeId(1));
        assert_eq!(m.route(s, d).links(), &[LinkId(0)]);
        assert_eq!(t.route(s, d).links(), &[LinkId(0)]);
        // The first fault seed that downs that hop and leaves the torus a
        // way round.
        let cost = (0..)
            .map(|seed| LinkCostModel::parse(&format!("faulty:p=0.2,seed={seed}")).unwrap())
            .find(|c| !c.link_up(LinkId(0)) && t.route_avoiding(s, d, &|l| !c.link_up(l)).is_some())
            .unwrap();
        let mut detour = Vec::new();
        assert!(matches!(
            cost.route_into(m.as_ref(), s, d, &mut detour),
            Err(SimError::LinkDown {
                link: 0,
                src: 0,
                dst: 1
            })
        ));
        cost.route_into(t.as_ref(), s, d, &mut detour).unwrap();
        assert_eq!(detour.len(), 4, "the long way around the 5-ring");
        assert!(detour.iter().all(|&l| cost.link_up(l)));
    }
}
