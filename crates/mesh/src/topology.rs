//! Network topology: node coordinates and link wiring.
//!
//! The primary topology is the paper's 2-D square mesh (Figure 1), where
//! dimension-ordered routing is deadlock-free. [`Topology::loopback`] builds
//! the single-router configuration of §5.2 Experiment 1, whose +x output
//! feeds its own −x input and +y output feeds its own −y input, so one chip
//! exercises a multi-hop path.

use rtr_types::ids::{Direction, NodeId};

/// Where one output link lands: the destination node and the *input
/// direction* it arrives on there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEnd {
    /// Destination node.
    pub node: NodeId,
    /// Input direction at the destination.
    pub dir: Direction,
}

/// A network of nodes plus the wiring of their directional links.
#[derive(Debug, Clone)]
pub struct Topology {
    width: u16,
    height: u16,
    /// `wiring[node][dir]` is where node's `dir` output link lands.
    wiring: Vec<[Option<LinkEnd>; 4]>,
}

impl Topology {
    /// A `width × height` open mesh (the paper's Figure 1 topology).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, or if the mesh has more than
    /// 65 536 nodes (node indices would no longer fit a [`NodeId`]).
    #[must_use]
    pub fn mesh(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        assert!(
            usize::from(width) * usize::from(height) <= usize::from(u16::MAX) + 1,
            "a {width}×{height} mesh has more nodes than the 65 536 a NodeId can name"
        );
        let mut wiring = vec![[None; 4]; usize::from(width) * usize::from(height)];
        for y in 0..height {
            for x in 0..width {
                let n = usize::from(y) * usize::from(width) + usize::from(x);
                if x + 1 < width {
                    wiring[n][dir_index(Direction::XPlus)] =
                        Some(LinkEnd { node: NodeId((n + 1) as u16), dir: Direction::XMinus });
                }
                if x > 0 {
                    wiring[n][dir_index(Direction::XMinus)] =
                        Some(LinkEnd { node: NodeId((n - 1) as u16), dir: Direction::XPlus });
                }
                if y + 1 < height {
                    wiring[n][dir_index(Direction::YPlus)] = Some(LinkEnd {
                        node: NodeId((n + usize::from(width)) as u16),
                        dir: Direction::YMinus,
                    });
                }
                if y > 0 {
                    wiring[n][dir_index(Direction::YMinus)] = Some(LinkEnd {
                        node: NodeId((n - usize::from(width)) as u16),
                        dir: Direction::YPlus,
                    });
                }
            }
        }
        Topology { width, height, wiring }
    }

    /// A 1-D chain of `n` nodes (a `n × 1` mesh) — the shape the paper's
    /// per-hop analyses use.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn line(n: u16) -> Self {
        Topology::mesh(n, 1)
    }

    /// The single-router loop-back configuration of the paper's §5.2
    /// Experiment 1: +x wired to the node's own −x input, +y to its own −y
    /// input (and symmetrically −x → +x, −y → +y so both directions work).
    #[must_use]
    pub fn loopback() -> Self {
        let mut wiring = vec![[None; 4]];
        let n = NodeId(0);
        wiring[0][dir_index(Direction::XPlus)] = Some(LinkEnd { node: n, dir: Direction::XMinus });
        wiring[0][dir_index(Direction::XMinus)] = Some(LinkEnd { node: n, dir: Direction::XPlus });
        wiring[0][dir_index(Direction::YPlus)] = Some(LinkEnd { node: n, dir: Direction::YMinus });
        wiring[0][dir_index(Direction::YMinus)] = Some(LinkEnd { node: n, dir: Direction::YPlus });
        Topology { width: 1, height: 1, wiring }
    }

    /// The same topology with the given output links unwired (link
    /// failures, or deliberately irregular fabrics). Only the listed
    /// direction is removed — the reverse link stays up unless it is
    /// listed too, so asymmetric wiring is expressible.
    #[must_use]
    pub fn without_links(mut self, dead: &[(NodeId, Direction)]) -> Self {
        for (node, dir) in dead {
            self.wiring[node.index()][dir_index(*dir)] = None;
        }
        self
    }

    /// Heap bytes behind the wiring table (allocated capacity).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.wiring.capacity() * std::mem::size_of::<[Option<LinkEnd>; 4]>()
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wiring.len()
    }

    /// Whether the topology has no nodes (never true for constructed
    /// topologies).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.wiring.is_empty()
    }

    /// Mesh width.
    #[must_use]
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Mesh height.
    #[must_use]
    pub fn height(&self) -> u16 {
        self.height
    }

    /// All node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.wiring.len()).map(|i| NodeId(i as u16))
    }

    /// Where `node`'s `dir` output link lands, if wired.
    #[must_use]
    pub fn link_end(&self, node: NodeId, dir: Direction) -> Option<LinkEnd> {
        self.wiring[node.index()][dir_index(dir)]
    }

    /// The `(x, y)` coordinates of a node.
    #[must_use]
    pub fn coords(&self, node: NodeId) -> (u16, u16) {
        let i = node.index();
        ((i % usize::from(self.width)) as u16, (i / usize::from(self.width)) as u16)
    }

    /// The node at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the mesh.
    #[must_use]
    pub fn node_at(&self, x: u16, y: u16) -> NodeId {
        assert!(x < self.width && y < self.height, "coordinates outside the mesh");
        NodeId(y * self.width + x)
    }

    /// The signed column and row distance from `src` to `dst`.
    fn deltas(&self, src: NodeId, dst: NodeId) -> (i32, i32) {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        (i32::from(dx) - i32::from(sx), i32::from(dy) - i32::from(sy))
    }

    /// The dimension-ordered header offsets for a best-effort packet from
    /// `src` to `dst` (Figure 3b). The header carries one signed byte per
    /// axis, so 127 hops per axis is the bound on what best-effort traffic
    /// can be routed; time-constrained routes are table-driven
    /// ([`Topology::dor_route`]) and have no such bound.
    ///
    /// # Panics
    ///
    /// Panics if an offset exceeds the `i8` header field.
    #[must_use]
    pub fn be_offsets(&self, src: NodeId, dst: NodeId) -> (i8, i8) {
        const BOUND: &str =
            "a best-effort header offset is one signed byte: at most 127 hops per axis";
        let (x, y) = self.deltas(src, dst);
        (i8::try_from(x).expect(BOUND), i8::try_from(y).expect(BOUND))
    }

    /// The dimension-ordered route from `src` to `dst` as a list of output
    /// directions (empty when `src == dst`). This is the fixed path the
    /// channel-establishment protocol reserves resources along; it may be
    /// as long as the mesh is wide.
    #[must_use]
    pub fn dor_route(&self, src: NodeId, dst: NodeId) -> Vec<Direction> {
        let (x, y) = self.deltas(src, dst);
        let along = |delta: i32, plus, minus| {
            let dir = if delta > 0 { plus } else { minus };
            std::iter::repeat_n(dir, delta.unsigned_abs() as usize)
        };
        along(x, Direction::XPlus, Direction::XMinus)
            .chain(along(y, Direction::YPlus, Direction::YMinus))
            .collect()
    }

    /// A shortest route from `src` to `dst` that avoids the given dead (or
    /// resource-exhausted) links, or `None` if the failures disconnect the
    /// pair.
    ///
    /// Time-constrained routing is table-driven (§3.3), so — unlike the
    /// offset-based best-effort class — a channel's fixed path may be *any*
    /// path the protocol software picks: "the chosen route depends on the
    /// resources available at various nodes and links in the network", and
    /// multi-hop meshes have "several disjoint routes between each pair of
    /// processing nodes, improving the application's resilience to link and
    /// node failures" (§1).
    ///
    /// # Example
    ///
    /// ```
    /// use rtr_mesh::Topology;
    /// use rtr_types::ids::Direction;
    ///
    /// let topo = Topology::mesh(3, 3);
    /// let (src, dst) = (topo.node_at(0, 0), topo.node_at(2, 0));
    /// // The direct route is two +x hops; with the first +x link dead,
    /// // the shortest detour goes around through the next row.
    /// let detour = topo.route_avoiding(src, dst, &[(src, Direction::XPlus)]).unwrap();
    /// assert_eq!(detour.len(), 4);
    /// ```
    #[must_use]
    pub fn route_avoiding(
        &self,
        src: NodeId,
        dst: NodeId,
        dead: &[(NodeId, Direction)],
    ) -> Option<Vec<Direction>> {
        if src == dst {
            return Some(Vec::new());
        }
        // BFS over wired, live links.
        let mut prev: Vec<Option<(NodeId, Direction)>> = vec![None; self.len()];
        let mut visited = vec![false; self.len()];
        let mut queue = std::collections::VecDeque::new();
        visited[src.index()] = true;
        queue.push_back(src);
        while let Some(here) = queue.pop_front() {
            for dir in Direction::ALL {
                if dead.contains(&(here, dir)) {
                    continue;
                }
                let Some(end) = self.link_end(here, dir) else { continue };
                if visited[end.node.index()] {
                    continue;
                }
                visited[end.node.index()] = true;
                prev[end.node.index()] = Some((here, dir));
                if end.node == dst {
                    let mut route = Vec::new();
                    let mut walk = dst;
                    while walk != src {
                        let (from, dir) = prev[walk.index()].expect("BFS path");
                        route.push(dir);
                        walk = from;
                    }
                    route.reverse();
                    return Some(route);
                }
                queue.push_back(end.node);
            }
        }
        None
    }

    /// The sequence of nodes visited by following `route` from `src`
    /// (starting node included).
    ///
    /// # Panics
    ///
    /// Panics if the route leaves the wired topology.
    #[must_use]
    pub fn walk(&self, src: NodeId, route: &[Direction]) -> Vec<NodeId> {
        let mut nodes = vec![src];
        let mut here = src;
        for dir in route {
            let end = self.link_end(here, *dir).expect("route leaves the wired topology");
            here = end.node;
            nodes.push(here);
        }
        nodes
    }
}

fn dir_index(dir: Direction) -> usize {
    match dir {
        Direction::XPlus => 0,
        Direction::XMinus => 1,
        Direction::YPlus => 2,
        Direction::YMinus => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mesh_wiring_is_consistent() {
        let t = Topology::mesh(4, 3);
        assert_eq!(t.len(), 12);
        // Interior node (1,1) = node 5 has all four links.
        let n = t.node_at(1, 1);
        for d in Direction::ALL {
            let end = t.link_end(n, d).expect("interior node fully wired");
            assert_eq!(end.dir, d.opposite(), "arrival port faces the sender");
            // The far end's output on the same side returns here.
            let back = t.link_end(end.node, end.dir).unwrap();
            assert_eq!(back.node, n);
            assert_eq!(back.dir, d);
        }
        // Corner (0,0) has only +x and +y.
        let c = t.node_at(0, 0);
        assert!(t.link_end(c, Direction::XMinus).is_none());
        assert!(t.link_end(c, Direction::YMinus).is_none());
        assert!(t.link_end(c, Direction::XPlus).is_some());
        assert!(t.link_end(c, Direction::YPlus).is_some());
    }

    #[test]
    fn coords_round_trip() {
        let t = Topology::mesh(5, 4);
        for n in t.nodes() {
            let (x, y) = t.coords(n);
            assert_eq!(t.node_at(x, y), n);
        }
    }

    #[test]
    fn line_is_a_one_row_mesh() {
        let t = Topology::line(4);
        assert_eq!(t.len(), 4);
        assert_eq!(t.height(), 1);
        assert!(t.link_end(NodeId(0), Direction::YPlus).is_none());
        assert!(t.link_end(NodeId(1), Direction::XPlus).is_some());
    }

    #[test]
    fn loopback_wires_links_to_self() {
        let t = Topology::loopback();
        assert_eq!(t.len(), 1);
        let end = t.link_end(NodeId(0), Direction::XPlus).unwrap();
        assert_eq!(end.node, NodeId(0));
        assert_eq!(end.dir, Direction::XMinus);
    }

    #[test]
    fn offsets_match_coordinates() {
        let t = Topology::mesh(4, 4);
        let a = t.node_at(0, 3);
        let b = t.node_at(2, 1);
        assert_eq!(t.be_offsets(a, b), (2, -2));
        assert_eq!(t.be_offsets(b, a), (-2, 2));
        assert_eq!(t.be_offsets(a, a), (0, 0));
    }

    #[test]
    fn dor_route_goes_x_then_y() {
        let t = Topology::mesh(4, 4);
        let route = t.dor_route(t.node_at(0, 0), t.node_at(2, 1));
        assert_eq!(route, vec![Direction::XPlus, Direction::XPlus, Direction::YPlus]);
        let nodes = t.walk(t.node_at(0, 0), &route);
        assert_eq!(nodes.last(), Some(&t.node_at(2, 1)));
        assert_eq!(nodes.len(), 4);
    }

    #[test]
    fn route_avoiding_dead_links_detours() {
        let t = Topology::mesh(3, 3);
        let src = t.node_at(0, 0);
        let dst = t.node_at(2, 0);
        // Unobstructed: the DOR route (+x +x) is also a BFS shortest path.
        let clear = t.route_avoiding(src, dst, &[]).unwrap();
        assert_eq!(clear.len(), 2);
        // Kill the first +x link: the detour goes around through row 1.
        let dead = [(src, Direction::XPlus)];
        let detour = t.route_avoiding(src, dst, &dead).unwrap();
        assert_eq!(detour.len(), 4, "shortest detour is 4 hops");
        assert_ne!(detour[0], Direction::XPlus);
        let nodes = t.walk(src, &detour);
        assert_eq!(*nodes.last().unwrap(), dst);
    }

    #[test]
    fn route_avoiding_reports_disconnection() {
        let t = Topology::mesh(2, 1);
        let dead = [(t.node_at(0, 0), Direction::XPlus)];
        assert_eq!(t.route_avoiding(t.node_at(0, 0), t.node_at(1, 0), &dead), None);
        // Self-routes always succeed trivially.
        assert_eq!(t.route_avoiding(t.node_at(0, 0), t.node_at(0, 0), &dead), Some(vec![]));
    }

    proptest! {
        /// BFS routes always reach the destination over live links and are
        /// never longer than the detour-free Manhattan distance requires
        /// when nothing is dead.
        #[test]
        fn route_avoiding_without_failures_is_shortest(w in 1u16..6, h in 1u16..6, s in 0u16..36, d in 0u16..36) {
            let t = Topology::mesh(w, h);
            let s = NodeId(s % (w * h));
            let d = NodeId(d % (w * h));
            let route = t.route_avoiding(s, d, &[]).unwrap();
            let (dx, dy) = t.be_offsets(s, d);
            prop_assert_eq!(route.len() as u32, dx.unsigned_abs() as u32 + dy.unsigned_abs() as u32);
            prop_assert_eq!(*t.walk(s, &route).last().unwrap(), d);
        }
    }

    proptest! {
        /// Every DOR route walks to its destination with |x|+|y| hops.
        #[test]
        fn dor_route_reaches_destination(w in 1u16..8, h in 1u16..8, s in 0u16..64, d in 0u16..64) {
            let t = Topology::mesh(w, h);
            let s = NodeId(s % (w * h));
            let d = NodeId(d % (w * h));
            let route = t.dor_route(s, d);
            let nodes = t.walk(s, &route);
            prop_assert_eq!(*nodes.last().unwrap(), d);
            let (dx, dy) = t.be_offsets(s, d);
            prop_assert_eq!(route.len() as u32, dx.unsigned_abs() as u32 + dy.unsigned_abs() as u32);
        }
    }
}
