//! Sparse link/feeder adjacency in compressed-sparse-row form.
//!
//! The simulator's original layout kept a dense `[Option<Link>; 4]` per
//! node plus a parallel feeder table — 4 option slots and 4 usage counters
//! for every node even though boundary nodes of a mesh wire only 2–3
//! directions and a loop-back node's feeders are its own outputs. At
//! mega-mesh scale (65 536 nodes) that dense layout wastes both memory and,
//! worse, hot-loop time: every cycle phase scans `4 × nodes` option slots
//! to find the ~`4 × nodes − 2 × (width + height)` that exist.
//!
//! [`LinkTable`] stores exactly the wired links, contiguously, in CSR
//! form: `out_start[node]..out_start[node + 1]` indexes that node's
//! outgoing links, and a second CSR (`in_start`/`in_dir`/`in_link`) maps
//! each node's *fed input directions* back to the global index of the link
//! that feeds them, which is all the credit-return path needs. Global link
//! indices are dense (`0..len`), so the event core can address links with
//! `len` handles instead of `4 × nodes`, and per-link state (the pipe and
//! its ledger) lives in a flat arena indexed by link.

use rtr_types::ids::{Direction, NodeId};
use rtr_types::time::Cycle;

use crate::link::Link;
use crate::topology::{LinkEnd, Topology};

/// CSR adjacency over a [`Topology`]: the wired links (with their pipe
/// state) plus the reverse feeder map, both grouped by node.
#[derive(Debug)]
pub struct LinkTable {
    /// CSR offsets: node `i`'s outgoing links are `out_start[i] as usize
    /// .. out_start[i + 1] as usize` (length `nodes + 1`).
    out_start: Vec<u32>,
    /// The node driving each link, indexed by global link index (the CSR
    /// offsets inverted, so a cycle's arrival pass can start from
    /// a link handle instead of from its node).
    out_src: Vec<NodeId>,
    /// Output direction of each link, indexed by global link index.
    out_dir: Vec<Direction>,
    /// Where each link lands (destination node + arrival direction),
    /// precomputed so the hot phases never consult the topology.
    out_dst: Vec<LinkEnd>,
    /// The link pipes themselves (symbol/credit queues).
    links: Vec<Link>,
    /// CSR offsets of the feeder map: node `i`'s fed input directions are
    /// `in_start[i] as usize .. in_start[i + 1] as usize`.
    in_start: Vec<u32>,
    /// Arrival direction at the fed node, per feeder entry.
    in_dir: Vec<Direction>,
    /// Global index of the link feeding that input, per feeder entry.
    in_link: Vec<u32>,
}

impl LinkTable {
    /// Builds the CSR tables for `topo`, creating one [`Link`] with the
    /// given wire latency per wired output.
    #[must_use]
    pub fn build(topo: &Topology, link_latency: Cycle) -> Self {
        let n = topo.len();
        let mut out_start = Vec::with_capacity(n + 1);
        let mut out_src = Vec::new();
        let mut out_dir = Vec::new();
        let mut out_dst = Vec::new();
        out_start.push(0);
        for node in topo.nodes() {
            for dir in Direction::ALL {
                if let Some(end) = topo.link_end(node, dir) {
                    out_src.push(node);
                    out_dir.push(dir);
                    out_dst.push(end);
                }
            }
            out_start.push(out_dir.len() as u32);
        }
        let total = out_dir.len();
        // Reverse map: count each node's in-degree, prefix-sum into CSR
        // offsets, then scatter the feeder entries in ascending link order
        // (deterministic regardless of topology shape).
        let mut in_count = vec![0u32; n];
        for end in &out_dst {
            in_count[end.node.index()] += 1;
        }
        let mut in_start = Vec::with_capacity(n + 1);
        in_start.push(0u32);
        for count in &in_count {
            in_start.push(in_start.last().unwrap() + count);
        }
        let mut cursor: Vec<u32> = in_start[..n].to_vec();
        let mut in_dir = vec![Direction::XPlus; total];
        let mut in_link = vec![0u32; total];
        for (li, end) in out_dst.iter().enumerate() {
            let slot = cursor[end.node.index()] as usize;
            cursor[end.node.index()] += 1;
            in_dir[slot] = end.dir;
            in_link[slot] = li as u32;
        }
        LinkTable {
            out_start,
            out_src,
            out_dir,
            out_dst,
            links: (0..total).map(|_| Link::new(link_latency)).collect(),
            in_start,
            in_dir,
            in_link,
        }
    }

    /// Total number of wired (directed) links.
    #[must_use]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the table holds no links.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The global-index range of `node`'s outgoing links.
    #[must_use]
    pub fn out_bounds(&self, node: usize) -> (usize, usize) {
        (self.out_start[node] as usize, self.out_start[node + 1] as usize)
    }

    /// The output direction of link `li`.
    #[must_use]
    pub fn dir(&self, li: usize) -> Direction {
        self.out_dir[li]
    }

    /// Where link `li` lands (destination node + arrival direction).
    #[must_use]
    pub fn dst(&self, li: usize) -> LinkEnd {
        self.out_dst[li]
    }

    /// The pipe state of link `li`.
    #[must_use]
    pub fn link(&self, li: usize) -> &Link {
        &self.links[li]
    }

    /// Mutable pipe state of link `li`.
    pub fn link_mut(&mut self, li: usize) -> &mut Link {
        &mut self.links[li]
    }

    /// The global index of `node`'s `dir` output link, if wired. A linear
    /// scan over at most four entries.
    #[must_use]
    pub fn out_index(&self, node: usize, dir: Direction) -> Option<usize> {
        let (start, end) = self.out_bounds(node);
        (start..end).find(|&li| self.out_dir[li] == dir)
    }

    /// The feeder-entry index range of `node` (see [`LinkTable::in_dir`]
    /// and [`LinkTable::in_link`]).
    #[must_use]
    pub fn in_bounds(&self, node: usize) -> (usize, usize) {
        (self.in_start[node] as usize, self.in_start[node + 1] as usize)
    }

    /// The arrival direction of feeder entry `fi`.
    #[must_use]
    pub fn in_dir(&self, fi: usize) -> Direction {
        self.in_dir[fi]
    }

    /// The global link index of feeder entry `fi`.
    #[must_use]
    pub fn in_link(&self, fi: usize) -> usize {
        self.in_link[fi] as usize
    }

    /// The `(source node, output direction)` feeding `node`'s input `dir`,
    /// if wired — the dense feeder-table lookup, reconstructed from the
    /// CSR maps (diagnostics and tests; the hot path uses
    /// [`LinkTable::in_bounds`] directly).
    #[must_use]
    pub fn feeder(&self, node: NodeId, dir: Direction) -> Option<(NodeId, Direction)> {
        let (start, end) = self.in_bounds(node.index());
        (start..end).find(|&fi| self.in_dir[fi] == dir).map(|fi| {
            let li = self.in_link[fi] as usize;
            let src = self.owner_of(li);
            (src, self.out_dir[li])
        })
    }

    /// The node that owns (drives) link `li`.
    #[must_use]
    pub fn owner_of(&self, li: usize) -> NodeId {
        self.out_src[li]
    }

    /// Iterates every link pipe in global-index order.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// Heap bytes behind the table (arena capacities; the struct itself is
    /// counted by the caller).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.out_start.capacity() * std::mem::size_of::<u32>()
            + self.out_src.capacity() * std::mem::size_of::<NodeId>()
            + self.out_dir.capacity() * std::mem::size_of::<Direction>()
            + self.out_dst.capacity() * std::mem::size_of::<LinkEnd>()
            + self.links.capacity() * std::mem::size_of::<Link>()
            + self.in_start.capacity() * std::mem::size_of::<u32>()
            + self.in_dir.capacity() * std::mem::size_of::<Direction>()
            + self.in_link.capacity() * std::mem::size_of::<u32>()
            + self.links.iter().map(Link::heap_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CSR adjacency must agree entry-for-entry with the dense topology
    /// wiring it compresses.
    fn assert_matches_topology(topo: &Topology) {
        let table = LinkTable::build(topo, 0);
        let mut expected_links = 0;
        for node in topo.nodes() {
            let (start, end) = table.out_bounds(node.index());
            let mut cursor = start;
            for dir in Direction::ALL {
                match topo.link_end(node, dir) {
                    Some(want) => {
                        let li = table.out_index(node.index(), dir).expect("wired dir present");
                        assert_eq!(li, cursor, "links stored in Direction::ALL order");
                        assert_eq!(table.dir(li), dir);
                        assert_eq!(table.dst(li), want);
                        assert_eq!(table.owner_of(li), node);
                        // The reverse map points straight back.
                        let (src, src_dir) = table.feeder(want.node, want.dir).expect("fed input");
                        assert_eq!((src, src_dir), (node, dir));
                        cursor += 1;
                        expected_links += 1;
                    }
                    None => assert_eq!(table.out_index(node.index(), dir), None),
                }
            }
            assert_eq!(cursor, end, "bounds cover exactly the wired dirs");
        }
        assert_eq!(table.len(), expected_links);
        // Feeder entries partition the links: every link appears exactly
        // once in the reverse map.
        let mut seen = vec![false; table.len()];
        for node in topo.nodes() {
            let (start, end) = table.in_bounds(node.index());
            for fi in start..end {
                let li = table.in_link(fi);
                assert!(!seen[li], "link {li} fed twice");
                seen[li] = true;
                assert_eq!(table.dst(li).node, node);
                assert_eq!(table.dst(li).dir, table.in_dir(fi));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn csr_matches_mesh_wiring() {
        assert_matches_topology(&Topology::mesh(4, 3));
        assert_matches_topology(&Topology::mesh(1, 1));
        assert_matches_topology(&Topology::line(5));
    }

    #[test]
    fn csr_handles_loopback_self_links() {
        let topo = Topology::loopback();
        assert_matches_topology(&topo);
        let table = LinkTable::build(&topo, 0);
        assert_eq!(table.len(), 4);
        let (start, end) = table.in_bounds(0);
        assert_eq!(end - start, 4, "all four inputs are fed by the node itself");
    }

    #[test]
    fn mesh_link_count_is_exact() {
        // An open w×h mesh has 2·(w·(h−1) + h·(w−1)) directed links.
        let table = LinkTable::build(&Topology::mesh(8, 8), 0);
        assert_eq!(table.len(), 2 * (8 * 7 + 8 * 7));
    }
}
