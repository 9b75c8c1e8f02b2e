//! Network topologies: who can talk to whom.
//!
//! A [`Topology`] is an undirected multigraph over nodes `0..len()`. Each
//! node sees its links as local *ports* `0..degree`; the topology stores, for
//! every `(node, port)`, the peer node and the *peer's port* for the same
//! link, so the simulator can deliver a message sent on `(u, p)` to
//! `(peer(u,p), peer_port(u,p))` and the receiver knows which of its links it
//! arrived on. Nodes never see global identifiers unless the protocol ships
//! them in messages — exactly the CONGEST abstraction.

use dcover_hypergraph::Hypergraph;

/// Index of a node in the network.
pub type NodeId = usize;

/// Local port index at a node (0-based, `< degree`).
pub type Port = usize;

/// An immutable undirected topology with port-labelled links.
///
/// # Examples
///
/// ```
/// use dcover_congest::Topology;
///
/// // A triangle.
/// let t = Topology::from_links(3, &[(0, 1), (1, 2), (2, 0)]);
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.degree(0), 2);
/// let (peer, peer_port) = t.peer(0, 0);
/// assert_eq!(peer, 1);
/// assert_eq!(t.peer(peer, peer_port), (0, 0));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    offsets: Vec<u32>,
    peers: Vec<u32>,
    peer_ports: Vec<u32>,
    /// First node of the second side of a two-sided network
    /// ([`bipartite_incidence`](Self::bipartite_incidence)); `len()` for a
    /// one-sided one. Chunk partitions cut each side separately.
    second_side: usize,
}

impl Topology {
    /// Builds a topology over `n` nodes from an undirected link list.
    /// Ports are assigned in link-list order (a node's first mentioned link
    /// is its port 0). Self-loops are rejected; parallel links are allowed.
    ///
    /// # Panics
    ///
    /// Panics if a link endpoint is `>= n` or a link is a self-loop.
    #[must_use]
    pub fn from_links(n: usize, links: &[(NodeId, NodeId)]) -> Self {
        let mut degree = vec![0u32; n];
        for &(u, v) in links {
            assert!(u < n && v < n, "link ({u}, {v}) out of range (n = {n})");
            assert_ne!(u, v, "self-loops are not allowed");
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let total = acc as usize;
        let mut peers = vec![0u32; total];
        let mut peer_ports = vec![0u32; total];
        let mut cursor: Vec<u32> = vec![0; n];
        for &(u, v) in links {
            let pu = cursor[u];
            let pv = cursor[v];
            cursor[u] += 1;
            cursor[v] += 1;
            let su = offsets[u] + pu;
            let sv = offsets[v] + pv;
            peers[su as usize] = v as u32;
            peer_ports[su as usize] = pv;
            peers[sv as usize] = u as u32;
            peer_ports[sv as usize] = pu;
        }
        Self {
            offsets,
            peers,
            peer_ports,
            second_side: n,
        }
    }

    /// The bipartite *communication network* of the paper (§2): node ids
    /// `0..n` are the hypergraph vertices (servers), `n..n+m` are the
    /// hyperedges (clients), with a link for every incidence `v ∈ e`.
    ///
    /// Port order matches the hypergraph's CSR order on both sides: vertex
    /// `v`'s port `i` is its `i`-th incident edge
    /// ([`Hypergraph::incident_edges`]), and edge `e`'s port `j` is its
    /// `j`-th member vertex ([`Hypergraph::edge`]). Protocol code relies on
    /// this alignment. The topology remembers that its second side starts
    /// at node `n`, so a multi-chunk simulator cuts each side separately
    /// and every worker holds a share of both.
    ///
    /// Built in one pass over the edge CSR: walking the edges in ascending
    /// id order hands every vertex its incident edges in ascending order,
    /// which is the order `incident_edges` guarantees, so a per-vertex
    /// cursor yields the vertex-side port of each incidence and both
    /// reciprocal entries are written at once.
    ///
    /// # Panics
    ///
    /// Panics if the network would have `2^32` ports or more, or if an
    /// incident-edge list is not in ascending edge order (impossible for a
    /// constructed [`Hypergraph`]).
    #[must_use]
    pub fn bipartite_incidence(g: &Hypergraph) -> Self {
        let n = g.n();
        let mut offsets = Vec::with_capacity(n + g.m() + 1);
        let mut acc = 0u32;
        offsets.push(acc);
        let sizes = g
            .vertices()
            .map(|v| g.degree(v))
            .chain(g.edges().map(|e| g.edge_size(e)));
        for size in sizes {
            acc = u32::try_from(size)
                .ok()
                .and_then(|size| acc.checked_add(size))
                .expect("a topology has fewer than 2^32 ports");
            offsets.push(acc);
        }
        let total = acc as usize;
        let mut peers = vec![0u32; total];
        let mut peer_ports = vec![0u32; total];
        // Next unassigned port of each vertex.
        let mut cursor = vec![0u32; n];
        for e in g.edges() {
            let node = n + e.index();
            let base = offsets[node] as usize;
            for (j, &v) in g.edge(e).iter().enumerate() {
                let port = cursor[v.index()];
                cursor[v.index()] += 1;
                assert_eq!(
                    g.incident_edges(v)[port as usize],
                    e,
                    "incident edges of {v} are not in ascending edge order"
                );
                let vslot = (offsets[v.index()] + port) as usize;
                peers[vslot] = node as u32;
                peer_ports[vslot] = j as u32;
                peers[base + j] = v.raw();
                peer_ports[base + j] = port;
            }
        }
        Self {
            offsets,
            peers,
            peer_ports,
            second_side: n,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the topology has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of undirected links.
    #[must_use]
    pub fn num_links(&self) -> usize {
        self.peers.len() / 2
    }

    /// Degree (number of ports) of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    #[must_use]
    pub fn degree(&self, node: NodeId) -> usize {
        (self.offsets[node + 1] - self.offsets[node]) as usize
    }

    /// The peer node and its port for the link at `(node, port)`.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `port` is out of range.
    #[inline]
    #[must_use]
    pub fn peer(&self, node: NodeId, port: Port) -> (NodeId, Port) {
        assert!(
            port < self.degree(node),
            "port {port} out of range at node {node}"
        );
        let slot = self.offsets[node] as usize + port;
        (self.peers[slot] as usize, self.peer_ports[slot] as usize)
    }

    /// Iterator over `(port, peer)` pairs of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (Port, NodeId)> + '_ {
        let lo = self.offsets[node] as usize;
        let hi = self.offsets[node + 1] as usize;
        self.peers[lo..hi]
            .iter()
            .enumerate()
            .map(|(port, &peer)| (port, peer as usize))
    }

    /// Maximum degree over all nodes (0 if there are no nodes).
    #[must_use]
    pub fn max_degree(&self) -> usize {
        (0..self.len()).map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// First node id of the second side: the hyperedges `n..n+m` of a
    /// [`bipartite_incidence`](Self::bipartite_incidence), or `len()` for a
    /// one-sided [`from_links`](Self::from_links) topology.
    pub(crate) fn second_side(&self) -> usize {
        self.second_side
    }

    /// Total number of directed link endpoints (`Σ degree = 2 · num_links`).
    /// This is the size of the round engine's mailbox arena: one slot per
    /// `(node, port)` pair.
    #[must_use]
    pub fn total_ports(&self) -> usize {
        self.peers.len()
    }

    /// The arena slot index of `(node, port)`: `offsets[node] + port`. Slots
    /// are laid out in CSR order, so a node's ports occupy the contiguous
    /// range [`slot_range`](Self::slot_range).
    #[inline]
    #[must_use]
    pub fn slot_of(&self, node: NodeId, port: Port) -> usize {
        debug_assert!(port < self.degree(node));
        self.offsets[node] as usize + port
    }

    /// The contiguous arena slot range owned by `node` (its ports in order).
    #[inline]
    #[must_use]
    pub fn slot_range(&self, node: NodeId) -> std::ops::Range<usize> {
        self.offsets[node] as usize..self.offsets[node + 1] as usize
    }

    /// The contiguous arena slot range owned by the node range `nodes`
    /// (empty for an empty range, which may start at `len()`).
    #[inline]
    pub(crate) fn slot_span(&self, nodes: std::ops::Range<NodeId>) -> std::ops::Range<usize> {
        self.offsets[nodes.start] as usize..self.offsets[nodes.end] as usize
    }

    /// The slot a message sent on `(node, port)` is delivered to: the
    /// reciprocal endpoint `(peer, peer_port)` of the same link, as a flat
    /// arena index. Port order is structural, so delivery is one indexed
    /// write and no per-inbox sorting is ever needed.
    #[inline]
    #[must_use]
    pub fn reciprocal_slot(&self, node: NodeId, port: Port) -> usize {
        let slot = self.offsets[node] as usize + port;
        self.offsets[self.peers[slot] as usize] as usize + self.peer_ports[slot] as usize
    }

    /// The `(node, port)` pair owning arena slot `slot` (inverse of
    /// [`slot_of`](Self::slot_of); used for error reporting).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= total_ports()`.
    #[must_use]
    pub fn slot_owner(&self, slot: usize) -> (NodeId, Port) {
        assert!(slot < self.peers.len(), "slot out of range");
        let node = match self.offsets.binary_search(&(slot as u32)) {
            // `offsets` may contain runs of equal values (degree-0 nodes);
            // pick the last node whose range starts at or before `slot`.
            Ok(mut i) => {
                while i + 1 < self.offsets.len() && self.offsets[i + 1] as usize == slot {
                    i += 1;
                }
                i
            }
            Err(i) => i - 1,
        };
        (node, slot - self.offsets[node] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcover_hypergraph::{from_edge_lists, VertexId};

    #[test]
    fn triangle_reciprocal_ports() {
        let t = Topology::from_links(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(t.num_links(), 3);
        for u in 0..3 {
            for p in 0..t.degree(u) {
                let (v, q) = t.peer(u, p);
                assert_eq!(t.peer(v, q), (u, p), "reciprocity at ({u},{p})");
            }
        }
    }

    #[test]
    fn parallel_links_get_distinct_ports() {
        let t = Topology::from_links(2, &[(0, 1), (0, 1)]);
        assert_eq!(t.degree(0), 2);
        assert_eq!(t.peer(0, 0), (1, 0));
        assert_eq!(t.peer(0, 1), (1, 1));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let _ = Topology::from_links(2, &[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_link_rejected() {
        let _ = Topology::from_links(2, &[(0, 5)]);
    }

    #[test]
    fn bipartite_ports_align_with_hypergraph() {
        // Edges: e0 = {2, 0}, e1 = {1, 2, 3}
        let g = from_edge_lists(4, &[&[2, 0], &[1, 2, 3]]).unwrap();
        let t = Topology::bipartite_incidence(&g);
        assert_eq!(t.len(), 4 + 2);
        let n = g.n();
        // Edge-side ports must follow member order.
        for e in g.edges() {
            let node = n + e.index();
            for (j, &v) in g.edge(e).iter().enumerate() {
                let (peer, _) = t.peer(node, j);
                assert_eq!(peer, v.index(), "edge {e} port {j}");
            }
        }
        // Vertex-side ports must follow incident-edge order.
        for v in g.vertices() {
            for (i, &e) in g.incident_edges(v).iter().enumerate() {
                let (peer, _) = t.peer(v.index(), i);
                assert_eq!(peer, n + e.index(), "vertex {v} port {i}");
            }
        }
        // Reciprocity still holds after realignment.
        for u in 0..t.len() {
            for p in 0..t.degree(u) {
                let (v, q) = t.peer(u, p);
                assert_eq!(t.peer(v, q), (u, p));
            }
        }
    }

    #[test]
    fn bipartite_degrees_match() {
        let g = from_edge_lists(5, &[&[0, 1, 2], &[2, 3], &[2, 4]]).unwrap();
        let t = Topology::bipartite_incidence(&g);
        assert_eq!(t.degree(2), g.degree(VertexId::new(2)));
        assert_eq!(t.degree(5), 3); // edge 0 has 3 members
        assert_eq!(t.max_degree(), 3);
        assert_eq!(t.num_links(), g.incidence_size());
    }

    #[test]
    fn neighbors_iterator() {
        let t = Topology::from_links(4, &[(0, 1), (0, 2), (0, 3)]);
        let ns: Vec<(Port, NodeId)> = t.neighbors(0).collect();
        assert_eq!(ns, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(t.neighbors(1).count(), 1);
    }
}
