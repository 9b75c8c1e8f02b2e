//! Chunk partitioning policies for a multi-chunk simulator.
//!
//! The parallel engine splits the node set into per-worker chunks and cuts
//! the flat mailbox arena along the same boundaries. A chunk is always a
//! **contiguous range of positions** in some node ordering — that is what
//! keeps the slot arena, dirty lists, and routing tables simple — so the
//! only degree of freedom is *which ordering* the ranges are cut from:
//!
//! * [`PartitionPolicy::Contiguous`] keeps the original node-id order
//!   (the historical behaviour). On the paper's bipartite incidence this
//!   separates vertex nodes (`0..n`) from hyperedge nodes (`n..n+m`), so
//!   almost every link crosses a chunk boundary.
//! * [`PartitionPolicy::Locality`] first computes a deterministic
//!   breadth-first linear arrangement that clusters connected nodes —
//!   vertices interleaved with the hyperedges they touch — and then cuts
//!   that ordering. Connected neighbourhoods land in the same chunk, so
//!   most messages stay chunk-local and skip the inter-chunk staging
//!   buckets entirely (the engine's intra-chunk fast path).
//!
//! Both policies balance chunks by **port weight** (`degree + 1` per
//! node), the same balance constraint the contiguous splitter always
//! used, so a locality cut never trades the cut size for a lopsided
//! worker load. The permutation is internal to the engine: node programs
//! still observe their original ids (`Ctx::node`), results come back in
//! original id order, and the determinism contract is unchanged — the
//! placement of a node only decides *which worker* steps it, never *what
//! it observes*.

use crate::topology::Topology;

/// How a multi-chunk simulator assigns nodes to chunks.
///
/// Selects the node ordering that chunk boundaries are cut from:
/// `Contiguous` cuts the original id order (on the bipartite incidence
/// this separates vertices from hyperedges, so almost every link crosses
/// chunks); `Locality` cuts a deterministic breadth-first arrangement
/// that clusters connected nodes, so most messages stay chunk-local and
/// take the engine's intra-chunk fast path. The policy affects scheduling
/// and the intra/cross-chunk message split reported by
/// [`SimReport`](crate::SimReport) — never results: both policies are
/// bit-identical to a single-chunk run for any protocol and any chunk
/// count.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum PartitionPolicy {
    /// Cut chunks from the original node-id order.
    #[default]
    Contiguous,
    /// Cut chunks from a breadth-first locality arrangement that keeps
    /// connected nodes in the same chunk where the port balance allows.
    Locality,
}

impl std::fmt::Display for PartitionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PartitionPolicy::Contiguous => "contiguous",
            PartitionPolicy::Locality => "locality",
        })
    }
}

impl std::str::FromStr for PartitionPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "contiguous" => Ok(PartitionPolicy::Contiguous),
            "locality" => Ok(PartitionPolicy::Locality),
            other => Err(format!(
                "unknown partition policy '{other}' (expected 'contiguous' or 'locality')"
            )),
        }
    }
}

/// A concrete chunking of a topology: a node permutation plus balanced
/// contiguous cuts over it.
///
/// Positions `bounds[i]..bounds[i + 1]` form chunk `i`; `order` maps a
/// position to the original node id and `pos_of` inverts it. For the
/// identity permutation (`Contiguous`, or a `Locality` arrangement that
/// happens to be the identity) the two tables stay empty and the mapping
/// short-circuits, so the historical construction cost is unchanged.
#[derive(Clone, Debug)]
pub(crate) struct Partition {
    /// Position → original node id; empty when the permutation is the identity.
    order: Vec<u32>,
    /// Original node id → position; empty when the permutation is the identity.
    pos_of: Vec<u32>,
    /// Permuted CSR port prefix: `slot_offsets[p]` is the arena slot where
    /// the node at position `p` starts; length `n + 1`.
    slot_offsets: Vec<usize>,
    /// Chunk boundaries in position space; length `num_chunks + 1`,
    /// `bounds[0] == 0`, `bounds[num_chunks] == n`, monotone.
    bounds: Vec<usize>,
    identity: bool,
}

impl Partition {
    /// Builds a partition of `topo` into `num_chunks` chunks under `policy`.
    pub(crate) fn new(topo: &Topology, num_chunks: usize, policy: PartitionPolicy) -> Self {
        match policy {
            PartitionPolicy::Contiguous => Self::contiguous(topo, num_chunks),
            PartitionPolicy::Locality => Self::locality(topo, num_chunks),
        }
    }

    /// The identity arrangement cut into `num_chunks` port-balanced ranges.
    pub(crate) fn contiguous(topo: &Topology, num_chunks: usize) -> Self {
        let n = topo.len();
        let mut slot_offsets = Vec::with_capacity(n + 1);
        slot_offsets.push(0usize);
        for u in 0..n {
            slot_offsets.push(slot_offsets[u] + topo.degree(u));
        }
        let bounds = balanced_bounds(&slot_offsets, num_chunks);
        Partition {
            order: Vec::new(),
            pos_of: Vec::new(),
            slot_offsets,
            bounds,
            identity: true,
        }
    }

    /// A breadth-first linear arrangement cut into `num_chunks`
    /// port-balanced ranges.
    ///
    /// Deterministic greedy BFS: repeatedly seed from the lowest
    /// still-unplaced node id and append unvisited neighbours in port
    /// order. On the bipartite incidence this interleaves each vertex
    /// with the hyperedges it belongs to, so the balanced cut that
    /// follows severs only the links between neighbourhood clusters.
    pub(crate) fn locality(topo: &Topology, num_chunks: usize) -> Self {
        let n = topo.len();
        let mut order = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        for seed in 0..n {
            if placed[seed] {
                continue;
            }
            placed[seed] = true;
            queue.push_back(seed);
            while let Some(u) = queue.pop_front() {
                order.push(u as u32);
                for p in 0..topo.degree(u) {
                    let (v, _) = topo.peer(u, p);
                    if !placed[v] {
                        placed[v] = true;
                        queue.push_back(v);
                    }
                }
            }
        }
        debug_assert_eq!(order.len(), n);
        let identity = order.iter().enumerate().all(|(p, &u)| p == u as usize);
        if identity {
            return Self::contiguous(topo, num_chunks);
        }
        let mut pos_of = vec![0u32; n];
        for (p, &u) in order.iter().enumerate() {
            pos_of[u as usize] = p as u32;
        }
        let mut slot_offsets = Vec::with_capacity(n + 1);
        slot_offsets.push(0usize);
        for (p, &u) in order.iter().enumerate() {
            slot_offsets.push(slot_offsets[p] + topo.degree(u as usize));
        }
        let bounds = balanced_bounds(&slot_offsets, num_chunks);
        Partition {
            order,
            pos_of,
            slot_offsets,
            bounds,
            identity: false,
        }
    }

    /// Number of nodes partitioned.
    pub(crate) fn len(&self) -> usize {
        self.slot_offsets.len() - 1
    }

    /// Number of chunks.
    pub(crate) fn num_chunks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Chunk boundaries in position space.
    pub(crate) fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// Original node id at arrangement position `pos`.
    pub(crate) fn node_at(&self, pos: usize) -> usize {
        if self.identity {
            pos
        } else {
            self.order[pos] as usize
        }
    }

    /// Arrangement position of original node `id`.
    pub(crate) fn position(&self, id: usize) -> usize {
        if self.identity {
            id
        } else {
            self.pos_of[id] as usize
        }
    }

    /// First arena slot of the node at position `pos` (permuted CSR prefix).
    pub(crate) fn slot_offset(&self, pos: usize) -> usize {
        self.slot_offsets[pos]
    }

    /// Whether the arrangement is the identity permutation.
    pub(crate) fn is_identity(&self) -> bool {
        self.identity
    }

    /// Counts the links whose endpoints land in different chunks —
    /// the quantity the locality arrangement minimizes. Each undirected
    /// link is counted once.
    #[cfg(test)]
    pub(crate) fn cut_links(&self, topo: &Topology) -> usize {
        let chunk_of = |id: usize| {
            let pos = self.position(id);
            self.bounds[1..self.num_chunks()].partition_point(|&b| b <= pos)
        };
        let mut cut = 0;
        for u in 0..topo.len() {
            for (_, v) in topo.neighbors(u) {
                if u < v && chunk_of(u) != chunk_of(v) {
                    cut += 1;
                }
            }
        }
        cut
    }
}

/// Cuts `num_chunks` contiguous position ranges balanced by port weight
/// (`degree + 1` per node, so isolated nodes still carry weight).
///
/// `slot_offsets` is the permuted CSR prefix (length `n + 1`); the weight
/// prefix at position `p` is therefore `slot_offsets[p] + p`. This is the
/// same balance rule the contiguous splitter has always used, applied in
/// position space.
fn balanced_bounds(slot_offsets: &[usize], num_chunks: usize) -> Vec<usize> {
    let n = slot_offsets.len() - 1;
    // Weight prefix: prefix[p] = sum of (degree + 1) over positions < p.
    let prefix: Vec<usize> = slot_offsets
        .iter()
        .enumerate()
        .map(|(p, &s)| s + p)
        .collect();
    let weight_total = prefix[n];
    let mut bounds = Vec::with_capacity(num_chunks + 1);
    for i in 0..=num_chunks {
        let target = weight_total * i / num_chunks.max(1);
        bounds.push(prefix.partition_point(|&w| w < target).min(n));
    }
    bounds[0] = 0;
    bounds[num_chunks] = n;
    for i in 1..num_chunks {
        bounds[i] = bounds[i].max(bounds[i - 1]);
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn contiguous_is_identity_with_monotone_covering_bounds() {
        let topo = builders::star(9);
        for chunks in 1..=6 {
            let part = Partition::contiguous(&topo, chunks);
            assert!(part.is_identity());
            assert_eq!(part.num_chunks(), chunks);
            let bounds = part.bounds();
            assert_eq!(bounds[0], 0);
            assert_eq!(bounds[chunks], topo.len());
            for w in bounds.windows(2) {
                assert!(w[0] <= w[1]);
            }
            for id in 0..topo.len() {
                assert_eq!(part.node_at(id), id);
                assert_eq!(part.position(id), id);
            }
            assert_eq!(part.slot_offset(topo.len()), topo.total_ports());
        }
    }

    #[test]
    fn locality_order_is_a_permutation_with_consistent_tables() {
        let topo = builders::grid(5, 7);
        for chunks in 1..=5 {
            let part = Partition::locality(&topo, chunks);
            let n = topo.len();
            assert_eq!(part.len(), n);
            let mut seen = vec![false; n];
            for pos in 0..n {
                let id = part.node_at(pos);
                assert!(!seen[id], "node {id} placed twice");
                seen[id] = true;
                assert_eq!(part.position(id), pos);
            }
            assert!(seen.into_iter().all(|s| s));
            // The permuted slot prefix must sum degrees in order.
            assert_eq!(part.slot_offset(0), 0);
            for pos in 0..n {
                assert_eq!(
                    part.slot_offset(pos + 1) - part.slot_offset(pos),
                    topo.degree(part.node_at(pos))
                );
            }
            assert_eq!(part.slot_offset(n), topo.total_ports());
        }
    }

    #[test]
    fn locality_cuts_no_more_links_than_contiguous_on_bipartite_incidence() {
        // A path hypergraph's bipartite incidence is a path graph:
        // vertices 0..n then edges n..n+m in id order, so the contiguous
        // split at 2+ chunks severs many vertex→edge links while the BFS
        // arrangement (which re-linearizes the path) severs one per cut.
        let g = dcover_hypergraph::generators::path(24);
        let topo = Topology::bipartite_incidence(&g);
        for chunks in [2, 4, 8] {
            let cont = Partition::contiguous(&topo, chunks).cut_links(&topo);
            let loc = Partition::locality(&topo, chunks).cut_links(&topo);
            assert!(
                loc <= cont,
                "locality cut {loc} worse than contiguous {cont} at {chunks} chunks"
            );
            assert!(
                loc < cont,
                "expected a strictly smaller cut on the path incidence ({loc} vs {cont})"
            );
        }
    }

    #[test]
    fn policy_round_trips_through_strings() {
        for policy in [PartitionPolicy::Contiguous, PartitionPolicy::Locality] {
            let s = policy.to_string();
            assert_eq!(s.parse::<PartitionPolicy>().unwrap(), policy);
        }
        assert!("metis".parse::<PartitionPolicy>().is_err());
        assert_eq!(PartitionPolicy::default(), PartitionPolicy::Contiguous);
    }

    #[test]
    fn disconnected_components_are_all_placed() {
        // Two disjoint links plus an isolated node.
        let topo = Topology::from_links(5, &[(0, 3), (1, 4)]);
        let part = Partition::locality(&topo, 2);
        let n = topo.len();
        let mut seen = vec![false; n];
        for pos in 0..n {
            seen[part.node_at(pos)] = true;
        }
        assert!(seen.into_iter().all(|s| s));
        assert_eq!(part.bounds()[0], 0);
        assert_eq!(part.bounds()[2], n);
    }
}
