//! Chunk partitioning for a multi-chunk simulator.
//!
//! The parallel engine splits the node set into per-worker chunks and cuts
//! the flat mailbox arena along the same boundaries. A chunk is always a
//! **contiguous range of positions** in one node arrangement — that is
//! what keeps the slot arena, dirty lists, and routing tables simple — so
//! a partition is an arrangement plus its cuts.
//!
//! # Every chunk holds a share of each side
//!
//! The paper's communication network is two-sided: the hypergraph
//! vertices (nodes `0..n`) and the hyperedges (nodes `n..n+m`). MWHVC's
//! CONGEST schedule steps one side at a time: vertices in the V1/V2
//! rounds, hyperedges in E1/E2. A cut of the id order would give one
//! chunk every vertex and the next chunk only hyperedges, so one worker
//! would idle in every round. On a two-sided topology
//! ([`Topology::bipartite_incidence`]) each side is therefore cut
//! separately into `k` ranges, and chunk `c` is range `c` of the vertex
//! side followed by range `c` of the hyperedge side. Whichever side
//! steps, every worker holds its share. The policy picks the order each
//! side is cut from:
//!
//! * [`PartitionPolicy::Contiguous`] cuts each side in id order.
//! * [`PartitionPolicy::Locality`] cuts each side in the order of a
//!   deterministic breadth-first arrangement of the whole network, which
//!   interleaves every vertex with the hyperedges it touches. Range `c`
//!   of one side then holds most neighbours of range `c` of the other, so
//!   most messages stay in their chunk and take the engine's intra-chunk
//!   fast path instead of the inter-chunk staging buckets.
//!
//! Each side's ranges are balanced by **port weight** (`degree + 1` per
//! node, so isolated nodes still count). A one-chunk partition and a
//! one-sided topology ([`Topology::from_links`]) keep the identity
//! arrangement under either policy and build no permutation tables: a
//! one-sided topology is cut in id order.
//!
//! The permutation is internal to the engine: node programs still observe
//! their original ids (`Ctx::node`), results come back in original id
//! order, and the determinism contract is unchanged — the placement of a
//! node only decides *which worker* steps it, never *what it observes*.

use crate::topology::Topology;

/// How a multi-chunk simulator assigns nodes to chunks.
///
/// On a two-sided network ([`Topology::bipartite_incidence`]) every chunk
/// gets a port-balanced range of each side, so the workers share the
/// vertex rounds and the hyperedge rounds alike. The policy picks the
/// order those ranges are cut from: `Contiguous` cuts id order, and
/// `Locality` cuts a deterministic breadth-first arrangement that keeps a
/// vertex and the hyperedges it touches in one chunk, so most messages
/// stay chunk-local and take the engine's intra-chunk fast path. A
/// one-sided network is cut in id order under both. The policy affects
/// scheduling and the intra/cross-chunk message split reported by
/// [`SimReport`](crate::SimReport) — never results: both policies are
/// bit-identical to a single-chunk run for any protocol and any chunk
/// count.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum PartitionPolicy {
    /// Cut each side of the network in node-id order.
    #[default]
    Contiguous,
    /// Cut each side in a breadth-first arrangement that keeps connected
    /// nodes in the same chunk where the port balance allows.
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

/// A concrete chunking of a topology: a node arrangement plus
/// port-balanced contiguous cuts over it.
///
/// Positions `bounds[i]..bounds[i + 1]` form chunk `i`; `order` maps a
/// position to the original node id and `pos_of` inverts it. For the
/// identity arrangement the two tables stay empty and the mapping
/// short-circuits.
#[derive(Clone, Debug)]
pub(crate) struct Partition {
    /// Position → original node id; empty for the identity arrangement.
    order: Vec<u32>,
    /// Original node id → position; empty for the identity arrangement.
    pos_of: Vec<u32>,
    /// Permuted CSR port prefix: `slot_offsets[p]` is the arena slot where
    /// the node at position `p` starts; length `n + 1`.
    slot_offsets: Vec<usize>,
    /// Chunk boundaries in position space; length `num_chunks + 1`,
    /// `bounds[0] == 0`, `bounds[num_chunks] == n`, monotone.
    bounds: Vec<usize>,
}

impl Partition {
    /// Builds a partition of `topo` into `num_chunks` chunks under `policy`
    /// (see the module docs).
    pub(crate) fn new(topo: &Topology, num_chunks: usize, policy: PartitionPolicy) -> Self {
        debug_assert!(num_chunks > 0, "a partition has at least one chunk");
        let n = topo.len();
        let second = topo.second_side();
        if num_chunks == 1 || second == n {
            let bounds = balanced_bounds((0..n).map(|u| topo.degree(u)), num_chunks);
            return Self::arranged(topo, Vec::new(), bounds);
        }
        let arrangement: Vec<u32> = match policy {
            PartitionPolicy::Contiguous => (0..n as u32).collect(),
            PartitionPolicy::Locality => breadth_first(topo),
        };
        let (first, rest): (Vec<u32>, Vec<u32>) = arrangement
            .into_iter()
            .partition(|&u| (u as usize) < second);
        let sides = [first, rest].map(|side| {
            let cuts = balanced_bounds(side.iter().map(|&u| topo.degree(u as usize)), num_chunks);
            (side, cuts)
        });
        let mut order = Vec::with_capacity(n);
        let mut bounds = Vec::with_capacity(num_chunks + 1);
        bounds.push(0);
        for c in 0..num_chunks {
            for (side, cuts) in &sides {
                order.extend_from_slice(&side[cuts[c]..cuts[c + 1]]);
            }
            bounds.push(order.len());
        }
        if order.iter().enumerate().all(|(p, &u)| p == u as usize) {
            order = Vec::new();
        }
        Self::arranged(topo, order, bounds)
    }

    /// Completes a partition from its arrangement (empty for the identity)
    /// and cuts: inverts the arrangement and lays out its slot prefix.
    fn arranged(topo: &Topology, order: Vec<u32>, bounds: Vec<usize>) -> Self {
        let n = topo.len();
        let mut pos_of = vec![0u32; if order.is_empty() { 0 } else { n }];
        for (p, &u) in order.iter().enumerate() {
            pos_of[u as usize] = p as u32;
        }
        let mut part = Partition {
            order,
            pos_of,
            slot_offsets: Vec::with_capacity(n + 1),
            bounds,
        };
        let mut slot = 0;
        part.slot_offsets.push(slot);
        for p in 0..n {
            slot += topo.degree(part.node_at(p));
            part.slot_offsets.push(slot);
        }
        part
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
        if self.order.is_empty() {
            pos
        } else {
            self.order[pos] as usize
        }
    }

    /// Arrangement position of original node `id`.
    pub(crate) fn position(&self, id: usize) -> usize {
        if self.pos_of.is_empty() {
            id
        } else {
            self.pos_of[id] as usize
        }
    }

    /// First arena slot of the node at position `pos` (permuted CSR prefix).
    pub(crate) fn slot_offset(&self, pos: usize) -> usize {
        self.slot_offsets[pos]
    }

    /// Moves `items`, one per node in id order, into arrangement order.
    pub(crate) fn to_positions<T>(&self, items: &mut [T]) {
        gather_in_place(items, &self.order);
    }

    /// Moves `items`, one per arrangement position, back into id order.
    pub(crate) fn to_ids<T>(&self, items: &mut [T]) {
        gather_in_place(items, &self.pos_of);
    }

    /// Whether the arrangement is the identity permutation.
    #[cfg(test)]
    pub(crate) fn is_identity(&self) -> bool {
        self.order.is_empty()
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

/// A deterministic breadth-first linear arrangement of `topo`: repeatedly
/// seed from the lowest still-unplaced node id and append unvisited
/// neighbours in port order. On the bipartite incidence this interleaves
/// each vertex with the hyperedges it belongs to.
fn breadth_first(topo: &Topology) -> Vec<u32> {
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
            for (_, v) in topo.neighbors(u) {
                if !placed[v] {
                    placed[v] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    order
}

/// Cuts a sequence of nodes, given by their degrees, into `num_chunks`
/// contiguous ranges balanced by port weight (`degree + 1` per node, so
/// isolated nodes still carry weight): boundary `i` is the first index
/// whose weight prefix reaches `i / num_chunks` of the total, so each
/// range is within one node's weight of an even share. Returns the
/// `num_chunks + 1` boundaries, from 0 to the sequence length.
fn balanced_bounds(degrees: impl Iterator<Item = usize>, num_chunks: usize) -> Vec<usize> {
    let mut prefix = vec![0usize];
    let mut total = 0;
    for degree in degrees {
        total += degree + 1;
        prefix.push(total);
    }
    (0..=num_chunks)
        .map(|i| prefix.partition_point(|&w| w < total * i / num_chunks))
        .collect()
}

/// Reorders `items` in place so that entry `i` becomes the old entry
/// `from[i]`, following each cycle of the permutation with swaps; an
/// empty `from` is the identity.
fn gather_in_place<T>(items: &mut [T], from: &[u32]) {
    if from.is_empty() {
        return;
    }
    debug_assert_eq!(items.len(), from.len());
    let mut done = vec![false; from.len()];
    for start in 0..from.len() {
        let mut at = start;
        while !done[at] {
            done[at] = true;
            let next = from[at] as usize;
            if next == start {
                break;
            }
            items.swap(at, next);
            at = next;
        }
    }
}

/// A small geometric coverage instance (200 points, 110 stations) as a
/// bipartite incidence: spatial clusters give the breadth-first order
/// something to find.
#[cfg(test)]
pub(crate) fn geometric_incidence() -> Topology {
    use dcover_hypergraph::generators::{coverage_instance, WeightDist};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let weights = WeightDist::Uniform { min: 1, max: 50 };
    let mut rng = StdRng::seed_from_u64(0xC0FE);
    let g = coverage_instance(200, 110, 0.12, 3, &weights, &mut rng)
        .system
        .to_hypergraph()
        .expect("coverage instances are valid");
    Topology::bipartite_incidence(&g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use dcover_hypergraph::from_edge_lists;
    use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const POLICIES: [PartitionPolicy; 2] = [PartitionPolicy::Contiguous, PartitionPolicy::Locality];

    /// Asserts that `part` places every node of `topo` exactly once and
    /// that its tables agree.
    fn assert_permutation(topo: &Topology, part: &Partition) {
        let n = topo.len();
        assert_eq!(part.len(), n);
        let mut seen = vec![false; n];
        for pos in 0..n {
            let id = part.node_at(pos);
            assert!(!seen[id], "node {id} placed twice");
            seen[id] = true;
            assert_eq!(part.position(id), pos);
        }
        assert!(seen.into_iter().all(|s| s), "a node was not placed");
        // The permuted slot prefix must sum degrees in order.
        assert_eq!(part.slot_offset(0), 0);
        for pos in 0..n {
            assert_eq!(
                part.slot_offset(pos + 1) - part.slot_offset(pos),
                topo.degree(part.node_at(pos))
            );
        }
        assert_eq!(part.slot_offset(n), topo.total_ports());
        let bounds = part.bounds();
        assert_eq!(bounds[0], 0);
        assert_eq!(bounds[part.num_chunks()], n);
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn contiguous_is_identity_with_monotone_covering_bounds() {
        let topo = builders::star(9);
        for chunks in 1..=6 {
            let part = Partition::new(&topo, chunks, PartitionPolicy::Contiguous);
            assert!(part.is_identity());
            assert_eq!(part.num_chunks(), chunks);
            assert_permutation(&topo, &part);
            for id in 0..topo.len() {
                assert_eq!(part.node_at(id), id);
                assert_eq!(part.position(id), id);
            }
        }
    }

    #[test]
    fn locality_order_is_a_permutation_with_consistent_tables() {
        let topo = geometric_incidence();
        for chunks in 1..=5 {
            let part = Partition::new(&topo, chunks, PartitionPolicy::Locality);
            assert_eq!(part.num_chunks(), chunks);
            assert_permutation(&topo, &part);
        }
    }

    /// Every chunk of a two-sided network holds a port-balanced share of
    /// each side, cut in id order under `Contiguous`; a one-chunk
    /// partition and every one-sided topology keep the identity
    /// arrangement.
    #[test]
    fn each_side_is_cut_into_port_balanced_ranges() {
        let uniform = random_uniform(
            &RandomUniform {
                n: 60,
                m: 90,
                rank: 3,
                weights: WeightDist::Uniform { min: 1, max: 9 },
            },
            &mut StdRng::seed_from_u64(25),
        );
        let fewer_vertices_than_chunks =
            from_edge_lists(1, &[&[0], &[0], &[0], &[0], &[0]]).unwrap();
        let edgeless = from_edge_lists(7, &[]).unwrap();
        for g in [uniform, fewer_vertices_than_chunks, edgeless] {
            let topo = Topology::bipartite_incidence(&g);
            let side = |u: usize| usize::from(u >= g.n());
            let weight = |u: usize| topo.degree(u) + 1;
            let (mut total, mut heaviest) = ([0; 2], [0; 2]);
            for u in 0..topo.len() {
                total[side(u)] += weight(u);
                heaviest[side(u)] = heaviest[side(u)].max(weight(u));
            }
            for policy in POLICIES {
                assert!(Partition::new(&topo, 1, policy).is_identity());
                for k in [2, 3, 4] {
                    let part = Partition::new(&topo, k, policy);
                    assert_permutation(&topo, &part);
                    let bounds = part.bounds();
                    for c in 0..k {
                        let mut share = [0; 2];
                        let mut last = [None; 2];
                        for pos in bounds[c]..bounds[c + 1] {
                            let u = part.node_at(pos);
                            share[side(u)] += weight(u);
                            if policy == PartitionPolicy::Contiguous {
                                assert!(last[side(u)] < Some(u), "{policy}: id order broken");
                                last[side(u)] = Some(u);
                            }
                        }
                        for s in 0..2 {
                            assert!(
                                (share[s] * k).abs_diff(total[s]) <= heaviest[s] * k,
                                "{policy}, {k} chunks: chunk {c} holds weight {} of side {s} \
                                 (total {}, heaviest node {})",
                                share[s],
                                total[s],
                                heaviest[s]
                            );
                        }
                    }
                }
            }
        }
        let one_sided = [
            builders::grid(5, 7),
            builders::star(9),
            builders::complete(6),
            Topology::from_links(5, &[(0, 3), (1, 4)]),
        ];
        for topo in &one_sided {
            for policy in POLICIES {
                for k in 1..=4 {
                    assert!(Partition::new(topo, k, policy).is_identity());
                }
            }
        }
    }

    #[test]
    fn locality_cuts_no_more_links_than_contiguous_on_bipartite_incidence() {
        // Both policies cut each side into balanced ranges. On a geometric
        // instance the breadth-first order puts a vertex range beside the
        // hyperedges it touches, so it severs fewer links than id order.
        let topo = geometric_incidence();
        for chunks in [2, 4, 8] {
            let cont = Partition::new(&topo, chunks, PartitionPolicy::Contiguous).cut_links(&topo);
            let loc = Partition::new(&topo, chunks, PartitionPolicy::Locality).cut_links(&topo);
            assert!(
                loc <= cont,
                "locality cut {loc} worse than contiguous {cont} at {chunks} chunks"
            );
            assert!(
                loc < cont,
                "expected a strictly smaller cut on the geometric incidence ({loc} vs {cont})"
            );
        }
    }

    #[test]
    fn policy_round_trips_through_strings() {
        for policy in POLICIES {
            let s = policy.to_string();
            assert_eq!(s.parse::<PartitionPolicy>().unwrap(), policy);
        }
        assert!("metis".parse::<PartitionPolicy>().is_err());
        assert_eq!(PartitionPolicy::default(), PartitionPolicy::Contiguous);
    }

    #[test]
    fn disconnected_components_are_all_placed() {
        // Two disjoint hyperedges plus an isolated vertex.
        let g = from_edge_lists(5, &[&[0, 3], &[1, 4]]).unwrap();
        let topo = Topology::bipartite_incidence(&g);
        for chunks in 2..=3 {
            let part = Partition::new(&topo, chunks, PartitionPolicy::Locality);
            assert_permutation(&topo, &part);
        }
    }
}
