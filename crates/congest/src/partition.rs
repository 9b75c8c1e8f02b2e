//! Chunk placement for a multi-chunk simulator.
//!
//! The parallel engine splits the node set into per-worker chunks and cuts
//! the flat mailbox arena along the same boundaries.
//!
//! # Every chunk holds a share of each side
//!
//! The paper's communication network is two-sided: the hypergraph
//! vertices (nodes `0..n`) and the hyperedges (nodes `n..n+m`). MWHVC's
//! CONGEST schedule steps one side at a time: vertices in the V1/V2
//! rounds, hyperedges in E1/E2. A cut of the id order would give one
//! chunk every vertex and the next chunk only hyperedges, so one worker
//! would idle in every round. So each side is cut separately, in id
//! order, into `k` ranges, and chunk `c` is range `c` of the vertex side
//! followed by range `c` of the hyperedge side. Whichever side steps,
//! every worker holds its share. A one-sided topology
//! ([`Topology::from_links`]) has an empty hyperedge side, so its chunks
//! are plain ranges of the id order, and one chunk is always the whole id
//! order.
//!
//! Each side's ranges are balanced by **port weight** (`degree + 1` per
//! node, so isolated nodes still count). A partition stores only each
//! side's `k + 1` cut points: a node's chunk, its index there and its
//! first chunk-local slot are arithmetic on the cuts and on the
//! topology's CSR offsets.
//!
//! Placement is internal to the engine: node programs still observe their
//! own ids (`Ctx::node`), results come back in id order, and the
//! determinism contract is unchanged. The placement of a node only decides
//! *which worker* steps it, never *what it observes*.

use std::ops::Range;

use crate::topology::Topology;

/// How a multi-chunk simulator assigns nodes to chunks.
///
/// There is one placement: each side of the network cut in id order into
/// port-balanced ranges, one per chunk. The type stays only because the
/// benchmark harness (`perfbench/`) passes `MwhvcConfig::partition()` to
/// [`Simulator::with_partition`](crate::Simulator::with_partition); a
/// change to the benchmark can drop it.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum PartitionPolicy {
    /// Cut each side of the network in node-id order.
    #[default]
    Contiguous,
}

/// A chunking of a topology: each side's port-balanced cuts.
#[derive(Clone, Debug)]
pub(crate) struct Partition {
    /// `cuts[s][c]..cuts[s][c + 1]` are the node ids of side `s` in chunk
    /// `c`: side 0 is the vertices, side 1 the hyperedges (empty on a
    /// one-sided topology). Each holds `num_chunks + 1` monotone cuts, and
    /// side 1 starts where side 0 ends.
    cuts: [Vec<usize>; 2],
}

impl Partition {
    /// Cuts each side of `topo` into `num_chunks` port-balanced ranges
    /// (see the module docs).
    pub(crate) fn new(topo: &Topology, num_chunks: usize) -> Self {
        debug_assert!(num_chunks > 0, "a partition has at least one chunk");
        let second = topo.second_side();
        Self {
            cuts: [0..second, second..topo.len()].map(|side| balanced_cuts(topo, side, num_chunks)),
        }
    }

    /// Number of chunks.
    pub(crate) fn num_chunks(&self) -> usize {
        self.cuts[0].len() - 1
    }

    /// The node ids of chunk `c`, in placement order: its vertex range,
    /// then its hyperedge range.
    pub(crate) fn ranges(&self, c: usize) -> [Range<usize>; 2] {
        self.cuts.each_ref().map(|cuts| cuts[c]..cuts[c + 1])
    }

    /// The chunk holding node `id`, and `id`'s index among that chunk's
    /// nodes.
    pub(crate) fn index_of(&self, id: usize) -> (usize, usize) {
        self.locate(id, |nodes| nodes.len())
    }

    /// The chunk holding node `id`, and the chunk-local arena slot of
    /// `id`'s port 0.
    pub(crate) fn first_slot_of(&self, topo: &Topology, id: usize) -> (usize, usize) {
        self.locate(id, |nodes| topo.slot_span(nodes).len())
    }

    /// The chunk holding node `id`, and the `size` of the chunk's nodes
    /// placed before it.
    fn locate(&self, id: usize, size: impl Fn(Range<usize>) -> usize) -> (usize, usize) {
        let side = usize::from(id >= self.cuts[1][0]);
        let cuts = &self.cuts[side];
        let c = cuts[1..cuts.len() - 1].partition_point(|&cut| cut <= id);
        let [vertices, edges] = self.ranges(c);
        let before = if side == 0 {
            size(vertices.start..id)
        } else {
            size(vertices) + size(edges.start..id)
        };
        (c, before)
    }
}

/// Cuts the nodes `side` of `topo` into `num_chunks` contiguous ranges
/// balanced by port weight (`degree + 1` per node, so isolated nodes still
/// carry weight): cut `i` is the first node at which the weight of the
/// nodes before it reaches `i / num_chunks` of the total, so each range is
/// within one node's weight of an even share. The weight before a node is
/// its CSR offset plus its index, so each cut is a binary search. Returns
/// the `num_chunks + 1` cuts, from `side.start` to `side.end`.
fn balanced_cuts(topo: &Topology, side: Range<usize>, num_chunks: usize) -> Vec<usize> {
    let weight_before = |u: usize| topo.slot_span(side.start..u).len() + (u - side.start);
    let total = weight_before(side.end);
    (0..=num_chunks)
        .map(|i| {
            let share = total * i / num_chunks;
            let (mut lo, mut hi) = (side.start, side.end);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if weight_before(mid) < share {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use dcover_hypergraph::from_edge_lists;
    use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The node ids of every chunk of `part`, in placement order.
    fn placement(part: &Partition) -> Vec<Vec<usize>> {
        (0..part.num_chunks())
            .map(|c| part.ranges(c).into_iter().flatten().collect())
            .collect()
    }

    /// Asserts that `part` places every node of `topo` exactly once, each
    /// side's ranges in id order, and that `index_of` and `first_slot_of`
    /// agree with the placement.
    fn assert_placement(topo: &Topology, part: &Partition) {
        let mut seen = vec![false; topo.len()];
        for (c, nodes) in placement(part).iter().enumerate() {
            let mut slot = 0;
            for (index, &u) in nodes.iter().enumerate() {
                assert!(!seen[u], "node {u} placed twice");
                seen[u] = true;
                assert_eq!(part.index_of(u), (c, index));
                assert_eq!(part.first_slot_of(topo, u), (c, slot));
                slot += topo.degree(u);
            }
        }
        assert!(seen.into_iter().all(|s| s), "a node was not placed");
        for cuts in &part.cuts {
            assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "cuts {cuts:?}");
        }
        assert_eq!(part.cuts[0][0], 0);
        assert_eq!(part.cuts[0].last(), part.cuts[1].first());
        assert_eq!(part.cuts[1].last(), Some(&topo.len()));
    }

    #[test]
    fn contiguous_is_identity_with_monotone_covering_bounds() {
        let topo = builders::star(9);
        for chunks in 1..=6 {
            let part = Partition::new(&topo, chunks);
            assert_eq!(part.num_chunks(), chunks);
            assert_placement(&topo, &part);
            let order: Vec<usize> = placement(&part).into_iter().flatten().collect();
            assert_eq!(order, (0..topo.len()).collect::<Vec<_>>());
        }
    }

    /// Every chunk of a two-sided network holds a port-balanced share of
    /// each side, cut in id order; one chunk and every one-sided topology
    /// keep the id order.
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
            let one = placement(&Partition::new(&topo, 1));
            assert_eq!(one, [(0..topo.len()).collect::<Vec<_>>()]);
            for k in [2, 3, 4] {
                let part = Partition::new(&topo, k);
                assert_placement(&topo, &part);
                for (c, nodes) in placement(&part).iter().enumerate() {
                    let mut share = [0; 2];
                    for &u in nodes {
                        share[side(u)] += weight(u);
                    }
                    for s in 0..2 {
                        assert!(
                            (share[s] * k).abs_diff(total[s]) <= heaviest[s] * k,
                            "{k} chunks: chunk {c} holds weight {} of side {s} \
                             (total {}, heaviest node {})",
                            share[s],
                            total[s],
                            heaviest[s]
                        );
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
            for k in 1..=4 {
                let part = Partition::new(topo, k);
                assert_placement(topo, &part);
                let order: Vec<usize> = placement(&part).into_iter().flatten().collect();
                assert_eq!(order, (0..topo.len()).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn disconnected_components_are_all_placed() {
        // Two disjoint hyperedges plus an isolated vertex.
        let g = from_edge_lists(5, &[&[0, 3], &[1, 4]]).unwrap();
        let topo = Topology::bipartite_incidence(&g);
        for chunks in 2..=3 {
            assert_placement(&topo, &Partition::new(&topo, chunks));
        }
    }
}
