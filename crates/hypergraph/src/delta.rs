//! Instance revisions: typed edge/weight deltas between hypergraphs.
//!
//! Serving workloads rarely present unrelated instances — they present
//! *revisions*: the same hypergraph with a few hyperedges inserted or
//! removed and a few weights adjusted. [`InstanceDelta`] describes such a
//! revision; [`InstanceDelta::apply`] produces the revised [`Hypergraph`]
//! **plus the edge-id mapping between the two revisions**
//! ([`DeltaOutcome::predecessor`] / [`DeltaOutcome::survivor`]), which is
//! exactly what a warm-started solver needs to carry a dual edge packing
//! from one revision to the next (the paper's duals are per-edge, so the
//! mapping says which duals survive).
//!
//! The vertex set is fixed across a delta: covering instances identify
//! vertices with physical agents (paper §2), and a vanished agent is
//! modelled by removing its edges, not its id.
//!
//! # Cost
//!
//! `apply` splices the revision into the base's CSR arrays rather than
//! rebuilding them. Surviving edges are copied, not re-validated: their
//! member lists move as contiguous runs with shifted offsets, and each
//! vertex's incident list is streamed through the old-to-new edge ids.
//! Only the inserted edges are validated and de-duplicated. A revision
//! still reads the whole base once, but it does no per-edge validation
//! and no scatter.
//!
//! # Edge ordering
//!
//! `apply` keeps surviving edges in their original relative order and
//! appends inserted edges after them. Edge *identity* is tracked exactly
//! through the mapping; edge *indices* are compacted, so a delta followed
//! by its [`inverse`](InstanceDelta::inverse) restores the same set of
//! edges (weights, members, multiplicities) but may permute edge indices.
//!
//! # Examples
//!
//! ```
//! use dcover_hypergraph::{from_weighted_edge_lists, EdgeId, InstanceDelta, VertexId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = from_weighted_edge_lists(&[5, 1, 4], &[&[0, 1], &[1, 2]])?;
//! let delta = InstanceDelta {
//!     remove_edges: vec![EdgeId::new(0)],
//!     add_edges: vec![vec![VertexId::new(0), VertexId::new(2)]],
//!     set_weights: vec![(VertexId::new(1), 9)],
//! };
//! let out = delta.apply(&g)?;
//! assert_eq!(out.graph.m(), 2);
//! assert_eq!(out.graph.weight(VertexId::new(1)), 9);
//! // Old edge 1 survived as new edge 0; new edge 1 is freshly inserted.
//! assert_eq!(out.predecessor, vec![Some(EdgeId::new(1)), None]);
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;

use crate::builder::push_members;
use crate::error::BuildError;
use crate::hypergraph::Hypergraph;
use crate::ids::{EdgeId, VertexId};

/// A revision of a hypergraph instance: hyperedges to remove, hyperedges
/// to insert, and vertex weights to change. The vertex set is fixed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InstanceDelta {
    /// Edge ids (of the *base* instance) to remove. Must be in range and
    /// free of duplicates.
    pub remove_edges: Vec<EdgeId>,
    /// Member lists of hyperedges to insert (validated like
    /// [`HypergraphBuilder::add_edge`](crate::HypergraphBuilder::add_edge):
    /// non-empty after deduplication, vertex ids in range).
    pub add_edges: Vec<Vec<VertexId>>,
    /// `(vertex, new_weight)` pairs. Vertices must be in range and listed
    /// at most once; weights must be positive.
    pub set_weights: Vec<(VertexId, u64)>,
}

/// The result of applying an [`InstanceDelta`]: the revised hypergraph
/// plus the edge-id mapping in both directions.
#[derive(Clone, Debug)]
pub struct DeltaOutcome {
    /// The revised instance.
    pub graph: Hypergraph,
    /// For every edge of the revised instance, the edge of the base
    /// instance it survived from (`None` for freshly inserted edges).
    pub predecessor: Vec<Option<EdgeId>>,
    /// For every edge of the base instance, the id it survived as in the
    /// revised instance (`None` for removed edges).
    pub survivor: Vec<Option<EdgeId>>,
}

/// Why a delta could not be applied.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeltaError {
    /// A removal referenced an edge id outside the base instance.
    UnknownEdge {
        /// The out-of-range edge index.
        edge: usize,
        /// Number of edges in the base instance.
        m: usize,
    },
    /// The same edge id appeared twice in `remove_edges`.
    DuplicateRemoval {
        /// The repeated edge index.
        edge: usize,
    },
    /// A weight change referenced a vertex outside the base instance.
    UnknownVertex {
        /// The out-of-range vertex index.
        vertex: usize,
        /// Number of vertices in the base instance.
        n: usize,
    },
    /// The same vertex appeared twice in `set_weights`.
    DuplicateWeight {
        /// The repeated vertex index.
        vertex: usize,
    },
    /// A weight change set a weight to zero (weights are `w : V → N+`).
    ZeroWeight {
        /// The offending vertex index.
        vertex: usize,
    },
    /// An inserted edge failed hypergraph validation (empty after
    /// deduplication, or a member out of range).
    Invalid(BuildError),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::UnknownEdge { edge, m } => {
                write!(f, "delta removes edge {edge} but the base has {m} edges")
            }
            DeltaError::DuplicateRemoval { edge } => {
                write!(f, "delta removes edge {edge} twice")
            }
            DeltaError::UnknownVertex { vertex, n } => write!(
                f,
                "delta re-weights vertex {vertex} but the base has {n} vertices"
            ),
            DeltaError::DuplicateWeight { vertex } => {
                write!(f, "delta re-weights vertex {vertex} twice")
            }
            DeltaError::ZeroWeight { vertex } => write!(
                f,
                "delta sets vertex {vertex} to weight zero; weights must be positive"
            ),
            DeltaError::Invalid(e) => write!(f, "inserted edge is invalid: {e}"),
        }
    }
}

impl Error for DeltaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DeltaError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuildError> for DeltaError {
    fn from(e: BuildError) -> Self {
        DeltaError::Invalid(e)
    }
}

impl InstanceDelta {
    /// The delta that changes nothing.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the delta changes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remove_edges.is_empty() && self.add_edges.is_empty() && self.set_weights.is_empty()
    }

    /// Applies the delta to `base`, producing the revised instance and the
    /// edge-id mapping between the revisions.
    ///
    /// # Errors
    ///
    /// Returns a [`DeltaError`] if a removal or weight change references
    /// ids outside `base`, a removal or weight change repeats an id, a
    /// weight is zero, or an inserted edge fails validation. On error the
    /// base instance is untouched (it always is — `apply` never mutates).
    pub fn apply(&self, base: &Hypergraph) -> Result<DeltaOutcome, DeltaError> {
        let (removed, weights) = self.checked(base)?;
        let (n, m) = (base.n(), base.m());
        let survivors = m - self.remove_edges.len();
        let edges = survivors + self.add_edges.len();
        let (old_offsets, old_members) = base.edge_csr();
        let removed_members: usize = self.remove_edges.iter().map(|&e| base.edge_size(e)).sum();
        let inserted_members: usize = self.add_edges.iter().map(Vec::len).sum();

        // Edge side: each run of consecutive survivors is one block copy of
        // its member lists, its offsets shifted down by what the removals
        // before it freed.
        let mut edge_offsets = Vec::with_capacity(edges + 1);
        let mut edge_vertices =
            Vec::with_capacity(old_members.len() - removed_members + inserted_members);
        let mut predecessor = Vec::with_capacity(edges);
        let mut survivor = vec![None; m];
        edge_offsets.push(0u32);
        let mut run = 0;
        for e in 0..=m {
            if e < m && !removed[e] {
                survivor[e] = Some(EdgeId::new(predecessor.len()));
                predecessor.push(Some(EdgeId::new(e)));
                continue;
            }
            let (lo, hi) = (old_offsets[run], old_offsets[e]);
            // Removals only free room, so a run never moves up.
            let shift = lo - edge_vertices.len() as u32;
            edge_vertices.extend_from_slice(&old_members[lo as usize..hi as usize]);
            edge_offsets.extend(old_offsets[run + 1..=e].iter().map(|&o| o - shift));
            run = e + 1;
        }
        // Inserted edges: validated and de-duplicated, with ids above
        // every survivor's.
        let mut inserted = Vec::with_capacity(inserted_members);
        for (i, members) in self.add_edges.iter().enumerate() {
            let start = edge_vertices.len();
            let end = push_members(
                &mut edge_vertices,
                members.iter().copied(),
                n,
                survivors + i,
            )?;
            edge_offsets.push(end);
            predecessor.push(None);
            let e = EdgeId::new(survivors + i);
            inserted.extend(edge_vertices[start..].iter().map(|&v| (v, e)));
        }
        // A stable sort keeps each vertex's inserted edges ascending.
        inserted.sort_by_key(|&(v, _)| v);

        // Vertex side: each incident list streamed through the old-to-new
        // edge ids (survivors keep their order), then the vertex's inserted
        // edges appended, so every list stays ascending.
        let (old_offsets, old_incident) = base.vertex_csr();
        let mut vertex_offsets = Vec::with_capacity(n + 1);
        let mut vertex_edges = Vec::with_capacity(edge_vertices.len());
        vertex_offsets.push(0u32);
        let mut next = inserted.iter().peekable();
        for (v, list) in old_offsets.windows(2).enumerate() {
            let old = &old_incident[list[0] as usize..list[1] as usize];
            vertex_edges.extend(old.iter().filter_map(|e| survivor[e.index()]));
            while let Some(&(_, e)) = next.next_if(|(u, _)| u.index() == v) {
                vertex_edges.push(e);
            }
            // `push_members` bounds the incidences below 2^32.
            vertex_offsets.push(vertex_edges.len() as u32);
        }

        let graph = Hypergraph::from_csr_parts(
            weights,
            edge_offsets,
            edge_vertices,
            vertex_offsets,
            vertex_edges,
        );
        Ok(DeltaOutcome {
            graph,
            predecessor,
            survivor,
        })
    }

    /// Checks the removals and weight changes against `base` and returns
    /// the removed-edge flags and the revised weights.
    fn checked(&self, base: &Hypergraph) -> Result<(Vec<bool>, Vec<u64>), DeltaError> {
        let n = base.n();
        let m = base.m();

        let mut removed = vec![false; m];
        for &e in &self.remove_edges {
            if e.index() >= m {
                return Err(DeltaError::UnknownEdge { edge: e.index(), m });
            }
            if removed[e.index()] {
                return Err(DeltaError::DuplicateRemoval { edge: e.index() });
            }
            removed[e.index()] = true;
        }

        let mut weights: Vec<u64> = base.weights().to_vec();
        let mut reweighted = vec![false; n];
        for &(v, w) in &self.set_weights {
            if v.index() >= n {
                return Err(DeltaError::UnknownVertex {
                    vertex: v.index(),
                    n,
                });
            }
            if reweighted[v.index()] {
                return Err(DeltaError::DuplicateWeight { vertex: v.index() });
            }
            if w == 0 {
                return Err(DeltaError::ZeroWeight { vertex: v.index() });
            }
            reweighted[v.index()] = true;
            weights[v.index()] = w;
        }
        Ok((removed, weights))
    }

    /// [`apply`](Self::apply) by rebuilding: every surviving edge re-added
    /// through [`HypergraphBuilder`](crate::HypergraphBuilder), then both
    /// CSR directions rebuilt. The oracle the splice is tested against.
    #[cfg(test)]
    fn apply_rebuilt(&self, base: &Hypergraph) -> Result<DeltaOutcome, DeltaError> {
        let (removed, weights) = self.checked(base)?;
        let m = base.m();
        let mut b = crate::HypergraphBuilder::with_capacity(base.n(), m);
        for &w in &weights {
            b.add_vertex(w);
        }
        let mut predecessor = Vec::with_capacity(m);
        let mut survivor = vec![None; m];
        for e in base.edges() {
            if removed[e.index()] {
                continue;
            }
            let new_id = b.add_edge(base.edge(e).iter().copied())?;
            survivor[e.index()] = Some(new_id);
            predecessor.push(Some(e));
        }
        for members in &self.add_edges {
            b.add_edge(members.iter().copied())?;
            predecessor.push(None);
        }
        let graph = b.build()?;
        Ok(DeltaOutcome {
            graph,
            predecessor,
            survivor,
        })
    }

    /// The delta that undoes this one: applied to `outcome.graph`, it
    /// removes the inserted edges, re-inserts the removed ones (with their
    /// original member lists from `base`), and restores the original
    /// weights. The round trip restores the same *set* of hyperedges; see
    /// the module docs on edge ordering.
    ///
    /// # Panics
    ///
    /// Panics if `base`/`outcome` do not belong to this delta (e.g. a
    /// removed edge id is out of range for `base`).
    #[must_use]
    pub fn inverse(&self, base: &Hypergraph, outcome: &DeltaOutcome) -> InstanceDelta {
        let survivors = outcome.graph.m() - self.add_edges.len();
        InstanceDelta {
            remove_edges: (survivors..outcome.graph.m()).map(EdgeId::new).collect(),
            add_edges: self
                .remove_edges
                .iter()
                .map(|&e| base.edge(e).to_vec())
                .collect(),
            set_weights: self
                .set_weights
                .iter()
                .map(|&(v, _)| (v, base.weight(v)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::from_weighted_edge_lists;
    use crate::generators::{
        calibrated_degree, clique, complete_f_partite, coverage_instance, cycle, hyper_star, path,
        planted_cover, preferential_attachment, random_mixed_rank, random_uniform, star, sunflower,
        RandomUniform, WeightDist,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn base() -> Hypergraph {
        from_weighted_edge_lists(&[5, 1, 4, 7], &[&[0, 1], &[1, 2], &[2, 3], &[0, 3]]).unwrap()
    }

    /// Applies `delta` to `g` by splice and by rebuild and asserts they
    /// agree: the graph by payload (weights, both CSR directions, rank
    /// and `Δ`), both mappings, or the error. Returns the splice's.
    fn spliced(
        g: &Hypergraph,
        delta: &InstanceDelta,
        what: &str,
    ) -> Result<DeltaOutcome, DeltaError> {
        let splice = delta.apply(g);
        match (&splice, delta.apply_rebuilt(g)) {
            (Ok(s), Ok(r)) => {
                assert_eq!(s.graph, r.graph, "{what}: graph");
                assert_eq!(s.predecessor, r.predecessor, "{what}: predecessor");
                assert_eq!(s.survivor, r.survivor, "{what}: survivor");
            }
            (Err(s), Err(r)) => assert_eq!(*s, r, "{what}: error"),
            (s, r) => panic!("{what}: the splice gave {s:?}, the rebuild {r:?}"),
        }
        splice
    }

    /// The generator families of `tests/warm_start.rs`, uniform-400
    /// included.
    fn families(rng: &mut StdRng) -> Vec<(&'static str, Hypergraph)> {
        let w = WeightDist::Uniform { min: 1, max: 30 };
        let uniform = |n, m, max, rng: &mut StdRng| {
            let weights = WeightDist::Uniform { min: 1, max };
            random_uniform(
                &RandomUniform {
                    n,
                    m,
                    rank: 3,
                    weights,
                },
                rng,
            )
        };
        let geometric = coverage_instance(40, 12, 0.35, 4, &w, rng)
            .system
            .to_hypergraph()
            .expect("coverable instance");
        vec![
            ("uniform", uniform(40, 100, 30, rng)),
            ("mixed", random_mixed_rank(40, 90, 2, 4, &w, rng)),
            ("planted", planted_cover(40, 80, 3, 6, 9, rng).0),
            ("preferential", preferential_attachment(35, 80, 3, &w, rng)),
            ("calibrated", calibrated_degree(3, 6, 3, &w, rng)),
            ("geometric", geometric),
            ("star", star(12, 5, 2)),
            ("clique", clique(8)),
            ("path", path(12)),
            ("cycle", cycle(12)),
            ("sunflower", sunflower(6, 2, 3, 4, 1)),
            ("f-partite", complete_f_partite(3, 3)),
            ("hyper-star", hyper_star(3, 8, 7)),
            (
                "uniform-400",
                uniform(400, 1100, 100, &mut StdRng::seed_from_u64(0x3A97)),
            ),
        ]
    }

    /// A random revision of `g`: each edge removed with probability
    /// `rate` percent, up to three edges inserted with members drawn with
    /// repetition (so some de-duplicate), up to three vertices re-weighted.
    fn random_delta(g: &Hypergraph, rate: u32, rng: &mut StdRng) -> InstanceDelta {
        let n = g.n();
        let remove_edges = g
            .edges()
            .filter(|_| rng.gen_range(0u32..100) < rate)
            .collect();
        let size = g.rank() as usize + 1;
        let add_edges = (0..rng.gen_range(0usize..4))
            .map(|_| {
                (0..rng.gen_range(1..=size))
                    .map(|_| VertexId::new(rng.gen_range(0..n)))
                    .collect()
            })
            .collect();
        let mut reweighted = vec![false; n];
        let mut set_weights = Vec::new();
        for _ in 0..rng.gen_range(0usize..4) {
            let v = rng.gen_range(0..n);
            if !reweighted[v] {
                reweighted[v] = true;
                set_weights.push((VertexId::new(v), rng.gen_range(1u64..100)));
            }
        }
        InstanceDelta {
            remove_edges,
            add_edges,
            set_weights,
        }
    }

    #[test]
    fn the_splice_equals_the_rebuild_on_random_deltas_over_every_family() {
        let mut rng = StdRng::seed_from_u64(0x5_711CE);
        for (family, g) in families(&mut rng) {
            for rate in [0, 1, 10, 50, 90, 100] {
                // A short chain, so later deltas apply to spliced graphs.
                let mut g = g.clone();
                for step in 0..4 {
                    let delta = random_delta(&g, rate, &mut rng);
                    let what = format!("{family} rate {rate} step {step}");
                    g = spliced(&g, &delta, &what)
                        .expect("random deltas are valid")
                        .graph;
                }
            }
        }
    }

    #[test]
    fn removing_every_edge_leaves_rank_and_degree_zero() {
        let g = base();
        let delta = InstanceDelta {
            remove_edges: [2, 0, 3, 1].map(EdgeId::new).to_vec(),
            ..InstanceDelta::empty()
        };
        let out = spliced(&g, &delta, "every edge removed").unwrap();
        assert_eq!(
            (out.graph.m(), out.graph.rank(), out.graph.max_degree()),
            (0, 0, 0)
        );
        assert_eq!(out.graph.incidence_size(), 0);
        assert!(out.predecessor.is_empty());
        assert_eq!(out.survivor, vec![None; 4]);
    }

    #[test]
    fn removing_the_only_max_rank_edges_lowers_the_rank() {
        let g = from_weighted_edge_lists(
            &[1, 2, 3, 4],
            &[&[0, 1], &[0, 1, 2], &[2, 3], &[1, 2, 3], &[3, 0]],
        )
        .unwrap();
        let delta = InstanceDelta {
            remove_edges: vec![EdgeId::new(3), EdgeId::new(1)],
            ..InstanceDelta::empty()
        };
        let out = spliced(&g, &delta, "max-rank edges removed").unwrap();
        assert_eq!((g.rank(), out.graph.rank()), (3, 2));
        assert_eq!((g.max_degree(), out.graph.max_degree()), (3, 2));
    }

    #[test]
    fn an_edge_inserted_on_an_isolated_vertex_starts_its_list() {
        let g = from_weighted_edge_lists(&[1, 1, 1, 1], &[&[0, 1], &[1, 2]]).unwrap();
        assert_eq!(g.degree(VertexId::new(3)), 0);
        let delta = InstanceDelta {
            remove_edges: vec![EdgeId::new(0)],
            add_edges: vec![
                vec![VertexId::new(3)],
                vec![VertexId::new(1), VertexId::new(3)],
            ],
            ..InstanceDelta::empty()
        };
        let out = spliced(&g, &delta, "isolated vertex").unwrap();
        let incident = |v| out.graph.incident_edges(VertexId::new(v)).to_vec();
        assert_eq!(incident(3), vec![EdgeId::new(1), EdgeId::new(2)]);
        assert_eq!(incident(1), vec![EdgeId::new(0), EdgeId::new(2)]);
        assert!(incident(0).is_empty());
    }

    #[test]
    fn an_inserted_edge_keeps_the_first_occurrence_of_each_member() {
        let g = base();
        let members = [2, 0, 2, 0, 1, 2].map(VertexId::new).to_vec();
        let delta = InstanceDelta {
            add_edges: vec![members],
            ..InstanceDelta::empty()
        };
        let out = spliced(&g, &delta, "repeated members").unwrap();
        let e = EdgeId::new(4);
        assert_eq!(out.graph.edge(e), &[2, 0, 1].map(VertexId::new));
        assert_eq!(out.graph.rank(), 3);
        assert_eq!(out.graph.incidence_size(), g.incidence_size() + 3);
    }

    #[test]
    fn the_empty_delta_splices_an_equal_instance() {
        let g = base();
        let out = spliced(&g, &InstanceDelta::empty(), "empty delta").unwrap();
        assert_eq!(out.graph, g);
    }

    #[test]
    fn the_splice_reports_every_error_as_the_rebuild_does() {
        let g = base();
        let v = VertexId::new;
        let e = EdgeId::new;
        let fine = vec![v(0), v(1)];
        let cases = [
            (
                vec![e(4)],
                vec![],
                vec![],
                DeltaError::UnknownEdge { edge: 4, m: 4 },
            ),
            (
                vec![e(1), e(2), e(1)],
                vec![],
                vec![],
                DeltaError::DuplicateRemoval { edge: 1 },
            ),
            (
                vec![],
                vec![],
                vec![(v(4), 1)],
                DeltaError::UnknownVertex { vertex: 4, n: 4 },
            ),
            (
                vec![],
                vec![],
                vec![(v(2), 1), (v(2), 3)],
                DeltaError::DuplicateWeight { vertex: 2 },
            ),
            (
                vec![],
                vec![],
                vec![(v(3), 0)],
                DeltaError::ZeroWeight { vertex: 3 },
            ),
            // A bad inserted edge is named by the id it would get: m' + i.
            (
                vec![e(0)],
                vec![fine.clone(), vec![v(1), v(9), v(7)]],
                vec![],
                DeltaError::Invalid(BuildError::UnknownVertex {
                    edge: 4,
                    vertex: 9,
                    n: 4,
                }),
            ),
            (
                vec![e(3), e(0)],
                vec![fine.clone(), fine.clone(), vec![]],
                vec![],
                DeltaError::Invalid(BuildError::EmptyEdge { edge: 4 }),
            ),
            // Removals are checked before weights, weights before inserted
            // edges.
            (
                vec![e(9)],
                vec![vec![]],
                vec![(v(9), 0)],
                DeltaError::UnknownEdge { edge: 9, m: 4 },
            ),
            (
                vec![],
                vec![vec![v(9)]],
                vec![(v(1), 0)],
                DeltaError::ZeroWeight { vertex: 1 },
            ),
        ];
        for (remove_edges, add_edges, set_weights, want) in cases {
            let delta = InstanceDelta {
                remove_edges,
                add_edges,
                set_weights,
            };
            let got = spliced(&g, &delta, &format!("{want:?}")).unwrap_err();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn empty_delta_is_identity_with_identity_mapping() {
        let g = base();
        let out = InstanceDelta::empty().apply(&g).unwrap();
        assert!(InstanceDelta::empty().is_empty());
        assert_eq!(out.graph, g);
        for e in g.edges() {
            assert_eq!(out.predecessor[e.index()], Some(e));
            assert_eq!(out.survivor[e.index()], Some(e));
        }
    }

    #[test]
    fn apply_removes_inserts_and_reweights() {
        let g = base();
        let delta = InstanceDelta {
            remove_edges: vec![EdgeId::new(1), EdgeId::new(3)],
            add_edges: vec![vec![VertexId::new(1), VertexId::new(3)]],
            set_weights: vec![(VertexId::new(0), 2)],
        };
        let out = delta.apply(&g).unwrap();
        assert_eq!(out.graph.m(), 3);
        assert_eq!(out.graph.weight(VertexId::new(0)), 2);
        assert_eq!(
            out.predecessor,
            vec![Some(EdgeId::new(0)), Some(EdgeId::new(2)), None]
        );
        assert_eq!(
            out.survivor,
            vec![Some(EdgeId::new(0)), None, Some(EdgeId::new(1)), None]
        );
        // Surviving edges keep their member lists.
        assert_eq!(out.graph.edge(EdgeId::new(1)), g.edge(EdgeId::new(2)));
    }

    #[test]
    fn validation_errors() {
        let g = base();
        let bad = InstanceDelta {
            remove_edges: vec![EdgeId::new(9)],
            ..InstanceDelta::empty()
        };
        assert_eq!(
            bad.apply(&g).unwrap_err(),
            DeltaError::UnknownEdge { edge: 9, m: 4 }
        );
        let bad = InstanceDelta {
            remove_edges: vec![EdgeId::new(1), EdgeId::new(1)],
            ..InstanceDelta::empty()
        };
        assert_eq!(
            bad.apply(&g).unwrap_err(),
            DeltaError::DuplicateRemoval { edge: 1 }
        );
        let bad = InstanceDelta {
            set_weights: vec![(VertexId::new(9), 1)],
            ..InstanceDelta::empty()
        };
        assert_eq!(
            bad.apply(&g).unwrap_err(),
            DeltaError::UnknownVertex { vertex: 9, n: 4 }
        );
        let bad = InstanceDelta {
            set_weights: vec![(VertexId::new(1), 2), (VertexId::new(1), 3)],
            ..InstanceDelta::empty()
        };
        assert_eq!(
            bad.apply(&g).unwrap_err(),
            DeltaError::DuplicateWeight { vertex: 1 }
        );
        let bad = InstanceDelta {
            set_weights: vec![(VertexId::new(1), 0)],
            ..InstanceDelta::empty()
        };
        assert_eq!(
            bad.apply(&g).unwrap_err(),
            DeltaError::ZeroWeight { vertex: 1 }
        );
        let bad = InstanceDelta {
            add_edges: vec![vec![VertexId::new(99)]],
            ..InstanceDelta::empty()
        };
        assert!(matches!(
            bad.apply(&g).unwrap_err(),
            DeltaError::Invalid(BuildError::UnknownVertex { .. })
        ));
        let bad = InstanceDelta {
            add_edges: vec![vec![]],
            ..InstanceDelta::empty()
        };
        assert!(matches!(
            bad.apply(&g).unwrap_err(),
            DeltaError::Invalid(BuildError::EmptyEdge { .. })
        ));
    }

    #[test]
    fn inverse_restores_weights_and_edge_multiset() {
        let g = base();
        let delta = InstanceDelta {
            remove_edges: vec![EdgeId::new(0), EdgeId::new(2)],
            add_edges: vec![
                vec![VertexId::new(0), VertexId::new(2)],
                vec![VertexId::new(3)],
            ],
            set_weights: vec![(VertexId::new(2), 100)],
        };
        let out = delta.apply(&g).unwrap();
        let back = delta.inverse(&g, &out).apply(&out.graph).unwrap();
        assert_eq!(back.graph.weights(), g.weights());
        let canonical = |h: &Hypergraph| {
            let mut edges: Vec<Vec<usize>> = h
                .edges()
                .map(|e| h.edge(e).iter().map(|v| v.index()).collect())
                .collect();
            edges.sort();
            edges
        };
        assert_eq!(canonical(&back.graph), canonical(&g));
    }

    #[test]
    fn error_messages() {
        assert!(DeltaError::UnknownEdge { edge: 3, m: 2 }
            .to_string()
            .contains("edge 3"));
        assert!(DeltaError::ZeroWeight { vertex: 1 }
            .to_string()
            .contains("positive"));
        let e = DeltaError::from(BuildError::EmptyEdge { edge: 0 });
        assert!(Error::source(&e).is_some());
    }
}
