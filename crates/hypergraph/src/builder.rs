//! Incremental construction of [`Hypergraph`] instances with validation.

use crate::error::BuildError;
use crate::hypergraph::Hypergraph;
use crate::ids::{EdgeId, VertexId};

/// Builder for [`Hypergraph`].
///
/// The builder validates what can go wrong at the point it goes wrong:
/// [`add_edge`](Self::add_edge) rejects empty edges and unknown vertex ids
/// immediately, and deduplicates repeated vertices within one edge (a
/// hyperedge is a *set* of vertices). Weights must be positive
/// (`w : V → N+` in the paper); [`add_vertex`](Self::add_vertex) panics on
/// zero so the error surfaces at the call site that made it.
///
/// # Examples
///
/// ```
/// use dcover_hypergraph::HypergraphBuilder;
///
/// # fn main() -> Result<(), dcover_hypergraph::BuildError> {
/// let mut b = HypergraphBuilder::new();
/// let vs: Vec<_> = [5, 1, 4].iter().map(|&w| b.add_vertex(w)).collect();
/// b.add_edge([vs[0], vs[1]])?;
/// b.add_edge([vs[1], vs[2], vs[1]])?; // duplicate vs[1] deduplicated
/// let g = b.build()?;
/// assert_eq!(g.edge_size(dcover_hypergraph::EdgeId::new(1)), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct HypergraphBuilder {
    weights: Vec<u64>,
    /// CSR offsets into `edge_vertices`: a leading 0, then one end per
    /// edge added.
    edge_offsets: Vec<u32>,
    /// Concatenated member lists of the edges added.
    edge_vertices: Vec<VertexId>,
}

impl Default for HypergraphBuilder {
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

impl HypergraphBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with capacity reserved for `n` vertices and `m`
    /// edges.
    #[must_use]
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut edge_offsets = Vec::with_capacity(m + 1);
        edge_offsets.push(0);
        Self {
            weights: Vec::with_capacity(n),
            edge_offsets,
            edge_vertices: Vec::new(),
        }
    }

    /// Adds a vertex with the given positive weight and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `weight == 0` (the problem definition requires positive
    /// weights) or if the vertex count would exceed `u32::MAX`.
    pub fn add_vertex(&mut self, weight: u64) -> VertexId {
        assert!(weight > 0, "vertex weights must be positive");
        let id = VertexId::new(self.weights.len());
        self.weights.push(weight);
        id
    }

    /// Adds `weights.len()` vertices at once and returns the id of the first.
    ///
    /// # Panics
    ///
    /// Panics if any weight is zero.
    pub fn add_vertices<I: IntoIterator<Item = u64>>(&mut self, weights: I) -> Vec<VertexId> {
        weights.into_iter().map(|w| self.add_vertex(w)).collect()
    }

    /// Number of vertices added so far.
    #[must_use]
    pub fn n(&self) -> usize {
        self.weights.len()
    }

    /// Number of edges added so far.
    #[must_use]
    pub fn m(&self) -> usize {
        self.edge_offsets.len() - 1
    }

    /// Adds a hyperedge over the given vertices and returns its id.
    ///
    /// Repeated vertices are deduplicated (preserving first-occurrence
    /// order, so deterministic protocols see a canonical member order).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::EmptyEdge`] if the member list is empty and
    /// [`BuildError::UnknownVertex`] if any id has not been added. A
    /// rejected edge leaves the builder as it was.
    ///
    /// # Panics
    ///
    /// Panics if the edges would hold `2^32` incidences or more (the
    /// hypergraph's CSR offsets are `u32`).
    pub fn add_edge<I>(&mut self, vertices: I) -> Result<EdgeId, BuildError>
    where
        I: IntoIterator<Item = VertexId>,
    {
        let edge = self.m();
        let end = push_members(&mut self.edge_vertices, vertices, self.weights.len(), edge)?;
        self.edge_offsets.push(end);
        Ok(EdgeId::new(edge))
    }

    /// Finalizes the builder into an immutable [`Hypergraph`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::ZeroWeight`] if a zero weight slipped in via
    /// direct struct manipulation (defensive re-check; `add_vertex` already
    /// panics on zero).
    pub fn build(self) -> Result<Hypergraph, BuildError> {
        if let Some(vertex) = self.weights.iter().position(|&w| w == 0) {
            return Err(BuildError::ZeroWeight { vertex });
        }
        let (vertex_offsets, vertex_edges) =
            incident_lists(self.weights.len(), &self.edge_offsets, &self.edge_vertices);
        Ok(Hypergraph::from_csr_parts(
            self.weights,
            self.edge_offsets,
            self.edge_vertices,
            vertex_offsets,
            vertex_edges,
        ))
    }
}

/// Appends the members of edge `edge` to `members`, validated and
/// de-duplicated as [`HypergraphBuilder::add_edge`] documents, and
/// returns the new end of `members`. On error `members` is as it was.
pub(crate) fn push_members<I>(
    members: &mut Vec<VertexId>,
    vertices: I,
    n: usize,
    edge: usize,
) -> Result<u32, BuildError>
where
    I: IntoIterator<Item = VertexId>,
{
    let start = members.len();
    for v in vertices {
        if v.index() >= n {
            members.truncate(start);
            return Err(BuildError::UnknownVertex {
                edge,
                vertex: v.index(),
                n,
            });
        }
        if !members[start..].contains(&v) {
            members.push(v);
        }
    }
    if members.len() == start {
        return Err(BuildError::EmptyEdge { edge });
    }
    Ok(u32::try_from(members.len()).expect("a hypergraph has fewer than 2^32 incidences"))
}

/// The vertex → incident-edge CSR of an edge CSR over `n` vertices.
/// Filling in edge order keeps every incident-edge list ascending.
fn incident_lists(
    n: usize,
    edge_offsets: &[u32],
    edge_vertices: &[VertexId],
) -> (Vec<u32>, Vec<EdgeId>) {
    let mut vertex_offsets = vec![0u32; n + 1];
    for &v in edge_vertices {
        vertex_offsets[v.index() + 1] += 1;
    }
    for i in 0..n {
        vertex_offsets[i + 1] += vertex_offsets[i];
    }
    let mut cursor: Vec<u32> = vertex_offsets[..n].to_vec();
    let mut vertex_edges = vec![EdgeId::from_raw(0); edge_vertices.len()];
    for (e, members) in edge_offsets.windows(2).enumerate() {
        for &v in &edge_vertices[members[0] as usize..members[1] as usize] {
            let slot = &mut cursor[v.index()];
            vertex_edges[*slot as usize] = EdgeId::new(e);
            *slot += 1;
        }
    }
    (vertex_offsets, vertex_edges)
}

/// Convenience constructor for tests and examples: builds a hypergraph from
/// uniform vertex weights and explicit edge lists given as index slices.
///
/// # Errors
///
/// Propagates [`BuildError`] from edge validation.
///
/// # Examples
///
/// ```
/// let g = dcover_hypergraph::from_edge_lists(4, &[&[0, 1], &[1, 2, 3]])?;
/// assert_eq!(g.rank(), 3);
/// # Ok::<(), dcover_hypergraph::BuildError>(())
/// ```
pub fn from_edge_lists(n: usize, edges: &[&[usize]]) -> Result<Hypergraph, BuildError> {
    from_weighted_edge_lists(&vec![1u64; n], edges)
}

/// Like [`from_edge_lists`] but with explicit weights.
///
/// # Errors
///
/// Propagates [`BuildError`] from edge validation.
pub fn from_weighted_edge_lists(
    weights: &[u64],
    edges: &[&[usize]],
) -> Result<Hypergraph, BuildError> {
    let mut b = HypergraphBuilder::with_capacity(weights.len(), edges.len());
    for &w in weights {
        b.add_vertex(w);
    }
    for members in edges {
        b.add_edge(members.iter().map(|&i| VertexId::new(i)))?;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_instance() {
        let mut b = HypergraphBuilder::new();
        let u = b.add_vertex(1);
        let v = b.add_vertex(2);
        let e = b.add_edge([u, v]).unwrap();
        assert_eq!(e, EdgeId::new(0));
        assert_eq!(b.n(), 2);
        assert_eq!(b.m(), 1);
        let g = b.build().unwrap();
        assert_eq!(g.edge(e), &[u, v]);
    }

    #[test]
    fn rejects_empty_edge() {
        let mut b = HypergraphBuilder::new();
        b.add_vertex(1);
        let err = b.add_edge([]).unwrap_err();
        assert_eq!(err, BuildError::EmptyEdge { edge: 0 });
    }

    #[test]
    fn rejects_unknown_vertex() {
        let mut b = HypergraphBuilder::new();
        let u = b.add_vertex(1);
        let err = b.add_edge([u, VertexId::new(7)]).unwrap_err();
        assert_eq!(
            err,
            BuildError::UnknownVertex {
                edge: 0,
                vertex: 7,
                n: 1
            }
        );
    }

    #[test]
    fn a_rejected_edge_leaves_no_members_behind() {
        let mut b = HypergraphBuilder::new();
        let u = b.add_vertex(1);
        let v = b.add_vertex(1);
        b.add_edge([u]).unwrap();
        let err = b.add_edge([v, u, VertexId::new(9)]).unwrap_err();
        assert_eq!(
            err,
            BuildError::UnknownVertex {
                edge: 1,
                vertex: 9,
                n: 2
            }
        );
        assert_eq!(b.m(), 1);
        let e = b.add_edge([v]).unwrap();
        assert_eq!(e, EdgeId::new(1));
        let g = b.build().unwrap();
        assert_eq!(g.edge(EdgeId::new(0)), &[u]);
        assert_eq!(g.edge(e), &[v]);
        assert_eq!(g.incidence_size(), 2);
    }

    #[test]
    fn deduplicates_members_preserving_order() {
        let mut b = HypergraphBuilder::new();
        let u = b.add_vertex(1);
        let v = b.add_vertex(1);
        let e = b.add_edge([v, u, v, u, v]).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.edge(e), &[v, u]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_panics() {
        let mut b = HypergraphBuilder::new();
        b.add_vertex(0);
    }

    #[test]
    fn from_edge_lists_roundtrip() {
        let g = from_edge_lists(3, &[&[0, 1], &[1, 2], &[0, 2]]).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.rank(), 2);
        let g2 = from_weighted_edge_lists(&[10, 20, 30], &[&[0, 1, 2]]).unwrap();
        assert_eq!(g2.weight(VertexId::new(1)), 20);
        assert_eq!(g2.rank(), 3);
    }

    #[test]
    fn add_vertices_batch() {
        let mut b = HypergraphBuilder::new();
        let ids = b.add_vertices([1, 2, 3]);
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[2], VertexId::new(2));
    }
}
