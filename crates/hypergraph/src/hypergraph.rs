//! The immutable weighted hypergraph type.
//!
//! A [`Hypergraph`] `G = (V, E)` stores positive integer vertex weights and
//! both incidence directions in CSR (compressed sparse row) form:
//! edge → member vertices and vertex → incident edges. Both directions are
//! needed constantly by covering algorithms (edges poll their vertices,
//! vertices poll their edges), so we pay the memory up front and keep lookups
//! allocation-free.
//!
//! The CSR payload lives behind one shared allocation: instances are
//! immutable after construction, so [`Hypergraph::clone`] is a reference
//! count increment, never a copy of the incidence data. That makes every
//! serving path (batched, queued, warm-started) zero-copy by construction
//! — see [`clone_count`].

use std::sync::Arc;

use crate::ids::{EdgeId, IdRange, VertexId};

/// An immutable hypergraph with positive integer vertex weights.
///
/// Terminology follows the paper:
///
/// * the **rank** `f` is the maximum hyperedge size (`f = 2` is an ordinary
///   graph; in set-cover terms it is the maximum element frequency);
/// * the **maximum degree** `Δ` is the maximum number of hyperedges any
///   vertex belongs to;
/// * `W` is the ratio between the largest and smallest vertex weight.
///
/// Construct instances with [`HypergraphBuilder`](crate::HypergraphBuilder),
/// one of the [`generators`](crate::generators), or by parsing the
/// [text format](crate::format).
///
/// # Examples
///
/// ```
/// use dcover_hypergraph::HypergraphBuilder;
///
/// # fn main() -> Result<(), dcover_hypergraph::BuildError> {
/// let mut b = HypergraphBuilder::new();
/// let u = b.add_vertex(3);
/// let v = b.add_vertex(1);
/// let w = b.add_vertex(2);
/// b.add_edge([u, v])?;
/// b.add_edge([v, w])?;
/// b.add_edge([u, v, w])?;
/// let g = b.build()?;
/// assert_eq!(g.n(), 3);
/// assert_eq!(g.m(), 3);
/// assert_eq!(g.rank(), 3);
/// assert_eq!(g.max_degree(), 3); // v is in all three edges
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Hypergraph {
    inner: Arc<Payload>,
}

/// The owned CSR data of a hypergraph, shared by every handle cloned from
/// the same construction.
#[derive(Debug, PartialEq, Eq)]
struct Payload {
    weights: Vec<u64>,
    /// CSR offsets into `edge_vertices`; length `m + 1`.
    edge_offsets: Vec<u32>,
    /// Concatenated member lists of all edges.
    edge_vertices: Vec<VertexId>,
    /// CSR offsets into `vertex_edges`; length `n + 1`.
    vertex_offsets: Vec<u32>,
    /// Concatenated incident-edge lists of all vertices.
    vertex_edges: Vec<EdgeId>,
    rank: u32,
    max_degree: u32,
}

/// Process-wide count of deep [`Hypergraph`] payload copies (see
/// [`clone_count`]).
static CLONES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Number of deep [`Hypergraph`] payload copies performed by this process
/// so far.
///
/// Since the CSR payload moved behind a shared allocation,
/// [`Hypergraph::clone`] is a reference-count increment and **never**
/// copies the instance data — only [`Hypergraph::deep_clone`] does, and
/// only it bumps this counter. Serving paths are expected to leave the
/// counter untouched; tests and benchmarks snapshot it around the code
/// under scrutiny to *prove* that no instance payload was copied. The
/// counter is monotone and global, so concurrent deep copies elsewhere in
/// the process inflate it — assert "did not grow", not exact values,
/// unless the test is isolated.
#[must_use]
pub fn clone_count() -> u64 {
    // relaxed: monotone diagnostic counter; readers only assert
    // "did not grow" around code they ran themselves, so no
    // cross-thread ordering is needed.
    CLONES.load(std::sync::atomic::Ordering::Relaxed)
}

impl Clone for Hypergraph {
    /// Cheap by construction: bumps the payload's reference count. The
    /// incidence data is immutable and shared, never copied.
    fn clone(&self) -> Self {
        Hypergraph {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl PartialEq for Hypergraph {
    fn eq(&self, other: &Self) -> bool {
        // Handles cloned from the same construction share the payload.
        Arc::ptr_eq(&self.inner, &other.inner) || *self.inner == *other.inner
    }
}

impl Eq for Hypergraph {}

impl Hypergraph {
    /// Copies the full CSR payload into a fresh allocation (the only
    /// operation that duplicates instance data; counted by
    /// [`clone_count`]). Ordinary [`clone`](Clone::clone) shares the
    /// payload instead — deep copies exist only for tests and for callers
    /// that deliberately want an unshared allocation.
    #[must_use]
    pub fn deep_clone(&self) -> Self {
        // relaxed: monotone diagnostic counter (see `clone_count`);
        // atomicity of the increment is all that matters.
        CLONES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Hypergraph {
            inner: Arc::new(Payload {
                weights: self.inner.weights.clone(),
                edge_offsets: self.inner.edge_offsets.clone(),
                edge_vertices: self.inner.edge_vertices.clone(),
                vertex_offsets: self.inner.vertex_offsets.clone(),
                vertex_edges: self.inner.vertex_edges.clone(),
                rank: self.inner.rank,
                max_degree: self.inner.max_degree,
            }),
        }
    }

    /// Internal constructor used by the builder; assumes inputs were already
    /// validated (weights positive, vertex ids in range, no empty edge).
    pub(crate) fn from_validated_parts(weights: Vec<u64>, edges: Vec<Vec<VertexId>>) -> Self {
        let n = weights.len();
        let m = edges.len();

        let mut edge_offsets = Vec::with_capacity(m + 1);
        let mut edge_vertices = Vec::new();
        edge_offsets.push(0u32);
        let mut degrees = vec![0u32; n];
        let mut rank = 0u32;
        for members in &edges {
            rank = rank.max(members.len() as u32);
            for &v in members {
                degrees[v.index()] += 1;
                edge_vertices.push(v);
            }
            edge_offsets.push(edge_vertices.len() as u32);
        }

        let mut vertex_offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        vertex_offsets.push(0u32);
        for &d in &degrees {
            acc += d;
            vertex_offsets.push(acc);
        }
        let mut cursor: Vec<u32> = vertex_offsets[..n].to_vec();
        let mut vertex_edges = vec![EdgeId::from_raw(0); acc as usize];
        // Filling in edge order keeps every incident-edge list ascending,
        // as `incident_edges` guarantees.
        for (e, members) in edges.iter().enumerate() {
            for &v in members {
                let slot = cursor[v.index()];
                vertex_edges[slot as usize] = EdgeId::new(e);
                cursor[v.index()] += 1;
            }
        }

        let max_degree = degrees.iter().copied().max().unwrap_or(0);
        Self {
            inner: Arc::new(Payload {
                weights,
                edge_offsets,
                edge_vertices,
                vertex_offsets,
                vertex_edges,
                rank,
                max_degree,
            }),
        }
    }

    /// Number of vertices `n = |V|`.
    #[inline]
    #[must_use]
    pub fn n(&self) -> usize {
        self.inner.weights.len()
    }

    /// Number of hyperedges `m = |E|`.
    #[inline]
    #[must_use]
    pub fn m(&self) -> usize {
        self.inner.edge_offsets.len() - 1
    }

    /// The rank `f`: the maximum number of vertices in any hyperedge
    /// (0 for a hypergraph without edges).
    #[inline]
    #[must_use]
    pub fn rank(&self) -> u32 {
        self.inner.rank
    }

    /// The maximum vertex degree `Δ` (0 for a hypergraph without edges).
    #[inline]
    #[must_use]
    pub fn max_degree(&self) -> u32 {
        self.inner.max_degree
    }

    /// The weight of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn weight(&self, v: VertexId) -> u64 {
        self.inner.weights[v.index()]
    }

    /// All vertex weights, indexed by vertex.
    #[inline]
    #[must_use]
    pub fn weights(&self) -> &[u64] {
        &self.inner.weights
    }

    /// The member vertices of hyperedge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    #[must_use]
    pub fn edge(&self, e: EdgeId) -> &[VertexId] {
        let lo = self.inner.edge_offsets[e.index()] as usize;
        let hi = self.inner.edge_offsets[e.index() + 1] as usize;
        &self.inner.edge_vertices[lo..hi]
    }

    /// The hyperedges incident to vertex `v` (the set `E(v)` of the paper),
    /// in ascending edge order.
    ///
    /// The order is guaranteed: every constructor fills the lists by
    /// walking the edges in id order. The bipartite communication network
    /// (`Topology::bipartite_incidence` in `dcover-congest`) relies on it
    /// to assign vertex ports in one pass over the edges.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn incident_edges(&self, v: VertexId) -> &[EdgeId] {
        let lo = self.inner.vertex_offsets[v.index()] as usize;
        let hi = self.inner.vertex_offsets[v.index() + 1] as usize;
        &self.inner.vertex_edges[lo..hi]
    }

    /// The degree `|E(v)|` of vertex `v`.
    #[inline]
    #[must_use]
    pub fn degree(&self, v: VertexId) -> usize {
        self.incident_edges(v).len()
    }

    /// The size `|e|` of hyperedge `e`.
    #[inline]
    #[must_use]
    pub fn edge_size(&self, e: EdgeId) -> usize {
        self.edge(e).len()
    }

    /// Iterator over all vertex ids.
    #[must_use]
    pub fn vertices(&self) -> IdRange<VertexId> {
        IdRange::new(self.n())
    }

    /// Iterator over all edge ids.
    #[must_use]
    pub fn edges(&self) -> IdRange<EdgeId> {
        IdRange::new(self.m())
    }

    /// The smallest vertex weight; `None` if the hypergraph has no vertices.
    #[must_use]
    pub fn min_weight(&self) -> Option<u64> {
        self.inner.weights.iter().copied().min()
    }

    /// The largest vertex weight; `None` if the hypergraph has no vertices.
    #[must_use]
    pub fn max_weight(&self) -> Option<u64> {
        self.inner.weights.iter().copied().max()
    }

    /// The weight ratio `W = max_v w(v) / min_v w(v)` (1.0 for empty graphs).
    #[must_use]
    pub fn weight_ratio(&self) -> f64 {
        match (self.max_weight(), self.min_weight()) {
            (Some(max), Some(min)) if min > 0 => max as f64 / min as f64,
            _ => 1.0,
        }
    }

    /// Sum of all vertex weights.
    #[must_use]
    pub fn total_weight(&self) -> u64 {
        self.inner.weights.iter().sum()
    }

    /// Total incidence size `Σ_e |e| = Σ_v |E(v)|` (number of links in the
    /// paper's communication network).
    #[inline]
    #[must_use]
    pub fn incidence_size(&self) -> usize {
        self.inner.edge_vertices.len()
    }

    /// The *normalized weight* `w(v) / |E(v)|` of a vertex, the quantity
    /// minimized over each edge when setting the first bids (§3.2, iteration
    /// 0). Returns `f64::INFINITY` for isolated vertices.
    #[must_use]
    pub fn normalized_weight(&self, v: VertexId) -> f64 {
        let d = self.degree(v);
        if d == 0 {
            f64::INFINITY
        } else {
            self.weight(v) as f64 / d as f64
        }
    }

    /// The *local maximum degree* `Δ(e) = max_{u ∈ e} |E(u)|` used by the
    /// local-α variant (Theorem 9 discussion / Appendix B item 5).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn local_max_degree(&self, e: EdgeId) -> u32 {
        self.edge(e)
            .iter()
            .map(|&v| self.degree(v) as u32)
            .max()
            .expect("edges are never empty")
    }

    /// Returns `true` if every hyperedge contains at least one vertex of
    /// `selected` (predicate form used by [`Cover`](crate::Cover) checking).
    pub fn covers_all<F: Fn(VertexId) -> bool>(&self, selected: F) -> bool {
        self.edges()
            .all(|e| self.edge(e).iter().any(|&v| selected(v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn triangle() -> Hypergraph {
        // Three vertices, three rank-2 edges forming a triangle.
        let mut b = HypergraphBuilder::new();
        let u = b.add_vertex(1);
        let v = b.add_vertex(2);
        let w = b.add_vertex(3);
        b.add_edge([u, v]).unwrap();
        b.add_edge([v, w]).unwrap();
        b.add_edge([w, u]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn csr_both_directions_agree() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.incidence_size(), 6);
        for v in g.vertices() {
            for &e in g.incident_edges(v) {
                assert!(g.edge(e).contains(&v), "{v} listed in {e} but not back");
            }
        }
        for e in g.edges() {
            for &v in g.edge(e) {
                assert!(g.incident_edges(v).contains(&e));
            }
        }
    }

    #[test]
    fn rank_and_degree() {
        let g = triangle();
        assert_eq!(g.rank(), 2);
        assert_eq!(g.max_degree(), 2);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn weights_and_ratio() {
        let g = triangle();
        assert_eq!(g.weight(VertexId::new(0)), 1);
        assert_eq!(g.weight(VertexId::new(2)), 3);
        assert_eq!(g.min_weight(), Some(1));
        assert_eq!(g.max_weight(), Some(3));
        assert!((g.weight_ratio() - 3.0).abs() < 1e-12);
        assert_eq!(g.total_weight(), 6);
    }

    #[test]
    fn normalized_weight_matches_definition() {
        let g = triangle();
        let v = VertexId::new(1); // weight 2, degree 2
        assert!((g.normalized_weight(v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn isolated_vertex_has_infinite_normalized_weight() {
        let mut b = HypergraphBuilder::new();
        let u = b.add_vertex(1);
        let _isolated = b.add_vertex(5);
        let v = b.add_vertex(1);
        b.add_edge([u, v]).unwrap();
        let g = b.build().unwrap();
        assert!(g.normalized_weight(VertexId::new(1)).is_infinite());
        assert_eq!(g.degree(VertexId::new(1)), 0);
    }

    #[test]
    fn local_max_degree_is_max_over_members() {
        let mut b = HypergraphBuilder::new();
        let hub = b.add_vertex(1);
        let leaves: Vec<_> = (0..4).map(|_| b.add_vertex(1)).collect();
        for &l in &leaves {
            b.add_edge([hub, l]).unwrap();
        }
        let g = b.build().unwrap();
        for e in g.edges() {
            assert_eq!(g.local_max_degree(e), 4); // hub has degree 4
        }
    }

    #[test]
    fn empty_hypergraph_is_fine() {
        let g = HypergraphBuilder::new().build().unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.rank(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.min_weight(), None);
        assert!((g.weight_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clone_is_shallow_and_deep_clone_is_counted() {
        let g = triangle();
        let before = crate::clone_count();
        let shallow = g.clone();
        assert_eq!(crate::clone_count(), before, "Clone must not copy data");
        assert_eq!(shallow, g);
        let deep = g.deep_clone();
        assert!(crate::clone_count() > before, "deep_clone is counted");
        assert_eq!(deep, g, "payload equality survives the copy");
    }

    #[test]
    fn covers_all_predicate() {
        let g = triangle();
        // {v1} covers edges (0,1) and (1,2) but not (2,0).
        assert!(!g.covers_all(|v| v.index() == 1));
        assert!(g.covers_all(|v| v.index() == 1 || v.index() == 2));
    }
}
