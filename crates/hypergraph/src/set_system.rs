//! Weighted set systems and the equivalence with hypergraph vertex cover.
//!
//! The paper (§2) uses the classical reduction: given a set system `(X, U)`
//! with `U = {U_1, …, U_m}`, build a hypergraph with one **vertex** `u_i` per
//! subset `U_i` and one **hyperedge** `e_x` per element `x`, where
//! `e_x = {u_i : x ∈ U_i}`. A vertex cover of the hypergraph is exactly a set
//! cover of the system, the hypergraph rank `f` equals the maximum element
//! frequency, and the hypergraph degree `Δ` equals the maximum set size.

use crate::error::BuildError;
use crate::hypergraph::Hypergraph;
use crate::ids::VertexId;
use crate::HypergraphBuilder;

/// A weighted set-cover instance: `universe` elements `0..universe`, and a
/// family of weighted subsets.
///
/// # Examples
///
/// ```
/// use dcover_hypergraph::SetSystem;
///
/// # fn main() -> Result<(), dcover_hypergraph::BuildError> {
/// let mut s = SetSystem::new(3);
/// s.add_set(2, [0, 1]);
/// s.add_set(3, [1, 2]);
/// s.add_set(4, [0, 2]);
/// let g = s.to_hypergraph()?;
/// assert_eq!(g.n(), 3); // one vertex per set
/// assert_eq!(g.m(), 3); // one edge per element
/// assert_eq!(g.rank(), 2); // every element is in exactly 2 sets
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetSystem {
    universe: usize,
    weights: Vec<u64>,
    sets: Vec<Vec<u32>>,
}

impl SetSystem {
    /// Creates a set system over elements `0..universe` with no sets.
    #[must_use]
    pub fn new(universe: usize) -> Self {
        Self {
            universe,
            weights: Vec::new(),
            sets: Vec::new(),
        }
    }

    /// Number of elements in the universe.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of sets in the family.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Adds a weighted set and returns its index. Elements outside the
    /// universe and duplicates are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `weight == 0`.
    pub fn add_set<I: IntoIterator<Item = usize>>(&mut self, weight: u64, elements: I) -> usize {
        assert!(weight > 0, "set weights must be positive");
        let mut members: Vec<u32> = Vec::new();
        for x in elements {
            if x < self.universe && !members.contains(&(x as u32)) {
                members.push(x as u32);
            }
        }
        self.weights.push(weight);
        self.sets.push(members);
        self.sets.len() - 1
    }

    /// The elements of set `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn set(&self, i: usize) -> &[u32] {
        &self.sets[i]
    }

    /// The weight of set `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn weight(&self, i: usize) -> u64 {
        self.weights[i]
    }

    /// The *frequency* of an element: the number of sets containing it. The
    /// maximum frequency equals the rank `f` of the equivalent hypergraph.
    #[must_use]
    pub fn frequency(&self, element: usize) -> usize {
        self.sets
            .iter()
            .filter(|s| s.contains(&(element as u32)))
            .count()
    }

    /// Maximum element frequency (the `f` parameter of the covering problem).
    #[must_use]
    pub fn max_frequency(&self) -> usize {
        (0..self.universe)
            .map(|x| self.frequency(x))
            .max()
            .unwrap_or(0)
    }

    /// Whether every element belongs to at least one set (otherwise no set
    /// cover exists and the hypergraph reduction would produce an empty
    /// hyperedge).
    #[must_use]
    pub fn is_coverable(&self) -> bool {
        (0..self.universe).all(|x| self.frequency(x) > 0)
    }

    /// The §2 reduction: sets become weighted vertices, elements become
    /// hyperedges.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::EmptyEdge`] if some element belongs to no set
    /// (the instance is infeasible).
    pub fn to_hypergraph(&self) -> Result<Hypergraph, BuildError> {
        let mut b = HypergraphBuilder::with_capacity(self.sets.len(), self.universe);
        for &w in &self.weights {
            b.add_vertex(w);
        }
        // Invert the membership lists: element -> sets containing it.
        let mut edges: Vec<Vec<VertexId>> = vec![Vec::new(); self.universe];
        for (i, set) in self.sets.iter().enumerate() {
            for &x in set {
                edges[x as usize].push(VertexId::new(i));
            }
        }
        for members in edges {
            b.add_edge(members)?;
        }
        b.build()
    }

    /// Inverse of [`to_hypergraph`](Self::to_hypergraph): vertices become
    /// sets, hyperedges become elements.
    #[must_use]
    pub fn from_hypergraph(g: &Hypergraph) -> Self {
        let mut s = SetSystem::new(g.m());
        for v in g.vertices() {
            let elements: Vec<usize> = g.incident_edges(v).iter().map(|e| e.index()).collect();
            s.weights.push(g.weight(v));
            s.sets.push(elements.iter().map(|&x| x as u32).collect());
        }
        s
    }

    /// Interprets a hypergraph vertex cover as a set cover: the chosen set
    /// indices, in ascending order.
    #[must_use]
    pub fn chosen_sets(cover: &crate::Cover) -> Vec<usize> {
        cover.iter().map(|v| v.index()).collect()
    }

    /// Checks that the given set indices cover the whole universe.
    #[must_use]
    pub fn is_set_cover(&self, chosen: &[usize]) -> bool {
        let mut hit = vec![false; self.universe];
        for &i in chosen {
            for &x in &self.sets[i] {
                hit[x as usize] = true;
            }
        }
        hit.iter().all(|&h| h)
    }

    /// Total weight of the given set indices.
    #[must_use]
    pub fn cover_weight(&self, chosen: &[usize]) -> u64 {
        chosen.iter().map(|&i| self.weights[i]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cover, EdgeId};

    fn sample() -> SetSystem {
        let mut s = SetSystem::new(4);
        s.add_set(5, [0, 1, 2]);
        s.add_set(3, [2, 3]);
        s.add_set(2, [0, 3]);
        s
    }

    #[test]
    fn reduction_shapes() {
        let s = sample();
        let g = s.to_hypergraph().unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 4);
        // Element 2 is in sets 0 and 1 -> edge 2 = {v0, v1}.
        assert_eq!(
            g.edge(EdgeId::new(2)),
            &[VertexId::new(0), VertexId::new(1)]
        );
        assert_eq!(g.rank() as usize, s.max_frequency());
        // Degree of vertex i = |set i|.
        for i in 0..3 {
            assert_eq!(g.degree(VertexId::new(i)), s.set(i).len());
        }
    }

    #[test]
    fn uncoverable_element_is_an_error() {
        let mut s = SetSystem::new(2);
        s.add_set(1, [0]);
        assert!(!s.is_coverable());
        assert!(matches!(
            s.to_hypergraph(),
            Err(BuildError::EmptyEdge { edge: 1 })
        ));
    }

    #[test]
    fn roundtrip_through_hypergraph() {
        let s = sample();
        let g = s.to_hypergraph().unwrap();
        let s2 = SetSystem::from_hypergraph(&g);
        assert_eq!(s, s2);
    }

    #[test]
    fn vertex_cover_is_set_cover() {
        let s = sample();
        let g = s.to_hypergraph().unwrap();
        let cover = Cover::from_ids(3, [VertexId::new(0), VertexId::new(1)]);
        assert!(cover.is_cover_of(&g));
        let chosen = SetSystem::chosen_sets(&cover);
        assert_eq!(chosen, vec![0, 1]);
        assert!(s.is_set_cover(&chosen));
        assert_eq!(s.cover_weight(&chosen), 8);
        assert!(!s.is_set_cover(&[2]));
    }

    #[test]
    fn frequencies() {
        let s = sample();
        assert_eq!(s.frequency(0), 2);
        assert_eq!(s.frequency(1), 1);
        assert_eq!(s.max_frequency(), 2);
    }

    #[test]
    fn add_set_filters_bad_elements() {
        let mut s = SetSystem::new(3);
        let i = s.add_set(1, [0, 0, 5, 2]);
        assert_eq!(s.set(i), &[0, 2]);
    }
}
