//! Vertex covers: the solution representation shared by every algorithm in
//! the workspace.

use crate::hypergraph::Hypergraph;
use crate::ids::{EdgeId, VertexId};

/// A set of vertices, stored as a bitset, intended to cover every hyperedge.
///
/// # Examples
///
/// ```
/// use dcover_hypergraph::{from_edge_lists, Cover, VertexId};
///
/// # fn main() -> Result<(), dcover_hypergraph::BuildError> {
/// let g = from_edge_lists(3, &[&[0, 1], &[1, 2]])?;
/// let mut c = Cover::empty(g.n());
/// c.insert(VertexId::new(1));
/// assert!(c.is_cover_of(&g));
/// assert_eq!(c.weight(&g), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cover {
    bits: Vec<u64>,
    n: usize,
    count: usize,
}

impl Cover {
    /// Creates an empty cover over `n` vertices.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        Self {
            bits: vec![0u64; n.div_ceil(64)],
            n,
            count: 0,
        }
    }

    /// Creates a cover from an iterator of vertex ids.
    ///
    /// # Panics
    ///
    /// Panics if any id is `>= n`.
    pub fn from_ids<I: IntoIterator<Item = VertexId>>(n: usize, ids: I) -> Self {
        let mut c = Self::empty(n);
        for v in ids {
            c.insert(v);
        }
        c
    }

    /// Creates a full cover containing all `n` vertices.
    #[must_use]
    pub fn full(n: usize) -> Self {
        Self::from_ids(n, (0..n).map(VertexId::new))
    }

    /// Number of vertices the cover is defined over.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Number of vertices in the cover.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the cover contains no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether `v` is in the cover.
    ///
    /// # Panics
    ///
    /// Panics if `v.index() >= universe()`.
    #[inline]
    #[must_use]
    pub fn contains(&self, v: VertexId) -> bool {
        assert!(v.index() < self.n, "vertex {v} out of range");
        self.bit(v)
    }

    /// The bit of `v`, unchecked against the universe.
    #[inline]
    fn bit(&self, v: VertexId) -> bool {
        self.bits[v.index() / 64] >> (v.index() % 64) & 1 == 1
    }

    /// Inserts `v`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `v.index() >= universe()`.
    pub fn insert(&mut self, v: VertexId) -> bool {
        assert!(v.index() < self.n, "vertex {v} out of range");
        let word = &mut self.bits[v.index() / 64];
        let mask = 1u64 << (v.index() % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        self.count += usize::from(fresh);
        fresh
    }

    /// Removes `v`; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `v.index() >= universe()`.
    pub fn remove(&mut self, v: VertexId) -> bool {
        assert!(v.index() < self.n, "vertex {v} out of range");
        let word = &mut self.bits[v.index() / 64];
        let mask = 1u64 << (v.index() % 64);
        let present = *word & mask != 0;
        *word &= !mask;
        self.count -= usize::from(present);
        present
    }

    /// Iterator over the vertices in the cover, in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        let n = self.n;
        self.bits.iter().enumerate().flat_map(move |(wi, &word)| {
            BitIter { word }
                .map(move |b| VertexId::new(wi * 64 + b))
                .filter(move |v| v.index() < n)
        })
    }

    /// Total weight `w(C)` of the cover under `g`'s weights.
    ///
    /// # Panics
    ///
    /// Panics if the cover universe differs from `g.n()`.
    #[must_use]
    pub fn weight(&self, g: &Hypergraph) -> u64 {
        assert_eq!(self.n, g.n(), "cover universe does not match hypergraph");
        self.iter().map(|v| g.weight(v)).sum()
    }

    /// Whether this set covers every hyperedge of `g` (i.e. `E(C) = E`),
    /// in one walk over `g`'s edge lists.
    ///
    /// # Panics
    ///
    /// Panics if the cover universe differs from `g.n()`.
    #[must_use]
    pub fn is_cover_of(&self, g: &Hypergraph) -> bool {
        assert_eq!(self.n, g.n(), "cover universe does not match hypergraph");
        // Equal universes put every member in range of `bit`.
        let (offsets, members) = g.edge_csr();
        offsets.windows(2).all(|edge| {
            // A fold, not `any`: which member is in the cover is
            // unpredictable, and an early exit would mispredict.
            let members = &members[edge[0] as usize..edge[1] as usize];
            members
                .iter()
                .fold(false, |covered, &v| covered | self.bit(v))
        })
    }

    /// The hyperedges of `g` not covered by this set (empty iff
    /// [`is_cover_of`](Self::is_cover_of)).
    ///
    /// # Panics
    ///
    /// Panics if the cover universe differs from `g.n()`.
    #[must_use]
    pub fn uncovered_edges(&self, g: &Hypergraph) -> Vec<EdgeId> {
        assert_eq!(self.n, g.n(), "cover universe does not match hypergraph");
        g.edges()
            .filter(|&e| !g.edge(e).iter().any(|&v| self.contains(v)))
            .collect()
    }

    /// Removes vertices that are not needed: a vertex is *redundant* if every
    /// edge it covers is also covered by another cover vertex. Processes
    /// vertices in descending weight order (classic post-processing; never
    /// hurts the approximation guarantee). Returns the number removed.
    ///
    /// # Panics
    ///
    /// Panics if the cover universe differs from `g.n()` or the set is not a
    /// cover of `g`.
    pub fn prune_redundant(&mut self, g: &Hypergraph) -> usize {
        assert!(
            self.is_cover_of(g),
            "prune_redundant requires a valid cover"
        );
        let mut order: Vec<VertexId> = self.iter().collect();
        order.sort_by_key(|&v| std::cmp::Reverse(g.weight(v)));
        let mut removed = 0;
        for v in order {
            let redundant = g
                .incident_edges(v)
                .iter()
                .all(|&e| g.edge(e).iter().any(|&u| u != v && self.contains(u)));
            if redundant {
                self.remove(v);
                removed += 1;
            }
        }
        removed
    }
}

impl FromIterator<VertexId> for Cover {
    /// Collects ids into a cover sized to the largest id + 1. For an explicit
    /// universe size use [`Cover::from_ids`].
    fn from_iter<I: IntoIterator<Item = VertexId>>(iter: I) -> Self {
        let ids: Vec<VertexId> = iter.into_iter().collect();
        let n = ids.iter().map(|v| v.index() + 1).max().unwrap_or(0);
        Cover::from_ids(n, ids)
    }
}

struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            None
        } else {
            let b = self.word.trailing_zeros() as usize;
            self.word &= self.word - 1;
            Some(b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edge_lists;
    use crate::from_weighted_edge_lists;

    #[test]
    fn insert_remove_contains() {
        let mut c = Cover::empty(130);
        assert!(c.is_empty());
        assert!(c.insert(VertexId::new(0)));
        assert!(c.insert(VertexId::new(129)));
        assert!(!c.insert(VertexId::new(129)));
        assert_eq!(c.len(), 2);
        assert!(c.contains(VertexId::new(129)));
        assert!(!c.contains(VertexId::new(64)));
        assert!(c.remove(VertexId::new(0)));
        assert!(!c.remove(VertexId::new(0)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn iter_ascending() {
        let c = Cover::from_ids(200, [5, 64, 190, 0].map(VertexId::new));
        let got: Vec<usize> = c.iter().map(|v| v.index()).collect();
        assert_eq!(got, vec![0, 5, 64, 190]);
    }

    #[test]
    fn cover_check_and_uncovered() {
        let g = from_edge_lists(4, &[&[0, 1], &[2, 3], &[1, 2]]).unwrap();
        let c = Cover::from_ids(4, [VertexId::new(1)]);
        assert!(!c.is_cover_of(&g));
        assert_eq!(c.uncovered_edges(&g), vec![EdgeId::new(1)]);
        let c = Cover::from_ids(4, [VertexId::new(1), VertexId::new(2)]);
        assert!(c.is_cover_of(&g));
        assert!(c.uncovered_edges(&g).is_empty());
    }

    #[test]
    fn is_cover_of_needs_a_member_of_every_edge() {
        // A triangle: {v1} covers edges (0,1) and (1,2) but not (2,0).
        let g = from_edge_lists(3, &[&[0, 1], &[1, 2], &[2, 0]]).unwrap();
        assert!(!Cover::from_ids(3, [VertexId::new(1)]).is_cover_of(&g));
        assert!(Cover::from_ids(3, [1, 2].map(VertexId::new)).is_cover_of(&g));
    }

    #[test]
    fn weight_sums_cover_members() {
        let g = from_weighted_edge_lists(&[10, 20, 5], &[&[0, 1], &[1, 2]]).unwrap();
        let c = Cover::from_ids(3, [VertexId::new(0), VertexId::new(2)]);
        assert_eq!(c.weight(&g), 15);
    }

    #[test]
    fn full_cover_covers_everything() {
        let g = from_edge_lists(5, &[&[0, 1, 2], &[3, 4]]).unwrap();
        let c = Cover::full(5);
        assert_eq!(c.len(), 5);
        assert!(c.is_cover_of(&g));
    }

    #[test]
    fn prune_removes_redundant_heaviest_first() {
        // Star: center 0 covers everything; leaves are redundant only if
        // center stays.
        let g = from_weighted_edge_lists(&[1, 10, 10, 10], &[&[0, 1], &[0, 2], &[0, 3]]).unwrap();
        let mut c = Cover::full(4);
        let removed = c.prune_redundant(&g);
        assert_eq!(removed, 3);
        assert!(c.contains(VertexId::new(0)));
        assert!(c.is_cover_of(&g));
    }

    #[test]
    fn from_iterator_sizes_universe() {
        let c: Cover = [VertexId::new(3), VertexId::new(1)].into_iter().collect();
        assert_eq!(c.universe(), 4);
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn contains_out_of_range_panics() {
        let c = Cover::empty(3);
        let _ = c.contains(VertexId::new(3));
    }
}
