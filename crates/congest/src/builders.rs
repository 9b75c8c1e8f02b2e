//! Standard one-sided topologies for the crate's unit tests.

use crate::topology::{NodeId, Topology};

/// Ring `C_n`.
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub(crate) fn ring(n: usize) -> Topology {
    assert!(n >= 3, "a ring needs at least three nodes");
    let links: Vec<(NodeId, NodeId)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    Topology::from_links(n, &links)
}

/// Star: node 0 is the center.
///
/// # Panics
///
/// Panics if `leaves == 0`.
#[must_use]
pub(crate) fn star(leaves: usize) -> Topology {
    assert!(leaves > 0, "a star needs leaves");
    let links: Vec<(NodeId, NodeId)> = (1..=leaves).map(|i| (0, i)).collect();
    Topology::from_links(leaves + 1, &links)
}

/// Complete graph `K_n`.
///
/// # Panics
///
/// Panics if `n < 2`.
#[must_use]
pub(crate) fn complete(n: usize) -> Topology {
    assert!(n >= 2, "a complete graph needs at least two nodes");
    let mut links = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            links.push((i, j));
        }
    }
    Topology::from_links(n, &links)
}

/// 2-D grid `rows × cols` with 4-neighborhoods.
///
/// # Panics
///
/// Panics if either dimension is 0 or the grid has fewer than 2 nodes.
#[must_use]
pub(crate) fn grid(rows: usize, cols: usize) -> Topology {
    assert!(rows > 0 && cols > 0 && rows * cols >= 2, "grid too small");
    let id = |r: usize, c: usize| r * cols + c;
    let mut links = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                links.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                links.push((id(r, c), id(r + 1, c)));
            }
        }
    }
    Topology::from_links(rows * cols, &links)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_reciprocity(t: &Topology) {
        for u in 0..t.len() {
            for p in 0..t.degree(u) {
                let (v, q) = t.peer(u, p);
                assert_eq!(t.peer(v, q), (u, p));
            }
        }
    }

    #[test]
    fn ring_shape() {
        let t = ring(6);
        assert_eq!(t.num_links(), 6);
        assert!((0..6).all(|u| t.degree(u) == 2));
        check_reciprocity(&t);
    }

    #[test]
    fn star_shape() {
        let t = star(7);
        assert_eq!(t.degree(0), 7);
        assert!((1..=7).all(|u| t.degree(u) == 1));
        assert_eq!(t.max_degree(), 7);
        check_reciprocity(&t);
    }

    #[test]
    fn complete_shape() {
        let t = complete(5);
        assert_eq!(t.num_links(), 10);
        assert!((0..5).all(|u| t.degree(u) == 4));
        check_reciprocity(&t);
    }

    #[test]
    fn grid_shape() {
        let t = grid(3, 4);
        assert_eq!(t.len(), 12);
        assert_eq!(t.num_links(), 3 * 3 + 2 * 4);
        assert_eq!(t.degree(0), 2); // corner
        assert_eq!(t.degree(5), 4); // interior
        check_reciprocity(&t);
    }
}
