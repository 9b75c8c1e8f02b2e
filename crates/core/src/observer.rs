//! Iteration-level instrumentation hooks.
//!
//! The distributed run keeps its state sharded across simulated nodes; for
//! whole-state inspection (invariant checking, convergence plots, debugging)
//! the [centralized reference implementation](crate::solve_reference) calls
//! an [`Observer`] after initialization and after every iteration with a
//! read-only [`IterationSnapshot`] of the full algorithm state.

use dcover_hypergraph::Hypergraph;

/// A read-only view of the full algorithm state after one iteration.
#[derive(Debug)]
pub struct IterationSnapshot<'a> {
    /// Iteration number (0 = after initialization).
    pub iteration: u64,
    /// Current level `ℓ(v)` per vertex.
    pub levels: &'a [u32],
    /// Current dual `δ(e)` per edge (frozen once covered).
    pub duals: &'a [f64],
    /// Current `bid(e)` per edge (meaningless once covered).
    pub bids: &'a [f64],
    /// Whether each edge is covered.
    pub edge_covered: &'a [bool],
    /// Whether each vertex has joined the cover C.
    pub in_cover: &'a [bool],
    /// Whether each vertex is still participating (not in C, has uncovered
    /// incident edges).
    pub active: &'a [bool],
    /// Current dual sum `Σ_{e∈E(v)} δ(e)` per vertex.
    pub dual_sums: &'a [f64],
    /// Dual sums as of the *start* of this iteration (i.e. `Σ δ_{i−1}`),
    /// the quantity Eq. (1) of Claim 2 sandwiches against the levels that
    /// were just updated. Equals `dual_sums` in the iteration-0 snapshot.
    pub prev_dual_sums: &'a [f64],
}

/// Observer of the reference run. Implementations must not assume snapshots
/// outlive the callback.
pub trait Observer {
    /// Called after initialization (iteration 0) and after each iteration.
    fn on_iteration(&mut self, g: &Hypergraph, snapshot: &IterationSnapshot<'_>);
}

/// An observer that does nothing (the default).
#[derive(Copy, Clone, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_iteration(&mut self, _g: &Hypergraph, _snapshot: &IterationSnapshot<'_>) {}
}

/// An observer that records one row per iteration, for tests that check
/// the reference run's progress.
#[cfg(test)]
#[derive(Clone, Debug, Default)]
pub(crate) struct HistoryObserver {
    /// One entry per callback.
    pub(crate) history: Vec<IterationStats>,
}

/// Aggregate statistics of one iteration.
#[cfg(test)]
#[derive(Copy, Clone, Debug, PartialEq)]
pub(crate) struct IterationStats {
    /// Iteration number (0 = initialization).
    pub(crate) iteration: u64,
    /// Edges covered so far.
    pub(crate) covered_edges: usize,
    /// Vertices in the cover so far.
    pub(crate) cover_size: usize,
    /// Sum of all duals.
    pub(crate) dual_total: f64,
    /// Maximum level over all vertices.
    pub(crate) max_level: u32,
    /// Vertices still participating.
    pub(crate) active_vertices: usize,
}

#[cfg(test)]
impl Observer for HistoryObserver {
    fn on_iteration(&mut self, _g: &Hypergraph, s: &IterationSnapshot<'_>) {
        self.history.push(IterationStats {
            iteration: s.iteration,
            covered_edges: s.edge_covered.iter().filter(|&&c| c).count(),
            cover_size: s.in_cover.iter().filter(|&&c| c).count(),
            dual_total: s.duals.iter().sum(),
            max_level: s.levels.iter().copied().max().unwrap_or(0),
            active_vertices: s.active.iter().filter(|&&a| a).count(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcover_hypergraph::from_edge_lists;

    #[test]
    fn history_observer_records() {
        let g = from_edge_lists(2, &[&[0, 1]]).unwrap();
        let snap = IterationSnapshot {
            iteration: 3,
            levels: &[1, 0],
            duals: &[0.25],
            bids: &[0.125],
            edge_covered: &[false],
            in_cover: &[false, false],
            active: &[true, true],
            dual_sums: &[0.25, 0.25],
            prev_dual_sums: &[0.25, 0.25],
        };
        let mut h = HistoryObserver::default();
        h.on_iteration(&g, &snap);
        assert_eq!(h.history.len(), 1);
        let row = h.history[0];
        assert_eq!(row.iteration, 3);
        assert_eq!(row.covered_edges, 0);
        assert_eq!(row.max_level, 1);
        assert_eq!(row.active_vertices, 2);
        assert!((row.dual_total - 0.25).abs() < 1e-12);
    }

    #[test]
    fn null_observer_is_callable() {
        let g = from_edge_lists(1, &[&[0]]).unwrap();
        let snap = IterationSnapshot {
            iteration: 0,
            levels: &[0],
            duals: &[0.5],
            bids: &[0.5],
            edge_covered: &[false],
            in_cover: &[false],
            active: &[true],
            dual_sums: &[0.5],
            prev_dual_sums: &[0.5],
        };
        NullObserver.on_iteration(&g, &snap);
    }
}
