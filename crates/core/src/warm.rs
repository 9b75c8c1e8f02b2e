//! Warm-start state: carrying a dual edge packing across instance
//! revisions.
//!
//! The algorithm's entire progress lives in its dual state — the edge
//! packing `δ` and the vertex levels `ℓ` (§3.1). Both survive small
//! instance changes almost untouched: duals are per-edge (so they map
//! through an [`InstanceDelta`](dcover_hypergraph::InstanceDelta)'s
//! surviving-edge-id mapping), and scaling a dual *down* can never break
//! another vertex's packing constraint, so any violation introduced by
//! removed edges or reduced weights is repaired by clamping. A
//! [`WarmState`] packages exactly that: one seeded dual per edge of the
//! *new* revision and one seeded level per vertex, ready for
//! [`MwhvcSolver::solve_warm`](crate::MwhvcSolver::solve_warm).
//!
//! Koufogiannakis–Young's covering/packing framework makes the same
//! observation for their sequential primal-dual schemes: dual increments
//! are monotone, so a feasible prior packing is a valid starting point.

use dcover_hypergraph::{DeltaOutcome, Hypergraph, VertexId};

use crate::solver::CoverResult;

/// Relative slack below which a seeded packing violation is attributed to
/// floating-point drift rather than an actual instance change. Cold
/// results can exceed `Σδ ≤ w` by a few ULPs (the protocol's own
/// `LEVEL_SLACK` comparisons); clamping those would destroy the
/// bit-identity of an empty-delta warm start for no benefit — the
/// certificate checks packing with the much larger
/// [`DEFAULT_TOLERANCE`](crate::DEFAULT_TOLERANCE) anyway.
const PACKING_SLACK: f64 = 1e-12;

/// Seed state for a warm-started solve: one dual per hyperedge of the
/// instance being solved and one level per vertex, typically carried over
/// from a previous [`CoverResult`] through an instance delta.
///
/// # Examples
///
/// ```
/// use dcover_core::{MwhvcSolver, WarmState};
/// use dcover_hypergraph::{from_weighted_edge_lists, EdgeId, InstanceDelta, VertexId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = from_weighted_edge_lists(&[10, 1, 10], &[&[0, 1], &[1, 2]])?;
/// let solver = MwhvcSolver::with_epsilon(0.5)?;
/// let cold = solver.solve(&g)?;
///
/// // Revise the instance and re-solve from the previous dual state.
/// let delta = InstanceDelta {
///     add_edges: vec![vec![VertexId::new(0), VertexId::new(2)]],
///     ..InstanceDelta::empty()
/// };
/// let out = delta.apply(&g)?;
/// let warm = solver.solve_warm(&out.graph, &WarmState::for_delta(&cold, &out))?;
/// assert!(warm.cover.is_cover_of(&out.graph));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct WarmState {
    duals: Vec<f64>,
    levels: Vec<u32>,
}

impl WarmState {
    /// Builds a warm state from raw parts: `duals[e]` per hyperedge of the
    /// instance to be solved, `levels[v]` per vertex. Used by report
    /// loaders (`dcover solve --warm-from`); library callers normally use
    /// [`from_result`](Self::from_result) or
    /// [`for_delta`](Self::for_delta).
    #[must_use]
    pub fn from_parts(duals: Vec<f64>, levels: Vec<u32>) -> Self {
        Self { duals, levels }
    }

    /// The warm state for re-solving the **same** instance: duals and
    /// levels carried over verbatim.
    #[must_use]
    pub fn from_result(prev: &CoverResult) -> Self {
        Self {
            duals: prev.duals.iter().map(|&d| sanitize(d)).collect(),
            levels: prev.levels.clone(),
        }
    }

    /// The warm state for solving a **revision**: surviving edges keep
    /// their dual (via [`DeltaOutcome::predecessor`]), inserted edges
    /// start at 0, and levels carry over (the vertex set is fixed across
    /// a delta).
    ///
    /// # Panics
    ///
    /// Panics if `prev` is not a result for the delta's base instance: a
    /// predecessor edge id beyond `prev.duals` indexes out of range.
    #[must_use]
    pub fn for_delta(prev: &CoverResult, outcome: &DeltaOutcome) -> Self {
        Self {
            duals: outcome
                .predecessor
                .iter()
                .map(|p| p.map_or(0.0, |old| sanitize(prev.duals[old.index()])))
                .collect(),
            levels: prev.levels.clone(),
        }
    }

    /// The seeded per-edge duals.
    #[must_use]
    pub fn duals(&self) -> &[f64] {
        &self.duals
    }

    /// The seeded per-vertex levels.
    #[must_use]
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }
}

/// Treats never-written dual slots (NaN for edges of an empty result) as
/// zero so a warm state is always well-formed.
fn sanitize(d: f64) -> f64 {
    if d.is_finite() {
        d
    } else {
        0.0
    }
}

/// The seeded dual sum of `v`: its incident duals added in `E(v)` order,
/// as the cold protocol accumulates them.
pub(crate) fn seeded_sum(g: &Hypergraph, duals: &[f64], v: VertexId) -> f64 {
    g.incident_edges(v).iter().map(|e| duals[e.index()]).sum()
}

/// Clamps a warm seed to the invariants the protocol needs at round 2,
/// and returns the clamped duals and levels with each vertex's
/// [`seeded_sum`] over the clamped duals:
///
/// * **Packing feasibility** — wherever `Σ_{e∋v} δ(e) > w(v)` (removed
///   edges can't cause this, but reduced weights can), every incident
///   dual is scaled by the smallest factor over the vertex's violations,
///   restoring `Σ ≤ w` in one pass: scaling only ever *lowers* other
///   vertices' sums. Violations within [`PACKING_SLACK`] are left alone
///   (float drift, not instance change).
/// * **Claim 4** — levels are clamped to the new instance's `z` (a delta
///   can shrink the rank and with it `z`).
///
/// The sums come from the one pass that finds the violations. Only the
/// members of scaled edges are summed again, over the same values in the
/// same order as a fresh pass, so every sum is the `f64` a fresh pass
/// over the clamped duals would give.
///
/// Everything else the protocol re-derives itself: the first V1 phase
/// raises any level made stale by the delta before the first dual
/// increment happens, exactly as the paper's step 3d would.
pub(crate) fn clamped_seed(
    g: &Hypergraph,
    warm: &WarmState,
    z: u32,
) -> (Vec<f64>, Vec<u32>, Vec<f64>) {
    let mut duals = warm.duals.clone();
    let mut sums = Vec::with_capacity(g.n());
    // `(edge, factor)` for every incident edge of every violating vertex.
    let mut clamps = Vec::new();
    for v in g.vertices() {
        let sum = seeded_sum(g, &duals, v);
        let w = g.weight(v) as f64;
        if sum > w * (1.0 + PACKING_SLACK) {
            let t = w / sum;
            clamps.extend(g.incident_edges(v).iter().map(|&e| (e, t)));
        }
        sums.push(sum);
    }
    // Each edge scales once, by its smallest factor.
    clamps.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    clamps.dedup_by_key(|c| c.0);
    for &(e, t) in &clamps {
        duals[e.index()] *= t;
    }
    for &(e, _) in &clamps {
        for &v in g.edge(e) {
            sums[v.index()] = seeded_sum(g, &duals, v);
        }
    }
    let levels = warm.levels.iter().map(|&l| l.min(z)).collect();
    (duals, levels, sums)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcover_hypergraph::from_weighted_edge_lists;

    /// Each vertex's incident duals added afresh, in `E(v)` order.
    fn fresh_sums(g: &Hypergraph, duals: &[f64]) -> Vec<u64> {
        g.vertices()
            .map(|v| {
                let incident = g.incident_edges(v).iter();
                incident.map(|e| duals[e.index()]).sum::<f64>().to_bits()
            })
            .collect()
    }

    #[test]
    fn clamping_restores_packing_feasibility() {
        // Vertex 0 (weight 4) sees duals 3 + 3 = 6 > 4: both incident
        // edges scale by 4/6; vertex 1 (weight 10) stays feasible.
        let g = from_weighted_edge_lists(&[4, 10], &[&[0, 1], &[0, 1]]).unwrap();
        let warm = WarmState::from_parts(vec![3.0, 3.0], vec![0, 0]);
        let (duals, _, _) = clamped_seed(&g, &warm, 3);
        let sum: f64 = duals.iter().sum();
        assert!(sum <= 4.0 * (1.0 + 1e-9), "clamped to the tight weight");
        assert!((duals[0] - duals[1]).abs() < 1e-15, "scaled uniformly");
    }

    #[test]
    fn clamped_sums_equal_a_fresh_pass_over_the_clamped_duals() {
        // Re-weights left three vertices over their weight: 0 (1.3 > 1),
        // 5 (1.3 > 1) and 6 (2.1 > 2). So edges 0, 1, 3, 4 and 5 scale,
        // edge 5 by the smaller of its two members' factors. Vertex 4
        // (weight 50) lies on two scaled edges with different factors;
        // vertex 2 is reached only through scaled edge 1; vertex 1 has one
        // scaled and one unscaled edge; vertex 3 only an unscaled one.
        let g = from_weighted_edge_lists(
            &[1, 50, 50, 50, 50, 1, 2],
            &[&[0, 1], &[0, 2], &[1, 3], &[4, 5], &[4, 6], &[5, 6]],
        )
        .unwrap();
        let seeded = vec![0.7, 0.6, 0.1, 0.9, 1.7, 0.4];
        let before = fresh_sums(&g, &seeded);
        let warm = WarmState::from_parts(seeded.clone(), vec![0; 7]);
        let (duals, _, sums) = clamped_seed(&g, &warm, 3);
        let scaled: Vec<usize> = (0..6).filter(|&e| duals[e] != seeded[e]).collect();
        assert_eq!(scaled, vec![0, 1, 3, 4, 5]);
        assert_eq!(duals[5], 0.4 * (1.0 / (0.9 + 0.4)), "the smaller factor");
        let sums: Vec<u64> = sums.iter().map(|s| s.to_bits()).collect();
        assert_eq!(sums, fresh_sums(&g, &duals), "bit for bit");
        for v in [0, 1, 2, 4, 5, 6] {
            assert_ne!(sums[v], before[v], "vertex {v} was summed again");
        }
        assert_eq!(sums[3], before[3], "vertex 3 kept its sum");
    }

    #[test]
    fn feasible_seeds_pass_through_bit_identically() {
        let g = from_weighted_edge_lists(&[4, 10], &[&[0, 1], &[0, 1]]).unwrap();
        let warm = WarmState::from_parts(vec![1.5, 2.5], vec![2, 1]);
        let (duals, levels, sums) = clamped_seed(&g, &warm, 5);
        assert_eq!(duals, vec![1.5, 2.5]);
        assert_eq!(levels, vec![2, 1]);
        let sums: Vec<u64> = sums.iter().map(|s| s.to_bits()).collect();
        assert_eq!(sums, fresh_sums(&g, &duals));
    }

    #[test]
    fn levels_clamp_to_z() {
        let g = from_weighted_edge_lists(&[4], &[&[0]]).unwrap();
        let warm = WarmState::from_parts(vec![0.5], vec![9]);
        let (_, levels, _) = clamped_seed(&g, &warm, 4);
        assert_eq!(levels, vec![4]);
    }
}
