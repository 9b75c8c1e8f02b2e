//! Runtime checkers for the paper's invariants (Claims 1, 2, 4, 20).
//!
//! Arithmetic is `f64`, so every check uses a small relative tolerance;
//! violations beyond the tolerance indicate a real bug, not rounding.

use dcover_hypergraph::Hypergraph;

use crate::observer::{IterationSnapshot, Observer};
use crate::params::{beta, z_levels};
use crate::protocol::pow2_neg;

/// Relative tolerance of [`InvariantChecker`]'s floating-point checks, and
/// the usual one to pass to [`approximation_holds`].
pub const DEFAULT_TOLERANCE: f64 = 1e-9;

/// An [`Observer`] that checks every paper invariant after every iteration
/// and records human-readable violations.
///
/// # Examples
///
/// ```
/// use dcover_core::{solve_reference, InvariantChecker, MwhvcConfig};
/// use dcover_hypergraph::from_edge_lists;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = from_edge_lists(3, &[&[0, 1], &[1, 2]])?;
/// let cfg = MwhvcConfig::new(0.5)?;
/// let mut checker = InvariantChecker::new(&g, &cfg);
/// solve_reference(&g, &cfg, &mut checker)?;
/// assert!(checker.violations().is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct InvariantChecker {
    f: u32,
    epsilon: f64,
    beta: f64,
    z: u32,
    violations: Vec<String>,
}

impl InvariantChecker {
    /// Creates a checker for `g` under `config`.
    #[must_use]
    pub fn new(g: &Hypergraph, config: &crate::MwhvcConfig) -> Self {
        let f = g.rank().max(1);
        let epsilon = config.epsilon();
        Self {
            f,
            epsilon,
            beta: beta(f, epsilon),
            z: z_levels(f, epsilon),
            violations: Vec::new(),
        }
    }

    /// The violations recorded so far (empty = all invariants held).
    #[must_use]
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    fn record(&mut self, iteration: u64, what: String) {
        if self.violations.len() < 64 {
            self.violations
                .push(format!("iteration {iteration}: {what}"));
        }
    }
}

impl Observer for InvariantChecker {
    fn on_iteration(&mut self, g: &Hypergraph, s: &IterationSnapshot<'_>) {
        let tol = DEFAULT_TOLERANCE;
        let it = s.iteration;

        // Dual feasibility (Claim 2): δ ≥ 0 and Σ_{e∋v} δ(e) ≤ w(v).
        for (ei, &d) in s.duals.iter().enumerate() {
            if d < 0.0 {
                self.record(it, format!("negative dual {d} on edge {ei}"));
            }
        }
        for v in g.vertices() {
            let w = g.weight(v) as f64;
            let sum: f64 = g
                .incident_edges(v)
                .iter()
                .map(|&e| s.duals[e.index()])
                .sum();
            if sum > w * (1.0 + tol) {
                self.record(it, format!("packing violated at {v}: {sum} > {w}"));
            }
            // The incrementally-maintained dual_sums must agree with a fresh
            // summation (same additions in the same order -> tight bound).
            let tracked = s.dual_sums[v.index()];
            if (tracked - sum).abs() > (w.max(1.0)) * tol {
                self.record(
                    it,
                    format!("dual_sum drift at {v}: tracked {tracked}, fresh {sum}"),
                );
            }
        }

        // Claim 4: levels stay below z.
        for (vi, &l) in s.levels.iter().enumerate() {
            if l >= self.z && s.active[vi] {
                self.record(
                    it,
                    format!("active vertex v{vi} reached level {l} ≥ z = {}", self.z),
                );
            }
        }

        // Eq. (1) sandwich for active vertices (holds from iteration 1 on):
        // w(1 − 2^{−ℓ_i}) ≤ Σ δ_{i−1} ≤ w(1 − 2^{−(ℓ_i+1)}) — the levels
        // just updated, against the duals they were updated from.
        if it >= 1 {
            for v in g.vertices() {
                let vi = v.index();
                if !s.active[vi] {
                    continue;
                }
                let w = g.weight(v) as f64;
                let sum = s.prev_dual_sums[vi];
                let lo = w * (1.0 - pow2_neg(s.levels[vi]));
                let hi = w * (1.0 - pow2_neg(s.levels[vi] + 1));
                if sum < lo - w * tol || sum > hi + w * tol {
                    self.record(
                        it,
                        format!(
                            "Eq.(1) violated at {v}: {lo} ≤ {sum} ≤ {hi} fails (level {})",
                            s.levels[vi]
                        ),
                    );
                }
            }
        }

        // Claim 1: Σ_{e∈E'(v)} bid(e) ≤ 2^{−(ℓ+1)}·w(v) for v ∉ C.
        for v in g.vertices() {
            let vi = v.index();
            if s.in_cover[vi] || !s.active[vi] {
                continue;
            }
            let w = g.weight(v) as f64;
            let bid_sum: f64 = g
                .incident_edges(v)
                .iter()
                .filter(|&&e| !s.edge_covered[e.index()])
                .map(|&e| s.bids[e.index()])
                .sum();
            let cap = pow2_neg(s.levels[vi] + 1) * w;
            if bid_sum > cap * (1.0 + tol) {
                self.record(
                    it,
                    format!("Claim 1 violated at {v}: bids {bid_sum} > {cap}"),
                );
            }
        }

        // Claim 20 precondition: every cover member is β-tight.
        for v in g.vertices() {
            let vi = v.index();
            if !s.in_cover[vi] {
                continue;
            }
            let w = g.weight(v) as f64;
            if s.dual_sums[vi] < (1.0 - self.beta) * w * (1.0 - tol) {
                self.record(
                    it,
                    format!(
                        "cover member {v} is not β-tight: {} < {}",
                        s.dual_sums[vi],
                        (1.0 - self.beta) * w
                    ),
                );
            }
        }

        let _ = (self.f, self.epsilon); // retained for diagnostics
    }
}

/// Checks the end-to-end approximation guarantee of Corollary 3 /
/// Claim 20: `w(C) ≤ (f + ε) · Σ_e δ(e)` (the right side lower-bounds
/// `(f + ε) · OPT_fractional`).
#[must_use]
pub fn approximation_holds(
    g: &Hypergraph,
    cover_weight: u64,
    dual_total: f64,
    epsilon: f64,
    tolerance: f64,
) -> bool {
    if cover_weight == 0 {
        return true;
    }
    let f = g.rank().max(1) as f64;
    cover_weight as f64 <= (f + epsilon) * dual_total * (1.0 + tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::Observer;
    use crate::reference::solve_reference;
    use crate::MwhvcConfig;
    use dcover_hypergraph::from_edge_lists;
    use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clean_run_has_no_violations() {
        let mut rng = StdRng::seed_from_u64(55);
        for (f, eps) in [(2usize, 1.0), (3, 0.4), (5, 0.1)] {
            let g = random_uniform(
                &RandomUniform {
                    n: 40,
                    m: 100,
                    rank: f,
                    weights: WeightDist::Uniform { min: 1, max: 64 },
                },
                &mut rng,
            );
            let cfg = MwhvcConfig::new(eps).unwrap();
            let mut checker = InvariantChecker::new(&g, &cfg);
            let r = solve_reference(&g, &cfg, &mut checker).unwrap();
            assert!(
                checker.violations().is_empty(),
                "violations: {:?}",
                checker.violations()
            );
            assert!(approximation_holds(
                &g,
                r.weight,
                r.dual_total,
                eps,
                DEFAULT_TOLERANCE
            ));
        }
    }

    #[test]
    fn checker_detects_bad_duals() {
        let g = from_edge_lists(2, &[&[0, 1]]).unwrap();
        let cfg = MwhvcConfig::new(0.5).unwrap();
        let mut checker = InvariantChecker::new(&g, &cfg);
        // A snapshot with an infeasible dual (w = 1, δ = 5).
        let snap = crate::observer::IterationSnapshot {
            iteration: 1,
            levels: &[0, 0],
            duals: &[5.0],
            bids: &[0.1],
            edge_covered: &[false],
            in_cover: &[false, false],
            active: &[true, true],
            dual_sums: &[5.0, 5.0],
            prev_dual_sums: &[5.0, 5.0],
        };
        checker.on_iteration(&g, &snap);
        assert!(!checker.violations().is_empty());
    }

    #[test]
    fn checker_detects_non_tight_cover_member() {
        let g = from_edge_lists(2, &[&[0, 1]]).unwrap();
        let cfg = MwhvcConfig::new(0.5).unwrap();
        let mut checker = InvariantChecker::new(&g, &cfg);
        let snap = crate::observer::IterationSnapshot {
            iteration: 1,
            levels: &[0, 0],
            duals: &[0.1],
            bids: &[0.05],
            edge_covered: &[true],
            in_cover: &[true, false],
            active: &[false, false],
            dual_sums: &[0.1, 0.1],
            prev_dual_sums: &[0.1, 0.1],
        };
        checker.on_iteration(&g, &snap);
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.contains("not β-tight")));
    }

    #[test]
    fn approximation_helper() {
        let g = from_edge_lists(2, &[&[0, 1]]).unwrap();
        assert!(approximation_holds(&g, 0, 0.0, 0.5, 1e-9));
        assert!(approximation_holds(&g, 2, 1.0, 0.5, 1e-9)); // 2 ≤ 2.5·1
        assert!(!approximation_holds(&g, 3, 1.0, 0.5, 1e-9)); // 3 > 2.5
    }
}
