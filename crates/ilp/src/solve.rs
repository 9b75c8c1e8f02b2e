//! End-to-end distributed solving of covering ILPs (Claim 15 / Theorem 19):
//! binary expansion → zero-one reduction → Algorithm MWHVC → lift.

use dcover_core::{CoverResult, MwhvcConfig, MwhvcSolver};

use crate::binary::expand_binary;
use crate::error::IlpError;
use crate::ilp::CoveringIlp;
use crate::zero_one::{reduce_zero_one, ZeroOneStats, DEFAULT_MAX_SUPPORT};

/// Result of a distributed covering-ILP solve.
#[derive(Clone, Debug)]
pub struct IlpOutcome {
    /// The integral assignment (feasible by construction).
    pub assignment: Vec<u64>,
    /// `wᵀ·assignment`.
    pub cost: u64,
    /// Bits per original variable used by the Claim 18 expansion
    /// (`B = ⌊log₂ M⌋ + 1`).
    pub bits_per_var: u32,
    /// Lemma 14 reduction statistics (rank and degree of the MWHVC
    /// instance determine the round complexity via Theorem 19).
    pub zo_stats: ZeroOneStats,
    /// The underlying MWHVC run on the reduced hypergraph.
    pub mwhvc: CoverResult,
    /// Modeled CONGEST rounds on the *ILP's own* communication network
    /// `N(ILP)`: the hypergraph protocol is simulated by the variable/
    /// constraint nodes at `O(1 + f(A)/log n)` network rounds per protocol
    /// round (Claim 15).
    pub claim15_rounds: u64,
}

impl IlpOutcome {
    /// Certified upper bound on the approximation ratio versus the ILP
    /// optimum: `cost / Σδ`, where the duals of the reduced MWHVC instance
    /// lower-bound its fractional optimum, which in turn lower-bounds the
    /// integral ILP optimum (Proposition 17 + Lemma 14 + Claim 18 preserve
    /// optima).
    #[must_use]
    pub fn certified_ratio(&self) -> f64 {
        if self.cost == 0 {
            1.0
        } else {
            self.cost as f64 / self.mwhvc.dual_total
        }
    }
}

/// Distributed `(rank + ε)`-certified solver for covering ILPs.
///
/// The guarantee certified by the dual at runtime is `rank(H) + ε` where
/// `rank(H) ≤ f(A)·(⌊log₂ M⌋+1)` is the reduced hypergraph's rank; the
/// paper's refined analysis states `f + ε` (Theorem 19) — the
/// `ilp_reduction` bench reports measured ratios against both.
///
/// # Examples
///
/// ```
/// use dcover_core::MwhvcConfig;
/// use dcover_ilp::{IlpBuilder, IlpSolver};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // minimize 3x + y  s.t.  x + y ≥ 3, 2x ≥ 1
/// let mut b = IlpBuilder::new();
/// let x = b.add_variable(3);
/// let y = b.add_variable(1);
/// b.add_constraint([(x, 1), (y, 1)], 3)?;
/// b.add_constraint([(x, 2)], 1)?;
/// let ilp = b.build();
///
/// let outcome = IlpSolver::new(MwhvcConfig::new(0.5)?).solve(&ilp)?;
/// assert!(ilp.is_feasible(&outcome.assignment));
/// assert!(outcome.assignment[0] >= 1); // 2x ≥ 1 forces x ≥ 1
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct IlpSolver {
    config: MwhvcConfig,
    max_support: usize,
}

impl IlpSolver {
    /// Creates a solver running Algorithm MWHVC with `config` on the
    /// reduced instance.
    #[must_use]
    pub fn new(config: MwhvcConfig) -> Self {
        Self {
            config,
            max_support: DEFAULT_MAX_SUPPORT,
        }
    }

    /// Overrides the maximum expanded row support accepted by the zero-one
    /// reduction (which enumerates `2^support` subsets per constraint).
    #[must_use]
    pub fn with_max_support(mut self, max_support: usize) -> Self {
        self.max_support = max_support;
        self
    }

    /// Solves the ILP distributively.
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::Infeasible`] / [`IlpError::SupportTooLarge`] from
    /// the reductions, or a wrapped solve error from the MWHVC run.
    pub fn solve(&self, ilp: &CoveringIlp) -> Result<IlpOutcome, IlpError> {
        let expansion = expand_binary(ilp)?;
        let reduction = reduce_zero_one(&expansion.zero_one, self.max_support)?;
        let mwhvc = MwhvcSolver::new(self.config.clone()).solve(&reduction.hypergraph)?;
        let bits = reduction.assignment_from_cover(&mwhvc.cover);
        let assignment = expansion.lift(&bits);
        debug_assert!(
            ilp.is_feasible(&assignment),
            "lifted assignment must satisfy the ILP"
        );
        let cost = ilp.cost(&assignment);
        debug_assert_eq!(cost, mwhvc.weight, "objective preserved by the reductions");

        // Claim 15 cost model on N(ILP): per protocol round, each variable
        // node relays O(f(A)) bits of votes/levels, i.e. ⌈1 + f(A)/log n⌉
        // network rounds under the CONGEST budget.
        let log_n = (usize::BITS - ilp.num_variables().max(2).leading_zeros()) as u64;
        let factor_num = log_n + u64::from(ilp.row_support());
        let claim15_rounds = mwhvc.report.rounds * factor_num / log_n.max(1)
            + u64::from(!(mwhvc.report.rounds * factor_num).is_multiple_of(log_n.max(1)));

        Ok(IlpOutcome {
            assignment,
            cost,
            bits_per_var: expansion.bits_per_var,
            zo_stats: reduction.stats,
            mwhvc,
            claim15_rounds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::solve_ilp_exact;
    use crate::generators::{random_ilp, RandomIlp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn solver(eps: f64) -> IlpSolver {
        IlpSolver::new(MwhvcConfig::new(eps).unwrap())
    }

    #[test]
    fn zero_one_instances_near_optimal() {
        let mut rng = StdRng::seed_from_u64(101);
        let cfg = RandomIlp {
            n: 14,
            m: 20,
            row_support: 3,
            coeff_max: 3,
            b_max: 6,
            weight_max: 8,
            zero_one: true,
        };
        for trial in 0..4 {
            let ilp = random_ilp(&cfg, &mut rng);
            let out = solver(0.5).solve(&ilp).unwrap();
            assert!(ilp.is_feasible(&out.assignment), "trial {trial}");
            let exact = solve_ilp_exact(&ilp, 50_000_000);
            assert!(exact.optimal);
            // Sound certificate, and the certificate bounds the true ratio.
            let bound = f64::from(out.zo_stats.rank) + 0.5;
            assert!(
                out.cost as f64 <= bound * exact.cost as f64 + 1e-9,
                "trial {trial}: cost {} vs OPT {} (rank {})",
                out.cost,
                exact.cost,
                out.zo_stats.rank
            );
            assert!(out.certified_ratio() >= out.cost as f64 / exact.cost as f64 - 1e-9);
        }
    }

    #[test]
    fn general_ilp_end_to_end() {
        let mut rng = StdRng::seed_from_u64(102);
        let cfg = RandomIlp {
            n: 8,
            m: 10,
            row_support: 2,
            coeff_max: 3,
            b_max: 10,
            weight_max: 6,
            zero_one: false,
        };
        for trial in 0..4 {
            let ilp = random_ilp(&cfg, &mut rng);
            let out = solver(0.5).solve(&ilp).unwrap();
            assert!(ilp.is_feasible(&out.assignment), "trial {trial}");
            assert!(out.bits_per_var >= 1);
            let exact = solve_ilp_exact(&ilp, 50_000_000);
            assert!(exact.optimal, "trial {trial}");
            let bound = f64::from(out.zo_stats.rank) + 0.5;
            assert!(
                out.cost as f64 <= bound * exact.cost as f64 + 1e-9,
                "trial {trial}: cost {} vs OPT {}",
                out.cost,
                exact.cost
            );
        }
    }

    #[test]
    fn forced_variables_respected() {
        // 4x ≥ 7 forces x ≥ 2.
        let mut b = crate::ilp::IlpBuilder::new();
        let x = b.add_variable(1);
        b.add_constraint([(x, 4)], 7).unwrap();
        let out = solver(1.0).solve(&b.build()).unwrap();
        assert!(out.assignment[0] >= 2);
    }

    #[test]
    fn claim15_model_at_least_raw_rounds() {
        let mut rng = StdRng::seed_from_u64(103);
        let cfg = RandomIlp {
            n: 12,
            m: 14,
            row_support: 3,
            coeff_max: 2,
            b_max: 4,
            weight_max: 4,
            zero_one: true,
        };
        let ilp = random_ilp(&cfg, &mut rng);
        let out = solver(0.5).solve(&ilp).unwrap();
        assert!(out.claim15_rounds >= out.mwhvc.report.rounds);
    }

    #[test]
    fn infeasible_rejected() {
        let mut b = crate::ilp::IlpBuilder::new();
        let x = b.add_variable(1);
        b.add_constraint([(x, 0)], 5).unwrap();
        assert!(matches!(
            solver(0.5).solve(&b.build()),
            Err(IlpError::Infeasible { .. })
        ));
    }
}
