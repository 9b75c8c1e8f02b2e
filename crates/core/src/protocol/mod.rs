//! The distributed protocol implementing Algorithm MWHVC (§3.2, executed in
//! CONGEST per Appendix B).
//!
//! # Round schedule
//!
//! Each *iteration* of the paper's algorithm takes 4 simulator rounds, after
//! 2 initialization rounds:
//!
//! | round | sender | message | paper step |
//! |-------|--------|---------|------------|
//! | 0 | vertex | `WeightDeg{w(v), |E(v)|}` | iteration 0 collect |
//! | 1 | edge | `MinNorm{w(v*), |E(v*)|, α(e)}` | iteration 0 bid |
//! | 2 + 4k (**V1**) | vertex | `Join` or `LevelInc{k_v}` | 3a, 3d |
//! | 3 + 4k (**E1**) | edge | `Covered` or `Halved{Σ k_v}` | 3b, 3(d)ii |
//! | 4 + 4k (**V2**) | vertex | `Raise` / `Stuck` | 3c, 3e |
//! | 5 + 4k (**E2**) | edge | `RaiseApplied{bool}` | 3f |
//!
//! Dual bookkeeping lives entirely on the vertex side: every member of an
//! edge reconstructs the same `bid(e)` trajectory from the same broadcast
//! values using the *identical* floating-point operations (the helpers
//! below), so all copies agree bit-for-bit and the edge nodes never do
//! arithmetic at all — they only aggregate one-bit votes and halving counts,
//! exactly the coordination role the paper gives them.

pub(crate) mod edge;
pub(crate) mod msg;
pub(crate) mod node;
pub(crate) mod vertex;

pub use msg::MwhvcMsg;
pub use node::{build_network, build_network_warm, MwhvcNode};

/// Rounds consumed by initialization (iteration 0).
pub(crate) const INIT_ROUNDS: u64 = 2;
/// Simulator rounds per algorithm iteration.
pub(crate) const ROUNDS_PER_ITERATION: u64 = 4;

/// Phase of the 4-round iteration cycle; see the module table.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Vertex: absorb duals, β-tightness check, level increments.
    V1,
    /// Edge: covered propagation or halving aggregation.
    E1,
    /// Vertex: prune covered edges, raise/stuck decision.
    V2,
    /// Edge: all-raise detection, dual increment broadcast.
    E2,
}

impl Phase {
    /// The phase of simulator round `round` (must be ≥ [`INIT_ROUNDS`]).
    pub(crate) fn of_round(round: u64) -> Phase {
        debug_assert!(round >= INIT_ROUNDS);
        match (round - INIT_ROUNDS) % ROUNDS_PER_ITERATION {
            0 => Phase::V1,
            1 => Phase::E1,
            2 => Phase::V2,
            _ => Phase::E2,
        }
    }
}

/// Number of full iterations contained in a run of `rounds` simulator
/// rounds.
#[must_use]
pub fn iterations_of_rounds(rounds: u64) -> u64 {
    if rounds <= INIT_ROUNDS {
        0
    } else {
        (rounds - INIT_ROUNDS).div_ceil(ROUNDS_PER_ITERATION)
    }
}

/// The first bid of an edge: `bid₀(e) = w(v*) / (2·|E(v*)|)` where `v*`
/// minimizes the normalized weight (§3.2 iteration 0).
#[inline]
#[must_use]
pub(crate) fn initial_bid(weight: u64, degree: u32) -> f64 {
    debug_assert!(degree > 0);
    weight as f64 / (2.0 * f64::from(degree))
}

/// Applies `count` halvings to a bid (step 3(d)ii). All replicas use exactly
/// this function so float trajectories agree bit-for-bit.
#[inline]
#[must_use]
pub(crate) fn apply_halvings(bid: f64, count: u32) -> f64 {
    bid * 0.5_f64.powi(count as i32)
}

/// Applies the multiplicative raise (step 3f).
#[inline]
#[must_use]
pub(crate) fn apply_raise(bid: f64, alpha: u32) -> f64 {
    bid * f64::from(alpha)
}

/// `2^{-k}` with the same operation everywhere.
#[inline]
#[must_use]
pub(crate) fn pow2_neg(k: u32) -> f64 {
    0.5_f64.powi(k as i32)
}

/// Relative slack for the level-threshold comparison. Dual sums are
/// accumulated incrementally in `f64`; a drift of a few ULPs above a
/// threshold that is attained with *equality* in exact arithmetic would
/// otherwise trigger a spurious extra level increment (observable as a
/// violation of Corollary 21 in the HalfBid variant). The slack errs toward
/// leveling one iteration later, which is always safe: levels only pace bid
/// growth, and Eq. (1)'s upper bound is checked with a larger tolerance.
pub(crate) const LEVEL_SLACK: f64 = 1e-12;

/// Step 3d's loop condition, `Σδ > w·(1 − 2^{−(ℓ+1)})`, with the shared
/// slack. Every replica (distributed vertices and the centralized reference)
/// must use exactly this function.
#[inline]
#[must_use]
pub(crate) fn should_level_up(dual_sum: f64, weight: f64, level: u32) -> bool {
    dual_sum > weight * (1.0 - pow2_neg(level + 1)) * (1.0 + LEVEL_SLACK)
}

/// Exact comparison of normalized weights `w_a/d_a < w_b/d_b` via cross
/// multiplication in `u128` — avoids float ties when picking `v*`.
#[inline]
#[must_use]
pub(crate) fn norm_weight_less(wa: u64, da: u64, wb: u64, db: u64) -> bool {
    u128::from(wa) * u128::from(db) < u128::from(wb) * u128::from(da)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_cycle() {
        assert_eq!(Phase::of_round(2), Phase::V1);
        assert_eq!(Phase::of_round(3), Phase::E1);
        assert_eq!(Phase::of_round(4), Phase::V2);
        assert_eq!(Phase::of_round(5), Phase::E2);
        assert_eq!(Phase::of_round(6), Phase::V1);
    }

    #[test]
    fn iterations_of_rounds_counts_partials() {
        assert_eq!(iterations_of_rounds(0), 0);
        assert_eq!(iterations_of_rounds(2), 0);
        assert_eq!(iterations_of_rounds(3), 1); // one partial iteration
        assert_eq!(iterations_of_rounds(6), 1);
        assert_eq!(iterations_of_rounds(7), 2);
    }

    #[test]
    fn numeric_helpers() {
        assert_eq!(initial_bid(10, 5), 1.0);
        assert_eq!(apply_halvings(8.0, 3), 1.0);
        assert_eq!(apply_raise(1.5, 4), 6.0);
        assert_eq!(pow2_neg(3), 0.125);
    }

    #[test]
    fn mailbox_slot_and_node_program_stay_small() {
        let slot = std::mem::size_of::<Option<MwhvcMsg>>();
        let node = std::mem::size_of::<MwhvcNode>();
        assert!(
            slot <= 24 && node <= 56,
            "Option<MwhvcMsg> is {slot} B (limit 24) and MwhvcNode is {node} B (limit 56): \
             these two sizes set how many bytes every round moves \
             (congest.engine.slot_bytes is the mailbox slot, and each round steps \
             every live node program)"
        );
    }

    #[test]
    fn norm_weight_comparison_is_exact() {
        // 1/3 < 2/6 is false (equal); 1/3 < 2/5 is true.
        assert!(!norm_weight_less(1, 3, 2, 6));
        assert!(norm_weight_less(1, 3, 2, 5));
        assert!(!norm_weight_less(2, 5, 1, 3));
        // Huge values that would overflow u64 multiplication.
        let big = u64::MAX / 2;
        assert!(norm_weight_less(big - 1, big, big, big - 1));
    }
}
