//! The protocol's message vocabulary with CONGEST bit sizes.

use dcover_congest::{bits_for_value, Message};

/// Tag bits distinguishing the eleven message kinds.
const TAG_BITS: u64 = 4;

/// Messages of Algorithm MWHVC. Every payload is `O(log n)` bits under the
/// paper's assumptions (weights and degrees polynomial in `n`, level deltas
/// at most `z = O(log(f/ε))`), which the simulator's
/// [`BitBudget`](dcover_congest::BitBudget) verifies at runtime.
///
/// Degrees travel as `u32`: a hypergraph's CSR offsets are `u32`, so no
/// degree exceeds it, and the narrower field keeps a mailbox slot
/// (`Option<MwhvcMsg>`) at 24 bytes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MwhvcMsg {
    /// Round 0, vertex → edge: local weight and degree.
    WeightDeg {
        /// `w(v)`.
        weight: u64,
        /// `|E(v)|`.
        degree: u32,
    },
    /// Round 1, edge → vertex: weight and degree of the minimum-normalized-
    /// weight member `v*`, plus the resolved multiplier `α(e)` (Appendix B
    /// items 1 and 5; shipping α directly is equivalent to shipping the
    /// local maximum degree it is computed from).
    MinNorm {
        /// `w(v*)`.
        weight: u64,
        /// `|E(v*)|`.
        degree: u32,
        /// `α(e)` under the configured policy.
        alpha: u32,
    },
    /// Round 0 in a **warm-started** run, vertex → edge: weight, degree,
    /// and the level the vertex was seeded at (so edges can pre-halve
    /// their bids to match the seeded duals — the same pacing the paper's
    /// step 3d applies online).
    WeightDegWarm {
        /// `w(v)`.
        weight: u64,
        /// `|E(v)|`.
        degree: u32,
        /// The seeded level `ℓ(v)` (≤ z).
        level: u32,
    },
    /// Round 1 in a **warm-started** run, edge → vertex: like
    /// [`MinNorm`](MwhvcMsg::MinNorm) plus the total seeded halvings
    /// `Σ_{u∈e} ℓ(u)`, so every member reconstructs the identical
    /// pre-halved bid `bid₀(e)·2^{−Σℓ}` (the bid the cold protocol would
    /// have reached after the same level raises).
    MinNormWarm {
        /// `w(v*)`.
        weight: u64,
        /// `|E(v*)|`.
        degree: u32,
        /// `α(e)` under the configured policy.
        alpha: u32,
        /// Total seeded halvings `Σ_{u∈e} ℓ(u)` (≤ f·z).
        halvings: u32,
    },
    /// V1, vertex → edge: the vertex became β-tight and joined the cover
    /// (step 3a).
    Join,
    /// V1, vertex → edge: the vertex's level rose `count` times this
    /// iteration; the edge must halve its bid accordingly (step 3d).
    /// `count` is usually 0.
    LevelInc {
        /// Number of level increments (≤ z).
        count: u32,
    },
    /// E1, edge → vertex: the edge is covered and terminates (step 3b).
    Covered,
    /// E1, edge → vertex: the bid was halved `count` times in total this
    /// iteration (Appendix B item 3).
    Halved {
        /// Total halvings `Σ_{v∈e} k_v` (≤ f·z over the whole run).
        count: u32,
    },
    /// V2, vertex → edge: the vertex's bids are small enough to grow
    /// (step 3e).
    Raise,
    /// V2, vertex → edge: growing would risk the vertex's packing
    /// constraint (step 3e).
    Stuck,
    /// E2, edge → vertex: whether the bid was multiplied by α(e); the
    /// vertex then adds the (possibly raised) bid to `δ(e)` (step 3f).
    RaiseApplied {
        /// True iff every member voted `Raise`.
        raised: bool,
    },
}

impl Message for MwhvcMsg {
    fn bit_size(&self) -> u64 {
        TAG_BITS
            + match *self {
                MwhvcMsg::WeightDeg { weight, degree } => {
                    bits_for_value(weight) + bits_for_value(u64::from(degree))
                }
                MwhvcMsg::MinNorm {
                    weight,
                    degree,
                    alpha,
                } => {
                    bits_for_value(weight)
                        + bits_for_value(u64::from(degree))
                        + bits_for_value(u64::from(alpha))
                }
                MwhvcMsg::WeightDegWarm {
                    weight,
                    degree,
                    level,
                } => {
                    bits_for_value(weight)
                        + bits_for_value(u64::from(degree))
                        + bits_for_value(u64::from(level))
                }
                MwhvcMsg::MinNormWarm {
                    weight,
                    degree,
                    alpha,
                    halvings,
                } => {
                    bits_for_value(weight)
                        + bits_for_value(u64::from(degree))
                        + bits_for_value(u64::from(alpha))
                        + bits_for_value(u64::from(halvings))
                }
                MwhvcMsg::Join | MwhvcMsg::Covered | MwhvcMsg::Raise | MwhvcMsg::Stuck => 0,
                MwhvcMsg::LevelInc { count } | MwhvcMsg::Halved { count } => {
                    bits_for_value(u64::from(count))
                }
                MwhvcMsg::RaiseApplied { .. } => 1,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_scale_with_payload() {
        let small = MwhvcMsg::WeightDeg {
            weight: 1,
            degree: 1,
        };
        let big = MwhvcMsg::WeightDeg {
            weight: 1 << 40,
            degree: 1 << 20,
        };
        assert_eq!(small.bit_size(), TAG_BITS + 2);
        assert_eq!(big.bit_size(), TAG_BITS + 41 + 21);
    }

    #[test]
    fn flag_messages_are_tag_only() {
        assert_eq!(MwhvcMsg::Join.bit_size(), TAG_BITS);
        assert_eq!(MwhvcMsg::Covered.bit_size(), TAG_BITS);
        assert_eq!(MwhvcMsg::Raise.bit_size(), TAG_BITS);
        assert_eq!(MwhvcMsg::Stuck.bit_size(), TAG_BITS);
        assert_eq!(
            MwhvcMsg::RaiseApplied { raised: true }.bit_size(),
            TAG_BITS + 1
        );
    }

    #[test]
    fn count_messages_log_sized() {
        assert_eq!(MwhvcMsg::LevelInc { count: 0 }.bit_size(), TAG_BITS + 1);
        assert_eq!(MwhvcMsg::Halved { count: 1000 }.bit_size(), TAG_BITS + 10);
    }

    #[test]
    fn warm_messages_cost_their_extra_field() {
        let cold = MwhvcMsg::WeightDeg {
            weight: 9,
            degree: 4,
        };
        let warm = MwhvcMsg::WeightDegWarm {
            weight: 9,
            degree: 4,
            level: 5,
        };
        assert_eq!(warm.bit_size(), cold.bit_size() + 3);
        let cold = MwhvcMsg::MinNorm {
            weight: 9,
            degree: 4,
            alpha: 2,
        };
        let warm = MwhvcMsg::MinNormWarm {
            weight: 9,
            degree: 4,
            alpha: 2,
            halvings: 15,
        };
        assert_eq!(warm.bit_size(), cold.bit_size() + 4);
    }
}
