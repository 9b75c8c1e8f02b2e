//! Lemma 14: zero-one covering programs reduce to MWHVC.
//!
//! For each constraint `Aᵢ·x ≥ bᵢ` with support `σᵢ`, a subset `S ⊆ σᵢ`
//! *fails* if setting exactly the variables of `S` to one leaves the
//! constraint unsatisfied (`Σ_{j∈S} Aᵢⱼ < bᵢ`). The constraint holds iff for
//! every failing `S` at least one variable of `σᵢ \ S` is one — i.e. the
//! hyperedge `σᵢ \ S` must be covered. Keeping only **maximal** failing
//! subsets yields the minimal hyperedges (supersets are implied), which is
//! sound and shrinks the instance; even so the reduction is exponential in
//! the row support, exactly as Lemma 14's `Δ' < 2^{f(A)}·Δ(A)` bound says.

use std::collections::BTreeSet;

use dcover_hypergraph::{Cover, Hypergraph, HypergraphBuilder, VertexId};

use crate::error::IlpError;
use crate::ilp::CoveringIlp;

/// Default cap on the (expanded) row support; `2^support` subsets are
/// enumerated per constraint.
pub const DEFAULT_MAX_SUPPORT: usize = 24;

/// Statistics of a zero-one reduction (Lemma 14 quantities).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ZeroOneStats {
    /// Hyperedges before maximal-failing-subset pruning and deduplication.
    pub edges_enumerated: usize,
    /// Hyperedges in the final hypergraph.
    pub edges_kept: usize,
    /// Rank `f'` of the hypergraph (Lemma 14: `f' < f(A)`... at most the
    /// largest support minus nothing — the empty failing set yields `σᵢ`
    /// itself, so `f' ≤ f(A)`).
    pub rank: u32,
    /// Maximum degree `Δ'` (Lemma 14: `Δ' < 2^{f(A)}·Δ(A)`).
    pub max_degree: u32,
}

/// The result of reducing a zero-one program: a hypergraph whose vertex `j`
/// is the program's variable `j`.
#[derive(Clone, Debug)]
pub struct ZeroOneReduction {
    /// The MWHVC instance.
    pub hypergraph: Hypergraph,
    /// Reduction statistics.
    pub stats: ZeroOneStats,
}

impl ZeroOneReduction {
    /// Interprets a vertex cover of the reduced hypergraph as a binary
    /// assignment.
    #[must_use]
    pub fn assignment_from_cover(&self, cover: &Cover) -> Vec<u64> {
        (0..self.hypergraph.n())
            .map(|j| u64::from(cover.contains(VertexId::new(j))))
            .collect()
    }
}

/// Reduces a zero-one covering program to an MWHVC instance (Lemma 14),
/// treating every variable of `ilp` as binary.
///
/// # Errors
///
/// * [`IlpError::Infeasible`] if some constraint fails even with all
///   variables at one;
/// * [`IlpError::SupportTooLarge`] if a constraint's support exceeds
///   `max_support` (the enumeration is `2^support`).
pub fn reduce_zero_one(
    ilp: &CoveringIlp,
    max_support: usize,
) -> Result<ZeroOneReduction, IlpError> {
    let mut b = HypergraphBuilder::new();
    for &w in ilp.weights() {
        b.add_vertex(w);
    }

    let mut seen: BTreeSet<Vec<u32>> = BTreeSet::new();
    let mut enumerated = 0usize;
    for i in 0..ilp.num_constraints() {
        let (terms, bi) = ilp.constraint(i);
        let k = terms.len();
        if k > max_support {
            return Err(IlpError::SupportTooLarge {
                constraint: i,
                support: k,
                limit: max_support,
            });
        }
        let total: u128 = terms.iter().map(|&(_, c)| u128::from(c)).sum();
        if total < u128::from(bi) {
            return Err(IlpError::Infeasible { constraint: i });
        }
        // Enumerate failing subsets by their complement mask: subset S
        // fails iff sum(S) < b iff sum(σ\S) > total − b. We need the
        // hyperedges σᵢ\S for *maximal* failing S = *minimal* complements.
        let mut minimal_complements: Vec<u64> = Vec::new();
        for mask in 0u64..(1u64 << k) {
            let sum: u128 = (0..k)
                .filter(|&t| mask >> t & 1 == 1)
                .map(|t| u128::from(terms[t].1))
                .sum();
            // mask = complement σ\S; S fails iff total − sum(mask) < b.
            if total - sum >= u128::from(bi) {
                continue; // S satisfies; no edge needed
            }
            enumerated += 1;
            // Keep only minimal masks (no kept mask is a subset of it).
            #[expect(
                clippy::manual_contains,
                reason = "`kept & mask == kept` tests subset-ness, not equality; \
                          `contains` would change the meaning"
            )]
            if minimal_complements.iter().any(|&kept| kept & mask == kept) {
                continue;
            }
            minimal_complements.retain(|&kept| kept & mask != mask);
            minimal_complements.push(mask);
        }
        for mask in minimal_complements {
            debug_assert!(mask != 0, "feasibility rules out empty hyperedges");
            let mut members: Vec<u32> = (0..k)
                .filter(|&t| mask >> t & 1 == 1)
                .map(|t| terms[t].0 as u32)
                .collect();
            members.sort_unstable();
            if seen.insert(members.clone()) {
                b.add_edge(members.into_iter().map(|j| VertexId::new(j as usize)))
                    .expect("reduction produces valid edges");
            }
        }
    }

    let hypergraph = b.build().expect("reduction produces a valid hypergraph");
    let stats = ZeroOneStats {
        edges_enumerated: enumerated,
        edges_kept: hypergraph.m(),
        rank: hypergraph.rank(),
        max_degree: hypergraph.max_degree(),
    };
    Ok(ZeroOneReduction { hypergraph, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilp::IlpBuilder;

    /// x + y ≥ 1 is vertex cover of a single edge {x, y}.
    #[test]
    fn simple_or_constraint() {
        let mut b = IlpBuilder::new();
        let x = b.add_variable(1);
        let y = b.add_variable(2);
        b.add_constraint([(x, 1), (y, 1)], 1).unwrap();
        let r = reduce_zero_one(&b.build(), 24).unwrap();
        assert_eq!(r.hypergraph.m(), 1);
        assert_eq!(r.hypergraph.edge_size(dcover_hypergraph::EdgeId::new(0)), 2);
        assert_eq!(r.stats.rank, 2);
    }

    /// 2x + y ≥ 2: satisfied iff x = 1 or y... x=0,y=1 gives 1 < 2 — fails.
    /// So the constraint forces x = 1: hyperedge {x} only (maximal failing
    /// subset is {y}).
    #[test]
    fn forcing_constraint() {
        let mut b = IlpBuilder::new();
        let x = b.add_variable(1);
        let y = b.add_variable(1);
        b.add_constraint([(x, 2), (y, 1)], 2).unwrap();
        let r = reduce_zero_one(&b.build(), 24).unwrap();
        // Minimal hyperedge: {x}. ({x,y} from S=∅ is pruned as implied.)
        assert_eq!(r.hypergraph.m(), 1);
        let e = dcover_hypergraph::EdgeId::new(0);
        assert_eq!(r.hypergraph.edge(e), &[VertexId::new(0)]);
    }

    /// x + y + z ≥ 2 (take at least two of three): failing maximal subsets
    /// are the singletons, so hyperedges are all pairs.
    #[test]
    fn at_least_two_of_three() {
        let mut b = IlpBuilder::new();
        let vars: Vec<usize> = (0..3).map(|_| b.add_variable(1)).collect();
        b.add_constraint(vars.iter().map(|&v| (v, 1)), 2).unwrap();
        let r = reduce_zero_one(&b.build(), 24).unwrap();
        assert_eq!(r.hypergraph.m(), 3);
        assert_eq!(r.stats.rank, 2);
    }

    #[test]
    fn cover_satisfies_constraints_exhaustively() {
        // Exhaustively verify the Lemma 14 equivalence on a small program:
        // x is feasible ⇔ x's support is a vertex cover.
        let mut b = IlpBuilder::new();
        let vars: Vec<usize> = (0..4).map(|i| b.add_variable(i as u64 + 1)).collect();
        b.add_constraint([(vars[0], 3), (vars[1], 2), (vars[2], 1)], 4)
            .unwrap();
        b.add_constraint([(vars[1], 1), (vars[3], 2)], 2).unwrap();
        let ilp = b.build();
        let r = reduce_zero_one(&ilp, 24).unwrap();
        for mask in 0u32..16 {
            let x: Vec<u64> = (0..4).map(|j| u64::from(mask >> j & 1)).collect();
            let cover = Cover::from_ids(4, (0..4).filter(|&j| x[j] == 1).map(VertexId::new));
            assert_eq!(
                ilp.is_feasible(&x),
                cover.is_cover_of(&r.hypergraph),
                "mismatch at mask {mask:04b}"
            );
        }
    }

    #[test]
    fn infeasible_zero_one_detected() {
        let mut b = IlpBuilder::new();
        let x = b.add_variable(1);
        b.add_constraint([(x, 1)], 2).unwrap();
        assert_eq!(
            reduce_zero_one(&b.build(), 24).unwrap_err(),
            IlpError::Infeasible { constraint: 0 }
        );
    }

    #[test]
    fn support_cap_enforced() {
        let mut b = IlpBuilder::new();
        let vars: Vec<usize> = (0..6).map(|_| b.add_variable(1)).collect();
        b.add_constraint(vars.iter().map(|&v| (v, 1)), 3).unwrap();
        assert!(matches!(
            reduce_zero_one(&b.build(), 5).unwrap_err(),
            IlpError::SupportTooLarge {
                constraint: 0,
                support: 6,
                limit: 5
            }
        ));
    }

    #[test]
    fn degree_bound_of_lemma14() {
        // Δ' < 2^{f(A)}·Δ(A).
        let mut b = IlpBuilder::new();
        let vars: Vec<usize> = (0..5).map(|_| b.add_variable(1)).collect();
        for i in 0..4 {
            b.add_constraint([(vars[i], 1), (vars[i + 1], 2), (vars[(i + 2) % 5], 1)], 3)
                .unwrap();
        }
        let ilp = b.build();
        let r = reduce_zero_one(&ilp, 24).unwrap();
        let bound = (1u64 << ilp.row_support()) * u64::from(ilp.column_support());
        assert!(u64::from(r.stats.max_degree) < bound);
        assert!(r.stats.rank <= ilp.row_support());
    }
}
