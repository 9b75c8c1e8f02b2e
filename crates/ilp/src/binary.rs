//! Claim 18: general covering ILPs reduce to zero-one covering programs by
//! binary expansion.
//!
//! By Proposition 17, restricting every variable to the box `[0, M]` with
//! `M = M(A, b)` preserves the optimum. Each variable `x_j` is replaced by
//! `B = ⌊log₂ M⌋ + 1` binary variables `x_{j,ℓ}` with
//! `x_j = Σ_ℓ 2^ℓ·x_{j,ℓ}`; column `j` of `A` becomes `B` columns scaled by
//! `2^ℓ`, and the objective weights scale the same way. The expanded
//! program has `f(A') ≤ f(A)·B` and `Δ(A') = Δ(A)`.

use crate::error::IlpError;
use crate::ilp::{CoveringIlp, IlpBuilder};

/// A general covering ILP expanded into a zero-one covering program.
#[derive(Clone, Debug)]
pub struct BinaryExpansion {
    /// The zero-one program over `n·B` bit-variables; bit `(j, ℓ)` has
    /// index `j·B + ℓ`.
    pub zero_one: CoveringIlp,
    /// Bits per original variable, `B = ⌊log₂ M⌋ + 1`.
    pub bits_per_var: u32,
    n_orig: usize,
}

impl BinaryExpansion {
    /// Reassembles an original-space assignment from a binary assignment of
    /// the expanded program: `x_j = Σ_ℓ 2^ℓ·bit_{j,ℓ}`.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != n·B`.
    #[must_use]
    pub fn lift(&self, bits: &[u64]) -> Vec<u64> {
        let b = self.bits_per_var as usize;
        assert_eq!(
            bits.len(),
            self.n_orig * b,
            "bit assignment length mismatch"
        );
        (0..self.n_orig)
            .map(|j| (0..b).map(|l| bits[j * b + l].min(1) << l).sum())
            .collect()
    }
}

/// Expands a covering ILP into an equivalent zero-one covering program
/// (Claim 18).
///
/// # Errors
///
/// Returns [`IlpError::Infeasible`] if some constraint has an empty support
/// (unsatisfiable by any `x`).
pub fn expand_binary(ilp: &CoveringIlp) -> Result<BinaryExpansion, IlpError> {
    ilp.check_feasible()?;
    let m_box = ilp.coefficient_box();
    let b = (64 - m_box.leading_zeros()).max(1); // ⌊log₂ M⌋ + 1
    let mut out = IlpBuilder::new();
    for &w in ilp.weights() {
        for l in 0..b {
            out.add_variable(w << l);
        }
    }
    for i in 0..ilp.num_constraints() {
        let (terms, bi) = ilp.constraint(i);
        let expanded: Vec<(usize, u64)> = terms
            .iter()
            .flat_map(|&(j, c)| (0..b).map(move |l| (j * b as usize + l as usize, c << l)))
            .collect();
        out.add_constraint(expanded, bi)
            .expect("expanded indices are in range");
    }
    Ok(BinaryExpansion {
        zero_one: out.build(),
        bits_per_var: b,
        n_orig: ilp.num_variables(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CoveringIlp {
        // minimize 2x + y  s.t.  x + y ≥ 5, 3x ≥ 2
        let mut bld = IlpBuilder::new();
        let x = bld.add_variable(2);
        let y = bld.add_variable(1);
        bld.add_constraint([(x, 1), (y, 1)], 5).unwrap();
        bld.add_constraint([(x, 3)], 2).unwrap();
        bld.build()
    }

    #[test]
    fn expansion_shapes() {
        let ilp = sample();
        assert_eq!(ilp.coefficient_box(), 5);
        let exp = expand_binary(&ilp).unwrap();
        assert_eq!(exp.bits_per_var, 3); // ⌊log₂ 5⌋ + 1
        assert_eq!(exp.zero_one.num_variables(), 6);
        assert_eq!(exp.zero_one.num_constraints(), 2);
        // f(A') = f(A)·B for the first constraint (2 vars × 3 bits).
        assert_eq!(exp.zero_one.row_support(), 6);
        // Δ(A') = Δ(A).
        assert_eq!(exp.zero_one.column_support(), ilp.column_support());
        // Bit weights scale: x's bits weigh 2, 4, 8.
        assert_eq!(&exp.zero_one.weights()[0..3], &[2, 4, 8]);
    }

    #[test]
    fn lift_reassembles_values() {
        let exp = expand_binary(&sample()).unwrap();
        // x = 1·1 + 0·2 + 1·4 = 5, y = 0 + 1·2 + 0 = 2.
        let bits = vec![1, 0, 1, 0, 1, 0];
        assert_eq!(exp.lift(&bits), vec![5, 2]);
    }

    #[test]
    fn feasibility_is_preserved_exhaustively() {
        let ilp = sample();
        let exp = expand_binary(&ilp).unwrap();
        let nb = exp.zero_one.num_variables();
        for mask in 0u32..(1 << nb) {
            let bits: Vec<u64> = (0..nb).map(|t| u64::from(mask >> t & 1)).collect();
            let x = exp.lift(&bits);
            assert_eq!(
                exp.zero_one.is_feasible(&bits),
                ilp.is_feasible(&x),
                "mismatch at mask {mask:06b} -> x = {x:?}"
            );
            assert_eq!(exp.zero_one.cost(&bits), ilp.cost(&x));
        }
    }

    #[test]
    fn box_covers_optimum() {
        // The all-ones bit assignment reaches ≥ M on every variable, so the
        // expanded program is feasible whenever the original is.
        let ilp = sample();
        let exp = expand_binary(&ilp).unwrap();
        let ones = vec![1u64; exp.zero_one.num_variables()];
        assert!(exp.zero_one.is_feasible(&ones));
    }

    #[test]
    fn zero_one_input_gets_single_bit() {
        let mut bld = IlpBuilder::new();
        let x = bld.add_variable(1);
        let y = bld.add_variable(1);
        bld.add_constraint([(x, 1), (y, 2)], 1).unwrap();
        let ilp = bld.build();
        assert_eq!(ilp.coefficient_box(), 1);
        let exp = expand_binary(&ilp).unwrap();
        assert_eq!(exp.bits_per_var, 1);
        assert_eq!(exp.zero_one.num_variables(), 2);
    }
}
