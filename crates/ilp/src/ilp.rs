//! Covering integer linear programs (§5 of the paper).
//!
//! `ILP(A, b, w)`: minimize `wᵀx` subject to `A·x ≥ b`, `x ∈ Nⁿ`, with all
//! entries of `A`, `b`, `w` non-negative (Definition 13). Integer data
//! throughout — the reductions and feasibility checks are exact.

use crate::error::IlpError;

/// A covering ILP in sparse row (constraint) form.
///
/// # Examples
///
/// ```
/// use dcover_ilp::IlpBuilder;
///
/// # fn main() -> Result<(), dcover_ilp::IlpError> {
/// // minimize 3x + 2y + z  s.t.  2x + y ≥ 3,  y + 4z ≥ 4
/// let mut b = IlpBuilder::new();
/// let x = b.add_variable(3);
/// let y = b.add_variable(2);
/// let z = b.add_variable(1);
/// b.add_constraint([(x, 2), (y, 1)], 3)?;
/// b.add_constraint([(y, 1), (z, 4)], 4)?;
/// let ilp = b.build();
/// assert_eq!(ilp.num_variables(), 3);
/// assert_eq!(ilp.num_constraints(), 2);
/// assert_eq!(ilp.row_support(), 2);      // f(A)
/// assert_eq!(ilp.column_support(), 2);   // Δ(A): y appears twice
/// assert_eq!(ilp.coefficient_box(), 4);  // M = max ⌈b_i / A_ij⌉ = ⌈4/1⌉
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoveringIlp {
    weights: Vec<u64>,
    row_offsets: Vec<u32>,
    row_vars: Vec<u32>,
    row_coeffs: Vec<u64>,
    b: Vec<u64>,
}

/// Builder for [`CoveringIlp`].
#[derive(Clone, Debug, Default)]
pub struct IlpBuilder {
    weights: Vec<u64>,
    rows: Vec<(Vec<(u32, u64)>, u64)>,
}

impl IlpBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with objective weight `w` (must be positive) and
    /// returns its index.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn add_variable(&mut self, w: u64) -> usize {
        assert!(w > 0, "objective weights must be positive");
        self.weights.push(w);
        self.weights.len() - 1
    }

    /// Adds the covering constraint `Σ coeff·x_var ≥ b`. Zero coefficients
    /// are dropped; repeated variables have their coefficients summed;
    /// constraints with `b == 0` are trivially satisfied and dropped.
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::UnknownVariable`] for out-of-range indices.
    pub fn add_constraint<I>(&mut self, terms: I, b: u64) -> Result<(), IlpError>
    where
        I: IntoIterator<Item = (usize, u64)>,
    {
        let constraint = self.rows.len();
        let mut row: Vec<(u32, u64)> = Vec::new();
        for (var, coeff) in terms {
            if var >= self.weights.len() {
                return Err(IlpError::UnknownVariable {
                    constraint,
                    variable: var,
                });
            }
            if coeff == 0 {
                continue;
            }
            match row.iter_mut().find(|(v, _)| *v == var as u32) {
                Some((_, c)) => *c += coeff,
                None => row.push((var as u32, coeff)),
            }
        }
        if b == 0 {
            return Ok(()); // trivially satisfied
        }
        row.sort_by_key(|&(v, _)| v);
        self.rows.push((row, b));
        Ok(())
    }

    /// Finalizes the program.
    #[must_use]
    pub fn build(self) -> CoveringIlp {
        let mut row_offsets = Vec::with_capacity(self.rows.len() + 1);
        let mut row_vars = Vec::new();
        let mut row_coeffs = Vec::new();
        let mut b = Vec::with_capacity(self.rows.len());
        row_offsets.push(0u32);
        for (row, bi) in self.rows {
            for (v, c) in row {
                row_vars.push(v);
                row_coeffs.push(c);
            }
            row_offsets.push(row_vars.len() as u32);
            b.push(bi);
        }
        CoveringIlp {
            weights: self.weights,
            row_offsets,
            row_vars,
            row_coeffs,
            b,
        }
    }
}

impl CoveringIlp {
    /// Number of variables `n`.
    #[must_use]
    pub fn num_variables(&self) -> usize {
        self.weights.len()
    }

    /// Number of constraints `m`.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.b.len()
    }

    /// Objective weights, indexed by variable.
    #[must_use]
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// The terms `(variable, coefficient)` of constraint `i` (support σᵢ).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn constraint(&self, i: usize) -> (Vec<(usize, u64)>, u64) {
        let lo = self.row_offsets[i] as usize;
        let hi = self.row_offsets[i + 1] as usize;
        (
            (lo..hi)
                .map(|k| (self.row_vars[k] as usize, self.row_coeffs[k]))
                .collect(),
            self.b[i],
        )
    }

    /// `f(A)`: maximum number of variables in a constraint.
    #[must_use]
    pub fn row_support(&self) -> u32 {
        (0..self.num_constraints())
            .map(|i| self.row_offsets[i + 1] - self.row_offsets[i])
            .max()
            .unwrap_or(0)
    }

    /// `Δ(A)`: maximum number of constraints a variable appears in.
    #[must_use]
    pub fn column_support(&self) -> u32 {
        let mut count = vec![0u32; self.num_variables()];
        for &v in &self.row_vars {
            count[v as usize] += 1;
        }
        count.into_iter().max().unwrap_or(0)
    }

    /// `M(A, b) = max_{i,j} ⌈b_i / A_ij⌉` over non-zero entries
    /// (Definition 16); by Proposition 17, restricting `x ≤ M` preserves the
    /// optimum. Returns 1 for programs with no constraints.
    #[must_use]
    pub fn coefficient_box(&self) -> u64 {
        let mut m = 1u64;
        for i in 0..self.num_constraints() {
            let lo = self.row_offsets[i] as usize;
            let hi = self.row_offsets[i + 1] as usize;
            for k in lo..hi {
                m = m.max(self.b[i].div_ceil(self.row_coeffs[k]));
            }
        }
        m
    }

    /// Whether `x` satisfies every constraint.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_variables()`.
    #[must_use]
    pub fn is_feasible(&self, x: &[u64]) -> bool {
        assert_eq!(x.len(), self.num_variables(), "assignment length mismatch");
        (0..self.num_constraints()).all(|i| {
            let lo = self.row_offsets[i] as usize;
            let hi = self.row_offsets[i + 1] as usize;
            let lhs: u128 = (lo..hi)
                .map(|k| u128::from(self.row_coeffs[k]) * u128::from(x[self.row_vars[k] as usize]))
                .sum();
            lhs >= u128::from(self.b[i])
        })
    }

    /// The objective value `wᵀx`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_variables()`.
    #[must_use]
    pub fn cost(&self, x: &[u64]) -> u64 {
        assert_eq!(x.len(), self.num_variables(), "assignment length mismatch");
        x.iter().zip(&self.weights).map(|(&xi, &wi)| xi * wi).sum()
    }

    /// Checks that the box assignment `x ≡ M` satisfies everything — i.e.
    /// the program is feasible at all.
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::Infeasible`] naming the first failing constraint.
    pub fn check_feasible(&self) -> Result<(), IlpError> {
        let m = self.coefficient_box();
        for i in 0..self.num_constraints() {
            let lo = self.row_offsets[i] as usize;
            let hi = self.row_offsets[i + 1] as usize;
            let lhs: u128 = (lo..hi)
                .map(|k| u128::from(self.row_coeffs[k]) * u128::from(m))
                .sum();
            if lhs < u128::from(self.b[i]) {
                return Err(IlpError::Infeasible { constraint: i });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CoveringIlp {
        let mut b = IlpBuilder::new();
        let x = b.add_variable(3);
        let y = b.add_variable(2);
        let z = b.add_variable(1);
        b.add_constraint([(x, 2), (y, 1)], 3).unwrap();
        b.add_constraint([(y, 1), (z, 4)], 4).unwrap();
        b.build()
    }

    #[test]
    fn shapes() {
        let ilp = sample();
        assert_eq!(ilp.num_variables(), 3);
        assert_eq!(ilp.num_constraints(), 2);
        assert_eq!(ilp.row_support(), 2);
        assert_eq!(ilp.column_support(), 2);
        assert_eq!(ilp.coefficient_box(), 4);
        let (terms, b) = ilp.constraint(0);
        assert_eq!(terms, vec![(0, 2), (1, 1)]);
        assert_eq!(b, 3);
    }

    #[test]
    fn feasibility_and_cost() {
        let ilp = sample();
        assert!(!ilp.is_feasible(&[0, 0, 0]));
        assert!(ilp.is_feasible(&[0, 3, 1])); // 3 ≥ 3, 3+4 ≥ 4
        assert!(ilp.is_feasible(&[2, 0, 1])); // 4 ≥ 3, 4 ≥ 4
        assert_eq!(ilp.cost(&[2, 0, 1]), 7);
        assert!(ilp.check_feasible().is_ok());
    }

    #[test]
    fn zero_coeffs_and_duplicates_normalized() {
        let mut b = IlpBuilder::new();
        let x = b.add_variable(1);
        let y = b.add_variable(1);
        b.add_constraint([(x, 0), (y, 2), (y, 3)], 4).unwrap();
        let ilp = b.build();
        let (terms, _) = ilp.constraint(0);
        assert_eq!(terms, vec![(1, 5)]);
        assert_eq!(ilp.row_support(), 1);
    }

    #[test]
    fn trivial_constraints_dropped() {
        let mut b = IlpBuilder::new();
        let x = b.add_variable(1);
        b.add_constraint([(x, 1)], 0).unwrap();
        let ilp = b.build();
        assert_eq!(ilp.num_constraints(), 0);
    }

    #[test]
    fn unknown_variable_rejected() {
        let mut b = IlpBuilder::new();
        b.add_variable(1);
        let err = b.add_constraint([(5, 1)], 1).unwrap_err();
        assert_eq!(
            err,
            IlpError::UnknownVariable {
                constraint: 0,
                variable: 5
            }
        );
    }

    #[test]
    fn infeasible_detected() {
        // 1·x ≥ 10 with x ≤ M = 10 is fine; but an empty row can't happen —
        // build infeasibility via coefficient 3, b = 7: M = ⌈7/3⌉ = 3,
        // 3·3 = 9 ≥ 7 is fine. True infeasibility needs an empty support,
        // which add_constraint can't produce with b > 0 unless all coeffs
        // are zero:
        let mut b = IlpBuilder::new();
        let x = b.add_variable(1);
        b.add_constraint([(x, 0)], 5).unwrap();
        let ilp = b.build();
        assert_eq!(
            ilp.check_feasible().unwrap_err(),
            IlpError::Infeasible { constraint: 0 }
        );
    }
}
