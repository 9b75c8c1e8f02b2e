//! Distributed reductions from covering integer linear programs to minimum
//! weight hypergraph vertex cover — Section 5 of *“Optimal Distributed
//! Covering Algorithms”* (Ben-Basat et al., DISC 2019).
//!
//! The pipeline:
//!
//! 1. [`CoveringIlp`] — `min wᵀx, A·x ≥ b, x ∈ Nⁿ` with non-negative data
//!    (Definition 13), plus the paper's parameters `f(A)` (row support),
//!    `Δ(A)` (column support) and `M(A,b)` (Definition 16).
//! 2. [`expand_binary`] (Claim 18) — a general ILP becomes a *zero-one*
//!    covering program over `⌊log₂ M⌋+1` bit-variables per variable.
//! 3. [`reduce_zero_one`] (Lemma 14) — a zero-one program becomes an MWHVC
//!    instance: each constraint contributes a hyperedge `σᵢ \ S` per
//!    maximal failing subset `S` of its support.
//! 4. [`IlpSolver`] — runs Algorithm MWHVC on the reduced hypergraph, lifts
//!    the cover back to an integral assignment, and reports the Claim 15
//!    round-cost model for simulating the protocol on the ILP's own
//!    communication network.
//!
//! [`solve_ilp_exact`] provides ground-truth optima for small programs and
//! [`random_ilp`] seeded instance generation for the experiments.
//!
//! # Example
//!
//! ```
//! use dcover_core::MwhvcConfig;
//! use dcover_ilp::{IlpBuilder, IlpSolver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // min 2a + b + 3c  s.t.  a + 2b ≥ 4  and  b + c ≥ 2.
//! let mut builder = IlpBuilder::new();
//! let a = builder.add_variable(2);
//! let b = builder.add_variable(1);
//! let c = builder.add_variable(3);
//! builder.add_constraint([(a, 1), (b, 2)], 4)?;
//! builder.add_constraint([(b, 1), (c, 1)], 2)?;
//! let ilp = builder.build();
//!
//! let outcome = IlpSolver::new(MwhvcConfig::new(0.5)?).solve(&ilp)?;
//! assert!(ilp.is_feasible(&outcome.assignment));
//! println!("cost {} within factor {:.2} of optimal", outcome.cost, outcome.certified_ratio());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod binary;
mod error;
mod exact;
mod generators;
mod ilp;
mod solve;
mod zero_one;

pub use binary::{expand_binary, BinaryExpansion};
pub use error::IlpError;
pub use exact::{solve_ilp_exact, IlpExact};
pub use generators::{random_ilp, RandomIlp};
pub use ilp::{CoveringIlp, IlpBuilder};
pub use solve::{IlpOutcome, IlpSolver};
pub use zero_one::{reduce_zero_one, ZeroOneReduction, ZeroOneStats, DEFAULT_MAX_SUPPORT};
