//! Baseline covering algorithms the paper compares against (Tables 1 & 2).
//!
//! None of the cited algorithms has a public implementation, so this crate
//! *reconstructs* the algorithmic idea behind each comparison row with the
//! same asymptotic mechanism:
//!
//! * [`kvy`] — Khuller–Vishkin–Young-style **uniform-increase parallel
//!   primal-dual** \[15\]: every uncovered hyperedge simultaneously raises
//!   its dual by `min_{v∈e} slack(v)/deg'(v)`. Round count grows with the
//!   instance size, the behaviour Table 2 contrasts with this work.
//! * [`doubling`] — Kuhn–Moscibroda–Wattenhofer-style **dual doubling**
//!   \[18\]: bids double when safe, with no level/halving machinery — i.e.
//!   exactly *Algorithm MWHVC minus its innovation* — giving the
//!   `O(log Δ + log W)` shape whose `log W` term the paper eliminates.
//! * [`matching`] — randomized **maximal-matching 2-approximation** for
//!   unweighted graphs (`f = 2`), the \[12\]/\[16\] `O(log n)` randomized
//!   row.
//! * [`sequential`] — the classic Bar-Yehuda–Even sequential f-approximation
//!   (also used as a dual lower bound) and greedy weighted set cover.
//! * [`exact`] — branch-and-bound exact MWHVC for small instances
//!   (ground-truth OPT in the approximation-ratio experiments).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod doubling;
pub mod exact;
pub mod kvy;
pub mod matching;
pub mod sequential;

use dcover_congest::SimReport;
use dcover_hypergraph::Cover;

/// Result of a distributed baseline run — a reduced form of
/// `dcover_core::CoverResult` shared by all baselines in this crate.
#[derive(Clone, Debug)]
pub struct BaselineOutcome {
    /// The computed vertex cover (always valid on success).
    pub cover: Cover,
    /// `w(C)`.
    pub weight: u64,
    /// `Σ_e δ(e)` for primal-dual baselines (a lower bound on fractional
    /// OPT); `0.0` for baselines without a dual certificate.
    pub dual_total: f64,
    /// Final `δ(e)` per edge for primal-dual baselines (empty otherwise).
    pub duals: Vec<f64>,
    /// Algorithm iterations (protocol-specific; see each module).
    pub iterations: u64,
    /// Simulator communication report.
    pub report: SimReport,
}

impl BaselineOutcome {
    /// Certified ratio upper bound `w(C)/Σδ`, or `NaN` when the baseline has
    /// no dual certificate.
    #[must_use]
    pub fn ratio_upper_bound(&self) -> f64 {
        if self.weight == 0 {
            1.0
        } else if self.dual_total > 0.0 {
            self.weight as f64 / self.dual_total
        } else {
            f64::NAN
        }
    }
}
