//! Algorithm MWHVC: the time-optimal deterministic distributed
//! `(f + ε)`-approximation for **Minimum Weight Hypergraph Vertex Cover** in
//! the CONGEST model, from *“Optimal Distributed Covering Algorithms”*
//! (Ben-Basat, Even, Kawarabayashi, Schwartzman; DISC 2019).
//!
//! The problem: given a hypergraph of rank `f` (equivalently, a weighted set
//! cover instance with element frequency ≤ f) with positive vertex weights,
//! find a low-weight set of vertices intersecting every hyperedge. The
//! algorithm is primal-dual: hyperedges grow dual *bids* multiplicatively
//! (factor `α`), vertices track how much of their weight is consumed via
//! *levels* (`ℓ(v) ≈ log` of the covered fraction), halve incident bids when
//! they level up, and join the cover once *β-tight*
//! (`Σ_{e∋v} δ(e) ≥ (1−β)·w(v)` with `β = ε/(f+ε)`). For constant `f` and
//! `ε`, the round complexity `O(log Δ / log log Δ)` matches the KMW lower
//! bound — and is independent of both the weights and the number of
//! vertices, the paper's headline property.
//!
//! # Entry points
//!
//! * [`MwhvcSolver`] — run the real distributed protocol on the CONGEST
//!   simulator (on one thread or split across several) and get a
//!   [`CoverResult`] with the cover, the dual certificate, and communication
//!   metrics.
//! * [`solve_reference`] — the centralized mirror of the same algorithm
//!   (identical covers/levels/duals/iterations, no messaging overhead) with
//!   [`Observer`] hooks for full-state inspection and the
//!   [`InvariantChecker`].
//! * [`analysis`] — explicit versions of the paper's round bounds
//!   (Theorem 8/9) used to validate measured complexity.
//! * [`SolveService`] — the asynchronous serving layer: a bounded
//!   submission queue with backpressure in front of one persistent worker
//!   pool, each instance solved sequentially on one worker.
//!   [`SolveService::submit`] takes a shared `Arc<Hypergraph>`
//!   (zero-copy) and returns a [`Ticket`] to redeem for the result;
//!   [`SolveService::try_submit_with`] sheds load instead of blocking;
//!   [`SolveService::submit_warm`] solves a revision from the
//!   [`WarmState`] its caller hands in (the service keeps no finished
//!   solves); [`SolveService::shutdown`] drains gracefully.
//!
//! # Example
//!
//! ```
//! use dcover_core::MwhvcSolver;
//! use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = random_uniform(
//!     &RandomUniform { n: 50, m: 120, rank: 3, weights: WeightDist::Uniform { min: 1, max: 9 } },
//!     &mut StdRng::seed_from_u64(1),
//! );
//! let result = MwhvcSolver::with_epsilon(0.5)?.solve(&g)?;
//! assert!(result.cover.is_cover_of(&g));
//! // Certified: weight ≤ (f + ε) · (dual lower bound on OPT).
//! assert!(result.ratio_upper_bound() <= 3.5);
//! println!("rounds = {}", result.rounds());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
mod certificate;
mod error;
mod invariants;
mod metrics;
mod observer;
mod params;
mod pool;
mod protocol;
mod reference;
mod service;
mod solver;
mod warm;

pub use certificate::{Certificate, CertificateError};
pub use dcover_congest::{CancelToken, Interrupt, InterruptReason};
pub use error::SolveError;
pub use invariants::{approximation_holds, InvariantChecker, DEFAULT_TOLERANCE};
pub use metrics::{ClassMetrics, LatencyHistogram, ServiceMetrics};
pub use observer::{IterationSnapshot, NullObserver, Observer};
pub use params::{beta, theorem9_alpha, z_levels, AlphaPolicy, MwhvcConfig, Variant};
pub use protocol::{build_network, build_network_warm, iterations_of_rounds, MwhvcMsg, MwhvcNode};
pub use reference::{solve_reference, ReferenceResult};
pub use service::{RequestClass, SolveService, SubmitError, SubmitOptions, TaskTiming, Ticket};
pub use solver::{CoverResult, MwhvcSolver};
pub use warm::WarmState;
