//! Weighted hypergraphs, set systems, covers, and instance generators for
//! distributed covering algorithms.
//!
//! This crate is the problem-domain substrate of the `distributed-covering`
//! workspace, which reproduces *“Optimal Distributed Covering Algorithms”*
//! (Ben-Basat, Even, Kawarabayashi, Schwartzman; DISC 2019). It provides:
//!
//! * [`Hypergraph`] — immutable CSR hypergraphs with positive integer vertex
//!   weights, exposing the paper's parameters: rank `f`
//!   ([`Hypergraph::rank`]), maximum degree `Δ` ([`Hypergraph::max_degree`]),
//!   and weight ratio `W` ([`Hypergraph::weight_ratio`]);
//! * [`HypergraphBuilder`] — validated incremental construction;
//! * [`InstanceDelta`] — typed instance revisions (edge insertions and
//!   removals, weight changes) whose [`apply`](InstanceDelta::apply)
//!   yields the revised instance plus the surviving-edge-id mapping that
//!   warm-started re-solves seed their duals from;
//! * [`Cover`] — bitset vertex covers with feasibility checking and weight
//!   accounting;
//! * [`SetSystem`] — weighted set cover instances and the §2 equivalence
//!   with hypergraph vertex cover;
//! * [`generators`] — seeded random / structured / geometric instance
//!   families;
//! * [`mod@format`] — a DIMACS-flavoured plain-text instance format.
//!
//! # Quick example
//!
//! ```
//! use dcover_hypergraph::{Cover, HypergraphBuilder, VertexId};
//!
//! # fn main() -> Result<(), dcover_hypergraph::BuildError> {
//! // Two hyperedges sharing vertex 1.
//! let mut b = HypergraphBuilder::new();
//! let vs = b.add_vertices([4, 1, 4, 4]);
//! b.add_edge([vs[0], vs[1], vs[2]])?;
//! b.add_edge([vs[1], vs[3]])?;
//! let g = b.build()?;
//!
//! // Vertex 1 covers both edges at weight 1.
//! let c = Cover::from_ids(g.n(), [vs[1]]);
//! assert!(c.is_cover_of(&g));
//! assert_eq!(c.weight(&g), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod cover;
mod delta;
mod error;
pub mod format;
pub mod generators;
mod hypergraph;
mod ids;
mod set_system;

pub use builder::{from_edge_lists, from_weighted_edge_lists, HypergraphBuilder};
pub use cover::Cover;
pub use delta::{DeltaError, DeltaOutcome, InstanceDelta};
pub use error::{BuildError, ParseError};
pub use hypergraph::{clone_count, Hypergraph};
pub use ids::{EdgeId, IdRange, VertexId};
pub use set_system::SetSystem;
