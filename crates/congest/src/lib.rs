//! A deterministic synchronous CONGEST-model simulator.
//!
//! The CONGEST model (the setting of *“Optimal Distributed Covering
//! Algorithms”*, Ben-Basat et al., DISC 2019) is a synchronous
//! message-passing network: in each round every node may send one
//! `O(log n)`-bit message over each incident link, messages arrive at the
//! start of the next round, and complexity is measured in **rounds**. This
//! crate provides:
//!
//! * [`Topology`] — port-labelled undirected networks, including the paper's
//!   bipartite vertex/hyperedge incidence network
//!   ([`Topology::bipartite_incidence`]);
//! * [`Process`] — the node-program trait, stepped once per round with an
//!   inbox and an outbox ([`Ctx`]);
//! * [`Simulator`] — the deterministic round scheduler, on one chunk or
//!   split into chunks on persistent worker threads
//!   ([`Simulator::with_partition`]) with bit-identical results;
//! * bit accounting — every [`Message`] reports its encoded size; the
//!   simulator tracks per-link per-round maxima and can enforce a
//!   [`BitBudget`], turning the `O(log n)` CONGEST constraint into a
//!   checkable runtime property.
//!
//! # The round engine
//!
//! The simulator runs a zero-allocation round engine built around a
//! **flat port-indexed mailbox arena**: one message slot per directed link
//! endpoint, laid out in the topology's CSR port order and double-buffered
//! across rounds. Delivery is an indexed write, a node's inbox is its
//! contiguous slot range ([`Inbox`]), no per-inbox sorting ever happens
//! (port order is structural), and halted nodes cost zero via per-chunk
//! active worklists. A multi-chunk simulator steps chunk 0 on the
//! caller's thread and keeps one worker per further chunk parked on a
//! channel between phases — no per-round thread spawning — moving chunk
//! state to its worker by value, so the whole engine is safe Rust with no
//! locks. See the `engine`-module documentation in the source for the
//! layout, phase structure, determinism contract, and the steady-state
//! zero-allocation guarantee (enforced by `tests/zero_alloc.rs`).
//!
//! # Determinism contract
//!
//! For any protocol, any chunk count and either [`PartitionPolicy`], a
//! [`Simulator`] produces **bit-identical** node states,
//! [`RoundMetrics`], and [`SimReport`]s: nodes are stepped against
//! identical port-indexed inboxes, metrics are sums/maxima merged in
//! ascending chunk order, and message delivery is structural. One message
//! per directed link per round is enforced (a duplicate same-port send
//! aborts the run with the typed [`SimError::DuplicateSend`] — a bad node
//! program yields an error, never a crash), and every chunk count reports
//! the same error from the same [`Simulator::step`]; mail addressed to
//! halted nodes is charged exactly once — on the send side — and dropped
//! at delivery.
//!
//! # Serving many instances
//!
//! For workloads of many independent instances, a [`SimPool`] keeps one
//! set of worker threads, each owning a reusable [`EngineArena`], pulling
//! from one **shared bounded multi-class task queue** alive across
//! solves: submit whole-instance closures to the pool as requests arrive
//! — each submission yields a [`TaskTicket`], a full queue blocks
//! [`SimPool::submit`] and makes [`SimPool::try_submit`] report
//! backpressure ([`TrySubmitError::Full`]), and each task runs a
//! single-chunk [`Simulator::with_arena`] solve against its worker's
//! arena. Submissions carry a [`TaskClass`] (interactive tasks dequeue
//! before bulk, FIFO within a class — with optional bulk **aging** via
//! [`SimPool::set_bulk_max_wait`] so sustained interactive load cannot
//! starve bulk traffic), an optional deadline after which a still-queued
//! task resolves as the typed [`TaskError::Expired`], and an optional
//! [`CancelToken`] ([`TaskOptions`]) that resolves a still-queued task as
//! [`TaskError::Cancelled`]. In-flight solves cooperate too: hand the
//! same token (and/or deadline) to a simulator as an [`Interrupt`] and
//! the run stops at its next round boundary with the typed
//! [`SimError::Interrupted`]. Every pool records per-class
//! queue-wait/run-time [`LatencyHistogram`]s, counters (including
//! cancelled and shed), queue-depth high-water, worker busy time, and a
//! rolling interactive queue-wait window
//! ([`SchedMetrics::interactive_wait_p99`] — the SLO signal for admission
//! control) into its own [`SchedMetrics`] with zero allocation on the
//! hot path. [`SimPool::shutdown`] drains the queue and joins the
//! workers; every issued ticket still resolves.
//!
//! # Example: broadcast-and-halt
//!
//! ```
//! use dcover_congest::{Ctx, Process, Simulator, Status, Topology};
//!
//! struct Hello;
//! impl Process for Hello {
//!     type Msg = u32;
//!     fn on_round(&mut self, ctx: &mut Ctx<'_, u32>) -> Status {
//!         if ctx.round() == 0 {
//!             ctx.broadcast(ctx.node() as u32);
//!             Status::Running
//!         } else {
//!             Status::Halted
//!         }
//!     }
//! }
//!
//! let topo = Topology::from_links(3, &[(0, 1), (1, 2)]);
//! let mut sim = Simulator::new(topo, vec![Hello, Hello, Hello]);
//! let report = sim.run(16)?;
//! assert_eq!(report.rounds, 2);
//! assert_eq!(report.total_messages, 4);
//! # Ok::<(), dcover_congest::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builders;
mod cancel;
mod engine;
mod error;
mod message;
mod metrics;
mod partition;
mod pool;
mod process;
mod sim;
pub mod sync;
mod topology;

pub use cancel::{CancelToken, Interrupt, InterruptReason};
pub use engine::EngineArena;
pub use error::SimError;
pub use message::{bits_for_range, bits_for_value, Message};
pub use metrics::{
    BitBudget, ClassMetrics, LatencyHistogram, RoundMetrics, SchedMetrics, SimReport,
};
pub use partition::PartitionPolicy;
pub use pool::{
    QueueClosed, SimPool, TaskClass, TaskError, TaskOptions, TaskTicket, TaskTiming, TrySubmitError,
};
pub use process::{Ctx, Inbox, InboxIter, Incoming, Process, Status};
pub use sim::{ParallelSimulator, Simulator};
pub use topology::{NodeId, Port, Topology};

/// Tests of [`Simulator`] runs split into several chunks.
#[cfg(test)]
mod parallel {
    mod tests;
}
