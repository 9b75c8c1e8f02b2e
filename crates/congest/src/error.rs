//! Simulation error types.

use std::error::Error;
use std::fmt;

use crate::cancel::InterruptReason;
use crate::topology::{NodeId, Port};

/// Error produced by a simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The run hit the round limit before every node halted. In this
    /// workspace that invariably means a protocol bug (every implemented
    /// algorithm has a proven termination bound), so it is an error rather
    /// than a silent truncation.
    RoundLimit {
        /// The configured limit.
        limit: u64,
        /// Nodes still running when the limit was hit.
        active: usize,
    },
    /// A node program sent two messages over the same directed link in one
    /// round — a CONGEST violation (one message per directed link per
    /// round). The first message is kept, the duplicate dropped, and the
    /// run aborts with this error so a serving layer is never crashed by
    /// one bad node program.
    DuplicateSend {
        /// The round in which the duplicate was *sent*.
        round: u64,
        /// The receiving node of the doubly-used link.
        receiver: NodeId,
        /// The receiver-side port of the link.
        port: Port,
    },
    /// A link carried more bits in one round than the configured
    /// [`BitBudget`](crate::BitBudget) allows — a CONGEST violation.
    BudgetExceeded {
        /// Round in which the violation occurred.
        round: u64,
        /// The receiving node of the overloaded link.
        receiver: NodeId,
        /// The receiver-side port of the overloaded link.
        port: Port,
        /// Bits that crossed the link in that round.
        bits: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The run was stopped cooperatively at a round boundary by its
    /// [`Interrupt`](crate::Interrupt) — a cancelled
    /// [`CancelToken`](crate::CancelToken) or a passed deadline. Not a
    /// protocol failure: every completed round is bit-identical to an
    /// uninterrupted run, the simulation simply did not finish.
    Interrupted {
        /// Which interrupt condition fired.
        reason: InterruptReason,
        /// The round boundary at which the run stopped (that many rounds
        /// completed).
        round: u64,
        /// Nodes still running when the run stopped.
        active: usize,
    },
    /// A channel to a multi-chunk simulator's chunk workers closed
    /// mid-round: a worker thread died outside the simulator's panic
    /// containment, taking its chunk with it. The simulator is poisoned
    /// — the in-flight chunks are gone — but the caller's thread survives
    /// with a typed error instead of a panic, so a serving layer can fail
    /// the one solve and keep serving.
    SchedulerLost {
        /// The round being run when the worker vanished.
        round: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RoundLimit { limit, active } => write!(
                f,
                "round limit {limit} reached with {active} nodes still active"
            ),
            SimError::DuplicateSend {
                round,
                receiver,
                port,
            } => write!(
                f,
                "duplicate message on one link in one round: node {receiver} port {port} in round {round} \
                 (CONGEST permits one message per directed link per round)"
            ),
            SimError::BudgetExceeded {
                round,
                receiver,
                port,
                bits,
                budget,
            } => write!(
                f,
                "congest budget exceeded in round {round}: link into node {receiver} port {port} carried {bits} bits (budget {budget})"
            ),
            SimError::Interrupted {
                reason,
                round,
                active,
            } => write!(
                f,
                "run interrupted ({reason}) at round boundary {round} with {active} nodes still active"
            ),
            SimError::SchedulerLost { round } => write!(
                f,
                "chunk worker lost while running round {round}"
            ),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SimError::RoundLimit {
            limit: 10,
            active: 3,
        };
        assert_eq!(
            e.to_string(),
            "round limit 10 reached with 3 nodes still active"
        );
        let e = SimError::BudgetExceeded {
            round: 5,
            receiver: 2,
            port: 1,
            bits: 99,
            budget: 32,
        };
        assert!(e.to_string().contains("99 bits"));
        assert!(e.to_string().contains("budget 32"));
        let e = SimError::DuplicateSend {
            round: 7,
            receiver: 4,
            port: 2,
        };
        assert!(e.to_string().contains("duplicate message"));
        assert!(e.to_string().contains("node 4 port 2"));
        let e = SimError::Interrupted {
            reason: InterruptReason::Cancelled,
            round: 12,
            active: 5,
        };
        assert!(e.to_string().contains("interrupted (cancelled)"));
        assert!(e.to_string().contains("round boundary 12"));
        let e = SimError::Interrupted {
            reason: InterruptReason::DeadlinePassed,
            round: 3,
            active: 1,
        };
        assert!(e.to_string().contains("deadline passed"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
