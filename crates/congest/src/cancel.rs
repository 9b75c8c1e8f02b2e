//! Cooperative cancellation for in-flight simulations.
//!
//! A [`CancelToken`] is a cloneable shared flag: one side holds a clone
//! and calls [`CancelToken::cancel`], the other polls
//! [`CancelToken::is_cancelled`] at safe points. A simulator accepts an
//! [`Interrupt`] — a token and/or an absolute deadline — via
//! [`Simulator::with_interrupt`](crate::Simulator::with_interrupt) and
//! checks it **once per round**, between rounds: a cancelled or
//! past-deadline run stops at the next round boundary and returns the
//! typed [`SimError::Interrupted`](crate::SimError::Interrupted). The
//! round loop itself never observes the flag mid-round, so determinism is
//! untouched — every completed round is bit-identical to an uninterrupted
//! run.

use crate::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cloneable cancellation flag shared between a submitter and an
/// in-flight simulation.
///
/// Cancellation is **cooperative and sticky**: [`cancel`](Self::cancel)
/// sets the flag once (there is no un-cancel), and whoever polls
/// [`is_cancelled`](Self::is_cancelled) — a serving queue at dequeue
/// time, the simulator at round boundaries — stops at its next safe
/// point. All clones observe the same flag.
///
/// # Examples
///
/// ```
/// use dcover_congest::CancelToken;
///
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested on any clone.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Why an interrupted run stopped, reported inside
/// [`SimError::Interrupted`](crate::SimError::Interrupted).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum InterruptReason {
    /// The run's [`CancelToken`] was cancelled.
    Cancelled,
    /// The run's absolute deadline passed.
    DeadlinePassed,
}

impl std::fmt::Display for InterruptReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterruptReason::Cancelled => f.write_str("cancelled"),
            InterruptReason::DeadlinePassed => f.write_str("deadline passed"),
        }
    }
}

/// The interrupt condition of one run: an optional [`CancelToken`] and an
/// optional absolute deadline, checked by the simulator once per round.
///
/// The deadline check calls [`Instant::now`] only when a deadline is set,
/// and the token check is one relaxed atomic load — an interrupt-free (or
/// token-only) run adds no timer calls to the round loop.
#[derive(Clone, Debug, Default)]
pub struct Interrupt {
    token: Option<CancelToken>,
    deadline: Option<Instant>,
}

impl Interrupt {
    /// An empty interrupt (never fires).
    #[must_use]
    pub fn new() -> Self {
        Interrupt::default()
    }

    /// Returns the interrupt with a cancellation token attached.
    #[must_use]
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Returns the interrupt with an absolute deadline attached: a run
    /// still going at `deadline` stops at its next round boundary.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Whether either condition has fired, and which one — the token
    /// wins when both hold (an explicit cancel is more specific than the
    /// deadline it may have raced).
    #[must_use]
    pub fn fired(&self) -> Option<InterruptReason> {
        if self.token.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(InterruptReason::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(InterruptReason::DeadlinePassed);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn token_is_shared_and_sticky() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
        clone.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn empty_interrupt_never_fires() {
        assert_eq!(Interrupt::new().fired(), None);
    }

    #[test]
    fn token_fires_and_wins_over_deadline() {
        let token = CancelToken::new();
        let interrupt = Interrupt::new()
            .with_token(token.clone())
            .with_deadline(Instant::now() - Duration::from_secs(1));
        assert_eq!(interrupt.fired(), Some(InterruptReason::DeadlinePassed));
        token.cancel();
        assert_eq!(interrupt.fired(), Some(InterruptReason::Cancelled));
    }

    #[test]
    fn future_deadline_does_not_fire() {
        let interrupt = Interrupt::new().with_deadline(Instant::now() + Duration::from_secs(3600));
        assert_eq!(interrupt.fired(), None);
    }
}
