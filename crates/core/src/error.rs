//! Error type for the MWHVC solver.

use std::error::Error;
use std::fmt;

use dcover_congest::SimError;

/// Error produced when configuring or running the solver.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SolveError {
    /// ε must lie in `(0, 1]`.
    InvalidEpsilon {
        /// The rejected value.
        value: f64,
    },
    /// A fixed α must be at least 2 (the bid growth factor of §3.2; any
    /// smaller value voids Theorem 8's termination argument).
    InvalidAlpha {
        /// The rejected multiplier.
        alpha: u32,
    },
    /// Theorem 9's constant γ must be a positive finite number.
    InvalidGamma {
        /// The rejected value.
        gamma: f64,
    },
    /// A warm state does not fit the instance it was applied to (wrong
    /// dual/level vector length, or a negative/non-finite dual).
    WarmMismatch {
        /// Description of what didn't line up.
        what: &'static str,
    },
    /// A vertex weight exceeds 2⁵³, beyond which `f64` dual arithmetic is no
    /// longer exact on integers. The paper assumes `W = poly(n)`, so this
    /// never binds on sensible instances.
    WeightTooLarge {
        /// Index of the offending vertex.
        vertex: usize,
        /// Its weight.
        weight: u64,
    },
    /// The underlying simulation failed: either the CONGEST bit budget was
    /// violated or the Theorem 8 round bound was exceeded — both indicate a
    /// bug (or a deliberately tightened bit budget).
    Sim(SimError),
    /// The solve task panicked on a worker of a
    /// [`SolveService`](crate::SolveService). The panic is confined to the
    /// one submission that caused it — every other ticket, and the service
    /// itself, keeps working.
    Panicked {
        /// Best-effort rendering of the panic payload.
        message: String,
    },
    /// The submission's deadline
    /// ([`SubmitOptions::deadline`](crate::SubmitOptions)) passed — either
    /// while it was still queued (the solve never ran) or mid-run (the
    /// solve stopped cooperatively at its next round boundary). Typed load
    /// management, not a solver failure — resubmit (or relax the deadline)
    /// if the result is still wanted.
    Expired {
        /// Time from submission until the ticket was discarded or the run
        /// stopped.
        waited: std::time::Duration,
    },
    /// The submission was abandoned via
    /// [`Ticket::cancel`](crate::Ticket::cancel): either discarded while
    /// still queued, or stopped cooperatively at the next round boundary
    /// if already running. Never a failure — the caller asked for it.
    Cancelled,
    /// The submission was handed to a [`SolveService`](crate::SolveService)
    /// that has already been [shut down](crate::SolveService::shutdown).
    ShutDown,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::InvalidEpsilon { value } => {
                write!(f, "epsilon must be in (0, 1], got {value}")
            }
            SolveError::InvalidAlpha { alpha } => {
                write!(f, "fixed alpha must be at least 2, got {alpha}")
            }
            SolveError::InvalidGamma { gamma } => {
                write!(f, "theorem 9 gamma must be positive and finite, got {gamma}")
            }
            SolveError::WarmMismatch { what } => {
                write!(f, "warm state does not fit the instance: {what}")
            }
            SolveError::WeightTooLarge { vertex, weight } => write!(
                f,
                "vertex {vertex} has weight {weight} which exceeds 2^53; dual arithmetic would lose exactness"
            ),
            SolveError::Sim(e) => write!(f, "simulation failed: {e}"),
            SolveError::Panicked { message } => {
                write!(f, "solve task panicked on a service worker: {message}")
            }
            SolveError::Expired { waited } => {
                write!(
                    f,
                    "submission deadline expired {:.3} ms after submit (discarded in the queue or stopped at a round boundary)",
                    waited.as_secs_f64() * 1e3
                )
            }
            SolveError::Cancelled => {
                write!(f, "submission was cancelled by its caller")
            }
            SolveError::ShutDown => write!(f, "solve service has been shut down"),
        }
    }
}

impl Error for SolveError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SolveError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for SolveError {
    fn from(e: SimError) -> Self {
        SolveError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SolveError::InvalidEpsilon { value: 2.0 };
        assert!(e.to_string().contains("(0, 1]"));
        let e = SolveError::WeightTooLarge {
            vertex: 3,
            weight: u64::MAX,
        };
        assert!(e.to_string().contains("2^53"));
        let inner = SimError::RoundLimit {
            limit: 5,
            active: 1,
        };
        let e = SolveError::from(inner);
        assert!(e.to_string().contains("round limit"));
        assert!(Error::source(&e).is_some());
    }
}
