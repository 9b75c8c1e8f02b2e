//! The asynchronous solve service: a bounded submission queue with
//! backpressure in front of a fixed set of persistent workers.
//!
//! A real server receives instances **as they arrive**; [`SolveService`]
//! is that front door. Each instance is solved sequentially on one
//! worker — chunk parallelism within one instance belongs to
//! [`MwhvcSolver::solve_parallel`](crate::MwhvcSolver::solve_parallel):
//!
//! * [`submit`](SolveService::submit) hands in one shared read-only
//!   instance (`Arc<Hypergraph>` — **never deep-copied**, see below) and
//!   returns a [`Ticket`] immediately; the solve runs on whichever worker
//!   frees up first. When the bounded queue is full, `submit` blocks
//!   until a slot opens.
//! * [`try_submit_with`](SolveService::try_submit_with) never blocks: a
//!   full queue is reported as [`SubmitError::Backpressure`], so an
//!   ingestion loop can shed or defer load instead of stalling.
//! * [`Ticket::wait`] / [`Ticket::try_wait`] redeem a submission for its
//!   [`CoverResult`], which is **bit-identical** to what a standalone
//!   [`MwhvcSolver::solve`](crate::MwhvcSolver::solve) returns for the
//!   same instance and ε.
//! * [`submit_warm`](SolveService::submit_warm) hands in a **revision**
//!   with its seed: the revised instance and a [`WarmState`], typically
//!   [`WarmState::for_delta`] of the predecessor's result. The worker
//!   **warm-starts** the solve from that dual packing
//!   ([`MwhvcSolver::solve_warm`]). The service keeps no predecessor: the
//!   caller that holds a result owns its revision chain.
//! * [`shutdown`](SolveService::shutdown) closes the queue (subsequent
//!   submissions fail with [`SubmitError::ShutDown`]), **drains** every
//!   queued and in-flight solve, and joins the workers — every ticket
//!   issued before the shutdown still resolves. Dropping the service
//!   shuts it down.
//!
//! # Request classes, deadlines, and cancellation
//!
//! The submission queue is a small multi-class scheduler, not a plain
//! FIFO: [`submit_with`](SolveService::submit_with) /
//! [`try_submit_with`](SolveService::try_submit_with) /
//! [`submit_warm`](SolveService::submit_warm) take
//! [`SubmitOptions`] carrying a [`RequestClass`]
//! (`Interactive` submissions dequeue before every queued `Bulk` one,
//! FIFO within a class) and an optional **full-lifecycle deadline**: a
//! submission still queued when its deadline passes resolves its ticket
//! with the typed
//! [`SolveError::Expired`] instead of occupying a worker, and a solve
//! already **running** when it passes stops cooperatively at its next
//! round boundary and resolves the same way. [`Ticket::cancel`] abandons
//! a submission with identical mechanics ([`SolveError::Cancelled`]).
//! Every ticket still resolves exactly once; a cancel that races
//! completion simply loses and the ticket resolves with the finished
//! result. The plain `submit` enqueues bulk-class work without a
//! deadline — exactly the pre-class FIFO behaviour.
//!
//! # Overload protection
//!
//! Two opt-in knobs keep the service healthy under sustained pressure:
//!
//! * **Bulk aging** ([`with_bulk_max_wait`](SolveService::with_bulk_max_wait)):
//!   a queued bulk submission that has waited past the bound is dequeued
//!   ahead of younger interactive work, so a flood of interactive
//!   traffic cannot starve bulk forever.
//! * **SLO-driven shedding** ([`with_shed_target`](SolveService::with_shed_target)):
//!   while the interactive queue-wait signal — the rolling dequeue p99,
//!   or the age of the oldest still-queued interactive submission when
//!   dequeues stall — is above the target, new bulk submissions are
//!   refused with the typed [`SubmitError::Overloaded`] — load
//!   management at the door, keeping interactive latency bounded
//!   instead of letting the backlog grow.
//!
//! # Observability
//!
//! [`SolveService::metrics`] returns a [`ServiceMetrics`] snapshot:
//! per-class submitted/completed/expired/rejected counters, per-class
//! queue-wait and solve-time fixed-bucket latency histograms
//! ([`LatencyHistogram`](crate::LatencyHistogram)), the queue-depth
//! high-water mark, and total worker busy time. Recording costs a few
//! relaxed atomic adds per solve — zero allocation on the hot path — and
//! the counters stay readable after [`shutdown`](SolveService::shutdown).
//! Per-ticket timings come from [`Ticket::wait_timed`] /
//! [`Ticket::try_wait_timed`] as [`TaskTiming`] values. Queue time starts
//! when a submission enters the queue, not at the submit call: a blocking
//! submit that waits for room is not counted as queued.
//!
//! # Zero-copy instances
//!
//! The service threads the `Arc<Hypergraph>` through to the solver layer
//! untouched: the queue stores the `Arc` handle, the worker borrows
//! `&Hypergraph` out of it for the solve, and no code path copies the
//! underlying instance data. The worker drops its handle before the
//! ticket resolves, so a resolved ticket leaves the caller's handles the
//! only ones. `dcover_hypergraph::clone_count()` observes payload copies
//! process-wide, and `tests/zero_copy.rs` pins this guarantee.
//!
//! # Error isolation
//!
//! A bad instance (oversized weights, a tightened budget) resolves its own
//! ticket with an `Err` and nothing else; even a *panicking* solve is
//! confined to its ticket ([`SolveError::Panicked`]) — the worker
//! survives and every other submission proceeds.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use dcover_core::{MwhvcConfig, SolveService};
//! use dcover_hypergraph::from_weighted_edge_lists;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = SolveService::new(MwhvcConfig::new(0.5)?, 2);
//! let g = Arc::new(from_weighted_edge_lists(&[10, 1, 10], &[&[0, 1], &[1, 2]])?);
//! // Submit as requests arrive; redeem tickets whenever convenient.
//! let a = service.submit(Arc::clone(&g), 0.5)?;
//! let b = service.submit(Arc::clone(&g), 1.0)?;
//! assert_eq!(a.wait()?.weight, 1);
//! assert_eq!(b.wait()?.weight, 1);
//! service.shutdown();
//! assert!(service.submit(g, 0.5).is_err());
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(test)]
use dcover_congest::sync::Mutex;
use dcover_congest::{CancelToken, Interrupt};
use dcover_hypergraph::Hypergraph;

use crate::error::SolveError;
use crate::metrics::ServiceMetrics;
use crate::params::MwhvcConfig;
use crate::pool::{Entry, OnFull, Pool, Slot};
use crate::solver::{CoverResult, MwhvcSolver};
use crate::warm::WarmState;

/// Why a submission was refused at the service door. (Problems *inside*
/// the solve — bad weights, limit violations — are not submission errors;
/// they resolve the ticket with a [`SolveError`] instead.)
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SubmitError {
    /// The bounded submission queue is at capacity
    /// ([`try_submit_with`](SolveService::try_submit_with) only — the
    /// blocking submits wait instead). Retry later, shed the request, or
    /// fall back to blocking submission.
    Backpressure {
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// The service has been [shut down](SolveService::shutdown); no new
    /// work is accepted.
    ShutDown,
    /// The submission was **shed** at admission: a shed target is
    /// configured ([`SolveService::with_shed_target`]) and the
    /// interactive queue-wait signal — the rolling dequeue p99, or the
    /// age of the oldest still-queued interactive submission when
    /// dequeues stall — is above it, so new bulk-class work is refused
    /// to protect interactive latency. Load management, not a failure —
    /// back off and resubmit when the service catches up. Interactive
    /// submissions are never shed.
    Overloaded {
        /// The interactive queue-wait signal value that tripped the
        /// shed (whichever of the two views was larger).
        interactive_wait_p99: Duration,
    },
    /// The request itself is invalid (e.g. ε outside `(0, 1]`); nothing
    /// was enqueued.
    Invalid(SolveError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Backpressure { capacity } => {
                write!(f, "submission queue is full ({capacity} waiting)")
            }
            SubmitError::ShutDown => write!(f, "solve service has been shut down"),
            SubmitError::Overloaded {
                interactive_wait_p99,
            } => write!(
                f,
                "service is overloaded (interactive queue-wait signal {:.3} ms over target); bulk submission shed",
                interactive_wait_p99.as_secs_f64() * 1e3
            ),
            SubmitError::Invalid(e) => write!(f, "invalid submission: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SubmitError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

/// The scheduling class of a submission: every queued `Interactive`
/// request dequeues before any `Bulk` one (FIFO within a class); the
/// queue's capacity bound is shared across both. See [`SubmitOptions`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// Latency-sensitive traffic: dequeues before every queued bulk
    /// request.
    Interactive,
    /// Throughput traffic (the default): FIFO behind interactive
    /// requests.
    #[default]
    Bulk,
}

impl RequestClass {
    /// Number of request classes.
    pub(crate) const COUNT: usize = 2;

    /// Dense index of this class (`Interactive` = 0, `Bulk` = 1), which
    /// is also its dequeue priority.
    pub(crate) const fn index(self) -> usize {
        match self {
            RequestClass::Interactive => 0,
            RequestClass::Bulk => 1,
        }
    }

    /// Lower-case display name (`"interactive"` / `"bulk"`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            RequestClass::Interactive => "interactive",
            RequestClass::Bulk => "bulk",
        }
    }
}

impl std::fmt::Display for RequestClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Scheduling options for one submission
/// ([`SolveService::submit_with`] and friends).
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use dcover_core::SubmitOptions;
///
/// let opts = SubmitOptions::interactive().with_deadline(Duration::from_millis(50));
/// assert_eq!(opts.deadline, Some(Duration::from_millis(50)));
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// The request class ([`RequestClass::Bulk`] by default — what the
    /// plain `submit` uses).
    pub class: RequestClass,
    /// If set, the submission's **full-lifecycle** deadline, measured
    /// from the submit call. A solve still queued past it is discarded
    /// without running; a solve a worker already started stops
    /// cooperatively at its next round boundary. Either way the ticket
    /// resolves as the typed [`SolveError::Expired`].
    pub deadline: Option<Duration>,
}

impl SubmitOptions {
    /// Interactive-class options without a deadline.
    #[must_use]
    pub fn interactive() -> Self {
        SubmitOptions {
            class: RequestClass::Interactive,
            ..SubmitOptions::default()
        }
    }

    /// Bulk-class options without a deadline (the default).
    #[must_use]
    pub fn bulk() -> Self {
        SubmitOptions::default()
    }

    /// Returns the options with the deadline set.
    #[must_use]
    pub fn with_deadline(mut self, from_submit: Duration) -> Self {
        self.deadline = Some(from_submit);
        self
    }
}

/// Per-ticket timings, reported by [`Ticket::wait_timed`] /
/// [`Ticket::try_wait_timed`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskTiming {
    /// Time between entering the queue and leaving it (for a submission
    /// discarded as cancelled or expired: between entering the queue and
    /// the discard). A blocking submit's wait for room comes before it.
    pub queue: Duration,
    /// The solve time on the worker (zero for a discarded submission).
    pub run: Duration,
}

/// A pending solve: redeem with [`wait`](Ticket::wait) (blocking) or
/// [`try_wait`](Ticket::try_wait) (polling); the `_timed` variants
/// additionally report the per-ticket queue-wait and solve time. Tickets
/// outlive the service — shutdown drains the queue, so every issued
/// ticket resolves. A ticket carries no id: a caller that redeems out of
/// order keeps its own key beside each ticket (`dcover serve` keeps its
/// record seq).
pub struct Ticket {
    slot: Arc<Slot>,
    /// Shared with the queued entry and its in-run interrupt; see
    /// [`cancel`](Self::cancel).
    cancel: CancelToken,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("done", &self.is_done())
            .finish()
    }
}

impl Ticket {
    /// Whether the solve has finished (a `wait` would not block).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.slot.is_done()
    }

    /// Abandons the submission **cooperatively**: a solve still queued is
    /// discarded without running; a solve a worker already started stops
    /// at its next round boundary. Either way the ticket still resolves
    /// exactly once — with [`SolveError::Cancelled`], or with the normal
    /// outcome if the solve finished before the cancel landed (the race
    /// is benign and the result is valid). Idempotent; never blocks.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Blocks until the solve finishes and returns its result.
    ///
    /// # Errors
    ///
    /// Whatever [`MwhvcSolver::solve`] would return for this instance,
    /// [`SolveError::Panicked`] if the solve panicked on its worker,
    /// [`SolveError::Expired`] if the submission's deadline passed
    /// (queued or mid-run), or [`SolveError::Cancelled`] if
    /// [`cancel`](Self::cancel) landed before the solve finished.
    pub fn wait(self) -> Result<CoverResult, SolveError> {
        self.wait_timed().0
    }

    /// Like [`wait`](Self::wait), additionally reporting the ticket's
    /// [`TaskTiming`]: `queue` is the time spent waiting in the
    /// submission queue, `run` the solve time on the worker (zero for a
    /// discarded ticket).
    pub fn wait_timed(self) -> (Result<CoverResult, SolveError>, TaskTiming) {
        self.slot.wait()
    }

    /// Non-blocking redemption: `Ok(result)` if the solve has finished,
    /// `Err(self)` (the ticket, still valid) if it is still queued or
    /// running.
    #[expect(
        clippy::missing_errors_doc,
        reason = "Err is \"not ready\", not a failure"
    )]
    pub fn try_wait(self) -> Result<Result<CoverResult, SolveError>, Ticket> {
        self.try_wait_timed().map(|(result, _)| result)
    }

    /// Like [`try_wait`](Self::try_wait), additionally reporting the
    /// ticket's [`TaskTiming`] on completion.
    #[expect(
        clippy::missing_errors_doc,
        reason = "Err is \"not ready\", not a failure"
    )]
    pub fn try_wait_timed(self) -> Result<(Result<CoverResult, SolveError>, TaskTiming), Ticket> {
        self.slot.take().ok_or(self)
    }
}

/// An asynchronous MWHVC solve service: persistent workers behind a
/// bounded submission queue. See the module docs for the serving model.
pub struct SolveService {
    base: MwhvcConfig,
    /// The queue and its metrics, shared with the workers for the
    /// service's whole life.
    pool: Arc<Pool>,
    threads: usize,
    /// SLO-driven admission control: when set, bulk submissions are shed
    /// with [`SubmitError::Overloaded`] while the interactive queue-wait
    /// signal (rolling dequeue p99, or the oldest queued interactive
    /// submission's age) is above this target.
    shed_target: Option<Duration>,
    /// Test-only fault-injection seam: every later submission carries
    /// this hook, and its worker runs it right before the solve — used
    /// to gate, order or panic solves deterministically.
    #[cfg(test)]
    pre_solve: Mutex<Option<crate::pool::PreSolve>>,
}

impl std::fmt::Debug for SolveService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveService")
            .field("base", &self.base)
            .field("threads", &self.threads)
            .field("queue_capacity", &self.pool.capacity)
            .field("shed_target", &self.shed_target)
            .finish_non_exhaustive()
    }
}

impl SolveService {
    /// Starts a service with `threads` persistent workers and the default
    /// submission-queue capacity of `4 × threads` waiting instances.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn new(config: MwhvcConfig, threads: usize) -> Self {
        Self::with_queue_capacity(config, threads, 4 * threads.max(1))
    }

    /// Starts a service whose bounded queue holds at most `capacity`
    /// **waiting** instances (instances a worker has started solving no
    /// longer count). A full queue blocks [`submit`](Self::submit) and
    /// makes [`try_submit_with`](Self::try_submit_with) report
    /// [`SubmitError::Backpressure`].
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `capacity == 0`.
    #[must_use]
    pub fn with_queue_capacity(config: MwhvcConfig, threads: usize, capacity: usize) -> Self {
        Self {
            base: config,
            pool: Pool::spawn(threads, capacity),
            threads,
            shed_target: None,
            #[cfg(test)]
            pre_solve: Mutex::new(None),
        }
    }

    /// Enables bulk **anti-starvation aging**: a queued bulk submission
    /// that has waited at least `bound` is dequeued ahead of younger
    /// interactive work (strict class priority otherwise — the default,
    /// equivalent to no bound). Consuming builder style; the bound applies
    /// to the live queue, so the running workers keep serving.
    #[must_use]
    pub fn with_bulk_max_wait(self, bound: Duration) -> Self {
        self.pool.set_bulk_max_wait(bound);
        self
    }

    /// Enables **SLO-driven admission control**: while the interactive
    /// queue-wait signal exceeds `target`, new bulk submissions are
    /// refused with the typed [`SubmitError::Overloaded`] (and counted
    /// as `shed` in [`ServiceMetrics`]) instead of deepening the
    /// backlog. Interactive submissions are never shed.
    ///
    /// The signal is the larger of two views of the same quantity: the
    /// rolling dequeue-side p99
    /// ([`ServiceMetrics::interactive_wait_p99`]) and the age of the
    /// oldest **still-queued** interactive submission. The second,
    /// leading view matters under severe overload: dequeue-side
    /// percentiles only update when interactive work actually leaves
    /// the queue, which is exactly what stops happening while it is
    /// starved behind an aged bulk backlog. Consuming builder style.
    #[must_use]
    pub fn with_shed_target(mut self, target: Duration) -> Self {
        self.shed_target = Some(target);
        self
    }

    /// The service's base configuration (per-submission ε overrides it;
    /// every other setting — α policy, variant, budget, trace — is
    /// inherited by every solve).
    #[must_use]
    pub fn config(&self) -> &MwhvcConfig {
        &self.base
    }

    /// Number of persistent worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The submission queue's capacity (waiting instances).
    #[must_use]
    pub fn queue_capacity(&self) -> usize {
        self.pool.capacity
    }

    /// Number of submissions currently waiting in the queue (excludes
    /// solves a worker has already started; 0 after shutdown).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.pool.queued()
    }

    /// Whether the service still accepts submissions.
    #[must_use]
    pub fn is_open(&self) -> bool {
        self.pool.is_open()
    }

    /// A point-in-time snapshot of the service's scheduling metrics:
    /// per-class counters and queue-wait/solve-time latency histograms,
    /// the queue-depth high-water mark, and total worker busy time.
    /// Counters accumulate for the lifetime of the service and remain
    /// readable after [`shutdown`](Self::shutdown).
    #[must_use]
    pub fn metrics(&self) -> ServiceMetrics {
        self.pool.metrics.snapshot()
    }

    /// The door every submission passes through: builds the per-request
    /// solver (the base configuration with `epsilon` swapped in; every
    /// other setting is inherited), then runs admission control — the
    /// shed gate refuses a bulk-class submission while the interactive
    /// queue-wait signal is above the configured target. Interactive work
    /// always passes the gate.
    ///
    /// The signal is the larger of the rolling dequeue-side p99 and the
    /// age of the oldest still-queued interactive submission — the
    /// rolling view alone stalls under starvation (nothing dequeues, so
    /// nothing is recorded) precisely when shedding is most needed.
    fn admit(&self, epsilon: f64, class: RequestClass) -> Result<MwhvcSolver, SubmitError> {
        let config = self
            .base
            .clone()
            .with_epsilon(epsilon)
            .map_err(SubmitError::Invalid)?;
        let solver = MwhvcSolver::new(config);
        let Some(target) = self.shed_target.filter(|_| class == RequestClass::Bulk) else {
            return Ok(solver);
        };
        let rolling = self.pool.metrics.interactive_wait_p99();
        let queued_head = self.pool.oldest_queued_wait(RequestClass::Interactive);
        match rolling.into_iter().chain(queued_head).max() {
            Some(signal) if signal > target => {
                self.pool.metrics.record_shed(class);
                Err(SubmitError::Overloaded {
                    interactive_wait_p99: signal,
                })
            }
            _ => Ok(solver),
        }
    }

    /// Submits one bulk-class instance with the given ε, **blocking while
    /// the queue is at capacity**, and returns the ticket for its result.
    /// The `Arc<Hypergraph>` payload is shared, never deep-copied —
    /// submit the same instance any number of times for the cost of a
    /// refcount. Shorthand for [`submit_with`](Self::submit_with) with
    /// default [`SubmitOptions`].
    ///
    /// # Errors
    ///
    /// As [`submit_with`](Self::submit_with).
    pub fn submit(&self, g: Arc<Hypergraph>, epsilon: f64) -> Result<Ticket, SubmitError> {
        self.submit_with(g, epsilon, SubmitOptions::default())
    }

    /// Submits one instance under explicit [`SubmitOptions`] (request
    /// class and optional deadline), blocking while the queue is at
    /// capacity.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] for a bad ε, [`SubmitError::ShutDown`]
    /// after [`shutdown`](Self::shutdown), and [`SubmitError::Overloaded`]
    /// for a bulk submission shed by admission control
    /// ([`with_shed_target`](Self::with_shed_target)). Never
    /// [`SubmitError::Backpressure`] — this call waits instead. A
    /// deadline miss is *not* a submission error — it resolves the
    /// ticket with [`SolveError::Expired`].
    pub fn submit_with(
        &self,
        g: Arc<Hypergraph>,
        epsilon: f64,
        opts: SubmitOptions,
    ) -> Result<Ticket, SubmitError> {
        let solver = self.admit(epsilon, opts.class)?;
        self.enqueue(solver, g, None, opts, OnFull::Wait)
    }

    /// Non-blocking submission under explicit [`SubmitOptions`]: enqueues
    /// only if a queue slot is free right now. The `Arc` handle is cloned
    /// (a refcount increment — the instance data is never copied), so the
    /// caller keeps its handle for a later retry.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Backpressure`] when the queue is full, otherwise as
    /// [`submit_with`](Self::submit_with).
    pub fn try_submit_with(
        &self,
        g: &Arc<Hypergraph>,
        epsilon: f64,
        opts: SubmitOptions,
    ) -> Result<Ticket, SubmitError> {
        let solver = self.admit(epsilon, opts.class)?;
        self.enqueue(solver, Arc::clone(g), None, opts, OnFull::Refuse)
    }

    /// Submits a **revision** with its seed under explicit
    /// [`SubmitOptions`]: `g` is the revised instance and `warm` its seed,
    /// typically [`WarmState::for_delta`] of the predecessor's result
    /// through the applied
    /// [`InstanceDelta`](dcover_hypergraph::InstanceDelta). The worker
    /// **warm-starts** the solve from that dual packing
    /// ([`MwhvcSolver::solve_warm`]). Admission, blocking on a full queue,
    /// class and deadline are those of [`submit_with`](Self::submit_with).
    ///
    /// # Errors
    ///
    /// As [`submit_with`](Self::submit_with). A seed that does not fit `g`
    /// is not a submission error: it resolves the ticket with
    /// [`SolveError::WarmMismatch`].
    pub fn submit_warm(
        &self,
        g: Arc<Hypergraph>,
        epsilon: f64,
        warm: WarmState,
        opts: SubmitOptions,
    ) -> Result<Ticket, SubmitError> {
        let solver = self.admit(epsilon, opts.class)?;
        self.enqueue(solver, g, Some(warm), opts, OnFull::Wait)
    }

    /// Gracefully shuts the service down: close the queue (subsequent
    /// submissions fail with [`SubmitError::ShutDown`]), **drain** every
    /// queued and in-flight solve, and join the workers. Every ticket
    /// issued before this call resolves by the time `shutdown` returns.
    /// Idempotent; dropping the service calls it.
    pub fn shutdown(&self) {
        self.pool.shutdown();
    }

    /// The steps every admitted submission shares: anchor the deadline
    /// at the submit call, attach the in-run interrupt (the same token
    /// and deadline the queue checks at dequeue), enqueue the entry —
    /// waiting for or refusing on a full queue, per `on_full` — and hand
    /// out the [`Ticket`].
    fn enqueue(
        &self,
        solver: MwhvcSolver,
        graph: Arc<Hypergraph>,
        warm: Option<WarmState>,
        opts: SubmitOptions,
        on_full: OnFull,
    ) -> Result<Ticket, SubmitError> {
        let submitted = Instant::now();
        let deadline = opts.deadline.map(|d| submitted + d);
        let cancel = CancelToken::new();
        let mut interrupt = Interrupt::new().with_token(cancel.clone());
        if let Some(d) = deadline {
            interrupt = interrupt.with_deadline(d);
        }
        let slot = Slot::new();
        let entry = Entry {
            graph,
            warm,
            solver: solver.with_interrupt(interrupt),
            class: opts.class,
            deadline,
            cancel: cancel.clone(),
            submitted,
            enqueued: submitted,
            slot: Arc::clone(&slot),
            #[cfg(test)]
            pre_solve: self.pre_solve.lock().expect("pre-solve hook mutex").clone(),
        };
        self.pool.push(entry, on_full)?;
        Ok(Ticket { slot, cancel })
    }

    /// Installs the test-only fault-injection hook: the worker runs it
    /// right before the solve of every submission made *after* this call.
    #[cfg(test)]
    pub(crate) fn set_pre_solve(&self, hook: impl Fn() + Send + Sync + 'static) {
        *self.pre_solve.lock().expect("pre-solve hook mutex") = Some(Arc::new(hook));
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.shutdown();
    }
}
/// Helpers shared by the service and pool unit tests: a tiny instance, a
/// gate to pin queue states, and hooked submissions.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use dcover_congest::sync::Condvar;
    use dcover_hypergraph::from_weighted_edge_lists;

    /// A path a - b - c whose optimum is the light middle vertex.
    pub(crate) fn tiny() -> Arc<Hypergraph> {
        Arc::new(from_weighted_edge_lists(&[10, 1, 10], &[&[0, 1], &[1, 2]]).unwrap())
    }

    pub(crate) fn config() -> MwhvcConfig {
        MwhvcConfig::new(0.5).unwrap()
    }

    /// A two-phase gate the hooked solves block on, to pin queue states
    /// deterministically: a hook calls [`Gate::arrive_and_wait`]
    /// (signalling that a worker picked its entry up, then blocking until
    /// release), the test thread waits for a given arrival count on the
    /// condvar — no spinning, no burned core on 1-CPU CI.
    pub(crate) struct Gate {
        /// (arrived count, open flag).
        state: Mutex<(usize, bool)>,
        cv: Condvar,
    }

    impl Gate {
        pub(crate) fn new() -> Arc<Self> {
            Arc::new(Gate {
                state: Mutex::new((0, false)),
                cv: Condvar::new(),
            })
        }
        pub(crate) fn release(&self) {
            let mut state = self.state.lock().unwrap();
            state.1 = true;
            self.cv.notify_all();
        }
        pub(crate) fn arrive_and_wait(&self) {
            let mut state = self.state.lock().unwrap();
            state.0 += 1;
            self.cv.notify_all();
            while !state.1 {
                state = self.cv.wait(state).unwrap();
            }
        }
        pub(crate) fn await_arrivals(&self, n: usize) {
            let mut state = self.state.lock().unwrap();
            while state.0 < n {
                state = self.cv.wait(state).unwrap();
            }
        }
    }

    /// Submits [`tiny`] under `opts`; its worker runs `hook` right before
    /// the solve. Later submissions carry no hook.
    pub(crate) fn hooked(
        service: &SolveService,
        opts: SubmitOptions,
        hook: impl Fn() + Send + Sync + 'static,
    ) -> Ticket {
        service.set_pre_solve(hook);
        let ticket = service.submit_with(tiny(), 0.5, opts).unwrap();
        *service.pre_solve.lock().unwrap() = None;
        ticket
    }

    /// Occupies every worker with a gated bulk solve and waits
    /// (condvar-based — the hooks themselves signal pickup) until all of
    /// them have been *dequeued*, so subsequent submissions fill the
    /// queue deterministically.
    pub(crate) fn occupy_workers(service: &SolveService, gate: &Arc<Gate>) -> Vec<Ticket> {
        let tickets: Vec<Ticket> = (0..service.threads())
            .map(|_| {
                let gate = Arc::clone(gate);
                hooked(service, SubmitOptions::bulk(), move || {
                    gate.arrive_and_wait()
                })
            })
            .collect();
        gate.await_arrivals(service.threads());
        tickets
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{config, hooked, occupy_workers, tiny, Gate};
    use super::*;
    use crate::LatencyHistogram;
    use dcover_hypergraph::from_weighted_edge_lists;
    use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn backpressure_is_reported_without_blocking() {
        let gate = Gate::new();
        let service = SolveService::with_queue_capacity(config(), 1, 2);
        let busy = occupy_workers(&service, &gate);
        let g = tiny();
        let q1 = service
            .try_submit_with(&g, 0.5, SubmitOptions::default())
            .unwrap();
        let q2 = service
            .try_submit_with(&g, 0.5, SubmitOptions::default())
            .unwrap();
        let start = std::time::Instant::now();
        let err = service
            .try_submit_with(&g, 0.5, SubmitOptions::default())
            .expect_err("queue is full");
        assert_eq!(err, SubmitError::Backpressure { capacity: 2 });
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "try_submit must not block"
        );
        // The rejected submission consumed no queue slot; releasing the
        // gate lets everything finish.
        gate.release();
        for t in busy {
            t.wait().unwrap();
        }
        assert!(q1.wait().unwrap().cover.is_cover_of(&g));
        assert!(q2.wait().unwrap().cover.is_cover_of(&g));
    }

    #[test]
    fn shutdown_drains_in_flight_tickets() {
        let gate = Gate::new();
        let service = SolveService::with_queue_capacity(config(), 1, 8);
        let busy = occupy_workers(&service, &gate);
        let g = tiny();
        let queued: Vec<Ticket> = (0..3)
            .map(|_| service.submit(Arc::clone(&g), 0.5).unwrap())
            .collect();
        // The workers are already parked inside the gated tasks
        // (`occupy_workers` waited on the condvar); release from a helper
        // thread while `shutdown` blocks on the drain — the drain itself
        // is the rendezvous, no sleep needed.
        let releaser = {
            let gate = Arc::clone(&gate);
            dcover_congest::sync::thread::spawn(move || gate.release())
        };
        service.shutdown();
        releaser.join().unwrap();
        assert!(!service.is_open());
        // Every ticket issued before shutdown resolved during the drain.
        for t in busy {
            assert!(t.is_done(), "gated ticket drained");
            t.wait().unwrap();
        }
        for t in queued {
            assert!(t.is_done(), "queued ticket drained");
            assert!(t.wait().unwrap().cover.is_cover_of(&g));
        }
        // And the door is closed now.
        assert_eq!(
            service.submit(Arc::clone(&g), 0.5).expect_err("closed"),
            SubmitError::ShutDown
        );
        assert_eq!(
            service
                .try_submit_with(&g, 0.5, SubmitOptions::default())
                .expect_err("closed"),
            SubmitError::ShutDown
        );
        // Idempotent.
        service.shutdown();
    }

    #[test]
    fn panicking_task_fails_only_its_own_ticket() {
        let service = SolveService::new(config(), 2);
        let g = tiny();
        let before = service.submit(Arc::clone(&g), 0.5).unwrap();
        let bomb = hooked(&service, SubmitOptions::default(), || {
            panic!("instance 7 exploded")
        });
        let after = service.submit(Arc::clone(&g), 0.5).unwrap();
        let err = bomb.wait().expect_err("panic surfaces as SolveError");
        match err {
            SolveError::Panicked { message } => {
                assert!(message.contains("instance 7 exploded"), "got: {message}")
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert!(before.wait().unwrap().cover.is_cover_of(&g));
        assert!(after.wait().unwrap().cover.is_cover_of(&g));
        // The service keeps serving afterwards.
        assert!(service.submit(g, 0.5).unwrap().wait().is_ok());
    }

    #[test]
    fn results_are_bit_identical_to_standalone_solver() {
        let mut rng = StdRng::seed_from_u64(77);
        let service = SolveService::new(config(), 3);
        for i in 0..10 {
            let g = Arc::new(random_uniform(
                &RandomUniform {
                    n: 20 + i * 5,
                    m: 40 + i * 11,
                    rank: 2 + i % 3,
                    weights: WeightDist::Uniform { min: 1, max: 9 },
                },
                &mut rng,
            ));
            let eps = [0.25, 0.5, 1.0][i % 3];
            let ticket = service.submit(Arc::clone(&g), eps).unwrap();
            let served = ticket.wait().unwrap();
            let solo = MwhvcSolver::with_epsilon(eps).unwrap().solve(&g).unwrap();
            assert_eq!(served.cover, solo.cover, "instance {i}");
            assert_eq!(served.duals, solo.duals, "instance {i}");
            assert_eq!(served.levels, solo.levels, "instance {i}");
            assert_eq!(served.report, solo.report, "instance {i}");
        }
    }

    #[test]
    fn per_submission_epsilon_overrides_base() {
        let service = SolveService::new(MwhvcConfig::new(1.0).unwrap(), 2);
        let g = tiny();
        let tight = service
            .submit(Arc::clone(&g), 0.05)
            .unwrap()
            .wait()
            .unwrap();
        let solo = MwhvcSolver::with_epsilon(0.05).unwrap().solve(&g).unwrap();
        assert_eq!(tight.duals, solo.duals);
        assert_eq!(tight.report, solo.report);
        // Invalid ε is refused at the door.
        assert!(matches!(
            service.submit(Arc::clone(&g), 0.0),
            Err(SubmitError::Invalid(SolveError::InvalidEpsilon { .. }))
        ));
        assert!(matches!(
            service.try_submit_with(&g, 7.0, SubmitOptions::default()),
            Err(SubmitError::Invalid(SolveError::InvalidEpsilon { .. }))
        ));
    }

    #[test]
    fn bad_instance_resolves_its_own_ticket_only() {
        let service = SolveService::new(config(), 2);
        let good = tiny();
        let oversized = Arc::new(from_weighted_edge_lists(&[1 << 60, 1], &[&[0, 1]]).unwrap());
        let a = service.submit(Arc::clone(&good), 0.5).unwrap();
        let b = service.submit(oversized, 0.5).unwrap();
        let c = service.submit(Arc::clone(&good), 0.5).unwrap();
        assert!(a.wait().is_ok());
        assert!(matches!(
            b.wait(),
            Err(SolveError::WeightTooLarge { vertex: 0, .. })
        ));
        assert!(c.wait().is_ok());
    }

    /// A revision of [`tiny`] and its seed: an added edge `0 – 2` and a
    /// heavier middle vertex, seeded from `base`'s result.
    fn revision(g: &Hypergraph, base: &CoverResult) -> (Arc<Hypergraph>, WarmState) {
        use dcover_hypergraph::{InstanceDelta, VertexId};
        let delta = InstanceDelta {
            add_edges: vec![vec![VertexId::new(0), VertexId::new(2)]],
            set_weights: vec![(VertexId::new(1), 4)],
            ..InstanceDelta::empty()
        };
        let applied = delta.apply(g).unwrap();
        let warm = WarmState::for_delta(base, &applied);
        (Arc::new(applied.graph), warm)
    }

    #[test]
    fn submit_warm_is_bit_identical_to_solve_warm() {
        use dcover_hypergraph::{EdgeId, InstanceDelta, VertexId};
        let mut rng = StdRng::seed_from_u64(91);
        let g = Arc::new(random_uniform(
            &RandomUniform {
                n: 30,
                m: 80,
                rank: 3,
                weights: WeightDist::Uniform { min: 1, max: 20 },
            },
            &mut rng,
        ));
        let service = SolveService::new(config(), 2);
        let solver = MwhvcSolver::with_epsilon(0.5).unwrap();
        let cold = service.submit(Arc::clone(&g), 0.5).unwrap().wait().unwrap();
        let mut prev = (g, cold);
        // A chain of two revisions, each seeded from the served result of
        // its predecessor.
        for delta in [
            InstanceDelta {
                remove_edges: vec![EdgeId::new(5)],
                add_edges: vec![vec![VertexId::new(1), VertexId::new(4)]],
                set_weights: vec![(VertexId::new(2), 50)],
            },
            InstanceDelta {
                set_weights: vec![(VertexId::new(9), 1)],
                ..InstanceDelta::empty()
            },
        ] {
            let applied = delta.apply(&prev.0).unwrap();
            let warm = WarmState::for_delta(&prev.1, &applied);
            let revised = Arc::new(applied.graph);
            let served = service
                .submit_warm(
                    Arc::clone(&revised),
                    0.5,
                    warm.clone(),
                    SubmitOptions::default(),
                )
                .unwrap()
                .wait()
                .unwrap();
            let direct = solver.solve_warm(&revised, &warm).unwrap();
            assert_eq!(served.cover, direct.cover);
            assert_eq!(served.duals, direct.duals);
            assert_eq!(served.levels, direct.levels);
            assert_eq!(served.report, direct.report);
            prev = (revised, served);
        }
    }

    #[test]
    fn submit_warm_is_refused_at_the_door_like_submit() {
        let service = SolveService::new(config(), 1);
        let g = tiny();
        let base = service.submit(Arc::clone(&g), 0.5).unwrap().wait().unwrap();
        let (revised, warm) = revision(&g, &base);
        assert!(matches!(
            service.submit_warm(
                Arc::clone(&revised),
                0.0,
                warm.clone(),
                SubmitOptions::default()
            ),
            Err(SubmitError::Invalid(SolveError::InvalidEpsilon { .. }))
        ));
        service.shutdown();
        assert_eq!(
            service
                .submit_warm(revised, 0.5, warm, SubmitOptions::default())
                .unwrap_err(),
            SubmitError::ShutDown
        );
    }

    #[test]
    fn a_seed_that_does_not_fit_fails_only_its_own_ticket() {
        let service = SolveService::new(config(), 1);
        let g = tiny();
        let before = service.submit(Arc::clone(&g), 0.5).unwrap();
        let misfit = WarmState::from_parts(vec![0.0; 5], vec![0; 3]);
        let bad = service
            .submit_warm(Arc::clone(&g), 0.5, misfit, SubmitOptions::default())
            .unwrap();
        let after = service.submit(Arc::clone(&g), 0.5).unwrap();
        assert!(matches!(bad.wait(), Err(SolveError::WarmMismatch { .. })));
        let base = before.wait().unwrap();
        assert!(after.wait().unwrap().cover.is_cover_of(&g));
        // The service keeps serving, warm submissions included.
        let (revised, warm) = revision(&g, &base);
        let served = service
            .submit_warm(Arc::clone(&revised), 0.5, warm, SubmitOptions::default())
            .unwrap()
            .wait()
            .unwrap();
        assert!(served.cover.is_cover_of(&revised));
    }

    #[test]
    fn try_wait_polls_until_done() {
        let gate = Gate::new();
        let service = SolveService::new(config(), 1);
        let busy = occupy_workers(&service, &gate);
        let g = tiny();
        let mut ticket = service.submit(Arc::clone(&g), 0.5).unwrap();
        ticket = ticket
            .try_wait()
            .expect_err("still gated behind the worker");
        assert!(!ticket.is_done());
        gate.release();
        for t in busy {
            t.wait().unwrap();
        }
        // The solve is tiny; poll until it lands.
        loop {
            match ticket.try_wait() {
                Ok(result) => {
                    assert!(result.unwrap().cover.is_cover_of(&g));
                    break;
                }
                Err(t) => {
                    ticket = t;
                    std::thread::yield_now();
                }
            }
        }
    }

    #[test]
    fn interactive_submissions_dequeue_before_bulk_fifo_within_class() {
        let gate = Gate::new();
        let service = SolveService::with_queue_capacity(config(), 1, 8);
        let busy = occupy_workers(&service, &gate);
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let mut tickets = Vec::new();
        for (name, opts) in [
            ("b1", SubmitOptions::bulk()),
            ("b2", SubmitOptions::bulk()),
            ("i1", SubmitOptions::interactive()),
            ("i2", SubmitOptions::interactive()),
        ] {
            let order = Arc::clone(&order);
            tickets.push(hooked(&service, opts, move || {
                order.lock().unwrap().push(name)
            }));
        }
        gate.release();
        for t in busy.into_iter().chain(tickets) {
            t.wait().unwrap();
        }
        // Interactive jumped the queued bulk work; FIFO within each class.
        assert_eq!(*order.lock().unwrap(), vec!["i1", "i2", "b1", "b2"]);
    }

    #[test]
    fn queued_submission_past_its_deadline_resolves_as_expired() {
        let gate = Gate::new();
        let service = SolveService::with_queue_capacity(config(), 1, 8);
        let busy = occupy_workers(&service, &gate);
        let g = tiny();
        let doomed = service
            .submit_with(
                Arc::clone(&g),
                0.5,
                SubmitOptions::interactive().with_deadline(std::time::Duration::ZERO),
            )
            .unwrap();
        let alive = service.submit(Arc::clone(&g), 0.5).unwrap();
        gate.release();
        for t in busy {
            t.wait().unwrap();
        }
        let (result, timing) = doomed.wait_timed();
        match result {
            // `waited` counts from the submit call, the queue wait from
            // entering the queue.
            Err(SolveError::Expired { waited }) => assert!(waited >= timing.queue),
            other => panic!("expected Expired, got {other:?}"),
        }
        assert_eq!(timing.run, std::time::Duration::ZERO, "solve never ran");
        assert!(alive.wait().unwrap().cover.is_cover_of(&g));
        let m = service.metrics();
        assert_eq!(m.interactive.expired, 1);
        assert_eq!(m.interactive.completed, 0);
        assert_eq!(m.bulk.expired, 0);
    }

    #[test]
    fn cancelling_a_queued_submission_resolves_as_cancelled_without_running() {
        let gate = Gate::new();
        let service = SolveService::with_queue_capacity(config(), 1, 8);
        let busy = occupy_workers(&service, &gate);
        let g = tiny();
        let doomed = service
            .submit_with(Arc::clone(&g), 0.5, SubmitOptions::interactive())
            .unwrap();
        let alive = service.submit(Arc::clone(&g), 0.5).unwrap();
        doomed.cancel();
        doomed.cancel(); // idempotent
        gate.release();
        for t in busy {
            t.wait().unwrap();
        }
        let (result, timing) = doomed.wait_timed();
        assert!(matches!(result, Err(SolveError::Cancelled)), "{result:?}");
        assert_eq!(timing.run, std::time::Duration::ZERO, "solve never ran");
        assert!(alive.wait().unwrap().cover.is_cover_of(&g));
        let m = service.metrics();
        assert_eq!(m.interactive.cancelled, 1);
        assert_eq!(m.interactive.completed, 0);
        assert_eq!(m.interactive.expired, 0);
    }

    #[test]
    fn cancelling_a_running_solve_stops_it_at_a_round_boundary() {
        let gate = Gate::new();
        let service = SolveService::new(config(), 1);
        {
            let gate = Arc::clone(&gate);
            service.set_pre_solve(move || gate.arrive_and_wait());
        }
        let g = tiny();
        let t = service
            .submit_with(Arc::clone(&g), 0.5, SubmitOptions::interactive())
            .unwrap();
        // The worker has dequeued the task and sits inside it, about to
        // start the solve; the cancel lands mid-task.
        gate.await_arrivals(1);
        t.cancel();
        gate.release();
        assert!(matches!(t.wait(), Err(SolveError::Cancelled)));
        // A mid-run stop is a *completed* task at the pool level (its
        // worker ran it); the pool-level cancelled counter only counts
        // queued discards.
        let m = service.metrics();
        assert_eq!(m.interactive.completed, 1);
        assert_eq!(m.interactive.cancelled, 0);
    }

    #[test]
    fn a_deadline_that_passes_mid_run_resolves_as_typed_expired() {
        // The acceptance shape: the solve is already on a worker when its
        // deadline passes; it must stop at the next round boundary and
        // resolve as Expired — not run to completion, not panic.
        let gate = Gate::new();
        let service = SolveService::new(config(), 1);
        {
            let gate = Arc::clone(&gate);
            service.set_pre_solve(move || gate.arrive_and_wait());
        }
        let g = tiny();
        let deadline = std::time::Duration::from_millis(300);
        let t = service
            .submit_with(
                Arc::clone(&g),
                0.5,
                SubmitOptions::interactive().with_deadline(deadline),
            )
            .unwrap();
        // Dequeued (and past the dequeue-time deadline check) well before
        // the deadline; the hook holds the solve while the deadline passes.
        gate.await_arrivals(1);
        // wall-clock: real time must pass the deadline while the hook
        // holds the solve; not a synchronization point.
        std::thread::sleep(deadline + std::time::Duration::from_millis(50));
        gate.release();
        let (result, timing) = t.wait_timed();
        match result {
            Err(SolveError::Expired { waited }) => {
                assert!(waited >= deadline, "full-lifecycle wait, got {waited:?}")
            }
            other => panic!("expected Expired, got {other:?}"),
        }
        assert!(
            timing.run > std::time::Duration::ZERO,
            "stopped mid-run, not discarded from the queue"
        );
        let m = service.metrics();
        assert_eq!(m.interactive.expired, 0, "no queued-expiry was recorded");
        assert_eq!(m.interactive.completed, 1);
    }

    #[test]
    fn a_cancel_that_loses_the_race_resolves_with_the_finished_result() {
        let service = SolveService::new(config(), 1);
        let g = tiny();
        let t = service.submit(Arc::clone(&g), 0.5).unwrap();
        while !t.is_done() {
            std::thread::yield_now();
        }
        // The solve already finished; the cancel is a no-op and the
        // ticket resolves exactly once, with the valid result.
        t.cancel();
        assert!(t.wait().unwrap().cover.is_cover_of(&g));
    }

    #[test]
    fn bulk_submissions_are_shed_while_interactive_p99_exceeds_target() {
        let gate = Gate::new();
        let service = SolveService::with_queue_capacity(config(), 1, 8)
            .with_shed_target(std::time::Duration::from_millis(1));
        let g = tiny();
        // Solve one instance before the overload so a revision can be
        // seeded from it.
        let base = service.submit(Arc::clone(&g), 0.5).unwrap().wait().unwrap();
        let (revised, warm) = revision(&g, &base);
        // Manufacture a slow interactive queue wait: the submission sits
        // behind a gated worker for ≥10 ms before being dequeued.
        let busy = occupy_workers(&service, &gate);
        let slow = service
            .submit_with(Arc::clone(&g), 0.5, SubmitOptions::interactive())
            .unwrap();
        // wall-clock: the submission must accumulate ≥10 ms of real
        // queue-wait to push the rolling p99 over the 1 ms shed target.
        std::thread::sleep(std::time::Duration::from_millis(10));
        gate.release();
        for t in busy {
            t.wait().unwrap();
        }
        slow.wait().unwrap();
        // The rolling p99 now reflects the ≥10 ms wait: bulk is shed on
        // every submission path, interactive still passes.
        assert!(matches!(
            service.try_submit_with(&g, 0.5, SubmitOptions::default()),
            Err(SubmitError::Overloaded { .. })
        ));
        assert!(matches!(
            service.submit(Arc::clone(&g), 0.5),
            Err(SubmitError::Overloaded { .. })
        ));
        assert!(matches!(
            service.submit_warm(revised, 0.5, warm, SubmitOptions::default()),
            Err(SubmitError::Overloaded { .. })
        ));
        service
            .submit_with(Arc::clone(&g), 0.5, SubmitOptions::interactive())
            .unwrap()
            .wait()
            .unwrap();
        let m = service.metrics();
        assert_eq!(m.bulk.shed, 3);
        assert_eq!(m.interactive.shed, 0);
        assert!(m.interactive_wait_p99.unwrap() >= std::time::Duration::from_millis(1));
    }

    #[test]
    fn a_starved_queued_interactive_submission_sheds_bulk_before_any_dequeue() {
        // The rolling dequeue-side p99 cannot trip while interactive
        // work is starved (nothing dequeues, nothing is recorded): the
        // age of the oldest *queued* interactive submission must carry
        // the signal on its own.
        let gate = Gate::new();
        let service = SolveService::with_queue_capacity(config(), 1, 8)
            .with_shed_target(std::time::Duration::from_millis(5));
        let g = tiny();
        let busy = occupy_workers(&service, &gate);
        // Queued behind the gated worker: it never dequeues during the
        // overload, so the rolling p99 stays empty.
        let starved = service
            .submit_with(Arc::clone(&g), 0.5, SubmitOptions::interactive())
            .unwrap();
        // wall-clock: the queued head must age ≥20 ms of real time so its
        // age alone exceeds the 5 ms shed target.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(service.metrics().interactive_wait_p99.is_none());
        match service.try_submit_with(&g, 0.5, SubmitOptions::default()) {
            Err(SubmitError::Overloaded {
                interactive_wait_p99,
            }) => assert!(interactive_wait_p99 >= std::time::Duration::from_millis(5)),
            other => panic!("expected Overloaded from the queued-head signal, got {other:?}"),
        }
        gate.release();
        for t in busy {
            t.wait().unwrap();
        }
        starved.wait().unwrap();
        let m = service.metrics();
        assert_eq!(m.bulk.shed, 1);
        // With the lane drained, the gate reopens: the rolling p99 now
        // holds one large sample, but the head-age component is gone —
        // admission follows whichever view is currently larger.
        assert!(m.interactive_wait_p99.unwrap() >= std::time::Duration::from_millis(5));
    }

    #[test]
    fn without_a_shed_target_bulk_is_never_shed() {
        let gate = Gate::new();
        let service = SolveService::with_queue_capacity(config(), 1, 8);
        let g = tiny();
        let busy = occupy_workers(&service, &gate);
        let slow = service
            .submit_with(Arc::clone(&g), 0.5, SubmitOptions::interactive())
            .unwrap();
        // wall-clock: accumulates a real ≥5 ms queue wait to prove even a
        // large p99 sample sheds nothing when no target is configured.
        std::thread::sleep(std::time::Duration::from_millis(5));
        gate.release();
        for t in busy {
            t.wait().unwrap();
        }
        slow.wait().unwrap();
        let t = service
            .try_submit_with(&g, 0.5, SubmitOptions::default())
            .expect("no shedding configured");
        t.wait().unwrap();
        assert_eq!(service.metrics().bulk.shed, 0);
    }

    #[test]
    fn bulk_aging_promotes_starved_bulk_work_over_interactive() {
        let gate = Gate::new();
        let service = SolveService::with_queue_capacity(config(), 1, 8)
            .with_bulk_max_wait(std::time::Duration::ZERO);
        let busy = occupy_workers(&service, &gate);
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let mut tickets = Vec::new();
        for (name, opts) in [
            ("b1", SubmitOptions::bulk()),
            ("i1", SubmitOptions::interactive()),
        ] {
            let order = Arc::clone(&order);
            tickets.push(hooked(&service, opts, move || {
                order.lock().unwrap().push(name)
            }));
        }
        gate.release();
        for t in busy.into_iter().chain(tickets) {
            t.wait().unwrap();
        }
        // With a zero aging bound the queued bulk task is instantly
        // "aged" and beats the younger interactive submission (strict
        // class priority would run i1 first — see
        // interactive_submissions_dequeue_before_bulk_fifo_within_class).
        assert_eq!(*order.lock().unwrap(), vec!["b1", "i1"]);
    }

    #[test]
    fn metrics_snapshot_counts_classes_histograms_and_busy_time() {
        let service = SolveService::new(config(), 2);
        let g = tiny();
        let mut tickets = Vec::new();
        for _ in 0..3 {
            tickets.push(service.submit(Arc::clone(&g), 0.5).unwrap());
        }
        for _ in 0..2 {
            tickets.push(
                service
                    .submit_with(Arc::clone(&g), 0.5, SubmitOptions::interactive())
                    .unwrap(),
            );
        }
        for t in tickets {
            let (result, timing) = t.wait_timed();
            result.unwrap();
            assert!(timing.run > std::time::Duration::ZERO, "solve was clocked");
        }
        let m = service.metrics();
        assert_eq!(m.bulk.submitted, 3);
        assert_eq!(m.bulk.completed, 3);
        assert_eq!(m.interactive.submitted, 2);
        assert_eq!(m.interactive.completed, 2);
        assert_eq!(m.bulk.queue_wait.count(), 3);
        assert_eq!(m.bulk.run_time.count(), 3);
        assert_eq!(m.interactive.run_time.count(), 2);
        assert_eq!(m.interactive.expired + m.bulk.expired, 0);
        assert!(m.queue_depth_high_water >= 1);
        assert!(m.worker_busy > std::time::Duration::ZERO);
        assert_eq!(m.class(RequestClass::Bulk).completed, 3);
        // The snapshot stays readable after shutdown.
        service.shutdown();
        assert_eq!(service.metrics().bulk.completed, 3);
    }

    #[test]
    fn metrics_accumulate_across_pool_rebuild() {
        // `with_bulk_max_wait` sets the aging bound on the live pool:
        // every counter recorded before the call — including the
        // cancellation and shedding counters — must survive it, and later
        // solves must keep accumulating into the same sink.
        let gate = Gate::new();
        let service = SolveService::new(config(), 2);
        let g = tiny();
        service.submit(Arc::clone(&g), 0.5).unwrap().wait().unwrap();
        // A queued interactive cancel and a shed, recorded before the call.
        let busy = occupy_workers(&service, &gate);
        let doomed = service
            .submit_with(Arc::clone(&g), 0.5, SubmitOptions::interactive())
            .unwrap();
        doomed.cancel();
        service.pool.metrics.record_shed(RequestClass::Bulk);
        gate.release();
        for t in busy {
            t.wait().unwrap();
        }
        assert!(matches!(doomed.wait(), Err(SolveError::Cancelled)));
        let service = service.with_bulk_max_wait(std::time::Duration::from_secs(3600));
        service.submit(Arc::clone(&g), 0.5).unwrap().wait().unwrap();
        let m = service.metrics();
        // occupy_workers injected `threads` bulk tasks alongside the two
        // real bulk submissions.
        let injected = service.threads() as u64;
        assert_eq!(m.bulk.submitted, 2 + injected);
        assert_eq!(m.bulk.completed, 2 + injected);
        assert_eq!(m.bulk.shed, 1);
        assert_eq!(m.interactive.submitted, 1);
        assert_eq!(m.interactive.cancelled, 1);
        assert_eq!(m.interactive.completed, 0);
    }

    #[test]
    fn with_bulk_max_wait_keeps_the_running_workers() {
        let service = SolveService::new(config(), 1);
        let worker_of = |service: &SolveService| {
            let (tx, rx) = std::sync::mpsc::channel();
            hooked(service, SubmitOptions::default(), move || {
                tx.send(std::thread::current().id()).unwrap()
            })
            .wait()
            .unwrap();
            rx.recv().unwrap()
        };
        let before = worker_of(&service);
        let service = service.with_bulk_max_wait(std::time::Duration::from_secs(3600));
        assert_eq!(
            worker_of(&service),
            before,
            "the aging bound respawned the worker"
        );
    }

    #[test]
    fn backpressure_rejections_show_up_in_metrics() {
        let gate = Gate::new();
        let service = SolveService::with_queue_capacity(config(), 1, 1);
        let busy = occupy_workers(&service, &gate);
        let g = tiny();
        let q = service
            .try_submit_with(&g, 0.5, SubmitOptions::default())
            .unwrap();
        assert!(matches!(
            service.try_submit_with(&g, 0.5, SubmitOptions::interactive()),
            Err(SubmitError::Backpressure { .. })
        ));
        gate.release();
        for t in busy {
            t.wait().unwrap();
        }
        q.wait().unwrap();
        let m = service.metrics();
        assert_eq!(m.interactive.rejected, 1);
        assert_eq!(m.bulk.rejected, 0);
    }

    #[test]
    fn a_blocked_submit_is_not_counted_as_queue_wait() {
        // One worker, room for one waiting entry: with the worker gated
        // and the queue full, a third submit blocks until a slot frees.
        let gate = Gate::new();
        let service = Arc::new(SolveService::with_queue_capacity(config(), 1, 1));
        let busy = occupy_workers(&service, &gate);
        let queued = service.submit(tiny(), 0.5).unwrap();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let blocked = {
            let service = Arc::clone(&service);
            dcover_congest::sync::thread::spawn(move || {
                ready_tx.send(()).unwrap();
                let start = Instant::now();
                let ticket = service.submit(tiny(), 0.5).unwrap();
                (start.elapsed(), ticket)
            })
        };
        ready_rx.recv().unwrap();
        // wall-clock: the submitter must stay blocked on the full queue
        // for real time; not a synchronization point.
        std::thread::sleep(Duration::from_millis(250));
        gate.release();
        let (held, ticket) = blocked.join().unwrap();
        assert!(held >= Duration::from_millis(200), "submit held {held:?}");
        let (result, timing) = ticket.wait_timed();
        assert!(result.unwrap().cover.is_cover_of(&tiny()));
        // It entered the queue when the worker took `queued`, and waited
        // only for that one tiny solve.
        assert!(
            timing.queue < Duration::from_millis(100),
            "queue wait {:?} counts the blocked submit",
            timing.queue
        );
        // The class histogram holds one long wait — `queued`'s, behind
        // the gate — not two.
        let waits = service.metrics().bulk.queue_wait;
        let long: u64 = (0..waits.buckets.len())
            .filter(|&i| LatencyHistogram::bucket_upper_bound(i) > Duration::from_millis(200))
            .map(|i| waits.buckets[i])
            .sum();
        assert_eq!(long, 1);
        for t in busy.into_iter().chain([queued]) {
            t.wait().unwrap();
        }
    }

    #[test]
    fn delta_submissions_carry_class_and_deadline() {
        let gate = Gate::new();
        let service = SolveService::with_queue_capacity(config(), 1, 8);
        let g = tiny();
        let base = service.submit(Arc::clone(&g), 0.5).unwrap().wait().unwrap();
        let (revised, warm) = revision(&g, &base);
        let busy = occupy_workers(&service, &gate);
        let doomed = service
            .submit_warm(
                revised,
                0.5,
                warm,
                SubmitOptions::interactive().with_deadline(std::time::Duration::ZERO),
            )
            .unwrap();
        gate.release();
        for t in busy {
            t.wait().unwrap();
        }
        assert!(matches!(doomed.wait(), Err(SolveError::Expired { .. })));
        assert_eq!(service.metrics().interactive.expired, 1);
    }
}

/// Model-checked interleaving scenarios for the service and its worker
/// pool, compiled only under `RUSTFLAGS="--cfg conc_check"` (the
/// `dcover_congest::sync` facade then routes every sync operation through
/// the `dcover_conccheck` scheduler). They live in a unit-test module
/// because one of them injects a fault through the test-only
/// [`SolveService::set_pre_solve`] hook.
///
/// Every scenario asserts the **exactly-once ticket ledger** (each issued
/// ticket resolves exactly one way — the hard assert in the slot fill
/// turns a double resolution into a model failure) and, once the service
/// has drained, the per-class counter identity `submitted == completed +
/// expired + cancelled + panicked`.
///
/// Run with:
///
/// ```text
/// RUSTFLAGS="--cfg conc_check" cargo test -p dcover-core --lib conc_check
/// ```
#[cfg(all(test, conc_check))]
mod conc_check_tests {
    use super::testkit::{config, tiny};
    use super::*;
    use crate::metrics::ClassMetrics;
    use dcover_conccheck::{explore, Config};
    use dcover_congest::sync::atomic::{AtomicBool, Ordering};
    use dcover_congest::sync::thread;

    /// Per-scenario exploration floor; the five scenarios sum to the
    /// 10 500-interleaving acceptance bar.
    const FLOOR: usize = 2100;

    /// Extra seeded random iterations per scenario, on top of the floor —
    /// CI's conc-check job sets this to 5000.
    fn extra_random_iters() -> usize {
        std::env::var("CONC_CHECK_RANDOM_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }

    /// Bounded-exhaustive pass capped at `floor`, topped up with a seeded
    /// random walk so the scenario always explores at least `floor`
    /// interleavings, plus any `CONC_CHECK_RANDOM_ITERS` requested by the
    /// environment.
    fn explore_at_least<F: Fn() + Send + Sync>(floor: usize, seed: u64, body: F) -> usize {
        let first = explore(Config::exhaustive(2, floor), &body);
        let mut total = first.executions;
        if total < floor {
            total += explore(Config::random(seed, floor - total), &body).executions;
        }
        let extra = extra_random_iters();
        if extra > 0 {
            total += explore(Config::random(seed ^ 0xA5A5, extra), &body).executions;
        }
        total
    }

    /// Ledger identity for one class snapshot: every accepted submission
    /// resolved exactly one way (`rejected`/`shed` never enter the queue
    /// and sit outside the sum).
    fn assert_identity(c: &ClassMetrics, class: RequestClass) {
        assert_eq!(
            c.submitted,
            c.completed + c.expired + c.cancelled + c.panicked,
            "ledger identity violated for {class:?}"
        );
    }

    /// Redeems a ticket the drained service must have resolved.
    fn resolved(ticket: Ticket) -> Result<CoverResult, SolveError> {
        match ticket.try_wait() {
            Ok(outcome) => outcome,
            Err(_) => panic!("ticket unresolved after the service drained"),
        }
    }

    /// A valid cover of [`tiny`], or the cancellation a racing cancel
    /// may turn it into (discarded while queued, or stopped mid-run).
    fn solved_or_cancelled(result: Result<CoverResult, SolveError>) {
        match result {
            Ok(r) => assert!(r.cover.is_cover_of(&tiny())),
            Err(e) => assert!(matches!(e, SolveError::Cancelled), "unexpected error: {e}"),
        }
    }

    /// A queued submission is cancelled from a second thread while the
    /// service drains on the first: whichever side wins, the ticket
    /// resolves exactly once — as the result or as `Cancelled`.
    #[test]
    fn submit_cancel_race_resolves_exactly_once() {
        let total = explore_at_least(FLOOR, 0xC0FFEE, || {
            let service = SolveService::with_queue_capacity(config(), 1, 4);
            let ticket = service.submit(tiny(), 0.5).unwrap();
            let canceller = thread::spawn(move || {
                ticket.cancel();
                ticket
            });
            service.shutdown();
            solved_or_cancelled(resolved(canceller.join().unwrap()));
            let m = service.metrics();
            assert_eq!(m.bulk.submitted, 1);
            assert_eq!(m.bulk.expired + m.bulk.panicked, 0);
            assert_identity(&m.bulk, RequestClass::Bulk);
        });
        assert!(total >= FLOOR, "explored only {total} interleavings");
    }

    /// A submission with a zero deadline races the worker's dequeue and
    /// the drain: it resolves as `Expired` on every path, while a
    /// day-long deadline never fires.
    #[test]
    fn zero_deadline_expiry_races_dequeue() {
        let total = explore_at_least(FLOOR, 0xDEAD11E, || {
            let service = SolveService::with_queue_capacity(config(), 1, 4);
            let zero = SubmitOptions::interactive().with_deadline(Duration::ZERO);
            let doomed = service.submit_with(tiny(), 0.5, zero).unwrap();
            let day = SubmitOptions::bulk().with_deadline(Duration::from_secs(86_400));
            let live = service.submit_with(tiny(), 0.5, day).unwrap();
            service.shutdown();
            let expired = resolved(doomed).expect_err("zero deadline is past at every dequeue");
            assert!(matches!(expired, SolveError::Expired { .. }), "{expired}");
            assert!(resolved(live)
                .expect("day-long deadline")
                .cover
                .is_cover_of(&tiny()));
            let m = service.metrics();
            assert_eq!(m.interactive.submitted, 1);
            assert_eq!(m.interactive.expired, 1);
            assert_identity(&m.interactive, RequestClass::Interactive);
            assert_identity(&m.bulk, RequestClass::Bulk);
        });
        assert!(total >= FLOOR, "explored only {total} interleavings");
    }

    /// The drain races an in-flight cancel *and* a late non-blocking
    /// submitter: the late submission is either accepted (and then
    /// completes — the drain runs everything) or refused as `ShutDown`;
    /// the cancelled ticket resolves exactly once either way.
    #[test]
    fn shutdown_drain_races_in_flight_cancel() {
        let total = explore_at_least(FLOOR, 0x51DE0, || {
            let service = Arc::new(SolveService::with_queue_capacity(config(), 1, 4));
            let victim = service.submit(tiny(), 0.5).unwrap();
            let bystander = service.submit(tiny(), 0.5).unwrap();
            let canceller = thread::spawn(move || {
                victim.cancel();
                victim
            });
            let late = {
                let service = Arc::clone(&service);
                thread::spawn(move || service.try_submit_with(&tiny(), 0.5, SubmitOptions::bulk()))
            };
            service.shutdown();
            solved_or_cancelled(resolved(canceller.join().unwrap()));
            assert!(resolved(bystander)
                .expect("no deadline, no cancel")
                .cover
                .is_cover_of(&tiny()));
            let mut accepted = 2;
            match late.join().unwrap() {
                Ok(ticket) => {
                    accepted += 1;
                    assert!(resolved(ticket)
                        .expect("accepted work drains")
                        .cover
                        .is_cover_of(&tiny()));
                }
                Err(SubmitError::ShutDown) => {}
                Err(other) => panic!("unexpected refusal: {other}"),
            }
            let m = service.metrics();
            assert_eq!(m.bulk.submitted, accepted);
            assert_identity(&m.bulk, RequestClass::Bulk);
            assert_identity(&m.interactive, RequestClass::Interactive);
        });
        assert!(total >= FLOOR, "explored only {total} interleavings");
    }

    /// One injected solve panic races two concurrent submitters on a
    /// single worker: exactly one ticket resolves as `Panicked`, the
    /// worker survives (a third submission completes), and the drained
    /// ledger balances with `panicked == 1`.
    #[test]
    fn panic_revival_under_concurrent_submitters() {
        let total = explore_at_least(FLOOR, 0xBADCA11, || {
            let service = Arc::new(SolveService::with_queue_capacity(config(), 1, 8));
            let poison = Arc::new(AtomicBool::new(true));
            {
                let poison = Arc::clone(&poison);
                service.set_pre_solve(move || {
                    if poison.swap(false, Ordering::SeqCst) {
                        panic!("injected solve panic");
                    }
                });
            }
            let g = tiny();
            let submitter = {
                let service = Arc::clone(&service);
                let g = Arc::clone(&g);
                thread::spawn(move || service.submit(g, 0.5).unwrap())
            };
            let a = service.submit(Arc::clone(&g), 0.5).unwrap();
            let b = submitter.join().unwrap();
            let ra = a.wait();
            let rb = b.wait();
            let panicked = [&ra, &rb]
                .iter()
                .filter(|r| matches!(r, Err(SolveError::Panicked { .. })))
                .count();
            assert_eq!(panicked, 1, "exactly one dequeue hits the poison");
            for res in [ra, rb].into_iter().flatten() {
                assert!(res.cover.is_cover_of(&g));
            }
            // Revival: the worker that caught the panic still serves.
            let revived = service.submit(Arc::clone(&g), 0.5).unwrap();
            assert!(revived
                .wait()
                .expect("poison consumed")
                .cover
                .is_cover_of(&g));
            service.shutdown();
            let m = service.metrics();
            assert_eq!(m.bulk.submitted, 3);
            assert_eq!(m.bulk.panicked, 1);
            assert_eq!(m.bulk.completed, 2);
            assert_identity(&m.bulk, RequestClass::Bulk);
            assert_identity(&m.interactive, RequestClass::Interactive);
        });
        assert!(total >= FLOOR, "explored only {total} interleavings");
    }

    /// The admission gate's shed read (rolling p99 + queued-head age)
    /// races bulk submission and the drain. The shed branch depends on
    /// real wall-clock waits, so this scenario runs seeded random walks
    /// only — a replayed exhaustive schedule would diverge on the timing
    /// branch. Whichever branch each interleaving takes, every accepted
    /// ticket resolves exactly once and the ledger balances.
    #[test]
    fn shed_gate_read_races_bulk_aging() {
        let report = explore(
            Config::random(0x5EDA6E, FLOOR + extra_random_iters()),
            || {
                let service = Arc::new(
                    SolveService::with_queue_capacity(config(), 1, 8)
                        .with_shed_target(Duration::from_nanos(1))
                        .with_bulk_max_wait(Duration::ZERO),
                );
                let g = tiny();
                let interactive = service
                    .submit_with(Arc::clone(&g), 0.5, SubmitOptions::interactive())
                    .unwrap();
                let submitter = {
                    let service = Arc::clone(&service);
                    let g = Arc::clone(&g);
                    thread::spawn(move || service.submit_with(g, 0.5, SubmitOptions::bulk()))
                };
                let bulk = submitter.join().unwrap();
                service.shutdown();
                assert!(interactive
                    .wait()
                    .expect("interactive is never shed")
                    .cover
                    .is_cover_of(&g));
                match bulk {
                    Ok(ticket) => {
                        assert!(ticket
                            .wait()
                            .expect("accepted work drains")
                            .cover
                            .is_cover_of(&g));
                    }
                    Err(SubmitError::Overloaded { .. }) => {}
                    Err(other) => panic!("unexpected submit error: {other:?}"),
                }
                let m = service.metrics();
                assert_identity(&m.bulk, RequestClass::Bulk);
                assert_identity(&m.interactive, RequestClass::Interactive);
                assert_eq!(m.interactive.submitted, 1);
                assert_eq!(m.bulk.submitted + m.bulk.shed, 1);
            },
        );
        assert!(report.executions >= FLOOR);
    }
}
