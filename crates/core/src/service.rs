//! The asynchronous solve service: a submission queue with backpressure
//! in front of one persistent worker pool.
//!
//! A real server receives instances **as they arrive**; [`SolveService`]
//! is that front door. Each instance is solved sequentially on one pool
//! worker — chunk parallelism within one instance belongs to
//! [`MwhvcSolver::solve_parallel`](crate::MwhvcSolver::solve_parallel):
//!
//! * [`submit`](SolveService::submit) hands in one shared read-only
//!   instance (`Arc<Hypergraph>` — **never deep-copied**, see below) and
//!   returns a [`Ticket`] immediately; the solve runs on whichever pool
//!   worker frees up first. When the bounded queue is full, `submit`
//!   blocks until a slot opens.
//! * [`try_submit_with`](SolveService::try_submit_with) never blocks: a
//!   full queue is reported as [`SubmitError::Backpressure`], so an
//!   ingestion loop can shed or defer load instead of stalling.
//! * [`Ticket::wait`] / [`Ticket::try_wait`] redeem a submission for its
//!   [`CoverResult`], which is **bit-identical** to what a standalone
//!   [`MwhvcSolver::solve`](crate::MwhvcSolver::solve) returns for the
//!   same instance and ε.
//! * [`submit_delta_with`](SolveService::submit_delta_with) hands in a
//!   **revision**
//!   of an earlier submission (an
//!   [`InstanceDelta`](dcover_hypergraph::InstanceDelta) referencing its
//!   [`Ticket::seq`]): the service resolves the cached predecessor, applies
//!   the delta, and **warm-starts** the re-solve from the predecessor's
//!   dual packing ([`MwhvcSolver::solve_warm`]) instead of solving from
//!   scratch.
//! * [`shutdown`](SolveService::shutdown) closes the queue (subsequent
//!   submissions fail with [`SubmitError::ShutDown`]), **drains** every
//!   queued and in-flight solve, and joins the workers — every ticket
//!   issued before the shutdown still resolves.
//!
//! # Request classes, deadlines, and cancellation
//!
//! The submission queue is a small multi-class scheduler, not a plain
//! FIFO: [`submit_with`](SolveService::submit_with) /
//! [`try_submit_with`](SolveService::try_submit_with) /
//! [`submit_delta_with`](SolveService::submit_delta_with) take
//! [`SubmitOptions`] carrying a [`RequestClass`](crate::RequestClass)
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
//! [`Ticket::try_wait_timed`] as [`TaskTiming`] values.
//!
//! # Zero-copy instances
//!
//! The service threads the `Arc<Hypergraph>` through to the solver layer
//! untouched: the queue stores the `Arc` handle, the worker borrows
//! `&Hypergraph` out of it for the solve, and no code path copies the
//! underlying instance data (the delta result cache retains the handle,
//! not a copy). `dcover_hypergraph::clone_count()` observes payload
//! copies process-wide, and `tests/zero_copy.rs` pins this guarantee.
//!
//! # Error isolation
//!
//! A bad instance (oversized weights, tightened limits) resolves its own
//! ticket with an `Err` and nothing else; even a *panicking* solve task is
//! confined to its ticket ([`SolveError::Panicked`]) — the pool worker
//! survives and every other submission proceeds.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use dcover_core::SolveService;
//! use dcover_hypergraph::from_weighted_edge_lists;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = SolveService::with_epsilon(0.5, 2)?;
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

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

use dcover_congest::sync::atomic::{AtomicU64, Ordering};
use dcover_congest::sync::Mutex;

use dcover_congest::{
    CancelToken, ClassMetrics, EngineArena, Interrupt, InterruptReason, SimError, SimPool,
    TaskClass, TaskError, TaskOptions, TaskTicket, TaskTiming, TrySubmitError,
};
use dcover_hypergraph::{Hypergraph, InstanceDelta};

use crate::error::SolveError;
use crate::params::MwhvcConfig;
use crate::protocol::MwhvcNode;
use crate::solver::{CoverResult, MwhvcSolver};
use crate::warm::WarmState;

/// Default number of completed solves the service retains for
/// [`submit_delta_with`](SolveService::submit_delta_with) to warm-start
/// against.
const DEFAULT_RESULT_CACHE: usize = 256;

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
    /// A [`submit_delta_with`](SolveService::submit_delta_with) referenced
    /// a base revision the service does not hold: the sequence id was never
    /// issued, its solve failed or has not completed yet, or its entry
    /// was evicted from the bounded result cache.
    UnknownBase {
        /// The sequence id that could not be resolved.
        seq: u64,
    },
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
            SubmitError::UnknownBase { seq } => write!(
                f,
                "no cached result for base revision {seq} (not completed, failed, or evicted)"
            ),
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
    /// The request class ([`RequestClass::Bulk`](crate::RequestClass) by
    /// default — what the plain `submit` uses).
    pub class: TaskClass,
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
            class: TaskClass::Interactive,
            ..SubmitOptions::default()
        }
    }

    /// Bulk-class options without a deadline (the default).
    #[must_use]
    pub fn bulk() -> Self {
        SubmitOptions::default()
    }

    /// Returns the options with the queue deadline set.
    #[must_use]
    pub fn with_deadline(mut self, from_submit: Duration) -> Self {
        self.deadline = Some(from_submit);
        self
    }

    /// The submission's full scheduling envelope, anchored at "now" (the
    /// submit call): the pool-level [`TaskOptions`] (queue class, absolute
    /// deadline, cancel token) plus the in-run [`Interrupt`] carrying the
    /// **same** token and deadline, so a cancel or an expiry is honoured
    /// both while queued (discarded at dequeue) and mid-run (stopped at
    /// the next round boundary).
    fn envelope(self) -> SubmissionEnvelope {
        let submitted = Instant::now();
        let token = CancelToken::new();
        let deadline = self.deadline.map(|d| submitted + d);
        let mut interrupt = Interrupt::new().with_token(token.clone());
        if let Some(d) = deadline {
            interrupt = interrupt.with_deadline(d);
        }
        SubmissionEnvelope {
            task: TaskOptions {
                class: self.class,
                deadline,
                cancel: Some(token.clone()),
            },
            interrupt,
            token,
            submitted,
        }
    }
}

/// Everything one submission needs to be schedulable, cancellable, and
/// deadline-bounded across its whole lifecycle (see
/// [`SubmitOptions::envelope`]).
struct SubmissionEnvelope {
    /// Pool-level scheduling options (class, absolute deadline, token).
    task: TaskOptions,
    /// The in-run interrupt checked once per round by the simulator.
    interrupt: Interrupt,
    /// The shared cancel token, kept by the [`Ticket`].
    token: CancelToken,
    /// When the submit call happened (anchors `Expired::waited`).
    submitted: Instant,
}

/// What a submission does when the bounded queue is full.
#[derive(Copy, Clone)]
enum OnFull {
    /// Block until a worker frees a slot.
    Wait,
    /// Refuse with [`SubmitError::Backpressure`].
    Refuse,
}

/// A point-in-time snapshot of the service's scheduling metrics, from
/// [`SolveService::metrics`].
///
/// Per-class [`ClassMetrics`] carry
/// submitted/completed/expired/cancelled/shed/rejected counters plus
/// queue-wait and solve-time latency histograms (the `run_time` histogram
/// of a solve task **is** its solve time). Counters accumulate for the
/// service's lifetime and survive [`shutdown`](SolveService::shutdown).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Interactive-class counters and histograms.
    pub interactive: ClassMetrics,
    /// Bulk-class counters and histograms.
    pub bulk: ClassMetrics,
    /// Highest number of submissions ever waiting in the queue at once
    /// (both classes combined).
    pub queue_depth_high_water: u64,
    /// Total time workers spent running solve tasks.
    pub worker_busy: Duration,
    /// Rolling p99 of recent interactive queue waits — the SLO signal
    /// admission control sheds on
    /// ([`SolveService::with_shed_target`]). `None` until an
    /// interactive submission has been dequeued.
    pub interactive_wait_p99: Option<Duration>,
}

impl ServiceMetrics {
    /// The snapshot for one request class.
    #[must_use]
    pub fn class(&self, class: TaskClass) -> &ClassMetrics {
        match class {
            TaskClass::Interactive => &self.interactive,
            TaskClass::Bulk => &self.bulk,
        }
    }
}

/// A pending solve: redeem with [`wait`](Ticket::wait) (blocking) or
/// [`try_wait`](Ticket::try_wait) (polling); the `_timed` variants
/// additionally report the per-ticket queue-wait and solve time. Tickets
/// outlive the service — shutdown drains the queue, so every issued
/// ticket resolves.
#[derive(Debug)]
pub struct Ticket {
    seq: u64,
    inner: TaskTicket<Result<CoverResult, SolveError>>,
    /// Shared with the queued task and the in-run interrupt; see
    /// [`cancel`](Self::cancel).
    cancel: CancelToken,
}

impl Ticket {
    /// The submission's sequence id: unique per service, 0-based, and
    /// monotone in submission order *as observed by each submitting
    /// thread* — which for a single-threaded ingestion loop (the `dcover
    /// serve` shape) is exactly arrival order, letting a caller that
    /// redeems tickets in completion order re-associate results with
    /// requests. This id is also the handle
    /// [`submit_delta_with`](SolveService::submit_delta_with) resolves a revision's
    /// predecessor by. When several threads submit concurrently, ids stay
    /// unique but the interleaving between threads is unspecified. The id
    /// is drawn from an atomic counter *before* the enqueue (the solve
    /// task must know it to register its result for warm-starting), so a
    /// refused non-blocking submission leaves a gap in the sequence.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Whether the solve has finished (a `wait` would not block).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.inner.is_done()
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
    /// [`SolveError::Panicked`] if the solve task panicked on its worker,
    /// [`SolveError::Expired`] if the submission's deadline passed
    /// (queued or mid-run), or [`SolveError::Cancelled`] if
    /// [`cancel`](Self::cancel) landed before the solve finished.
    pub fn wait(self) -> Result<CoverResult, SolveError> {
        self.wait_timed().0
    }

    /// Like [`wait`](Self::wait), additionally reporting the ticket's
    /// [`TaskTiming`]: `queue` is the time spent waiting in the
    /// submission queue, `run` the solve time on the worker (zero for an
    /// expired ticket).
    pub fn wait_timed(self) -> (Result<CoverResult, SolveError>, TaskTiming) {
        let (result, timing) = self.inner.wait_timed();
        (flatten(result), timing)
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
        let seq = self.seq;
        let cancel = self.cancel.clone();
        match self.inner.try_wait_timed() {
            Ok((result, timing)) => Ok((flatten(result), timing)),
            Err(inner) => Err(Ticket { seq, inner, cancel }),
        }
    }
}

/// Collapses the pool-level task outcome into the service's error type.
fn flatten(
    result: Result<Result<CoverResult, SolveError>, TaskError>,
) -> Result<CoverResult, SolveError> {
    match result {
        Ok(inner) => inner,
        Err(TaskError::Panicked(payload)) => Err(SolveError::Panicked {
            message: panic_message(payload.as_ref()),
        }),
        Err(TaskError::Expired { waited }) => Err(SolveError::Expired { waited }),
        Err(TaskError::Cancelled { .. }) => Err(SolveError::Cancelled),
    }
}

/// Best-effort rendering of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// One completed solve retained so later deltas can warm-start from it.
#[derive(Clone, Debug)]
struct CacheEntry {
    graph: Arc<Hypergraph>,
    result: Arc<CoverResult>,
    epsilon: f64,
}

/// Bounded seq-keyed store of completed solves, evicting the
/// oldest-inserted entry at capacity. Workers insert on completion;
/// [`SolveService::submit_delta_with`] resolves predecessors out of it.
/// A `BTreeMap` rather than a hash map: eviction order comes from the
/// explicit `order` deque either way, but clippy's `disallowed_types`
/// (the root `clippy.toml`) bans hash collections outright — deterministic
/// iteration is then a structural property, not a promise that nobody
/// ever iterates `map`.
#[derive(Debug)]
struct ResultCache {
    capacity: usize,
    map: BTreeMap<u64, CacheEntry>,
    order: VecDeque<u64>,
}

impl ResultCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: BTreeMap::new(),
            order: VecDeque::new(),
        }
    }

    fn insert(&mut self, seq: u64, entry: CacheEntry) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(seq, entry).is_none() {
            self.order.push_back(seq);
            while self.map.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    fn get(&self, seq: u64) -> Option<CacheEntry> {
        self.map.get(&seq).cloned()
    }

    /// Rebounds the cache, evicting oldest-inserted entries down to the
    /// new capacity (0 clears it entirely). Merely reassigning `capacity`
    /// would leave already-inserted entries resident and resolvable past
    /// the new bound.
    fn resize(&mut self, capacity: usize) {
        self.capacity = capacity;
        if capacity == 0 {
            self.map.clear();
            self.order.clear();
            return;
        }
        while self.map.len() > capacity {
            match self.order.pop_front() {
                Some(old) => {
                    self.map.remove(&old);
                }
                None => break,
            }
        }
    }
}

/// An asynchronous MWHVC solve service: one persistent worker pool behind
/// a bounded submission queue. See the module docs for the serving model.
#[derive(Debug)]
pub struct SolveService {
    base: MwhvcConfig,
    /// The worker pool, its queue and its scheduler metrics, for the
    /// service's whole life.
    pool: SimPool<MwhvcNode>,
    /// Next sequence id.
    seq: AtomicU64,
    /// Completed solves retained for delta warm-starts, keyed by seq.
    /// Shared with the in-flight solve tasks (they insert on success).
    cache: Arc<Mutex<ResultCache>>,
    /// SLO-driven admission control: when set, bulk submissions are shed
    /// with [`SubmitError::Overloaded`] while the interactive queue-wait
    /// signal (rolling dequeue p99, or the oldest queued interactive
    /// submission's age) is above this target.
    shed_target: Option<Duration>,
    /// Test-only fault-injection seam: runs on the worker after the task
    /// was dequeued, immediately before the solve starts — used to pin
    /// mid-run cancel/expiry states deterministically.
    #[cfg(test)]
    pre_solve: Mutex<PreSolveHook>,
}

/// Test-only fault-injection hook storage (newtype so the service can
/// keep deriving `Debug`).
#[cfg(test)]
#[derive(Clone, Default)]
struct PreSolveHook(Option<Arc<dyn Fn() + Send + Sync>>);

#[cfg(test)]
impl std::fmt::Debug for PreSolveHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("PreSolveHook")
            .field(&self.0.as_ref().map(|_| "..."))
            .finish()
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
            // `SimPool::with_capacity` enforces the `# Panics` preconditions.
            pool: SimPool::with_capacity(threads, capacity),
            seq: AtomicU64::new(0),
            cache: Arc::new(Mutex::new(ResultCache::new(DEFAULT_RESULT_CACHE))),
            shed_target: None,
            #[cfg(test)]
            pre_solve: Mutex::new(PreSolveHook::default()),
        }
    }

    /// Resizes the result cache backing
    /// [`submit_delta_with`](Self::submit_delta_with) (default:
    /// 256 completed solves; 0 disables retention entirely, making every
    /// delta submission fail with [`SubmitError::UnknownBase`]).
    /// Shrinking below the current population evicts the oldest-inserted
    /// entries down to the new bound, and 0 clears every retained entry.
    /// Consuming builder style — usually called right after construction,
    /// but safe at any point.
    #[must_use]
    pub fn with_result_cache(self, capacity: usize) -> Self {
        // A poisoned cache mutex (a worker panicked mid-record) must not
        // turn a resize into a second panic: the cache's own state is
        // a plain map plus its insertion-order queue, coherent after any
        // interrupted insert, so recover the guard and resize anyway.
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .resize(capacity);
        self
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

    /// Starts a service with the given base ε and default settings.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::InvalidEpsilon`] unless `0 < epsilon ≤ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_epsilon(epsilon: f64, threads: usize) -> Result<Self, SolveError> {
        Ok(Self::new(MwhvcConfig::new(epsilon)?, threads))
    }

    /// The service's base configuration (per-submission ε overrides it;
    /// every other setting — α policy, variant, budget, trace, round
    /// limit — is inherited by every solve).
    #[must_use]
    pub fn config(&self) -> &MwhvcConfig {
        &self.base
    }

    /// Number of persistent worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.workers()
    }

    /// The submission queue's capacity (waiting instances).
    #[must_use]
    pub fn queue_capacity(&self) -> usize {
        self.pool.capacity()
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
        let metrics = self.pool.metrics();
        ServiceMetrics {
            interactive: metrics.class(TaskClass::Interactive),
            bulk: metrics.class(TaskClass::Bulk),
            queue_depth_high_water: metrics.queue_depth_high_water(),
            worker_busy: metrics.busy(),
            interactive_wait_p99: metrics.interactive_wait_p99(),
        }
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
    fn admit(&self, epsilon: f64, class: TaskClass) -> Result<MwhvcSolver, SubmitError> {
        let config = self
            .base
            .clone()
            .with_epsilon(epsilon)
            .map_err(SubmitError::Invalid)?;
        let solver = MwhvcSolver::new(config);
        if class != TaskClass::Bulk {
            return Ok(solver);
        }
        let Some(target) = self.shed_target else {
            return Ok(solver);
        };
        let metrics = self.pool.metrics();
        let rolling = metrics.interactive_wait_p99();
        let queued_head = self.pool.oldest_queued_wait(TaskClass::Interactive);
        match rolling.into_iter().chain(queued_head).max() {
            Some(signal) if signal > target => {
                metrics.record_shed(class);
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

    /// Submits a **revision** of an earlier submission under explicit
    /// [`SubmitOptions`] (request class and optional deadline): the delta
    /// is applied to the cached base instance and the re-solve is
    /// **warm-started** from the base's dual packing
    /// ([`MwhvcSolver::solve_warm`]) instead of solving from scratch.
    /// Returns the ticket plus the revised instance (shared — deltas can
    /// be chained by referencing this submission's seq in turn).
    ///
    /// `base_seq` is the [`Ticket::seq`] of any earlier submission whose
    /// solve has **completed successfully** and is still in the bounded
    /// result cache (see [`with_result_cache`](Self::with_result_cache)).
    /// `epsilon` defaults to the base submission's ε, preserving the
    /// `(f + ε)` guarantee across a revision chain.
    ///
    /// Blocks while the queue is at capacity, like
    /// [`submit_with`](Self::submit_with).
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownBase`] if `base_seq` cannot be resolved,
    /// [`SubmitError::Invalid`] if the delta does not apply to the base
    /// instance or the ε override is invalid, [`SubmitError::Overloaded`]
    /// for a bulk revision shed by admission control, and
    /// [`SubmitError::ShutDown`] after shutdown. A deadline miss resolves
    /// the ticket with [`SolveError::Expired`].
    pub fn submit_delta_with(
        &self,
        base_seq: u64,
        delta: &InstanceDelta,
        epsilon: Option<f64>,
        opts: SubmitOptions,
    ) -> Result<(Ticket, Arc<Hypergraph>), SubmitError> {
        // A poisoned cache mutex (a worker panicked mid-record) resolves
        // as the typed `UnknownBase` rather than a second panic: the
        // base entry genuinely cannot be *trusted* to be resolvable, and
        // the caller's recovery — resubmit from scratch via `submit` —
        // is the same as for an evicted base.
        let entry = self
            .cache
            .lock()
            .map_err(|_| SubmitError::UnknownBase { seq: base_seq })?
            .get(base_seq)
            .ok_or(SubmitError::UnknownBase { seq: base_seq })?;
        let solver = self.admit(epsilon.unwrap_or(entry.epsilon), opts.class)?;
        let outcome = delta
            .apply(&entry.graph)
            .map_err(|e| SubmitError::Invalid(SolveError::Delta(e)))?;
        let warm = WarmState::for_delta(&entry.result, &outcome);
        let g = Arc::new(outcome.graph);
        let ticket = self.enqueue(solver, Arc::clone(&g), Some(warm), opts, OnFull::Wait)?;
        Ok((ticket, g))
    }

    /// Gracefully shuts the service down: close the queue (subsequent
    /// submissions fail with [`SubmitError::ShutDown`]), **drain** every
    /// queued and in-flight solve, and join the workers. Every ticket
    /// issued before this call resolves by the time `shutdown` returns.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.pool.shutdown();
    }

    /// The steps every admitted submission shares: draw the seq, anchor
    /// the envelope, build the solve task, enqueue it — waiting for or
    /// refusing on a full queue, per `on_full` — and hand out the
    /// [`Ticket`].
    fn enqueue(
        &self,
        solver: MwhvcSolver,
        g: Arc<Hypergraph>,
        warm: Option<WarmState>,
        opts: SubmitOptions,
        on_full: OnFull,
    ) -> Result<Ticket, SubmitError> {
        let seq = self.next_seq();
        let envelope = opts.envelope();
        let task = self.recorded_solve(seq, g, solver, warm, &envelope);
        let inner = match on_full {
            OnFull::Wait => self
                .pool
                .submit(envelope.task, task)
                .map_err(|_| SubmitError::ShutDown)?,
            OnFull::Refuse => self
                .pool
                .try_submit(envelope.task, task)
                .map_err(|e| match e {
                    TrySubmitError::Full => SubmitError::Backpressure {
                        capacity: self.pool.capacity(),
                    },
                    TrySubmitError::Closed => SubmitError::ShutDown,
                })?,
        };
        Ok(Ticket {
            seq,
            inner,
            cancel: envelope.token,
        })
    }

    /// Draws the next sequence id. Ids are allocated before the enqueue so
    /// the solve task knows the key to record its result under.
    fn next_seq(&self) -> u64 {
        // relaxed: only uniqueness/atomicity of the counter matters; the
        // id is handed to the solve task through the queue's mutex, which
        // provides the happens-before edge.
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// The solve task for one submission: runs the (cold or warm) solve
    /// on the worker's arena — under the submission's [`Interrupt`], so a
    /// cancel or a deadline miss stops it cooperatively at the next round
    /// boundary and resolves as the typed [`SolveError::Cancelled`] /
    /// [`SolveError::Expired`] — and, on success, records the result in
    /// the delta cache under `seq` before the ticket resolves — so once a
    /// caller has observed a submission's completion, a delta referencing
    /// its seq is guaranteed to find it (bounded-cache eviction aside).
    fn recorded_solve(
        &self,
        seq: u64,
        g: Arc<Hypergraph>,
        solver: MwhvcSolver,
        warm: Option<WarmState>,
        envelope: &SubmissionEnvelope,
    ) -> impl FnOnce(&mut EngineArena<MwhvcNode>) -> Result<CoverResult, SolveError> + Send + 'static
    {
        let cache = Arc::clone(&self.cache);
        let epsilon = solver.config().epsilon();
        let solver = solver.with_interrupt(envelope.interrupt.clone());
        let submitted = envelope.submitted;
        #[cfg(test)]
        let hook = self
            .pre_solve
            .lock()
            .expect("pre-solve hook mutex")
            .0
            .clone();
        move |arena| {
            #[cfg(test)]
            if let Some(hook) = &hook {
                hook();
            }
            let result = match &warm {
                None => solver.solve_with_arena(&g, arena),
                Some(warm) => solver.solve_warm_with_arena(&g, warm, arena),
            };
            let result = match result {
                Err(SolveError::Sim(SimError::Interrupted { reason, .. })) => match reason {
                    InterruptReason::Cancelled => Err(SolveError::Cancelled),
                    InterruptReason::DeadlinePassed => Err(SolveError::Expired {
                        waited: submitted.elapsed(),
                    }),
                },
                other => other,
            };
            if let Ok(r) = &result {
                // Check the capacity before paying for the result copy, so
                // a service with retention disabled (`with_result_cache(0)`)
                // adds nothing to the pure-streaming hot path beyond one
                // uncontended lock.
                // On a poisoned cache mutex, skip recording instead of
                // panicking the worker: the solve itself succeeded and
                // its ticket must still resolve `Ok`; only future
                // delta-warm-starts against this seq are lost (they fail
                // with the typed `UnknownBase`).
                let enabled = cache.lock().is_ok_and(|c| c.capacity > 0);
                if enabled {
                    let entry = CacheEntry {
                        graph: Arc::clone(&g),
                        result: Arc::new(r.clone()),
                        epsilon,
                    };
                    if let Ok(mut cache) = cache.lock() {
                        cache.insert(seq, entry);
                    }
                }
            }
            result
        }
    }

    /// Blocking enqueue of an arbitrary solve task (the typed `submit` is
    /// a wrapper that additionally records its result for delta
    /// warm-starts; tests inject gated or panicking tasks here).
    #[cfg(test)]
    fn submit_task<F>(&self, f: F) -> Result<Ticket, SubmitError>
    where
        F: FnOnce(&mut EngineArena<MwhvcNode>) -> Result<CoverResult, SolveError> + Send + 'static,
    {
        self.submit_task_with(SubmitOptions::default(), f)
    }

    /// [`submit_task`](Self::submit_task) under explicit options, for
    /// deterministic class-scheduling tests.
    #[cfg(test)]
    fn submit_task_with<F>(&self, opts: SubmitOptions, f: F) -> Result<Ticket, SubmitError>
    where
        F: FnOnce(&mut EngineArena<MwhvcNode>) -> Result<CoverResult, SolveError> + Send + 'static,
    {
        let seq = self.next_seq();
        let envelope = opts.envelope();
        let inner = self
            .pool
            .submit(envelope.task, f)
            .map_err(|_| SubmitError::ShutDown)?;
        Ok(Ticket {
            seq,
            inner,
            cancel: envelope.token,
        })
    }

    /// Installs the test-only fault-injection hook: runs on the worker
    /// after a task is dequeued, right before its solve starts. Applies
    /// to submissions made *after* this call.
    #[cfg(test)]
    fn set_pre_solve(&self, hook: impl Fn() + Send + Sync + 'static) {
        self.pre_solve.lock().expect("pre-solve hook mutex").0 = Some(Arc::new(hook));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcover_congest::sync::Condvar;
    use dcover_hypergraph::from_weighted_edge_lists;
    use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> Arc<Hypergraph> {
        Arc::new(from_weighted_edge_lists(&[10, 1, 10], &[&[0, 1], &[1, 2]]).unwrap())
    }

    /// A two-phase gate the injected tasks block on, to pin queue states
    /// deterministically: a task calls [`Gate::arrive_and_wait`]
    /// (signalling that a worker picked it up, then blocking until
    /// release), the test thread waits for a given arrival count on the
    /// condvar — no spinning, no burned core on 1-CPU CI.
    struct Gate {
        /// (arrived count, open flag).
        state: Mutex<(usize, bool)>,
        cv: Condvar,
    }

    impl Gate {
        fn new() -> Arc<Self> {
            Arc::new(Gate {
                state: Mutex::new((0, false)),
                cv: Condvar::new(),
            })
        }
        fn release(&self) {
            let mut state = self.state.lock().unwrap();
            state.1 = true;
            self.cv.notify_all();
        }
        fn arrive_and_wait(&self) {
            let mut state = self.state.lock().unwrap();
            state.0 += 1;
            self.cv.notify_all();
            while !state.1 {
                state = self.cv.wait(state).unwrap();
            }
        }
        fn await_arrivals(&self, n: usize) {
            let mut state = self.state.lock().unwrap();
            while state.0 < n {
                state = self.cv.wait(state).unwrap();
            }
        }
    }

    /// Occupies every worker with a gated task and waits (condvar-based —
    /// the tasks themselves signal pickup) until all of them have been
    /// *dequeued*, so subsequent submissions fill the queue
    /// deterministically.
    fn occupy_workers(service: &SolveService, gate: &Arc<Gate>) -> Vec<Ticket> {
        let tickets: Vec<Ticket> = (0..service.threads())
            .map(|_| {
                let gate = Arc::clone(gate);
                service
                    .submit_task(move |_arena| {
                        gate.arrive_and_wait();
                        Ok(CoverResult::empty())
                    })
                    .unwrap()
            })
            .collect();
        gate.await_arrivals(service.threads());
        tickets
    }

    #[test]
    fn backpressure_is_reported_without_blocking() {
        let gate = Gate::new();
        let service = SolveService::with_queue_capacity(MwhvcConfig::new(0.5).unwrap(), 1, 2);
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
        let service = SolveService::with_queue_capacity(MwhvcConfig::new(0.5).unwrap(), 1, 8);
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
        let service = SolveService::with_epsilon(0.5, 2).unwrap();
        let g = tiny();
        let before = service.submit(Arc::clone(&g), 0.5).unwrap();
        let bomb = service
            .submit_task(|_arena| panic!("instance 7 exploded"))
            .unwrap();
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
        let service = SolveService::with_epsilon(0.5, 3).unwrap();
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
        let service = SolveService::with_epsilon(1.0, 2).unwrap();
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
        let service = SolveService::with_epsilon(0.5, 2).unwrap();
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

    #[test]
    fn sequence_ids_are_unique_and_monotone() {
        let gate = Gate::new();
        let service = SolveService::with_queue_capacity(MwhvcConfig::new(0.5).unwrap(), 1, 1);
        let busy = occupy_workers(&service, &gate);
        let g = tiny();
        let t1 = service
            .try_submit_with(&g, 0.5, SubmitOptions::default())
            .unwrap();
        // A rejected submission leaves a gap (the id is drawn before the
        // enqueue so the task can record its result under it), but never
        // a duplicate.
        assert!(service
            .try_submit_with(&g, 0.5, SubmitOptions::default())
            .is_err());
        gate.release();
        let t2 = service.submit(Arc::clone(&g), 0.5).unwrap();
        assert_eq!(t1.seq(), busy.len() as u64);
        assert_eq!(t2.seq(), t1.seq() + 2);
        for t in busy {
            t.wait().unwrap();
        }
        t1.wait().unwrap();
        t2.wait().unwrap();
    }

    #[test]
    fn submit_delta_warm_starts_against_the_cached_predecessor() {
        use crate::warm::WarmState;
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
        let service = SolveService::with_epsilon(0.5, 2).unwrap();
        let base = service.submit(Arc::clone(&g), 0.5).unwrap();
        let base_seq = base.seq();
        let base_result = base.wait().unwrap();

        let delta = InstanceDelta {
            remove_edges: vec![EdgeId::new(5)],
            add_edges: vec![vec![VertexId::new(1), VertexId::new(4)]],
            set_weights: vec![(VertexId::new(2), 50)],
        };
        let (ticket, revised) = service
            .submit_delta_with(base_seq, &delta, None, SubmitOptions::default())
            .unwrap();
        let revised_seq = ticket.seq();
        let served = ticket.wait().unwrap();

        // Bit-identical to driving the warm path by hand.
        let out = delta.apply(&g).unwrap();
        assert_eq!(*revised, out.graph);
        let direct = MwhvcSolver::with_epsilon(0.5)
            .unwrap()
            .solve_warm(&out.graph, &WarmState::for_delta(&base_result, &out))
            .unwrap();
        assert_eq!(served.cover, direct.cover);
        assert_eq!(served.duals, direct.duals);
        assert_eq!(served.levels, direct.levels);
        assert_eq!(served.report, direct.report);

        // Deltas chain: revise the revision.
        let delta2 = InstanceDelta {
            set_weights: vec![(VertexId::new(9), 1)],
            ..InstanceDelta::empty()
        };
        let (ticket2, revised2) = service
            .submit_delta_with(revised_seq, &delta2, None, SubmitOptions::default())
            .unwrap();
        let chained = ticket2.wait().unwrap();
        assert!(chained.cover.is_cover_of(&revised2));
    }

    #[test]
    fn submit_delta_error_paths() {
        use dcover_hypergraph::{EdgeId, InstanceDelta};
        let service = SolveService::with_epsilon(0.5, 1).unwrap();
        let g = tiny();

        // Unknown base: never submitted.
        assert_eq!(
            service
                .submit_delta_with(99, &InstanceDelta::empty(), None, SubmitOptions::default())
                .unwrap_err(),
            SubmitError::UnknownBase { seq: 99 }
        );

        let base = service.submit(Arc::clone(&g), 0.5).unwrap();
        let seq = base.seq();
        base.wait().unwrap();

        // A delta that does not apply to the base instance.
        let bad = InstanceDelta {
            remove_edges: vec![EdgeId::new(42)],
            ..InstanceDelta::empty()
        };
        assert!(matches!(
            service.submit_delta_with(seq, &bad, None, SubmitOptions::default()),
            Err(SubmitError::Invalid(SolveError::Delta(_)))
        ));

        // A bad ε override is refused at the door, like submit's.
        assert!(matches!(
            service.submit_delta_with(
                seq,
                &InstanceDelta::empty(),
                Some(0.0),
                SubmitOptions::default()
            ),
            Err(SubmitError::Invalid(SolveError::InvalidEpsilon { .. }))
        ));

        // A failed solve is never cached: its seq is not a valid base.
        let oversized = Arc::new(from_weighted_edge_lists(&[1 << 60, 1], &[&[0, 1]]).unwrap());
        let bad_ticket = service.submit(oversized, 0.5).unwrap();
        let bad_seq = bad_ticket.seq();
        assert!(bad_ticket.wait().is_err());
        assert_eq!(
            service
                .submit_delta_with(
                    bad_seq,
                    &InstanceDelta::empty(),
                    None,
                    SubmitOptions::default()
                )
                .unwrap_err(),
            SubmitError::UnknownBase { seq: bad_seq }
        );

        // After shutdown the door is closed for deltas too.
        service.shutdown();
        assert!(matches!(
            service.submit_delta_with(seq, &InstanceDelta::empty(), None, SubmitOptions::default()),
            Err(SubmitError::ShutDown)
        ));
    }

    #[test]
    fn result_cache_is_bounded_and_evicts_oldest() {
        use dcover_hypergraph::InstanceDelta;
        let service = SolveService::with_epsilon(0.5, 1)
            .unwrap()
            .with_result_cache(2);
        let g = tiny();
        let seqs: Vec<u64> = (0..3)
            .map(|_| {
                let t = service.submit(Arc::clone(&g), 0.5).unwrap();
                let seq = t.seq();
                t.wait().unwrap();
                seq
            })
            .collect();
        // Oldest entry evicted; the two newest still resolve.
        assert_eq!(
            service
                .submit_delta_with(
                    seqs[0],
                    &InstanceDelta::empty(),
                    None,
                    SubmitOptions::default()
                )
                .unwrap_err(),
            SubmitError::UnknownBase { seq: seqs[0] }
        );
        for &seq in &seqs[1..] {
            let (t, _) = service
                .submit_delta_with(seq, &InstanceDelta::empty(), None, SubmitOptions::default())
                .unwrap();
            t.wait().unwrap();
        }
    }

    #[test]
    fn delta_epsilon_defaults_to_the_base_submissions_epsilon() {
        use dcover_hypergraph::InstanceDelta;
        let service = SolveService::with_epsilon(1.0, 2).unwrap();
        let g = tiny();
        let base = service.submit(Arc::clone(&g), 0.25).unwrap();
        let seq = base.seq();
        let cold = base.wait().unwrap();
        let (t, _) = service
            .submit_delta_with(seq, &InstanceDelta::empty(), None, SubmitOptions::default())
            .unwrap();
        let warm = t.wait().unwrap();
        // Same ε as the base (0.25), not the service base ε (1.0): the
        // empty-delta warm result is bit-identical to the 0.25 cold one.
        assert_eq!(warm.cover, cold.cover);
        assert_eq!(warm.duals, cold.duals);
        assert_eq!(warm.levels, cold.levels);
        assert_eq!(warm.dual_total, cold.dual_total);
    }

    #[test]
    fn try_wait_polls_until_done() {
        let gate = Gate::new();
        let service = SolveService::with_epsilon(0.5, 1).unwrap();
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
        let service = SolveService::with_queue_capacity(MwhvcConfig::new(0.5).unwrap(), 1, 8);
        let busy = occupy_workers(&service, &gate);
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let mut tickets = Vec::new();
        for name in ["b1", "b2"] {
            let order = Arc::clone(&order);
            tickets.push(
                service
                    .submit_task_with(SubmitOptions::bulk(), move |_arena| {
                        order.lock().unwrap().push(name);
                        Ok(CoverResult::empty())
                    })
                    .unwrap(),
            );
        }
        for name in ["i1", "i2"] {
            let order = Arc::clone(&order);
            tickets.push(
                service
                    .submit_task_with(SubmitOptions::interactive(), move |_arena| {
                        order.lock().unwrap().push(name);
                        Ok(CoverResult::empty())
                    })
                    .unwrap(),
            );
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
        let service = SolveService::with_queue_capacity(MwhvcConfig::new(0.5).unwrap(), 1, 8);
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
            Err(SolveError::Expired { waited }) => assert_eq!(waited, timing.queue),
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
        let service = SolveService::with_queue_capacity(MwhvcConfig::new(0.5).unwrap(), 1, 8);
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
        let service = SolveService::with_epsilon(0.5, 1).unwrap();
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
        let service = SolveService::with_epsilon(0.5, 1).unwrap();
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
        let service = SolveService::with_epsilon(0.5, 1).unwrap();
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
        use dcover_hypergraph::InstanceDelta;
        let gate = Gate::new();
        let service = SolveService::with_queue_capacity(MwhvcConfig::new(0.5).unwrap(), 1, 8)
            .with_shed_target(std::time::Duration::from_millis(1));
        let g = tiny();
        // Solve one instance before the overload so a delta base exists.
        let base = service.submit(Arc::clone(&g), 0.5).unwrap();
        let base_seq = base.seq();
        base.wait().unwrap();
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
            service.submit_delta_with(
                base_seq,
                &InstanceDelta::empty(),
                None,
                SubmitOptions::default()
            ),
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
        let service = SolveService::with_queue_capacity(MwhvcConfig::new(0.5).unwrap(), 1, 8)
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
        let service = SolveService::with_queue_capacity(MwhvcConfig::new(0.5).unwrap(), 1, 8);
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
        let service = SolveService::with_queue_capacity(MwhvcConfig::new(0.5).unwrap(), 1, 8)
            .with_bulk_max_wait(std::time::Duration::ZERO);
        let busy = occupy_workers(&service, &gate);
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let mut tickets = Vec::new();
        for (name, opts) in [
            ("b1", SubmitOptions::bulk()),
            ("i1", SubmitOptions::interactive()),
        ] {
            let order = Arc::clone(&order);
            tickets.push(
                service
                    .submit_task_with(opts, move |_arena| {
                        order.lock().unwrap().push(name);
                        Ok(CoverResult::empty())
                    })
                    .unwrap(),
            );
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
        let service = SolveService::with_epsilon(0.5, 2).unwrap();
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
        assert_eq!(m.class(TaskClass::Bulk).completed, 3);
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
        let service = SolveService::with_epsilon(0.5, 2).unwrap();
        let g = tiny();
        service.submit(Arc::clone(&g), 0.5).unwrap().wait().unwrap();
        // A queued interactive cancel and a shed, recorded before the call.
        let busy = occupy_workers(&service, &gate);
        let doomed = service
            .submit_with(Arc::clone(&g), 0.5, SubmitOptions::interactive())
            .unwrap();
        doomed.cancel();
        service.pool.metrics().record_shed(TaskClass::Bulk);
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
        let service = SolveService::with_epsilon(0.5, 1).unwrap();
        let worker_of = |service: &SolveService| {
            let (tx, rx) = std::sync::mpsc::channel();
            service
                .submit_task(move |_arena| {
                    tx.send(std::thread::current().id()).unwrap();
                    Ok(CoverResult::empty())
                })
                .unwrap()
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
        let service = SolveService::with_queue_capacity(MwhvcConfig::new(0.5).unwrap(), 1, 1);
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
    fn shrinking_the_result_cache_evicts_resident_entries() {
        // Regression: with_result_cache used to only reassign `capacity`,
        // leaving already-inserted entries resident and resolvable past
        // the new bound (and capacity 0 left everything behind).
        use dcover_hypergraph::InstanceDelta;
        let service = SolveService::with_epsilon(0.5, 1).unwrap();
        let g = tiny();
        let seqs: Vec<u64> = (0..3)
            .map(|_| {
                let t = service.submit(Arc::clone(&g), 0.5).unwrap();
                let seq = t.seq();
                t.wait().unwrap();
                seq
            })
            .collect();
        // Shrink below the population: only the newest entry survives.
        let service = service.with_result_cache(1);
        for &seq in &seqs[..2] {
            assert_eq!(
                service
                    .submit_delta_with(seq, &InstanceDelta::empty(), None, SubmitOptions::default())
                    .unwrap_err(),
                SubmitError::UnknownBase { seq },
                "entry {seq} must have been evicted by the shrink"
            );
        }
        let (t, _) = service
            .submit_delta_with(
                seqs[2],
                &InstanceDelta::empty(),
                None,
                SubmitOptions::default(),
            )
            .unwrap();
        let delta_seq = t.seq();
        t.wait().unwrap();
        // Capacity 0 clears the survivors (including the delta's own
        // freshly recorded result) and disables retention entirely.
        let service = service.with_result_cache(0);
        for seq in [seqs[2], delta_seq] {
            assert_eq!(
                service
                    .submit_delta_with(seq, &InstanceDelta::empty(), None, SubmitOptions::default())
                    .unwrap_err(),
                SubmitError::UnknownBase { seq }
            );
        }
        let t = service.submit(Arc::clone(&g), 0.5).unwrap();
        let seq = t.seq();
        t.wait().unwrap();
        assert_eq!(
            service
                .submit_delta_with(seq, &InstanceDelta::empty(), None, SubmitOptions::default())
                .unwrap_err(),
            SubmitError::UnknownBase { seq },
            "capacity 0 retains nothing"
        );
    }

    #[test]
    fn growing_the_result_cache_keeps_resident_entries() {
        use dcover_hypergraph::InstanceDelta;
        let service = SolveService::with_epsilon(0.5, 1)
            .unwrap()
            .with_result_cache(2);
        let g = tiny();
        let t = service.submit(Arc::clone(&g), 0.5).unwrap();
        let seq = t.seq();
        t.wait().unwrap();
        let service = service.with_result_cache(64);
        let (t, _) = service
            .submit_delta_with(seq, &InstanceDelta::empty(), None, SubmitOptions::default())
            .unwrap();
        t.wait().unwrap();
    }

    #[test]
    fn delta_submissions_carry_class_and_deadline() {
        use dcover_hypergraph::InstanceDelta;
        let gate = Gate::new();
        let service = SolveService::with_queue_capacity(MwhvcConfig::new(0.5).unwrap(), 1, 8);
        let g = tiny();
        let base = service.submit(Arc::clone(&g), 0.5).unwrap();
        let base_seq = base.seq();
        base.wait().unwrap();
        let busy = occupy_workers(&service, &gate);
        let (doomed, _) = service
            .submit_delta_with(
                base_seq,
                &InstanceDelta::empty(),
                None,
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

/// Model-checked interleaving scenarios for the service layer, compiled
/// only under `RUSTFLAGS="--cfg conc_check"` (the `dcover_congest::sync`
/// facade then routes every sync operation through the `dcover_conccheck`
/// scheduler). They live in a unit-test module because they inject faults
/// through the test-only [`SolveService::set_pre_solve`] hook.
///
/// Run with:
///
/// ```text
/// RUSTFLAGS="--cfg conc_check" cargo test -p dcover-core --lib conc_check
/// ```
#[cfg(all(test, conc_check))]
mod conc_check_tests {
    use super::*;
    use dcover_conccheck::{explore, Config};
    use dcover_congest::sync::atomic::AtomicBool;
    use dcover_congest::sync::thread;
    use dcover_hypergraph::from_weighted_edge_lists;

    fn tiny() -> Arc<Hypergraph> {
        Arc::new(from_weighted_edge_lists(&[10, 1, 10], &[&[0, 1], &[1, 2]]).unwrap())
    }

    /// Per-scenario exploration floor; together with the three pool
    /// scenarios in `dcover-congest` the suite sums past the
    /// 10 000-interleaving acceptance bar.
    const FLOOR: usize = 1500;

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
    fn assert_identity(c: &ClassMetrics, class: TaskClass) {
        assert_eq!(
            c.submitted,
            c.completed + c.expired + c.cancelled + c.panicked,
            "ledger identity violated for {class:?}"
        );
    }

    /// One injected solve panic races two concurrent submitters on a
    /// single worker: exactly one ticket resolves as `Panicked`, the
    /// worker survives (a third submission completes), and the drained
    /// ledger balances with `panicked == 1`.
    #[test]
    fn panic_revival_under_concurrent_submitters() {
        let total = explore_at_least(FLOOR, 0xBADCA11, || {
            let service = Arc::new(SolveService::with_queue_capacity(
                MwhvcConfig::new(0.5).unwrap(),
                1,
                8,
            ));
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
            assert_identity(&m.bulk, TaskClass::Bulk);
            assert_identity(&m.interactive, TaskClass::Interactive);
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
                    SolveService::with_queue_capacity(MwhvcConfig::new(0.5).unwrap(), 1, 8)
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
                assert_identity(&m.bulk, TaskClass::Bulk);
                assert_identity(&m.interactive, TaskClass::Interactive);
                assert_eq!(m.interactive.submitted, 1);
                assert_eq!(m.bulk.submitted + m.bulk.shed, 1);
            },
        );
        assert!(report.executions >= FLOOR);
    }
}
