//! The persistent worker pool behind the queue-based serving layer.
//!
//! One [`SimPool`] owns a set of worker threads that all pull from a
//! **single shared task queue** (a small multi-class scheduler built from
//! `Mutex` + `Condvar` — std only). Two classes of task flow through it,
//! in priority order:
//!
//! * **[`TaskClass::Interactive`] tasks** — latency-sensitive
//!   whole-closure work items. They dequeue **before** every queued bulk
//!   task, FIFO among themselves.
//! * **[`TaskClass::Bulk`] tasks** — throughput traffic (the default
//!   class). FIFO among themselves; only served while no interactive task
//!   waits — unless an aging bound is set with
//!   [`SimPool::set_bulk_max_wait`], in which case a bulk task that has
//!   aged past that bound is **promoted** ahead of the interactive lane
//!   (anti-starvation under sustained interactive load).
//!
//! Tasks are submitted to the pool itself, each under [`TaskOptions`]
//! that pick its [`TaskClass`], an optional **deadline** and an optional
//! cancel token. Each submission yields a [`TaskTicket`] that resolves
//! when some worker finishes the task; the queue is **bounded** across
//! both classes, so the blocking [`SimPool::submit`] waits for a free
//! slot while [`SimPool::try_submit`] reports [`TrySubmitError::Full`]
//! (backpressure) instead of growing without limit.
//!
//! # Deadlines and cancellation
//!
//! A task submitted with a deadline that is still **queued** when the
//! deadline passes resolves as the typed [`TaskError::Expired`] instead
//! of occupying a worker: the worker that dequeues it spends O(1)
//! discarding it and immediately pulls the next task. Likewise a task
//! whose [`CancelToken`] ([`TaskOptions::with_cancel`]) is cancelled
//! while queued resolves as [`TaskError::Cancelled`] without running.
//! Both are checked at dequeue time; the pool never aborts a closure a
//! worker has already started — for in-flight cooperation, hand the same
//! token to the simulation inside the closure as an
//! [`Interrupt`](crate::Interrupt), which the simulator checks once per
//! round.
//!
//! # Scheduler metrics
//!
//! Every pool records into its own [`SchedMetrics`]: per-class
//! submitted/completed/expired/rejected/panicked counters, per-class
//! queue-wait and run-time **fixed-bucket latency histograms**
//! ([`LatencyHistogram`](crate::LatencyHistogram)), the queue-depth
//! high-water mark, and total
//! worker busy time. Recording is a handful of atomic adds — **zero
//! allocation on the hot path**. [`SimPool::metrics`] hands out the
//! shared handle, which stays readable after shutdown. Per-ticket
//! timings are additionally available from [`TaskTicket::wait_timed`] as
//! a [`TaskTiming`].
//!
//! # Arena recycling
//!
//! Each worker owns one [`EngineArena`] and lends it to every task it
//! runs, so mailbox-slot, dirty-list, worklist and staging capacity
//! carries over from task to task. After a task panics the worker
//! replaces its arena with a fresh one (the old buffers may be
//! mid-mutation).
//!
//! # Panic recovery
//!
//! A panicking task resolves only its own ticket —
//! [`TaskTicket::wait`] returns [`TaskError::Panicked`] with the panic
//! payload and every other queued or in-flight task proceeds untouched.
//!
//! # Shutdown
//!
//! [`SimPool::shutdown`] (which dropping the pool also runs) is a
//! **graceful drain**: submissions are refused from that point on
//! ([`TrySubmitError::Closed`]), every task already in the queue still
//! runs (both classes; tasks past their deadline resolve as `Expired`),
//! and the workers are joined — so every issued ticket is resolved by the
//! time `shutdown` returns. It is idempotent.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cancel::CancelToken;
use crate::engine::EngineArena;
use crate::metrics::SchedMetrics;
use crate::process::Process;
use crate::sync::thread::JoinHandle;
use crate::sync::{Condvar, Mutex, MutexGuard};

/// Type-erased task result (downcast by [`TaskTicket::wait`]).
type TaskResult = Box<dyn Any + Send>;

/// Type-erased panic payload (what `catch_unwind` hands back).
type PanicPayload = Box<dyn Any + Send>;

/// A task closure run against its worker's arena.
type TaskFn<P> = Box<dyn FnOnce(&mut EngineArena<P>) -> TaskResult + Send>;

/// The scheduling class of a submitted task.
///
/// The pool's scheduler serves every queued `Interactive` task (FIFO),
/// then `Bulk` tasks (FIFO). The bounded task capacity is shared across
/// both classes.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum TaskClass {
    /// Latency-sensitive traffic: dequeues before every queued bulk task.
    Interactive,
    /// Throughput traffic (the default): FIFO behind interactive tasks.
    #[default]
    Bulk,
}

impl TaskClass {
    /// Number of task classes.
    pub const COUNT: usize = 2;

    /// Every class, in dequeue-priority order.
    pub const ALL: [TaskClass; TaskClass::COUNT] = [TaskClass::Interactive, TaskClass::Bulk];

    /// Dense index of this class (`Interactive` = 0, `Bulk` = 1), for
    /// per-class tables like [`SchedMetrics`].
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            TaskClass::Interactive => 0,
            TaskClass::Bulk => 1,
        }
    }

    /// Lower-case display name (`"interactive"` / `"bulk"`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            TaskClass::Interactive => "interactive",
            TaskClass::Bulk => "bulk",
        }
    }
}

impl std::fmt::Display for TaskClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Scheduling options for one task submission
/// ([`SimPool::submit`] / [`SimPool::try_submit`]).
#[derive(Clone, Debug, Default)]
pub struct TaskOptions {
    /// The scheduling class ([`TaskClass::Bulk`] by default).
    pub class: TaskClass,
    /// If set, a task still **queued** past this instant resolves as
    /// [`TaskError::Expired`] instead of running (checked at dequeue;
    /// the pool never aborts a closure a worker already started).
    pub deadline: Option<Instant>,
    /// If set, a task still **queued** when the token is cancelled
    /// resolves as [`TaskError::Cancelled`] instead of running (checked
    /// at dequeue, like the deadline).
    pub cancel: Option<CancelToken>,
}

impl TaskOptions {
    /// Options for an interactive-class submission without a deadline.
    #[must_use]
    pub fn interactive() -> Self {
        TaskOptions {
            class: TaskClass::Interactive,
            ..TaskOptions::default()
        }
    }

    /// Options for a bulk-class submission without a deadline (the
    /// default).
    #[must_use]
    pub fn bulk() -> Self {
        TaskOptions::default()
    }

    /// Returns the options with the deadline set `from_now` in the
    /// future.
    #[must_use]
    pub fn deadline_in(mut self, from_now: Duration) -> Self {
        self.deadline = Some(Instant::now() + from_now);
        self
    }

    /// Returns the options with a cancellation token attached: cancel
    /// the token (or any clone of it) to have the task, if still queued,
    /// resolve as [`TaskError::Cancelled`] without running.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Why a redeemed [`TaskTicket`] carries no result.
pub enum TaskError {
    /// The task closure panicked on its worker; the payload is what
    /// `catch_unwind` returned (as [`std::thread::Result`] carries).
    Panicked(PanicPayload),
    /// The task's [`TaskOptions::deadline`] passed while it was still
    /// queued; the closure was dropped unrun.
    Expired {
        /// How long the task sat in the queue before being discarded.
        waited: Duration,
    },
    /// The task's [`TaskOptions::cancel`] token was cancelled while it
    /// was still queued; the closure was dropped unrun.
    Cancelled {
        /// How long the task sat in the queue before being discarded.
        waited: Duration,
    },
}

impl TaskError {
    /// Whether this is a deadline expiry (as opposed to a panic or a
    /// cancellation).
    #[must_use]
    pub fn is_expired(&self) -> bool {
        matches!(self, TaskError::Expired { .. })
    }

    /// Whether this is a cancellation.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        matches!(self, TaskError::Cancelled { .. })
    }

    /// The panic payload, if this is a panic.
    #[must_use]
    pub fn into_panic_payload(self) -> Option<PanicPayload> {
        match self {
            TaskError::Panicked(payload) => Some(payload),
            TaskError::Expired { .. } | TaskError::Cancelled { .. } => None,
        }
    }
}

impl std::fmt::Debug for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Panicked(_) => f.debug_tuple("Panicked").field(&"<payload>").finish(),
            TaskError::Expired { waited } => {
                f.debug_struct("Expired").field("waited", waited).finish()
            }
            TaskError::Cancelled { waited } => {
                f.debug_struct("Cancelled").field("waited", waited).finish()
            }
        }
    }
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Panicked(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                write!(f, "task panicked: {msg}")
            }
            TaskError::Expired { waited } => {
                write!(f, "task deadline expired after {waited:?} in queue")
            }
            TaskError::Cancelled { waited } => {
                write!(f, "task cancelled after {waited:?} in queue")
            }
        }
    }
}

impl std::error::Error for TaskError {}

/// Per-ticket scheduling timings, reported by
/// [`TaskTicket::wait_timed`] / [`TaskTicket::try_wait_timed`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskTiming {
    /// Time between enqueue and dequeue (for an expired task: between
    /// enqueue and discard).
    pub queue: Duration,
    /// Time the closure ran on its worker (zero for an expired task).
    pub run: Duration,
}

/// A task waiting in the shared queue: the closure plus the completion
/// slot its [`TaskTicket`] is watching, and its scheduling envelope.
struct QueuedTask<P: Process> {
    run: TaskFn<P>,
    slot: Arc<TaskSlot>,
    class: TaskClass,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    enqueued: Instant,
}

/// Mutex-guarded queue state: one FIFO lane per task class, scanned in
/// [`TaskClass::ALL`] priority order.
struct QueueState<P: Process> {
    lanes: [VecDeque<QueuedTask<P>>; TaskClass::COUNT],
    /// Number of tasks currently waiting across both lanes.
    queued_tasks: usize,
    /// Set by [`SimPool::shutdown`]: refuse new submissions, drain what
    /// is queued, then let the workers exit.
    stop: bool,
    /// Bulk anti-starvation bound ([`SimPool::set_bulk_max_wait`]): a
    /// queued bulk task that has waited at least this long is served
    /// ahead of the interactive lane. `None` keeps strict class priority,
    /// under which sustained interactive load can starve bulk traffic.
    bulk_max_wait: Option<Duration>,
    /// The workers' join handles, taken (and joined outside the lock) by
    /// the first [`SimPool::shutdown`].
    handles: Vec<JoinHandle<()>>,
}

/// State shared between the pool and its workers.
struct Shared<P: Process> {
    state: Mutex<QueueState<P>>,
    /// Signalled when a task is pushed (or stop is set).
    not_empty: Condvar,
    /// Signalled when a queued task is taken by a worker (a capacity slot
    /// freed up).
    not_full: Condvar,
    /// Maximum number of *waiting* tasks across both classes (running
    /// tasks don't count).
    capacity: usize,
    /// Scheduler metrics sink (shared; possibly outliving this pool).
    metrics: Arc<SchedMetrics>,
}

impl<P: Process> Shared<P> {
    /// Locks the queue state. Every queue-lock site in this module goes
    /// through here so the poison argument lives in exactly one place.
    //
    // invariant: the queue mutex cannot be poisoned — no user code ever
    // runs under it. Workers release it (`drop(state)`) before running
    // task closures or filling ticket slots, submitters only move owned
    // data into the lanes, and the bookkeeping under the lock is
    // arithmetic on plain integers and VecDeque operations. A poison here
    // is a scheduler bug, and halting on it is exactly what the
    // conc-check scenarios need to observe.
    fn locked(&self) -> MutexGuard<'_, QueueState<P>> {
        self.state.lock().expect("queue mutex")
    }

    /// Blocking pop: the worker side of the queue. Returns the next live
    /// task and its measured queue wait, or `None` when the pool is
    /// stopping and the queue has drained. Tasks whose
    /// deadline passed — or whose cancel token was cancelled — while
    /// queued are resolved as [`TaskError::Expired`] /
    /// [`TaskError::Cancelled`] right here (their queue wait still
    /// recorded) and never returned. When bulk aging is enabled, a
    /// bulk-lane head older than the bound is served ahead of the
    /// interactive lane.
    fn pop(&self) -> Option<(QueuedTask<P>, Duration)> {
        let mut state = self.locked();
        loop {
            // Anti-starvation: an aged bulk head jumps the interactive
            // lane. FIFO within the bulk lane means its head is the
            // oldest bulk task, so one front() check suffices.
            let mut task = None;
            if let Some(bound) = state.bulk_max_wait {
                let bulk = &mut state.lanes[TaskClass::Bulk.index()];
                if bulk
                    .front()
                    .is_some_and(|head| head.enqueued.elapsed() >= bound)
                {
                    task = bulk.pop_front();
                }
            }
            if task.is_none() {
                for class in TaskClass::ALL {
                    if let Some(t) = state.lanes[class.index()].pop_front() {
                        task = Some(t);
                        break;
                    }
                }
            }
            if let Some(task) = task {
                state.queued_tasks -= 1;
                self.not_full.notify_one();
                let now = Instant::now();
                let waited = now.saturating_duration_since(task.enqueued);
                self.metrics.record_dequeued(task.class, waited);
                // A task that is both cancelled and past its deadline
                // resolves as Cancelled: the explicit abandon is more
                // specific than the deadline it raced. Either way the
                // resolution happens *outside* the queue lock: the
                // ticket fill takes the slot mutex and wakes waiters,
                // and dropping the unrun closure frees whatever it
                // captured — neither may stall the other workers and
                // submitters parked on the queue.
                let discard = if task.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                    self.metrics.record_cancelled(task.class);
                    Some(TaskError::Cancelled { waited })
                } else if task.deadline.is_some_and(|d| now >= d) {
                    self.metrics.record_expired(task.class);
                    Some(TaskError::Expired { waited })
                } else {
                    None
                };
                if let Some(err) = discard {
                    drop(state);
                    task.slot.fill(
                        Err(err),
                        TaskTiming {
                            queue: waited,
                            run: Duration::ZERO,
                        },
                    );
                    drop(task);
                    state = self.locked();
                    continue;
                }
                return Some((task, waited));
            }
            if state.stop {
                return None;
            }
            // invariant: same argument as `locked` — waking from a
            // condvar wait re-acquires the queue mutex, which no user
            // code can poison.
            state = self.not_empty.wait(state).expect("queue mutex");
        }
    }

    /// Blocking task push: waits while the queue is at capacity. Returns
    /// the task back if the pool has stopped.
    fn push_task(&self, task: QueuedTask<P>) -> Result<(), QueuedTask<P>> {
        let mut state = self.locked();
        loop {
            if state.stop {
                return Err(task);
            }
            if state.queued_tasks < self.capacity {
                state.queued_tasks += 1;
                let depth = state.queued_tasks;
                self.metrics.record_submitted(task.class, depth);
                state.lanes[task.class.index()].push_back(task);
                drop(state);
                self.not_empty.notify_one();
                return Ok(());
            }
            // invariant: same argument as `locked` — the re-acquired
            // queue mutex is never poisoned.
            state = self.not_full.wait(state).expect("queue mutex");
        }
    }

    /// Non-blocking task push.
    fn try_push_task(&self, task: QueuedTask<P>) -> Result<(), (QueuedTask<P>, TrySubmitError)> {
        let mut state = self.locked();
        if state.stop {
            return Err((task, TrySubmitError::Closed));
        }
        if state.queued_tasks >= self.capacity {
            self.metrics.record_rejected(task.class);
            return Err((task, TrySubmitError::Full));
        }
        state.queued_tasks += 1;
        let depth = state.queued_tasks;
        self.metrics.record_submitted(task.class, depth);
        state.lanes[task.class.index()].push_back(task);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }
}

/// The worker body: run tasks on the worker's own arena until the pool
/// drains and stops.
fn worker_loop<P: Process>(shared: &Shared<P>) {
    let mut arena = EngineArena::new();
    while let Some((
        QueuedTask {
            run, slot, class, ..
        },
        waited,
    )) = shared.pop()
    {
        let started = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut arena)));
        let ran = started.elapsed();
        let result = match outcome {
            Ok(result) => {
                shared.metrics.record_ran(class, ran, false);
                Ok(result)
            }
            Err(payload) => {
                // The panic may have left the arena's buffers
                // mid-mutation: the next task starts from a fresh one.
                arena = EngineArena::new();
                shared.metrics.record_ran(class, ran, true);
                Err(TaskError::Panicked(payload))
            }
        };
        slot.fill(
            result,
            TaskTiming {
                queue: waited,
                run: ran,
            },
        );
    }
}

/// Completion slot a [`TaskTicket`] waits on.
struct TaskSlot {
    done: Mutex<Option<(Result<TaskResult, TaskError>, TaskTiming)>>,
    cv: Condvar,
}

impl TaskSlot {
    fn new() -> Arc<Self> {
        Arc::new(TaskSlot {
            done: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    /// Locks the completion slot. Every slot-lock site goes through here.
    //
    // invariant: the slot mutex cannot be poisoned — the critical
    // sections are an Option take/store and an is_some check; no user
    // code runs under it (the task closure finished before `fill` is
    // called, and `wait` only moves the already-computed result out).
    fn locked(&self) -> MutexGuard<'_, Option<(Result<TaskResult, TaskError>, TaskTiming)>> {
        self.done.lock().expect("slot mutex")
    }

    fn fill(&self, result: Result<TaskResult, TaskError>, timing: TaskTiming) {
        let mut done = self.locked();
        // invariant: exactly-once ticket ledger — each QueuedTask holds
        // the only filling reference to its slot, and the worker loop /
        // discard path resolves it exactly once. A hard assert (not
        // debug_assert) so the conc-check scenarios catch a double
        // resolution as a panic in any build profile.
        assert!(done.is_none(), "a task completes exactly once");
        *done = Some((result, timing));
        drop(done);
        self.cv.notify_all();
    }
}

/// A handle to one submitted task: redeem it for the task's return value
/// with [`wait`](TaskTicket::wait) (blocking) or
/// [`try_wait`](TaskTicket::try_wait) (non-blocking); the `_timed`
/// variants additionally report the [`TaskTiming`].
///
/// The ticket stays valid even after the pool shuts down — shutdown
/// drains the queue, so every issued ticket resolves.
pub struct TaskTicket<T> {
    slot: Arc<TaskSlot>,
    _result: PhantomData<fn() -> T>,
}

impl<T: Send + 'static> TaskTicket<T> {
    /// Blocks until the task finishes and returns its result; a panicking
    /// task yields [`TaskError::Panicked`] and a deadline miss
    /// [`TaskError::Expired`].
    #[must_use = "a task panic or expiry is reported through the returned Result"]
    pub fn wait(self) -> Result<T, TaskError> {
        self.wait_timed().0
    }

    /// Like [`wait`](Self::wait), additionally reporting the task's
    /// queue-wait and run time.
    #[must_use = "a task panic or expiry is reported through the returned Result"]
    pub fn wait_timed(self) -> (Result<T, TaskError>, TaskTiming) {
        let mut done = self.slot.locked();
        loop {
            if let Some((result, timing)) = done.take() {
                return (result.map(downcast_result), timing);
            }
            // invariant: same argument as `TaskSlot::locked` — waking
            // re-acquires the slot mutex, which no user code can poison.
            done = self.slot.cv.wait(done).expect("slot mutex");
        }
    }

    /// Non-blocking redemption: the result if the task has finished,
    /// `Err(self)` (the ticket, still valid) if it is still queued or
    /// running.
    pub fn try_wait(self) -> Result<Result<T, TaskError>, Self> {
        self.try_wait_timed().map(|(result, _)| result)
    }

    /// Like [`try_wait`](Self::try_wait), additionally reporting the
    /// task's queue-wait and run time on completion.
    pub fn try_wait_timed(self) -> Result<(Result<T, TaskError>, TaskTiming), Self> {
        let taken = self.slot.locked().take();
        match taken {
            Some((result, timing)) => Ok((result.map(downcast_result), timing)),
            None => Err(self),
        }
    }

    /// Whether the task has finished (its result is ready to take).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.slot.locked().is_some()
    }
}

fn downcast_result<T: 'static>(boxed: TaskResult) -> T {
    // invariant: `package` creates the ticket and the boxing closure as a
    // pair with the same `T`, and the slot is filled only by that
    // closure's output — the downcast cannot meet any other type.
    *boxed
        .downcast::<T>()
        .expect("task result downcasts to the submitted closure's return type")
}

impl<T> std::fmt::Debug for TaskTicket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskTicket")
            .field("done", &self.slot.locked().is_some())
            .finish()
    }
}

/// Why [`SimPool::try_submit`] refused a task.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TrySubmitError {
    /// The queue is at capacity — backpressure. Retry later (or call the
    /// blocking [`SimPool::submit`]).
    Full,
    /// The pool has shut down; no new work is accepted.
    Closed,
}

impl std::fmt::Display for TrySubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySubmitError::Full => write!(f, "task queue is full (backpressure)"),
            TrySubmitError::Closed => write!(f, "worker pool has shut down"),
        }
    }
}

impl std::error::Error for TrySubmitError {}

/// The pool has shut down; the blocking [`SimPool::submit`] cannot
/// enqueue any more work.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct QueueClosed;

impl std::fmt::Display for QueueClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker pool has shut down")
    }
}

impl std::error::Error for QueueClosed {}

/// Boxes a typed closure into a queued task plus its ticket.
fn package<P, T, F>(opts: TaskOptions, f: F) -> (QueuedTask<P>, TaskTicket<T>)
where
    P: Process,
    T: Send + 'static,
    F: FnOnce(&mut EngineArena<P>) -> T + Send + 'static,
{
    let slot = TaskSlot::new();
    let task = QueuedTask {
        run: Box::new(move |arena| Box::new(f(arena)) as TaskResult),
        slot: Arc::clone(&slot),
        class: opts.class,
        deadline: opts.deadline,
        cancel: opts.cancel,
        enqueued: Instant::now(),
    };
    (
        task,
        TaskTicket {
            slot,
            _result: PhantomData,
        },
    )
}

/// A persistent simulation worker pool around one shared bounded
/// multi-class task queue — the resource a serving layer keeps alive
/// across solves.
///
/// Threads spawn once, at construction, and block on the queue between
/// tasks. Submit closures with [`submit`](SimPool::submit) or
/// [`try_submit`](SimPool::try_submit) as they arrive; whichever worker
/// frees up first takes the oldest waiting task of the highest-priority
/// class. A task that runs a whole single-chunk solve (see
/// [`Simulator::with_arena`](crate::Simulator::with_arena)) reuses
/// mailbox-slot, dirty-list, worklist and staging capacity from its
/// worker's arena. A multi-chunk [`Simulator`](crate::Simulator) uses no
/// pool: it runs its chunks on threads of its own.
///
/// # Examples
///
/// ```
/// use dcover_congest::{EngineArena, SimPool, TaskOptions};
/// use dcover_congest::{Ctx, Process, Status};
///
/// struct Nop;
/// impl Process for Nop {
///     type Msg = u64;
///     fn on_round(&mut self, _ctx: &mut Ctx<'_, u64>) -> Status {
///         Status::Halted
///     }
/// }
///
/// let pool: SimPool<Nop> = SimPool::new(4);
/// let tickets: Vec<_> = (0..16u64)
///     .map(|i| {
///         pool.submit(TaskOptions::default(), move |_arena: &mut EngineArena<Nop>| i * i)
///             .unwrap()
///     })
///     .collect();
/// let squares: Vec<u64> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
/// assert_eq!(squares[7], 49);
/// ```
pub struct SimPool<P: Process + 'static> {
    shared: Arc<Shared<P>>,
    workers: usize,
}

impl<P: Process> std::fmt::Debug for SimPool<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimPool")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.shared.capacity)
            .finish()
    }
}

impl<P: Process + 'static> SimPool<P> {
    /// Spawns a pool of `threads` persistent workers with the default
    /// task-queue capacity of `4 × threads` waiting tasks.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self::with_capacity(threads, 4 * threads.max(1))
    }

    /// Spawns a pool of `threads` persistent workers whose shared task
    /// queue holds at most `capacity` **waiting** tasks (tasks a worker
    /// has picked up no longer count; the bound is shared across both
    /// task classes). A full queue makes
    /// [`try_submit`](SimPool::try_submit) report backpressure and the
    /// blocking [`submit`](SimPool::submit) wait. Class priority is strict
    /// until [`set_bulk_max_wait`](SimPool::set_bulk_max_wait) enables
    /// bulk aging.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `capacity == 0`.
    #[must_use]
    pub fn with_capacity(threads: usize, capacity: usize) -> Self {
        // invariant: documented construction-time preconditions (see the
        // `# Panics` sections on every constructor) on caller-supplied
        // configuration — never reached from queue, round, or solve
        // state.
        assert!(threads > 0, "need at least one worker thread");
        // invariant: same as above — a documented `# Panics`
        // precondition on caller-supplied configuration.
        assert!(
            capacity > 0,
            "task queue needs capacity for at least one task"
        );
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                lanes: std::array::from_fn(|_| VecDeque::new()),
                queued_tasks: 0,
                stop: false,
                bulk_max_wait: None,
                handles: Vec::new(),
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            metrics: Arc::new(SchedMetrics::new()),
        });
        let handles = (0..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                // invariant: OS thread spawn fails only on process-level
                // resource exhaustion, at pool *construction* (service
                // startup) — never mid-solve. There is nothing to roll
                // back and no caller that could meaningfully continue
                // without its workers.
                crate::sync::thread::Builder::new()
                    .name(format!("congest-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Shared::locked(&shared).handles = handles;
        Self {
            shared,
            workers: threads,
        }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The scheduler-metrics handle this pool records into (shared; stays
    /// readable after shutdown).
    #[must_use]
    pub fn metrics(&self) -> Arc<SchedMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Enables bulk **anti-starvation aging** on the live queue: from now
    /// on a queued [`TaskClass::Bulk`] task that has waited at least
    /// `bound` is served ahead of the interactive lane. Without a bound
    /// (the default) class priority is strict, and sustained interactive
    /// load can starve bulk traffic indefinitely.
    pub fn set_bulk_max_wait(&self, bound: Duration) {
        self.shared.locked().bulk_max_wait = Some(bound);
    }

    /// Submits a task under `opts` (class, optional deadline and cancel
    /// token), **blocking while the queue is at capacity**, and returns
    /// the ticket to redeem for its result. The closure receives its
    /// worker's [`EngineArena`] (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`QueueClosed`] (dropping the closure unrun) if the pool
    /// has shut down.
    pub fn submit<T, F>(&self, opts: TaskOptions, f: F) -> Result<TaskTicket<T>, QueueClosed>
    where
        T: Send + 'static,
        F: FnOnce(&mut EngineArena<P>) -> T + Send + 'static,
    {
        let (task, ticket) = package(opts, f);
        match self.shared.push_task(task) {
            Ok(()) => Ok(ticket),
            Err(_task) => Err(QueueClosed),
        }
    }

    /// Non-blocking submission under `opts`: enqueues the task only if a
    /// capacity slot is free **right now**.
    ///
    /// # Errors
    ///
    /// Returns [`TrySubmitError::Full`] (backpressure) when the queue is
    /// at capacity, or [`TrySubmitError::Closed`] when the pool has shut
    /// down; the closure is dropped unrun in both cases.
    pub fn try_submit<T, F>(&self, opts: TaskOptions, f: F) -> Result<TaskTicket<T>, TrySubmitError>
    where
        T: Send + 'static,
        F: FnOnce(&mut EngineArena<P>) -> T + Send + 'static,
    {
        let (task, ticket) = package(opts, f);
        match self.shared.try_push_task(task) {
            Ok(()) => Ok(ticket),
            Err((_task, err)) => Err(err),
        }
    }

    /// The queue's task capacity (waiting tasks across both classes;
    /// running tasks do not count against it).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Number of tasks currently waiting in the queue (both classes;
    /// excludes tasks a worker has already picked up).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.shared.locked().queued_tasks
    }

    /// How long the oldest still-queued task of `class` has been
    /// waiting (the lane head's age); `None` when that lane is empty.
    /// FIFO within a lane makes the head its oldest entry, so one
    /// `front()` check suffices.
    ///
    /// This is a **leading** congestion signal: dequeue-side latency
    /// metrics (such as [`SchedMetrics::interactive_wait_p99`]) only
    /// update when tasks of the class actually leave the queue — which
    /// is precisely what stops happening while the class is starved.
    #[must_use]
    pub fn oldest_queued_wait(&self, class: TaskClass) -> Option<Duration> {
        let state = self.shared.locked();
        state.lanes[class.index()]
            .front()
            .map(|head| head.enqueued.elapsed())
    }

    /// Whether the pool still accepts submissions (false once
    /// [`shutdown`](SimPool::shutdown) has begun).
    #[must_use]
    pub fn is_open(&self) -> bool {
        !self.shared.locked().stop
    }

    /// Gracefully shuts the pool down: refuse new submissions, let the
    /// workers drain every queued task (both classes), and join them.
    /// Every ticket issued before this call resolves by the time it
    /// returns. Idempotent (only the first call joins the workers);
    /// dropping the pool calls it.
    pub fn shutdown(&self) {
        let handles = {
            let mut state = self.shared.locked();
            state.stop = true;
            std::mem::take(&mut state.handles)
        };
        // Wake every parked worker (to observe `stop`) and every blocked
        // submitter (to observe closure).
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for handle in handles {
            // Swallow worker panics during teardown: the panic that
            // matters already surfaced through a ticket.
            let _ = handle.join();
        }
    }
}

impl<P: Process + 'static> Drop for SimPool<P> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Ctx, Status};
    use crate::sim::Simulator;
    use crate::topology::Topology;

    struct Echo {
        heard: u64,
    }
    impl Process for Echo {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            if ctx.round() == 0 {
                ctx.broadcast(ctx.node() as u64 + 1);
                Status::Running
            } else {
                self.heard = ctx.inbox().iter().map(|i| i.msg).sum();
                Status::Halted
            }
        }
    }

    /// A two-phase gate: tasks call [`Gate::arrive_and_wait`] (signalling
    /// that a worker picked them up, then blocking), the test thread
    /// waits for a given arrival count with [`Gate::await_arrivals`]
    /// (condvar — no spinning) and opens the gate with [`Gate::release`].
    struct Gate {
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

        fn release(&self) {
            let mut state = self.state.lock().unwrap();
            state.1 = true;
            self.cv.notify_all();
        }
    }

    /// Submits every task through the shared queue and returns the
    /// results in task order.
    fn run_all<T, F>(pool: &SimPool<Echo>, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut EngineArena<Echo>) -> T + Send + 'static,
    {
        let tickets: Vec<TaskTicket<T>> = tasks
            .into_iter()
            .map(|f| pool.submit(TaskOptions::default(), f).unwrap())
            .collect();
        tickets.into_iter().map(|t| t.wait().unwrap()).collect()
    }

    #[test]
    fn tasks_return_in_task_order_and_load_balance() {
        let pool: SimPool<Echo> = SimPool::new(3);
        let tasks: Vec<_> = (0..20u64)
            .map(|i| {
                move |_arena: &mut EngineArena<Echo>| {
                    if i % 5 == 0 {
                        // wall-clock: models an uneven task duration so
                        // workers finish out of submission order; not a
                        // synchronization point.
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    i * 10
                }
            })
            .collect();
        let out = run_all(&pool, tasks);
        assert_eq!(out, (0..20u64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn arenas_are_reused_across_tasks_for_whole_solves() {
        let pool: SimPool<Echo> = SimPool::new(2);
        let tasks: Vec<_> = (0..8)
            .map(|t| {
                move |arena: &mut EngineArena<Echo>| {
                    let n = 4 + t % 3;
                    let links: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
                    let topo = Topology::from_links(n, &links);
                    let nodes = (0..n).map(|_| Echo { heard: 0 }).collect();
                    let taken = std::mem::take(arena);
                    let mut sim = Simulator::with_arena(topo, nodes, taken);
                    let report = sim.run(10).unwrap();
                    let (nodes, _, back) = sim.into_arena();
                    *arena = back;
                    (report.rounds, nodes[0].heard)
                }
            })
            .collect();
        let out = run_all(&pool, tasks);
        for (t, (rounds, heard)) in out.into_iter().enumerate() {
            assert_eq!(rounds, 2, "task {t}");
            let n = 4 + t % 3;
            // Node 0's ring neighbors are 1 and n-1; messages carry id+1.
            assert_eq!(heard, 2 + n as u64, "task {t}");
        }
    }

    #[test]
    fn empty_task_list_is_fine() {
        let pool: SimPool<Echo> = SimPool::new(2);
        let out: Vec<u32> = run_all(&pool, Vec::<fn(&mut EngineArena<Echo>) -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_tasks() {
        let pool: SimPool<Echo> = SimPool::new(8);
        let tasks: Vec<_> = (0..3u32)
            .map(|i| move |_a: &mut EngineArena<Echo>| i)
            .collect();
        assert_eq!(run_all(&pool, tasks), vec![0, 1, 2]);
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let pool: SimPool<Echo> = SimPool::new(2);
        let tickets: Vec<_> = (0..6u32)
            .map(|i| {
                pool.submit(TaskOptions::default(), move |_a: &mut EngineArena<Echo>| {
                    assert!(i != 3, "task 3 exploded");
                    i
                })
                .unwrap()
            })
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let outcome = ticket.wait();
            if i != 3 {
                assert_eq!(outcome.unwrap(), i as u32);
                continue;
            }
            let err = outcome
                .expect_err("task panic must surface")
                .into_panic_payload()
                .expect("panic, not expiry");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default();
            assert!(msg.contains("task 3 exploded"), "got: {msg}");
        }
        // The pool remains usable: the worker replaced its arena.
        let tasks: Vec<_> = (0..4u32)
            .map(|i| move |_a: &mut EngineArena<Echo>| i + 100)
            .collect();
        assert_eq!(run_all(&pool, tasks), vec![100, 101, 102, 103]);
    }

    #[test]
    fn panic_fails_only_its_own_ticket() {
        let pool: SimPool<Echo> = SimPool::new(2);
        let boom = pool
            .submit(
                TaskOptions::default(),
                |_a: &mut EngineArena<Echo>| -> u32 { panic!("isolated boom") },
            )
            .unwrap();
        let fine: Vec<_> = (0..4u32)
            .map(|i| {
                pool.submit(TaskOptions::default(), move |_a: &mut EngineArena<Echo>| i)
                    .unwrap()
            })
            .collect();
        let payload = boom
            .wait()
            .expect_err("panicking ticket yields Err")
            .into_panic_payload()
            .expect("panic, not expiry");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"isolated boom"));
        for (i, t) in fine.into_iter().enumerate() {
            assert_eq!(t.wait().unwrap(), i as u32, "neighbor ticket {i}");
        }
    }

    #[test]
    fn try_submit_reports_backpressure_without_blocking() {
        // One worker, capacity 2. Gate the worker, fill the queue: the
        // third try_submit must fail *immediately* with Full.
        let gate = Gate::new();
        let pool: SimPool<Echo> = SimPool::with_capacity(1, 2);
        let busy = {
            let gate = Arc::clone(&gate);
            pool.submit(TaskOptions::default(), move |_a: &mut EngineArena<Echo>| {
                gate.arrive_and_wait();
                0u32
            })
            .unwrap()
        };
        // Wait (condvar, no spinning) until the worker has *dequeued* the
        // gate task, so exactly two capacity slots are open.
        gate.await_arrivals(1);
        let q1 = pool
            .try_submit(TaskOptions::default(), |_a: &mut EngineArena<Echo>| 1u32)
            .unwrap();
        let q2 = pool
            .try_submit(TaskOptions::default(), |_a: &mut EngineArena<Echo>| 2u32)
            .unwrap();
        let start = std::time::Instant::now();
        let err = pool
            .try_submit(TaskOptions::default(), |_a: &mut EngineArena<Echo>| 3u32)
            .expect_err("queue is full");
        assert_eq!(err, TrySubmitError::Full);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "try_submit must not block"
        );
        assert!(!q1.is_done());
        gate.release();
        assert_eq!(busy.wait().unwrap(), 0);
        assert_eq!(q1.wait().unwrap(), 1);
        assert_eq!(q2.wait().unwrap(), 2);
        // The refused submission shows up in the scheduler metrics.
        let m = pool.metrics();
        assert_eq!(m.class(TaskClass::Bulk).rejected, 1);
        assert_eq!(m.class(TaskClass::Bulk).completed, 3);
        assert!(m.queue_depth_high_water() >= 2);
    }

    #[test]
    fn interactive_tasks_dequeue_before_bulk_fifo_within_class() {
        // One gated worker; fill the queue with bulk then interactive
        // tasks. Completion order must be: gate task, every interactive
        // task (submission order), every bulk task (submission order).
        let gate = Gate::new();
        let pool: SimPool<Echo> = SimPool::with_capacity(1, 8);
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let busy = {
            let gate = Arc::clone(&gate);
            pool.submit(TaskOptions::default(), move |_a: &mut EngineArena<Echo>| {
                gate.arrive_and_wait()
            })
            .unwrap()
        };
        gate.await_arrivals(1);
        let mut tickets = Vec::new();
        for name in ["b1", "b2"] {
            let order = Arc::clone(&order);
            tickets.push(
                pool.submit(TaskOptions::bulk(), move |_a: &mut EngineArena<Echo>| {
                    order.lock().unwrap().push(name);
                })
                .unwrap(),
            );
        }
        for name in ["i1", "i2"] {
            let order = Arc::clone(&order);
            tickets.push(
                pool.submit(
                    TaskOptions::interactive(),
                    move |_a: &mut EngineArena<Echo>| {
                        order.lock().unwrap().push(name);
                    },
                )
                .unwrap(),
            );
        }
        gate.release();
        busy.wait().unwrap();
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec!["i1", "i2", "b1", "b2"]);
    }

    #[test]
    fn expired_tasks_resolve_without_running() {
        // Gate the single worker, queue a task whose deadline passes
        // while it waits: it must resolve as Expired without running, and
        // a queued task without a deadline must still run.
        let gate = Gate::new();
        let pool: SimPool<Echo> = SimPool::with_capacity(1, 4);
        let busy = {
            let gate = Arc::clone(&gate);
            pool.submit(TaskOptions::default(), move |_a: &mut EngineArena<Echo>| {
                gate.arrive_and_wait()
            })
            .unwrap()
        };
        gate.await_arrivals(1);
        let doomed = pool
            .submit(
                TaskOptions::interactive().deadline_in(Duration::ZERO),
                |_a: &mut EngineArena<Echo>| panic!("expired task must not run"),
            )
            .unwrap();
        let alive = pool
            .submit(TaskOptions::bulk(), |_a: &mut EngineArena<Echo>| 7u32)
            .unwrap();
        gate.release();
        busy.wait().unwrap();
        let (err, timing) = doomed.wait_timed();
        match err.expect_err("deadline passed in queue") {
            TaskError::Expired { waited } => assert_eq!(waited, timing.queue),
            other => panic!("expected Expired, got {other:?}"),
        }
        assert_eq!(timing.run, Duration::ZERO);
        assert_eq!(alive.wait().unwrap(), 7);
        let m = pool.metrics();
        assert_eq!(m.class(TaskClass::Interactive).expired, 1);
        assert_eq!(m.class(TaskClass::Interactive).completed, 0);
        assert_eq!(m.class(TaskClass::Bulk).expired, 0);
    }

    #[test]
    fn a_deadline_in_the_future_does_not_expire() {
        let pool: SimPool<Echo> = SimPool::new(1);
        let t = pool
            .submit(
                TaskOptions::interactive().deadline_in(Duration::from_secs(3600)),
                |_a: &mut EngineArena<Echo>| 11u32,
            )
            .unwrap();
        let (result, _timing) = t.wait_timed();
        assert_eq!(result.unwrap(), 11);
        let m = pool.metrics();
        assert_eq!(m.class(TaskClass::Interactive).expired, 0);
        assert_eq!(m.class(TaskClass::Interactive).completed, 1);
        assert_eq!(m.class(TaskClass::Interactive).queue_wait.count(), 1);
        assert_eq!(m.class(TaskClass::Interactive).run_time.count(), 1);
    }

    #[test]
    fn drop_drains_queued_tasks_and_resolves_all_tickets() {
        let gate = Gate::new();
        let pool: SimPool<Echo> = SimPool::with_capacity(1, 8);
        let mut tickets = Vec::new();
        {
            let gate = Arc::clone(&gate);
            tickets.push(
                pool.submit(TaskOptions::default(), move |_a: &mut EngineArena<Echo>| {
                    gate.arrive_and_wait();
                    0u32
                })
                .unwrap(),
            );
        }
        for i in 1..5u32 {
            tickets.push(
                pool.submit(TaskOptions::default(), move |_a: &mut EngineArena<Echo>| i)
                    .unwrap(),
            );
        }
        // Wait (condvar, no sleep) until the worker is parked inside the
        // gated task, then release from a helper thread while `shutdown`
        // blocks on the drain. Whether the release lands before or after
        // `shutdown` closes the queue, every ticket must resolve by the
        // time `shutdown` returns.
        gate.await_arrivals(1);
        let releaser = {
            let gate = Arc::clone(&gate);
            crate::sync::thread::spawn(move || gate.release())
        };
        pool.shutdown();
        releaser.join().unwrap();
        // Shutdown drained everything: every ticket resolves instantly.
        for (i, t) in tickets.into_iter().enumerate() {
            let value = t.try_wait().expect("resolved by drain").unwrap();
            assert_eq!(value, i as u32);
        }
        // And the pool now refuses work.
        assert_eq!(
            pool.try_submit(TaskOptions::default(), |_a: &mut EngineArena<Echo>| 9u32)
                .expect_err("closed"),
            TrySubmitError::Closed
        );
        assert!(pool
            .submit(TaskOptions::default(), |_a: &mut EngineArena<Echo>| 9u32)
            .is_err());
    }

    #[test]
    fn drop_drains_both_classes_and_expires_stale_deadlines() {
        let gate = Gate::new();
        let pool: SimPool<Echo> = SimPool::with_capacity(1, 8);
        let busy = {
            let gate = Arc::clone(&gate);
            pool.submit(TaskOptions::default(), move |_a: &mut EngineArena<Echo>| {
                gate.arrive_and_wait()
            })
            .unwrap()
        };
        gate.await_arrivals(1);
        let bulk = pool
            .submit(TaskOptions::bulk(), |_a: &mut EngineArena<Echo>| 1u32)
            .unwrap();
        let interactive = pool
            .submit(TaskOptions::interactive(), |_a: &mut EngineArena<Echo>| {
                2u32
            })
            .unwrap();
        let doomed = pool
            .submit(
                TaskOptions::bulk().deadline_in(Duration::ZERO),
                |_a: &mut EngineArena<Echo>| 3u32,
            )
            .unwrap();
        // The worker is already parked inside `busy` (await_arrivals
        // above); release from a helper thread while `drop` blocks on the
        // drain — no sleep needed, the drain itself is the rendezvous.
        let releaser = {
            let gate = Arc::clone(&gate);
            crate::sync::thread::spawn(move || gate.release())
        };
        drop(pool);
        releaser.join().unwrap();
        busy.try_wait().expect("drained").unwrap();
        assert_eq!(interactive.try_wait().expect("drained").unwrap(), 2);
        assert_eq!(bulk.try_wait().expect("drained").unwrap(), 1);
        assert!(doomed
            .try_wait()
            .expect("drained")
            .expect_err("deadline long past")
            .is_expired());
    }

    #[test]
    fn tickets_resolve_in_completion_not_submission_order() {
        let gate = Gate::new();
        let pool: SimPool<Echo> = SimPool::new(2);
        // First task blocks on the gate; the second finishes immediately.
        let slow = {
            let gate = Arc::clone(&gate);
            pool.submit(TaskOptions::default(), move |_a: &mut EngineArena<Echo>| {
                gate.arrive_and_wait();
                "slow"
            })
            .unwrap()
        };
        let fast = pool
            .submit(TaskOptions::default(), |_a: &mut EngineArena<Echo>| "fast")
            .unwrap();
        let fast = fast.wait().unwrap();
        assert_eq!(fast, "fast");
        assert!(!slow.is_done(), "slow task still gated");
        gate.release();
        assert_eq!(slow.wait().unwrap(), "slow");
    }

    #[test]
    fn cancelled_tasks_resolve_without_running() {
        // Gate the single worker, queue a task, cancel its token while
        // it waits: it must resolve as Cancelled without running, and a
        // later task must still run.
        let gate = Gate::new();
        let pool: SimPool<Echo> = SimPool::with_capacity(1, 4);
        let busy = {
            let gate = Arc::clone(&gate);
            pool.submit(TaskOptions::default(), move |_a: &mut EngineArena<Echo>| {
                gate.arrive_and_wait()
            })
            .unwrap()
        };
        gate.await_arrivals(1);
        let token = CancelToken::new();
        let doomed = pool
            .submit(
                TaskOptions::interactive().with_cancel(token.clone()),
                |_a: &mut EngineArena<Echo>| panic!("cancelled task must not run"),
            )
            .unwrap();
        let alive = pool
            .submit(TaskOptions::bulk(), |_a: &mut EngineArena<Echo>| 7u32)
            .unwrap();
        token.cancel();
        gate.release();
        busy.wait().unwrap();
        let (err, timing) = doomed.wait_timed();
        match err.expect_err("cancelled in queue") {
            TaskError::Cancelled { waited } => assert_eq!(waited, timing.queue),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert_eq!(timing.run, Duration::ZERO);
        assert_eq!(alive.wait().unwrap(), 7);
        let m = pool.metrics();
        assert_eq!(m.class(TaskClass::Interactive).cancelled, 1);
        assert_eq!(m.class(TaskClass::Interactive).completed, 0);
        assert_eq!(m.class(TaskClass::Interactive).expired, 0);
    }

    #[test]
    fn cancel_beats_deadline_when_both_hold() {
        let gate = Gate::new();
        let pool: SimPool<Echo> = SimPool::with_capacity(1, 4);
        let busy = {
            let gate = Arc::clone(&gate);
            pool.submit(TaskOptions::default(), move |_a: &mut EngineArena<Echo>| {
                gate.arrive_and_wait()
            })
            .unwrap()
        };
        gate.await_arrivals(1);
        let token = CancelToken::new();
        token.cancel();
        let doomed = pool
            .submit(
                TaskOptions::bulk()
                    .deadline_in(Duration::ZERO)
                    .with_cancel(token),
                |_a: &mut EngineArena<Echo>| 1u32,
            )
            .unwrap();
        gate.release();
        busy.wait().unwrap();
        assert!(doomed.wait().expect_err("discarded").is_cancelled());
        let m = pool.metrics();
        assert_eq!(m.class(TaskClass::Bulk).cancelled, 1);
        assert_eq!(m.class(TaskClass::Bulk).expired, 0);
    }

    #[test]
    fn a_cancelled_running_task_still_completes() {
        // Cancelling after a worker picked the task up does nothing at
        // the pool level: the closure runs to completion and the ticket
        // resolves Ok — exactly once, with no Cancelled count.
        let gate = Gate::new();
        let pool: SimPool<Echo> = SimPool::new(1);
        let token = CancelToken::new();
        let running = {
            let gate = Arc::clone(&gate);
            pool.submit(
                TaskOptions::bulk().with_cancel(token.clone()),
                move |_a: &mut EngineArena<Echo>| {
                    gate.arrive_and_wait();
                    42u32
                },
            )
            .unwrap()
        };
        gate.await_arrivals(1);
        token.cancel();
        gate.release();
        assert_eq!(running.wait().unwrap(), 42);
        assert_eq!(pool.metrics().class(TaskClass::Bulk).cancelled, 0);
    }

    /// Regression for the dequeue-time comparison (`now >= d`, not
    /// `now > d`): a zero-duration deadline must expire deterministically
    /// even when the dequeue lands on the same clock tick as the
    /// submission.
    #[test]
    fn zero_deadline_expires_even_on_an_idle_pool() {
        let pool: SimPool<Echo> = SimPool::new(1);
        for _ in 0..32 {
            let t = pool
                .submit(
                    TaskOptions::bulk().deadline_in(Duration::ZERO),
                    |_a: &mut EngineArena<Echo>| 1u32,
                )
                .unwrap();
            assert!(t.wait().expect_err("zero deadline").is_expired());
        }
    }

    #[test]
    fn bulk_aging_promotes_an_aged_bulk_task_over_interactive() {
        // Aging bound of zero: every queued bulk head counts as aged, so
        // dequeue order becomes pure FIFO across classes. Without aging
        // the interactive task would always run first.
        let gate = Gate::new();
        let pool: SimPool<Echo> = SimPool::with_capacity(1, 8);
        pool.set_bulk_max_wait(Duration::ZERO);
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let busy = {
            let gate = Arc::clone(&gate);
            pool.submit(TaskOptions::default(), move |_a: &mut EngineArena<Echo>| {
                gate.arrive_and_wait()
            })
            .unwrap()
        };
        gate.await_arrivals(1);
        let mut tickets = Vec::new();
        for (name, opts) in [
            ("b1", TaskOptions::bulk()),
            ("i1", TaskOptions::interactive()),
            ("b2", TaskOptions::bulk()),
        ] {
            let order = Arc::clone(&order);
            tickets.push(
                pool.submit(opts, move |_a: &mut EngineArena<Echo>| {
                    order.lock().unwrap().push(name);
                })
                .unwrap(),
            );
        }
        gate.release();
        busy.wait().unwrap();
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec!["b1", "b2", "i1"]);
    }

    #[test]
    fn a_generous_aging_bound_preserves_strict_priority() {
        let gate = Gate::new();
        let pool: SimPool<Echo> = SimPool::with_capacity(1, 8);
        pool.set_bulk_max_wait(Duration::from_secs(3600));
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let busy = {
            let gate = Arc::clone(&gate);
            pool.submit(TaskOptions::default(), move |_a: &mut EngineArena<Echo>| {
                gate.arrive_and_wait()
            })
            .unwrap()
        };
        gate.await_arrivals(1);
        let mut tickets = Vec::new();
        for (name, opts) in [
            ("b1", TaskOptions::bulk()),
            ("i1", TaskOptions::interactive()),
        ] {
            let order = Arc::clone(&order);
            tickets.push(
                pool.submit(opts, move |_a: &mut EngineArena<Echo>| {
                    order.lock().unwrap().push(name);
                })
                .unwrap(),
            );
        }
        gate.release();
        busy.wait().unwrap();
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec!["i1", "b1"]);
    }
}
