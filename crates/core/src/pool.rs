//! The service's worker pool: a bounded two-lane queue of typed solve
//! entries, the workers that drain it, and the completion slots tickets
//! wait on. [`SolveService`](crate::SolveService) owns one [`Pool`] for
//! life and is its only user; the serving model is documented there.
//!
//! * **Lanes.** One FIFO lane per [`RequestClass`]: every queued
//!   interactive entry dequeues before any bulk one, unless a bulk aging
//!   bound is set and the bulk head has waited past it. The capacity
//!   bound counts waiting entries across both lanes.
//! * **Queue time.** An entry's enqueue stamp is taken under the queue
//!   lock as it enters its lane, so queue waits, the rolling p99 and the
//!   queued-head age never include the time a blocking submitter spent
//!   waiting for room.
//! * **Discards.** An entry whose cancel token fired or whose deadline
//!   passed while it was queued is resolved at dequeue without running
//!   (cancel wins when both hold) and the worker pulls the next one.
//! * **Workers.** Each worker owns one [`EngineArena`] and solves every
//!   entry it dequeues on it, so mailbox capacity carries over from solve
//!   to solve. A panicking solve resolves only its own ticket (as
//!   [`SolveError::Panicked`]); the worker replaces its arena, whose
//!   buffers may be mid-mutation, and keeps serving.
//! * **Shutdown** refuses new entries, lets the workers drain every
//!   queued one and joins them, so every issued ticket resolves.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dcover_congest::sync::thread::{Builder, JoinHandle};
use dcover_congest::sync::{Condvar, Mutex, MutexGuard};
use dcover_congest::{CancelToken, EngineArena, InterruptReason, SimError};
use dcover_hypergraph::Hypergraph;

use crate::error::SolveError;
use crate::metrics::Recorder;
use crate::protocol::MwhvcNode;
use crate::service::{RequestClass, SubmitError, TaskTiming};
use crate::solver::{CoverResult, MwhvcSolver};
use crate::warm::WarmState;

/// What a submission does when the bounded queue is full.
#[derive(Copy, Clone)]
pub(crate) enum OnFull {
    /// Block until a worker frees a slot.
    Wait,
    /// Refuse with [`SubmitError::Backpressure`].
    Refuse,
}

/// A test-only hook a worker runs right before an entry's solve.
#[cfg(test)]
pub(crate) type PreSolve = Arc<dyn Fn() + Send + Sync>;

/// One queued solve: everything a worker needs to run it and resolve its
/// ticket.
pub(crate) struct Entry {
    pub(crate) graph: Arc<Hypergraph>,
    /// The seed of a warm-started revision.
    pub(crate) warm: Option<WarmState>,
    /// The per-request solver, carrying the in-run interrupt (the same
    /// token and deadline as below).
    pub(crate) solver: MwhvcSolver,
    pub(crate) class: RequestClass,
    pub(crate) deadline: Option<Instant>,
    pub(crate) cancel: CancelToken,
    /// The submit call, which anchors [`SolveError::Expired`]'s `waited`.
    pub(crate) submitted: Instant,
    /// Set under the queue lock as the entry enters its lane.
    pub(crate) enqueued: Instant,
    pub(crate) slot: Arc<Slot>,
    #[cfg(test)]
    pub(crate) pre_solve: Option<PreSolve>,
}

impl Entry {
    /// Resolves the entry's ticket. The instance, seed and solver are
    /// dropped first, so once a ticket resolves the service holds no
    /// handle on its instance.
    fn resolve(self, result: Result<CoverResult, SolveError>, timing: TaskTiming) {
        let slot = Arc::clone(&self.slot);
        drop(self);
        slot.fill(result, timing);
    }
}

/// Mutex-guarded queue state.
struct Lanes {
    /// One FIFO lane per class, indexed by [`RequestClass::index`].
    lanes: [VecDeque<Entry>; RequestClass::COUNT],
    /// Entries waiting across both lanes.
    queued: usize,
    /// Set by [`Pool::shutdown`]: refuse new entries, drain what is
    /// queued, then let the workers exit.
    stop: bool,
    /// Bulk anti-starvation bound: a bulk head that has waited at least
    /// this long is served ahead of the interactive lane. `None` keeps
    /// strict class priority.
    bulk_max_wait: Option<Duration>,
    /// The workers' join handles, taken (and joined outside the lock) by
    /// the first [`Pool::shutdown`].
    handles: Vec<JoinHandle<()>>,
}

/// The state a service shares with its workers.
pub(crate) struct Pool {
    state: Mutex<Lanes>,
    /// Signalled when an entry is pushed (or stop is set).
    not_empty: Condvar,
    /// Signalled when a worker takes an entry (a capacity slot freed up).
    not_full: Condvar,
    /// Maximum number of waiting entries across both lanes.
    pub(crate) capacity: usize,
    pub(crate) metrics: Recorder,
}

impl Pool {
    /// Spawns `threads` workers around an empty queue of `capacity`
    /// waiting entries.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `capacity == 0`.
    pub(crate) fn spawn(threads: usize, capacity: usize) -> Arc<Pool> {
        // invariant: documented `# Panics` preconditions of the service
        // constructors on caller-supplied configuration — never reached
        // from queue or solve state.
        assert!(threads > 0, "need at least one worker thread");
        // invariant: same as above.
        assert!(capacity > 0, "the queue needs room for at least one entry");
        let pool = Arc::new(Pool {
            state: Mutex::new(Lanes {
                lanes: std::array::from_fn(|_| VecDeque::new()),
                queued: 0,
                stop: false,
                bulk_max_wait: None,
                handles: Vec::new(),
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            metrics: Recorder::default(),
        });
        let handles = (0..threads)
            .map(|w| {
                let pool = Arc::clone(&pool);
                // invariant: OS thread spawn fails only on process-level
                // resource exhaustion, at service construction — never
                // mid-solve. There is nothing to roll back and no caller
                // that could meaningfully continue without its workers.
                Builder::new()
                    .name(format!("solve-worker-{w}"))
                    .spawn(move || worker_loop(&pool))
                    .expect("spawn worker thread")
            })
            .collect();
        pool.locked().handles = handles;
        pool
    }

    /// Locks the queue state. Every queue-lock site goes through here so
    /// the poison argument lives in exactly one place.
    //
    // invariant: the queue mutex cannot be poisoned — no user code ever
    // runs under it. Workers release it before solving or filling ticket
    // slots, submitters only move owned entries into the lanes, and the
    // bookkeeping under the lock is arithmetic and VecDeque operations.
    // A poison here is a scheduler bug, and halting on it is exactly what
    // the conc-check scenarios need to observe.
    fn locked(&self) -> MutexGuard<'_, Lanes> {
        self.state.lock().expect("queue mutex")
    }

    /// Enqueues `entry`, stamping it as it enters its lane. A full queue
    /// blocks or refuses per `on_full`.
    pub(crate) fn push(&self, mut entry: Entry, on_full: OnFull) -> Result<(), SubmitError> {
        let mut state = self.locked();
        while !state.stop && state.queued >= self.capacity {
            if let OnFull::Refuse = on_full {
                self.metrics.record_rejected(entry.class);
                return Err(SubmitError::Backpressure {
                    capacity: self.capacity,
                });
            }
            // invariant: same argument as `locked` — the re-acquired
            // queue mutex is never poisoned.
            state = self.not_full.wait(state).expect("queue mutex");
        }
        if state.stop {
            return Err(SubmitError::ShutDown);
        }
        state.queued += 1;
        self.metrics.record_submitted(entry.class, state.queued);
        entry.enqueued = Instant::now();
        state.lanes[entry.class.index()].push_back(entry);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking pop: the worker side of the queue. Returns the next live
    /// entry and its queue wait, or `None` once the pool is stopping and
    /// the queue has drained. Entries cancelled or past their deadline
    /// are resolved right here (their queue wait still recorded) and
    /// never returned.
    fn pop(&self) -> Option<(Entry, Duration)> {
        let mut state = self.locked();
        loop {
            // Anti-starvation: an aged bulk head jumps the interactive
            // lane. FIFO within the lane makes the head its oldest entry.
            let bound = state.bulk_max_wait;
            let bulk = &mut state.lanes[RequestClass::Bulk.index()];
            let aged = bound.is_some_and(|bound| {
                bulk.front()
                    .is_some_and(|head| head.enqueued.elapsed() >= bound)
            });
            let next = if aged {
                bulk.pop_front()
            } else {
                state.lanes.iter_mut().find_map(VecDeque::pop_front)
            };
            let Some(entry) = next else {
                if state.stop {
                    return None;
                }
                // invariant: same argument as `locked`.
                state = self.not_empty.wait(state).expect("queue mutex");
                continue;
            };
            state.queued -= 1;
            self.not_full.notify_one();
            let now = Instant::now();
            let waited = now.saturating_duration_since(entry.enqueued);
            self.metrics.record_dequeued(entry.class, waited);
            let discard = if entry.cancel.is_cancelled() {
                self.metrics.record_cancelled(entry.class);
                SolveError::Cancelled
            } else if entry.deadline.is_some_and(|d| now >= d) {
                self.metrics.record_expired(entry.class);
                SolveError::Expired {
                    waited: now.saturating_duration_since(entry.submitted),
                }
            } else {
                return Some((entry, waited));
            };
            // Resolve outside the queue lock: dropping the entry frees its
            // instance, and the fill takes the slot mutex and wakes
            // waiters — neither may stall the workers and submitters
            // parked on the queue.
            drop(state);
            let timing = TaskTiming {
                queue: waited,
                run: Duration::ZERO,
            };
            entry.resolve(Err(discard), timing);
            state = self.locked();
        }
    }

    /// Number of entries waiting across both lanes.
    pub(crate) fn queued(&self) -> usize {
        self.locked().queued
    }

    /// How long the head of `class`'s lane — its oldest entry — has been
    /// queued; `None` when the lane is empty.
    pub(crate) fn oldest_queued_wait(&self, class: RequestClass) -> Option<Duration> {
        let state = self.locked();
        state.lanes[class.index()]
            .front()
            .map(|head| head.enqueued.elapsed())
    }

    pub(crate) fn is_open(&self) -> bool {
        !self.locked().stop
    }

    pub(crate) fn set_bulk_max_wait(&self, bound: Duration) {
        self.locked().bulk_max_wait = Some(bound);
    }

    /// Refuses new entries, lets the workers drain the queue, and joins
    /// them. Idempotent: only the first call joins.
    pub(crate) fn shutdown(&self) {
        let handles = {
            let mut state = self.locked();
            state.stop = true;
            std::mem::take(&mut state.handles)
        };
        // Wake every parked worker (to observe `stop`) and every blocked
        // submitter (to observe closure).
        self.not_empty.notify_all();
        self.not_full.notify_all();
        for handle in handles {
            // Swallow worker panics during teardown: the panic that
            // matters already surfaced through a ticket.
            let _ = handle.join();
        }
    }
}

/// The worker body: solve entries on the worker's own arena until the
/// pool drains and stops.
fn worker_loop(pool: &Pool) {
    let mut arena = EngineArena::new();
    while let Some((entry, waited)) = pool.pop() {
        let started = Instant::now();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| solve(&entry, &mut arena)));
        let run = started.elapsed();
        pool.metrics.record_ran(entry.class, run, outcome.is_err());
        let result = outcome.unwrap_or_else(|payload| {
            arena = EngineArena::new();
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(SolveError::Panicked { message })
        });
        entry.resolve(result, TaskTiming { queue: waited, run });
    }
}

/// Runs one entry's cold or warm solve under its interrupt: a cancel or
/// a deadline that fires mid-run stops it at the next round boundary as
/// the typed [`SolveError::Cancelled`] / [`SolveError::Expired`].
fn solve(entry: &Entry, arena: &mut EngineArena<MwhvcNode>) -> Result<CoverResult, SolveError> {
    #[cfg(test)]
    if let Some(hook) = &entry.pre_solve {
        hook();
    }
    let result = match &entry.warm {
        None => entry.solver.solve_with_arena(&entry.graph, arena),
        Some(warm) => entry
            .solver
            .solve_warm_with_arena(&entry.graph, warm, arena),
    };
    match result {
        Err(SolveError::Sim(SimError::Interrupted { reason, .. })) => Err(match reason {
            InterruptReason::Cancelled => SolveError::Cancelled,
            InterruptReason::DeadlinePassed => SolveError::Expired {
                waited: entry.submitted.elapsed(),
            },
        }),
        other => other,
    }
}

/// A solve's outcome and timings, as a ticket redeems them.
pub(crate) type Outcome = (Result<CoverResult, SolveError>, TaskTiming);

/// The completion slot a [`Ticket`](crate::Ticket) waits on.
pub(crate) struct Slot {
    done: Mutex<Option<Outcome>>,
    cv: Condvar,
}

impl Slot {
    pub(crate) fn new() -> Arc<Slot> {
        Arc::new(Slot {
            done: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    /// Locks the slot. Every slot-lock site goes through here.
    //
    // invariant: the slot mutex cannot be poisoned — the critical
    // sections are an Option take/store and an is_some check; no user
    // code runs under it (the solve finished before `fill` is called,
    // and the redeemers only move the computed outcome out).
    fn locked(&self) -> MutexGuard<'_, Option<Outcome>> {
        self.done.lock().expect("slot mutex")
    }

    fn fill(&self, result: Result<CoverResult, SolveError>, timing: TaskTiming) {
        let mut done = self.locked();
        // invariant: exactly-once ticket ledger — each entry holds the
        // only filling reference to its slot, and the worker loop or the
        // discard path resolves it exactly once. A hard assert (not
        // debug_assert) so the conc-check scenarios catch a double
        // resolution as a panic in any build profile.
        assert!(done.is_none(), "a submission resolves exactly once");
        *done = Some((result, timing));
        drop(done);
        self.cv.notify_all();
    }

    /// Blocks until the slot is filled and takes the outcome.
    pub(crate) fn wait(&self) -> Outcome {
        let mut done = self.locked();
        loop {
            if let Some(outcome) = done.take() {
                return outcome;
            }
            // invariant: same argument as `locked` — waking re-acquires
            // the slot mutex, which no user code can poison.
            done = self.cv.wait(done).expect("slot mutex");
        }
    }

    /// The outcome if the slot is filled.
    pub(crate) fn take(&self) -> Option<Outcome> {
        self.locked().take()
    }

    pub(crate) fn is_done(&self) -> bool {
        self.locked().is_some()
    }
}

/// The worker pool's scheduling contract, driven through the service.
#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use dcover_congest::sync::Mutex;
    use dcover_hypergraph::{from_weighted_edge_lists, Hypergraph};

    use crate::service::testkit::{config, hooked, occupy_workers, tiny, Gate};
    use crate::{
        CoverResult, MwhvcSolver, RequestClass, ServiceMetrics, SolveError, SolveService,
        SubmitError, SubmitOptions, Ticket,
    };

    /// A ring on `n` vertices with uneven weights: instances of different
    /// sizes and covers.
    fn ring(n: usize) -> Arc<Hypergraph> {
        let weights: Vec<u64> = (0..n as u64).map(|i| 1 + (i * 7) % 5).collect();
        let edges: Vec<[usize; 2]> = (0..n).map(|i| [i, (i + 1) % n]).collect();
        let edges: Vec<&[usize]> = edges.iter().map(|e| &e[..]).collect();
        Arc::new(from_weighted_edge_lists(&weights, &edges).unwrap())
    }

    /// Asserts a served result is bit-identical to a standalone solve.
    fn assert_solo(served: &CoverResult, g: &Hypergraph, ctx: usize) {
        let solo = MwhvcSolver::new(config()).solve(g).unwrap();
        assert_eq!(served.cover, solo.cover, "instance {ctx}");
        assert_eq!(served.duals, solo.duals, "instance {ctx}");
        assert_eq!(served.levels, solo.levels, "instance {ctx}");
        assert_eq!(served.report, solo.report, "instance {ctx}");
    }

    /// Submits every instance, then redeems the tickets in submission
    /// order, checking each against a standalone solve.
    fn serve_all(service: &SolveService, instances: &[Arc<Hypergraph>]) {
        let tickets: Vec<Ticket> = instances
            .iter()
            .map(|g| service.submit(Arc::clone(g), 0.5).unwrap())
            .collect();
        for (i, (g, t)) in instances.iter().zip(tickets).enumerate() {
            assert_solo(&t.wait().unwrap(), g, i);
        }
    }

    /// Submits `names` in order under their options on a gated single
    /// worker and returns the order their solves started in.
    fn start_order(
        service: &SolveService,
        names: &[(&'static str, SubmitOptions)],
    ) -> Vec<&'static str> {
        let gate = Gate::new();
        let busy = occupy_workers(service, &gate);
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let tickets: Vec<Ticket> = names
            .iter()
            .map(|&(name, opts)| {
                let order = Arc::clone(&order);
                hooked(service, opts, move || order.lock().unwrap().push(name))
            })
            .collect();
        gate.release();
        for t in busy.into_iter().chain(tickets) {
            t.wait().unwrap();
        }
        let order = order.lock().unwrap().clone();
        order
    }

    #[test]
    fn tasks_return_in_task_order_and_load_balance() {
        let service = SolveService::new(config(), 3);
        let instances: Vec<_> = (0..20).map(|i| ring(3 + i % 7)).collect();
        let tickets: Vec<Ticket> = instances
            .iter()
            .enumerate()
            .map(|(i, g)| {
                if i % 5 == 0 {
                    service.set_pre_solve(|| {
                        // wall-clock: models an uneven solve duration so
                        // workers finish out of submission order; not a
                        // synchronization point.
                        std::thread::sleep(Duration::from_millis(2));
                    });
                } else {
                    service.set_pre_solve(|| {});
                }
                service.submit(Arc::clone(g), 0.5).unwrap()
            })
            .collect();
        for (i, (g, t)) in instances.iter().zip(tickets).enumerate() {
            assert_solo(&t.wait().unwrap(), g, i);
        }
    }

    #[test]
    fn arenas_are_reused_across_tasks_for_whole_solves() {
        // Two workers, each solving instances that grow and shrink on
        // one recycled arena: every result stays bit-identical to a
        // solve on a fresh arena.
        let service = SolveService::new(config(), 2);
        let instances: Vec<_> = (0..8).map(|t| ring(4 + t % 3)).collect();
        serve_all(&service, &instances);
    }

    #[test]
    fn empty_task_list_is_fine() {
        let service = SolveService::new(config(), 2);
        service.shutdown();
        assert_eq!(service.metrics(), ServiceMetrics::default());
    }

    #[test]
    fn more_workers_than_tasks() {
        let service = SolveService::new(config(), 8);
        serve_all(&service, &[ring(3), ring(4), ring(5)]);
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let service = SolveService::new(config(), 2);
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| {
                if i == 3 {
                    hooked(&service, SubmitOptions::default(), || {
                        panic!("task 3 exploded")
                    })
                } else {
                    service.submit(tiny(), 0.5).unwrap()
                }
            })
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            match ticket.wait() {
                Err(SolveError::Panicked { message }) if i == 3 => {
                    assert!(message.contains("task 3 exploded"), "got: {message}");
                }
                Ok(r) if i != 3 => assert_solo(&r, &tiny(), i),
                other => panic!("ticket {i}: {other:?}"),
            }
        }
        // The service remains usable: the worker replaced its arena.
        serve_all(&service, &[ring(3), ring(4), ring(5), ring(6)]);
    }

    #[test]
    fn a_guard_dropped_by_unwinding_is_released_on_its_worker() {
        // Solve 1 panics holding a facade lock. Unwinding drops the
        // guard, and its token must uncount it: otherwise the worker's
        // next facade lock (the slot fill, then the queue lock in `pop`)
        // trips the leaf-lock check and the worker dies, so the waits
        // below are bounded instead of blocking.
        fn resolve(mut ticket: Ticket) -> Result<CoverResult, SolveError> {
            let give_up = Instant::now() + Duration::from_secs(30);
            loop {
                match ticket.try_wait() {
                    Ok(result) => return result,
                    Err(pending) => ticket = pending,
                }
                assert!(Instant::now() < give_up, "the worker stopped serving");
                // wall-clock: polling interval of a bounded wait; the
                // ticket state is read under its lock, not ordered by
                // this sleep.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let service = SolveService::new(config(), 1);
        let shared = Arc::new(Mutex::new(0u32));
        let held = Arc::clone(&shared);
        let panicked = hooked(&service, SubmitOptions::default(), move || {
            let _guard = held.lock().expect("fresh lock");
            panic!("solve 1 panics holding the lock");
        });
        let counter = Arc::clone(&shared);
        let recovered = hooked(&service, SubmitOptions::default(), move || {
            *counter.lock().unwrap_or_else(|p| p.into_inner()) += 1;
        });
        let after = service.submit(tiny(), 0.5).unwrap();
        assert!(matches!(
            resolve(panicked),
            Err(SolveError::Panicked { .. })
        ));
        assert!(resolve(recovered).is_ok());
        assert!(resolve(after).is_ok());
        assert_eq!(*shared.lock().unwrap_or_else(|p| p.into_inner()), 1);
    }

    #[test]
    fn panic_fails_only_its_own_ticket() {
        let service = SolveService::new(config(), 2);
        let boom = hooked(&service, SubmitOptions::default(), || {
            panic!("isolated boom")
        });
        let fine: Vec<_> = (0..4).map(|i| (ring(3 + i), i)).collect();
        let tickets: Vec<Ticket> = fine
            .iter()
            .map(|(g, _)| service.submit(Arc::clone(g), 0.5).unwrap())
            .collect();
        match boom.wait() {
            Err(SolveError::Panicked { message }) => assert_eq!(message, "isolated boom"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        for ((g, i), t) in fine.iter().zip(tickets) {
            assert_solo(&t.wait().unwrap(), g, *i);
        }
    }

    #[test]
    fn try_submit_reports_backpressure_without_blocking() {
        // One worker, capacity 2. Gate the worker, fill the queue: the
        // third try_submit must fail *immediately* with Backpressure.
        let gate = Gate::new();
        let service = SolveService::with_queue_capacity(config(), 1, 2);
        let busy = occupy_workers(&service, &gate);
        let g = tiny();
        let q1 = service
            .try_submit_with(&g, 0.5, SubmitOptions::bulk())
            .unwrap();
        let q2 = service
            .try_submit_with(&g, 0.5, SubmitOptions::bulk())
            .unwrap();
        let start = Instant::now();
        let err = service
            .try_submit_with(&g, 0.5, SubmitOptions::bulk())
            .expect_err("queue is full");
        assert_eq!(err, SubmitError::Backpressure { capacity: 2 });
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "try_submit must not block"
        );
        assert!(!q1.is_done());
        gate.release();
        for t in busy.into_iter().chain([q1, q2]) {
            t.wait().unwrap();
        }
        // The refused submission shows up in the metrics.
        let m = service.metrics();
        assert_eq!(m.bulk.rejected, 1);
        assert_eq!(m.bulk.completed, 3);
        assert!(m.queue_depth_high_water >= 2);
    }

    #[test]
    fn interactive_tasks_dequeue_before_bulk_fifo_within_class() {
        let service = SolveService::with_queue_capacity(config(), 1, 8);
        let (bulk, interactive) = (SubmitOptions::bulk(), SubmitOptions::interactive());
        let order = start_order(
            &service,
            &[
                ("b1", bulk),
                ("b2", bulk),
                ("i1", interactive),
                ("i2", interactive),
            ],
        );
        assert_eq!(order, vec!["i1", "i2", "b1", "b2"]);
    }

    #[test]
    fn expired_tasks_resolve_without_running() {
        // Gate the single worker, queue a submission whose deadline
        // passes while it waits: it must resolve as Expired without
        // running, and a queued submission without a deadline must
        // still run.
        let gate = Gate::new();
        let service = SolveService::with_queue_capacity(config(), 1, 4);
        let busy = occupy_workers(&service, &gate);
        let zero = SubmitOptions::interactive().with_deadline(Duration::ZERO);
        let doomed = hooked(&service, zero, || panic!("expired solve must not run"));
        let alive = service.submit(tiny(), 0.5).unwrap();
        gate.release();
        for t in busy {
            t.wait().unwrap();
        }
        let (result, timing) = doomed.wait_timed();
        match result {
            Err(SolveError::Expired { waited }) => assert!(waited >= timing.queue),
            other => panic!("expected Expired, got {other:?}"),
        }
        assert_eq!(timing.run, Duration::ZERO);
        assert!(alive.wait().is_ok());
        let m = service.metrics();
        assert_eq!(m.interactive.expired, 1);
        assert_eq!(m.interactive.completed, 0);
        assert_eq!(m.interactive.panicked, 0);
        assert_eq!(m.bulk.expired, 0);
    }

    #[test]
    fn a_deadline_in_the_future_does_not_expire() {
        let service = SolveService::new(config(), 1);
        let opts = SubmitOptions::interactive().with_deadline(Duration::from_secs(3600));
        let (result, _timing) = service.submit_with(tiny(), 0.5, opts).unwrap().wait_timed();
        assert!(result.is_ok());
        let m = service.metrics();
        assert_eq!(m.interactive.expired, 0);
        assert_eq!(m.interactive.completed, 1);
        assert_eq!(m.interactive.queue_wait.count(), 1);
        assert_eq!(m.interactive.run_time.count(), 1);
    }

    #[test]
    fn drop_drains_queued_tasks_and_resolves_all_tickets() {
        let gate = Gate::new();
        let service = SolveService::with_queue_capacity(config(), 1, 8);
        let mut tickets = occupy_workers(&service, &gate);
        tickets.extend((1..5).map(|n| service.submit(ring(2 + n), 0.5).unwrap()));
        // The worker is parked inside the gated solve; release from a
        // helper thread while `shutdown` blocks on the drain. Whether the
        // release lands before or after `shutdown` closes the queue,
        // every ticket must resolve by the time `shutdown` returns.
        let releaser = {
            let gate = Arc::clone(&gate);
            dcover_congest::sync::thread::spawn(move || gate.release())
        };
        service.shutdown();
        releaser.join().unwrap();
        // Shutdown drained everything: every ticket resolves instantly.
        for (n, t) in tickets.into_iter().enumerate() {
            let g = if n == 0 { tiny() } else { ring(2 + n) };
            assert_solo(&t.try_wait().expect("resolved by drain").unwrap(), &g, n);
        }
        // And the service now refuses work.
        assert_eq!(
            service
                .try_submit_with(&tiny(), 0.5, SubmitOptions::bulk())
                .expect_err("closed"),
            SubmitError::ShutDown
        );
        assert!(service.submit(tiny(), 0.5).is_err());
    }

    #[test]
    fn drop_drains_both_classes_and_expires_stale_deadlines() {
        let gate = Gate::new();
        let service = SolveService::with_queue_capacity(config(), 1, 8);
        let busy = occupy_workers(&service, &gate);
        let bulk = service.submit(ring(4), 0.5).unwrap();
        let interactive = service
            .submit_with(ring(5), 0.5, SubmitOptions::interactive())
            .unwrap();
        let zero = SubmitOptions::bulk().with_deadline(Duration::ZERO);
        let doomed = service.submit_with(tiny(), 0.5, zero).unwrap();
        // The worker is already parked inside the gated solve; release
        // from a helper thread while `drop` blocks on the drain — the
        // drain itself is the rendezvous.
        let releaser = {
            let gate = Arc::clone(&gate);
            dcover_congest::sync::thread::spawn(move || gate.release())
        };
        drop(service);
        releaser.join().unwrap();
        for t in busy {
            t.try_wait().expect("drained").unwrap();
        }
        assert_solo(
            &interactive.try_wait().expect("drained").unwrap(),
            &ring(5),
            5,
        );
        assert_solo(&bulk.try_wait().expect("drained").unwrap(), &ring(4), 4);
        assert!(matches!(
            doomed.try_wait().expect("drained"),
            Err(SolveError::Expired { .. })
        ));
    }

    #[test]
    fn tickets_resolve_in_completion_not_submission_order() {
        let gate = Gate::new();
        let service = SolveService::new(config(), 2);
        // The first solve blocks on the gate; the second finishes
        // immediately on the other worker.
        let slow = {
            let gate = Arc::clone(&gate);
            hooked(&service, SubmitOptions::default(), move || {
                gate.arrive_and_wait()
            })
        };
        let fast = service.submit(ring(4), 0.5).unwrap();
        assert_solo(&fast.wait().unwrap(), &ring(4), 1);
        assert!(!slow.is_done(), "slow solve still gated");
        gate.release();
        assert_solo(&slow.wait().unwrap(), &tiny(), 0);
    }

    #[test]
    fn cancelled_tasks_resolve_without_running() {
        // Gate the single worker, queue a submission, cancel it while it
        // waits: it must resolve as Cancelled without running, and a
        // later submission must still run.
        let gate = Gate::new();
        let service = SolveService::with_queue_capacity(config(), 1, 4);
        let busy = occupy_workers(&service, &gate);
        let doomed = hooked(&service, SubmitOptions::interactive(), || {
            panic!("cancelled solve must not run")
        });
        let alive = service.submit(tiny(), 0.5).unwrap();
        doomed.cancel();
        gate.release();
        for t in busy {
            t.wait().unwrap();
        }
        let (result, timing) = doomed.wait_timed();
        assert!(matches!(result, Err(SolveError::Cancelled)), "{result:?}");
        assert_eq!(timing.run, Duration::ZERO);
        assert!(alive.wait().is_ok());
        let m = service.metrics();
        assert_eq!(m.interactive.cancelled, 1);
        assert_eq!(m.interactive.completed, 0);
        assert_eq!(m.interactive.expired, 0);
    }

    #[test]
    fn cancel_beats_deadline_when_both_hold() {
        let gate = Gate::new();
        let service = SolveService::with_queue_capacity(config(), 1, 4);
        let busy = occupy_workers(&service, &gate);
        let zero = SubmitOptions::bulk().with_deadline(Duration::ZERO);
        let doomed = service.submit_with(tiny(), 0.5, zero).unwrap();
        doomed.cancel();
        gate.release();
        for t in busy {
            t.wait().unwrap();
        }
        assert!(matches!(doomed.wait(), Err(SolveError::Cancelled)));
        let m = service.metrics();
        assert_eq!(m.bulk.cancelled, 1);
        assert_eq!(m.bulk.expired, 0);
    }

    #[test]
    fn a_cancelled_running_task_still_completes() {
        // Cancelling after a worker picked the submission up is not a
        // queue discard: the worker runs it to its end — the solve stops
        // at its first round boundary — and the ticket resolves exactly
        // once, counted as completed, not cancelled.
        let gate = Gate::new();
        let service = SolveService::new(config(), 1);
        let running = {
            let gate = Arc::clone(&gate);
            hooked(&service, SubmitOptions::bulk(), move || {
                gate.arrive_and_wait()
            })
        };
        gate.await_arrivals(1);
        running.cancel();
        gate.release();
        let (result, timing) = running.wait_timed();
        assert!(matches!(result, Err(SolveError::Cancelled)), "{result:?}");
        assert!(timing.run > Duration::ZERO);
        let m = service.metrics();
        assert_eq!(m.bulk.cancelled, 0);
        assert_eq!(m.bulk.completed, 1);
    }

    /// Regression for the dequeue-time comparison (`now >= d`, not
    /// `now > d`): a zero-duration deadline must expire deterministically
    /// even when the dequeue lands on the same clock tick as the
    /// submission.
    #[test]
    fn zero_deadline_expires_even_on_an_idle_pool() {
        let service = SolveService::new(config(), 1);
        let zero = SubmitOptions::bulk().with_deadline(Duration::ZERO);
        for _ in 0..32 {
            let t = service.submit_with(tiny(), 0.5, zero).unwrap();
            assert!(matches!(t.wait(), Err(SolveError::Expired { .. })));
        }
    }

    #[test]
    fn bulk_aging_promotes_an_aged_bulk_task_over_interactive() {
        // Aging bound of zero: every queued bulk head counts as aged, so
        // dequeue order becomes pure FIFO across classes. Without aging
        // the interactive submission would always run first.
        let service =
            SolveService::with_queue_capacity(config(), 1, 8).with_bulk_max_wait(Duration::ZERO);
        let (bulk, interactive) = (SubmitOptions::bulk(), SubmitOptions::interactive());
        let order = start_order(&service, &[("b1", bulk), ("i1", interactive), ("b2", bulk)]);
        assert_eq!(order, vec!["b1", "b2", "i1"]);
    }

    #[test]
    fn a_generous_aging_bound_preserves_strict_priority() {
        let service = SolveService::with_queue_capacity(config(), 1, 8)
            .with_bulk_max_wait(Duration::from_secs(3600));
        let (bulk, interactive) = (SubmitOptions::bulk(), SubmitOptions::interactive());
        let order = start_order(&service, &[("b1", bulk), ("i1", interactive)]);
        assert_eq!(order, vec!["i1", "b1"]);
        assert_eq!(service.metrics().class(RequestClass::Bulk).completed, 2);
    }
}
