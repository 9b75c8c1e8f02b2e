//! Model-checked interleaving scenarios for the task-pool scheduler.
//!
//! Compiled only under `RUSTFLAGS="--cfg conc_check"`: the
//! `dcover_congest::sync` facade then routes every mutex acquire, condvar
//! wait/notify, atomic access, and thread spawn/join through the
//! `dcover_conccheck` scheduler, and each test below explores thousands of
//! distinct interleavings of the real pool code.
//!
//! Every scenario asserts the **exactly-once ticket ledger** (each issued
//! ticket resolves exactly one way — the hard assert in `TaskSlot::fill`
//! turns a double resolution into a model failure) and the
//! [`SchedMetrics`] counter identity `submitted == completed + expired +
//! cancelled + panicked` once the pool has drained.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg conc_check" cargo test -p dcover-congest --test conc_check
//! ```

#![cfg(conc_check)]

use std::sync::Arc;
use std::time::Duration;

use dcover_conccheck::{explore, Config};
use dcover_congest::sync::thread;
use dcover_congest::{
    CancelToken, Ctx, EngineArena, Process, SchedMetrics, SimPool, Status, TaskClass, TaskError,
    TaskOptions, TaskTicket, TrySubmitError,
};

/// Minimal process type to instantiate the pool; the scenarios drive task
/// jobs only, so no rounds ever run.
struct Nop;
impl Process for Nop {
    type Msg = u32;
    fn on_round(&mut self, _ctx: &mut Ctx<'_, u32>) -> Status {
        Status::Halted
    }
}

/// Per-scenario exploration floor. Three pool scenarios plus the two
/// service scenarios in `dcover-core` sum past the 10 000-interleaving
/// acceptance bar.
const FLOOR: usize = 2500;

/// Extra seeded random iterations per scenario, on top of the floor —
/// CI's conc-check job sets this to 5000.
fn extra_random_iters() -> usize {
    std::env::var("CONC_CHECK_RANDOM_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Bounded-exhaustive pass capped at `floor`, topped up with a seeded
/// random walk so every scenario explores at least `floor` interleavings
/// even when the bounded space is smaller, plus any
/// `CONC_CHECK_RANDOM_ITERS` requested by the environment.
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

/// Unwraps a ticket that the drained pool must have resolved.
fn resolved<T: Send + 'static>(ticket: TaskTicket<T>) -> Result<T, TaskError> {
    match ticket.try_wait() {
        Ok(outcome) => outcome,
        Err(_) => panic!("ticket unresolved after the pool drained"),
    }
}

/// Asserts the per-class ledger identity once the pool has drained: every
/// accepted task resolved exactly one way. `rejected` and `shed` count
/// refusals that never entered the queue, so they sit outside the sum.
fn assert_identity(metrics: &SchedMetrics, class: TaskClass) {
    let c = metrics.class(class);
    assert_eq!(
        c.submitted,
        c.completed + c.expired + c.cancelled + c.panicked,
        "ledger identity violated for {class:?}"
    );
}

/// A queued task's cancel token is cancelled from a second thread while
/// the pool is dropped (drain) from the first: whichever side wins, the
/// ticket resolves exactly once — as the value or as `Cancelled`.
#[test]
fn submit_cancel_race_resolves_exactly_once() {
    let total = explore_at_least(FLOOR, 0xC0FFEE, || {
        let pool: SimPool<Nop> = SimPool::with_capacity(1, 4);
        let metrics = pool.metrics();
        let token = CancelToken::new();
        let ticket = pool
            .submit(
                TaskOptions::bulk().with_cancel(token.clone()),
                |_a: &mut EngineArena<Nop>| 7u32,
            )
            .unwrap();
        let canceller = thread::spawn(move || token.cancel());
        drop(pool);
        canceller.join().unwrap();
        match resolved(ticket) {
            Ok(7) => {}
            Ok(other) => panic!("wrong task value {other}"),
            Err(e) => assert!(e.is_cancelled(), "unexpected task error: {e}"),
        }
        let c = metrics.class(TaskClass::Bulk);
        assert_eq!(c.submitted, 1);
        assert_eq!(c.expired, 0);
        assert_eq!(c.panicked, 0);
        assert_identity(&metrics, TaskClass::Bulk);
    });
    assert!(total >= FLOOR, "explored only {total} interleavings");
}

/// A task submitted with an already-past (zero) deadline races the
/// worker's dequeue and the drop-drain: it must resolve as `Expired` on
/// every path, while an effectively-infinite deadline never fires.
#[test]
fn zero_deadline_expiry_races_dequeue() {
    let total = explore_at_least(FLOOR, 0xDEAD11E, || {
        let pool: SimPool<Nop> = SimPool::with_capacity(1, 4);
        let metrics = pool.metrics();
        let doomed = pool
            .submit(
                TaskOptions::interactive().deadline_in(Duration::ZERO),
                |_a: &mut EngineArena<Nop>| 1u32,
            )
            .unwrap();
        let live = pool
            .submit(
                TaskOptions::bulk().deadline_in(Duration::from_secs(86_400)),
                |_a: &mut EngineArena<Nop>| 2u32,
            )
            .unwrap();
        drop(pool);
        let expired = resolved(doomed).expect_err("zero deadline is past at every dequeue");
        assert!(expired.is_expired(), "unexpected task error: {expired}");
        assert_eq!(resolved(live).expect("day-long deadline never fires"), 2);
        let interactive = metrics.class(TaskClass::Interactive);
        assert_eq!(interactive.submitted, 1);
        assert_eq!(interactive.expired, 1);
        assert_identity(&metrics, TaskClass::Interactive);
        assert_identity(&metrics, TaskClass::Bulk);
    });
    assert!(total >= FLOOR, "explored only {total} interleavings");
}

/// `SimPool::shutdown` (drain) races an in-flight cancel *and* a late
/// submitter sharing the pool: the late submission is either accepted
/// (and then must complete — drains run everything) or refused as
/// `Closed`; the cancelled ticket resolves exactly once either way.
#[test]
fn shutdown_drain_races_in_flight_cancel() {
    let total = explore_at_least(FLOOR, 0x51DE0, || {
        let pool: Arc<SimPool<Nop>> = Arc::new(SimPool::with_capacity(1, 4));
        let metrics = pool.metrics();
        let token = CancelToken::new();
        let victim = pool
            .submit(
                TaskOptions::bulk().with_cancel(token.clone()),
                |_a: &mut EngineArena<Nop>| 1u32,
            )
            .unwrap();
        let bystander = pool
            .submit(TaskOptions::default(), |_a: &mut EngineArena<Nop>| 2u32)
            .unwrap();
        let canceller = thread::spawn(move || token.cancel());
        let late = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || {
                pool.try_submit(TaskOptions::default(), |_a: &mut EngineArena<Nop>| 3u32)
            })
        };
        pool.shutdown();
        canceller.join().unwrap();
        match resolved(victim) {
            Ok(1) => {}
            Ok(other) => panic!("wrong task value {other}"),
            Err(e) => assert!(e.is_cancelled(), "unexpected task error: {e}"),
        }
        assert_eq!(resolved(bystander).expect("no deadline, no token"), 2);
        let mut accepted = 2;
        match late.join().unwrap() {
            Ok(ticket) => {
                accepted += 1;
                assert_eq!(resolved(ticket).expect("accepted work drains"), 3);
            }
            Err(TrySubmitError::Closed) => {}
            Err(other) => panic!("unexpected refusal: {other}"),
        }
        assert_eq!(metrics.class(TaskClass::Bulk).submitted, accepted);
        assert_identity(&metrics, TaskClass::Bulk);
        assert_identity(&metrics, TaskClass::Interactive);
    });
    assert!(total >= FLOOR, "explored only {total} interleavings");
}
