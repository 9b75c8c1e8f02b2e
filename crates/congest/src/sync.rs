//! Synchronization facade for the scheduler/service stack.
//!
//! Every module in the serving path (`cancel` here, and `service`,
//! `pool` and `metrics` in `dcover_core`) takes its `Mutex`/`Condvar`,
//! atomics, and thread spawning from here instead of `std` directly
//! (`xtask lint` enforces this). [`Mutex`], [`MutexGuard`] and [`Condvar`] are thin
//! newtypes over a backend: `std::sync` in a normal build, or under
//! `RUSTFLAGS="--cfg conc_check"` the model primitives of the
//! `dcover-conccheck` crate, whose scheduler can then drive every
//! acquire/wait/notify/load/store through systematically explored
//! interleavings (see `CONCURRENCY.md`). Atomics and threads are plain
//! re-exports of the same backend.
//!
//! # Every facade lock is a leaf
//!
//! In a debug build, [`Mutex::lock`] panics if the calling thread already
//! holds a facade guard, naming the acquisition site. With no nesting
//! there is no lock order to get wrong, and a condvar wait releases the
//! only lock its thread holds. A thread-local count of held guards backs
//! the check; each guard carries a zero-sized token whose drop decrements
//! it, so a guard dropped by unwinding is uncounted too. The check is
//! skipped while the thread is already panicking, so a destructor that
//! locks during unwinding cannot abort the process. Release builds
//! compile the count out and the wrappers forward inline.
//!
//! Deliberately *not* part of the facade: `std::sync::Arc` (no scheduling
//! decisions inside), and the `std::sync::mpsc` channels and
//! `std::thread` workers of a multi-chunk `Simulator` (the round path,
//! which conc-check scenarios do not drive).

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{LockResult, PoisonError};

#[cfg(conc_check)]
use dcover_conccheck::sync as backend;
#[cfg(not(conc_check))]
use std::sync as backend;

/// Atomic types for the serving path (`std::sync::atomic` re-exports in a
/// normal build; scheduling-point model atomics under `conc_check`).
#[cfg(not(conc_check))]
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
}

/// Thread spawning for the serving path (`std::thread` re-exports in a
/// normal build; virtual threads under `conc_check`).
#[cfg(not(conc_check))]
pub mod thread {
    pub use std::thread::{spawn, Builder, JoinHandle};
}

#[cfg(conc_check)]
pub use dcover_conccheck::sync::atomic;

#[cfg(conc_check)]
pub use dcover_conccheck::thread;

#[cfg(debug_assertions)]
thread_local! {
    /// Facade guards the current thread holds.
    static HELD: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Zero-sized token for one counted guard; dropping it uncounts the guard.
struct Held;

impl Held {
    /// Counts a guard the calling thread is about to take, after checking
    /// that it holds none.
    #[track_caller]
    #[inline]
    fn acquire() -> Held {
        #[cfg(debug_assertions)]
        {
            let held = HELD.get();
            if held > 0 && !std::thread::panicking() {
                let site = std::panic::Location::caller();
                panic!(
                    "facade lock at {site} taken while this thread already holds {held}: \
                     every dcover_congest::sync mutex is a leaf (see CONCURRENCY.md)"
                );
            }
            HELD.set(held + 1);
        }
        Held
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HELD.set(HELD.get() - 1);
    }
}

/// A mutual-exclusion lock whose guard must be the only facade guard its
/// thread holds (checked in debug builds; see the module docs).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(backend::Mutex<T>);

impl<T> Mutex<T> {
    /// A new unlocked mutex holding `value`.
    #[inline]
    pub fn new(value: T) -> Self {
        Mutex(backend::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is acquired, as `std::sync::Mutex::lock`.
    ///
    /// # Errors
    ///
    /// A poisoned lock (a holder panicked) returns the guard inside the
    /// [`PoisonError`].
    ///
    /// # Panics
    ///
    /// In a debug build, if the calling thread already holds a facade
    /// guard (unless it is unwinding). The message names this call site.
    #[track_caller]
    #[inline]
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let held = Held::acquire();
        wrap(self.0.lock(), held)
    }
}

/// The guard of a locked [`Mutex`]; unlocks on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: backend::MutexGuard<'a, T>,
    _held: Held,
}

/// Re-wraps a backend lock result, moving the token into the guard.
#[inline]
fn wrap<T: ?Sized>(
    result: LockResult<backend::MutexGuard<'_, T>>,
    held: Held,
) -> LockResult<MutexGuard<'_, T>> {
    match result {
        Ok(inner) => Ok(MutexGuard { inner, _held: held }),
        Err(poisoned) => Err(PoisonError::new(MutexGuard {
            inner: poisoned.into_inner(),
            _held: held,
        })),
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A condition variable paired with a facade [`Mutex`].
#[derive(Debug)]
pub struct Condvar(backend::Condvar);

impl Condvar {
    /// A new condition variable with no waiters.
    #[expect(
        clippy::new_without_default,
        reason = "the serving path constructs condvars only through `new`"
    )]
    #[inline]
    pub fn new() -> Self {
        Condvar(backend::Condvar::new())
    }

    /// Releases `guard`, blocks until notified (or woken spuriously), and
    /// re-acquires the lock, as `std::sync::Condvar::wait`. The guard's
    /// count carries over, so the thread still holds exactly one.
    ///
    /// # Errors
    ///
    /// A lock poisoned while waiting returns the guard inside the
    /// [`PoisonError`].
    #[inline]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let MutexGuard { inner, _held: held } = guard;
        wrap(self.0.wait(inner), held)
    }

    /// Wakes one waiter.
    #[inline]
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    #[inline]
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn a_second_lock_on_one_thread_panics_at_its_site() {
        let (a, b) = (Mutex::new(1), Mutex::new(2));
        let _a = a.lock().expect("fresh lock");
        let site = format!("{}:{}:", file!(), line!() + 1);
        let nested = catch_unwind(AssertUnwindSafe(|| b.lock().map(|g| *g)));
        let payload = nested.expect_err("locking B while holding A panics");
        let message = payload.downcast_ref::<String>().expect("formatted");
        assert!(message.contains(&site), "names {site}: {message}");
        assert_eq!(HELD.get(), 1, "the refused lock is not counted");
    }

    #[test]
    fn a_lock_taken_while_unwinding_is_not_checked() {
        struct LocksOnDrop<'a>(&'a Mutex<u32>);
        impl Drop for LocksOnDrop<'_> {
            fn drop(&mut self) {
                *self.0.lock().expect("unpoisoned") += 1;
            }
        }
        let (a, b) = (Mutex::new(0), Mutex::new(0));
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _a = a.lock().expect("fresh lock");
            let _locks_b = LocksOnDrop(&b);
            panic!("unwind while holding A");
        }));
        assert!(unwound.is_err());
        assert_eq!(
            HELD.get(),
            0,
            "every guard dropped by unwinding is uncounted"
        );
        assert_eq!(*b.lock().expect("unpoisoned"), 1);
    }
}
