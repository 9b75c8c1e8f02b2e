//! Model `Mutex` and `Condvar`: drop-in replacements for the `std::sync`
//! pair that route blocking through the conc-check scheduler when used
//! inside [`explore`](crate::explore), and behave exactly like `std`
//! otherwise.
//!
//! A primitive binds itself to an execution lazily, on first use: used
//! first inside an execution it becomes a *model* primitive of that
//! execution; used first outside it is a plain passthrough forever. Create
//! primitives inside the scenario body — using a model primitive from a
//! different execution (or from a non-model thread) panics.
//!
//! Data still lives in a real `std::sync::Mutex`, so there is no `unsafe`
//! anywhere: the model guarantees at most one virtual thread runs at a
//! time, which makes the inner lock uncontended in model mode.

pub mod atomic;

use crate::exec::{self, Handle};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{
    Condvar as StdCondvar, LockResult, Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock,
    PoisonError,
};

enum Reg {
    Model { origin: Handle, id: usize },
    Passthrough,
}

impl Reg {
    /// The handle to use for a model operation right now, or `None` for
    /// passthrough behaviour.
    fn model_handle(&self) -> Option<(Handle, usize)> {
        match self {
            Reg::Passthrough => None,
            Reg::Model { origin, id } => {
                let h = exec::current().expect(
                    "conc-check model primitive used from a thread outside the execution \
                     (spawn threads via the facade, create primitives inside the body)",
                );
                assert!(
                    h.same_exec(origin),
                    "conc-check model primitive reused across executions \
                     (create primitives inside the scenario body)"
                );
                Some((h, *id))
            }
        }
    }
}

fn register(kind: fn(&Handle) -> usize) -> Reg {
    match exec::current() {
        Some(h) => {
            let id = kind(&h);
            Reg::Model { origin: h, id }
        }
        None => Reg::Passthrough,
    }
}

/// Model mutex. See the module docs for binding rules.
pub struct Mutex<T: ?Sized> {
    reg: OnceLock<Reg>,
    data: StdMutex<T>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex {
            reg: OnceLock::new(),
            data: StdMutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let reg = self.reg.get_or_init(|| register(Handle::register_mutex));
        match reg.model_handle() {
            Some((h, id)) => {
                let owned = if std::thread::panicking() {
                    h.acquire_tolerant(id)
                } else {
                    h.acquire(id);
                    true
                };
                // Uncontended in model mode (single active virtual thread);
                // poison-tolerant because failures propagate via the engine.
                let inner = self.data.lock().unwrap_or_else(|e| e.into_inner());
                Ok(MutexGuard {
                    lock: self,
                    inner: Some(inner),
                    model: owned.then_some((h, id)),
                })
            }
            None => match self.data.lock() {
                Ok(inner) => Ok(MutexGuard {
                    lock: self,
                    inner: Some(inner),
                    model: None,
                }),
                Err(poisoned) => Err(PoisonError::new(MutexGuard {
                    lock: self,
                    inner: Some(poisoned.into_inner()),
                    model: None,
                })),
            },
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// Guard for [`Mutex`]; releases model ownership (when held) on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
    model: Option<(Handle, usize)>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard accessed after wait")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Drop the real guard first, then release model ownership: nothing
        // can observe the window because only this virtual thread runs.
        drop(self.inner.take());
        if let Some((h, id)) = self.model.take() {
            h.release(id);
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Model condvar paired with [`Mutex`].
pub struct Condvar {
    reg: OnceLock<Reg>,
    fallback: StdCondvar,
}

impl Condvar {
    #[expect(
        clippy::new_without_default,
        reason = "mirrors std::sync::Condvar, whose constructor is `new`"
    )]
    pub fn new() -> Self {
        Condvar {
            reg: OnceLock::new(),
            fallback: StdCondvar::new(),
        }
    }

    fn reg(&self) -> &Reg {
        self.reg.get_or_init(|| register(Handle::register_condvar))
    }

    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        match self.reg().model_handle() {
            Some((h, cv)) => {
                let (_gh, mutex_id) = guard
                    .model
                    .take()
                    .expect("model condvar waited with a passthrough mutex guard");
                let lock = guard.lock;
                // Release the real lock; the model release happens atomically
                // with waiter registration inside condvar_wait.
                drop(guard.inner.take());
                drop(guard);
                if std::thread::panicking() {
                    // Degraded teardown path: behave as a spurious wakeup.
                    let owned = h.acquire_tolerant(mutex_id);
                    let inner = lock.data.lock().unwrap_or_else(|e| e.into_inner());
                    return Ok(MutexGuard {
                        lock,
                        inner: Some(inner),
                        model: owned.then_some((h, mutex_id)),
                    });
                }
                h.condvar_wait(cv, mutex_id);
                let inner = lock.data.lock().unwrap_or_else(|e| e.into_inner());
                Ok(MutexGuard {
                    lock,
                    inner: Some(inner),
                    model: Some((h, mutex_id)),
                })
            }
            None => {
                assert!(
                    guard.model.is_none(),
                    "passthrough condvar waited with a model mutex guard"
                );
                let lock = guard.lock;
                let std_guard = guard.inner.take().expect("guard accessed after wait");
                drop(guard);
                match self.fallback.wait(std_guard) {
                    Ok(inner) => Ok(MutexGuard {
                        lock,
                        inner: Some(inner),
                        model: None,
                    }),
                    Err(poisoned) => Err(PoisonError::new(MutexGuard {
                        lock,
                        inner: Some(poisoned.into_inner()),
                        model: None,
                    })),
                }
            }
        }
    }

    pub fn notify_one(&self) {
        match self.reg().model_handle() {
            Some((h, cv)) => {
                if std::thread::panicking() {
                    h.notify_tolerant(cv, false);
                } else {
                    h.condvar_notify(cv, false);
                }
            }
            None => self.fallback.notify_one(),
        }
    }

    pub fn notify_all(&self) {
        match self.reg().model_handle() {
            Some((h, cv)) => {
                if std::thread::panicking() {
                    h.notify_tolerant(cv, true);
                } else {
                    h.condvar_notify(cv, true);
                }
            }
            None => self.fallback.notify_all(),
        }
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}
