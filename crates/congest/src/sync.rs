//! Synchronization facade for the scheduler/service stack.
//!
//! Every module in the serving path (`pool`, `cancel`, `metrics`, and
//! `dcover_core::service`) takes its `Mutex`/`Condvar`, atomics, and
//! thread spawning from here instead of `std` directly (`xtask lint`
//! enforces this). In a normal build these are exactly the `std::sync` /
//! `std::thread` types — re-exports, zero cost. Under `RUSTFLAGS="--cfg
//! conc_check"` they swap for the model primitives of the
//! `dcover-conccheck` crate, whose scheduler can then drive every
//! acquire/wait/notify/load/store through systematically explored
//! interleavings (see `CONCURRENCY.md`).
//!
//! Deliberately *not* part of the facade: `std::sync::Arc` (no scheduling
//! decisions inside), and the `std::sync::mpsc` channels and
//! `std::thread` workers of a multi-chunk `Simulator` (the round path,
//! which conc-check scenarios do not drive).

#[cfg(not(conc_check))]
pub use std::sync::{Condvar, Mutex, MutexGuard};

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
pub use dcover_conccheck::sync::{Condvar, Mutex, MutexGuard};

#[cfg(conc_check)]
pub use dcover_conccheck::sync::atomic;

#[cfg(conc_check)]
pub use dcover_conccheck::thread;
