//! Fixture: un-justified relaxed orderings, however named.
use std::sync::atomic::{AtomicU64, Ordering};

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

// relaxed: a marker on an import justifies none of its uses.
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::Ordering as O;
use std::sync::atomic::Ordering::Relaxed as Lax;

fn read(c: &AtomicU64) -> u64 {
    c.load(Relaxed) + c.load(O::Relaxed) + c.load(Lax)
}
