//! Fixture: raw std primitives in a ported module, however named.
use std::sync::Mutex;
use std::sync::{Arc, Mutex as RawMutex, PoisonError, RwLock};
use std::{
    sync::atomic::{self as raw_atomic, Ordering},
    thread,
};

fn make() -> Mutex<u32> {
    Mutex::new(0)
}

fn start() {
    thread::spawn(|| {});
}

static FLAG: raw_atomic::AtomicBool = raw_atomic::AtomicBool::new(false);

fn drain() -> Option<u32> {
    let (_tx, rx) = std::sync::mpsc::channel();
    rx.recv().ok()
}
