//! Fixture: a ported module routing primitives through the facade.
use crate::sync::{Condvar, Mutex};

fn guarded(m: &Mutex<u32>, cv: &Condvar) {
    let g = m.lock();
    drop(g);
    cv.notify_all();
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;

    #[test]
    fn hand_off() {
        let (tx, rx) = mpsc::channel();
        tx.send(1).unwrap();
        assert_eq!(rx.recv(), Ok(1));
    }
}
