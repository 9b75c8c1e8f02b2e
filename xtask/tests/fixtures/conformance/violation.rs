//! Fixture: wall-clock reads in protocol code.
use std::time::Instant;

fn now_secs(start: Instant) -> u64 {
    Instant::now().duration_since(start).as_secs()
}

fn epoch() -> std::time::SystemTime {
    std::time::SystemTime::UNIX_EPOCH
}
