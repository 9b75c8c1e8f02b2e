//! Fixture: forbidden tokens inside string literals and doc comments.
//! A doc comment mentioning std::sync::Mutex, thread::sleep, unsafe,
//! Ordering::Relaxed, HashMap, assert! and .unwrap() is documentation,
//! not code — no pass may fire on this file.

/// Items documented with panic!("...") and std::thread::spawn examples
/// stay invisible to every pass, including the marker scanners.
pub fn describe() -> &'static str {
    "std::sync::Mutex thread::sleep unsafe Ordering::Relaxed \
     HashMap .unwrap() panic! assert!(x) static mut Instant::now"
}

pub fn raw() -> &'static str {
    r#"use std::sync::Mutex; "quoted" Relaxed inside a raw string is data"#
}
