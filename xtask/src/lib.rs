//! Repo automation: the static-analysis passes that rustc and clippy
//! cannot run for the distributed-covering workspace.
//!
//! `cargo run -p xtask -- lint` runs five per-file token passes over
//! every `.rs` file (including xtask's own sources):
//!
//! | id                    | guards                                             |
//! |-----------------------|----------------------------------------------------|
//! | `sync-facade`         | conccheck interposition in ported modules          |
//! | `relaxed-order`       | justified relaxed atomics                          |
//! | `wall-clock-sleep`    | sleeps model time, never synchronize               |
//! | `panic-surface`       | no unexamined panics in the serving path           |
//! | `congest-conformance` | protocol code reads no clock                       |
//!
//! The scanner is comment- and string-literal-aware (see [`scan`]), and
//! every diagnostic carries a `file:line:col` span and a stable rule id
//! ([`diag`]). The Info-level slice-index inventory is pinned by a
//! one-way ratchet ([`baseline`]). `unsafe`, hash collections and
//! suppression hygiene are checked by rustc and clippy through the
//! workspace lints table and `clippy.toml`. Lock discipline and message
//! widths are checked by the code they guard: the `dcover_congest::sync`
//! facade refuses a nested lock in debug builds, and the `Message` trait
//! is `Copy` with a `MAX_BITS` const that rustc checks against the
//! CONGEST budget. The full catalog lives in `ANALYSIS.md` at the repo
//! root.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod config;
pub mod diag;
pub mod rules;
pub mod runner;
pub mod scan;
