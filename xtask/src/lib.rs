//! Repo automation: the static-analysis passes that rustc and clippy
//! cannot run for the distributed-covering workspace.
//!
//! `cargo run -p xtask -- lint` runs eight passes over every `.rs` file
//! (including xtask's own sources). Five are per-file token passes;
//! three are cross-function semantic passes built on the [`sym`] symbol
//! layer (item extraction, call-graph resolution, and a static lock model
//! over the masked token stream):
//!
//! | id                    | guards                                             |
//! |-----------------------|----------------------------------------------------|
//! | `sync-facade`         | conccheck interposition in ported modules          |
//! | `relaxed-order`       | justified relaxed atomics                          |
//! | `wall-clock-sleep`    | sleeps model time, never synchronize               |
//! | `panic-surface`       | no unexamined panics in the serving path           |
//! | `congest-conformance` | protocol code reads no clock                       |
//! | `lock-order`          | the static lock graph is acyclic (no ABBA)         |
//! | `message-bits`        | every Message fits the CONGEST bit budget          |
//! | `blocking-in-worker`  | worker paths never block while holding a lock      |
//!
//! The scanner is comment- and string-literal-aware (see [`scan`]), and
//! every diagnostic carries a `file:line:col` span and a stable rule id
//! ([`diag`]). Info-level inventories are pinned by a one-way ratchet
//! ([`baseline`]). `unsafe`, hash collections and suppression hygiene
//! are checked by rustc and clippy through the workspace lints table and
//! `clippy.toml`. The full catalog lives in `ANALYSIS.md` at the repo
//! root.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod config;
pub mod diag;
pub mod rules;
pub mod runner;
pub mod scan;
pub mod sym;
