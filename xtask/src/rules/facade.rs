//! `sync-facade`: modules ported to the `dcover_congest::sync` facade must
//! route every sync primitive through it, so the conccheck model checker
//! can interpose under `--cfg conc_check`. `std::sync::Arc`,
//! `std::sync::mpsc`, and `std::sync::atomic::Ordering` stay allowed —
//! they are either state-free or re-exported unchanged by the facade.
//!
//! A primitive is caught however it is named: by full path, through a
//! grouped or renamed import (flagged at the import), or through an
//! imported module (`use std::thread;` then `thread::spawn`, flagged at
//! the use). Clippy's `disallowed-types` cannot do this job: in a normal
//! build the facade's `Mutex` *is* `std::sync::Mutex`, so it would flag
//! every facade use too.

use crate::config::LintConfig;
use crate::diag::{Diagnostic, Severity};
use crate::rules::{normalize, paths, uses};
use crate::scan::SourceFile;

pub const ID: &str = "sync-facade";

/// Std items the facade replaces; an item counts with anything under it
/// (`std::sync::Mutex::new`).
const FORBIDDEN: &[&str] = &[
    "std::sync::Mutex",
    "std::sync::MutexGuard",
    "std::sync::RwLock",
    "std::sync::RwLockReadGuard",
    "std::sync::RwLockWriteGuard",
    "std::sync::Condvar",
    "std::sync::Barrier",
    "std::sync::Once",
    "std::thread::spawn",
    "std::thread::Builder",
];

fn forbidden(path: &str) -> bool {
    let under = |item: &str| {
        path.strip_prefix(item)
            .is_some_and(|r| r.is_empty() || r.starts_with("::"))
    };
    FORBIDDEN.iter().any(|f| under(f))
        || path
            .strip_prefix("std::sync::atomic::")
            .is_some_and(|r| r.starts_with("Atomic"))
}

pub fn check(sf: &SourceFile, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    if !cfg.facade_files.iter().any(|f| f == &sf.rel) {
        return;
    }
    let mut flag = |line: usize, col: usize, path: &str| {
        out.push(Diagnostic::new(
            ID,
            Severity::Error,
            &sf.rel,
            line + 1,
            col + 1,
            format!("ported module must use the dcover_congest::sync facade, not `{path}`"),
            &sf.lines[line],
        ));
    };
    let uses = uses(sf);
    for leaf in uses.leaves.iter().filter(|l| forbidden(&l.path)) {
        flag(leaf.line, leaf.col, &leaf.path);
    }
    for (i, code) in sf.masked.iter().enumerate() {
        if uses.lines[i] {
            continue;
        }
        for (at, path) in paths(code) {
            let (head, rest) = path.split_once("::").unwrap_or((&path, ""));
            let full = match uses.leaves.iter().find(|l| l.local == head) {
                // A forbidden import is already flagged where it is made.
                Some(leaf) if forbidden(&leaf.path) => continue,
                Some(leaf) => format!("{}::{rest}", leaf.path),
                None => normalize(&path),
            };
            if forbidden(&full) {
                flag(i, at, &full);
            }
        }
    }
}
