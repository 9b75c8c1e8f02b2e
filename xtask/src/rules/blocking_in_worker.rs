//! `blocking-in-worker`: no blocking wait on a pool-worker path while a
//! lock is held.
//!
//! Pool workers (`worker_loop` and everything reachable from it on the
//! same thread) are the system's only execution resource once a solve is
//! queued. A worker that parks in `Condvar::wait`, a channel `recv`, or
//! `Ticket::wait` **while holding a mutex** can stall every peer that
//! needs that mutex — the exact shape of the pileups the conccheck
//! scenarios probe dynamically. This pass checks it statically: the
//! [`LockModel`](crate::sym::LockModel) reports each fn's blocking sites
//! with the locks still held there (a `Condvar::wait(guard)` atomically
//! releases that guard's lock, so it only counts locks *other* than its
//! own), and a reachability sweep from the configured worker entry fns
//! ([`LintConfig::worker_entry_fns`]) unions in locks held at each call
//! site along the way.
//!
//! Blocking with no lock held is the idle-worker idiom and is fine.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::LintConfig;
use crate::diag::{Diagnostic, Report, Severity};
use crate::sym::{LockModel, Workspace};

pub const ID: &str = "blocking-in-worker";

pub fn check(ws: &Workspace<'_>, cfg: &LintConfig, report: &mut Report) {
    let model = LockModel::build(ws, cfg);
    // incoming[f] = locks possibly held on entry to `f` on a worker path.
    let mut incoming: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: Vec<usize> = Vec::new();
    for (fi, f) in ws.fns.iter().enumerate() {
        if model.info[fi].is_some() && cfg.worker_entry_fns.iter().any(|n| n == &f.name) {
            incoming.entry(fi).or_default();
            queue.push(fi);
        }
    }
    while let Some(fi) = queue.pop() {
        let inc = incoming.get(&fi).cloned().unwrap_or_default();
        let Some(info) = &model.info[fi] else {
            continue;
        };
        for (_, held, callees) in &info.calls {
            let mut next: BTreeSet<String> = inc.clone();
            next.extend(held.iter().cloned());
            for &g in callees {
                if model.info.get(g).map(Option::is_none).unwrap_or(true) {
                    continue;
                }
                let known = incoming.contains_key(&g);
                let entry = incoming.entry(g).or_default();
                let before = entry.len();
                entry.extend(next.iter().cloned());
                parent.entry(g).or_insert(fi);
                if entry.len() != before || !known {
                    queue.push(g);
                }
            }
        }
    }
    for (&fi, inc) in &incoming {
        let Some(info) = &model.info[fi] else {
            continue;
        };
        let f = &ws.fns[fi];
        let sf = &ws.files[f.file];
        for b in &info.blocking {
            let mut held: BTreeSet<String> = inc.clone();
            held.extend(b.held.iter().cloned());
            if held.is_empty() {
                continue;
            }
            // Witness path from the worker entry.
            let mut chain = vec![label(ws, fi)];
            let mut cur = fi;
            while let Some(&p) = parent.get(&cur) {
                chain.push(label(ws, p));
                cur = p;
                if chain.len() > 12 {
                    break;
                }
            }
            chain.reverse();
            report.diagnostics.push(Diagnostic::new(
                ID,
                Severity::Error,
                &sf.rel,
                b.pos.line + 1,
                b.pos.col + 1,
                format!(
                    "worker path {} blocks in {} while holding {}: a parked worker \
                     pins these locks and can stall every peer that needs them",
                    chain.join(" → "),
                    b.what,
                    held.iter().cloned().collect::<Vec<_>>().join(", "),
                ),
                sf.lines.get(b.pos.line).map(String::as_str).unwrap_or(""),
            ));
        }
    }
}

fn label(ws: &Workspace<'_>, fi: usize) -> String {
    let f = &ws.fns[fi];
    match &f.impl_type {
        Some(t) => format!("`{}::{}`", t, f.name),
        None => format!("`{}`", f.name),
    }
}
