//! `lock-order`: the static lock acquisition graph must be acyclic.
//!
//! The dynamic `dcover-conccheck` explorer (CONCURRENCY.md) witnesses
//! deadlock-freedom only on the interleavings it reaches; this pass is
//! the static complement. [`LockModel`](crate::sym::LockModel) attributes
//! every `Mutex::lock` call site (including guard-returning helpers like
//! `Shared::locked`) to its enclosing fn, propagates held-lock sets along
//! the intra-workspace call graph, and records an edge `A → B` whenever
//! `B` can be acquired while `A` is held. A cycle in that graph is a
//! potential ABBA inversion: two threads entering the cycle from
//! different nodes can each hold the lock the other wants.
//!
//! Every cycle is reported with the full witness call chain for each
//! edge. The fix is to take the locks in one global order, or to release
//! the first before taking the second.
//!
//! The graph itself is always rendered to DOT (`lint --lock-graph
//! lock-graph.dot`) so the doc can embed it and the conccheck scenarios
//! can be cross-checked against the static edge set.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::config::LintConfig;
use crate::diag::{Diagnostic, Report, Severity};
use crate::sym::{LockEdge, LockModel, Workspace};

pub const ID: &str = "lock-order";

pub fn check(ws: &Workspace<'_>, cfg: &LintConfig, report: &mut Report) {
    let model = LockModel::build(ws, cfg);
    report.lock_graph_dot = Some(render_dot(ws, cfg, &model));
    if model.locks.is_empty() {
        return;
    }
    // Dedup parallel edges; keep every witness for the diagnostics.
    let mut edge_set: BTreeMap<(String, String), Vec<&LockEdge>> = BTreeMap::new();
    for e in &model.edges {
        edge_set
            .entry((e.from.clone(), e.to.clone()))
            .or_default()
            .push(e);
    }
    for cycle in cycles(&model.locks, &edge_set) {
        // Anchor the diagnostic at the lexically-first witness edge of
        // the cycle.
        let mut witnesses: Vec<&LockEdge> = Vec::new();
        for k in 0..cycle.len() {
            let from = &cycle[k];
            let to = &cycle[(k + 1) % cycle.len()];
            if let Some(es) = edge_set.get(&(from.clone(), to.clone())) {
                witnesses.extend(es.iter().copied());
            }
        }
        let anchor = witnesses
            .iter()
            .min_by_key(|e| (&ws.files[e.file].rel, e.pos))
            .expect("cycle has at least one edge");
        let sf = &ws.files[anchor.file];
        let mut msg = format!(
            "lock-order cycle ({}) — a potential ABBA inversion; edges:",
            cycle
                .iter()
                .chain(std::iter::once(&cycle[0]))
                .cloned()
                .collect::<Vec<_>>()
                .join(" → "),
        );
        for k in 0..cycle.len() {
            let from = &cycle[k];
            let to = &cycle[(k + 1) % cycle.len()];
            if let Some(es) = edge_set.get(&(from.clone(), to.clone())) {
                let e = es[0];
                let _ = write!(
                    msg,
                    " [{} held → {} via {} at {}:{}]",
                    from,
                    to,
                    e.via,
                    ws.files[e.file].rel,
                    e.pos.line + 1
                );
            }
        }
        msg.push_str("; take the locks in one global order");
        report.diagnostics.push(Diagnostic::new(
            ID,
            Severity::Error,
            &sf.rel,
            anchor.pos.line + 1,
            anchor.pos.col + 1,
            msg,
            sf.lines
                .get(anchor.pos.line)
                .map(String::as_str)
                .unwrap_or(""),
        ));
    }
}

/// Elementary cycles via SCC decomposition: for each non-trivial SCC we
/// report one canonical cycle (a closed walk through the SCC found by
/// DFS) — enough to fail the build and name every involved lock; the
/// DOT artifact shows the complete edge set.
fn cycles(
    locks: &[String],
    edges: &BTreeMap<(String, String), Vec<&LockEdge>>,
) -> Vec<Vec<String>> {
    let idx: BTreeMap<&str, usize> = locks
        .iter()
        .enumerate()
        .map(|(i, l)| (l.as_str(), i))
        .collect();
    let n = locks.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (from, to) in edges.keys() {
        let (Some(&f), Some(&t)) = (idx.get(from.as_str()), idx.get(to.as_str())) else {
            continue;
        };
        if !adj[f].contains(&t) {
            adj[f].push(t);
        }
    }
    // `reach[u]`: the nodes reachable from `u` in one or more steps. The
    // graphs here have a handful of nodes, so a walk per node is cheap.
    let reach: Vec<BTreeSet<usize>> = (0..n)
        .map(|u| {
            let mut seen = BTreeSet::new();
            let mut stack = adj[u].clone();
            while let Some(v) = stack.pop() {
                if seen.insert(v) {
                    stack.extend(&adj[v]);
                }
            }
            seen
        })
        .collect();
    let mut done: BTreeSet<usize> = BTreeSet::new();
    let mut out = Vec::new();
    for start in 0..n {
        if done.contains(&start) || !reach[start].contains(&start) {
            continue;
        }
        // `start` is the smallest node of its strongly connected component.
        let set: BTreeSet<usize> = reach[start]
            .iter()
            .copied()
            .filter(|&v| reach[v].contains(&start))
            .collect();
        done.extend(&set);
        // Walk a cycle inside the component from its smallest node.
        let mut path = vec![start];
        let mut seen = BTreeSet::from([start]);
        let mut cur = start;
        while let Some(&next) = adj[cur].iter().find(|m| set.contains(m)) {
            if next == start {
                break;
            }
            if !seen.insert(next) {
                // Trim the path to the repeated node to close the loop.
                let p = path.iter().position(|&x| x == next).expect("seen node");
                path.drain(..p);
                break;
            }
            path.push(next);
            cur = next;
        }
        out.push(path.into_iter().map(|i| locks[i].clone()).collect());
    }
    out
}

/// Render the lock graph as GraphViz DOT with acquiring-fn annotations.
fn render_dot(ws: &Workspace<'_>, cfg: &LintConfig, model: &LockModel) -> String {
    let mut out = String::new();
    out.push_str("// Static lock acquisition graph (xtask lock-order pass).\n");
    out.push_str("// Edge A -> B: lock B can be acquired while A is held.\n");
    let _ = writeln!(out, "// Scope: {}", cfg.lock_order_files.join(", "));
    // Which fns acquire each lock (directly), for the header comment.
    let mut acquirers: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for (fi, info) in model.info.iter().enumerate() {
        let Some(info) = info else { continue };
        for a in &info.acqs {
            let f = &ws.fns[fi];
            let label = match &f.impl_type {
                Some(t) => format!("{}::{}", t, f.name),
                None => f.name.clone(),
            };
            acquirers.entry(a.lock.as_str()).or_default().insert(label);
        }
    }
    for (lock, fns) in &acquirers {
        let _ = writeln!(
            out,
            "// {lock}: acquired by {}",
            fns.iter().cloned().collect::<Vec<_>>().join(", ")
        );
    }
    out.push_str(
        "digraph lock_order {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n",
    );
    for lock in &model.locks {
        let _ = writeln!(out, "  \"{lock}\";");
    }
    let mut seen: BTreeSet<(&str, &str)> = BTreeSet::new();
    for e in &model.edges {
        if !seen.insert((e.from.as_str(), e.to.as_str())) {
            continue;
        }
        let short = e.via.split(" → ").next().unwrap_or("").replace('`', "");
        let _ = writeln!(
            out,
            "  \"{}\" -> \"{}\" [label=\"{}\"];",
            e.from, e.to, short
        );
    }
    out.push_str("}\n");
    out
}
