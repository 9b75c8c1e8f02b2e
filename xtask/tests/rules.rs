//! Fixture-based self-tests for every lint rule.
//!
//! Each rule is run (via the real [`xtask::runner::run`] pipeline, with a
//! bespoke [`LintConfig`] pointing at `tests/fixtures/`) against
//!
//! * a **clean** fixture, which must produce no diagnostics,
//! * a **violating** fixture, asserted down to the exact rule id, line,
//!   and column.
//!
//! The fixtures directory is excluded from production lint runs by
//! `LintConfig::repo()`'s `skip_dir_names` ("fixtures"), so the
//! deliberately-violating files never fail the workspace lint.

use std::path::PathBuf;

use xtask::config::LintConfig;
use xtask::diag::{Diagnostic, Report, Severity};
use xtask::runner::{run, LintOptions};

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// A config wiring the fixture files into each rule's scope the same way
/// `LintConfig::repo()` wires the real modules.
fn fixture_cfg() -> LintConfig {
    LintConfig {
        facade_files: vec![
            "facade/clean.rs".into(),
            "facade/violation.rs".into(),
            "masking/strings.rs".into(),
        ],
        serving_files: vec![
            "panic/clean.rs".into(),
            "panic/violation.rs".into(),
            "masking/strings.rs".into(),
        ],
        conformance_dirs: vec!["conformance/".into(), "masking/".into()],
        shim_prefixes: vec![],
        skip_dir_names: vec![],
        lock_order_files: vec![
            "lockorder/clean.rs".into(),
            "lockorder/violation.rs".into(),
            "blocking/clean.rs".into(),
            "blocking/violation.rs".into(),
        ],
        worker_entry_fns: vec!["worker_main".into()],
        max_message_bits: 64,
    }
}

/// Full run over the fixture tree, all rules.
fn lint_all() -> Report {
    run(&fixture_root(), &fixture_cfg(), &LintOptions::default())
}

/// Focused run: one rule.
fn lint_rule(rule: &str) -> Report {
    run(
        &fixture_root(),
        &fixture_cfg(),
        &LintOptions {
            only_rule: Some(rule.into()),
        },
    )
}

fn errors_in<'a>(report: &'a Report, file: &str) -> Vec<&'a Diagnostic> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.file == file && d.severity == Severity::Error)
        .collect()
}

fn infos_in<'a>(report: &'a Report, file: &str) -> Vec<&'a Diagnostic> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.file == file && d.severity == Severity::Info)
        .collect()
}

#[test]
fn facade_clean_violating_waived() {
    let r = lint_rule("sync-facade");
    assert!(errors_in(&r, "facade/clean.rs").is_empty());

    let v = errors_in(&r, "facade/violation.rs");
    assert!(v.iter().all(|d| d.rule == "sync-facade"));
    let spans: Vec<(usize, usize)> = v.iter().map(|d| (d.line, d.col)).collect();
    assert_eq!(
        spans,
        vec![(2, 5), (3, 22), (3, 54), (14, 5), (17, 14), (17, 39)],
        "`std::sync::Mutex`; the renamed `Mutex` and `RwLock` of a grouped \
         import; `thread::spawn` and a renamed atomic module through a \
         multi-line import: {v:?}"
    );
    assert!(v[3].message.contains("std::thread::spawn"), "{v:?}");
    assert!(
        v[4].message.contains("std::sync::atomic::AtomicBool"),
        "{v:?}"
    );
}

#[test]
fn rule_filter_restricts_to_one_pass() {
    let r = lint_rule("sync-facade");
    assert!(r.diagnostics.iter().all(|d| d.rule == "sync-facade"));
}

#[test]
fn relaxed_clean_and_violating() {
    let r = lint_rule("relaxed-order");
    assert!(errors_in(&r, "relaxed/clean.rs").is_empty());

    let v = errors_in(&r, "relaxed/violation.rs");
    assert!(v.iter().all(|d| d.rule == "relaxed-order"));
    let spans: Vec<(usize, usize)> = v.iter().map(|d| (d.line, d.col)).collect();
    assert_eq!(
        spans,
        vec![(5, 30), (14, 12), (14, 33), (14, 51)],
        "`Ordering::Relaxed`, then a bare `Relaxed`, `O::Relaxed` and the \
         `Lax` rename, none covered by the marker on their import: {v:?}"
    );
}

#[test]
fn relaxed_marker_does_not_leak_past_its_statement() {
    // Regression for the annotation-leak: the marker on line 5 covers the
    // `a.fetch_add` statement (line 6) only — the adjacent, unrelated
    // `b.fetch_add` on line 7 must still be flagged.
    let r = lint_rule("relaxed-order");
    let v = errors_in(&r, "relaxed/leak.rs");
    assert_eq!(v.len(), 1, "exactly the uncovered second site: {v:?}");
    assert_eq!(v[0].line, 7);
}

#[test]
fn wallclock_clean_and_violating() {
    let r = lint_rule("wall-clock-sleep");
    assert!(errors_in(&r, "wallclock/clean.rs").is_empty());

    let v = errors_in(&r, "wallclock/violation.rs");
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].rule, "wall-clock-sleep");
    assert_eq!(v[0].line, 5);
}

#[test]
fn panic_surface_clean_violating_waived() {
    let r = lint_rule("panic-surface");
    assert!(
        errors_in(&r, "panic/clean.rs").is_empty(),
        "invariant-annotated and cfg(test) sites are not errors"
    );

    let v = errors_in(&r, "panic/violation.rs");
    assert_eq!(v.len(), 3, "bare assert! and two .unwrap()s: {v:?}");
    assert_eq!((v[0].line, v[0].col), (3, 5), "assert! span");
    assert_eq!(v[1].line, 4, ".unwrap() line");
    assert_eq!(
        (v[2].line, v[2].col),
        (12, 6),
        ".unwrap() straight after an identifier"
    );
    assert!(v.iter().all(|d| d.rule == "panic-surface"));
}

#[test]
fn panic_surface_inventories_slice_indexing_at_info() {
    let r = lint_rule("panic-surface");
    let inv = infos_in(&r, "panic/violation.rs");
    assert_eq!(inv.len(), 1, "one direct slice index: {inv:?}");
    assert_eq!(inv[0].line, 8, "`v[1]` in `second`");
    // Info never fails the build.
    let only_info = Report {
        diagnostics: inv.into_iter().cloned().collect(),
        files_scanned: 1,
        ..Report::default()
    };
    assert_eq!(only_info.error_count(), 0);
}

#[test]
fn conformance_flags_every_violation_class() {
    let r = lint_rule("congest-conformance");
    assert!(errors_in(&r, "conformance/clean.rs").is_empty());

    let v = errors_in(&r, "conformance/violation.rs");
    assert!(v.iter().all(|d| d.rule == "congest-conformance"));
    let reads: Vec<(usize, bool)> = v
        .iter()
        .map(|d| (d.line, d.message.contains("Instant::now")))
        .collect();
    assert_eq!(
        reads,
        vec![(5, true), (8, false), (9, false)],
        "`Instant::now` once, `SystemTime` on both lines that name it: {v:?}"
    );
}

#[test]
fn string_literals_and_doc_comments_are_invisible_to_every_pass() {
    // Regression for the scanner's literal/doc-comment blindness: the
    // masking fixture names every forbidden token inside strings and doc
    // comments (and a fake import inside a raw string) and is wired into
    // the facade, serving-path and protocol scopes — yet no pass may
    // produce any diagnostic, of any severity, for it.
    let r = lint_all();
    let all: Vec<&Diagnostic> = r
        .diagnostics
        .iter()
        .filter(|d| d.file == "masking/strings.rs")
        .collect();
    assert!(all.is_empty(), "no diagnostics expected: {all:?}");
}

#[test]
fn full_fixture_run_flags_exactly_the_violating_files() {
    let r = lint_all();
    let mut files: Vec<&str> = r
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.file.as_str())
        .collect();
    files.sort();
    files.dedup();
    assert_eq!(
        files,
        vec![
            "blocking/violation.rs",
            "conformance/violation.rs",
            "facade/violation.rs",
            "lockorder/violation.rs",
            "msgbits/violation.rs",
            "panic/violation.rs",
            "relaxed/leak.rs",
            "relaxed/violation.rs",
            "wallclock/violation.rs",
        ]
    );
}

#[test]
fn lock_order_clean_violating_waived() {
    let r = lint_rule("lock-order");
    assert!(errors_in(&r, "lockorder/clean.rs").is_empty());

    let v = errors_in(&r, "lockorder/violation.rs");
    assert_eq!(v.len(), 1, "one cycle diagnostic per SCC: {v:?}");
    assert_eq!(v[0].rule, "lock-order");
    assert_eq!(
        (v[0].line, v[0].col),
        (13, 14),
        "anchored at the lexically-first witness edge (`self.step2()` in `f1`)"
    );
    assert!(
        v[0].message.contains("A.l1 → A.l2 → A.l3 → A.l1"),
        "full cycle named: {}",
        v[0].message
    );
    assert!(
        v[0].message.contains("A::f1") && v[0].message.contains("A::step2"),
        "witness call chain spans both fns: {}",
        v[0].message
    );
}

#[test]
fn lock_graph_dot_is_always_rendered() {
    let r = lint_rule("lock-order");
    let dot = r.lock_graph_dot.as_deref().expect("DOT always produced");
    assert!(dot.contains("digraph lock_order"));
    assert!(
        dot.contains("\"A.l1\" -> \"A.l2\""),
        "edge set includes the fixture edges: {dot}"
    );
}

#[test]
fn message_bits_clean_violating_waived() {
    let r = lint_rule("message-bits");
    assert!(errors_in(&r, "msgbits/clean.rs").is_empty());
    let inv = infos_in(&r, "msgbits/clean.rs");
    assert_eq!(inv.len(), 2, "one inventory entry per impl: {inv:?}");

    let v = errors_in(&r, "msgbits/violation.rs");
    assert_eq!(v.len(), 2, "over-budget enum and Vec field: {v:?}");
    assert!(v.iter().all(|d| d.rule == "message-bits"));
    assert!(
        v.iter()
            .any(|d| d.line == 8 && d.message.contains("129 bits")),
        "BigMsg = 1 tag bit + [u64; 2]: {v:?}"
    );
    assert!(
        v.iter()
            .any(|d| d.line == 11 && d.message.contains("growable")),
        "Vec field rejected at its own line: {v:?}"
    );
}

#[test]
fn message_bits_inventory_lands_in_the_report() {
    let r = lint_rule("message-bits");
    let bits = |name: &str| {
        r.message_bits
            .iter()
            .find(|m| m.type_name == name)
            .map(|m| m.bits)
    };
    assert_eq!(bits("SmallMsg"), Some(49), "1 tag bit + u32 + u16");
    assert_eq!(bits("PairMsg"), Some(25), "u16 + Option<u8>");
    assert_eq!(
        bits("BigMsg"),
        Some(129),
        "over-budget widths still inventoried"
    );
    assert_eq!(
        bits("Vote"),
        Some(40),
        "conformance fixture type measured too"
    );
    assert_eq!(bits("VecMsg"), None, "unboundable types have no width");
}

#[test]
fn blocking_in_worker_clean_violating_waived() {
    let r = lint_rule("blocking-in-worker");
    assert!(
        errors_in(&r, "blocking/clean.rs").is_empty(),
        "a condvar wait on its own guard holds nothing"
    );

    let v = errors_in(&r, "blocking/violation.rs");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "blocking-in-worker");
    assert_eq!(
        (v[0].line, v[0].col),
        (12, 30),
        "anchored at the `.recv()` call"
    );
    assert!(
        v[0].message.contains("W.state") && v[0].message.contains("worker_main"),
        "names the pinned lock and the worker path: {}",
        v[0].message
    );
}

#[test]
fn production_config_skips_the_fixture_tree() {
    assert!(
        LintConfig::repo()
            .skip_dir_names
            .iter()
            .any(|n| n == "fixtures"),
        "fixtures must never be scanned by the workspace lint"
    );
}
