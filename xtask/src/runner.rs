//! Lint orchestration: collect files, parse, collect waivers, run passes.
//!
//! Two phases. First, every `.rs` file is read, classified, and run
//! through the per-file rules. Then the parsed set is assembled into a
//! [`Workspace`] symbol table and the global
//! (cross-function) rules run over it. Waiver use is tracked across both
//! phases, so `waiver-unused` — emitted last — only fires for waivers
//! that suppressed nothing anywhere.

use std::path::{Path, PathBuf};

use crate::config::LintConfig;
use crate::diag::{Report, Severity};
use crate::rules;
use crate::scan::SourceFile;
use crate::sym::{ParsedFile, Workspace};
use crate::waiver;

/// Options for one lint run.
#[derive(Debug, Default)]
pub struct LintOptions {
    /// Restrict to one rule id (plus waiver-syntax checking, which always
    /// runs — a broken waiver must never silently mask a real finding).
    /// Focused runs skip `waiver-unused`: with most passes disabled, a
    /// waiver's lack of suppressions proves nothing.
    pub only_rule: Option<String>,
}

/// Run every pass over all `.rs` files under `root`. Files are scanned
/// once; each pass sees the same classified view.
pub fn run(root: &Path, cfg: &LintConfig, opts: &LintOptions) -> Report {
    let mut files = Vec::new();
    collect_rs_files(root, root, cfg, &mut files);
    files.sort();

    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    let all_rules = rules::all();
    let known = rules::known_ids();

    // Phase 1: parse everything, run the per-file rules.
    let mut parsed: Vec<ParsedFile> = Vec::with_capacity(files.len());
    for rel in &files {
        let path = root.join(rel);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                report.diagnostics.push(crate::diag::Diagnostic::new(
                    "io",
                    Severity::Error,
                    rel,
                    1,
                    1,
                    format!("unreadable: {e}"),
                    "",
                ));
                continue;
            }
        };
        let sf = SourceFile::parse(rel, &text);
        let waivers = waiver::collect(&sf, &known, &mut report.diagnostics);
        for rule in &all_rules {
            if let Some(only) = &opts.only_rule {
                if rule.id != only {
                    continue;
                }
            }
            (rule.check)(&sf, cfg, &waivers, &mut report.diagnostics);
        }
        parsed.push(ParsedFile { sf, waivers });
    }

    // Phase 2: whole-workspace symbol table, global rules.
    let ws = Workspace::build(&parsed);
    for rule in rules::all_global() {
        if let Some(only) = &opts.only_rule {
            if rule.id != only {
                continue;
            }
        }
        (rule.check)(&ws, cfg, &mut report);
    }

    // Meta-pass: waivers that suppressed nothing across all passes.
    if opts.only_rule.is_none() {
        for pf in &parsed {
            for decl in pf.waivers.unused() {
                report.diagnostics.push(crate::diag::Diagnostic::new(
                    "waiver-unused",
                    Severity::Warning,
                    &pf.sf.rel,
                    decl.line + 1,
                    decl.col,
                    "waiver suppresses no diagnostic — remove it (stale allows hide real findings)"
                        .into(),
                    &decl.snippet,
                ));
            }
        }
    }
    report.sort();
    report
}

/// Recursively collect `.rs` files, skipping configured directory names
/// and hidden directories. Paths are repo-relative with forward slashes.
fn collect_rs_files(root: &Path, dir: &Path, cfg: &LintConfig, out: &mut Vec<String>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    let mut entries: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            continue;
        };
        if path.is_dir() {
            if cfg.skip_dir_names.contains(&name) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, cfg, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}
