//! Lint orchestration: collect files, parse, run passes.
//!
//! Two phases. First, every `.rs` file is read, classified, and run
//! through the per-file rules. Then the parsed set is assembled into a
//! [`Workspace`] symbol table and the global (cross-function) rules run
//! over it.

use std::path::{Path, PathBuf};

use crate::config::LintConfig;
use crate::diag::{Report, Severity};
use crate::rules;
use crate::scan::SourceFile;
use crate::sym::Workspace;

/// Options for one lint run.
#[derive(Debug, Default)]
pub struct LintOptions {
    /// Restrict to one rule id.
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
    let selected = |id: &str| opts.only_rule.as_deref().is_none_or(|only| only == id);

    // Phase 1: parse everything, run the per-file rules.
    let mut parsed: Vec<SourceFile> = Vec::with_capacity(files.len());
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
        for (_, check) in rules::PER_FILE.iter().filter(|r| selected(r.0)) {
            check(&sf, cfg, &mut report.diagnostics);
        }
        parsed.push(sf);
    }

    // Phase 2: whole-workspace symbol table, global rules.
    let ws = Workspace::build(&parsed);
    for (_, check) in rules::GLOBAL.iter().filter(|r| selected(r.0)) {
        check(&ws, cfg, &mut report);
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
