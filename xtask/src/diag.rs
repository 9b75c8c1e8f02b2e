//! Diagnostics: spans, severities, stable rule ids, human output.

use std::fmt::Write as _;

/// How a diagnostic affects the lint exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Inventory only — printed with `--verbose`, never fails the build
    /// (growth is caught by the ratchet in [`crate::baseline`]). Used for
    /// the slice-indexing inventory.
    Info,
    /// Should be fixed but does not fail the build.
    Warning,
    /// Fails the build.
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding, anchored to a `file:line:col` span.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable rule id (see [`crate::rules`]).
    pub rule: &'static str,
    pub severity: Severity,
    /// Repo-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based character column.
    pub col: usize,
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl Diagnostic {
    pub fn new(
        rule: &'static str,
        severity: Severity,
        file: &str,
        line: usize,
        col: usize,
        message: String,
        snippet: &str,
    ) -> Self {
        Diagnostic {
            rule,
            severity,
            file: file.to_owned(),
            line,
            col,
            message,
            snippet: snippet.trim().to_owned(),
        }
    }

    pub fn render(&self) -> String {
        format!(
            "{}: {}:{}:{}: [{}] {}\n    | {}",
            self.severity.as_str(),
            self.file,
            self.line,
            self.col,
            self.rule,
            self.message,
            self.snippet
        )
    }
}

/// Aggregate result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    pub files_scanned: usize,
}

impl Report {
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Sort for stable output: file, line, col, rule.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
        });
    }

    /// Human-readable rendering. `verbose` includes Info-severity
    /// inventory entries; otherwise only warnings and errors print.
    pub fn render_human(&self, verbose: bool) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            if d.severity == Severity::Info && !verbose {
                continue;
            }
            let _ = writeln!(out, "{}", d.render());
        }
        let _ = writeln!(
            out,
            "xtask lint: {} files scanned, {} error(s), {} warning(s), {} inventory entr{}",
            self.files_scanned,
            self.error_count(),
            self.count(Severity::Warning),
            self.count(Severity::Info),
            if self.count(Severity::Info) == 1 {
                "y"
            } else {
                "ies"
            },
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_sort() {
        let mut r = Report::default();
        r.diagnostics.push(Diagnostic::new(
            "b-rule",
            Severity::Error,
            "z.rs",
            2,
            1,
            "m".into(),
            "s",
        ));
        r.diagnostics.push(Diagnostic::new(
            "a-rule",
            Severity::Info,
            "a.rs",
            1,
            1,
            "m".into(),
            "s",
        ));
        r.sort();
        assert_eq!(r.diagnostics[0].file, "a.rs");
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.count(Severity::Info), 1);
    }
}
