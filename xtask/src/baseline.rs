//! The inventory ratchet.
//!
//! Info diagnostics never fail the build, so on their own they could
//! creep upward unnoticed. The constant below pins the current
//! slice-indexing panic-surface inventory, and every full `xtask lint`
//! run compares against it:
//!
//! * growth (more slice-index sites) is an **Error** whose message names
//!   the value to commit here;
//! * a shrink is a **Warning** naming the smaller value to commit, so an
//!   improvement is locked in rather than quietly regressing back.
//!
//! A refresh is therefore an edit to this file, reviewed like any other.

use crate::diag::{Diagnostic, Report, Severity};

/// Rule id used for ratchet findings.
pub const ID: &str = "ratchet";

/// Where the pinned values live; ratchet findings point here.
const PINNED_IN: &str = "xtask/src/baseline.rs";

/// Direct slice-index sites in the serving-path modules.
pub const SLICE_INDEX_SITES: usize = 44;

/// Count of slice-indexing inventory entries in a report.
pub fn slice_index_count(report: &Report) -> usize {
    report
        .diagnostics
        .iter()
        .filter(|d| {
            d.rule == "panic-surface"
                && d.severity == Severity::Info
                && d.message.starts_with("direct slice index")
        })
        .count()
}

/// Compare a full run's inventory against the pinned value.
pub fn check(report: &Report) -> Vec<Diagnostic> {
    check_against(report, SLICE_INDEX_SITES)
}

/// Compare `report` against an explicit pinned value.
pub fn check_against(report: &Report, slices: usize) -> Vec<Diagnostic> {
    let cur = slice_index_count(report);
    let (severity, message) = if cur > slices {
        (
            Severity::Error,
            format!(
                "slice-index inventory grew to {cur} sites (pinned: {slices}) — convert the \
                 new sites to checked access, or justify them and commit \
                 `SLICE_INDEX_SITES = {cur}`"
            ),
        )
    } else if cur < slices {
        (
            Severity::Warning,
            format!(
                "slice-index inventory shrank to {cur} sites (pinned: {slices}) — commit \
                 `SLICE_INDEX_SITES = {cur}` to lock in the improvement"
            ),
        )
    } else {
        return Vec::new();
    };
    vec![Diagnostic::new(ID, severity, PINNED_IN, 1, 1, message, "")]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(slices: usize) -> Report {
        let mut r = Report::default();
        for i in 0..slices {
            r.diagnostics.push(Diagnostic::new(
                "panic-surface",
                Severity::Info,
                "f.rs",
                i + 1,
                1,
                "direct slice index (inventory: panics on out-of-bounds)".into(),
                "v[0]",
            ));
        }
        r
    }

    #[test]
    fn unchanged_inventories_are_silent() {
        assert!(check_against(&report(3), 3).is_empty());
    }

    #[test]
    fn growth_is_an_error_shrink_a_warning() {
        let d = check_against(&report(4), 3);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].severity, Severity::Error, "slice growth: {d:?}");
        assert!(
            d[0].message.contains("SLICE_INDEX_SITES = 4"),
            "names the value to commit: {d:?}"
        );
        let d = check_against(&report(2), 3);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].severity, Severity::Warning, "{d:?}");
    }
}
