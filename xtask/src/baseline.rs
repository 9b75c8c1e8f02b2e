//! The inventory ratchet.
//!
//! Info diagnostics never fail the build, so on their own they could
//! creep upward unnoticed. The constants below pin the current
//! inventories — the slice-indexing panic-surface count and every
//! `impl Message` worst-case bit-width — and every full `xtask lint` run
//! compares against them:
//!
//! * any growth (more slice-index sites, a wider message, a new message
//!   type) is an **Error** whose message names the value to commit here;
//! * any shrink is a **Warning** naming the smaller value to commit, so
//!   an improvement is locked in rather than quietly regressing back.
//!
//! A refresh is therefore an edit to this file, reviewed like any other.

use crate::diag::{Diagnostic, Report, Severity};

/// Rule id used for ratchet findings.
pub const ID: &str = "ratchet";

/// Where the pinned values live; ratchet findings point here.
const PINNED_IN: &str = "xtask/src/baseline.rs";

/// Direct slice-index sites in the serving-path modules.
pub const SLICE_INDEX_SITES: usize = 54;

/// Worst-case payload width, in bits, of every `impl Message` type.
pub const MESSAGE_BITS: &[(&str, u64)] = &[
    ("()", 1),
    ("DoublingMsg", 131),
    ("KvyMsg", 130),
    ("MatchMsg", 2),
    ("MwhvcMsg", 164),
    ("bool", 1),
    ("u32", 32),
    ("u64", 64),
];

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

/// Compare a full run's inventories against the pinned values.
pub fn check(report: &Report) -> Vec<Diagnostic> {
    check_against(report, SLICE_INDEX_SITES, MESSAGE_BITS)
}

/// Compare `report` against explicit pinned values.
pub fn check_against(report: &Report, slices: usize, widths: &[(&str, u64)]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut diag = |sev: Severity, msg: String| {
        out.push(Diagnostic::new(ID, sev, PINNED_IN, 1, 1, msg, ""));
    };
    let cur = slice_index_count(report);
    if cur > slices {
        diag(
            Severity::Error,
            format!(
                "slice-index inventory grew to {cur} sites (pinned: {slices}) — convert the \
                 new sites to checked access, or justify them and commit \
                 `SLICE_INDEX_SITES = {cur}`"
            ),
        );
    } else if cur < slices {
        diag(
            Severity::Warning,
            format!(
                "slice-index inventory shrank to {cur} sites (pinned: {slices}) — commit \
                 `SLICE_INDEX_SITES = {cur}` to lock in the improvement"
            ),
        );
    }
    for m in &report.message_bits {
        let (name, bits) = (&m.type_name, m.bits);
        match widths.iter().find(|(n, _)| n == name) {
            None => diag(
                Severity::Error,
                format!(
                    "new Message type `{name}` ({bits} bits) — review its width, then add \
                     `(\"{name}\", {bits})` to MESSAGE_BITS"
                ),
            ),
            Some(&(_, b)) if bits > b => diag(
                Severity::Error,
                format!(
                    "`{name}` widened to {bits} bits (pinned: {b}) — shrink the payload, or \
                     justify it and commit `(\"{name}\", {bits})`"
                ),
            ),
            Some(&(_, b)) if bits < b => diag(
                Severity::Warning,
                format!("`{name}` narrowed to {bits} bits (pinned: {b}) — commit `(\"{name}\", {bits})`"),
            ),
            _ => {}
        }
    }
    for (name, _) in widths {
        if !report.message_bits.iter().any(|m| m.type_name == *name) {
            diag(
                Severity::Warning,
                format!(
                    "pinned Message type `{name}` no longer exists — remove it from MESSAGE_BITS"
                ),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{MessageWidth, Report};

    fn report(slices: usize, widths: &[(&str, u64)]) -> Report {
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
        for (name, bits) in widths {
            r.message_bits.push(MessageWidth {
                type_name: (*name).to_owned(),
                bits: *bits,
            });
        }
        r
    }

    #[test]
    fn unchanged_inventories_are_silent() {
        let pinned = [("MsgA", 42), ("MsgB", 7)];
        assert!(check_against(&report(3, &pinned), 3, &pinned).is_empty());
    }

    #[test]
    fn growth_is_an_error_shrink_a_warning() {
        let pinned = [("MsgA", 42)];
        let d = check_against(&report(4, &[("MsgA", 48)]), 3, &pinned);
        assert_eq!(
            d.iter().filter(|x| x.severity == Severity::Error).count(),
            2,
            "slice growth and width growth: {d:?}"
        );
        assert!(
            d.iter()
                .any(|x| x.message.contains("SLICE_INDEX_SITES = 4")),
            "names the value to commit: {d:?}"
        );
        let d = check_against(&report(2, &[("MsgA", 40)]), 3, &pinned);
        assert!(d.iter().all(|x| x.severity == Severity::Warning), "{d:?}");
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn new_and_stale_types_are_flagged() {
        let d = check_against(&report(0, &[("Fresh", 8)]), 0, &[("Gone", 8)]);
        assert!(d
            .iter()
            .any(|x| x.severity == Severity::Error && x.message.contains("Fresh")));
        assert!(d
            .iter()
            .any(|x| x.severity == Severity::Warning && x.message.contains("Gone")));
    }
}
