//! `panic-surface`: the serving path must not grow new unexamined panic
//! sites. A panic in a worker fails a ticket (by design), but a panic
//! while holding the queue mutex poisons every waiter, and a panic in the
//! scheduler thread kills the service — so every potentially-panicking
//! construct in a serving-path module must either
//!
//! * carry a scoped `// invariant: <why this cannot fire>` justification
//!   (for true invariants: a slot filled exactly once, a chunk returned to
//!   its home index, a lock whose poisoning implies a prior panic), or
//! * be converted to a typed error (`SimError`/`SolveError`/`SubmitError`)
//!   when it can fire on user input or queue state.
//!
//! Detected: `.unwrap()`, `.expect(`, `panic!`, `unreachable!`, `todo!`,
//! `unimplemented!`, `assert!`, `assert_eq!`, `assert_ne!`
//! (`debug_assert*` is exempt: compiled out of release serving builds).
//! Direct slice indexing (`buf[i]`) is *inventoried* at Info severity —
//! printed with `--verbose`, never failing the build on its own — because
//! the flat-arena engine indexes by construction-validated position tables
//! and annotating each of dozens of sites would bury the signal. The
//! ratchet in [`crate::baseline`] fails the build when the count grows.
//!
//! Test code (`#[cfg(test)]`-gated items) is out of scope: tests are not
//! the serving path and panics are their failure mechanism.

use crate::config::LintConfig;
use crate::diag::{Diagnostic, Severity};
use crate::scan::{find_tokens, marker_coverage, SourceFile};

pub(super) const ID: &str = "panic-surface";

/// (pattern, token-delimited?) — token-delimited patterns use
/// [`find_tokens`] so `assert!` never matches inside `debug_assert!`.
const PANIC_MACROS: &[&str] = &[
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
    "assert!",
    "assert_eq!",
    "assert_ne!",
];

pub(super) fn check(sf: &SourceFile, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    if !cfg.serving_files.iter().any(|f| f == &sf.rel) {
        return;
    }
    let justified = marker_coverage(sf, "invariant:");
    for (i, code) in sf.masked.iter().enumerate() {
        if sf.test_lines[i] {
            continue;
        }
        // A method call follows any receiver (`x.unwrap()`,
        // `f().unwrap()`), so there is no left boundary to check.
        let mut sites: Vec<(usize, String)> = Vec::new();
        for (at, _) in code.match_indices(".unwrap()") {
            sites.push((at, ".unwrap()".into()));
        }
        for (at, _) in code.match_indices(".expect(") {
            sites.push((at, ".expect(…)".into()));
        }
        for pat in PANIC_MACROS {
            // `assert!` must be its own token: `debug_assert!` has an
            // identifier char before `assert`.
            let hits = find_tokens(code, &pat[..pat.len() - 1]);
            for at in hits {
                if code[at + pat.len() - 1..].starts_with('!') {
                    sites.push((at, (*pat).into()));
                }
            }
        }
        for (at, what) in sites {
            if justified[i] {
                continue;
            }
            out.push(Diagnostic::new(
                ID,
                Severity::Error,
                &sf.rel,
                i + 1,
                at + 1,
                format!(
                    "serving-path panic site `{what}`: justify with `// invariant: <why>` \
                     or convert to a typed error"
                ),
                &sf.lines[i],
            ));
        }
        // Slice-indexing inventory (Info): `[` whose previous non-space
        // character closes an expression (identifier, `)`, or `]`).
        for (at, _) in code.char_indices().filter(|&(_, c)| c == '[') {
            let prev = code[..at].trim_end().chars().next_back();
            let indexing =
                prev.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == ')' || c == ']');
            if indexing {
                out.push(Diagnostic::new(
                    ID,
                    Severity::Info,
                    &sf.rel,
                    i + 1,
                    at + 1,
                    "direct slice index (inventory: panics on out-of-bounds)".into(),
                    &sf.lines[i],
                ));
            }
        }
    }
}
