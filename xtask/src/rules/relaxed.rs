//! `relaxed-order`: every `Relaxed` ordering must carry a scoped
//! `// relaxed: <why>` justification. Relaxed atomics are correct only
//! under an argument about what orderings the surrounding code does *not*
//! need; that argument belongs next to the site (see CONCURRENCY.md's
//! relaxed audit). The marker covers exactly the statement cluster it
//! heads — see [`crate::scan::marker_reach`].
//!
//! The pass matches the `Relaxed` token, plus any name it is imported
//! under, so `Ordering::Relaxed`, `O::Relaxed` through an alias and a
//! bare `Relaxed` after `use …::Ordering::Relaxed` are all sites. The
//! `use` line itself is not a site: an import orders nothing.

use crate::config::LintConfig;
use crate::diag::{Diagnostic, Severity};
use crate::rules::uses;
use crate::scan::{find_tokens, marker_coverage, SourceFile};

pub(super) const ID: &str = "relaxed-order";

/// The conccheck crate implements the interposition layer itself: it maps
/// every ordering to SeqCst by design and documents that, so per-site
/// justifications there would be noise.
const EXEMPT_PREFIX: &str = "crates/conccheck/";

pub(super) fn check(sf: &SourceFile, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    if cfg.is_shim(&sf.rel) || sf.rel.starts_with(EXEMPT_PREFIX) {
        return;
    }
    let uses = uses(sf);
    let mut names = vec!["Relaxed"];
    for leaf in &uses.leaves {
        if leaf.path.ends_with("Ordering::Relaxed") && !names.contains(&leaf.local.as_str()) {
            names.push(&leaf.local);
        }
    }
    let justified = marker_coverage(sf, "relaxed:");
    for (i, code) in sf.masked.iter().enumerate() {
        if uses.lines[i] || justified[i] {
            continue;
        }
        for name in &names {
            for at in find_tokens(code, name) {
                out.push(Diagnostic::new(
                    ID,
                    Severity::Error,
                    &sf.rel,
                    i + 1,
                    at + 1,
                    "un-justified Relaxed ordering: head the statement with `// relaxed: <why>`"
                        .into(),
                    &sf.lines[i],
                ));
            }
        }
    }
}
