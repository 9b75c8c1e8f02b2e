//! `wall-clock-sleep`: every `thread::sleep` must carry a scoped
//! `// wall-clock: <why>` justification. Sleeps may model wall-clock time
//! (deadline expiry, pacing); they must never act as synchronization —
//! that is what the condvar Gate is for, and sleep-as-sync is exactly the
//! class of bug the conccheck explorer cannot see.

use crate::config::LintConfig;
use crate::diag::{Diagnostic, Severity};
use crate::scan::{marker_coverage, SourceFile};

pub(super) const ID: &str = "wall-clock-sleep";

pub(super) fn check(sf: &SourceFile, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    if cfg.is_shim(&sf.rel) {
        return;
    }
    let justified = marker_coverage(sf, "wall-clock:");
    for (i, code) in sf.masked.iter().enumerate() {
        // Also matches `thread::sleep_ms` and any `…thread::sleep` path.
        for (at, _) in code.match_indices("thread::sleep") {
            if justified[i] {
                continue;
            }
            out.push(Diagnostic::new(
                ID,
                Severity::Error,
                &sf.rel,
                i + 1,
                at + 1,
                "thread::sleep without `// wall-clock: <why>` (use the condvar Gate for \
                 synchronization)"
                    .into(),
                &sf.lines[i],
            ));
        }
    }
}
