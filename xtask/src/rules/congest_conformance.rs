//! `congest-conformance`: protocol code reads no clock.
//!
//! The paper's bounds are proved in the CONGEST model, where the round
//! count is the only clock a protocol has. A wall-clock read
//! (`Instant::now`, `SystemTime`) in a protocol implementation would make
//! its behaviour depend on scheduling, so this pass bans both in the
//! configured protocol dirs (`crates/core/src/protocol/`,
//! `crates/baselines/src/`), test code excepted. Clippy's
//! `disallowed-methods` has no per-directory scope, which is why this
//! check stays here.
//!
//! The rest of the model contract is checked elsewhere: hash collections
//! by `clippy.toml`, `static mut` by the `unsafe_code` lint (every access
//! needs `unsafe`), and unbounded payloads by the `Message: Copy` bound.

use crate::config::LintConfig;
use crate::diag::{Diagnostic, Severity};
use crate::scan::SourceFile;

pub(super) const ID: &str = "congest-conformance";

const WALL_CLOCK: &[&str] = &["Instant::now", "SystemTime"];

pub(super) fn check(sf: &SourceFile, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    if !LintConfig::in_dirs(&cfg.conformance_dirs, &sf.rel) {
        return;
    }
    for (i, code) in sf.masked.iter().enumerate() {
        if sf.test_lines[i] {
            continue;
        }
        for pat in WALL_CLOCK {
            if let Some(at) = code.find(pat) {
                out.push(Diagnostic::new(
                    ID,
                    Severity::Error,
                    &sf.rel,
                    i + 1,
                    at + 1,
                    format!(
                        "wall-clock read `{pat}` in protocol code: rounds are the only clock \
                         in the CONGEST model"
                    ),
                    &sf.lines[i],
                ));
            }
        }
    }
}
