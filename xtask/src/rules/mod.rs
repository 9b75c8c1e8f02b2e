//! The rule registry: five per-file passes over classified source files.
//!
//! Every rule has a stable kebab-case id, used in diagnostics and for
//! `--rule` filtering, and sees one classified file at a time through the
//! masked (code-only) view, so tokens inside strings and comments can
//! never trigger it.
//!
//! Checks that rustc or clippy make with the same verdicts (`unsafe`,
//! hash collections, suppression hygiene) live in the workspace lints
//! table and `clippy.toml` instead; lock discipline and message widths
//! are checked by the code they guard (the `dcover_congest::sync` facade
//! and the `Message` trait). See `ANALYSIS.md` at the repo root for the
//! full catalog.

mod congest_conformance;
mod facade;
mod panic_surface;
mod relaxed;
mod wallclock;

use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::scan::{find_tokens, split_top_commas, SourceFile};

pub type FileCheck = fn(&SourceFile, &LintConfig, &mut Vec<Diagnostic>);

/// The per-file passes, in execution order: `(id, check)`.
pub const PER_FILE: &[(&str, FileCheck)] = &[
    (facade::ID, facade::check),
    (relaxed::ID, relaxed::check),
    (wallclock::ID, wallclock::check),
    (panic_surface::ID, panic_surface::check),
    (congest_conformance::ID, congest_conformance::check),
];

/// Every rule id, for `--rule` validation.
pub fn known_ids() -> Vec<&'static str> {
    PER_FILE.iter().map(|r| r.0).collect()
}

/// One name a `use` declaration binds in a file.
pub(crate) struct UseLeaf {
    /// Full path, with `core::` read as `std::` (`std::sync::Mutex`).
    pub path: String,
    /// The name it is bound to (`RawMutex` for `Mutex as RawMutex`).
    pub local: String,
    /// 0-based line and byte column of the leaf as written (`Mutex` in
    /// `use std::sync::{Arc, Mutex}`, `std` in `use std::sync::Mutex`).
    pub line: usize,
    pub col: usize,
}

/// The `use` declarations of a file.
pub(crate) struct Uses {
    /// `true` for every line a `use` declaration spans.
    pub lines: Vec<bool>,
    pub leaves: Vec<UseLeaf>,
}

/// Flatten every `use` declaration of `sf` (grouped, nested, renamed,
/// multi-line) into its leaves, so a pass can see a name however it was
/// imported.
pub(crate) fn uses(sf: &SourceFile) -> Uses {
    let n = sf.masked.len();
    let mut lines = vec![false; n];
    let mut leaves = Vec::new();
    let mut i = 0;
    while i < n {
        let Some(body) = use_body(&sf.masked[i]) else {
            i += 1;
            continue;
        };
        let start = i;
        let mut text = body.to_owned();
        while !text.contains(';') && i + 1 < n {
            i += 1;
            text.push(' ');
            text.push_str(&sf.masked[i]);
        }
        lines[start..=i].iter_mut().for_each(|l| *l = true);
        let mut flat = Vec::new();
        expand("", text.split(';').next().unwrap_or(""), &mut flat);
        for (path, local, written) in flat {
            let (line, col) = (start..i + 1)
                .find_map(|l| {
                    find_tokens(&sf.masked[l], &written)
                        .first()
                        .map(|&c| (l, c))
                })
                .unwrap_or((start, 0));
            leaves.push(UseLeaf {
                path,
                local,
                line,
                col,
            });
        }
        i += 1;
    }
    Uses { lines, leaves }
}

/// The use tree after `use` (with any visibility) on a line that starts
/// a `use` declaration.
fn use_body(code: &str) -> Option<&str> {
    let mut rest = code.trim_start();
    if let Some(r) = rest.strip_prefix("pub") {
        rest = r.trim_start();
        if rest.starts_with('(') {
            rest = rest[rest.find(')')? + 1..].trim_start();
        }
    }
    rest.strip_prefix("use ")
}

/// Flatten a use tree into `(full path, local name, leaf as written)`.
fn expand(prefix: &str, tree: &str, out: &mut Vec<(String, String, String)>) {
    let tree = tree.trim();
    if let Some(open) = tree.find('{') {
        let base = format!("{prefix}{}", tree[..open].trim());
        let inner = tree[open + 1..].trim_end();
        for item in split_top_commas(inner.strip_suffix('}').unwrap_or(inner)) {
            expand(&base, &item, out);
        }
        return;
    }
    let words: Vec<&str> = tree.split_whitespace().collect();
    let (name, alias) = match words[..] {
        [name] => (name, None),
        [name, "as", alias] => (name, Some(alias)),
        _ => return,
    };
    if name.ends_with('*') {
        return;
    }
    let full = if name == "self" {
        prefix.trim_end_matches("::").to_owned()
    } else {
        format!("{prefix}{name}")
    };
    let full = normalize(&full);
    let last = full.rsplit("::").next().unwrap_or("").to_owned();
    out.push((full, alias.map_or(last, str::to_owned), name.to_owned()));
}

/// Drop a leading `::` and read `core::` as `std::`.
pub(crate) fn normalize(path: &str) -> String {
    let p = path.trim_start_matches("::");
    match p.strip_prefix("core::") {
        Some(rest) => format!("std::{rest}"),
        None => p.to_owned(),
    }
}

/// Multi-segment paths (`a::b::c`) in a masked code line, with the byte
/// offset of their first segment.
pub(crate) fn paths(code: &str) -> Vec<(usize, String)> {
    let b = code.as_bytes();
    let is_id = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if !is_id(b[i]) || (i > 0 && is_id(b[i - 1])) {
            i += 1;
            continue;
        }
        let mut end = i;
        loop {
            while end < b.len() && is_id(b[end]) {
                end += 1;
            }
            if code[end..].starts_with("::") && b.get(end + 2).is_some_and(|&c| is_id(c)) {
                end += 2;
            } else {
                break;
            }
        }
        if code[i..end].contains("::") {
            out.push((i, code[i..end].to_owned()));
        }
        i = end;
    }
    out
}
