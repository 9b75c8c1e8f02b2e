//! `message-bits`: every `impl Message` type gets a computed worst-case
//! payload bit-width, enforced against the CONGEST budget.
//!
//! Ben-Basat et al. prove their covering bounds in the CONGEST model,
//! where each message carries O(log n) bits. The runtime `BitBudget`
//! charges actual encodings; this pass is the static side: it computes,
//! from field types alone, the widest message each `impl Message` type
//! can ever produce, and fails the build when that exceeds
//! [`LintConfig::max_message_bits`].
//!
//! Width rules (documented in ANALYSIS.md):
//!
//! * fixed-width ints and floats by their bit count (`u32` → 32, …);
//!   `bool` and `()` → 1 (matching the runtime encodings);
//!   `char` → 32; `usize`/`isize` are **rejected** (platform-dependent);
//! * `Option<T>` → 1 + width(T); `[T; N]` → N·width(T); tuples sum;
//!   `PhantomData<…>` → 0;
//! * structs sum their fields; enums pay ⌈log₂ #variants⌉ tag bits plus
//!   their widest variant (discriminant + max-variant — the same shape
//!   the runtime encoders use);
//! * growable containers (`Vec`, `VecDeque`, `String`, `Box`, `BTreeMap`,
//!   `BTreeSet`, `HashMap`, `HashSet`, references, `Rc`/`Arc`/`Cow`) are
//!   rejected outright: they have no a-priori bound.
//!
//! Every successfully-computed width is emitted as an Info inventory
//! entry and recorded in [`Report::message_bits`], which the ratchet in
//! [`crate::baseline`] pins.

use crate::config::LintConfig;
use crate::diag::{Diagnostic, MessageWidth, Report, Severity};
use crate::sym::{split_top_commas, strip_generics, TypeDef, TypeKind, Workspace};

pub const ID: &str = "message-bits";

/// Rejection: message text plus an optional (file, 0-based line) anchor
/// for the offending field.
type WidthErr = (String, Option<(usize, usize)>);

pub fn check(ws: &Workspace<'_>, cfg: &LintConfig, report: &mut Report) {
    for imp in &ws.impls {
        if imp.trait_name.as_deref() != Some("Message") || imp.test {
            continue;
        }
        let sf = &ws.files[imp.file];
        let rel = &sf.rel;
        if cfg.is_shim(rel) || rel.contains("/tests/") {
            continue;
        }
        let snippet = sf.lines.get(imp.line).map(String::as_str).unwrap_or("");
        let mut stack = Vec::new();
        match width_of(ws, &imp.type_name, imp.file, &mut stack) {
            Ok(bits) => {
                report.message_bits.push(MessageWidth {
                    type_name: imp.type_name.clone(),
                    bits,
                });
                let (name, budget) = (&imp.type_name, cfg.max_message_bits);
                let (severity, message) = if bits > budget {
                    let why = format!(
                        "`{name}` worst-case payload is {bits} bits, over the CONGEST budget \
                         of {budget} (`max_message_bits`)"
                    );
                    (Severity::Error, why)
                } else {
                    let inv = format!("`{name}` worst-case payload: {bits} bits (budget {budget})");
                    (Severity::Info, inv)
                };
                report.diagnostics.push(Diagnostic::new(
                    ID,
                    severity,
                    rel,
                    imp.line + 1,
                    1,
                    message,
                    snippet,
                ));
            }
            Err((why, at)) => {
                let (efile, eline) = at.unwrap_or((imp.file, imp.line));
                let esf = &ws.files[efile];
                report.diagnostics.push(Diagnostic::new(
                    ID,
                    Severity::Error,
                    &esf.rel,
                    eline + 1,
                    1,
                    format!(
                        "cannot bound `{}` for the CONGEST budget: {why}",
                        imp.type_name
                    ),
                    esf.lines.get(eline).map(String::as_str).unwrap_or(""),
                ));
            }
        }
    }
    report
        .message_bits
        .sort_by(|a, b| a.type_name.cmp(&b.type_name));
}

/// Tag bits for an `n`-variant enum: ⌈log₂ n⌉ (0 for ≤ 1 variant).
fn tag_bits(n: u64) -> u64 {
    if n <= 1 {
        0
    } else {
        64 - (n - 1).leading_zeros() as u64
    }
}

const UNBOUNDED: &[&str] = &[
    "Vec", "VecDeque", "String", "Box", "BTreeMap", "BTreeSet", "HashMap", "HashSet", "Rc", "Arc",
    "Cow", "str",
];

/// Worst-case width of a type expression, in bits.
fn width_of(
    ws: &Workspace<'_>,
    ty: &str,
    prefer_file: usize,
    stack: &mut Vec<String>,
) -> Result<u64, WidthErr> {
    let t = ty.trim();
    if t.starts_with('&') {
        return Err((format!("reference type `{t}` has no owned bit-width"), None));
    }
    // Tuples: `(A, B, …)`; `()` is the unit message (1 bit at runtime).
    if let Some(inner) = t.strip_prefix('(').and_then(|r| r.strip_suffix(')')) {
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(1);
        }
        let mut sum = 0u64;
        for part in split_top_commas(inner) {
            sum += width_of(ws, part.trim(), prefer_file, stack)?;
        }
        return Ok(sum);
    }
    // Arrays: `[T; N]`.
    if let Some(inner) = t.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
        let Some((elem, count)) = inner.rsplit_once(';') else {
            return Err((format!("slice type `{t}` is unbounded"), None));
        };
        let n: u64 = count
            .trim()
            .parse()
            .map_err(|_| (format!("non-literal array length in `{t}`"), None))?;
        return Ok(n * width_of(ws, elem.trim(), prefer_file, stack)?);
    }
    let head = strip_generics(t);
    match head.as_str() {
        "bool" | "u8" | "i8" => return Ok(if head == "bool" { 1 } else { 8 }),
        "u16" | "i16" => return Ok(16),
        "u32" | "i32" | "f32" | "char" => return Ok(32),
        "u64" | "i64" | "f64" => return Ok(64),
        "u128" | "i128" => return Ok(128),
        "usize" | "isize" => {
            return Err((
                format!("`{head}` is platform-dependent; use a fixed-width int"),
                None,
            ))
        }
        "PhantomData" => return Ok(0),
        "Option" => {
            let inner = generic_arg(t).ok_or_else(|| (format!("malformed `{t}`"), None))?;
            return Ok(1 + width_of(ws, &inner, prefer_file, stack)?);
        }
        h if UNBOUNDED.contains(&h) => {
            return Err((
                format!("`{head}` is growable — no a-priori bit bound"),
                None,
            ))
        }
        _ => {}
    }
    // Named workspace type.
    let Some(td) = ws.type_def(&head, prefer_file) else {
        return Err((
            format!("unresolvable field type `{t}` (not a workspace type)"),
            None,
        ));
    };
    if stack.iter().any(|s| s == &td.name) {
        return Err((format!("recursive type `{}` is unbounded", td.name), None));
    }
    stack.push(td.name.clone());
    let r = width_of_def(ws, td, stack);
    stack.pop();
    r
}

fn width_of_def(
    ws: &Workspace<'_>,
    td: &TypeDef,
    stack: &mut Vec<String>,
) -> Result<u64, WidthErr> {
    match td.kind {
        TypeKind::Struct => {
            let mut sum = 0u64;
            for f in &td.fields {
                sum += width_of(ws, &f.ty, td.file, stack)
                    .map_err(|(m, at)| (m, at.or(Some((td.file, f.line)))))?;
            }
            Ok(sum)
        }
        TypeKind::Enum => {
            let mut widest = 0u64;
            for v in &td.variants {
                let mut sum = 0u64;
                for f in &v.fields {
                    sum += width_of(ws, &f.ty, td.file, stack)
                        .map_err(|(m, at)| (m, at.or(Some((td.file, f.line)))))?;
                }
                widest = widest.max(sum);
            }
            Ok(tag_bits(td.variants.len() as u64) + widest)
        }
    }
}

/// First generic argument of `Head<…>`.
fn generic_arg(t: &str) -> Option<String> {
    let open = t.find('<')?;
    let inner = t[open + 1..].strip_suffix('>')?;
    Some(
        split_top_commas(inner)
            .into_iter()
            .next()?
            .trim()
            .to_owned(),
    )
}

#[cfg(test)]
mod tests {
    use super::tag_bits;

    #[test]
    fn tag_bits_matches_runtime_encoders() {
        assert_eq!(tag_bits(0), 0);
        assert_eq!(tag_bits(1), 0);
        assert_eq!(tag_bits(2), 1);
        assert_eq!(tag_bits(4), 2);
        assert_eq!(tag_bits(5), 3);
        assert_eq!(tag_bits(11), 4, "MwhvcMsg has 11 variants → 4 tag bits");
        assert_eq!(tag_bits(16), 4);
        assert_eq!(tag_bits(17), 5);
    }
}
