//! Token-aware Rust source scanner.
//!
//! This module classifies every character of a source file as code,
//! comment, doc comment, or literal, so a forbidden token inside a string
//! literal or doc comment never produces a finding, and hands the rule
//! passes three synchronized per-line views:
//!
//! * `masked` — code only; comments, string/char literals, and doc comments
//!   are replaced by spaces (one space per character, so within a line the
//!   column of a match in `masked` is the character column in the source).
//! * `comments` — the text of *regular* comments (`//` and `/* */`) per
//!   line. Doc comments (`///`, `//!`, `/** */`, `/*! */`) are excluded:
//!   they document the API and must never carry lint markers.
//! * `test_lines` — whether the line falls inside a `#[cfg(test)]`-gated
//!   item; rules whose scope is production code skip those lines.
//!
//! The classifier handles line comments, nested block comments, string
//! literals with escapes, raw strings (`r"…"`, `r#"…"#`, any hash depth),
//! byte and C strings (`b"…"`, `br#"…"#`, `c"…"`), and char literals
//! (distinguished from lifetimes: `'a'` is a literal, `'a` in `&'a T` is
//! not). It is a lexer, not a parser: macro-generated code and `include!`d
//! files are out of scope, which is acceptable for a style lint.

/// One fully classified source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub rel: String,
    /// Raw source lines (no trailing newline).
    pub lines: Vec<String>,
    /// Code-only view: non-code characters blanked to spaces.
    pub masked: Vec<String>,
    /// Regular-comment text per line (empty if none). Doc comments excluded.
    pub comments: Vec<String>,
    /// `true` for lines inside a `#[cfg(test)]`-gated item (including the
    /// attribute line itself).
    pub test_lines: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    /// `doc` distinguishes `///` & `//!` from plain `//`.
    LineComment {
        doc: bool,
    },
    /// Rust block comments nest; `depth` tracks it.
    BlockComment {
        doc: bool,
        depth: u32,
    },
    Str,
    RawStr {
        hashes: u32,
    },
    CharLit,
}

impl SourceFile {
    pub fn parse(rel: &str, text: &str) -> Self {
        let lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let mut masked = Vec::with_capacity(lines.len());
        let mut comments = Vec::with_capacity(lines.len());

        let mut state = State::Code;
        for line in &lines {
            let (m, c, next) = classify_line(line, state);
            masked.push(m);
            comments.push(c);
            state = next;
        }
        let test_lines = mark_test_lines(&masked);
        SourceFile {
            rel: rel.to_owned(),
            lines,
            masked,
            comments,
            test_lines,
        }
    }
}

/// Classify one line starting in `state`; return (masked, comment-text,
/// state at end of line).
fn classify_line(line: &str, mut state: State) -> (String, String, State) {
    let chars: Vec<char> = line.chars().collect();
    let n = chars.len();
    let mut masked = vec![' '; n];
    let mut comment = vec![' '; n];
    let mut i = 0;

    // A line comment never survives a newline.
    if let State::LineComment { .. } = state {
        state = State::Code;
    }

    while i < n {
        match state {
            State::Code => {
                let c = chars[i];
                if c == '/' && i + 1 < n && chars[i + 1] == '/' {
                    // `///` and `//!` are doc; `////…` (4+ slashes) is a
                    // plain comment by rustdoc convention.
                    let doc = match chars.get(i + 2) {
                        Some('!') => true,
                        Some('/') => !matches!(chars.get(i + 3), Some('/')),
                        _ => false,
                    };
                    state = State::LineComment { doc };
                    if !doc {
                        for (k, &ch) in chars.iter().enumerate().skip(i + 2) {
                            comment[k] = ch;
                        }
                    }
                    i = n;
                } else if c == '/' && i + 1 < n && chars[i + 1] == '*' {
                    let doc = i + 2 < n
                        && (chars[i + 2] == '*' || chars[i + 2] == '!')
                        && !(i + 3 < n && chars[i + 2] == '*' && chars[i + 3] == '/');
                    state = State::BlockComment { doc, depth: 1 };
                    i += 2;
                } else if c == '"' {
                    state = State::Str;
                    i += 1;
                } else if (c == 'r' || c == 'b' || c == 'c') && is_raw_or_byte_str(&chars, i) {
                    let (kind, consumed) = raw_or_byte_str(&chars, i);
                    state = kind;
                    i += consumed;
                } else if c == '\'' {
                    if is_char_literal(&chars, i) {
                        state = State::CharLit;
                        i += 1;
                    } else {
                        // Lifetime: keep the quote + name as code.
                        masked[i] = '\'';
                        i += 1;
                    }
                } else {
                    masked[i] = c;
                    i += 1;
                }
            }
            State::LineComment { doc } => {
                if !doc {
                    comment[i] = chars[i];
                }
                i += 1;
            }
            State::BlockComment { doc, mut depth } => {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    state = State::BlockComment { doc, depth };
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    state = if depth == 0 {
                        State::Code
                    } else {
                        State::BlockComment { doc, depth }
                    };
                    i += 2;
                } else {
                    if !doc {
                        comment[i] = chars[i];
                    }
                    i += 1;
                }
            }
            State::Str => {
                if chars[i] == '\\' {
                    i += 2; // escape: skip escaped char (may run past EOL for `\<newline>`)
                } else if chars[i] == '"' {
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr { hashes } => {
                if chars[i] == '"' {
                    let h = hashes as usize;
                    if i + h < n
                        && chars[i + 1..].len() >= h
                        && chars[i + 1..i + 1 + h].iter().all(|&c| c == '#')
                    {
                        state = State::Code;
                        i += 1 + h;
                    } else if h == 0 {
                        state = State::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                } else {
                    i += 1;
                }
            }
            State::CharLit => {
                if chars[i] == '\\' {
                    i += 2;
                } else if chars[i] == '\'' {
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }

    // An unterminated `State::Str` at EOL is a multi-line string literal:
    // the state carries over to the next line as-is.
    (
        masked.into_iter().collect::<String>(),
        comment.into_iter().collect::<String>().trim().to_owned(),
        state,
    )
}

/// Is `chars[i..]` the start of a raw/byte/C string prefix (`r"`, `r#`,
/// `b"`, `br`, `c"`, `cr`, `b'`…)? Must not treat identifiers ending in
/// `r`/`b`/`c` as prefixes: the char *before* i must not be part of an
/// identifier.
fn is_raw_or_byte_str(chars: &[char], i: usize) -> bool {
    if i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
        return false;
    }
    matches_str_prefix(chars, i).is_some()
}

/// Recognized prefixes → (is_raw, hash-count-start-offset-after-prefix).
fn matches_str_prefix(chars: &[char], i: usize) -> Option<usize> {
    let n = chars.len();
    let c0 = chars[i];
    let c1 = if i + 1 < n { chars[i + 1] } else { '\0' };
    match c0 {
        'r' => {
            if c1 == '"' || c1 == '#' {
                Some(1)
            } else {
                None
            }
        }
        'b' | 'c' => {
            if c1 == '"' {
                Some(1)
            } else if c1 == 'r' {
                let c2 = if i + 2 < n { chars[i + 2] } else { '\0' };
                if c2 == '"' || c2 == '#' {
                    Some(2)
                } else {
                    None
                }
            } else if c0 == 'b' && c1 == '\'' {
                // byte char literal b'x'
                Some(1)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Consume a raw/byte/C string prefix at `i`; return the state to enter and
/// how many chars the prefix (through the opening quote) spans.
fn raw_or_byte_str(chars: &[char], i: usize) -> (State, usize) {
    let off = matches_str_prefix(chars, i).expect("checked by is_raw_or_byte_str");
    let n = chars.len();
    let mut j = i + off;
    if j < n && chars[j] == '\'' {
        // b'x'
        return (State::CharLit, off + 1);
    }
    let raw = chars[i] == 'r' || (j > i + 1) || (j < n && chars[j] == '#');
    if raw && j < n && (chars[j] == '#' || chars[j] == '"') {
        let mut hashes = 0u32;
        while j < n && chars[j] == '#' {
            hashes += 1;
            j += 1;
        }
        if j < n && chars[j] == '"' {
            return (State::RawStr { hashes }, j + 1 - i);
        }
        // `r#ident` (raw identifier) — not a string.
        return (State::Code, 1);
    }
    // b"…" / c"…" plain (escapes allowed)
    (State::Str, off + 1)
}

/// Distinguish `'a'` / `'\n'` / `'\u{1F600}'` char literals from lifetimes
/// (`'a`, `'static`). A char literal's closing quote appears after exactly
/// one (possibly escaped) char; a lifetime is `'` + identifier with no
/// closing quote.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    let n = chars.len();
    if i + 1 >= n {
        return false;
    }
    if chars[i + 1] == '\\' {
        return true; // escape ⇒ literal
    }
    // `'x'` (x any single char, incl. quote-adjacent unicode)
    if i + 2 < n && chars[i + 2] == '\'' {
        return true;
    }
    false
}

/// Mark lines inside `#[cfg(test)]`-gated items (and `#[test]` functions).
///
/// Works on the masked (code-only) view: on seeing a test attribute, skip
/// any further attribute lines, then cover the item that follows — through
/// the matching close brace of its first brace block, or through the first
/// `;` at depth zero for bodiless items (`mod tests;`).
fn mark_test_lines(masked: &[String]) -> Vec<bool> {
    let n = masked.len();
    let mut out = vec![false; n];
    let mut i = 0;
    while i < n {
        let t = masked[i].trim();
        let is_test_attr = t.starts_with("#[cfg(test)]")
            || t.starts_with("#[cfg(all(test")
            || t.starts_with("#[cfg(any(test")
            || t.starts_with("#[test]");
        if !is_test_attr {
            i += 1;
            continue;
        }
        out[i] = true;
        // The gated item may start on the attribute's own line
        // (`#[cfg(test)] field: T,`); the attribute's brackets are balanced
        // so starting the depth scan on that line is safe.
        let attr_end = t.find(']').map(|k| k + 1).unwrap_or(t.len());
        let mut j = if t[attr_end..].trim().is_empty() {
            i + 1
        } else {
            i
        };
        // Skip further attributes between the cfg and the item.
        while j < n && j > i && masked[j].trim().starts_with("#[") {
            out[j] = true;
            j += 1;
        }
        // Cover the item: to matching `}` of its first `{`, or — for
        // bodiless items (`mod tests;`) and struct fields — to the first
        // `;`/`,` at depth 0.
        let mut depth: i64 = 0;
        // Parenthesis/bracket depth: a `,` inside a parameter list or
        // generic argument list (`fn f(&self, hook: …)`) is not a
        // field/item terminator.
        let mut paren: i64 = 0;
        let mut opened = false;
        'item: while j < n {
            out[j] = true;
            for c in masked[j].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    '(' | '[' => paren += 1,
                    ')' | ']' => paren -= 1,
                    ';' | ',' if !opened && depth == 0 && paren == 0 => break 'item,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    out
}

/// Byte offsets of `pat` in `line` where the match is token-delimited:
/// the characters immediately before and after the match must not be
/// identifier characters (so `assert!` does not match inside
/// `debug_assert!`, and `Relaxed` does not match `RelaxedLike`).
pub fn find_tokens(line: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = line[from..].find(pat) {
        let at = from + rel;
        let left_ok = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let right_ok = !line[at + pat.len()..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if left_ok && right_ok {
            out.push(at);
        }
        from = at + pat.len();
    }
    out
}

/// Lines covered by a marker comment on `line` (0-based): the line itself,
/// plus the statement cluster it heads — the following lines until the
/// cluster closes. Scanning forward with bracket depth relative to the
/// marker, the cluster ends (inclusively) at the first code line whose
/// depth has returned to ≤ 0 and whose code ends in `;` or `}`. Lines
/// ending in `,` or `)` continue it, so one marker heading a run of
/// struct-literal fields (the canonical use: a snapshot of metric loads)
/// covers every field through the closing brace — but the first
/// `;`-terminated statement seals the reach, so a justification can never
/// leak onto the *next* statement. A blank line before any code ends the
/// reach immediately.
pub fn marker_reach(sf: &SourceFile, line: usize) -> std::ops::Range<usize> {
    let n = sf.lines.len();
    let mut depth: i64 = 0;
    let mut saw_code = false;
    let mut end = line + 1;
    for j in line..n {
        let code = sf.masked[j].trim_end();
        if j > line && code.trim().is_empty() && sf.comments[j].is_empty() {
            if !saw_code {
                // Blank line before any code: marker heads nothing further.
                return line..line + 1;
            }
            break;
        }
        let has_code = !code.trim().is_empty();
        for c in code.chars() {
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => depth -= 1,
                _ => {}
            }
        }
        if has_code {
            saw_code = true;
            end = j + 1;
            let last = code.trim().chars().last().unwrap_or(' ');
            if depth <= 0 && matches!(last, ';' | '}') {
                break;
            }
        }
        // Don't let a marker reach across more than one screen of code:
        // a justification that far from its site is not a justification.
        if j - line > 40 {
            break;
        }
    }
    line..end
}

/// Per-line coverage of a domain marker (`relaxed:`, `wall-clock:`,
/// `invariant:`): `true` where a marker with a non-empty justification
/// reaches (see [`marker_reach`]). Markers inside doc comments never
/// count (the comment view already excludes them).
pub fn marker_coverage(sf: &SourceFile, marker: &str) -> Vec<bool> {
    let mut covered = vec![false; sf.lines.len()];
    for (i, comment) in sf.comments.iter().enumerate() {
        let Some(pos) = comment.find(marker) else {
            continue;
        };
        // Require justification text after the marker word.
        if comment[pos + marker.len()..].trim().is_empty() {
            continue;
        }
        for line in marker_reach(sf, i) {
            covered[line] = true;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(text: &str) -> SourceFile {
        SourceFile::parse("test.rs", text)
    }

    #[test]
    fn masks_line_comment_keeps_text() {
        let f = sf("let x = 1; // relaxed: counter\n");
        assert!(!f.masked[0].contains("relaxed"));
        assert!(f.comments[0].contains("relaxed: counter"));
        assert!(f.masked[0].contains("let x = 1;"));
    }

    #[test]
    fn doc_comments_carry_no_comment_text() {
        let f = sf("/// thread::sleep is documented here\nfn f() {}\n");
        assert!(!f.masked[0].contains("thread::sleep"));
        assert!(f.comments[0].is_empty());
    }

    #[test]
    fn inner_doc_comments_excluded() {
        let f = sf("//! Ordering::Relaxed in crate docs\n");
        assert!(!f.masked[0].contains("Relaxed"));
        assert!(f.comments[0].is_empty());
    }

    #[test]
    fn string_literals_masked() {
        let f = sf(r#"let s = "Ordering::Relaxed"; let t = s;"#);
        assert!(!f.masked[0].contains("Relaxed"));
        assert!(f.masked[0].contains("let s ="));
        assert!(f.masked[0].contains("let t = s;"));
    }

    #[test]
    fn raw_strings_masked() {
        let f = sf("let s = r#\"thread::sleep \"quoted\" inside\"#; call();");
        assert!(!f.masked[0].contains("sleep"));
        assert!(f.masked[0].contains("call();"));
    }

    #[test]
    fn escaped_quotes_in_strings() {
        let f = sf(r#"let s = "a\"Ordering::Relaxed\"b"; go();"#);
        assert!(!f.masked[0].contains("Relaxed"));
        assert!(f.masked[0].contains("go();"));
    }

    #[test]
    fn nested_block_comments() {
        let f = sf("/* outer /* Ordering::Relaxed */ still comment */ code();");
        assert!(!f.masked[0].contains("Relaxed"));
        assert!(f.masked[0].contains("code();"));
        assert!(f.comments[0].contains("Relaxed"));
    }

    #[test]
    fn multiline_block_comment() {
        let f = sf("a();\n/* start\nthread::sleep\nend */ b();\n");
        assert!(!f.masked[2].contains("sleep"));
        assert!(f.comments[2].contains("thread::sleep"));
        assert!(f.masked[3].contains("b();"));
    }

    #[test]
    fn lifetimes_are_code_char_literals_are_not() {
        let f = sf("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(f.masked[0].contains("<'a>"));
        assert!(!f.masked[0].contains("'x'"));
    }

    #[test]
    fn multiline_string_stays_string() {
        let f = sf("let s = \"line one\nthread::sleep here too\";\nafter();\n");
        assert!(!f.masked[1].contains("sleep"));
        assert!(f.masked[2].contains("after();"));
    }

    #[test]
    fn cfg_test_mod_marked() {
        let f = sf("fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn prod2() {}\n");
        assert!(!f.test_lines[0]);
        assert!(f.test_lines[1]);
        assert!(f.test_lines[3]);
        assert!(f.test_lines[4]);
        assert!(!f.test_lines[5]);
    }

    #[test]
    fn cfg_test_fn_marked() {
        let f = sf("#[cfg(test)]\nfn hook() { a.unwrap(); }\nfn prod() {}\n");
        assert!(f.test_lines[1]);
        assert!(!f.test_lines[2]);
    }

    #[test]
    fn cfg_test_fn_with_parameter_commas_marked() {
        // The `,` inside the parameter list must not be mistaken for a
        // bodiless-item terminator — the body is part of the gated item.
        let f = sf(
            "#[cfg(test)]\nfn set(&self, hook: impl Fn() + 'static) {\n    a.unwrap();\n}\nfn prod() {}\n",
        );
        assert!(f.test_lines[1]);
        assert!(f.test_lines[2]);
        assert!(f.test_lines[3]);
        assert!(!f.test_lines[4]);
    }

    #[test]
    fn marker_reach_single_statement() {
        let f = sf("// relaxed: a\nlet a = x.load(O::Relaxed);\nlet b = y();\nlet c = z.load(O::Relaxed);\n");
        let r = marker_reach(&f, 0);
        assert!(r.contains(&1));
        assert!(!r.contains(&2));
        assert!(!r.contains(&3));
    }

    #[test]
    fn marker_reach_struct_literal() {
        let f = sf("// relaxed: snapshot\nFoo {\n    a: x.load(R),\n    b: y.load(R),\n}\nlet c = z.load(R);\n");
        let r = marker_reach(&f, 0);
        assert!(r.contains(&2));
        assert!(r.contains(&3));
        assert!(r.contains(&4));
        assert!(!r.contains(&5));
    }

    #[test]
    fn marker_inside_literal_covers_field_run() {
        let f = sf("Foo {\n    // relaxed: snapshot\n    a: x.load(R),\n    b: y.load(R),\n}\nlet c = z.load(R);\n");
        let r = marker_reach(&f, 1);
        assert!(r.contains(&2));
        assert!(r.contains(&3));
        assert!(!r.contains(&5));
    }

    #[test]
    fn marker_does_not_leak_past_semicolon() {
        let f = sf("// relaxed: first add only\na.fetch_add(1, R);\nb.fetch_add(1, R);\n");
        let r = marker_reach(&f, 0);
        assert!(r.contains(&1));
        assert!(!r.contains(&2));
    }

    #[test]
    fn marker_reach_stops_at_blank() {
        let f = sf("// relaxed: orphan\n\nlet a = x.load(R);\n");
        let r = marker_reach(&f, 0);
        assert_eq!(r, 0..1);
    }

    #[test]
    fn marker_requires_text() {
        let f = sf("// invariant:\nx.unwrap();\n// invariant: slot filled at spawn\ny.unwrap();\n");
        let cov = marker_coverage(&f, "invariant:");
        assert!(!cov[1]);
        assert!(cov[3]);
    }

    #[test]
    fn marker_in_doc_comment_ignored() {
        let f = sf("/// invariant: this is documentation\nx.unwrap();\n");
        let cov = marker_coverage(&f, "invariant:");
        assert!(!cov[1]);
    }
}
