//! Symbol layer: cross-function facts over the masked token stream.
//!
//! The per-file rules of [`crate::rules`] are line-local; the three
//! semantic passes (`lock-order`, `message-bits`, `blocking-in-worker`)
//! need whole-workspace facts: which fns exist (and in which `impl`
//! block), which types have which fields, who calls whom, and where locks
//! are taken. This module extracts all of that from the *masked* views of
//! [`crate::scan::SourceFile`] — no syn, no rustc, std only — with the
//! same philosophy as the scanner: a deliberately small model of Rust
//! that is exact on this workspace's idioms and conservative elsewhere.
//!
//! Three layers:
//!
//! * **Items** — [`Workspace::build`] walks every file once and records
//!   [`FnItem`]s (name, enclosing impl type, signature params/return,
//!   body span, call sites), [`TypeDef`]s (struct fields / enum variants
//!   with field types), and [`ImplBlock`]s (`impl Trait for Type`).
//! * **Resolution** — [`Workspace::resolve`] maps a [`CallSite`] to
//!   candidate fns. Typed receivers (`self`, `self.field` chains through
//!   struct definitions, typed params, call-return chaining) resolve
//!   exactly; a receiver whose type is known but not a workspace type
//!   resolves to *nothing* (std methods never alias workspace fns); only
//!   an unknown receiver falls back to every method of that name.
//! * **Lock model** — [`LockModel::build`] runs a statement-level
//!   held-lock machine over every fn in the configured scope files:
//!   guard bindings (`let g = m.lock().unwrap()`) are held until
//!   `drop(g)`, rebinding, or end of their block; un-bound acquisitions
//!   are held for the rest of their statement; `Condvar::wait(guard)`
//!   atomically releases the guard's lock for the duration of the wait.
//!   Closures passed to `spawn(...)` run on another thread, so calls
//!   inside them neither inherit held locks nor propagate acquisitions
//!   to the spawning fn.
//!
//! Known approximations (all documented in ANALYSIS.md): the machine is
//! flow-insensitive across branches (a `drop` on one path releases for
//! subsequent source lines), nested named fns attribute their calls to
//! the outer fn as well, and locals bound from untyped expressions fall
//! back to by-name method resolution.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::config::LintConfig;
use crate::scan::{find_tokens, SourceFile};

/// Position of a token: 0-based line, byte column into the masked line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Pos {
    pub line: usize,
    pub col: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.name(...)` — receiver text as written, whitespace-free.
    Method { receiver: String },
    /// `name(...)` or `Path::name(...)`.
    Free { qualifier: Option<String> },
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    pub kind: CallKind,
    pub pos: Pos,
    /// First argument when it is a plain identifier (after stripping
    /// leading `&`/`&mut`) — used to recognize `cv.wait(guard)`.
    pub first_arg: Option<String>,
    /// True when the site sits inside an argument of a `spawn(...)`
    /// call: it runs on another thread, so the caller's held locks do
    /// not transfer and its acquisitions do not propagate back.
    pub spawned: bool,
}

#[derive(Debug)]
pub struct FnItem {
    pub file: usize,
    pub name: String,
    /// Enclosing `impl` target type, if any.
    pub impl_type: Option<String>,
    /// 0-based line of the `fn` keyword.
    pub sig_line: usize,
    /// Body line range (0-based, end-exclusive); `None` for bodyless
    /// trait signatures.
    pub body: Option<Range<usize>>,
    /// `(name, type)` for parseable parameters; `self` appears as
    /// `("self", "Self")`, destructuring patterns are skipped.
    pub params: Vec<(String, String)>,
    /// Return type text ("" when the fn returns unit).
    pub ret: String,
    /// Inside a `#[cfg(test)]` item: excluded from resolution targets
    /// and from the lock model.
    pub test: bool,
    pub calls: Vec<CallSite>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeKind {
    Struct,
    Enum,
}

#[derive(Debug)]
pub struct Field {
    pub name: String,
    pub ty: String,
    /// 0-based line of the field.
    pub line: usize,
}

#[derive(Debug)]
pub struct Variant {
    pub fields: Vec<Field>,
}

#[derive(Debug)]
pub struct TypeDef {
    pub file: usize,
    pub name: String,
    pub kind: TypeKind,
    /// Struct fields (tuple fields are named "0", "1", …).
    pub fields: Vec<Field>,
    /// Enum variants.
    pub variants: Vec<Variant>,
}

#[derive(Debug)]
pub struct ImplBlock {
    pub file: usize,
    /// 0-based line of the `impl` keyword.
    pub line: usize,
    /// Last path segment of the target type, generics stripped; the
    /// primitive targets of `impl Message for …` come through verbatim
    /// (`"()"`, `"bool"`, `"u32"`, `"u64"`).
    pub type_name: String,
    /// Last path segment of the implemented trait, if any.
    pub trait_name: Option<String>,
    pub test: bool,
}

/// The whole-workspace symbol table. The runner parses each file once
/// and shares the result between per-file and global passes.
pub struct Workspace<'a> {
    pub files: &'a [SourceFile],
    pub fns: Vec<FnItem>,
    pub types: Vec<TypeDef>,
    pub impls: Vec<ImplBlock>,
}

impl<'a> Workspace<'a> {
    pub fn build(files: &'a [SourceFile]) -> Self {
        let mut ws = Workspace {
            files,
            fns: Vec::new(),
            types: Vec::new(),
            impls: Vec::new(),
        };
        for (fi, sf) in files.iter().enumerate() {
            extract_file(fi, sf, &mut ws.fns, &mut ws.types, &mut ws.impls);
        }
        ws
    }

    /// The `TypeDef` for `name`, preferring one in `prefer_file`; `None`
    /// when absent or ambiguous across files.
    pub fn type_def(&self, name: &str, prefer_file: usize) -> Option<&TypeDef> {
        let mut hits = self.types.iter().filter(|t| t.name == name);
        let all: Vec<&TypeDef> = hits.by_ref().collect();
        match all.len() {
            0 => None,
            1 => Some(all[0]),
            _ => all.iter().find(|t| t.file == prefer_file).copied(),
        }
    }

    /// True when `name` is defined in this workspace (as a type or as an
    /// impl target).
    pub fn is_workspace_type(&self, name: &str) -> bool {
        self.types.iter().any(|t| t.name == name) || self.impls.iter().any(|i| i.type_name == name)
    }

    /// Methods named `name` in any `impl` block of `ty`.
    pub fn methods_of(&self, ty: &str, name: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name == name && f.impl_type.as_deref() == Some(ty))
            .map(|(i, _)| i)
            .collect()
    }

    /// Resolve `call` (made from fn `caller`) to candidate fn indices.
    /// Empty means "not a workspace fn" (std, closure param, …).
    pub fn resolve(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        let include_tests = self.fns[caller].test;
        let keep = |v: Vec<usize>| -> Vec<usize> {
            v.into_iter()
                .filter(|&i| include_tests || !self.fns[i].test)
                .collect()
        };
        match &call.kind {
            CallKind::Method { receiver } => {
                match self.receiver_type(caller, receiver) {
                    Some(t) => {
                        let t = strip_generics(&t);
                        if self.is_workspace_type(&t) {
                            keep(self.methods_of(&t, &call.name))
                        } else {
                            // Known non-workspace type: std methods never
                            // alias workspace fns.
                            Vec::new()
                        }
                    }
                    None => {
                        // Unknown receiver: every method of that name.
                        keep(
                            self.fns
                                .iter()
                                .enumerate()
                                .filter(|(_, f)| f.name == call.name && f.impl_type.is_some())
                                .map(|(i, _)| i)
                                .collect(),
                        )
                    }
                }
            }
            CallKind::Free { qualifier: Some(q) } => {
                let last = q.rsplit("::").next().unwrap_or(q);
                let last = strip_generics(last);
                let via_type = keep(self.methods_of(&last, &call.name));
                if !via_type.is_empty() {
                    return via_type;
                }
                keep(self.free_fns(&call.name, self.fns[caller].file))
            }
            CallKind::Free { qualifier: None } => {
                keep(self.free_fns(&call.name, self.fns[caller].file))
            }
        }
    }

    /// Free fns named `name`: those in `prefer_file` shadow same-named
    /// free fns elsewhere.
    fn free_fns(&self, name: &str, prefer_file: usize) -> Vec<usize> {
        let all: Vec<usize> = self
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name == name && f.impl_type.is_none())
            .map(|(i, _)| i)
            .collect();
        let local: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| self.fns[i].file == prefer_file)
            .collect();
        if local.is_empty() {
            all
        } else {
            local
        }
    }

    /// Best-effort static type of a receiver expression. Follows `self`,
    /// typed params, `self.field` chains through struct defs (unwrapping
    /// `Arc`/`Box`/`Rc`/`&`), and call-return chaining (`self.helper()`
    /// uses `helper`'s return type; a trailing `?` unwraps one level of
    /// `Result`/`Option`). `None` = unknown.
    pub fn receiver_type(&self, caller: usize, recv: &str) -> Option<String> {
        let f = &self.fns[caller];
        let segs = split_receiver(recv);
        if segs.is_empty() {
            return None;
        }
        let mut cur: Option<String> = None;
        for (k, seg) in segs.iter().enumerate() {
            let (base, is_call, opt_q) = match seg.find('(') {
                Some(p) if seg.ends_with(')') || seg.ends_with('?') => {
                    (&seg[..p], true, seg.ends_with('?'))
                }
                Some(_) => return None,
                None => (seg.as_str(), false, false),
            };
            if base.contains('[') {
                return None;
            }
            cur = Some(if k == 0 {
                if base == "self" {
                    f.impl_type.clone()?
                } else if is_call {
                    // Free-call head, e.g. `helper().x`.
                    let site = CallSite {
                        name: base.to_owned(),
                        kind: CallKind::Free { qualifier: None },
                        pos: Pos { line: 0, col: 0 },
                        first_arg: None,
                        spawned: false,
                    };
                    let t = self.return_type_of(caller, &site)?;
                    if opt_q {
                        unwrap_ok(&t)?
                    } else {
                        t
                    }
                } else {
                    let (_, ty) = f.params.iter().find(|(n, _)| n == base)?;
                    if ty == "Self" {
                        f.impl_type.clone()?
                    } else {
                        unwrap_wrappers(ty)
                    }
                }
            } else {
                let owner = strip_generics(cur.as_deref()?);
                if is_call {
                    let cands = self.methods_of(&owner, base);
                    if cands.len() != 1 {
                        return None;
                    }
                    let t = self.fns[cands[0]].ret.clone();
                    if t.is_empty() {
                        return None;
                    }
                    let t = unwrap_wrappers(&t);
                    if opt_q {
                        unwrap_ok(&t)?
                    } else {
                        t
                    }
                } else {
                    let td = self.type_def(&owner, f.file)?;
                    let fd = td.fields.iter().find(|fl| fl.name == base)?;
                    unwrap_wrappers(&fd.ty)
                }
            });
        }
        cur.map(|t| strip_generics(&t))
    }

    /// Return type of a resolved call (unique candidate only).
    fn return_type_of(&self, caller: usize, site: &CallSite) -> Option<String> {
        let cands = self.resolve(caller, site);
        if cands.len() != 1 {
            return None;
        }
        let r = &self.fns[cands[0]].ret;
        if r.is_empty() {
            None
        } else {
            Some(unwrap_wrappers(r))
        }
    }
}

/// Split a receiver expression on `.` at paren/bracket depth 0, so
/// `self.current_queue()?.x` → `["self", "current_queue()?", "x"]`.
fn split_receiver(recv: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut buf = String::new();
    let mut depth = 0i32;
    for c in recv.chars() {
        match c {
            '(' | '[' => {
                depth += 1;
                buf.push(c);
            }
            ')' | ']' => {
                depth -= 1;
                buf.push(c);
            }
            '.' if depth == 0 => {
                out.push(std::mem::take(&mut buf));
            }
            _ => buf.push(c),
        }
    }
    if !buf.is_empty() {
        out.push(buf);
    }
    out.retain(|s| !s.is_empty());
    out
}

/// Strip `<...>` generics and surrounding whitespace from a type name.
pub fn strip_generics(ty: &str) -> String {
    let t = ty.trim();
    match t.find('<') {
        Some(p) => t[..p].trim().to_owned(),
        None => t.to_owned(),
    }
}

/// Unwrap `&`, `&mut`, and one-level `Arc<…>`/`Box<…>`/`Rc<…>` chains.
fn unwrap_wrappers(ty: &str) -> String {
    let mut t = ty.trim();
    loop {
        if let Some(rest) = t.strip_prefix('&') {
            t = rest.trim_start();
            t = t.strip_prefix("mut ").unwrap_or(t).trim_start();
            continue;
        }
        let mut unwrapped = false;
        for w in ["Arc<", "Box<", "Rc<"] {
            if t.starts_with(w) && t.ends_with('>') {
                t = t[w.len()..t.len() - 1].trim();
                unwrapped = true;
                break;
            }
        }
        if !unwrapped {
            return t.to_owned();
        }
    }
}

/// First generic argument of `Result<T, …>` / `Option<T>` (for `?`).
fn unwrap_ok(ty: &str) -> Option<String> {
    let t = ty.trim();
    let inner = t
        .strip_prefix("Result<")
        .or_else(|| t.strip_prefix("Option<"))?;
    let first = split_top_commas(inner.strip_suffix('>')?)
        .into_iter()
        .next()?;
    Some(first.trim().to_owned())
}

// ---------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "let", "mut", "ref", "move", "in",
    "as", "fn", "impl", "struct", "enum", "trait", "use", "pub", "where", "dyn", "break",
    "continue", "unsafe", "async", "await", "crate", "super", "mod", "const", "static", "type",
    "Self", "self", "true", "false",
];

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Flatten the masked lines of a file into a `(char, Pos)` stream with a
/// `\n` terminator per line.
fn flat(sf: &SourceFile) -> Vec<(char, Pos)> {
    let mut out = Vec::new();
    for (li, line) in sf.masked.iter().enumerate() {
        for (ci, c) in line.char_indices() {
            out.push((c, Pos { line: li, col: ci }));
        }
        out.push((
            '\n',
            Pos {
                line: li,
                col: line.len(),
            },
        ));
    }
    out
}

fn word_at(ch: &[(char, Pos)], i: usize) -> (String, usize) {
    let mut j = i;
    let mut w = String::new();
    while j < ch.len() && is_ident_char(ch[j].0) {
        w.push(ch[j].0);
        j += 1;
    }
    (w, j)
}

fn next_nonws(ch: &[(char, Pos)], mut i: usize) -> Option<usize> {
    while i < ch.len() {
        if !ch[i].0.is_whitespace() {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Skip a balanced `<...>` generic group starting at `i` (which must be
/// `<`); `->` arrows inside (`Fn() -> R`) do not close the group.
fn skip_generics(ch: &[(char, Pos)], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < ch.len() {
        match ch[i].0 {
            '<' => depth += 1,
            '>' => {
                if i > 0 && ch[i - 1].0 == '-' {
                    // `->` arrow, not a close.
                } else {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
            }
            ';' | '{' => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Read a type path at `i`: returns (last segment, index after). Handles
/// `()` (unit), leading `&`/lifetimes, `::` paths, trailing generics.
fn read_type_path(ch: &[(char, Pos)], mut i: usize) -> Option<(String, usize)> {
    i = next_nonws(ch, i)?;
    while ch[i].0 == '&' || ch[i].0 == '\'' {
        if ch[i].0 == '\'' {
            let (_, j) = word_at(ch, i + 1);
            i = next_nonws(ch, j)?;
        } else {
            i = next_nonws(ch, i + 1)?;
        }
    }
    if ch[i].0 == '(' {
        let j = next_nonws(ch, i + 1)?;
        if ch[j].0 == ')' {
            return Some(("()".to_owned(), j + 1));
        }
        return None;
    }
    let mut last;
    loop {
        if !is_ident_start(ch[i].0) {
            return None;
        }
        let (w, j) = word_at(ch, i);
        last = w;
        i = j;
        if i < ch.len() && ch[i].0 == '<' {
            i = skip_generics(ch, i);
        }
        let Some(k) = next_nonws(ch, i) else {
            return Some((last, i));
        };
        if ch[k].0 == ':' && k + 1 < ch.len() && ch[k + 1].0 == ':' {
            i = next_nonws(ch, k + 2)?;
            continue;
        }
        return Some((last, i));
    }
}

/// Parse an `impl` header starting just after the `impl` keyword.
/// Returns `(target type, trait, index of the opening brace)`.
fn parse_impl_header(ch: &[(char, Pos)], mut i: usize) -> Option<(String, Option<String>, usize)> {
    i = next_nonws(ch, i)?;
    if ch[i].0 == '<' {
        i = skip_generics(ch, i);
    }
    let (first, mut j) = read_type_path(ch, i)?;
    // `for` next?
    let mut trait_name = None;
    let mut target = first;
    if let Some(k) = next_nonws(ch, j) {
        if is_ident_start(ch[k].0) {
            let (w, after) = word_at(ch, k);
            if w == "for" {
                let (second, j2) = read_type_path(ch, after)?;
                trait_name = Some(target);
                target = second;
                j = j2;
            }
        }
    }
    // Scan to the opening brace (skipping `where` clauses).
    let mut k = j;
    while k < ch.len() {
        match ch[k].0 {
            '{' => return Some((target, trait_name, k)),
            ';' => return None,
            _ => k += 1,
        }
    }
    None
}

struct PendingFn {
    name: String,
    sig_line: usize,
    params: Vec<(String, String)>,
    ret: String,
}

/// Parse a fn signature starting just after the `fn` keyword. Returns
/// the pending item and the index of the body `{` or terminating `;`.
fn parse_fn_sig(ch: &[(char, Pos)], mut i: usize, sig_line: usize) -> Option<(PendingFn, usize)> {
    i = next_nonws(ch, i)?;
    if !is_ident_start(ch[i].0) {
        return None;
    }
    let (name, mut j) = word_at(ch, i);
    j = next_nonws(ch, j)?;
    if ch[j].0 == '<' {
        j = skip_generics(ch, j);
        j = next_nonws(ch, j)?;
    }
    if ch[j].0 != '(' {
        return None;
    }
    // Collect the parameter text between balanced parens.
    let mut depth = 0i32;
    let mut params_text = String::new();
    let mut k = j;
    loop {
        if k >= ch.len() {
            return None;
        }
        match ch[k].0 {
            '(' => {
                depth += 1;
                if depth > 1 {
                    params_text.push('(');
                }
            }
            ')' => {
                depth -= 1;
                if depth == 0 {
                    k += 1;
                    break;
                }
                params_text.push(')');
            }
            c => params_text.push(c),
        }
        k += 1;
    }
    // Collect tail (return type, where clause) until `{` or `;` at
    // bracket depth 0.
    let mut tail = String::new();
    let mut nd = 0i32;
    let end;
    loop {
        if k >= ch.len() {
            return None;
        }
        match ch[k].0 {
            '<' => {
                nd += 1;
                tail.push('<');
            }
            '>' if k > 0 && ch[k - 1].0 != '-' => {
                nd -= 1;
                tail.push('>');
            }
            '(' | '[' => {
                nd += 1;
                tail.push(ch[k].0);
            }
            ')' | ']' => {
                nd -= 1;
                tail.push(ch[k].0);
            }
            '{' | ';' if nd <= 0 => {
                end = k;
                break;
            }
            c => tail.push(c),
        }
        k += 1;
    }
    let mut ret = tail.trim().to_owned();
    if let Some(&w) = find_tokens(&ret, "where").first() {
        ret.truncate(w);
    }
    let ret = ret
        .trim()
        .strip_prefix("->")
        .map(|r| r.trim().to_owned())
        .unwrap_or_default();
    Some((
        PendingFn {
            name,
            sig_line,
            params: parse_params(&params_text),
            ret,
        },
        end,
    ))
}

fn parse_params(text: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for part in split_top_commas(text) {
        let p = part.trim();
        if p.is_empty() {
            continue;
        }
        let bare = p
            .trim_start_matches('&')
            .trim_start()
            .trim_start_matches("mut ")
            .trim();
        let bare = if let Some(rest) = bare.strip_prefix('\'') {
            rest.split_whitespace()
                .skip(1)
                .collect::<Vec<_>>()
                .join(" ")
        } else {
            bare.to_owned()
        };
        if bare == "self" {
            out.push(("self".to_owned(), "Self".to_owned()));
            continue;
        }
        // `pat: Type` with the colon at nesting depth 0.
        let Some(cp) = top_colon(p) else { continue };
        let pat = p[..cp].trim();
        let ty = p[cp + 1..].trim();
        let pat = pat.strip_prefix("mut ").unwrap_or(pat).trim();
        if pat.chars().all(is_ident_char) && !pat.is_empty() {
            out.push((pat.to_owned(), ty.to_owned()));
        }
    }
    out
}

/// Offset of the first `:` at bracket depth 0 (`name: Type`).
fn top_colon(p: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (i, c) in p.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            ':' if depth == 0 => return Some(i),
            _ => {}
        }
    }
    None
}

/// Split on `,` at bracket depth 0 (`<>`, `()`, `[]`, `{}`; `->` is not
/// a bracket).
pub(crate) fn split_top_commas(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut buf = String::new();
    let mut depth = 0i32;
    let mut prev = ' ';
    for c in text.chars() {
        match c {
            '<' | '(' | '[' | '{' => depth += 1,
            '>' if prev != '-' => depth -= 1,
            ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                out.push(std::mem::take(&mut buf));
                prev = c;
                continue;
            }
            _ => {}
        }
        buf.push(c);
        prev = c;
    }
    if !buf.trim().is_empty() {
        out.push(buf);
    }
    out
}

/// Parse a `struct`/`enum` definition starting just after the keyword.
/// Returns the def and the index just past the region.
fn parse_type_def(
    ch: &[(char, Pos)],
    mut i: usize,
    is_enum: bool,
    file: usize,
) -> Option<(TypeDef, usize)> {
    i = next_nonws(ch, i)?;
    if !is_ident_start(ch[i].0) {
        return None;
    }
    let (name, mut j) = word_at(ch, i);
    j = next_nonws(ch, j)?;
    if ch[j].0 == '<' {
        j = skip_generics(ch, j);
        j = next_nonws(ch, j)?;
    }
    let mut td = TypeDef {
        file,
        name,
        kind: if is_enum {
            TypeKind::Enum
        } else {
            TypeKind::Struct
        },
        fields: Vec::new(),
        variants: Vec::new(),
    };
    match ch[j].0 {
        ';' => Some((td, j + 1)),
        '(' => {
            let (inner, end) = balanced(ch, j, '(', ')')?;
            td.fields = tuple_fields(&inner);
            Some((td, end))
        }
        '{' => {
            let (inner, end) = balanced(ch, j, '{', '}')?;
            if is_enum {
                td.variants = parse_variants(&inner);
            } else {
                td.fields = named_fields(&inner);
            }
            Some((td, end))
        }
        _ => None,
    }
}

/// Chars (with positions) strictly inside a balanced group opening at
/// `i`; returns the inner slice and the index just past the close.
fn balanced(
    ch: &[(char, Pos)],
    i: usize,
    open: char,
    close: char,
) -> Option<(Vec<(char, Pos)>, usize)> {
    let mut depth = 0i32;
    let mut out = Vec::new();
    let mut k = i;
    while k < ch.len() {
        let c = ch[k].0;
        if c == open {
            depth += 1;
            if depth > 1 {
                out.push(ch[k]);
            }
        } else if c == close {
            depth -= 1;
            if depth == 0 {
                return Some((out, k + 1));
            }
            out.push(ch[k]);
        } else if depth >= 1 {
            out.push(ch[k]);
        }
        k += 1;
    }
    None
}

/// Split inner chars on top-level commas, keeping each part's first-line.
fn split_inner(inner: &[(char, Pos)]) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut buf = String::new();
    let mut line = 0usize;
    let mut started = false;
    let mut depth = 0i32;
    let mut prev = ' ';
    for &(c, p) in inner {
        match c {
            '<' | '(' | '[' | '{' => depth += 1,
            '>' if prev != '-' => depth -= 1,
            ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                if started {
                    out.push((std::mem::take(&mut buf), line));
                    started = false;
                }
                prev = c;
                continue;
            }
            _ => {}
        }
        if !started && !c.is_whitespace() {
            started = true;
            line = p.line;
        }
        buf.push(c);
        prev = c;
    }
    if started && !buf.trim().is_empty() {
        out.push((buf, line));
    }
    out
}

fn named_fields(inner: &[(char, Pos)]) -> Vec<Field> {
    let mut out = Vec::new();
    for (part, line) in split_inner(inner) {
        let p = strip_attrs(part.trim());
        let p = p.trim().strip_prefix("pub").map(|r| {
            let r = r.trim_start();
            r.strip_prefix('(')
                .and_then(|rr| rr.split_once(')').map(|(_, rest)| rest))
                .unwrap_or(r)
        });
        let p = p.unwrap_or(part.trim()).trim();
        let Some(cp) = top_colon(p) else { continue };
        let name = p[..cp].trim();
        let ty = p[cp + 1..].trim();
        if name.chars().all(is_ident_char) && !name.is_empty() {
            out.push(Field {
                name: name.to_owned(),
                ty: ty.to_owned(),
                line,
            });
        }
    }
    out
}

fn tuple_fields(inner: &[(char, Pos)]) -> Vec<Field> {
    let mut out = Vec::new();
    for (idx, (part, line)) in split_inner(inner).into_iter().enumerate() {
        let p = strip_attrs(part.trim());
        let p = p.trim();
        let p = p.strip_prefix("pub").map(str::trim).unwrap_or(p);
        if p.is_empty() {
            continue;
        }
        out.push(Field {
            name: idx.to_string(),
            ty: p.to_owned(),
            line,
        });
    }
    out
}

/// Remove leading `#[...]` attribute groups.
fn strip_attrs(mut s: &str) -> &str {
    loop {
        s = s.trim_start();
        if !s.starts_with('#') {
            return s;
        }
        let Some(open) = s.find('[') else { return s };
        let mut depth = 0i32;
        let mut cut = None;
        for (i, c) in s[open..].char_indices() {
            match c {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = Some(open + i + 1);
                        break;
                    }
                }
                _ => {}
            }
        }
        match cut {
            Some(c) => s = &s[c..],
            None => return s,
        }
    }
}

fn parse_variants(inner: &[(char, Pos)]) -> Vec<Variant> {
    let mut out = Vec::new();
    for (part, line) in split_inner(inner) {
        let p = strip_attrs(part.trim());
        let p = p.trim();
        let name: String = p.chars().take_while(|&c| is_ident_char(c)).collect();
        if name.is_empty() {
            continue;
        }
        let rest = p[name.len()..].trim_start();
        let fields = if let Some(body) = rest.strip_prefix('{') {
            let body = body.strip_suffix('}').unwrap_or(body);
            let chars: Vec<(char, Pos)> = body.chars().map(|c| (c, Pos { line, col: 0 })).collect();
            named_fields(&chars)
        } else if let Some(body) = rest.strip_prefix('(') {
            let body = body.strip_suffix(')').unwrap_or(body);
            let chars: Vec<(char, Pos)> = body.chars().map(|c| (c, Pos { line, col: 0 })).collect();
            tuple_fields(&chars)
        } else {
            Vec::new()
        };
        out.push(Variant { fields });
    }
    out
}

fn extract_file(
    file: usize,
    sf: &SourceFile,
    fns: &mut Vec<FnItem>,
    types: &mut Vec<TypeDef>,
    impls: &mut Vec<ImplBlock>,
) {
    let ch = flat(sf);
    let n = ch.len();
    let mut i = 0usize;
    let mut depth = 0i32;
    let mut impl_stack: Vec<(String, Option<String>, i32)> = Vec::new();
    let mut pending_impl: Option<(String, Option<String>, usize)> = None;
    let mut pending_fn: Option<PendingFn> = None;
    // (fns index, open depth, index of the `{`).
    let mut fn_stack: Vec<(usize, i32, usize)> = Vec::new();
    let new_fn = |pf: PendingFn, impl_stack: &[(String, Option<String>, i32)]| FnItem {
        file,
        name: pf.name,
        impl_type: impl_stack.last().map(|(t, _, _)| t.clone()),
        sig_line: pf.sig_line,
        body: None,
        params: pf.params,
        ret: pf.ret,
        test: sf.test_lines.get(pf.sig_line).copied().unwrap_or(false),
        calls: Vec::new(),
    };
    while i < n {
        let (c, pos) = ch[i];
        if is_ident_start(c) {
            let (word, j) = word_at(&ch, i);
            let inside_fn = !fn_stack.is_empty() || pending_fn.is_some();
            match word.as_str() {
                "impl" if !inside_fn => {
                    if let Some((ty, tr, brace)) = parse_impl_header(&ch, j) {
                        pending_impl = Some((ty, tr, pos.line));
                        i = brace;
                        continue;
                    }
                }
                "fn" if pending_fn.is_none() => {
                    if let Some((pf, end)) = parse_fn_sig(&ch, j, pos.line) {
                        pending_fn = Some(pf);
                        i = end;
                        continue;
                    }
                }
                "struct" | "enum" if !inside_fn => {
                    if let Some((td, end)) = parse_type_def(&ch, j, word == "enum", file) {
                        types.push(td);
                        i = end;
                        continue;
                    }
                }
                _ => {}
            }
            i = j;
            continue;
        }
        match c {
            '{' => {
                depth += 1;
                if let Some((ty, tr, line)) = pending_impl.take() {
                    impls.push(ImplBlock {
                        file,
                        line,
                        type_name: strip_generics(&ty),
                        trait_name: tr.map(|t| strip_generics(&t)),
                        test: sf.test_lines.get(line).copied().unwrap_or(false),
                    });
                    impl_stack.push((
                        impls
                            .last()
                            .map(|b| b.type_name.clone())
                            .unwrap_or_default(),
                        None,
                        depth,
                    ));
                } else if let Some(pf) = pending_fn.take() {
                    fn_stack.push((fns.len(), depth, i));
                    fns.push(new_fn(pf, &impl_stack));
                }
            }
            '}' => {
                if let Some(&(idx, d, open_i)) = fn_stack.last() {
                    if d == depth {
                        fns[idx].body = Some(fns[idx].sig_line..pos.line + 1);
                        fns[idx].calls = extract_calls(&ch, open_i + 1, i);
                        fn_stack.pop();
                    }
                }
                if let Some((_, _, d)) = impl_stack.last() {
                    if *d == depth {
                        impl_stack.pop();
                    }
                }
                depth -= 1;
            }
            ';' => {
                if let Some(pf) = pending_fn.take() {
                    fns.push(new_fn(pf, &impl_stack));
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Extract call sites between `start` and `end` (fn body interior).
fn extract_calls(ch: &[(char, Pos)], start: usize, end: usize) -> Vec<CallSite> {
    // (site, name_start index, args close index).
    let mut raw: Vec<(CallSite, usize, usize)> = Vec::new();
    let mut i = start;
    while i < end {
        let (c, pos) = ch[i];
        if !is_ident_start(c) {
            i += 1;
            continue;
        }
        let (word, j) = word_at(ch, i);
        if KEYWORDS.contains(&word.as_str()) {
            i = j;
            continue;
        }
        let Some(k) = next_nonws(ch, j) else { break };
        if k >= end || ch[k].0 != '(' || k != j {
            // Only treat `name(` with no gap as a call: `name (` does not
            // occur in rustfmt'd code, and requiring adjacency avoids
            // false positives on `x (y)` expressions split oddly.
            if k < end && ch[k].0 == '!' {
                // Macro: skip its name; arguments are scanned normally.
                i = k + 1;
                continue;
            }
            i = j;
            continue;
        }
        // Classify by the char directly before the name.
        let prev = if i > start { Some(ch[i - 1].0) } else { None };
        let kind = if prev == Some('.') {
            CallKind::Method {
                receiver: receiver_text(ch, i - 1, start),
            }
        } else if prev == Some(':') && i >= 2 && ch[i - 2].0 == ':' {
            CallKind::Free {
                qualifier: Some(path_text(ch, i - 2, start)),
            }
        } else {
            CallKind::Free { qualifier: None }
        };
        let (first_arg, close) = first_arg_and_close(ch, k, end);
        raw.push((
            CallSite {
                name: word,
                kind,
                pos,
                first_arg,
                spawned: false,
            },
            i,
            close,
        ));
        i = k + 1; // descend into the argument list
    }
    // Mark sites inside the arguments of any `spawn(...)` call.
    let spans: Vec<(usize, usize)> = raw
        .iter()
        .filter(|(s, _, _)| s.name == "spawn")
        .map(|&(_, ns, cl)| (ns, cl))
        .collect();
    for (site, ns, _) in raw.iter_mut() {
        if spans.iter().any(|&(s, e)| *ns > s && *ns < e) {
            site.spawned = true;
        }
    }
    raw.into_iter().map(|(s, _, _)| s).collect()
}

/// Receiver text for a method call: walk backwards from the `.`
/// collecting idents, `.`, `?`, and balanced `()`/`[]` groups.
fn receiver_text(ch: &[(char, Pos)], dot: usize, start: usize) -> String {
    let mut k = dot; // index of the `.`
    let mut rev = Vec::new();
    let mut depth = 0i32;
    while k > start {
        // rustfmt breaks a chain before its `.` (`self⏎.pool⏎.lock()`):
        // whitespace ahead of a `.` does not end the receiver.
        if ch[k].0 == '.' {
            while k > start && ch[k - 1].0.is_whitespace() {
                k -= 1;
            }
        }
        if k == start {
            break;
        }
        let c = ch[k - 1].0;
        let ok = match c {
            ')' | ']' => {
                depth += 1;
                true
            }
            '(' | '[' => {
                if depth == 0 {
                    false
                } else {
                    depth -= 1;
                    true
                }
            }
            '.' | '?' => true,
            c if is_ident_char(c) => true,
            _ => depth > 0,
        };
        if !ok {
            break;
        }
        rev.push(c);
        k -= 1;
    }
    rev.iter().rev().filter(|c| !c.is_whitespace()).collect()
}

/// Path text for a qualified free call: walk backwards from the `::`
/// collecting idents and `::` pairs.
fn path_text(ch: &[(char, Pos)], colon2: usize, start: usize) -> String {
    let mut k = colon2; // index just past the path (at the second ':')
    let mut rev = Vec::new();
    while k > start {
        let c = ch[k - 1].0;
        if is_ident_char(c) || c == ':' {
            rev.push(c);
            k -= 1;
        } else {
            break;
        }
    }
    let s: String = rev.iter().rev().collect();
    s.trim_matches(':').to_owned()
}

/// First argument (when a plain ident, `&`/`&mut` stripped) and the
/// index of the matching close paren.
fn first_arg_and_close(ch: &[(char, Pos)], open: usize, end: usize) -> (Option<String>, usize) {
    let mut depth = 0i32;
    let mut first = String::new();
    let mut first_done = false;
    let mut k = open;
    while k < end {
        match ch[k].0 {
            '(' | '[' => {
                depth += 1;
                if depth > 1 && !first_done {
                    first.push(ch[k].0);
                }
            }
            ')' | ']' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
                if !first_done {
                    first.push(ch[k].0);
                }
            }
            ',' if depth == 1 => first_done = true,
            c => {
                if depth >= 1 && !first_done {
                    first.push(c);
                }
            }
        }
        k += 1;
    }
    let t = first.trim();
    let t = t.strip_prefix('&').unwrap_or(t).trim_start();
    let t = t.strip_prefix("mut ").unwrap_or(t).trim();
    let arg = if !t.is_empty()
        && t.chars().all(is_ident_char)
        && !t.chars().all(|c| c.is_ascii_digit())
    {
        Some(t.to_owned())
    } else {
        None
    };
    (arg, k)
}

// ---------------------------------------------------------------------
// Lock model
// ---------------------------------------------------------------------

/// One lock acquisition event.
#[derive(Debug, Clone)]
pub struct Acq {
    /// Lock identity, `<OwnerType>.<field>`.
    pub lock: String,
    pub pos: Pos,
    /// Locks already held when this one is taken.
    pub held: Vec<String>,
}

/// One blocking-wait site.
#[derive(Debug, Clone)]
pub struct BlockSite {
    /// Human name of the primitive (`Condvar::wait`, `.recv()`, …).
    pub what: String,
    pub pos: Pos,
    /// Locks still held across the wait (a condvar wait excludes the
    /// guard it atomically releases).
    pub held: Vec<String>,
}

/// Per-fn lock facts from the statement machine.
#[derive(Debug, Default)]
pub struct FnLockInfo {
    pub acqs: Vec<Acq>,
    /// `(call index into FnItem::calls, held locks, resolved callees)`
    /// for every resolved, non-spawned call.
    pub calls: Vec<(usize, Vec<String>, Vec<usize>)>,
    pub blocking: Vec<BlockSite>,
    /// Locks acquired by this fn or (transitively) its callees.
    pub trans: BTreeSet<String>,
}

/// One edge of the static lock acquisition graph: `to` is acquired while
/// `from` is held.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    pub file: usize,
    pub pos: Pos,
    /// Witness: the fn holding `from` and the call chain to the
    /// acquisition of `to`.
    pub via: String,
}

/// How a lock entered a fn's transitive acquisition set.
#[derive(Debug, Clone)]
enum Origin {
    Direct(Pos),
    Via(usize), // callee fn index
}

/// The static lock model over the configured scope files.
pub struct LockModel {
    /// Parallel to `Workspace::fns`; `Some` for analyzed in-scope fns.
    pub info: Vec<Option<FnLockInfo>>,
    pub edges: Vec<LockEdge>,
    /// Sorted node set (every acquired lock).
    pub locks: Vec<String>,
}

#[derive(Debug)]
struct HeldLock {
    lock: String,
    guard: Option<String>,
    depth: i32,
    temp: bool,
}

impl LockModel {
    pub fn build(ws: &Workspace<'_>, cfg: &LintConfig) -> Self {
        let in_scope: Vec<bool> = ws
            .fns
            .iter()
            .map(|f| {
                cfg.lock_order_files
                    .iter()
                    .any(|p| p == &ws.files[f.file].rel)
                    && !f.test
                    && f.body.is_some()
            })
            .collect();
        // Pre-pass: direct lock identities per fn (used both for the
        // fn's own acquisitions and for guard-returning helpers).
        let mut direct: Vec<Vec<String>> = vec![Vec::new(); ws.fns.len()];
        for (fi, f) in ws.fns.iter().enumerate() {
            if !in_scope[fi] {
                continue;
            }
            for call in &f.calls {
                if call.name == "lock" && !call.spawned {
                    if let CallKind::Method { receiver } = &call.kind {
                        if let Some(l) = lock_identity(ws, fi, receiver) {
                            if !direct[fi].contains(&l) {
                                direct[fi].push(l);
                            }
                        }
                    }
                }
            }
        }
        let mut info: Vec<Option<FnLockInfo>> = Vec::with_capacity(ws.fns.len());
        for fi in 0..ws.fns.len() {
            if in_scope[fi] {
                info.push(Some(analyze_fn(ws, fi, &in_scope, &direct)));
            } else {
                info.push(None);
            }
        }
        // Fixpoint: transitive acquisition sets with witness origins.
        let mut how: BTreeMap<(usize, String), Origin> = BTreeMap::new();
        for (fi, fl) in info.iter_mut().enumerate() {
            let Some(fl) = fl else { continue };
            for a in &fl.acqs {
                if fl.trans.insert(a.lock.clone()) {
                    how.insert((fi, a.lock.clone()), Origin::Direct(a.pos));
                }
            }
        }
        loop {
            let mut changed = false;
            for fi in 0..info.len() {
                if info[fi].is_none() {
                    continue;
                }
                let mut add: Vec<(String, Origin)> = Vec::new();
                {
                    let fl = info[fi].as_ref().expect("checked above");
                    for (_, _, callees) in &fl.calls {
                        for &g in callees {
                            let Some(gl) = info.get(g).and_then(|x| x.as_ref()) else {
                                continue;
                            };
                            for l in &gl.trans {
                                if !fl.trans.contains(l) && !add.iter().any(|(al, _)| al == l) {
                                    add.push((l.clone(), Origin::Via(g)));
                                }
                            }
                        }
                    }
                }
                if !add.is_empty() {
                    changed = true;
                    let fl = info[fi].as_mut().expect("checked above");
                    for (l, o) in add {
                        fl.trans.insert(l.clone());
                        how.entry((fi, l)).or_insert(o);
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Edges.
        let mut edges = Vec::new();
        let mut locks: BTreeSet<String> = BTreeSet::new();
        for (fi, fl) in info.iter().enumerate() {
            let Some(fl) = fl else { continue };
            let f = &ws.fns[fi];
            for a in &fl.acqs {
                locks.insert(a.lock.clone());
                for h in &a.held {
                    edges.push(LockEdge {
                        from: h.clone(),
                        to: a.lock.clone(),
                        file: f.file,
                        pos: a.pos,
                        via: format!("`{}`", fn_label(ws, fi)),
                    });
                }
            }
            for (ci, held, callees) in &fl.calls {
                if held.is_empty() {
                    continue;
                }
                let call_pos = f.calls[*ci].pos;
                for &g in callees {
                    let Some(gl) = info.get(g).and_then(|x| x.as_ref()) else {
                        continue;
                    };
                    for l in &gl.trans {
                        for h in held {
                            edges.push(LockEdge {
                                from: h.clone(),
                                to: l.clone(),
                                file: f.file,
                                pos: call_pos,
                                via: format!(
                                    "`{}` → {}",
                                    fn_label(ws, fi),
                                    chain_string(ws, &how, g, l, 0)
                                ),
                            });
                        }
                    }
                }
            }
        }
        for e in &edges {
            locks.insert(e.from.clone());
            locks.insert(e.to.clone());
        }
        LockModel {
            info,
            edges,
            locks: locks.into_iter().collect(),
        }
    }
}

fn fn_label(ws: &Workspace<'_>, fi: usize) -> String {
    let f = &ws.fns[fi];
    match &f.impl_type {
        Some(t) => format!("{}::{}", t, f.name),
        None => f.name.clone(),
    }
}

fn chain_string(
    ws: &Workspace<'_>,
    how: &BTreeMap<(usize, String), Origin>,
    fi: usize,
    lock: &str,
    depth: usize,
) -> String {
    if depth > 12 {
        return "…".to_owned();
    }
    match how.get(&(fi, lock.to_owned())) {
        Some(Origin::Direct(pos)) => {
            let f = &ws.fns[fi];
            format!(
                "`{}` ({}:{})",
                fn_label(ws, fi),
                ws.files[f.file].rel,
                pos.line + 1
            )
        }
        Some(Origin::Via(g)) => format!(
            "`{}` → {}",
            fn_label(ws, fi),
            chain_string(ws, how, *g, lock, depth + 1)
        ),
        None => format!("`{}`", fn_label(ws, fi)),
    }
}

/// Lock identity for a `.lock()` receiver: `<OwnerType>.<field>`.
///
/// Typed receivers resolve through struct defs; a bare local whose name
/// uniquely matches one `Mutex<…>` field in the workspace falls back to
/// that field (covers `cache.lock()` on a cloned `Arc<Mutex<…>>`).
/// `None` for receivers that are not mutex fields (e.g. `stdin.lock()`).
pub fn lock_identity(ws: &Workspace<'_>, caller: usize, receiver: &str) -> Option<String> {
    let segs = split_receiver(receiver);
    let field = segs.last()?;
    if field.contains('(') || field.contains('[') {
        return None;
    }
    let f = &ws.fns[caller];
    // Typed prefix: owner type of the last field.
    if segs.len() >= 2 {
        let prefix = segs[..segs.len() - 1].join(".");
        if let Some(owner) = ws.receiver_type(caller, &prefix) {
            if let Some(td) = ws.type_def(&owner, f.file) {
                if let Some(fd) = td.fields.iter().find(|fl| &fl.name == field) {
                    if fd.ty.contains("Mutex") {
                        return Some(format!("{}.{}", owner, field));
                    }
                    return None;
                }
            }
        }
    } else if let Some(impl_ty) = &f.impl_type {
        // Bare ident matching a field of the enclosing impl type.
        if let Some(td) = ws.type_def(impl_ty, f.file) {
            if let Some(fd) = td.fields.iter().find(|fl| &fl.name == field) {
                if fd.ty.contains("Mutex") {
                    return Some(format!("{}.{}", impl_ty, field));
                }
            }
        }
    }
    // Unique workspace-wide Mutex field of that name.
    let mut owners: Vec<&str> = ws
        .types
        .iter()
        .filter(|t| {
            t.fields
                .iter()
                .any(|fl| &fl.name == field && fl.ty.contains("Mutex"))
        })
        .map(|t| t.name.as_str())
        .collect();
    owners.dedup();
    if owners.len() == 1 {
        return Some(format!("{}.{}", owners[0], field));
    }
    None
}

/// Result-adapter methods that preserve a `LockResult` guard chain; any
/// other trailing method consumes the guard within the statement.
const GUARD_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else", "map_err"];

/// Blocking primitives by method name.
const RECV_NAMES: &[&str] = &["recv", "recv_timeout", "recv_deadline"];
const WAIT_NAMES: &[&str] = &["wait", "wait_timeout", "wait_while", "wait_timeout_while"];

/// The statement-level held-lock machine for one fn.
fn analyze_fn(
    ws: &Workspace<'_>,
    fi: usize,
    in_scope: &[bool],
    direct: &[Vec<String>],
) -> FnLockInfo {
    let f = &ws.fns[fi];
    let sf = &ws.files[f.file];
    let body = f.body.clone().expect("in-scope fns have bodies");
    let mut out = FnLockInfo::default();
    let mut held: Vec<HeldLock> = Vec::new();
    let mut depth = 0i32;
    let mut pd = 0i32; // paren/bracket depth
    let mut started = false; // seen the opening brace of the body yet?
    let mut stmt: Vec<(char, Pos)> = Vec::new();
    let mut next_call = 0usize; // pointer into f.calls (sorted by pos)
    let calls = &f.calls;

    // Iterate body chars; the first `{` opens the body (depth 1), and
    // the machine stops when depth returns to 0.
    'outer: for li in body.clone() {
        let line = match sf.masked.get(li) {
            Some(l) => l,
            None => break,
        };
        for (ci, c) in line.char_indices() {
            let pos = Pos { line: li, col: ci };
            if !started {
                if c == '{' {
                    started = true;
                    depth = 1;
                }
                continue;
            }
            match c {
                '(' | '[' => {
                    pd += 1;
                    stmt.push((c, pos));
                }
                ')' | ']' => {
                    pd -= 1;
                    stmt.push((c, pos));
                }
                '{' if pd == 0 => {
                    flush_stmt(
                        ws,
                        fi,
                        &mut stmt,
                        &mut next_call,
                        calls,
                        &mut held,
                        depth,
                        true,
                        in_scope,
                        direct,
                        &mut out,
                    );
                    depth += 1;
                }
                '}' if pd == 0 => {
                    flush_stmt(
                        ws,
                        fi,
                        &mut stmt,
                        &mut next_call,
                        calls,
                        &mut held,
                        depth,
                        false,
                        in_scope,
                        direct,
                        &mut out,
                    );
                    depth -= 1;
                    held.retain(|h| h.depth <= depth);
                    if depth == 0 {
                        break 'outer;
                    }
                }
                ';' if pd == 0 => {
                    stmt.push((c, pos));
                    flush_stmt(
                        ws,
                        fi,
                        &mut stmt,
                        &mut next_call,
                        calls,
                        &mut held,
                        depth,
                        false,
                        in_scope,
                        direct,
                        &mut out,
                    );
                }
                _ => stmt.push((c, pos)),
            }
        }
        stmt.push((
            ' ',
            Pos {
                line: li,
                col: line.len(),
            },
        ));
    }
    out
}

/// Binding shape of a statement.
enum Binding {
    None,
    /// `let g = …` / `g = …`: guard lives at the current block depth.
    Here(String),
    /// `if let P(g) = … {` / `while let …`: guard lives in the block
    /// the statement opens.
    NextBlock(String),
}

fn parse_binding(text: &str, block_follows: bool) -> Binding {
    let t = text.trim_start();
    let iflet = t
        .strip_prefix("if let ")
        .or_else(|| t.strip_prefix("while let "));
    if let Some(rest) = iflet {
        let Some(eq) = top_eq(rest) else {
            return Binding::None;
        };
        let pat = &rest[..eq];
        // Last ident in the pattern (e.g. `Ok(mut cache)` → `cache`).
        let mut last = None;
        let mut cur = String::new();
        for c in pat.chars() {
            if is_ident_char(c) {
                cur.push(c);
            } else if !cur.is_empty() {
                last = Some(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            last = Some(cur);
        }
        return match last {
            Some(v) if block_follows && v != "mut" => Binding::NextBlock(v),
            _ => Binding::None,
        };
    }
    if let Some(rest) = t.strip_prefix("let ") {
        let rest = rest.trim_start();
        let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
        let var: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
        if var.is_empty() {
            return Binding::None;
        }
        let after = rest[var.len()..].trim_start();
        // Allow `let g: Type = …`.
        let after = match after.strip_prefix(':') {
            Some(a) => match a.find('=') {
                Some(e) => &a[e..],
                None => return Binding::None,
            },
            None => after,
        };
        if after.starts_with('=') && !after.starts_with("==") {
            return Binding::Here(var);
        }
        return Binding::None;
    }
    // Reassignment: `g = …` (not `==`, `+=`, …).
    let var: String = t.chars().take_while(|&c| is_ident_char(c)).collect();
    if !var.is_empty() {
        let after = t[var.len()..].trim_start();
        if after.starts_with('=') && !after.starts_with("==") {
            return Binding::Here(var);
        }
    }
    Binding::None
}

/// Byte offset of the first top-level `=` (not `==`) in `s`.
fn top_eq(s: &str) -> Option<usize> {
    let mut depth = 0i32;
    let bytes = s.as_bytes();
    for (i, c) in s.char_indices() {
        match c {
            '(' | '[' | '{' | '<' => depth += 1,
            ')' | ']' | '}' | '>' => depth -= 1,
            '=' if depth == 0 => {
                if bytes.get(i + 1) == Some(&b'=') || (i > 0 && bytes[i - 1] == b'=') {
                    continue;
                }
                return Some(i);
            }
            _ => {}
        }
    }
    None
}

/// True when the chars of `text` after offset `from` form only
/// guard-preserving adapters (`.unwrap()`, `.expect(…)`, `?`, …) up to
/// an optional trailing `;`.
fn guard_chain_only(text: &str, from: usize) -> bool {
    let mut rest = text[from..].trim();
    loop {
        rest = rest.trim_start();
        if rest.is_empty() || rest == ";" {
            return true;
        }
        if let Some(r) = rest.strip_prefix('?') {
            rest = r;
            continue;
        }
        if let Some(r) = rest.strip_prefix('.') {
            let name: String = r.chars().take_while(|&c| is_ident_char(c)).collect();
            if !GUARD_ADAPTERS.contains(&name.as_str()) {
                return false;
            }
            let after = &r[name.len()..];
            if !after.starts_with('(') {
                return false;
            }
            // Skip the balanced argument list.
            let mut depth = 0i32;
            let mut cut = None;
            for (i, c) in after.char_indices() {
                match c {
                    '(' => depth += 1,
                    ')' => {
                        depth -= 1;
                        if depth == 0 {
                            cut = Some(i + 1);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            match cut {
                Some(cp) => rest = &after[cp..],
                None => return false,
            }
            continue;
        }
        return false;
    }
}

#[expect(
    clippy::too_many_arguments,
    reason = "one step of the per-fn held-lock machine; its state is these locals"
)]
fn flush_stmt(
    ws: &Workspace<'_>,
    fi: usize,
    stmt: &mut Vec<(char, Pos)>,
    next_call: &mut usize,
    calls: &[CallSite],
    held: &mut Vec<HeldLock>,
    depth: i32,
    block_follows: bool,
    in_scope: &[bool],
    direct: &[Vec<String>],
    out: &mut FnLockInfo,
) {
    let chars = std::mem::take(stmt);
    if chars.is_empty() && *next_call >= calls.len() {
        return;
    }
    let text: String = chars.iter().map(|&(c, _)| c).collect();
    let last_pos = chars.last().map(|&(_, p)| p);
    // Offsets of each char for pos→offset mapping.
    let offsets: Vec<(Pos, usize)> = {
        let mut v = Vec::with_capacity(chars.len());
        let mut off = 0;
        for &(c, p) in &chars {
            v.push((p, off));
            off += c.len_utf8();
        }
        v
    };
    let binding = parse_binding(&text, block_follows);
    // Consume call sites inside this statement, in order.
    let mut sites: Vec<usize> = Vec::new();
    while *next_call < calls.len() {
        let p = calls[*next_call].pos;
        let within = match last_pos {
            Some(lp) => p <= lp,
            None => false,
        };
        if within {
            sites.push(*next_call);
            *next_call += 1;
        } else {
            break;
        }
    }
    let held_names = |held: &Vec<HeldLock>| -> Vec<String> {
        let mut v: Vec<String> = held.iter().map(|h| h.lock.clone()).collect();
        v.sort();
        v.dedup();
        v
    };
    let bind_depth = match &binding {
        Binding::NextBlock(_) => depth + 1,
        _ => depth,
    };
    for si in sites {
        let call = &calls[si];
        if call.spawned {
            continue;
        }
        let off = offsets
            .iter()
            .find(|&&(p, _)| p == call.pos)
            .map(|&(_, o)| o);
        // 1. Condvar wait on a held guard: atomically releases it.
        if WAIT_NAMES.contains(&call.name.as_str()) {
            if let Some(arg) = &call.first_arg {
                if let Some(h) = held.iter().find(|h| h.guard.as_deref() == Some(arg)) {
                    let released = h.lock.clone();
                    let mut still: Vec<String> = held
                        .iter()
                        .filter(|x| x.lock != released)
                        .map(|x| x.lock.clone())
                        .collect();
                    still.sort();
                    still.dedup();
                    out.blocking.push(BlockSite {
                        what: "Condvar::wait".to_owned(),
                        pos: call.pos,
                        held: still,
                    });
                    continue;
                }
            }
        }
        // 2. Direct `.lock()`.
        if call.name == "lock" {
            if let CallKind::Method { receiver } = &call.kind {
                if let Some(lock) = lock_identity(ws, fi, receiver) {
                    let h = held_names(held);
                    out.acqs.push(Acq {
                        lock: lock.clone(),
                        pos: call.pos,
                        held: h,
                    });
                    acquire(held, &text, off, &binding, bind_depth, lock);
                    continue;
                }
            }
            continue;
        }
        // 3. `drop(g)`.
        if call.name == "drop" && matches!(call.kind, CallKind::Free { qualifier: None }) {
            if let Some(g) = &call.first_arg {
                held.retain(|h| h.guard.as_deref() != Some(g.as_str()));
            }
            continue;
        }
        // 4. Resolve.
        let resolved = ws.resolve(fi, call);
        // 4a. Guard-returning helper: its direct locks are acquired here.
        let helper_locks: Vec<String> = resolved
            .iter()
            .filter(|&&g| {
                in_scope.get(g).copied().unwrap_or(false) && ws.fns[g].ret.contains("MutexGuard")
            })
            .flat_map(|&g| direct[g].iter().cloned())
            .collect();
        if !helper_locks.is_empty() {
            for lock in helper_locks {
                let h = held_names(held);
                out.acqs.push(Acq {
                    lock: lock.clone(),
                    pos: call.pos,
                    held: h,
                });
                acquire(held, &text, off, &binding, bind_depth, lock);
            }
            continue;
        }
        // 4b. Blocking primitives that did not resolve to workspace fns.
        if resolved.is_empty() {
            let blocking = if RECV_NAMES.contains(&call.name.as_str()) {
                Some(format!(".{}()", call.name))
            } else if WAIT_NAMES.contains(&call.name.as_str()) || call.name == "join" {
                matches!(call.kind, CallKind::Method { .. }).then(|| format!(".{}()", call.name))
            } else {
                None
            };
            if let Some(what) = blocking {
                out.blocking.push(BlockSite {
                    what,
                    pos: call.pos,
                    held: held_names(held),
                });
            }
            continue;
        }
        // 4c. Ordinary resolved call.
        out.calls.push((si, held_names(held), resolved));
    }
    // Statement-temporary guards die here.
    held.retain(|h| !h.temp);
}

/// Record a new acquisition into the held set: guard-bound when the
/// statement binds a var and the chain after the call is only
/// guard-preserving adapters; statement-temporary otherwise.
fn acquire(
    held: &mut Vec<HeldLock>,
    text: &str,
    call_off: Option<usize>,
    binding: &Binding,
    bind_depth: i32,
    lock: String,
) {
    let bound_var = match binding {
        Binding::Here(v) | Binding::NextBlock(v) => Some(v.clone()),
        Binding::None => None,
    };
    let as_guard = match (call_off, &bound_var) {
        (Some(off), Some(_)) => {
            // Find the close paren of this call, then check the chain.
            let after = &text[off..];
            let open = after.find('(');
            let close = open.and_then(|o| {
                let mut depth = 0i32;
                for (i, c) in after[o..].char_indices() {
                    match c {
                        '(' => depth += 1,
                        ')' => {
                            depth -= 1;
                            if depth == 0 {
                                return Some(off + o + i + 1);
                            }
                        }
                        _ => {}
                    }
                }
                None
            });
            match close {
                Some(cp) => guard_chain_only(text, cp),
                None => false,
            }
        }
        _ => false,
    };
    if as_guard {
        let v = bound_var.expect("guard binding checked");
        // Rebinding a var releases whatever it previously guarded.
        held.retain(|h| h.guard.as_deref() != Some(v.as_str()));
        held.push(HeldLock {
            lock,
            guard: Some(v),
            depth: bind_depth,
            temp: false,
        });
    } else {
        held.push(HeldLock {
            lock,
            guard: None,
            depth: bind_depth,
            temp: true,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    fn ws_of(files: &[(&str, &str)]) -> Vec<SourceFile> {
        files
            .iter()
            .map(|(rel, text)| SourceFile::parse(rel, text))
            .collect()
    }

    fn fn_named<'w>(ws: &'w Workspace<'_>, name: &str) -> (usize, &'w FnItem) {
        ws.fns
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .unwrap_or_else(|| panic!("fn {name} not found"))
    }

    #[test]
    fn extracts_fns_impls_and_types() {
        let files = ws_of(&[(
            "a.rs",
            "pub struct Shared { state: Mutex<u32>, cv: Condvar }\n\
             impl Shared {\n    pub fn locked(&self) -> MutexGuard<'_, u32> {\n        self.state.lock().unwrap()\n    }\n}\n\
             pub enum Msg { A, B { x: u64, y: u32 }, C(bool) }\n\
             impl Message for Msg { fn bit_size(&self) -> u64 { 0 } }\n\
             fn free_one() { }\n",
        )]);
        let ws = Workspace::build(&files);
        assert_eq!(ws.types.len(), 2);
        let shared = &ws.types[0];
        assert_eq!(shared.name, "Shared");
        assert_eq!(shared.fields.len(), 2);
        assert_eq!(shared.fields[0].ty, "Mutex<u32>");
        let msg = &ws.types[1];
        assert_eq!(msg.kind, TypeKind::Enum);
        assert_eq!(msg.variants.len(), 3);
        assert_eq!(msg.variants[1].fields.len(), 2);
        assert_eq!(msg.variants[2].fields[0].ty, "bool");
        let (_, locked) = fn_named(&ws, "locked");
        assert_eq!(locked.impl_type.as_deref(), Some("Shared"));
        assert!(locked.ret.contains("MutexGuard"));
        let (_, free) = fn_named(&ws, "free_one");
        assert!(free.impl_type.is_none());
        let msg_impl = ws
            .impls
            .iter()
            .find(|b| b.trait_name.as_deref() == Some("Message"))
            .expect("Message impl");
        assert_eq!(msg_impl.type_name, "Msg");
    }

    #[test]
    fn impl_for_unit_target() {
        let files = ws_of(&[(
            "a.rs",
            "impl Message for () { fn bit_size(&self) -> u64 { 1 } }\n\
             impl Message for u64 { fn bit_size(&self) -> u64 { 64 } }\n",
        )]);
        let ws = Workspace::build(&files);
        let names: Vec<&str> = ws.impls.iter().map(|b| b.type_name.as_str()).collect();
        assert_eq!(names, vec!["()", "u64"]);
    }

    #[test]
    fn method_vs_free_fn_shadowing() {
        // A free `fill()` call must not resolve to the method; a
        // `self.fill()` call must not resolve to the free fn.
        let files = ws_of(&[(
            "a.rs",
            "pub struct Slot;\n\
             impl Slot {\n    fn fill(&self) { }\n    fn both(&self) {\n        self.fill();\n        fill();\n    }\n}\n\
             fn fill() { }\n",
        )]);
        let ws = Workspace::build(&files);
        let (bi, both) = fn_named(&ws, "both");
        assert_eq!(both.calls.len(), 2);
        let method_call = &both.calls[0];
        let free_call = &both.calls[1];
        let m = ws.resolve(bi, method_call);
        assert_eq!(m.len(), 1);
        assert_eq!(ws.fns[m[0]].impl_type.as_deref(), Some("Slot"));
        let fr = ws.resolve(bi, free_call);
        assert_eq!(fr.len(), 1);
        assert!(ws.fns[fr[0]].impl_type.is_none());
    }

    #[test]
    fn cross_module_resolution_via_typed_param() {
        let files = ws_of(&[
            (
                "pool.rs",
                "pub struct Shared { state: Mutex<u32> }\n\
                 impl Shared {\n    pub fn pop(&self) -> u32 { 0 }\n}\n",
            ),
            (
                "worker.rs",
                "fn worker_loop(shared: &Shared<P>, n: u32) {\n    shared.pop();\n    n.pop();\n}\n",
            ),
        ]);
        let ws = Workspace::build(&files);
        let (wi, w) = fn_named(&ws, "worker_loop");
        assert_eq!(w.params[0], ("shared".to_owned(), "&Shared<P>".to_owned()));
        let typed = ws.resolve(wi, &w.calls[0]);
        assert_eq!(typed.len(), 1, "typed receiver resolves cross-module");
        assert_eq!(ws.fns[typed[0]].name, "pop");
        // `n: u32` is a known non-workspace type: no fallback.
        let untyped = ws.resolve(wi, &w.calls[1]);
        assert!(untyped.is_empty(), "std receiver resolves to nothing");
    }

    #[test]
    fn field_chain_and_return_chain_receivers() {
        let files = ws_of(&[(
            "a.rs",
            "pub struct Inner { v: u32 }\n\
             impl Inner {\n    fn touch(&self) { }\n}\n\
             pub struct Outer { inner: Arc<Inner> }\n\
             impl Outer {\n\
                 fn giver(&self) -> Inner { Inner { v: 0 } }\n\
                 fn go(&self) {\n        self.inner.touch();\n        self.giver().touch();\n        self.inner.missing_method();\n    }\n\
             }\n",
        )]);
        let ws = Workspace::build(&files);
        let (gi, go) = fn_named(&ws, "go");
        let calls: Vec<&CallSite> = go.calls.iter().collect();
        let c0 = ws.resolve(gi, calls[0]);
        assert_eq!(c0.len(), 1, "field chain through Arc resolves");
        let giver_chain = calls
            .iter()
            .find(|c| {
                c.name == "touch"
                    && matches!(&c.kind, CallKind::Method { receiver } if receiver.contains("giver"))
            })
            .expect("chained call");
        let c1 = ws.resolve(gi, giver_chain);
        assert_eq!(c1.len(), 1, "return-type chaining resolves");
        let miss = calls.iter().find(|c| c.name == "missing_method").unwrap();
        let c2 = ws.resolve(gi, miss);
        assert!(c2.is_empty(), "known type without the method: no fallback");
    }

    #[test]
    fn spawn_arguments_are_marked() {
        let files = ws_of(&[(
            "a.rs",
            "fn launcher() {\n    helper();\n    spawn(move || worker(1));\n    helper();\n}\n\
             fn worker(_x: u32) { }\n\
             fn helper() { }\n",
        )]);
        let ws = Workspace::build(&files);
        let (_, l) = fn_named(&ws, "launcher");
        let w = l.calls.iter().find(|c| c.name == "worker").unwrap();
        assert!(w.spawned, "call inside spawn args runs on another thread");
        assert!(l
            .calls
            .iter()
            .filter(|c| c.name == "helper")
            .all(|c| !c.spawned));
    }

    #[test]
    fn lock_model_tracks_guards_drops_and_condvar_waits() {
        let files = ws_of(&[(
            "m.rs",
            "pub struct S { a: Mutex<u32>, b: Mutex<u32>, cv: Condvar }\n\
             impl S {\n\
                 fn nested(&self) {\n\
                     let ga = self.a.lock().unwrap();\n\
                     let gb = self.b.lock().unwrap();\n\
                     drop(gb);\n\
                     drop(ga);\n\
                 }\n\
                 fn waits(&self) {\n\
                     let mut ga = self.a.lock().unwrap();\n\
                     ga = self.cv.wait(ga).unwrap();\n\
                     drop(ga);\n\
                 }\n\
                 fn temp(&self) {\n\
                     self.a.lock().unwrap().checked_add(1);\n\
                     let gb = self.b.lock().unwrap();\n\
                     drop(gb);\n\
                 }\n\
             }\n",
        )]);
        let mut cfg = crate::config::LintConfig::repo();
        cfg.lock_order_files = vec!["m.rs".into()];
        let ws = Workspace::build(&files);
        let model = LockModel::build(&ws, &cfg);
        // nested: b acquired under a → one edge S.a → S.b.
        assert!(
            model.edges.iter().any(|e| e.from == "S.a" && e.to == "S.b"),
            "edges: {:?}",
            model.edges
        );
        // waits: the condvar wait releases S.a → no held locks.
        let (wi, _) = fn_named(&ws, "waits");
        let info = model.info[wi].as_ref().expect("in scope");
        assert_eq!(info.blocking.len(), 1);
        assert_eq!(info.blocking[0].what, "Condvar::wait");
        assert!(info.blocking[0].held.is_empty(), "wait releases its guard");
        // temp: the un-bound acquisition dies at statement end → no
        // a→b edge from `temp`.
        let (ti, _) = fn_named(&ws, "temp");
        let tinfo = model.info[ti].as_ref().expect("in scope");
        assert!(
            tinfo
                .acqs
                .iter()
                .all(|a| a.lock != "S.b" || a.held.is_empty()),
            "temporary guard must not leak into the next statement: {:?}",
            tinfo.acqs
        );
    }

    #[test]
    fn lock_model_interprocedural_edges() {
        let files = ws_of(&[(
            "m.rs",
            "pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
                 fn inner(&self) {\n\
                     let gb = self.b.lock().unwrap();\n\
                     drop(gb);\n\
                 }\n\
                 fn outer(&self) {\n\
                     let ga = self.a.lock().unwrap();\n\
                     self.inner();\n\
                     drop(ga);\n\
                 }\n\
             }\n",
        )]);
        let mut cfg = crate::config::LintConfig::repo();
        cfg.lock_order_files = vec!["m.rs".into()];
        let ws = Workspace::build(&files);
        let model = LockModel::build(&ws, &cfg);
        let e = model
            .edges
            .iter()
            .find(|e| e.from == "S.a" && e.to == "S.b")
            .expect("interprocedural edge");
        assert!(
            e.via.contains("outer"),
            "witness names the caller: {}",
            e.via
        );
        assert!(
            e.via.contains("inner"),
            "witness names the callee: {}",
            e.via
        );
    }

    #[test]
    fn guard_returning_helper_acquires_in_caller() {
        let files = ws_of(&[(
            "m.rs",
            "pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
                 fn locked(&self) -> MutexGuard<'_, u32> {\n\
                     self.a.lock().unwrap()\n\
                 }\n\
                 fn caller(&self) {\n\
                     let g = self.locked();\n\
                     let gb = self.b.lock().unwrap();\n\
                     drop(gb);\n\
                     drop(g);\n\
                 }\n\
             }\n",
        )]);
        let mut cfg = crate::config::LintConfig::repo();
        cfg.lock_order_files = vec!["m.rs".into()];
        let ws = Workspace::build(&files);
        let model = LockModel::build(&ws, &cfg);
        assert!(
            model.edges.iter().any(|e| e.from == "S.a" && e.to == "S.b"),
            "helper-returned guard held in caller: {:?}",
            model.edges
        );
    }
}
