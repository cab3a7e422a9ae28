//! The lint engine: project-invariant checks over the token stream of one
//! source file (plus one cross-file lint, `dead-pub`), with inline
//! `// audit:allow(<lint>): <reason>` suppressions.
//!
//! Lint catalog (deny-by-default unless noted):
//!
//! | name            | invariant |
//! |-----------------|-----------|
//! | `unsafe-safety` | every `unsafe` carries a `// SAFETY:` justification |
//! | `float-eq`      | no float `==`/`!=` (use `to_bits()`; annotate exact-zero fast paths) |
//! | `hash-container`| no `HashMap`/`HashSet` (nondeterministic iteration order) |
//! | `wall-clock`    | no `Instant`/`SystemTime`/OS randomness outside the bench layer |
//! | `thread-spawn`  | no `std::thread` spawning or scoped threads outside `pim-runtime` |
//! | `unwrap-ratchet`| `.unwrap()`/`.expect("")` in library code: counted, ratcheted |
//! | `partial-cmp-unwrap` | no `partial_cmp(..).unwrap()`/`.expect(..)` (panics on NaN; use `total_cmp`) |
//! | `dead-pub`      | no library `pub fn` whose only callers are its own file's unit tests |
//!
//! `unwrap-ratchet` is report-only: it produces a per-file count that the
//! baseline gate (see [`crate::baseline`]) compares against the committed
//! `audit_baseline.txt` — the count may shrink, never grow.
//!
//! A suppression marker is a comment of the form
//! `// audit:allow(<lint>): <reason>` placed on the offending line or on
//! the line directly above it. The reason is mandatory — every exception
//! is self-documenting — and markers that match no diagnostic are reported
//! (and fail `--check`) so stale exceptions cannot linger.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Token, TokenKind};

/// The deny-by-default lints. `unwrap-ratchet` is not listed here: it
/// emits a count, not diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    /// L1: `unsafe` blocks/impls/fns must carry a `// SAFETY:` comment.
    UnsafeSafety,
    /// L2: no `==`/`!=` with a float operand, and no bare float literal as
    /// a direct `assert_eq!`/`assert_ne!` operand.
    FloatEq,
    /// L3: no `HashMap`/`HashSet` — iteration order is nondeterministic.
    HashContainer,
    /// L4: no wall-clock or OS-randomness source outside the bench layer.
    WallClock,
    /// L5: no `std::thread` spawning or scoped threads outside `pim-runtime`.
    ThreadSpawn,
    /// L7: no `partial_cmp(..)` followed directly by `.unwrap()` or
    /// `.expect(..)` — it panics on NaN; `total_cmp` orders every float.
    PartialCmpUnwrap,
    /// L8: no library `pub fn` whose name, outside its own body, appears
    /// only in its own file's `#[cfg(test)]` modules. Cross-file: computed
    /// over the whole workspace by [`crate::audit_sources`], not by
    /// [`audit_file`].
    DeadPub,
}

impl Lint {
    /// All deny-by-default lints.
    pub const ALL: [Lint; 7] = [
        Lint::UnsafeSafety,
        Lint::FloatEq,
        Lint::HashContainer,
        Lint::WallClock,
        Lint::ThreadSpawn,
        Lint::PartialCmpUnwrap,
        Lint::DeadPub,
    ];

    /// The stable name used in diagnostics and `audit:allow(...)` markers.
    pub fn name(self) -> &'static str {
        match self {
            Lint::UnsafeSafety => "unsafe-safety",
            Lint::FloatEq => "float-eq",
            Lint::HashContainer => "hash-container",
            Lint::WallClock => "wall-clock",
            Lint::ThreadSpawn => "thread-spawn",
            Lint::PartialCmpUnwrap => "partial-cmp-unwrap",
            Lint::DeadPub => "dead-pub",
        }
    }

    /// Reverse of [`Lint::name`].
    pub fn from_name(name: &str) -> Option<Lint> {
        Lint::ALL.into_iter().find(|l| l.name() == name)
    }

    /// Whether this lint applies to the file at workspace-relative `path`.
    /// The bench layer owns the timers; `pim-runtime` owns the threads.
    pub fn applies_to(self, path: &str) -> bool {
        match self {
            Lint::WallClock => {
                !path.starts_with("crates/bench/") && !path.starts_with("crates/criterion-shim/")
            }
            Lint::ThreadSpawn => !path.starts_with("crates/runtime/"),
            _ => true,
        }
    }
}

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Lint name (or `audit-marker` for malformed suppressions).
    pub lint: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// The audit result for one file.
#[derive(Debug, Default)]
pub struct FileAudit {
    /// Violations that survived suppression, sorted by line.
    pub diagnostics: Vec<Diagnostic>,
    /// `unwrap-ratchet` count (`.unwrap()` + `.expect("")` outside
    /// `#[cfg(test)]` modules). `None` when the file is outside the
    /// ratchet scope.
    pub unwrap_count: Option<usize>,
    /// `audit:allow` markers that matched no diagnostic: `(line, lint)`.
    pub unused_allows: Vec<(u32, String)>,
}

struct Marker {
    line: u32,
    lint: Lint,
    used: bool,
}

/// Runs every applicable single-file lint over `source`. `path` is
/// workspace-relative with `/` separators and selects lint scopes;
/// `count_unwraps` enables the `unwrap-ratchet` count (library-crate
/// sources only).
pub fn audit_file(path: &str, source: &str, count_unwraps: bool) -> FileAudit {
    audit_tokens(path, &lex(source), count_unwraps, Vec::new())
}

/// [`audit_file`] over an already-lexed file, with `cross_file`
/// diagnostics (from [`dead_pub`]) joining the single-file ones before
/// the suppression markers apply.
pub(crate) fn audit_tokens(
    path: &str,
    tokens: &[Token<'_>],
    count_unwraps: bool,
    cross_file: Vec<Diagnostic>,
) -> FileAudit {
    let code = code_indices(tokens);
    let mut diagnostics = cross_file;
    let mut markers = collect_markers(tokens, &mut diagnostics);

    for lint in Lint::ALL {
        if !lint.applies_to(path) {
            continue;
        }
        match lint {
            Lint::UnsafeSafety => lint_unsafe_safety(tokens, &code, &mut diagnostics),
            Lint::FloatEq => lint_float_eq(tokens, &code, &mut diagnostics),
            Lint::HashContainer => lint_hash_container(tokens, &code, &mut diagnostics),
            Lint::WallClock => lint_wall_clock(tokens, &code, &mut diagnostics),
            Lint::ThreadSpawn => lint_thread_spawn(tokens, &code, &mut diagnostics),
            Lint::PartialCmpUnwrap => lint_partial_cmp_unwrap(tokens, &code, &mut diagnostics),
            Lint::DeadPub => {} // arrives in `cross_file`
        }
    }

    // Apply suppressions: a marker covers its own line and the next line.
    diagnostics.retain(|d| {
        if d.lint == "audit-marker" {
            return true;
        }
        let matching = markers
            .iter_mut()
            .find(|m| m.lint.name() == d.lint && (m.line == d.line || m.line + 1 == d.line));
        match matching {
            Some(m) => {
                m.used = true;
                false
            }
            None => true,
        }
    });
    diagnostics.sort_by_key(|d| d.line);

    let unused_allows = markers
        .into_iter()
        .filter(|m| !m.used)
        .map(|m| (m.line, m.lint.name().to_string()))
        .collect();

    let unwrap_count = count_unwraps.then(|| count_unwrap_expect(tokens, &code));
    FileAudit { diagnostics, unwrap_count, unused_allows }
}

/// Indices of non-comment tokens. The lints walk these, while L1 and the
/// suppression markers also need the comments.
fn code_indices(tokens: &[Token<'_>]) -> Vec<usize> {
    (0..tokens.len()).filter(|&i| !tokens[i].is_comment()).collect()
}

/// Parses `audit:allow(<lint>): <reason>` markers out of the comments.
/// Malformed markers (unknown lint, missing reason) become diagnostics.
/// Doc comments are documentation, not suppressions — text *describing*
/// the marker syntax (this crate's own rustdoc) is not a marker.
fn collect_markers(tokens: &[Token<'_>], diagnostics: &mut Vec<Diagnostic>) -> Vec<Marker> {
    let mut markers = Vec::new();
    for tok in tokens.iter().filter(|t| t.is_comment()) {
        let doc = tok.text.starts_with("///")
            || tok.text.starts_with("//!")
            || tok.text.starts_with("/**")
            || tok.text.starts_with("/*!");
        if doc {
            continue;
        }
        let Some(at) = tok.text.find("audit:allow") else { continue };
        let rest = &tok.text[at + "audit:allow".len()..];
        let parsed = rest.strip_prefix('(').and_then(|r| {
            let (name, after) = r.split_once(')')?;
            let reason = after.strip_prefix(':')?.trim();
            Some((Lint::from_name(name.trim()), reason))
        });
        match parsed {
            Some((Some(lint), reason)) if !reason.is_empty() => {
                markers.push(Marker { line: tok.line, lint, used: false });
            }
            Some((None, _)) => diagnostics.push(Diagnostic {
                lint: "audit-marker",
                line: tok.line,
                message: "audit:allow names an unknown lint".into(),
            }),
            _ => diagnostics.push(Diagnostic {
                lint: "audit-marker",
                line: tok.line,
                message: "malformed audit:allow marker — expected \
                          `audit:allow(<lint>): <reason>` with a non-empty reason"
                    .into(),
            }),
        }
    }
    markers
}

/// L1: every `unsafe` keyword needs a `// SAFETY:` comment either trailing
/// on the same line or attached above it — "attached" meaning the walk
/// backwards from the keyword meets the comment before any `;`, `{` or `}`
/// (i.e. within the same statement/item header).
fn lint_unsafe_safety(tokens: &[Token<'_>], code: &[usize], diagnostics: &mut Vec<Diagnostic>) {
    for &i in code {
        let tok = &tokens[i];
        if tok.kind != TokenKind::Ident || tok.text != "unsafe" {
            continue;
        }
        let same_line = tokens
            .iter()
            .any(|t| t.is_comment() && t.line == tok.line && t.text.contains("SAFETY:"));
        let attached_above = tokens[..i].iter().rev().find_map(|t| {
            if t.is_comment() {
                t.text.contains("SAFETY:").then_some(true)
            } else if t.kind == TokenKind::Punct && matches!(t.text, ";" | "{" | "}") {
                Some(false) // left the current statement: stop searching
            } else {
                None
            }
        });
        if !same_line && attached_above != Some(true) {
            diagnostics.push(Diagnostic {
                lint: Lint::UnsafeSafety.name(),
                line: tok.line,
                message: "`unsafe` without an attached `// SAFETY:` justification".into(),
            });
        }
    }
}

/// L2: `==`/`!=` with a float-literal operand, or a bare float literal as
/// a direct operand of `assert_eq!`/`assert_ne!`. (Float-typed variables
/// compared to each other are invisible to a lexer — that residual risk is
/// documented, not pretended away.)
fn lint_float_eq(tokens: &[Token<'_>], code: &[usize], diagnostics: &mut Vec<Diagnostic>) {
    let at = |k: usize| code.get(k).map(|&i| &tokens[i]);
    for k in 0..code.len() {
        let tok = &tokens[code[k]];
        // Operator form: `x == 1.0`, `0.0 != y`, `x == -1.0`.
        if tok.kind == TokenKind::Punct && (tok.text == "==" || tok.text == "!=") {
            // A float literal with a method call on it (`1.5f64.to_bits()`)
            // is not a float operand — that is the blessed idiom itself.
            let bare_float = |k: usize| {
                at(k).is_some_and(|t| t.kind == TokenKind::Float)
                    && !at(k + 1).is_some_and(|t| t.kind == TokenKind::Punct && t.text == ".")
            };
            let prev_float = k > 0 && bare_float(k - 1);
            let next_float = bare_float(k + 1)
                || (at(k + 1).is_some_and(|t| t.kind == TokenKind::Punct && t.text == "-")
                    && bare_float(k + 2));
            if prev_float || next_float {
                diagnostics.push(Diagnostic {
                    lint: Lint::FloatEq.name(),
                    line: tok.line,
                    message: format!(
                        "float `{}` comparison — compare via to_bits() or annotate an \
                         exact-zero fast path",
                        tok.text
                    ),
                });
            }
        }
        // Macro form: assert_eq!(x, 1.0). Only floats at paren depth 1 are
        // direct operands; nested calls like assert_eq!(y, f(1.0)) are not.
        if tok.kind == TokenKind::Ident
            && (tok.text == "assert_eq" || tok.text == "assert_ne")
            && at(k + 1).is_some_and(|t| t.text == "!")
            && at(k + 2).is_some_and(|t| t.text == "(")
        {
            let mut depth = 1i32;
            let mut j = k + 3;
            while depth > 0 {
                let Some(t) = at(j) else { break };
                match (t.kind, t.text) {
                    (TokenKind::Punct, "(" | "[" | "{") => depth += 1,
                    (TokenKind::Punct, ")" | "]" | "}") => depth -= 1,
                    (TokenKind::Float, _)
                        if depth == 1
                            && !at(j + 1)
                                .is_some_and(|t| t.kind == TokenKind::Punct && t.text == ".") =>
                    {
                        diagnostics.push(Diagnostic {
                            lint: Lint::FloatEq.name(),
                            line: t.line,
                            message: format!(
                                "float literal compared exactly by {}! — compare via to_bits()",
                                tok.text
                            ),
                        });
                    }
                    _ => {}
                }
                j += 1;
            }
        }
    }
}

/// L3: `HashMap`/`HashSet` anywhere — iteration order varies run to run
/// (and with the hasher seed), which can leak into numeric results.
fn lint_hash_container(tokens: &[Token<'_>], code: &[usize], diagnostics: &mut Vec<Diagnostic>) {
    for &i in code {
        let tok = &tokens[i];
        if tok.kind == TokenKind::Ident && matches!(tok.text, "HashMap" | "HashSet") {
            diagnostics.push(Diagnostic {
                lint: Lint::HashContainer.name(),
                line: tok.line,
                message: format!(
                    "`{}` has nondeterministic iteration order — use BTreeMap/BTreeSet \
                     or sorted access",
                    tok.text
                ),
            });
        }
    }
}

/// L4: wall-clock reads and OS randomness outside the bench layer — both
/// poison reproducibility.
fn lint_wall_clock(tokens: &[Token<'_>], code: &[usize], diagnostics: &mut Vec<Diagnostic>) {
    for &i in code {
        let tok = &tokens[i];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let what = match tok.text {
            "Instant" | "SystemTime" => "wall-clock source",
            "RandomState" | "thread_rng" | "from_entropy" | "OsRng" | "getrandom" => {
                "OS randomness"
            }
            _ => continue,
        };
        diagnostics.push(Diagnostic {
            lint: Lint::WallClock.name(),
            line: tok.line,
            message: format!(
                "`{}` is a {what} — only pim-bench/criterion-shim may use it",
                tok.text
            ),
        });
    }
}

/// L5: `thread::spawn` / `thread::Builder` / `thread::scope` outside
/// `pim-runtime` — all parallelism must go through the deterministic pool.
fn lint_thread_spawn(tokens: &[Token<'_>], code: &[usize], diagnostics: &mut Vec<Diagnostic>) {
    for w in code.windows(3) {
        let (a, b, c) = (&tokens[w[0]], &tokens[w[1]], &tokens[w[2]]);
        if a.kind == TokenKind::Ident
            && a.text == "thread"
            && b.text == "::"
            && c.kind == TokenKind::Ident
            && matches!(c.text, "spawn" | "Builder" | "scope")
        {
            diagnostics.push(Diagnostic {
                lint: Lint::ThreadSpawn.name(),
                line: c.line,
                message: format!(
                    "`thread::{}` outside pim-runtime — use the deterministic thread pool",
                    c.text
                ),
            });
        }
    }
}

/// L7: `partial_cmp(<args>)` followed directly by `.unwrap()` or
/// `.expect(..)` — a NaN operand turns a float sort into a panic.
fn lint_partial_cmp_unwrap(
    tokens: &[Token<'_>],
    code: &[usize],
    diagnostics: &mut Vec<Diagnostic>,
) {
    let at = |k: usize| code.get(k).map(|&i| &tokens[i]);
    let punct =
        |k: usize, text: &str| at(k).is_some_and(|t| t.kind == TokenKind::Punct && t.text == text);
    for k in 0..code.len() {
        let tok = &tokens[code[k]];
        if tok.kind != TokenKind::Ident || tok.text != "partial_cmp" || !punct(k + 1, "(") {
            continue;
        }
        // Skip the balanced argument list to its closing `)`.
        let mut depth = 0usize;
        let mut j = k + 1;
        while let Some(t) = at(j) {
            if t.kind == TokenKind::Punct && t.text == "(" {
                depth += 1;
            } else if t.kind == TokenKind::Punct && t.text == ")" {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        if punct(j + 1, ".") && at(j + 2).is_some_and(|t| matches!(t.text, "unwrap" | "expect")) {
            diagnostics.push(Diagnostic {
                lint: Lint::PartialCmpUnwrap.name(),
                line: tok.line,
                message: "`partial_cmp(..)` unwrapped — panics on NaN; use `total_cmp`".into(),
            });
        }
    }
}

/// L8: `dead-pub`, the one cross-file lint. Flags each `pub fn` of a file
/// where `declares(path)` holds whose name, outside its own body, appears
/// only inside that file's `#[cfg(test)]` modules. Every other file is a
/// caller, its own unit tests included. A name inside a `use` declaration
/// (a re-export) or a comment is not a call. The check is lexical, so it
/// errs toward silence: any other item sharing the name counts as a
/// caller. Returns one diagnostic list per file, in `files` order.
pub(crate) fn dead_pub(
    files: &[(&str, &[Token<'_>])],
    declares: impl Fn(&str) -> bool,
) -> Vec<Vec<Diagnostic>> {
    let uses: Vec<Vec<(usize, &str)>> =
        files.iter().map(|(_, tokens)| ident_uses(tokens)).collect();
    let mut files_using: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for (f, file_uses) in uses.iter().enumerate() {
        for &(_, name) in file_uses {
            files_using.entry(name).or_default().insert(f);
        }
    }
    files
        .iter()
        .enumerate()
        .map(|(f, &(path, tokens))| {
            if !declares(path) {
                return Vec::new();
            }
            let code = code_indices(tokens);
            let tests = cfg_test_ranges(tokens, &code);
            let in_tests = |i: usize| tests.iter().any(|r| r.contains(&i));
            pub_fns(tokens, &code)
                .into_iter()
                .filter(|&(name, ref body)| {
                    !in_tests(body.start)
                        && !files_using.get(name).is_some_and(|fs| fs.iter().any(|&g| g != f))
                        && !uses[f]
                            .iter()
                            .any(|&(i, used)| used == name && !body.contains(&i) && !in_tests(i))
                })
                .map(|(name, body)| Diagnostic {
                    lint: Lint::DeadPub.name(),
                    line: tokens[body.start].line,
                    message: format!(
                        "`pub fn {name}` has no caller outside its own file's tests — delete \
                         it (with those tests) or make it private"
                    ),
                })
                .collect()
        })
        .collect()
}

/// Identifier tokens as `(token index, text)`, skipping comments and every
/// `use` declaration up to its `;`.
fn ident_uses<'a>(tokens: &[Token<'a>]) -> Vec<(usize, &'a str)> {
    let mut uses = Vec::new();
    let mut in_use = false;
    for (i, tok) in tokens.iter().enumerate() {
        match tok.kind {
            TokenKind::Ident if tok.text == "use" => in_use = true,
            TokenKind::Punct if tok.text == ";" => in_use = false,
            TokenKind::Ident if !in_use => uses.push((i, tok.text)),
            _ => {}
        }
    }
    uses
}

/// Every `pub fn` (also `pub const fn` and `pub unsafe fn`) as its name
/// and the token-index range from the name to the end of its body.
/// `pub(crate)` and narrower items are rustc's `dead_code` business.
fn pub_fns<'a>(tokens: &[Token<'a>], code: &[usize]) -> Vec<(&'a str, std::ops::Range<usize>)> {
    let text = |k: usize| code.get(k).map_or("", |&i| tokens[i].text);
    let mut fns = Vec::new();
    for k in 0..code.len() {
        if text(k) != "pub" {
            continue;
        }
        let mut n = k + 1;
        while matches!(text(n), "const" | "unsafe") {
            n += 1;
        }
        if text(n) != "fn" || n + 1 >= code.len() {
            continue;
        }
        let name = n + 1;
        // The body opens at the first `{` outside the signature's brackets;
        // a `;` there means a bodiless declaration.
        let mut depth = 0usize;
        let mut j = name + 1;
        while j < code.len() {
            match text(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" | ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if text(j) == "{" {
            let mut braces = 0usize;
            while j < code.len() {
                match text(j) {
                    "{" => braces += 1,
                    "}" => {
                        braces -= 1;
                        if braces == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        let end = code.get(j).map_or(tokens.len(), |&i| i + 1);
        fns.push((tokens[code[name]].text, code[name]..end));
    }
    fns
}

/// L6 count: `.unwrap()` and `.expect("")` occurrences outside
/// `#[cfg(test)]` modules.
fn count_unwrap_expect(tokens: &[Token<'_>], code: &[usize]) -> usize {
    let excluded = cfg_test_ranges(tokens, code);
    let mut count = 0usize;
    for (k, &i) in code.iter().enumerate() {
        if excluded.iter().any(|r| r.contains(&i)) {
            continue;
        }
        let tok = &tokens[i];
        if !(tok.kind == TokenKind::Punct && tok.text == ".") {
            continue;
        }
        let at = |n: usize| code.get(k + n).map(|&j| &tokens[j]);
        let is_unwrap = at(1).is_some_and(|t| t.text == "unwrap")
            && at(2).is_some_and(|t| t.text == "(")
            && at(3).is_some_and(|t| t.text == ")");
        let is_empty_expect = at(1).is_some_and(|t| t.text == "expect")
            && at(2).is_some_and(|t| t.text == "(")
            && at(3).is_some_and(|t| t.kind == TokenKind::Str && t.text == "\"\"")
            && at(4).is_some_and(|t| t.text == ")");
        if is_unwrap || is_empty_expect {
            count += 1;
        }
    }
    count
}

/// Token-index ranges covered by `#[cfg(test)] mod <name> { … }` — unit
/// tests do not count against the unwrap ratchet.
fn cfg_test_ranges(tokens: &[Token<'_>], code: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::new();
    let texts: Vec<&str> = code.iter().map(|&i| tokens[i].text).collect();
    for k in 0..code.len() {
        if texts[k..].starts_with(&["#", "[", "cfg", "(", "test", ")", "]"]) {
            // Expect `mod <name> {` next (possibly after more attributes —
            // not present in this workspace, so keep it simple).
            let m = k + 7;
            if texts.get(m) == Some(&"mod") && texts.get(m + 2) == Some(&"{") {
                let mut depth = 1usize;
                let mut j = m + 3;
                while j < code.len() && depth > 0 {
                    match texts[j] {
                        "{" => depth += 1,
                        "}" => depth -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                ranges.push(code[k]..code[j.min(code.len() - 1)] + 1);
            }
        }
    }
    ranges
}
