//! The project rules cs-lint enforces, pattern-matched over the token
//! stream of [`crate::lexer`].
//!
//! | Rule | Enforces |
//! |------|----------|
//! | L001 | every `unsafe` block/fn/impl is preceded by a `// SAFETY:` comment |
//! | L002 | no `.unwrap()` / `.expect()` / `panic!` in library code |
//! | L003 | every `Ordering::Relaxed` / `Ordering::SeqCst` carries an `// ORDERING:` justification |
//! | L004 | `thread::spawn` / `thread::scope` only inside `cs_core::parallel` / `cs_server::server` |
//! | L005 | `extern "C"` FFI confined to `cs_graph::storage` |
//! | L006 | no narrowing `as` casts (`as u8/u16/u32/i8/i16/i32`) in `binfmt.rs` / `storage.rs` |
//!
//! **Exemptions.** Test files (`tests/`), bench files (`benches/` and
//! the whole `crates/bench` harness crate), examples, binaries
//! (`src/bin/`, `src/main.rs`), and `#[cfg(test)]` modules are exempt
//! from L002 and L004; L001/L003/L005 apply everywhere (an unjustified
//! `unsafe` is as wrong in a test as in a library), and L006 applies to
//! the non-test code of its two target files.
//!
//! **Suppressions.** Any rule can be silenced for one line with an
//! inline comment on that line or the line directly above:
//!
//! ```text
//! // cs-lint: allow(L002): lock poisoning means a sibling worker panicked
//! ```
//!
//! The reason after the second `:` is mandatory — a suppression without
//! one is itself reported under the suppressed rule's id.

use crate::lexer::{lex, Kind, Token};
use std::collections::{BTreeMap, BTreeSet};

/// Rule ids and their one-line summaries, in id order.
pub const RULES: &[(&str, &str)] = &[
    ("L001", "`unsafe` requires a preceding `// SAFETY:` comment"),
    (
        "L002",
        "no `.unwrap()` / `.expect()` / `panic!` in library code",
    ),
    (
        "L003",
        "`Ordering::Relaxed`/`Ordering::SeqCst` requires an `// ORDERING:` justification",
    ),
    (
        "L004",
        "`thread::spawn`/`thread::scope` only in cs_core::parallel / cs_server::server",
    ),
    ("L005", "`extern \"C\"` FFI only in cs_graph::storage"),
    (
        "L006",
        "no narrowing `as` casts in binfmt.rs/storage.rs decode paths — use `try_into`",
    ),
];

/// Files allowed to spawn or scope threads (L004). The server crate's
/// accept loop, connection readers, and executor pool all live in its
/// `server.rs` so the threading surface stays one file wide there too.
const THREAD_ALLOWED: &[&str] = &["crates/core/src/parallel.rs", "crates/server/src/server.rs"];

/// Files allowed to declare `extern "C"` items (L005).
const FFI_ALLOWED: &[&str] = &["crates/graph/src/storage.rs"];

/// Files whose decode paths must not narrow with `as` (L006).
const NO_NARROWING: &[&str] = &["crates/graph/src/binfmt.rs", "crates/graph/src/storage.rs"];

/// Integer types an `as` cast may narrow into (L006). `usize`/`u64`
/// targets are widening from every wire-width type on the supported
/// 64-bit hosts, so they are not in the set.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// The rule id (`"L001"` … `"L006"`).
    pub rule: &'static str,
    /// Human-readable description of this violation.
    pub msg: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// How a file's path classifies it for the rule exemptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code — all rules apply.
    Lib,
    /// A binary target (`src/bin/`, `src/main.rs`).
    Bin,
    /// Integration-test code (`tests/`).
    Test,
    /// Bench code (`benches/`, or anything in the `crates/bench` harness).
    Bench,
    /// Example code (`examples/`).
    Example,
}

impl FileKind {
    /// Panics and ad-hoc threads are acceptable outside library code.
    fn panics_allowed(self) -> bool {
        !matches!(self, FileKind::Lib)
    }
}

/// Classifies a workspace-relative path.
pub fn classify(rel_path: &str) -> FileKind {
    let p = rel_path.replace('\\', "/");
    let has = |seg: &str| p.contains(&format!("/{seg}/")) || p.starts_with(&format!("{seg}/"));
    if p.starts_with("crates/bench/") {
        FileKind::Bench
    } else if has("tests") {
        FileKind::Test
    } else if has("benches") {
        FileKind::Bench
    } else if has("examples") {
        FileKind::Example
    } else if p.contains("/src/bin/")
        || p.starts_with("src/bin/")
        || p.ends_with("/src/main.rs")
        || p == "src/main.rs"
    {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

/// Lints one file's source. `rel_path` is the workspace-relative path
/// (it selects the per-file rule scopes and the exemption class).
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let rel = rel_path.replace('\\', "/");
    let kind = classify(&rel);
    let tokens = lex(src);
    let lines: Vec<&str> = src.lines().collect();
    let file = File {
        rel,
        kind,
        lines,
        comments: comments_by_line(&tokens),
        in_test: cfg_test_mask(&tokens),
        tokens,
    };

    let mut out = Vec::new();
    file.l001_unsafe_safety(&mut out);
    file.l002_panics(&mut out);
    file.l003_orderings(&mut out);
    file.l004_threads(&mut out);
    file.l005_ffi(&mut out);
    file.l006_narrowing(&mut out);
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

struct File<'a> {
    rel: String,
    kind: FileKind,
    tokens: Vec<Token>,
    lines: Vec<&'a str>,
    /// Concatenated comment text per (1-based) start line.
    comments: BTreeMap<u32, String>,
    /// Per token: is it inside a `#[cfg(test)]`-guarded brace block?
    in_test: Vec<bool>,
}

fn comments_by_line(tokens: &[Token]) -> BTreeMap<u32, String> {
    let mut map: BTreeMap<u32, String> = BTreeMap::new();
    for t in tokens.iter().filter(|t| t.is_comment()) {
        let slot = map.entry(t.line).or_default();
        slot.push_str(&t.text);
        slot.push(' ');
    }
    map
}

/// Marks every token inside a brace block introduced by a
/// `#[cfg(test)]` attribute (the repo convention is `#[cfg(test)] mod
/// tests { … }`; any braced item works). Only the literal `cfg(test)`
/// form is recognised.
fn cfg_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let mut depth = 0i64;
    let mut regions: Vec<i64> = Vec::new();
    let mut pending = false;
    let mut j = 0usize;
    while j < code.len() {
        let ti = code[j];
        let t = &tokens[ti];
        // Attribute: `#[ … ]` or `#![ … ]`. Scan to the matching `]`,
        // checking for a literal `cfg ( test )` run.
        if t.is_punct('#') {
            let mut k = j + 1;
            if code.get(k).is_some_and(|&i| tokens[i].is_punct('!')) {
                k += 1;
            }
            if code.get(k).is_some_and(|&i| tokens[i].is_punct('[')) {
                let mut bd = 0i64;
                let mut body: Vec<usize> = Vec::new();
                while let Some(&i) = code.get(k) {
                    if tokens[i].is_punct('[') {
                        bd += 1;
                    } else if tokens[i].is_punct(']') {
                        bd -= 1;
                        if bd == 0 {
                            break;
                        }
                    } else if bd > 0 {
                        body.push(i);
                    }
                    k += 1;
                }
                if body.windows(4).any(|w| {
                    tokens[w[0]].is_ident("cfg")
                        && tokens[w[1]].is_punct('(')
                        && tokens[w[2]].is_ident("test")
                        && tokens[w[3]].is_punct(')')
                }) {
                    pending = true;
                }
                for &i in &body {
                    mask[i] = !regions.is_empty();
                }
                j = k + 1;
                continue;
            }
        }
        if t.is_punct('{') {
            if pending {
                regions.push(depth);
                pending = false;
            }
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if regions.last() == Some(&depth) {
                regions.pop();
                // The closing brace still belongs to the region.
                mask[ti] = true;
                j += 1;
                continue;
            }
        } else if t.is_punct(';') && pending {
            // `#[cfg(test)] mod name;` — an out-of-line module; the
            // file itself is walked (and classified) separately.
            pending = false;
        }
        mask[ti] = !regions.is_empty();
        j += 1;
    }
    mask
}

impl File<'_> {
    /// Indices of non-comment tokens, in order.
    fn code(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.tokens.len()).filter(|&i| !self.tokens[i].is_comment())
    }

    /// The `k`-th non-comment token after (or before, negative) `i`.
    fn nth_code(&self, i: usize, k: isize) -> Option<&Token> {
        let mut idx = i as isize;
        let mut left = k;
        while left != 0 {
            idx += left.signum();
            if idx < 0 || idx as usize >= self.tokens.len() {
                return None;
            }
            if !self.tokens[idx as usize].is_comment() {
                left -= left.signum();
            }
        }
        self.tokens.get(idx as usize)
    }

    /// Is there a `// <needle>` justification for a token on `line`?
    /// Accepts a comment on the same line, or a contiguous run of
    /// comment/attribute/continuation lines directly above (the scan
    /// stops at a blank line or at the end of the previous statement).
    fn justified(&self, line: u32, needle: &str) -> bool {
        if self.comments.get(&line).is_some_and(|c| c.contains(needle)) {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            let Some(raw) = self.lines.get(l as usize - 1) else {
                break;
            };
            let t = raw.trim();
            if t.is_empty() {
                break;
            }
            if t.starts_with("//") {
                if t.contains(needle) {
                    return true;
                }
            } else if !t.starts_with("#[")
                && !t.starts_with("#!")
                && (t.ends_with(';') || t.ends_with('}'))
            {
                // The previous statement ended here; the justification
                // must sit between it and the flagged line.
                break;
            }
            l -= 1;
        }
        false
    }

    /// Emits `msg` under `rule` unless a suppression with a reason
    /// covers `line`; a reason-less suppression is itself an error.
    fn emit(&self, out: &mut Vec<Diagnostic>, rule: &'static str, line: u32, msg: String) {
        match self.suppression(line, rule) {
            Some(true) => {}
            Some(false) => out.push(Diagnostic {
                file: self.rel.clone(),
                line,
                rule,
                msg: format!(
                    "suppression is missing its reason — write `// cs-lint: allow({rule}): <reason>`"
                ),
            }),
            None => out.push(Diagnostic {
                file: self.rel.clone(),
                line,
                rule,
                msg,
            }),
        }
    }

    /// Looks for `cs-lint: allow(<rule>)` covering `line`: on the line
    /// itself, or anywhere in the contiguous run of comment lines
    /// directly above (a suppression may wrap onto several `//` lines).
    /// `Some(true)`: suppressed with a reason; `Some(false)`: found but
    /// reason-less; `None`: no suppression.
    fn suppression(&self, line: u32, rule: &str) -> Option<bool> {
        if let Some(c) = self.comments.get(&line) {
            if let Some(found) = parse_allow(c, rule) {
                return Some(found);
            }
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            let Some(raw) = self.lines.get(l as usize - 1) else {
                break;
            };
            let t = raw.trim();
            if t.starts_with("//") {
                if let Some(found) = parse_allow(t, rule) {
                    return Some(found);
                }
                l -= 1;
                continue;
            }
            // A trailing comment on the line directly above counts too.
            if l == line.saturating_sub(1) {
                if let Some(found) = self.comments.get(&l).and_then(|c| parse_allow(c, rule)) {
                    return Some(found);
                }
            }
            break;
        }
        None
    }

    // L001 — every `unsafe` is preceded by `// SAFETY:`.
    fn l001_unsafe_safety(&self, out: &mut Vec<Diagnostic>) {
        let mut seen = BTreeSet::new();
        for i in self.code() {
            let t = &self.tokens[i];
            if t.is_ident("unsafe") && seen.insert(t.line) && !self.justified(t.line, "SAFETY:") {
                self.emit(
                    out,
                    "L001",
                    t.line,
                    "`unsafe` without a preceding `// SAFETY:` comment".to_string(),
                );
            }
        }
    }

    // L002 — no unwrap/expect/panic! in library code.
    fn l002_panics(&self, out: &mut Vec<Diagnostic>) {
        if self.kind.panics_allowed() {
            return;
        }
        for i in self.code() {
            if self.in_test[i] {
                continue;
            }
            let t = &self.tokens[i];
            let call = |name: &str| {
                t.is_ident(name)
                    && self.nth_code(i, -1).is_some_and(|p| p.is_punct('.'))
                    && self.nth_code(i, 1).is_some_and(|n| n.is_punct('('))
            };
            if call("unwrap") || call("expect") {
                self.emit(
                    out,
                    "L002",
                    t.line,
                    format!(
                        "`.{}()` in library code — return a typed error instead",
                        t.text
                    ),
                );
            } else if t.is_ident("panic") && self.nth_code(i, 1).is_some_and(|n| n.is_punct('!')) {
                self.emit(
                    out,
                    "L002",
                    t.line,
                    "`panic!` in library code — return a typed error instead".to_string(),
                );
            }
        }
    }

    // L003 — Relaxed/SeqCst need an ORDERING justification.
    fn l003_orderings(&self, out: &mut Vec<Diagnostic>) {
        let mut seen = BTreeSet::new();
        for i in self.code() {
            let t = &self.tokens[i];
            if !t.is_ident("Ordering") {
                continue;
            }
            let path = self.nth_code(i, 1).is_some_and(|a| a.is_punct(':'))
                && self.nth_code(i, 2).is_some_and(|a| a.is_punct(':'));
            let Some(which) = self.nth_code(i, 3) else {
                continue;
            };
            if path
                && (which.is_ident("Relaxed") || which.is_ident("SeqCst"))
                && seen.insert(t.line)
                && !self.justified(t.line, "ORDERING:")
            {
                self.emit(
                    out,
                    "L003",
                    t.line,
                    format!(
                        "`Ordering::{}` without an `// ORDERING:` justification",
                        which.text
                    ),
                );
            }
        }
    }

    // L004 — thread spawn/scope confined to the allowlisted modules.
    fn l004_threads(&self, out: &mut Vec<Diagnostic>) {
        if self.kind.panics_allowed() || THREAD_ALLOWED.contains(&self.rel.as_str()) {
            return;
        }
        for i in self.code() {
            if self.in_test[i] {
                continue;
            }
            let t = &self.tokens[i];
            if !t.is_ident("thread") {
                continue;
            }
            let path = self.nth_code(i, 1).is_some_and(|a| a.is_punct(':'))
                && self.nth_code(i, 2).is_some_and(|a| a.is_punct(':'));
            let Some(what) = self.nth_code(i, 3) else {
                continue;
            };
            if path && (what.is_ident("spawn") || what.is_ident("scope")) {
                self.emit(
                    out,
                    "L004",
                    t.line,
                    format!(
                        "`thread::{}` outside cs_core::parallel / cs_server::server — route work through a scheduler",
                        what.text
                    ),
                );
            }
        }
    }

    // L005 — `extern "C"` only in cs_graph::storage.
    fn l005_ffi(&self, out: &mut Vec<Diagnostic>) {
        if FFI_ALLOWED.contains(&self.rel.as_str()) {
            return;
        }
        for i in self.code() {
            let t = &self.tokens[i];
            if t.is_ident("extern")
                && self
                    .nth_code(i, 1)
                    .is_some_and(|n| n.kind == Kind::Str && n.text == "\"C\"")
            {
                self.emit(
                    out,
                    "L005",
                    t.line,
                    "`extern \"C\"` FFI outside cs_graph::storage".to_string(),
                );
            }
        }
    }

    // L006 — no narrowing `as` casts in the snapshot codec files.
    fn l006_narrowing(&self, out: &mut Vec<Diagnostic>) {
        if !NO_NARROWING.contains(&self.rel.as_str()) {
            return;
        }
        for i in self.code() {
            if self.in_test[i] {
                continue;
            }
            let t = &self.tokens[i];
            if t.is_ident("as") {
                if let Some(target) = self.nth_code(i, 1) {
                    if NARROW_TARGETS.contains(&target.text.as_str()) {
                        self.emit(
                            out,
                            "L006",
                            t.line,
                            format!(
                                "narrowing `as {}` cast in a snapshot codec path — use `try_into`/`From`",
                                target.text
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Parses a `cs-lint: allow(<rule>)` marker out of a comment. Returns
/// `Some(has_reason)` when the marker names `rule`, `None` otherwise.
fn parse_allow(comment: &str, rule: &str) -> Option<bool> {
    let marker = "cs-lint: allow(";
    let rest = &comment[comment.find(marker)? + marker.len()..];
    let close = rest.find(')')?;
    if rest[..close].trim() != rule {
        return None;
    }
    let after = rest[close + 1..].trim_start();
    match after.strip_prefix(':') {
        Some(reason) => {
            // The reason ends at the comment text's end; require some
            // non-punctuation substance.
            Some(reason.trim().chars().any(|c| c.is_alphanumeric()))
        }
        None => Some(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(rel: &str, src: &str) -> Vec<&'static str> {
        lint_source(rel, src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn classification() {
        assert_eq!(classify("crates/graph/src/model.rs"), FileKind::Lib);
        assert_eq!(classify("crates/graph/tests/io.rs"), FileKind::Test);
        assert_eq!(classify("crates/bench/src/harness.rs"), FileKind::Bench);
        assert_eq!(classify("crates/core/benches/x.rs"), FileKind::Bench);
        assert_eq!(classify("src/bin/csq.rs"), FileKind::Bin);
        assert_eq!(classify("crates/lint/src/main.rs"), FileKind::Bin);
        assert_eq!(classify("examples/demo.rs"), FileKind::Example);
        assert_eq!(classify("src/lib.rs"), FileKind::Lib);
    }

    #[test]
    fn safety_comment_satisfies_l001() {
        let bad = "pub fn f() { let _ = unsafe { g() }; }";
        assert_eq!(rules_of("crates/x/src/a.rs", bad), vec!["L001"]);
        let good = "pub fn f() {\n    // SAFETY: g has no preconditions here.\n    let _ = unsafe { g() };\n}";
        assert!(rules_of("crates/x/src/a.rs", good).is_empty());
    }

    #[test]
    fn l001_scans_past_attributes_and_wrapped_statements() {
        let good = "// SAFETY: reinterpreting is sound.\n#[cfg(unix)]\nlet bytes =\n    unsafe { cast(words) };";
        assert!(rules_of("crates/x/src/a.rs", good).is_empty());
        let bad = "fn prev() {}\nlet bytes = unsafe { cast(words) };";
        assert_eq!(rules_of("crates/x/src/a.rs", bad), vec!["L001"]);
    }

    #[test]
    fn cfg_test_mod_is_exempt_from_l002() {
        let src = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}";
        assert!(rules_of("crates/x/src/a.rs", src).is_empty());
        let src_bad = "pub fn lib(o: Option<u32>) -> u32 { o.unwrap() }";
        assert_eq!(rules_of("crates/x/src/a.rs", src_bad), vec!["L002"]);
    }

    #[test]
    fn unwrap_after_cfg_test_mod_is_still_flagged() {
        let src = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\npub fn lib(o: Option<u32>) -> u32 { o.unwrap() }";
        assert_eq!(rules_of("crates/x/src/a.rs", src), vec!["L002"]);
    }

    #[test]
    fn suppression_needs_reason() {
        let with = "pub fn f(o: Option<u32>) -> u32 {\n    // cs-lint: allow(L002): checked by caller invariant\n    o.unwrap()\n}";
        assert!(rules_of("crates/x/src/a.rs", with).is_empty());
        let without =
            "pub fn f(o: Option<u32>) -> u32 {\n    // cs-lint: allow(L002)\n    o.unwrap()\n}";
        let d = lint_source("crates/x/src/a.rs", without);
        assert_eq!(d.len(), 1);
        assert!(d[0].msg.contains("missing its reason"), "{}", d[0].msg);
    }

    #[test]
    fn suppression_may_wrap_over_comment_lines() {
        // The marker sits on the first line of a two-line comment; the
        // continuation line is directly above the violation.
        let src = "pub fn f(o: Option<u32>) -> u32 {\n    // cs-lint: allow(L002): the caller checked `o` via the\n    // surrounding match, so this cannot fail.\n    o.unwrap()\n}";
        assert!(rules_of("crates/x/src/a.rs", src).is_empty());
        // A blank line breaks the block: the suppression no longer
        // covers the violation.
        let gapped = "pub fn f(o: Option<u32>) -> u32 {\n    // cs-lint: allow(L002): stale, detached comment\n\n    o.unwrap()\n}";
        assert_eq!(rules_of("crates/x/src/a.rs", gapped), vec!["L002"]);
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "pub fn f(o: Option<u32>) -> u32 { o.unwrap_or_else(|| 0) }";
        assert!(rules_of("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn ordering_justifications() {
        let bad = "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }";
        assert_eq!(rules_of("crates/x/src/a.rs", bad), vec!["L003"]);
        let trailing = "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) } // ORDERING: counter, no sync needed";
        assert!(rules_of("crates/x/src/a.rs", trailing).is_empty());
        let above = "fn f(a: &AtomicU64) -> u64 {\n    // ORDERING: monotonic counter.\n    a.load(Ordering::SeqCst)\n}";
        assert!(rules_of("crates/x/src/a.rs", above).is_empty());
        // Acquire/Release pairs document themselves; cmp::Ordering is free.
        let acq = "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Acquire) }";
        assert!(rules_of("crates/x/src/a.rs", acq).is_empty());
        let cmp = "fn f(a: i64, b: i64) -> Ordering { a.cmp(&b) }";
        assert!(rules_of("crates/x/src/a.rs", cmp).is_empty());
    }

    #[test]
    fn thread_spawn_confinement() {
        let src = "pub fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(rules_of("crates/x/src/a.rs", src), vec!["L004"]);
        assert!(rules_of("crates/core/src/parallel.rs", src).is_empty());
        assert_eq!(
            rules_of("crates/core/src/algo/partition.rs", src),
            vec!["L004"]
        );
        assert!(rules_of("crates/server/src/server.rs", src).is_empty());
        assert!(rules_of("crates/x/tests/t.rs", src).is_empty());
        let scope = "pub fn f() { std::thread::scope(|s| {}); }";
        assert_eq!(rules_of("crates/x/src/a.rs", scope), vec!["L004"]);
    }

    #[test]
    fn ffi_confinement() {
        let src = "extern \"C\" { fn strlen(s: *const u8) -> usize; }";
        assert_eq!(rules_of("crates/x/src/a.rs", src), vec!["L005"]);
        assert!(rules_of("crates/graph/src/storage.rs", src).is_empty());
        let rust_abi = "extern \"Rust\" fn f() {}";
        assert!(rules_of("crates/x/src/a.rs", rust_abi).is_empty());
    }

    #[test]
    fn narrowing_casts_only_in_codec_files() {
        let src = "pub fn f(x: u64) -> u32 { x as u32 }";
        assert_eq!(rules_of("crates/graph/src/binfmt.rs", src), vec!["L006"]);
        assert!(rules_of("crates/graph/src/model.rs", src).is_empty());
        let widen = "pub fn f(x: u32) -> u64 { x as u64 }";
        assert!(rules_of("crates/graph/src/binfmt.rs", widen).is_empty());
        let ptr = "pub fn f(p: *const u8) -> *const u32 { p as *const u32 }";
        // A pointer cast's `as` is followed by `*`, not a narrow target;
        // the `u32` in the pointee type must not fire.
        assert!(rules_of("crates/graph/src/storage.rs", ptr).is_empty());
    }

    #[test]
    fn keywords_in_literals_never_fire() {
        let src = r##"
pub fn f() -> &'static str {
    let a = "unsafe { }";
    let b = r#"x.unwrap() // Ordering::Relaxed"#;
    let c = 'p'; // a char, not a lifetime: panic!'s p
    "done"
}
"##;
        assert!(rules_of("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn diagnostics_are_line_sorted_and_displayed() {
        let src =
            "pub fn f(o: Option<u32>) -> u32 {\n    let _ = unsafe { g() };\n    o.unwrap()\n}";
        let d = lint_source("crates/x/src/a.rs", src);
        assert_eq!(
            d.iter().map(|x| (x.line, x.rule)).collect::<Vec<_>>(),
            vec![(2, "L001"), (3, "L002")]
        );
        assert!(d[0].to_string().starts_with("crates/x/src/a.rs:2: L001:"));
    }
}
