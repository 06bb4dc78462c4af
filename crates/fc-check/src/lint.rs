//! Token-level repo-invariant linter (no `syn`; line/token scanning
//! over comment- and string-masked source, like real-world `xtask`
//! lints).
//!
//! Rules (see `docs/CHECKS.md` for the runbook):
//!
//! | rule             | scope                                   | enforces |
//! |------------------|-----------------------------------------|----------|
//! | `safety-comment` | every `.rs` file                        | each `unsafe` carries a `// SAFETY:` comment |
//! | `wall-clock`     | fc-core/fc-tiles/fc-array/fc-server/fc-sim `src/` (but fc-sim's `swarm.rs`) | no ambient time (`Instant::now`, `SystemTime`, `.elapsed()`) — SimClock / `parking_lot::time` discipline; the server reads the clock once per reactor turn; the swarm load generator times real sockets by design |
//! | `std-sync`       | all `src/` outside `crates/shims`       | no `std::sync::{Mutex,RwLock,Condvar}` — the shim is the instrumented seam |
//! | `handler-unwrap` | fc-server `src/`                        | no `.unwrap()`/`.expect()`/`panic!` in client-reachable paths |
//! | `no-print`       | library `src/` (fc-bench and bins exempt) | no `println!`/`eprintln!`/`dbg!` in libraries |
//! | `wire-string`    | fc-server `src/`                        | wire writes go through the bounded-string helper (`wire_str`) |
//! | `pair-table`     | `crates/fc-*/src` but the table's owner | no `PairCache::{new, for_index, default}` — one χ² pair table per index build and key set, made in `fc-core/src/paircache.rs` |
//! | `unreferenced-pub` | `pub` items in `crates/fc-*/src`      | every item is named by code outside its definition, `use` lines and tests |
//! | `crate-local-pub` | `pub fn`/`const`/`static`/`mod` in `crates/fc-*/src` library code | every item is named by some file outside its own library |
//!
//! The first seven rules read one file at a time; `unreferenced-pub` and
//! `crate-local-pub` read the whole tree, so they run as one second
//! pass over every file [`lint_sources`] is given. An item named only
//! inside its own library is `pub(crate)` in all but name: narrowed,
//! rustc's `dead_code` lint checks it exactly, which name matching
//! cannot.
//!
//! Every rule honours an explicit inline waiver on the same line or
//! the line above:
//!
//! ```text
//! // fc-check: allow(<rule>) -- <reason>
//! ```
//!
//! A waiver without a reason is itself a finding (`bad-waiver`), so
//! every exception in the tree stays visible and greppable.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One lint hit: rule id, file, 1-based line, and what to do about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (what `allow(...)` must name to waive it).
    pub rule: &'static str,
    /// Repo-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Counts accompanying a clean-or-not verdict.
#[derive(Debug, Default, Clone, Copy)]
pub struct LintSummary {
    /// Files scanned.
    pub files: usize,
    /// Findings emitted (waived ones excluded).
    pub findings: usize,
    /// Waivers that suppressed a finding.
    pub waivers_used: usize,
}

// ---------------------------------------------------------------------------
// Source masking
// ---------------------------------------------------------------------------

/// Replaces the contents of comments, string/char literals (including
/// raw and byte forms) with spaces, preserving line structure — so
/// token scans over the result only ever see code.
pub fn mask_source(src: &str) -> String {
    mask_impl(src, false)
}

/// The inverse view: keeps comment text, blanks code and literals —
/// so "is there a `SAFETY:` comment here" cannot be satisfied by a
/// string literal that happens to contain the word.
fn comments_only(src: &str) -> String {
    mask_impl(src, true)
}

fn mask_impl(src: &str, keep_comments: bool) -> String {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut out: Vec<char> = Vec::with_capacity(n);
    let mut i = 0;

    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };

    // Tracks what the *code-keeping* mask would have emitted last, so
    // the literal-prefix check below is identical in both views (in
    // the comments-only view `out` holds blanks where code was).
    let mut last_code: char = '\n';
    // True when the previous source char is an identifier character
    // (so `r` or `b` here is the tail of an identifier, not a literal
    // prefix).
    let prev_is_ident = |last: char| last.is_alphanumeric() || last == '_';

    while i < n {
        let c = chars[i];
        // Line comment.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            while i < n && chars[i] != '\n' {
                out.push(if keep_comments { chars[i] } else { ' ' });
                last_code = ' ';
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 1;
            out.push(' ');
            out.push(' ');
            last_code = ' ';
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else {
                    out.push(if keep_comments {
                        chars[i]
                    } else {
                        blank(chars[i])
                    });
                    i += 1;
                }
            }
            continue;
        }
        // Raw (and raw-byte) string literal: r"..." / r#"..."# / br#"..."#.
        if (c == 'r' || (c == 'b' && i + 1 < n && chars[i + 1] == 'r')) && !prev_is_ident(last_code)
        {
            let start = if c == 'b' { i + 2 } else { i + 1 };
            let mut hashes = 0;
            let mut j = start;
            while j < n && chars[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n && chars[j] == '"' {
                // Mask from i through the closing quote+hashes.
                j += 1;
                loop {
                    if j >= n {
                        break;
                    }
                    if chars[j] == '"' {
                        let mut k = 0;
                        while k < hashes && j + 1 + k < n && chars[j + 1 + k] == '#' {
                            k += 1;
                        }
                        if k == hashes {
                            j += 1 + hashes;
                            break;
                        }
                    }
                    j += 1;
                }
                while i < j.min(n) {
                    out.push(blank(chars[i]));
                    last_code = ' ';
                    i += 1;
                }
                continue;
            }
            // Not a raw string after all: fall through as plain code.
        }
        // Plain (or byte) string literal.
        if c == '"' || (c == 'b' && i + 1 < n && chars[i + 1] == '"' && !prev_is_ident(last_code)) {
            let mut j = if c == 'b' { i + 2 } else { i + 1 };
            while j < n {
                if chars[j] == '\\' {
                    j += 2;
                    continue;
                }
                if chars[j] == '"' {
                    j += 1;
                    break;
                }
                j += 1;
            }
            while i < j.min(n) {
                out.push(blank(chars[i]));
                last_code = ' ';
                i += 1;
            }
            continue;
        }
        // Char literal vs. lifetime.
        if c == '\'' {
            let is_char_lit = if i + 1 < n && chars[i + 1] == '\\' {
                true
            } else {
                i + 2 < n && chars[i + 2] == '\''
            };
            if is_char_lit {
                let mut j = i + 1;
                if j < n && chars[j] == '\\' {
                    j += 2; // skip the escaped char
                            // \u{...} form
                    while j < n && chars[j] != '\'' {
                        j += 1;
                    }
                    j += 1;
                } else {
                    j += 2; // char + closing quote
                }
                while i < j.min(n) {
                    out.push(blank(chars[i]));
                    last_code = ' ';
                    i += 1;
                }
                continue;
            }
            // Lifetime: emit as-is.
        }
        out.push(if keep_comments { blank(c) } else { c });
        last_code = c;
        i += 1;
    }
    out.into_iter().collect()
}

// ---------------------------------------------------------------------------
// Region helpers
// ---------------------------------------------------------------------------

/// Marks lines inside `#[cfg(test)]`-gated items (on the masked text).
/// Test-only code is exempt from the runtime-discipline rules
/// (wall-clock, handler-unwrap, no-print), and its references are test
/// callers for `unreferenced-pub`.
fn test_region_lines(masked: &str) -> Vec<bool> {
    const ATTR: &str = "#[cfg(test)]";
    let b = masked.as_bytes();
    let mut in_test = vec![false; masked.lines().count()];
    let line_at = |pos: usize| b[..pos].iter().filter(|&&c| c == b'\n').count();
    let mut search = 0;
    while let Some(pos) = masked[search..].find(ATTR) {
        let at = search + pos;
        search = at + ATTR.len();
        // The gated item ends at the first `;` outside parentheses and
        // brackets, unless a `{` comes first, in which case it ends at
        // that brace's match: a gated `use` or statement gates itself,
        // not the next braced block.
        let mut depth = 0i32;
        let Some(first) = (search..b.len()).find(|&k| match b[k] {
            b'(' | b'[' => {
                depth += 1;
                false
            }
            b')' | b']' => {
                depth -= 1;
                false
            }
            b'{' | b';' => depth == 0,
            _ => false,
        }) else {
            break;
        };
        let end = if b[first] == b';' {
            first
        } else {
            let mut braces = 0usize;
            (first..b.len())
                .find(|&k| match b[k] {
                    b'{' => {
                        braces += 1;
                        false
                    }
                    b'}' => {
                        braces -= 1;
                        braces == 0
                    }
                    _ => false,
                })
                .unwrap_or(b.len() - 1)
        };
        let last = line_at(end).min(in_test.len() - 1);
        for l in &mut in_test[line_at(at)..=last] {
            *l = true;
        }
    }
    in_test
}

/// True when `hay[at..]` starts a standalone word match of `needle`
/// (identifier characters on either side defeat the match).
fn word_at(hay: &[char], at: usize, needle: &str) -> bool {
    let nd: Vec<char> = needle.chars().collect();
    if at + nd.len() > hay.len() || hay[at..at + nd.len()] != nd[..] {
        return false;
    }
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    if at > 0 && ident(hay[at - 1]) {
        return false;
    }
    if at + nd.len() < hay.len() && ident(hay[at + nd.len()]) {
        return false;
    }
    true
}

// ---------------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------------

enum Waiver {
    /// `allow(rule) -- reason` found.
    Ok,
    /// `allow(rule)` without a reason.
    MissingReason(usize),
    None,
}

/// Looks for `fc-check: allow(<rule>)` on `line` (0-based) or the line
/// above, in the *raw* source.
fn waiver_for(raw_lines: &[&str], line: usize, rule: &str) -> Waiver {
    let needle = format!("fc-check: allow({rule})");
    let mut candidates = vec![line];
    if line > 0 {
        candidates.push(line - 1);
    }
    for l in candidates {
        let text = raw_lines[l];
        if let Some(pos) = text.find(&needle) {
            let rest = &text[pos + needle.len()..];
            let reason_ok = rest
                .trim_start()
                .strip_prefix("--")
                .is_some_and(|r| !r.trim().is_empty());
            return if reason_ok {
                Waiver::Ok
            } else {
                Waiver::MissingReason(l)
            };
        }
    }
    Waiver::None
}

// ---------------------------------------------------------------------------
// Per-file scan
// ---------------------------------------------------------------------------

struct FileCtx<'a> {
    label: &'a str,
    raw_lines: Vec<&'a str>,
    masked_lines: Vec<String>,
    /// Comment text only (code and literals blanked) — the view the
    /// `SAFETY:` check reads.
    comment_lines: Vec<String>,
    in_test: Vec<bool>,
}

fn in_dir(label: &str, dir: &str) -> bool {
    label.starts_with(dir)
}

fn is_src(label: &str) -> bool {
    // A library/binary source file (not an integration test or bench).
    label.contains("/src/")
}

/// The one file that makes χ² pair tables for the request path.
const PAIR_TABLE_OWNER: &str = "crates/fc-core/src/paircache.rs";

/// fc-sim's wire load generator: it measures real socket latency, so
/// it reads the wall clock by design.
const SWARM_DRIVER: &str = "crates/fc-sim/src/swarm.rs";

fn rule_applies(rule: &'static str, label: &str) -> bool {
    match rule {
        "safety-comment" => true,
        "wall-clock" => {
            is_src(label)
                && (in_dir(label, "crates/fc-core/")
                    || in_dir(label, "crates/fc-tiles/")
                    || in_dir(label, "crates/fc-array/")
                    || in_dir(label, "crates/fc-server/")
                    || (in_dir(label, "crates/fc-sim/") && label != SWARM_DRIVER))
        }
        "std-sync" => is_src(label) && !in_dir(label, "crates/shims/"),
        "handler-unwrap" | "wire-string" => is_src(label) && in_dir(label, "crates/fc-server/"),
        "pair-table" => is_src(label) && in_dir(label, "crates/fc-") && label != PAIR_TABLE_OWNER,
        "no-print" => {
            is_src(label)
                && !in_dir(label, "crates/fc-bench/")
                && !label.contains("/bin/")
                && !label.ends_with("/main.rs")
                && !label.contains("/examples/")
        }
        _ => false,
    }
}

/// Emits a finding unless a waiver covers it; `summary` tracks usage.
#[allow(clippy::too_many_arguments)]
fn emit(
    out: &mut Vec<Finding>,
    summary: &mut LintSummary,
    ctx: &FileCtx<'_>,
    rule: &'static str,
    line0: usize,
    message: String,
) {
    match waiver_for(&ctx.raw_lines, line0, rule) {
        Waiver::Ok => summary.waivers_used += 1,
        Waiver::MissingReason(l) => out.push(Finding {
            rule: "bad-waiver",
            file: ctx.label.to_string(),
            line: l + 1,
            message: format!(
                "waiver for `{rule}` has no reason — write `fc-check: allow({rule}) -- <why>`"
            ),
        }),
        Waiver::None => out.push(Finding {
            rule,
            file: ctx.label.to_string(),
            line: line0 + 1,
            message,
        }),
    }
}

fn scan_safety_comments(ctx: &FileCtx<'_>, out: &mut Vec<Finding>, summary: &mut LintSummary) {
    for (l, masked) in ctx.masked_lines.iter().enumerate() {
        let chars: Vec<char> = masked.chars().collect();
        let mut found = false;
        for i in 0..chars.len() {
            if word_at(&chars, i, "unsafe") {
                found = true;
                break;
            }
        }
        if !found {
            continue;
        }
        // A SAFETY: comment on the same line or within 8 lines above
        // (room for a multi-line comment plus attributes and a
        // multi-line signature between it and the `unsafe` token).
        let lo = l.saturating_sub(8);
        let documented = (lo..=l).any(|k| ctx.comment_lines[k].contains("SAFETY:"));
        if !documented {
            emit(
                out,
                summary,
                ctx,
                "safety-comment",
                l,
                "`unsafe` without a `// SAFETY:` comment (same line or ≤8 lines above)".to_string(),
            );
        }
    }
}

fn scan_tokens(
    ctx: &FileCtx<'_>,
    rule: &'static str,
    tokens: &[&str],
    skip_test_lines: bool,
    message: &str,
    out: &mut Vec<Finding>,
    summary: &mut LintSummary,
) {
    for (l, masked) in ctx.masked_lines.iter().enumerate() {
        if skip_test_lines && ctx.in_test.get(l).copied().unwrap_or(false) {
            continue;
        }
        for tok in tokens {
            if masked.contains(tok) {
                emit(
                    out,
                    summary,
                    ctx,
                    rule,
                    l,
                    format!("{message} (found `{tok}`)"),
                );
                break;
            }
        }
    }
}

fn scan_std_sync(ctx: &FileCtx<'_>, out: &mut Vec<Finding>, summary: &mut LintSummary) {
    for (l, masked) in ctx.masked_lines.iter().enumerate() {
        let direct = [
            "std::sync::Mutex",
            "std::sync::RwLock",
            "std::sync::Condvar",
        ]
        .iter()
        .any(|t| masked.contains(t));
        // Brace-import form: `use std::sync::{Arc, Condvar};`
        let braced = masked.find("std::sync::{").is_some_and(|pos| {
            let rest = &masked[pos + "std::sync::{".len()..];
            let list = rest.split('}').next().unwrap_or(rest);
            list.split(',')
                .any(|item| matches!(item.trim(), "Mutex" | "RwLock" | "Condvar"))
        });
        if direct || braced {
            emit(
                out,
                summary,
                ctx,
                "std-sync",
                l,
                "std::sync::{Mutex,RwLock,Condvar} outside crates/shims — use the \
                 parking_lot shim (instrumented: lock-order witness + model checker)"
                    .to_string(),
            );
        }
    }
}

fn scan_wire_string(ctx: &FileCtx<'_>, out: &mut Vec<Finding>, summary: &mut LintSummary) {
    for (l, masked) in ctx.masked_lines.iter().enumerate() {
        if masked.contains(".as_bytes(") && !masked.contains("wire_str(") {
            emit(
                out,
                summary,
                ctx,
                "wire-string",
                l,
                "wire write bypasses the bounded-string helper — wrap the source \
                 string in `wire_str(...)` on this line"
                    .to_string(),
            );
        }
    }
}

/// Lints `(label, source)` pairs as one tree: the per-file rules on
/// each file, then `unreferenced-pub` and `crate-local-pub` across all
/// of them.
pub fn lint_sources(files: &[(&str, &str)]) -> (Vec<Finding>, LintSummary) {
    let mut summary = LintSummary {
        files: files.len(),
        ..LintSummary::default()
    };
    let mut out = Vec::new();
    let mut ctxs = Vec::with_capacity(files.len());
    let mut index = PubIndex::default();
    for &(label, src) in files {
        let masked = mask_source(src);
        let ctx = FileCtx {
            label,
            raw_lines: src.lines().collect(),
            masked_lines: masked.lines().map(str::to_string).collect(),
            comment_lines: comments_only(src).lines().map(str::to_string).collect(),
            in_test: test_region_lines(&masked),
        };
        lint_file(&ctx, &mut out, &mut summary);
        index.add(ctxs.len(), &ctx, &masked);
        ctxs.push(ctx);
    }
    index.report(&ctxs, &mut out, &mut summary);
    summary.findings = out.len();
    (out, summary)
}

fn lint_file(ctx: &FileCtx<'_>, out: &mut Vec<Finding>, summary: &mut LintSummary) {
    let label = ctx.label;
    if rule_applies("safety-comment", label) {
        scan_safety_comments(ctx, out, summary);
    }
    if rule_applies("wall-clock", label) {
        scan_tokens(
            ctx,
            "wall-clock",
            &["Instant::now", "SystemTime", ".elapsed()"],
            true,
            "ambient wall clock in a SimClock-disciplined crate — use \
             `parking_lot::time::now()` or take a clock parameter",
            out,
            summary,
        );
    }
    if rule_applies("std-sync", label) {
        scan_std_sync(ctx, out, summary);
    }
    if rule_applies("handler-unwrap", label) {
        scan_tokens(
            ctx,
            "handler-unwrap",
            &[".unwrap(", ".expect(", "panic!("],
            true,
            "panic path in client-reachable server code — return an ErrorCode \
             or waive with the invariant that makes this unreachable",
            out,
            summary,
        );
    }
    if rule_applies("no-print", label) {
        scan_tokens(
            ctx,
            "no-print",
            &["println!(", "eprintln!(", "print!(", "eprint!(", "dbg!("],
            true,
            "stdout/stderr noise in a library crate",
            out,
            summary,
        );
    }
    if rule_applies("wire-string", label) {
        scan_wire_string(ctx, out, summary);
    }
    if rule_applies("pair-table", label) {
        scan_tokens(
            ctx,
            "pair-table",
            &[
                "PairCache::new(",
                "PairCache::for_index(",
                "PairCache::default(",
            ],
            true,
            "a χ² pair table made outside its owner — rank through the index \
             build's shared table (`fc-core/src/paircache.rs`, \"Sharing\")",
            out,
            summary,
        );
    }
}

// ---------------------------------------------------------------------------
// unreferenced-pub and crate-local-pub (whole-tree pass)
// ---------------------------------------------------------------------------

/// Index into [`PubIndex::refs`]' counts: where a reference sits.
const CODE: usize = 0;
const TEST: usize = 1;

/// Whether references in `label` count as callers from code or from
/// tests, or not at all.
fn caller_role(label: &str) -> Option<usize> {
    match label.split('/').collect::<Vec<_>>()[..] {
        ["crates", _, "src" | "benches", ..]
        | ["benchmark", "src", ..]
        | ["examples", ..]
        | ["src", ..] => Some(CODE),
        ["crates", _, "tests", ..] | ["tests", ..] => Some(TEST),
        _ => None,
    }
}

/// The crate directory of a library source file (`crates/<name>/src`,
/// binaries excluded): code that is compiled into that library.
fn library(label: &str) -> Option<&str> {
    match label.split('/').collect::<Vec<_>>()[..] {
        ["crates", name, "src", first, ..] if first != "bin" && first != "main.rs" => Some(name),
        _ => None,
    }
}

/// Where an identifier is named: nowhere yet, only in one place, or in
/// several. A place is one library, or everything outside libraries.
#[derive(Default, Clone, Copy)]
enum Seen {
    #[default]
    Nowhere,
    Only(usize),
    Spread,
}

impl Seen {
    fn add(&mut self, place: usize) {
        *self = match *self {
            Seen::Nowhere => Seen::Only(place),
            Seen::Only(p) if p == place => Seen::Only(p),
            _ => Seen::Spread,
        };
    }

    /// Whether some mention sits outside `place`.
    fn outside(self, place: usize) -> bool {
        match self {
            Seen::Nowhere => false,
            Seen::Only(p) => p != place,
            Seen::Spread => true,
        }
    }
}

/// How an identifier is named across the tree.
#[derive(Default)]
struct Refs {
    /// Mentions outside `use` declarations, from code ([`CODE`]) and
    /// from tests ([`TEST`]).
    counts: [u32; 2],
    /// Where those mentions sit.
    named: Seen,
    /// Where mentions inside `use` declarations sit: a module is named
    /// by the paths that import through it.
    imported: Seen,
}

/// Identifier and one-character punctuation tokens of masked source,
/// each with its 0-based line.
fn tokens(masked: &str) -> Vec<(usize, &str)> {
    let b = masked.as_bytes();
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut out = Vec::new();
    let (mut i, mut line) = (0, 0);
    while i < b.len() {
        let c = b[i];
        if ident(c) {
            let s = i;
            while i < b.len() && ident(b[i]) {
                i += 1;
            }
            out.push((line, &masked[s..i]));
            continue;
        }
        if c == b'\n' {
            line += 1;
        } else if c.is_ascii_punctuation() {
            out.push((line, &masked[i..=i]));
        }
        i += 1;
    }
    out
}

/// Whether a token from [`tokens`] is an identifier (or keyword).
fn is_ident(token: &str) -> bool {
    token.as_bytes()[0].is_ascii_alphabetic() || token.starts_with('_')
}

/// If `toks[k]` is the `pub` of a `pub fn`/`struct`/`enum`/`const`/
/// `static`/`type`/`trait`/`mod` item, the indices of its keyword and
/// its name. `pub(crate)`, `pub use` and `pub` fields are not items
/// here.
fn pub_item(toks: &[(usize, &str)], k: usize) -> Option<(usize, usize)> {
    let word = |j: usize| toks.get(j).map(|t| t.1);
    let mut j = k + 1;
    loop {
        match word(j)? {
            "unsafe" | "async" | "extern" => j += 1,
            "const" if matches!(word(j + 1)?, "fn" | "unsafe" | "async" | "extern") => j += 1,
            "fn" | "struct" | "enum" | "const" | "static" | "type" | "trait" | "mod" => {
                let name = j + 1 + usize::from(word(j + 1)? == "mut");
                return is_ident(word(name)?).then_some((j, name));
            }
            _ => return None,
        }
    }
}

/// A `pub` item that `unreferenced-pub` and `crate-local-pub` check.
struct PubDef {
    file: usize,
    line: usize,
    /// `fn`, `struct`, `mod`, ….
    kind: String,
    name: String,
    /// The [`PubIndex::place`] of the library defining it, or 0 for a
    /// binary.
    place: usize,
}

/// The tree's `pub` items and, per identifier, how often and where it
/// is named — built one file at a time, so the tree is tokenized once
/// however many items it defines.
#[derive(Default)]
struct PubIndex {
    defs: Vec<PubDef>,
    refs: HashMap<String, Refs>,
    /// The libraries seen so far; library `libs[i]` is place `i + 1`,
    /// and place 0 is everything outside libraries.
    libs: Vec<String>,
}

impl PubIndex {
    /// The place of the library `label` belongs to, or 0.
    fn place(&mut self, label: &str) -> usize {
        let Some(lib) = library(label) else {
            return 0;
        };
        match self.libs.iter().position(|l| l == lib) {
            Some(i) => i + 1,
            None => {
                self.libs.push(lib.to_string());
                self.libs.len()
            }
        }
    }

    /// The counts of `word`, created on first sight.
    fn refs(&mut self, word: &str) -> &mut Refs {
        if !self.refs.contains_key(word) {
            self.refs.insert(word.to_string(), Refs::default());
        }
        self.refs.get_mut(word).expect("inserted above")
    }

    /// Indexes file number `file`. Items count from `crates/fc-*/src`
    /// outside test regions; references count from the trees
    /// [`caller_role`] names, except an item's own name at its
    /// definition. Mentions inside `use` declarations count only as
    /// imports.
    fn add(&mut self, file: usize, ctx: &FileCtx<'_>, masked: &str) {
        let Some(role) = caller_role(ctx.label) else {
            return;
        };
        let defines = ctx.label.starts_with("crates/fc-") && ctx.label.contains("/src/");
        let place = self.place(ctx.label);
        let toks = tokens(masked);
        let mut k = 0;
        let mut def_name = None;
        while k < toks.len() {
            let (line, word) = toks[k];
            let in_test = role == TEST || ctx.in_test.get(line).copied().unwrap_or(false);
            match word {
                "use" => {
                    while k < toks.len() && toks[k].1 != ";" {
                        if is_ident(toks[k].1) {
                            self.refs(toks[k].1).imported.add(place);
                        }
                        k += 1;
                    }
                }
                "pub" => {
                    if let Some((kw, name)) = pub_item(&toks, k) {
                        def_name = Some(name);
                        if defines && !in_test {
                            self.defs.push(PubDef {
                                file,
                                line,
                                kind: toks[kw].1.to_string(),
                                name: toks[name].1.to_string(),
                                place,
                            });
                        }
                    }
                }
                _ if Some(k) == def_name => {}
                _ if is_ident(word) => {
                    let refs = self.refs(word);
                    refs.counts[if in_test { TEST } else { CODE }] += 1;
                    refs.named.add(place);
                }
                _ => {}
            }
            k += 1;
        }
    }

    /// Emits a finding for every item nothing names from code
    /// (`unreferenced-pub`), and for every library `fn`, `const`,
    /// `static` or `mod` that nothing outside its library names
    /// (`crate-local-pub`). Types and traits are exempt from the second:
    /// their visibility follows the signatures that expose them, which
    /// rustc's `private_interfaces` lint checks.
    fn report(&self, ctxs: &[FileCtx<'_>], out: &mut Vec<Finding>, summary: &mut LintSummary) {
        let none = Refs::default();
        for d in &self.defs {
            let refs = self.refs.get(&d.name).unwrap_or(&none);
            let [code, test] = refs.counts;
            let what = format!("pub {} {}", d.kind, d.name);
            let (rule, message) = if code == 0 && d.kind != "mod" {
                let message = if test == 0 {
                    format!("`{what}` has no caller — delete it")
                } else {
                    format!(
                        "`{what}` is called only from tests — delete it, move it into the one \
                         test file that uses it, or waive it with a reason"
                    )
                };
                ("unreferenced-pub", message)
            } else if d.place > 0
                && matches!(&d.kind[..], "fn" | "const" | "static" | "mod")
                && !refs.named.outside(d.place)
                && !(d.kind == "mod" && refs.imported.outside(d.place))
            {
                let message = format!(
                    "`{what}` is named only inside its own crate — narrow it to \
                     `pub(crate)` (a `pub mod` in `lib.rs` to `mod`), so rustc's \
                     `dead_code` lint checks it"
                );
                ("crate-local-pub", message)
            } else {
                continue;
            };
            emit(out, summary, &ctxs[d.file], rule, d.line, message);
        }
    }
}

// ---------------------------------------------------------------------------
// Tree walk
// ---------------------------------------------------------------------------

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in rd.flatten() {
        let p = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs(&p, out);
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

/// Lints every `.rs` file under `root` (skipping `target/` and
/// `.git/`); returns findings plus scan counts.
pub fn lint_tree(root: &Path) -> (Vec<Finding>, LintSummary) {
    let mut paths = Vec::new();
    collect_rs(root, &mut paths);
    paths.sort();
    let files: Vec<(String, String)> = paths
        .iter()
        .filter_map(|f| {
            let src = std::fs::read_to_string(f).ok()?;
            let label = f
                .strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .replace('\\', "/");
            Some((label, src))
        })
        .collect();
    let borrowed: Vec<(&str, &str)> = files.iter().map(|(l, s)| (&l[..], &s[..])).collect();
    lint_sources(&borrowed)
}
