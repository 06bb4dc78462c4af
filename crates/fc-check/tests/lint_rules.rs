//! Fixture coverage for every lint rule: each rule has a firing
//! fixture, a non-firing control, and a waiver pair (honoured waiver
//! plus reason-less `bad-waiver`). Fixtures are inline string
//! literals scanned through `lint_sources` with labels that route
//! them to the right rule set — nothing here touches the real tree,
//! so `repo_lint_clean` stays independent.

use fc_check::{lint_sources, mask_source, Finding};

/// Lints one source text under `label`, as a tree of one file.
fn lint_source(label: &str, src: &str) -> Vec<Finding> {
    lint_sources(&[(label, src)]).0
}

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// -------------------------------------------------------------------------
// safety-comment
// -------------------------------------------------------------------------

#[test]
fn unsafe_without_safety_comment_fires() {
    let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    let f = lint_source("crates/fc-x/src/lib.rs", src);
    assert_eq!(rules(&f), ["safety-comment"]);
    assert_eq!(f[0].line, 2);
}

#[test]
fn unsafe_with_safety_comment_is_clean() {
    let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
    assert!(lint_source("crates/fc-x/src/lib.rs", src).is_empty());
}

#[test]
fn safety_comment_within_window_above_attributes_is_honoured() {
    let src = "// SAFETY: callers uphold the contract described here,\n// spelled over several lines.\n#[inline(always)]\n#[target_feature(enable = \"avx2\")]\nunsafe fn f() {}\n";
    assert!(lint_source("crates/fc-x/src/lib.rs", src).is_empty());
}

#[test]
fn safety_in_string_literal_does_not_count() {
    // The comment scan runs on masked source: "SAFETY:" inside a
    // string must not satisfy the rule.
    let src = "fn f(p: *const u8) -> u8 {\n    let _s = \"SAFETY: not a comment\";\n    unsafe { *p }\n}\n";
    assert_eq!(
        rules(&lint_source("crates/fc-x/src/lib.rs", src)),
        ["safety-comment"]
    );
}

// -------------------------------------------------------------------------
// wall-clock
// -------------------------------------------------------------------------

#[test]
fn wall_clock_in_fc_core_fires_and_is_scoped() {
    let src = "fn f() { let t = Instant::now(); }\n";
    assert_eq!(
        rules(&lint_source("crates/fc-core/src/x.rs", src)),
        ["wall-clock"]
    );
    // Same token outside the SimClock-disciplined crates: no finding.
    assert!(lint_source("crates/fc-server/src/x.rs", src).is_empty());
    // Integration tests of the disciplined crates are exempt too.
    assert!(lint_source("crates/fc-core/tests/x.rs", src).is_empty());
}

#[test]
fn wall_clock_inside_cfg_test_is_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    fn f() { let t = Instant::now(); }\n}\n";
    assert!(lint_source("crates/fc-core/src/x.rs", src).is_empty());
}

/// `#[cfg(test)]` on a `;`-terminated item gates that item only, not
/// the next braced block.
#[test]
fn cfg_test_on_a_use_does_not_exempt_the_next_block() {
    let src = "#[cfg(test)]\nuse std::fmt;\nfn f() { let _ = std::time::Instant::now(); }\n";
    assert_eq!(
        rules(&lint_source("crates/fc-core/src/x.rs", src)),
        ["wall-clock"]
    );
    let stmt = "fn f() {\n    #[cfg(test)]\n    COUNT.with(|n| n.set(n.get() + 1));\n    match 0 { _ => drop(std::time::Instant::now()) }\n}\n";
    assert_eq!(
        rules(&lint_source("crates/fc-core/src/x.rs", stmt)),
        ["wall-clock"]
    );
}

#[test]
fn wall_clock_comment_mention_is_clean() {
    let src = "// Instant::now() is banned here; use SimClock.\nfn f() {}\n";
    assert!(lint_source("crates/fc-core/src/x.rs", src).is_empty());
}

// -------------------------------------------------------------------------
// std-sync
// -------------------------------------------------------------------------

#[test]
fn std_sync_import_fires_outside_shims() {
    let src = "use std::sync::Mutex;\n";
    assert_eq!(
        rules(&lint_source("crates/fc-core/src/x.rs", src)),
        ["std-sync"]
    );
    // The shims themselves are the one place std primitives live.
    assert!(lint_source("crates/shims/parking_lot/src/lib.rs", src).is_empty());
}

#[test]
fn std_sync_brace_import_fires_only_for_banned_items() {
    let banned = "use std::sync::{Arc, RwLock};\n";
    assert_eq!(
        rules(&lint_source("crates/fc-core/src/x.rs", banned)),
        ["std-sync"]
    );
    let fine = "use std::sync::{Arc, atomic::AtomicUsize};\n";
    assert!(lint_source("crates/fc-core/src/x.rs", fine).is_empty());
}

// -------------------------------------------------------------------------
// handler-unwrap
// -------------------------------------------------------------------------

#[test]
fn unwrap_in_server_src_fires() {
    let src = "fn handle() { let v = parse().unwrap(); }\n";
    assert_eq!(
        rules(&lint_source("crates/fc-server/src/handler.rs", src)),
        ["handler-unwrap"]
    );
    // Other crates' unwraps are out of this rule's scope.
    assert!(lint_source("crates/fc-core/src/x.rs", src).is_empty());
}

#[test]
fn unwrap_in_server_tests_is_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    fn t() { parse().unwrap(); }\n}\n";
    assert!(lint_source("crates/fc-server/src/handler.rs", src).is_empty());
}

// -------------------------------------------------------------------------
// no-print
// -------------------------------------------------------------------------

#[test]
fn println_in_library_fires_but_main_is_exempt() {
    let src = "fn f() { println!(\"x\"); }\n";
    assert_eq!(
        rules(&lint_source("crates/fc-core/src/x.rs", src)),
        ["no-print"]
    );
    assert!(lint_source("crates/fc-server/src/main.rs", src).is_empty());
    assert!(lint_source("crates/fc-server/src/bin/tool.rs", src).is_empty());
    assert!(lint_source("crates/fc-bench/src/x.rs", src).is_empty());
}

// -------------------------------------------------------------------------
// wire-string
// -------------------------------------------------------------------------

#[test]
fn raw_as_bytes_on_wire_fires_and_helper_is_clean() {
    let raw = "fn enc(w: &mut W, s: &str) { w.put(s.as_bytes()); }\n";
    assert_eq!(
        rules(&lint_source("crates/fc-server/src/protocol.rs", raw)),
        ["wire-string"]
    );
    let helper = "fn enc(w: &mut W, s: &str) { wire_str(w, s.as_bytes()); }\n";
    assert!(lint_source("crates/fc-server/src/protocol.rs", helper).is_empty());
}

// -------------------------------------------------------------------------
// Waivers
// -------------------------------------------------------------------------

#[test]
fn waiver_with_reason_suppresses_finding() {
    let src = "fn f() { let t = Instant::now(); } // fc-check: allow(wall-clock) -- fixture needs real time\n";
    assert!(lint_source("crates/fc-core/src/x.rs", src).is_empty());
}

#[test]
fn waiver_on_line_above_suppresses_finding() {
    let src = "// fc-check: allow(no-print) -- progress output is this tool's UI\nfn f() { println!(\"x\"); }\n";
    assert!(lint_source("crates/fc-core/src/x.rs", src).is_empty());
}

#[test]
fn waiver_without_reason_is_a_bad_waiver() {
    let src = "fn f() { let t = Instant::now(); } // fc-check: allow(wall-clock)\n";
    assert_eq!(
        rules(&lint_source("crates/fc-core/src/x.rs", src)),
        ["bad-waiver"]
    );
}

#[test]
fn waiver_for_wrong_rule_does_not_suppress() {
    let src = "fn f() { let t = Instant::now(); } // fc-check: allow(no-print) -- wrong rule\n";
    assert_eq!(
        rules(&lint_source("crates/fc-core/src/x.rs", src)),
        ["wall-clock"]
    );
}

// -------------------------------------------------------------------------
// Masking
// -------------------------------------------------------------------------

#[test]
fn masking_hides_comments_strings_and_nested_blocks() {
    let src = "let a = \"Instant::now()\"; // Instant::now()\n/* outer /* Instant::now() */ still masked */ let b = 1;\n";
    let masked = mask_source(src);
    assert!(!masked.contains("Instant"));
    assert!(masked.contains("let a ="));
    assert!(masked.contains("let b = 1;"));
    assert_eq!(
        masked.lines().count(),
        src.lines().count(),
        "line structure preserved"
    );
}

#[test]
fn masking_keeps_lifetimes_and_raw_strings_straight() {
    let src = "fn f<'a>(x: &'a str) {}\nlet r = r#\"println!(\"x\")\"#;\n";
    let masked = mask_source(src);
    assert!(
        masked.contains("fn f<'a>(x: &'a str)"),
        "lifetime mistaken for char: {masked}"
    );
    assert!(!masked.contains("println"));
}

// -------------------------------------------------------------------------
// unreferenced-pub
// -------------------------------------------------------------------------

/// The tree's findings for `unreferenced-pub`, as `(file, line)`.
fn unreferenced(files: &[(&str, &str)]) -> Vec<(String, usize)> {
    lint_sources(files)
        .0
        .into_iter()
        .filter(|f| f.rule == "unreferenced-pub")
        .map(|f| (f.file, f.line))
        .collect()
}

const LIB: &str = "crates/fc-x/src/lib.rs";

#[test]
fn uncalled_pub_fn_is_flagged() {
    let f = lint_source(
        LIB,
        "pub fn lonely() {}\npub fn used() {}\nfn main() { used(); }\n",
    );
    assert_eq!(rules(&f), ["unreferenced-pub"]);
    assert_eq!(f[0].line, 1);
    assert!(
        f[0].message.contains("`pub fn lonely` has no caller"),
        "{}",
        f[0].message
    );
}

#[test]
fn test_only_callers_get_their_own_message() {
    let def = "pub fn helper() {}\n";
    let from_tests_dir = lint_sources(&[
        (LIB, def),
        ("crates/fc-x/tests/t.rs", "#[test] fn t() { helper(); }\n"),
    ])
    .0;
    let from_cfg_test = lint_source(
        LIB,
        "pub fn helper() {}\n#[cfg(test)]\nmod tests {\n    #[test] fn t() { super::helper(); }\n}\n",
    );
    for f in [from_tests_dir, from_cfg_test] {
        assert_eq!(rules(&f), ["unreferenced-pub"]);
        assert!(
            f[0].message.contains("called only from tests"),
            "{}",
            f[0].message
        );
    }
}

#[test]
fn a_re_export_alone_is_not_a_caller() {
    let files = [
        ("crates/fc-x/src/a.rs", "pub struct Thing;\n"),
        (LIB, "pub mod a;\npub use a::{\n    Thing,\n};\n"),
    ];
    assert_eq!(
        unreferenced(&files),
        [("crates/fc-x/src/a.rs".to_string(), 1)]
    );
}

#[test]
fn benchmark_benches_and_examples_are_callers() {
    for caller in [
        "benchmark/src/sut.rs",
        "crates/fc-y/benches/micro.rs",
        "examples/demo.rs",
    ] {
        let files = [
            (LIB, "pub fn entry() {}\n"),
            (caller, "fn main() { fc_x::entry(); }\n"),
        ];
        assert!(unreferenced(&files).is_empty(), "{caller} should count");
    }
}

#[test]
fn restricted_visibility_is_ignored() {
    let src = "pub(crate) fn a() {}\npub(super) struct B;\npub(in crate::x) const C: u8 = 0;\n";
    assert!(lint_source(LIB, src).is_empty());
}

#[test]
fn unreferenced_pub_waivers_need_a_reason() {
    let waived = "// fc-check: allow(unreferenced-pub) -- reference oracle for the golden tests\npub fn oracle() {}\n";
    assert!(lint_source(LIB, waived).is_empty());
    let bare = "pub fn oracle() {} // fc-check: allow(unreferenced-pub)\n";
    assert_eq!(rules(&lint_source(LIB, bare)), ["bad-waiver"]);
}
