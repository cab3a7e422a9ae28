//! Fixture-based lint tests: one tiny offending snippet per lint,
//! asserting (a) the diagnostic fires on the right line, and (b) an
//! inline `audit:allow` marker silences it.
//!
//! The fixtures are inline raw strings rather than `.rs` files on disk so
//! the workspace scan of the real `pim-audit --check` run never picks
//! deliberately-offending sources up.

use pim_audit::audit_sources;
use pim_audit::lints::{audit_file, FileAudit};

/// Audits `src` as a library-crate source file (every lint in scope,
/// unwrap counting on).
fn audit(src: &str) -> FileAudit {
    audit_file("crates/linalg/src/fixture.rs", src, true)
}

fn lint_lines(audit: &FileAudit, lint: &str) -> Vec<u32> {
    audit.diagnostics.iter().filter(|d| d.lint == lint).map(|d| d.line).collect()
}

#[test]
fn l1_unsafe_without_safety_fires() {
    let out = audit("fn f(p: *mut f64) {\n    let v = unsafe { *p };\n}\n");
    assert_eq!(lint_lines(&out, "unsafe-safety"), vec![2]);
}

#[test]
fn l1_safety_comment_above_or_trailing_silences() {
    // Comment attached above the statement (the transmute-in-runtime shape).
    let above = "fn f(p: *mut f64) {\n    // SAFETY: p is valid for reads by contract.\n    \
                 let v = unsafe { *p };\n}\n";
    assert!(lint_lines(&audit(above), "unsafe-safety").is_empty());
    // Trailing on the same line.
    let trailing =
        "fn f(p: *mut f64) {\n    let v = unsafe { *p }; // SAFETY: valid by contract\n}\n";
    assert!(lint_lines(&audit(trailing), "unsafe-safety").is_empty());
    // A SAFETY comment separated by a previous statement does NOT attach.
    let detached = "fn f(p: *mut f64) {\n    // SAFETY: stale, belongs to nothing.\n    \
                    let a = 1;\n    let v = unsafe { *p };\n}\n";
    assert_eq!(lint_lines(&audit(detached), "unsafe-safety"), vec![4]);
}

#[test]
fn l1_unsafe_impls_each_need_their_own_safety() {
    let src = "struct P(*mut f64);\n\
               // SAFETY: raw pointer wrapper, panels are disjoint.\n\
               unsafe impl Send for P {}\n\
               unsafe impl Sync for P {}\n";
    // The `}` of the Send impl stops the Sync impl's backward search.
    assert_eq!(lint_lines(&audit(src), "unsafe-safety"), vec![4]);
}

#[test]
fn l2_float_eq_operator_fires_and_allow_silences() {
    let bare = "fn f(x: f64) -> bool {\n    x == 0.0\n}\n";
    assert_eq!(lint_lines(&audit(bare), "float-eq"), vec![2]);

    let allowed =
        "fn f(x: f64) -> bool {\n    // audit:allow(float-eq): exact-zero fast path.\n    \
                   x == 0.0\n}\n";
    let out = audit(allowed);
    assert!(lint_lines(&out, "float-eq").is_empty());
    assert!(out.unused_allows.is_empty(), "the marker must count as used");

    // Trailing marker on the offending line also works.
    let trailing =
        "fn f(x: f64) -> bool {\n    x != 1.0 // audit:allow(float-eq): sentinel value\n}\n";
    assert!(lint_lines(&audit(trailing), "float-eq").is_empty());
}

#[test]
fn l2_assert_eq_with_direct_float_literal_fires() {
    let src = "#[test]\nfn t() {\n    assert_eq!(compute(), 1.5);\n}\n";
    assert_eq!(lint_lines(&audit(src), "float-eq"), vec![3]);
    // A float literal nested in a call is an argument, not a compared
    // operand — out of lexical reach, deliberately not flagged.
    let nested = "fn t() {\n    assert_eq!(compute(1.5), expected);\n}\n";
    assert!(lint_lines(&audit(nested), "float-eq").is_empty());
    // to_bits comparisons are the blessed idiom.
    let blessed = "fn t() {\n    assert_eq!(compute().to_bits(), 1.5f64.to_bits());\n}\n";
    assert!(lint_lines(&audit(blessed), "float-eq").is_empty());
}

#[test]
fn l3_hash_container_fires_and_is_string_safe() {
    let src = "use std::collections::HashMap;\nfn f() {\n    let m: HashMap<u64, f64> = HashMap::new();\n}\n";
    assert_eq!(lint_lines(&audit(src), "hash-container"), vec![1, 3, 3]);
    // The word in a string or comment is not a violation.
    let quoted = "fn f() {\n    let s = \"HashMap\"; // HashMap in prose\n}\n";
    assert!(lint_lines(&audit(quoted), "hash-container").is_empty());
}

#[test]
fn l4_wall_clock_scoped_to_the_bench_layer() {
    let src = "use std::time::Instant;\nfn f() {\n    let t = Instant::now();\n}\n";
    assert_eq!(lint_lines(&audit(src), "wall-clock"), vec![1, 3]);
    // The same source inside the bench layer is fine: it owns the timers.
    let bench = audit_file("crates/bench/src/bin/fig.rs", src, false);
    assert!(lint_lines(&bench, "wall-clock").is_empty());
    let shim = audit_file("crates/criterion-shim/src/lib.rs", src, false);
    assert!(lint_lines(&shim, "wall-clock").is_empty());
}

#[test]
fn l5_thread_spawn_scoped_to_the_runtime() {
    let src = "fn f() {\n    std::thread::spawn(|| {});\n    \
               let b = std::thread::Builder::new();\n    std::thread::scope(|s| {});\n}\n";
    assert_eq!(lint_lines(&audit(src), "thread-spawn"), vec![2, 3, 4]);
    let runtime = audit_file("crates/runtime/src/lib.rs", src, false);
    assert!(lint_lines(&runtime, "thread-spawn").is_empty());
    // Method calls named `spawn` (a `std::thread::Scope` handle's) are not
    // flagged: the `thread::scope` that opened the scope is.
    let handle = "fn f(s: &Scope) {\n    s.spawn(|| {});\n}\n";
    assert!(lint_lines(&audit(handle), "thread-spawn").is_empty());
}

#[test]
fn l7_partial_cmp_unwrap_fires_and_total_cmp_passes() {
    let src = "fn f(v: &mut [f64]) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n    \
               v.sort_by(|a, b| (a * 2.0).partial_cmp(&f(b)).expect(\"finite\"));\n}\n";
    assert_eq!(lint_lines(&audit(src), "partial-cmp-unwrap"), vec![2, 3]);
    // A NaN-tolerant fallback and total_cmp are fine.
    let ok = "fn f(v: &mut [f64]) {\n    \
              v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));\n    \
              v.sort_by(|a, b| a.total_cmp(b));\n}\n";
    assert!(lint_lines(&audit(ok), "partial-cmp-unwrap").is_empty());
}

#[test]
fn l6_unwrap_count_skips_test_modules() {
    let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n\
               fn g(x: Option<u8>) -> u8 {\n    x.expect(\"\")\n}\n\
               fn h(x: Option<u8>) -> u8 {\n    x.expect(\"a real message\")\n}\n\
               #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        None::<u8>.unwrap();\n    }\n}\n";
    let out = audit(src);
    // f's unwrap + g's empty expect; h's messaged expect and the unit
    // test's unwrap do not count.
    assert_eq!(out.unwrap_count, Some(2));
}

#[test]
fn markers_must_be_wellformed_and_used() {
    // Unknown lint name.
    let unknown = "fn f() {} // audit:allow(no-such-lint): reason\n";
    let out = audit(unknown);
    assert_eq!(lint_lines(&out, "audit-marker"), vec![1]);
    // Missing reason.
    let bare = "fn f() {} // audit:allow(float-eq)\n";
    assert_eq!(lint_lines(&audit(bare), "audit-marker"), vec![1]);
    let empty_reason = "fn f() {} // audit:allow(float-eq):\n";
    assert_eq!(lint_lines(&audit(empty_reason), "audit-marker"), vec![1]);
    // Well-formed but matching nothing: reported as unused.
    let unused = "// audit:allow(float-eq): nothing to allow here\nfn f() {}\n";
    let out = audit(unused);
    assert!(out.diagnostics.is_empty());
    assert_eq!(out.unused_allows, vec![(1, "float-eq".to_string())]);
    // A marker only reaches its own line and the next: two lines away it
    // is unused AND the violation still fires.
    let far = "// audit:allow(float-eq): too far away\nfn f(x: f64) -> bool {\n    x == 0.0\n}\n";
    let out = audit(far);
    assert_eq!(lint_lines(&out, "float-eq"), vec![3]);
    assert_eq!(out.unused_allows.len(), 1);
}

#[test]
fn lints_do_not_fire_inside_strings_or_comments() {
    let src = r###"
fn f() {
    let a = "unsafe { HashMap Instant thread::spawn } == 0.0";
    let b = r#"x == 1.0 SystemTime"#;
    // unsafe HashMap Instant::now() x == 0.0 thread::spawn
    /* nested /* HashSet == 2.5 */ still a comment */
}
"###;
    let out = audit(src);
    assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
}

#[test]
fn lexer_edge_cases_do_not_desynchronize_the_lints() {
    // A char literal, a lifetime, and a `//` inside a string before a real
    // violation: if the lexer mis-tracked any of them the violation line
    // would be wrong or missed.
    let src = "fn f<'a>(c: char, s: &'a str) -> bool {\n    let q = '\\'';\n    \
               let url = \"https://x\";\n    1.0 == 2.0\n}\n";
    let out = audit(src);
    assert_eq!(lint_lines(&out, "float-eq"), vec![4]);
}

/// Workspace path of the `dead-pub` fixture library file.
const LIB_PATH: &str = "crates/linalg/src/a.rs";

/// A library file whose `pub fn helper` only its own unit tests call.
const LIB: &str = "pub fn helper() -> u8 {\n    private_helper()\n}\n\
                   fn private_helper() -> u8 {\n    1\n}\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                   assert_eq!(super::helper(), 1);\n    }\n}\n";

/// The `dead-pub` findings of a workspace made of `files`, as
/// `(path, line)` pairs.
fn dead_pub(files: &[(&str, &str)]) -> Vec<(String, u32)> {
    audit_sources(files)
        .reports
        .iter()
        .flat_map(|r| {
            r.audit
                .diagnostics
                .iter()
                .filter(|d| d.lint == "dead-pub")
                .map(|d| (r.path.clone(), d.line))
        })
        .collect()
}

#[test]
fn l8_dead_pub_fires_on_a_fn_only_its_own_tests_call() {
    assert_eq!(dead_pub(&[(LIB_PATH, LIB)]), vec![(LIB_PATH.to_string(), 1)]);
    // A caller in the same file outside the tests makes it live.
    let used = format!("{LIB}pub fn twice() -> u8 {{\n    2 * helper()\n}}\n");
    assert_eq!(
        dead_pub(&[(LIB_PATH, &used), ("examples/e.rs", "fn main() { twice(); }\n")]),
        vec![]
    );
    // Only library sources declare: a tool crate's `pub fn` and a
    // `pub(crate) fn` are out of scope.
    assert!(dead_pub(&[("crates/bench/src/lib.rs", LIB)]).is_empty());
    let crate_only = LIB.replace("pub fn helper", "pub(crate) fn helper");
    assert!(dead_pub(&[(LIB_PATH, &crate_only)]).is_empty());
}

#[test]
fn l8_dead_pub_counts_callers_in_every_other_file() {
    let call = "fn main() {\n    let _ = pim_linalg::a::helper();\n}\n";
    for caller in [
        "crates/linalg/tests/properties.rs",
        "crates/bench/src/bin/fig.rs",
        "examples/demo.rs",
        "perfbench/src/probe.rs",
    ] {
        assert!(dead_pub(&[(LIB_PATH, LIB), (caller, call)]).is_empty(), "{caller}");
    }
    // Another file's unit tests are callers too.
    let test_caller =
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        crate::a::helper();\n    }\n}\n";
    assert!(dead_pub(&[(LIB_PATH, LIB), ("crates/linalg/src/b.rs", test_caller)]).is_empty());
    // perfbench is read for callers but never audited itself.
    let out = audit_sources(&[("perfbench/src/main.rs", "use std::collections::HashMap;\n")]);
    assert!(out.reports.is_empty());
    assert_eq!(out.files_scanned, 0);
}

#[test]
fn l8_dead_pub_ignores_reexports_and_comments() {
    let facade = "//! Start at [`a::helper`]; helper() is the entry point.\npub mod a;\n\
                  pub use a::helper;\nuse a::{helper as h};\n";
    assert_eq!(
        dead_pub(&[(LIB_PATH, LIB), ("crates/linalg/src/lib.rs", facade)]),
        vec![(LIB_PATH.to_string(), 1)]
    );
}

#[test]
fn l8_dead_pub_honours_the_allow_marker() {
    let allowed = format!("// audit:allow(dead-pub): the import path for outside data\n{LIB}");
    let out = audit_sources(&[(LIB_PATH, &allowed)]);
    assert!(out.reports.is_empty(), "{:?}", out.reports);
    // A dead-pub marker with nothing to allow is reported as unused.
    let stale = "// audit:allow(dead-pub): nothing to allow\nfn private() {}\n";
    let out = audit_sources(&[(LIB_PATH, stale)]);
    assert_eq!(out.violations(), 1);
    assert_eq!(out.reports[0].audit.unused_allows, vec![(1, "dead-pub".to_string())]);
}
