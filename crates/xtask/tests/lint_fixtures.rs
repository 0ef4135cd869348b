//! End-to-end fixture tests: every rule family has at least one fixture
//! the lint must reject and (where meaningful) one it must accept.
//!
//! Source-rule fixtures live in `tests/fixtures/*.rs` and are fed through
//! [`xtask::rules::scan_source`] — the same engine the binary runs, minus
//! the filesystem walk. The layering fixtures are miniature workspaces
//! driven through the full [`xtask::lint::run`] entry point.

use std::path::PathBuf;
use xtask::rules;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn scan(name: &str) -> (Vec<rules::Finding>, rules::ScanStats) {
    rules::scan_source(name, &fixture(name))
}

fn rules_hit(findings: &[rules::Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn alloc_bad_fires_only_inside_the_hot_fn() {
    let (f, s) = scan("alloc_bad.rs");
    assert_eq!(s.hot_functions, 1);
    assert!(!f.is_empty());
    assert!(f.iter().all(|x| x.rule == rules::RULE_HOT_ALLOC), "{f:?}");
    // The cold function allocates on line 5 — no finding may target it.
    assert!(f.iter().all(|x| x.line > 9), "{f:?}");
    // vec![, .to_vec(), Box::new, .clone(), .collect(), with_capacity(
    // all present.
    assert!(f.len() >= 6, "{f:?}");
}

#[test]
fn alloc_ok_is_clean_and_registers_the_hot_fn() {
    let (f, s) = scan("alloc_ok.rs");
    assert!(f.is_empty(), "{f:?}");
    assert_eq!(s.hot_functions, 1);
}

#[test]
fn waiver_without_reason_is_rejected_and_violation_still_fires() {
    let (f, s) = scan("waiver_no_reason_bad.rs");
    assert_eq!(s.waivers_used, 0);
    let hit = rules_hit(&f);
    assert!(hit.contains(&rules::RULE_DIRECTIVE), "{f:?}");
    assert!(hit.contains(&rules::RULE_HOT_ALLOC), "{f:?}");
}

#[test]
fn header_fixtures() {
    assert!(rules::check_lib_header("header_bad.rs", &fixture("header_bad.rs")).is_some());
    assert!(rules::check_lib_header("header_ok.rs", &fixture("header_ok.rs")).is_none());
}

#[test]
fn layering_bad_workspace_is_rejected_by_the_full_run() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/layering_bad");
    let report = xtask::lint::run(&root).expect("fixture workspace parses");
    assert!(!report.is_clean());
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == rules::RULE_LAYERING
                && f.message.contains("earsonar -> earsonar-sim")),
        "{:?}",
        report.findings
    );
}

#[test]
fn layering_ok_workspace_passes_the_full_run() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/layering_ok");
    let report = xtask::lint::run(&root).expect("fixture workspace parses");
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.crates_scanned, 2);
}

#[test]
fn layering_engine_bad_workspace_is_rejected_by_the_full_run() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/layering_engine_bad");
    let report = xtask::lint::run(&root).expect("fixture workspace parses");
    assert!(!report.is_clean());
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == rules::RULE_LAYERING
                && f.message.contains("earsonar-engine -> earsonar-sim")),
        "{:?}",
        report.findings
    );
}

#[test]
fn layering_engine_ok_workspace_passes_the_full_run() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/layering_engine_ok");
    let report = xtask::lint::run(&root).expect("fixture workspace parses");
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.crates_scanned, 2);
}

#[test]
fn simd_remainder_tail_pattern_is_clean_in_hot_paths() {
    // The four-lane kernel idiom (`chunks_exact(4)` + lane array +
    // scalar remainder, and `clear`/`reserve`/`extend` buffer reuse)
    // must pass the hot-path allocation rule untouched.
    let (f, s) = scan("simd_tail_ok.rs");
    assert!(f.is_empty(), "{f:?}");
    assert_eq!(s.hot_functions, 2);
}
