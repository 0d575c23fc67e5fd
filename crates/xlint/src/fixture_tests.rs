//! Self-tests running every rule against the seeded fixture files in
//! `fixtures/`. Each rule has at least one failing and one passing fixture;
//! the workspace scan never reaches them because [`crate::rules::discover`]
//! marks any path with a `fixtures` component as test code.

use crate::rules::{check, Rule, SourceFile};
use std::path::PathBuf;

fn fixture(name: &str, crate_name: &str, is_crate_root: bool) -> SourceFile {
    let disk = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    SourceFile {
        path: PathBuf::from(format!("fixtures/{name}")),
        crate_name: crate_name.to_string(),
        file_is_test: false,
        is_crate_root,
        is_shim: false,
        text: std::fs::read_to_string(&disk)
            .unwrap_or_else(|e| panic!("fixture {disk:?}: {e}")),
    }
}

fn rule_count(rep: &crate::rules::Report, rule: Rule) -> usize {
    rep.violations.iter().filter(|v| v.rule == rule).count()
}

#[test]
fn l2_fixture_missing_forbid_is_flagged() {
    let rep = check(&[fixture("l2_fail.rs", "storage", true)]);
    assert_eq!(rule_count(&rep, Rule::UnsafeForbid), 1, "{:#?}", rep.violations);
}

#[test]
fn l2_fixture_with_forbid_passes() {
    let rep = check(&[fixture("l2_pass.rs", "storage", true)]);
    assert_eq!(rule_count(&rep, Rule::UnsafeForbid), 0, "{:#?}", rep.violations);
}

#[test]
fn l2_ignores_non_root_files() {
    let rep = check(&[fixture("l2_fail.rs", "storage", false)]);
    assert_eq!(rule_count(&rep, Rule::UnsafeForbid), 0, "{:#?}", rep.violations);
}

#[test]
fn l6_fixture_flags_both_shapes() {
    let rep = check(&[fixture("l6_fail.rs", "sqlpp", false)]);
    // `let _ =` lock, early drop, `let _ =` ticket
    assert_eq!(rule_count(&rep, Rule::GuardDrop), 3, "{:#?}", rep.violations);
}

#[test]
fn l6_fixture_held_guards_pass() {
    let rep = check(&[fixture("l6_pass.rs", "sqlpp", false)]);
    assert_eq!(rule_count(&rep, Rule::GuardDrop), 0, "{:#?}", rep.violations);
    assert_eq!(
        rep.suppressions.iter().filter(|s| s.rule_name == "guard_drop").count(),
        1,
        "{:#?}",
        rep.suppressions
    );
}

#[test]
fn l7_fixture_unannotated_relaxed_is_flagged() {
    let rep = check(&[fixture("l7_fail.rs", "sqlpp", false)]);
    // consumed fetch_add, single-line CAS, multi-line CAS; the discarded
    // stat bump on the last line must not count
    assert_eq!(rule_count(&rep, Rule::AtomicOrdering), 3, "{:#?}", rep.violations);
}

#[test]
fn l7_fixture_annotated_relaxed_passes() {
    let rep = check(&[fixture("l7_pass.rs", "sqlpp", false)]);
    assert_eq!(rule_count(&rep, Rule::AtomicOrdering), 0, "{:#?}", rep.violations);
    assert_eq!(
        rep.suppressions.iter().filter(|s| s.rule_name == "atomic_ordering").count(),
        1,
        "{:#?}",
        rep.suppressions
    );
}

#[test]
fn workspace_discovery_marks_fixtures_as_test_code() {
    // walking the xlint crate itself: fixtures/ must come back test-flagged
    let files = crate::rules::discover(&PathBuf::from(env!("CARGO_MANIFEST_DIR")))
        .expect("discover");
    let fixture_files: Vec<_> =
        files.iter().filter(|f| f.path.to_string_lossy().contains("fixtures")).collect();
    assert!(!fixture_files.is_empty());
    assert!(fixture_files.iter().all(|f| f.file_is_test));
}
