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
fn l5_fixture_transitive_blocking_is_flagged() {
    let rep = check(&[fixture("l5_fail.rs", "sqlpp", false)]);
    assert_eq!(rule_count(&rep, Rule::BlockingInActor), 1, "{:#?}", rep.violations);
    let v = rep.violations.iter().find(|v| v.rule == Rule::BlockingInActor).unwrap();
    // the entry never blocks directly: the witness chain must cross two hops
    assert!(
        v.message.contains("step -> route_frames -> drain_input"),
        "witness chain missing: {}",
        v.message
    );
}

#[test]
fn l5_fixture_suppressed_paths_pass() {
    let rep = check(&[fixture("l5_pass.rs", "sqlpp", false)]);
    assert_eq!(rule_count(&rep, Rule::BlockingInActor), 0, "{:#?}", rep.violations);
    // one site suppression + one opaque-boundary suppression, both reasoned
    let blocking: Vec<_> =
        rep.suppressions.iter().filter(|s| s.rule_name == "blocking").collect();
    assert_eq!(blocking.len(), 2, "{:#?}", rep.suppressions);
    assert!(blocking.iter().all(|s| !s.reason.is_empty()));
}

#[test]
fn l5_actor_host_must_declare_entries() {
    // an operator-contract implementation with no actor_entry seeds, wherever it lives
    let host = |text: &str| SourceFile {
        path: PathBuf::from("crates/hyracks/src/ops/new_op.rs"),
        crate_name: "hyracks".to_string(),
        file_is_test: false,
        is_crate_root: false,
        is_shim: false,
        text: text.to_string(),
    };
    let quiet = "struct Nop;\nimpl Operator for Nop {\n    fn on_batch(&mut self) {}\n}\n";
    let rep = check(&[host(quiet)]);
    assert_eq!(rule_count(&rep, Rule::BlockingInActor), 1, "{:#?}", rep.violations);
    let declared = "struct Nop;\nimpl Operator for Nop {\n    fn on_batch(&mut self) {} // xlint: actor_entry\n}\n";
    let rep = check(&[host(declared)]);
    assert_eq!(rule_count(&rep, Rule::BlockingInActor), 0, "{:#?}", rep.violations);
    // a file that implements neither contract is not a host
    let rep = check(&[host("pub fn quiet() {}\n")]);
    assert_eq!(rule_count(&rep, Rule::BlockingInActor), 0, "{:#?}", rep.violations);
}

#[test]
fn l6_fixture_flags_all_three_shapes() {
    let rep = check(&[fixture("l6_fail.rs", "sqlpp", false)]);
    // `let _ =` lock, bare-statement lock, early drop, `let _ =` ticket
    assert_eq!(rule_count(&rep, Rule::GuardDrop), 4, "{:#?}", rep.violations);
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
fn l8_fixture_orphan_metrics_are_flagged() {
    let rep = check(&[fixture("l8_fail.rs", "sqlpp", false)]);
    // registered-but-never-incremented + read-but-never-registered
    assert_eq!(rule_count(&rep, Rule::MetricHygiene), 2, "{:#?}", rep.violations);
}

#[test]
fn l8_fixture_live_metrics_pass() {
    let rep = check(&[fixture("l8_pass.rs", "sqlpp", false)]);
    assert_eq!(rule_count(&rep, Rule::MetricHygiene), 0, "{:#?}", rep.violations);
    assert_eq!(
        rep.suppressions.iter().filter(|s| s.rule_name == "metric").count(),
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
