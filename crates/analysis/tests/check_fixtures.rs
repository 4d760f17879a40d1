//! The concurrency/resource checker over the seeded fixture trees: one
//! deliberately-bad tree per CC/RB rule, a clean
//! tree that exercises the same shapes without violating anything, and a
//! byte-identity guarantee across worker counts.

use std::path::PathBuf;

use pruneperf_analysis::{rules, run_check};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/check")
        .join(name)
}

#[test]
fn each_seeded_fixture_trips_its_rule() {
    for (dir, rule) in [
        ("cc001", rules::CC001),
        ("cc002", rules::CC002),
        ("cc003", rules::CC003),
        ("cc004", rules::CC004),
        ("cc005", rules::CC005),
        ("cc006", rules::CC006),
        ("cc007", rules::CC007),
        ("rb001", rules::RB001),
        ("rb002", rules::RB002),
        ("rb003", rules::RB003),
        ("rb004", rules::RB004),
    ] {
        let report = run_check(&fixture(dir), 1).expect("fixture tree readable");
        assert!(
            report.diagnostics().iter().any(|d| d.rule == rule),
            "expected a {rule} finding in fixtures/check/{dir}:\n{}",
            report.render_human()
        );
    }
}

#[test]
fn seeded_fixtures_stay_on_target() {
    // Each bad tree seeds exactly one hazard; a fixture that also trips
    // unrelated rules would stop isolating the rule it names.
    for dir in [
        "cc001", "cc002", "cc003", "cc004", "cc005", "cc006", "cc007", "rb001", "rb002", "rb003",
        "rb004",
    ] {
        let report = run_check(&fixture(dir), 1).expect("fixture tree readable");
        let rules_hit: Vec<&str> = report.diagnostics().iter().map(|d| d.rule).collect();
        assert_eq!(
            rules_hit,
            vec![dir.to_uppercase()],
            "fixtures/check/{dir} trips more than its own rule:\n{}",
            report.render_human()
        );
    }
}

#[test]
fn clean_fixture_is_clean() {
    let report = run_check(&fixture("clean"), 1).expect("fixture tree readable");
    assert!(report.is_clean(), "{}", report.render_human());
    assert!(report.functions_modeled > 0);
}

#[test]
fn fixture_reports_are_identical_across_worker_counts() {
    for dir in ["cc001", "rb001", "clean"] {
        let sequential = run_check(&fixture(dir), 1).expect("fixture tree readable");
        let parallel = run_check(&fixture(dir), 8).expect("fixture tree readable");
        assert_eq!(sequential.render_json(), parallel.render_json(), "{dir}");
        assert_eq!(sequential.render_human(), parallel.render_human(), "{dir}");
    }
}

#[test]
fn workspace_report_is_identical_across_worker_counts() {
    // The acceptance gate for `pruneperf check --json`: byte-identical
    // output whatever the worker count, on the real tree.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolvable");
    let sequential = run_check(&root, 1).expect("workspace readable");
    let parallel = run_check(&root, 8).expect("workspace readable");
    assert_eq!(sequential.render_json(), parallel.render_json());
}
