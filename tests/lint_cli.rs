//! End-to-end behaviour of the analyzer commands `pruneperf lint` and
//! `pruneperf check`: `lint` is clean and golden (byte-identical) across
//! worker counts and consecutive runs, `--deny-warnings` turns warnings
//! into a failure, and `check` refuses a root it cannot see.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails fast on a broken fixture"
)]

use pruneperf::cli::{run_cli, CliError};

fn run(args: &[&str]) -> Result<String, CliError> {
    let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    run_cli(&v)
}

fn check_fixture(name: &str) -> String {
    format!(
        "{}/crates/analysis/tests/fixtures/check/{name}",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// The repository's own tree passes its lint, and the JSON report is
/// byte-identical across `--jobs 1` and `--jobs 8` and across two
/// consecutive runs — the golden determinism contract.
#[test]
fn lint_is_clean_and_golden_on_this_tree() {
    let sequential = run(&["lint", "--json", "--jobs", "1"]).expect("clean tree");
    let parallel = run(&["lint", "--json", "--jobs", "8"]).expect("clean tree");
    assert_eq!(sequential, parallel);
    let again = run(&["lint", "--json", "--jobs", "8"]).expect("clean tree");
    assert_eq!(parallel, again);
    assert!(sequential.contains("\"errors\": 0"), "{sequential}");
    assert!(sequential.contains("\"warnings\": 0"), "{sequential}");
}

/// Warnings alone pass by default and fail under `--deny-warnings`: the
/// `rb002` fixture seeds one warning-severity finding and nothing else.
#[test]
fn deny_warnings_promotes_warnings_to_failure() {
    let root = check_fixture("rb002");
    let ok = run(&["check", "--root", &root]).expect("warnings pass by default");
    assert!(ok.contains("0 error(s), 1 warning(s)"), "{ok}");
    let err = run(&["check", "--root", &root, "--deny-warnings"])
        .expect_err("--deny-warnings must fail on warnings");
    assert!(err.0.contains("RB002"), "{}", err.0);
}

/// A root with no `.rs` file under it — a mistyped path, or an empty
/// directory — is an error naming the root, not a clean pass over
/// nothing.
#[test]
fn check_refuses_a_root_without_sources() {
    let empty = std::env::temp_dir().join(format!("pruneperf-empty-root-{}", std::process::id()));
    std::fs::create_dir_all(&empty).unwrap();
    let root = empty.to_string_lossy().into_owned();
    let err = run(&["check", "--root", &root, "--deny-warnings"])
        .expect_err("an empty root must not pass");
    assert!(
        err.0
            .contains(&format!("cannot read sources under '{root}'")),
        "{}",
        err.0
    );
    std::fs::remove_dir_all(&empty).ok();
    let missing = run(&["check", "--root", "/nonexistent/pruneperf-root"])
        .expect_err("a missing root must not pass");
    assert!(
        missing.0.contains("/nonexistent/pruneperf-root"),
        "{}",
        missing.0
    );
}

/// Unknown flags are reported, not ignored; `lint` has no `--root`.
#[test]
fn lint_rejects_unknown_flags() {
    for args in [&["lint", "--format", "json"][..], &["lint", "--root", "."]] {
        let err = run(args).expect_err("unknown flag");
        assert!(err.0.contains("unexpected argument"), "{}", err.0);
    }
}
