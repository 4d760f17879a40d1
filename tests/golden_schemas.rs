//! Golden JSON-*schema* snapshot tests for every machine-readable CLI
//! surface (PR 5 satellite).
//!
//! Values in `check --json` (file counts) and `bench --json` (virtual
//! metrics) legitimately move as the codebase grows, so these goldens pin
//! the *shape* instead: key names, key order, nesting and value types.
//! A renamed or reordered field — the thing that silently breaks a
//! downstream consumer — fails the diff; a new measurement does not.
//!
//! One full-byte golden rides along: `chaos --seed 1 --json` is a pure
//! function of the seed and the simulator, so its exact bytes are pinned
//! as a regression anchor.
//!
//! Regenerate after an intentional schema change with:
//!
//! ```text
//! PRUNEPERF_UPDATE_GOLDENS=1 cargo test --test golden_schemas
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails fast; its helpers unwrap like its test bodies"
)]

use std::path::PathBuf;

use pruneperf::cli::run_cli;

/// Renders the *shape* of a JSON value: objects list their keys in order
/// with each value's shape indented below; arrays list the distinct
/// element shapes in first-appearance order; every number renders as
/// `number` so `0` vs `0.5` cannot flap the schema.
fn shape(value: &serde::Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match value {
        serde::Value::Null => out.push_str(&format!("{pad}null\n")),
        serde::Value::Bool(_) => out.push_str(&format!("{pad}bool\n")),
        serde::Value::Int(_) | serde::Value::UInt(_) | serde::Value::Float(_) => {
            out.push_str(&format!("{pad}number\n"))
        }
        serde::Value::Str(_) => out.push_str(&format!("{pad}string\n")),
        serde::Value::Array(items) => {
            if items.is_empty() {
                out.push_str(&format!("{pad}array (empty)\n"));
                return;
            }
            out.push_str(&format!("{pad}array of:\n"));
            let mut seen: Vec<String> = Vec::new();
            for item in items {
                let mut rendered = String::new();
                shape(item, indent + 1, &mut rendered);
                if !seen.contains(&rendered) {
                    seen.push(rendered);
                }
            }
            for rendered in seen {
                out.push_str(&rendered);
            }
        }
        serde::Value::Object(entries) => {
            out.push_str(&format!("{pad}object:\n"));
            for (key, entry) in entries {
                out.push_str(&format!("{pad}  {key}:\n"));
                shape(entry, indent + 2, out);
            }
        }
    }
}

fn schema_of(json: &str) -> String {
    let parsed: serde::Value = serde_json::from_str(json).expect("CLI emitted invalid JSON");
    let mut out = String::new();
    shape(&parsed, 0, &mut out);
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

/// Compares `actual` against the checked-in golden, or rewrites the
/// golden when `PRUNEPERF_UPDATE_GOLDENS` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("PRUNEPERF_UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {name} ({e}); run with PRUNEPERF_UPDATE_GOLDENS=1 to create it")
    });
    assert_eq!(
        expected, actual,
        "golden '{name}' drifted; if the change is intentional, regenerate with \
         PRUNEPERF_UPDATE_GOLDENS=1 cargo test --test golden_schemas"
    );
}

fn cli(args: &[&str]) -> String {
    let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    run_cli(&v).expect("command succeeds")
}

#[test]
fn chaos_json_schema_matches_golden() {
    let json = cli(&["chaos", "--seed", "1", "--faults", "0.25", "--json"]);
    check_golden("chaos.schema.txt", &schema_of(&json));
}

#[test]
fn chaos_seed1_bytes_match_golden() {
    // Full-byte pin: the chaos report is a pure function of the seed.
    let json = cli(&["chaos", "--seed", "1", "--faults", "0.25", "--json"]);
    check_golden("chaos-seed1.json", &json);
}

#[test]
fn lint_json_schema_matches_golden() {
    let json = cli(&["lint", "--json"]);
    check_golden("lint.schema.txt", &schema_of(&json));
}

#[test]
fn audit_json_schema_matches_golden() {
    let json = cli(&["audit", "--json"]);
    check_golden("audit.schema.txt", &schema_of(&json));
}

#[test]
fn check_json_schema_matches_golden() {
    // The CC/PN/PF/RB analyzer over the real tree; pins the summary shape
    // including the per-family counts and hot-function tally.
    let json = cli(&["check", "--json"]);
    check_golden("check.schema.txt", &schema_of(&json));
}

#[test]
fn bench_json_schema_matches_golden() {
    // Six benchmarks, each a name and its deterministic metrics.
    let json = cli(&["bench", "--json"]);
    check_golden("bench.schema.txt", &schema_of(&json));
}

#[test]
fn stats_snapshot_schema_matches_golden() {
    let path = std::env::temp_dir().join("pruneperf-golden-stats.json");
    let path_str = path.to_string_lossy().into_owned();
    cli(&[
        "profile",
        "--network",
        "alexnet",
        "--layer",
        "AlexNet.L6",
        "--stats",
        &path_str,
    ]);
    let json = std::fs::read_to_string(&path).expect("stats snapshot written");
    std::fs::remove_file(&path).ok();
    check_golden("stats.schema.txt", &schema_of(&json));
}

#[test]
fn chrome_trace_schema_matches_golden() {
    let path = std::env::temp_dir().join("pruneperf-golden-trace.json");
    let path_str = path.to_string_lossy().into_owned();
    cli(&["run", "--network", "alexnet", "--trace-out", &path_str]);
    let json = std::fs::read_to_string(&path).expect("trace written");
    std::fs::remove_file(&path).ok();
    check_golden("trace.schema.txt", &schema_of(&json));
}

#[test]
fn search_json_schema_matches_golden() {
    let json = cli(&[
        "search",
        "--network",
        "alexnet",
        "--algo",
        "evolve",
        "--generations",
        "8",
        "--beam-width",
        "6",
        "--seed",
        "3",
        "--json",
    ]);
    check_golden("search.schema.txt", &schema_of(&json));
}

#[test]
fn search_evolve_seed3_bytes_match_golden() {
    // Full-byte pin: the search report is a pure function of
    // (network, device, backend, algo, seed, μ, generations) — no RNG
    // state, no clocks, no schedule dependence.
    let json = cli(&[
        "search",
        "--network",
        "alexnet",
        "--algo",
        "evolve",
        "--generations",
        "8",
        "--beam-width",
        "6",
        "--seed",
        "3",
        "--json",
    ]);
    check_golden("search-evolve-seed3.json", &json);
}
