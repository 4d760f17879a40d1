//! Replay-mode goldens: the serving stack's determinism contract.
//!
//! One checked-in trace exercises every response kind — clean plans, a
//! statically deduplicated duplicate, an admission-control shed, a
//! degraded plan under a fault seed, a name refusal and a parse error —
//! and the rendered stream must be byte-identical to the golden at any
//! `--jobs`. The seeded loadgen drill's report is pinned the same way,
//! so a change to admission or routing shows as a golden diff.
//! Regenerate with `PRUNEPERF_UPDATE_GOLDENS=1 cargo test --test
//! serve_replay` after an intentional protocol change.
//!
//! The ignored `every_recorded_plan_body_matches_its_digest` answers all
//! 1,440 plan keys the benchmark records; run it in release with
//! `--include-ignored`.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails fast; its helpers unwrap like its test bodies"
)]

use std::path::PathBuf;
use std::process::Command;

use pruneperf::cli::run_cli;
use pruneperf_backends::hash::fnv1a;
use pruneperf_serve::http::MAX_BODY_BYTES;
use pruneperf_serve::{PlanRequest, PlanService};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

/// Compares `actual` with the golden `name`, or rewrites the golden when
/// `PRUNEPERF_UPDATE_GOLDENS` is set.
fn assert_golden(name: &str, actual: &str) {
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
        "golden {name} drifted; if intentional, regenerate with \
         PRUNEPERF_UPDATE_GOLDENS=1 cargo test --test serve_replay"
    );
}

fn run(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    run_cli(&args).expect("command succeeds")
}

fn replay(jobs: &str) -> String {
    let trace = golden_path("serve_trace.jsonl");
    run(&[
        "serve",
        "--replay",
        trace.to_str().expect("trace path is utf-8"),
        "--workers",
        "2",
        "--queue",
        "1",
        "--service-ms",
        "5",
        "--jobs",
        jobs,
    ])
}

#[test]
fn replay_stream_matches_golden_at_any_jobs() {
    let one = replay("1");
    let eight = replay("8");
    assert_eq!(
        one, eight,
        "replay output must be byte-identical across --jobs"
    );

    assert_golden("serve_replay.golden.jsonl", &one);
}

#[test]
fn loadgen_drill_matches_golden() {
    let report = run(&["loadgen", "--seed", "42", "--requests", "32", "--jobs", "1"]);
    assert_golden("loadgen-seed42.txt", &report);
}

#[test]
fn the_trace_covers_every_response_kind() {
    let out = replay("2");
    assert!(out.contains("\"status\":\"ok\""), "{out}");
    assert!(out.contains("\"deduped\":true"), "{out}");
    assert!(out.contains("\"status\":\"shed\""), "{out}");
    assert!(out.contains("\"degraded\":true"), "{out}");
    assert!(out.contains("unknown network"), "{out}");
    assert!(out.contains("malformed request JSON"), "{out}");
    let lines = out.lines().count();
    assert_eq!(lines, 9, "one response per trace line:\n{out}");
}

#[test]
fn a_deeply_nested_line_gets_an_error_response_in_place() {
    // A body of `[` bytes at exactly the HTTP body cap passes the live
    // daemon's size check, so the JSON parser itself must refuse it. Run
    // the binary as a child: a stack overflow aborts the whole process.
    let trace = format!(
        "{}\n{}\n{}\n",
        r#"{"arrival_ms":0,"network":"alexnet","device":"tx2","budget":0.8}"#,
        "[".repeat(MAX_BODY_BYTES),
        r#"{"arrival_ms":1,"network":"alexnet","device":"nano","budget":0.8}"#,
    );
    let path =
        std::env::temp_dir().join(format!("pruneperf-deep-trace-{}.jsonl", std::process::id()));
    std::fs::write(&path, trace).expect("write trace");
    let out = Command::new(env!("CARGO_BIN_EXE_pruneperf"))
        .args(["serve", "--replay"])
        .arg(&path)
        .args(["--jobs", "1"])
        .output()
        .expect("spawn pruneperf");
    std::fs::remove_file(&path).ok();
    assert!(
        out.status.success(),
        "{}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("responses are utf-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(lines[0].contains("\"status\":\"ok\""), "{stdout}");
    assert!(
        lines[1].contains("\"status\":\"error\"") && lines[1].contains("malformed request JSON"),
        "{stdout}"
    );
    assert!(lines[2].contains("\"status\":\"ok\""), "{stdout}");
}

/// A response body without its `"id":N,` field, which depends on arrival
/// order rather than on the request: the form the benchmark digests.
fn strip_id(body: &str) -> String {
    let Some(at) = body.find("\"id\":") else {
        return body.to_string();
    };
    let rest = &body[at + 5..];
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    let tail = rest[digits..].strip_prefix(',').unwrap_or(&rest[digits..]);
    format!("{}{tail}", &body[..at])
}

/// Every plan body `benchmark/expected/serve.tsv` records (an FNV-1a
/// digest of the id-stripped body, a tab, the request), answered in file
/// order by one daemon-sized service, so later rows read spaces and cache
/// entries the earlier ones prepared.
#[test]
#[ignore = "answers 1,440 requests; run in release with --include-ignored"]
fn every_recorded_plan_body_matches_its_digest() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("benchmark/expected/serve.tsv");
    let rows = std::fs::read_to_string(&path).expect("read the recorded plan digests");
    let service = PlanService::new(4096);
    let mut checked = 0;
    for row in rows.lines() {
        let (digest, body) = row.split_once('\t').expect("digest<TAB>request");
        let want = u64::from_str_radix(digest, 16).expect("hex digest");
        let request = PlanRequest::parse(body).expect("recorded requests parse");
        let got = fnv1a(strip_id(&service.handle(&request).render(0, false)).as_bytes());
        assert_eq!(got, want, "{body}");
        checked += 1;
    }
    assert_eq!(checked, 1440, "every recorded row");
}
