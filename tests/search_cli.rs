//! End-to-end behaviour of `pruneperf search`: the JSON report is
//! byte-identical across worker counts and across a persist/reload
//! resume, the resumed run answers entirely from the restored cache, the
//! ResNet-50 fronts match the benchmark's recorded digests, the human
//! table matches its golden, a closed stdout ends the output quietly, and
//! the flag surface rejects malformed input instead of guessing.

use std::io::Read as _;
use std::process::{Command, Stdio};

use pruneperf::cli::{run_cli, CliError};
use pruneperf_backends::hash::fnv1a;

fn run(args: &[&str]) -> Result<String, CliError> {
    let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    run_cli(&v)
}

fn search_json(extra: &[&str]) -> String {
    let mut args = vec![
        "search",
        "--network",
        "alexnet",
        "--beam-width",
        "6",
        "--json",
    ];
    args.extend_from_slice(extra);
    run(&args).expect("search succeeds")
}

/// The determinism contract, at the CLI boundary: `--jobs 1` and
/// `--jobs 8` render the same bytes.
#[test]
fn search_json_is_byte_identical_across_worker_counts() {
    let sequential = search_json(&["--jobs", "1"]);
    let parallel = search_json(&["--jobs", "8"]);
    assert_eq!(sequential, parallel);
    assert!(sequential.contains("\"algo\": \"beam\""), "{sequential}");
    assert!(sequential.contains("\"front\""), "{sequential}");
}

/// The recorded ResNet-50 fronts, `benchmark/expected/search.tsv`: one
/// row per seed (seed, FNV-1a digest of the JSON report in hex,
/// `evaluated`, `archived`). The file is only read.
fn recorded_search_rows() -> Vec<Vec<String>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/benchmark/expected/search.tsv");
    let recorded = std::fs::read_to_string(path).expect("recorded search fronts");
    recorded
        .lines()
        .map(|line| line.split('\t').map(str::to_string).collect())
        .collect()
}

/// Runs the benchmark's ResNet-50 beam search for one recorded row and
/// checks its report digest, `evaluated` and `archived`.
fn check_recorded_front(row: &[String]) {
    let seed = row[0].as_str();
    let json = run(&[
        "search",
        "--network",
        "resnet50",
        "--device",
        "hikey970",
        "--backend",
        "acl-gemm",
        "--algo",
        "beam",
        "--jobs",
        "2",
        "--json",
        "--seed",
        seed,
    ])
    .expect("search succeeds");
    let digest = u64::from_str_radix(&row[1], 16).expect("hex digest");
    assert_eq!(fnv1a(json.as_bytes()), digest, "seed {seed}: report digest");
    assert!(
        json.contains(&format!("\"evaluated\": {},\n", row[2])),
        "seed {seed}: evaluated should be {}",
        row[2]
    );
    assert!(
        json.contains(&format!("\"archived\": {},\n", row[3])),
        "seed {seed}: archived should be {}",
        row[3]
    );
}

/// The benchmark's ResNet-50 beam search reproduces the fronts recorded
/// for seeds 1 and 2.
#[test]
fn resnet50_beam_fronts_match_the_recorded_digests() {
    for seed in ["1", "2"] {
        let row = recorded_search_rows()
            .into_iter()
            .find(|row| row[0] == seed)
            .expect("seed has a recorded row");
        check_recorded_front(&row);
    }
}

/// Every recorded ResNet-50 front reproduces: the benchmark draws from
/// all 32 seeds, and one wrong digest fails its run. About 10 s in
/// release:
///
/// ```text
/// cargo test -q --release --test search_cli -- --include-ignored
/// ```
#[test]
#[ignore = "32 ResNet-50 searches; run with --include-ignored in release"]
fn resnet50_beam_fronts_match_every_recorded_digest() {
    let rows = recorded_search_rows();
    assert_eq!(rows.len(), 32, "one recorded row per benchmark seed");
    for row in &rows {
        check_recorded_front(row);
    }
}

/// Persist/resume invariance: an interrupted-and-resumed search (cache
/// persisted to disk, reloaded by a second process-equivalent run)
/// renders byte-identical JSON to an uninterrupted run — the report
/// carries no cold-vs-warm observable.
#[test]
fn search_resumed_from_a_persisted_cache_is_byte_identical() {
    let path =
        std::env::temp_dir().join(format!("pruneperf-search-cache-{}.txt", std::process::id()));
    let path_str = path.to_string_lossy().into_owned();
    std::fs::remove_file(&path).ok();

    let uninterrupted = search_json(&[]);
    let cold = search_json(&["--persist", &path_str]);
    let snapshot_after_cold = std::fs::read_to_string(&path).expect("cache persisted");
    let resumed = search_json(&["--persist", &path_str]);
    let snapshot_after_resume = std::fs::read_to_string(&path).expect("cache re-persisted");
    std::fs::remove_file(&path).ok();

    assert_eq!(uninterrupted, cold);
    assert_eq!(cold, resumed);
    // The persisted bytes are idempotent too: re-persisting the reloaded
    // cache reproduces the file exactly.
    assert_eq!(snapshot_after_cold, snapshot_after_resume);
    assert!(snapshot_after_cold.starts_with("pruneperf-latency-cache v1 "));
}

/// The human rendering of a resumed run proves the cache did the work:
/// a 100% hit rate and zero misses.
#[test]
fn search_resumed_run_reports_a_full_hit_rate() {
    let path =
        std::env::temp_dir().join(format!("pruneperf-search-hits-{}.txt", std::process::id()));
    let path_str = path.to_string_lossy().into_owned();
    std::fs::remove_file(&path).ok();

    run(&[
        "search",
        "--network",
        "alexnet",
        "--beam-width",
        "4",
        "--persist",
        &path_str,
    ])
    .expect("cold search succeeds");
    let resumed = run(&[
        "search",
        "--network",
        "alexnet",
        "--beam-width",
        "4",
        "--persist",
        &path_str,
    ])
    .expect("resumed search succeeds");
    std::fs::remove_file(&path).ok();

    assert!(resumed.contains("0 misses"), "{resumed}");
    assert!(resumed.contains("(100.0% hit rate)"), "{resumed}");
    assert!(resumed.contains("entries reloaded from"), "{resumed}");
}

/// A corrupt persist file is a clean error with the offending line, and
/// the search does not run against a half-restored cache.
#[test]
fn search_rejects_a_corrupt_persist_file() {
    let path = std::env::temp_dir().join(format!(
        "pruneperf-search-corrupt-{}.txt",
        std::process::id()
    ));
    let path_str = path.to_string_lossy().into_owned();
    std::fs::write(&path, "pruneperf-latency-cache v1 entries=1\ngarbage\n").expect("write");
    let err = run(&["search", "--network", "alexnet", "--persist", &path_str])
        .expect_err("corrupt cache rejected");
    std::fs::remove_file(&path).ok();
    assert!(err.0.contains("cannot reload cache"), "{}", err.0);
    assert!(err.0.contains("line 2"), "{}", err.0);
}

/// Both algorithms resolve, and the seed changes evolve's trajectory but
/// never beam's measurements.
#[test]
fn search_algorithms_and_seeds_behave() {
    let e1 = search_json(&["--algo", "evolve", "--seed", "1", "--generations", "4"]);
    let e2 = search_json(&["--algo", "evolve", "--seed", "2", "--generations", "4"]);
    assert!(e1.contains("\"algo\": \"evolve\""), "{e1}");
    assert_ne!(e1, e2, "different seeds must explore differently");
    let e1_again = search_json(&["--algo", "evolve", "--seed", "1", "--generations", "4"]);
    assert_eq!(e1, e1_again, "same seed must reproduce exactly");
}

/// The human report, recorded as `tests/goldens/search-alexnet.txt`: the
/// front table and the cache line. A separate process at `--jobs 1`, so
/// no other test's worker count reaches its cache counters.
#[test]
fn search_human_table_matches_its_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_pruneperf"))
        .args(["search", "--network", "alexnet", "--jobs", "1"])
        .output()
        .expect("pruneperf runs");
    assert_eq!(out.status.code(), Some(0));
    let golden = include_str!("goldens/search-alexnet.txt");
    assert!(
        out.stdout == golden.as_bytes(),
        "search table differs from tests/goldens/search-alexnet.txt"
    );
}

/// A reader that closes the pipe early (`search ... | head -c 10`) ends
/// stdout, not the process: the 181 KB report is more than a 64 KiB pipe
/// holds, so the write fails once the reader is gone.
#[test]
fn search_into_a_pipe_closed_early_exits_cleanly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pruneperf"))
        .args(["search", "--network", "alexnet", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("pruneperf starts");
    let mut head = [0u8; 10];
    let mut stdout = child.stdout.take().expect("stdout is piped");
    stdout.read_exact(&mut head).expect("ten bytes");
    drop(stdout);
    let out = child.wait_with_output().expect("pruneperf exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(&head, b"{\n  \"versi");
}

/// Malformed input is reported, not ignored.
#[test]
fn search_rejects_malformed_flags() {
    for (args, needle) in [
        (vec!["search"], "unknown network"),
        (
            vec!["search", "--network", "alexnet", "--algo", "anneal"],
            "unknown algo",
        ),
        (
            vec!["search", "--network", "alexnet", "--beam-width", "wide"],
            "--beam-width",
        ),
        (
            vec!["search", "--network", "alexnet", "--seed"],
            "needs a value",
        ),
        (
            vec!["search", "--network", "alexnet", "--frobnicate", "1"],
            "unexpected argument",
        ),
    ] {
        let err = run(&args).expect_err("malformed flags rejected");
        assert!(err.0.contains(needle), "args {args:?}: {}", err.0);
    }
}

/// `--cache-cap` bounds the cache without changing the front: the search
/// re-measures what the bound evicted, so the report stays byte-stable.
#[test]
fn search_with_a_bounded_cache_is_byte_identical() {
    let unbounded = search_json(&[]);
    let bounded = search_json(&["--cache-cap", "8"]);
    assert_eq!(unbounded, bounded);
}
