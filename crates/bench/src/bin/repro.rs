//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro list            # show available experiment ids
//! repro fig14 table1    # run specific experiments
//! repro all             # run everything, print a summary
//! repro summary         # run everything, print one line per experiment
//! repro all --jobs 8 --json out.json --csv-dir csv/
//! ```
//!
//! Experiments fan out across `--jobs` worker threads (default: all
//! available cores; `PRUNEPERF_JOBS` overrides). Results are collected in
//! experiment order and every latency query is memoized, so stdout and the
//! JSON/CSV artifacts are byte-identical at any worker count; cache and
//! worker diagnostics go to stderr.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "the experiment driver fails fast: a malformed experiment should panic, not limp on"
)]

use std::fmt::Display;
use std::io::{ErrorKind, Stdout, Write as _};
use std::process::ExitCode;

use pruneperf_bench::{all_ids, run_many, ExperimentResult};
use pruneperf_profiler::{sweep, LatencyCache};

/// Standard output that goes quiet once its reader has gone (`| head`):
/// the run still writes its files and exits as it would have.
struct Out {
    stdout: Stdout,
    closed: bool,
    /// A write failed for a reason other than a closed pipe.
    failed: bool,
}

impl Out {
    /// Writes one line, unless an earlier write failed.
    fn line(&mut self, line: impl Display) {
        if self.closed {
            return;
        }
        if let Err(e) = writeln!(self.stdout.lock(), "{line}") {
            self.closed = true;
            if e.kind() != ErrorKind::BrokenPipe {
                eprintln!("cannot write stdout: {e}");
                self.failed = true;
            }
        }
    }
}

fn main() -> ExitCode {
    let mut out = Out {
        stdout: std::io::stdout(),
        closed: false,
        failed: false,
    };
    let code = run(&mut out);
    if out.failed {
        ExitCode::FAILURE
    } else {
        code
    }
}

fn run(out: &mut Out) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        return usage();
    }
    if args[0] == "list" {
        for id in all_ids() {
            out.line(id);
        }
        return ExitCode::SUCCESS;
    }

    let mut json_path: Option<String> = None;
    let mut csv_dir: Option<String> = None;
    let mut jobs_flag: Option<usize> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut seen: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if matches!(a.as_str(), "--json" | "--csv-dir" | "--jobs") {
            if seen.contains(&a) {
                eprintln!("duplicate flag {a} (each flag may be given once)");
                return ExitCode::from(2);
            }
            seen.push(a.clone());
        }
        if a == "--json" {
            json_path = it.next();
            if json_path.is_none() {
                eprintln!("--json needs a path");
                return ExitCode::from(2);
            }
        } else if a == "--csv-dir" {
            csv_dir = it.next();
            if csv_dir.is_none() {
                eprintln!("--csv-dir needs a directory");
                return ExitCode::from(2);
            }
        } else if a == "--jobs" {
            jobs_flag = it.next().and_then(|v| v.parse().ok());
            if jobs_flag.is_none() {
                eprintln!("--jobs needs a positive integer");
                return ExitCode::from(2);
            }
        } else {
            ids.push(a);
        }
    }
    // Flags alone name no experiment: refuse before anything runs or a
    // `--json` file is overwritten with an empty list.
    if ids.is_empty() {
        return usage();
    }

    let jobs = sweep::resolve_jobs(jobs_flag);
    sweep::set_sweep_jobs(jobs);

    let summary_mode = ids.len() == 1 && ids[0] == "summary";
    if summary_mode || (ids.len() == 1 && ids[0] == "all") {
        ids = all_ids().iter().map(|s| s.to_string()).collect();
    }

    let outcomes = run_many(&ids, jobs);
    let mut results: Vec<ExperimentResult> = Vec::with_capacity(outcomes.len());
    for (id, outcome) in ids.iter().zip(outcomes) {
        match outcome {
            Some(r) => results.push(r),
            None => {
                eprintln!("unknown experiment id: {id}");
                return ExitCode::from(2);
            }
        }
    }

    if summary_mode {
        for r in &results {
            let ok = r.findings.iter().filter(|f| f.ok).count();
            out.line(format_args!(
                "{:<8} {:>2}/{:<2} findings ok  {}",
                r.id,
                ok,
                r.findings.len(),
                r.title
            ));
        }
        report_engine_stats(jobs);
        return exit_code(&results);
    }

    for r in &results {
        out.line(r);
    }

    // Summary.
    let total_findings: usize = results.iter().map(|r| r.findings.len()).sum();
    let ok_findings: usize = results
        .iter()
        .flat_map(|r| &r.findings)
        .filter(|f| f.ok)
        .count();
    out.line(format_args!(
        "summary: {}/{} experiments fully in band, {ok_findings}/{total_findings} findings ok",
        results.iter().filter(|r| r.all_ok()).count(),
        results.len()
    ));
    report_engine_stats(jobs);

    if let Some(dir) = csv_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("failed to create {dir}: {e}");
            return ExitCode::FAILURE;
        }
        let mut written = 0usize;
        for r in &results {
            if let Some(csv) = &r.csv {
                let path = format!("{dir}/{}.csv", r.id);
                if let Err(e) = std::fs::write(&path, csv) {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                written += 1;
            }
        }
        out.line(format_args!("wrote {written} CSV file(s) to {dir}"));
    }

    if let Some(path) = json_path {
        match std::fs::File::create(&path).and_then(|mut f| {
            let body = serde_json::to_string_pretty(&results).expect("results serialize");
            f.write_all(body.as_bytes())
        }) {
            Ok(()) => out.line(format_args!("wrote {path}")),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    exit_code(&results)
}

/// Prints the usage text to stderr; exit code 2.
fn usage() -> ExitCode {
    eprintln!(
        "usage: repro <list | all | summary | id...> [--jobs <n>] [--json <path>] [--csv-dir <dir>]"
    );
    eprintln!("ids: {}", all_ids().join(" "));
    ExitCode::from(2)
}

/// Cache/worker diagnostics go to stderr so stdout stays byte-identical to
/// a sequential run (`repro ... > repro_output.txt` is a supported flow).
fn report_engine_stats(jobs: usize) {
    eprintln!("{} [{} worker(s)]", LatencyCache::global().stats(), jobs);
}

fn exit_code(results: &[ExperimentResult]) -> ExitCode {
    if results.iter().all(|r| r.all_ok()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
