//! The pruneperf benchmark: end-to-end numbers for the shipped binaries
//! and a separate traced run that attributes them to layers.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run --seed <n> [--seconds <s>] [--out <path>]
//! benchmark trace --seed <n> [--seconds <s>]
//! benchmark compare --base <file>... --head <file>...
//! benchmark record
//! ```
//!
//! The first form runs one workload and ends its standard output with one
//! JSON result line. `run` and `trace` cover all four workloads.

mod compare;
mod counters;
mod expected;
mod inputs;
mod layers;
mod load;
mod pace;
mod proc;
mod report;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use crate::expected::Expected;
use crate::inputs::WORKLOADS;
use crate::proc::{build_binaries, repo_root};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::workloads::Ctx;

/// Run length when none is given, seconds.
const DEFAULT_SECONDS: u64 = 20;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  benchmark run --seed <n> [--seconds <s>] [--out <path>]
  benchmark trace --seed <n> [--seconds <s>]
  benchmark compare --base <file>... --head <file>...
  benchmark record
workloads: serve_hot serve_churn search_resnet50 repro_all";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => all_workloads(&args[1..], false),
        Some("trace") => all_workloads(&args[1..], true),
        Some("compare") => cmd_compare(&args[1..]),
        Some("record") if args.len() == 1 => cmd_record(),
        Some(flag) if flag.starts_with("--") => cmd_one(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` pairs; unknown and repeated flags are refused.
fn flags(args: &[String], known: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| known.contains(k))
            .ok_or_else(|| format!("unexpected argument '{flag}'\n{USAGE}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if out.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(out)
}

fn number(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: Option<u64>,
) -> Result<u64, String> {
    match flags.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} must be a non-negative integer")),
        None => default.ok_or_else(|| format!("--{key} is required")),
    }
}

fn write(path: &PathBuf, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn trace_path(workload: &str) -> PathBuf {
    repo_root().join(format!("benchmark/out/trace-{workload}.json"))
}

/// Builds the binaries and loads the recorded digests for a run with the
/// given `--seed` and `--seconds`.
fn context(f: &BTreeMap<String, String>) -> Result<Ctx, String> {
    let seed = number(f, "seed", None)?;
    let seconds = number(f, "seconds", Some(DEFAULT_SECONDS))?.max(1);
    Ok(Ctx {
        bins: build_binaries()?,
        expected: Expected::load()?,
        seed,
        seconds,
    })
}

fn read_spec() -> Result<String, String> {
    let spec = repo_root().join("BENCHMARK.json");
    std::fs::read_to_string(&spec).map_err(|e| format!("cannot read {}: {e}", spec.display()))
}

/// Runs one workload, untraced or traced; `Err` voids the run. The metrics
/// must be exactly the ones `BENCHMARK.json` declares for the mode.
fn run_one(workload: &str, ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    let outcome = if traced {
        let (outcome, tracer): (Outcome, Tracer) = layers::trace(workload, ctx)?;
        write(&trace_path(workload), &tracer.to_chrome_json())?;
        outcome
    } else {
        workloads::run(workload, ctx)?
    };
    outcome.check_finite()?;
    let section = if traced { "per_layer" } else { "end_to_end" };
    let declared = compare::declared_names(&read_spec()?, section)?;
    let emitted: Vec<String> = outcome.metrics.iter().map(|m| m.name.clone()).collect();
    if emitted != declared {
        return Err(format!(
            "{workload} emitted {emitted:?}, BENCHMARK.json declares {declared:?}"
        ));
    }
    Ok(outcome)
}

fn cmd_one(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["workload", "seed", "seconds", "trace"])?;
    let workload = f.get("workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'\n{USAGE}"));
    }
    let traced = match f.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    let outcome = run_one(workload, &context(&f)?, traced)?;
    print!("{}", outcome.lines(workload));
    println!("{}", outcome.to_json());
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `run` and `trace`: every workload in turn.
fn all_workloads(args: &[String], traced: bool) -> Result<ExitCode, String> {
    let known: &[&str] = if traced {
        &["seed", "seconds"]
    } else {
        &["seed", "seconds", "out"]
    };
    let f = flags(args, known)?;
    let ctx = context(&f)?;
    let mut results = Vec::new();
    for workload in WORKLOADS {
        let outcome = run_one(workload, &ctx, traced)?;
        print!("{}", outcome.lines(workload));
        results.push((workload, outcome));
    }
    if !traced {
        let out = f
            .get("out")
            .map_or_else(|| repo_root().join("benchmark/out/run.json"), PathBuf::from);
        write(&out, &report::results_file(ctx.seed, ctx.seconds, &results))?;
        println!("wrote {}", out.display());
    }
    Ok(if results.iter().all(|(_, o)| o.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let mut sets: [Vec<Vec<(String, Outcome)>>; 2] = Default::default();
    let mut current = None;
    for arg in args {
        match arg.as_str() {
            "--base" => current = Some(0),
            "--head" => current = Some(1),
            path => {
                let side = current.ok_or_else(|| format!("'{path}' comes before --base/--head"))?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                sets[side]
                    .push(report::parse_results_file(&text).map_err(|e| format!("{path}: {e}"))?);
            }
        }
    }
    if sets.iter().any(Vec::is_empty) {
        return Err(format!(
            "compare needs result files after both --base and --head\n{USAGE}"
        ));
    }
    let bounds = compare::parse_bounds(&read_spec()?)?;
    let (table, bad) = compare::compare(&bounds, &sets[0], &sets[1]);
    print!("{table}");
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_record() -> Result<ExitCode, String> {
    let bins = build_binaries()?;
    print!("{}", expected::record(&bins)?);
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_refuse_unknown_repeated_and_dangling() {
        let known = ["seed", "seconds"];
        let ok = flags(&args(&["--seed", "3", "--seconds", "5"]), &known).unwrap();
        assert_eq!(number(&ok, "seed", None), Ok(3));
        assert_eq!(number(&ok, "trace", Some(0)), Ok(0));
        assert!(flags(&args(&["--seed", "1", "--seed", "2"]), &known).is_err());
        assert!(flags(&args(&["--speed", "1"]), &known).is_err());
        assert!(flags(&args(&["--seed"]), &known).is_err());
        assert!(number(&ok, "missing", None).is_err());
    }
}
