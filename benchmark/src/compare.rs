//! `compare`: two sets of result files, judged metric by metric against
//! the bounds in `BENCHMARK.json`.

use std::fmt::Write as _;

use serde::Value;

use crate::report::Outcome;
use crate::stats::{python_median, quartiles, relative_spread};

/// One end-to-end metric's regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json` document.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let value: Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    value
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("lower" | "higher")), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry {m:?}")),
            }
        })
        .collect()
}

/// The metric names a `BENCHMARK.json` document declares under `section`
/// (`end_to_end` or `per_layer`), in order.
pub fn declared_names(text: &str, section: &str) -> Result<Vec<String>, String> {
    let value: Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    value
        .get(section)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("no {section} list"))?
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("unnamed {section} entry"))
        })
        .collect()
}

/// How the head set compares with the base set on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the base runs' own spread.
    Improved,
    /// No worse than the bound allows.
    WithinBound,
    /// Worse by more than the bound.
    Regressed,
    /// The runs spread wider than the bound, so no call can be made.
    Unresolved,
}

impl Verdict {
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much larger a share of its operations the head may fail, in
/// absolute terms, before the workload counts as regressed.
const FAILED_RATIO_BOUND: f64 = 0.005;

/// Failed over attempted operations, summed over every run of `workload`.
fn failed_ratio(sets: &[Vec<(String, Outcome)>], workload: &str) -> f64 {
    let (failed, attempted) = sets
        .iter()
        .flatten()
        .filter(|(w, _)| w == workload)
        .fold((0, 0), |(f, a), (_, o)| (f + o.failed, a + o.attempted));
    failed as f64 / attempted.max(1) as f64
}

/// Applies the failure gate to a metric's verdict. A head that fails more
/// often than the bound allows regressed, whatever its numbers; one that
/// fails more often at all cannot count as improved, because sheds and
/// errors are fast and make the survivors look quick.
fn gated(v: Verdict, base_failed: f64, head_failed: f64) -> Verdict {
    if head_failed > base_failed + FAILED_RATIO_BOUND {
        Verdict::Regressed
    } else if head_failed > base_failed && v == Verdict::Improved {
        Verdict::WithinBound
    } else {
        v
    }
}

/// Judges `head` against `base` for a metric with the given bound.
fn verdict(base: &[f64], head: &[f64], bound: &Bound) -> Verdict {
    let (b, h) = (python_median(base), python_median(head));
    // Positive when the head is worse, as a share of the base median.
    let worse = if bound.lower_is_better { h - b } else { b - h } / b.abs();
    let better = |x: f64, y: f64| if bound.lower_is_better { x < y } else { x > y };
    let all_better = head.iter().all(|&x| base.iter().all(|&y| better(x, y)));
    let base_spread = relative_spread(base).unwrap_or(0.0);
    let spread = base_spread.max(relative_spread(head).unwrap_or(0.0));
    if all_better {
        Verdict::Improved
    } else if spread > bound.bound {
        Verdict::Unresolved
    } else if worse > bound.bound {
        Verdict::Regressed
    } else if -worse > base_spread {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

fn values(sets: &[Vec<(String, Outcome)>], workload: &str, metric: &str) -> Vec<f64> {
    sets.iter()
        .flatten()
        .filter(|(w, _)| w == workload)
        .filter_map(|(_, o)| o.get(metric))
        .collect()
}

fn summary(v: &[f64]) -> String {
    match quartiles(v) {
        Some((q1, q3)) => format!("{:.4} [{q1:.4}, {q3:.4}]", python_median(v)),
        None => format!("{:.4}", python_median(v)),
    }
}

/// One row per workload and end-to-end metric: both medians with their
/// quartiles, the change and the verdict, after a row per workload for the
/// share of failed operations. The second value is `true` when any row
/// regressed or is unresolved.
pub fn compare(
    bounds: &[Bound],
    base: &[Vec<(String, Outcome)>],
    head: &[Vec<(String, Outcome)>],
) -> (String, bool) {
    let mut workloads: Vec<&str> = base.iter().flatten().map(|(w, _)| w.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut out = String::from(
        "workload metric base(median [q1, q3]) head(median [q1, q3]) change verdict\n",
    );
    let mut bad = false;
    for workload in workloads {
        let (base_failed, head_failed) =
            (failed_ratio(base, workload), failed_ratio(head, workload));
        let v = gated(Verdict::WithinBound, base_failed, head_failed);
        bad |= v == Verdict::Regressed;
        let _ = writeln!(
            out,
            "{workload} failed_ratio {base_failed:.4} {head_failed:.4} {:+.4} {} (bound +{FAILED_RATIO_BOUND} absolute)",
            head_failed - base_failed,
            v.as_str()
        );
        for bound in bounds {
            let b = values(base, workload, &bound.name);
            let h = values(head, workload, &bound.name);
            if b.is_empty() || h.is_empty() {
                let _ = writeln!(out, "{workload} {} missing", bound.name);
                bad = true;
                continue;
            }
            let v = gated(verdict(&b, &h, bound), base_failed, head_failed);
            bad |= matches!(v, Verdict::Regressed | Verdict::Unresolved);
            let change = (python_median(&h) - python_median(&b)) / python_median(&b) * 100.0;
            let _ = writeln!(
                out,
                "{workload} {} {} {} {change:+.2}% {} (bound {}%, runs {}/{})",
                bound.name,
                summary(&b),
                summary(&h),
                v.as_str(),
                bound.bound * 100.0,
                b.len(),
                h.len()
            );
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "latency_p50_ms".to_string(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_cover_every_case() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Same distribution: within bound.
        assert_eq!(
            verdict(&base, &[10.02, 9.98, 10.0], &lower(0.15)),
            Verdict::WithinBound
        );
        // 30% slower with tight runs: regressed.
        assert_eq!(
            verdict(&base, &[13.0, 13.1, 12.9], &lower(0.15)),
            Verdict::Regressed
        );
        // Every head run faster than every base run: improved.
        assert_eq!(
            verdict(&base, &[8.0, 8.1, 7.9], &lower(0.15)),
            Verdict::Improved
        );
        // Runs spread wider than the bound: unresolved, even if the median moved.
        assert_eq!(
            verdict(&base, &[6.0, 14.0, 10.5, 20.0, 5.0], &lower(0.15)),
            Verdict::Unresolved
        );
        // Higher-is-better metrics flip the direction.
        let ops = Bound {
            name: "ops_per_s".to_string(),
            lower_is_better: false,
            bound: 0.10,
        };
        assert_eq!(verdict(&base, &[8.0, 8.1, 7.9], &ops), Verdict::Regressed);
    }

    #[test]
    fn the_checked_in_bounds_parse() {
        let text =
            std::fs::read_to_string(crate::proc::repo_root().join("BENCHMARK.json")).unwrap();
        let bounds = parse_bounds(&text).unwrap();
        let setup = bounds.iter().find(|b| b.name == "setup_s").unwrap();
        assert!(setup.lower_is_better);
        assert!(bounds
            .iter()
            .all(|b| b.bound <= setup.bound && b.bound <= 0.25));
    }

    #[test]
    fn compare_reports_one_row_per_workload_and_metric() {
        let outcome = |v: f64| {
            let mut o = Outcome::default();
            o.metrics
                .push(crate::report::Metric::new("latency_p50_ms", v, "ms"));
            vec![("serve_hot".to_string(), o)]
        };
        let base = vec![outcome(10.0), outcome(10.1), outcome(9.9)];
        let head = vec![outcome(10.0), outcome(10.05), outcome(9.95)];
        let (text, bad) = compare(&[lower(0.15)], &base, &head);
        assert!(!bad, "{text}");
        assert!(text.contains("serve_hot latency_p50_ms 10.0000"), "{text}");
        assert!(text.contains("within bound"), "{text}");
        let (text, bad) = compare(&[lower(0.15)], &base, &[outcome(20.0), outcome(21.0)]);
        assert!(bad && text.contains("regressed"), "{text}");
    }

    #[test]
    fn a_head_that_fails_more_never_passes_on_speed() {
        let outcome = |v: f64, failed: u64| {
            let mut o = Outcome {
                attempted: 500,
                failed,
                ..Outcome::default()
            };
            o.metrics
                .push(crate::report::Metric::new("latency_p50_ms", v, "ms"));
            vec![("serve_hot".to_string(), o)]
        };
        let base = vec![outcome(10.0, 0), outcome(10.1, 0), outcome(9.9, 0)];
        // Sheds one request in ten and answers the rest faster: regressed.
        let shedding = vec![outcome(7.0, 50), outcome(7.1, 50), outcome(6.9, 50)];
        let (text, bad) = compare(&[lower(0.15)], &base, &shedding);
        assert!(bad, "{text}");
        assert!(text.contains("failed_ratio 0.0000 0.1000"), "{text}");
        assert!(!text.contains("improved"), "{text}");
        // One more failure in 1500 is within the gate, but not an improvement.
        let one_more = vec![outcome(7.0, 1), outcome(7.1, 0), outcome(6.9, 0)];
        let (text, bad) = compare(&[lower(0.15)], &base, &one_more);
        assert!(!bad, "{text}");
        assert!(!text.contains("improved"), "{text}");
        assert_eq!(gated(Verdict::Improved, 0.0, 0.0), Verdict::Improved);
    }
}
