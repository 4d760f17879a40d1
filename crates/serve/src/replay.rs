//! Deterministic replay: a scripted trace in, a byte-stable stream out.
//!
//! `pruneperf serve --replay trace.jsonl` answers a request trace
//! without sockets, and the output must be **byte-identical at any
//! `--jobs`** — that is the CI gate for the whole serving stack. Three
//! choices make it hold:
//!
//! 1. Admission is *simulated*: the virtual-time model in
//!    [`crate::admission`] decides sheds from `(arrival, device,
//!    --workers)` alone, so the simulated pool size is a protocol
//!    parameter while `--jobs` only fans out independent computations.
//! 2. Deduplication is *static*: admitted requests are grouped by
//!    [`PlanRequest::canonical_key`] before any planning starts; the
//!    first occurrence is the leader, computed once, and followers
//!    reuse its body with `deduped: true`. No racing on "who computes
//!    first".
//! 3. Leaders fan out through `ordered_parallel_map`, which returns
//!    results in input order regardless of completion order; each
//!    response body is a pure function of its request (see
//!    [`crate::planner::PlanService::handle`]).
//!
//! Parse failures become error *responses* in place — a bad line never
//! desynchronizes ids between a trace and its golden output.

use std::collections::HashMap;

use pruneperf_profiler::sweep;

use crate::admission::{self, AdmissionConfig};
use crate::planner::PlanService;
use crate::protocol::{PlanRequest, PlanResponse};

/// What one replay run produced, output bytes plus tallies for loadgen.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// One response line per non-blank trace line, `\n`-terminated.
    pub output: String,
    /// Non-blank trace lines processed.
    pub total: usize,
    /// Lines that failed to parse (answered with error responses).
    pub parse_errors: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Admitted requests served from another request's computation.
    pub deduped: usize,
    /// Ok responses flagged `degraded` (fault-lost layers).
    pub degraded: usize,
    /// Error responses from name/budget refusals (parse errors excluded).
    pub refused: usize,
    /// Complete, non-degraded Ok responses.
    pub ok: usize,
    /// Virtual queueing+service latency per admitted request, stream
    /// order.
    pub latencies_ms: Vec<f64>,
    /// `(line id, arrival ms, admission outcome)` per parsed request
    /// in stream order — the `--trace-out` timeline.
    pub timeline: Vec<(usize, f64, crate::admission::AdmissionOutcome)>,
}

/// One trace line's routing decision, before any planning runs.
enum Disposition {
    /// Unparseable line, answered in place.
    ParseError(String),
    /// Parsed but shed by the admission model.
    Shed { worker: usize, depth: usize },
    /// Admitted; the leader at `unique_ix` computes the body.
    Admitted { unique_ix: usize, deduped: bool },
}

/// Replays `trace` (one JSON request per non-blank line) through the
/// admission model `config` against `service`, and returns the response
/// stream plus tallies.
///
/// The output is a pure function of `(trace, config)` — independent of
/// `--jobs` and of the service's cache bound. The caller owns the
/// service, so loadgen (and the `--stats` side channel) can inspect its
/// cache and stats afterwards.
pub fn replay_trace(trace: &str, config: &AdmissionConfig, service: &PlanService) -> ReplayReport {
    let lines: Vec<&str> = trace.lines().filter(|l| !l.trim().is_empty()).collect();

    // Pass 1: parse, and run the admission model over parsed requests in
    // stream order (parse errors never occupy queue slots).
    let mut parsed: Vec<Result<PlanRequest, String>> = Vec::with_capacity(lines.len());
    for line in &lines {
        parsed.push(PlanRequest::parse(line));
    }
    let admission_input: Vec<(f64, &str)> = parsed
        .iter()
        .filter_map(|p| p.as_ref().ok())
        .map(|r| (r.arrival_ms, r.device.as_str()))
        .collect();
    let outcomes = admission::simulate(&admission_input, config);

    // Pass 2: static dedup among admitted requests. The first request
    // with a given canonical key is the leader; everyone after it with
    // the same key reuses the leader's body.
    let mut dispositions: Vec<Disposition> = Vec::with_capacity(lines.len());
    let mut leaders: Vec<&PlanRequest> = Vec::new();
    let mut leader_ix: HashMap<String, usize> = HashMap::new();
    let mut latencies_ms = Vec::new();
    let mut timeline = Vec::new();
    let mut outcome_iter = outcomes.iter();
    for (id, p) in parsed.iter().enumerate() {
        match p {
            Err(e) => dispositions.push(Disposition::ParseError(e.clone())),
            Ok(req) => {
                // One outcome exists per parsed request by construction.
                let Some(outcome) = outcome_iter.next() else {
                    dispositions.push(Disposition::ParseError(
                        "internal: admission outcome missing".to_string(),
                    ));
                    continue;
                };
                timeline.push((id, req.arrival_ms, *outcome));
                if !outcome.admitted {
                    dispositions.push(Disposition::Shed {
                        worker: outcome.worker,
                        depth: outcome.depth,
                    });
                    continue;
                }
                latencies_ms.push(outcome.latency_ms(req.arrival_ms));
                let key = req.canonical_key();
                match leader_ix.get(&key) {
                    Some(&ix) => dispositions.push(Disposition::Admitted {
                        unique_ix: ix,
                        deduped: true,
                    }),
                    None => {
                        let ix = leaders.len();
                        leader_ix.insert(key, ix);
                        leaders.push(req);
                        dispositions.push(Disposition::Admitted {
                            unique_ix: ix,
                            deduped: false,
                        });
                    }
                }
            }
        }
    }

    // Pass 3: compute each unique request once, fanned out over the
    // session's job count; order-preserving by construction.
    let jobs = sweep::sweep_jobs();
    let bodies: Vec<PlanResponse> =
        sweep::ordered_parallel_map(&leaders, jobs, |req| service.handle(req));

    // Pass 4: render in input order.
    let mut output = String::new();
    let mut report = ReplayReport {
        output: String::new(),
        total: lines.len(),
        parse_errors: 0,
        shed: 0,
        deduped: 0,
        degraded: 0,
        refused: 0,
        ok: 0,
        latencies_ms,
        timeline,
    };
    for (id, disposition) in dispositions.iter().enumerate() {
        let line = match disposition {
            Disposition::ParseError(e) => {
                report.parse_errors += 1;
                PlanResponse::Error(e.clone()).render(id, false)
            }
            Disposition::Shed { worker, depth } => {
                report.shed += 1;
                PlanResponse::Shed {
                    worker: *worker,
                    depth: *depth,
                }
                .render(id, false)
            }
            Disposition::Admitted { unique_ix, deduped } => {
                if *deduped {
                    report.deduped += 1;
                }
                match bodies.get(*unique_ix) {
                    Some(resp) => {
                        match resp {
                            PlanResponse::Ok(body) if body.degraded => report.degraded += 1,
                            PlanResponse::Ok(_) => report.ok += 1,
                            PlanResponse::Error(_) => report.refused += 1,
                            PlanResponse::Shed { .. } => {}
                        }
                        resp.render(id, *deduped)
                    }
                    None => PlanResponse::Error("internal: missing leader response".to_string())
                        .render(id, false),
                }
            }
        };
        output.push_str(&line);
        output.push('\n');
    }
    report.output = output;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = r#"
{"arrival_ms":0,"network":"alexnet","device":"tx2","budget":0.8}
{"arrival_ms":1,"network":"alexnet","device":"tx2","budget":0.8}
{"arrival_ms":2,"network":"mobilenetv1","device":"nano","budget":0.6}
not even json
{"arrival_ms":3,"network":"lenet","device":"tx2","budget":0.8}
"#;

    const CONFIG: AdmissionConfig = AdmissionConfig {
        workers: 2,
        queue_capacity: 4,
        service_ms: 5.0,
    };

    /// Replays `trace` against a fresh, unbounded service.
    fn replay(trace: &str, config: &AdmissionConfig) -> ReplayReport {
        replay_trace(trace, config, &PlanService::new(0))
    }

    #[test]
    fn duplicates_are_served_once_and_flagged() {
        let report = replay(TRACE, &CONFIG);
        assert_eq!(report.total, 5);
        assert_eq!(report.deduped, 1);
        assert_eq!(report.parse_errors, 1);
        assert_eq!(report.refused, 1, "unknown network refused, not desynced");
        let lines: Vec<&str> = report.output.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("\"deduped\":false"));
        assert!(lines[1].contains("\"deduped\":true"));
        // Identical bodies modulo id and the dedup flag.
        let strip = |s: &str| {
            s.replace("\"id\":0,", "\"id\":_,")
                .replace("\"id\":1,", "\"id\":_,")
                .replace("\"deduped\":true", "\"deduped\":_")
                .replace("\"deduped\":false", "\"deduped\":_")
        };
        assert_eq!(strip(lines[0]), strip(lines[1]));
        assert!(lines[3].contains("\"status\":\"error\""));
        assert!(lines[4].contains("unknown network"));
    }

    #[test]
    fn the_stream_is_jobs_invariant() {
        let baseline = {
            sweep::set_sweep_jobs(1);
            replay(TRACE, &CONFIG).output
        };
        for jobs in [2, 8] {
            sweep::set_sweep_jobs(jobs);
            assert_eq!(
                replay(TRACE, &CONFIG).output,
                baseline,
                "replay output must be byte-identical at jobs={jobs}"
            );
        }
        sweep::set_sweep_jobs(1);
    }

    #[test]
    fn a_single_device_burst_sheds_deterministically() {
        let trace: String = (0..6)
            .map(|i| {
                format!(
                    "{{\"arrival_ms\":0,\"network\":\"alexnet\",\"device\":\"tx2\",\"budget\":0.{}}}\n",
                    5 + i
                )
            })
            .collect();
        let config = AdmissionConfig {
            queue_capacity: 1,
            ..CONFIG
        };
        let a = replay(&trace, &config);
        let b = replay(&trace, &config);
        assert_eq!(a, b);
        assert_eq!(
            a.shed, 4,
            "capacity 1 admits two of six simultaneous arrivals"
        );
        assert!(a.output.contains("\"status\":\"shed\""));
    }

    #[test]
    fn cache_bound_does_not_change_the_stream() {
        let unbounded = replay(TRACE, &CONFIG);
        let tiny = replay_trace(TRACE, &CONFIG, &PlanService::new(2));
        assert_eq!(tiny.output, unbounded.output);
    }
}
