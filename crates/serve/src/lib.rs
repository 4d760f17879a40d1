//! The pruning-plan service: a long-running daemon over the planner.
//!
//! The paper's methodology (Radu et al., IISWC 2019) only pays off when a
//! staircase-aware plan is cheap to request on demand: an iterative
//! pruning loop (He et al.'s two-step search) issues repeated
//! budget→plan queries over one shared latency surface. This crate wraps
//! the existing planners and [`pruneperf_profiler::NetworkRunner`] in
//! exactly that shape, three ways:
//!
//! - [`server`] — a live `pruneperf serve` daemon: line-delimited JSON
//!   over HTTP/1.1 on [`std::net::TcpListener`] plus a hand-rolled
//!   thread pool (the offline build bakes in no async runtime).
//!   Each board's requests go to one worker, bounded
//!   per-worker queues shed excess load with explicit 429 responses, and
//!   the PR-4 fallible path degrades faulty plans instead of dropping
//!   connections.
//! - [`replay`] — the deterministic CI surface: `serve --replay
//!   trace.jsonl` reads a scripted request trace and writes the response
//!   stream to stdout, no sockets. Sheds come from the virtual-time
//!   admission model in [`admission`], duplicate requests are
//!   deduplicated *statically*, and unique requests fan out through
//!   `ordered_parallel_map` — so the byte stream is identical at any
//!   `--jobs`.
//! - [`loadgen`] — a seeded request-mix generator driving the replay
//!   pipeline, reporting shed/dedup/degraded counts and a virtual-time
//!   latency histogram; the millions-of-users story in numbers, with no
//!   wall clock anywhere.
//!
//! All three share one [`planner::PlanService`]: a bounded
//! [`pruneperf_profiler::LatencyCache`] (see
//! `LatencyCache::set_max_entries_per_shard` — a long-running process
//! must not grow without bound), a
//! [`pruneperf_profiler::Stats`] registry for the `--stats` side channel,
//! and each catalog network's accuracy model, built once on first use.

#![forbid(unsafe_code)]

pub mod admission;
pub mod catalog;
pub mod http;
pub mod loadgen;
pub mod planner;
pub mod protocol;
pub mod replay;
pub mod server;

pub use admission::{AdmissionConfig, AdmissionOutcome};
pub use loadgen::{run_loadgen, LoadgenOptions};
pub use planner::PlanService;
pub use protocol::{PlanRequest, PlanResponse, RequestObjective};
pub use replay::replay_trace;
pub use server::{Server, ServerOptions};
