//! Static analysis for the pruneperf workspace: structured diagnostics
//! with five analyses on top.
//!
//! - **Plan audit** ([`plan_audit`]): enumerates [`pruneperf_backends`]
//!   dispatch plans across the paper's devices and a representative layer
//!   grid and checks the paper-derived structural invariants (rules
//!   `PA001`–`PA010`) — without running the simulation engine's timing.
//! - **Network dataflow verifier** ([`network_verify`]): a static pass
//!   over [`pruneperf_models`] full-network assemblies and the pruning
//!   plans the [`pruneperf_core`] greedies emit — channel/spatial
//!   propagation, paired input-side pruning, FLOPs re-accounting, head
//!   geometry and device-memory fit (rules `NV001`–`NV008`).
//! - **Schedule-trace auditor** ([`trace_audit`]): structural checks over
//!   the simulator's [`pruneperf_gpusim::ChainTrace`] schedules —
//!   disjointness, workgroup conservation, totals, utilization and
//!   dispatch-plan agreement (rules `TA001`–`TA006`).
//! - **Concurrency discipline** ([`concurrency`]): a whole-workspace
//!   lock-acquisition analysis over the [`model`] per-function source
//!   models and the [`callgraph`] name-resolved call graph — lock-order
//!   cycles, guards held across lock-taking calls or parallel fan-out
//!   boundaries, poison recovery, cross-thread sharing docs (rules
//!   `CC001`–`CC007`).
//! - **Resource bounds** ([`resource`]): grow-only struct fields,
//!   unbounded channels, cache structs without a capacity policy, and
//!   unbounded recursion on the fallible surface (rules `RB001`–`RB004`).
//!
//! The source-pattern rules — no unwrap, panic or wall-clock read in
//! library code, no hash-order walk, no unsafe code, documented public
//! items — are compiler and clippy lints, set once in the workspace's
//! `[workspace.lints]` table and `clippy.toml` (DESIGN.md §8.2), not
//! analyses here.
//!
//! All layers report through the shared [`Diagnostic`]/[`Report`] core in
//! [`diag`], which renders human or JSON output in a canonical order so
//! parallel runs are byte-identical. The rule catalog with stable ids
//! lives in [`rules`]; `docs/RULE_CATALOG.md` also keeps the ledger of
//! retired rules, whose ids are never reused. The `pruneperf lint` CLI
//! subcommand and the CI `lint` job drive [`audit_paper_grid`];
//! `pruneperf audit` and the CI `audit` job drive [`run_audit`];
//! `pruneperf check` and the CI `check` job drive [`run_check`].

pub mod callgraph;
pub mod concurrency;
pub mod diag;
pub mod model;
pub mod network_verify;
pub mod plan_audit;
pub mod resource;
pub mod rules;
pub mod trace_audit;

pub use diag::{Diagnostic, Report, Severity};
pub use network_verify::{audit_network_grid, audit_pruning_plan, verify_network};
pub use plan_audit::{audit_paper_grid, audit_plan};
pub use rules::{rule_info, RuleInfo, CATALOG};
pub use trace_audit::{audit_trace, audit_trace_grid};

use std::io;
use std::path::Path;

/// Runs the dynamic-artifact layers — the network dataflow verifier over
/// the stock assemblies, pruned variants and greedy pruning plans, and the
/// schedule-trace auditor over every traced dispatch plan — and merges
/// them into one report.
pub fn run_audit(jobs: usize) -> Report {
    let mut report = audit_network_grid(jobs);
    report.merge(audit_trace_grid(jobs));
    report
}

/// Runs the concurrency-discipline and resource-bound analyses over the
/// source tree at `root` and merges them into one report.
///
/// Per-file model building fans out over `jobs` workers with
/// input-ordered reduction; the graph analyses are sequential over the
/// merged model, so the report is byte-identical at any worker count.
///
/// # Errors
///
/// Returns any I/O error from reading the source tree, and
/// [`io::ErrorKind::NotFound`] when no `.rs` file is found under `root`.
pub fn run_check(root: &Path, jobs: usize) -> io::Result<Report> {
    let source_model = model::build_model(root, jobs)?;
    let graph = callgraph::CallGraph::build(&source_model);
    let mut diags = concurrency::check(&graph);
    diags.extend(resource::check(&graph));
    let mut report = Report::new(diags);
    report.files_scanned = source_model.files;
    report.functions_modeled = source_model.functions.len();
    Ok(report)
}
