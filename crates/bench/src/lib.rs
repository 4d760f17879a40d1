//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section and reports paper-vs-measured findings.
//!
//! Each experiment is a pure function from the (deterministic) simulator
//! stack to an [`ExperimentResult`]: a human-readable body plus a list of
//! [`Finding`]s comparing a measured quantity against the value or band the
//! paper reports. The `repro` binary runs them from the command line:
//!
//! ```text
//! cargo run -p pruneperf-bench --bin repro -- list
//! cargo run -p pruneperf-bench --bin repro -- fig14 table1
//! cargo run -p pruneperf-bench --bin repro -- all
//! ```

pub mod experiments;
pub mod micro;

pub use experiments::{all_ids, run, run_many, ExperimentResult, Finding};
pub use micro::{run_suite, BenchResult, BenchSuite, Metric};
