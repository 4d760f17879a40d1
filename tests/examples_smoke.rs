//! Smoke-runs of the example binaries.
//!
//! Marked `#[ignore]` because each example performs full channel sweeps —
//! minutes in debug builds. Run explicitly (release strongly recommended):
//!
//! ```text
//! cargo test --release --test examples_smoke -- --ignored
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails fast; its helpers unwrap like its test bodies"
)]

use std::process::Command;

fn run_example(name: &str) {
    let status = Command::new(env!("CARGO"))
        .args(["run", "--release", "--example", name])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .status()
        .expect("cargo is runnable");
    assert!(status.success(), "example {name} failed: {status}");
}

#[test]
#[ignore = "runs full sweeps; execute with --ignored in release"]
fn quickstart_runs() {
    run_example("quickstart");
}

#[test]
#[ignore = "runs full sweeps; execute with --ignored in release"]
fn prune_resnet50_runs() {
    run_example("prune_resnet50");
}

#[test]
#[ignore = "runs full sweeps; execute with --ignored in release"]
fn library_shootout_runs() {
    run_example("library_shootout");
}

#[test]
#[ignore = "runs full sweeps; execute with --ignored in release"]
fn simulator_deep_dive_runs() {
    run_example("simulator_deep_dive");
}

#[test]
#[ignore = "runs full sweeps; execute with --ignored in release"]
fn design_for_device_runs() {
    run_example("design_for_device");
}

#[test]
#[ignore = "runs full sweeps; execute with --ignored in release"]
fn sustained_inference_runs() {
    run_example("sustained_inference");
}
