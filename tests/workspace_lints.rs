//! Every package inherits the workspace lint table.
//!
//! The root `Cargo.toml` sets the source rules once in
//! `[workspace.lints]` — `unsafe_code = "forbid"`, `missing_docs`, and the
//! clippy lints that refuse unwrap, panic, wall-clock reads and hash-order
//! walks. A package picks them up only through `[lints] workspace = true`;
//! a manifest without that line silently loses every one of them, so this
//! test reads each manifest and asserts it.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails fast on an unreadable manifest"
)]

use std::fs;
use std::path::{Path, PathBuf};

/// Whether `manifest` has a `[lints]` section holding `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

#[test]
fn every_package_inherits_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root_manifest = fs::read_to_string(root.join("Cargo.toml")).unwrap();
    assert!(
        root_manifest.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""),
        "the root Cargo.toml must forbid unsafe code workspace-wide"
    );
    let mut manifests: Vec<PathBuf> = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).unwrap() {
        let manifest = entry.unwrap().path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    manifests.sort();
    assert!(manifests.len() >= 10, "found only {manifests:?}");
    let missing: Vec<String> = manifests
        .iter()
        .filter(|m| !inherits_workspace_lints(&fs::read_to_string(m).unwrap()))
        .map(|m| m.display().to_string())
        .collect();
    assert!(
        missing.is_empty(),
        "manifests without `[lints] workspace = true`:\n{}",
        missing.join("\n")
    );
}
