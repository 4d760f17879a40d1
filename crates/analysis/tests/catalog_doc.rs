//! Keeps `docs/RULE_CATALOG.md` and the `CATALOG` table in
//! `crates/analysis/src/rules.rs` in sync, both directions: every rule
//! id has a doc entry, every doc entry names a live rule, and the
//! documented severity matches the table.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails fast; its helpers unwrap like its test bodies"
)]

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use pruneperf_analysis::{rules, Severity};

fn catalog_doc() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/RULE_CATALOG.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `### XX00N — title` entries, with the `**Severity:**` value that
/// follows each (the doc format every family section uses).
fn documented_rules(doc: &str) -> BTreeMap<String, Option<Severity>> {
    let mut out = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in doc.lines() {
        if let Some(rest) = line.strip_prefix("### ") {
            let id: String = rest.chars().take_while(|c| !c.is_whitespace()).collect();
            current = Some(id.clone());
            out.insert(id, None);
        } else if let Some(id) = &current {
            if let Some(idx) = line.find("**Severity:**") {
                let after = &line[idx + "**Severity:**".len()..];
                let sev = if after.trim_start().starts_with("Error") {
                    Severity::Error
                } else {
                    Severity::Warning
                };
                out.insert(id.clone(), Some(sev));
                current = None; // one severity per entry
            }
        }
    }
    out
}

#[test]
fn every_catalog_rule_is_documented_with_matching_severity() {
    let doc = catalog_doc();
    let documented = documented_rules(&doc);
    for info in rules::CATALOG {
        let entry = documented.get(info.id).unwrap_or_else(|| {
            panic!(
                "{} has no `### {} — …` entry in RULE_CATALOG.md",
                info.id, info.id
            )
        });
        assert_eq!(
            *entry,
            Some(info.severity),
            "{}: documented severity disagrees with rules::CATALOG",
            info.id
        );
    }
}

#[test]
fn every_documented_rule_exists_in_the_catalog() {
    let doc = catalog_doc();
    for id in documented_rules(&doc).keys() {
        assert!(
            rules::rule_info(id).is_some(),
            "RULE_CATALOG.md documents `{id}`, which rules::CATALOG does not define"
        );
    }
}

#[test]
fn every_family_has_a_doc_section() {
    let doc = catalog_doc();
    for (prefix, _) in rules::FAMILIES {
        assert!(
            doc.lines()
                .any(|l| l.starts_with("## ") && l[3..].starts_with(prefix)),
            "RULE_CATALOG.md has no `## {prefix} — …` section"
        );
    }
}

#[test]
fn retired_families_stay_retired() {
    // Each ledger row starts with its ids (`| SL001 (…) |`); a retired
    // family's prefix is never registered again.
    let doc = catalog_doc();
    let (_, ledger) = doc
        .split_once("## Retired rules")
        .expect("RULE_CATALOG.md has a `## Retired rules` section");
    let retired: BTreeSet<String> = ledger
        .lines()
        .filter_map(|l| l.strip_prefix("| "))
        .map(|row| row.chars().take(2).collect::<String>())
        .filter(|p| p.len() == 2 && p.chars().all(|c| c.is_ascii_uppercase()))
        .collect();
    for family in ["PF", "SL", "PN"] {
        assert!(retired.contains(family), "the ledger has no {family} row");
    }
    for (prefix, name) in rules::FAMILIES {
        assert!(
            !retired.contains(*prefix),
            "{prefix} ({name}) reuses a retired family's prefix"
        );
    }
}
