//! No stale suppression markers: every `// lint: allow(<key>)` comment in
//! first-party code names a key some live rule family reads. A marker
//! whose rule was retired, or whose key is mistyped, suppresses nothing,
//! so it would otherwise linger unnoticed.

use std::fs;
use std::path::{Path, PathBuf};

use pruneperf_analysis::model::{CC_MARKER_KEYS, EXTRACTION_MARKER_KEYS, RB_MARKER_KEYS};
use pruneperf_analysis::source_lint::SL_MARKER_KEYS;

/// The key of the `// lint: allow(<key>)` line comment on `line`, if any.
/// Doc comments, markers quoted in backticks (docs and hint text) and
/// `//` inside a string literal are not markers.
fn marker_key(line: &str) -> Option<&str> {
    let at = line.find("//")?;
    let (code, comment) = line.split_at(at);
    if comment.starts_with("///")
        || comment.starts_with("//!")
        || code.ends_with('`')
        || code.matches('"').count() % 2 == 1
    {
        return None;
    }
    let rest = comment[2..].trim_start().strip_prefix("lint: allow(")?;
    rest.split(')').next().map(str::trim)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_marker_names_a_live_rule_key() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolvable");
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files);
    for krate in fs::read_dir(root.join("crates")).expect("crates/ readable") {
        collect_rs(&krate.expect("crate entry").path().join("src"), &mut files);
    }
    assert!(files.len() > 50, "found only {} source files", files.len());

    let live: Vec<&str> = [
        SL_MARKER_KEYS,
        CC_MARKER_KEYS,
        RB_MARKER_KEYS,
        EXTRACTION_MARKER_KEYS,
    ]
    .concat();
    let mut stale = Vec::new();
    let mut markers = 0;
    for path in &files {
        let text = fs::read_to_string(path).expect("source readable");
        for (i, line) in text.lines().enumerate() {
            let Some(key) = marker_key(line) else {
                continue;
            };
            markers += 1;
            if !live.contains(&key) {
                let rel = path.strip_prefix(&root).unwrap_or(path);
                stale.push(format!("{}:{}: allow({key})", rel.display(), i + 1));
            }
        }
    }
    assert!(markers > 50, "found only {markers} markers");
    assert!(
        stale.is_empty(),
        "markers no rule reads:\n{}",
        stale.join("\n")
    );
}
