//! Layer 2 — a dependency-free determinism/robustness lint over the
//! repository's Rust sources (rules `SL001`–`SL007`, see [`crate::rules`]).
//!
//! The scanner is deliberately token-level, not a full parser: every rule
//! here is a *pattern with an escape hatch*, tuned to this codebase's
//! conventions. Before matching, each file is stripped of comments and
//! string/char literals (preserving line structure), so rule patterns never
//! fire inside documentation or message text — including this module's own
//! pattern literals when the lint scans itself.
//!
//! A finding is suppressed by a marker comment on the same line or the line
//! directly above:
//!
//! ```text
//! // lint: allow(unwrap) — queue is seeded above, pop cannot fail
//! ```
//!
//! Recognized keys ([`SL_MARKER_KEYS`]): `wall-clock` (SL001), `rng`
//! (SL002), `map-order` (SL003), `unwrap` (SL005), `docs` (SL006),
//! `float-eq` (SL007). `SL004` has no marker — a crate root either forbids
//! unsafe code or it does not.

use std::io;
use std::path::Path;

use pruneperf_profiler::sweep;

use crate::diag::{Diagnostic, Report, Severity};
use crate::model::read_sources;
use crate::rules;

/// The suppression-marker keys the source-lint rules honor.
pub const SL_MARKER_KEYS: &[&str] = &[
    "wall-clock",
    "rng",
    "map-order",
    "unwrap",
    "docs",
    "float-eq",
];

/// Paths (relative, `/`-separated prefixes) where SL001/SL002 apply in repo
/// mode: the simulation and measurement pipeline, where wall-clock or
/// entropy would silently break run-to-run reproducibility.
const DETERMINISM_SCOPE: &[&str] = &[
    "crates/gpusim/",
    "crates/profiler/",
    "crates/backends/",
    "crates/core/",
];

/// Paths where SL005 does not apply: the fail-fast experiment harness,
/// where a panic on a malformed experiment is the desired behavior.
const UNWRAP_ALLOWLIST: &[&str] = &["crates/bench/src/experiments/", "crates/bench/src/bin/"];

/// Paths where SL006 (public-item docs) applies in repo mode.
const DOCS_SCOPE: &[&str] = &["crates/gpusim/src/", "crates/backends/src/"];

/// Lints every first-party source file under `root`.
///
/// Two layouts are understood. A *workspace* root (contains `crates/`)
/// scans `src/**/*.rs` plus `crates/*/src/**/*.rs` with the path scopes
/// above. Any other directory is treated as a *fixture* tree: every `.rs`
/// file under it is scanned with all rules in scope (files named `lib.rs`
/// are treated as crate roots), which is how the lint's own tests seed
/// violations without planting them in the real tree.
///
/// Files are read up front in path order (the same walk as the source
/// model's); scanning fans out over `jobs` workers with input-ordered
/// reduction, so the report is byte-identical for any worker count.
///
/// # Errors
///
/// Returns any I/O error from walking or reading the tree.
pub fn lint_sources(root: &Path, jobs: usize) -> io::Result<Report> {
    let workspace = root.join("crates").is_dir();
    let inputs = read_sources(root)?;
    let per_file = sweep::ordered_parallel_map(&inputs, jobs, |(rel, content)| {
        scan_file(rel, content, workspace)
    });
    let mut report = Report::new(per_file.into_iter().flatten().collect());
    report.files_scanned = inputs.len();
    Ok(report)
}

fn in_scope(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p))
}

fn is_crate_root(rel: &str, workspace: bool) -> bool {
    if workspace {
        rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
    } else {
        rel == "lib.rs" || rel.ends_with("/lib.rs")
    }
}

/// Scans one file. `raw` keeps comments (markers, doc comments); the
/// stripped twin drives every pattern match.
fn scan_file(rel: &str, raw: &str, workspace: bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let stripped = strip_code(raw);
    let raw_lines: Vec<&str> = raw.lines().collect();
    let code_lines: Vec<&str> = stripped.lines().collect();

    // Everything from a column-0 `#[cfg(test)]` onward is test code.
    let test_start = raw_lines
        .iter()
        .position(|l| l.trim_end() == "#[cfg(test)]" && !l.starts_with(char::is_whitespace))
        .unwrap_or(raw_lines.len());

    // SL004: crate roots must forbid unsafe code.
    if is_crate_root(rel, workspace) && !raw.contains("#![forbid(unsafe_code)]") {
        out.push(
            Diagnostic::new(
                rules::SL004,
                Severity::Error,
                format!("{rel}:1"),
                "crate root does not carry #![forbid(unsafe_code)]",
            )
            .with_hint("add the attribute next to the crate docs".to_string()),
        );
    }

    let determinism = !workspace || in_scope(rel, DETERMINISM_SCOPE);
    let docs = !workspace || in_scope(rel, DOCS_SCOPE);
    let unwrap_allowed = workspace && in_scope(rel, UNWRAP_ALLOWLIST);

    let allowed = |i: usize, key: &str| -> bool {
        marker_allows(raw_lines.get(i).copied().unwrap_or(""), key)
            || (i > 0 && marker_allows(raw_lines[i - 1], key))
    };

    let maps = tracked_map_names(&code_lines[..test_start.min(code_lines.len())]);

    for (i, line) in code_lines.iter().enumerate().take(test_start) {
        let locate = || format!("{rel}:{}", i + 1);
        if determinism {
            if (line.contains("Instant::now(") || line.contains("SystemTime::now("))
                && !allowed(i, "wall-clock")
            {
                out.push(
                    Diagnostic::new(
                        rules::SL001,
                        Severity::Error,
                        locate(),
                        "wall-clock read in a simulation/profiling path",
                    )
                    .with_hint("derive time from the deterministic engine".to_string()),
                );
            }
            if ["thread_rng(", "from_entropy(", "rand::random(", "OsRng"]
                .iter()
                .any(|p| line.contains(p))
                && !allowed(i, "rng")
            {
                out.push(
                    Diagnostic::new(
                        rules::SL002,
                        Severity::Error,
                        locate(),
                        "ad-hoc RNG in a simulation/profiling path",
                    )
                    .with_hint("thread an explicitly seeded generator through instead".to_string()),
                );
            }
        }
        if !unwrap_allowed
            && (line.contains(".unwrap()") || line.contains(".expect("))
            && !allowed(i, "unwrap")
        {
            out.push(
                Diagnostic::new(
                    rules::SL005,
                    Severity::Warning,
                    locate(),
                    "unwrap()/expect() in non-test library code",
                )
                .with_hint(
                    "return a typed error, or mark a provably infallible site with \
                     `// lint: allow(unwrap) — why`"
                        .to_string(),
                ),
            );
        }
        if let Some(msg) = float_eq_finding(line) {
            if !allowed(i, "float-eq") {
                out.push(
                    Diagnostic::new(rules::SL007, Severity::Error, locate(), msg).with_hint(
                        "compare against a tolerance (or bit patterns via to_bits); mark a \
                         deliberate exact-value guard with `// lint: allow(float-eq) — why`"
                            .to_string(),
                    ),
                );
            }
        }
        if let Some(msg) = map_order_finding(&code_lines, i, &maps) {
            if !allowed(i, "map-order") {
                out.push(
                    Diagnostic::new(rules::SL003, Severity::Error, locate(), msg).with_hint(
                        "iterate a deterministically ordered view (catalog order or a \
                         sorted Vec) instead"
                            .to_string(),
                    ),
                );
            }
        }
        if docs {
            if let Some(item) = undocumented_pub_item(&raw_lines, i) {
                if !allowed(i, "docs") {
                    out.push(
                        Diagnostic::new(
                            rules::SL006,
                            Severity::Warning,
                            locate(),
                            format!("public {item} has no doc comment"),
                        )
                        .with_hint("add a /// summary line".to_string()),
                    );
                }
            }
        }
    }
    out
}

/// `// lint: allow(key)` on this line?
pub(crate) fn marker_allows(raw_line: &str, key: &str) -> bool {
    let Some(idx) = raw_line.find("lint: allow(") else {
        return false;
    };
    if !raw_line[..idx].contains("//") {
        return false;
    }
    raw_line[idx + "lint: allow(".len()..]
        .split(')')
        .next()
        .is_some_and(|k| k.trim() == key)
}

/// Names bound to `HashMap`/`HashSet` values in the (stripped) file:
/// `let NAME: HashMap<…>`, `NAME: &HashMap<…>` params/fields and
/// `let NAME = HashMap::new()` forms.
fn tracked_map_names(code_lines: &[&str]) -> Vec<String> {
    let mut names = Vec::new();
    for line in code_lines {
        for pat in ["HashMap<", "HashSet<", "HashMap::", "HashSet::"] {
            for (idx, _) in line.match_indices(pat) {
                let mut prefix = line[..idx].trim_end();
                let name = loop {
                    while prefix.ends_with([':', '=', '&']) {
                        prefix = prefix[..prefix.len() - 1].trim_end();
                    }
                    let name: String = prefix
                        .chars()
                        .rev()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect::<Vec<_>>()
                        .into_iter()
                        .rev()
                        .collect();
                    // `&'a HashMap<…>`: `a` is a lifetime, not a binding —
                    // skip it and keep looking left for the real name.
                    let lead = prefix[..prefix.len() - name.len()].chars().next_back();
                    if lead == Some('\'') {
                        prefix = prefix[..prefix.len() - name.len() - 1].trim_end();
                        continue;
                    }
                    break name;
                };
                if !name.is_empty()
                    && !name.chars().next().is_some_and(|c| c.is_ascii_digit())
                    && !matches!(name.as_str(), "let" | "mut" | "pub" | "fn" | "collections")
                    && !names.contains(&name)
                {
                    names.push(name);
                }
            }
        }
    }
    names
}

/// SL003 at line `i`: iteration over a tracked map that feeds order-
/// sensitive work. Two shapes: a `for` loop directly over the map (the
/// body's arithmetic or tie-breaking inherits hash order), and a
/// `.values()`/`.keys()` stream folded into a float-style accumulation
/// within the next lines.
fn map_order_finding(code_lines: &[&str], i: usize, maps: &[String]) -> Option<String> {
    let line = code_lines[i];
    for name in maps {
        if line.contains("for ")
            && [
                format!("in &{name}"),
                format!("in {name}"),
                format!("in {name}.iter()"),
                format!("in {name}.values()"),
                format!("in {name}.keys()"),
            ]
            .iter()
            .any(|p| contains_bounded(line, p))
        {
            return Some(format!(
                "loop iterates `{name}` in hash order — body outcomes depend on it"
            ));
        }
        if contains_bounded(line, &format!("{name}.values()"))
            || contains_bounded(line, &format!("{name}.keys()"))
        {
            let window = &code_lines[i..code_lines.len().min(i + 3)];
            let sinks = [".sum()", ".sum::<", ".fold(", "+="];
            let has_sink = window.iter().any(|l| sinks.iter().any(|s| l.contains(s)));
            let sorted = window.iter().any(|l| l.contains(".sort"));
            if has_sink && !sorted {
                return Some(format!(
                    "`{name}` iterated in hash order into an accumulation — float sums \
                     are order-sensitive"
                ));
            }
        }
    }
    None
}

/// SL007 on one (stripped) line: a direct `==`/`!=` where either operand
/// is a floating-point literal — the classic accidental exact-equality
/// test. Token-level like every rule here: it looks at the literal next to
/// the operator, so typed non-literal comparisons (`a == b` with float
/// variables) are left to clippy, and integer comparisons never match.
fn float_eq_finding(line: &str) -> Option<String> {
    let b: Vec<char> = line.chars().collect();
    let ident = |c: char| c.is_alphanumeric() || matches!(c, '.' | '_');
    for idx in 0..b.len().saturating_sub(1) {
        let op = match (b[idx], b[idx + 1]) {
            ('=', '=') => "==",
            ('!', '=') => "!=",
            _ => continue,
        };
        // Reject `<=`, `>=`, `=>` and `==`'s own second half.
        let before = idx.checked_sub(1).map(|j| b[j]);
        let after = b.get(idx + 2).copied();
        if matches!(before, Some('<' | '>' | '=' | '!')) || matches!(after, Some('=' | '>')) {
            continue;
        }
        let left: String = b[..idx]
            .iter()
            .rev()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| ident(**c))
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        let right: String = b[idx + 2..]
            .iter()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| ident(**c))
            .collect();
        for tok in [left, right] {
            if is_float_literal(&tok) {
                return Some(format!(
                    "direct float {op} against `{tok}` — exact equality is \
                     representation-fragile"
                ));
            }
        }
    }
    None
}

/// `0.0`, `1.25`, `3.`, `1_000.5`, `2f64`, `0.5f32` — but not `0`
/// (integer), `x.y` (field access) or method-call results (a trailing `)`
/// next to the operator yields an empty token).
fn is_float_literal(tok: &str) -> bool {
    let tok = tok
        .strip_suffix("f64")
        .or_else(|| tok.strip_suffix("f32"))
        .map(|t| (t, true))
        .unwrap_or((tok, false));
    let (body, typed) = tok;
    if body.is_empty() || !body.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return false;
    }
    if !body
        .chars()
        .all(|c| c.is_ascii_digit() || matches!(c, '.' | '_'))
    {
        return false;
    }
    typed || body.contains('.')
}

/// True when `line` contains `pat` with identifier boundaries on both
/// sides, so a tracked name `a` never matches inside `analysis`.
fn contains_bounded(line: &str, pat: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(pat).any(|(idx, m)| {
        let before = line[..idx].chars().next_back();
        let after = line[idx + m.len()..].chars().next();
        before.is_none_or(|c| !ident(c)) && after.is_none_or(|c| !ident(c))
    })
}

/// SL006 at line `i`: an undocumented `pub` item in the raw text. Returns
/// the item kind when the lines above (skipping attributes) carry neither
/// `///` nor `#[doc`.
fn undocumented_pub_item(raw_lines: &[&str], i: usize) -> Option<&'static str> {
    let t = raw_lines[i].trim_start();
    let kind = [
        ("pub fn ", "fn"),
        ("pub struct ", "struct"),
        ("pub enum ", "enum"),
        ("pub trait ", "trait"),
        ("pub const ", "const"),
        ("pub static ", "static"),
        ("pub type ", "type"),
        ("pub mod ", "mod"),
    ]
    .iter()
    .find(|(p, _)| t.starts_with(p))
    .map(|&(_, k)| k)?;
    let mut j = i;
    while j > 0 {
        let above = raw_lines[j - 1].trim();
        if above.starts_with("#[") && !above.starts_with("#[doc") {
            j -= 1; // skip non-doc attributes
        } else {
            break;
        }
    }
    if j == 0 {
        return Some(kind);
    }
    let above = raw_lines[j - 1].trim();
    if above.starts_with("///") || above.starts_with("#[doc") || above.ends_with("*/") {
        None
    } else {
        Some(kind)
    }
}

/// Blanks comments and string/char literal contents, preserving the line
/// structure, so pattern matching never fires inside text.
pub(crate) fn strip_code(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < n {
        let c = b[i];
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 0usize;
            while i < n {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Raw (and byte) string literals: [b] r #* " … " #*
        if c == 'r' || c == 'b' {
            let prev_ident = i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_');
            if !prev_ident {
                let mut j = i;
                if b[j] == 'b' && j + 1 < n && (b[j + 1] == 'r' || b[j + 1] == '"') {
                    j += 1;
                }
                if j < n && b[j] == 'r' {
                    let mut k = j + 1;
                    let mut hashes = 0;
                    while k < n && b[k] == '#' {
                        hashes += 1;
                        k += 1;
                    }
                    if k < n && b[k] == '"' {
                        // Blank through the matching closing quote+hashes.
                        for &c in &b[i..=k] {
                            out.push(blank(c));
                        }
                        i = k + 1;
                        while i < n {
                            if b[i] == '"'
                                && b[i + 1..]
                                    .iter()
                                    .take(hashes)
                                    .filter(|&&h| h == '#')
                                    .count()
                                    == hashes
                            {
                                for &c in &b[i..(i + 1 + hashes).min(n)] {
                                    out.push(blank(c));
                                }
                                i += 1 + hashes;
                                break;
                            }
                            out.push(blank(b[i]));
                            i += 1;
                        }
                        continue;
                    }
                } else if j < n && b[j] == '"' && j > i {
                    // b"…" byte string: fall through to the string case at j.
                    out.push(' ');
                    i = j;
                    // handled by the '"' branch below on the next iteration
                    continue;
                }
            }
        }
        // Plain string literal.
        if c == '"' {
            out.push(' ');
            i += 1;
            while i < n && b[i] != '"' {
                if b[i] == '\\' && i + 1 < n {
                    out.push(' ');
                    out.push(blank(b[i + 1]));
                    i += 2;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            if i < n {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let lifetime = i + 1 < n
                && (b[i + 1].is_alphabetic() || b[i + 1] == '_')
                && (i + 2 >= n || b[i + 2] != '\'');
            if lifetime {
                out.push('\'');
                i += 1;
                continue;
            }
            out.push(' ');
            i += 1;
            while i < n && b[i] != '\'' {
                if b[i] == '\\' && i + 1 < n {
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            if i < n {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        out.push(c);
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_blanks_comments_and_literals() {
        let src = "let x = \"Instant::now()\"; // Instant::now()\nlet y = 'a'; let l: &'static str = s;\n/* multi\nline */ let z = 1;\n";
        let s = strip_code(src);
        assert!(!s.contains("Instant"), "{s}");
        assert!(s.contains("let x ="));
        assert!(s.contains("let z = 1;"));
        assert!(s.contains("&'static str"));
        assert_eq!(s.lines().count(), src.lines().count());
    }

    #[test]
    fn stripper_handles_raw_strings() {
        let src = "let p = r#\"thread_rng()\"#;\nlet q = r\"SystemTime::now()\";\nnext();\n";
        let s = strip_code(src);
        assert!(!s.contains("thread_rng"), "{s}");
        assert!(!s.contains("SystemTime"), "{s}");
        assert!(s.contains("next();"));
    }

    #[test]
    fn markers_suppress_by_key() {
        assert!(marker_allows(
            "x.unwrap(); // lint: allow(unwrap) — seeded above",
            "unwrap"
        ));
        assert!(!marker_allows(
            "x.unwrap(); // lint: allow(unwrap)",
            "map-order"
        ));
        assert!(!marker_allows("x.unwrap(); // allow(unwrap)", "unwrap"));
    }

    #[test]
    fn map_names_are_extracted() {
        let lines = [
            "let ladders: HashMap<String, Vec<(usize, f64)>> = network",
            "    kept: &HashMap<String, usize>,",
            "let mut flags = HashMap::new();",
            ") -> Result<HashMap<WorkloadKey, Schedule>, D::Error> {",
        ];
        let names = tracked_map_names(&lines);
        assert!(names.contains(&"ladders".to_string()));
        assert!(names.contains(&"kept".to_string()));
        assert!(names.contains(&"flags".to_string()));
        assert!(!names.contains(&"Result".to_string()));
    }

    #[test]
    fn lifetimes_are_not_map_names() {
        let lines = ["fn flag<'a>(flags: &'a HashMap<String, String>) {}"];
        let names = tracked_map_names(&lines);
        assert_eq!(names, vec!["flags".to_string()]);
    }

    #[test]
    fn sl003_needs_identifier_boundaries() {
        // A tracked short name must not match inside a longer identifier.
        let lines = [
            "let a: HashMap<String, f64> = x;",
            "for layer in &analysis {",
            "let s = data.values().sum::<f64>();",
        ];
        let names = tracked_map_names(&lines);
        assert!(map_order_finding(&lines, 1, &names).is_none());
        // `a` must also not match the tail of `data`.
        assert!(map_order_finding(&lines, 2, &names).is_none());
    }

    #[test]
    fn sl003_flags_loops_and_float_sums_only() {
        let dirty = [
            "let per_ms: HashMap<String, f64> = x;",
            "let total: f64 = per_ms.values().sum();",
            "for (label, ladder) in &per_ms {",
            "}",
            "for (label, kept) in per_ms {",
        ];
        assert!(map_order_finding(&dirty, 1, &tracked_map_names(&dirty)).is_some());
        assert!(map_order_finding(&dirty, 2, &tracked_map_names(&dirty)).is_some());
        // The bare `in NAME` form (iterating the map by reference or by
        // value without an explicit `&`) is flagged too.
        assert!(map_order_finding(&dirty, 4, &tracked_map_names(&dirty)).is_some());
        let clean = [
            "let per_ms: HashMap<String, f64> = x;",
            "let mut v: Vec<f64> = per_ms.values().copied().collect();",
            "v.sort_by(f64::total_cmp);",
            "let n = per_ms.len();",
        ];
        let names = tracked_map_names(&clean);
        assert!(map_order_finding(&clean, 1, &names).is_none());
        assert!(map_order_finding(&clean, 3, &names).is_none());
    }

    #[test]
    fn sl007_flags_float_literal_equality_only() {
        assert!(float_eq_finding("if budget == 0.0 {").is_some());
        assert!(float_eq_finding("if x != 1.5f32 {").is_some());
        assert!(float_eq_finding("while 2f64 == y {").is_some());
        assert!(float_eq_finding("if n == 0 {").is_none()); // integer
        assert!(float_eq_finding("if x <= 0.0 {").is_none()); // ordering op
        assert!(float_eq_finding("if x >= 1.0 {").is_none());
        assert!(float_eq_finding("let f = |x| x == point.y;").is_none()); // field
        assert!(float_eq_finding("Some(1.0) => {}").is_none()); // match arm
        assert!(float_eq_finding("if a.to_bits() == b.to_bits() {").is_none());
    }

    #[test]
    fn sl007_respects_allow_marker_and_test_cfg() {
        let src = "\
pub fn guard(x: f64) -> bool {
    x == 0.0 // lint: allow(float-eq) — exact sentinel value
}

pub fn broken(x: f64) -> bool {
    x == 0.5
}

#[cfg(test)]
mod tests {
    fn in_tests_exactness_is_fine(x: f64) -> bool {
        x == 0.25
    }
}
";
        let diags = scan_file("crates/models/src/x.rs", src, true);
        let sl007: Vec<_> = diags.iter().filter(|d| d.rule == rules::SL007).collect();
        assert_eq!(sl007.len(), 1, "{diags:?}");
        assert_eq!(sl007[0].location, "crates/models/src/x.rs:6");
    }

    #[test]
    fn sl006_detects_missing_docs_through_attributes() {
        let lines = [
            "/// Documented.",
            "#[derive(Debug)]",
            "pub struct Ok1;",
            "pub fn naked() {}",
            "pub use other::Thing;",
            "pub(crate) fn internal() {}",
        ];
        assert!(undocumented_pub_item(&lines, 2).is_none());
        assert!(undocumented_pub_item(&lines, 3).is_some());
        assert!(undocumented_pub_item(&lines, 4).is_none());
        assert!(undocumented_pub_item(&lines, 5).is_none());
    }

    #[test]
    fn scan_flags_seeded_violations_and_respects_test_cfg() {
        let src = "\
use std::time::Instant;

pub fn tick() -> f64 {
    let t = Instant::now();
    t.elapsed().as_secs_f64()
}

pub fn risky(v: &[u32]) -> u32 {
    *v.first().unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn in_tests_unwrap_is_fine() {
        assert_eq!(Some(1).unwrap(), 1);
    }
}
";
        let diags = scan_file("crates/gpusim/src/x.rs", src, true);
        assert!(diags.iter().any(|d| d.rule == rules::SL001), "{diags:?}");
        assert!(
            diags
                .iter()
                .filter(|d| d.rule == rules::SL005)
                .all(|d| d.location == "crates/gpusim/src/x.rs:9"),
            "{diags:?}"
        );
        assert_eq!(diags.iter().filter(|d| d.rule == rules::SL005).count(), 1);
    }

    #[test]
    fn scan_skips_rules_out_of_scope() {
        // models/ is outside the determinism scope; unwrap still applies.
        let src = "pub fn f() { let _ = std::time::Instant::now(); }\n";
        let diags = scan_file("crates/models/src/x.rs", src, true);
        assert!(diags.iter().all(|d| d.rule != rules::SL001), "{diags:?}");
    }

    #[test]
    fn crate_root_without_forbid_is_flagged() {
        let diags = scan_file("crates/gpusim/src/lib.rs", "//! Docs.\n", true);
        assert!(diags.iter().any(|d| d.rule == rules::SL004));
        let ok = scan_file(
            "crates/gpusim/src/lib.rs",
            "//! Docs.\n#![forbid(unsafe_code)]\n",
            true,
        );
        assert!(ok.iter().all(|d| d.rule != rules::SL004));
    }
}
