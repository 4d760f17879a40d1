//! The structured-diagnostics core shared by both analysis layers.
//!
//! Every check — a paper invariant over a [`pruneperf_backends::DispatchPlan`]
//! or a source rule over a file — reports through the same [`Diagnostic`]
//! shape: a stable rule id, a severity, a location, a message and an
//! optional fix hint. A [`Report`] collects them, sorts them into a single
//! canonical order (so parallel analysis is byte-identical to sequential)
//! and renders either a human listing or JSON.
//!
//! JSON is rendered by hand rather than through serde: the output is a
//! golden artifact compared byte-for-byte across worker counts and runs, so
//! the writer keeps full control of field order, float formatting and
//! escaping.

use std::fmt;

use pruneperf_gpusim::json_string;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Style/robustness finding; fails the build only under
    /// `--deny-warnings`.
    Warning,
    /// A violated invariant; always fails the build.
    Error,
}

impl Severity {
    /// Lowercase name used in both renderings.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding from either analysis layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id (`"PA001"`, `"CC004"`, … — see [`crate::rules`]).
    pub rule: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// Where: `"path/to/file.rs:42"` for source rules, a
    /// `backend @ device / layer` triple for plan audits.
    pub location: String,
    /// What went wrong.
    pub message: String,
    /// How to fix it, when the rule knows.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic without a fix hint.
    pub fn new(
        rule: &'static str,
        severity: Severity,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            severity,
            location: location.into(),
            message: message.into(),
            hint: None,
        }
    }

    /// Attaches a fix hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }

    /// The canonical ordering key: rule id, then location, then message —
    /// independent of discovery order, so any parallel schedule sorts to
    /// the same report.
    fn sort_key(&self) -> (&'static str, &str, &str) {
        (self.rule, &self.location, &self.message)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.rule, self.location, self.message
        )?;
        if let Some(hint) = &self.hint {
            write!(f, "\n    hint: {hint}")?;
        }
        Ok(())
    }
}

/// A full analysis run: the findings plus coverage counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
    /// Dispatch plans enumerated by the plan auditor.
    pub plans_audited: usize,
    /// Source files scanned by the source-model analyses.
    pub files_scanned: usize,
    /// Network assemblies and pruning plans checked by the dataflow
    /// verifier.
    pub networks_verified: usize,
    /// Chain traces checked by the schedule auditor.
    pub traces_audited: usize,
    /// Functions modeled by the concurrency/resource analyses.
    pub functions_modeled: usize,
}

impl Report {
    /// Builds a report, sorting the findings into canonical order.
    pub fn new(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        Report {
            diagnostics,
            plans_audited: 0,
            files_scanned: 0,
            networks_verified: 0,
            traces_audited: 0,
            functions_modeled: 0,
        }
    }

    /// Merges another report into this one, keeping canonical order.
    pub fn merge(&mut self, other: Report) {
        // lint: allow(grow) — bounded by the fixed number of analysis layers
        self.diagnostics.extend(other.diagnostics);
        self.diagnostics
            .sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        self.plans_audited += other.plans_audited;
        self.files_scanned += other.files_scanned;
        self.networks_verified += other.networks_verified;
        self.traces_audited += other.traces_audited;
        self.functions_modeled += other.functions_modeled;
    }

    /// Finding counts per rule family, in [`crate::rules::FAMILIES`]
    /// order — every registered family appears, zero or not, so CI logs
    /// and JSON diffs line up run to run.
    pub fn family_counts(&self) -> Vec<(&'static str, usize)> {
        crate::rules::FAMILIES
            .iter()
            .map(|(prefix, _)| {
                let n = self
                    .diagnostics
                    .iter()
                    .filter(|d| d.rule.starts_with(prefix))
                    .count();
                (*prefix, n)
            })
            .collect()
    }

    /// The findings, in canonical order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The human listing: one block per diagnostic plus a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "lint: {} error(s), {} warning(s) over {} plan(s), {} file(s), {} network(s), {} trace(s) and {} function(s)\n",
            self.errors(),
            self.warnings(),
            self.plans_audited,
            self.files_scanned,
            self.networks_verified,
            self.traces_audited,
            self.functions_modeled
        ));
        out
    }

    /// The JSON rendering (stable field order, canonical diagnostic order).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 1,\n");
        let families = self
            .family_counts()
            .iter()
            .map(|(prefix, n)| format!("\"{}\": {n}", prefix.to_ascii_lowercase()))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "  \"summary\": {{\"errors\": {}, \"warnings\": {}, \"plans_audited\": {}, \"files_scanned\": {}, \"networks_verified\": {}, \"traces_audited\": {}, \"functions_modeled\": {}, \"families\": {{{families}}}}},\n",
            self.errors(),
            self.warnings(),
            self.plans_audited,
            self.files_scanned,
            self.networks_verified,
            self.traces_audited,
            self.functions_modeled
        ));
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"rule\": {}, ", json_string(d.rule)));
            out.push_str(&format!(
                "\"severity\": {}, ",
                json_string(d.severity.name())
            ));
            out.push_str(&format!("\"location\": {}, ", json_string(&d.location)));
            out.push_str(&format!("\"message\": {}", json_string(&d.message)));
            if let Some(hint) = &d.hint {
                out.push_str(&format!(", \"hint\": {}", json_string(hint)));
            }
            out.push('}');
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(rule: &'static str, loc: &str, msg: &str) -> Diagnostic {
        Diagnostic::new(rule, Severity::Error, loc, msg)
    }

    #[test]
    fn report_sorts_canonically() {
        let r1 = Report::new(vec![d("RB002", "b.rs:2", "x"), d("PA001", "a", "y")]);
        let r2 = Report::new(vec![d("PA001", "a", "y"), d("RB002", "b.rs:2", "x")]);
        assert_eq!(r1, r2);
        assert_eq!(r1.diagnostics()[0].rule, "PA001");
    }

    #[test]
    fn counts_by_severity() {
        let mut warn = d("CC002", "c.rs:1", "w");
        warn.severity = Severity::Warning;
        let r = Report::new(vec![d("PA001", "a", "y"), warn]);
        assert_eq!((r.errors(), r.warnings()), (1, 1));
        assert!(!r.is_clean());
        assert!(Report::new(vec![]).is_clean());
    }

    #[test]
    fn merge_keeps_order_and_counters() {
        let mut a = Report::new(vec![d("RB001", "z.rs:9", "late")]);
        a.plans_audited = 3;
        let mut b = Report::new(vec![d("PA002", "p", "early")]);
        b.files_scanned = 7;
        a.merge(b);
        assert_eq!(a.diagnostics()[0].rule, "PA002");
        assert_eq!((a.plans_audited, a.files_scanned), (3, 7));
    }

    #[test]
    fn human_rendering_includes_hint_and_summary() {
        let r = Report::new(vec![
            d("PA001", "ACL GEMM @ hikey970", "bad split").with_hint("check the parity rule")
        ]);
        let s = r.render_human();
        assert!(s.contains("error[PA001]"));
        assert!(s.contains("hint: check the parity rule"));
        assert!(s.contains("1 error(s), 0 warning(s)"));
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let r = Report::new(vec![d("PA001", "a\"b", "line1\nline2")]);
        let s = r.render_json();
        assert!(s.contains("\"version\": 1"), "{s}");
        assert!(s.contains("\"errors\": 1"), "{s}");
        assert!(s.contains(r#""location": "a\"b""#), "{s}");
        assert!(s.contains(r#""message": "line1\nline2""#), "{s}");
        // Balanced braces/brackets (a cheap well-formedness proxy).
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn empty_report_renders_empty_array() {
        let s = Report::new(vec![]).render_json();
        assert!(s.contains("\"diagnostics\": []"), "{s}");
    }

    #[test]
    fn family_counts_cover_every_family_in_order() {
        let mut warn = d("CC002", "h.rs:3", "guard");
        warn.severity = Severity::Warning;
        let r = Report::new(vec![
            d("PA001", "a", "y"),
            d("RB001", "c.rs:7", "grow"),
            warn,
        ]);
        let counts = r.family_counts();
        let prefixes: Vec<&str> = counts.iter().map(|(p, _)| *p).collect();
        assert_eq!(prefixes, ["PA", "NV", "TA", "CC", "RB"], "{counts:?}");
        let get = |p: &str| counts.iter().find(|(q, _)| *q == p).map(|(_, n)| *n);
        assert_eq!(get("PA"), Some(1));
        assert_eq!(get("CC"), Some(1));
        assert_eq!(get("RB"), Some(1));
        assert_eq!(get("NV"), Some(0));
        let json = r.render_json();
        assert!(
            json.contains(r#""families": {"pa": 1, "nv": 0, "ta": 0, "cc": 1, "rb": 1}"#),
            "{json}"
        );
    }
}
