//! The experiment registry.

mod extensions;
mod figures;
mod tables;
pub(crate) mod util;

use std::fmt;

use pruneperf_profiler::sweep;
use serde::{Deserialize, Serialize};

/// One paper-vs-measured comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// What is being compared (e.g. `"t(76)/t(78) latency ratio"`).
    pub metric: String,
    /// The paper's value or qualitative claim.
    pub paper: String,
    /// Our measured value.
    pub measured: String,
    /// Whether the measurement lands in the acceptance band.
    pub ok: bool,
}

impl Finding {
    /// Compares a measured ratio against a band around the paper's value.
    pub fn ratio(metric: impl Into<String>, paper: f64, measured: f64, band: (f64, f64)) -> Self {
        Finding {
            metric: metric.into(),
            paper: format!("{paper:.2}x"),
            measured: format!("{measured:.2}x"),
            ok: (band.0..=band.1).contains(&measured),
        }
    }

    /// Records a qualitative claim that either held or did not.
    pub fn claim(metric: impl Into<String>, paper: impl Into<String>, held: bool) -> Self {
        Finding {
            metric: metric.into(),
            paper: paper.into(),
            measured: if held { "holds" } else { "VIOLATED" }.into(),
            ok: held,
        }
    }

    /// Compares a measured value against an absolute band (e.g. ms ranges
    /// read off a figure's axis).
    pub fn in_band(
        metric: impl Into<String>,
        paper: impl Into<String>,
        measured: f64,
        unit: &str,
        band: (f64, f64),
    ) -> Self {
        Finding {
            metric: metric.into(),
            paper: paper.into(),
            measured: format!("{measured:.2} {unit}"),
            ok: (band.0..=band.1).contains(&measured),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} — paper: {}, measured: {}",
            if self.ok { "ok" } else { "MISS" },
            self.metric,
            self.paper,
            self.measured
        )
    }
}

/// The output of one regenerated table or figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Experiment id (`"fig14"`, `"table1"`).
    pub id: String,
    /// Human title mirroring the paper caption.
    pub title: String,
    /// The regenerated rows/series, printable.
    pub body: String,
    /// Paper-vs-measured comparisons.
    pub findings: Vec<Finding>,
    /// Plot-ready CSV of the regenerated data, when the experiment has a
    /// natural tabular form (curves and heatmaps).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub csv: Option<String>,
}

impl ExperimentResult {
    /// `true` when every finding landed in its acceptance band.
    pub fn all_ok(&self) -> bool {
        self.findings.iter().all(|f| f.ok)
    }
}

impl fmt::Display for ExperimentResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} — {}", self.id, self.title)?;
        writeln!(f, "{}", self.body)?;
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        Ok(())
    }
}

/// All experiment ids in paper order.
pub fn all_ids() -> Vec<&'static str> {
    vec![
        "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
        "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "table1",
        "table2", "table3", "table4", "table5", "ext1", "ext2", "ext3", "ext4", "ext5", "ext6",
        "ext7", "ext8",
    ]
}

/// Runs one experiment by id. Returns `None` for unknown ids.
pub fn run(id: &str) -> Option<ExperimentResult> {
    Some(match id {
        "fig1" => figures::fig01(),
        "fig2" => figures::fig02(),
        "fig3" => figures::fig03(),
        "fig4" => figures::fig04(),
        "fig5" => figures::fig05(),
        "fig6" => figures::fig06(),
        "fig7" => figures::fig07(),
        "fig8" => figures::fig08(),
        "fig9" => figures::fig09(),
        "fig10" => figures::fig10(),
        "fig11" => figures::fig11(),
        "fig12" => figures::fig12(),
        "fig13" => figures::fig13(),
        "fig14" => figures::fig14(),
        "fig15" => figures::fig15(),
        "fig16" => figures::fig16(),
        "fig17" => figures::fig17(),
        "fig18" => figures::fig18(),
        "fig19" => figures::fig19(),
        "fig20" => figures::fig20(),
        "table1" => tables::table1(),
        "table2" => tables::table2(),
        "table3" => tables::table3(),
        "table4" => tables::table4(),
        "table5" => tables::table5(),
        "ext1" => extensions::ext1(),
        "ext2" => extensions::ext2(),
        "ext3" => extensions::ext3(),
        "ext4" => extensions::ext4(),
        "ext5" => extensions::ext5(),
        "ext6" => extensions::ext6(),
        "ext7" => extensions::ext7(),
        "ext8" => extensions::ext8(),
        _ => return None,
    })
}

/// Runs many experiments across `jobs` worker threads.
///
/// Results come back in the order of `ids` (index-ordered collection), so
/// anything rendered from them — `repro` stdout, `repro_results.json`,
/// per-experiment CSVs — is byte-identical to a sequential run at any
/// worker count. Experiments are pure functions of the deterministic
/// simulator stack and share the process-wide
/// [`pruneperf_profiler::LatencyCache`], so workers also warm each other's
/// latency queries.
pub fn run_many(ids: &[String], jobs: usize) -> Vec<Option<ExperimentResult>> {
    sweep::ordered_parallel_map(ids, jobs, |id| run(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete() {
        assert_eq!(all_ids().len(), 33);
        for id in all_ids() {
            assert!(run(id).is_some(), "{id} missing");
        }
        assert!(run("fig99").is_none());
    }

    #[test]
    fn finding_constructors() {
        let f = Finding::ratio("r", 1.83, 1.7, (1.3, 2.6));
        assert!(f.ok);
        assert!(f.to_string().contains("ok"));
        let f = Finding::ratio("r", 1.83, 5.0, (1.3, 2.6));
        assert!(!f.ok);
        assert!(Finding::claim("c", "staircase", true).ok);
        assert!(Finding::in_band("b", "10-30 ms", 14.0, "ms", (10.0, 30.0)).ok);
    }
}
