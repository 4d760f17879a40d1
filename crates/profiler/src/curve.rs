use std::fmt;

use serde::{Deserialize, Serialize};

use crate::Measurement;

/// One point of a latency-vs-channels sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Output channel count of the pruned layer.
    pub channels: usize,
    /// The measurement at this channel count.
    pub measurement: Measurement,
}

/// Why a [`LatencyCurve`] could not be assembled from sweep points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CurveError {
    /// No points at all survived the sweep.
    Empty,
    /// Channel counts were not strictly increasing at the given pair.
    NonIncreasing {
        /// The earlier point's channel count.
        prev: usize,
        /// The offending next point's channel count.
        next: usize,
    },
}

impl fmt::Display for CurveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CurveError::Empty => write!(f, "a latency curve needs at least one point"),
            CurveError::NonIncreasing { prev, next } => write!(
                f,
                "curve points must have strictly increasing channel counts \
                 (got {prev} then {next})"
            ),
        }
    }
}

impl std::error::Error for CurveError {}

/// Inference latency as a function of the layer's output channel count —
/// the x/y series behind Figs 2–5, 7, 12, 14, 15 and 20.
///
/// Points are stored in strictly increasing channel order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyCurve {
    layer_label: String,
    backend: String,
    device: String,
    points: Vec<CurvePoint>,
}

impl LatencyCurve {
    /// Assembles a curve from sweep points.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or channel counts are not strictly
    /// increasing — sweeps are produced programmatically, so violations are
    /// programming errors.
    pub fn new(
        layer_label: impl Into<String>,
        backend: impl Into<String>,
        device: impl Into<String>,
        points: Vec<CurvePoint>,
    ) -> Self {
        match Self::try_new(layer_label, backend, device, points) {
            Ok(curve) => curve,
            #[expect(
                clippy::panic,
                reason = "new() is the documented panicking twin; fallible callers use try_new"
            )]
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible twin of [`LatencyCurve::new`] for callers assembling
    /// curves from inputs that may be degenerate — e.g. a fault-injected
    /// sweep where every point failed.
    ///
    /// # Errors
    ///
    /// [`CurveError::Empty`] when `points` is empty,
    /// [`CurveError::NonIncreasing`] when channel counts do not strictly
    /// increase.
    pub fn try_new(
        layer_label: impl Into<String>,
        backend: impl Into<String>,
        device: impl Into<String>,
        points: Vec<CurvePoint>,
    ) -> Result<Self, CurveError> {
        if points.is_empty() {
            return Err(CurveError::Empty);
        }
        if let Some(w) = points.windows(2).find(|w| w[0].channels >= w[1].channels) {
            return Err(CurveError::NonIncreasing {
                prev: w[0].channels,
                next: w[1].channels,
            });
        }
        Ok(LatencyCurve {
            layer_label: layer_label.into(),
            backend: backend.into(),
            device: device.into(),
            points,
        })
    }

    /// The profiled layer's label.
    pub fn layer_label(&self) -> &str {
        &self.layer_label
    }

    /// Backend used for the sweep.
    pub fn backend(&self) -> &str {
        &self.backend
    }

    /// Device the sweep ran on.
    pub fn device(&self) -> &str {
        &self.device
    }

    /// The sweep points in increasing channel order.
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// Median latency at an exact channel count, if profiled.
    pub fn ms_at(&self, channels: usize) -> Option<f64> {
        self.points
            .binary_search_by_key(&channels, |p| p.channels)
            .ok()
            .map(|i| self.points[i].measurement.median_ms())
    }

    /// Smallest and largest profiled channel counts.
    #[expect(clippy::expect_used, reason = "`new` asserts at least one point")]
    pub fn channel_range(&self) -> (usize, usize) {
        (
            self.points.first().expect("non-empty").channels,
            self.points.last().expect("non-empty").channels,
        )
    }

    /// `(channels, median_ms)` series, e.g. for plotting or printing.
    pub fn series(&self) -> Vec<(usize, f64)> {
        self.points
            .iter()
            .map(|p| (p.channels, p.measurement.median_ms()))
            .collect()
    }

    /// Renders the curve as CSV (`channels,median_ms,min_ms,max_ms`) for
    /// external plotting — the repo's stand-in for regenerating the
    /// figures' graphics.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("channels,median_ms,min_ms,max_ms\n");
        for p in &self.points {
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.6}\n",
                p.channels,
                p.measurement.median_ms(),
                p.measurement.min_ms(),
                p.measurement.max_ms()
            ));
        }
        out
    }

    /// Renders the curve as an ASCII scatter plot (`width` × `height`
    /// characters plus axes) — a terminal rendition of the paper's figures,
    /// where the ACL GEMM curves visibly split into two parallel
    /// staircases.
    pub fn ascii_plot(&self, width: usize, height: usize) -> String {
        let width = width.max(16);
        let height = height.max(4);
        let series = self.series();
        let (c_lo, c_hi) = self.channel_range();
        let ms_max = series.iter().map(|p| p.1).fold(0.0f64, f64::max);
        let ms_min = 0.0;
        let mut grid = vec![vec![' '; width]; height];
        for (c, ms) in &series {
            let x = if c_hi == c_lo {
                0
            } else {
                (c - c_lo) * (width - 1) / (c_hi - c_lo)
            };
            let frac = (ms - ms_min) / (ms_max - ms_min).max(1e-12);
            let y = ((1.0 - frac) * (height - 1) as f64).round() as usize;
            grid[y.min(height - 1)][x] = '*';
        }
        let mut out = String::new();
        for (i, row) in grid.iter().enumerate() {
            let label = if i == 0 {
                format!("{ms_max:>8.2} |")
            } else if i == height - 1 {
                format!("{ms_min:>8.2} |")
            } else {
                format!("{:>8} |", "")
            };
            out.push_str(&label);
            out.extend(row.iter());
            out.push('\n');
        }
        out.push_str(&format!(
            "{:>8} +{}\n{:>10}{c_lo}{:>w$}\n",
            "",
            "-".repeat(width),
            "",
            c_hi,
            w = width.saturating_sub(c_lo.to_string().len())
        ));
        out
    }

    /// The largest adjacent-point latency ratio and the channel pair where
    /// it occurs — the “1.83× between 76 and 78 channels” style of finding.
    pub fn max_adjacent_ratio(&self) -> Option<(usize, usize, f64)> {
        self.points
            .windows(2)
            .map(|w| {
                let a = w[0].measurement.median_ms();
                let b = w[1].measurement.median_ms();
                let ratio = if a > b { a / b } else { b / a };
                (w[0].channels, w[1].channels, ratio)
            })
            .max_by(|x, y| x.2.total_cmp(&y.2))
    }
}

impl fmt::Display for LatencyCurve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (lo, hi) = self.channel_range();
        write!(
            f,
            "{} / {} on {}: {} points over {lo}..={hi} channels",
            self.layer_label,
            self.backend,
            self.device,
            self.points.len()
        )
    }
}

/// One unmeasured channel count of a partial sweep, with the failure that
/// caused it — an explicitly marked hole rather than a silently absent
/// cell (a single lost cell would otherwise corrupt the staircase
/// analysis of Figs 2–5 without anyone noticing).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurveGap {
    /// The channel count that could not be measured.
    pub channels: usize,
    /// Number of attempts the retry policy spent before giving up.
    pub attempts: u32,
    /// The final error, rendered to text.
    pub error: String,
}

/// A latency sweep that may have lost points to permanent faults: the
/// surviving measurements as a [`LatencyCurve`] (absent when *every*
/// point failed) plus one [`CurveGap`] per unmeasured channel count.
///
/// Downstream analyses keep working on the survivor curve — gaps are just
/// missing channel counts, which [`LatencyCurve`] already permits — while
/// callers that need completeness check [`PartialCurve::is_complete`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialCurve {
    curve: Option<LatencyCurve>,
    gaps: Vec<CurveGap>,
}

impl PartialCurve {
    /// Assembles a partial sweep result; gaps are sorted by channel count
    /// so reports never depend on worker scheduling.
    pub fn new(curve: Option<LatencyCurve>, mut gaps: Vec<CurveGap>) -> Self {
        gaps.sort_by_key(|g| g.channels);
        PartialCurve { curve, gaps }
    }

    /// The surviving measurements, if any point succeeded.
    pub fn curve(&self) -> Option<&LatencyCurve> {
        self.curve.as_ref()
    }

    /// The unmeasured channel counts in increasing order.
    pub fn gaps(&self) -> &[CurveGap] {
        &self.gaps
    }

    /// `true` when every requested point was measured.
    pub fn is_complete(&self) -> bool {
        self.gaps.is_empty() && self.curve.is_some()
    }

    /// Measured points.
    pub fn measured(&self) -> usize {
        self.curve.as_ref().map_or(0, |c| c.points().len())
    }

    /// Fraction of requested points that were measured, in `[0, 1]`
    /// (defined as 0 for an empty sweep).
    pub fn coverage(&self) -> f64 {
        let total = self.measured() + self.gaps.len();
        if total == 0 {
            0.0
        } else {
            self.measured() as f64 / total as f64
        }
    }
}

impl fmt::Display for PartialCurve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.curve {
            Some(curve) => write!(
                f,
                "{} — {} gap(s), {:.1}% coverage",
                curve,
                self.gaps.len(),
                self.coverage() * 100.0
            ),
            None => write!(f, "no surviving points — {} gap(s)", self.gaps.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(c: usize, ms: f64) -> CurvePoint {
        CurvePoint {
            channels: c,
            measurement: Measurement::from_runs(vec![ms]),
        }
    }

    fn curve() -> LatencyCurve {
        LatencyCurve::new(
            "ResNet.L16",
            "ACL GEMM",
            "HiKey 970",
            vec![point(76, 20.12), point(78, 10.996), point(96, 14.0)],
        )
    }

    #[test]
    fn lookup_and_range() {
        let c = curve();
        assert_eq!(c.ms_at(78), Some(10.996));
        assert_eq!(c.ms_at(77), None);
        assert_eq!(c.channel_range(), (76, 96));
        assert_eq!(c.series().len(), 3);
    }

    #[test]
    fn max_adjacent_ratio_finds_the_fig14_jump() {
        let (a, b, r) = curve().max_adjacent_ratio().unwrap();
        assert_eq!((a, b), (76, 78));
        assert!((r - 1.8297).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_points_rejected() {
        let _ = LatencyCurve::new("l", "b", "d", vec![point(10, 1.0), point(5, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_rejected() {
        let _ = LatencyCurve::new("l", "b", "d", vec![]);
    }

    #[test]
    fn display_summarizes() {
        assert!(curve().to_string().contains("3 points over 76..=96"));
    }

    #[test]
    fn try_new_reports_typed_errors() {
        assert_eq!(
            LatencyCurve::try_new("l", "b", "d", vec![]).unwrap_err(),
            CurveError::Empty
        );
        assert_eq!(
            LatencyCurve::try_new("l", "b", "d", vec![point(10, 1.0), point(10, 1.0)]).unwrap_err(),
            CurveError::NonIncreasing { prev: 10, next: 10 }
        );
        assert!(LatencyCurve::try_new("l", "b", "d", vec![point(1, 1.0)]).is_ok());
    }

    #[test]
    fn partial_curve_sorts_gaps_and_reports_coverage() {
        let gap = |c: usize| CurveGap {
            channels: c,
            attempts: 4,
            error: "injected permanent fault".into(),
        };
        let partial = PartialCurve::new(Some(curve()), vec![gap(90), gap(77)]);
        assert_eq!(
            partial
                .gaps()
                .iter()
                .map(|g| g.channels)
                .collect::<Vec<_>>(),
            [77, 90]
        );
        assert!(!partial.is_complete());
        assert_eq!(partial.measured(), 3);
        assert!((partial.coverage() - 0.6).abs() < 1e-12);
        assert!(partial.to_string().contains("2 gap(s)"), "{partial}");

        let complete = PartialCurve::new(Some(curve()), vec![]);
        assert!(complete.is_complete());
        assert!((complete.coverage() - 1.0).abs() < 1e-12);

        let dead = PartialCurve::new(None, vec![gap(1)]);
        assert!(!dead.is_complete());
        assert_eq!(dead.measured(), 0);
        assert!((dead.coverage() - 0.0).abs() < 1e-12);
        assert!(dead.to_string().contains("no surviving points"), "{dead}");

        let empty = PartialCurve::new(None, vec![]);
        assert!((empty.coverage() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn ascii_plot_spans_the_axes() {
        let series: Vec<CurvePoint> = (1..=64usize)
            .map(|c| CurvePoint {
                channels: c,
                measurement: Measurement::from_runs(vec![if c <= 32 { 5.0 } else { 9.0 }]),
            })
            .collect();
        let curve = LatencyCurve::new("l", "b", "d", series);
        let plot = curve.ascii_plot(40, 8);
        assert!(plot.contains('*'));
        assert!(plot.contains("9.00"), "{plot}");
        assert!(plot.contains("0.00"), "{plot}");
        // Low step occupies a lower row than the high step.
        let lines: Vec<&str> = plot.lines().collect();
        let top_stars = lines[0].matches('*').count();
        let has_lower_stars = lines[1..].iter().any(|l| l.contains('*'));
        assert!(top_stars > 0 && has_lower_stars, "{plot}");
    }

    #[test]
    fn csv_has_header_and_one_row_per_point() {
        let csv = curve().to_csv();
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "channels,median_ms,min_ms,max_ms");
        assert!(lines[1].starts_with("76,20.12"));
    }
}
