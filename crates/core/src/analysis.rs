//! Speedup / slowdown heatmaps over whole networks — the machinery behind
//! Figs 1, 6, 8–11, 13, 16, 17 and 19.
//!
//! For each layer (column) and pruning distance `p` (row), the paper
//! reports the *cumulative best* (speedup tables) or *cumulative worst*
//! (slowdown tables) latency ratio achievable by pruning **up to** `p`
//! channels — which is why cells never get worse down a column of Fig 6 and
//! never get better down a column of Fig 1.

use std::fmt;

use serde::{Deserialize, Serialize};

use pruneperf_backends::ConvBackend;
use pruneperf_models::Network;
use pruneperf_profiler::LayerProfiler;

/// The prune distances used by most of the paper's heatmaps.
pub const PAPER_DISTANCES: [usize; 7] = [1, 3, 7, 15, 31, 63, 127];

/// The shorter distance list of Fig 1.
pub const FIG1_DISTANCES: [usize; 5] = [1, 7, 15, 31, 63];

/// What a heatmap's cells measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HeatmapKind {
    /// `t(original) / t(pruned)` maximized over distances `≤ p` —
    /// “maximum speedup [x times]”.
    MaxSpeedup,
    /// `t(pruned) / t(original)` maximized over distances `≤ p` —
    /// “maximum slowdown [x times]” (Fig 1).
    MaxSlowdown,
}

/// A layers × prune-distances table of latency ratios.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Heatmap {
    kind: HeatmapKind,
    backend: String,
    device: String,
    layer_labels: Vec<String>,
    distances: Vec<usize>,
    /// `cells[row][col]` — row = distance index, col = layer index.
    /// `None` where the layer has too few channels for the distance.
    cells: Vec<Vec<Option<f64>>>,
}

impl Heatmap {
    /// What the cells measure.
    pub fn kind(&self) -> HeatmapKind {
        self.kind
    }

    /// Layer labels (columns).
    pub fn layer_labels(&self) -> &[String] {
        &self.layer_labels
    }

    /// Prune distances (rows).
    pub fn distances(&self) -> &[usize] {
        &self.distances
    }

    /// Cell at (distance row, layer column).
    pub fn cell(&self, row: usize, col: usize) -> Option<f64> {
        self.cells
            .get(row)
            .and_then(|r| r.get(col))
            .copied()
            .flatten()
    }

    /// Cell looked up by distance and layer label.
    pub fn cell_at(&self, distance: usize, label: &str) -> Option<f64> {
        let row = self.distances.iter().position(|&d| d == distance)?;
        let col = self.layer_labels.iter().position(|l| l == label)?;
        self.cell(row, col)
    }

    /// Largest ratio anywhere in the table (the “up to N×” headline).
    pub fn max_ratio(&self) -> f64 {
        self.cells
            .iter()
            .flatten()
            .flatten()
            .copied()
            .fold(0.0, f64::max)
    }

    /// Renders the heatmap as CSV (`prune_distance` rows × layer columns;
    /// empty cells stay blank) for external plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("prune_distance");
        for l in &self.layer_labels {
            out.push(',');
            out.push_str(l);
        }
        out.push('\n');
        for (i, d) in self.distances.iter().enumerate() {
            out.push_str(&d.to_string());
            for j in 0..self.layer_labels.len() {
                out.push(',');
                if let Some(v) = self.cell(i, j) {
                    out.push_str(&format!("{v:.4}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Iterator over `(distance, label, ratio)` for present cells.
    pub fn iter_cells(&self) -> impl Iterator<Item = (usize, &str, f64)> + '_ {
        self.distances.iter().enumerate().flat_map(move |(i, &d)| {
            self.layer_labels
                .iter()
                .enumerate()
                .filter_map(move |(j, l)| self.cell(i, j).map(|v| (d, l.as_str(), v)))
        })
    }
}

impl fmt::Display for Heatmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} — {} on {} [rows: prune distance, cols: layer]",
            match self.kind {
                HeatmapKind::MaxSpeedup => "Maximum speedup [x times]",
                HeatmapKind::MaxSlowdown => "Maximum slowdown [x times]",
            },
            self.backend,
            self.device
        )?;
        write!(f, "{:>10}", "")?;
        for l in &self.layer_labels {
            // Short label: strip the network prefix.
            let short = l.rsplit('.').next().unwrap_or(l);
            write!(f, "{short:>7}")?;
        }
        writeln!(f)?;
        for (i, d) in self.distances.iter().enumerate() {
            write!(f, "Prune={d:<4}")?;
            for j in 0..self.layer_labels.len() {
                match self.cell(i, j) {
                    Some(v) => write!(f, "{:>6.1}x", v)?,
                    None => write!(f, "{:>7}", "-")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Profiles every layer of `network` at the original channel count and at
/// every pruned count down to `max(distances)`, then builds the heatmap.
fn build(
    kind: HeatmapKind,
    profiler: &LayerProfiler,
    backend: &dyn ConvBackend,
    network: &Network,
    distances: &[usize],
) -> Heatmap {
    let max_d = distances.iter().copied().max().unwrap_or(0);
    let mut cells: Vec<Vec<Option<f64>>> = vec![Vec::new(); distances.len()];
    for layer in network.layers() {
        let t0 = profiler.measure(backend, layer).median_ms();
        // Latency at every pruned count from 1..=max_d (where valid).
        let ratios: Vec<f64> = (1..=max_d.min(layer.c_out().saturating_sub(1)))
            .map(|p| {
                // lint: allow(unwrap) — p is capped at c_out - 1 by the range above
                let pruned = layer.pruned_by(p).expect("distance checked");
                let t = profiler.measure(backend, &pruned).median_ms();
                match kind {
                    HeatmapKind::MaxSpeedup => t0 / t,
                    HeatmapKind::MaxSlowdown => t / t0,
                }
            })
            .collect();
        for (row, &d) in distances.iter().enumerate() {
            let cell = if d <= ratios.len() {
                // lint: allow(index) — guarded by `d <= ratios.len()` on the line above
                ratios[..d]
                    .iter()
                    .copied()
                    .fold(None, |acc: Option<f64>, r| {
                        Some(acc.map_or(r, |a| a.max(r)))
                    })
            } else {
                None
            };
            // lint: allow(index) — row comes from enumerate() over cells' own rows
            cells[row].push(cell);
        }
    }
    Heatmap {
        kind,
        backend: backend.name().to_string(),
        device: profiler.device().name().to_string(),
        layer_labels: network
            .layers()
            .iter()
            .map(|l| l.label().to_string())
            .collect(),
        distances: distances.to_vec(),
        cells,
    }
}

/// “Maximum speedup” heatmap (Figs 6, 8–11, 13, 16, 17, 19).
///
/// ```
/// use pruneperf_backends::Cudnn;
/// use pruneperf_core::analysis;
/// use pruneperf_gpusim::Device;
/// use pruneperf_models::alexnet;
/// use pruneperf_profiler::LayerProfiler;
///
/// let profiler = LayerProfiler::noiseless(&Device::jetson_tx2());
/// let h = analysis::speedup_table(&profiler, &Cudnn::new(), &alexnet(), &[31, 63]);
/// assert_eq!(h.distances(), &[31, 63]);
/// assert!(h.max_ratio() >= 1.0);
/// ```
pub fn speedup_table(
    profiler: &LayerProfiler,
    backend: &dyn ConvBackend,
    network: &Network,
    distances: &[usize],
) -> Heatmap {
    build(
        HeatmapKind::MaxSpeedup,
        profiler,
        backend,
        network,
        distances,
    )
}

/// “Maximum slowdown” heatmap (Fig 1).
pub fn slowdown_table(
    profiler: &LayerProfiler,
    backend: &dyn ConvBackend,
    network: &Network,
    distances: &[usize],
) -> Heatmap {
    build(
        HeatmapKind::MaxSlowdown,
        profiler,
        backend,
        network,
        distances,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::analysis_net as tiny_net;
    use pruneperf_backends::{AclGemm, Cudnn};
    use pruneperf_gpusim::Device;
    use pruneperf_models::{alexnet, ConvLayerSpec, Network};

    #[test]
    fn speedup_rows_are_monotone_nondecreasing() {
        let d = Device::jetson_tx2();
        let p = LayerProfiler::noiseless(&d);
        let h = speedup_table(&p, &Cudnn::new(), &tiny_net(), &[1, 3, 7, 15, 31]);
        for col in 0..h.layer_labels().len() {
            let mut prev = 0.0f64;
            for row in 0..h.distances().len() {
                if let Some(v) = h.cell(row, col) {
                    assert!(v + 1e-12 >= prev, "col {col} row {row}: {v} < {prev}");
                    prev = v;
                }
            }
        }
    }

    #[test]
    fn slowdown_table_catches_acl_direct_style_regressions() {
        let d = Device::mali_g72_hikey970();
        let p = LayerProfiler::noiseless(&d);
        let h = slowdown_table(&p, &AclGemm::new(), &tiny_net(), &[1, 7, 15]);
        // Pruning 7 from 96 hits 89..95, which contains split sizes -> >1.
        let v = h.cell_at(7, "T.L1").unwrap();
        assert!(v > 1.2, "expected a split-induced slowdown, got {v:.2}");
        // Pruning 1 (95 channels, c4=96 fast) must not slow down.
        let v1 = h.cell_at(1, "T.L1").unwrap();
        assert!(v1 < 1.1, "prune=1 should be harmless, got {v1:.2}");
    }

    #[test]
    fn distances_beyond_layer_width_are_absent() {
        let d = Device::jetson_tx2();
        let p = LayerProfiler::noiseless(&d);
        let net = Network::new(
            "Narrow",
            vec![ConvLayerSpec::new("N.L0", 1, 1, 0, 8, 12, 7, 7)],
        );
        let h = speedup_table(&p, &Cudnn::new(), &net, &[1, 15, 31]);
        assert!(h.cell_at(1, "N.L0").is_some());
        assert!(h.cell_at(15, "N.L0").is_none());
        assert!(h.cell_at(31, "N.L0").is_none());
    }

    #[test]
    fn display_renders_rows_and_dashes() {
        let d = Device::jetson_tx2();
        let p = LayerProfiler::noiseless(&d);
        let net = Network::new(
            "Narrow",
            vec![ConvLayerSpec::new("N.L0", 1, 1, 0, 8, 12, 7, 7)],
        );
        let h = speedup_table(&p, &Cudnn::new(), &net, &[1, 31]);
        let s = h.to_string();
        assert!(s.contains("Prune=1"), "{s}");
        assert!(s.contains('-'), "{s}");
    }

    #[test]
    fn csv_renders_blank_for_missing_cells() {
        let d = Device::jetson_tx2();
        let p = LayerProfiler::noiseless(&d);
        let net = Network::new(
            "Narrow",
            vec![ConvLayerSpec::new("N.L0", 1, 1, 0, 8, 12, 7, 7)],
        );
        let h = speedup_table(&p, &Cudnn::new(), &net, &[1, 31]);
        let csv = h.to_csv();
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines[0], "prune_distance,N.L0");
        assert!(lines[1].starts_with("1,1."));
        assert_eq!(lines[2], "31,");
    }

    #[test]
    fn iter_cells_skips_missing() {
        let d = Device::jetson_tx2();
        let p = LayerProfiler::noiseless(&d);
        let net = Network::new(
            "Narrow",
            vec![ConvLayerSpec::new("N.L0", 1, 1, 0, 8, 12, 7, 7)],
        );
        let h = speedup_table(&p, &Cudnn::new(), &net, &[1, 31]);
        let cells: Vec<_> = h.iter_cells().collect();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].0, 1);
    }

    #[test]
    fn alexnet_cudnn_headline_band() {
        // Fig 9: AlexNet with cuDNN reaches ~1.2-1.8x at distance 127.
        let d = Device::jetson_tx2();
        let p = LayerProfiler::noiseless(&d);
        let h = speedup_table(&p, &Cudnn::new(), &alexnet(), &[127]);
        let max = h.max_ratio();
        assert!((1.1..3.0).contains(&max), "AlexNet max speedup {max:.2}");
    }
}
