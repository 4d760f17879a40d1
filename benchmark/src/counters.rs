//! The profiler's cache and engine counters, read from the daemon's
//! `GET /stats` or from an in-process cache.

use pruneperf_profiler::{LatencyCache, Stats};
use serde::Value;

use crate::report::Metric;

/// Counter totals over one workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub lookups: u64,
    pub hits: u64,
    pub misses: u64,
    pub failures: u64,
    pub evictions: u64,
    pub entries: u64,
    pub chains_assembled: u64,
    pub engine_runs: u64,
    pub kernel_lookups: u64,
    pub kernel_evals: u64,
    pub retries: u64,
}

impl Counters {
    /// Reads the totals, engine counters and per-site retries of a
    /// `/stats` document.
    pub fn from_stats_json(json: &str) -> Result<Counters, String> {
        let value: Value =
            serde_json::from_str(json).map_err(|e| format!("/stats is not JSON: {e}"))?;
        let num = |section: Option<&Value>, key: &str| {
            section
                .and_then(|s| s.get(key))
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("/stats lacks '{key}'"))
        };
        let totals = value.get("cache").and_then(|c| c.get("totals"));
        let engine = value.get("engine");
        let mut retries = 0;
        for site in value.get("sites").and_then(Value::as_array).unwrap_or(&[]) {
            retries += num(Some(site), "retries")?;
        }
        Ok(Counters {
            lookups: num(totals, "lookups")?,
            hits: num(totals, "hits")?,
            misses: num(totals, "misses")?,
            failures: num(totals, "failures")?,
            evictions: num(totals, "evictions")?,
            entries: num(totals, "entries")?,
            chains_assembled: num(engine, "chains_assembled")?,
            engine_runs: num(engine, "engine_runs")?,
            kernel_lookups: num(engine, "kernel_lookups")?,
            kernel_evals: num(engine, "kernel_evals")?,
            retries,
        })
    }

    /// The counters of an in-process cache and, when given, its registry.
    pub fn from_cache(cache: &LatencyCache, stats: Option<&Stats>) -> Counters {
        let c = cache.stats();
        let e = cache.engine_stats();
        Counters {
            lookups: c.lookups,
            hits: c.hits,
            misses: c.misses,
            failures: c.failures,
            evictions: c.evictions,
            entries: c.entries as u64,
            chains_assembled: e.chains_assembled,
            engine_runs: e.engine_runs,
            kernel_lookups: e.kernel_lookups,
            kernel_evals: e.kernel_evals,
            retries: stats.map_or(0, |s| s.sites().iter().map(|(_, c)| c.retries).sum()),
        }
    }

    /// Adds `other`'s totals to these.
    pub fn add(&mut self, other: &Counters) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.misses += other.misses;
        self.failures += other.failures;
        self.evictions += other.evictions;
        self.entries += other.entries;
        self.chains_assembled += other.chains_assembled;
        self.engine_runs += other.engine_runs;
        self.kernel_lookups += other.kernel_lookups;
        self.kernel_evals += other.kernel_evals;
        self.retries += other.retries;
    }

    /// The `profiler.*` counter metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        vec![
            Metric::new("profiler.cache.lookups", self.lookups as f64, "count"),
            Metric::new("profiler.cache.misses", self.misses as f64, "count"),
            Metric::new("profiler.cache.evictions", self.evictions as f64, "count"),
            Metric::new("profiler.cache.entries", self.entries as f64, "count"),
            Metric::new("profiler.cache.failures", self.failures as f64, "count"),
            Metric::new(
                "profiler.cache.hit_ratio",
                ratio(self.hits, self.lookups),
                "ratio",
            ),
            Metric::new(
                "profiler.engine.chains_assembled",
                self.chains_assembled as f64,
                "count",
            ),
            Metric::new(
                "profiler.engine.engine_runs",
                self.engine_runs as f64,
                "count",
            ),
            Metric::new(
                "profiler.engine.kernel_evals",
                self.kernel_evals as f64,
                "count",
            ),
            Metric::new(
                "profiler.engine.kernel_memo_hit_ratio",
                ratio(
                    self.kernel_lookups.saturating_sub(self.kernel_evals),
                    self.kernel_lookups,
                ),
                "ratio",
            ),
            Metric::new("profiler.sites.retries", self.retries as f64, "count"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_totals_engine_and_sites_from_stats() {
        let json = r#"{
  "version": 2,
  "cache": {
    "totals": {"lookups": 940843, "hits": 898441, "misses": 42303, "failures": 99, "evictions": 0, "entries": 42303},
    "shards": [
      {"shard": 0, "lookups": 1, "hits": 1, "misses": 0, "failures": 0, "evictions": 0, "entries": 0}
    ]
  },
  "engine": {"chains_assembled": 41728, "engine_runs": 575, "kernel_lookups": 103312, "kernel_memo_hits": 98477, "kernel_evals": 4835, "memo_entries": 4835},
  "sweep": {"items": 10, "successes": 10, "panics": 0},
  "sites": [
    {"site": "profiler.try_measure", "operations": 3, "attempts": 5, "retries": 2, "successes": 3, "failures": 0, "backoff_ms": 1},
    {"site": "runner.try_run", "operations": 4, "attempts": 7, "retries": 3, "successes": 4, "failures": 0, "backoff_ms": 0.5}
  ]
}"#;
        let c = Counters::from_stats_json(json).unwrap();
        assert_eq!(c.lookups, 940843);
        assert_eq!(c.failures, 99);
        assert_eq!(c.entries, 42303);
        assert_eq!(c.engine_runs, 575);
        assert_eq!(c.kernel_evals, 4835);
        assert_eq!(c.retries, 5);
        let hit = c.metrics()[5].value;
        assert!((hit - 898441.0 / 940843.0).abs() < 1e-12);
        assert!(Counters::from_stats_json("{}").is_err());
    }

    #[test]
    fn the_live_registry_renders_what_the_reader_expects() {
        let cache = LatencyCache::new();
        let stats = Stats::new();
        stats.record_site("runner.try_run", 3, 0.0, true);
        let rendered = stats.snapshot_with_cache(&cache).render_json();
        let c = Counters::from_stats_json(&rendered).unwrap();
        assert_eq!(c, Counters::from_cache(&cache, Some(&stats)));
        assert_eq!(c.retries, 2);
    }
}
