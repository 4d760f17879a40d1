//! A concurrent memo table for simulated layer costs.
//!
//! Every figure, heatmap and pruning search in the repo bottoms out in the
//! same query: "what does layer L cost on device D under backend B?" The
//! paper's methodology makes that query *heavily* redundant — a staircase
//! sweeps 1..=1024 channel counts per layer, the pruner's search revisits
//! the same candidate counts layer after layer, and the 32 repro
//! experiments overlap on the stock configurations. [`LatencyCache`]
//! memoizes the deterministic simulator run behind
//! [`ConvBackend::cost`], keyed by (backend fingerprint, device, layer
//! spec), so each unique configuration is simulated exactly once per
//! process no matter how many sweeps touch it — and safely from many
//! worker threads at once.
//!
//! Storage is the crate's one sharded table ([`crate::table`]), shared
//! with the kernel memo: a lookup is a single identity-hashed probe, and
//! the opt-in per-shard bound keeps its admit-if-smaller membership with
//! O(log n) admission and eviction through an ordered digest index that
//! exists only while the bound is set.
//!
//! The infallible miss path does not run a full cold simulation either:
//! it plans the layer and *assembles* the cost from per-kernel engine
//! costs memoized in a [`crate::incremental::KernelMemo`], which is
//! bitwise identical to the cold run (pinned by the backends' `cost ==
//! plan + simulate` contract and this module's canary tests). The
//! fallible path stays cold on purpose — fault-injecting backends override
//! [`ConvBackend::try_cost`], and assembling around them would bypass the
//! injected faults. [`LatencyCache::engine_stats`] reports how much full
//! simulation the incremental path avoided.

use std::cmp::Ordering as CmpOrdering;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use pruneperf_backends::hash::fnv1a;
use pruneperf_backends::{ConvBackend, CostError};
use pruneperf_gpusim::{Device, Engine};
use pruneperf_models::ConvLayerSpec;

use crate::incremental::{EngineStats, KernelMemo};
use crate::table::{shard_of, Admission, ShardedTable, TableKey, SHARDS};

/// Magic token that opens every persist file.
const PERSIST_HEADER: &str = "pruneperf-latency-cache";

/// Persist-format version; bumped on any byte-layout change.
const PERSIST_VERSION: u32 = 1;

/// A parse/validation failure from [`LatencyCache::reload`], carrying the
/// 1-based line number of the offending input line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheReloadError {
    /// 1-based line number in the persist file.
    pub line: usize,
    /// What the line failed to satisfy.
    pub message: String,
}

impl fmt::Display for CacheReloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache reload failed at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for CacheReloadError {}

/// One memo-table key: which planner, on which device, for which layer.
///
/// The backend contributes its [`ConvBackend::fingerprint`] rather than its
/// name, so configured backends (e.g. TVM with an autotuned log) that plan
/// differently never collide.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CacheKey {
    backend: u64,
    device: String,
    layer: ConvLayerSpec,
}

impl CacheKey {
    fn matches(&self, backend: u64, device: &str, layer: &ConvLayerSpec) -> bool {
        self.backend == backend && self.device == device && &self.layer == layer
    }
}

impl TableKey for CacheKey {
    fn order_cmp(&self, other: &CacheKey) -> CmpOrdering {
        let tuple = |k: &CacheKey| {
            (
                k.backend,
                k.layer.kernel(),
                k.layer.stride(),
                k.layer.pad(),
                k.layer.c_in(),
                k.layer.c_out(),
                k.layer.h_in(),
                k.layer.w_in(),
                k.layer.groups(),
            )
        };
        self.device
            .cmp(&other.device)
            .then_with(|| self.layer.label().cmp(other.layer.label()))
            .then_with(|| tuple(self).cmp(&tuple(other)))
    }
}

/// SplitMix64 finalizer: cheap, high-quality 64-bit mixing (shared with
/// the fault-injection plan, whose decisions are pure hash functions).
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Digest of the logical key, computed directly from borrowed parts.
///
/// A cache query competes with this repo's analytic simulator run, which
/// is only a microsecond or two, so the hot path must stay allocation-free
/// and cheap: strings go through one FNV-1a pass each, numeric fields are
/// folded word-wise through SplitMix64, and an owned [`CacheKey`] (two
/// heap allocations) is built only when a miss actually inserts.
fn key_digest(backend: u64, device: &str, layer: &ConvLayerSpec) -> u64 {
    let mut h = splitmix(backend);
    h = splitmix(h ^ fnv1a(device.as_bytes()));
    h = splitmix(h ^ fnv1a(layer.label().as_bytes()));
    for v in [
        layer.kernel(),
        layer.stride(),
        layer.pad(),
        layer.c_in(),
        layer.c_out(),
        layer.h_in(),
        layer.w_in(),
        layer.groups(),
    ] {
        h = splitmix(h ^ (v as u64));
    }
    h
}

/// Per-shard effectiveness counters, updated with relaxed atomics next to
/// the shard they describe.
///
/// The counting discipline is chosen so the *totals* are a pure function
/// of the query multiset, independent of thread schedule: every query
/// increments `lookups` exactly once, and exactly one of `hits`, `misses`
/// or `failures` — a lost insert race (two threads simulating the same
/// fresh key) counts as a hit for the loser, exactly what a sequential
/// execution of the same queries would record.
#[derive(Debug, Default)]
struct ShardCounters {
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    failures: AtomicU64,
    evictions: AtomicU64,
}

/// Counter snapshot of one shard, for [`LatencyCache::shard_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheShardStats {
    /// Shard index in `0..16`.
    pub shard: usize,
    /// Queries that probed this shard.
    pub lookups: u64,
    /// Queries answered from this shard's memo table.
    pub hits: u64,
    /// Queries that had to run the simulator.
    pub misses: u64,
    /// Fallible queries whose backend evaluation failed (never cached).
    pub failures: u64,
    /// Entries dropped by [`LatencyCache::clear`] or displaced by the
    /// opt-in per-shard bound, cumulative over the cache's lifetime
    /// (clearing resets the other counters, not this).
    pub evictions: u64,
    /// Unique configurations currently stored in the shard.
    pub entries: usize,
}

/// A snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the memo table.
    pub hits: u64,
    /// Queries that had to run the simulator.
    pub misses: u64,
    /// Total queries, including failed fallible ones. Conservation holds
    /// by construction: `lookups == hits + misses + failures`.
    pub lookups: u64,
    /// Fallible queries whose evaluation failed (never cached).
    pub failures: u64,
    /// Entries dropped by [`LatencyCache::clear`] or displaced by the
    /// opt-in per-shard bound, over the cache lifetime.
    pub evictions: u64,
    /// Unique (backend, device, layer) configurations currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of queries served from the table, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "latency cache: {} hits, {} misses, {} entries ({:.1}% hit rate)",
            self.hits,
            self.misses,
            self.entries,
            self.hit_rate() * 100.0
        )
    }
}

/// A sharded, thread-safe memo table over [`ConvBackend::cost`].
///
/// Values are the exact `(latency ms, energy mJ)` pair one simulator run
/// produces, so cached and uncached reads are bitwise-identical — callers
/// can layer seeded measurement noise on top without caring whether the
/// base value came from the table.
///
/// Most callers want the process-wide [`LatencyCache::global`] instance,
/// which every [`crate::LayerProfiler`] and [`crate::NetworkRunner`] query
/// goes through; standalone instances exist for tests and isolation.
#[derive(Debug)]
pub struct LatencyCache {
    /// Entries keyed by [`key_digest`]; also owns the opt-in per-shard
    /// bound (`0` = unbounded, the default, so batch workloads keep
    /// today's byte-identical goldens). Long-running processes (`pruneperf
    /// serve`) set it so the table cannot grow without limit. See
    /// [`LatencyCache::set_max_entries_per_shard`].
    table: ShardedTable<CacheKey, (f64, f64)>,
    /// Query counters, paired with the table's shards by digest.
    counters: Vec<ShardCounters>,
    /// Per-kernel engine-cost memo backing the incremental miss path.
    memo: KernelMemo,
    /// Engine-activity counters. Classified at cache-insert time (win =
    /// the canonical assembly/run), so they are schedule-independent even
    /// when threads race on duplicate fresh keys — a lost race's redundant
    /// work is not counted, exactly as in a sequential execution.
    chains_assembled: AtomicU64,
    engine_runs: AtomicU64,
    kernel_lookups: AtomicU64,
}

impl Default for LatencyCache {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyCache {
    /// An empty cache.
    pub fn new() -> Self {
        LatencyCache {
            table: ShardedTable::new(),
            counters: (0..SHARDS).map(|_| ShardCounters::default()).collect(),
            memo: KernelMemo::new(),
            chains_assembled: AtomicU64::new(0),
            engine_runs: AtomicU64::new(0),
            kernel_lookups: AtomicU64::new(0),
        }
    }

    /// The process-wide cache shared by every profiler and runner.
    pub fn global() -> &'static LatencyCache {
        static GLOBAL: OnceLock<LatencyCache> = OnceLock::new();
        GLOBAL.get_or_init(LatencyCache::new)
    }

    /// Bounds every shard (and the owned kernel memo) to at most `cap`
    /// entries; `0` restores the unbounded default.
    ///
    /// The eviction policy is *admit-if-smaller* in digest order: a fresh
    /// key is admitted to a full shard only when its `(digest, key)` order
    /// key is smaller than the shard's current maximum, which it displaces
    /// (one `evictions` count per displacement). Membership is therefore
    /// monotone toward the `cap` order-smallest distinct keys ever queried
    /// — a pure function of the query *set*, independent of arrival order
    /// and thread schedule, which is what keeps bounded serving runs
    /// byte-identical at any `--jobs`. The hit/miss *split* (never the
    /// `lookups == hits + misses + failures` conservation law) and the
    /// engine counters do become sequence-dependent once entries can be
    /// rejected, which is why the bound is opt-in and batch workloads
    /// leave it off.
    ///
    /// Shrinking below the current occupancy trims each shard to `cap`
    /// immediately, largest order keys first.
    pub fn set_max_entries_per_shard(&self, cap: usize) {
        self.memo.set_max_entries_per_shard(cap);
        for (counters, trimmed) in self.counters.iter().zip(self.table.set_cap(cap)) {
            counters.evictions.fetch_add(trimmed, Ordering::Relaxed);
        }
    }

    /// The configured per-shard bound (`0` = unbounded).
    pub fn max_entries_per_shard(&self) -> usize {
        self.table.cap()
    }

    /// `(latency ms, energy mJ)` of one execution, memoized.
    ///
    /// On a miss the cost is *assembled* incrementally — the backend plans
    /// the layer and the engine accumulates memoized per-kernel costs in
    /// `run_chain` order — outside the shard lock: two threads racing on
    /// the same fresh key may both assemble, but the computation is
    /// deterministic so whichever insert lands is indistinguishable, and
    /// no thread ever blocks on another's assembly.
    pub fn cost(
        &self,
        backend: &dyn ConvBackend,
        layer: &ConvLayerSpec,
        device: &Device,
    ) -> (f64, f64) {
        let fingerprint = backend.fingerprint();
        if let Some(cached) = self.lookup(fingerprint, layer, device) {
            return cached;
        }
        let engine = Engine::new(device);
        self.assemble_and_insert(&engine, fingerprint, backend, layer)
    }

    /// Batched multi-layer costing: one backend fingerprint and one engine
    /// per call, amortized across the whole layer list — the entry point
    /// network runs and the audit/bench backend×device×layer grids use.
    ///
    /// Values and counters are identical to calling [`LatencyCache::cost`]
    /// once per layer, in order; only the per-call setup is hoisted.
    pub fn cost_batch(
        &self,
        backend: &dyn ConvBackend,
        layers: &[ConvLayerSpec],
        device: &Device,
    ) -> Vec<(f64, f64)> {
        let fingerprint = backend.fingerprint();
        let engine = Engine::new(device);
        layers
            .iter()
            .map(|layer| {
                if let Some(cached) = self.lookup(fingerprint, layer, device) {
                    return cached;
                }
                self.assemble_and_insert(&engine, fingerprint, backend, layer)
            })
            .collect()
    }

    /// The infallible miss path: plan, assemble from memoized kernel
    /// costs, memoize, and account the engine counters on an insert win.
    fn assemble_and_insert(
        &self,
        engine: &Engine<'_>,
        fingerprint: u64,
        backend: &dyn ConvBackend,
        layer: &ConvLayerSpec,
    ) -> (f64, f64) {
        let device = engine.device();
        let plan = backend.plan(layer, device);
        let chain = plan.chain();
        let cost = engine.chain_cost_by(chain, |k| self.memo.cost(engine, k));
        let computed = (cost.total_time_ms(), cost.total_energy_mj());
        if self.insert(fingerprint, layer, device, computed) {
            self.chains_assembled.fetch_add(1, Ordering::Relaxed);
            self.kernel_lookups
                .fetch_add(chain.len() as u64, Ordering::Relaxed);
        }
        computed
    }

    /// Fallible twin of [`LatencyCache::cost`] over
    /// [`ConvBackend::try_cost`].
    ///
    /// Failures are **never** cached: a transient error leaves no trace in
    /// the table, so the caller's retry re-evaluates the backend, and a
    /// later success is memoized normally. A failed evaluation counts one
    /// `failures` (not a miss), keeping the lookup conservation law exact.
    ///
    /// Unlike [`LatencyCache::cost`], a miss here runs the backend's own
    /// [`ConvBackend::try_cost`] **cold** — fault-injecting decorators
    /// override it, and assembling from plan + memo would silently bypass
    /// their injected faults. Each successful cold evaluation that
    /// populates the table counts one `engine_runs`.
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`CostError`] on a miss whose evaluation
    /// fails.
    pub fn try_cost(
        &self,
        backend: &dyn ConvBackend,
        layer: &ConvLayerSpec,
        device: &Device,
    ) -> Result<(f64, f64), CostError> {
        let fingerprint = backend.fingerprint();
        if let Some(cached) = self.lookup(fingerprint, layer, device) {
            return Ok(cached);
        }
        let computed = match backend.try_cost(layer, device) {
            Ok(value) => value,
            Err(e) => {
                let digest = key_digest(fingerprint, device.name(), layer);
                self.shard_counters(digest)
                    .failures
                    .fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        if self.insert(fingerprint, layer, device, computed) {
            self.engine_runs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(computed)
    }

    /// Probes the memo table, counting the lookup, and a hit when present.
    fn lookup(
        &self,
        fingerprint: u64,
        layer: &ConvLayerSpec,
        device: &Device,
    ) -> Option<(f64, f64)> {
        let digest = key_digest(fingerprint, device.name(), layer);
        let counters = self.shard_counters(digest);
        counters.lookups.fetch_add(1, Ordering::Relaxed);
        let cached = self
            .table
            .probe(digest, |k| k.matches(fingerprint, device.name(), layer));
        if cached.is_some() {
            counters.hits.fetch_add(1, Ordering::Relaxed);
        }
        cached
    }

    /// Memoizes one computed value and classifies the query that produced
    /// it: a miss when the key is new, a *hit* when another thread's insert
    /// landed first (the lost race re-simulated, but the answer the table
    /// would have given is identical, and counting it as a hit keeps the
    /// hit/miss split schedule-independent).
    ///
    /// Returns `true` when this call's insert landed — the canonical
    /// evaluation of the key, which is what the engine counters bill.
    ///
    /// When a per-shard bound is set (see
    /// [`LatencyCache::set_max_entries_per_shard`]) a fresh key may be
    /// *rejected* by a full shard instead of stored; the computed value is
    /// still returned to the caller, the query still counts as a miss, but
    /// no engine counter is billed (there is no canonical owner of a value
    /// the table refused to keep).
    fn insert(
        &self,
        fingerprint: u64,
        layer: &ConvLayerSpec,
        device: &Device,
        value: (f64, f64),
    ) -> bool {
        let digest = key_digest(fingerprint, device.name(), layer);
        let key = CacheKey {
            backend: fingerprint,
            device: device.name().to_string(),
            layer: layer.clone(),
        };
        let admission = self.table.admit(digest, key, value);
        let counters = self.shard_counters(digest);
        match admission {
            Admission::Present => counters.hits.fetch_add(1, Ordering::Relaxed),
            _ => counters.misses.fetch_add(1, Ordering::Relaxed),
        };
        self.bill_displacement(digest, admission)
    }

    /// Counts a displacement as one eviction; returns whether the entry
    /// was admitted.
    fn bill_displacement(&self, digest: u64, admission: Admission) -> bool {
        if admission == (Admission::Admitted { displaced: true }) {
            self.shard_counters(digest)
                .evictions
                .fetch_add(1, Ordering::Relaxed);
        }
        matches!(admission, Admission::Admitted { .. })
    }

    /// The counter set paired with the table shard holding `digest`.
    fn shard_counters(&self, digest: u64) -> &ShardCounters {
        // lint: allow(index) — shard_of masks with SHARDS - 1, always in-bounds
        &self.counters[shard_of(digest)]
    }

    /// Deliberately poisons every shard lock: a scoped thread takes each
    /// lock and panics while holding it.
    ///
    /// This is the chaos harness's poisoned-lock fault. The cache's own
    /// accessors recover via [`std::sync::PoisonError::into_inner`]
    /// (entries are inserted whole under the lock, so no torn state can
    /// exist), and callers verify that queries after poisoning still
    /// return bitwise the same values.
    pub fn poison_all_shards(&self) {
        self.table.poison_all();
    }

    /// Memoized latency in ms (the `.0` of [`LatencyCache::cost`]).
    pub fn latency_ms(
        &self,
        backend: &dyn ConvBackend,
        layer: &ConvLayerSpec,
        device: &Device,
    ) -> f64 {
        self.cost(backend, layer, device).0
    }

    /// Memoized energy in mJ (the `.1` of [`LatencyCache::cost`]).
    pub fn energy_mj(
        &self,
        backend: &dyn ConvBackend,
        layer: &ConvLayerSpec,
        device: &Device,
    ) -> f64 {
        self.cost(backend, layer, device).1
    }

    /// Current counters, aggregated over all shards.
    pub fn stats(&self) -> CacheStats {
        let mut agg = CacheStats {
            hits: 0,
            misses: 0,
            lookups: 0,
            failures: 0,
            evictions: 0,
            entries: self.len(),
        };
        for c in &self.counters {
            agg.hits += c.hits.load(Ordering::Relaxed);
            agg.misses += c.misses.load(Ordering::Relaxed);
            agg.lookups += c.lookups.load(Ordering::Relaxed);
            agg.failures += c.failures.load(Ordering::Relaxed);
            agg.evictions += c.evictions.load(Ordering::Relaxed);
        }
        agg
    }

    /// Engine-activity counters: how much full simulation the incremental
    /// miss path avoided. Deterministic at any worker count (see the
    /// counter-discipline notes on [`LatencyCache`] and
    /// [`crate::incremental::KernelMemo`]).
    pub fn engine_stats(&self) -> EngineStats {
        EngineStats {
            chains_assembled: self.chains_assembled.load(Ordering::Relaxed),
            engine_runs: self.engine_runs.load(Ordering::Relaxed),
            kernel_lookups: self.kernel_lookups.load(Ordering::Relaxed),
            kernel_evals: self.memo.evals(),
            memo_entries: self.memo.entries(),
        }
    }

    /// Per-shard counter snapshots, in shard order.
    ///
    /// The per-shard split is deterministic because keys map to shards by
    /// digest, not by thread: the same query multiset lands on the same
    /// shards at any `--jobs` count.
    pub fn shard_stats(&self) -> Vec<CacheShardStats> {
        self.counters
            .iter()
            .enumerate()
            .map(|(i, c)| CacheShardStats {
                shard: i,
                lookups: c.lookups.load(Ordering::Relaxed),
                hits: c.hits.load(Ordering::Relaxed),
                misses: c.misses.load(Ordering::Relaxed),
                failures: c.failures.load(Ordering::Relaxed),
                evictions: c.evictions.load(Ordering::Relaxed),
                entries: self.table.shard_len(i),
            })
            .collect()
    }

    /// Number of memoized configurations.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry and resets the query counters (for tests and
    /// long-lived processes that switch workloads). Dropped entries
    /// accumulate into the per-shard `evictions` counter, which survives
    /// the reset — it records table churn over the cache's lifetime. The
    /// kernel memo and engine counters reset alongside the query counters.
    pub fn clear(&self) {
        for (counters, dropped) in self.counters.iter().zip(self.table.clear()) {
            counters.evictions.fetch_add(dropped, Ordering::Relaxed);
            counters.lookups.store(0, Ordering::Relaxed);
            counters.hits.store(0, Ordering::Relaxed);
            counters.misses.store(0, Ordering::Relaxed);
            counters.failures.store(0, Ordering::Relaxed);
        }
        self.memo.clear();
        self.chains_assembled.store(0, Ordering::Relaxed);
        self.engine_runs.store(0, Ordering::Relaxed);
        self.kernel_lookups.store(0, Ordering::Relaxed);
    }

    /// Serializes every memoized entry to the versioned persist format.
    ///
    /// The format is line-oriented and **byte-stable**: a header
    /// (`pruneperf-latency-cache v1 entries=N`) followed by one
    /// tab-separated line per entry in `(digest, key)` order — the same
    /// structural total order the bounded-eviction policy uses — with both
    /// cost floats rendered as big-endian `f64::to_bits` hex. Persisting
    /// the same entry *set* therefore always produces the same bytes,
    /// regardless of insertion order, thread schedule or whether the cache
    /// was itself restored from a persist file.
    pub fn persist(&self) -> String {
        let entries = self.table.sorted_entries();
        let mut out = format!(
            "{PERSIST_HEADER} v{PERSIST_VERSION} entries={}\n",
            entries.len()
        );
        for (key, (ms, mj)) in &entries {
            let l = &key.layer;
            out.push_str(&format!(
                "{:016x}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:016x}\t{:016x}\n",
                key.backend,
                key.device,
                l.label(),
                l.kernel(),
                l.stride(),
                l.pad(),
                l.c_in(),
                l.c_out(),
                l.h_in(),
                l.w_in(),
                l.groups(),
                ms.to_bits(),
                mj.to_bits(),
            ));
        }
        out
    }

    /// Restores entries from a [`LatencyCache::persist`] snapshot.
    ///
    /// Returns the number of entries admitted. Every line is parsed and
    /// validated before any is admitted, so a rejected file leaves the
    /// cache untouched. Restoring is **not** a query: the hit/miss
    /// counters and the engine counters are untouched (only eviction
    /// displacements are recorded), so a resumed search's stats cleanly
    /// attribute every subsequent lookup. Keys already memoized are
    /// skipped (costs are deterministic, so the values agree by
    /// construction). When a per-shard bound is set, restored keys go
    /// through the same admit-if-smaller policy as live inserts, so the
    /// final membership stays a pure function of the key set and the cap.
    ///
    /// # Errors
    ///
    /// Rejects unknown versions, malformed lines and layer shapes the
    /// catalog constructors would refuse, with the 1-based line number.
    pub fn reload(&self, data: &str) -> Result<usize, CacheReloadError> {
        let err = |line: usize, message: &str| CacheReloadError {
            line,
            message: message.to_string(),
        };
        let mut lines = data.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| err(1, "empty persist file"))?;
        let expected = format!("{PERSIST_HEADER} v{PERSIST_VERSION} ");
        if !header.starts_with(&expected) {
            return Err(err(1, "unrecognized persist header/version"));
        }
        let mut parsed: Vec<(CacheKey, (f64, f64))> = Vec::new();
        for (idx, line) in lines {
            let lineno = idx + 1;
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            if fields.len() != 13 {
                return Err(err(lineno, "expected 13 tab-separated fields"));
            }
            let backend = u64::from_str_radix(fields[0], 16)
                .map_err(|_| err(lineno, "bad backend fingerprint"))?;
            let device = fields[1];
            let label = fields[2];
            let mut nums = [0usize; 8];
            for (slot, raw) in nums.iter_mut().zip(&fields[3..11]) {
                *slot = raw
                    .parse::<usize>()
                    .map_err(|_| err(lineno, "bad layer extent"))?;
            }
            let [kernel, stride, pad, c_in, c_out, h_in, w_in, groups] = nums;
            // Pre-validate what the catalog constructors assert, so a
            // corrupt file surfaces as an error instead of a panic.
            let extents_ok = kernel > 0
                && stride > 0
                && c_in > 0
                && c_out > 0
                && h_in > 0
                && w_in > 0
                && h_in + 2 * pad >= kernel
                && w_in + 2 * pad >= kernel;
            let groups_ok = groups > 0 && c_in % groups == 0 && c_out % groups == 0;
            if !extents_ok || !groups_ok {
                return Err(err(lineno, "layer shape fails catalog invariants"));
            }
            let layer = if groups == 1 {
                ConvLayerSpec::new(label, kernel, stride, pad, c_in, c_out, h_in, w_in)
            } else {
                ConvLayerSpec::new_grouped(
                    label, kernel, stride, pad, c_in, c_out, h_in, w_in, groups,
                )
            };
            let ms = f64::from_bits(
                u64::from_str_radix(fields[11], 16).map_err(|_| err(lineno, "bad latency bits"))?,
            );
            let mj = f64::from_bits(
                u64::from_str_radix(fields[12], 16).map_err(|_| err(lineno, "bad energy bits"))?,
            );
            let device = device.to_string();
            parsed.push((
                CacheKey {
                    backend,
                    device,
                    layer,
                },
                (ms, mj),
            ));
        }
        // Admission mirrors the live bounded-insert policy but does no
        // query/engine accounting.
        let mut restored = 0usize;
        for (key, value) in parsed {
            let digest = key_digest(key.backend, &key.device, &key.layer);
            if self.bill_displacement(digest, self.table.admit(digest, key, value)) {
                restored += 1;
            }
        }
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruneperf_backends::{AclGemm, Cudnn, Tvm};
    use pruneperf_models::resnet50;

    fn l16() -> ConvLayerSpec {
        resnet50().layer("ResNet.L16").unwrap().clone()
    }

    #[test]
    fn cached_reads_are_bitwise_equal_to_uncached() {
        let cache = LatencyCache::new();
        let d = Device::mali_g72_hikey970();
        let b = AclGemm::new();
        for c in [128usize, 92, 76] {
            let layer = l16().with_c_out(c).unwrap();
            let (ms, mj) = cache.cost(&b, &layer, &d); // miss
            let (ms2, mj2) = cache.cost(&b, &layer, &d); // hit
            assert_eq!(ms, b.latency_ms(&layer, &d));
            assert_eq!(mj, b.energy_mj(&layer, &d));
            assert_eq!((ms, mj), (ms2, mj2));
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.entries, 3);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn keys_distinguish_backend_device_and_layer() {
        let cache = LatencyCache::new();
        let mali = Device::mali_g72_hikey970();
        let tx2 = Device::jetson_tx2();
        let layer = l16();
        cache.cost(&AclGemm::new(), &layer, &mali);
        cache.cost(&Cudnn::new(), &layer, &tx2);
        cache.cost(&AclGemm::new(), &layer, &tx2);
        cache.cost(&AclGemm::new(), &layer.with_c_out(92).unwrap(), &mali);
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn tvm_logs_do_not_collide() {
        use pruneperf_backends::tuning::TuningLog;
        let cache = LatencyCache::new();
        let d = Device::mali_g72_hikey970();
        let layer = l16().with_c_out(77).unwrap();
        let stock_ms = cache.latency_ms(&Tvm::new(), &layer, &d);
        let mut log = TuningLog::tophub(d.name());
        log.autotune(&layer, 300);
        let tuned_ms = cache.latency_ms(&Tvm::with_log(log), &layer, &d);
        assert_ne!(stock_ms, tuned_ms, "autotuned entry must not be shadowed");
        assert_eq!(cache.len(), 2);
    }

    /// A backend that fails its first `fail_times` fallible evaluations of
    /// every query, then defers to the clean model.
    struct Flaky {
        inner: AclGemm,
        fail_times: u64,
        calls: AtomicU64,
    }

    impl ConvBackend for Flaky {
        fn name(&self) -> &str {
            "flaky"
        }

        fn plan(&self, layer: &ConvLayerSpec, device: &Device) -> pruneperf_backends::DispatchPlan {
            self.inner.plan(layer, device)
        }

        fn try_cost(
            &self,
            layer: &ConvLayerSpec,
            device: &Device,
        ) -> Result<(f64, f64), pruneperf_backends::CostError> {
            let call = self.calls.fetch_add(1, Ordering::Relaxed);
            if call < self.fail_times {
                Err(pruneperf_backends::CostError::transient(format!(
                    "injected failure {call}"
                )))
            } else {
                Ok(self.inner.cost(layer, device))
            }
        }
    }

    #[test]
    fn try_cost_never_caches_failures() {
        let cache = LatencyCache::new();
        let d = Device::mali_g72_hikey970();
        let b = Flaky {
            inner: AclGemm::new(),
            fail_times: 2,
            calls: AtomicU64::new(0),
        };
        let layer = l16();
        assert!(cache.try_cost(&b, &layer, &d).is_err());
        assert!(cache.try_cost(&b, &layer, &d).is_err());
        assert!(cache.is_empty(), "errors must not be memoized");
        assert_eq!(cache.stats().misses, 0, "failed queries are not misses");
        assert_eq!(cache.stats().failures, 2, "each failed attempt counts");
        let value = cache.try_cost(&b, &layer, &d).unwrap();
        assert_eq!(value, AclGemm::new().cost(&layer, &d));
        assert_eq!(cache.stats().misses, 1);
        // The success is memoized: the next query is a hit, not a call.
        assert_eq!(cache.try_cost(&b, &layer, &d).unwrap(), value);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(b.calls.load(Ordering::Relaxed), 3);
        let stats = cache.stats();
        assert_eq!(stats.lookups, stats.hits + stats.misses + stats.failures);
    }

    #[test]
    fn try_cost_agrees_with_cost_for_infallible_backends() {
        let cache = LatencyCache::new();
        let d = Device::mali_g72_hikey970();
        let b = AclGemm::new();
        let layer = l16();
        assert_eq!(
            cache.try_cost(&b, &layer, &d).unwrap(),
            cache.cost(&b, &layer, &d)
        );
    }

    /// Poisoned shard locks must not lose the table or change any value.
    #[test]
    fn queries_recover_from_poisoned_shards() {
        let cache = LatencyCache::new();
        let d = Device::mali_g72_hikey970();
        let b = AclGemm::new();
        let warm: Vec<f64> = (60..=76)
            .map(|c| cache.latency_ms(&b, &l16().with_c_out(c).unwrap(), &d))
            .collect();
        let entries = cache.len();
        cache.poison_all_shards();
        // Reads of warmed keys hit and match bitwise; new keys still insert.
        let after: Vec<f64> = (60..=76)
            .map(|c| cache.latency_ms(&b, &l16().with_c_out(c).unwrap(), &d))
            .collect();
        assert_eq!(warm, after);
        assert_eq!(cache.len(), entries);
        let fresh = cache.latency_ms(&b, &l16().with_c_out(33).unwrap(), &d);
        assert_eq!(fresh, b.latency_ms(&l16().with_c_out(33).unwrap(), &d));
        assert_eq!(cache.len(), entries + 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_queries_agree() {
        let cache = LatencyCache::new();
        let d = Device::mali_g72_hikey970();
        let b = AclGemm::new();
        let base = l16();
        let mut results: Vec<Vec<f64>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        (1..=base.c_out())
                            .map(|c| cache.latency_ms(&b, &base.with_c_out(c).unwrap(), &d))
                            .collect::<Vec<f64>>()
                    })
                })
                .collect();
            results = handles.into_iter().map(|h| h.join().unwrap()).collect();
        });
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        assert_eq!(cache.len(), base.c_out());
        let stats = cache.stats();
        assert_eq!(stats.lookups, 4 * base.c_out() as u64);
        // Regression (PR 5): the hit/miss split is schedule-independent.
        // A lost insert race counts as a hit, so exactly one miss is
        // recorded per unique key no matter how the four threads interleave.
        assert_eq!(stats.misses, base.c_out() as u64);
        assert_eq!(stats.hits, 3 * base.c_out() as u64);
        assert_eq!(stats.failures, 0);

        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().evictions, base.c_out() as u64);
    }

    #[test]
    fn shard_stats_sum_to_aggregate() {
        let cache = LatencyCache::new();
        let d = Device::mali_g72_hikey970();
        let b = AclGemm::new();
        for c in 1..=64usize {
            cache.cost(&b, &l16().with_c_out(c).unwrap(), &d);
            cache.cost(&b, &l16().with_c_out(c).unwrap(), &d);
        }
        let shards = cache.shard_stats();
        assert_eq!(shards.len(), 16);
        let agg = cache.stats();
        assert_eq!(shards.iter().map(|s| s.lookups).sum::<u64>(), agg.lookups);
        assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), agg.hits);
        assert_eq!(shards.iter().map(|s| s.misses).sum::<u64>(), agg.misses);
        assert_eq!(shards.iter().map(|s| s.entries).sum::<usize>(), agg.entries);
        // Keys spread across more than one shard for a non-trivial sweep.
        assert!(shards.iter().filter(|s| s.entries > 0).count() > 1);
        for s in &shards {
            assert_eq!(s.lookups, s.hits + s.misses + s.failures);
        }
    }

    #[test]
    fn clear_accumulates_evictions_across_generations() {
        let cache = LatencyCache::new();
        let d = Device::mali_g72_hikey970();
        let b = AclGemm::new();
        for c in 1..=10usize {
            cache.cost(&b, &l16().with_c_out(c).unwrap(), &d);
        }
        cache.clear();
        assert_eq!(cache.stats().evictions, 10);
        assert_eq!(cache.stats().lookups, 0, "query counters reset");
        for c in 1..=4usize {
            cache.cost(&b, &l16().with_c_out(c).unwrap(), &d);
        }
        cache.clear();
        assert_eq!(cache.stats().evictions, 14, "evictions are cumulative");
    }

    /// The final contents of a bounded cache are a pure function of the
    /// distinct keys queried — identical whether the sweep ran on one
    /// thread in order, one thread in reverse, or four racing threads.
    #[test]
    fn bounded_eviction_is_deterministic_across_schedules() {
        let d = Device::mali_g72_hikey970();
        let b = AclGemm::new();
        let cap = 3usize;

        let contents = |cache: &LatencyCache| -> Vec<(usize, usize)> {
            cache
                .shard_stats()
                .iter()
                .map(|s| (s.shard, s.entries))
                .filter(|(_, n)| *n > 0)
                .collect()
        };
        let probe = |cache: &LatencyCache| -> Vec<u64> {
            // Bit-pattern of every retained key's value: hit or recompute,
            // the returned value is bitwise identical either way, so probe
            // through the public API and read which keys are *hits*.
            (1..=64usize)
                .map(|c| {
                    cache
                        .latency_ms(&b, &l16().with_c_out(c).unwrap(), &d)
                        .to_bits()
                })
                .collect()
        };

        let forward = LatencyCache::new();
        forward.set_max_entries_per_shard(cap);
        for c in 1..=64usize {
            forward.cost(&b, &l16().with_c_out(c).unwrap(), &d);
        }

        let reverse = LatencyCache::new();
        reverse.set_max_entries_per_shard(cap);
        for c in (1..=64usize).rev() {
            reverse.cost(&b, &l16().with_c_out(c).unwrap(), &d);
        }

        let racing = LatencyCache::new();
        racing.set_max_entries_per_shard(cap);
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(|| {
                    for c in 1..=64usize {
                        racing.cost(&b, &l16().with_c_out(c).unwrap(), &d);
                    }
                    let _ = t;
                });
            }
        });

        assert_eq!(contents(&forward), contents(&reverse));
        assert_eq!(contents(&forward), contents(&racing));
        for s in forward.shard_stats() {
            assert!(
                s.entries <= cap,
                "shard {} over cap: {}",
                s.shard,
                s.entries
            );
        }
        assert!(forward.len() <= cap * 16);
        assert!(forward.stats().evictions > 0, "a 64-key sweep must evict");
        // Values stay bitwise correct whether a key was retained or not.
        assert_eq!(probe(&forward), probe(&reverse));
    }

    #[test]
    fn bounded_counters_conserve_lookups() {
        let d = Device::mali_g72_hikey970();
        let b = AclGemm::new();
        let cache = LatencyCache::new();
        cache.set_max_entries_per_shard(2);
        for _ in 0..3 {
            for c in 1..=40usize {
                cache.cost(&b, &l16().with_c_out(c).unwrap(), &d);
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.lookups, stats.hits + stats.misses + stats.failures);
        for s in cache.shard_stats() {
            assert_eq!(s.lookups, s.hits + s.misses + s.failures);
            assert!(s.entries <= 2);
        }
    }

    #[test]
    fn shrinking_the_bound_trims_immediately() {
        let d = Device::mali_g72_hikey970();
        let b = AclGemm::new();
        let cache = LatencyCache::new();
        for c in 1..=64usize {
            cache.cost(&b, &l16().with_c_out(c).unwrap(), &d);
        }
        let before = cache.len();
        assert_eq!(cache.max_entries_per_shard(), 0);
        cache.set_max_entries_per_shard(1);
        assert_eq!(cache.max_entries_per_shard(), 1);
        let after = cache.len();
        assert!(after < before);
        for s in cache.shard_stats() {
            assert!(s.entries <= 1);
        }
        let evicted: u64 = cache.stats().evictions;
        assert_eq!(evicted, (before - after) as u64);
        // Unbinding again restores growth for fresh keys.
        cache.set_max_entries_per_shard(0);
        for c in 65..=80usize {
            cache.cost(&b, &l16().with_c_out(c).unwrap(), &d);
        }
        assert!(cache.len() > after);
    }

    #[test]
    fn unbounded_default_never_evicts_on_insert() {
        let d = Device::mali_g72_hikey970();
        let b = AclGemm::new();
        let cache = LatencyCache::new();
        for c in 1..=128usize {
            cache.cost(&b, &l16().with_c_out(c).unwrap(), &d);
        }
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.len(), 128);
    }

    #[test]
    fn incremental_misses_are_bitwise_identical_to_cold_backend_cost() {
        // The tentpole invariant: the assemble-from-memo miss path must be
        // indistinguishable, bit for bit, from running the backend cold —
        // for every backend, on every device, across a channel sweep.
        use pruneperf_backends::all_backends;
        let cache = LatencyCache::new();
        for device in pruneperf_gpusim::Device::all_paper_devices() {
            for backend in all_backends() {
                for c in [128usize, 97, 92, 76, 33, 1] {
                    let layer = l16().with_c_out(c).unwrap();
                    let cold = backend.cost(&layer, &device);
                    let warm = cache.cost(backend.as_ref(), &layer, &device);
                    assert_eq!(
                        warm.0.to_bits(),
                        cold.0.to_bits(),
                        "{} on {} at c_out={c}: latency",
                        backend.name(),
                        device.name()
                    );
                    assert_eq!(
                        warm.1.to_bits(),
                        cold.1.to_bits(),
                        "{} on {} at c_out={c}: energy",
                        backend.name(),
                        device.name()
                    );
                }
            }
        }
        let engine = cache.engine_stats();
        assert_eq!(engine.engine_runs, 0, "no full cold runs on this path");
        assert_eq!(engine.chains_assembled, cache.stats().misses);
    }

    #[test]
    fn cost_batch_matches_sequential_cost_bitwise() {
        let d = Device::mali_g72_hikey970();
        let b = AclGemm::new();
        let layers: Vec<ConvLayerSpec> = (60..=90).map(|c| l16().with_c_out(c).unwrap()).collect();
        let sequential = LatencyCache::new();
        let expect: Vec<(f64, f64)> = layers.iter().map(|l| sequential.cost(&b, l, &d)).collect();
        let batched = LatencyCache::new();
        let got = batched.cost_batch(&b, &layers, &d);
        assert_eq!(got, expect);
        assert_eq!(batched.stats(), sequential.stats(), "counters identical");
        assert_eq!(batched.engine_stats(), sequential.engine_stats());
        // A second batch is all hits and assembles nothing new.
        let again = batched.cost_batch(&b, &layers, &d);
        assert_eq!(again, expect);
        assert_eq!(batched.stats().hits, layers.len() as u64);
        assert_eq!(batched.engine_stats().chains_assembled, layers.len() as u64);
    }

    #[test]
    fn engine_stats_prove_the_memo_works() {
        let cache = LatencyCache::new();
        let d = Device::mali_g72_hikey970();
        let b = AclGemm::new();
        for c in 60..=90usize {
            cache.cost(&b, &l16().with_c_out(c).unwrap(), &d);
        }
        let engine = cache.engine_stats();
        assert_eq!(engine.chains_assembled, 31, "one assembly per miss");
        assert_eq!(engine.engine_runs, 0, "no cold simulations at all");
        assert!(
            engine.kernel_lookups >= engine.chains_assembled,
            "each chain has at least one kernel"
        );
        // The sweep shares im2col/reshape stages across channel counts, so
        // unique kernel shapes are strictly fewer than kernel queries.
        assert!(
            engine.kernel_evals < engine.kernel_lookups,
            "sweep must reuse memoized kernels: {engine:?}"
        );
        assert_eq!(
            engine.kernel_memo_hits(),
            engine.kernel_lookups - engine.kernel_evals
        );
        assert_eq!(engine.memo_entries as u64, engine.kernel_evals);
        cache.clear();
        assert_eq!(cache.engine_stats(), EngineStats::default());
    }

    #[test]
    fn try_cost_counts_cold_engine_runs() {
        let cache = LatencyCache::new();
        let d = Device::mali_g72_hikey970();
        let b = AclGemm::new();
        let layer = l16();
        cache.try_cost(&b, &layer, &d).unwrap();
        let engine = cache.engine_stats();
        assert_eq!(engine.engine_runs, 1, "fallible misses stay cold");
        assert_eq!(engine.chains_assembled, 0);
        // The cached entry then serves the infallible path as a hit.
        cache.cost(&b, &layer, &d);
        assert_eq!(cache.engine_stats().engine_runs, 1);
        assert_eq!(cache.engine_stats().chains_assembled, 0);
    }

    #[test]
    fn persist_round_trips_bitwise_and_is_byte_stable() {
        let cache = LatencyCache::new();
        let d = Device::mali_g72_hikey970();
        let b = AclGemm::new();
        for c in [128usize, 92, 76, 33] {
            cache.cost(&b, &l16().with_c_out(c).unwrap(), &d);
        }
        let snapshot = cache.persist();
        assert!(snapshot.starts_with("pruneperf-latency-cache v1 entries=4\n"));

        let restored = LatencyCache::new();
        assert_eq!(restored.reload(&snapshot).unwrap(), 4);
        assert_eq!(restored.len(), 4);
        // Restoring is not a query: stats stay clean for the resumed run.
        assert_eq!(restored.stats().lookups, 0);
        assert_eq!(restored.engine_stats(), EngineStats::default());
        // Every restored entry now serves hits with the exact same bits.
        for c in [128usize, 92, 76, 33] {
            let layer = l16().with_c_out(c).unwrap();
            let orig = cache.cost(&b, &layer, &d);
            let warm = restored.cost(&b, &layer, &d);
            assert_eq!(warm.0.to_bits(), orig.0.to_bits());
            assert_eq!(warm.1.to_bits(), orig.1.to_bits());
        }
        assert_eq!(restored.stats().hits, 4);
        assert_eq!(restored.engine_stats().engine_runs, 0);
        // Byte stability: re-persisting the restored cache is identical.
        assert_eq!(restored.persist(), snapshot);
    }

    #[test]
    fn persist_bytes_are_insertion_order_independent() {
        let d = Device::jetson_nano();
        let b = Cudnn::new();
        let counts = [96usize, 17, 128, 54, 121];
        let forward = LatencyCache::new();
        for &c in &counts {
            forward.cost(&b, &l16().with_c_out(c).unwrap(), &d);
        }
        let backward = LatencyCache::new();
        for &c in counts.iter().rev() {
            backward.cost(&b, &l16().with_c_out(c).unwrap(), &d);
        }
        assert_eq!(forward.persist(), backward.persist());
    }

    #[test]
    fn reload_skips_present_keys_and_respects_the_shard_bound() {
        let cache = LatencyCache::new();
        let d = Device::mali_g72_hikey970();
        let b = AclGemm::new();
        for c in [128usize, 92, 76] {
            cache.cost(&b, &l16().with_c_out(c).unwrap(), &d);
        }
        let snapshot = cache.persist();
        // Reloading into the same cache is a no-op: all keys present.
        assert_eq!(cache.reload(&snapshot).unwrap(), 0);
        assert_eq!(cache.len(), 3);

        // A bounded empty cache admits via the same admit-if-smaller
        // policy as live inserts: every restored key either fits or
        // displaces a structurally larger one, so membership is capped.
        let bounded = LatencyCache::new();
        bounded.set_max_entries_per_shard(1);
        let admitted = bounded.reload(&snapshot).unwrap();
        assert!((1..=3).contains(&admitted), "admitted {admitted}");
        assert!(bounded.len() <= SHARDS);
        let evictions = bounded.stats().evictions;
        assert_eq!(admitted as u64, bounded.len() as u64 + evictions);
        // Whatever survived still serves bitwise-identical hits.
        let misses_before = bounded.stats().misses;
        for c in [128usize, 92, 76] {
            let layer = l16().with_c_out(c).unwrap();
            assert_eq!(bounded.cost(&b, &layer, &d), cache.cost(&b, &layer, &d));
        }
        assert!(bounded.stats().misses >= misses_before);
    }

    #[test]
    fn reload_rejects_bad_headers_and_corrupt_lines() {
        let cache = LatencyCache::new();
        let err = cache.reload("").unwrap_err();
        assert_eq!(err.line, 1);

        let err = cache
            .reload("some-other-format v9 entries=0\n")
            .unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("line 1"));

        let err = cache
            .reload("pruneperf-latency-cache v2 entries=0\n")
            .unwrap_err();
        assert_eq!(err.line, 1, "future versions are rejected, not guessed");

        let header = "pruneperf-latency-cache v1 entries=1\n";
        for (bad, why) in [
            (
                "zz\tdev\tL\t3\t1\t1\t8\t8\t14\t14\t1\t0\t0\n",
                "fingerprint",
            ),
            ("0\tdev\tL\t3\t1\t1\t8\t8\t14\t14\t1\t0\n", "field count"),
            ("0\tdev\tL\t0\t1\t1\t8\t8\t14\t14\t1\t0\t0\n", "zero kernel"),
            (
                "0\tdev\tL\t9\t1\t0\t8\t8\t3\t3\t1\t0\t0\n",
                "kernel overflow",
            ),
            ("0\tdev\tL\t3\t1\t1\t8\t8\t14\t14\t3\t0\t0\n", "bad groups"),
            (
                "0\tdev\tL\t3\t1\t1\t8\t8\t14\t14\t1\tg\t0\n",
                "latency bits",
            ),
        ] {
            let data = format!("{header}{bad}");
            let err = cache.reload(&data).unwrap_err();
            assert_eq!(err.line, 2, "{why}: {err}");
        }
        assert!(cache.is_empty(), "failed reloads admit nothing new");

        // A valid line before the corrupt one is not admitted either: the
        // whole file validates before the cache changes.
        let source = LatencyCache::new();
        source.cost(&AclGemm::new(), &l16(), &Device::mali_g72_hikey970());
        let data = format!("{}0\tdev\tL\t3\n", source.persist());
        let err = cache.reload(&data).unwrap_err();
        assert_eq!(err.line, 3, "{err}");
        assert!(
            cache.is_empty(),
            "a rejected file leaves the cache untouched"
        );
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn grouped_layers_survive_the_persist_round_trip() {
        let cache = LatencyCache::new();
        let d = Device::jetson_tx2();
        let b = Cudnn::new();
        let grouped = ConvLayerSpec::new_grouped("G.L0", 3, 1, 1, 32, 64, 14, 14, 4);
        let orig = cache.cost(&b, &grouped, &d);
        let restored = LatencyCache::new();
        assert_eq!(restored.reload(&cache.persist()).unwrap(), 1);
        let warm = restored.cost(&b, &grouped, &d);
        assert_eq!(warm.0.to_bits(), orig.0.to_bits());
        assert_eq!(warm.1.to_bits(), orig.1.to_bits());
        assert_eq!(restored.stats().hits, 1);
    }

    /// The persisted bytes of a bounded cache after a fixed sweep, pinned
    /// to the digest the per-memo scan implementation produced before the
    /// shared table replaced it: same membership, same order, same bytes.
    #[test]
    fn bounded_persist_bytes_are_pinned() {
        let cache = LatencyCache::new();
        cache.set_max_entries_per_shard(3);
        let backends: [&dyn ConvBackend; 2] = [&AclGemm::new(), &Cudnn::new()];
        for backend in backends {
            for device in [Device::mali_g72_hikey970(), Device::jetson_tx2()] {
                for c in 1..=64usize {
                    cache.cost(backend, &l16().with_c_out(c).unwrap(), &device);
                }
            }
        }
        assert_eq!(cache.len(), 48);
        assert_eq!(cache.stats().evictions, 76);
        assert_eq!(fnv1a(cache.persist().as_bytes()), 0xc68d_01d4_bf3b_379e);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;
        use pruneperf_backends::all_backends;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Satellite 4: the incremental sweep path is bitwise identical
            /// to the cold path over seeded (layer, device, c_out-range)
            /// samples, and repeat queries are stable hits.
            #[test]
            fn incremental_sweep_matches_cold_bitwise(
                layer_idx in 0usize..53,
                device_idx in 0usize..4,
                backend_idx in 0usize..4,
                lo in 1usize..120,
                span in 0usize..8,
            ) {
                let net = resnet50();
                let layer = &net.layers()[layer_idx % net.layers().len()];
                let devices = Device::all_paper_devices();
                let device = &devices[device_idx % devices.len()];
                let backends = all_backends();
                let backend = backends[backend_idx % backends.len()].as_ref();
                let cache = LatencyCache::new();
                for c in lo..=lo + span {
                    let c = c.clamp(1, layer.c_out());
                    let pruned = layer.with_c_out(c).unwrap();
                    let cold = backend.cost(&pruned, device);
                    let warm = cache.cost(backend, &pruned, device);
                    prop_assert_eq!(warm.0.to_bits(), cold.0.to_bits());
                    prop_assert_eq!(warm.1.to_bits(), cold.1.to_bits());
                    let hit = cache.cost(backend, &pruned, device);
                    prop_assert_eq!(hit, warm);
                }
                prop_assert_eq!(cache.engine_stats().engine_runs, 0);
            }
        }
    }
}
