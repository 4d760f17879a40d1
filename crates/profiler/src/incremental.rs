//! Incremental simulation: per-(kernel, device) engine-cost memoization.
//!
//! A channel sweep re-plans a layer at every `c_out`, but most of the plan
//! does not change: the im2col kernel depends only on the input geometry,
//! the interleave/reshape stages are constant in `c_out`, and on many
//! backends adjacent channel counts even share GEMM tile shapes. The cold
//! path re-derives every per-workgroup cost from scratch anyway.
//!
//! [`KernelMemo`] memoizes [`Engine::kernel_cost`] keyed by (device name,
//! cost-relevant kernel descriptor), so a sweep only re-derives the parts
//! that actually change with `c_out`. Because the memo stores the exact
//! [`KernelCost`] the engine produced and
//! [`Engine::chain_cost_by`] accumulates in `run_chain` order, assembling
//! a chain from memoized costs is **bitwise identical** to a cold
//! simulation — the memo is invisible to every virtual metric.
//!
//! The memo stores its entries in the same [`crate::table::ShardedTable`]
//! as the layer cache, so it shares that cache's hash lookup, its opt-in
//! admit-if-smaller bound and the bounded-only ordered index; only the
//! key type ([`KernelDesc::cost_equivalent`] identity, device / cost
//! digest / name order) is its own.
//!
//! # Counter discipline
//!
//! Like the layer cache, counters must be a pure function of the query
//! multiset, independent of thread schedule. `kernel_evals` is classified
//! at insert time: of all racing evaluators of one fresh kernel shape,
//! exactly one (the insert winner) counts. Lookup/hit totals for the memo
//! are *not* counted here per probe — racing duplicate layer-cache misses
//! would probe a schedule-dependent number of times — but derived by the
//! owning [`crate::LatencyCache`] from its own schedule-independent
//! assembly counts (see [`EngineStats::kernel_memo_hits`]).

use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicU64, Ordering};

use pruneperf_backends::hash::fnv1a;
use pruneperf_gpusim::{Engine, KernelCost, KernelDesc};

use crate::cache::splitmix;
use crate::table::{Admission, ShardedTable, TableKey};

/// One memo key: a kernel shape on a device. Matching uses
/// [`KernelDesc::cost_equivalent`], so kernels that differ only in name
/// or footprint share an entry.
#[derive(Debug, Clone)]
struct MemoKey {
    device: String,
    kernel: KernelDesc,
}

impl MemoKey {
    fn matches(&self, device: &str, kernel: &KernelDesc) -> bool {
        self.device == device && self.kernel.cost_equivalent(kernel)
    }
}

impl PartialEq for MemoKey {
    fn eq(&self, other: &MemoKey) -> bool {
        self.matches(&other.device, &other.kernel)
    }
}

impl TableKey for MemoKey {
    /// Mirrors the layer cache's structural order: device, then the
    /// kernel's cost digest, then its name.
    fn order_cmp(&self, other: &MemoKey) -> CmpOrdering {
        self.device
            .cmp(&other.device)
            .then_with(|| self.kernel.cost_digest().cmp(&other.kernel.cost_digest()))
            .then_with(|| self.kernel.name().cmp(other.kernel.name()))
    }
}

/// A sharded, thread-safe memo table over [`Engine::kernel_cost`].
///
/// Owned by [`crate::LatencyCache`]; not exposed directly — every consumer
/// reaches it through the cache's incremental assembly path.
#[derive(Debug)]
pub(crate) struct KernelMemo {
    /// Entries, bounded alongside the owning cache by
    /// [`crate::LatencyCache::set_max_entries_per_shard`] (same
    /// admit-if-smaller policy, `0` = unbounded).
    table: ShardedTable<MemoKey, KernelCost>,
    /// Unique kernel shapes evaluated (insert winners only — see the
    /// module docs for why this is schedule-independent).
    evals: AtomicU64,
}

impl KernelMemo {
    /// An empty memo.
    pub(crate) fn new() -> Self {
        KernelMemo {
            table: ShardedTable::new(),
            evals: AtomicU64::new(0),
        }
    }

    /// Bounds every shard to at most `cap` entries (`0` = unbounded),
    /// trimming immediately when shrinking below current occupancy.
    pub(crate) fn set_max_entries_per_shard(&self, cap: usize) {
        self.table.set_cap(cap);
    }

    /// Memoized engine cost of `kernel` on `engine`'s device.
    ///
    /// On a miss the evaluation runs outside the shard lock; racing
    /// threads may both evaluate, but [`Engine::kernel_cost`] is
    /// deterministic, so whichever insert lands is indistinguishable.
    pub(crate) fn cost(&self, engine: &Engine<'_>, kernel: &KernelDesc) -> KernelCost {
        let device = engine.device().name();
        let digest = splitmix(fnv1a(device.as_bytes()) ^ kernel.cost_digest());
        if let Some(cost) = self.table.probe(digest, |k| k.matches(device, kernel)) {
            return cost;
        }
        let computed = engine.kernel_cost(kernel);
        let key = MemoKey {
            device: device.to_string(),
            kernel: kernel.clone(),
        };
        let admission = self.table.admit(digest, key, computed);
        if matches!(admission, Admission::Admitted { .. }) {
            self.evals.fetch_add(1, Ordering::Relaxed);
        }
        computed
    }

    /// Unique kernel shapes evaluated so far.
    pub(crate) fn evals(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }

    /// Unique (device, kernel shape) entries currently stored.
    pub(crate) fn entries(&self) -> usize {
        self.table.len()
    }

    /// Drops every entry and resets the eval counter.
    pub(crate) fn clear(&self) {
        self.table.clear();
        self.evals.store(0, Ordering::Relaxed);
    }
}

/// Deterministic engine-activity counters: how much full simulation the
/// incremental path avoided.
///
/// All fields are pure functions of the query multiset — independent of
/// worker count and thread schedule — so they can appear in byte-compared
/// stats and bench output. Snapshot via
/// [`crate::LatencyCache::engine_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Layer costs assembled incrementally from memoized kernel costs
    /// (the cache's infallible miss path). Before the incremental path
    /// existed, each of these was a full cold engine invocation.
    pub chains_assembled: u64,
    /// Full cold simulations actually performed: fallible-path misses
    /// that evaluated `ConvBackend::try_cost` and populated the cache.
    pub engine_runs: u64,
    /// Per-kernel cost queries issued by incremental assemblies
    /// (sum of chain lengths over `chains_assembled`).
    pub kernel_lookups: u64,
    /// Unique kernel shapes the engine actually evaluated for the memo.
    pub kernel_evals: u64,
    /// Unique (device, kernel shape) entries currently memoized.
    pub memo_entries: usize,
}

impl EngineStats {
    /// Kernel-cost queries answered without touching the engine.
    pub fn kernel_memo_hits(&self) -> u64 {
        self.kernel_lookups.saturating_sub(self.kernel_evals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruneperf_gpusim::Device;

    fn kernel(name: &str, items: usize, arith: u64) -> KernelDesc {
        KernelDesc::builder(name)
            .global([items, 1, 1])
            .local([4, 1, 1])
            .arith_per_item(arith)
            .build()
    }

    #[test]
    fn memoized_costs_are_bitwise_identical_to_cold() {
        let d = Device::mali_g72_hikey970();
        let e = Engine::new(&d);
        let memo = KernelMemo::new();
        let k = kernel("gemm_mm", 4096, 1234);
        let cold = e.kernel_cost(&k);
        let miss = memo.cost(&e, &k);
        let hit = memo.cost(&e, &k);
        assert_eq!(miss, cold);
        assert_eq!(hit, cold);
        assert_eq!(memo.evals(), 1);
        assert_eq!(memo.entries(), 1);
    }

    #[test]
    fn name_changes_share_entries_but_devices_do_not() {
        let mali = Device::mali_g72_hikey970();
        let tx2 = Device::jetson_tx2();
        let memo = KernelMemo::new();
        let a = kernel("a", 4096, 10);
        let b = kernel("b", 4096, 10); // cost-equivalent, different name
        memo.cost(&Engine::new(&mali), &a);
        memo.cost(&Engine::new(&mali), &b);
        assert_eq!(memo.entries(), 1, "cost-equivalent kernels share");
        memo.cost(&Engine::new(&tx2), &a);
        assert_eq!(memo.entries(), 2, "devices never share");
        assert_eq!(memo.evals(), 2);
    }

    #[test]
    fn concurrent_misses_count_one_eval() {
        let d = Device::mali_g72_hikey970();
        let memo = KernelMemo::new();
        let k = kernel("k", 2048, 77);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let e = Engine::new(&d);
                    for _ in 0..8 {
                        memo.cost(&e, &k);
                    }
                });
            }
        });
        assert_eq!(memo.evals(), 1);
        assert_eq!(memo.entries(), 1);
    }

    #[test]
    fn clear_resets_entries_and_evals() {
        let d = Device::jetson_nano();
        let e = Engine::new(&d);
        let memo = KernelMemo::new();
        memo.cost(&e, &kernel("k", 64, 5));
        memo.clear();
        assert_eq!(memo.entries(), 0);
        assert_eq!(memo.evals(), 0);
    }

    #[test]
    fn engine_stats_derive_memo_hits() {
        let s = EngineStats {
            chains_assembled: 69,
            engine_runs: 0,
            kernel_lookups: 241,
            kernel_evals: 19,
            memo_entries: 19,
        };
        assert_eq!(s.kernel_memo_hits(), 222);
        assert_eq!(EngineStats::default().kernel_memo_hits(), 0);
    }
}
