//! Worker-thread fan-out for embarrassingly parallel sweeps.
//!
//! The repo's workloads — channel staircases, speedup heatmaps, the 33
//! repro experiments — are pure functions of their inputs, so they
//! parallelize by index: fan the items out to a worker pool, collect each
//! result into its input's slot, and the output order (and therefore every
//! rendered table, figure and JSON file) is byte-identical to a sequential
//! run regardless of scheduling.
//!
//! The worker count is a process-wide knob: binaries set it once from
//! `--jobs` / `PRUNEPERF_JOBS` via [`set_sweep_jobs`], and every
//! [`crate::LayerProfiler::latency_curve`] sweep picks it up without API
//! changes in between.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::stats::Stats;

/// Environment variable overriding the default worker count.
pub const JOBS_ENV: &str = "PRUNEPERF_JOBS";

/// Process-wide sweep worker count; 0 means "not set" (sequential).
static SWEEP_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Resolves a worker count from an explicit `--jobs` value, falling back to
/// the `PRUNEPERF_JOBS` environment variable, then to all available cores.
///
/// Zero or unparsable values mean "pick for me" and resolve to the number
/// of available cores.
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    explicit
        .or_else(|| std::env::var(JOBS_ENV).ok().and_then(|v| v.parse().ok()))
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Sets the process-wide worker count used by in-experiment sweeps.
pub fn set_sweep_jobs(jobs: usize) {
    SWEEP_JOBS.store(jobs.max(1), Ordering::Relaxed);
}

/// The process-wide worker count; 1 (sequential) until a binary opts in.
pub fn sweep_jobs() -> usize {
    match SWEEP_JOBS.load(Ordering::Relaxed) {
        0 => 1,
        n => n,
    }
}

/// A worker panic contained by [`contained_parallel_map`]: which input
/// item unwound, and the stringified panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPanic {
    /// Index of the item whose closure panicked.
    pub index: usize,
    /// The panic payload, rendered to text.
    pub message: String,
}

impl fmt::Display for SweepPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "item {} panicked: {}", self.index, self.message)
    }
}

/// Renders a caught panic payload; payloads are `&str` or `String` for
/// every `panic!`/`assert!` form, anything else gets a placeholder.
fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Maps `f` over `items` on `jobs` worker threads with per-item panic
/// containment, returning results in input order.
///
/// A panicking item never takes the sweep down: the unwind is caught at
/// the item boundary, the worker moves on to the next index, and the
/// item's slot stays `None`. The second component lists every contained
/// panic in increasing item order — so callers can report *which* inputs
/// failed while all survivors land in their input-ordered slots exactly as
/// in [`ordered_parallel_map`].
pub fn contained_parallel_map<T, R, F>(
    items: &[T],
    jobs: usize,
    f: F,
) -> (Vec<Option<R>>, Vec<SweepPanic>)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    contained_parallel_map_with_stats(items, jobs, Stats::global(), f)
}

/// [`contained_parallel_map`] recording sweep throughput into `stats`.
///
/// Each worker tallies its claimed items and contained panics locally and
/// flushes once on exit, so instrumentation adds two atomic adds and one
/// short lock per worker per sweep — nothing per item. The plain entry
/// points delegate here with [`Stats::global`].
pub fn contained_parallel_map_with_stats<T, R, F>(
    items: &[T],
    jobs: usize,
    stats: &Stats,
    f: F,
) -> (Vec<Option<R>>, Vec<SweepPanic>)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // `f` only borrows the item and the caller observes either a result or
    // a contained panic per slot, so broken invariants cannot leak —
    // asserting unwind safety is sound here.
    let run_one = |i: usize, item: &T| -> Result<R, SweepPanic> {
        catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| SweepPanic {
            index: i,
            message: payload_message(payload),
        })
    };
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 {
        let mut slots = Vec::with_capacity(items.len());
        let mut panics = Vec::new();
        for (i, item) in items.iter().enumerate() {
            match run_one(i, item) {
                Ok(r) => slots.push(Some(r)),
                Err(p) => {
                    slots.push(None);
                    panics.push(p);
                }
            }
        }
        stats.record_sweep(0, items.len() as u64, panics.len() as u64);
        return (slots, panics);
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(items.len(), || None);
    let mut panics: Vec<SweepPanic> = Vec::new();
    std::thread::scope(|scope| {
        let next = &next;
        let run_one = &run_one;
        let handles: Vec<_> = (0..jobs)
            .map(|worker| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut caught = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        match run_one(i, item) {
                            Ok(r) => out.push((i, r)),
                            Err(p) => caught.push(p),
                        }
                    }
                    stats.record_sweep(
                        worker,
                        (out.len() + caught.len()) as u64,
                        caught.len() as u64,
                    );
                    (out, caught)
                })
            })
            .collect();
        for handle in handles {
            // Worker closures contain every item panic via catch_unwind,
            // so the thread itself cannot unwind.
            #[expect(clippy::expect_used, reason = "join only fails if the worker panicked")]
            let (out, caught) = handle.join().expect("contained sweep worker cannot panic");
            for (i, r) in out {
                slots[i] = Some(r);
            }
            panics.extend(caught);
        }
    });
    // Workers surface their catches in claim order; sort so the report is
    // scheduling-independent.
    panics.sort_by_key(|p| p.index);
    (slots, panics)
}

/// Maps `f` over `items` on `jobs` worker threads, returning results in
/// input order.
///
/// Workers claim indices from a shared atomic counter (cheap dynamic load
/// balancing — sweep items vary wildly in cost) and deposit each result in
/// its item's slot, so the output is identical to `items.iter().map(f)` no
/// matter how the items interleave across threads.
///
/// # Panics
///
/// If `f` panics for some item, every *other* item still completes, and
/// the sweep then re-panics with the lowest failing item index and the
/// original payload text — never the opaque "a scoped thread panicked"
/// abort of a bare join. Callers that need to survive item panics use
/// [`contained_parallel_map`] directly.
pub fn ordered_parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    ordered_parallel_map_with_stats(items, jobs, Stats::global(), f)
}

/// [`ordered_parallel_map`] recording sweep throughput into `stats`.
///
/// # Panics
///
/// Propagates item panics exactly like [`ordered_parallel_map`].
#[expect(
    clippy::expect_used,
    reason = "no panics were caught, so every slot filled"
)]
pub fn ordered_parallel_map_with_stats<T, R, F>(
    items: &[T],
    jobs: usize,
    stats: &Stats,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let (slots, panics) = contained_parallel_map_with_stats(items, jobs, stats, f);
    #[expect(
        clippy::panic,
        reason = "re-raises a worker panic by contract; fallible-path closures return Result and do not panic"
    )]
    if let Some(p) = panics.first() {
        panic!(
            "sweep worker panicked on item {} of {}: {}",
            p.index,
            items.len(),
            p.message
        );
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let sequential: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for jobs in [1, 2, 3, 8, 200] {
            assert_eq!(ordered_parallel_map(&items, jobs, |&x| x * x), sequential);
        }
        assert_eq!(ordered_parallel_map(&[] as &[usize], 4, |&x| x), vec![]);
    }

    #[test]
    fn uneven_work_still_lands_in_order() {
        let items: Vec<u64> = (0..32).collect();
        let out = ordered_parallel_map(&items, 4, |&x| {
            // Early indices sleep longest, so late indices finish first.
            std::thread::sleep(std::time::Duration::from_micros((32 - x) * 50));
            x * 2
        });
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    /// The regression the fault harness flushed out: a panicking closure
    /// used to abort the whole sweep through an opaque `join().unwrap()`.
    /// Now the panic is contained, the error names the failing item index,
    /// and every survivor still lands in input order — at jobs=1 (the
    /// sequential fast path) and jobs=8 alike.
    #[test]
    fn worker_panic_is_contained_and_indexed() {
        let items: Vec<usize> = (0..64).collect();
        for jobs in [1usize, 8] {
            let (slots, panics) = contained_parallel_map(&items, jobs, |&x| {
                assert!(x != 13 && x != 40, "deliberate failure on {x}");
                x * 3
            });
            assert_eq!(slots.len(), 64, "jobs={jobs}");
            let indices: Vec<usize> = panics.iter().map(|p| p.index).collect();
            assert_eq!(indices, [13, 40], "jobs={jobs}");
            for p in &panics {
                assert!(
                    p.message.contains("deliberate failure"),
                    "jobs={jobs}: {p:?}"
                );
            }
            for (i, slot) in slots.iter().enumerate() {
                if i == 13 || i == 40 {
                    assert_eq!(slot, &None, "jobs={jobs}");
                } else {
                    assert_eq!(slot, &Some(i * 3), "jobs={jobs} item {i}");
                }
            }
        }
    }

    #[test]
    fn ordered_map_repanics_with_the_item_index() {
        for jobs in [1usize, 8] {
            let items: Vec<usize> = (0..32).collect();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                ordered_parallel_map(&items, jobs, |&x| {
                    assert!(x != 21, "item {x} is bad");
                    x
                })
            }));
            let msg = payload_message(caught.expect_err("must propagate"));
            assert!(
                msg.contains("item 21 of 32") && msg.contains("item 21 is bad"),
                "jobs={jobs}: {msg}"
            );
        }
    }

    #[test]
    fn contained_map_handles_empty_and_all_panicking_inputs() {
        let (slots, panics) = contained_parallel_map(&[] as &[usize], 4, |&x| x);
        assert!(slots.is_empty() && panics.is_empty());
        let items = [1usize, 2, 3];
        let (slots, panics) =
            contained_parallel_map(&items, 8, |_| -> usize { panic!("all fail") });
        assert_eq!(slots, vec![None, None, None]);
        assert_eq!(panics.len(), 3);
        assert_eq!(
            panics.iter().map(|p| p.index).collect::<Vec<_>>(),
            [0, 1, 2]
        );
    }

    #[test]
    fn sweep_stats_record_items_and_panics_at_any_jobs() {
        for jobs in [1usize, 8] {
            let stats = Stats::new();
            let items: Vec<usize> = (0..40).collect();
            let (_, panics) = contained_parallel_map_with_stats(&items, jobs, &stats, |&x| {
                assert!(x != 7, "boom {x}");
                x
            });
            assert_eq!(panics.len(), 1, "jobs={jobs}");
            assert_eq!(stats.sweep_items(), 40, "jobs={jobs}");
            assert_eq!(stats.sweep_panics(), 1, "jobs={jobs}");
            // The worker split varies with scheduling; its sum never does.
            let sum: u64 = stats.worker_items().iter().map(|&(_, n)| n).sum();
            assert_eq!(sum, stats.sweep_items(), "jobs={jobs}");
        }
    }

    /// Satellite (PR 5): zero-item input is a no-op at every worker count —
    /// no slots, no panics, no stats, and no stuck worker threads.
    #[test]
    fn zero_item_input_yields_empty_results_and_zero_stats() {
        for jobs in [1usize, 8] {
            let stats = Stats::new();
            let out = ordered_parallel_map_with_stats(&[] as &[usize], jobs, &stats, |&x| x);
            assert!(out.is_empty(), "jobs={jobs}");
            let (slots, panics) =
                contained_parallel_map_with_stats(&[] as &[usize], jobs, &stats, |&x| x);
            assert!(slots.is_empty() && panics.is_empty(), "jobs={jobs}");
            assert_eq!(stats.sweep_items(), 0, "jobs={jobs}");
            assert_eq!(stats.sweep_panics(), 0, "jobs={jobs}");
            assert!(stats.worker_items().is_empty(), "jobs={jobs}");
        }
    }

    #[test]
    fn sweep_panic_displays_index_and_payload() {
        let p = SweepPanic {
            index: 7,
            message: "boom".into(),
        };
        assert_eq!(p.to_string(), "item 7 panicked: boom");
    }

    #[test]
    fn explicit_jobs_beats_env_and_cores() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(resolve_jobs(None) >= 1);
        // Zero means "pick for me".
        assert!(resolve_jobs(Some(0)) >= 1);
    }

    #[test]
    fn sweep_jobs_defaults_to_sequential() {
        // Other tests may have set the knob; only assert the floor.
        assert!(sweep_jobs() >= 1);
        set_sweep_jobs(0);
        assert_eq!(sweep_jobs(), 1);
    }
}
