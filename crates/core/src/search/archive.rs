//! Non-dominated archive over the three pruning objectives.
//!
//! Generalizes the 2-D [`crate::pareto_front`] helper: where that function
//! filters a finished `(latency, accuracy)` slice, [`ParetoArchive`]
//! maintains the 3-D `(latency_ms, energy_mj, accuracy)` front *online*
//! while a search streams candidates in, and accounts for every insertion
//! so tests can prove conservation:
//!
//! ```text
//! inserted == archived + dominated + duplicates
//! ```
//!
//! The archived front has a canonical order (latency ascending, then
//! energy ascending, then accuracy descending, each by `f64::total_cmp`)
//! that does not depend on insertion order, and duplicate objective points
//! deterministically keep the smallest payload — so the archive's final
//! state is invariant under any permutation of the same insertions. (How
//! a rejected point is *classified* — dominated vs duplicate — can depend
//! on arrival order; the conservation sum and the final front never do.)
//!
//! The front is *stored* in descending canonical order, so the ever
//! faster points a search streams in land at the end of the `Vec`, and an
//! offer touches only the entries that can matter:
//!
//! - a duplicate is found by binary search;
//! - a dominator must be no slower than the newcomer, so it is sought in
//!   the suffix of entries whose latency is `<=` the newcomer's;
//! - a victim must be no faster, so it is sought in the prefix whose
//!   latency is `>=` the newcomer's, skipping every [`BLOCK`]-entry block
//!   whose cached minimum accuracy is above the newcomer's.
//!
//! The scan bounds compare latencies as floats, like
//! [`ParetoPoint::dominates`], so `-0.0` and `+0.0` fall on both sides.

use std::cmp::Ordering;

/// Entries per block of the archive's cached accuracy minimums.
const BLOCK: usize = 32;

/// A point in objective space: minimize latency and energy, maximize
/// accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// End-to-end network latency, ms.
    pub latency_ms: f64,
    /// End-to-end energy estimate, mJ.
    pub energy_mj: f64,
    /// Estimated accuracy in `[0, 1]`.
    pub accuracy: f64,
}

impl ParetoPoint {
    /// `true` when `self` is no worse than `other` on every objective and
    /// strictly better on at least one.
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        let no_worse = self.latency_ms <= other.latency_ms
            && self.energy_mj <= other.energy_mj
            && self.accuracy >= other.accuracy;
        let strictly_better = self.latency_ms < other.latency_ms
            || self.energy_mj < other.energy_mj
            || self.accuracy > other.accuracy;
        no_worse && strictly_better
    }

    /// Canonical archive order: latency asc, energy asc, accuracy desc.
    /// `Equal` exactly when the two triples are bit-for-bit the same.
    fn canonical_cmp(&self, other: &ParetoPoint) -> Ordering {
        self.latency_ms
            .total_cmp(&other.latency_ms)
            .then(self.energy_mj.total_cmp(&other.energy_mj))
            .then(other.accuracy.total_cmp(&self.accuracy))
    }
}

/// An online non-dominated archive with per-insertion accounting.
///
/// `T` is the payload carried with each point (a genome, a plan id, …);
/// its `Ord` breaks ties between duplicate objective points (smallest
/// payload wins), which is what makes the archive permutation-invariant.
#[derive(Debug, Clone, Default)]
pub struct ParetoArchive<T> {
    /// The front in descending canonical order.
    entries: Vec<(ParetoPoint, T)>,
    /// `block_min_accuracy[b]` is the lowest accuracy in
    /// `entries[b * BLOCK..(b + 1) * BLOCK]`.
    block_min_accuracy: Vec<f64>,
    inserted: u64,
    dominated: u64,
    duplicates: u64,
}

impl<T: Ord> ParetoArchive<T> {
    /// An empty archive.
    pub fn new() -> Self {
        ParetoArchive {
            entries: Vec::new(),
            block_min_accuracy: Vec::new(),
            inserted: 0,
            dominated: 0,
            duplicates: 0,
        }
    }

    /// Offers a point to the archive. Returns `true` when the point is on
    /// the current front afterwards (inserted, or an exact duplicate of a
    /// front point).
    ///
    /// Displaced entries — previously archived points now dominated by
    /// `point` — move to the dominated count, preserving the conservation
    /// identity.
    ///
    /// # Panics
    ///
    /// Panics if any objective is non-finite; search evaluation never
    /// produces NaN/inf and admitting one would poison `dominates`.
    pub fn offer(&mut self, point: ParetoPoint, payload: T) -> bool {
        assert!(
            point.latency_ms.is_finite()
                && point.energy_mj.is_finite()
                && point.accuracy.is_finite(),
            "archive points must be finite"
        );
        self.inserted += 1;

        // Exact duplicate: keep the smaller payload, count the loser.
        if let Ok(slot) = self
            .entries
            .binary_search_by(|(p, _)| point.canonical_cmp(p))
        {
            self.duplicates += 1;
            if payload < self.entries[slot].1 {
                self.entries[slot].1 = payload;
            }
            return true;
        }

        let no_slower = self
            .entries
            .partition_point(|(p, _)| p.latency_ms > point.latency_ms);
        if self.entries[no_slower..]
            .iter()
            .any(|(p, _)| p.dominates(&point))
        {
            self.dominated += 1;
            return false;
        }

        // The newcomer is on the front: retire everything it dominates,
        // compacting from the first victim on.
        let first_victim = self.first_victim(&point);
        if let Some(first) = first_victim {
            let mut kept = first;
            for i in first..self.entries.len() {
                if !point.dominates(&self.entries[i].0) {
                    self.entries.swap(kept, i);
                    kept += 1;
                }
            }
            self.dominated += (self.entries.len() - kept) as u64;
            self.entries.truncate(kept);
        }

        let at = self
            .entries
            .partition_point(|(p, _)| p.canonical_cmp(&point) == Ordering::Greater);
        self.entries.insert(at, (point, payload));
        self.refresh_blocks(first_victim.map_or(at, |first| first.min(at)));
        true
    }

    /// Index of the first entry `point` dominates, if any.
    fn first_victim(&self, point: &ParetoPoint) -> Option<usize> {
        let no_faster = self
            .entries
            .partition_point(|(p, _)| p.latency_ms >= point.latency_ms);
        (0..no_faster)
            .step_by(BLOCK)
            .filter(|&start| self.block_min_accuracy[start / BLOCK] <= point.accuracy)
            .find_map(|start| {
                (start..no_faster.min(start + BLOCK)).find(|&i| point.dominates(&self.entries[i].0))
            })
    }

    /// Recomputes the accuracy minimum of every block from the one
    /// holding `entries[from]` to the end.
    fn refresh_blocks(&mut self, from: usize) {
        let first_block = from / BLOCK;
        self.block_min_accuracy.truncate(first_block);
        let minimums = self.entries[first_block * BLOCK..]
            .chunks(BLOCK)
            .map(|block| {
                block
                    .iter()
                    .map(|(p, _)| p.accuracy)
                    .fold(f64::INFINITY, f64::min)
            });
        self.block_min_accuracy.extend(minimums);
    }

    /// The archived front in ascending canonical order.
    pub fn entries(
        &self,
    ) -> impl DoubleEndedIterator<Item = &(ParetoPoint, T)> + ExactSizeIterator {
        self.entries.iter().rev()
    }

    /// The archived front in ascending canonical order, by value.
    pub fn into_entries(self) -> impl DoubleEndedIterator<Item = (ParetoPoint, T)> {
        self.entries.into_iter().rev()
    }

    /// Number of points currently archived.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been archived.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total points offered via [`ParetoArchive::offer`].
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Points rejected or displaced because something dominates them.
    pub fn dominated(&self) -> u64 {
        self.dominated
    }

    /// Points whose exact objective triple was already archived.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(l: f64, e: f64, a: f64) -> ParetoPoint {
        ParetoPoint {
            latency_ms: l,
            energy_mj: e,
            accuracy: a,
        }
    }

    #[test]
    fn dominated_points_never_surface() {
        let mut ar = ParetoArchive::new();
        assert!(ar.offer(pt(10.0, 5.0, 0.9), 1u32));
        assert!(!ar.offer(pt(11.0, 6.0, 0.8), 2)); // worse everywhere
        assert!(ar.offer(pt(9.0, 7.0, 0.95), 3)); // trade-off survives
        assert_eq!(ar.len(), 2);
        assert_eq!(ar.dominated(), 1);
        assert_eq!(ar.inserted(), 3);
    }

    #[test]
    fn newcomer_displaces_dominated_entries() {
        let mut ar = ParetoArchive::new();
        ar.offer(pt(10.0, 5.0, 0.9), 1u32);
        ar.offer(pt(12.0, 5.0, 0.95), 2);
        // Dominates the first, trade-off with the second.
        assert!(ar.offer(pt(9.0, 4.0, 0.92), 3));
        assert_eq!(ar.len(), 2);
        assert_eq!(ar.dominated(), 1);
        assert_eq!(
            ar.inserted(),
            ar.len() as u64 + ar.dominated() + ar.duplicates()
        );
    }

    #[test]
    fn duplicates_keep_the_smallest_payload() {
        let mut a = ParetoArchive::new();
        a.offer(pt(10.0, 5.0, 0.9), 7u32);
        a.offer(pt(10.0, 5.0, 0.9), 3);
        let mut b = ParetoArchive::new();
        b.offer(pt(10.0, 5.0, 0.9), 3u32);
        b.offer(pt(10.0, 5.0, 0.9), 7);
        assert!(a.entries().eq(b.entries()));
        assert_eq!(a.entries().next().unwrap().1, 3);
        assert_eq!(a.duplicates(), 1);
    }

    #[test]
    fn canonical_order_is_latency_then_energy_then_accuracy() {
        let mut ar = ParetoArchive::new();
        ar.offer(pt(10.0, 9.0, 0.80), 0u32);
        ar.offer(pt(5.0, 2.0, 0.70), 1);
        ar.offer(pt(5.0, 1.0, 0.60), 2);
        let pts: Vec<_> = ar.entries().map(|(p, _)| *p).collect();
        assert_eq!(
            pts,
            vec![pt(5.0, 1.0, 0.60), pt(5.0, 2.0, 0.70), pt(10.0, 9.0, 0.80)]
        );
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_points_are_rejected() {
        let mut ar = ParetoArchive::new();
        ar.offer(pt(f64::NAN, 1.0, 0.5), 0u32);
    }
}
