//! Property-based invariants of the staircase analysis, Pareto utilities
//! (both the 2-D `pareto_front` and the 3-D `ParetoArchive`) and heatmap
//! construction, plus a seeded differential test of `ParetoArchive`
//! against a linear-scan oracle.

use std::cmp::Ordering;

use proptest::prelude::*;
use pruneperf_core::search::{ParetoArchive, ParetoPoint};
use pruneperf_core::{pareto_front, Staircase};
use pruneperf_profiler::{CurvePoint, LatencyCurve, Measurement};

/// Continuous objective triples — collisions essentially never happen.
fn point_strategy() -> impl Strategy<Value = (f64, f64, f64)> {
    (0.1f64..100.0, 0.1f64..50.0, 0.0f64..1.0)
}

/// Coarse grid triples — duplicates and dominations are plentiful, which
/// is what exercises the tie/conservation accounting.
fn grid_point_strategy() -> impl Strategy<Value = (f64, f64, f64)> {
    (0u8..5, 0u8..5, 0u8..5).prop_map(|(l, e, a)| (l as f64 + 1.0, e as f64 + 1.0, a as f64 / 4.0))
}

fn pt(t: (f64, f64, f64)) -> ParetoPoint {
    ParetoPoint {
        latency_ms: t.0,
        energy_mj: t.1,
        accuracy: t.2,
    }
}

/// Inserts `(payload, triple)` pairs and returns the archive.
fn archive_of(pairs: &[(usize, (f64, f64, f64))]) -> ParetoArchive<usize> {
    let mut archive = ParetoArchive::new();
    for &(payload, triple) in pairs {
        archive.offer(pt(triple), payload);
    }
    archive
}

fn entry_bits(archive: &ParetoArchive<usize>) -> Vec<(u64, u64, u64, usize)> {
    archive
        .entries()
        .map(|(p, t)| {
            (
                p.latency_ms.to_bits(),
                p.energy_mj.to_bits(),
                p.accuracy.to_bits(),
                *t,
            )
        })
        .collect()
}

/// Seeded Fisher–Yates via a splitmix-style hash (the vendored proptest
/// has no `prop_shuffle`).
fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    let mut state = seed;
    for i in (1..out.len()).rev() {
        state = state
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        out.swap(i, (state % (i as u64 + 1)) as usize);
    }
    out
}

/// A linear-scan archive: every offer scans the whole front, kept in
/// ascending canonical order. The oracle for `ParetoArchive`'s binary
/// search, scan bounds and block minimums.
#[derive(Default)]
struct LinearArchive {
    entries: Vec<(ParetoPoint, usize)>,
    dominated: u64,
    duplicates: u64,
}

impl LinearArchive {
    fn canonical_cmp(a: &ParetoPoint, b: &ParetoPoint) -> Ordering {
        a.latency_ms
            .total_cmp(&b.latency_ms)
            .then(a.energy_mj.total_cmp(&b.energy_mj))
            .then(b.accuracy.total_cmp(&a.accuracy))
    }

    fn offer(&mut self, point: ParetoPoint, payload: usize) -> bool {
        let same = |p: &ParetoPoint| Self::canonical_cmp(p, &point) == Ordering::Equal;
        if let Some(slot) = self.entries.iter().position(|(p, _)| same(p)) {
            self.duplicates += 1;
            if payload < self.entries[slot].1 {
                self.entries[slot].1 = payload;
            }
            return true;
        }
        if self.entries.iter().any(|(p, _)| p.dominates(&point)) {
            self.dominated += 1;
            return false;
        }
        let before = self.entries.len();
        self.entries.retain(|(p, _)| !point.dominates(p));
        self.dominated += (before - self.entries.len()) as u64;
        let at = self
            .entries
            .partition_point(|(p, t)| match Self::canonical_cmp(p, &point) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => *t < payload,
            });
        self.entries.insert(at, (point, payload));
        true
    }
}

/// A splitmix64 stream for the oracle test's offer streams.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// `true` with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        (self.unit() + 1.0) / 2.0 < p
    }
}

/// `x` rounded to a multiple of `step`, keeping the sign of a zero.
fn quantize(x: f64, step: f64) -> f64 {
    let q = (x / step).round() * step;
    if q == 0.0 {
        0.0f64.copysign(x)
    } else {
        q
    }
}

/// Offer `k` of a stream shaped like the beam's: latency and accuracy
/// fall together as the search prunes, energy tracks latency, all with
/// noise. `quantum` rounds every objective to force ties and duplicates;
/// `zeros` replaces some latencies (and energies) with `±0.0`.
fn beam_like_offer(rng: &mut Stream, k: usize, n: usize, quantum: f64, zeros: bool) -> ParetoPoint {
    let progress = k as f64 / n as f64 + 0.05 * rng.unit();
    let mut latency_ms = 100.0 * (1.0 - 0.8 * progress) * (1.0 + 0.04 * rng.unit());
    let mut energy_mj = latency_ms * 1.4 * (1.0 + 0.08 * rng.unit());
    let mut accuracy = 0.76 - 0.3 * progress.clamp(0.0, 1.0).powf(1.6) + 0.01 * rng.unit();
    if quantum > 0.0 {
        latency_ms = quantize(latency_ms, quantum);
        energy_mj = quantize(energy_mj, 2.0 * quantum);
        accuracy = quantize(accuracy, quantum / 100.0);
    }
    if zeros && rng.chance(0.03) {
        let sign = if rng.chance(0.5) { -1.0 } else { 1.0 };
        latency_ms = 0.0f64.copysign(sign);
        if rng.chance(0.5) {
            energy_mj = 0.0f64.copysign(-sign);
        }
        accuracy = quantize(0.05 * (rng.unit() + 1.0), 0.01);
    }
    pt((latency_ms, energy_mj, accuracy))
}

/// `ParetoArchive` agrees with the linear-scan oracle offer by offer (the
/// return value and every counter) and in its final front, bit for bit,
/// over beam-like streams: continuous, quantized, and with `±0.0`
/// latencies. The fronts span many 32-entry blocks, so a wrong scan
/// bound or a stale block minimum surfaces as a missed dominator or
/// victim.
#[test]
fn archive_matches_the_linear_scan_oracle() {
    let mut widest = 0;
    for stream in 0..60u64 {
        let mut rng = Stream(stream);
        let n = 3000 + (rng.next() % 2001) as usize;
        let quantum = [0.0, 0.5, 0.05][stream as usize % 3];
        let zeros = stream % 2 == 1;
        let mut archive = ParetoArchive::new();
        let mut oracle = LinearArchive::default();
        for k in 0..n {
            let point = beam_like_offer(&mut rng, k, n, quantum, zeros);
            let payload = (rng.next() % 1000) as usize;
            let on_front = archive.offer(point, payload);
            assert_eq!(
                on_front,
                oracle.offer(point, payload),
                "stream {stream} offer {k}: {point:?}"
            );
            assert_eq!(
                archive.dominated(),
                oracle.dominated,
                "stream {stream} offer {k}"
            );
            assert_eq!(
                archive.duplicates(),
                oracle.duplicates,
                "stream {stream} offer {k}"
            );
            assert_eq!(
                archive.len(),
                oracle.entries.len(),
                "stream {stream} offer {k}"
            );
            widest = widest.max(archive.len());
        }
        let expected: Vec<(u64, u64, u64, usize)> = oracle
            .entries
            .iter()
            .map(|(p, t)| {
                (
                    p.latency_ms.to_bits(),
                    p.energy_mj.to_bits(),
                    p.accuracy.to_bits(),
                    *t,
                )
            })
            .collect();
        assert_eq!(
            entry_bits(&archive),
            expected,
            "stream {stream}: final front"
        );
    }
    assert!(
        widest > 8 * 32,
        "fronts should span many blocks, widest {widest}"
    );
}

fn curve_strategy() -> impl Strategy<Value = LatencyCurve> {
    proptest::collection::vec(0.1f64..100.0, 2..120).prop_map(|ms| {
        let points = ms
            .into_iter()
            .enumerate()
            .map(|(i, v)| CurvePoint {
                channels: i + 1,
                measurement: Measurement::from_runs(vec![v]),
            })
            .collect();
        LatencyCurve::new("prop", "prop", "prop", points)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Steps partition the curve: contiguous, ordered, covering every point.
    #[test]
    fn steps_partition_the_curve(curve in curve_strategy()) {
        let staircase = Staircase::detect(&curve);
        let steps = staircase.steps();
        prop_assert!(!steps.is_empty());
        let (lo, hi) = curve.channel_range();
        prop_assert_eq!(steps.first().unwrap().from_channels, lo);
        prop_assert_eq!(steps.last().unwrap().to_channels, hi);
        for w in steps.windows(2) {
            prop_assert_eq!(w[0].to_channels + 1, w[1].from_channels);
        }
        for s in steps {
            prop_assert!(s.from_channels <= s.to_channels);
            prop_assert!(s.level_ms > 0.0);
        }
    }

    /// Optimal points are a true Pareto set: strictly increasing channels
    /// AND strictly decreasing-beyond-tolerance latency from right to left.
    #[test]
    fn optimal_points_are_pareto(curve in curve_strategy()) {
        let staircase = Staircase::detect(&curve);
        let pts = staircase.optimal_points();
        prop_assert!(!pts.is_empty());
        // The rightmost profiled point is always optimal.
        prop_assert_eq!(pts.last().unwrap().channels, curve.channel_range().1);
        for w in pts.windows(2) {
            prop_assert!(w[0].channels < w[1].channels);
            // Earlier points must be meaningfully faster than later ones.
            prop_assert!(w[0].ms < w[1].ms);
        }
        // No profiled point dominates an optimal point.
        for p in pts {
            for (c, ms) in curve.series() {
                if c > p.channels {
                    prop_assert!(
                        ms * 1.05 >= p.ms,
                        "({c}, {ms}) dominates optimal ({}, {})",
                        p.channels,
                        p.ms
                    );
                }
            }
        }
    }

    /// best_within_budget returns the most channels meeting the budget.
    #[test]
    fn budget_selection_is_maximal(curve in curve_strategy(), budget in 0.05f64..120.0) {
        let staircase = Staircase::detect(&curve);
        match staircase.best_within_budget(budget) {
            Some(best) => {
                prop_assert!(best.ms <= budget);
                for p in staircase.optimal_points() {
                    if p.ms <= budget {
                        prop_assert!(p.channels <= best.channels);
                    }
                }
            }
            None => {
                for p in staircase.optimal_points() {
                    prop_assert!(p.ms > budget);
                }
            }
        }
    }

    /// The Pareto front utility returns exactly the non-dominated set.
    #[test]
    fn pareto_front_is_exact(
        cands in proptest::collection::vec((0.1f64..100.0, 0.0f64..1.0), 0..40)
    ) {
        let front = pareto_front(&cands);
        // Everything on the front is non-dominated.
        for &i in &front {
            for (j, &(lat, acc)) in cands.iter().enumerate() {
                if i == j { continue; }
                let (fl, fa) = cands[i];
                let dominates = lat <= fl && acc >= fa && (lat < fl || acc > fa);
                prop_assert!(!dominates, "candidate {j} dominates front member {i}");
            }
        }
        // Everything off the front is dominated or a duplicate.
        for (j, &(lat, acc)) in cands.iter().enumerate() {
            if front.contains(&j) { continue; }
            let covered = cands.iter().enumerate().any(|(i, &(l, a))| {
                i != j && l <= lat && a >= acc
            });
            prop_assert!(covered, "candidate {j} ({lat}, {acc}) missing from front");
        }
        // Front is sorted by latency.
        for w in front.windows(2) {
            prop_assert!(cands[w[0]].0 <= cands[w[1]].0);
        }
    }

    /// No archived point ever dominates another archived point.
    #[test]
    fn archive_front_is_mutually_nondominated(
        triples in proptest::collection::vec(grid_point_strategy(), 0..60)
    ) {
        let pairs: Vec<(usize, (f64, f64, f64))> =
            triples.into_iter().enumerate().collect();
        let archive = archive_of(&pairs);
        for (i, (p, _)) in archive.entries().enumerate() {
            for (j, (q, _)) in archive.entries().enumerate() {
                if i != j {
                    prop_assert!(!p.dominates(q), "entry {i} dominates entry {j}");
                }
            }
        }
    }

    /// Counter conservation: inserted == archived + dominated + duplicates.
    #[test]
    fn archive_counters_are_conserved(
        triples in proptest::collection::vec(grid_point_strategy(), 0..60)
    ) {
        let pairs: Vec<(usize, (f64, f64, f64))> =
            triples.into_iter().enumerate().collect();
        let archive = archive_of(&pairs);
        prop_assert_eq!(archive.inserted(), pairs.len() as u64);
        prop_assert_eq!(
            archive.inserted(),
            archive.len() as u64 + archive.dominated() + archive.duplicates()
        );
    }

    /// With continuous objective triples, bit-exact collisions never
    /// happen: the duplicate counter stays zero and conservation reduces
    /// to archived + dominated.
    #[test]
    fn archive_of_continuous_points_never_counts_duplicates(
        triples in proptest::collection::vec(point_strategy(), 0..60)
    ) {
        let pairs: Vec<(usize, (f64, f64, f64))> =
            triples.into_iter().enumerate().collect();
        let archive = archive_of(&pairs);
        prop_assert_eq!(archive.duplicates(), 0);
        prop_assert_eq!(
            archive.inserted(),
            archive.len() as u64 + archive.dominated()
        );
    }

    /// The final archive — points, payloads and their canonical order — is
    /// invariant under any permutation of the same insertions. (How a
    /// rejected point is *classified* may depend on order; the final state
    /// never does.)
    #[test]
    fn archive_is_permutation_invariant(
        triples in proptest::collection::vec(grid_point_strategy(), 0..40),
        seed in any::<u64>(),
    ) {
        let original: Vec<(usize, (f64, f64, f64))> =
            triples.into_iter().enumerate().collect();
        let permuted = shuffled(&original, seed);
        let a = archive_of(&original);
        let b = archive_of(&permuted);
        prop_assert_eq!(entry_bits(&a), entry_bits(&b));
        prop_assert_eq!(
            a.len() as u64 + a.dominated() + a.duplicates(),
            b.len() as u64 + b.dominated() + b.duplicates()
        );
    }

    /// Duplicate objective triples deterministically keep the smallest
    /// payload among everything offered with that triple.
    #[test]
    fn archive_duplicate_ties_keep_the_smallest_payload(
        triples in proptest::collection::vec(grid_point_strategy(), 1..40),
        seed in any::<u64>(),
    ) {
        // Offer every triple twice with distinct payloads, in a seeded
        // permutation.
        let doubled: Vec<(usize, (f64, f64, f64))> = triples
            .iter()
            .enumerate()
            .flat_map(|(i, &t)| [(2 * i + 1, t), (2 * i, t)])
            .collect();
        let pairs = shuffled(&doubled, seed);
        let archive = archive_of(&pairs);
        for (p, payload) in archive.entries() {
            let min = pairs
                .iter()
                .filter(|(_, t)| {
                    t.0.to_bits() == p.latency_ms.to_bits()
                        && t.1.to_bits() == p.energy_mj.to_bits()
                        && t.2.to_bits() == p.accuracy.to_bits()
                })
                .map(|(i, _)| *i)
                .min()
                .expect("archived point was offered");
            prop_assert_eq!(*payload, min);
        }
    }

    /// With energy held constant the 3-D archive front collapses to the
    /// 2-D `pareto_front` over (latency, accuracy).
    #[test]
    fn archive_agrees_with_pareto_front_in_two_dimensions(
        cands in proptest::collection::vec((0.1f64..100.0, 0.0f64..1.0), 0..40)
    ) {
        let mut archive = ParetoArchive::new();
        for (i, &(lat, acc)) in cands.iter().enumerate() {
            archive.offer(
                pt((lat, 1.0, acc)),
                i,
            );
        }
        let mut from_archive: Vec<(u64, u64)> = archive
            .entries()
            .map(|(p, _)| (p.latency_ms.to_bits(), p.accuracy.to_bits()))
            .collect();
        let mut from_front: Vec<(u64, u64)> = pareto_front(&cands)
            .into_iter()
            .map(|i| (cands[i].0.to_bits(), cands[i].1.to_bits()))
            .collect();
        from_archive.sort_unstable();
        from_archive.dedup();
        from_front.sort_unstable();
        from_front.dedup();
        prop_assert_eq!(from_archive, from_front);
    }
}
