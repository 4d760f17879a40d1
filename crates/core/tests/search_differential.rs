//! Differential harness for the whole-network search (PR 10 satellite).
//!
//! On the exhaustively-enumerable `testkit::micro_net` fixture, for seeds
//! 1–5 on all four paper devices:
//!
//! 1. the beam front is a **subset of the true Pareto front** (every
//!    archived point is bitwise-identical to a point of the enumerated
//!    non-dominated set);
//! 2. every `exhaustive_prune_to_latency` optimum is **matched or
//!    dominated** by some beam-front plan;
//! 3. on `testkit::ragged_net` (built so coarse Mali staircase quanta
//!    trip one-layer-at-a-time trading) the beam front **strictly
//!    dominates the greedy** `prune_to_latency` plan in all three
//!    objectives with a genuine >0.1% latency margin on the two Mali
//!    devices, while greedy is exhaustively verified optimal on the two
//!    CUDA devices.
//!
//! Beam widths (and, for the beats-greedy fixture, budgets) are tuned per
//! device so the beam covers enough of each space; they are part of the
//! pinned fixture.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails fast; its helpers unwrap like its test bodies"
)]

use pruneperf_backends::AclGemm;
use pruneperf_core::search::{
    exhaustive_prune_to_latency, search, ParetoPoint, SearchAlgo, SearchConfig, SearchOutcome,
    SearchSpace,
};
use pruneperf_core::testkit;
use pruneperf_core::{PerfAwarePruner, PruningPlan};
use pruneperf_gpusim::Device;

const SEEDS: [u64; 5] = [1, 2, 3, 4, 5];
const ENUM_CAP: usize = 100_000;

/// `(device, beam width)` — width is part of the checked-in fixture.
fn devices_and_widths() -> Vec<(Device, usize)> {
    let mut all = Device::all_paper_devices().into_iter();
    let hikey = all.next().unwrap();
    let odroid = all.next().unwrap();
    let tx2 = all.next().unwrap();
    let nano = all.next().unwrap();
    vec![(hikey, 16), (odroid, 96), (tx2, 16), (nano, 24)]
}

fn point_of(plan: &PruningPlan) -> ParetoPoint {
    ParetoPoint {
        latency_ms: plan.latency_ms(),
        energy_mj: plan.energy_mj(),
        accuracy: plan.accuracy(),
    }
}

fn bits(p: &ParetoPoint) -> (u64, u64, u64) {
    (
        p.latency_ms.to_bits(),
        p.energy_mj.to_bits(),
        p.accuracy.to_bits(),
    )
}

/// Every point of the fixture space, enumeration order.
fn all_points(space: &SearchSpace) -> Vec<ParetoPoint> {
    space
        .enumerate_within(ENUM_CAP)
        .iter()
        .map(|g| space.score(g))
        .collect()
}

/// The enumerated true Pareto front of the fixture space.
fn true_front(space: &SearchSpace) -> Vec<ParetoPoint> {
    let pts = all_points(space);
    pts.iter()
        .copied()
        .filter(|q| !pts.iter().any(|o| o.dominates(q)))
        .collect()
}

fn beam(
    profiler: &pruneperf_profiler::LayerProfiler,
    accuracy: &pruneperf_core::accuracy::AccuracyModel,
    backend: &AclGemm,
    network: &pruneperf_models::Network,
    seed: u64,
    width: usize,
) -> SearchOutcome {
    search(
        profiler,
        accuracy,
        backend,
        network,
        &SearchConfig {
            algo: SearchAlgo::Beam,
            seed,
            beam_width: width,
            generations: 12,
        },
    )
}

#[test]
fn beam_front_is_a_subset_of_the_true_pareto_front() {
    let net = testkit::micro_net();
    let backend = AclGemm::new();
    for (device, width) in devices_and_widths() {
        let (p, a) = testkit::noiseless_setup(&net, &device);
        let space = SearchSpace::build_for(&p, &a, &backend, &net);
        let truth = true_front(&space);
        let truth_bits: Vec<(u64, u64, u64)> = truth.iter().map(bits).collect();
        for seed in SEEDS {
            let out = beam(&p, &a, &backend, &net, seed, width);
            assert!(out.archived > 0, "{}: empty front", device.name());
            for plan in &out.plans {
                let q = bits(&point_of(plan));
                assert!(
                    truth_bits.contains(&q),
                    "{} seed {seed}: beam plan {:?} not on the true front",
                    device.name(),
                    plan.keeps().collect::<Vec<_>>()
                );
            }
        }
    }
}

#[test]
fn exhaustive_optima_are_matched_or_dominated_by_the_beam_front() {
    let net = testkit::micro_net();
    let backend = AclGemm::new();
    for (device, width) in devices_and_widths() {
        let (p, a) = testkit::noiseless_setup(&net, &device);
        for seed in SEEDS {
            let out = beam(&p, &a, &backend, &net, seed, width);
            for budget in [0.9, 0.8, 0.7, 0.6] {
                let Some(exact) =
                    exhaustive_prune_to_latency(&p, &a, &backend, &net, budget, ENUM_CAP)
                else {
                    continue;
                };
                // The exact optimum's objective point, scored the way the
                // beam scores its candidates.
                let space = SearchSpace::build_for(&p, &a, &backend, &net);
                let genome: Vec<usize> = exact
                    .kept
                    .iter()
                    .enumerate()
                    .map(|(i, (label, want))| {
                        assert_eq!(label, space.label_of(i));
                        space
                            .ladder(i)
                            .iter()
                            .position(|&(c, _)| c == want)
                            .expect("exact optimum picks ladder points")
                    })
                    .collect();
                let ex = space.score(&genome);
                let covered = out.plans.iter().any(|plan| {
                    let q = point_of(plan);
                    bits(&q) == bits(&ex) || q.dominates(&ex)
                });
                assert!(
                    covered,
                    "{} seed {seed} budget {budget}: exhaustive optimum not covered",
                    device.name()
                );
            }
        }
    }
}

/// `(device, greedy budget, beam width)` for the beats-greedy fixture.
/// Budgets are per-device because greedy's failure mode is budget-shaped:
/// its last one-layer trade overshoots where the device's staircase
/// quanta are coarse. On the CUDA devices the ladders are smooth and
/// greedy stays optimal at every probed budget — that contrast is pinned
/// below rather than hidden.
fn ragged_fixture() -> Vec<(Device, f64, usize)> {
    let mut all = Device::all_paper_devices().into_iter();
    let hikey = all.next().unwrap();
    let odroid = all.next().unwrap();
    let tx2 = all.next().unwrap();
    let nano = all.next().unwrap();
    vec![
        (hikey, 0.8, 16),
        (odroid, 0.6, 96),
        (tx2, 0.8, 16),
        (nano, 0.8, 24),
    ]
}

/// A beam plan "genuinely beats" greedy when it dominates in all three
/// objectives AND the latency win clears a 0.1% margin — summation-order
/// noise on an identical plan is ulps, never 0.1%.
const GENUINE_MARGIN: f64 = 0.999;

#[test]
fn beam_front_strictly_dominates_greedy_on_at_least_two_devices() {
    let net = testkit::ragged_net();
    let backend = AclGemm::new();
    let mut beaten: Vec<String> = Vec::new();
    for (device, budget, width) in ragged_fixture() {
        let (p, a) = testkit::noiseless_setup(&net, &device);
        let greedy = PerfAwarePruner::new(&p, &a).prune_to_latency(&backend, &net, budget);
        let gpt = point_of(&greedy);
        let mut beats_on_every_seed = true;
        for seed in SEEDS {
            let out = beam(&p, &a, &backend, &net, seed, width);
            let dominated = out.plans.iter().any(|plan| {
                let q = point_of(plan);
                q.dominates(&gpt) && q.latency_ms < gpt.latency_ms * GENUINE_MARGIN
            });
            if !dominated {
                beats_on_every_seed = false;
            }
        }
        if beats_on_every_seed {
            beaten.push(device.name().to_string());
        }
    }
    assert!(
        beaten.len() >= 2,
        "beam should strictly dominate greedy on ≥2 devices, got {beaten:?}"
    );
    // Pin the fixture's actual winners so a regression that flips one
    // device is visible, not silently absorbed by the ≥2 bound. The CUDA
    // devices are pinned as non-winners: greedy is provably optimal there
    // (see `greedy_is_optimal_on_the_cuda_devices`), so a "win" appearing
    // on them would mean the margin predicate broke.
    assert_eq!(
        beaten,
        vec![
            "HiKey 970 (Mali G72 MP12)".to_string(),
            "Odroid XU4 (Mali T628 MP6)".to_string()
        ],
        "beats-greedy winner set drifted"
    );
}

/// The flip side of the beats-greedy pin: on the CUDA devices the
/// enumerated space contains no plan that beats greedy's point by the
/// genuine margin at equal-or-better accuracy, so greedy is optimal there
/// and the beam's job is only to match it (covered by the exhaustive
/// test above).
#[test]
fn greedy_is_optimal_on_the_cuda_devices() {
    let net = testkit::ragged_net();
    let backend = AclGemm::new();
    for (device, budget, _) in ragged_fixture() {
        if !device.name().contains("Jetson") {
            continue;
        }
        let (p, a) = testkit::noiseless_setup(&net, &device);
        let greedy = PerfAwarePruner::new(&p, &a).prune_to_latency(&backend, &net, budget);
        let gpt = point_of(&greedy);
        let pts = all_points(&SearchSpace::build_for(&p, &a, &backend, &net));
        assert!(
            !pts.iter()
                .any(|q| q.accuracy >= gpt.accuracy
                    && q.latency_ms < gpt.latency_ms * GENUINE_MARGIN),
            "{}: greedy unexpectedly suboptimal — update the pinned winner set",
            device.name()
        );
    }
}

/// Evolve is heuristic; it must stay internally consistent (conservation,
/// non-dominated front, reproducibility) and its front must never contain
/// a point off the true front *when the point claims a true-front triple*…
/// concretely: every evolve front point must be non-dominated within the
/// full enumerated space OR dominated only by points the archive never saw.
/// We assert the cheap invariants here; subset is beam's contract.
#[test]
fn evolve_is_conserved_and_reproducible_on_all_devices() {
    let net = testkit::micro_net();
    let backend = AclGemm::new();
    for (device, width) in devices_and_widths() {
        let (p, a) = testkit::noiseless_setup(&net, &device);
        let cfg = SearchConfig {
            algo: SearchAlgo::Evolve,
            seed: 1,
            beam_width: width.min(24),
            generations: 10,
        };
        let once = search(&p, &a, &backend, &net, &cfg);
        let twice = search(&p, &a, &backend, &net, &cfg);
        assert_eq!(
            once.evaluated,
            once.archived as u64 + once.dominated + once.duplicates,
            "{}: conservation",
            device.name()
        );
        let key = |o: &SearchOutcome| -> Vec<(u64, u64, u64)> {
            o.plans.iter().map(|pl| bits(&point_of(pl))).collect()
        };
        assert_eq!(
            key(&once),
            key(&twice),
            "{}: reproducibility",
            device.name()
        );
        for (i, x) in once.plans.iter().enumerate() {
            for (j, y) in once.plans.iter().enumerate() {
                if i != j {
                    assert!(
                        !point_of(x).dominates(&point_of(y)),
                        "{}: evolve front self-domination",
                        device.name()
                    );
                }
            }
        }
    }
}
