//! Seeded beam and (μ+λ) evolutionary search over the joint channel space.
//!
//! Both solvers are pure functions of `(profiler inputs, seed, config)`:
//! every tie-break, parent pick and mutation is a [`super::splitmix64`]
//! hash of `(seed, structural position)`, so there is no RNG state to
//! advance, no clock, and no dependence on thread interleaving. Candidates
//! are scored inline from the space's slot table ([`SearchSpace::score`]),
//! so the worker count reaches only the staircase sweeps that build the
//! space — and the whole search, including the final archive, is
//! byte-identical at `--jobs 1` and `--jobs 8`.

use std::collections::{HashMap, HashSet};

use pruneperf_backends::ConvBackend;
use pruneperf_models::Network;
use pruneperf_profiler::LayerProfiler;

use super::{genome_hash, mix, ParetoArchive, ParetoPoint, SearchSpace};
use crate::accuracy::AccuracyModel;
use crate::PruningPlan;

/// Domain-separation tags for the hash streams, so parent selection,
/// mutation gating, mutation values and tie-breaks never correlate.
const TAG_INIT: u64 = 0x01;
const TAG_PARENT: u64 = 0x02;
const TAG_GATE: u64 = 0x03;
const TAG_VALUE: u64 = 0x04;
const TAG_FORCE: u64 = 0x05;

/// Which search algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchAlgo {
    /// Beam search: expand every beam genome by one ladder step per round,
    /// keep the `beam_width` best-ranked children, stop when the frontier
    /// is exhausted.
    Beam,
    /// (μ+λ) evolutionary search: μ = `beam_width` parents, λ = 2μ hashed
    /// mutations per generation, truncation selection by non-domination
    /// rank, for `generations` generations.
    Evolve,
}

impl SearchAlgo {
    /// CLI / JSON name of the algorithm.
    pub fn name(&self) -> &'static str {
        match self {
            SearchAlgo::Beam => "beam",
            SearchAlgo::Evolve => "evolve",
        }
    }
}

/// Search parameters. `seed` only influences tie-breaking (beam) and the
/// hashed initialization/mutation stream (evolve) — never measurements.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Algorithm to run.
    pub algo: SearchAlgo,
    /// Hash seed for all pseudo-random decisions.
    pub seed: u64,
    /// Beam width (beam) or population size μ (evolve). Clamped to ≥ 1.
    pub beam_width: usize,
    /// Generations to evolve; ignored by beam (it runs to frontier
    /// exhaustion, which the ladder lattice bounds).
    pub generations: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            algo: SearchAlgo::Beam,
            seed: 1,
            beam_width: 8,
            generations: 12,
        }
    }
}

/// Everything a finished search reports. The counters obey
/// `evaluated == archived + dominated + duplicates` because every
/// evaluated genome is offered to the archive exactly once.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The non-dominated front as full pruning plans, in the archive's
    /// canonical order.
    pub plans: Vec<PruningPlan>,
    /// Distinct candidate configurations evaluated.
    pub evaluated: u64,
    /// Front size (points archived at the end).
    pub archived: usize,
    /// Candidates rejected or displaced by domination.
    pub dominated: u64,
    /// Candidates whose exact objective triple was already archived.
    pub duplicates: u64,
    /// Beam rounds or evolve generations actually executed.
    pub rounds: u64,
    /// Size of the full joint candidate space, modulo 2^64 (see
    /// [`SearchSpace::total_configs`]).
    pub total_configs: usize,
}

/// Runs the configured search and returns the non-dominated front.
///
/// The staircase sweeps that build the space fan out over
/// [`pruneperf_profiler::sweep::sweep_jobs`] workers (set by the CLI from
/// `--jobs`); the result is independent of it.
pub fn search(
    profiler: &LayerProfiler,
    accuracy: &AccuracyModel,
    backend: &dyn ConvBackend,
    network: &Network,
    config: &SearchConfig,
) -> SearchOutcome {
    let space = SearchSpace::build_for(profiler, accuracy, backend, network);
    let width = config.beam_width.max(1);

    let mut archive: ParetoArchive<Vec<usize>> = ParetoArchive::new();
    let mut evaluated = 0u64;
    let mut rounds = 0u64;

    match config.algo {
        SearchAlgo::Beam => {
            (evaluated, rounds) = run_beam(&space, config.seed, width, &mut archive)
        }
        SearchAlgo::Evolve => {
            // Hashed initial population: the unpruned genome plus μ−1
            // pseudo-random genomes.
            let mut seen: HashMap<Vec<usize>, ParetoPoint> = HashMap::new();
            let mut population: Vec<Vec<usize>> = vec![space.full_genome()];
            for i in 1..width {
                let genome: Vec<usize> = (0..space.num_layers())
                    .map(|l| {
                        let len = space.ladder(l).len() as u64;
                        (mix(&[config.seed, TAG_INIT, i as u64, l as u64]) % len) as usize
                    })
                    .collect();
                if !population.contains(&genome) {
                    population.push(genome);
                }
            }
            evaluated += population.len() as u64;
            for genome in &population {
                let point = space.score(genome);
                seen.insert(genome.clone(), point);
                archive.offer(point, genome.clone());
            }
            for generation in 0..config.generations as u64 {
                rounds += 1;
                // λ = 2μ children by hashed point mutation.
                let mut children: Vec<Vec<usize>> = Vec::new();
                for j in 0..(2 * width) as u64 {
                    let parent = &population[(mix(&[config.seed, TAG_PARENT, generation, j])
                        % population.len() as u64)
                        as usize];
                    let mut child = parent.clone();
                    let layers = space.num_layers() as u64;
                    for (l, gene) in child.iter_mut().enumerate() {
                        let gate = mix(&[config.seed, TAG_GATE, generation, j, l as u64]);
                        if gate.is_multiple_of(layers) {
                            let len = space.ladder(l).len() as u64;
                            *gene = (mix(&[config.seed, TAG_VALUE, generation, j, l as u64]) % len)
                                as usize;
                        }
                    }
                    if child == *parent {
                        // Force at least one gene to move so every child
                        // explores; pick the layer and offset by hash.
                        let l = (mix(&[config.seed, TAG_FORCE, generation, j]) % layers) as usize;
                        let len = space.ladder(l).len();
                        if len > 1 {
                            let step = 1
                                + (mix(&[config.seed, TAG_FORCE, generation, j, 1]) as usize
                                    % (len - 1));
                            child[l] = (child[l] + step) % len;
                        }
                    }
                    children.push(child);
                }
                // Score each distinct unseen child once, in child order.
                for child in &children {
                    if !seen.contains_key(child) {
                        evaluated += 1;
                        let point = space.score(child);
                        seen.insert(child.clone(), point);
                        archive.offer(point, child.clone());
                    }
                }
                // Truncation selection on the (μ+λ) pool by non-domination
                // rank, hashed tie-break, then genome order.
                let mut pool: Vec<Vec<usize>> = population.clone();
                for c in children {
                    if !pool.contains(&c) {
                        pool.push(c);
                    }
                }
                let pts: Vec<ParetoPoint> = pool.iter().map(|g| seen[g]).collect();
                let ranks = nondominated_ranks(&pts);
                let mut order: Vec<usize> = (0..pool.len()).collect();
                order.sort_by(|&x, &y| {
                    ranks[x]
                        .cmp(&ranks[y])
                        .then(
                            genome_hash(config.seed, &pool[x])
                                .cmp(&genome_hash(config.seed, &pool[y])),
                        )
                        .then(pool[x].cmp(&pool[y]))
                });
                population = order
                    .into_iter()
                    .take(width)
                    .map(|i| pool[i].clone())
                    .collect();
            }
        }
    }

    let policy = format!("search-{}", config.algo.name());
    let (device, name) = (profiler.device().name(), network.name());
    let (archived, dominated, duplicates) =
        (archive.len(), archive.dominated(), archive.duplicates());
    // Each genome moves out of the archive and becomes its plan's counts.
    let plans = archive
        .into_entries()
        .map(|(point, genome)| {
            let kept = space.keeps(genome);
            PruningPlan::from_parts(&policy, backend.name(), device, name, kept, point)
        })
        .collect();
    SearchOutcome {
        plans,
        evaluated,
        archived,
        dominated,
        duplicates,
        rounds,
        total_configs: space.total_configs(),
    }
}

/// Beam search from the unpruned genome: each round lowers one slot of
/// every beam genome by one, offers each distinct child to `archive`, and
/// keeps the `width` best-ranked children as the next beam, until no slot
/// can drop. Returns `(evaluated, rounds)`.
fn run_beam(
    space: &SearchSpace,
    seed: u64,
    width: usize,
    archive: &mut ParetoArchive<Vec<usize>>,
) -> (u64, u64) {
    let start = space.full_genome();
    let mut evaluated = 1u64;
    let mut rounds = 0u64;
    archive.offer(space.score(&start), start.clone());
    let mut beam = vec![start];
    let mut seen: HashSet<Vec<usize>> = HashSet::new();
    loop {
        // Every child is its parent with one slot lowered by one, so each
        // child of round r has slot sum S0 − r (S0: the full genome's) and
        // can only repeat a child of the same round. Deduplicating within
        // the round therefore drops exactly what a whole-search set would,
        // while the set holds at most `width` × layers genomes.
        seen.clear();
        let mut frontier: Vec<Vec<usize>> = Vec::new();
        for genome in &beam {
            for (l, &slot) in genome.iter().enumerate() {
                if slot == 0 {
                    continue;
                }
                let mut child = genome.clone();
                child[l] = slot - 1;
                if seen.insert(child.clone()) {
                    frontier.push(child);
                }
            }
        }
        if frontier.is_empty() {
            break;
        }
        rounds += 1;
        evaluated += frontier.len() as u64;
        let mut scored: Vec<(bool, u64, Vec<usize>)> = frontier
            .into_iter()
            .map(|genome| {
                let on_front = archive.offer(space.score(&genome), genome.clone());
                (on_front, genome_hash(seed, &genome), genome)
            })
            .collect();
        // Survivors (currently non-dominated) first, then the seeded hash,
        // then genome order — fully deterministic.
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        beam = scored.into_iter().take(width).map(|(_, _, g)| g).collect();
    }
    (evaluated, rounds)
}

/// Non-domination rank per point (0 = on the pool's front; peel and
/// repeat). O(n²) per layer of peeling — the pools here are tens of
/// points.
fn nondominated_ranks(points: &[ParetoPoint]) -> Vec<usize> {
    let n = points.len();
    let mut rank = vec![usize::MAX; n];
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut current = 0usize;
    while !remaining.is_empty() {
        let front: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| {
                !remaining
                    .iter()
                    .any(|&j| j != i && points[j].dominates(&points[i]))
            })
            .collect();
        for &i in &front {
            rank[i] = current;
        }
        remaining.retain(|&i| rank[i] == usize::MAX);
        current += 1;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use pruneperf_backends::AclGemm;
    use pruneperf_gpusim::Device;

    fn outcome_key(o: &SearchOutcome) -> Vec<(u64, u64, u64, String)> {
        o.plans
            .iter()
            .map(|p| {
                (
                    p.latency_ms().to_bits(),
                    p.energy_mj().to_bits(),
                    p.accuracy().to_bits(),
                    format!("{:?}", p.keeps().collect::<Vec<_>>()),
                )
            })
            .collect()
    }

    #[test]
    fn beam_front_is_internally_nondominated_and_conserved() {
        let net = testkit::micro_net();
        let d = Device::mali_g72_hikey970();
        let (p, a) = testkit::noiseless_setup(&net, &d);
        let out = search(&p, &a, &AclGemm::new(), &net, &SearchConfig::default());
        assert!(out.archived > 0);
        assert_eq!(
            out.evaluated,
            out.archived as u64 + out.dominated + out.duplicates
        );
        for (i, x) in out.plans.iter().enumerate() {
            for (j, y) in out.plans.iter().enumerate() {
                if i == j {
                    continue;
                }
                let px = ParetoPoint {
                    latency_ms: x.latency_ms(),
                    energy_mj: x.energy_mj(),
                    accuracy: x.accuracy(),
                };
                let py = ParetoPoint {
                    latency_ms: y.latency_ms(),
                    energy_mj: y.energy_mj(),
                    accuracy: y.accuracy(),
                };
                assert!(!px.dominates(&py), "front plan {i} dominates {j}");
            }
        }
    }

    #[test]
    fn search_is_reproducible_for_a_seed_and_varies_by_algo() {
        let net = testkit::micro_net();
        let d = Device::jetson_tx2();
        let (p, a) = testkit::noiseless_setup(&net, &d);
        let backend = AclGemm::new();
        let cfg = SearchConfig {
            seed: 3,
            ..SearchConfig::default()
        };
        let once = search(&p, &a, &backend, &net, &cfg);
        let twice = search(&p, &a, &backend, &net, &cfg);
        assert_eq!(outcome_key(&once), outcome_key(&twice));
        assert_eq!(once.evaluated, twice.evaluated);

        let evolve = search(
            &p,
            &a,
            &backend,
            &net,
            &SearchConfig {
                algo: SearchAlgo::Evolve,
                seed: 3,
                ..SearchConfig::default()
            },
        );
        assert!(evolve.archived > 0);
        assert_eq!(
            evolve.evaluated,
            evolve.archived as u64 + evolve.dominated + evolve.duplicates
        );
        assert_eq!(evolve.plans[0].policy(), "search-evolve");
        assert_eq!(once.plans[0].policy(), "search-beam");
    }

    #[test]
    fn evolve_respects_generation_budget() {
        let net = testkit::tiny_net();
        let d = Device::jetson_nano();
        let (p, a) = testkit::noiseless_setup(&net, &d);
        let out = search(
            &p,
            &a,
            &AclGemm::new(),
            &net,
            &SearchConfig {
                algo: SearchAlgo::Evolve,
                seed: 1,
                beam_width: 4,
                generations: 3,
            },
        );
        assert_eq!(out.rounds, 3);
    }

    /// The beam as it ran before per-round dedup, with one `visited` set
    /// for the whole search: the oracle for [`run_beam`].
    fn beam_with_whole_search_dedup(
        space: &SearchSpace,
        seed: u64,
        width: usize,
        archive: &mut ParetoArchive<Vec<usize>>,
    ) -> (u64, u64) {
        let start = space.full_genome();
        let mut evaluated = 1u64;
        let mut rounds = 0u64;
        archive.offer(space.score(&start), start.clone());
        let mut visited: HashSet<Vec<usize>> = HashSet::new();
        visited.insert(start.clone());
        let mut beam = vec![start];
        loop {
            let mut frontier: Vec<Vec<usize>> = Vec::new();
            for genome in &beam {
                for (l, &slot) in genome.iter().enumerate() {
                    if slot == 0 {
                        continue;
                    }
                    let mut child = genome.clone();
                    child[l] = slot - 1;
                    if visited.insert(child.clone()) {
                        frontier.push(child);
                    }
                }
            }
            if frontier.is_empty() {
                break;
            }
            rounds += 1;
            evaluated += frontier.len() as u64;
            let mut scored: Vec<(bool, u64, Vec<usize>)> = frontier
                .into_iter()
                .map(|genome| {
                    let on_front = archive.offer(space.score(&genome), genome.clone());
                    (on_front, genome_hash(seed, &genome), genome)
                })
                .collect();
            scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
            beam = scored.into_iter().take(width).map(|(_, _, g)| g).collect();
        }
        (evaluated, rounds)
    }

    type FrontBits = Vec<(u64, u64, u64, Vec<usize>)>;

    fn front_bits(archive: &ParetoArchive<Vec<usize>>) -> FrontBits {
        archive
            .entries()
            .map(|(p, g)| {
                let bits = (p.latency_ms.to_bits(), p.energy_mj.to_bits());
                (bits.0, bits.1, p.accuracy.to_bits(), g.clone())
            })
            .collect()
    }

    /// Per-round dedup evaluates, archives and ranks exactly what the
    /// whole-search `visited` set did, over every fixture net and board.
    #[test]
    fn per_round_dedup_matches_whole_search_dedup() {
        let nets = [
            testkit::tiny_net(),
            testkit::micro_net(),
            testkit::ragged_net(),
            testkit::wide_net(),
        ];
        for net in &nets {
            for device in Device::all_paper_devices() {
                let (p, a) = testkit::noiseless_setup(net, &device);
                let space = SearchSpace::build_for(&p, &a, &AclGemm::new(), net);
                for seed in 1..=8 {
                    for width in [1, 4, 16] {
                        let case = format!(
                            "{} on {} seed {seed} width {width}",
                            net.name(),
                            device.name()
                        );
                        let mut archive = ParetoArchive::new();
                        let got = run_beam(&space, seed, width, &mut archive);
                        let mut oracle = ParetoArchive::new();
                        let want = beam_with_whole_search_dedup(&space, seed, width, &mut oracle);
                        assert_eq!(got, want, "{case}: (evaluated, rounds)");
                        assert_eq!(archive.len(), oracle.len(), "{case}: archived");
                        assert_eq!(archive.dominated(), oracle.dominated(), "{case}");
                        assert_eq!(archive.duplicates(), oracle.duplicates(), "{case}");
                        assert_eq!(front_bits(&archive), front_bits(&oracle), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn ranks_peel_fronts() {
        let pts = vec![
            ParetoPoint {
                latency_ms: 1.0,
                energy_mj: 1.0,
                accuracy: 0.9,
            },
            ParetoPoint {
                latency_ms: 2.0,
                energy_mj: 2.0,
                accuracy: 0.8,
            },
            ParetoPoint {
                latency_ms: 3.0,
                energy_mj: 3.0,
                accuracy: 0.7,
            },
        ];
        assert_eq!(nondominated_ranks(&pts), vec![0, 1, 2]);
    }
}
