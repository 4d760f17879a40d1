//! Seeded workload inputs. The seed only shapes what the benchmark sends;
//! the programs under test never see it.

use pruneperf_backends::hash::splitmix;

/// The four workloads, in the order `run` and `trace` execute them.
pub const WORKLOADS: [&str; 4] = ["serve_hot", "serve_churn", "search_resnet50", "repro_all"];

/// Open-loop arrival rate of `serve_hot`, requests per second.
pub const HOT_RATE_PER_S: f64 = 25.0;

/// Sweep worker threads (`--jobs`) the batch commands and the traced
/// replays run with: the two cores of the benchmark machine. The daemon
/// runs with its default, every core.
pub const JOBS: usize = 2;

/// Search seeds are drawn from this pool so that every seed the benchmark
/// can be given maps onto fronts with a recorded digest.
pub const SEARCH_SEED_POOL: u64 = 32;

/// Each device with the backend the paper ran on it.
pub const PAPER_PAIRS: [(&str, &str); 4] = [
    ("hikey970", "acl-gemm"),
    ("odroidxu4", "acl-gemm"),
    ("tx2", "cudnn"),
    ("nano", "cudnn"),
];

const HOT_NETWORKS: [&str; 3] = ["alexnet", "mobilenetv1", "vgg16"];
const CHURN_NETWORKS: [&str; 4] = ["alexnet", "mobilenetv1", "vgg16", "resnet50"];
const DEVICES: [&str; 4] = ["hikey970", "odroidxu4", "tx2", "nano"];
const BACKENDS: [&str; 6] = [
    "acl-gemm",
    "acl-direct",
    "acl-direct-tuned",
    "acl-auto",
    "cudnn",
    "tvm",
];
const OBJECTIVES: [&str; 2] = ["latency", "energy"];
const BUDGET_TENTHS: [u8; 5] = [5, 6, 7, 8, 9];
const FAULT_SEEDS: u8 = 4;

/// A counter-based stream over splitmix, keyed by seed and purpose.
struct Draw(u64);

impl Draw {
    /// A stream for `seed`, separated from other streams by `purpose`.
    fn new(seed: u64, purpose: u64) -> Self {
        Draw(splitmix(seed ^ splitmix(purpose)))
    }

    /// A value in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(1);
        (splitmix(self.0) % n as u64) as usize
    }

    /// A permutation of `0..n`.
    fn shuffle(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// One plan request as the daemon's wire protocol spells it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanKey {
    pub network: &'static str,
    pub device: &'static str,
    pub backend: &'static str,
    pub objective: &'static str,
    pub budget_tenths: u8,
    pub fault_seed: Option<u8>,
}

impl PlanKey {
    /// The request body; also the key of the body's recorded digest.
    pub fn body(&self) -> String {
        let budget = f64::from(self.budget_tenths) / 10.0;
        let mut out = format!(
            "{{\"network\":\"{}\",\"device\":\"{}\",\"backend\":\"{}\",\"objective\":\"{}\",\"budget\":{budget}",
            self.network, self.device, self.backend, self.objective
        );
        if let Some(seed) = self.fault_seed {
            out.push_str(&format!(",\"fault_seed\":{seed},\"fault_rate\":0.6"));
        }
        out.push('}');
        out
    }

    /// The full HTTP request for this key.
    pub fn http_request(&self) -> String {
        let body = self.body();
        format!(
            "POST /plan HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    }
}

/// The 120 clean `serve_hot` keys: three networks, each device with its
/// paper backend, both objectives, budgets 0.5 to 0.9.
pub fn hot_keys() -> Vec<PlanKey> {
    let mut keys = Vec::with_capacity(120);
    for network in HOT_NETWORKS {
        for (device, backend) in PAPER_PAIRS {
            for objective in OBJECTIVES {
                for budget_tenths in BUDGET_TENTHS {
                    keys.push(PlanKey {
                        network,
                        device,
                        backend,
                        objective,
                        budget_tenths,
                        fault_seed: None,
                    });
                }
            }
        }
    }
    keys
}

/// Every key `serve_hot` can draw: the clean keys and each with every
/// fault seed.
pub fn hot_universe() -> Vec<PlanKey> {
    let clean = hot_keys();
    let mut all = clean.clone();
    for seed in 0..FAULT_SEEDS {
        all.extend(clean.iter().map(|k| PlanKey {
            fault_seed: Some(seed),
            ..k.clone()
        }));
    }
    all
}

/// `n` open-loop requests in rounds of the 120 clean keys, each round in a
/// seeded order with a seeded one in five carrying a fault seed.
///
/// Every round holds the same keys, so the mix of networks, which sets the
/// latency distribution, does not depend on the seed.
pub fn hot_requests(seed: u64, n: usize) -> Vec<PlanKey> {
    let keys = hot_keys();
    let mut draw = Draw::new(seed, 1);
    let mut out = Vec::with_capacity(n + keys.len());
    while out.len() < n {
        let order = draw.shuffle(keys.len());
        let faults = draw.shuffle(keys.len());
        for (&k, &f) in order.iter().zip(&faults) {
            let mut key = keys[k].clone();
            if f % 5 == 0 {
                key.fault_seed = Some(draw.below(usize::from(FAULT_SEEDS)) as u8);
            }
            out.push(key);
        }
    }
    out.truncate(n);
    out
}

/// The 96 (network, device, backend) triples `serve_churn` covers.
fn churn_triples() -> Vec<(&'static str, &'static str, &'static str)> {
    let mut out = Vec::with_capacity(96);
    for network in CHURN_NETWORKS {
        for device in DEVICES {
            for backend in BACKENDS {
                out.push((network, device, backend));
            }
        }
    }
    out
}

/// Every key `serve_churn` can draw.
pub fn churn_universe() -> Vec<PlanKey> {
    let mut all = Vec::new();
    for (network, device, backend) in churn_triples() {
        for objective in OBJECTIVES {
            for budget_tenths in BUDGET_TENTHS {
                all.push(PlanKey {
                    network,
                    device,
                    backend,
                    objective,
                    budget_tenths,
                    fault_seed: None,
                });
            }
        }
    }
    all
}

/// `n` closed-loop requests in blocks of 24, one request per (network,
/// backend) pair: the first four blocks hold each of the 96 triples once,
/// and later blocks repeat them in new seeded orders.
///
/// Block `b` gives pair (network `n`, backend `k`) the device
/// `(b + n + k + shift) % 4`, so four consecutive blocks cover every device
/// of every pair and each block gives each device six requests. Requests
/// cycle through the four networks, each network's backends in seeded
/// order, and through every (objective, budget) pair in seeded order. So
/// any prefix a time box cuts off holds each network, backend, device and
/// (objective, budget) in near-equal share: the mix, which sets a run's
/// throughput, depends little on the seed.
pub fn churn_requests(seed: u64, n: usize) -> Vec<PlanKey> {
    let mut draw = Draw::new(seed, 2);
    let shift = draw.below(DEVICES.len());
    let block_len = CHURN_NETWORKS.len() * BACKENDS.len();
    let combos = OBJECTIVES.len() * BUDGET_TENTHS.len();
    let mut backend_orders: Vec<Vec<usize>> = Vec::new();
    let mut combo_order = Vec::new();
    (0..n)
        .map(|i| {
            let (block, pos) = (i / block_len, i % block_len);
            if pos == 0 {
                backend_orders = CHURN_NETWORKS
                    .iter()
                    .map(|_| draw.shuffle(BACKENDS.len()))
                    .collect();
            }
            if i % combos == 0 {
                combo_order = draw.shuffle(combos);
            }
            let net = pos % CHURN_NETWORKS.len();
            let backend = backend_orders[net][pos / CHURN_NETWORKS.len()];
            let device = (block + net + backend + shift) % DEVICES.len();
            let combo = combo_order[i % combos];
            PlanKey {
                network: CHURN_NETWORKS[net],
                device: DEVICES[device],
                backend: BACKENDS[backend],
                objective: OBJECTIVES[combo / BUDGET_TENTHS.len()],
                budget_tenths: BUDGET_TENTHS[combo % BUDGET_TENTHS.len()],
                fault_seed: None,
            }
        })
        .collect()
}

/// The search seed of a run's `i`-th search: consecutive seeds from the
/// recorded pool.
pub fn search_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(i as u64) % SEARCH_SEED_POOL
}

/// The argument list of one `pruneperf search` run.
pub fn search_args(search_seed: u64) -> Vec<String> {
    let (seed, jobs) = (search_seed.to_string(), JOBS.to_string());
    [
        "search",
        "--network",
        "resnet50",
        "--device",
        "hikey970",
        "--backend",
        "acl-gemm",
        "--algo",
        "beam",
        "--jobs",
        &jobs,
        "--json",
        "--seed",
        &seed,
    ]
    .map(String::from)
    .to_vec()
}

/// The argument list of one `repro all` run.
pub fn repro_args() -> Vec<String> {
    vec!["all".to_string(), "--jobs".to_string(), JOBS.to_string()]
}

/// The set-up command of `search_resnet50`: start `pruneperf` and build the
/// network catalogs, ResNet-50's among them.
pub fn search_setup_args() -> Vec<String> {
    vec!["networks".to_string()]
}

/// The set-up command of `repro_all`: start `repro` and list its
/// experiments.
pub fn repro_setup_args() -> Vec<String> {
    vec!["list".to_string()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(keys: &[PlanKey]) -> Vec<u8> {
        keys.iter()
            .flat_map(|k| k.http_request().into_bytes())
            .collect()
    }

    #[test]
    fn the_same_seed_gives_byte_identical_requests() {
        assert_eq!(bytes(&hot_requests(7, 500)), bytes(&hot_requests(7, 500)));
        assert_ne!(bytes(&hot_requests(7, 500)), bytes(&hot_requests(8, 500)));
        assert_eq!(
            bytes(&churn_requests(7, 200)),
            bytes(&churn_requests(7, 200))
        );
        assert_ne!(
            bytes(&churn_requests(7, 200)),
            bytes(&churn_requests(8, 200))
        );
        assert_eq!(search_seed(7, 3), 10);
    }

    #[test]
    fn universes_cover_every_drawn_key() {
        assert_eq!(hot_keys().len(), 120);
        let hot = hot_universe();
        assert_eq!(hot.len(), 600);
        assert!(hot_requests(3, 2000).iter().all(|k| hot.contains(k)));
        let round = hot_requests(3, 120);
        assert_eq!(round.iter().filter(|k| k.fault_seed.is_some()).count(), 24);
        let mut clean: Vec<String> = round
            .into_iter()
            .map(|k| {
                PlanKey {
                    fault_seed: None,
                    ..k
                }
                .body()
            })
            .collect();
        clean.sort();
        clean.dedup();
        assert_eq!(clean.len(), 120, "every round serves each hot key once");
        let churn = churn_universe();
        assert_eq!(churn.len(), 960);
        assert!(churn_requests(3, 300).iter().all(|k| churn.contains(k)));
        assert!((0..64).all(|i| search_seed(u64::MAX, i) < SEARCH_SEED_POOL));
    }

    #[test]
    fn churn_covers_every_triple_first_in_network_rounds() {
        let reqs = churn_requests(11, 128);
        let mut first: Vec<_> = reqs[..96]
            .iter()
            .map(|k| (k.network, k.device, k.backend))
            .collect();
        first.sort();
        first.dedup();
        assert_eq!(first.len(), 96);
        for (i, k) in reqs.iter().enumerate() {
            assert_eq!(k.network, CHURN_NETWORKS[i % 4]);
        }
        for block in churn_requests(5, 240).chunks(24) {
            let mut pairs: Vec<_> = block.iter().map(|k| (k.network, k.backend)).collect();
            pairs.sort();
            pairs.dedup();
            assert_eq!(pairs.len(), 24, "each (network, backend) once per block");
            for device in DEVICES {
                assert_eq!(block.iter().filter(|k| k.device == device).count(), 6);
            }
        }
    }

    #[test]
    fn bodies_parse_as_plan_requests() {
        for key in hot_universe().iter().chain(&churn_universe()) {
            let req = pruneperf_serve::PlanRequest::parse(&key.body()).unwrap();
            assert_eq!(req.network, key.network);
            assert_eq!(req.budget, f64::from(key.budget_tenths) / 10.0);
            assert_eq!(req.fault_seed, key.fault_seed.map(u64::from));
        }
    }
}
