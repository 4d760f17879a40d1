//! Virtual-time admission control: bounded queues, explicit sheds.
//!
//! The live server's backpressure story must also hold in replay mode,
//! where there is no wall clock and no real queue — so both are driven
//! by the same *model*: each worker serves its queue FIFO at a fixed
//! virtual service time, a request goes to its board's worker
//! ([`worker_for_device`]), and a request arriving while its worker's
//! backlog is at capacity is shed with an explicit 429-style response —
//! never buffered without bound.
//!
//! The model is a pure function of `(arrival times, device names,
//! config)`. In particular it does **not** depend on `--jobs`: the
//! worker count here is the *simulated* pool (`--workers`), a protocol
//! parameter, while `--jobs` only fans out the independent response
//! computations. That split is what keeps replay output byte-identical
//! at any `--jobs`.

use crate::catalog;

/// The admission model's parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Simulated worker count (boards map onto these).
    pub workers: usize,
    /// Maximum backlog (queued + in service) per worker beyond the
    /// request being admitted; arrivals past this are shed.
    pub queue_capacity: usize,
    /// Virtual service time per admitted request, milliseconds.
    pub service_ms: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            workers: 4,
            queue_capacity: 4,
            service_ms: 5.0,
        }
    }
}

/// The model's verdict on one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionOutcome {
    /// Worker the request was routed to.
    pub worker: usize,
    /// `true` when the request was admitted (not shed).
    pub admitted: bool,
    /// Backlog observed at arrival (requests ahead of this one).
    pub depth: usize,
    /// Virtual start of service (admitted only; `0.0` otherwise).
    pub start_ms: f64,
    /// Virtual completion time (admitted only; `0.0` otherwise).
    pub finish_ms: f64,
}

impl AdmissionOutcome {
    /// Queueing + service latency in virtual milliseconds.
    pub fn latency_ms(&self, arrival_ms: f64) -> f64 {
        if self.admitted {
            self.finish_ms - arrival_ms
        } else {
            0.0
        }
    }
}

/// The worker a board's requests go to: the board's position in the
/// device catalog (aliases resolved) modulo `workers`, so the four
/// boards split 2/2 over two workers and get one each over four. A name
/// outside the catalog goes to worker 0; the planner refuses it without
/// planning.
pub fn worker_for_device(device: &str, workers: usize) -> usize {
    catalog::device_index(device).map_or(0, |ix| ix % workers.max(1))
}

/// Runs the model over `(arrival_ms, device)` pairs in stream order.
///
/// Arrivals are taken as given (traces are normally time-sorted; an
/// out-of-order trace is still processed deterministically in stream
/// order). For each request: backlog = admitted requests on the same
/// worker that finish after this arrival; `backlog > queue_capacity`
/// sheds, otherwise service starts when the worker frees up.
pub fn simulate(requests: &[(f64, &str)], config: &AdmissionConfig) -> Vec<AdmissionOutcome> {
    let workers = config.workers.max(1);
    // Per-worker finish times of admitted requests, in admission order.
    let mut finishes: Vec<Vec<f64>> = vec![Vec::new(); workers];
    let mut outcomes = Vec::with_capacity(requests.len());
    for &(arrival, device) in requests {
        let worker = worker_for_device(device, workers);
        let lane = &mut finishes[worker];
        let depth = lane.iter().filter(|&&f| f > arrival).count();
        if depth > config.queue_capacity {
            outcomes.push(AdmissionOutcome {
                worker,
                admitted: false,
                depth,
                start_ms: 0.0,
                finish_ms: 0.0,
            });
            continue;
        }
        let free_at = lane.last().copied().unwrap_or(0.0);
        let start = arrival.max(free_at);
        let finish = start + config.service_ms;
        lane.push(finish);
        outcomes.push(AdmissionOutcome {
            worker,
            admitted: true,
            depth,
            start_ms: start,
            finish_ms: finish,
        });
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(workers: usize, queue: usize, service: f64) -> AdmissionConfig {
        AdmissionConfig {
            workers,
            queue_capacity: queue,
            service_ms: service,
        }
    }

    #[test]
    fn spread_arrivals_never_shed() {
        let reqs: Vec<(f64, &str)> = (0..8).map(|i| (i as f64 * 100.0, "tx2")).collect();
        let out = simulate(&reqs, &cfg(2, 1, 5.0));
        assert!(out.iter().all(|o| o.admitted));
        for (o, (t, _)) in out.iter().zip(&reqs) {
            assert_eq!(o.start_ms, *t, "idle worker starts immediately");
            assert_eq!(o.finish_ms, t + 5.0);
        }
    }

    #[test]
    fn a_burst_beyond_capacity_sheds() {
        // Five simultaneous arrivals on one device, queue capacity 1:
        // in-service + 1 queued admitted, the rest shed.
        let reqs: Vec<(f64, &str)> = (0..5).map(|_| (10.0, "tx2")).collect();
        let out = simulate(&reqs, &cfg(2, 1, 5.0));
        let admitted = out.iter().filter(|o| o.admitted).count();
        assert_eq!(admitted, 2);
        assert!(!out[4].admitted);
        assert_eq!(out[4].depth, 2);
        // Admitted requests queue FIFO on the worker.
        assert_eq!(out[0].start_ms, 10.0);
        assert_eq!(out[1].start_ms, 15.0);
    }

    #[test]
    fn devices_pin_to_workers() {
        let w = worker_for_device("tx2", 4);
        for _ in 0..3 {
            assert_eq!(worker_for_device("tx2", 4), w);
        }
        let reqs = [(0.0, "tx2"), (0.0, "tx2")];
        let out = simulate(&reqs, &cfg(4, 0, 5.0));
        assert_eq!(out[0].worker, out[1].worker);
    }

    const BOARDS: [&str; 4] = ["hikey970", "odroidxu4", "tx2", "nano"];

    #[test]
    fn two_workers_split_the_boards_evenly() {
        let mut per_worker = [0; 2];
        for board in BOARDS {
            per_worker[worker_for_device(board, 2)] += 1;
        }
        assert_eq!(per_worker, [2, 2]);
    }

    #[test]
    fn four_workers_give_each_board_its_own() {
        let mut workers = BOARDS.map(|board| worker_for_device(board, 4));
        workers.sort_unstable();
        assert_eq!(workers, [0, 1, 2, 3]);
    }

    #[test]
    fn aliases_route_with_their_boards() {
        for workers in 1..=4 {
            assert_eq!(
                worker_for_device("g72", workers),
                worker_for_device("hikey970", workers)
            );
            assert_eq!(
                worker_for_device("t628", workers),
                worker_for_device("odroidxu4", workers)
            );
        }
    }

    #[test]
    fn unknown_names_route_to_worker_zero() {
        for workers in 1..=4 {
            assert_eq!(worker_for_device("rtx4090", workers), 0);
            assert_eq!(worker_for_device("", workers), 0);
        }
    }

    #[test]
    fn the_model_is_a_pure_function_of_its_inputs() {
        let reqs: Vec<(f64, &str)> = (0..16)
            .map(|i| (i as f64 * 2.0, if i % 2 == 0 { "tx2" } else { "nano" }))
            .collect();
        let a = simulate(&reqs, &cfg(3, 2, 7.5));
        let b = simulate(&reqs, &cfg(3, 2, 7.5));
        assert_eq!(a, b);
    }

    #[test]
    fn latency_includes_queueing() {
        let reqs = [(0.0, "tx2"), (0.0, "tx2")];
        let out = simulate(&reqs, &cfg(1, 4, 5.0));
        assert_eq!(out[0].latency_ms(0.0), 5.0);
        assert_eq!(out[1].latency_ms(0.0), 10.0, "queued behind the first");
    }
}
