//! Load against a live daemon from two threads, each holding at most one
//! connection, as an open loop on a fixed schedule or as a closed loop.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use crate::expected::Expected;
use crate::inputs::PlanKey;
use crate::proc::http;

/// Load threads, and so connections, per workload.
const THREADS: usize = 2;

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Position in the request list.
    pub index: usize,
    /// From the due time (open loop) or the send (closed loop) to the end
    /// of the response.
    pub latency_ms: f64,
    /// How late the request was sent after it was both due and had a free
    /// connection.
    pub lag_ms: f64,
    /// The request fell due while both connections were still waiting for
    /// replies, so it went out late by the server's doing.
    pub backlogged: bool,
    /// HTTP status, or 0 when the exchange itself failed.
    pub status: u16,
    /// Answered 200 with the recorded body.
    pub ok: bool,
    pub end: Instant,
}

/// Sends `requests` in order until the list ends or `deadline`, if any,
/// passes, each taken by whichever of the two threads is free.
///
/// With `rate_per_s`, request `i` falls due `i / rate_per_s` after the
/// start, an open loop timed from the due time, so a request that had to
/// wait for a free connection carries that wait in its latency. Without
/// it, each request goes out as soon as a connection is free: a closed
/// loop. Returns the samples in request order and the start.
pub fn drive(
    addr: SocketAddr,
    requests: &[PlanKey],
    rate_per_s: Option<f64>,
    deadline: Option<Instant>,
    expected: &Expected,
) -> (Vec<Sample>, Instant) {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let mut samples: Vec<Sample> = thread::scope(|scope| {
        let senders: Vec<_> = (0..THREADS)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    while deadline.is_none_or(|d| Instant::now() < d) {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(key) = requests.get(index) else {
                            break;
                        };
                        let free = Instant::now();
                        let due = rate_per_s.map_or(free, |rate| {
                            start + Duration::from_secs_f64(index as f64 / rate)
                        });
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let (status, ok) = match http(addr, &key.http_request()) {
                            Ok((status, body)) => {
                                (status, status == 200 && expected.serve_ok(key, &body))
                            }
                            Err(_) => (0, false),
                        };
                        let end = Instant::now();
                        mine.push(Sample {
                            index,
                            latency_ms: end.duration_since(due).as_secs_f64() * 1e3,
                            lag_ms: sent.duration_since(due.max(free)).as_secs_f64() * 1e3,
                            backlogged: free > due,
                            status,
                            ok,
                            end,
                        });
                    }
                    mine
                })
            })
            .collect();
        senders
            .into_iter()
            .flat_map(|s| s.join().expect("a load thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.index);
    (samples, start)
}

/// When the last response ended; `None` without samples.
pub fn last_answer(samples: &[Sample]) -> Option<Instant> {
    samples.iter().map(|s| s.end).max()
}
