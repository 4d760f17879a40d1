//! The live `pruneperf serve` daemon.
//!
//! Plain [`std::net::TcpListener`] plus a hand-rolled worker pool — the
//! offline build has no async runtime, and the planner is CPU-bound
//! anyway, so one OS thread per simulated worker is the honest model.
//! The accept thread parses each connection's single request, picks the
//! worker by board ([`crate::admission::worker_for_device`], the same
//! rule the replay model simulates), and hands the connection to that
//! worker's **bounded** queue. Every worker shares one
//! [`pruneperf_profiler::LatencyCache`]. A full queue sheds the
//! request on the accept thread with an explicit 429 — admission
//! control, not silent buffering. Queues are `Mutex<VecDeque>` +
//! `Condvar`, not channels: the bound is load-bearing and a sender never
//! blocks on it.
//!
//! Every accepted socket must deliver its whole request within 2 s of
//! being accepted, and each write is bounded by the same 2 s. A peer
//! that sends nothing, or drips a byte at a time, costs the accept
//! thread at most that long and gets a 400, instead of stalling every
//! later connection.
//! Everything past the accept loop is log-and-drop: a peer that
//! vanishes mid-write surfaces as an `Err` from
//! [`crate::http::try_respond`] and costs one response, never a worker
//! thread.

use std::collections::VecDeque;
use std::io::{self, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use crate::admission::worker_for_device;
use crate::http;
use crate::planner::PlanService;
use crate::protocol::{PlanRequest, PlanResponse};

/// How long an accepted socket may take to deliver its whole request,
/// and how long it may block one write.
const PEER_TIMEOUT: Duration = Duration::from_secs(2);

/// Configuration for [`Server::bind`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerOptions {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads; each board's requests go to one of them.
    pub workers: usize,
    /// Per-worker queue bound; arrivals past it are shed with 429.
    pub queue_capacity: usize,
    /// Latency-cache bound per shard (`0` = unbounded — unwise for a
    /// daemon; the CLI defaults this on).
    pub cache_cap: usize,
    /// Stop after this many accepted connections (`None` = run forever).
    /// Smoke tests and drills use this as a deterministic shutdown.
    pub max_requests: Option<usize>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            addr: "127.0.0.1:7878".to_string(),
            workers: 4,
            queue_capacity: 4,
            cache_cap: 4096,
            max_requests: None,
        }
    }
}

/// Tallies from a completed [`Server::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerSummary {
    /// Connections accepted.
    pub accepted: u64,
    /// Requests shed by a full worker queue.
    pub shed: u64,
    /// Connections answered with 4xx (bad HTTP, bad path, bad request).
    pub refused: u64,
}

/// One unit of worker work: a connection whose request was admitted.
enum Job {
    /// Serve this request and answer on the stream.
    Conn {
        stream: TcpStream,
        request: PlanRequest,
        id: usize,
    },
    /// Drain and exit.
    Stop,
}

/// A bounded MPSC queue: `Mutex<VecDeque>` + `Condvar`, capacity
/// enforced at push so backpressure is explicit (429) rather than
/// unbounded buffering.
struct WorkerQueue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
    capacity: usize,
}

impl WorkerQueue {
    fn new(capacity: usize) -> Self {
        WorkerQueue {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Observed backlog (for shed responses).
    fn depth(&self) -> usize {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Enqueues unless the queue is at capacity; a refused job comes
    /// back to the caller so the stream inside it can be answered.
    #[allow(clippy::result_large_err)] // the Err IS the refused job, by design
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        if jobs.len() >= self.capacity {
            return Err(job);
        }
        jobs.push_back(job);
        drop(jobs);
        self.ready.notify_one();
        Ok(())
    }

    /// Enqueues unconditionally — only for [`Job::Stop`], which must
    /// reach the worker even through a full queue.
    fn push_unbounded(&self, job: Job) {
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        jobs.push_back(job);
        drop(jobs);
        self.ready.notify_one();
    }

    /// Blocks until a job is available.
    fn pop(&self) -> Job {
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(job) = jobs.pop_front() {
                return job;
            }
            jobs = self
                .ready
                .wait(jobs)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The bound daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    options: ServerOptions,
    service: PlanService,
}

impl Server {
    /// Binds the listener and builds the shared [`PlanService`] (bounded
    /// cache per `options.cache_cap`).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(options: ServerOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&options.addr)?;
        let service = PlanService::new(options.cache_cap);
        Ok(Server {
            listener,
            options,
            service,
        })
    }

    /// The bound address (useful with `:0`).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared planning service (cache + stats registry).
    pub fn service(&self) -> &PlanService {
        &self.service
    }

    /// Serves until `max_requests` connections have been accepted (or
    /// forever when unset), then drains the workers and returns tallies.
    ///
    /// # Errors
    ///
    /// Propagates an `accept` failure after stopping the workers.
    //
    // lock-order: WorkerQueue.jobs is the only lock taken here and it is
    // a leaf — no code path holds it while taking another lock (the
    // planner's cache shards are locked only inside `service.handle`,
    // when no queue lock is held), so the spawned workers cannot
    // deadlock against the accept thread.
    pub fn run(&self) -> std::io::Result<ServerSummary> {
        let workers = self.options.workers.max(1);
        let queues: Vec<WorkerQueue> = (0..workers)
            .map(|_| WorkerQueue::new(self.options.queue_capacity.max(1)))
            .collect();
        let shed = AtomicU64::new(0);
        let refused = AtomicU64::new(0);
        let mut accepted = 0u64;
        let mut accept_error = None;

        thread::scope(|scope| {
            for queue in &queues {
                let service = &self.service;
                scope.spawn(move || worker_loop(service, queue));
            }

            let mut next_id = 0usize;
            loop {
                if let Some(max) = self.options.max_requests {
                    if accepted >= max as u64 {
                        break;
                    }
                }
                let stream = match self.listener.accept() {
                    Ok((stream, _peer)) => stream,
                    Err(e) => {
                        accept_error = Some(e);
                        break;
                    }
                };
                accepted += 1;
                let id = next_id;
                next_id += 1;
                dispatch(stream, id, &queues, &self.service, &shed, &refused);
            }

            for queue in &queues {
                queue.push_unbounded(Job::Stop);
            }
        });

        match accept_error {
            Some(e) => Err(e),
            None => Ok(ServerSummary {
                accepted,
                shed: shed.load(Ordering::Relaxed),
                refused: refused.load(Ordering::Relaxed),
            }),
        }
    }
}

/// Parses one connection's request on the accept thread and routes it:
/// side-channel and error paths are answered inline, plan requests are
/// admitted to their board's worker or shed with 429.
fn dispatch(
    stream: TcpStream,
    id: usize,
    queues: &[WorkerQueue],
    service: &PlanService,
    shed: &AtomicU64,
    refused: &AtomicU64,
) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the peer deadline is wall time by design, and no reply depends on it"
    )]
    let mut reader = BufReader::new(DeadlineReader {
        stream: &stream,
        deadline: Instant::now() + PEER_TIMEOUT,
    });
    let request = match stream
        .set_write_timeout(Some(PEER_TIMEOUT))
        .map_err(|e| format!("failed to set the socket write timeout: {e}"))
        .and_then(|()| http::read_request(&mut reader))
    {
        Ok(r) => r,
        Err(e) => {
            refused.fetch_add(1, Ordering::Relaxed);
            let body = PlanResponse::Error(e).render(id, false);
            let _ = http::try_respond(&mut &stream, 400, &body);
            return;
        }
    };
    if request.method == "GET" && request.path == "/stats" {
        let _ = http::try_respond(&mut &stream, 200, &service.stats_json());
        return;
    }
    if request.path != "/plan" {
        refused.fetch_add(1, Ordering::Relaxed);
        let body =
            PlanResponse::Error(format!("no such endpoint {}", request.path)).render(id, false);
        let _ = http::try_respond(&mut &stream, 404, &body);
        return;
    }
    if request.method != "POST" {
        refused.fetch_add(1, Ordering::Relaxed);
        let body =
            PlanResponse::Error(format!("method {} not allowed", request.method)).render(id, false);
        let _ = http::try_respond(&mut &stream, 405, &body);
        return;
    }
    let plan_request = match PlanRequest::parse(request.body.trim()) {
        Ok(r) => r,
        Err(e) => {
            refused.fetch_add(1, Ordering::Relaxed);
            let body = PlanResponse::Error(e).render(id, false);
            let _ = http::try_respond(&mut &stream, 400, &body);
            return;
        }
    };
    let worker = worker_for_device(&plan_request.device, queues.len());
    let Some(queue) = queues.get(worker) else {
        return; // unreachable: worker < queues.len() by construction
    };
    let depth = queue.depth();
    let job = Job::Conn {
        stream,
        request: plan_request,
        id,
    };
    if let Err(Job::Conn { stream, .. }) = queue.try_push(job) {
        shed.fetch_add(1, Ordering::Relaxed);
        let response = PlanResponse::Shed { worker, depth };
        let body = response.render(id, false);
        let _ = http::try_respond(&mut &stream, response.http_status(), &body);
    }
}

/// Reads a socket under one deadline for the whole request: each read
/// may block only for the time left, and once none is left the reader
/// fails with [`io::ErrorKind::TimedOut`] itself (a zero socket timeout
/// is an error, not "no wait").
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        #[expect(
            clippy::disallowed_methods,
            reason = "the peer deadline is wall time by design, and no reply depends on it"
        )]
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request not received in time",
            ));
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// One worker: pop, plan, answer, until [`Job::Stop`].
fn worker_loop(service: &PlanService, queue: &WorkerQueue) {
    loop {
        match queue.pop() {
            Job::Stop => return,
            Job::Conn {
                stream,
                request,
                id,
            } => {
                let response = service.handle(&request);
                let body = response.render(id, false);
                // The peer may be gone; that costs one response, not
                // the worker.
                let _ = http::try_respond(&mut &stream, response.http_status(), &body);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::NETWORKS;
    use std::io::{Read, Write};
    use std::sync::{mpsc, Barrier};

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    fn post(body: &str) -> String {
        format!(
            "POST /plan HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    }

    #[test]
    fn serves_plans_stats_and_refusals_end_to_end() {
        let server = Server::bind(ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 4,
            cache_cap: 1024,
            max_requests: Some(4),
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = thread::spawn(move || server.run().unwrap());

        let ok = roundtrip(
            addr,
            &post(r#"{"network":"alexnet","device":"tx2","budget":0.8}"#),
        );
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert!(ok.contains("\"status\":\"ok\""));
        assert!(ok.contains("\"degraded\":false"));

        let bad = roundtrip(addr, &post(r#"{"device":"tx2","budget":0.8}"#));
        assert!(bad.starts_with("HTTP/1.1 400 "), "{bad}");
        assert!(bad.contains("'network'"));

        let lost = roundtrip(addr, "GET /nowhere HTTP/1.1\r\n\r\n");
        assert!(lost.starts_with("HTTP/1.1 404 "), "{lost}");

        let stats = roundtrip(addr, "GET /stats HTTP/1.1\r\n\r\n");
        assert!(stats.starts_with("HTTP/1.1 200 OK\r\n"), "{stats}");
        assert!(stats.contains("\"cache\""), "{stats}");

        let summary = handle.join().unwrap();
        assert_eq!(summary.accepted, 4);
        assert_eq!(summary.refused, 2);
        assert_eq!(summary.shed, 0);
    }

    /// The `"id"` a rendered response carries.
    fn response_id(body: &str) -> usize {
        let digits: String = body
            .split_once("\"id\":")
            .map(|(_, rest)| rest.chars().take_while(char::is_ascii_digit).collect())
            .unwrap_or_default();
        digits.parse().unwrap()
    }

    #[test]
    fn a_silent_peer_does_not_stall_later_requests() {
        let server = Server::bind(ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            max_requests: Some(2),
            ..ServerOptions::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = thread::spawn(move || server.run().unwrap());

        // Connected first, so accepted first; it never sends a byte.
        let mut silent = TcpStream::connect(addr).unwrap();
        let (tx, rx) = mpsc::sync_channel(1);
        let client = thread::spawn(move || {
            let body = r#"{"network":"alexnet","device":"tx2","budget":0.8}"#;
            let _ = tx.send(roundtrip(addr, &post(body)));
        });
        let ok = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a silent peer stalled every later connection");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");

        let mut refusal = String::new();
        silent.read_to_string(&mut refusal).unwrap();
        assert!(refusal.starts_with("HTTP/1.1 400 "), "{refusal}");
        client.join().unwrap();
        let summary = handle.join().unwrap();
        assert_eq!((summary.accepted, summary.refused), (2, 1));
    }

    #[test]
    fn a_slow_drip_peer_does_not_stall_later_requests() {
        let server = Server::bind(ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            max_requests: Some(2),
            ..ServerOptions::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = thread::spawn(move || server.run().unwrap());

        // Connected first, so accepted first: a request line, then one
        // header byte every 300 ms for 6 s, each well inside a per-read
        // timeout. It stops early once the server hangs up.
        let mut drip = TcpStream::connect(addr).unwrap();
        drip.write_all(b"POST /plan HTTP/1.1\r\n").unwrap();
        let dripper = {
            let mut drip = drip.try_clone().unwrap();
            thread::spawn(move || {
                for _ in 0..20 {
                    thread::sleep(Duration::from_millis(300));
                    if drip.write_all(b"X").is_err() {
                        return;
                    }
                }
            })
        };
        thread::sleep(Duration::from_millis(100));
        let (tx, rx) = mpsc::sync_channel(1);
        let client = thread::spawn(move || {
            let _ = tx.send(roundtrip(addr, "GET /stats HTTP/1.1\r\n\r\n"));
        });
        let stats = rx
            .recv_timeout(Duration::from_secs(4))
            .expect("a slow-drip peer stalled every later connection");
        assert!(stats.starts_with("HTTP/1.1 200 OK\r\n"), "{stats}");

        let mut refusal = String::new();
        drip.read_to_string(&mut refusal).unwrap();
        assert!(refusal.starts_with("HTTP/1.1 400 "), "{refusal}");
        client.join().unwrap();
        dripper.join().unwrap();
        let summary = handle.join().unwrap();
        assert_eq!((summary.accepted, summary.refused), (2, 1));
    }

    #[test]
    fn racing_first_use_of_each_network_answers_like_a_fresh_service() {
        // Each board with the backend the paper ran on it.
        const BOARDS: [(&str, &str); 4] = [
            ("hikey970", "acl-gemm"),
            ("odroidxu4", "acl-gemm"),
            ("tx2", "cudnn"),
            ("nano", "cudnn"),
        ];
        // Then four clients at once on one triple no board above used:
        // one prepared space answers every objective, budget and fault
        // seed (and the board's alias).
        const ONE_TRIPLE: [&str; 4] = [
            r#""budget":0.8"#,
            r#""objective":"energy","budget":0.6"#,
            r#""budget":0.7,"fault_seed":3,"fault_rate":0.5"#,
            r#""objective":"energy","budget":0.9,"fault_seed":5,"fault_rate":0.2"#,
        ];
        let server = Server::bind(ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            max_requests: Some(NETWORKS.len() * BOARDS.len() + ONE_TRIPLE.len()),
            ..ServerOptions::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = thread::spawn(move || server.run().unwrap());

        // One client per board, all walking the networks in the same
        // order from a common start: both workers reach each network's
        // empty slot together.
        let start = Barrier::new(BOARDS.len());
        let mut answers: Vec<(String, String)> = thread::scope(|scope| {
            let clients: Vec<_> = BOARDS
                .iter()
                .map(|(device, backend)| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        NETWORKS
                            .iter()
                            .map(|(network, _)| {
                                let body = format!(
                                    r#"{{"network":"{network}","device":"{device}","backend":"{backend}","budget":0.8}}"#
                                );
                                let answer = roundtrip(addr, &post(&body));
                                (body, answer)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect()
        });
        let start = Barrier::new(ONE_TRIPLE.len());
        thread::scope(|scope| {
            let clients: Vec<_> = ONE_TRIPLE
                .iter()
                .zip(["odroidxu4", "t628", "odroidxu4", "t628"])
                .map(|(fields, device)| {
                    let start = &start;
                    scope.spawn(move || {
                        let body = format!(
                            r#"{{"network":"vgg16","device":"{device}","backend":"acl-direct",{fields}}}"#
                        );
                        start.wait();
                        let answer = roundtrip(addr, &post(&body));
                        (body, answer)
                    })
                })
                .collect();
            answers.extend(clients.into_iter().map(|c| c.join().unwrap()));
        });

        for (body, answer) in &answers {
            let (head, got) = answer.split_once("\r\n\r\n").unwrap();
            assert!(head.starts_with("HTTP/1.1 200 OK"), "{body}: {answer}");
            let request = PlanRequest::parse(body).unwrap();
            let expected = PlanService::new(0)
                .handle(&request)
                .render(response_id(got), false);
            assert_eq!(got.trim_end(), expected, "{body}");
        }
        let summary = handle.join().unwrap();
        assert_eq!(summary.accepted, answers.len() as u64);
        assert_eq!((summary.shed, summary.refused), (0, 0));
    }

    #[test]
    fn a_full_queue_refuses_rather_than_buffering() {
        let queue = WorkerQueue::new(1);
        assert!(queue
            .try_push(Job::Conn {
                stream: loopback_pair().0,
                request: PlanRequest::parse(r#"{"network":"alexnet","device":"tx2","budget":0.8}"#)
                    .unwrap(),
                id: 0,
            })
            .is_ok());
        let refused = queue.try_push(Job::Stop);
        assert!(
            refused.is_err(),
            "capacity 1 queue must refuse the second job"
        );
        assert_eq!(queue.depth(), 1);
        queue.push_unbounded(Job::Stop);
        assert_eq!(queue.depth(), 2, "stop sentinels bypass the bound");
    }

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }
}
