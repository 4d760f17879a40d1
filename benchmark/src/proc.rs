//! Building and driving the shipped binaries: the `serve` daemon over
//! HTTP, and batch commands as child processes with their peak memory.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// How long one request or batch child may take before it counts as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// The repository root: the directory holding this crate.
pub fn repo_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().unwrap_or(manifest).to_path_buf()
}

/// The release binaries under test.
pub struct Binaries {
    pub pruneperf: PathBuf,
    pub repro: PathBuf,
}

/// Builds the workspace binaries from source (a no-op when they are fresh)
/// and locates them. Cargo's output goes to standard error, so standard
/// output keeps only the benchmark's own lines.
pub fn build_binaries() -> Result<Binaries, String> {
    let root = repo_root();
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--workspace",
            "--bins",
        ])
        .current_dir(&root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the workspace binaries failed: {status}"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let bins = Binaries {
        pruneperf: target.join("release/pruneperf"),
        repro: target.join("release/repro"),
    };
    for bin in [&bins.pruneperf, &bins.repro] {
        if !bin.is_file() {
            return Err(format!("missing binary {}", bin.display()));
        }
    }
    Ok(bins)
}

/// Peak resident set (`VmHWM`) of a live process, in kB.
fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// One HTTP exchange: status code and body (trailing newline removed).
pub fn http(addr: SocketAddr, raw_request: &str) -> Result<(u16, String), String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, OP_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(OP_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(OP_TIMEOUT)))
        .map_err(|e| format!("socket options: {e}"))?;
    stream
        .write_all(raw_request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "response has no header end".to_string())?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {head}"))?;
    Ok((status, body.trim_end_matches('\n').to_string()))
}

/// `GET /stats` as a raw request.
const STATS_REQUEST: &str = "GET /stats HTTP/1.1\r\nHost: bench\r\n\r\n";

/// A running `pruneperf serve` daemon, killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the daemon on a free loopback port and waits until `GET
    /// /stats` answers 200.
    pub fn spawn(pruneperf: &Path) -> Result<Server, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let child = Command::new(pruneperf)
            .args(["serve", "--addr", &addr.to_string()])
            .args(["--workers", "2", "--queue", "4", "--cache-cap", "4096"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", pruneperf.display()))?;
        let mut server = Server { child, addr };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server on {addr} exited at start: {status}"));
            }
            if let Ok((200, _)) = http(addr, STATS_REQUEST) {
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err(format!("server on {addr} did not become ready"));
            }
            thread::sleep(Duration::from_millis(2));
        }
    }

    /// The daemon's peak resident set in MB, read while it is alive.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_kb(self.child.id())
            .map(|kb| kb as f64 / 1024.0)
            .ok_or_else(|| "cannot read the server's VmHWM".to_string())
    }

    /// The daemon's `/stats` document.
    pub fn stats(&self) -> Result<String, String> {
        match http(self.addr, STATS_REQUEST)? {
            (200, body) => Ok(body),
            (status, _) => Err(format!("GET /stats answered {status}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One finished batch child.
pub struct ChildRun {
    /// Spawn to end of standard output, milliseconds.
    pub latency_ms: f64,
    /// Largest `VmHWM` polled while the child ran, MB.
    pub peak_rss_mb: f64,
    pub stdout: Vec<u8>,
    /// Exited 0 within [`OP_TIMEOUT`].
    pub ok: bool,
}

/// Runs `bin args` to completion. A reader thread times the end of the
/// child's output while this thread polls its peak memory.
pub fn run_child(bin: &Path, args: &[String]) -> Result<ChildRun, String> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut out = child
        .stdout
        .take()
        .ok_or_else(|| "child has no stdout".to_string())?;
    let reader = thread::spawn(move || {
        let mut bytes = Vec::new();
        let read = out.read_to_end(&mut bytes);
        (bytes, read.is_ok(), Instant::now())
    });
    let pid = child.id();
    let mut peak_kb = 0u64;
    let status = loop {
        if let Some(kb) = vm_hwm_kb(pid) {
            peak_kb = peak_kb.max(kb);
        }
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if start.elapsed() > OP_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            Ok(None) => thread::sleep(Duration::from_millis(2)),
            Err(e) => return Err(format!("waiting for child: {e}")),
        }
    };
    let (stdout, read_ok, ended) = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?;
    Ok(ChildRun {
        latency_ms: ended.duration_since(start).as_secs_f64() * 1e3,
        peak_rss_mb: peak_kb as f64 / 1024.0,
        stdout,
        ok: read_ok && status.is_some_and(|s| s.success()),
    })
}
