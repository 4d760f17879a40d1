//! Host-speed normalisation of the end-to-end times.
//!
//! A shared host changes speed by up to 1.5x for seconds to minutes at a
//! time, for every process on it alike, and CPU time slows with wall time,
//! so the slow spells are not preemption. No statistic of one run is steady
//! when the host stays slow for longer than the run. So a probe thread
//! times a fixed compute kernel throughout each run, and the run's times
//! are scaled by [`REFERENCE_MS`] over the probe's median: they read as on
//! a host whose speed stays at the reference.
//!
//! The probe counts its own thread's CPU time, not wall time, so neither
//! waiting for a core nor the load the programs under test put on the
//! machine moves it; only the speed of the host does.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use pruneperf_backends::hash::splitmix;

use crate::stats::median;

/// The probe kernel's CPU time on the reference host, ms. On the 2.1 GHz
/// Xeon (Sapphire Rapids) vCPUs the benchmark was written on, the kernel
/// takes 1.3 to 2.1 ms and about 1.9 ms at the median over an hour, so
/// scaled times read close to the times measured there.
pub const REFERENCE_MS: f64 = 2.0;

/// Pause between probes. A probe takes about a millisecond, so the probe
/// thread uses a few percent of one core.
const PERIOD: Duration = Duration::from_millis(40);

/// CPU time of the calling thread, ms.
fn thread_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    }
    /// `CLOCK_THREAD_CPUTIME_ID` on Linux.
    const THREAD_CPUTIME: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(THREAD_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is unavailable");
    ts.sec as f64 * 1e3 + ts.nsec as f64 * 1e-6
}

/// The fixed work a probe times: hash-map updates and sorts over a working
/// set of about a megabyte, the kind of work the programs under test do.
/// Returns its CPU time, ms.
fn kernel() -> f64 {
    let start = thread_cpu_ms();
    let mut map: HashMap<u64, f64> = HashMap::new();
    let mut acc = 0.0;
    for round in 0..6u64 {
        for i in 0..4096u64 {
            let key = splitmix(i ^ round << 20) % 50_000;
            let slot = map.entry(key).or_insert(0.0);
            *slot += (key as f64).sqrt();
            acc += *slot;
        }
        let mut sorted: Vec<u64> = (0..2048).map(|i| splitmix(i + round)).collect();
        sorted.sort_unstable();
        acc += sorted[1024] as f64;
    }
    std::hint::black_box(acc);
    thread_cpu_ms() - start
}

/// A running probe thread.
pub struct Pace {
    stop: Arc<AtomicBool>,
    probe: JoinHandle<Vec<(Instant, f64)>>,
}

impl Pace {
    /// Starts probing until [`Pace::finish`].
    pub fn start() -> Pace {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let probe = thread::spawn(move || {
            // At least one probe, however soon the run ends.
            let mut probes = vec![(Instant::now(), kernel())];
            while !flag.load(Ordering::Relaxed) {
                thread::sleep(PERIOD);
                probes.push((Instant::now(), kernel()));
            }
            probes
        });
        Pace { stop, probe }
    }

    /// Stops the probe and returns what it measured.
    pub fn finish(self) -> Result<Probes, String> {
        self.stop.store(true, Ordering::Relaxed);
        self.probe
            .join()
            .map(Probes)
            .map_err(|_| "the pace probe panicked".to_string())
    }
}

/// The start time and CPU time of every probe of a run.
pub struct Probes(Vec<(Instant, f64)>);

impl Probes {
    /// How times measured between `from` and `to` map onto the reference
    /// host: [`REFERENCE_MS`] over the median of the probes that started
    /// in that interval, or of every probe when none did.
    pub fn scale(&self, from: Instant, to: Instant) -> Scale {
        let inside: Vec<f64> = self
            .0
            .iter()
            .filter(|(at, _)| (from..=to).contains(at))
            .map(|&(_, ms)| ms)
            .collect();
        let times = if inside.is_empty() {
            self.0.iter().map(|&(_, ms)| ms).collect()
        } else {
            inside
        };
        let probe_ms = median(&times);
        Scale {
            factor: REFERENCE_MS / probe_ms,
            probe_ms,
            probes: times.len(),
        }
    }
}

/// How the times of one phase of a run map onto the reference host.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Multiplies a measured time into a reference-host time; below 1 when
    /// the host ran slower than the reference.
    pub factor: f64,
    /// Median probe CPU time, ms.
    pub probe_ms: f64,
    pub probes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_thread_clock_counts_work_not_sleep() {
        let start = thread_cpu_ms();
        thread::sleep(Duration::from_millis(30));
        let slept = thread_cpu_ms() - start;
        assert!(slept < 10.0, "sleeping used {slept} ms of CPU");
        assert!(kernel() > 0.0);
    }

    #[test]
    fn a_phase_scales_by_the_median_of_its_own_probes() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let probes = Probes(vec![
            (at(0), 1.0),
            (at(10), 2.0),
            (at(20), 4.0),
            (at(30), 4.0),
        ]);
        let early = probes.scale(at(0), at(15));
        assert_eq!((early.probes, early.probe_ms), (2, 1.0));
        let late = probes.scale(at(15), at(40));
        assert_eq!((late.probes, late.probe_ms), (2, 4.0));
        assert!((late.factor * late.probe_ms - REFERENCE_MS).abs() < 1e-12);
        // No probe inside: the whole run's median.
        let none = probes.scale(at(100), at(200));
        assert_eq!((none.probes, none.probe_ms), (4, 2.0));
        assert!(Pace::start().finish().is_ok());
    }
}
