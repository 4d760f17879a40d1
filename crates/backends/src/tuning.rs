//! TVM tuning-log model.
//!
//! TVM picks a schedule for each convolution *workload* (shape) from its
//! tuning log. Workloads without a log entry fall back to an untuned
//! default schedule — the paper finds “a significant number of optimization
//! calls instructed to use direct convolution which we know is generally
//! slower” (§IV-A4), producing Fig 20's spikes.
//!
//! [`TuningLog::tophub`] models the log TVM v0.6 ships with: stock channel
//! counts (multiples of 32) usually have good entries, a sprinkling of
//! other sizes are partially tuned, everything else falls back. Qualities
//! are deterministic hashes of the workload, so the same spiky-but-stable
//! pattern reproduces run after run. [`TuningLog::autotune`] adds a
//! high-quality entry for one workload, modelling an `autotvm` session —
//! the fix the paper implies (and the bench crate's ablation tests pin).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use pruneperf_models::ConvLayerSpec;

use crate::hash::{fnv1a, range_f64, splitmix, unit_f64};

/// How the schedule for a workload was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScheduleKind {
    /// A good tuning-log entry: GEMM-style schedule.
    Tuned,
    /// A log entry of mediocre quality (tuned for a related shape).
    PartiallyTuned,
    /// No log entry: untuned direct-style fallback schedule.
    Fallback,
}

/// Shape key identifying a convolution workload (label-independent, the way
/// TVM keys its logs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WorkloadKey {
    /// Kernel extent.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Input feature-map height.
    pub h_in: usize,
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
}

impl WorkloadKey {
    /// The key of a layer at its current channel count.
    pub fn of(layer: &ConvLayerSpec) -> Self {
        WorkloadKey {
            kernel: layer.kernel(),
            stride: layer.stride(),
            h_in: layer.h_in(),
            c_in: layer.c_in(),
            c_out: layer.c_out(),
        }
    }

    fn seed(&self, device: &str) -> u64 {
        let mut bytes = Vec::with_capacity(64);
        bytes.extend_from_slice(device.as_bytes());
        for v in [self.kernel, self.stride, self.h_in, self.c_in, self.c_out] {
            bytes.extend_from_slice(&(v as u64).to_le_bytes());
        }
        fnv1a(&bytes)
    }
}

/// A schedule decision: kind plus quality in `(0, 1]` (the fraction of the
/// device's issue rate the generated code achieves).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// How the entry was obtained.
    pub kind: ScheduleKind,
    /// Issue efficiency of the generated kernel.
    pub quality: f64,
}

/// A (device-specific) TVM tuning log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningLog {
    device: String,
    #[serde(with = "override_entries")]
    overrides: HashMap<WorkloadKey, Schedule>,
}

/// JSON maps need string keys, so autotuned entries serialize as a list of
/// `(key, schedule)` pairs.
mod override_entries {
    use super::*;
    use serde::{Deserializer, Serializer};

    /// Serializes the override map as a key-sorted list of pairs.
    pub fn serialize<S: Serializer>(
        map: &HashMap<WorkloadKey, Schedule>,
        ser: S,
    ) -> Result<S::Ok, S::Error> {
        #[expect(clippy::disallowed_methods, reason = "sorted by key on the next line")]
        let mut entries: Vec<(WorkloadKey, Schedule)> = map.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_by_key(|(k, _)| (k.kernel, k.stride, k.h_in, k.c_in, k.c_out));
        serde::Serialize::serialize(&entries, ser)
    }

    /// Rebuilds the override map from the serialized pair list.
    pub fn deserialize<'de, D: Deserializer<'de>>(
        de: D,
    ) -> Result<HashMap<WorkloadKey, Schedule>, D::Error> {
        let entries: Vec<(WorkloadKey, Schedule)> = serde::Deserialize::deserialize(de)?;
        Ok(entries.into_iter().collect())
    }
}

impl TuningLog {
    /// The log TVM ships with for a device (tophub model).
    pub fn tophub(device_name: impl Into<String>) -> Self {
        TuningLog {
            device: device_name.into(),
            overrides: HashMap::new(),
        }
    }

    /// Device the log was collected on.
    pub fn device(&self) -> &str {
        &self.device
    }

    /// Number of explicit (autotuned) entries.
    pub fn autotuned_entries(&self) -> usize {
        self.overrides.len()
    }

    /// A stable digest of the log's contents (device plus every override),
    /// used to distinguish differently-tuned TVM instances in memo tables.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(32 + self.overrides.len() * 48);
        bytes.extend_from_slice(self.device.as_bytes());
        #[expect(clippy::disallowed_methods, reason = "sorted by key on the next line")]
        let mut entries: Vec<(&WorkloadKey, &Schedule)> = self.overrides.iter().collect();
        entries.sort_by_key(|(k, _)| (k.kernel, k.stride, k.h_in, k.c_in, k.c_out));
        for (key, schedule) in entries {
            for v in [key.kernel, key.stride, key.h_in, key.c_in, key.c_out] {
                bytes.extend_from_slice(&(v as u64).to_le_bytes());
            }
            bytes.push(match schedule.kind {
                ScheduleKind::Tuned => 0,
                ScheduleKind::PartiallyTuned => 1,
                ScheduleKind::Fallback => 2,
            });
            bytes.extend_from_slice(&schedule.quality.to_bits().to_le_bytes());
        }
        fnv1a(&bytes)
    }

    /// Looks up (or derives) the schedule for a workload.
    ///
    /// Resolution order: explicit autotuned entries, then the deterministic
    /// tophub model — stock sizes (`c_out % 32 == 0`) usually have good
    /// entries but ~10% are mis-tuned; ~15% of arbitrary sizes are
    /// partially tuned; the rest fall back.
    pub fn schedule_for(&self, layer: &ConvLayerSpec) -> Schedule {
        let key = WorkloadKey::of(layer);
        if let Some(s) = self.overrides.get(&key) {
            return *s;
        }
        let seed = key.seed(&self.device);
        if key.c_out.is_multiple_of(32) {
            if unit_f64(splitmix(seed ^ 0xA11CE)) < 0.10 {
                // Mis-tuned stock entry: the log carries a bad config.
                Schedule {
                    kind: ScheduleKind::PartiallyTuned,
                    quality: range_f64(seed ^ 0xBAD, 0.12, 0.25),
                }
            } else {
                Schedule {
                    kind: ScheduleKind::Tuned,
                    quality: range_f64(seed ^ 0x600D, 0.40, 0.92),
                }
            }
        } else if unit_f64(splitmix(seed ^ 0x9A57)) < 0.15 {
            Schedule {
                kind: ScheduleKind::PartiallyTuned,
                quality: range_f64(seed ^ 0x50F7, 0.20, 0.45),
            }
        } else {
            Schedule {
                kind: ScheduleKind::Fallback,
                quality: range_f64(seed ^ 0xFA11, 0.055, 0.18),
            }
        }
    }

    /// Runs a modelled `autotvm` session on one workload, inserting a
    /// high-quality entry. `trials` follows autotvm semantics: more trials,
    /// better (and more stable) schedules; returns the achieved quality.
    pub fn autotune(&mut self, layer: &ConvLayerSpec, trials: usize) -> f64 {
        let key = WorkloadKey::of(layer);
        let seed = key.seed(&self.device) ^ 0x7071;
        // Best-of-`trials` draws from the tuning search space.
        let mut best: f64 = 0.25;
        for t in 0..trials.max(1) as u64 {
            best = best.max(range_f64(splitmix(seed.wrapping_add(t)), 0.25, 0.68));
        }
        // Quantize so logs survive JSON round trips bit-exactly.
        best = (best * 1e6).round() / 1e6;
        // lint: allow(grow) — one override per tuned (device, layer) key; the grid is finite
        self.overrides.insert(
            key,
            Schedule {
                kind: ScheduleKind::Tuned,
                quality: best,
            },
        );
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruneperf_models::resnet50;

    fn l14(c: usize) -> ConvLayerSpec {
        resnet50()
            .layer("ResNet.L14")
            .unwrap()
            .with_c_out(c)
            .unwrap()
    }

    #[test]
    fn stock_sizes_are_usually_tuned() {
        let log = TuningLog::tophub("mali-g72");
        let tuned = (1..=16)
            .map(|i| log.schedule_for(&l14(i * 32)))
            .filter(|s| s.kind == ScheduleKind::Tuned)
            .count();
        assert!(tuned >= 12, "only {tuned}/16 stock sizes tuned");
    }

    #[test]
    fn most_arbitrary_sizes_fall_back() {
        let log = TuningLog::tophub("mali-g72");
        let fallback = (1..=100)
            .filter(|c| c % 32 != 0)
            .map(|c| log.schedule_for(&l14(c)))
            .filter(|s| s.kind == ScheduleKind::Fallback)
            .count();
        assert!(fallback > 60, "only {fallback} fallbacks");
    }

    #[test]
    fn fallback_quality_is_much_worse() {
        let log = TuningLog::tophub("mali-g72");
        for c in 1..=512usize {
            let s = log.schedule_for(&l14(c));
            match s.kind {
                ScheduleKind::Tuned => assert!(s.quality >= 0.40),
                ScheduleKind::PartiallyTuned => assert!((0.12..0.45).contains(&s.quality)),
                ScheduleKind::Fallback => assert!((0.055..0.18).contains(&s.quality)),
            }
        }
    }

    #[test]
    fn deterministic_per_device_but_differs_across_devices() {
        let a = TuningLog::tophub("mali-g72");
        let b = TuningLog::tophub("mali-g72");
        let c = TuningLog::tophub("mali-t628");
        let layer = l14(77);
        assert_eq!(a.schedule_for(&layer), b.schedule_for(&layer));
        assert_ne!(a.schedule_for(&layer), c.schedule_for(&layer));
    }

    #[test]
    fn autotune_overrides_and_improves() {
        let mut log = TuningLog::tophub("mali-g72");
        let layer = l14(77);
        let before = log.schedule_for(&layer);
        assert_eq!(before.kind, ScheduleKind::Fallback);
        let q = log.autotune(&layer, 200);
        assert!(q > 0.55, "200 trials should find a good schedule, got {q}");
        let after = log.schedule_for(&layer);
        assert_eq!(after.kind, ScheduleKind::Tuned);
        assert_eq!(after.quality, q);
        assert_eq!(log.autotuned_entries(), 1);
    }

    #[test]
    fn more_trials_never_hurt() {
        let layer = l14(91);
        let mut few = TuningLog::tophub("mali-g72");
        let mut many = TuningLog::tophub("mali-g72");
        let q_few = few.autotune(&layer, 10);
        let q_many = many.autotune(&layer, 500);
        assert!(q_many >= q_few);
    }

    #[test]
    fn serde_round_trip() {
        let mut log = TuningLog::tophub("mali-g72");
        log.autotune(&l14(77), 50);
        let json = serde_json::to_string(&log).unwrap();
        let back: TuningLog = serde_json::from_str(&json).unwrap();
        assert_eq!(log, back);
    }
}
