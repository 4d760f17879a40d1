//! The rule catalog: every check either layer can emit, with a stable id.
//!
//! Ids are load-bearing — they appear in JSON output, CI logs, tests and
//! `DESIGN.md` — so they are append-only: never renumber, never reuse.
//! A retired rule's id (the `PF…` hot-path family, the `SL…` source lint
//! and the `PN…` panic-path rules) stays retired; the ledger in
//! `docs/RULE_CATALOG.md` records why.
//!
//! To add a rule: pick the next free id in the right family (see
//! [`FAMILIES`]), add a [`RuleInfo`] row here, implement the check in
//! [`crate::plan_audit`] / [`crate::network_verify`] /
//! [`crate::trace_audit`] / [`crate::concurrency`] / [`crate::resource`]
//! citing the id, and add at least one test that seeds a violation.

use crate::diag::Severity;

/// Catalog row for one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleInfo {
    /// Stable id (`PA…` = plan audit, `NV…` = network dataflow verifier,
    /// `TA…` = schedule-trace auditor, `CC…` = concurrency discipline,
    /// `RB…` = resource bounds).
    pub id: &'static str,
    /// Default severity of a violation.
    pub severity: Severity,
    /// One-line statement of the invariant.
    pub summary: &'static str,
}

/// ACL GEMM splits `gemm_mm` into main + own-submission remainder kernels
/// exactly when the vec4 column-group parity rule says so (Tables I–IV).
pub const PA001: &str = "PA001";
/// ACL Direct's workgroup equals the Table V divisibility heuristic and
/// edge lanes are predicated off (active accounting).
pub const PA002: &str = "PA002";
/// NDRange extents are positive and `local` divides the padded `global`;
/// exact-tiling kernels divide the raw `global`.
pub const PA003: &str = "PA003";
/// `executed_items >= active_items` and instruction totals match the
/// kernel's padded/active accounting mode.
pub const PA004: &str = "PA004";
/// Job chains are non-empty and every plan binds a positive memory
/// footprint (the §III-C1 interceptor observes one for every kernel).
pub const PA005: &str = "PA005";
/// Staircase step edges are monotone: covered output channels never
/// decrease as the channel count grows (within one algorithm choice).
pub const PA006: &str = "PA006";
/// cuDNN tiles output channels in 32-wide N-tiles with 32-thread blocks,
/// and Winograd is gated to 3×3 stride-1 layers with ≥ 256 input channels.
pub const PA007: &str = "PA007";
/// ACL auto picks GEMM iff the GEMM working set fits the GPU heap
/// (§IV-A2), and the emitted chain matches the choice.
pub const PA008: &str = "PA008";
/// No workgroup exceeds the device's resident-thread capacity.
pub const PA009: &str = "PA009";
/// TVM emits a single fused kernel; tuned schedules use the GEMM-style
/// 4×4 tiling, fallback schedules the direct-style shape with active
/// accounting.
pub const PA010: &str = "PA010";

/// Conv output channels propagate: every convolution's input channels
/// equal the channel count produced by the preceding op.
pub const NV001: &str = "NV001";
/// Spatial geometry propagates: each op's declared input extent matches
/// the propagated extent, and pool windows fit their input.
pub const NV002: &str = "NV002";
/// Residual blocks stay shape-consistent: body output and shortcut output
/// agree in extent and channels, and projections consume the block input.
pub const NV003: &str = "NV003";
/// Pruning-plan keeps are valid: every target layer exists and keeps
/// within `1..=C` of its original output channels.
pub const NV004: &str = "NV004";
/// Paired input-side pruning is applied downstream: the coupled
/// deployment shrinks each consumer's input channels to the producer's
/// kept count.
pub const NV005: &str = "NV005";
/// Reported `total_flops`/`flops_breakdown` equal independently
/// recomputed values for the (possibly pruned) assembly.
pub const NV006: &str = "NV006";
/// Classifier-head geometry: the final FC consumes the flattened feature
/// extent and emits exactly the label count.
pub const NV007: &str = "NV007";
/// Peak per-op working set (activations + conv weights) fits the
/// device's GPU heap.
pub const NV008: &str = "NV008";

/// The workspace lock-acquisition graph is free of multi-lock cycles
/// (no lock-order inversion → no potential deadlock).
pub const CC001: &str = "CC001";
/// No lock guard is held across a call into another lock-taking
/// function — drop the guard (or restructure) before calling out.
pub const CC002: &str = "CC002";
/// No lock guard is held across a parallel fan-out or unwind boundary
/// (`ordered_parallel_map`, `contained_parallel_map`, `catch_unwind`,
/// `spawn`, `scope`).
pub const CC003: &str = "CC003";
/// Lock acquisitions recover from poisoning via
/// `unwrap_or_else(PoisonError::into_inner)` — never a bare
/// `lock().unwrap()`.
pub const CC004: &str = "CC004";
/// `Arc<Mutex<_>>`/`Arc<RwLock<_>>` values cloned into spawned threads
/// carry a `// lock-order:` doc marker stating the acquisition order.
pub const CC005: &str = "CC005";
/// No lock guard is discarded with `let _ =` — the guard drops
/// immediately, so the critical section is empty.
pub const CC006: &str = "CC006";
/// No lock is re-acquired (directly or through calls) while its own
/// guard is still live — a guaranteed self-deadlock with `Mutex`.
pub const CC007: &str = "CC007";

/// No grow-only struct-field collection: a field receiving
/// `push`/`insert`/`extend` somewhere in the workspace must have a
/// reachable `remove`/`pop`/`clear`/`truncate`/eviction site too.
pub const RB001: &str = "RB001";
/// No unbounded channel construction (`channel()`, `unbounded()`) —
/// use a bounded/sync variant so backpressure exists.
pub const RB002: &str = "RB002";
/// Every cache-like struct (`*Cache`, `*Memo`) carries a capacity policy
/// (eviction method, shrink site or capacity-limit field) or a reviewed
/// `lint: allow(cache-bound)` justification.
pub const RB003: &str = "RB003";
/// No self-recursion without a depth/fuel-style bound on the fallible
/// API surface.
pub const RB004: &str = "RB004";

/// Per-core spans are disjoint with non-decreasing start times.
pub const TA001: &str = "TA001";
/// Workgroup conservation: span workgroups per dispatch sum to the
/// kernel's NDRange workgroup count.
pub const TA002: &str = "TA002";
/// `total_us` equals the max span finish time and the aggregate
/// `run_chain` report total.
pub const TA003: &str = "TA003";
/// Utilization lies in (0, 1] and matches busy/(cores × total).
pub const TA004: &str = "TA004";
/// Trace dispatch count and kernel names match the dispatch plan (a
/// two-kernel GEMM split shows exactly two kernels — Figs 3, 14, 15).
pub const TA005: &str = "TA005";
/// No empty or negative spans: positive duration, in-range core index,
/// at least one workgroup.
pub const TA006: &str = "TA006";

/// Every rule either layer can emit.
pub const CATALOG: &[RuleInfo] = &[
    RuleInfo {
        id: PA001,
        severity: Severity::Error,
        summary: "ACL GEMM two-kernel split fires iff the column-group parity rule says so",
    },
    RuleInfo {
        id: PA002,
        severity: Severity::Error,
        summary: "ACL Direct workgroup matches the Table V divisibility heuristic",
    },
    RuleInfo {
        id: PA003,
        severity: Severity::Error,
        summary: "local NDRange dims divide the padded global dims",
    },
    RuleInfo {
        id: PA004,
        severity: Severity::Error,
        summary: "executed_items >= active_items with consistent padded accounting",
    },
    RuleInfo {
        id: PA005,
        severity: Severity::Error,
        summary: "job chains are non-empty with positive memory footprints",
    },
    RuleInfo {
        id: PA006,
        severity: Severity::Error,
        summary: "staircase step edges are monotone in the channel count",
    },
    RuleInfo {
        id: PA007,
        severity: Severity::Error,
        summary: "cuDNN 32-channel N-tiling and Winograd gating hold",
    },
    RuleInfo {
        id: PA008,
        severity: Severity::Error,
        summary: "ACL auto method choice follows the GPU-heap memory rule",
    },
    RuleInfo {
        id: PA009,
        severity: Severity::Error,
        summary: "workgroups fit the device's resident-thread capacity",
    },
    RuleInfo {
        id: PA010,
        severity: Severity::Error,
        summary: "TVM emits a single fused kernel matching its schedule kind",
    },
    RuleInfo {
        id: NV001,
        severity: Severity::Error,
        summary: "conv input channels equal the propagated producer channels",
    },
    RuleInfo {
        id: NV002,
        severity: Severity::Error,
        summary: "spatial extents propagate and pool windows fit their input",
    },
    RuleInfo {
        id: NV003,
        severity: Severity::Error,
        summary: "residual body and shortcut agree in extent and channels",
    },
    RuleInfo {
        id: NV004,
        severity: Severity::Error,
        summary: "pruning keeps target existing layers within 1..=C",
    },
    RuleInfo {
        id: NV005,
        severity: Severity::Error,
        summary: "paired input-side pruning is applied to every consumer",
    },
    RuleInfo {
        id: NV006,
        severity: Severity::Error,
        summary: "reported FLOPs equal independently recomputed values",
    },
    RuleInfo {
        id: NV007,
        severity: Severity::Error,
        summary: "classifier head matches flattened features and label count",
    },
    RuleInfo {
        id: NV008,
        severity: Severity::Error,
        summary: "peak per-op working set fits the device GPU heap",
    },
    RuleInfo {
        id: CC001,
        severity: Severity::Error,
        summary: "the workspace lock-acquisition graph has no multi-lock cycle",
    },
    RuleInfo {
        id: CC002,
        severity: Severity::Warning,
        summary: "no guard held across a call into another lock-taking function",
    },
    RuleInfo {
        id: CC003,
        severity: Severity::Error,
        summary: "no guard held across a parallel fan-out or unwind boundary",
    },
    RuleInfo {
        id: CC004,
        severity: Severity::Error,
        summary: "lock acquisitions recover from poisoning, never lock().unwrap()",
    },
    RuleInfo {
        id: CC005,
        severity: Severity::Warning,
        summary: "Arc<Mutex<_>> clones crossing spawn carry a lock-order: doc",
    },
    RuleInfo {
        id: CC006,
        severity: Severity::Error,
        summary: "no guard discarded with let _ = (empty critical section)",
    },
    RuleInfo {
        id: CC007,
        severity: Severity::Error,
        summary: "no lock re-acquired while its own guard is live",
    },
    RuleInfo {
        id: RB001,
        severity: Severity::Error,
        summary: "no grow-only struct-field collection without a shrink site",
    },
    RuleInfo {
        id: RB002,
        severity: Severity::Warning,
        summary: "no unbounded channel construction",
    },
    RuleInfo {
        id: RB003,
        severity: Severity::Warning,
        summary: "cache-like structs carry a capacity policy or justification",
    },
    RuleInfo {
        id: RB004,
        severity: Severity::Error,
        summary: "no unbounded self-recursion on the fallible API surface",
    },
    RuleInfo {
        id: TA001,
        severity: Severity::Error,
        summary: "per-core spans are disjoint with non-decreasing starts",
    },
    RuleInfo {
        id: TA002,
        severity: Severity::Error,
        summary: "span workgroups per dispatch sum to the NDRange count",
    },
    RuleInfo {
        id: TA003,
        severity: Severity::Error,
        summary: "total_us equals the max span finish and the report total",
    },
    RuleInfo {
        id: TA004,
        severity: Severity::Error,
        summary: "utilization lies in (0,1] and matches busy/(cores*total)",
    },
    RuleInfo {
        id: TA005,
        severity: Severity::Error,
        summary: "trace dispatches match the plan's kernel count and names",
    },
    RuleInfo {
        id: TA006,
        severity: Severity::Error,
        summary: "no empty/negative spans; core index and workgroups in range",
    },
];

/// The rule-id families this catalog may contain, keyed by prefix.
///
/// `FAMILIES` is the single source of truth for the compile-time-checked
/// uniqueness test below: a new family must be registered here before its
/// rules can land in [`CATALOG`].
pub const FAMILIES: &[(&str, &str)] = &[
    ("PA", "plan audit"),
    ("NV", "network dataflow verifier"),
    ("TA", "schedule-trace auditor"),
    ("CC", "concurrency discipline"),
    ("RB", "resource bounds"),
];

/// Looks up a rule's catalog row.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    CATALOG.iter().find(|r| r.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_well_formed() {
        for (i, r) in CATALOG.iter().enumerate() {
            assert!(
                FAMILIES.iter().any(|(p, _)| r.id.starts_with(p)),
                "{} matches no registered family prefix",
                r.id
            );
            assert_eq!(r.id.len(), 5, "{}", r.id);
            assert!(
                r.id[2..].chars().all(|c| c.is_ascii_digit()),
                "{} suffix must be numeric",
                r.id
            );
            for other in &CATALOG[i + 1..] {
                assert_ne!(r.id, other.id);
            }
        }
    }

    #[test]
    fn every_family_has_rules_and_every_rule_a_family() {
        for (prefix, name) in FAMILIES {
            assert!(
                CATALOG.iter().any(|r| r.id.starts_with(prefix)),
                "family {prefix} ({name}) has no rules"
            );
        }
        // Ids within a family are dense from 001 so gaps flag a typo.
        for (prefix, _) in FAMILIES {
            let mut nums: Vec<u32> = CATALOG
                .iter()
                .filter(|r| r.id.starts_with(prefix))
                .map(|r| r.id[2..].parse().expect("numeric suffix"))
                .collect();
            nums.sort_unstable();
            for (i, n) in nums.iter().enumerate() {
                assert_eq!(*n as usize, i + 1, "{prefix} ids must be dense from 001");
            }
        }
    }

    #[test]
    fn lookup_finds_rules() {
        assert_eq!(rule_info(PA001).map(|r| r.severity), Some(Severity::Error));
        assert_eq!(
            rule_info(CC002).map(|r| r.severity),
            Some(Severity::Warning)
        );
        assert!(rule_info("ZZ999").is_none());
    }

    #[test]
    fn at_least_six_plan_rules() {
        // The acceptance floor for paper-derived plan invariants.
        assert!(CATALOG.iter().filter(|r| r.id.starts_with("PA")).count() >= 6);
    }
}
