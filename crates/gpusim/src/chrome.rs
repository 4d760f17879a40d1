//! Chrome-trace-format export for simulator traces and reports.
//!
//! Renders [`ChainTrace`](crate::ChainTrace) spans and
//! [`ChainReport`](crate::ChainReport) kernels as Chrome Trace Event
//! Format JSON (the `{"traceEvents": [...]}` flavour) so whole runs can
//! be opened in `chrome://tracing` / Perfetto. All timestamps are
//! *virtual* microseconds from the deterministic simulator — rendering
//! is a pure function of the trace, so output is byte-identical across
//! runs and worker counts.
//!
//! Events are kept deliberately minimal: `X` (complete) events for
//! spans, `M` (metadata) events for process/thread names, and string or
//! integer `args`. Values are hand-rendered in a fixed field order, the
//! same idiom used by the chaos and analysis JSON reports.

use crate::{ChainReport, ChainTrace};

/// One Chrome Trace Event Format event.
///
/// Only the event shapes the exporter emits are modelled: complete
/// (`ph:"X"`) spans and metadata (`ph:"M"`) records. Construct with
/// [`ChromeEvent::complete`], [`ChromeEvent::process_name`] or
/// [`ChromeEvent::thread_name`], then attach `args` with
/// [`ChromeEvent::arg_str`] / [`ChromeEvent::arg_num`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    name: String,
    cat: String,
    ph: char,
    ts_us: f64,
    dur_us: Option<f64>,
    pid: u64,
    tid: u64,
    /// `(key, pre-rendered JSON value)` pairs in insertion order.
    args: Vec<(String, String)>,
}

impl ChromeEvent {
    /// A complete (`ph:"X"`) event spanning `[ts_us, ts_us + dur_us)`.
    pub fn complete(name: &str, cat: &str, ts_us: f64, dur_us: f64, pid: u64, tid: u64) -> Self {
        ChromeEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'X',
            ts_us,
            dur_us: Some(dur_us),
            pid,
            tid,
            args: Vec::new(),
        }
    }

    /// A `process_name` metadata event labelling `pid` in the viewer.
    pub fn process_name(pid: u64, name: &str) -> Self {
        ChromeEvent {
            name: "process_name".to_string(),
            cat: "__metadata".to_string(),
            ph: 'M',
            ts_us: 0.0,
            dur_us: None,
            pid,
            tid: 0,
            args: vec![("name".to_string(), json_string(name))],
        }
    }

    /// A `thread_name` metadata event labelling `(pid, tid)` in the viewer.
    pub fn thread_name(pid: u64, tid: u64, name: &str) -> Self {
        ChromeEvent {
            name: "thread_name".to_string(),
            cat: "__metadata".to_string(),
            ph: 'M',
            ts_us: 0.0,
            dur_us: None,
            pid,
            tid,
            args: vec![("name".to_string(), json_string(name))],
        }
    }

    /// Attaches a string argument (shown in the viewer's detail pane).
    pub fn arg_str(mut self, key: &str, value: &str) -> Self {
        // lint: allow(grow) — event builder: a few args per trace event, serialized and dropped
        self.args.push((key.to_string(), json_string(value)));
        self
    }

    /// Attaches a numeric argument rendered with `Display` (integers stay
    /// integers; floats use Rust's shortest round-trip form).
    pub fn arg_num<N: std::fmt::Display>(mut self, key: &str, value: N) -> Self {
        self.args.push((key.to_string(), value.to_string()));
        self
    }

    /// Event name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Thread lane the event renders on.
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// Start timestamp, virtual µs.
    pub fn ts_us(&self) -> f64 {
        self.ts_us
    }

    /// Duration for complete events, virtual µs.
    pub fn dur_us(&self) -> Option<f64> {
        self.dur_us
    }

    fn render(&self, out: &mut String) {
        out.push_str("{\"name\": ");
        out.push_str(&json_string(&self.name));
        out.push_str(", \"cat\": ");
        out.push_str(&json_string(&self.cat));
        out.push_str(&format!(", \"ph\": \"{}\"", self.ph));
        out.push_str(&format!(", \"ts\": {}", self.ts_us));
        if let Some(dur) = self.dur_us {
            out.push_str(&format!(", \"dur\": {dur}"));
        }
        out.push_str(&format!(", \"pid\": {}, \"tid\": {}", self.pid, self.tid));
        if !self.args.is_empty() {
            out.push_str(", \"args\": {");
            for (i, (k, v)) in self.args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_string(k));
                out.push_str(": ");
                out.push_str(v);
            }
            out.push('}');
        }
        out.push('}');
    }
}

/// Renders events as a Chrome Trace Event Format JSON document.
///
/// Field order, spacing and number formatting are fixed, so equal event
/// lists render to byte-identical documents.
pub fn render_trace(events: &[ChromeEvent]) -> String {
    let mut out = String::from("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
    for (i, ev) in events.iter().enumerate() {
        out.push_str("    ");
        ev.render(&mut out);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders `s` as a quoted JSON string literal: quotes, backslashes,
/// `\n`, `\r` and `\t` get their short escapes and every other control
/// character becomes `\u00XX`. Every hand-rendered JSON document in the
/// workspace escapes its strings through this one function.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl ChainTrace {
    /// Converts the per-core schedule into Chrome trace events.
    ///
    /// Each simulated core becomes a thread lane (`tid` = core index);
    /// every [`TraceSpan`](crate::TraceSpan) becomes one complete event
    /// shifted by `offset_us`, carrying its workgroup count as an arg.
    /// Metadata (process/thread names) is *not* emitted here so several
    /// chains can share one set of lanes — callers emit it once via
    /// [`ChromeEvent::process_name`] / [`ChromeEvent::thread_name`].
    pub fn chrome_events(&self, pid: u64, offset_us: f64) -> Vec<ChromeEvent> {
        self.spans()
            .iter()
            .map(|s| {
                ChromeEvent::complete(
                    &s.kernel,
                    "kernel",
                    offset_us + s.start_us,
                    s.end_us - s.start_us,
                    pid,
                    s.core as u64,
                )
                .arg_num("workgroups", s.workgroups)
            })
            .collect()
    }
}

impl ChainReport {
    /// Converts per-kernel timing into Chrome trace events on one lane.
    ///
    /// Kernels appear back-to-back (dispatch gaps stay visible as idle
    /// time) with instruction counts and energy attached as args. Useful
    /// when only the aggregate report is available — span-level traces
    /// come from [`ChainTrace::chrome_events`].
    pub fn chrome_events(&self, pid: u64, tid: u64, offset_us: f64) -> Vec<ChromeEvent> {
        self.kernels()
            .iter()
            .map(|k| {
                ChromeEvent::complete(
                    &k.name,
                    "kernel",
                    offset_us + k.start_us,
                    k.end_us - k.start_us,
                    pid,
                    tid,
                )
                .arg_num("arith", k.arith_instructions)
                .arg_num("mem", k.mem_instructions)
                .arg_num("workgroups", k.workgroups)
                .arg_num("energy_uj", k.energy_uj)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Device, Engine, JobChain, KernelDesc};

    fn chain() -> JobChain {
        let k = KernelDesc::builder("gemm_mm")
            .global([640, 1, 1])
            .local([32, 1, 1])
            .arith_per_item(1000)
            .build();
        JobChain::from_kernels(vec![k])
    }

    #[test]
    fn trace_events_cover_all_spans() {
        let d = Device::mali_g72_hikey970();
        let trace = Engine::new(&d).trace_chain(&chain());
        let events = trace.chrome_events(1, 0.0);
        assert_eq!(events.len(), trace.spans().len());
        assert!(events.iter().all(|e| e.name() == "gemm_mm"));
    }

    #[test]
    fn report_events_match_kernels() {
        let d = Device::mali_g72_hikey970();
        let report = Engine::new(&d).run_chain(&chain());
        let events = report.chrome_events(0, 7, 10.0);
        assert_eq!(events.len(), report.kernels().len());
        assert_eq!(events[0].tid(), 7);
        assert!(events[0].ts_us() >= 10.0);
    }

    #[test]
    fn render_is_valid_and_stable() {
        let events = vec![
            ChromeEvent::process_name(0, "pruneperf"),
            ChromeEvent::thread_name(0, 0, "core 0"),
            ChromeEvent::complete("k \"q\"", "kernel", 1.5, 2.25, 0, 0).arg_num("workgroups", 4),
        ];
        let a = render_trace(&events);
        let b = render_trace(&events);
        assert_eq!(a, b);
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("\\\"q\\\""));
        assert!(a.contains("\"ph\": \"X\""));
        assert!(a.contains("\"dur\": 2.25"));
        let parsed: serde::Value = serde_json::from_str(&a).expect("valid JSON");
        assert!(parsed.get("traceEvents").is_some());
    }

    #[test]
    fn json_string_escapes_quotes_backslashes_and_controls() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\r\t"), "\"\\r\\t\"");
        assert_eq!(json_string("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
        assert_eq!(json_string("μs ✓"), "\"μs ✓\"");
        assert_eq!(json_string(""), "\"\"");
    }

    #[test]
    fn empty_event_list_renders_empty_array() {
        let doc = render_trace(&[]);
        let parsed: serde::Value = serde_json::from_str(&doc).expect("valid JSON");
        let events = parsed.get("traceEvents").and_then(|v| v.as_array());
        assert_eq!(events.map(|a| a.len()), Some(0));
    }

    #[test]
    fn offset_shifts_all_events() {
        let d = Device::jetson_tx2();
        let trace = Engine::new(&d).trace_chain(&chain());
        let base = trace.chrome_events(0, 0.0);
        let shifted = trace.chrome_events(0, 100.0);
        for (a, b) in base.iter().zip(&shifted) {
            assert!((b.ts_us() - a.ts_us() - 100.0).abs() < 1e-9);
            assert_eq!(a.dur_us(), b.dur_us());
        }
    }
}
