//! In-memory spans around the benchmark's calls into each layer, written
//! out as a Chrome trace when the traced run ends.

use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation (request, search, pass) the call served.
    pub op: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    /// Starts the next operation; spans opened from now on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// A position in the span list, to select the spans recorded after it.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Durations in milliseconds of the spans named `name` recorded since
    /// `mark`, in order.
    pub fn durations_ms(&self, name: &str, mark: usize) -> Vec<f64> {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self times in milliseconds of the spans named `name` recorded since
    /// `mark`, in order.
    pub fn self_times_ms(&self, name: &str, mark: usize) -> Vec<f64> {
        let selfs = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .skip(mark)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64 / 1e6)
            .collect()
    }

    /// The spans as a Chrome trace (complete events, microseconds).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}{}\n",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.op,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Each span's duration minus the part of it its children cover.
fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut covered: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            covered.sort_unstable();
            let mut total = 0;
            let mut reach = s.start_ns;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    total += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - total
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: String::new(),
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_covered_part_of_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)),  // overlaps its sibling: 10..50 covered once
            span(90, 120, Some(0)), // runs past its parent: only 90..100 counts
            span(12, 14, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 18, 30, 30, 2]);
    }

    #[test]
    fn nested_spans_record_parents_and_ops() {
        let mut t = Tracer::default();
        let op = t.next_op();
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let s = &t.spans;
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert!(s.iter().all(|s| s.op == op));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let own = t.self_times_ms("outer", 0)[0];
        assert!(own <= t.durations_ms("outer", 0)[0]);
        assert!(t.durations_ms("outer", t.mark()).is_empty());
        let chrome = t.to_chrome_json();
        assert!(chrome.contains("\"name\":\"inner\""));
        assert!(chrome.contains("\"parent\":0"));
        let parsed: serde::Value = serde_json::from_str(&chrome).unwrap();
        assert_eq!(
            parsed.get("traceEvents").unwrap().as_array().unwrap().len(),
            2
        );
    }
}
