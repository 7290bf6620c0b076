//! The benchmark's own span recorder.
//!
//! Spans wrap calls into the program's public functions, from outside: the
//! program itself is not instrumented. They are kept in memory and written
//! once, as JSON lines, when the traced run ends. A disabled tracer (the
//! untraced runs) records nothing and costs one branch per span.

use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a span as the parent of later spans (0 = the root).
pub type SpanId = u64;

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Edges the wrapped call streamed (0 when it streams none).
    pub edges: u64,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans from any thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id to pass to nested spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        edges: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now_ns();
        let out = f(id);
        let end = self.now_ns();
        self.spans
            .lock()
            .expect("span list poisoned by a panicking worker")
            .push(SpanRecord {
                id,
                parent,
                name,
                start_ns: start,
                end_ns: end,
                edges,
            });
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking worker")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Per-span self time: the span's duration minus the part of its interval
/// that its children cover (children of a parallel phase overlap, so the
/// covered part is the union of their intervals, not the sum).
pub fn self_times(spans: &[SpanRecord]) -> HashMap<SpanId, u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Σ self time ÷ Σ edges over every span named `name` (ns per edge), or
/// `None` when no such span streamed an edge.
pub fn ns_per_edge(spans: &[SpanRecord], selfs: &HashMap<SpanId, u64>, name: &str) -> Option<f64> {
    let (ns, edges) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(ns, e), s| (ns + selfs[&s.id], e + s.edges));
    (edges > 0).then(|| ns as f64 / edges as f64)
}

/// Σ self time over every span named `name`, in nanoseconds.
pub fn self_ns(spans: &[SpanRecord], selfs: &HashMap<SpanId, u64>, name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs[&s.id])
        .sum()
}

/// Write every span as one JSON line tagged with the workload and seed.
pub fn write_jsonl(path: &Path, spans: &[SpanRecord], workload: &str, seed: u64) -> io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"edges\":{},\"workload\":\"{}\",\"seed\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.edges, workload, seed
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: SpanId, parent: SpanId, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: "x",
            start_ns: start,
            end_ns: end,
            edges: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            rec(1, 0, 0, 100),
            rec(2, 1, 10, 60),
            rec(3, 1, 20, 70),
            rec(4, 1, 90, 120),
        ];
        let selfs = self_times(&spans);
        // Children cover [10, 70) and [90, 100) of the parent.
        assert_eq!(selfs[&1], 100 - 60 - 10);
        assert_eq!(selfs[&2], 50);
    }
}
