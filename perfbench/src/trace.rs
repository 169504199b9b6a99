//! Spans recorded around the benchmark's own calls into each layer: kept
//! in memory, written out as JSONL when the run ends, and folded into a
//! per-layer table of call counts, total and self time.
//!
//! A disabled tracer reads no clock and records nothing, so the
//! end-to-end phase of an untraced run pays nothing for it.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. Spans nest through an explicit stack;
/// `origin` is shared by every thread of a run so their times line up.
pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: u32,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant, thread: u32) -> Tracer {
        Tracer {
            on,
            origin,
            thread,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            thread: self.thread,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if let Some(i) = self.stack.pop() {
            let end = self.now_ns();
            self.spans[i].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations, in microseconds, of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Total time, in seconds, inside spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum::<f64>() / 1e6
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.thread, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Per span name: calls, total time and self time (total minus the
    /// time its child spans cover), sorted by name.
    pub fn table(&self) -> Vec<Row> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let row = rows.entry(s.name).or_insert(Row {
                name: s.name,
                calls: 0,
                total_ms: 0.0,
                self_ms: 0.0,
            });
            row.calls += 1;
            row.total_ms += s.dur_ns() as f64 / 1e6;
            row.self_ms += s.dur_ns().saturating_sub(child_ns[i]) as f64 / 1e6;
        }
        rows.into_values().collect()
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub name: &'static str,
    pub calls: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}
