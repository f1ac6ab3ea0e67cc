//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each layer's public
//! functions; they stay in memory and are written out once, when the run ends.

use crate::Args;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval: what ran, when, and which span (and request) caused it.
struct Span {
    id: usize,
    parent: Option<usize>,
    request: u64,
    name: &'static str,
    start: Duration,
    end: Duration,
}

/// Collects spans relative to one clock origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a completed span from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
        id
    }

    /// Runs `f` inside a span and returns its result with the span's duration.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, request, start, end);
        (out, end - start)
    }

    /// Opens a parent span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, None, request, now, now)
    }

    /// Sets the end of a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Writes every span to `<out-dir>/trace-<workload>-seed<n>.json` as one JSON array
    /// (times in microseconds from the origin). A failed write is reported, not fatal.
    pub fn save(&self, args: &Args) {
        let path = args
            .out_dir
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.id,
                s.request,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
}
