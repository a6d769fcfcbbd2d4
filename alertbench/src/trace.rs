//! In-memory spans for the traced run.
//!
//! A span records one timed call (or, for primitives far below a
//! microsecond, one batch of `calls` identical calls, so the clock reads
//! do not swamp what they time): its name, start, end, the span that
//! caused it and the request it belongs to. Spans stay in memory until
//! the run ends and are then written out as JSON lines.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, e.g. `hve.match_token`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span serves (spans of one request share it).
    pub request: u64,
    /// Identical calls the span covers.
    pub calls: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    requests: u64,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            requests: 0,
        }
    }

    /// A fresh request id.
    pub fn request(&mut self) -> u64 {
        self.requests += 1;
        self.requests
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request,
            calls: 1,
        });
        self.spans.len() - 1
    }

    /// Closes span `idx`, recording how many calls it covered.
    pub fn close(&mut self, idx: usize, calls: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.calls = calls.max(1);
    }

    /// Times `f` as one span covering `calls` calls.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        calls: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.open(name, parent, request);
        let out = f();
        self.close(idx, calls);
        out
    }

    /// Duration of span `idx`, ns.
    pub fn ns(&self, idx: usize) -> f64 {
        let span = &self.spans[idx];
        span.end_ns.saturating_sub(span.start_ns) as f64
    }

    /// Nanoseconds per call of every closed span named `name`.
    pub fn per_call_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns > 0)
            .map(|s| (s.end_ns - s.start_ns) as f64 / s.calls as f64)
            .collect()
    }

    /// Total nanoseconds and calls of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns > 0)
            .fold((0.0, 0), |(ns, calls), s| {
                (ns + (s.end_ns - s.start_ns) as f64, calls + s.calls)
            })
    }

    /// Self time of span `idx`: its duration minus the part of it its
    /// child spans cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let span = &self.spans[idx];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| s.end_ns.min(span.end_ns) - s.start_ns.max(span.start_ns))
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// Recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}, \"calls\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.calls
            )?;
        }
        out.flush()
    }
}
