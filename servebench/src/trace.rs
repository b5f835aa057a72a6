//! In-memory spans for the traced run. Each span holds a name, start and
//! end (nanoseconds since the run's origin), its parent span and the
//! request it belongs to. A request's root span takes the request id as its
//! own id, so children recorded before the root still point at it. Spans
//! are written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer.
pub struct Tracer {
    origin: Instant,
    /// Distinguishes child ids across threads.
    tag: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, tag: u64) -> Tracer {
        Tracer {
            origin,
            tag,
            next: 0,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A request's root span; its id is the request id.
    pub fn record_root(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        let span = Span {
            id: req,
            parent: 0,
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    /// A child of request `req`'s root span.
    pub fn record_child(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        self.next += 1;
        let span = Span {
            id: (1 << 63) | (self.tag << 48) | self.next,
            parent: req,
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    /// Times `f` as the root span of request `req`.
    pub fn root<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record_root(name, req, start, Instant::now());
        out
    }

    /// Times `f` as a child span of request `req`.
    pub fn child<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record_child(name, req, start, Instant::now());
        out
    }
}

/// Durations in nanoseconds of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
