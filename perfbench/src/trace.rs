//! In-memory span recording for traced runs.
//!
//! A span is one timed call into a layer: a name, start and end on the
//! run's clock, the span that enclosed it, and the request (or
//! evaluation) it belongs to. Spans are kept in memory and written out
//! as JSON lines when the run ends. A span's self time is its duration
//! minus the time its children cover.

use kg_serve::json::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `sampling.draw` or `tier1.tcp`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Request or evaluation the span belongs to.
    pub request: u64,
}

/// Records spans of one thread; nested `open`/`close` pairs set parents.
/// A recorder past its capacity drops further spans, so a long traced
/// run cannot exhaust memory; callers that need totals keep their own
/// accumulators.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    capacity: usize,
}

/// Handle of an open span ([`Recorder::close`] ends it).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Recorder {
    /// A recorder keeping at most `capacity` spans, timed from `epoch`.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            capacity,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span at `at` under the innermost open span.
    pub fn open(&mut self, name: &'static str, request: u64, at: Instant) -> Open {
        if self.spans.len() >= self.capacity {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns(at),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Recorder::open`] at `at`.
    pub fn close(&mut self, open: Open, at: Instant) {
        let Open(Some(idx)) = open else { return };
        let end = self.ns(at);
        self.spans[idx].end_ns = end;
        if let Some(pos) = self.stack.iter().rposition(|&i| i == idx) {
            self.stack.truncate(pos);
        }
    }

    /// Record a closed span from `start` to `end` under the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let open = self.open(name, request, start);
        self.close(open, end);
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: duration minus the time its direct children
/// cover. Children of one parent never overlap (they come from one
/// thread), so their durations add up.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    for span in spans {
        if let Some(p) = span.parent {
            let child = span.end_ns.saturating_sub(span.start_ns);
            own[p] = own[p].saturating_sub(child);
        }
    }
    own
}

/// Write every recorder's spans as JSON lines (`thread` is the
/// recorder's position; `parent` indexes spans of the same thread).
pub fn write_jsonl(path: &Path, recorders: &[Recorder]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, recorder) in recorders.iter().enumerate() {
        for span in &recorder.spans {
            let line = Json::Obj(vec![
                ("thread".into(), Json::Num(thread as f64)),
                ("name".into(), Json::Str(span.name.to_string())),
                ("start_ns".into(), Json::Num(span.start_ns as f64)),
                ("end_ns".into(), Json::Num(span.end_ns as f64)),
                (
                    "parent".into(),
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                // A string: trial seeds use all 64 bits, beyond what a
                // JSON number carries exactly.
                ("request".into(), Json::Str(span.request.to_string())),
            ]);
            writeln!(out, "{line}")?;
        }
    }
    out.flush()
}
