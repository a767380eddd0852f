//! In-memory spans for the traced run.
//!
//! A span is a name, a start and an end (nanoseconds since the run's
//! epoch), the span that caused it, and the request it belongs to. Spans
//! are recorded by the benchmark around its own calls into each layer,
//! kept in memory, and written out when the run ends. A layer's number is
//! its **self time**: the span's duration minus what its child spans
//! cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

/// A single thread's span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes `open` (which must be the innermost open span), renaming it
    /// when the outcome decides the name (e.g. a fetch's hit/miss class).
    pub fn end_as(&mut self, open: Open, name: &'static str) {
        let end = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.0), "spans must close innermost first");
        let span = &mut self.spans[open.0];
        span.end_ns = end;
        span.name = name;
    }

    pub fn end(&mut self, open: Open) {
        let name = self.spans[open.0].name;
        self.end_as(open, name);
    }

    /// Times `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, request);
        let out = f();
        self.end(open);
        out
    }

    /// The recorded spans (drains the tracer).
    pub fn into_spans(self) -> Spans {
        Spans { all: self.spans }
    }
}

/// Spans of one or more threads (parent indices stay per-thread valid
/// because each thread's list is appended whole, with indices offset).
#[derive(Default)]
pub struct Spans {
    all: Vec<Span>,
}

impl Spans {
    /// Appends another thread's spans, re-basing its parent indices.
    pub fn extend(&mut self, other: Spans) {
        let base = self.all.len();
        self.all.extend(other.all.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.all.len()
    }

    /// Self time (ns) of every span, grouped by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.all.len()];
        for span in &self.all {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, children) in self.all.iter().zip(child_ns) {
            let own = span.end_ns.saturating_sub(span.start_ns);
            out.entry(span.name)
                .or_default()
                .push(own.saturating_sub(children) as f64);
        }
        out
    }

    /// Tab-separated: index, name, start_ns, end_ns, parent (or -1),
    /// request id.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.all.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}
