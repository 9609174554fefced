//! In-memory spans for the traced run.
//!
//! A span is recorded by the benchmark around one call into a crate's
//! public function: its name, the request it served (the `RequestId`
//! seq, shared by every span of one request), the span that caused it,
//! and start and end offsets from the recorder's epoch. Spans stay in
//! memory until the run ends and are then written out as CSV.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder; `NO_PARENT` for a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub seq: u64,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder { epoch, spans: Vec::new() }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f`, recording it as span `name` of request `seq`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        seq: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(Span { name, seq, parent, start_ns, end_ns });
        out
    }

    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Start a span whose children are recorded before it ends.
    pub fn open(&mut self, name: &'static str, seq: u64, parent: SpanId) -> SpanId {
        let now = self.now_ns();
        self.push(Span { name, seq, parent, start_ns: now, end_ns: now })
    }

    /// End a span started with [`Recorder::open`].
    pub fn finish(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Append another recorder's spans (same epoch), fixing parent ids.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect()
    }

    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,seq,parent,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { String::new() } else { s.parent.to_string() };
            writeln!(out, "{id},{},{},{parent},{},{}", s.name, s.seq, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}
