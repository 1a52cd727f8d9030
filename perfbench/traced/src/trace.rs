//! In-memory spans: recorded around calls into each layer's public
//! functions, kept in a preallocated buffer, written out as JSON lines
//! once the pass is over.

use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: usize = usize::MAX;
/// No point: a span that belongs to the whole pass.
pub const NO_POINT: usize = usize::MAX;

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: usize,
    pub point: usize,
    pub thread: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span sink shared by every worker of one pass.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose buffer holds `capacity` spans before it grows, so
    /// recording inside the measured region does not allocate.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id.
    pub fn open(&self, name: &'static str, parent: usize, point: usize, thread: usize) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        spans.push(Span {
            name,
            parent,
            point,
            thread,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span buffer lock poisoned")[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span; `f` receives the span id to parent children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: usize,
        point: usize,
        thread: usize,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = self.open(name, parent, point, thread);
        let value = f(id);
        self.close(id);
        value
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer lock poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in spans.iter().enumerate() {
            let parent = if span.parent == ROOT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            let point = if span.point == NO_POINT {
                "null".to_string()
            } else {
                span.point.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"point\":{point},\"thread\":{}}}",
                span.name, span.start_ns, span.end_ns, span.thread
            )?;
        }
        out.flush()
    }
}
