//! In-memory spans recorded from outside the program, around each call
//! the benchmark makes into a layer's public API.
//!
//! A span has a name, a start and an end (nanoseconds since the recorder
//! was created), the span that caused it, and the id of the operation it
//! belongs to. Spans stay in memory and are written out once, at the end
//! of the run, so recording never does I/O inside a timed operation.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its recorder; `None` when tracing is off or for a
/// span with no parent.
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
struct Span {
    parent: SpanId,
    op: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// The span store of one benchmark process.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A handle recording into this store under operation id `op`.
    pub fn op(&self, op: u64) -> Trace<'_> {
        Trace {
            sink: Some(self),
            op,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking operation")
    }

    /// Seconds spent in spans of operation `op`, summed by span name.
    pub fn seconds_by_name(&self, op: u64) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for s in self.lock().iter().filter(|s| s.op == op) {
            *out.entry(s.name.clone()).or_insert(0.0) +=
                s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9;
        }
        out
    }

    /// Seconds covered by the direct children of operation `op`'s root
    /// span (the span without a parent).
    pub fn child_seconds(&self, op: u64) -> f64 {
        let spans = self.lock();
        let root = spans.iter().position(|s| s.op == op && s.parent.is_none());
        spans
            .iter()
            .filter(|s| s.op == op && root.is_some() && s.parent == root)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.lock().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A cheap, copyable recording handle; [`Trace::OFF`] records nothing.
#[derive(Debug, Clone, Copy)]
pub struct Trace<'a> {
    sink: Option<&'a Recorder>,
    op: u64,
}

impl Trace<'static> {
    /// Tracing off: spans cost one branch.
    pub const OFF: Self = Self { sink: None, op: 0 };
}

impl Trace<'_> {
    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so it can parent its own children.
    pub fn span<R>(&self, parent: SpanId, name: &str, f: impl FnOnce(SpanId) -> R) -> R {
        let Some(rec) = self.sink else {
            return f(None);
        };
        let id = {
            let mut spans = rec.lock();
            spans.push(Span {
                parent,
                op: self.op,
                name: name.to_owned(),
                start_ns: rec.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = rec.now_ns();
        rec.lock()[id].end_ns = end;
        out
    }
}
