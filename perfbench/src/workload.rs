//! What every workload provides to the benchmark loop in `main.rs`.

use crate::span::{SpanId, Trace};
use std::collections::{BTreeMap, BTreeSet};

/// The outcome of one operation: one command-equivalent that generates
/// its inputs, runs, and serializes its report.
pub struct OpOutput {
    /// The report, kept for the untimed finiteness check.
    pub report: Box<dyn serde::Serialize>,
    /// `serde_json::to_string` of the report.
    pub json: String,
    /// Simulated work items: requests (completed plus rejected) on the
    /// serve workloads, strategy points priced on `model-sweep`.
    pub items: u64,
    /// Simulated statistics. Deterministic: a change that only speeds up
    /// the simulator must leave every one of them unchanged.
    pub counts: BTreeMap<&'static str, f64>,
    /// Broken invariants (conservation laws); empty on a correct op.
    pub violations: Vec<String>,
}

/// Per-layer numbers of a traced run, in two maps: host seconds per layer
/// (for the printed record) and the metrics listed in `BENCHMARK.json`.
#[derive(Default)]
pub struct Layers {
    pub seconds: BTreeMap<String, f64>,
    pub metrics: BTreeMap<String, f64>,
}

/// The spans of the traced operations, by span name: each traced op's
/// own spans plus those of the verify pass that followed it.
pub struct OpSpans {
    /// Seconds per span name, one map per traced op.
    pub per_op: Vec<BTreeMap<String, f64>>,
}

impl OpSpans {
    /// Median seconds of span `name` (0 for a name an op never entered).
    pub fn get(&self, name: &str) -> f64 {
        self.median_of(|m| seconds(m, name))
    }

    /// Median over the traced ops of a number computed from each op's
    /// spans, so that a ratio never mixes spans of different ops.
    pub fn median_of(&self, f: impl Fn(&BTreeMap<String, f64>) -> f64) -> f64 {
        median(&self.per_op.iter().map(f).collect::<Vec<_>>())
    }

    /// Every span name a traced op entered.
    pub fn names(&self) -> BTreeSet<&str> {
        self.per_op
            .iter()
            .flat_map(|m| m.keys().map(String::as_str))
            .collect()
    }
}

/// Seconds of span `name` in one op's span map (0 if never entered).
pub fn seconds(spans: &BTreeMap<String, f64>, name: &str) -> f64 {
    spans.get(name).copied().unwrap_or(0.0)
}

pub trait Workload: Sync {
    /// One timed operation. Spans go under `root`.
    fn op(&self, trace: Trace<'_>, root: SpanId) -> Result<OpOutput, String>;

    /// Whether a 1-thread run must reproduce the report byte for byte
    /// (the workload's layers run rayon-parallel).
    fn parallel(&self) -> bool;

    /// Untimed cross-checks against the reference op. With tracing on
    /// they run after every traced op, outside its timed wall, and their
    /// spans go under that op's id: they time the layers the op itself
    /// cannot expose. Otherwise they run once, after the timed loop.
    fn verify(&self, trace: Trace<'_>, reference: &OpOutput) -> Result<Verified, String>;

    /// Per-layer numbers from the traced ops and their verify passes.
    /// Only the layers this workload calls: the others read 0.
    fn layers(&self, ops: &OpSpans, verified: &Verified) -> Layers;
}

/// What the verify pass found.
#[derive(Default)]
pub struct Verified {
    /// Broken invariants; empty when the cross-checks hold.
    pub violations: Vec<String>,
    /// Simulated statistics only the verify pass can see (deterministic);
    /// the benchmark loop adds the reference op's before `layers`.
    pub counts: BTreeMap<&'static str, f64>,
    /// Worker threads the verify pass ran on.
    pub threads: usize,
}

/// FNV-1a over the serialized report: a short fingerprint of the
/// simulated results, compared across commits by the A/B mode.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Paths (`a.b[3].c`) of the non-finite numbers in a report; at most a
/// few, for the failure message.
pub fn non_finite(value: &serde::Value) -> Vec<String> {
    fn walk(v: &serde::Value, path: &mut String, out: &mut Vec<String>) {
        if out.len() >= 4 {
            return;
        }
        match v {
            serde::Value::Num(n) if !n.is_finite() => out.push(path.clone()),
            serde::Value::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    let len = path.len();
                    path.push_str(&format!("[{i}]"));
                    walk(item, path, out);
                    path.truncate(len);
                }
            }
            serde::Value::Object(pairs) => {
                for (k, item) in pairs {
                    let len = path.len();
                    path.push('.');
                    path.push_str(k);
                    walk(item, path, out);
                    path.truncate(len);
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(value, &mut String::new(), &mut out);
    out
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Times `calls` repetitions of `f` in `batches` batches and returns the
/// median nanoseconds per call.
pub fn ns_per_call(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let per_batch: Vec<f64> = (0..batches)
        .map(|_| {
            let start = std::time::Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_batch)
}
