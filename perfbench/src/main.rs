//! The Optimus benchmark binary: one process runs one workload as a
//! closed loop — one client issuing operations back to back on a rayon
//! pool pinned to the machine's thread count — and prints one JSON record
//! as its last line. `perfbench/run.py` builds this binary, runs it and
//! turns the record into the benchmark result.
//!
//! ```text
//! perfbench --workload serve-stream|serve-contended|model-sweep
//!           --seed N --seconds S --trace 0|1 [--spans PATH] [--setup-only]
//! ```
//!
//! Set-up is everything from process start to the first timed operation:
//! building the inputs and pools, and one warm-up operation whose report
//! is the reference every later operation must reproduce byte for byte.

mod model_sweep;
mod probes;
mod serve_contended;
mod serve_stream;
mod span;
mod workload;

use span::{Recorder, Trace};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{digest, median, non_finite, Layers, OpOutput, OpSpans, Verified, Workload};

/// Fewest timed operations per run, whatever `--seconds` says.
const MIN_OPS: u64 = 4;
/// Operation id of the layer-probe spans.
const PROBE_OP: u64 = u64::MAX - 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<std::path::PathBuf>,
    setup_only: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = Self {
            workload: String::new(),
            seed: 1,
            seconds: f64::NAN,
            trace: false,
            spans: None,
            setup_only: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            if flag == "--setup-only" {
                args.setup_only = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => args.trace = value == "1",
                "--spans" => args.spans = Some(value.into()),
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        if !(args.seconds.is_finite() && args.seconds > 0.0) {
            return Err("--seconds must be given, and positive".to_owned());
        }
        Ok(args)
    }
}

fn workload(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "serve-stream" => Box::new(serve_stream::ServeStream::new(seed)),
        "serve-contended" => Box::new(serve_contended::ServeContended::new(seed)),
        "model-sweep" => Box::new(model_sweep::ModelSweep::new(seed)),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Runs one operation on `pool` under a root span; a panic is a failure.
fn run_op(
    pool: &rayon::ThreadPool,
    w: &dyn Workload,
    trace: Trace<'_>,
) -> Result<OpOutput, String> {
    pool.install(|| {
        catch_unwind(AssertUnwindSafe(|| {
            trace.span(None, "op", |root| w.op(trace, root))
        }))
        .map_err(|p| format!("panicked: {}", panic_message(&*p)))?
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_owned())
}

/// Runs the workload's verify pass on `pool`; a panic or a broken
/// cross-check is a failure.
fn run_verify(
    pool: &rayon::ThreadPool,
    w: &dyn Workload,
    trace: Trace<'_>,
    reference: &OpOutput,
) -> Result<Verified, String> {
    let verified = pool.install(|| {
        catch_unwind(AssertUnwindSafe(|| w.verify(trace, reference)))
            .map_err(|p| format!("panicked: {}", panic_message(&*p)))?
    })?;
    if verified.violations.is_empty() {
        Ok(verified)
    } else {
        Err(verified.violations.join("; "))
    }
}

/// Why an operation failed, if it did: an error or panic, a broken
/// conservation law, a non-finite number, or a report that differs from
/// the reference.
fn failure(out: &Result<OpOutput, String>, reference: Option<&OpOutput>) -> Option<String> {
    let out = match out {
        Ok(out) => out,
        Err(e) => return Some(e.clone()),
    };
    if let Some(v) = out.violations.first() {
        return Some(v.clone());
    }
    let bad = non_finite(&out.report.to_value());
    if !bad.is_empty() {
        return Some(format!("non-finite numbers at {}", bad.join(", ")));
    }
    match reference {
        Some(r) if r.json != out.json => Some(format!(
            "report differs from the reference (digest {} vs {})",
            digest(out.json.as_bytes()),
            digest(r.json.as_bytes())
        )),
        _ => None,
    }
}

/// Peak resident memory of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn num(x: f64) -> serde::Value {
    serde::Value::Num(x)
}

fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, serde::Value)>) -> serde::Value {
    serde::Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Per-layer numbers of a traced run: medians of the traced ops' spans
/// (with their verify passes), the workload's own layers, tracing
/// overhead and coverage, and the layer probes.
fn traced_layers(
    w: &dyn Workload,
    recorder: &Recorder,
    traced: &[(u64, f64)],
    untraced_walls: &[f64],
    verified: &Verified,
    reference: &OpOutput,
) -> Layers {
    let per_op: Vec<BTreeMap<String, f64>> = traced
        .iter()
        .map(|(id, _)| recorder.seconds_by_name(*id))
        .collect();
    let ops = OpSpans { per_op };
    let traced_s = median(&traced.iter().map(|(_, w)| *w).collect::<Vec<_>>());
    let coverage: Vec<f64> = traced
        .iter()
        .map(|(id, wall)| 100.0 * recorder.child_seconds(*id) / wall)
        .collect();
    let untraced_s = median(untraced_walls);
    let mut layers = w.layers(&ops, verified);
    let json_s = ops.get("report.json");
    layers.seconds.extend([
        ("report.json_s".to_owned(), json_s),
        ("op.traced_wall_s".to_owned(), traced_s),
        ("op.untraced_wall_s".to_owned(), untraced_s),
    ]);
    layers.metrics.extend([
        ("report.json_s".to_owned(), json_s),
        ("report.json_bytes".to_owned(), reference.json.len() as f64),
        (
            "trace.overhead_pct".to_owned(),
            100.0 * (traced_s - untraced_s) / untraced_s,
        ),
        ("trace.coverage_pct".to_owned(), median(&coverage)),
    ]);
    layers.metrics.extend(probes::run(recorder.op(PROBE_OP)));
    layers
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = match workload(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("building a pool cannot fail");
    let serial = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("building a pool cannot fail");

    let warmup = run_op(&pool, &*w, Trace::OFF);
    let setup_s = start.elapsed().as_secs_f64();
    // A fresh process after one op: what one command costs in memory.
    let setup_rss = peak_rss_mib();
    if args.setup_only {
        let record = object([("setup_s", num(setup_s)), ("setup_rss_mib", num(setup_rss))]);
        println!("{}", serde_json::to_string(&record).expect("json"));
        return ExitCode::SUCCESS;
    }

    let mut attempted = 1_u64;
    let mut failures: Vec<String> = failure(&warmup, None).into_iter().collect();
    let reference = match warmup {
        Ok(r) if failures.is_empty() => r,
        _ => {
            eprintln!(
                "perfbench: the warm-up operation failed: {}",
                failures.join("; ")
            );
            let record = object([
                ("attempted", num(1.0)),
                ("failed", num(1.0)),
                (
                    "failures",
                    serde::Value::Array(failures.into_iter().map(serde::Value::Str).collect()),
                ),
            ]);
            println!("{}", serde_json::to_string(&record).expect("json"));
            return ExitCode::SUCCESS;
        }
    };

    // The timed closed loop. With tracing on, every other op is traced,
    // so the traced and untraced walls come from the same run, and every
    // traced op is followed by a verify pass under its id, outside its
    // wall.
    let recorder = Recorder::new(start);
    let mut walls = Vec::new();
    let mut traced: Vec<(u64, f64)> = Vec::new();
    let mut verified: Option<Verified> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut op = 0_u64;
    while op < MIN_OPS || Instant::now() < deadline {
        op += 1;
        let is_traced = args.trace && op.is_multiple_of(2);
        let trace = if is_traced {
            recorder.op(op)
        } else {
            Trace::OFF
        };
        let t = Instant::now();
        let out = run_op(&pool, &*w, trace);
        let wall = t.elapsed().as_secs_f64();
        attempted += 1;
        match failure(&out, Some(&reference)) {
            Some(f) => failures.push(format!("op {op}: {f}")),
            None if is_traced => {
                attempted += 1;
                match run_verify(&pool, &*w, trace, &reference) {
                    Ok(v) => {
                        traced.push((op, wall));
                        verified = Some(v);
                    }
                    Err(e) => failures.push(format!("verify after op {op}: {e}")),
                }
            }
            None => walls.push(wall),
        }
    }

    // Peak memory after the timed loop, before the untimed checks below
    // (which hold extra state): growth across many ops shows here.
    let loop_rss = peak_rss_mib();

    // Untimed checks: thread-count invariance, then the workload's own
    // cross-checks if no traced op ran them.
    if w.parallel() {
        attempted += 1;
        if let Some(f) = failure(&run_op(&serial, &*w, Trace::OFF), Some(&reference)) {
            failures.push(format!("1-thread pool: {f}"));
        }
    }
    let verified = match verified {
        Some(v) => v,
        None => {
            attempted += 1;
            run_verify(&pool, &*w, Trace::OFF, &reference).unwrap_or_else(|e| {
                failures.push(format!("verify: {e}"));
                Verified::default()
            })
        }
    };
    let mut counts = reference.counts.clone();
    counts.extend(verified.counts);
    let verified = Verified {
        threads,
        counts,
        ..verified
    };
    let failed = failures.len() as u64;

    let mut sim: Vec<(String, serde::Value)> = vec![
        (
            "digest".to_owned(),
            serde::Value::Str(digest(reference.json.as_bytes())),
        ),
        (
            "ref_error_pct".to_owned(),
            num(model_sweep::ref_error_pct()),
        ),
    ];
    sim.extend(
        verified
            .counts
            .iter()
            .map(|(k, v)| ((*k).to_owned(), num(*v))),
    );

    let mut record = vec![
        ("workload", serde::Value::Str(args.workload.clone())),
        ("seed", num(args.seed as f64)),
        ("threads", num(threads as f64)),
        ("setup_s", num(setup_s)),
        ("setup_rss_mib", num(setup_rss)),
        ("loop_rss_mib", num(loop_rss)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        (
            "failures",
            serde::Value::Array(failures.into_iter().map(serde::Value::Str).collect()),
        ),
        (
            "wall_s",
            serde::Value::Array(walls.iter().copied().map(num).collect()),
        ),
        ("items_per_op", num(reference.items as f64)),
        ("sim", object(sim)),
    ];

    // Per-layer numbers only describe a run whose every op and check passed.
    if args.trace && failed == 0 && !traced.is_empty() && !walls.is_empty() {
        let layers = traced_layers(&*w, &recorder, &traced, &walls, &verified, &reference);
        if let Some(path) = &args.spans {
            if let Err(e) = recorder.write_jsonl(path) {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
            }
        }
        record.push((
            "traced_wall_s",
            serde::Value::Array(traced.iter().map(|(_, w)| num(*w)).collect()),
        ));
        record.push((
            "layer_seconds",
            object(layers.seconds.into_iter().map(|(k, v)| (k, num(v)))),
        ));
        record.push((
            "per_layer",
            object(layers.metrics.into_iter().map(|(k, v)| (k, num(v)))),
        ));
    }
    println!("{}", serde_json::to_string(&object(record)).expect("json"));
    ExitCode::SUCCESS
}
