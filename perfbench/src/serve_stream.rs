//! `serve-stream`: one million Poisson requests through one reserved-KV
//! FIFO instance, priced by the sealed decode table.
//!
//! Trace generation, the seal and the engine loop do all the work;
//! scheduler search, paging, routing and the analytical sweep do none.

use crate::span::{SpanId, Trace};
use crate::workload::{seconds, Layers, OpOutput, OpSpans, Verified, Workload};
use optimus::prelude::*;
use optimus_serve::{ArrivalProcess, LengthDist, ServeConfig, ServeInstance, TraceSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

pub const REQUESTS: usize = 1_000_000;

pub struct ServeStream {
    cluster: ClusterSpec,
    model: Arc<ModelConfig>,
    config: ServeConfig,
    spec: TraceSpec,
}

impl ServeStream {
    pub fn new(seed: u64) -> Self {
        Self {
            cluster: hw::presets::dgx_a100_hdr_cluster(),
            model: Arc::new(model::presets::llama2_13b()),
            config: ServeConfig::new(2),
            spec: TraceSpec {
                seed,
                requests: REQUESTS,
                arrival: ArrivalProcess::Poisson { rate_per_s: 500.0 },
                prompt: LengthDist::Uniform { lo: 50, hi: 400 },
                output: LengthDist::Uniform { lo: 8, hi: 64 },
                prefixes: None,
                priority_classes: 1,
            },
        }
    }
}

impl Workload for ServeStream {
    /// The command path: `ServeInstance::new` + `simulate`, which seals
    /// the decode table lazily from the trace's bounds.
    fn op(&self, trace: Trace<'_>, root: SpanId) -> Result<OpOutput, String> {
        let requests = trace.span(root, "serve.trace.gen", |_| self.spec.generate());
        let instance = trace
            .span(root, "serve.instance.new", |_| {
                ServeInstance::new(&self.cluster, Arc::clone(&self.model), self.config)
            })
            .map_err(|e| e.to_string())?;
        let report = trace
            .span(root, "serve.engine.simulate", |_| {
                instance.simulate(&requests)
            })
            .map_err(|e| e.to_string())?;
        let json = trace
            .span(root, "report.json", |_| serde_json::to_string(&report))
            .map_err(|e| e.to_string())?;
        // `simulate` sealed the table; `seal` is idempotent and returns it.
        let table = instance.seal(1, 1).map_err(|e| e.to_string())?;

        let mut violations = Vec::new();
        if report.completed + report.rejected != REQUESTS {
            violations.push(format!(
                "conservation: completed {} + rejected {} != {REQUESTS} requests",
                report.completed, report.rejected
            ));
        }
        let counts = BTreeMap::from([
            ("completed", report.completed as f64),
            ("rejected", report.rejected as f64),
            ("prefill_iterations", report.prefill_iterations as f64),
            ("decode_iterations", report.decode_iterations as f64),
            ("queue_peak", report.queue.peak_waiting as f64),
            ("sealed_entries", table.entries() as f64),
            ("sealed_max_batch", table.batch_grid().max() as f64),
            ("sealed_max_kv", table.kv_grid().max() as f64),
        ]);
        Ok(OpOutput {
            items: (report.completed + report.rejected) as u64,
            report: Box::new(report),
            json,
            counts,
            violations,
        })
    }

    fn parallel(&self) -> bool {
        false
    }

    /// Seals a fresh instance at the bounds the op's `simulate` sealed
    /// at, read back from its table, so the seal inside `simulate` can be
    /// timed as its own call: the same grid, built by the same code.
    fn verify(&self, trace: Trace<'_>, reference: &OpOutput) -> Result<Verified, String> {
        let c = &reference.counts;
        let instance = ServeInstance::new(&self.cluster, Arc::clone(&self.model), self.config)
            .map_err(|e| e.to_string())?;
        let entries = trace
            .span(None, "infer.sealed.seal", |_| {
                instance
                    .seal(c["sealed_max_batch"] as usize, c["sealed_max_kv"] as usize)
                    .map(|t| t.entries())
            })
            .map_err(|e| e.to_string())?;
        let mut verified = Verified::default();
        if entries as f64 != c["sealed_entries"] {
            verified.violations.push(format!(
                "a seal at the op's bounds has {entries} entries, the op's {}",
                c["sealed_entries"]
            ));
        }
        Ok(verified)
    }

    fn layers(&self, ops: &OpSpans, verified: &Verified) -> Layers {
        let gen = ops.get("serve.trace.gen");
        let seal = ops.get("infer.sealed.seal");
        // The engine loop is `simulate` without the seal it starts with.
        let loop_s = ops
            .median_of(|m| seconds(m, "serve.engine.simulate") - seconds(m, "infer.sealed.seal"));
        let c = &verified.counts;
        let iterations = c["prefill_iterations"] + c["decode_iterations"];
        let mut l = Layers::default();
        l.seconds.extend([
            ("serve.trace.gen_s".to_owned(), gen),
            (
                "serve.instance.new_s".to_owned(),
                ops.get("serve.instance.new"),
            ),
            (
                "serve.engine.simulate_s".to_owned(),
                ops.get("serve.engine.simulate"),
            ),
            ("infer.sealed.seal_s".to_owned(), seal),
            ("serve.engine.loop_s".to_owned(), loop_s),
        ]);
        l.metrics.extend([
            ("serve.trace.gen_s".to_owned(), gen),
            ("infer.sealed.seal_s".to_owned(), seal),
            ("infer.sealed.entries".to_owned(), c["sealed_entries"]),
            ("serve.engine.loop_s".to_owned(), loop_s),
            ("serve.engine.iterations".to_owned(), iterations),
            (
                "serve.engine.ns_per_iteration".to_owned(),
                loop_s * 1e9 / iterations,
            ),
            ("serve.engine.queue_peak".to_owned(), c["queue_peak"]),
        ]);
        l
    }
}
