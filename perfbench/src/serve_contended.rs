//! `serve-contended`: one 18-cell load sweep with deep admission queues.
//!
//! TP2 replicas with paged 16-token KV, schedulers {fifo, sjf, priority}
//! over 3 priority classes, {1, 4} replicas behind the least-outstanding
//! router, rates under, near and far past capacity, a 50%-hot 256-token
//! prefix pool and crash faults on a fixed schedule. Cells stay at
//! `EXACT_MODE_LIMIT` requests, so they price through the memo tables
//! rather than the sealed table.

use crate::span::{SpanId, Trace};
use crate::workload::{median, seconds, Layers, OpOutput, OpSpans, Verified, Workload};
use optimus::prelude::*;
use optimus_serve::{
    load_sweep, ArrivalProcess, FaultSpec, FleetConfig, FleetInstance, FleetReport, KvSpec,
    LengthDist, LoadStrategy, LoadSweepReport, LoadSweepSpec, PrefixSpec, RouterPolicy, Scheduler,
    ServeConfig, SloSpec, TraceSpec, EXACT_MODE_LIMIT,
};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const SCHEDULERS: [Scheduler; 3] = [Scheduler::Fifo, Scheduler::Sjf, Scheduler::Priority];
const REPLICAS: [usize; 2] = [1, 4];
/// Under, near and far past the capacity of one replica.
const RATES: [f64; 3] = [12.0, 48.0, 400.0];
/// The crash schedule is part of the workload, not drawn from the run
/// seed: every run sees the same crash times, so the churn (~27.5k
/// requeues at MTBF 300 s, MTTR 10 s) is the same in every run, while the
/// seed draws the requests. A seeded schedule makes it a lottery whether a
/// crash drains a 9k-deep queue (from 6 to 68k requeues across seeds).
const FAULT_SEED: u64 = 0x5eed;

pub struct ServeContended {
    cluster: ClusterSpec,
    model: Arc<ModelConfig>,
    spec: LoadSweepSpec,
}

impl ServeContended {
    pub fn new(seed: u64) -> Self {
        let strategies = SCHEDULERS
            .iter()
            .flat_map(|&s| {
                REPLICAS.iter().map(move |&r| {
                    LoadStrategy::single(2, Precision::Fp16)
                        .with_kv(KvSpec::paged(16))
                        .with_scheduler(s)
                        .with_replicas(r)
                })
            })
            .collect();
        Self {
            cluster: hw::presets::dgx_a100_hdr_cluster(),
            model: Arc::new(model::presets::llama2_13b()),
            spec: LoadSweepSpec {
                seed,
                requests: EXACT_MODE_LIMIT,
                prompt: LengthDist::Uniform { lo: 50, hi: 400 },
                output: LengthDist::Uniform { lo: 8, hi: 64 },
                rates: RATES.to_vec(),
                strategies,
                slo: SloSpec::default(),
                router: RouterPolicy::LeastOutstanding,
                faults: Some(FaultSpec::crashes(FAULT_SEED, 300.0, 10.0)),
                prefixes: Some(PrefixSpec {
                    pool: 8,
                    tokens: 256,
                    rate: 0.5,
                }),
                priority_classes: 3,
            },
        }
    }

    fn cell_name(strategy: &LoadStrategy, rate: f64) -> String {
        format!(
            "serve.load.cell/{}/r{}/{rate}",
            strategy.scheduler, strategy.replicas
        )
    }
}

impl Workload for ServeContended {
    fn op(&self, trace: Trace<'_>, root: SpanId) -> Result<OpOutput, String> {
        let report = trace.span(root, "serve.load.sweep", |_| {
            load_sweep(&self.cluster, &self.model, &self.spec)
        });
        let json = trace
            .span(root, "report.json", |_| serde_json::to_string(&report))
            .map_err(|e| e.to_string())?;

        let mut violations = Vec::new();
        if !report.infeasible.is_empty() || report.curves.len() != self.spec.strategies.len() {
            violations.push(format!("{} infeasible strategies", report.infeasible.len()));
        }
        let mut counts = BTreeMap::new();
        let mut items = 0;
        for p in report.curves.iter().flat_map(|c| &c.points) {
            if p.completed + p.rejected != self.spec.requests {
                violations.push(format!(
                    "conservation: {} r{} at {}/s completed {} + rejected {} != {}",
                    p.scheduler,
                    p.replicas,
                    p.offered_rate_per_s,
                    p.completed,
                    p.rejected,
                    self.spec.requests
                ));
            }
            items += (p.completed + p.rejected) as u64;
            for (key, value) in [
                ("completed", p.completed),
                ("rejected", p.rejected),
                ("preemptions", p.preemptions),
                ("prefix_hits", p.prefix_hits),
                ("requeues", p.requeues),
            ] {
                *counts.entry(key).or_insert(0.0) += value as f64;
            }
        }
        counts.insert(
            "cells",
            report.curves.iter().map(|c| c.points.len()).sum::<usize>() as f64,
        );
        Ok(OpOutput {
            report: Box::new(report),
            json,
            items,
            counts,
            violations,
        })
    }

    fn parallel(&self) -> bool {
        true
    }

    /// Re-runs every cell through the public per-fleet path, in parallel
    /// like the sweep, timing each one: `load_sweep` does not expose its
    /// cells, so per-cell, per-policy and per-replica-count host time,
    /// and the pass's own parallel wall, come from these spans. Every
    /// cell must reproduce the sweep's point, and every fleet must
    /// conserve requests through its router: routed = requests −
    /// rejected + requeues.
    fn verify(&self, trace: Trace<'_>, reference: &OpOutput) -> Result<Verified, String> {
        let sweep: LoadSweepReport = serde_json::from_str(&reference.json)
            .map_err(|e| format!("the reference report does not parse: {e}"))?;
        let spec = &self.spec;
        let faults = spec.faults.clone().unwrap_or_else(FaultSpec::none);
        let traces: Vec<_> = trace.span(None, "serve.trace.gen", |_| {
            spec.rates
                .iter()
                .map(|&rate| {
                    TraceSpec {
                        seed: spec.seed,
                        requests: spec.requests,
                        arrival: ArrivalProcess::Poisson { rate_per_s: rate },
                        prompt: spec.prompt,
                        output: spec.output,
                        prefixes: spec.prefixes,
                        priority_classes: spec.priority_classes,
                    }
                    .generate()
                })
                .collect()
        });
        let fleets = spec
            .strategies
            .iter()
            .map(|s| {
                let replica = ServeConfig::new(s.tp)
                    .with_precision(s.precision)
                    .with_slo(spec.slo)
                    .with_kv(s.kv)
                    .with_scheduler(s.scheduler);
                let config = FleetConfig::new(s.replicas, s.tp)
                    .with_router(spec.router)
                    .with_replica(replica)
                    .with_faults(faults.clone());
                FleetInstance::new(&self.cluster, Arc::clone(&self.model), config)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let cells: Vec<(usize, usize)> = (0..fleets.len())
            .flat_map(|si| (0..spec.rates.len()).map(move |ri| (si, ri)))
            .collect();
        let reports: Vec<Result<FleetReport, String>> =
            trace.span(None, "serve.load.cells", |_| {
                cells
                    .clone()
                    .into_par_iter()
                    .map(|(si, ri)| {
                        let name = Self::cell_name(&spec.strategies[si], spec.rates[ri]);
                        trace.span(None, &name, |_| {
                            fleets[si].simulate(&traces[ri]).map_err(|e| e.to_string())
                        })
                    })
                    .collect()
            });

        let mut verified = Verified::default();
        let mut availability = Vec::new();
        for ((si, ri), report) in cells.into_iter().zip(reports) {
            let r = report?;
            let name = Self::cell_name(&spec.strategies[si], spec.rates[ri]);
            let requeues = r.availability.requeues;
            let routed: usize = r.routed.iter().sum();
            if routed != spec.requests - r.rejected + requeues {
                verified.violations.push(format!(
                    "{name}: routed {routed} != requests {} - rejected {} + requeues {requeues}",
                    spec.requests, r.rejected
                ));
            }
            let paging = r.paging.unwrap_or_default();
            let point = &sweep.curves[si].points[ri];
            let same = point.completed == r.completed
                && point.rejected == r.rejected
                && point.requeues == requeues
                && point.preemptions == paging.preemptions
                && point.prefix_hits == paging.prefix_hits
                && point.tokens_per_s == r.tokens_per_s;
            if !same {
                verified.violations.push(format!(
                    "{name}: the per-fleet run differs from the sweep's point"
                ));
            }
            let c = &mut verified.counts;
            for replica in &r.per_replica {
                *c.entry("iterations").or_insert(0.0) +=
                    (replica.prefill_iterations + replica.decode_iterations) as f64;
                let peak = c.entry("queue_peak").or_insert(0.0);
                *peak = peak.max(replica.queue.peak_waiting as f64);
            }
            for (key, value) in [
                ("preemptions", paging.preemptions),
                ("prefix_hits", paging.prefix_hits),
                ("prefix_misses", paging.prefix_misses),
                ("requeues", requeues),
                ("routed", routed),
            ] {
                *c.entry(key).or_insert(0.0) += value as f64;
            }
            availability.push(r.availability.availability);
        }
        verified.counts.insert(
            "availability",
            availability.iter().sum::<f64>() / availability.len() as f64,
        );
        Ok(verified)
    }

    /// Cell times come from the verify pass after each traced op; every
    /// figure is computed within one pass, then the median over passes
    /// is taken.
    fn layers(&self, ops: &OpSpans, verified: &Verified) -> Layers {
        fn cells(m: &BTreeMap<String, f64>) -> impl Iterator<Item = (&str, f64)> {
            m.iter()
                .filter_map(|(k, v)| k.strip_prefix("serve.load.cell/").map(|k| (k, *v)))
        }
        let sum_where = |pred: &dyn Fn(&str) -> bool| {
            ops.median_of(|m| cells(m).filter(|(k, _)| pred(k)).map(|(_, v)| v).sum())
        };
        let total = sum_where(&|_| true);
        let threads = verified.threads as f64;
        let c = &verified.counts;
        let hits = c["prefix_hits"];
        let misses = c["prefix_misses"];

        let mut l = Layers::default();
        for s in SCHEDULERS {
            let key = format!("{s}/");
            l.seconds.insert(
                format!("serve.sched.{s}_s"),
                sum_where(&|k| k.starts_with(&key)),
            );
        }
        for r in REPLICAS {
            let key = format!("/r{r}/");
            l.seconds.insert(
                format!("serve.fleet.r{r}_s"),
                sum_where(&|k| k.contains(&key)),
            );
        }
        l.seconds.extend([
            ("serve.trace.gen_s".to_owned(), ops.get("serve.trace.gen")),
            ("serve.engine.loop_s".to_owned(), total),
            (
                "serve.load.cell_p50_s".to_owned(),
                ops.median_of(|m| median(&cells(m).map(|(_, v)| v).collect::<Vec<_>>())),
            ),
            (
                "serve.load.cell_max_s".to_owned(),
                ops.median_of(|m| cells(m).map(|(_, v)| v).fold(0.0, f64::max)),
            ),
        ]);
        l.metrics.extend(l.seconds.clone());
        l.seconds.extend([
            ("serve.load.sweep_s".to_owned(), ops.get("serve.load.sweep")),
            ("serve.load.cells_s".to_owned(), ops.get("serve.load.cells")),
        ]);
        for name in ops
            .names()
            .into_iter()
            .filter(|k| k.starts_with("serve.load.cell/"))
        {
            l.seconds.insert(format!("{name}_s"), ops.get(name));
        }
        let metrics = [
            ("serve.engine.iterations", c["iterations"]),
            (
                "serve.engine.ns_per_iteration",
                total * 1e9 / c["iterations"],
            ),
            (
                "serve.load.parallel_eff",
                ops.median_of(|m| {
                    cells(m).map(|(_, v)| v).sum::<f64>()
                        / (threads * seconds(m, "serve.load.cells"))
                }),
            ),
            ("serve.engine.queue_peak", c["queue_peak"]),
            ("serve.kv.preemptions", c["preemptions"]),
            ("serve.kv.prefix_hits", hits),
            ("serve.kv.prefix_misses", misses),
            ("serve.kv.prefix_hit_ratio", hits / (hits + misses).max(1.0)),
            ("serve.fleet.requeues", c["requeues"]),
            ("serve.fleet.availability", c["availability"]),
        ];
        l.metrics
            .extend(metrics.into_iter().map(|(k, v)| (k.to_owned(), v)));
        l
    }
}
