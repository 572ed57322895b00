//! `model-sweep`: the analytical stack with no trace or event loop.
//!
//! Tables 1/2/4 and Figs 3–9, then five strategy sweeps: llama2-13b
//! training up to 64 GPUs failure-free, under exponential failures with
//! Young–Daly checkpoints, and under `weibull:0.7` failures with peer and
//! delta tiers plus elastic restart; GPT-175B training up to 1024 GPUs;
//! llama2-70b inference up to 64 GPUs.

use crate::span::{SpanId, Trace};
use crate::workload::{Layers, OpOutput, OpSpans, Verified, Workload};
use optimus::prelude::*;
use optimus_experiments as exp;
use optimus_sweep::{pareto_frontier, SweepEngine, SweepReport, SweepSpace, Workload as Job};
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// One strategy sweep of the op: span name, model, job, search space and
/// resilience options.
struct SweepCase {
    span: &'static str,
    model: ModelConfig,
    job: Job,
    space: SweepSpace,
    checkpoint: CheckpointSpec,
}

pub struct ModelSweep {
    cluster: ClusterSpec,
    cases: Vec<SweepCase>,
}

impl ModelSweep {
    /// The seed draws the per-GPU MTBF of the resilience sweeps from
    /// [40 000, 60 000] s: it moves the results, not the amount of work.
    pub fn new(seed: u64) -> Self {
        let mtbf_s = 40_000.0 + (splitmix(seed) % 20_001) as f64;
        let llama13 = model::presets::llama2_13b;
        let train13 = || Job::training(64, 2048);
        let case = |span, model, job, max_gpus, checkpoint| SweepCase {
            span,
            model,
            job,
            space: SweepSpace::power_of_two(max_gpus),
            checkpoint,
        };
        Self {
            cluster: hw::presets::dgx_a100_hdr_cluster(),
            cases: vec![
                case(
                    "sweep.train",
                    llama13(),
                    train13(),
                    64,
                    CheckpointSpec::none(),
                ),
                case(
                    "sweep.train_exp",
                    llama13(),
                    train13(),
                    64,
                    CheckpointSpec::with_mtbf(mtbf_s),
                ),
                case(
                    "sweep.train_weibull",
                    llama13(),
                    train13(),
                    64,
                    CheckpointSpec::with_mtbf(mtbf_s)
                        .with_process(FailureProcess::Weibull { shape: 0.7 })
                        .with_tiers(vec![CheckpointTier::peer(), CheckpointTier::delta()])
                        .with_elastic(true),
                ),
                case(
                    "sweep.train_175b",
                    model::presets::gpt_175b(),
                    Job::training(1536, 2048),
                    1024,
                    CheckpointSpec::none(),
                ),
                case(
                    "sweep.infer",
                    model::presets::llama2_70b(),
                    Job::inference(8, 512, 128),
                    64,
                    CheckpointSpec::none(),
                ),
            ],
        }
    }
}

fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mean absolute error, percent, of the Table 1 and Table 2 predictions
/// against the reference measurements in `optimus::refdata`.
pub fn ref_error_pct() -> f64 {
    let t1 = exp::table1::run();
    let t2 = exp::table2::run();
    let errors: Vec<f64> = t1
        .iter()
        .map(|r| r.error_percent)
        .chain(
            t2.iter()
                .flat_map(|r| [r.a100_error_percent, r.h100_error_percent]),
        )
        .collect();
    errors.iter().sum::<f64>() / errors.len() as f64
}

/// The experiments of the op, each as (span name, rows as `Debug` text:
/// the experiment row types are not `Serialize`, and `Debug` prints
/// every field, floats to the last digit).
fn experiments(trace: Trace<'_>, root: SpanId) -> Vec<(&'static str, String)> {
    fn run<T: std::fmt::Debug>(
        trace: Trace<'_>,
        root: SpanId,
        name: &'static str,
        f: fn() -> Vec<T>,
    ) -> (&'static str, String) {
        let rows = trace.span(root, name, |_| f());
        (name, format!("{rows:?}"))
    }
    vec![
        run(trace, root, "exp.table1", exp::table1::run),
        run(trace, root, "exp.table2", exp::table2::run),
        run(trace, root, "exp.table4", exp::table4::run),
        run(trace, root, "exp.fig3", exp::fig3::run),
        run(trace, root, "exp.fig4", exp::fig4::run),
        run(trace, root, "exp.fig5", exp::fig5::run),
        run(trace, root, "exp.fig6", exp::fig6::run),
        run(trace, root, "exp.fig7", exp::fig7::run),
        run(trace, root, "exp.fig8", exp::fig8::run),
        run(trace, root, "exp.fig9", exp::fig9::run),
    ]
}

impl Workload for ModelSweep {
    fn op(&self, trace: Trace<'_>, root: SpanId) -> Result<OpOutput, String> {
        let experiments = experiments(trace, root);
        let mut sweeps: Vec<(&'static str, SweepReport)> = Vec::new();
        let mut violations = Vec::new();
        let mut counts = BTreeMap::new();
        let mut items = 0;
        for case in &self.cases {
            let enumerated = trace.span(root, "sweep.enumerate", |_| {
                case.space
                    .enumerate_with_memory(&case.model, &self.cluster, &case.job)
                    .len()
            });
            let engine = SweepEngine::new(&self.cluster).with_checkpoint(case.checkpoint.clone());
            let report = trace.span(root, case.span, |_| {
                engine.sweep(&case.model, &case.job, &case.space)
            });
            let frontier = trace.span(root, "sweep.frontier", |_| {
                pareto_frontier(&report.evaluated).len()
            });
            let priced = report.evaluated.len() + report.rejected.len();
            if priced != enumerated || report.evaluated.is_empty() || frontier == 0 {
                violations.push(format!(
                    "{}: {} evaluated + {} rejected of {enumerated} enumerated, frontier {frontier}",
                    case.span,
                    report.evaluated.len(),
                    report.rejected.len()
                ));
            }
            items += priced as u64;
            *counts.entry("points").or_insert(0.0) += priced as f64;
            *counts.entry("evaluated").or_insert(0.0) += report.evaluated.len() as f64;
            *counts.entry("frontier").or_insert(0.0) += frontier as f64;
            sweeps.push((case.span, report));
        }
        let value = trace.span(root, "report.json", |_| {
            let value = Value::Object(vec![
                (
                    "experiments".to_owned(),
                    Value::Object(
                        experiments
                            .into_iter()
                            .map(|(k, v)| (k.to_owned(), Value::Str(v)))
                            .collect(),
                    ),
                ),
                (
                    "sweeps".to_owned(),
                    Value::Object(
                        sweeps
                            .iter()
                            .map(|(k, r)| ((*k).to_owned(), r.to_value()))
                            .collect(),
                    ),
                ),
            ]);
            serde_json::to_string(&value).map(|json| (value, json))
        });
        let (value, json) = value.map_err(|e| e.to_string())?;
        Ok(OpOutput {
            report: Box::new(value),
            json,
            items,
            counts,
            violations,
        })
    }

    fn parallel(&self) -> bool {
        true
    }

    /// Every sweep reuses the pruning pass's memory footprints; pricing
    /// the same points through `SweepEngine::evaluate`, which derives
    /// each footprint afresh, must give the same report.
    fn verify(&self, trace: Trace<'_>, _: &OpOutput) -> Result<Verified, String> {
        let mut verified = Verified::default();
        for case in &self.cases {
            let engine = SweepEngine::new(&self.cluster).with_checkpoint(case.checkpoint.clone());
            let swept = engine.sweep(&case.model, &case.job, &case.space);
            let points = case.space.enumerate(&case.model, &self.cluster, &case.job);
            let evaluated = trace.span(None, "verify.evaluate", |_| {
                engine.evaluate(&case.model, &case.job, points)
            });
            if swept != evaluated {
                verified.violations.push(format!(
                    "{}: SweepEngine::sweep differs from SweepEngine::evaluate",
                    case.span
                ));
            }
        }
        Ok(verified)
    }

    fn layers(&self, ops: &OpSpans, verified: &Verified) -> Layers {
        let mut l = Layers::default();
        let sweeps = self.cases.iter().map(|c| c.span);
        for name in sweeps.chain(["sweep.enumerate", "sweep.frontier"]) {
            l.seconds.insert(format!("{name}_s"), ops.get(name));
        }
        let named = ["exp.fig6", "exp.table2", "exp.fig9"];
        let rest = ops.median_of(|m| {
            m.iter()
                .filter(|(k, _)| k.starts_with("exp.") && !named.contains(&k.as_str()))
                .map(|(_, v)| v)
                .sum()
        });
        for name in named {
            l.seconds.insert(format!("{name}_s"), ops.get(name));
        }
        l.seconds.insert("exp.rest_s".to_owned(), rest);
        l.metrics.extend(l.seconds.clone());
        for name in ops.names().into_iter().filter(|k| k.starts_with("exp.")) {
            l.seconds.insert(format!("{name}_s"), ops.get(name));
        }

        let weibull = ops.get("sweep.train_weibull");
        l.metrics.extend([
            ("sweep.points".to_owned(), verified.counts["points"]),
            (
                "train.resilience.share".to_owned(),
                (weibull - ops.get("sweep.train_exp")) / weibull,
            ),
        ]);
        l
    }
}
