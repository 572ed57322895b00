//! Performance-per-TCO study — the paper's §7 future work, implemented:
//! compare GPU generations on cost per unit of training/inference work.

use optimus::energy::{CostModel, EnergyModel};
use optimus::memory::RecomputeMode;
use optimus::prelude::*;

/// One row of the training-TCO comparison.
#[derive(Debug, Clone)]
pub struct TrainingTcoRow {
    /// System label.
    pub system: &'static str,
    /// Time per batch, seconds.
    pub time_s: f64,
    /// Mean per-GPU power, watts.
    pub power_w: f64,
    /// Cost per batch, USD.
    pub usd_per_batch: f64,
    /// Samples per dollar (performance per TCO).
    pub samples_per_usd: f64,
}

/// One row of the inference-TCO comparison.
#[derive(Debug, Clone)]
pub struct InferenceTcoRow {
    /// System label.
    pub system: &'static str,
    /// Request latency, milliseconds.
    pub latency_ms: f64,
    /// Cost per request, USD.
    pub usd_per_request: f64,
    /// Generated tokens per dollar.
    pub tokens_per_usd: f64,
}

/// Training TCO: GPT-175B, batch 256 on 64 GPUs of each generation.
#[must_use]
pub fn training() -> Vec<TrainingTcoRow> {
    let systems: [(&'static str, ClusterSpec, Precision, EnergyModel, CostModel); 3] = [
        (
            "A100-HDR",
            hw::presets::dgx_a100_hdr_cluster(),
            Precision::Fp16,
            EnergyModel::a100_class(),
            CostModel::a100_system(),
        ),
        (
            "H100-NDR",
            hw::presets::dgx_h100_ndr_cluster(),
            Precision::Fp8,
            EnergyModel::h100_class(),
            CostModel::h100_system(),
        ),
        (
            "B200-NVS",
            hw::presets::dgx_b200_nvs_cluster(),
            Precision::Fp4,
            EnergyModel::b200_class(),
            CostModel::b200_system(),
        ),
    ];
    let model = model::presets::gpt_175b();
    let parallelism = Parallelism::new(4, 8, 2).with_sp(true);
    let gpus = parallelism.total_gpus();
    let batch = 256;

    systems
        .into_iter()
        .map(|(label, cluster, precision, energy_model, cost_model)| {
            let cfg = TrainingConfig::new(model.clone(), batch, 2048, parallelism)
                .with_precision(precision)
                .with_recompute(RecomputeMode::Selective);
            let report = TrainingEstimator::new(&cluster)
                .estimate(&cfg)
                .expect("valid config");
            let energy = energy_model
                .scaled_for_precision(precision)
                .training_energy(&report, gpus);
            let cost = cost_model.training_cost(&report, &energy, gpus);
            TrainingTcoRow {
                system: label,
                time_s: report.time_per_batch.secs(),
                power_w: energy.mean_power(report.time_per_batch).watts() / gpus as f64,
                usd_per_batch: cost.total_usd,
                samples_per_usd: cost.perf_per_usd(batch as f64),
            }
        })
        .collect()
}

/// Inference TCO: Llama2-13B serving on one GPU of each generation.
#[must_use]
pub fn inference() -> Vec<InferenceTcoRow> {
    let systems: [(&'static str, ClusterSpec, EnergyModel, CostModel); 2] = [
        (
            "A100",
            hw::presets::dgx_a100_hdr_cluster(),
            EnergyModel::a100_class(),
            CostModel::a100_system(),
        ),
        (
            "H100",
            hw::presets::dgx_h100_ndr_cluster(),
            EnergyModel::h100_class(),
            CostModel::h100_system(),
        ),
    ];
    systems
        .into_iter()
        .map(|(label, cluster, energy_model, cost_model)| {
            let cfg =
                InferenceConfig::nvidia_llama_benchmark(optimus::model::presets::llama2_13b(), 1);
            let report = InferenceEstimator::new(&cluster)
                .estimate(&cfg)
                .expect("fp16");
            let energy = energy_model.inference_energy(&report, 1);
            let cost = cost_model.inference_cost(&report, &energy, 1);
            InferenceTcoRow {
                system: label,
                latency_ms: report.total.millis(),
                usd_per_request: cost.total_usd,
                tokens_per_usd: cost.perf_per_usd(200.0),
            }
        })
        .collect()
}

/// Renders both studies.
#[must_use]
pub fn render() -> String {
    let mut out = String::new();
    out.push_str("## Training TCO: GPT-175B, batch 256 on 64 GPUs\n");
    let mut rows = vec![vec![
        "system".to_owned(),
        "time_s".to_owned(),
        "W/GPU".to_owned(),
        "usd_per_batch".to_owned(),
        "samples_per_usd".to_owned(),
    ]];
    for r in training() {
        rows.push(vec![
            r.system.to_owned(),
            format!("{:.1}", r.time_s),
            format!("{:.0}", r.power_w),
            format!("{:.4}", r.usd_per_batch),
            format!("{:.0}", r.samples_per_usd),
        ]);
    }
    out.push_str(&crate::markdown_table(&rows));

    out.push_str("\n## Inference TCO: Llama2-13B, 200+200 tokens, one GPU\n");
    let mut rows = vec![vec![
        "system".to_owned(),
        "latency_ms".to_owned(),
        "usd_per_request".to_owned(),
        "tokens_per_usd".to_owned(),
    ]];
    for r in inference() {
        rows.push(vec![
            r.system.to_owned(),
            format!("{:.0}", r.latency_ms),
            format!("{:.6}", r.usd_per_request),
            format!("{:.0}", r.tokens_per_usd),
        ]);
    }
    out.push_str(&crate::markdown_table(&rows));
    out
}

/// CSV rows of the training study.
#[must_use]
pub fn csv() -> Vec<Vec<String>> {
    let mut out = vec![vec![
        "system".to_owned(),
        "time_s".to_owned(),
        "usd_per_batch".to_owned(),
        "samples_per_usd".to_owned(),
    ]];
    for r in training() {
        out.push(vec![
            r.system.to_owned(),
            format!("{:.2}", r.time_s),
            format!("{:.4}", r.usd_per_batch),
            format!("{:.1}", r.samples_per_usd),
        ]);
    }
    out
}
