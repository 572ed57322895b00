//! Scaling analyses beyond the paper's figures: training strong scaling
//! (the §5.2 insight that the compute/communication ratio drives the
//! trend) and the inference batch sweep behind §6.1's
//! throughput-vs-latency statement.

use optimus::memory::RecomputeMode;
use optimus::prelude::*;

/// One point of the training strong-scaling study.
#[derive(Debug, Clone)]
pub struct StrongScalingRow {
    /// Total GPUs.
    pub gpus: usize,
    /// Parallelism label.
    pub config: String,
    /// Time per (fixed global) batch, seconds.
    pub time_s: f64,
    /// Speedup over the smallest system.
    pub speedup: f64,
    /// Parallel efficiency: speedup / (gpus ratio).
    pub efficiency: f64,
    /// Communication share of the batch time.
    pub comm_share: f64,
}

/// Strong scaling: GPT-22B, fixed global batch 32, 8 → 256 A100s.
#[must_use]
pub fn training_strong_scaling() -> Vec<StrongScalingRow> {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let model = model::presets::gpt_22b();
    // Grow DP while TP stays in-node and PP covers the 48 layers.
    let configs: Vec<Parallelism> = vec![
        Parallelism::new(1, 8, 1),
        Parallelism::new(2, 8, 1),
        Parallelism::new(4, 8, 1),
        Parallelism::new(8, 8, 1),
        Parallelism::new(16, 8, 1),
        Parallelism::new(32, 8, 1),
    ];
    let est = TrainingEstimator::new(&cluster);
    let mut rows = Vec::new();
    let mut base: Option<(usize, f64)> = None;
    for p in configs {
        let cfg = TrainingConfig::new(model.clone(), 32, 2048, p.with_sp(true))
            .with_recompute(RecomputeMode::Selective);
        let Ok(report) = est.estimate(&cfg) else {
            continue; // batch no longer divides the DP degree
        };
        let gpus = p.total_gpus();
        let time_s = report.time_per_batch.secs();
        let (g0, t0) = *base.get_or_insert((gpus, time_s));
        let speedup = t0 / time_s;
        rows.push(StrongScalingRow {
            gpus,
            config: p.to_string(),
            time_s,
            speedup,
            efficiency: speedup / (gpus as f64 / g0 as f64),
            comm_share: report.breakdown.communication().secs() / time_s,
        });
    }
    rows
}

/// One point of the inference batch sweep.
#[derive(Debug, Clone)]
pub struct BatchSweepRow {
    /// Serving batch size.
    pub batch: usize,
    /// Request latency, milliseconds.
    pub latency_ms: f64,
    /// System throughput, generated tokens per second.
    pub tokens_per_sec: f64,
    /// KV-cache footprint at the final context, GB.
    pub kv_cache_gb: f64,
}

/// Batch sweep: Llama2-13B on one A100, 200 + 200 tokens.
#[must_use]
pub fn inference_batch_sweep() -> Vec<BatchSweepRow> {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let est = InferenceEstimator::new(&cluster);
    [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .map(|batch| {
            let cfg = InferenceConfig::new(model::presets::llama2_13b(), batch, 200, 200, 1);
            let r = est.estimate(&cfg).expect("fp16");
            BatchSweepRow {
                batch,
                latency_ms: r.total.millis(),
                tokens_per_sec: (batch * 200) as f64 / r.total.secs(),
                kv_cache_gb: r.memory.kv_cache.gb(),
            }
        })
        .collect()
}

/// Renders both studies.
#[must_use]
pub fn render() -> String {
    let mut out = String::new();
    out.push_str("## Training strong scaling (GPT-22B, batch 32, A100-HDR)\n");
    let mut rows = vec![vec![
        "gpus".to_owned(),
        "config".to_owned(),
        "time_s".to_owned(),
        "speedup".to_owned(),
        "efficiency".to_owned(),
        "comm_share".to_owned(),
    ]];
    for r in training_strong_scaling() {
        rows.push(vec![
            r.gpus.to_string(),
            r.config.clone(),
            format!("{:.2}", r.time_s),
            format!("{:.2}", r.speedup),
            format!("{:.2}", r.efficiency),
            format!("{:.0}%", 100.0 * r.comm_share),
        ]);
    }
    out.push_str(&crate::markdown_table(&rows));

    out.push_str("\n## Inference batch sweep (Llama2-13B, 1 x A100)\n");
    let mut rows = vec![vec![
        "batch".to_owned(),
        "latency_ms".to_owned(),
        "tokens_per_s".to_owned(),
        "kv_cache_gb".to_owned(),
    ]];
    for r in inference_batch_sweep() {
        rows.push(vec![
            r.batch.to_string(),
            format!("{:.0}", r.latency_ms),
            format!("{:.0}", r.tokens_per_sec),
            format!("{:.2}", r.kv_cache_gb),
        ]);
    }
    out.push_str(&crate::markdown_table(&rows));
    out
}

/// CSV rows of the strong-scaling study.
#[must_use]
pub fn csv() -> Vec<Vec<String>> {
    let mut out = vec![vec![
        "gpus".to_owned(),
        "time_s".to_owned(),
        "efficiency".to_owned(),
    ]];
    for r in training_strong_scaling() {
        out.push(vec![
            r.gpus.to_string(),
            format!("{:.3}", r.time_s),
            format!("{:.3}", r.efficiency),
        ]);
    }
    out
}
