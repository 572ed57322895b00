//! Ablation studies over the design choices DESIGN.md calls out:
//! attention implementation, collective algorithm, pipeline schedule, and
//! the DRAM-utilization model.

use optimus::collective::{Collective, CommModel};
use optimus::hw::{presets, DeviceCalibration};
use optimus::memory::{training_memory, RecomputeMode, TrainingMemorySpec};
use optimus::model::{graph, GraphParams};
use optimus::prelude::*;
use optimus::roofline::RooflineModel;

/// FlashAttention vs. materialized attention: one GPT-7B layer's forward
/// pass on A100 across sequence lengths.
#[derive(Debug, Clone, Copy)]
pub struct FlashRow {
    /// Sequence length.
    pub seq: usize,
    /// Standard-attention layer time, milliseconds.
    pub standard_ms: f64,
    /// FlashAttention layer time, milliseconds.
    pub flash_ms: f64,
    /// Standard-attention DRAM traffic, MiB.
    pub standard_dram_mib: f64,
    /// FlashAttention DRAM traffic, MiB.
    pub flash_dram_mib: f64,
}

impl FlashRow {
    /// Speedup of flash over standard.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.standard_ms / self.flash_ms
    }
}

/// Runs the flash-vs-standard sweep (§1.1's IO-aware-attention trade-off).
#[must_use]
pub fn flash_attention() -> Vec<FlashRow> {
    let device = presets::a100_sxm_80gb();
    let roofline = RooflineModel::new(&device);
    let model = model::presets::gpt_7b();

    [2048usize, 4096, 8192, 16384, 32768]
        .into_iter()
        .map(|seq| {
            let mut times = [0.0f64; 2];
            let mut drams = [0.0f64; 2];
            for (i, flash) in [false, true].into_iter().enumerate() {
                let p = GraphParams::prefill(1, seq, 1, Precision::Fp16).with_flash(flash);
                for op in graph::layer_forward_ops(&model, &p) {
                    let cost = op.cost(&roofline, Precision::Fp16).unwrap();
                    times[i] += cost.total().millis();
                    drams[i] += cost.dram_traffic().mib();
                }
            }
            FlashRow {
                seq,
                standard_ms: times[0],
                flash_ms: times[1],
                standard_dram_mib: drams[0],
                flash_dram_mib: drams[1],
            }
        })
        .collect()
}

/// Ring vs. double-binary-tree all-reduce across message sizes (8 ranks,
/// NVLink3) — the Eq. 3 / Eq. 4 trade-off.
#[derive(Debug, Clone, Copy)]
pub struct CollectiveRow {
    /// Message volume, bytes.
    pub volume_bytes: f64,
    /// Ring time, microseconds.
    pub ring_us: f64,
    /// Tree time, microseconds.
    pub tree_us: f64,
}

/// Runs the collective-algorithm ablation.
#[must_use]
pub fn collective_algorithms() -> Vec<CollectiveRow> {
    let link = optimus::hw::nettech::NvlinkGen::Gen3.link();
    [1e4, 1e5, 1e6, 1e7, 5e7, 1e8]
        .into_iter()
        .map(|volume| {
            let v = Bytes::new(volume);
            CollectiveRow {
                volume_bytes: volume,
                ring_us: CommModel::Ring
                    .time(Collective::AllReduce, v, 8, &link)
                    .micros(),
                tree_us: CommModel::Tree
                    .time(Collective::AllReduce, v, 8, &link)
                    .micros(),
            }
        })
        .collect()
}

/// Pipeline-schedule ablation: GPT-175B (64 GPUs) under GPipe, 1F1B, and
/// interleaved 1F1B.
#[derive(Debug, Clone)]
pub struct ScheduleRow {
    /// Schedule label.
    pub schedule: String,
    /// Time per batch, seconds.
    pub time_s: f64,
    /// Bubble time, seconds.
    pub bubble_s: f64,
    /// Peak activation memory, GB.
    pub activations_gb: f64,
}

/// Runs the schedule ablation.
#[must_use]
pub fn schedules() -> Vec<ScheduleRow> {
    let cluster = presets::dgx_a100_hdr_cluster();
    let model = model::presets::gpt_175b();
    let parallelism = Parallelism::new(1, 8, 8);
    [
        PipelineSchedule::GPipe,
        PipelineSchedule::OneFOneB,
        PipelineSchedule::interleaved(2),
        PipelineSchedule::interleaved(4),
    ]
    .into_iter()
    .map(|schedule| {
        let cfg = TrainingConfig::new(model.clone(), 64, 2048, parallelism)
            .with_recompute(RecomputeMode::Full {
                checkpoints_per_stage: None,
            })
            .with_schedule(schedule);
        let report = TrainingEstimator::new(&cluster)
            .estimate(&cfg)
            .expect("valid config");
        let memory = training_memory(
            &model,
            &TrainingMemorySpec {
                batch: 64,
                seq: 2048,
                parallelism,
                schedule,
                precision: Precision::Fp16,
                recompute: RecomputeMode::None,
            },
        )
        .expect("divides evenly");
        ScheduleRow {
            schedule: schedule.to_string(),
            time_s: report.time_per_batch.secs(),
            bubble_s: report.breakdown.bubble.secs(),
            activations_gb: memory.activations.gb(),
        }
    })
    .collect()
}

/// DRAM-utilization-model ablation: Table 2 accuracy under the varied
/// (size-dependent) curve vs. a constant factor — the Fig. 3 comparison
/// carried to the end-to-end level.
#[derive(Debug, Clone, Copy)]
pub struct UtilizationRow {
    /// Constant factor used for the simplified model (`None` = varied).
    pub constant: Option<f64>,
    /// Mean Table 2 relative error on A100, percent.
    pub mean_error_percent: f64,
}

/// Runs the utilization-model ablation over the single-GPU Table 2 rows
/// (multi-GPU rows mix in network effects).
#[must_use]
pub fn dram_utilization_modes() -> Vec<UtilizationRow> {
    let rows: Vec<_> = optimus::refdata::table2()
        .into_iter()
        .filter(|r| r.tp == 1)
        .collect();
    let mut out = Vec::new();
    for constant in [None, Some(0.82), Some(0.5)] {
        let mut acc = presets::a100_sxm_80gb();
        if let Some(c) = constant {
            acc = acc.with_calibration(
                DeviceCalibration::datacenter_gpu().with_constant_dram_utilization(Ratio::new(c)),
            );
        }
        let node = optimus::hw::NodeSpec::new(acc, 8, optimus::hw::nettech::NvlinkGen::Gen3.link());
        let cluster = presets::single_node_cluster("ablate", node);
        let mut err = 0.0;
        for row in &rows {
            let cfg = InferenceConfig::nvidia_llama_benchmark(
                model::presets::by_name(row.model).expect("refdata names a preset"),
                row.tp,
            );
            let pred = InferenceEstimator::new(&cluster)
                .estimate(&cfg)
                .expect("fp16")
                .total
                .millis();
            err += optimus::relative_error_percent(pred, row.t_nvidia_a100_ms);
        }
        out.push(UtilizationRow {
            constant,
            mean_error_percent: err / rows.len() as f64,
        });
    }
    out
}

/// All four ablations rendered as one report.
#[must_use]
pub fn render() -> String {
    let mut out = String::new();

    out.push_str("## FlashAttention vs. standard attention (GPT-7B layer, A100)\n");
    let mut rows = vec![vec![
        "seq".to_owned(),
        "standard_ms".to_owned(),
        "flash_ms".to_owned(),
        "speedup".to_owned(),
        "standard_dram_mib".to_owned(),
        "flash_dram_mib".to_owned(),
    ]];
    for r in flash_attention() {
        rows.push(vec![
            r.seq.to_string(),
            format!("{:.2}", r.standard_ms),
            format!("{:.2}", r.flash_ms),
            format!("{:.2}", r.speedup()),
            format!("{:.0}", r.standard_dram_mib),
            format!("{:.0}", r.flash_dram_mib),
        ]);
    }
    out.push_str(&crate::markdown_table(&rows));

    out.push_str("\n## Ring vs. double-binary-tree all-reduce (8 ranks, NVLink3)\n");
    let mut rows = vec![vec![
        "volume_bytes".to_owned(),
        "ring_us".to_owned(),
        "tree_us".to_owned(),
        "winner".to_owned(),
    ]];
    for r in collective_algorithms() {
        rows.push(vec![
            format!("{:.0}", r.volume_bytes),
            format!("{:.1}", r.ring_us),
            format!("{:.1}", r.tree_us),
            if r.ring_us <= r.tree_us {
                "ring"
            } else {
                "tree"
            }
            .to_owned(),
        ]);
    }
    out.push_str(&crate::markdown_table(&rows));

    out.push_str("\n## Pipeline schedules (GPT-175B, 64 GPUs, batch 64)\n");
    let mut rows = vec![vec![
        "schedule".to_owned(),
        "time_s".to_owned(),
        "bubble_s".to_owned(),
        "activations_gb_no_recompute".to_owned(),
    ]];
    for r in schedules() {
        rows.push(vec![
            r.schedule.clone(),
            format!("{:.1}", r.time_s),
            format!("{:.1}", r.bubble_s),
            format!("{:.1}", r.activations_gb),
        ]);
    }
    out.push_str(&crate::markdown_table(&rows));

    out.push_str("\n## DRAM-utilization model (single-GPU Table 2 accuracy)\n");
    let mut rows = vec![vec!["model".to_owned(), "mean_error_%".to_owned()]];
    for r in dram_utilization_modes() {
        rows.push(vec![
            match r.constant {
                None => "varied (size-dependent)".to_owned(),
                Some(c) => format!("constant {c:.2}"),
            },
            format!("{:.1}", r.mean_error_percent),
        ]);
    }
    out.push_str(&crate::markdown_table(&rows));
    out
}

/// CSV rows (flash sweep only; the others are printed by `render`).
#[must_use]
pub fn csv() -> Vec<Vec<String>> {
    let mut out = vec![vec![
        "seq".to_owned(),
        "standard_ms".to_owned(),
        "flash_ms".to_owned(),
        "speedup".to_owned(),
    ]];
    for r in flash_attention() {
        out.push(vec![
            r.seq.to_string(),
            format!("{:.3}", r.standard_ms),
            format!("{:.3}", r.flash_ms),
            format!("{:.3}", r.speedup()),
        ]);
    }
    out
}
