//! Fig. 5: GPT-3 175B training-time scaling across GPU generations
//! (A100-HDR → B200-NVS-L), normalized to B200-NVS-L.
//!
//! Uses the Table 3 case configuration (DP128-TP8-SP8-PP8, sequence 2048)
//! with the precision ladder of §5.2: FP16 on A100, FP8 on H100/H200 (the
//! transformer engine), FP4 on B200. "L" points use the enlarged batch
//! (4096) the bigger DRAM affords.

use optimus::hw::presets;
use optimus::memory::RecomputeMode;
use optimus::prelude::*;
use optimus::refdata;

/// One bar of the figure.
#[derive(Debug, Clone)]
pub struct Bar {
    /// Configuration label as on the figure's x-axis.
    pub label: &'static str,
    /// Absolute predicted time per batch, seconds.
    pub time_s: f64,
    /// Per-sample time (batch-normalized), seconds — the quantity the
    /// figure's speedups are measured on.
    pub time_per_sample_s: f64,
    /// Compute fraction of the batch time.
    pub compute_s: f64,
    /// Communication (TP+PP+DP) fraction.
    pub communication_s: f64,
    /// "Other" (bubble + weight update) fraction.
    pub other_s: f64,
    /// Our speedup over the A100-HDR baseline (per-sample).
    pub speedup_vs_a100: f64,
    /// The paper's approximate speedup for this configuration.
    pub paper_speedup: f64,
}

struct Config {
    label: &'static str,
    cluster: ClusterSpec,
    precision: Precision,
    large_batch: bool,
}

fn configs() -> Vec<Config> {
    vec![
        Config {
            label: "A100-HDR",
            cluster: presets::dgx_a100_hdr_cluster(),
            precision: Precision::Fp16,
            large_batch: false,
        },
        Config {
            label: "H100-NDR",
            cluster: presets::dgx_h100_ndr_cluster(),
            precision: Precision::Fp8,
            large_batch: false,
        },
        Config {
            label: "H100-NVS",
            cluster: presets::dgx_h100_nvs_cluster(),
            precision: Precision::Fp8,
            large_batch: false,
        },
        Config {
            label: "H200-NVS-L",
            cluster: presets::dgx_h200_nvs_cluster(),
            precision: Precision::Fp8,
            large_batch: true,
        },
        Config {
            label: "B200-NDR",
            cluster: presets::dgx_b200_ndr_cluster(),
            precision: Precision::Fp4,
            large_batch: false,
        },
        Config {
            label: "B200-NVS",
            cluster: presets::dgx_b200_nvs_cluster(),
            precision: Precision::Fp4,
            large_batch: false,
        },
        Config {
            label: "B200-NVS-L",
            cluster: presets::dgx_b200_nvs_cluster(),
            precision: Precision::Fp4,
            large_batch: true,
        },
    ]
}

/// Regenerates the seven bars.
#[must_use]
pub fn run() -> Vec<Bar> {
    let case = refdata::case_gpt175b();
    let model = model::presets::by_name(case.model).expect("refdata names a preset");
    let paper = refdata::fig5_series();

    let mut raw = Vec::new();
    for cfg in configs() {
        let batch = if cfg.large_batch {
            case.large_batch
        } else {
            case.batch
        };
        let training = TrainingConfig::new(model.clone(), batch, case.seq, case.parallelism())
            .with_precision(cfg.precision)
            .with_recompute(RecomputeMode::Selective)
            .with_schedule(PipelineSchedule::interleaved(2));
        let report = TrainingEstimator::new(&cfg.cluster)
            .estimate(&training)
            .expect("case config is valid");
        raw.push((cfg.label, batch, report));
    }

    let base_per_sample = raw[0].2.time_per_batch.secs() / raw[0].1 as f64;
    raw.into_iter()
        .zip(paper)
        .map(|((label, batch, report), paper_point)| {
            debug_assert_eq!(label, paper_point.label);
            let time_s = report.time_per_batch.secs();
            let per_sample = time_s / batch as f64;
            Bar {
                label,
                time_s,
                time_per_sample_s: per_sample,
                compute_s: report.breakdown.compute.secs(),
                communication_s: report.breakdown.communication().secs(),
                other_s: report.breakdown.other().secs(),
                speedup_vs_a100: base_per_sample / per_sample,
                paper_speedup: paper_point.speedup_vs_a100,
            }
        })
        .collect()
}

/// The figure as rows of strings (header first).
#[must_use]
pub fn csv() -> Vec<Vec<String>> {
    let mut out = vec![vec![
        "config".to_owned(),
        "time_s".to_owned(),
        "time_per_sample_ms".to_owned(),
        "compute_s".to_owned(),
        "communication_s".to_owned(),
        "other_s".to_owned(),
        "speedup_vs_a100".to_owned(),
        "paper_speedup".to_owned(),
    ]];
    for b in run() {
        out.push(vec![
            b.label.to_owned(),
            format!("{:.1}", b.time_s),
            format!("{:.1}", b.time_per_sample_s * 1e3),
            format!("{:.1}", b.compute_s),
            format!("{:.1}", b.communication_s),
            format!("{:.1}", b.other_s),
            format!("{:.1}", b.speedup_vs_a100),
            format!("{:.0}", b.paper_speedup),
        ]);
    }
    out
}

/// Renders the figure data for the terminal.
#[must_use]
pub fn render() -> String {
    crate::markdown_table(&csv())
}
