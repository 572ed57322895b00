//! Fig. 4: training memory breakdown for GPT-175B/530B/1T under the three
//! activation-recomputation strategies (Table 1 configurations, mixed
//! precision, A100 80 GB reference line).

use optimus::memory::{training_memory, RecomputeMode, TrainingMemorySpec};
use optimus::prelude::*;

/// One bar of the figure.
#[derive(Debug, Clone)]
pub struct Bar {
    /// Model name.
    pub model: &'static str,
    /// Recomputation label (`no` / `selective` / `full`).
    pub recompute: &'static str,
    /// Optimizer-state memory, GB.
    pub optimizer_gb: f64,
    /// Parameter (+ gradient) memory, GB.
    pub parameter_gb: f64,
    /// Activation memory, GB.
    pub activation_gb: f64,
    /// Whether the total fits an 80 GB A100.
    pub fits_a100: bool,
}

impl Bar {
    /// Total bar height, GB.
    #[must_use]
    pub fn total_gb(&self) -> f64 {
        self.optimizer_gb + self.parameter_gb + self.activation_gb
    }
}

/// The three `(model, batch, parallelism)` columns of the figure, from
/// Table 1.
fn configs() -> Vec<(&'static str, usize, Parallelism)> {
    vec![
        ("GPT-175B", 64, Parallelism::new(1, 8, 8)),
        ("GPT-530B", 280, Parallelism::new(1, 8, 35)),
        ("GPT-1008B", 512, Parallelism::new(1, 8, 64)),
    ]
}

/// Regenerates all nine bars.
#[must_use]
pub fn run() -> Vec<Bar> {
    let modes: [(&'static str, RecomputeMode); 3] = [
        ("no", RecomputeMode::None),
        ("selective", RecomputeMode::Selective),
        (
            "full",
            RecomputeMode::Full {
                checkpoints_per_stage: None,
            },
        ),
    ];
    let mut bars = Vec::new();
    for (model_name, batch, parallelism) in configs() {
        let model = model::presets::by_name(model_name).expect("Table 1 names presets");
        for (label, mode) in modes {
            let report = training_memory(
                &model,
                &TrainingMemorySpec {
                    batch,
                    seq: 2048,
                    parallelism,
                    schedule: PipelineSchedule::OneFOneB,
                    precision: Precision::Fp16,
                    recompute: mode,
                },
            )
            .expect("Table 1 configs divide evenly");
            bars.push(Bar {
                model: model_name,
                recompute: label,
                optimizer_gb: report.optimizer.gb(),
                parameter_gb: (report.parameters + report.gradients).gb(),
                activation_gb: report.activations.gb(),
                fits_a100: report.fits(Bytes::from_gb(80.0)),
            });
        }
    }
    bars
}

/// The figure as rows of strings (header first).
#[must_use]
pub fn csv() -> Vec<Vec<String>> {
    let mut out = vec![vec![
        "model".to_owned(),
        "recompute".to_owned(),
        "optimizer_gb".to_owned(),
        "parameter_gb".to_owned(),
        "activation_gb".to_owned(),
        "total_gb".to_owned(),
        "fits_a100_80gb".to_owned(),
    ]];
    for b in run() {
        out.push(vec![
            b.model.to_owned(),
            b.recompute.to_owned(),
            format!("{:.1}", b.optimizer_gb),
            format!("{:.1}", b.parameter_gb),
            format!("{:.1}", b.activation_gb),
            format!("{:.1}", b.total_gb()),
            b.fits_a100.to_string(),
        ]);
    }
    out
}

/// Renders the figure data for the terminal.
#[must_use]
pub fn render() -> String {
    crate::markdown_table(&csv())
}
