//! Table 2: validation of inference latency on A100 and H100 systems.

use optimus::prelude::*;
use optimus::refdata::{self, Table2Row};
use optimus::relative_error_percent;

/// One regenerated row.
#[derive(Debug, Clone)]
pub struct Row {
    /// The transcribed reference row.
    pub reference: Table2Row,
    /// Our A100 prediction, milliseconds.
    pub a100_pred_ms: f64,
    /// Our A100 relative error vs. the NVIDIA report, percent.
    pub a100_error_percent: f64,
    /// Our H100 prediction, milliseconds.
    pub h100_pred_ms: f64,
    /// Our H100 relative error vs. the NVIDIA report, percent.
    pub h100_error_percent: f64,
}

/// Regenerates every Table 2 row (B = 1, 200 prompt + 200 generated).
#[must_use]
pub fn run() -> Vec<Row> {
    let a100 = hw::presets::dgx_a100_hdr_cluster();
    let h100 = hw::presets::dgx_h100_ndr_cluster();
    refdata::table2()
        .into_iter()
        .map(|reference| {
            let cfg = InferenceConfig::nvidia_llama_benchmark(
                model::presets::by_name(reference.model).expect("refdata names a preset"),
                reference.tp,
            );
            let a = InferenceEstimator::new(&a100)
                .estimate(&cfg)
                .expect("A100 supports FP16");
            let h = InferenceEstimator::new(&h100)
                .estimate(&cfg)
                .expect("H100 supports FP16");
            Row {
                reference,
                a100_pred_ms: a.total.millis(),
                a100_error_percent: relative_error_percent(
                    a.total.millis(),
                    reference.t_nvidia_a100_ms,
                ),
                h100_pred_ms: h.total.millis(),
                h100_error_percent: relative_error_percent(
                    h.total.millis(),
                    reference.t_nvidia_h100_ms,
                ),
            }
        })
        .collect()
}

/// Mean absolute relative error across both device columns, percent.
#[must_use]
pub fn mean_error_percent(rows: &[Row]) -> f64 {
    rows.iter()
        .map(|r| r.a100_error_percent + r.h100_error_percent)
        .sum::<f64>()
        / (2.0 * rows.len() as f64)
}

/// The table as rows of strings (header first).
#[must_use]
pub fn csv() -> Vec<Vec<String>> {
    let mut out = vec![vec![
        "model".to_owned(),
        "tp".to_owned(),
        "a100_nvidia_ms".to_owned(),
        "a100_paper_ms".to_owned(),
        "a100_ours_ms".to_owned(),
        "a100_err_%".to_owned(),
        "h100_nvidia_ms".to_owned(),
        "h100_paper_ms".to_owned(),
        "h100_ours_ms".to_owned(),
        "h100_err_%".to_owned(),
    ]];
    for row in run() {
        let r = row.reference;
        out.push(vec![
            r.model.to_owned(),
            r.tp.to_string(),
            format!("{:.0}", r.t_nvidia_a100_ms),
            format!("{:.0}", r.t_paper_a100_ms),
            format!("{:.0}", row.a100_pred_ms),
            format!("{:.1}", row.a100_error_percent),
            format!("{:.0}", r.t_nvidia_h100_ms),
            format!("{:.0}", r.t_paper_h100_ms),
            format!("{:.0}", row.h100_pred_ms),
            format!("{:.1}", row.h100_error_percent),
        ]);
    }
    out
}

/// Renders the table for the terminal.
#[must_use]
pub fn render() -> String {
    crate::markdown_table(&csv())
}
