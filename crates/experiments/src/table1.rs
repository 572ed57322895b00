//! Table 1: validation of training time per batch on A100 systems.

use optimus::prelude::*;
use optimus::refdata::{self, Table1Row};
use optimus::relative_error_percent;

/// One regenerated row: the reference data plus our prediction.
#[derive(Debug, Clone)]
pub struct Row {
    /// The transcribed reference row.
    pub reference: Table1Row,
    /// Our predicted time per batch, seconds.
    pub t_pred_secs: f64,
    /// Our relative error vs. the reported time, percent.
    pub error_percent: f64,
}

/// Regenerates every Table 1 row on the modeled A100-HDR cluster.
#[must_use]
pub fn run() -> Vec<Row> {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let estimator = TrainingEstimator::new(&cluster);
    refdata::table1()
        .into_iter()
        .map(|reference| {
            let cfg = TrainingConfig::new(
                model::presets::by_name(reference.model).expect("refdata names a preset"),
                reference.batch,
                2048,
                reference.parallelism(),
            )
            .with_recompute(reference.recompute())
            .with_schedule(schedule_for(&reference));
            let report = estimator
                .estimate(&cfg)
                .expect("Table 1 configs are valid by construction");
            let t_pred_secs = report.time_per_batch.secs();
            Row {
                reference,
                t_pred_secs,
                error_percent: relative_error_percent(t_pred_secs, reference.t_ref_secs),
            }
        })
        .collect()
}

/// The schedule used for a Table 1 row: the sources ran the deep-pipeline
/// configurations with the interleaved 1F1B schedule (2 virtual stages)
/// and shallow ones with plain 1F1B.
fn schedule_for(row: &Table1Row) -> PipelineSchedule {
    if row.pp >= 8 {
        PipelineSchedule::interleaved(2)
    } else {
        PipelineSchedule::OneFOneB
    }
}

/// Mean absolute relative error across the table, percent.
#[must_use]
pub fn mean_error_percent(rows: &[Row]) -> f64 {
    rows.iter().map(|r| r.error_percent).sum::<f64>() / rows.len() as f64
}

/// The table as rows of strings (header first).
#[must_use]
pub fn csv() -> Vec<Vec<String>> {
    let mut out = vec![vec![
        "model".to_owned(),
        "gpus".to_owned(),
        "batch".to_owned(),
        "dp-tp-pp-sp".to_owned(),
        "recompute".to_owned(),
        "t_ref_s".to_owned(),
        "t_paper_s".to_owned(),
        "t_ours_s".to_owned(),
        "err_ours_%".to_owned(),
        "err_paper_%".to_owned(),
    ]];
    for row in run() {
        let r = row.reference;
        out.push(vec![
            r.model.to_owned(),
            r.gpus.to_string(),
            r.batch.to_string(),
            format!("{}", r.parallelism()),
            if r.selective { "selective" } else { "full" }.to_owned(),
            format!("{:.1}", r.t_ref_secs),
            format!("{:.1}", r.t_paper_secs),
            format!("{:.1}", row.t_pred_secs),
            format!("{:.1}", row.error_percent),
            format!("{:.1}", r.paper_error_percent()),
        ]);
    }
    out
}

/// Renders the table for the terminal.
#[must_use]
pub fn render() -> String {
    crate::markdown_table(&csv())
}
