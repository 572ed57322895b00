//! Smoke tests over every experiment generator (Fig. 6's full DSE sweep is
//! exercised by its binary and the benchmark; here we only touch one point).

use optimus_experiments as exp;

#[test]
fn table1_shape_and_quality() {
    let rows = exp::table1::run();
    assert_eq!(rows.len(), 11, "Table 1 has eleven rows");
    assert!(exp::table1::mean_error_percent(&rows) < 8.0);
    assert_eq!(exp::table1::csv().len(), 12, "header + rows");
}

#[test]
fn table2_shape_and_quality() {
    let rows = exp::table2::run();
    assert_eq!(rows.len(), 11);
    assert!(exp::table2::mean_error_percent(&rows) < 12.0);
}

#[test]
fn table4_full_agreement() {
    let rows = exp::table4::run();
    assert_eq!(rows.len(), 6, "six GEMM functions");
    assert_eq!(exp::table4::bound_agreement(&rows), 1.0);
}

#[test]
fn fig3_varied_beats_constant() {
    let points = exp::fig3::run();
    assert!(points.len() >= 20);
    let varied = exp::fig3::mape(&points, |p| p.varied_us);
    let constant = exp::fig3::mape(&points, |p| p.const_us);
    assert!(
        varied < constant,
        "varied {varied:.1}% vs constant {constant:.1}%"
    );
    assert!(varied < 12.0);
}

#[test]
fn fig4_has_nine_bars() {
    assert_eq!(exp::fig4::run().len(), 9);
}

#[test]
fn fig5_normalization_is_consistent() {
    let bars = exp::fig5::run();
    // The last bar (B200-NVS-L) is the fastest per sample.
    let min = bars
        .iter()
        .map(|b| b.time_per_sample_s)
        .fold(f64::INFINITY, f64::min);
    assert_eq!(bars.last().unwrap().time_per_sample_s, min);
    // Breakdown sums to the total.
    for b in &bars {
        let sum = b.compute_s + b.communication_s + b.other_s;
        assert!((sum - b.time_s).abs() < 1e-6 * b.time_s, "{}", b.label);
    }
}

#[test]
fn fig6_single_point_is_sane() {
    let engine = optimus::tech::UArchEngine::a100_at_n7();
    let p = exp::fig6::optimize_point(
        &engine,
        optimus::tech::TechNode::N7,
        optimus::hw::memtech::DramTechnology::Hbm2e,
        100.0,
    );
    assert!(p.time_s > 0.1 && p.time_s < 2.0, "time {:.3} s", p.time_s);
    assert!(p.alloc_compute + p.alloc_sram <= 0.91);
}

#[test]
fn fig7_bars_cover_all_nodes() {
    let bars = exp::fig7::run();
    assert_eq!(bars.len(), 21, "7 nodes x 3 HBM panels");
    assert!(bars.iter().all(|b| b.total_ms() > 0.0));
}

#[test]
fn fig8_has_four_bars() {
    let bars = exp::fig8::run();
    assert_eq!(bars.len(), 4);
}

#[test]
fn fig9_has_fourteen_bars_plus_reference() {
    let bars = exp::fig9::run();
    assert_eq!(bars.len(), 14, "7 sweep points x 2 system sizes");
    let h100 = exp::fig9::h100_reference();
    assert!(h100.eight_gpu_s < h100.two_gpu_s);
}

#[test]
fn flash_ablation_speedup_grows_with_seq() {
    let rows = exp::ablations::flash_attention();
    assert!(rows.windows(2).all(|w| w[1].speedup() > w[0].speedup()));
    assert!(rows.last().unwrap().speedup() > 2.0);
    // Flash's DRAM saving is the mechanism.
    for r in &rows {
        assert!(r.flash_dram_mib < r.standard_dram_mib);
    }
}

#[test]
fn schedule_ablation_ranks_memory_correctly() {
    let rows = exp::ablations::schedules();
    let gpipe = rows.iter().find(|r| r.schedule == "GPipe").unwrap();
    let one_f = rows.iter().find(|r| r.schedule == "1F1B").unwrap();
    assert!(gpipe.activations_gb > 3.0 * one_f.activations_gb);
    assert!((gpipe.time_s - one_f.time_s).abs() < 0.2 * one_f.time_s);
}

#[test]
fn utilization_ablation_prefers_varied() {
    let rows = exp::ablations::dram_utilization_modes();
    let varied = rows.iter().find(|r| r.constant.is_none()).unwrap();
    for r in rows.iter().filter(|r| r.constant.is_some()) {
        assert!(varied.mean_error_percent <= r.mean_error_percent);
    }
}

#[test]
fn tco_favors_new_silicon_for_training() {
    let rows = exp::tco::training();
    let a100 = rows.iter().find(|r| r.system.starts_with("A100")).unwrap();
    let b200 = rows.iter().find(|r| r.system.starts_with("B200")).unwrap();
    assert!(b200.samples_per_usd > 2.0 * a100.samples_per_usd);
}

#[test]
fn scaling_efficiency_declines_with_gpus() {
    let rows = exp::scaling::training_strong_scaling();
    assert!(rows.len() >= 4);
    assert!(rows
        .windows(2)
        .all(|w| w[1].efficiency <= w[0].efficiency + 1e-9));
    assert!(rows
        .windows(2)
        .all(|w| w[1].comm_share >= w[0].comm_share - 1e-9));
}

#[test]
fn batch_sweep_trades_latency_for_throughput() {
    let rows = exp::scaling::inference_batch_sweep();
    assert!(rows.windows(2).all(|w| w[1].latency_ms >= w[0].latency_ms));
    assert!(rows
        .windows(2)
        .all(|w| w[1].tokens_per_sec > w[0].tokens_per_sec));
    // §6.1: modest latency growth — 32x batch costs < 2x latency.
    let first = rows.first().unwrap();
    let last = rows.last().unwrap();
    assert!(last.latency_ms / first.latency_ms < 2.0);
}
