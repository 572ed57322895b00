//! The memoization contract: a sweep through the shared, memoized
//! phase-1 context must be **byte-identical** (via JSON) to evaluating
//! every point naively — one fresh estimator context per point, no shared
//! memo state, memory footprint re-derived from scratch.

use optimus_hw::{presets, FailureProcess};
use optimus_memory::RecomputeMode;
use optimus_model::presets as models;
use optimus_parallel::PipelineSchedule;
use optimus_sweep::{pareto_frontier, SweepEngine, SweepReport, SweepSpace, Workload};
use optimus_train::{CheckpointSpec, CheckpointTier, TrainingConfig, TrainingEstimator};
use std::sync::Arc;

/// Builds the naive report: every point goes through its own
/// single-point `evaluate` call, so nothing is shared or reused between
/// points — each call builds a fresh prepared context whose memo tables
/// see exactly one strategy.
fn naive_report(
    engine: &SweepEngine<'_>,
    cluster: &optimus_hw::ClusterSpec,
    model: &optimus_model::ModelConfig,
    workload: &Workload,
    space: &SweepSpace,
) -> SweepReport {
    let points = space.enumerate(model, cluster, workload);
    let mut evaluated = Vec::new();
    let mut rejected = Vec::new();
    for point in points {
        let one = engine.evaluate(model, workload, vec![point]);
        evaluated.extend(one.evaluated);
        rejected.extend(one.rejected);
    }
    let frontier = pareto_frontier(&evaluated);
    SweepReport {
        evaluated,
        frontier,
        rejected,
    }
}

#[test]
fn memoized_training_sweep_is_byte_identical_to_naive() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let engine = SweepEngine::new(&cluster);
    let model = models::llama2_13b();
    let workload = Workload::training(16, 2048);
    let space = SweepSpace::power_of_two(16);

    let memoized = engine.sweep(&model, &workload, &space);
    let naive = naive_report(&engine, &cluster, &model, &workload, &space);

    assert!(!memoized.evaluated.is_empty());
    let memoized_json = serde_json::to_string(&memoized).unwrap();
    let naive_json = serde_json::to_string(&naive).unwrap();
    assert_eq!(
        memoized_json, naive_json,
        "memoized sweep diverges from naive per-point evaluation"
    );
}

#[test]
fn memoized_inference_sweep_is_byte_identical_to_naive() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let engine = SweepEngine::new(&cluster);
    let model = models::llama2_13b();
    let workload = Workload::inference(1, 200, 16);
    let space = SweepSpace::power_of_two(8);

    let memoized = engine.sweep(&model, &workload, &space);
    let naive = naive_report(&engine, &cluster, &model, &workload, &space);

    assert!(!memoized.evaluated.is_empty());
    let memoized_json = serde_json::to_string(&memoized).unwrap();
    let naive_json = serde_json::to_string(&naive).unwrap();
    assert_eq!(
        memoized_json, naive_json,
        "memoized sweep diverges from naive per-point evaluation"
    );
}

/// `evaluate` on an explicit point list (which derives memory in-line)
/// must agree with `sweep` (which reuses the pruning pass's footprints)
/// over the same points.
#[test]
fn pruned_footprints_match_inline_derivation() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let engine = SweepEngine::new(&cluster);
    let model = models::llama2_13b();
    let workload = Workload::training(16, 2048);
    let space = SweepSpace::power_of_two(16);

    let swept = engine.sweep(&model, &workload, &space);
    let points = space.enumerate(&model, &cluster, &workload);
    let explicit = engine.evaluate(&model, &workload, points);

    assert_eq!(
        serde_json::to_string(&swept).unwrap(),
        serde_json::to_string(&explicit).unwrap()
    );
}

/// The rework-memo contract: one Weibull rework table per sweep, shared by
/// every point and every worker, must price each point exactly as a
/// one-shot `TrainingEstimator` does with a fresh table of its own — on
/// one thread (the memo fills in point order) and on several (workers
/// race to publish keys).
#[test]
fn memoized_weibull_stack_sweep_matches_one_shot_pricing() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let spec = CheckpointSpec::with_mtbf(10_000.0)
        .with_restart(900.0)
        .with_process(FailureProcess::Weibull { shape: 0.7 })
        .with_tiers(vec![CheckpointTier::peer(), CheckpointTier::delta()])
        .with_elastic(true);
    let engine = SweepEngine::new(&cluster).with_checkpoint(spec.clone());
    let one_shot = TrainingEstimator::new(&cluster).with_checkpoint(spec);
    let model = Arc::new(models::llama2_13b());
    let workload = Workload::training(64, 2048);
    let space = SweepSpace::power_of_two(64);

    for threads in [1, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let memoized = pool.install(|| engine.sweep(&model, &workload, &space));
        assert!(memoized.evaluated.len() > 500, "{threads} threads");
        for point in &memoized.evaluated {
            // The same point through a fresh sweep context of its own.
            let fresh = engine.evaluate(&model, &workload, vec![point.point]);
            assert_eq!(
                serde_json::to_string(point).unwrap(),
                serde_json::to_string(&fresh.evaluated[0]).unwrap(),
                "{threads} threads: {:?}",
                point.point
            );
            // The same point through the one-shot estimator.
            let cfg = TrainingConfig::new(Arc::clone(&model), 64, 2048, point.point.parallelism)
                .with_precision(point.point.precision)
                .with_recompute(RecomputeMode::Selective)
                .with_schedule(PipelineSchedule::OneFOneB);
            let report = one_shot.estimate(&cfg).unwrap();
            let resilience = report.resilience.as_ref().unwrap();
            assert_eq!(
                point.goodput.map(f64::to_bits),
                Some(resilience.goodput.to_bits())
            );
            assert_eq!(
                point.latency,
                report.time_per_batch * (1.0 + resilience.waste())
            );
        }
    }
}
