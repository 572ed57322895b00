//! Property tests of the composable resilience stack:
//!
//! * **tiers never hurt** — layering peer/delta tiers on a spec at the
//!   same persistent interval can only match or lower the expected
//!   waste (the evaluator keeps a tier only when it pays for itself);
//! * **Weibull `k = 1` is exponential, bit-exact** — the shape-1 Weibull
//!   routes through the exponential closed form, so every priced figure
//!   agrees to the last bit;
//! * **elastic never loses to restart** — whenever continuing degraded
//!   is priced, the chosen goodput is at least the full-restart goodput
//!   (the per-class pricing clamps at the restart cost), strictly so
//!   for cheap re-warm and expensive restarts;
//! * **spec byte-compat** — a basic `--mtbf`/`--restart` spec (and
//!   [`CheckpointSpec::none`]) serializes exactly as it did before the
//!   stack existed: none of the new keys appear and no value is null.

use optimus_collective::CommModel;
use optimus_hw::{presets, FailureProcess};
use optimus_memory::{training_memory, RecomputeMode, TrainingMemorySpec};
use optimus_model::presets as models;
use optimus_parallel::{Parallelism, PipelineSchedule};
use optimus_train::{
    CheckpointSpec, CheckpointTier, ResilienceReport, StackContext, TrainingConfig,
    TrainingEstimator,
};
use optimus_units::Time;
use proptest::prelude::*;

/// The worked strategy anchor: llama2-13b, DP8 × TP8 + SP on 64 GPUs.
fn anchor_memory() -> optimus_memory::TrainingMemoryReport {
    training_memory(
        &models::llama2_13b(),
        &TrainingMemorySpec {
            batch: 64,
            seq: 2048,
            parallelism: Parallelism::new(8, 8, 1).with_sp(true),
            schedule: PipelineSchedule::OneFOneB,
            precision: optimus_hw::Precision::Fp16,
            recompute: RecomputeMode::Selective,
        },
    )
    .unwrap()
}

/// Prices `spec` on the anchor strategy with full parallelism context,
/// so peer tiers and elastic shrinking both apply. The reprice closure
/// models a shrunken DP group keeping its per-replica time (the batch
/// shrinks proportionally) with a small re-balance penalty.
fn evaluate(
    spec: &CheckpointSpec,
    memory: &optimus_memory::TrainingMemoryReport,
) -> ResilienceReport {
    let cluster = presets::dgx_a100_hdr_cluster();
    let t = Time::from_secs(10.0);
    spec.evaluate_stack(
        &StackContext {
            cluster: &cluster,
            memory,
            gpus: 64,
            parallelism: Some(Parallelism::new(8, 8, 1).with_sp(true)),
            comm: CommModel::Auto,
            time_per_batch: t,
        },
        &|_| Some(Time::from_secs(10.1)),
    )
    .expect("active spec evaluates")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Adding peer and delta tiers at the same persistent interval can
    /// only match or lower the expected waste.
    #[test]
    fn tiers_never_raise_the_waste(
        mtbf in 1e4f64..1e9,
        restart in 0.0f64..5_000.0,
        interval in prop_oneof![Just(None), (60.0f64..1e5).prop_map(Some)],
        shape in prop_oneof![Just(1.0f64), Just(0.7), Just(1.5)],
    ) {
        let memory = anchor_memory();
        let mut base = CheckpointSpec::with_mtbf(mtbf)
            .with_restart(restart)
            .with_process(FailureProcess::Weibull { shape });
        if let Some(s) = interval {
            base = base.with_interval(s);
        }
        let single = evaluate(&base, &memory);
        let tiered = evaluate(
            &base.clone().with_tiers(vec![CheckpointTier::peer(), CheckpointTier::delta()]),
            &memory,
        );
        prop_assert!(
            tiered.waste() <= single.waste() + 1e-12,
            "tiered waste {} exceeds single-tier waste {}",
            tiered.waste(),
            single.waste()
        );
        prop_assert!(tiered.goodput >= single.goodput - 1e-12);
    }

    /// A shape-1 Weibull process is the exponential process, bit for bit.
    #[test]
    fn weibull_shape_one_is_exponential_bit_exact(
        mtbf in 1e4f64..1e9,
        restart in 0.0f64..5_000.0,
        tiered in prop_oneof![Just(false), Just(true)],
    ) {
        let memory = anchor_memory();
        let mut exp = CheckpointSpec::with_mtbf(mtbf).with_restart(restart);
        if tiered {
            exp = exp.with_tiers(vec![CheckpointTier::peer(), CheckpointTier::delta()]);
        }
        let weibull = exp.clone().with_process(FailureProcess::Weibull { shape: 1.0 });
        let a = evaluate(&exp, &memory);
        let b = evaluate(&weibull, &memory);
        for (name, x, y) in [
            ("goodput", a.goodput, b.goodput),
            ("interval", a.interval.secs(), b.interval.secs()),
            ("cluster_mtbf", a.cluster_mtbf.secs(), b.cluster_mtbf.secs()),
            ("overhead", a.checkpoint_overhead_frac, b.checkpoint_overhead_frac),
            ("rework", a.rework_frac, b.rework_frac),
            ("waste", a.waste(), b.waste()),
        ] {
            prop_assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{} differs: exponential {} vs weibull(k=1) {}",
                name,
                x,
                y
            );
        }
    }

    /// The chosen goodput under `--elastic` never drops below the
    /// restart goodput: degraded continuation is only taken when it
    /// prices at or under a full restart.
    #[test]
    fn elastic_never_loses_to_restart(
        mtbf in 1e4f64..1e8,
        restart in 1.0f64..5_000.0,
        rewarm_frac in 0.0f64..2.0,
        repair in 0.0f64..20_000.0,
    ) {
        let memory = anchor_memory();
        let spec = CheckpointSpec::with_mtbf(mtbf)
            .with_restart(restart)
            .with_elastic(true)
            .with_rewarm(restart * rewarm_frac)
            .with_repair(repair);
        let report = evaluate(&spec, &memory);
        let elastic = report.elastic.expect("elastic spec reports");
        prop_assert!(elastic.feasible, "dp=8 shrinks feasibly");
        prop_assert!(
            elastic.elastic_goodput >= elastic.restart_goodput - 1e-12,
            "elastic {} under restart {}",
            elastic.elastic_goodput,
            elastic.restart_goodput
        );
        prop_assert!(report.goodput >= elastic.restart_goodput - 1e-12);
    }
}

/// A basic spec (and a stack-free report) serializes exactly as before
/// the stack existed: no new keys, no nulls, and `CheckpointSpec::none`
/// stays invisible.
#[test]
fn basic_specs_keep_their_pre_stack_json() {
    let cluster = presets::dgx_a100_hdr_cluster();
    let cfg = TrainingConfig::new(
        models::llama2_13b(),
        64,
        2048,
        Parallelism::new(8, 8, 1).with_sp(true),
    );
    let plain = TrainingEstimator::new(&cluster).estimate(&cfg).unwrap();
    let with_none = TrainingEstimator::new(&cluster)
        .with_checkpoint(CheckpointSpec::none())
        .estimate(&cfg)
        .unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&plain).unwrap(),
        serde_json::to_string_pretty(&with_none).unwrap(),
        "CheckpointSpec::none() must be invisible"
    );

    let basic = TrainingEstimator::new(&cluster)
        .with_checkpoint(CheckpointSpec::with_mtbf(5e7).with_restart(300.0))
        .estimate(&cfg)
        .unwrap();
    let json = serde_json::to_string_pretty(&basic).unwrap();
    for new_key in [
        "\"process\"",
        "\"tiers\"",
        "\"elastic\"",
        "\"rewarm_s\"",
        "\"repair_s\"",
        "\"delta_fraction\"",
        "\"overhead_util\"",
        "\"seed\"",
        "\"repair_frac\"",
    ] {
        assert!(
            !json.contains(new_key),
            "a basic spec must not serialize {new_key}:\n{json}"
        );
    }
}

/// A valid stacked spec's report JSON carries no nulls anywhere but the
/// documented `interval_s: null` (= Young–Daly auto), and a non-finite
/// value in any stack field fails validation, so it never reaches a
/// report.
#[test]
fn valid_stacked_spec_json_is_null_free_and_non_finite_stack_values_fail_validation() {
    let memory = anchor_memory();
    let spec = CheckpointSpec::with_mtbf(40_000.0)
        .with_restart(900.0)
        .with_process(FailureProcess::Weibull { shape: 0.7 })
        .with_tiers(vec![CheckpointTier::peer(), CheckpointTier::delta()])
        .with_elastic(true)
        .with_rewarm(45.0)
        .with_repair(1200.0)
        .with_delta_fraction(0.4)
        .with_overhead_util(0.5);
    assert!(spec.validate().is_ok());
    for (field, invalid) in [
        ("rewarm", spec.clone().with_rewarm(f64::NAN)),
        ("repair", spec.clone().with_repair(f64::INFINITY)),
        (
            "tier interval",
            spec.clone().with_tiers(vec![
                CheckpointTier::peer().with_interval(f64::INFINITY),
                CheckpointTier::delta(),
            ]),
        ),
        ("overhead_util", spec.clone().with_overhead_util(f64::NAN)),
    ] {
        assert!(
            invalid.validate().is_err(),
            "a non-finite {field} must fail validation"
        );
    }
    let report = evaluate(&spec, &memory);
    let json = serde_json::to_string_pretty(&report).unwrap();
    let nulls = json.matches("null").count();
    let auto_intervals = json.matches("\"interval_s\": null").count();
    assert_eq!(
        nulls, auto_intervals,
        "only auto intervals may be null:\n{json}"
    );
}
