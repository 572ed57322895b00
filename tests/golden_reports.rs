//! Byte-identity pins of the serving and training reports against
//! golden JSON fixtures.
//!
//! Two families of fixtures live in `tests/golden/`:
//!
//! * **Absent-section fixtures.** The serving fixtures were captured at
//!   the commit *before* paged KV, prefix caching, and pluggable
//!   schedulers landed; the training and sweep fixtures at the commit
//!   *before* the composable resilience stack (tiered checkpoints,
//!   failure processes, elastic training) landed. The pre-existing
//!   regimes — `KvSpec::reserved()` + FIFO on the serving side, a plain
//!   `--mtbf`/`--restart` exponential spec on the training side — must
//!   keep emitting byte-identical reports: the newer sections are
//!   *omitted* (not `null`) when absent.
//! * **Present-section fixtures** (`*_paged*`, `*_weibull*`,
//!   `*_stack*`), captured at commit `2163a61`, pin the other side of
//!   the same field attributes: a paged `priority` serve report carries
//!   `scheduler` and `paging`, a paged fleet its merged `paging`, a
//!   Weibull fleet its `FaultSpec.process`, and a fully stacked training
//!   report every `CheckpointSpec` extension plus the `process`,
//!   `tiers`, `repair_frac` and `elastic` resilience sections.
//!
//! * **Reordering-scheduler fixtures** (`serve_sjf_ties`,
//!   `fleet_priority_preempt_churn`), captured at commit `05d5d38` —
//!   before the admission queue became a binary heap — pin the order in
//!   which the non-FIFO schedulers admit. The SJF trace draws lengths
//!   from narrow ranges so `prompt + output` ties are common and runs far
//!   past capacity so the queue runs deep; ties must still go to the
//!   earliest-queued request. The priority-preempt fleet crashes while
//!   its queues are deep (a drain empties a non-empty queue and requeues
//!   it in id order) and draws a straggler, so every exactly priced
//!   iteration is scaled by the replica's slowdown multiplier.
//!
//! * **Sealed-path fixtures** (`serve_sealed`, `fleet_sealed`), captured
//!   at commit `17adc7a` — before the decode table was filled row by row
//!   and before the single-replica engine borrowed its trace — are the
//!   only fixtures past [`optimus_serve::EXACT_MODE_LIMIT`] requests, so
//!   every decode iteration in them is priced through the sealed
//!   `DecodeCostTable` and the percentiles come from the streaming log
//!   histograms.
//!
//! * **Analytical-loop fixtures** (`sweep_weibull_tiered_frontier.json`,
//!   `fig6.csv`), captured at commit `e9c70c7` — before the Weibull
//!   rework estimate was memoized per prepared estimator and before the
//!   DSE descent reused its gradient across rejected steps — pin the two
//!   loops of the `model-sweep` benchmark op. The frontier is the CI
//!   tiered-sweep smoke shape (Weibull k = 0.7, peer and delta tiers,
//!   elastic recovery); the CSV is the Fig 6 technology-node DSE,
//!   replayed through `optimus_experiments::fig6::csv()`.
//!
//! * **Roofline-pricing fixtures** (`table2_reports.json`,
//!   `fig9_reports.json`, `fig7_gemm_split.json`), captured at commit
//!   `45c48e8` — before kernel costs dropped their labels, before the
//!   decode loop re-costed only the context-dependent attention
//!   operators, and before the training layer pass filed each GEMM into
//!   the bound split while costing it — pin those paths at full f64
//!   precision. The experiment CSVs round to 1–3 decimals, so they
//!   cannot. Table 2 keeps every row's whole `InferenceReport` on A100
//!   and H100; Fig 9 every swept cluster's (and the H100-HBM3e
//!   reference's) at TP 2 and 8; Fig 7 every node's
//!   `TrainingReport::layer_gemm_split` for the three HBM panels.
//!
//! * **Disabled-sentinel fixtures** (`fleet_degraded_stragglers.json`,
//!   `fleet_disabled_domain.json`, `load_sweep_degraded.json`), captured
//!   at commit `627772a` — before two of the three report sanitizers
//!   were deleted — pin how a report echoes a fault spec whose crash
//!   process or domain is disabled by an infinite MTBF: it reads
//!   `mtbf_s: 0.0` and `mttr_s: 0.0`, never `null`. Every other faulted
//!   fixture has crashes on, so these are the only ones that reach that
//!   normalization.
//!
//! Each test replays the exact invocation that produced its fixture
//! in-process, compares the pretty JSON byte-for-byte, and checks that
//! parsing the fixture and re-serializing it gives the fixture back.

use optimus::hw::memtech::DramTechnology;
use optimus::hw::nettech::{self, NvlinkGen};
use optimus::hw::{presets, ClusterSpec, NodeSpec};
use optimus::memory::RecomputeMode;
use optimus::model::presets as models;
use optimus::prelude::Precision;
use optimus::prelude::{refdata, Bandwidth, InferenceConfig, InferenceEstimator, InferenceReport};
use optimus::prelude::{
    CheckpointSpec, Parallelism, PipelineSchedule, TrainingConfig, TrainingEstimator,
};
use optimus::prelude::{CheckpointTier, FailureProcess};
use optimus::tech::{TechNode, UArchEngine};
use optimus::train::GemmBoundSplit;
use optimus_experiments::{fig7, fig9};
use optimus_serve::{
    load_sweep, simulate, simulate_fleet, ArrivalProcess, FaultDomain, FaultSpec, FleetConfig,
    KvSpec, LengthDist, LoadStrategy, LoadSweepSpec, PrefixSpec, RouterPolicy, Scheduler,
    ServeConfig, SloSpec, TraceSpec,
};
use optimus_sweep::{SweepEngine, SweepSpace, Workload};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::sync::Arc;

/// Asserts that `report` serializes byte-for-byte to `tests/golden/{fixture}`
/// and that the fixture survives a parse / re-serialize round trip.
fn assert_golden<T: Serialize + DeserializeOwned>(report: &T, fixture: &str) {
    let path = format!("{}/tests/golden/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(
        serde_json::to_string_pretty(report).unwrap(),
        golden,
        "report JSON drifted from the {fixture} fixture"
    );
    let back: T = serde_json::from_str(&golden).unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&back).unwrap(),
        golden,
        "the {fixture} fixture does not survive a JSON round trip"
    );
}

fn trace(
    seed: u64,
    requests: usize,
    rate: f64,
    prompt: (usize, usize),
    output: (usize, usize),
) -> TraceSpec {
    TraceSpec {
        seed,
        requests,
        arrival: ArrivalProcess::Poisson { rate_per_s: rate },
        prompt: LengthDist::Uniform {
            lo: prompt.0,
            hi: prompt.1,
        },
        output: LengthDist::Uniform {
            lo: output.0,
            hi: output.1,
        },
        prefixes: None,
        priority_classes: 1,
    }
}

/// `serve --model llama2-7b --tp 1 --requests 40 --rate 8
/// --prompt 50:200 --output 2:24 --seed 13 --json`
#[test]
fn reserved_serve_report_is_byte_identical_to_the_pre_paging_fixture() {
    let report = simulate(
        &presets::dgx_a100_hdr_cluster(),
        Arc::new(models::llama2_7b()),
        &ServeConfig::new(1),
        &trace(13, 40, 8.0, (50, 200), (2, 24)),
    )
    .unwrap();
    assert_golden(&report, "serve_reserved.json");
}

/// `serve --model llama2-7b --tp 1 --replicas 3 --router
/// least-outstanding --requests 60 --rate 24 --prompt 50:200
/// --output 2:24 --seed 17 --json`
#[test]
fn reserved_fleet_report_is_byte_identical_to_the_pre_paging_fixture() {
    let config = FleetConfig {
        replicas: 3,
        router: RouterPolicy::LeastOutstanding,
        replica: ServeConfig::new(1),
        faults: FaultSpec::none(),
    };
    let report = simulate_fleet(
        &presets::dgx_a100_hdr_cluster(),
        Arc::new(models::llama2_7b()),
        &config,
        &trace(17, 60, 24.0, (50, 200), (2, 24)),
    )
    .unwrap();
    assert_golden(&report, "fleet_reserved.json");
}

/// `serve --model llama2-7b --tp 1 --replicas 2 --requests 50 --rate 20
/// --prompt 50:150 --output 2:16 --seed 23 --mtbf 6 --mttr 2 --json`
#[test]
fn faulted_fleet_report_is_byte_identical_to_the_pre_paging_fixture() {
    let mut faults = FaultSpec::none();
    faults.seed = 0;
    faults.mtbf_s = 6.0;
    faults.mttr_s = 2.0;
    let config = FleetConfig {
        replicas: 2,
        router: RouterPolicy::RoundRobin,
        replica: ServeConfig::new(1),
        faults,
    };
    let report = simulate_fleet(
        &presets::dgx_a100_hdr_cluster(),
        Arc::new(models::llama2_7b()),
        &config,
        &trace(23, 50, 20.0, (50, 150), (2, 16)),
    )
    .unwrap();
    assert_golden(&report, "fleet_faulted.json");
}

/// `train --model llama2-13b --cluster a100-hdr --batch 64 --seq 2048
/// --dp 8 --tp 8 --sp --mtbf 50000000 --restart 300 --json`
#[test]
fn basic_resilience_train_report_is_byte_identical_to_the_pre_stack_fixture() {
    let cfg = TrainingConfig::new(
        models::llama2_13b(),
        64,
        2048,
        Parallelism::new(8, 8, 1).with_sp(true),
    )
    .with_recompute(RecomputeMode::Selective);
    let report = TrainingEstimator::new(&presets::dgx_a100_hdr_cluster())
        .with_checkpoint(CheckpointSpec::with_mtbf(50_000_000.0).with_restart(300.0))
        .estimate(&cfg)
        .unwrap();
    assert_golden(&report, "train_resilience.json");
}

/// `sweep --model llama2-13b --cluster a100-hdr --workload train
/// --batch 64 --max-gpus 64 --mtbf 10000 --restart 900 --frontier-only
/// --json`
#[test]
fn basic_resilience_sweep_frontier_is_byte_identical_to_the_pre_stack_fixture() {
    let workload = Workload::Training {
        batch: 64,
        seq: 2048,
        recompute: RecomputeMode::Selective,
        schedule: PipelineSchedule::OneFOneB,
    };
    let report = SweepEngine::new(&presets::dgx_a100_hdr_cluster())
        .with_checkpoint(CheckpointSpec::with_mtbf(10_000.0).with_restart(900.0))
        .sweep(
            &models::llama2_13b(),
            &workload,
            &SweepSpace::power_of_two(64),
        );
    assert_golden(&report.frontier, "sweep_resilience_frontier.json");
}

/// `serve --model llama2-7b --tp 1 --kv-block 16 --scheduler priority
/// --priority-classes 3 --prefix-tokens 64 --prefix-pool 4
/// --prefix-rate 0.6 --requests 60 --rate 30 --prompt 100:400
/// --output 8:48 --seed 29 --json`
#[test]
fn paged_priority_serve_report_is_byte_identical_to_the_fixture() {
    let mut spec = trace(29, 60, 30.0, (100, 400), (8, 48));
    spec.priority_classes = 3;
    spec.prefixes = Some(PrefixSpec {
        pool: 4,
        tokens: 64,
        rate: 0.6,
    });
    let config = ServeConfig::new(1)
        .with_kv(KvSpec::paged(16))
        .with_scheduler(Scheduler::Priority);
    let report = simulate(
        &presets::dgx_a100_hdr_cluster(),
        Arc::new(models::llama2_7b()),
        &config,
        &spec,
    )
    .unwrap();
    assert!(report.scheduler.is_some() && report.paging.is_some());
    assert_golden(&report, "serve_paged_priority.json");
}

/// `serve --model llama2-13b --tp 1 --replicas 2 --router
/// least-outstanding --kv-block 32 --requests 80 --rate 40
/// --prompt 1000:3000 --output 200:800 --seed 31 --json` — overloaded
/// enough that both replicas fill their block pools and preempt.
#[test]
fn paged_fleet_report_is_byte_identical_to_the_fixture() {
    let config = FleetConfig {
        replicas: 2,
        router: RouterPolicy::LeastOutstanding,
        replica: ServeConfig::new(1).with_kv(KvSpec::paged(32)),
        faults: FaultSpec::none(),
    };
    let report = simulate_fleet(
        &presets::dgx_a100_hdr_cluster(),
        Arc::new(models::llama2_13b()),
        &config,
        &trace(31, 80, 40.0, (1000, 3000), (200, 800)),
    )
    .unwrap();
    assert!(report.paging.is_some_and(|p| p.preemptions > 0) && report.faults.is_none());
    assert_golden(&report, "fleet_paged.json");
}

/// `serve --model llama2-7b --tp 1 --replicas 2 --requests 50 --rate 20
/// --prompt 50:150 --output 2:16 --seed 37 --mtbf 6 --mttr 2
/// --failure-process weibull:0.7 --fault-seed 5 --json`
#[test]
fn weibull_fleet_report_is_byte_identical_to_the_fixture() {
    let faults =
        FaultSpec::crashes(5, 6.0, 2.0).with_process(FailureProcess::Weibull { shape: 0.7 });
    let config = FleetConfig {
        replicas: 2,
        router: RouterPolicy::RoundRobin,
        replica: ServeConfig::new(1),
        faults,
    };
    let report = simulate_fleet(
        &presets::dgx_a100_hdr_cluster(),
        Arc::new(models::llama2_7b()),
        &config,
        &trace(37, 50, 20.0, (50, 150), (2, 16)),
    )
    .unwrap();
    assert!(report
        .faults
        .as_ref()
        .is_some_and(|f| !f.process.is_exponential()));
    assert_golden(&report, "fleet_weibull.json");
}

/// `serve --model llama2-7b --tp 1 --replicas 2 --requests 50 --rate 20
/// --prompt 50:150 --output 2:16 --seed 47 --degrade 3 --stragglers
/// 0.5:2 --fault-seed 1 --json` — no crash process (`mtbf_s = ∞`), a
/// flat 3× degradation and one straggler replica.
#[test]
fn degraded_straggler_fleet_report_is_byte_identical_to_the_fixture() {
    let mut faults = FaultSpec::none()
        .with_degradation(3.0)
        .with_stragglers(0.5, 2.0);
    faults.seed = 1;
    let config = FleetConfig {
        replicas: 2,
        router: RouterPolicy::RoundRobin,
        replica: ServeConfig::new(1),
        faults: faults.clone(),
    };
    let report = simulate_fleet(
        &presets::dgx_a100_hdr_cluster(),
        Arc::new(models::llama2_7b()),
        &config,
        &trace(47, 50, 20.0, (50, 150), (2, 16)),
    )
    .unwrap();
    assert!(!faults.has_outages() && (0..2).any(|r| faults.slow_mult(r) > 3.0));
    assert!(report.faults.as_ref().is_some_and(|f| f.mtbf_s == 0.0));
    assert_golden(&report, "fleet_degraded_stragglers.json");
}

/// A library-only spec (the CLI builds only active domains): a 2-replica
/// fleet with no per-replica crashes, a disabled domain over replica 0
/// (`mtbf_s = ∞`) and an active one over replica 1.
#[test]
fn disabled_domain_fleet_report_is_byte_identical_to_the_fixture() {
    let mut faults = FaultSpec::none()
        .with_domain(FaultDomain::new(vec![0], f64::INFINITY, 5.0))
        .with_domain(FaultDomain::new(vec![1], 4.0, 1.5));
    faults.seed = 9;
    let config = FleetConfig {
        replicas: 2,
        router: RouterPolicy::RoundRobin,
        replica: ServeConfig::new(1),
        faults,
    };
    let report = simulate_fleet(
        &presets::dgx_a100_hdr_cluster(),
        Arc::new(models::llama2_7b()),
        &config,
        &trace(53, 50, 20.0, (50, 150), (2, 16)),
    )
    .unwrap();
    let echoed = report.faults.as_ref().unwrap();
    assert_eq!(echoed.domains[0].mtbf_s, 0.0);
    assert!(echoed.domains[1].is_active() && report.availability.crashes > 0);
    assert_golden(&report, "fleet_disabled_domain.json");
}

/// `load-sweep --model llama2-7b --tp-list 1,2 --replicas-list 1,2
/// --requests 40 --rates 2,16 --prompt 50:200 --output 4:24 --seed 59 --degrade 2
/// --json` — every cell under a degradation-only spec (`mtbf_s = ∞`).
#[test]
fn degraded_load_sweep_report_is_byte_identical_to_the_fixture() {
    let strategies = [1, 2]
        .into_iter()
        .flat_map(|tp| {
            [1, 2].map(|replicas| LoadStrategy::single(tp, Precision::Fp16).with_replicas(replicas))
        })
        .collect();
    let spec = LoadSweepSpec {
        seed: 59,
        requests: 40,
        prompt: LengthDist::Uniform { lo: 50, hi: 200 },
        output: LengthDist::Uniform { lo: 4, hi: 24 },
        rates: vec![2.0, 16.0],
        strategies,
        slo: SloSpec::default(),
        router: RouterPolicy::RoundRobin,
        faults: Some(FaultSpec::none().with_degradation(2.0)),
        prefixes: None,
        priority_classes: 1,
    };
    let report = load_sweep(
        &presets::dgx_a100_hdr_cluster(),
        &Arc::new(models::llama2_7b()),
        &spec,
    );
    assert!(report.faults.as_ref().is_some_and(|f| f.mtbf_s == 0.0));
    assert_golden(&report, "load_sweep_degraded.json");
}

/// `train --model llama2-13b --cluster a100-hdr --batch 64 --seq 2048
/// --dp 8 --tp 8 --sp --mtbf 50000 --restart 300
/// --failure-process weibull:0.7 --checkpoint-tiers peer,delta
/// --delta-frac 0.1 --elastic --rewarm 60 --repair 600
/// --checkpoint-util 0.5 --json`, plus a rework seed of 7 (a library-only
/// knob): every `CheckpointSpec` extension away from its default.
#[test]
fn stacked_resilience_train_report_is_byte_identical_to_the_fixture() {
    let cfg = TrainingConfig::new(
        models::llama2_13b(),
        64,
        2048,
        Parallelism::new(8, 8, 1).with_sp(true),
    )
    .with_recompute(RecomputeMode::Selective);
    let spec = CheckpointSpec::with_mtbf(50_000.0)
        .with_restart(300.0)
        .with_process(FailureProcess::Weibull { shape: 0.7 })
        .with_tiers(vec![CheckpointTier::peer(), CheckpointTier::delta()])
        .with_delta_fraction(0.1)
        .with_elastic(true)
        .with_rewarm(60.0)
        .with_repair(600.0)
        .with_overhead_util(0.5)
        .with_seed(7);
    let report = TrainingEstimator::new(&presets::dgx_a100_hdr_cluster())
        .with_checkpoint(spec)
        .estimate(&cfg)
        .unwrap();
    let resilience = report.resilience.as_ref().unwrap();
    assert!(
        resilience.process.is_some()
            && resilience.tiers.is_some()
            && resilience.repair_frac.is_some()
            && resilience.elastic.is_some()
    );
    assert_golden(&report, "train_resilience_stack.json");
}

/// `serve --model llama2-13b --tp 1 --scheduler sjf --requests 200
/// --rate 200 --prompt 2000:2008 --output 8:10 --seed 41 --json` —
/// reserved KV holds ~32 requests, so ~195 queue behind the SJF pick,
/// and only 11 distinct `prompt + output` keys exist.
#[test]
fn sjf_serve_report_with_tied_keys_is_byte_identical_to_the_fixture() {
    let config = ServeConfig::new(1).with_scheduler(Scheduler::Sjf);
    let report = simulate(
        &presets::dgx_a100_hdr_cluster(),
        Arc::new(models::llama2_13b()),
        &config,
        &trace(41, 200, 200.0, (2000, 2008), (8, 10)),
    )
    .unwrap();
    assert!(report.paging.is_none() && report.queue.peak_waiting > 100);
    assert_golden(&report, "serve_sjf_ties.json");
}

/// `serve --model llama2-13b --tp 1 --replicas 2 --router
/// least-outstanding --kv-block 16 --scheduler priority-preempt
/// --priority-classes 3 --requests 120 --rate 40 --prompt 1000:3000
/// --output 200:800 --seed 43 --mtbf 60 --mttr 5 --stragglers 0.5:2
/// --fault-seed 3 --json`
#[test]
fn priority_preempt_churn_fleet_report_is_byte_identical_to_the_fixture() {
    let mut spec = trace(43, 120, 40.0, (1000, 3000), (200, 800));
    spec.priority_classes = 3;
    let faults = FaultSpec::crashes(3, 60.0, 5.0).with_stragglers(0.5, 2.0);
    let config = FleetConfig {
        replicas: 2,
        router: RouterPolicy::LeastOutstanding,
        replica: ServeConfig::new(1)
            .with_kv(KvSpec::paged(16))
            .with_scheduler(Scheduler::PriorityPreempt),
        faults: faults.clone(),
    };
    let report = simulate_fleet(
        &presets::dgx_a100_hdr_cluster(),
        Arc::new(models::llama2_13b()),
        &config,
        &spec,
    )
    .unwrap();
    assert!((0..2).any(|r| faults.slow_mult(r) > 1.0));
    assert!(report.paging.is_some_and(|p| p.preemptions > 0));
    assert!(report.availability.requeues > 0);
    assert_golden(&report, "fleet_priority_preempt_churn.json");
}

/// `serve --model llama2-13b --tp 2 --requests 20000 --rate 500
/// --prompt 50:400 --output 8:64 --json` (default seed 42)
#[test]
fn sealed_serve_report_is_byte_identical_to_the_fixture() {
    let report = simulate(
        &presets::dgx_a100_hdr_cluster(),
        Arc::new(models::llama2_13b()),
        &ServeConfig::new(2),
        &trace(42, 20_000, 500.0, (50, 400), (8, 64)),
    )
    .unwrap();
    assert!(report.requests > optimus_serve::EXACT_MODE_LIMIT && report.per_request.is_empty());
    assert_golden(&report, "serve_sealed.json");
}

/// `serve --model llama2-13b --tp 2 --replicas 2 --router
/// least-outstanding --requests 20000 --rate 800 --prompt 50:400
/// --output 8:64 --json` (default seed 42)
#[test]
fn sealed_fleet_report_is_byte_identical_to_the_fixture() {
    let config = FleetConfig {
        replicas: 2,
        router: RouterPolicy::LeastOutstanding,
        replica: ServeConfig::new(2),
        faults: FaultSpec::none(),
    };
    let report = simulate_fleet(
        &presets::dgx_a100_hdr_cluster(),
        Arc::new(models::llama2_13b()),
        &config,
        &trace(42, 20_000, 800.0, (50, 400), (8, 64)),
    )
    .unwrap();
    assert_golden(&report, "fleet_sealed.json");
}

/// `sweep --model llama2-13b --cluster a100-hdr --workload train
/// --batch 64 --max-gpus 64 --mtbf 10000 --restart 900
/// --failure-process weibull:0.7 --checkpoint-tiers peer,delta --elastic
/// --frontier-only --json` — the CI tiered-sweep smoke shape: every
/// frontier goodput prices the Weibull rework over peer and delta tiers
/// and the elastic-vs-restart choice.
#[test]
fn tiered_weibull_sweep_frontier_is_byte_identical_to_the_fixture() {
    let workload = Workload::Training {
        batch: 64,
        seq: 2048,
        recompute: RecomputeMode::Selective,
        schedule: PipelineSchedule::OneFOneB,
    };
    let spec = CheckpointSpec::with_mtbf(10_000.0)
        .with_restart(900.0)
        .with_process(FailureProcess::Weibull { shape: 0.7 })
        .with_tiers(vec![CheckpointTier::peer(), CheckpointTier::delta()])
        .with_elastic(true);
    let report = SweepEngine::new(&presets::dgx_a100_hdr_cluster())
        .with_checkpoint(spec)
        .sweep(
            &models::llama2_13b(),
            &workload,
            &SweepSpace::power_of_two(64),
        );
    assert!(report.frontier.iter().all(|r| r.goodput.is_some()));
    assert_golden(&report.frontier, "sweep_weibull_tiered_frontier.json");
}

/// `cargo run -p optimus-experiments --bin fig6` — the technology-node
/// DSE, as the comma-joined rows `results/fig6.csv` holds.
#[test]
fn fig6_dse_csv_is_byte_identical_to_the_fixture() {
    let path = format!("{}/tests/golden/fig6.csv", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let csv: String = optimus_experiments::fig6::csv()
        .iter()
        .map(|row| row.join(",") + "\n")
        .collect();
    assert_eq!(
        csv, golden,
        "the Fig 6 DSE drifted from the fig6.csv fixture"
    );
}

/// One Table 2 row at full precision: the whole `InferenceReport` on
/// each device column, not the rounded milliseconds of the CSV.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct Table2Reports {
    model: String,
    tp: usize,
    a100: InferenceReport,
    h100: InferenceReport,
}

/// One Fig 9 bar (or H100 reference line) at full precision.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct Fig9Report {
    cluster: String,
    tp: usize,
    report: InferenceReport,
}

/// One Fig 7 bar at full precision: the layer's GEMM bound split.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct Fig7Split {
    node: TechNode,
    hbm: DramTechnology,
    split: GemmBoundSplit,
}

/// `cargo run -p optimus-experiments --bin table2`, every row's full
/// report: the one-shot decode loop over 200 contexts on both devices.
#[test]
fn table2_inference_reports_are_byte_identical_to_the_fixture() {
    let a100 = presets::dgx_a100_hdr_cluster();
    let h100 = presets::dgx_h100_ndr_cluster();
    let rows: Vec<Table2Reports> = refdata::table2()
        .into_iter()
        .map(|row| {
            let cfg = InferenceConfig::nvidia_llama_benchmark(
                models::by_name(row.model).unwrap(),
                row.tp,
            );
            Table2Reports {
                model: row.model.to_owned(),
                tp: row.tp,
                a100: InferenceEstimator::new(&a100).estimate(&cfg).unwrap(),
                h100: InferenceEstimator::new(&h100).estimate(&cfg).unwrap(),
            }
        })
        .collect();
    assert_golden(&rows, "table2_reports.json");
}

/// `cargo run -p optimus-experiments --bin fig9`, every cluster's full
/// report at TP 2 and 8: the A100 die with each swept DRAM stack and
/// NVLink generation, then the H100-HBM3e reference lines.
#[test]
fn fig9_inference_reports_are_byte_identical_to_the_fixture() {
    let mut clusters: Vec<ClusterSpec> = fig9::sweep()
        .into_iter()
        .map(|(dram, nvlink)| {
            let acc = presets::a100_sxm_80gb()
                .with_dram(dram.typical_capacity(), dram.bandwidth())
                .renamed(format!("A100-{dram}"));
            presets::single_node_cluster(
                format!("{dram}-{nvlink}"),
                NodeSpec::new(acc, 8, nvlink.link()),
            )
        })
        .collect();
    let h100 = presets::h100_sxm()
        .with_dram(
            DramTechnology::Hbm3e.typical_capacity(),
            DramTechnology::Hbm3e.bandwidth(),
        )
        .renamed("H100-HBM3e");
    clusters.push(presets::single_node_cluster(
        "H100-HBM3e-NV4",
        NodeSpec::new(h100, 8, NvlinkGen::Gen4.link()),
    ));
    let mut reports = Vec::new();
    for cluster in &clusters {
        for tp in [2, 8] {
            let cfg = InferenceConfig::nvidia_llama_benchmark(models::llama2_13b(), tp);
            reports.push(Fig9Report {
                cluster: cluster.name.clone(),
                tp,
                report: InferenceEstimator::new(cluster).estimate(&cfg).unwrap(),
            });
        }
    }
    assert_golden(&reports, "fig9_reports.json");
}

/// `cargo run -p optimus-experiments --bin fig7`, every node's
/// `layer_gemm_split` at full precision for the three HBM panels.
#[test]
fn fig7_gemm_bound_splits_are_byte_identical_to_the_fixture() {
    let engine = UArchEngine::a100_at_n7();
    let case = refdata::case_gpt7b();
    let model = models::by_name(case.model).unwrap();
    let mut splits = Vec::new();
    for hbm in fig7::panels() {
        for &node in TechNode::all() {
            let node_spec = NodeSpec::new(
                engine.synthesize_at_node(node, hbm),
                8,
                NvlinkGen::Gen3.link(),
            );
            let inter = nettech::infiniband(
                "IB-100GBps",
                Bandwidth::from_gb_per_sec(100.0),
                node_spec.gpus_per_node,
            );
            let cluster = ClusterSpec::new("fig7", node_spec, inter);
            let cfg = TrainingConfig::new(model.clone(), case.batch, case.seq, case.parallelism())
                .with_recompute(RecomputeMode::Selective);
            let report = TrainingEstimator::new(&cluster).estimate(&cfg).unwrap();
            splits.push(Fig7Split {
                node,
                hbm,
                split: report.layer_gemm_split,
            });
        }
    }
    assert_golden(&splits, "fig7_gemm_split.json");
}
