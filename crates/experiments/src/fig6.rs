//! Fig. 6: GPT-7B training time per iteration vs. logic technology node
//! (N12…N1) for four HBM generations and three inter-node networks,
//! with the micro-architecture DSE-optimized at every node (§5.3).

use optimus::dse::{GradientDescent, SearchSpace};
use optimus::hw::memtech::DramTechnology;
use optimus::hw::nettech::{self, NvlinkGen};
use optimus::hw::{ClusterSpec, NodeSpec};
use optimus::memory::RecomputeMode;
use optimus::prelude::*;
use optimus::refdata;
use optimus::tech::{Allocation, TechNode, UArchEngine};
use optimus::units::Bandwidth;

/// One point of the figure's six series.
#[derive(Debug, Clone)]
pub struct Point {
    /// Logic node.
    pub node: TechNode,
    /// HBM generation.
    pub hbm: DramTechnology,
    /// Inter-node network bandwidth per node, GB/s.
    pub network_gbps: f64,
    /// Predicted execution time per iteration, seconds.
    pub time_s: f64,
    /// The DSE-chosen compute allocation fraction.
    pub alloc_compute: f64,
    /// The DSE-chosen SRAM allocation fraction.
    pub alloc_sram: f64,
}

/// The `(HBM, network)` series of the figure.
#[must_use]
pub fn series() -> Vec<(DramTechnology, f64)> {
    vec![
        (DramTechnology::Hbm2, 100.0),
        (DramTechnology::Hbm2e, 100.0),
        (DramTechnology::Hbm3, 100.0),
        (DramTechnology::Hbm4, 100.0),
        (DramTechnology::Hbm4, 200.0),
        (DramTechnology::Hbm4, 400.0),
    ]
}

/// Builds the 1024-GPU cluster around a synthesized accelerator.
fn cluster_for(accelerator: optimus::hw::Accelerator, network_gbps: f64) -> ClusterSpec {
    let node = NodeSpec::new(accelerator, 8, NvlinkGen::Gen3.link());
    let inter = nettech::infiniband(
        format!("IB-{network_gbps:.0}GBps"),
        Bandwidth::from_gb_per_sec(network_gbps),
        node.gpus_per_node,
    );
    ClusterSpec::new("tech-sweep", node, inter)
}

/// Training time of the GPT-7B case on a given cluster.
fn objective_time(cluster: &ClusterSpec) -> f64 {
    let case = refdata::case_gpt7b();
    let cfg = TrainingConfig::new(
        model::presets::by_name(case.model).expect("refdata names a preset"),
        case.batch,
        case.seq,
        case.parallelism(),
    )
    .with_recompute(RecomputeMode::Selective)
    .with_schedule(PipelineSchedule::OneFOneB);
    TrainingEstimator::new(cluster)
        .estimate(&cfg)
        .map(|r| r.time_per_batch.secs())
        .unwrap_or(f64::INFINITY)
}

/// The descent every point of the figure runs.
pub const DESCENT: GradientDescent = GradientDescent {
    iterations: 24,
    learning_rate: 0.08,
    probe: 5e-3,
};

/// The DSE objective at one `(node, hbm, network)` point: the GPT-7B
/// training time on a cluster of accelerators synthesized with the given
/// allocation.
pub fn objective(
    engine: &UArchEngine,
    node: TechNode,
    hbm: DramTechnology,
    network_gbps: f64,
) -> impl Fn(Allocation) -> f64 + '_ {
    let budget = optimus::tech::ResourceBudget::datacenter_gpu();
    move |alloc| {
        let acc = engine.synthesize(node, budget, alloc, hbm);
        objective_time(&cluster_for(acc, network_gbps))
    }
}

/// Runs the DSE at one `(node, hbm, network)` point and returns the
/// optimized execution time.
#[must_use]
pub fn optimize_point(
    engine: &UArchEngine,
    node: TechNode,
    hbm: DramTechnology,
    network_gbps: f64,
) -> Point {
    let result = DESCENT.minimize(
        &SearchSpace::default(),
        objective(engine, node, hbm, network_gbps),
    );
    Point {
        node,
        hbm,
        network_gbps,
        time_s: result.best.objective,
        alloc_compute: result.best.allocation.compute.get(),
        alloc_sram: result.best.allocation.sram.get(),
    }
}

/// Regenerates the full 7-node × 6-series sweep.
#[must_use]
pub fn run() -> Vec<Point> {
    let engine = UArchEngine::a100_at_n7();
    let mut points = Vec::new();
    for (hbm, network) in series() {
        for &node in TechNode::all() {
            points.push(optimize_point(&engine, node, hbm, network));
        }
    }
    points
}

/// The figure as rows of strings (header first).
#[must_use]
pub fn csv() -> Vec<Vec<String>> {
    let mut out = vec![vec![
        "node".to_owned(),
        "hbm".to_owned(),
        "network_gbps".to_owned(),
        "time_s".to_owned(),
        "alloc_compute".to_owned(),
        "alloc_sram".to_owned(),
    ]];
    for p in run() {
        out.push(vec![
            p.node.to_string(),
            p.hbm.to_string(),
            format!("{:.0}", p.network_gbps),
            format!("{:.3}", p.time_s),
            format!("{:.2}", p.alloc_compute),
            format!("{:.2}", p.alloc_sram),
        ]);
    }
    out
}

/// Renders the figure data for the terminal.
#[must_use]
pub fn render() -> String {
    crate::markdown_table(&csv())
}
