//! Fig. 7: GEMM time per transformer layer split into memory- and
//! compute-bound components across technology nodes, for HBM2/3/4
//! (extracted from the Fig. 6 sweep at the 100 GB/s network point).

use optimus::hw::memtech::DramTechnology;
use optimus::hw::nettech::{self, NvlinkGen};
use optimus::hw::{ClusterSpec, NodeSpec};
use optimus::memory::RecomputeMode;
use optimus::prelude::*;
use optimus::refdata;
use optimus::tech::{TechNode, UArchEngine};
use optimus::units::Bandwidth;

/// One bar of the figure.
#[derive(Debug, Clone)]
pub struct Bar {
    /// Logic node.
    pub node: TechNode,
    /// HBM generation.
    pub hbm: DramTechnology,
    /// Time of compute-bound GEMMs in one layer (fwd+bwd, one microbatch),
    /// milliseconds.
    pub compute_bound_ms: f64,
    /// Time of memory-bound GEMMs, milliseconds.
    pub memory_bound_ms: f64,
}

impl Bar {
    /// Total GEMM time of the layer, milliseconds.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.compute_bound_ms + self.memory_bound_ms
    }

    /// Fraction of GEMM time that is memory-bound.
    #[must_use]
    pub fn memory_fraction(&self) -> f64 {
        self.memory_bound_ms / self.total_ms()
    }
}

/// The HBM generations shown in the figure's three panels.
#[must_use]
pub fn panels() -> [DramTechnology; 3] {
    [
        DramTechnology::Hbm2,
        DramTechnology::Hbm3,
        DramTechnology::Hbm4,
    ]
}

/// Regenerates the 7-node × 3-panel breakdown (baseline allocation — the
/// bound-type migration is a property of node scaling, not of the DSE).
#[must_use]
pub fn run() -> Vec<Bar> {
    let engine = UArchEngine::a100_at_n7();
    let case = refdata::case_gpt7b();
    let model = model::presets::by_name(case.model).expect("refdata names a preset");
    let mut bars = Vec::new();
    for hbm in panels() {
        for &node in TechNode::all() {
            let acc = engine.synthesize_at_node(node, hbm);
            let node_spec = NodeSpec::new(acc, 8, NvlinkGen::Gen3.link());
            let inter = nettech::infiniband(
                "IB-100GBps",
                Bandwidth::from_gb_per_sec(100.0),
                node_spec.gpus_per_node,
            );
            let cluster = ClusterSpec::new("fig7", node_spec, inter);
            let cfg = TrainingConfig::new(model.clone(), case.batch, case.seq, case.parallelism())
                .with_recompute(RecomputeMode::Selective);
            let report = TrainingEstimator::new(&cluster)
                .estimate(&cfg)
                .expect("case config is valid");
            bars.push(Bar {
                node,
                hbm,
                compute_bound_ms: report.layer_gemm_split.compute_bound.millis(),
                memory_bound_ms: report.layer_gemm_split.memory_bound.millis(),
            });
        }
    }
    bars
}

/// The figure as rows of strings (header first).
#[must_use]
pub fn csv() -> Vec<Vec<String>> {
    let mut out = vec![vec![
        "node".to_owned(),
        "hbm".to_owned(),
        "compute_bound_ms".to_owned(),
        "memory_bound_ms".to_owned(),
        "memory_fraction".to_owned(),
    ]];
    for b in run() {
        out.push(vec![
            b.node.to_string(),
            b.hbm.to_string(),
            format!("{:.3}", b.compute_bound_ms),
            format!("{:.3}", b.memory_bound_ms),
            format!("{:.2}", b.memory_fraction()),
        ]);
    }
    out
}

/// Renders the figure data for the terminal.
#[must_use]
pub fn render() -> String {
    crate::markdown_table(&csv())
}
