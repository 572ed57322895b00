//! The memoized two-phase training estimator.
//!
//! A strategy sweep evaluates hundreds of (DP, TP, PP, microbatch, SP,
//! precision) points against **one** (model, cluster, workload) triple.
//! The expensive part of each estimate — building the per-layer operator
//! graph and pushing every kernel through the hierarchical roofline —
//! depends only on the sub-tuple (TP, SP, microbatch, precision): DP and
//! PP replicate and schedule the same layer kernels, they never change
//! them. [`PreparedTrainingEstimator`] exploits that split:
//!
//! * **Phase 1 (prepare, once per sweep):** fix the model, cluster, and
//!   workload; build the roofline; pre-compute the useful model FLOPs; and
//!   open a concurrent memo table of [`LayerCosts`] keyed by
//!   `(tp, sp, microbatch, precision)`.
//! * **Phase 2 (evaluate, once per point):** look the layer costs up and
//!   run only the cheap assembly — pipeline algebra, DP/PP collectives,
//!   optimizer update, MFU.
//!
//! The memo table is filled with pure functions of its key, so concurrent
//! evaluation order cannot change any value: a memoized sweep is
//! byte-identical to a naive per-point evaluation (a property the
//! `optimus-sweep` integration tests pin down).

use crate::resilience::ReworkTable;
use crate::{
    CheckpointSpec, GemmBoundSplit, StackContext, TrainError, TrainingBreakdown, TrainingConfig,
    TrainingReport,
};
use optimus_collective::CommModel;
use optimus_hw::{ClusterSpec, Precision};
use optimus_memory::{training_memory, RecomputeMode, TrainingMemoryReport, TrainingMemorySpec};
use optimus_model::{graph, GraphParams, ModelConfig, Op, OpKind};
use optimus_parallel::{CommPlan, Parallelism, PipelineSchedule};
use optimus_roofline::RooflineModel;
use optimus_units::{Bytes, FlopCount, Time};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// Per-operator-list cost accumulator: time plus the energy-relevant
/// volumes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OpsCost {
    pub(crate) time: Time,
    pub(crate) flops: FlopCount,
    pub(crate) dram: Bytes,
}

impl OpsCost {
    pub(crate) fn plus(&self, other: &Self) -> Self {
        Self {
            time: self.time + other.time,
            flops: self.flops + other.flops,
            dram: self.dram + other.dram,
        }
    }

    pub(crate) fn scaled(&self, factor: f64) -> Self {
        Self {
            time: self.time * factor,
            flops: self.flops * factor,
            dram: self.dram * factor,
        }
    }
}

/// Total device time, FLOPs, and DRAM traffic of an operator list at the
/// given GEMM precision (streaming ops already carry their element widths).
/// With a `split`, every GEMM's time is also filed under its bound type
/// (Fig. 7) from the same roofline pass.
pub(crate) fn ops_cost(
    roofline: &RooflineModel<'_>,
    ops: &[Op],
    precision: Precision,
    mut split: Option<&mut GemmBoundSplit>,
) -> Result<OpsCost, TrainError> {
    let mut total = OpsCost::default();
    for op in ops {
        let cost = op.cost(roofline, precision)?;
        let time = cost.total();
        total.time += time;
        total.flops += cost.flops;
        total.dram += cost.dram_traffic();
        if let (OpKind::Gemm(_), Some(split)) = (op.kind, split.as_deref_mut()) {
            if cost.bound().is_compute() {
                split.compute_bound += time;
            } else {
                split.memory_bound += time;
            }
        }
    }
    Ok(total)
}

/// The memo key: the sub-tuple of a strategy that the per-layer kernel
/// costs actually depend on — `(tp, sp, microbatch, precision)`. The
/// workload-level inputs (model, sequence, recomputation mode, flash) are
/// fixed per [`PreparedTrainingEstimator`], and DP/PP only assemble.
type LayerKey = (usize, bool, usize, Precision);

/// Everything shared by all strategy points with the same [`LayerKey`]:
/// the costed per-layer kernels, the embedding/head stage, the Fig. 7
/// bound split, and the TP/SP collective terms (which also depend only on
/// this key).
#[derive(Debug, Clone, Copy)]
struct LayerCosts {
    /// One layer's forward kernels, one microbatch.
    fwd: OpsCost,
    /// One layer's backward kernels, one microbatch.
    bwd: OpsCost,
    /// Recomputation replay per layer under the prepared mode.
    recompute: OpsCost,
    /// Embedding + LM head, forward and backward (already ×3).
    emb_head: OpsCost,
    /// Bound-type split of one layer's fwd+bwd GEMMs.
    gemm_split: GemmBoundSplit,
    /// Block-output activation volume `s·b·h` of one microbatch.
    act_volume: Bytes,
    /// TP/SP collective time per layer per microbatch (fwd + bwd).
    tp_per_layer: Time,
    /// Wire bytes per layer's forward TP/SP collectives.
    tp_fwd_wire: Bytes,
}

/// Phase-1 state of the two-phase training estimator: everything that is
/// invariant across the strategy points of one sweep, plus the layer-cost
/// memo table. Build it once per (model, cluster, workload) and call
/// [`PreparedTrainingEstimator::estimate`] per point.
///
/// ```
/// use optimus_hw::presets;
/// use optimus_model::presets as models;
/// use optimus_parallel::Parallelism;
/// use optimus_train::PreparedTrainingEstimator;
/// use optimus_hw::Precision;
/// use std::sync::Arc;
///
/// let cluster = presets::dgx_a100_hdr_cluster();
/// let prepared = PreparedTrainingEstimator::new(
///     &cluster, Arc::new(models::gpt_22b()), 4, 2048);
/// let t8 = prepared.estimate(Parallelism::new(1, 8, 1), Precision::Fp16).unwrap();
/// let t4 = prepared.estimate(Parallelism::new(1, 4, 1), Precision::Fp16).unwrap();
/// assert!(t8.time_per_batch < t4.time_per_batch);
/// ```
#[derive(Debug)]
pub struct PreparedTrainingEstimator<'a> {
    cluster: &'a ClusterSpec,
    roofline: RooflineModel<'a>,
    model: Arc<ModelConfig>,
    batch: usize,
    seq: usize,
    schedule: PipelineSchedule,
    recompute: RecomputeMode,
    comm: CommModel,
    flash: bool,
    checkpoint: CheckpointSpec,
    /// Expected-rework memo of `checkpoint`, built with it: one set of
    /// Weibull uptime draws for every point this estimator prices.
    rework: ReworkTable,
    /// Useful model FLOPs per batch — a function of (model, batch, seq)
    /// only, so computed once at prepare time.
    model_flops: FlopCount,
    cache: RwLock<HashMap<LayerKey, Result<LayerCosts, TrainError>>>,
}

impl<'a> PreparedTrainingEstimator<'a> {
    /// Prepares an estimator for one (model, cluster, workload) with the
    /// defaults of [`TrainingConfig::new`]: 1F1B scheduling, no
    /// recomputation, automatic collectives, no flash kernel.
    #[must_use]
    pub fn new(
        cluster: &'a ClusterSpec,
        model: Arc<ModelConfig>,
        batch: usize,
        seq: usize,
    ) -> Self {
        let model_flops = compute_model_flops(&model, batch, seq);
        let checkpoint = CheckpointSpec::none();
        Self {
            cluster,
            roofline: RooflineModel::new(cluster.accelerator()),
            model,
            batch,
            seq,
            schedule: PipelineSchedule::OneFOneB,
            recompute: RecomputeMode::None,
            comm: CommModel::Auto,
            flash: false,
            rework: ReworkTable::new(&checkpoint),
            checkpoint,
            model_flops,
            cache: RwLock::new(HashMap::new()),
        }
    }

    /// Prepares from a full [`TrainingConfig`], adopting its workload-level
    /// fields (model, batch, seq, schedule, recompute, comm, flash). The
    /// config's `parallelism` and `precision` are *per-point* inputs — pass
    /// them to [`Self::estimate`] instead.
    #[must_use]
    pub fn from_config(cluster: &'a ClusterSpec, cfg: &TrainingConfig) -> Self {
        Self::new(cluster, Arc::clone(&cfg.model), cfg.batch, cfg.seq)
            .with_schedule(cfg.schedule)
            .with_recompute(cfg.recompute)
            .with_comm(cfg.comm)
            .with_flash(cfg.flash)
    }

    /// Sets the pipeline schedule.
    #[must_use]
    pub fn with_schedule(mut self, schedule: PipelineSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the recomputation strategy.
    #[must_use]
    pub fn with_recompute(mut self, recompute: RecomputeMode) -> Self {
        self.recompute = recompute;
        self
    }

    /// Sets the collective policy.
    #[must_use]
    pub fn with_comm(mut self, comm: CommModel) -> Self {
        self.comm = comm;
        self
    }

    /// Selects the FlashAttention implementation.
    #[must_use]
    pub fn with_flash(mut self, flash: bool) -> Self {
        self.flash = flash;
        self
    }

    /// Sets the failure environment every estimate is priced under. The
    /// default [`CheckpointSpec::none`] leaves reports untouched; an
    /// active spec attaches a resilience section with the
    /// failure-expected batch time (a pure assembly-phase computation —
    /// the layer-cost memo table is unaffected). A Weibull `k ≠ 1` spec
    /// takes its rework uptime draws here, once for every later estimate.
    #[must_use]
    pub fn with_checkpoint(mut self, checkpoint: CheckpointSpec) -> Self {
        self.rework = ReworkTable::new(&checkpoint);
        self.checkpoint = checkpoint;
        self
    }

    /// Number of distinct layer-cost keys materialized so far — the
    /// `O(distinct-kernel-keys)` factor of a sweep's cost.
    #[must_use]
    pub fn cached_keys(&self) -> usize {
        self.cache.read().expect("layer-cost cache poisoned").len()
    }

    /// Number of distinct `(cluster MTBF, τ, δ)` expected-rework keys
    /// materialized so far. Only a Weibull `k ≠ 1` spec materializes
    /// any: the exponential rework `τ/2` is never tabled.
    #[must_use]
    pub fn rework_keys(&self) -> usize {
        self.rework.keys()
    }

    /// Phase-2 evaluation of one strategy point, computing the memory
    /// footprint in-line.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if the parallelization does not divide the
    /// workload/cluster or the precision is unsupported by the device.
    pub fn estimate(
        &self,
        parallelism: Parallelism,
        precision: Precision,
    ) -> Result<TrainingReport, TrainError> {
        // Validate against the cluster before deriving memory, so invalid
        // configs keep their validation error (and cost no footprint).
        parallelism.validate(self.cluster)?;
        let memory = training_memory(
            &self.model,
            &TrainingMemorySpec {
                batch: self.batch,
                seq: self.seq,
                parallelism,
                schedule: self.schedule,
                precision,
                recompute: self.recompute,
            },
        )?;
        self.estimate_with_memory(parallelism, precision, memory)
    }

    /// Phase-2 evaluation with a memory footprint computed elsewhere —
    /// the sweep engine passes the footprint the pruning pass already
    /// derived, so memory is computed exactly once per point.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if the parallelization does not divide the
    /// workload/cluster or the precision is unsupported by the device.
    pub fn estimate_with_memory(
        &self,
        parallelism: Parallelism,
        precision: Precision,
        memory: TrainingMemoryReport,
    ) -> Result<TrainingReport, TrainError> {
        let p = parallelism;
        p.validate(self.cluster)?;
        let microbatches = p.microbatches(self.batch)?;
        let layers_per_stage = p.layers_per_stage(self.model.layers)?;

        let lc = self.layer_costs(p.tp, p.sp, p.microbatch, precision)?;
        let layer_cost = lc.fwd.plus(&lc.bwd).plus(&lc.recompute);
        let layer_time = layer_cost.time;
        let plan = CommPlan::new(self.cluster, p, self.comm);

        // --- pipeline assembly --------------------------------------------
        let stage_compute = layer_time * layers_per_stage as f64;
        let stage_tp = lc.tp_per_layer * layers_per_stage as f64;
        let stage_extra = lc.emb_head.time / p.pp as f64;
        // Two stage-boundary crossings per microbatch (forward activation
        // out, backward gradient in), times the interleaving multiplier.
        let p2p_per_ubatch = plan.pp_hop(lc.act_volume) * 2.0 * self.schedule.p2p_multiplier();

        let stage_time = stage_compute + stage_tp + stage_extra + p2p_per_ubatch;
        let busy = stage_time * microbatches as f64;
        let bubble = busy * self.schedule.bubble_fraction(p.pp, microbatches);

        // --- once-per-batch terms ------------------------------------------
        let params_per_device = layers_per_stage as f64 * self.model.layer_param_count()
            / p.tp as f64
            + self.model.embedding_param_count() / p.tp as f64;
        let grad_volume = Bytes::new(params_per_device * precision.bytes());
        let dp_comm = plan.dp_gradient_allreduce(grad_volume);
        let weight_update = self.weight_update_time(precision, params_per_device);

        // --- aggregate -------------------------------------------------------
        let compute = (layer_time * layers_per_stage as f64 + stage_extra) * microbatches as f64;
        let tp_comm = stage_tp * microbatches as f64;
        let pp_comm = p2p_per_ubatch * microbatches as f64;
        let breakdown = TrainingBreakdown {
            compute,
            tp_comm,
            pp_comm,
            dp_comm,
            bubble,
            weight_update,
        };
        let time_per_batch = breakdown.total();

        // --- per-device energy-relevant totals ---------------------------
        let ubatches = microbatches as f64;
        let device_flops = FlopCount::new(
            (layer_cost.flops.get() * layers_per_stage as f64
                + lc.emb_head.flops.get() / p.pp as f64)
                * ubatches,
        );
        let optimizer_traffic = Bytes::new(params_per_device * (16.0 + 12.0 + precision.bytes()));
        let dram_traffic = Bytes::new(
            (layer_cost.dram.bytes() * layers_per_stage as f64
                + lc.emb_head.dram.bytes() / p.pp as f64)
                * ubatches,
        ) + optimizer_traffic;
        let network_traffic = lc.tp_fwd_wire * (2.0 * layers_per_stage as f64 * ubatches)
            + plan.pp_wire_bytes(lc.act_volume) * (2.0 * self.schedule.p2p_multiplier() * ubatches)
            + plan.dp_wire_bytes(grad_volume);

        // --- MFU ---------------------------------------------------------------
        let peak = self.cluster.accelerator().peak(precision)?;
        let system_peak = peak * p.total_gpus() as f64;
        let mfu = self.model_flops.get() / (system_peak.get() * time_per_batch.secs());

        let resilience = self.checkpoint.evaluate_with_table(
            &StackContext {
                cluster: self.cluster,
                memory: &memory,
                gpus: p.total_gpus(),
                parallelism: Some(p),
                comm: self.comm,
                time_per_batch,
            },
            &|dp| self.reprice_dp(p, precision, dp).ok(),
            &self.rework,
        );

        Ok(TrainingReport {
            time_per_batch,
            breakdown,
            memory,
            microbatches,
            model_flops: self.model_flops,
            mfu,
            layer_gemm_split: lc.gemm_split,
            device_flops,
            dram_traffic,
            network_traffic,
            resilience,
        })
    }

    /// The elastic repricing entry point: the failure-free time of one
    /// *shrunken* batch after the DP group drops from `parallelism.dp`
    /// to `dp` replicas. The per-replica batch stays constant (the
    /// global batch shrinks to `batch · dp / parallelism.dp`), so the
    /// microbatch count per pipeline is unchanged and the layer-cost
    /// memo key is identical — repricing is pure assembly, exactly like
    /// a DP change within a sweep.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] when the shrunken parallelization is
    /// invalid for the cluster, the batch does not divide across the
    /// original DP group, or the precision is unsupported.
    pub fn reprice_dp(
        &self,
        parallelism: Parallelism,
        precision: Precision,
        dp: usize,
    ) -> Result<Time, TrainError> {
        let p = parallelism;
        // Integer per-group batch: `estimate` already divided the batch
        // across p.dp groups, so this is exact for any strategy that
        // evaluated successfully.
        let batch = self.batch / p.dp * dp;
        let shrunk = Parallelism::new(dp.max(1), p.tp, p.pp)
            .with_sp(p.sp)
            .with_microbatch(p.microbatch);
        shrunk.validate(self.cluster)?;
        let microbatches = shrunk.microbatches(batch)?;
        let layers_per_stage = shrunk.layers_per_stage(self.model.layers)?;

        let lc = self.layer_costs(shrunk.tp, shrunk.sp, shrunk.microbatch, precision)?;
        let layer_cost = lc.fwd.plus(&lc.bwd).plus(&lc.recompute);
        let layer_time = layer_cost.time;
        let plan = CommPlan::new(self.cluster, shrunk, self.comm);

        let stage_compute = layer_time * layers_per_stage as f64;
        let stage_tp = lc.tp_per_layer * layers_per_stage as f64;
        let stage_extra = lc.emb_head.time / shrunk.pp as f64;
        let p2p_per_ubatch = plan.pp_hop(lc.act_volume) * 2.0 * self.schedule.p2p_multiplier();

        let stage_time = stage_compute + stage_tp + stage_extra + p2p_per_ubatch;
        let busy = stage_time * microbatches as f64;
        let bubble = busy * self.schedule.bubble_fraction(shrunk.pp, microbatches);

        let params_per_device = layers_per_stage as f64 * self.model.layer_param_count()
            / shrunk.tp as f64
            + self.model.embedding_param_count() / shrunk.tp as f64;
        let grad_volume = Bytes::new(params_per_device * precision.bytes());
        let dp_comm = plan.dp_gradient_allreduce(grad_volume);
        let weight_update = self.weight_update_time(precision, params_per_device);

        Ok(busy + bubble + dp_comm + weight_update)
    }

    /// Looks a key up in the memo table, computing (and publishing) it on a
    /// miss. Values are pure functions of the key given the prepared
    /// context, so a racing duplicate computation produces the identical
    /// value — results never depend on evaluation order or thread count.
    fn layer_costs(
        &self,
        tp: usize,
        sp: bool,
        microbatch: usize,
        precision: Precision,
    ) -> Result<LayerCosts, TrainError> {
        let key = (tp, sp, microbatch, precision);
        if let Some(hit) = self
            .cache
            .read()
            .expect("layer-cost cache poisoned")
            .get(&key)
        {
            return hit.clone();
        }
        // Compute outside the lock: the table stays available to other
        // evaluation threads while this (possibly slow) roofline pass runs.
        let computed = self.compute_layer_costs(tp, sp, microbatch, precision);
        self.cache
            .write()
            .expect("layer-cost cache poisoned")
            .entry(key)
            .or_insert_with(|| computed.clone());
        computed
    }

    /// The memo-miss path: builds and costs one layer's operator graph, the
    /// embedding/head stage, and the TP/SP collective terms for a key.
    fn compute_layer_costs(
        &self,
        tp: usize,
        sp: bool,
        microbatch: usize,
        precision: Precision,
    ) -> Result<LayerCosts, TrainError> {
        let gp = GraphParams::prefill(microbatch, self.seq, tp, precision)
            .with_sp(sp)
            .with_flash(self.flash);

        // Each forward and backward GEMM is filed into the per-layer bound
        // split (Fig. 7) as it is costed.
        let mut gemm_split = GemmBoundSplit::default();
        let fwd_ops = graph::layer_forward_ops(&self.model, &gp);
        let bwd_ops = graph::layer_backward_ops(&self.model, &gp);
        let fwd = ops_cost(&self.roofline, &fwd_ops, precision, Some(&mut gemm_split))?;
        let bwd = ops_cost(&self.roofline, &bwd_ops, precision, Some(&mut gemm_split))?;
        let recompute = match self.recompute {
            RecomputeMode::None => OpsCost::default(),
            RecomputeMode::Selective => ops_cost(
                &self.roofline,
                &graph::selective_recompute_ops(&self.model, &gp),
                precision,
                None,
            )?,
            // Full recomputation replays the whole forward pass.
            RecomputeMode::Full { .. } => fwd,
        };

        // Embedding + LM head (first/last stage); backward roughly doubles
        // the forward, hence ×3.
        let emb_head_ops: Vec<Op> = graph::embedding_ops(&self.model, &gp)
            .into_iter()
            .chain(graph::head_ops(&self.model, &gp))
            .collect();
        let emb_head = ops_cost(&self.roofline, &emb_head_ops, precision, None)?.scaled(3.0);

        // TP/SP collectives see only (tp, sp) and the microbatch activation
        // volume, so they memoize under the same key. DP/PP terms are
        // per-point and stay in the assembly phase.
        let act_volume =
            Bytes::new((microbatch * self.seq * self.model.hidden) as f64 * precision.bytes());
        let tp_plan = CommPlan::new(
            self.cluster,
            Parallelism::new(1, tp, 1)
                .with_sp(sp)
                .with_microbatch(microbatch),
            self.comm,
        );
        let tp_per_layer =
            tp_plan.tp_layer_forward(act_volume) + tp_plan.tp_layer_backward(act_volume);
        let tp_fwd_wire = tp_plan.tp_layer_forward_wire_bytes(act_volume);

        Ok(LayerCosts {
            fwd,
            bwd,
            recompute,
            emb_head,
            gemm_split,
            act_volume,
            tp_per_layer,
            tp_fwd_wire,
        })
    }

    /// Optimizer update: stream gradients, Adam moments, master weights
    /// (read + write) and store the new low-precision weights.
    fn weight_update_time(&self, precision: Precision, params: f64) -> Time {
        // Reads: grad(4) + m(4) + v(4) + master(4); writes: m, v, master,
        // weight(precision).
        let traffic = Bytes::new(params * (16.0 + 12.0 + precision.bytes()));
        let dram = self.cluster.accelerator().dram.bandwidth;
        let util = self
            .cluster
            .accelerator()
            .calibration
            .dram_utilization
            .factor(traffic);
        traffic / (dram * util.get())
    }
}

/// Useful (non-recompute) model FLOPs per batch: 3× the forward GEMM work
/// of the full model (backward counts double), plus head. GEMM FLOPs are a
/// pure shape property, so any precision yields the same count.
fn compute_model_flops(model: &ModelConfig, batch: usize, seq: usize) -> FlopCount {
    let gp = GraphParams::prefill(batch, seq, 1, Precision::Fp16);
    let layer: f64 = graph::layer_forward_ops(model, &gp)
        .iter()
        .filter_map(|o| o.as_gemm().map(|g| g.flops().get()))
        .sum();
    let head: f64 = graph::head_ops(model, &gp)
        .iter()
        .filter_map(|o| o.as_gemm().map(|g| g.flops().get()))
        .sum();
    FlopCount::new(3.0 * (layer * model.layers as f64 + head))
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_hw::presets;
    use optimus_model::presets as models;

    /// The prepared path and the one-shot `TrainingEstimator` path must
    /// produce identical reports — same code, memoized vs not.
    #[test]
    fn prepared_matches_one_shot_estimator() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::gpt_22b());
        let prepared = PreparedTrainingEstimator::new(&cluster, Arc::clone(&model), 8, 2048)
            .with_recompute(RecomputeMode::Selective);
        for (tp, pp) in [(8, 1), (4, 2), (2, 1)] {
            let p = Parallelism::new(1, tp, pp).with_sp(tp > 1);
            let cfg = crate::TrainingConfig::new(Arc::clone(&model), 8, 2048, p)
                .with_recompute(RecomputeMode::Selective);
            let one_shot = crate::TrainingEstimator::new(&cluster)
                .estimate(&cfg)
                .unwrap();
            let fast = prepared.estimate(p, Precision::Fp16).unwrap();
            assert_eq!(one_shot, fast, "tp={tp} pp={pp}");
        }
    }

    /// Oracle for the single-pass bound split: `layer_gemm_split` must
    /// equal, bit for bit, a second `batched_gemm` pass over the layer's
    /// forward and backward GEMMs that classifies each by bound type,
    /// under every recomputation mode with the flash kernel on and off.
    #[test]
    fn gemm_split_matches_a_recosting_reference() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let roofline = RooflineModel::new(cluster.accelerator());
        let precision = Precision::Fp16;
        let (batch, seq) = (8, 2048);
        let p = Parallelism::new(1, 2, 1).with_sp(true).with_microbatch(2);
        for model in [models::llama2_13b(), models::gpt_7b()] {
            let model = Arc::new(model);
            for recompute in [
                RecomputeMode::None,
                RecomputeMode::Selective,
                RecomputeMode::Full {
                    checkpoints_per_stage: None,
                },
            ] {
                for flash in [false, true] {
                    let report =
                        PreparedTrainingEstimator::new(&cluster, Arc::clone(&model), batch, seq)
                            .with_recompute(recompute)
                            .with_flash(flash)
                            .estimate(p, precision)
                            .unwrap();
                    let gp = GraphParams::prefill(p.microbatch, seq, p.tp, precision)
                        .with_sp(p.sp)
                        .with_flash(flash);
                    let mut reference = GemmBoundSplit::default();
                    let fwd = graph::layer_forward_ops(&model, &gp);
                    let bwd = graph::layer_backward_ops(&model, &gp);
                    for op in fwd.iter().chain(&bwd) {
                        if let OpKind::Gemm(g) = op.kind {
                            let cost = roofline.batched_gemm(g, precision).unwrap();
                            if cost.bound().is_compute() {
                                reference.compute_bound += cost.total();
                            } else {
                                reference.memory_bound += cost.total();
                            }
                        }
                    }
                    let split = report.layer_gemm_split;
                    let what = format!("{} {recompute:?} flash={flash}", model.name);
                    assert!(reference.compute_bound.secs() > 0.0, "{what}");
                    assert_eq!(
                        split.compute_bound.secs().to_bits(),
                        reference.compute_bound.secs().to_bits(),
                        "{what}"
                    );
                    assert_eq!(
                        split.memory_bound.secs().to_bits(),
                        reference.memory_bound.secs().to_bits(),
                        "{what}"
                    );
                }
            }
        }
    }

    /// Repeated evaluation at one key hits the memo table: the second call
    /// must not grow the table.
    #[test]
    fn memo_table_grows_only_per_distinct_key() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let prepared =
            PreparedTrainingEstimator::new(&cluster, Arc::new(models::llama2_13b()), 16, 2048);
        assert_eq!(prepared.cached_keys(), 0);
        // dp=1 and dp=2 share the (tp=2, sp=false, mb=1, fp16) key.
        prepared
            .estimate(Parallelism::new(1, 2, 1), Precision::Fp16)
            .unwrap();
        assert_eq!(prepared.cached_keys(), 1);
        prepared
            .estimate(Parallelism::new(2, 2, 1), Precision::Fp16)
            .unwrap();
        assert_eq!(prepared.cached_keys(), 1);
        prepared
            .estimate(Parallelism::new(1, 2, 1), Precision::Bf16)
            .unwrap();
        assert_eq!(prepared.cached_keys(), 2);
    }

    /// The microbatch size moves neither the checkpoint shard, the device
    /// count nor the tier write times, so re-pricing one (tp, pp, dp,
    /// precision) at other microbatch sizes replays the rework memo.
    #[test]
    fn rework_memo_grows_only_per_distinct_key() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let spec = CheckpointSpec::with_mtbf(1e4)
            .with_restart(900.0)
            .with_process(optimus_hw::FailureProcess::Weibull { shape: 0.7 })
            .with_tiers(vec![
                crate::CheckpointTier::peer(),
                crate::CheckpointTier::delta(),
            ])
            .with_elastic(true);
        let prepared =
            PreparedTrainingEstimator::new(&cluster, Arc::new(models::llama2_13b()), 64, 2048)
                .with_recompute(RecomputeMode::Selective)
                .with_checkpoint(spec);
        assert_eq!(prepared.rework_keys(), 0);
        let point = |mb| Parallelism::new(4, 4, 2).with_microbatch(mb);
        prepared.estimate(point(1), Precision::Fp16).unwrap();
        let keys = prepared.rework_keys();
        assert!(keys > 0);
        for mb in [2, 4, 8] {
            let report = prepared.estimate(point(mb), Precision::Fp16).unwrap();
            assert!(report.resilience.is_some());
            assert_eq!(prepared.rework_keys(), keys, "microbatch {mb}");
        }
    }

    #[test]
    fn closed_form_rework_materializes_no_key() {
        let cluster = presets::dgx_a100_hdr_cluster();
        for process in [
            optimus_hw::FailureProcess::Exponential,
            optimus_hw::FailureProcess::Weibull { shape: 1.0 },
        ] {
            let spec = CheckpointSpec::with_mtbf(1e4)
                .with_restart(900.0)
                .with_process(process)
                .with_tier(crate::CheckpointTier::delta());
            let prepared =
                PreparedTrainingEstimator::new(&cluster, Arc::new(models::llama2_13b()), 64, 2048)
                    .with_checkpoint(spec);
            for tp in [1, 2, 4, 8] {
                let report = prepared
                    .estimate(Parallelism::new(2, tp, 4), Precision::Fp16)
                    .unwrap();
                assert!(report.resilience.is_some());
            }
            assert_eq!(prepared.rework_keys(), 0, "{process:?}");
        }
    }

    /// Errors memoize too: an unsupported precision fails identically on
    /// the cached path.
    #[test]
    fn unsupported_precision_errors_consistently() {
        let cluster = presets::dgx_a100_hdr_cluster(); // A100: no FP4
        let prepared =
            PreparedTrainingEstimator::new(&cluster, Arc::new(models::llama2_13b()), 4, 2048);
        let p = Parallelism::new(1, 2, 1);
        let first = prepared.estimate(p, Precision::Fp4);
        let second = prepared.estimate(p, Precision::Fp4);
        assert!(first.is_err());
        assert_eq!(first, second);
    }
}
