//! The memoized two-phase inference estimator.
//!
//! An inference sweep evaluates every feasible (TP, precision) pair of one
//! (model, cluster, request-shape) triple, and the decode loop alone walks
//! `generate` contexts per point. Only the attention core of a decode layer
//! reads the context (the embedding/LM-head stage never does), so all
//! decode steps of a point share one head entry and one layer base, and a
//! step re-costs just its attention core. [`PreparedInferenceEstimator`]
//! holds the roofline and the concurrent memo tables; per-point evaluation
//! reduces to lookups, those re-costs, and the communication and assembly
//! arithmetic.
//!
//! Memo values are pure functions of their keys, so concurrent fill order
//! cannot change any result: a memoized sweep is byte-identical to naive
//! per-point evaluation.

use crate::{GemmAnalysis, InferenceBreakdown, InferenceConfig, InferenceReport};
use optimus_collective::CommModel;
use optimus_hw::{ClusterSpec, HwError, Precision};
use optimus_memory::{inference_memory, InferenceMemoryReport};
use optimus_model::{graph, GraphParams, ModelConfig, Op, OpKind};
use optimus_parallel::{CommPlan, Parallelism};
use optimus_roofline::{BoundType, KernelCost, RooflineModel};
use optimus_units::{Bytes, FlopCount, Time};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, RwLock};

/// Cost of one operator list: bound-type time breakdown, the
/// energy-relevant volumes, and — when costed in full by
/// [`PreparedInferenceEstimator::ops_cost`] — the per-GEMM analysis rows.
/// Cached behind an [`Arc`] so warm lookups clone a pointer, not the rows.
#[derive(Debug, Clone, Default)]
struct StepCost {
    bd: InferenceBreakdown,
    flops: FlopCount,
    dram: Bytes,
    gemms: Vec<GemmAnalysis>,
}

impl StepCost {
    /// Files one kernel: its roofline time under its bound type, its fixed
    /// overhead under `overhead`, and its volumes.
    fn file(&mut self, kernel: &Filed) {
        if kernel.bound.is_compute() {
            self.bd.compute += kernel.roofline;
        } else {
            self.bd.memory += kernel.roofline;
        }
        self.bd.overhead += kernel.overhead;
        self.flops += kernel.flops;
        self.dram += kernel.dram;
    }
}

/// The terms of one kernel's [`KernelCost`] that a [`StepCost`] files,
/// a third of its size: decode layer bases hold one per operator.
#[derive(Debug, Clone, Copy)]
struct Filed {
    roofline: Time,
    overhead: Time,
    flops: FlopCount,
    dram: Bytes,
    bound: BoundType,
}

impl From<KernelCost> for Filed {
    fn from(cost: KernelCost) -> Self {
        Self {
            roofline: cost.roofline_time(),
            overhead: cost.overhead,
            flops: cost.flops,
            dram: cost.dram_traffic(),
            bound: cost.bound(),
        }
    }
}

/// The context-independent part of one decode layer at a `(batch, tp,
/// precision)`: its operators at a representative context, each with its
/// kernel cost. Under decode only the attention core (`AttnScores`,
/// `Softmax`, the optional `AttnDropout`, `AttnOverValues`) reads the
/// context, so [`PreparedInferenceEstimator::decode_layer`] re-costs only
/// those operators per context and reuses every other cost from here.
type DecodeBase = Vec<(Op, Filed)>;

/// Memo key of one transformer layer's kernels: `(batch, seq, kv_len, tp,
/// precision)`. `seq` is the prompt length for prefill and 1 for a
/// serving decode iteration; `kv_len` is the attention context. A one-shot
/// estimate uses a single batch value, but the serving iteration APIs vary
/// it — continuous batching grows and shrinks the decode batch every
/// iteration — so the batch is part of the key. The one-shot decode loop
/// does not enter this table.
type LayerKey = (usize, usize, usize, usize, Precision);

/// Memo key of the context-independent decode layer base: `(batch, tp,
/// precision)`.
type DecodeKey = (usize, usize, Precision);

/// Memo key of the embedding + LM-head stage: `(batch, seq, tp,
/// precision)` — these ops never read the attention context, which is what
/// collapses the whole decode loop's head work onto a single entry.
type ExtraKey = (usize, usize, usize, Precision);

/// A concurrent memo table; errors memoize too.
type MemoTable<K, V> = RwLock<HashMap<K, Result<Arc<V>, HwError>>>;

/// Phase-1 state of the two-phase inference estimator: the roofline and
/// the per-step kernel-cost memo tables, fixed to one (model, cluster,
/// request shape). Build once per sweep, call
/// [`PreparedInferenceEstimator::estimate`] per (TP, precision) point.
///
/// ```
/// use optimus_hw::presets;
/// use optimus_hw::Precision;
/// use optimus_infer::PreparedInferenceEstimator;
/// use optimus_model::presets as models;
/// use std::sync::Arc;
///
/// let cluster = presets::dgx_a100_hdr_cluster();
/// let prepared = PreparedInferenceEstimator::new(
///     &cluster, Arc::new(models::llama2_13b()), 1, 200, 200);
/// let t1 = prepared.estimate(1, Precision::Fp16).unwrap();
/// let t8 = prepared.estimate(8, Precision::Fp16).unwrap();
/// assert!(t8.total < t1.total);
/// ```
#[derive(Debug)]
pub struct PreparedInferenceEstimator<'a> {
    cluster: &'a ClusterSpec,
    roofline: RooflineModel<'a>,
    model: Arc<ModelConfig>,
    batch: usize,
    prefill: usize,
    generate: usize,
    comm: CommModel,
    layer_cache: MemoTable<LayerKey, StepCost>,
    decode_cache: MemoTable<DecodeKey, DecodeBase>,
    extra_cache: MemoTable<ExtraKey, StepCost>,
}

impl<'a> PreparedInferenceEstimator<'a> {
    /// Prepares an estimator for one (model, cluster, request shape) with
    /// automatic collective selection.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero (same contract as
    /// [`InferenceConfig::new`]).
    #[must_use]
    pub fn new(
        cluster: &'a ClusterSpec,
        model: Arc<ModelConfig>,
        batch: usize,
        prefill: usize,
        generate: usize,
    ) -> Self {
        assert!(
            batch > 0 && prefill > 0 && generate > 0,
            "inference shape must be positive"
        );
        Self {
            cluster,
            roofline: RooflineModel::new(cluster.accelerator()),
            model,
            batch,
            prefill,
            generate,
            comm: CommModel::Auto,
            layer_cache: RwLock::new(HashMap::new()),
            decode_cache: RwLock::new(HashMap::new()),
            extra_cache: RwLock::new(HashMap::new()),
        }
    }

    /// Prepares from a full [`InferenceConfig`], adopting its request-level
    /// fields. The config's `tp` and `precision` are *per-point* inputs —
    /// pass them to [`Self::estimate`] instead.
    #[must_use]
    pub fn from_config(cluster: &'a ClusterSpec, cfg: &InferenceConfig) -> Self {
        Self::new(
            cluster,
            Arc::clone(&cfg.model),
            cfg.batch,
            cfg.prefill,
            cfg.generate,
        )
        .with_comm(cfg.comm)
    }

    /// Prepares an estimator for iteration-level serving simulation, where
    /// every batch/sequence shape arrives per call through
    /// [`Self::prefill_iteration`] and [`Self::decode_iteration`] rather
    /// than from a fixed request shape.
    #[must_use]
    pub fn for_serving(cluster: &'a ClusterSpec, model: Arc<ModelConfig>) -> Self {
        Self::new(cluster, model, 1, 1, 1)
    }

    /// Sets the collective policy.
    #[must_use]
    pub fn with_comm(mut self, comm: CommModel) -> Self {
        self.comm = comm;
        self
    }

    /// Number of distinct per-step kernel keys materialized so far.
    #[must_use]
    pub fn cached_keys(&self) -> usize {
        fn len<K, V>(table: &MemoTable<K, V>) -> usize {
            table.read().expect("memo table poisoned").len()
        }
        len(&self.layer_cache) + len(&self.decode_cache) + len(&self.extra_cache)
    }

    /// Phase-2 evaluation of one (TP, precision) point, computing the
    /// memory footprint in-line.
    ///
    /// # Errors
    ///
    /// Returns [`HwError`] when the device lacks the serving precision.
    pub fn estimate(&self, tp: usize, precision: Precision) -> Result<InferenceReport, HwError> {
        let memory = inference_memory(
            &self.model,
            self.batch,
            self.prefill + self.generate,
            tp,
            precision,
        );
        self.estimate_with_memory(tp, precision, memory)
    }

    /// Phase-2 evaluation with a memory footprint computed elsewhere — the
    /// sweep engine passes the footprint its pruning pass already derived.
    ///
    /// # Errors
    ///
    /// Returns [`HwError`] when the device lacks the serving precision.
    pub fn estimate_with_memory(
        &self,
        tp: usize,
        precision: Precision,
        memory: InferenceMemoryReport,
    ) -> Result<InferenceReport, HwError> {
        assert!(tp > 0, "tp must be positive");
        let parallelism = Parallelism::tensor_parallel(tp);
        let plan = CommPlan::new(self.cluster, parallelism, self.comm);
        let layers = self.model.layers as f64;

        // --- prefill -----------------------------------------------------
        let pre_params = GraphParams::prefill(self.batch, self.prefill, tp, precision);
        let mut prefill_bd = InferenceBreakdown::default();
        let mut device_flops = FlopCount::ZERO;
        let mut dram_traffic = Bytes::ZERO;
        let mut network_traffic = Bytes::ZERO;
        let pre_layer = self.layer_cost(&pre_params)?;
        add_scaled(&mut prefill_bd, &pre_layer.bd, layers);
        device_flops += pre_layer.flops * layers;
        dram_traffic += pre_layer.dram * layers;

        // Two all-reduces per layer over the full prompt activations.
        let pre_volume =
            Bytes::new((self.batch * self.prefill * self.model.hidden) as f64 * precision.bytes());
        prefill_bd.communication += plan.tp_layer_inference(pre_volume) * layers;
        network_traffic += plan.tp_layer_forward_wire_bytes(pre_volume) * layers;

        // Embedding + head once (only the final token's logits matter for
        // generation, but serving stacks compute the full prompt's logits
        // in the summarization pass).
        let pre_extra = self.extra_cost(&pre_params)?;
        add_scaled(&mut prefill_bd, &pre_extra.bd, 1.0);
        device_flops += pre_extra.flops;
        dram_traffic += pre_extra.dram;

        let prefill_time = prefill_bd.total();

        // --- decode loop (exact, token by token) ---------------------------
        // Only the attention core reads the context: the layer base, the
        // head stage and the all-reduce terms are the same at every step.
        let mut decode_bd = InferenceBreakdown::default();
        let decode_comm_volume =
            Bytes::new((self.batch * self.model.hidden) as f64 * precision.bytes());
        let decode_comm = plan.tp_layer_inference(decode_comm_volume) * layers;
        let decode_wire = plan.tp_layer_forward_wire_bytes(decode_comm_volume) * layers;
        let first = GraphParams::decode(self.batch, 1, tp, precision);
        let base = self.decode_base(&first)?;
        let extra = self.extra_cost(&first)?;
        for step in 0..self.generate {
            let ctx = self.prefill + step;
            let dp = GraphParams::decode(self.batch, ctx, tp, precision);
            let layer = self.decode_layer(&base, &dp)?;
            add_scaled(&mut decode_bd, &layer.bd, layers);
            device_flops += layer.flops * layers;
            dram_traffic += layer.dram * layers;
            decode_bd.communication += decode_comm;
            network_traffic += decode_wire;

            add_scaled(&mut decode_bd, &extra.bd, 1.0);
            device_flops += extra.flops;
            dram_traffic += extra.dram;
        }
        let decode_time = decode_bd.total();
        // The report's decode GEMM table is the final context's.
        let last = GraphParams::decode(self.batch, self.prefill + self.generate - 1, tp, precision);
        let decode_gemms = self
            .ops_cost(&graph::layer_forward_ops(&self.model, &last), precision)?
            .gemms;
        let per_token = decode_time / self.generate as f64;

        // --- totals ---------------------------------------------------------
        let mut breakdown = prefill_bd;
        add_scaled(&mut breakdown, &decode_bd, 1.0);
        // `add_scaled` does not sum communication (it is not a KernelCost
        // category); combine explicitly.
        breakdown.communication = prefill_bd.communication + decode_bd.communication;

        Ok(InferenceReport {
            total: prefill_time + decode_time,
            prefill: prefill_time,
            decode: decode_time,
            per_token,
            breakdown,
            prefill_breakdown: prefill_bd,
            memory,
            prefill_gemms: pre_layer.gemms.clone(),
            decode_gemms,
            device_flops,
            dram_traffic,
            network_traffic,
        })
    }

    /// Wall-clock time of one continuous-batching **prefill iteration**:
    /// `batch` prompts of `prompt` tokens each run through every layer
    /// (with the per-layer TP all-reduces) plus the embedding/LM-head
    /// stage. Memoized on `(batch, prompt, tp, precision)` like every
    /// other step, so a serving simulator re-pricing the same prompt
    /// length pays a hash lookup.
    ///
    /// The request-shape fields the estimator was prepared with (`batch`,
    /// `prefill`, `generate`) are not consulted — iteration pricing is
    /// fully parameterized by its arguments.
    ///
    /// # Errors
    ///
    /// Returns [`HwError`] when the device lacks the serving precision.
    ///
    /// # Panics
    ///
    /// Panics if `batch`, `prompt`, or `tp` is zero.
    pub fn prefill_iteration(
        &self,
        batch: usize,
        prompt: usize,
        tp: usize,
        precision: Precision,
    ) -> Result<Time, HwError> {
        assert!(
            batch > 0 && prompt > 0 && tp > 0,
            "degenerate prefill iteration"
        );
        self.iteration(&GraphParams::prefill(batch, prompt, tp, precision))
    }

    /// Wall-clock time of one continuous-batching **decode iteration**:
    /// `batch` requests each generate one token attending over `kv_len`
    /// cached entries (a mixed batch is priced at its aggregate context —
    /// see `optimus-serve`), through every layer plus the per-layer TP
    /// all-reduces and the LM-head stage. Memoized on
    /// `(batch, kv_len, tp, precision)`.
    ///
    /// For `batch = 1` this is exactly the per-step term of
    /// [`Self::estimate`]'s decode loop, which is what lets a serving
    /// simulator degenerate to the static analytical model when requests
    /// never overlap.
    ///
    /// # Errors
    ///
    /// Returns [`HwError`] when the device lacks the serving precision.
    ///
    /// # Panics
    ///
    /// Panics if `batch`, `kv_len`, or `tp` is zero.
    pub fn decode_iteration(
        &self,
        batch: usize,
        kv_len: usize,
        tp: usize,
        precision: Precision,
    ) -> Result<Time, HwError> {
        assert!(
            batch > 0 && kv_len > 0 && tp > 0,
            "degenerate decode iteration"
        );
        self.iteration(&GraphParams::decode(batch, kv_len, tp, precision))
    }

    /// One serving iteration of the pass described by `gp`: every layer,
    /// each with its TP all-reduces over the `batch · seq` new tokens,
    /// plus the embedding/LM-head stage.
    fn iteration(&self, gp: &GraphParams) -> Result<Time, HwError> {
        let layer = self.layer_cost(gp)?;
        let extra = self.extra_cost(gp)?;
        let layers = self.model.layers as f64;
        let plan = CommPlan::new(self.cluster, Parallelism::tensor_parallel(gp.tp), self.comm);
        let tokens = gp.batch * gp.seq;
        let volume = Bytes::new((tokens * self.model.hidden) as f64 * gp.precision.bytes());
        Ok(layer.bd.total() * layers + plan.tp_layer_inference(volume) * layers + extra.bd.total())
    }

    /// Seals decode-iteration costs for one `(tp, precision)` strategy
    /// into an immutable [`crate::DecodeCostTable`] covering batches up to
    /// `max_batch` and aggregate contexts up to `max_kv` on the default
    /// quantization grids (exact to [`crate::sealed::BATCH_EXACT`] /
    /// [`crate::sealed::KV_EXACT`], then
    /// [`crate::sealed::BUCKETS_PER_OCTAVE`] log-scale buckets per
    /// doubling).
    ///
    /// Each entry is computed through the same operator-costing path as
    /// [`Self::decode_iteration`], with the same floating-point evaluation
    /// order, so grid points are **bit-identical** to the memoized path —
    /// but the fill bypasses the memo tables entirely: sealing neither
    /// takes the locks per entry nor grows the maps, and lookups against
    /// the sealed table do zero locking and zero hashing.
    ///
    /// The fill is row-factored through the same decode-layer
    /// factoring [`Self::estimate`] and [`Self::decode_iteration`] use:
    /// each batch row costs the layer's context-independent base once,
    /// and every column re-costs only the attention-core operators, so
    /// every `f64` sum is the one [`Self::decode_iteration`] computes.
    ///
    /// # Errors
    ///
    /// Returns [`HwError`] when the device lacks the serving precision.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch`, `max_kv`, or `tp` is zero.
    pub fn seal_decode_costs(
        &self,
        max_batch: usize,
        max_kv: usize,
        tp: usize,
        precision: Precision,
    ) -> Result<crate::DecodeCostTable, HwError> {
        use crate::sealed::{LogGrid, BATCH_EXACT, BUCKETS_PER_OCTAVE, KV_EXACT};
        assert!(
            max_batch > 0 && max_kv > 0 && tp > 0,
            "degenerate decode-table bounds"
        );
        let batch_grid = LogGrid::new(BATCH_EXACT, BUCKETS_PER_OCTAVE, max_batch);
        let kv_grid = LogGrid::new(KV_EXACT, BUCKETS_PER_OCTAVE, max_kv);
        let layers = self.model.layers as f64;
        let plan = CommPlan::new(self.cluster, Parallelism::tensor_parallel(tp), self.comm);
        let mut costs = Vec::with_capacity(batch_grid.len() * kv_grid.len());
        for &batch in batch_grid.values() {
            // The embedding/LM-head stage and the per-layer all-reduce
            // volume never see the context (pinned by
            // `extra_ops_are_context_independent`) — one evaluation per
            // batch row, built at any representative context.
            let first = GraphParams::decode(batch, 1, tp, precision);
            let extra = self.cost_extra(&first)?;
            let volume = Bytes::new((batch * self.model.hidden) as f64 * precision.bytes());
            let comm = plan.tp_layer_inference(volume) * layers;
            // Built directly, not through the memo table, so sealing
            // leaves the memo tables untouched.
            let base = self.cost_decode_base(&first)?;
            for &kv_len in kv_grid.values() {
                let gp = GraphParams::decode(batch, kv_len, tp, precision);
                let layer = self.decode_layer(&base, &gp)?;
                // Identical expression (and f64 evaluation order) to
                // `decode_iteration`, so exact-grid entries match it
                // bit-for-bit.
                let total = layer.bd.total() * layers + comm + extra.bd.total();
                costs.push(total.secs());
            }
        }
        Ok(crate::DecodeCostTable {
            batch_grid,
            kv_grid,
            costs,
        })
    }

    /// One transformer layer's kernels for the pass described by `gp`,
    /// memoized on `(batch, seq, kv_len, tp, precision)`. A decode miss
    /// past the first context (`seq == 1`, `kv_len > 1`) re-costs only the
    /// attention core against the memoized [`DecodeBase`] and records no
    /// GEMM rows; every other shape, a one-token prompt included, is
    /// costed in full with its rows.
    fn layer_cost(&self, gp: &GraphParams) -> Result<Arc<StepCost>, HwError> {
        let key = (gp.batch, gp.seq, gp.kv_len, gp.tp, gp.precision);
        memoized(&self.layer_cache, key, || {
            if gp.seq == 1 && gp.kv_len > 1 {
                let base = self.decode_base(gp)?;
                self.decode_layer(&base, gp)
            } else {
                self.ops_cost(&graph::layer_forward_ops(&self.model, gp), gp.precision)
            }
        })
    }

    /// The context-independent base of `gp`'s decode layer, memoized on
    /// `(batch, tp, precision)`.
    fn decode_base(&self, gp: &GraphParams) -> Result<Arc<DecodeBase>, HwError> {
        let key = (gp.batch, gp.tp, gp.precision);
        memoized(&self.decode_cache, key, || self.cost_decode_base(gp))
    }

    /// Costs every operator of `gp`'s decode layer once, at the first
    /// context.
    fn cost_decode_base(&self, gp: &GraphParams) -> Result<DecodeBase, HwError> {
        let first = GraphParams::decode(gp.batch, 1, gp.tp, gp.precision);
        graph::layer_forward_ops(&self.model, &first)
            .into_iter()
            .map(|op| Ok((op, op.cost(&self.roofline, gp.precision)?.into())))
            .collect()
    }

    /// One decode layer at `gp`'s context: the base's kernel costs for
    /// every operator the context leaves unchanged, a fresh cost for the
    /// rest, filed in the original operator order so every `f64` sum is
    /// the one a full re-cost of the layer computes. No GEMM analysis rows
    /// are recorded, so memoized decode entries hold none.
    fn decode_layer(&self, base: &DecodeBase, gp: &GraphParams) -> Result<StepCost, HwError> {
        let ops = graph::layer_forward_ops(&self.model, gp);
        assert_eq!(
            ops.len(),
            base.len(),
            "decode layer operator lists must not change length with the context"
        );
        let mut step = StepCost::default();
        for (op, (base_op, base_cost)) in ops.iter().zip(base) {
            if op == base_op {
                step.file(base_cost);
            } else {
                step.file(&op.cost(&self.roofline, gp.precision)?.into());
            }
        }
        Ok(step)
    }

    /// The embedding + LM-head stage for the pass described by `gp`,
    /// memoized on `(batch, seq, tp, precision)` — `kv_len` never reaches
    /// these ops, so every decode step shares one entry.
    fn extra_cost(&self, gp: &GraphParams) -> Result<Arc<StepCost>, HwError> {
        let key = (gp.batch, gp.seq, gp.tp, gp.precision);
        memoized(&self.extra_cache, key, || self.cost_extra(gp))
    }

    /// Costs the embedding + LM-head stage for the pass described by `gp`.
    fn cost_extra(&self, gp: &GraphParams) -> Result<StepCost, HwError> {
        let ops: Vec<Op> = graph::embedding_ops(&self.model, gp)
            .into_iter()
            .chain(graph::head_ops(&self.model, gp))
            .collect();
        self.ops_cost(&ops, gp.precision)
    }

    /// Costs an operator list, accumulating each kernel's time into the
    /// breakdown category of its bound type.
    fn ops_cost(&self, ops: &[Op], precision: Precision) -> Result<StepCost, HwError> {
        let mut total = StepCost::default();
        for op in ops {
            let kernel: Filed = op.cost(&self.roofline, precision)?.into();
            total.file(&kernel);
            if let OpKind::Gemm(_) = op.kind {
                total.gemms.push(GemmAnalysis {
                    role: op.role,
                    time: kernel.roofline + kernel.overhead,
                    bound: kernel.bound,
                });
            }
        }
        Ok(total)
    }
}

/// Looks `key` up in `table`, computing and publishing it on a miss. The
/// value is computed outside the lock, so the table stays available to
/// other threads meanwhile; values are pure functions of their keys, so a
/// racing duplicate computation produces the identical value.
fn memoized<K: Eq + Hash, V>(
    table: &MemoTable<K, V>,
    key: K,
    compute: impl FnOnce() -> Result<V, HwError>,
) -> Result<Arc<V>, HwError> {
    if let Some(hit) = table.read().expect("memo table poisoned").get(&key) {
        return hit.clone();
    }
    let computed = compute().map(Arc::new);
    table
        .write()
        .expect("memo table poisoned")
        .entry(key)
        .or_insert_with(|| computed.clone());
    computed
}

/// Adds `scale` copies of `src` kernel categories into `dst`
/// (communication is handled separately by the caller).
fn add_scaled(dst: &mut InferenceBreakdown, src: &InferenceBreakdown, scale: f64) {
    dst.compute += src.compute * scale;
    dst.memory += src.memory * scale;
    dst.overhead += src.overhead * scale;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InferenceConfig, InferenceEstimator};
    use optimus_hw::presets;
    use optimus_model::presets as models;

    /// The prepared path and the one-shot estimator must produce identical
    /// reports — same code, memoized vs not.
    #[test]
    fn prepared_matches_one_shot_estimator() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_13b());
        let prepared = PreparedInferenceEstimator::new(&cluster, Arc::clone(&model), 1, 200, 32);
        for tp in [1, 2, 8] {
            let cfg = InferenceConfig::new(Arc::clone(&model), 1, 200, 32, tp);
            let one_shot = InferenceEstimator::new(&cluster).estimate(&cfg).unwrap();
            let fast = prepared.estimate(tp, Precision::Fp16).unwrap();
            assert_eq!(one_shot, fast, "tp={tp}");
        }
    }

    /// The load-bearing assumption behind [`ExtraKey`]: the embedding and
    /// LM-head operator lists must be **identical across context lengths**
    /// (only `seq`/`tp`/`precision` may shape them). This pins the graph
    /// builder itself, independently of the memoized evaluation path — if
    /// a future graph change makes these ops read `kv_len`, this fails
    /// even though the memoized and naive paths would agree (both would
    /// share the same wrong entry).
    #[test]
    fn extra_ops_are_context_independent() {
        let model = models::llama2_70b(); // GQA: the most structured head
        for tp in [1, 4] {
            let short = GraphParams::decode(2, 10, tp, Precision::Fp16);
            let long = GraphParams::decode(2, 4000, tp, Precision::Fp16);
            assert_eq!(
                graph::embedding_ops(&model, &short),
                graph::embedding_ops(&model, &long),
                "embedding ops must not depend on kv_len (tp={tp})"
            );
            assert_eq!(
                graph::head_ops(&model, &short),
                graph::head_ops(&model, &long),
                "head ops must not depend on kv_len (tp={tp})"
            );
        }
    }

    /// The serving iteration APIs are the static estimator's own terms: a
    /// prefill iteration plus the per-step decode iterations must sum to
    /// the one-shot report's end-to-end latency (up to f64 summation
    /// order).
    #[test]
    fn iterations_sum_to_the_one_shot_estimate() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_13b());
        let (batch, prompt, generate) = (2, 150, 24);
        for tp in [1, 4] {
            let prepared = PreparedInferenceEstimator::new(
                &cluster,
                Arc::clone(&model),
                batch,
                prompt,
                generate,
            );
            let report = prepared.estimate(tp, Precision::Fp16).unwrap();
            let serving = PreparedInferenceEstimator::for_serving(&cluster, Arc::clone(&model));
            let mut total = serving
                .prefill_iteration(batch, prompt, tp, Precision::Fp16)
                .unwrap();
            for step in 0..generate {
                total += serving
                    .decode_iteration(batch, prompt + step, tp, Precision::Fp16)
                    .unwrap();
            }
            let rel = (total.secs() - report.total.secs()).abs() / report.total.secs();
            assert!(rel < 1e-9, "tp={tp}: rel err {rel}");
        }
    }

    /// Decode iterations must be priced per batch size: a batch of 8
    /// decodes costs more than a batch of 1 (weights amortize, KV reads
    /// do not) but far less than 8 separate batch-1 iterations.
    #[test]
    fn decode_iterations_batch_sublinearly() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let serving =
            PreparedInferenceEstimator::for_serving(&cluster, Arc::new(models::llama2_13b()));
        let one = serving
            .decode_iteration(1, 500, 1, Precision::Fp16)
            .unwrap();
        let eight = serving
            .decode_iteration(8, 500, 1, Precision::Fp16)
            .unwrap();
        assert!(eight > one, "more work must take longer");
        assert!(
            eight < one * 8.0,
            "batching must amortize the weight reads: {eight} vs 8×{one}"
        );
    }

    /// Full-grid oracle for the row-factored seal: **every**
    /// representative `(batch, kv)` of the table, in the exact and the
    /// bucketed region alike, must equal the memoized
    /// `decode_iteration` bit-for-bit. Covers MHA (llama2-13b), GQA
    /// (llama2-70b) and a LayerNorm / learned-position / dropout model
    /// (gpt-7b), each at three TP degrees, with bounds past both exact
    /// regions.
    #[test]
    fn sealed_table_matches_decode_iteration_on_the_exact_grid() {
        use crate::sealed::{BATCH_EXACT, KV_EXACT};
        let cluster = presets::dgx_a100_hdr_cluster();
        let (max_batch, max_kv) = (BATCH_EXACT + 16, KV_EXACT + 64);
        // One thread per model keeps the ~163k oracle evaluations fast in
        // debug builds.
        std::thread::scope(|scope| {
            for model in [models::llama2_13b(), models::llama2_70b(), models::gpt_7b()] {
                let cluster = &cluster;
                scope.spawn(move || {
                    let serving = PreparedInferenceEstimator::for_serving(cluster, Arc::new(model));
                    for tp in [1, 2, 8] {
                        let table = serving
                            .seal_decode_costs(max_batch, max_kv, tp, Precision::Fp16)
                            .unwrap();
                        assert!(
                            table.batch_grid().max() > BATCH_EXACT
                                && table.kv_grid().max() > KV_EXACT
                        );
                        for &batch in table.batch_grid().values() {
                            for &kv in table.kv_grid().values() {
                                let sealed = table.decode_iteration(batch, kv);
                                let memoized = serving
                                    .decode_iteration(batch, kv, tp, Precision::Fp16)
                                    .unwrap();
                                assert_eq!(
                                    sealed.secs().to_bits(),
                                    memoized.secs().to_bits(),
                                    "{} tp={tp} batch={batch} kv={kv}",
                                    serving.model.name
                                );
                            }
                        }
                        // Off-grid queries price at their round-up
                        // representative, never cheaper than exact.
                        let (batch, kv) = (max_batch - 1, max_kv - 1);
                        let exact = serving
                            .decode_iteration(batch, kv, tp, Precision::Fp16)
                            .unwrap();
                        assert!(
                            table.decode_iteration(batch, kv) >= exact,
                            "rounding up must never price cheaper"
                        );
                    }
                });
            }
        });
    }

    /// What makes the row-factored seal cheap: under decode, the only
    /// layer operators that read the context are the attention core's.
    /// Every other operator of a row is costed once.
    #[test]
    fn only_attention_core_ops_depend_on_the_decode_context() {
        use optimus_model::OpRole;
        for model in [models::llama2_13b(), models::llama2_70b(), models::gpt_7b()] {
            for tp in [1, 8] {
                let short = graph::layer_forward_ops(
                    &model,
                    &GraphParams::decode(4, 1, tp, Precision::Fp16),
                );
                let long = graph::layer_forward_ops(
                    &model,
                    &GraphParams::decode(4, 4000, tp, Precision::Fp16),
                );
                assert_eq!(short.len(), long.len());
                let varying: Vec<OpRole> = short
                    .iter()
                    .zip(&long)
                    .filter(|(a, b)| a != b)
                    .map(|(a, _)| a.role)
                    .collect();
                let mut expected = vec![OpRole::AttnScores, OpRole::Softmax];
                if model.dropout {
                    expected.push(OpRole::AttnDropout);
                }
                expected.push(OpRole::AttnOverValues);
                assert_eq!(varying, expected, "{} tp={tp}", model.name);
            }
        }
    }

    /// Sealing must not grow the memo tables: the whole point is a
    /// bounded, immutable structure next to (not inside) the caches.
    #[test]
    fn sealing_bypasses_the_memo_tables() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let serving =
            PreparedInferenceEstimator::for_serving(&cluster, Arc::new(models::llama2_7b()));
        let before = serving.cached_keys();
        let table = serving
            .seal_decode_costs(500, 2000, 1, Precision::Fp16)
            .unwrap();
        assert!(table.entries() > 0);
        assert_eq!(
            serving.cached_keys(),
            before,
            "sealing must not touch the RwLock'd memo tables"
        );
        // The table stays logarithmically small even for generous bounds.
        assert!(
            table.entries() < 80_000,
            "table blew up: {} entries",
            table.entries()
        );
    }

    /// All decode steps of one point share a single embedding/head entry
    /// and a single decode layer base: the one-shot loop re-costs its
    /// attention core per context instead of filling a per-context layer
    /// entry, so the key count no longer grows with `generate`.
    #[test]
    fn decode_steps_share_the_head_entry() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let prepared =
            PreparedInferenceEstimator::new(&cluster, Arc::new(models::llama2_7b()), 1, 100, 16);
        prepared.estimate(1, Precision::Fp16).unwrap();
        // Layer entries: 1 prefill; decode bases: 1; extra entries:
        // 1 prefill + 1 decode.
        let after_one = prepared.cached_keys();
        assert_eq!(after_one, 1 + 1 + 2);
        // A second estimate at the same point adds nothing.
        prepared.estimate(1, Precision::Fp16).unwrap();
        assert_eq!(prepared.cached_keys(), after_one);
    }

    /// The pre-factoring one-shot estimate: every decode step re-costs the
    /// whole layer and the head stage, and the decode GEMM table is
    /// re-costed at the final context. The oracle for [`Self::estimate`].
    fn full_recost_estimate(
        prepared: &PreparedInferenceEstimator<'_>,
        tp: usize,
        precision: Precision,
    ) -> InferenceReport {
        let (batch, prefill, generate) = (prepared.batch, prepared.prefill, prepared.generate);
        let model = &prepared.model;
        let layer_cost = |gp: &GraphParams| {
            prepared
                .ops_cost(&graph::layer_forward_ops(model, gp), precision)
                .unwrap()
        };
        let extra_cost = |gp: &GraphParams| {
            let ops: Vec<Op> = graph::embedding_ops(model, gp)
                .into_iter()
                .chain(graph::head_ops(model, gp))
                .collect();
            prepared.ops_cost(&ops, precision).unwrap()
        };
        let plan = CommPlan::new(
            prepared.cluster,
            Parallelism::tensor_parallel(tp),
            prepared.comm,
        );
        let layers = model.layers as f64;

        let pre_params = GraphParams::prefill(batch, prefill, tp, precision);
        let mut prefill_bd = InferenceBreakdown::default();
        let mut device_flops = FlopCount::ZERO;
        let mut dram_traffic = Bytes::ZERO;
        let mut network_traffic = Bytes::ZERO;
        let pre_layer = layer_cost(&pre_params);
        add_scaled(&mut prefill_bd, &pre_layer.bd, layers);
        device_flops += pre_layer.flops * layers;
        dram_traffic += pre_layer.dram * layers;
        let pre_volume = Bytes::new((batch * prefill * model.hidden) as f64 * precision.bytes());
        prefill_bd.communication += plan.tp_layer_inference(pre_volume) * layers;
        network_traffic += plan.tp_layer_forward_wire_bytes(pre_volume) * layers;
        let pre_extra = extra_cost(&pre_params);
        add_scaled(&mut prefill_bd, &pre_extra.bd, 1.0);
        device_flops += pre_extra.flops;
        dram_traffic += pre_extra.dram;
        let prefill_time = prefill_bd.total();

        let mut decode_bd = InferenceBreakdown::default();
        let volume = Bytes::new((batch * model.hidden) as f64 * precision.bytes());
        for step in 0..generate {
            let dp = GraphParams::decode(batch, prefill + step, tp, precision);
            let layer = layer_cost(&dp);
            add_scaled(&mut decode_bd, &layer.bd, layers);
            device_flops += layer.flops * layers;
            dram_traffic += layer.dram * layers;
            decode_bd.communication += plan.tp_layer_inference(volume) * layers;
            network_traffic += plan.tp_layer_forward_wire_bytes(volume) * layers;
            let extra = extra_cost(&dp);
            add_scaled(&mut decode_bd, &extra.bd, 1.0);
            device_flops += extra.flops;
            dram_traffic += extra.dram;
        }
        let decode_time = decode_bd.total();

        let mut breakdown = prefill_bd;
        add_scaled(&mut breakdown, &decode_bd, 1.0);
        breakdown.communication = prefill_bd.communication + decode_bd.communication;
        let final_ctx = GraphParams::decode(batch, prefill + generate - 1, tp, precision);
        InferenceReport {
            total: prefill_time + decode_time,
            prefill: prefill_time,
            decode: decode_time,
            per_token: decode_time / generate as f64,
            breakdown,
            prefill_breakdown: prefill_bd,
            memory: inference_memory(model, batch, prefill + generate, tp, precision),
            prefill_gemms: pre_layer.gemms,
            decode_gemms: layer_cost(&final_ctx).gemms,
            device_flops,
            dram_traffic,
            network_traffic,
        }
    }

    /// Every `f64` of a report, as bits.
    fn report_bits(r: &InferenceReport) -> Vec<u64> {
        let bd = |b: &InferenceBreakdown| {
            [b.compute, b.memory, b.communication, b.overhead].map(|t| t.secs().to_bits())
        };
        let mut bits = vec![
            r.total.secs().to_bits(),
            r.prefill.secs().to_bits(),
            r.decode.secs().to_bits(),
            r.per_token.secs().to_bits(),
            r.device_flops.get().to_bits(),
            r.dram_traffic.bytes().to_bits(),
            r.network_traffic.bytes().to_bits(),
        ];
        bits.extend(bd(&r.breakdown));
        bits.extend(bd(&r.prefill_breakdown));
        bits.extend(
            r.prefill_gemms
                .iter()
                .chain(&r.decode_gemms)
                .map(|g| g.time.secs().to_bits()),
        );
        bits
    }

    /// Oracle for the kv-factored decode loop: over MHA (llama2-13b), GQA
    /// (llama2-70b) and a LayerNorm / dropout model (gpt-7b), batch 1 and
    /// 4, a one- or 200-token prompt, TP 1, 2 and 8, and 1 or 200
    /// generated tokens, `estimate` equals the full per-context re-cost
    /// bit for bit. A one-token prompt's prefill layer has the shape of
    /// the first decode context, so it pins that the prefill GEMM table
    /// survives the decode factoring.
    #[test]
    fn factored_decode_loop_matches_the_full_recost_bit_for_bit() {
        let cluster = presets::dgx_a100_hdr_cluster();
        for model in [models::llama2_13b(), models::llama2_70b(), models::gpt_7b()] {
            let model = Arc::new(model);
            for batch in [1, 4] {
                for (prefill, generate) in [(1, 1), (1, 200), (200, 1), (200, 200)] {
                    let prepared = PreparedInferenceEstimator::new(
                        &cluster,
                        Arc::clone(&model),
                        batch,
                        prefill,
                        generate,
                    );
                    for tp in [1, 2, 8] {
                        let fast = prepared.estimate(tp, Precision::Fp16).unwrap();
                        let reference = full_recost_estimate(&prepared, tp, Precision::Fp16);
                        let what = format!(
                            "{} batch={batch} prefill={prefill} gen={generate} tp={tp}",
                            model.name
                        );
                        assert_eq!(report_bits(&fast), report_bits(&reference), "{what}");
                        assert_eq!(fast, reference, "{what}");
                    }
                }
            }
        }
    }

    /// A one-token prompt is priced through the same layer entry as a
    /// serving decode iteration at context 1; its report must still list
    /// every prefill and decode GEMM when that iteration filled the entry
    /// first.
    #[test]
    fn one_token_prompt_reports_its_gemms() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_13b());
        let gp = GraphParams::prefill(1, 1, 1, Precision::Fp16);
        assert_eq!(gp, GraphParams::decode(1, 1, 1, Precision::Fp16));
        let gemms = graph::layer_forward_ops(&model, &gp)
            .iter()
            .filter(|op| matches!(op.kind, OpKind::Gemm(_)))
            .count();
        assert!(gemms > 0);
        let prepared = PreparedInferenceEstimator::new(&cluster, Arc::clone(&model), 1, 1, 4);
        // Fill the `(batch, 1, 1, tp, precision)` layer entry through the
        // serving decode path first.
        prepared.decode_iteration(1, 1, 1, Precision::Fp16).unwrap();
        let report = prepared.estimate(1, Precision::Fp16).unwrap();
        assert_eq!(report.prefill_gemms.len(), gemms);
        assert_eq!(report.decode_gemms.len(), gemms);
    }

    /// Oracle for `decode_iteration`'s miss path: on a cold estimator, on
    /// a warm decode base with a new context, and on a memo hit, it equals
    /// the full-layer `ops_cost(layer_forward_ops)` re-cost bit for bit.
    #[test]
    fn cold_decode_iteration_matches_the_full_layer_recost() {
        let cluster = presets::dgx_a100_hdr_cluster();
        for model in [models::llama2_13b(), models::llama2_70b(), models::gpt_7b()] {
            let model = Arc::new(model);
            for tp in [1, 2, 8] {
                for batch in [1, 4] {
                    let serving =
                        PreparedInferenceEstimator::for_serving(&cluster, Arc::clone(&model));
                    let plan =
                        CommPlan::new(&cluster, Parallelism::tensor_parallel(tp), CommModel::Auto);
                    let layers = model.layers as f64;
                    for kv in [1, 37, 4000, 37] {
                        let gp = GraphParams::decode(batch, kv, tp, Precision::Fp16);
                        let layer = serving
                            .ops_cost(&graph::layer_forward_ops(&model, &gp), Precision::Fp16)
                            .unwrap();
                        let extra = serving.cost_extra(&gp).unwrap();
                        let volume =
                            Bytes::new((batch * model.hidden) as f64 * Precision::Fp16.bytes());
                        let reference = layer.bd.total() * layers
                            + plan.tp_layer_inference(volume) * layers
                            + extra.bd.total();
                        let fast = serving
                            .decode_iteration(batch, kv, tp, Precision::Fp16)
                            .unwrap();
                        assert_eq!(
                            fast.secs().to_bits(),
                            reference.secs().to_bits(),
                            "{} tp={tp} batch={batch} kv={kv}",
                            model.name
                        );
                    }
                }
            }
        }
    }
}
