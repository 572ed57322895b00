//! The discrete-event continuous-batching scheduler.
//!
//! Time advances iteration by iteration, the way an inference server's
//! model-execution loop does:
//!
//! 1. arrivals up to the current clock join the admission queue;
//! 2. the scheduler admits queued requests **FIFO** while their full KV
//!    reservation (prompt + requested output tokens) fits the device's KV
//!    budget — reservations are released only at completion, so the budget
//!    can never be exceeded mid-decode;
//! 3. if any admitted request still needs its prompt summarized, the next
//!    iteration is a **prefill** of the oldest such request (prefill is
//!    prioritized, the Orca/vLLM default); otherwise every running request
//!    advances one token in a **decode** iteration priced at the batch's
//!    aggregate context.
//!
//! The event loop is streaming: the admission queue is a cursor into the
//! arrival-ordered trace, in-flight state lives in a recycled slot arena,
//! decode completions are scheduled on an epoch ring (every request costs
//! O(1) bookkeeping per iteration it participates in, with no per-member
//! scans), and per-request records plus exact percentile buffers are kept
//! only within [`EXACT_MODE_LIMIT`] (or on request). Decode pricing runs
//! either through the memoized [`PreparedInferenceEstimator`] (exact) or
//! through a sealed, lock-free [`DecodeCostTable`]; prefill pricing
//! always hits a dense per-prompt-length cache. The simulation is
//! single-threaded and all randomness lives in the seeded trace, so
//! reports are byte-identical across runs and thread counts.

use crate::engine::{ReplicaEngine, ReportInputs};
use crate::{
    KvSpec, KvUsage, QueueSample, QueueStats, Request, Scheduler, ServeReport, SloReport, SloSpec,
    TraceSpec,
};
use optimus_hw::{ClusterSpec, Precision};
use optimus_infer::{DecodeCostTable, PreparedInferenceEstimator};
use optimus_memory::{inference_memory, kv_cache_bytes};
use optimus_model::ModelConfig;
use optimus_units::{Bytes, Time};
use std::sync::{Arc, OnceLock};

/// Cap on the queue-depth samples retained in a [`ServeReport`]; longer
/// runs are down-sampled with an even stride (plus the final sample, so
/// the series always ends at trace end).
pub const MAX_QUEUE_SAMPLES: usize = 128;

/// Trace size up to which the simulator defaults to full fidelity: exact
/// memoized decode pricing, exact percentile selection, and per-request
/// records. Above it the defaults switch to the streaming machinery —
/// sealed-table pricing, log-histogram percentiles, records off — sized
/// for million-request traces.
pub const EXACT_MODE_LIMIT: usize = 10_000;

/// How decode iterations are priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PricingMode {
    /// Exact within [`EXACT_MODE_LIMIT`] requests, sealed beyond.
    #[default]
    Auto,
    /// Always the memoized estimator: exact `(batch, kv)` pricing, with
    /// per-iteration lock + hash overhead and memo tables that grow with
    /// the number of distinct shapes.
    Exact,
    /// Always the sealed [`DecodeCostTable`]: zero locking and hashing,
    /// bounded memory, `(batch, kv)` rounded up to quantized buckets
    /// (within one bucket ratio, ≈4.4%, of exact).
    Sealed,
}

/// Whether per-request [`crate::RequestMetrics`] records are collected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordMode {
    /// Records within [`EXACT_MODE_LIMIT`] requests, none beyond.
    #[default]
    Auto,
    /// Always collect (a million-request trace stores a million records).
    On,
    /// Never collect; `per_request` comes back empty.
    Off,
}

/// Serving-instance configuration: the strategy axes of one replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Tensor-parallel degree.
    pub tp: usize,
    /// Serving precision.
    pub precision: Precision,
    /// The latency objective goodput is measured against.
    pub slo: SloSpec,
    /// Decode-pricing fidelity.
    pub pricing: PricingMode,
    /// Per-request record collection.
    pub records: RecordMode,
    /// KV-cache memory regime (legacy whole-lifetime reservation, or
    /// block-granular paging with preemption).
    pub kv: KvSpec,
    /// Admission-queue ordering.
    pub scheduler: Scheduler,
}

impl ServeConfig {
    /// A TP-`tp` FP16 instance with the default interactive SLO and
    /// automatic fidelity.
    ///
    /// # Panics
    ///
    /// Panics if `tp` is zero.
    #[must_use]
    pub fn new(tp: usize) -> Self {
        assert!(tp > 0, "tp must be positive");
        Self {
            tp,
            precision: Precision::Fp16,
            slo: SloSpec::default(),
            pricing: PricingMode::default(),
            records: RecordMode::default(),
            kv: KvSpec::default(),
            scheduler: Scheduler::default(),
        }
    }

    /// Sets the serving precision.
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Sets the SLO.
    #[must_use]
    pub fn with_slo(mut self, slo: SloSpec) -> Self {
        self.slo = slo;
        self
    }

    /// Sets the decode-pricing mode.
    #[must_use]
    pub fn with_pricing(mut self, pricing: PricingMode) -> Self {
        self.pricing = pricing;
        self
    }

    /// Sets the record-collection mode.
    #[must_use]
    pub fn with_records(mut self, records: RecordMode) -> Self {
        self.records = records;
        self
    }

    /// Sets the KV-cache regime.
    #[must_use]
    pub fn with_kv(mut self, kv: KvSpec) -> Self {
        self.kv = kv;
        self
    }

    /// Sets the admission scheduler.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }
}

/// Why a simulation could not run at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The sharded weights alone overflow the device.
    WeightsDontFit {
        /// Human-readable description with the sizes involved.
        detail: String,
    },
    /// The tensor-parallel degree cannot map onto the cluster.
    InvalidConfig(String),
    /// The estimator rejected the configuration (e.g. unsupported
    /// precision).
    Estimator(String),
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::WeightsDontFit { detail } => write!(f, "{detail}"),
            Self::InvalidConfig(msg) | Self::Estimator(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A validated serving instance: one (cluster, model, strategy) triple
/// with its prepared estimator and, once sealed, its immutable decode
/// table. Build once, simulate many traces — the load-sweep engine runs
/// every arrival rate of a strategy through one shared instance.
#[derive(Debug)]
pub struct ServeInstance<'a> {
    cluster: &'a ClusterSpec,
    model: Arc<ModelConfig>,
    config: ServeConfig,
    weights: Bytes,
    budget: Bytes,
    estimator: PreparedInferenceEstimator<'a>,
    table: OnceLock<Result<DecodeCostTable, String>>,
}

impl<'a> ServeInstance<'a> {
    /// Validates the strategy and prepares the pricing estimator.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when the configuration cannot serve at all:
    /// the sharded weights overflow the device or `tp` does not fit a
    /// node.
    pub fn new(
        cluster: &'a ClusterSpec,
        model: Arc<ModelConfig>,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        let tp = config.tp;
        let precision = config.precision;
        if config.scheduler == Scheduler::PriorityPreempt && config.kv.is_reserved() {
            return Err(ServeError::InvalidConfig(
                "the priority-preempt scheduler needs a paged KvSpec: under full \
                 reservation decode-time OOM cannot happen, so there is nothing to preempt"
                    .to_owned(),
            ));
        }
        if tp > cluster.node.gpus_per_node {
            return Err(ServeError::InvalidConfig(format!(
                "tensor-parallel degree {tp} exceeds the {} GPUs of a node",
                cluster.node.gpus_per_node
            )));
        }
        let capacity = cluster.accelerator().dram.capacity;
        // Weights via the shared footprint model (batch/context do not
        // shape the weight term).
        let weights = inference_memory(&model, 1, 1, tp, precision).weights;
        if weights >= capacity {
            return Err(ServeError::WeightsDontFit {
                detail: format!(
                    "{} weights ({} at {precision}, TP{tp}) overflow the {} device",
                    model.name, weights, capacity
                ),
            });
        }
        let estimator = PreparedInferenceEstimator::for_serving(cluster, Arc::clone(&model));
        Ok(Self {
            cluster,
            model,
            config,
            weights,
            budget: capacity - weights,
            estimator,
            table: OnceLock::new(),
        })
    }

    /// The per-device KV budget (capacity minus sharded weights).
    #[must_use]
    pub fn kv_budget(&self) -> Bytes {
        self.budget
    }

    /// The strategy this instance was validated for.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The prepared (memoized) pricing estimator.
    pub(crate) fn estimator(&self) -> &PreparedInferenceEstimator<'a> {
        &self.estimator
    }

    /// The full KV reservation of one request on this instance.
    #[must_use]
    pub fn reservation(&self, request: &Request) -> Bytes {
        kv_cache_bytes(
            &self.model,
            1,
            request.prompt + request.output,
            self.config.precision,
        ) / self.config.tp as f64
    }

    /// Bytes of one KV block under a paged [`KvSpec`] (exact: the KV
    /// footprint is linear in tokens, so a block is just
    /// `block_tokens` tokens' worth of per-device KV).
    ///
    /// # Panics
    ///
    /// Panics under the reserved regime, which has no blocks.
    #[must_use]
    pub fn block_bytes(&self) -> Bytes {
        assert!(!self.config.kv.is_reserved(), "reserved KV has no blocks");
        kv_cache_bytes(
            &self.model,
            1,
            self.config.kv.block_tokens,
            self.config.precision,
        ) / self.config.tp as f64
    }

    /// Device block pool under a paged [`KvSpec`]:
    /// ⌊KV budget / block bytes⌋.
    ///
    /// # Panics
    ///
    /// Panics under the reserved regime, which has no blocks.
    #[must_use]
    pub fn total_blocks(&self) -> usize {
        (self.budget.bytes() / self.block_bytes().bytes()).floor() as usize
    }

    /// Blocks a `tokens`-token context occupies: ⌈tokens / block⌉.
    pub(crate) fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.config.kv.block_tokens)
    }

    /// Whether this instance can ever run `request` alone: its full
    /// reservation fits the budget (reserved regime), or its peak block
    /// need fits the pool (paged regime). The admission front doors — the
    /// engine's head-of-queue rejection and the fleet router's — both
    /// test exactly this, which is what makes the paged engine
    /// deadlock-free: an admissible head always admits on an idle
    /// replica.
    #[must_use]
    pub fn admissible(&self, request: &Request) -> bool {
        if self.config.kv.is_reserved() {
            self.reservation(request) <= self.budget
        } else {
            self.blocks_for(request.prompt + request.output) <= self.total_blocks()
        }
    }

    /// Seconds to move `blocks` KV blocks between device and host over
    /// the node-egress link — the cost of one swap direction, priced at
    /// the link's size-derated effective bandwidth exactly like
    /// checkpoint writes.
    pub(crate) fn swap_seconds(&self, blocks: usize) -> f64 {
        let bytes = self.block_bytes() * blocks as f64;
        let link = &self.cluster.inter_link;
        (bytes / link.effective_bandwidth(bytes)).secs()
    }

    /// Upper bound on the concurrent decode batch when the smallest
    /// possible reservation is `min_reservation` bytes: how many such
    /// reservations fit the KV budget at once, clamped to `[1, cap]`.
    /// Both the per-trace bound scan and the load-sweep's
    /// distribution-derived seal bounds go through this one computation,
    /// so a pre-sealed table provably covers every trace drawn from the
    /// distributions it was sized for.
    pub(crate) fn batch_ceiling(&self, min_reservation: f64, cap: usize) -> usize {
        let by_memory = if min_reservation > 0.0 {
            (self.budget.bytes() / min_reservation).floor() as usize
        } else {
            cap
        };
        by_memory.clamp(1, cap.max(1))
    }

    /// Seals the decode-cost table for batches up to `max_batch` and
    /// aggregate contexts up to `max_kv` (idempotent: the first seal
    /// wins). The load-sweep engine calls this once per strategy with
    /// bounds derived from the length distributions;
    /// [`ServeInstance::simulate`] seals lazily from trace bounds when a
    /// large trace arrives first, and **errors** on any later trace that
    /// exceeds the sealed grid rather than silently clamping onto it.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Estimator`] when the device lacks the
    /// serving precision.
    pub fn seal(&self, max_batch: usize, max_kv: usize) -> Result<&DecodeCostTable, ServeError> {
        self.table
            .get_or_init(|| {
                self.estimator
                    .seal_decode_costs(
                        max_batch.max(1),
                        max_kv.max(1),
                        self.config.tp,
                        self.config.precision,
                    )
                    .map_err(|e| e.to_string())
            })
            .as_ref()
            .map_err(|msg| ServeError::Estimator(msg.clone()))
    }

    /// Cheaply verifies the estimator accepts this strategy (the one
    /// runtime-rejectable axis is the precision), so callers can surface
    /// an unsupported precision before running a grid of simulations.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Estimator`] when the device lacks the
    /// serving precision.
    pub fn probe(&self) -> Result<(), ServeError> {
        self.estimator
            .decode_iteration(1, 1, self.config.tp, self.config.precision)
            .map(|_| ())
            .map_err(|e| ServeError::Estimator(e.to_string()))
    }

    /// Simulates serving `trace` on this instance.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Estimator`] when the device lacks the
    /// serving precision.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is not sorted by arrival time or contains a
    /// zero-length prompt or output.
    pub fn simulate(&self, trace: &[Request]) -> Result<ServeReport, ServeError> {
        Self::validate_trace(trace);
        let bounds = TraceBounds::scan(self, trace);
        let table = self.pricing_table(trace.len(), &bounds)?;
        self.run(trace, &bounds, table)
    }

    /// Panics on an unordered trace or zero-length prompts/outputs — the
    /// shared precondition of the single-replica and fleet entry points.
    pub(crate) fn validate_trace(trace: &[Request]) {
        assert!(
            trace.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s),
            "trace must be sorted by arrival time"
        );
        assert!(
            trace.iter().all(|r| r.prompt > 0 && r.output > 0),
            "every request needs at least one prompt and one output token"
        );
    }

    /// Whether this run collects per-request records, given the trace
    /// size.
    pub(crate) fn records_on(&self, trace_len: usize) -> bool {
        match self.config.records {
            RecordMode::On => true,
            RecordMode::Off => false,
            RecordMode::Auto => trace_len <= EXACT_MODE_LIMIT,
        }
    }

    /// Resolves the decode-pricing table for a trace of `trace_len`
    /// requests with the given bounds: `None` for exact memoized pricing,
    /// `Some` for the sealed fast path (sealing on first use, refusing a
    /// trace that exceeds an already-sealed grid).
    pub(crate) fn pricing_table(
        &self,
        trace_len: usize,
        bounds: &TraceBounds,
    ) -> Result<Option<&DecodeCostTable>, ServeError> {
        let sealed = match self.config.pricing {
            PricingMode::Exact => false,
            PricingMode::Sealed => true,
            PricingMode::Auto => trace_len > EXACT_MODE_LIMIT,
        };
        if !(sealed && bounds.admittable > 0) {
            return Ok(None);
        }
        let table = self.seal(bounds.max_batch, bounds.max_kv)?;
        // The first seal fixes the grid. Clamping a bigger trace onto a
        // smaller grid would underprice its decode iterations by an
        // unbounded factor, so refuse instead.
        if bounds.max_batch > table.batch_grid().max() || bounds.max_kv > table.kv_grid().max() {
            return Err(ServeError::InvalidConfig(format!(
                "trace exceeds the sealed decode-cost grid (needs batch ≤ {}, kv ≤ {}; \
                 sealed at {}, {}): seal() the instance with covering bounds up front",
                bounds.max_batch,
                bounds.max_kv,
                table.batch_grid().max(),
                table.kv_grid().max(),
            )));
        }
        Ok(Some(table))
    }
}

/// Bounds of the admittable portion of a trace, derived in one scan:
/// everything the sealed table, the prefill cache, and the completion
/// ring need to size themselves.
pub(crate) struct TraceBounds {
    /// Requests whose lone reservation fits the budget.
    pub(crate) admittable: usize,
    /// Largest prompt among admittable requests.
    pub(crate) max_prompt: usize,
    /// Largest prompt + output among admittable requests.
    pub(crate) max_kv: usize,
    /// Upper bound on the concurrent decode batch: how many of the
    /// smallest admittable reservations fit the budget at once.
    pub(crate) max_batch: usize,
}

impl TraceBounds {
    pub(crate) fn scan(instance: &ServeInstance<'_>, trace: &[Request]) -> Self {
        let mut bounds = Self {
            admittable: 0,
            max_prompt: 0,
            max_kv: 0,
            max_batch: 1,
        };
        let mut min_reservation = f64::INFINITY;
        for r in trace {
            if !instance.admissible(r) {
                continue;
            }
            bounds.admittable += 1;
            bounds.max_prompt = bounds.max_prompt.max(r.prompt);
            bounds.max_kv = bounds.max_kv.max(r.prompt + r.output);
            min_reservation = min_reservation.min(instance.reservation(r).bytes());
        }
        if bounds.admittable > 0 {
            bounds.max_batch = if instance.config.kv.is_reserved() {
                instance.batch_ceiling(min_reservation, bounds.admittable)
            } else {
                // Every decoding member of a paged batch holds at least
                // one private block (its novel suffix is ≥ 1 token), so
                // the pool bounds the batch.
                instance.total_blocks().clamp(1, bounds.admittable)
            };
        }
        bounds
    }
}

/// Generates the trace from `spec` and simulates serving it on one
/// `tp`-way instance of `model` over `cluster`.
///
/// # Errors
///
/// Returns [`ServeError`] when the configuration cannot serve at all: the
/// sharded weights overflow the device, `tp` does not fit a node, or the
/// device lacks the precision.
pub fn simulate(
    cluster: &ClusterSpec,
    model: Arc<ModelConfig>,
    config: &ServeConfig,
    spec: &TraceSpec,
) -> Result<ServeReport, ServeError> {
    simulate_trace(cluster, model, config, &spec.generate())
}

/// Like [`simulate`], over an explicit arrival-ordered request list.
///
/// # Errors
///
/// Returns [`ServeError`] for configurations that cannot serve (see
/// [`simulate`]).
///
/// # Panics
///
/// Panics if `trace` is not sorted by arrival time or contains a
/// zero-length prompt or output.
pub fn simulate_trace(
    cluster: &ClusterSpec,
    model: Arc<ModelConfig>,
    config: &ServeConfig,
    trace: &[Request],
) -> Result<ServeReport, ServeError> {
    ServeInstance::new(cluster, model, *config)?.simulate(trace)
}

impl<'a> ServeInstance<'a> {
    /// The single-replica event loop: one [`ReplicaEngine`] driven in
    /// batch mode over the whole trace, which it borrows rather than
    /// copies.
    fn run(
        &self,
        trace: &[Request],
        bounds: &TraceBounds,
        table: Option<&DecodeCostTable>,
    ) -> Result<ServeReport, ServeError> {
        let mut engine = ReplicaEngine::new(
            self,
            table,
            bounds,
            trace.len(),
            self.records_on(trace.len()),
            None, // fault injection is a fleet concern
        );
        engine.load(trace);
        engine.finish()?;
        let (routed, inputs) = engine.into_parts();
        Ok(self.assemble_report(routed, inputs))
    }

    /// Shapes one engine's raw outputs into a [`ServeReport`] (also the
    /// per-replica assembly step of a fleet simulation).
    pub(crate) fn assemble_report(&self, requests: usize, inputs: ReportInputs) -> ServeReport {
        let config = &self.config;
        let mut sink = inputs.sink;
        // Completion order is not id order (short outputs overtake long
        // ones); records report in id order like the trace.
        sink.records.sort_by_key(|m| m.id);

        let makespan = inputs.makespan_s;
        let per_s = |count: f64| {
            if makespan > 0.0 {
                count / makespan
            } else {
                0.0
            }
        };

        let stride = inputs.raw_samples.len().div_ceil(MAX_QUEUE_SAMPLES).max(1);
        let mut samples: Vec<QueueSample> =
            inputs.raw_samples.iter().step_by(stride).copied().collect();
        // Stride thinning keeps index 0, s, 2s, …, which drops the final
        // observation unless the length cooperates; re-append it so the
        // retained series still ends at trace end.
        if let (Some(kept), Some(last)) = (samples.last(), inputs.raw_samples.last()) {
            if kept != last {
                samples.push(*last);
            }
        }
        let queue = QueueStats {
            peak_waiting: inputs.peak_waiting,
            mean_waiting: if makespan > 0.0 {
                inputs.queue_area / makespan
            } else {
                0.0
            },
            peak_decoding: inputs.peak_decoding,
            samples,
        };

        let completed = sink.completed;
        ServeReport {
            model: self.model.name.clone(),
            cluster: self.cluster.name.clone(),
            tp: config.tp,
            precision: config.precision,
            requests,
            completed,
            rejected: inputs.rejected_ids.len(),
            rejected_ids: inputs.rejected_ids,
            makespan: Time::from_secs(makespan),
            generated_tokens: sink.generated_tokens,
            tokens_per_s: per_s(sink.generated_tokens as f64),
            requests_per_s: per_s(completed as f64),
            prefill_iterations: inputs.prefill_iterations,
            decode_iterations: inputs.decode_iterations,
            mean_decode_batch: if inputs.decode_iterations > 0 {
                inputs.decode_batch_sum as f64 / inputs.decode_iterations as f64
            } else {
                0.0
            },
            ttft: sink.ttft.finish(),
            tpot: sink.tpot.finish(),
            e2e: sink.e2e.finish(),
            queue,
            kv: KvUsage {
                weights: self.weights,
                budget: self.budget,
                peak: inputs.kv_peak,
                peak_utilization: if self.budget.bytes() > 0.0 {
                    inputs.kv_peak.bytes() / self.budget.bytes()
                } else {
                    0.0
                },
            },
            slo: SloReport {
                spec: config.slo,
                met: sink.met,
                attainment: if completed > 0 {
                    sink.met as f64 / completed as f64
                } else {
                    1.0
                },
                goodput_tokens_per_s: per_s(sink.met_tokens as f64),
                goodput_requests_per_s: per_s(sink.met as f64),
            },
            per_request: sink.records,
            scheduler: (config.scheduler != Scheduler::Fifo).then_some(config.scheduler),
            paging: inputs.paging,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrivalProcess, LengthDist};
    use optimus_hw::presets;
    use optimus_model::presets as models;

    fn spec(seed: u64, requests: usize, rate: f64) -> TraceSpec {
        TraceSpec {
            seed,
            requests,
            arrival: ArrivalProcess::Poisson { rate_per_s: rate },
            prompt: LengthDist::Uniform { lo: 50, hi: 200 },
            output: LengthDist::Uniform { lo: 1, hi: 24 },
            prefixes: None,
            priority_classes: 1,
        }
    }

    #[test]
    fn all_requests_complete_and_conserve_tokens() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let trace = spec(9, 24, 4.0);
        let report = simulate(
            &cluster,
            Arc::new(models::llama2_7b()),
            &ServeConfig::new(1),
            &trace,
        )
        .unwrap();
        assert_eq!(report.completed + report.rejected, report.requests);
        assert_eq!(report.rejected, 0, "7B leaves ample KV budget");
        let requested: usize = trace.generate().iter().map(|r| r.output).sum();
        assert_eq!(report.generated_tokens, requested);
        assert_eq!(report.per_request.len(), report.completed);
        assert_eq!(report.prefill_iterations, report.completed);
    }

    #[test]
    fn higher_load_means_deeper_queues_and_worse_tails() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_13b());
        let cfg = ServeConfig::new(1);
        let calm = simulate(&cluster, Arc::clone(&model), &cfg, &spec(5, 32, 0.05)).unwrap();
        let slammed = simulate(&cluster, Arc::clone(&model), &cfg, &spec(5, 32, 50.0)).unwrap();
        assert!(slammed.queue.peak_decoding >= calm.queue.peak_decoding);
        assert!(
            slammed.queue.peak_waiting > calm.queue.peak_waiting,
            "compute-bound saturation must show up as waiting requests: {} vs {}",
            slammed.queue.peak_waiting,
            calm.queue.peak_waiting
        );
        assert!(slammed.queue.mean_waiting > calm.queue.mean_waiting);
        assert!(
            slammed.ttft.p99 > calm.ttft.p99,
            "queueing must surface in the TTFT tail: {} vs {}",
            slammed.ttft.p99,
            calm.ttft.p99
        );
        assert!(slammed.slo.attainment <= calm.slo.attainment);
    }

    #[test]
    fn oversized_request_is_rejected_not_wedged() {
        let cluster = presets::dgx_a100_hdr_cluster();
        // A llama2-13b KV reservation of ~500k tokens (~50 GB at FP16)
        // next to 26 GB of weights can never fit an 80 GB device.
        let trace = [
            Request::new(0, 0.1, 500_000, 4),
            Request::new(1, 0.2, 100, 4),
        ];
        let report = simulate_trace(
            &cluster,
            Arc::new(models::llama2_13b()),
            &ServeConfig::new(1),
            &trace,
        )
        .unwrap();
        assert_eq!(report.rejected_ids, vec![0]);
        assert_eq!(report.completed, 1);
        assert_eq!(report.per_request[0].id, 1);
    }

    #[test]
    fn weights_overflow_is_a_clean_error() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let err = simulate(
            &cluster,
            Arc::new(models::gpt_175b()),
            &ServeConfig::new(1),
            &TraceSpec::poisson(1, 1, 1.0, 10, 2),
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::WeightsDontFit { .. }), "{err}");
    }

    #[test]
    fn tp_beyond_the_node_is_rejected() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let err = simulate(
            &cluster,
            Arc::new(models::llama2_7b()),
            &ServeConfig::new(16),
            &TraceSpec::poisson(1, 1, 1.0, 10, 2),
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn empty_trace_yields_an_empty_report() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let report = simulate_trace(
            &cluster,
            Arc::new(models::llama2_7b()),
            &ServeConfig::new(1),
            &[],
        )
        .unwrap();
        assert_eq!(report.completed, 0);
        assert_eq!(report.makespan, Time::ZERO);
        assert_eq!(report.tokens_per_s, 0.0);
        assert_eq!(report.slo.attainment, 1.0);
    }

    /// Sealed pricing reproduces the exact path's scheduling and
    /// conservation outcomes, and its latencies stay within the bucket
    /// quantization envelope of exact (identical below the exact grid
    /// region, never more than a few percent above it).
    #[test]
    fn sealed_pricing_tracks_exact_pricing() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let spec = spec(11, 64, 20.0);
        let exact = simulate(
            &cluster,
            Arc::clone(&model),
            &ServeConfig::new(1).with_pricing(PricingMode::Exact),
            &spec,
        )
        .unwrap();
        let sealed = simulate(
            &cluster,
            Arc::clone(&model),
            &ServeConfig::new(1).with_pricing(PricingMode::Sealed),
            &spec,
        )
        .unwrap();
        assert_eq!(sealed.completed, exact.completed);
        assert_eq!(sealed.generated_tokens, exact.generated_tokens);
        assert_eq!(sealed.prefill_iterations, exact.prefill_iterations);
        // Round-up quantization can only slow iterations, so makespan is
        // bounded below by exact and above by one bucket ratio.
        let ratio = sealed.makespan.secs() / exact.makespan.secs();
        assert!(
            (1.0..1.10).contains(&ratio),
            "sealed/exact makespan ratio {ratio}"
        );
    }

    /// A pre-sealed instance must refuse a trace whose bounds exceed its
    /// grid instead of silently clamping (which would underprice decode
    /// by an unbounded factor).
    #[test]
    fn sealed_grid_too_small_is_an_error_not_a_clamp() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let instance = ServeInstance::new(
            &cluster,
            Arc::new(models::llama2_7b()),
            ServeConfig::new(1).with_pricing(PricingMode::Sealed),
        )
        .unwrap();
        instance.seal(8, 64).unwrap();
        // Fits the grid: runs fine.
        instance
            .simulate(&TraceSpec::poisson(1, 4, 1.0, 30, 8).generate())
            .unwrap();
        // kv bound 500 + 50 far exceeds the sealed 64.
        let err = instance
            .simulate(&TraceSpec::poisson(1, 4, 1.0, 500, 50).generate())
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("sealed decode-cost grid"), "{err}");
    }

    /// Regression: a trace past [`EXACT_MODE_LIMIT`] in which *no*
    /// request fits the KV budget reaches the sealing decision with
    /// `TraceBounds { admittable: 0, .. }` and `min_reservation` still
    /// infinite. [`ServeInstance::pricing_table`] must skip the seal
    /// (not build a degenerate grid or panic), and the run must reject
    /// everything cleanly — on the reserved and the paged path alike.
    #[test]
    fn all_inadmissible_trace_past_the_limit_skips_the_seal() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        // Half-million-token prompts overflow any single-GPU KV budget.
        let trace: Vec<Request> = (0..=EXACT_MODE_LIMIT)
            .map(|i| Request::new(i, i as f64 * 1e-4, 500_000, 4))
            .collect();
        for config in [
            ServeConfig::new(1),
            ServeConfig::new(1).with_kv(KvSpec::paged(16)),
        ] {
            let instance = ServeInstance::new(&cluster, Arc::clone(&model), config).unwrap();
            let bounds = TraceBounds::scan(&instance, &trace);
            assert_eq!(bounds.admittable, 0);
            assert!(
                instance
                    .pricing_table(trace.len(), &bounds)
                    .unwrap()
                    .is_none(),
                "an all-inadmissible trace must not seal a pricing grid"
            );
            let report = instance.simulate(&trace).unwrap();
            assert_eq!(report.completed, 0);
            assert_eq!(report.rejected, trace.len());
            assert_eq!(report.generated_tokens, 0);
            // The clock still walks the arrival sequence; it must stay
            // finite rather than inherit the infinite `min_reservation`.
            assert!(report.makespan.secs().is_finite());
        }
    }

    /// `RecordMode::On` must restore per-request records beyond the
    /// auto-off limit, and `Auto` must drop them there — same aggregates
    /// either way.
    #[test]
    fn records_forced_on_beyond_the_limit() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        // Tiny fixed lengths keep a just-over-the-limit trace cheap.
        let spec = TraceSpec::poisson(5, EXACT_MODE_LIMIT + 1, 400.0, 20, 2);
        let auto = simulate(&cluster, Arc::clone(&model), &ServeConfig::new(1), &spec).unwrap();
        assert!(
            auto.per_request.is_empty(),
            "records default off past the limit"
        );
        let forced = simulate(
            &cluster,
            Arc::clone(&model),
            &ServeConfig::new(1).with_records(RecordMode::On),
            &spec,
        )
        .unwrap();
        assert_eq!(forced.per_request.len(), forced.completed);
        assert!(
            forced.per_request.windows(2).all(|w| w[0].id < w[1].id),
            "records come back in id order"
        );
        assert_eq!(forced.completed, auto.completed);
        assert_eq!(forced.generated_tokens, auto.generated_tokens);
        assert_eq!(forced.makespan, auto.makespan);
    }

    /// Records off must empty `per_request` without changing any
    /// aggregate.
    #[test]
    fn record_mode_off_only_drops_the_records() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let spec = spec(3, 40, 8.0);
        let with = simulate(&cluster, Arc::clone(&model), &ServeConfig::new(1), &spec).unwrap();
        let without = simulate(
            &cluster,
            Arc::clone(&model),
            &ServeConfig::new(1).with_records(RecordMode::Off),
            &spec,
        )
        .unwrap();
        assert!(without.per_request.is_empty());
        assert_eq!(with.per_request.len(), with.completed);
        let strip = |mut r: ServeReport| {
            r.per_request.clear();
            r
        };
        assert_eq!(strip(with), strip(without));
    }

    /// Regression: the queue-depth sample at an iteration's end used the
    /// arrival cursor from the iteration's *start*, so every request that
    /// arrived while the iteration ran was missing from the sample. Two
    /// requests arriving early in a long prefill must show up in the
    /// sample that closes it.
    #[test]
    fn queue_samples_count_arrivals_during_the_iteration() {
        let cluster = presets::dgx_a100_hdr_cluster();
        // Request 0's prefill of a 4000-token prompt runs for a long
        // while (≫ 2 ms); requests 1 and 2 arrive 1–2 ms into it.
        let trace = [
            Request::new(0, 0.1, 4000, 4),
            Request::new(1, 0.101, 100, 4),
            Request::new(2, 0.102, 100, 4),
        ];
        let report = simulate_trace(
            &cluster,
            Arc::new(models::llama2_13b()),
            &ServeConfig::new(1),
            &trace,
        )
        .unwrap();
        let first = report.queue.samples[0];
        assert!(
            first.at.secs() > 0.102,
            "the opening prefill must outlast both arrivals ({})",
            first.at
        );
        assert_eq!(
            first.waiting, 2,
            "both mid-iteration arrivals must be visible in the closing sample"
        );
    }

    /// Regression: `peak_waiting` counted the request receiving its
    /// prefill in the same iteration, while the time-weighted mean
    /// excluded it — peak and mean disagreed with the documented "no
    /// compute yet" definition. A lone request that prefills immediately
    /// never waits.
    #[test]
    fn peak_waiting_excludes_the_request_being_prefilled() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let lone = [Request::new(0, 0.1, 100, 4)];
        let report = simulate_trace(
            &cluster,
            Arc::new(models::llama2_7b()),
            &ServeConfig::new(1),
            &lone,
        )
        .unwrap();
        assert_eq!(report.queue.peak_waiting, 0, "a lone request never waits");
        assert_eq!(report.queue.mean_waiting, 0.0);

        // Two simultaneous arrivals: one prefills, one genuinely waits.
        let pair = [Request::new(0, 0.1, 100, 4), Request::new(1, 0.1, 100, 4)];
        let report = simulate_trace(
            &cluster,
            Arc::new(models::llama2_7b()),
            &ServeConfig::new(1),
            &pair,
        )
        .unwrap();
        assert_eq!(
            report.queue.peak_waiting, 1,
            "exactly one of two simultaneous arrivals waits for the prefill slot"
        );
        assert!(report.queue.mean_waiting > 0.0);
    }

    /// The down-sampled queue series always ends at the trace end, even
    /// when the thinning stride would skip the final iteration.
    #[test]
    fn queue_samples_end_at_trace_end() {
        let cluster = presets::dgx_a100_hdr_cluster();
        // Enough iterations to engage both the online stride doubling and
        // the assembly-time thinning.
        let report = simulate(
            &cluster,
            Arc::new(models::llama2_7b()),
            &ServeConfig::new(1),
            &spec(21, 600, 12.0),
        )
        .unwrap();
        assert!(report.queue.samples.len() <= MAX_QUEUE_SAMPLES + 1);
        let last = report.queue.samples.last().expect("non-empty series");
        assert_eq!(
            last.at, report.makespan,
            "series must end at the makespan, not at the last stride hit"
        );
        assert_eq!(last.waiting, 0, "the run ends idle");
        assert_eq!(last.decoding, 0, "the run ends idle");
    }
}
