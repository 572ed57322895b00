//! Checkpoint/restart resilience modeling for distributed training.
//!
//! At the cluster scales the paper targets, failures dominate real
//! wall-clock: a 64-GPU job with a 50 000-hour per-GPU MTBF fails about
//! every 32 days of compute, and a 16 384-GPU job every 3 hours. A
//! [`CheckpointSpec`] prices that reality into the training estimate with
//! the classic Young–Daly first-order model:
//!
//! * **Checkpoint cost `δ`** — the per-device model state (parameters +
//!   optimizer moments, from `optimus-memory`) streamed over the node's
//!   egress link (`ClusterSpec::inter_link`, with its size-dependent
//!   utilization derating from `optimus-hw`). Larger TP/PP shards the
//!   state thinner, so per-device checkpoints *shrink* as a strategy
//!   spreads out.
//! * **Cluster MTBF `M`** — under the default exponential process, the
//!   per-GPU MTBF divided by the GPU count: failure rates add, so
//!   doubling the fleet halves the time between job-stopping faults.
//!   This is the blast-radius term that reorders the strategy frontier.
//! * **Waste fraction** `w(τ) = δ/τ + (τ/2 + R)/M` — checkpoint overhead
//!   per useful second, plus the expected half-interval of rework and the
//!   restart time `R` amortized over the mean time between failures.
//! * **Effective goodput** `g = 1 / (1 + w)` — the useful-step fraction
//!   of wall-clock; the failure-expected batch time is
//!   `time_per_batch / g`.
//!
//! When no interval is given, the spec picks the Young–Daly optimum
//! `τ* = √(2 δ M)`, which exactly minimizes `w(τ)` (the `R/M` term is
//! `τ`-independent) — a property the resilience proptests pin on a grid
//! around `τ*`.
//!
//! # The composable resilience stack
//!
//! The scalar model above is the *base tier*: one persistent full
//! checkpoint stream. Production jobs layer more machinery on top, and
//! the spec composes all of it:
//!
//! * **Tiered checkpoints** ([`CheckpointTier`]): in-memory peer replicas
//!   (priced as a DP-group all-gather through `optimus-collective`'s link
//!   model) and incremental optimizer-state deltas (a
//!   [`CheckpointSpec::delta_fraction`] slice of the sharded footprint)
//!   run *in front of* the persistent full tier, each with its own
//!   Young–Daly interval. Recovery rolls back to the most recent snapshot
//!   on a tier that *survives* the failure's blast radius — peer replicas
//!   only help when at least one DP group outlives the fault. Tiers that
//!   do not pay for themselves (overhead exceeds the rework they save)
//!   are dropped from the priced stack and reported `active: false`, so
//!   adding a tier can never make a spec worse.
//! * **Failure processes** ([`FailureProcess`]): exponential (closed
//!   form), Weibull with shape `k` for infant mortality (`k = 1` is
//!   special-cased to the exponential closed form bit-exactly; `k ≠ 1`
//!   refines the expected rework with a seeded splitmix64 renewal
//!   simulation, same stream discipline as `optimus-serve`'s fault
//!   streams), and a correlated rack process whose rack-sized events
//!   take out whole DP groups at once. The simulation's uptime draws are
//!   taken once per rework table — once per
//!   [`crate::PreparedTrainingEstimator`], so once per strategy sweep —
//!   and each expected rework is memoized under its
//!   `(cluster MTBF, τ, δ)` key: the 532 points of a 64-GPU tiered
//!   elastic sweep share 122 keys.
//! * **Elastic training** ([`CheckpointSpec::elastic`]): instead of a
//!   full restart, drop the DP groups inside the blast radius, re-warm in
//!   [`CheckpointSpec::rewarm_s`] seconds, and keep training at degraded
//!   throughput (re-priced live through the estimator) until spares
//!   arrive after [`CheckpointSpec::repair_s`]. The report carries both
//!   goodputs ([`ElasticReport`]); the cheaper strategy wins.
//!
//! The degenerate [`CheckpointSpec::none`] (infinite MTBF) adds nothing:
//! the report's resilience section stays absent and the serialized
//! [`crate::TrainingReport`] is byte-identical to a spec-free estimate.
//! Likewise, a spec that uses none of the stack extensions (exponential
//! process, no extra tiers, no elasticity) evaluates and serializes
//! byte-identically to the original scalar model — the goldens pin this.

use optimus_collective::{Collective, CommModel};
use optimus_hw::reliability::{is_default, splitmix64, weibull_scale};
use optimus_hw::{ClusterSpec, FailureProcess};
use optimus_memory::TrainingMemoryReport;
use optimus_parallel::Parallelism;
use optimus_units::{Bytes, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::RwLock;

/// Default fraction of the sharded optimizer state captured by a
/// [`TierKind::PersistentDelta`] checkpoint.
pub const DELTA_FRACTION_DEFAULT: f64 = 0.25;

/// Stream constant mixed into the spec seed for the Weibull rework
/// renewal simulation (same splitmix64 discipline as the serving fault
/// streams).
const REWORK_STREAM: u64 = 0x8C5F_4A3B_2E1D_0F97;

/// Uptime draws per Weibull rework estimate. A `ReworkTable` takes them
/// once, as unit-scale draws, and scales them to each cluster MTBF: every
/// strategy point and every `(τ, δ)` pair reuses the same draws (common
/// random numbers), so tier and strategy comparisons are noise-free and
/// deterministic.
const REWORK_SAMPLES: usize = 2048;

/// What one extra checkpoint tier writes and where it survives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TierKind {
    /// Replicate device state into peer DP-group memory (a DP all-gather
    /// over the node-egress link). Fastest to write and to restore from,
    /// but lost whenever the failure's blast radius covers every DP
    /// group holding a replica.
    InMemoryPeer,
    /// The always-present base tier: the full model state streamed to
    /// persistent storage. Never listed as an *extra* tier — it is
    /// configured by [`CheckpointSpec::interval_s`].
    PersistentFull,
    /// An incremental checkpoint of only the optimizer-state delta
    /// ([`CheckpointSpec::delta_fraction`] of the sharded footprint),
    /// persisted between full snapshots. Survives any blast radius.
    PersistentDelta,
}

impl core::fmt::Display for TierKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::InMemoryPeer => write!(f, "peer"),
            Self::PersistentFull => write!(f, "full"),
            Self::PersistentDelta => write!(f, "delta"),
        }
    }
}

/// One extra checkpoint tier layered in front of the persistent full
/// base tier: its kind plus an interval policy (`None` = per-tier
/// Young–Daly optimum over the tier's own write cost).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointTier {
    /// What this tier snapshots and where it survives.
    pub kind: TierKind,
    /// Seconds of useful work between snapshots on this tier. `None`
    /// selects the tier's own Young–Daly optimum.
    pub interval_s: Option<f64>,
}

impl CheckpointTier {
    /// An in-memory peer-replica tier with auto interval.
    #[must_use]
    pub fn peer() -> Self {
        Self {
            kind: TierKind::InMemoryPeer,
            interval_s: None,
        }
    }

    /// A persistent optimizer-delta tier with auto interval.
    #[must_use]
    pub fn delta() -> Self {
        Self {
            kind: TierKind::PersistentDelta,
            interval_s: None,
        }
    }

    /// Fixes this tier's snapshot interval.
    #[must_use]
    pub fn with_interval(mut self, interval_s: f64) -> Self {
        self.interval_s = Some(interval_s);
        self
    }
}

/// The failure environment of one training job: the per-GPU MTBF and
/// failure process shape, the checkpoint tier stack, the recovery
/// strategy (restart vs elastic), and the power profile of overhead
/// time.
///
/// The three base fields always serialize; the stack extensions are
/// omitted at their defaults (and default when missing), so base specs
/// keep the pre-stack JSON format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointSpec {
    /// Mean seconds of uptime between failures of **one GPU**. The
    /// cluster-level MTBF follows from [`Self::process`]
    /// (`mtbf_s / gpus` for exponential). `0` or `+∞` disables
    /// resilience modeling entirely.
    pub mtbf_s: f64,
    /// Seconds of useful work between *persistent full* checkpoints.
    /// `None` selects the Young–Daly optimum `√(2 δ M)` per strategy.
    pub interval_s: Option<f64>,
    /// Seconds to restart the job after a failure (scheduling, process
    /// re-spawn, checkpoint reload), on top of the lost half-interval.
    pub restart_s: f64,
    /// The failure arrival process (default exponential).
    #[serde(default, skip_serializing_if = "is_default")]
    pub process: FailureProcess,
    /// Extra checkpoint tiers in front of the persistent full base tier.
    #[serde(default, skip_serializing_if = "is_default")]
    pub tiers: Vec<CheckpointTier>,
    /// Whether the job may shrink its DP group by the blast radius and
    /// keep training instead of restarting.
    #[serde(default, skip_serializing_if = "is_default")]
    pub elastic: bool,
    /// Seconds to re-shard and re-warm the shrunken job after an elastic
    /// recovery (in place of the full `restart_s`).
    #[serde(default, skip_serializing_if = "is_default")]
    pub rewarm_s: f64,
    /// Mean seconds until failed resources return to the job. A
    /// restarting job waits this long stopped; an elastic job trains
    /// degraded through it.
    #[serde(default, skip_serializing_if = "is_default")]
    pub repair_s: f64,
    /// Fraction of the sharded optimizer state a delta checkpoint
    /// captures.
    #[serde(
        default = "default_delta_fraction",
        skip_serializing_if = "is_default_delta_fraction"
    )]
    pub delta_fraction: f64,
    /// Utilization of the dynamic power budget during checkpoint /
    /// rework / restart overhead time (`1.0` = full burn, the classic
    /// pessimistic assumption; lower values let the energy model price
    /// overhead seconds at idle-ish power).
    #[serde(
        default = "default_overhead_util",
        skip_serializing_if = "is_default_overhead_util"
    )]
    pub overhead_util: f64,
    /// Base seed for the seeded rework simulation of non-exponential
    /// processes.
    #[serde(default, skip_serializing_if = "is_default")]
    pub seed: u64,
}

fn default_delta_fraction() -> f64 {
    DELTA_FRACTION_DEFAULT
}

fn is_default_delta_fraction(delta_fraction: &f64) -> bool {
    *delta_fraction == DELTA_FRACTION_DEFAULT
}

fn default_overhead_util() -> f64 {
    1.0
}

fn is_default_overhead_util(overhead_util: &f64) -> bool {
    *overhead_util == default_overhead_util()
}

impl CheckpointSpec {
    /// The degenerate no-failure spec: infinite MTBF. Reports estimated
    /// under it are byte-identical to reports with no spec at all.
    #[must_use]
    pub fn none() -> Self {
        Self {
            mtbf_s: f64::INFINITY,
            interval_s: None,
            restart_s: 0.0,
            process: FailureProcess::Exponential,
            tiers: Vec::new(),
            elastic: false,
            rewarm_s: 0.0,
            repair_s: 0.0,
            delta_fraction: DELTA_FRACTION_DEFAULT,
            overhead_util: 1.0,
            seed: 0,
        }
    }

    /// A failure process with per-GPU MTBF `mtbf_s` seconds, Young–Daly
    /// auto-interval, and zero restart cost.
    #[must_use]
    pub fn with_mtbf(mtbf_s: f64) -> Self {
        Self {
            mtbf_s,
            ..Self::none()
        }
    }

    /// Fixes the persistent-full checkpoint interval instead of the
    /// Young–Daly optimum.
    #[must_use]
    pub fn with_interval(mut self, interval_s: f64) -> Self {
        self.interval_s = Some(interval_s);
        self
    }

    /// Sets the per-failure restart cost in seconds.
    #[must_use]
    pub fn with_restart(mut self, restart_s: f64) -> Self {
        self.restart_s = restart_s;
        self
    }

    /// Sets the failure arrival process.
    #[must_use]
    pub fn with_process(mut self, process: FailureProcess) -> Self {
        self.process = process;
        self
    }

    /// Adds one extra checkpoint tier to the stack.
    #[must_use]
    pub fn with_tier(mut self, tier: CheckpointTier) -> Self {
        self.tiers.push(tier);
        self
    }

    /// Replaces the extra-tier stack.
    #[must_use]
    pub fn with_tiers(mut self, tiers: Vec<CheckpointTier>) -> Self {
        self.tiers = tiers;
        self
    }

    /// Enables or disables elastic (shrink-and-continue) recovery.
    #[must_use]
    pub fn with_elastic(mut self, elastic: bool) -> Self {
        self.elastic = elastic;
        self
    }

    /// Sets the elastic re-warm cost in seconds.
    #[must_use]
    pub fn with_rewarm(mut self, rewarm_s: f64) -> Self {
        self.rewarm_s = rewarm_s;
        self
    }

    /// Sets the mean repair (resource return) time in seconds.
    #[must_use]
    pub fn with_repair(mut self, repair_s: f64) -> Self {
        self.repair_s = repair_s;
        self
    }

    /// Sets the optimizer-delta capture fraction.
    #[must_use]
    pub fn with_delta_fraction(mut self, delta_fraction: f64) -> Self {
        self.delta_fraction = delta_fraction;
        self
    }

    /// Sets the dynamic-power utilization of overhead time.
    #[must_use]
    pub fn with_overhead_util(mut self, overhead_util: f64) -> Self {
        self.overhead_util = overhead_util;
        self
    }

    /// Sets the seed of the rework simulation streams.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether the failure process is active (finite positive MTBF).
    #[must_use]
    pub fn has_failures(&self) -> bool {
        self.mtbf_s.is_finite() && self.mtbf_s > 0.0
    }

    /// Whether the spec models no failures at all — the estimator then
    /// leaves the report's resilience section absent.
    #[must_use]
    pub fn is_none(&self) -> bool {
        !self.has_failures()
    }

    /// Whether the spec uses anything beyond the scalar Young–Daly base
    /// model (non-exponential process, extra tiers, elasticity, repair
    /// waits, or a non-default power profile).
    #[must_use]
    pub fn uses_stack(&self) -> bool {
        self.process != FailureProcess::Exponential
            || !self.tiers.is_empty()
            || self.elastic
            || self.repair_s != 0.0
            || self.overhead_util != 1.0
    }

    /// Validates the spec's parameters.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when a field is out of range
    /// (negative/NaN MTBF, non-positive or non-finite interval,
    /// negative/non-finite restart cost, degenerate process shape,
    /// duplicate or base-kind extra tiers, out-of-range fractions).
    pub fn validate(&self) -> Result<(), String> {
        if self.mtbf_s.is_nan() || self.mtbf_s < 0.0 {
            return Err(format!("MTBF must be non-negative, got {}", self.mtbf_s));
        }
        if let Some(interval) = self.interval_s {
            if !(interval.is_finite() && interval > 0.0) {
                return Err(format!(
                    "checkpoint interval must be positive and finite, got {interval}"
                ));
            }
        }
        if !(self.restart_s.is_finite() && self.restart_s >= 0.0) {
            return Err(format!(
                "restart cost must be non-negative and finite, got {}",
                self.restart_s
            ));
        }
        self.process.validate()?;
        for (i, tier) in self.tiers.iter().enumerate() {
            if tier.kind == TierKind::PersistentFull {
                return Err(
                    "the persistent full tier is always present; extra tiers may only \
                     be peer or delta"
                        .to_owned(),
                );
            }
            if self.tiers[..i].iter().any(|t| t.kind == tier.kind) {
                return Err(format!("duplicate checkpoint tier '{}'", tier.kind));
            }
            if let Some(interval) = tier.interval_s {
                if !(interval.is_finite() && interval > 0.0) {
                    return Err(format!(
                        "tier '{}' interval must be positive and finite, got {interval}",
                        tier.kind
                    ));
                }
            }
        }
        if !(self.rewarm_s.is_finite() && self.rewarm_s >= 0.0) {
            return Err(format!(
                "re-warm cost must be non-negative and finite, got {}",
                self.rewarm_s
            ));
        }
        if !(self.repair_s.is_finite() && self.repair_s >= 0.0) {
            return Err(format!(
                "repair time must be non-negative and finite, got {}",
                self.repair_s
            ));
        }
        if !(self.delta_fraction.is_finite()
            && self.delta_fraction > 0.0
            && self.delta_fraction <= 1.0)
        {
            return Err(format!(
                "delta fraction must be in (0, 1], got {}",
                self.delta_fraction
            ));
        }
        if !(self.overhead_util.is_finite() && (0.0..=1.0).contains(&self.overhead_util)) {
            return Err(format!(
                "overhead utilization must be in [0, 1], got {}",
                self.overhead_util
            ));
        }
        Ok(())
    }

    /// Prices this spec for one evaluated strategy: `memory` is the
    /// strategy's per-device footprint, `gpus` its device count, and
    /// `time_per_batch` the failure-free batch time. `None` when the
    /// failure process is disabled (or `gpus == 0`).
    ///
    /// This signature has no parallelism context, so peer tiers are
    /// inapplicable and elastic recovery falls back to restart pricing —
    /// use [`Self::evaluate_stack`] (or the prepared estimator, which
    /// wires it up) for the full stack.
    #[must_use]
    pub fn evaluate(
        &self,
        cluster: &ClusterSpec,
        memory: &TrainingMemoryReport,
        gpus: usize,
        time_per_batch: Time,
    ) -> Option<ResilienceReport> {
        self.evaluate_stack(
            &StackContext {
                cluster,
                memory,
                gpus,
                parallelism: None,
                comm: CommModel::Auto,
                time_per_batch,
            },
            &|_| None,
        )
    }

    /// Prices the full resilience stack for one evaluated strategy.
    ///
    /// `reprice` maps a shrunken DP degree to the failure-free time of
    /// the correspondingly shrunken batch (the elastic repricing entry
    /// point of [`crate::PreparedTrainingEstimator`]); return `None` to
    /// declare the shrink infeasible. `None` overall when the failure
    /// process is disabled (or `gpus == 0`).
    #[must_use]
    pub fn evaluate_stack(
        &self,
        ctx: &StackContext<'_>,
        reprice: &dyn Fn(usize) -> Option<Time>,
    ) -> Option<ResilienceReport> {
        self.evaluate_with_table(ctx, reprice, &ReworkTable::new(self))
    }

    /// [`Self::evaluate_stack`] with the expected rework looked up in
    /// `rework`, which must have been built from this spec. The prepared
    /// estimator keeps one table for every point it prices; the one-shot
    /// entry points build a fresh one per call.
    pub(crate) fn evaluate_with_table(
        &self,
        ctx: &StackContext<'_>,
        reprice: &dyn Fn(usize) -> Option<Time>,
        rework: &ReworkTable,
    ) -> Option<ResilienceReport> {
        if !self.has_failures() || ctx.gpus == 0 {
            return None;
        }
        let memory = ctx.memory;
        let gpus = ctx.gpus;
        // Model state per device: parameters + optimizer moments. The
        // gradient buffer is transient and activations are recomputed, so
        // neither belongs in a checkpoint.
        let checkpoint_bytes = memory.parameters + memory.optimizer;
        // Every device streams its shard over the node's egress link in
        // parallel; the size-dependent utilization derating penalizes the
        // small shards of wide strategies.
        let link = &ctx.cluster.inter_link;
        let checkpoint_write = checkpoint_bytes / link.effective_bandwidth(checkpoint_bytes);
        let delta = checkpoint_write.secs();

        let cluster_mtbf = self.process.cluster_mtbf(self.mtbf_s, gpus);
        let (interval, auto_interval) = match self.interval_s {
            Some(s) => (s, false),
            None => (young_daly_interval(delta, cluster_mtbf), true),
        };

        let checkpoint_overhead_frac = if interval > 0.0 {
            delta / interval
        } else {
            0.0
        };

        let dp = ctx.parallelism.map_or(1, |p| p.dp);
        let classes = self.failure_classes(ctx.parallelism, gpus, dp);
        let priced = self.price_tiers(ctx, checkpoint_bytes, cluster_mtbf, dp);

        let restart_frac = self.restart_s / cluster_mtbf;
        let repair_frac_v = self.repair_s / cluster_mtbf;

        // The stack only keeps tiers that pay for themselves: evaluate
        // every subset of the applicable extra tiers and keep the best
        // (the empty subset — the scalar base model — is always a
        // candidate, so tiers can never make a spec worse).
        let applicable: Vec<usize> = (0..priced.len())
            .filter(|&i| priced[i].applicable)
            .collect();
        let mut best: Option<Candidate> = None;
        for mask in 0u32..(1 << applicable.len()) {
            let active: Vec<&PricedTier> = applicable
                .iter()
                .enumerate()
                .filter(|(bit, _)| mask & (1 << bit) != 0)
                .map(|(_, &i)| &priced[i])
                .collect();
            let extra_overhead: f64 = active
                .iter()
                .map(|t| {
                    if t.interval_s > 0.0 {
                        t.write.secs() / t.interval_s
                    } else {
                        0.0
                    }
                })
                .sum();
            let overhead_total = checkpoint_overhead_frac + extra_overhead;

            let mut rework_frac = 0.0;
            let mut elastic_extra_frac = 0.0;
            let mut elastic_detail: Option<ElasticDetail> = None;
            let mut any_feasible = false;
            for class in &classes {
                // Roll back to the freshest snapshot on a tier that
                // survives this class's blast radius. Persistent tiers
                // always survive; peer replicas need a surviving DP group.
                let mut tau_c = interval;
                let mut write_c = delta;
                for t in &active {
                    let survives = match t.kind {
                        TierKind::InMemoryPeer => class.lost_groups < dp,
                        _ => true,
                    };
                    if survives && t.interval_s < tau_c {
                        tau_c = t.interval_s;
                        write_c = t.write.secs();
                    }
                }
                let rework_s = rework.expected(cluster_mtbf, tau_c, write_c);
                rework_frac += class.weight * (rework_s / cluster_mtbf);

                // Recovery strategy: full restart stops for restart_s and
                // waits out the repair; elastic re-warms the survivors and
                // trains degraded through the repair window.
                let restart_extra = restart_frac + repair_frac_v;
                let mut class_extra = restart_extra;
                if self.elastic && class.lost_groups < dp {
                    let shrunken = dp - class.lost_groups;
                    if let Some(t_deg) = reprice(shrunken) {
                        // Per-replica batch stays constant, so degraded
                        // sample throughput is (dp'/dp) · (t/t') of full.
                        let ratio = (shrunken as f64 * ctx.time_per_batch.secs()
                            / (dp as f64 * t_deg.secs()))
                        .clamp(0.0, 1.0);
                        let elastic_extra =
                            (self.rewarm_s + self.repair_s * (1.0 - ratio)) / cluster_mtbf;
                        class_extra = elastic_extra.min(restart_extra);
                        any_feasible = true;
                        if elastic_detail.is_none() {
                            elastic_detail = Some(ElasticDetail {
                                shrunken_dp: shrunken,
                                degraded_time_per_batch: t_deg,
                                throughput_ratio: ratio,
                            });
                        }
                    }
                }
                elastic_extra_frac += class.weight * class_extra;
            }

            let waste_restart = overhead_total + rework_frac + restart_frac + repair_frac_v;
            let waste_elastic = overhead_total + rework_frac + elastic_extra_frac;
            let waste_chosen = if self.elastic {
                waste_elastic.min(waste_restart)
            } else {
                waste_restart
            };
            let candidate = Candidate {
                mask,
                overhead_total,
                rework_frac,
                waste_restart,
                waste_elastic,
                waste_chosen,
                any_feasible,
                elastic_detail,
            };
            if best
                .as_ref()
                .is_none_or(|b| candidate.waste_chosen < b.waste_chosen)
            {
                best = Some(candidate);
            }
        }
        let best = best.expect("subset enumeration always includes the empty stack");

        let waste = best.waste_chosen;
        let goodput = 1.0 / (1.0 + waste);

        let tiers = if priced.is_empty() {
            None
        } else {
            let active_set: Vec<usize> = applicable
                .iter()
                .enumerate()
                .filter(|(bit, _)| best.mask & (1 << bit) != 0)
                .map(|(_, &i)| i)
                .collect();
            Some(
                priced
                    .iter()
                    .enumerate()
                    .map(|(i, t)| TierReport {
                        kind: t.kind,
                        bytes: t.bytes,
                        write: t.write,
                        interval: Time::from_secs(t.interval_s),
                        auto_interval: t.auto,
                        overhead_frac: if t.interval_s > 0.0 {
                            t.write.secs() / t.interval_s
                        } else {
                            0.0
                        },
                        active: active_set.contains(&i),
                    })
                    .collect(),
            )
        };
        let elastic = if self.elastic {
            let detail = best.elastic_detail.unwrap_or(ElasticDetail {
                shrunken_dp: dp.saturating_sub(1),
                degraded_time_per_batch: Time::ZERO,
                throughput_ratio: 0.0,
            });
            Some(ElasticReport {
                shrunken_dp: detail.shrunken_dp,
                feasible: best.any_feasible,
                degraded_time_per_batch: detail.degraded_time_per_batch,
                throughput_ratio: detail.throughput_ratio,
                restart_goodput: 1.0 / (1.0 + best.waste_restart),
                elastic_goodput: 1.0 / (1.0 + best.waste_elastic),
                waste,
                chosen: best.waste_elastic < best.waste_restart,
            })
        } else {
            None
        };

        Some(ResilienceReport {
            spec: self.clone(),
            checkpoint_bytes,
            checkpoint_write,
            interval: Time::from_secs(interval),
            auto_interval,
            cluster_mtbf: Time::from_secs(cluster_mtbf),
            checkpoint_overhead_frac: best.overhead_total,
            rework_frac: best.rework_frac,
            restart_frac,
            goodput,
            expected_time_per_batch: ctx.time_per_batch * (1.0 + waste),
            process: if self.process.is_exponential() {
                None
            } else {
                Some(self.process)
            },
            tiers,
            repair_frac: if self.repair_s == 0.0 {
                None
            } else {
                Some(repair_frac_v)
            },
            elastic,
        })
    }

    /// The failure event classes of this spec's process: each with its
    /// share of the total failure rate and the number of DP groups its
    /// blast radius removes.
    fn failure_classes(
        &self,
        parallelism: Option<Parallelism>,
        gpus: usize,
        dp: usize,
    ) -> Vec<FailureClass> {
        match self.process {
            FailureProcess::RackCorrelated { racks, rack_mtbf_s } => {
                let solo_rate = gpus as f64 / self.mtbf_s;
                let rack_rate = racks as f64 / rack_mtbf_s;
                let total = solo_rate + rack_rate;
                let rack_gpus = gpus.div_ceil(racks.max(1));
                let lost = match parallelism {
                    Some(p) => rack_gpus.div_ceil(p.tp * p.pp).clamp(1, dp),
                    // Without parallelism context, assume the rack takes
                    // the whole job (peer tiers inapplicable anyway).
                    None => dp,
                };
                vec![
                    FailureClass {
                        weight: solo_rate / total,
                        lost_groups: 1,
                    },
                    FailureClass {
                        weight: rack_rate / total,
                        lost_groups: lost,
                    },
                ]
            }
            _ => vec![FailureClass {
                weight: 1.0,
                lost_groups: 1,
            }],
        }
    }

    /// Prices every configured extra tier: bytes, write time over the
    /// appropriate path, and interval (given or per-tier Young–Daly).
    fn price_tiers(
        &self,
        ctx: &StackContext<'_>,
        checkpoint_bytes: Bytes,
        cluster_mtbf: f64,
        dp: usize,
    ) -> Vec<PricedTier> {
        let link = &ctx.cluster.inter_link;
        self.tiers
            .iter()
            .map(|tier| {
                let (bytes, write, applicable) = match tier.kind {
                    TierKind::InMemoryPeer => {
                        // Peer replication is a DP-group all-gather of the
                        // device state over the node-egress link; with no
                        // peer group there is nowhere to replicate to.
                        let write =
                            ctx.comm
                                .time(Collective::AllGather, checkpoint_bytes, dp, link);
                        (checkpoint_bytes, write, dp >= 2)
                    }
                    TierKind::PersistentFull | TierKind::PersistentDelta => {
                        let bytes = Bytes::new(memory_delta_bytes(ctx.memory, self.delta_fraction));
                        let write = bytes / link.effective_bandwidth(bytes);
                        (bytes, write, true)
                    }
                };
                let (interval_s, auto) = match tier.interval_s {
                    Some(s) => (s, false),
                    None => (young_daly_interval(write.secs(), cluster_mtbf), true),
                };
                PricedTier {
                    kind: tier.kind,
                    bytes,
                    write,
                    interval_s,
                    auto,
                    applicable,
                }
            })
            .collect()
    }
}

/// Sharded optimizer-state bytes captured by a delta checkpoint.
fn memory_delta_bytes(memory: &TrainingMemoryReport, fraction: f64) -> f64 {
    memory.optimizer.bytes() * fraction
}

/// Everything [`CheckpointSpec::evaluate_stack`] needs to know about the
/// strategy being priced.
#[derive(Debug, Clone, Copy)]
pub struct StackContext<'a> {
    /// The cluster whose links price checkpoint writes.
    pub cluster: &'a ClusterSpec,
    /// The strategy's per-device memory footprint.
    pub memory: &'a TrainingMemoryReport,
    /// The strategy's device count.
    pub gpus: usize,
    /// The strategy's parallelism (peer-tier group size and elastic
    /// blast-radius arithmetic); `None` disables both.
    pub parallelism: Option<Parallelism>,
    /// The collective policy pricing peer-replica all-gathers.
    pub comm: CommModel,
    /// The strategy's failure-free batch time.
    pub time_per_batch: Time,
}

/// One failure event class: its share of the total failure rate and how
/// many DP groups its blast radius removes.
struct FailureClass {
    weight: f64,
    lost_groups: usize,
}

/// One extra tier with its pricing resolved.
struct PricedTier {
    kind: TierKind,
    bytes: Bytes,
    write: Time,
    interval_s: f64,
    auto: bool,
    applicable: bool,
}

/// Elastic repricing detail of the first feasible failure class.
#[derive(Clone, Copy)]
struct ElasticDetail {
    shrunken_dp: usize,
    degraded_time_per_batch: Time,
    throughput_ratio: f64,
}

/// One tier subset's full evaluation.
struct Candidate {
    mask: u32,
    overhead_total: f64,
    rework_frac: f64,
    waste_restart: f64,
    waste_elastic: f64,
    waste_chosen: f64,
    any_feasible: bool,
    elastic_detail: Option<ElasticDetail>,
}

/// The expected rework per failure of one [`CheckpointSpec`], memoized.
///
/// Under an exponential process (and Weibull `k = 1`) a failure loses
/// half an interval on average, `τ/2`, and the table holds nothing. Under
/// Weibull `k ≠ 1` the table draws [`REWORK_SAMPLES`] unit-scale uptimes
/// `(-ln(1 - u))^{1/k}` once from the spec's seed; a cluster MTBF `M`
/// scales them by the Weibull scale of mean `M`, and the estimate
/// `E[min(U mod (τ+δ), τ)]` is memoized under the f64 bits of
/// `(M, τ, δ)` — the only inputs it depends on.
///
/// Every value is a pure function of its key, so a racing duplicate
/// computation publishes the identical value and results never depend on
/// evaluation order or thread count.
#[derive(Debug)]
pub(crate) struct ReworkTable {
    /// Weibull shape of the draws (unused when `unit_draws` is empty).
    shape: f64,
    /// Unit-scale uptime draws; empty for the `τ/2` closed form.
    unit_draws: Vec<f64>,
    /// Expected rework keyed on the bits of `(cluster MTBF, τ, δ)`.
    memo: RwLock<HashMap<[u64; 3], f64>>,
}

impl ReworkTable {
    /// The table of `spec`: draws only for an active Weibull `k ≠ 1`
    /// process.
    pub(crate) fn new(spec: &CheckpointSpec) -> Self {
        let (shape, unit_draws) = match spec.process {
            FailureProcess::Weibull { shape } if shape != 1.0 && spec.has_failures() => {
                let mut rng = StdRng::seed_from_u64(splitmix64(spec.seed ^ REWORK_STREAM));
                let inv_shape = 1.0 / shape;
                let draws = (0..REWORK_SAMPLES)
                    .map(|_| {
                        let u: f64 = rng.gen_range(0.0..1.0);
                        (-(1.0 - u).ln()).powf(inv_shape)
                    })
                    .collect();
                (shape, draws)
            }
            _ => (1.0, Vec::new()),
        };
        Self {
            shape,
            unit_draws,
            memo: RwLock::new(HashMap::new()),
        }
    }

    /// Number of distinct `(cluster MTBF, τ, δ)` keys materialized so far.
    pub(crate) fn keys(&self) -> usize {
        self.memo.read().expect("rework memo poisoned").len()
    }

    /// Expected useful work lost per failure on a cluster with MTBF
    /// `cluster_mtbf` that snapshots every `tau` useful seconds at
    /// `write_s` seconds per snapshot.
    pub(crate) fn expected(&self, cluster_mtbf: f64, tau: f64, write_s: f64) -> f64 {
        if self.unit_draws.is_empty() {
            return tau / 2.0;
        }
        let key = [cluster_mtbf.to_bits(), tau.to_bits(), write_s.to_bits()];
        if let Some(&hit) = self.memo.read().expect("rework memo poisoned").get(&key) {
            return hit;
        }
        let computed = self.simulate(cluster_mtbf, tau, write_s);
        self.memo
            .write()
            .expect("rework memo poisoned")
            .entry(key)
            .or_insert(computed);
        computed
    }

    /// The memo-miss path, `E[min(U mod (τ+δ), τ)]` over the scaled
    /// draws: work alternates `τ` useful seconds with a `δ`-second
    /// snapshot, and a failure at uptime `U` loses whatever of the
    /// current interval is uncheckpointed.
    fn simulate(&self, cluster_mtbf: f64, tau: f64, write_s: f64) -> f64 {
        if tau.is_nan() || tau <= 0.0 {
            return 0.0;
        }
        let scale = weibull_scale(cluster_mtbf, self.shape);
        let period = tau + write_s;
        let total: f64 = self
            .unit_draws
            .iter()
            .map(|x| ((scale * x) % period).min(tau))
            .sum();
        total / self.unit_draws.len() as f64
    }
}

/// The Young–Daly optimal checkpoint interval `√(2 δ M)` for a
/// checkpoint that costs `checkpoint_write_s` seconds on a system with a
/// cluster-level MTBF of `cluster_mtbf_s` seconds. Exactly minimizes
/// [`waste_fraction`] over the interval (the restart term does not depend
/// on it).
#[must_use]
pub fn young_daly_interval(checkpoint_write_s: f64, cluster_mtbf_s: f64) -> f64 {
    (2.0 * checkpoint_write_s * cluster_mtbf_s).sqrt()
}

/// The first-order waste fraction `w(τ) = δ/τ + (τ/2 + R)/M`: non-useful
/// seconds per useful second spent on checkpoint writes, expected rework
/// (half an interval per failure), and restarts. Effective goodput is
/// `1 / (1 + w)`.
#[must_use]
pub fn waste_fraction(
    interval_s: f64,
    checkpoint_write_s: f64,
    restart_s: f64,
    cluster_mtbf_s: f64,
) -> f64 {
    checkpoint_write_s / interval_s + (interval_s / 2.0 + restart_s) / cluster_mtbf_s
}

/// One extra checkpoint tier's pricing inside a [`ResilienceReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierReport {
    /// The tier's kind.
    pub kind: TierKind,
    /// Bytes this tier snapshots per device.
    pub bytes: Bytes,
    /// Time of one snapshot on this tier.
    pub write: Time,
    /// The tier's snapshot interval (given, or per-tier Young–Daly).
    pub interval: Time,
    /// Whether `interval` was auto-selected.
    pub auto_interval: bool,
    /// This tier's write overhead per useful second.
    pub overhead_frac: f64,
    /// Whether the stack kept this tier (tiers that don't pay for
    /// themselves are dropped and contribute nothing).
    pub active: bool,
}

/// The elastic-vs-restart comparison of a [`ResilienceReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ElasticReport {
    /// DP degree after shrinking by the (first feasible) blast radius.
    pub shrunken_dp: usize,
    /// Whether any failure class could be absorbed elastically.
    pub feasible: bool,
    /// Failure-free time of the shrunken batch (zero when infeasible).
    pub degraded_time_per_batch: Time,
    /// Degraded sample throughput as a fraction of the full job's.
    pub throughput_ratio: f64,
    /// Goodput of the restart-only strategy.
    pub restart_goodput: f64,
    /// Goodput continuing elastically through repairs.
    pub elastic_goodput: f64,
    /// Waste fraction of the chosen strategy.
    pub waste: f64,
    /// Whether elastic recovery strictly beat restarting.
    pub chosen: bool,
}

/// The resilience section of a [`crate::TrainingReport`]: how one
/// strategy's failure-free batch time inflates under a [`CheckpointSpec`].
///
/// The stack sections at the end are omitted (not `null`) when absent,
/// so base reports keep the pre-stack JSON format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceReport {
    /// The spec priced into this report. A report is only priced for a
    /// spec with failures, so its MTBF is finite.
    pub spec: CheckpointSpec,
    /// Per-device model state written per checkpoint (parameters +
    /// optimizer moments).
    pub checkpoint_bytes: Bytes,
    /// Time of one persistent full checkpoint write (`δ`): the state
    /// shard over the node-egress link's effective bandwidth.
    pub checkpoint_write: Time,
    /// The persistent-full checkpoint interval `τ` in effect (given, or
    /// Young–Daly).
    pub interval: Time,
    /// Whether `interval` was auto-selected via Young–Daly.
    pub auto_interval: bool,
    /// Cluster-level MTBF `M` under the spec's failure process
    /// (`mtbf_s / gpus` for exponential).
    pub cluster_mtbf: Time,
    /// Checkpoint write overhead per useful second, summed over every
    /// active tier (`δ/τ` for the base model).
    pub checkpoint_overhead_frac: f64,
    /// Expected rework per useful second: the uncheckpointed work lost
    /// per failure (on the freshest surviving tier) over `M`.
    pub rework_frac: f64,
    /// Restart time per useful second (`R/M`).
    pub restart_frac: f64,
    /// Effective goodput: the useful fraction of wall-clock,
    /// `1 / (1 + w)`.
    pub goodput: f64,
    /// Failure-expected time per batch: `time_per_batch / goodput`.
    pub expected_time_per_batch: Time,
    /// The non-exponential failure process, when one is in effect.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub process: Option<FailureProcess>,
    /// Extra checkpoint tier pricing, when tiers are configured.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub tiers: Option<Vec<TierReport>>,
    /// Repair-wait time per useful second, when `repair_s > 0`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub repair_frac: Option<f64>,
    /// The elastic-vs-restart comparison, when elasticity is enabled.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub elastic: Option<ElasticReport>,
}

impl ResilienceReport {
    /// Total waste fraction `w` of the chosen recovery strategy: for the
    /// base model exactly `δ/τ + (τ/2 + R)/M`; with repair waits or an
    /// elastic recovery, their terms included.
    #[must_use]
    pub fn waste(&self) -> f64 {
        match &self.elastic {
            Some(e) if e.chosen => e.waste,
            _ => {
                self.checkpoint_overhead_frac
                    + self.rework_frac
                    + self.restart_frac
                    + self.repair_frac.unwrap_or(0.0)
            }
        }
    }
}

impl core::fmt::Display for ResilienceReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "goodput {:.1}% (ckpt {} every {}{}, cluster MTBF {}, expected {})",
            self.goodput * 100.0,
            self.checkpoint_write,
            self.interval,
            if self.auto_interval { " auto" } else { "" },
            self.cluster_mtbf,
            self.expected_time_per_batch
        )?;
        if let Some(process) = &self.process {
            write!(f, " [{process}]")?;
        }
        if let Some(tiers) = &self.tiers {
            for tier in tiers {
                write!(
                    f,
                    " [{}{} every {}]",
                    tier.kind,
                    if tier.active { "" } else { " off" },
                    tier.interval
                )?;
            }
        }
        if let Some(elastic) = &self.elastic {
            write!(
                f,
                " [elastic {}: dp→{} at {:.0}% vs restart {:.1}%]",
                if elastic.chosen { "on" } else { "off" },
                elastic.shrunken_dp,
                elastic.throughput_ratio * 100.0,
                elastic.restart_goodput * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_hw::presets;
    use optimus_memory::{training_memory, RecomputeMode, TrainingMemorySpec};
    use optimus_model::presets as models;
    use optimus_parallel::{Parallelism, PipelineSchedule};

    fn memory_for(p: Parallelism) -> TrainingMemoryReport {
        training_memory(
            &models::llama2_13b(),
            &TrainingMemorySpec {
                batch: 64,
                seq: 2048,
                parallelism: p,
                schedule: PipelineSchedule::OneFOneB,
                precision: optimus_hw::Precision::Fp16,
                recompute: RecomputeMode::Selective,
            },
        )
        .unwrap()
    }

    fn stack_ctx<'a>(
        cluster: &'a ClusterSpec,
        memory: &'a TrainingMemoryReport,
        p: Parallelism,
        t: Time,
    ) -> StackContext<'a> {
        StackContext {
            cluster,
            memory,
            gpus: p.total_gpus(),
            parallelism: Some(p),
            comm: CommModel::Auto,
            time_per_batch: t,
        }
    }

    #[test]
    fn none_is_inactive_and_valid() {
        let spec = CheckpointSpec::none();
        assert!(spec.is_none());
        assert!(!spec.has_failures());
        assert!(spec.validate().is_ok());
        let cluster = presets::dgx_a100_hdr_cluster();
        let memory = memory_for(Parallelism::new(8, 8, 1).with_sp(true));
        assert!(spec
            .evaluate(&cluster, &memory, 64, Time::from_secs(10.0))
            .is_none());
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        assert!(CheckpointSpec::with_mtbf(-1.0).validate().is_err());
        assert!(CheckpointSpec::with_mtbf(f64::NAN).validate().is_err());
        assert!(CheckpointSpec::with_mtbf(1e5)
            .with_interval(0.0)
            .validate()
            .is_err());
        assert!(CheckpointSpec::with_mtbf(1e5)
            .with_interval(f64::INFINITY)
            .validate()
            .is_err());
        assert!(CheckpointSpec::with_mtbf(1e5)
            .with_restart(-3.0)
            .validate()
            .is_err());
        assert!(CheckpointSpec::with_mtbf(1e5)
            .with_interval(600.0)
            .with_restart(120.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_stacks() {
        let base = CheckpointSpec::with_mtbf(1e5);
        assert!(base
            .clone()
            .with_tier(CheckpointTier {
                kind: TierKind::PersistentFull,
                interval_s: None
            })
            .validate()
            .is_err());
        assert!(base
            .clone()
            .with_tier(CheckpointTier::peer())
            .with_tier(CheckpointTier::peer())
            .validate()
            .is_err());
        assert!(base
            .clone()
            .with_tier(CheckpointTier::delta().with_interval(-5.0))
            .validate()
            .is_err());
        assert!(base.clone().with_delta_fraction(0.0).validate().is_err());
        assert!(base.clone().with_delta_fraction(1.5).validate().is_err());
        assert!(base.clone().with_overhead_util(1.2).validate().is_err());
        assert!(base.clone().with_rewarm(f64::NAN).validate().is_err());
        assert!(base.clone().with_repair(-1.0).validate().is_err());
        assert!(base.clone().with_repair(f64::INFINITY).validate().is_err());
        assert!(base
            .clone()
            .with_tier(CheckpointTier::delta().with_interval(f64::INFINITY))
            .validate()
            .is_err());
        assert!(base
            .clone()
            .with_overhead_util(f64::NAN)
            .validate()
            .is_err());
        assert!(base
            .clone()
            .with_process(FailureProcess::Weibull { shape: 0.0 })
            .validate()
            .is_err());
        assert!(base
            .with_tier(CheckpointTier::peer())
            .with_tier(CheckpointTier::delta())
            .with_elastic(true)
            .with_process(FailureProcess::Weibull { shape: 0.7 })
            .validate()
            .is_ok());
    }

    #[test]
    fn cluster_mtbf_scales_inversely_with_gpus() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let memory = memory_for(Parallelism::new(8, 8, 1).with_sp(true));
        let spec = CheckpointSpec::with_mtbf(1e8).with_restart(60.0);
        let t = Time::from_secs(10.0);
        let r64 = spec.evaluate(&cluster, &memory, 64, t).unwrap();
        let r128 = spec.evaluate(&cluster, &memory, 128, t).unwrap();
        assert!(
            (r64.cluster_mtbf.secs() - 2.0 * r128.cluster_mtbf.secs()).abs() < 1e-6,
            "doubling the fleet must halve the cluster MTBF"
        );
        assert!(
            r128.goodput < r64.goodput,
            "more GPUs ⇒ more failures ⇒ less goodput"
        );
        assert!(r128.expected_time_per_batch > r64.expected_time_per_batch);
    }

    #[test]
    fn auto_interval_is_young_daly_and_given_interval_wins() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let memory = memory_for(Parallelism::new(8, 8, 1).with_sp(true));
        let t = Time::from_secs(10.0);
        let auto = CheckpointSpec::with_mtbf(1e8)
            .evaluate(&cluster, &memory, 64, t)
            .unwrap();
        assert!(auto.auto_interval);
        let expect = young_daly_interval(auto.checkpoint_write.secs(), auto.cluster_mtbf.secs());
        assert!((auto.interval.secs() - expect).abs() < 1e-9);
        let fixed = CheckpointSpec::with_mtbf(1e8)
            .with_interval(1234.0)
            .evaluate(&cluster, &memory, 64, t)
            .unwrap();
        assert!(!fixed.auto_interval);
        assert_eq!(fixed.interval.secs(), 1234.0);
        // The Young–Daly pick can only beat a fixed interval.
        assert!(auto.goodput >= fixed.goodput);
    }

    #[test]
    fn wider_sharding_shrinks_the_checkpoint() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let narrow = memory_for(Parallelism::new(8, 2, 1));
        let wide = memory_for(Parallelism::new(2, 8, 1).with_sp(true));
        let spec = CheckpointSpec::with_mtbf(1e8);
        let t = Time::from_secs(10.0);
        let rn = spec.evaluate(&cluster, &narrow, 16, t).unwrap();
        let rw = spec.evaluate(&cluster, &wide, 16, t).unwrap();
        assert!(
            rw.checkpoint_bytes < rn.checkpoint_bytes,
            "TP8 shards model state thinner than TP2"
        );
        assert!(rw.checkpoint_write < rn.checkpoint_write);
    }

    #[test]
    fn waste_decomposes_and_goodput_inverts_it() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let memory = memory_for(Parallelism::new(8, 8, 1).with_sp(true));
        let r = CheckpointSpec::with_mtbf(5e7)
            .with_restart(300.0)
            .evaluate(&cluster, &memory, 64, Time::from_secs(10.0))
            .unwrap();
        let w = waste_fraction(
            r.interval.secs(),
            r.checkpoint_write.secs(),
            300.0,
            r.cluster_mtbf.secs(),
        );
        assert!((r.waste() - w).abs() < 1e-12);
        assert!((r.goodput - 1.0 / (1.0 + w)).abs() < 1e-12);
        assert!(
            (r.expected_time_per_batch.secs() - 10.0 * (1.0 + w)).abs() < 1e-9,
            "expected batch time must be the failure-free time over goodput"
        );
    }

    #[test]
    fn tiers_never_hurt_and_report_their_pricing() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let p = Parallelism::new(8, 8, 1).with_sp(true);
        let memory = memory_for(p);
        let t = Time::from_secs(10.0);
        // Harsh environment: failures every ~1.7 h of cluster time.
        let base = CheckpointSpec::with_mtbf(4e5).with_restart(900.0);
        let tiered = base
            .clone()
            .with_tier(CheckpointTier::peer())
            .with_tier(CheckpointTier::delta());
        let ctx = stack_ctx(&cluster, &memory, p, t);
        let rb = base.evaluate_stack(&ctx, &|_| None).unwrap();
        let rt = tiered.evaluate_stack(&ctx, &|_| None).unwrap();
        assert!(
            rt.goodput >= rb.goodput,
            "a tier that does not pay for itself must be dropped, not priced: \
             {} vs {}",
            rt.goodput,
            rb.goodput
        );
        let tiers = rt.tiers.as_ref().unwrap();
        assert_eq!(tiers.len(), 2);
        assert_eq!(tiers[0].kind, TierKind::InMemoryPeer);
        assert_eq!(tiers[1].kind, TierKind::PersistentDelta);
        for tier in tiers.iter().filter(|t| t.active) {
            assert!(tier.write.secs() > 0.0);
            assert!(tier.interval.secs() > 0.0);
            assert!(
                tier.write < rt.checkpoint_write,
                "extra tiers must write less than a full persistent snapshot"
            );
        }
    }

    #[test]
    fn peer_tier_needs_a_peer_group() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let p = Parallelism::new(1, 8, 1).with_sp(true);
        let memory = memory_for(p);
        let spec = CheckpointSpec::with_mtbf(4e5)
            .with_restart(900.0)
            .with_tier(CheckpointTier::peer());
        let ctx = stack_ctx(&cluster, &memory, p, Time::from_secs(10.0));
        let r = spec.evaluate_stack(&ctx, &|_| None).unwrap();
        let tiers = r.tiers.as_ref().unwrap();
        assert!(!tiers[0].active, "dp=1 has no peer group to replicate into");
    }

    #[test]
    fn elastic_beats_restart_when_rewarm_is_cheap() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let p = Parallelism::new(8, 8, 1).with_sp(true);
        let memory = memory_for(p);
        let t = Time::from_secs(10.0);
        let spec = CheckpointSpec::with_mtbf(4e5)
            .with_restart(1800.0)
            .with_repair(3600.0)
            .with_rewarm(60.0)
            .with_elastic(true);
        let ctx = stack_ctx(&cluster, &memory, p, t);
        // Per-replica work is constant, so the shrunken batch takes about
        // the same wall-clock as the full one (slightly more here).
        let r = spec
            .evaluate_stack(&ctx, &|_| Some(Time::from_secs(10.1)))
            .unwrap();
        let e = r.elastic.as_ref().unwrap();
        assert!(e.feasible);
        assert!(e.chosen, "cheap re-warm must beat an 1800 s restart");
        assert_eq!(e.shrunken_dp, 7);
        assert!(e.elastic_goodput > e.restart_goodput);
        assert!(e.throughput_ratio > 0.8 && e.throughput_ratio <= 1.0);
        assert!((r.goodput - 1.0 / (1.0 + r.waste())).abs() < 1e-12);
    }

    #[test]
    fn weibull_infant_mortality_degrades_goodput() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let memory = memory_for(Parallelism::new(8, 8, 1).with_sp(true));
        let t = Time::from_secs(10.0);
        let exp = CheckpointSpec::with_mtbf(4e5)
            .with_restart(900.0)
            .evaluate(&cluster, &memory, 64, t)
            .unwrap();
        let infant = CheckpointSpec::with_mtbf(4e5)
            .with_restart(900.0)
            .with_process(FailureProcess::Weibull { shape: 0.7 })
            .evaluate(&cluster, &memory, 64, t)
            .unwrap();
        assert!(
            infant.cluster_mtbf < exp.cluster_mtbf,
            "k < 1 min-stability shortens the cluster MTBF"
        );
        assert!(infant.goodput < exp.goodput);
        assert_eq!(infant.process, Some(FailureProcess::Weibull { shape: 0.7 }));
        assert!(
            exp.process.is_none(),
            "exponential reports omit the process"
        );
    }

    /// The draw-and-sum every evaluation ran before the rework memo: a
    /// fresh set of scaled draws per call, summed per `(τ, δ)`.
    fn reference_rework(shape: f64, mean_s: f64, seed: u64, tau: f64, write_s: f64) -> f64 {
        let scale = weibull_scale(mean_s, shape);
        let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ REWORK_STREAM));
        let inv_shape = 1.0 / shape;
        let draws: Vec<f64> = (0..REWORK_SAMPLES)
            .map(|_| {
                let u: f64 = rng.gen_range(0.0..1.0);
                scale * (-(1.0 - u).ln()).powf(inv_shape)
            })
            .collect();
        if tau.is_nan() || tau <= 0.0 {
            return 0.0;
        }
        let period = tau + write_s;
        let total: f64 = draws.iter().map(|u| (u % period).min(tau)).sum();
        total / draws.len() as f64
    }

    #[test]
    fn rework_table_matches_the_per_call_draws_bit_for_bit() {
        for shape in [0.5, 0.7, 1.5, 3.0] {
            for seed in [0, 7] {
                let spec = CheckpointSpec::with_mtbf(1e4)
                    .with_process(FailureProcess::Weibull { shape })
                    .with_seed(seed);
                let table = ReworkTable::new(&spec);
                let mut keys = 0;
                for mean in [37.5, 156.25, 1e4, 3.3e6] {
                    for tau in [-1.0, 0.0, f64::NAN, 1e-3, 12.0, 600.0, 1e5] {
                        for write_s in [0.0, 0.25, 45.0] {
                            let want = reference_rework(shape, mean, seed, tau, write_s);
                            // The miss computes, the hit replays the memo.
                            for _ in 0..2 {
                                let got = table.expected(mean, tau, write_s);
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "k={shape} seed={seed} M={mean} τ={tau} δ={write_s}"
                                );
                            }
                            keys += 1;
                        }
                    }
                }
                assert_eq!(table.keys(), keys, "one key per distinct (M, τ, δ)");
            }
        }
    }

    #[test]
    fn closed_form_rework_tables_hold_no_draws() {
        for process in [
            FailureProcess::Exponential,
            FailureProcess::Weibull { shape: 1.0 },
        ] {
            let table = ReworkTable::new(&CheckpointSpec::with_mtbf(1e4).with_process(process));
            assert!(table.unit_draws.is_empty());
            assert_eq!(table.expected(300.0, 12.0, 0.5).to_bits(), 6.0f64.to_bits());
            assert_eq!(table.keys(), 0, "τ/2 is never tabled");
        }
        let inactive = CheckpointSpec::none().with_process(FailureProcess::Weibull { shape: 0.7 });
        assert!(ReworkTable::new(&inactive).unit_draws.is_empty());
    }

    #[test]
    fn spec_serialization_omits_stack_defaults_and_round_trips() {
        let base = CheckpointSpec::with_mtbf(5e7).with_restart(300.0);
        let v = base.to_value();
        for key in [
            "process",
            "tiers",
            "elastic",
            "rewarm_s",
            "repair_s",
            "delta_fraction",
            "overhead_util",
            "seed",
        ] {
            assert!(v.get(key).is_none(), "base spec must omit '{key}'");
        }
        let full = base
            .with_process(FailureProcess::Weibull { shape: 0.7 })
            .with_tier(CheckpointTier::peer())
            .with_tier(CheckpointTier::delta().with_interval(120.0))
            .with_elastic(true)
            .with_rewarm(45.0)
            .with_repair(1200.0)
            .with_delta_fraction(0.5)
            .with_overhead_util(0.3)
            .with_seed(9);
        let round = CheckpointSpec::from_value(&full.to_value()).unwrap();
        assert_eq!(round, full);
        let text = serde_json::to_string(&full.to_value()).unwrap();
        assert!(
            !text.contains("null") || full.interval_s.is_none(),
            "stack fields must never serialize as null: {text}"
        );
    }
}
