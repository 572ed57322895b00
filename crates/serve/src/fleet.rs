//! Multi-replica fleet serving with online request routing.
//!
//! The paper's workload analysis treats inference deployments as
//! *fleets*: under a fixed GPU budget the operative capacity question is
//! **TP-up vs. replicate-out** — shard one replica wider, or run more
//! independent replicas of a narrower one. A [`FleetInstance`] simulates
//! `replicas` identical [`crate::ServeInstance`] replicas fed by one
//! front-door router that assigns each arriving request to exactly one
//! replica, online:
//!
//! * stateless policies ([`RouterPolicy::RoundRobin`],
//!   [`RouterPolicy::Random`]) decide from the arrival sequence alone;
//! * state-aware policies ([`RouterPolicy::LeastOutstanding`],
//!   [`RouterPolicy::JoinShortestQueue`]) observe **live** per-replica
//!   queue depth and outstanding work *at the arrival instant* — every
//!   replica engine is stepped to the arrival time before the decision,
//!   which is exactly why the event loop is a resumable
//!   `ReplicaEngine` rather than a trace splitter.
//!
//! The result is a [`FleetReport`]: per-replica [`ServeReport`]s plus
//! fleet-level latency (per-replica populations merged exactly in the
//! small-trace regime, histogram-merged in the streaming regime),
//! throughput, and SLO goodput. Everything is single-threaded and seeded,
//! so fleet reports are byte-identical across runs and thread counts.

use crate::engine::ReplicaEngine;
use crate::faults::{EngineFaults, FaultSpec, FleetAvailability};
use crate::sim::TraceBounds;
use crate::stats::LatencyAccumulator;
use crate::{
    LatencyStats, PagingReport, Request, ServeConfig, ServeError, ServeInstance, ServeReport,
    SloReport, TraceSpec,
};
use optimus_hw::{ClusterSpec, Precision};
use optimus_model::ModelConfig;
use optimus_units::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How the fleet's front door assigns each arriving request to a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// Replica `i mod R` for the `i`-th routed request: perfectly
    /// balanced counts, blind to load.
    #[default]
    RoundRobin,
    /// Uniformly random replica from a seeded stream. Splitting a Poisson
    /// arrival process this way yields `R` independent Poisson processes
    /// at `rate / R` (thinning), so random routing is the stateless
    /// baseline fleet scaling is measured against.
    Random {
        /// Seed of the router's RNG (independent of the trace seed).
        seed: u64,
    },
    /// The replica with the fewest outstanding requests — waiting or
    /// decoding — at the arrival instant; ties break to the lowest
    /// replica index.
    LeastOutstanding,
    /// The replica with the shortest waiting queue (arrived but no
    /// compute yet) at the arrival instant; ties break to the lowest
    /// replica index. Ignores decode occupancy, so it reacts faster than
    /// [`RouterPolicy::LeastOutstanding`] but can pile onto a replica
    /// deep in decode work.
    JoinShortestQueue,
}

impl core::fmt::Display for RouterPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::RoundRobin => write!(f, "round-robin"),
            Self::Random { seed } => write!(f, "random(seed {seed})"),
            Self::LeastOutstanding => write!(f, "least-outstanding"),
            Self::JoinShortestQueue => write!(f, "shortest-queue"),
        }
    }
}

impl RouterPolicy {
    /// Whether the policy observes live replica state at each arrival
    /// (and therefore needs every engine stepped to the arrival time).
    #[must_use]
    pub fn is_state_aware(&self) -> bool {
        matches!(self, Self::LeastOutstanding | Self::JoinShortestQueue)
    }
}

/// Fleet configuration: how many replicas of which strategy, routed how.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of identical replicas (each `replica.tp` devices, so the
    /// fleet occupies `replicas × tp` GPUs).
    pub replicas: usize,
    /// The request-routing policy.
    pub router: RouterPolicy,
    /// The per-replica serving strategy.
    pub replica: ServeConfig,
    /// The injected fault environment. [`FaultSpec::none`] (the default)
    /// keeps the fleet path bit-identical to the fault-free simulation.
    pub faults: FaultSpec,
}

impl FleetConfig {
    /// A fleet of `replicas` TP-`tp` FP16 replicas behind a round-robin
    /// router, with the default interactive SLO.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` or `tp` is zero.
    #[must_use]
    pub fn new(replicas: usize, tp: usize) -> Self {
        assert!(replicas > 0, "a fleet needs at least one replica");
        Self {
            replicas,
            router: RouterPolicy::default(),
            replica: ServeConfig::new(tp),
            faults: FaultSpec::none(),
        }
    }

    /// Sets the routing policy.
    #[must_use]
    pub fn with_router(mut self, router: RouterPolicy) -> Self {
        self.router = router;
        self
    }

    /// Sets the per-replica serving strategy wholesale.
    #[must_use]
    pub fn with_replica(mut self, replica: ServeConfig) -> Self {
        self.replica = replica;
        self
    }

    /// Sets the fault environment.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }
}

/// The complete outcome of one fleet simulation: fleet-level aggregates
/// plus the per-replica [`ServeReport`]s they were derived from.
///
/// The trailing paged-KV field is *omitted* — not `null` — in the
/// reserved regime, keeping reserved-mode fleet JSON byte-identical to
/// reports emitted before paging existed; `faults` stays `null` when
/// absent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Model name.
    pub model: String,
    /// Cluster name.
    pub cluster: String,
    /// Tensor-parallel degree of each replica.
    pub tp: usize,
    /// Serving precision.
    pub precision: Precision,
    /// Number of replicas.
    pub replicas: usize,
    /// Devices the fleet occupies: `tp × replicas`.
    pub gpus: usize,
    /// The routing policy used.
    pub router: RouterPolicy,
    /// Requests in the trace.
    pub requests: usize,
    /// Requests that ran to completion (across all replicas).
    pub completed: usize,
    /// Requests rejected at the router (their lone KV reservation exceeds
    /// a replica's whole budget — no replica could ever admit them).
    pub rejected: usize,
    /// Trace ids of rejected requests.
    pub rejected_ids: Vec<usize>,
    /// Fleet makespan: the latest completion time across replicas.
    pub makespan: Time,
    /// Tokens generated across all completed requests.
    pub generated_tokens: usize,
    /// Sustained generation throughput: generated tokens / makespan.
    pub tokens_per_s: f64,
    /// Sustained request throughput: completed requests / makespan.
    pub requests_per_s: f64,
    /// Mean decode-batch size across all replicas' decode iterations.
    pub mean_decode_batch: f64,
    /// Time-to-first-token statistics over the merged fleet population.
    pub ttft: LatencyStats,
    /// Time-per-output-token statistics over the merged fleet population.
    pub tpot: LatencyStats,
    /// End-to-end latency statistics over the merged fleet population.
    pub e2e: LatencyStats,
    /// Worst per-replica peak KV utilization (`peak / budget`).
    pub kv_peak_utilization: f64,
    /// Goodput under the configured SLO, over the merged population.
    pub slo: SloReport,
    /// Requests assigned to each replica (`routed[i]` for replica `i`) —
    /// the router's balance at a glance. Requeues count every assignment,
    /// so under churn the sum is `requests − rejected + requeues`.
    pub routed: Vec<usize>,
    /// One full [`ServeReport`] per replica, in replica order.
    pub per_replica: Vec<ServeReport>,
    /// The injected fault environment, `None` for a fault-free run (a
    /// degenerate [`FaultSpec::none`] configuration also reports `None`).
    pub faults: Option<FaultSpec>,
    /// Availability and requeue metrics under churn — trivially perfect
    /// (`availability = 1`, nothing requeued) for a fault-free run.
    pub availability: FleetAvailability,
    /// Paged-KV accounting merged across replicas (peak occupancy is the
    /// worst replica's, counters are fleet sums). `None` in the reserved
    /// regime.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub paging: Option<PagingReport>,
}

impl core::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "fleet of {} × TP{} ({} GPUs, {} router): served {}/{} requests ({} rejected) in {}",
            self.replicas,
            self.tp,
            self.gpus,
            self.router,
            self.completed,
            self.requests,
            self.rejected,
            self.makespan,
        )?;
        writeln!(
            f,
            "  {:.1} tok/s, {:.2} req/s fleet-wide  |  routed {:?}",
            self.tokens_per_s, self.requests_per_s, self.routed
        )?;
        let line = |name: &str, s: &LatencyStats| {
            format!(
                "  {name:<6} p50 {:>10}  p90 {:>10}  p99 {:>10}  mean {:>10}  max {:>10}",
                s.p50.to_string(),
                s.p90.to_string(),
                s.p99.to_string(),
                s.mean.to_string(),
                s.max.to_string()
            )
        };
        writeln!(f, "{}", line("ttft", &self.ttft))?;
        writeln!(f, "{}", line("tpot", &self.tpot))?;
        writeln!(f, "{}", line("e2e", &self.e2e))?;
        write!(
            f,
            "  slo    ttft ≤ {}, tpot ≤ {}: {}/{} met ({:.1}%), goodput {:.1} tok/s",
            self.slo.spec.ttft,
            self.slo.spec.tpot,
            self.slo.met,
            self.completed,
            self.slo.attainment * 100.0,
            self.slo.goodput_tokens_per_s
        )?;
        if self.faults.is_some() {
            let a = &self.availability;
            write!(
                f,
                "\n  churn  {} crashes, downtime {} (availability {:.2}%), {} requeues of {} requests",
                a.crashes,
                a.downtime,
                a.availability * 100.0,
                a.requeues,
                a.requeued_requests,
            )?;
        }
        if let Some(paging) = &self.paging {
            write!(f, "\n  paged  {paging}")?;
        }
        Ok(())
    }
}

/// A validated fleet: one shared [`ServeInstance`] (replicas are
/// identical, so they share the prepared estimator and sealed decode
/// table) plus the routing configuration. Build once, simulate many
/// traces.
#[derive(Debug)]
pub struct FleetInstance<'a> {
    instance: ServeInstance<'a>,
    config: FleetConfig,
}

impl<'a> FleetInstance<'a> {
    /// Validates the per-replica strategy and prepares the shared pricing
    /// estimator.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when the replica strategy cannot serve at
    /// all (weights overflow the device, `tp` beyond a node), `replicas`
    /// is zero, or the fault spec requires link-mode degradation: this
    /// constructor prices over the caller's borrowed cluster as-is, so an
    /// active [`crate::DegradeMode::Link`] spec must instead enter
    /// through [`simulate_fleet_trace`] or [`crate::load_sweep`], which
    /// build the degraded cluster before preparing instances.
    pub fn new(
        cluster: &'a ClusterSpec,
        model: Arc<ModelConfig>,
        config: FleetConfig,
    ) -> Result<Self, ServeError> {
        if config.replicas == 0 {
            return Err(ServeError::InvalidConfig(
                "a fleet needs at least one replica".to_owned(),
            ));
        }
        if let Err(reason) = config.faults.validate() {
            return Err(ServeError::InvalidConfig(format!("fault spec: {reason}")));
        }
        if config.faults.link_degrade_active() {
            return Err(ServeError::InvalidConfig(
                "link-mode degradation re-prices the cluster's interconnect; \
                 run it through simulate_fleet/simulate_fleet_trace or load_sweep, \
                 which simulate over the degraded cluster"
                    .to_owned(),
            ));
        }
        let instance = ServeInstance::new(cluster, model, config.replica)?;
        Ok(Self { instance, config })
    }

    /// The shared per-replica instance.
    #[must_use]
    pub fn instance(&self) -> &ServeInstance<'a> {
        &self.instance
    }

    /// Simulates serving `trace` on this fleet.
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
    pub fn simulate(&self, trace: &[Request]) -> Result<FleetReport, ServeError> {
        run_fleet(
            &self.instance,
            self.config.replicas,
            self.config.router,
            &self.config.faults,
            trace,
        )
    }
}

/// The router's mutable decision state.
enum RouterState {
    RoundRobin { next: usize },
    Random { rng: StdRng },
    LeastOutstanding,
    JoinShortestQueue,
}

impl RouterState {
    fn new(policy: RouterPolicy) -> Self {
        match policy {
            RouterPolicy::RoundRobin => Self::RoundRobin { next: 0 },
            RouterPolicy::Random { seed } => Self::Random {
                rng: StdRng::seed_from_u64(seed),
            },
            RouterPolicy::LeastOutstanding => Self::LeastOutstanding,
            RouterPolicy::JoinShortestQueue => Self::JoinShortestQueue,
        }
    }

    /// Picks the replica for one arrival. `min_by_key` returns the first
    /// minimum, so state-aware ties break to the lowest replica index —
    /// deterministically.
    fn pick(&mut self, engines: &[ReplicaEngine<'_, '_>]) -> usize {
        match self {
            Self::RoundRobin { next } => {
                let choice = *next;
                *next = (*next + 1) % engines.len();
                choice
            }
            Self::Random { rng } => rng.gen_range(0..engines.len()),
            Self::LeastOutstanding => {
                engines
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.outstanding())
                    .expect("a fleet has at least one replica")
                    .0
            }
            Self::JoinShortestQueue => {
                engines
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.waiting())
                    .expect("a fleet has at least one replica")
                    .0
            }
        }
    }

    /// [`RouterState::pick`] restricted to the replicas `up` marks
    /// available — the churn path. The caller guarantees at least one up
    /// replica. Round-robin keeps its cursor discipline (first up replica
    /// at or after the cursor); random draws a uniform index among the up
    /// replicas (identical draws to [`RouterState::pick`] while all are
    /// up); state-aware ties still break to the lowest replica index.
    fn pick_up(&mut self, engines: &[ReplicaEngine<'_, '_>], up: &[bool]) -> usize {
        debug_assert!(up.iter().any(|&u| u), "route_at waits for a live replica");
        match self {
            Self::RoundRobin { next } => {
                let n = engines.len();
                let mut choice = *next % n;
                while !up[choice] {
                    choice = (choice + 1) % n;
                }
                *next = (choice + 1) % n;
                choice
            }
            Self::Random { rng } => {
                let alive = up.iter().filter(|&&u| u).count();
                let mut draw = rng.gen_range(0..alive);
                for (i, &u) in up.iter().enumerate() {
                    if u {
                        if draw == 0 {
                            return i;
                        }
                        draw -= 1;
                    }
                }
                unreachable!("draw < alive ⇒ an up replica matches")
            }
            Self::LeastOutstanding => {
                engines
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| up[*i])
                    .min_by_key(|(_, e)| e.outstanding())
                    .expect("at least one up replica")
                    .0
            }
            Self::JoinShortestQueue => {
                engines
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| up[*i])
                    .min_by_key(|(_, e)| e.waiting())
                    .expect("at least one up replica")
                    .0
            }
        }
    }
}

/// Routes one request at the router's monotone clock, skipping down
/// replicas. When the whole fleet is down the FIFO front door blocks —
/// `router_now` jumps to the earliest scheduled recovery — before the
/// request (and everything behind it) is assigned.
fn route_at(
    engines: &mut [ReplicaEngine<'_, '_>],
    state: &mut RouterState,
    router_now: &mut f64,
    up: &mut Vec<bool>,
    request: Request,
) {
    loop {
        up.clear();
        for engine in engines.iter_mut() {
            let live = engine.available(*router_now);
            up.push(live);
        }
        if up.iter().any(|&u| u) {
            break;
        }
        let wake = engines
            .iter_mut()
            .map(|e| e.next_up(*router_now))
            .fold(f64::INFINITY, f64::min);
        debug_assert!(wake > *router_now, "a down replica recovers strictly later");
        *router_now = wake;
    }
    let choice = state.pick_up(engines, up);
    engines[choice].push_at(request, *router_now);
}

/// Collects every request the replicas' crashes have drained and
/// re-routes each at the instant it was dropped — in deterministic
/// (drop time, then id) order — bumping the requeue counters.
fn reroute_drained(
    engines: &mut [ReplicaEngine<'_, '_>],
    state: &mut RouterState,
    router_now: &mut f64,
    up: &mut Vec<bool>,
    requeues: &mut usize,
    requeued_ids: &mut Vec<usize>,
) {
    let mut batch: Vec<(Request, f64)> = Vec::new();
    for engine in engines.iter_mut() {
        batch.extend(engine.take_requeued());
    }
    if batch.is_empty() {
        return;
    }
    batch.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.id.cmp(&b.0.id)));
    for (request, dropped_at) in batch {
        *router_now = router_now.max(dropped_at);
        *requeues += 1;
        requeued_ids.push(request.id);
        route_at(engines, state, router_now, up, request);
    }
}

/// The fleet event loop: route every request online, drain the replicas,
/// merge their populations. Shared by [`FleetInstance::simulate`] and the
/// load-sweep engine (which routes over instances it already prepared and
/// sealed).
///
/// Online-knowledge caveat: a replica's queue-depth sample is taken at
/// the end of each iteration from the requests routed to it *by then*. A
/// request that arrives while an iteration is running is routed when the
/// stepped engines next yield, so it shows up from the replica's next
/// sample on — at most one iteration later than an omniscient observer
/// would report. All latency, throughput, and peak/mean queue accounting
/// is unaffected.
pub(crate) fn run_fleet(
    instance: &ServeInstance<'_>,
    replicas: usize,
    router: RouterPolicy,
    faults: &FaultSpec,
    trace: &[Request],
) -> Result<FleetReport, ServeError> {
    ServeInstance::validate_trace(trace);
    if let Err(reason) = faults.validate() {
        return Err(ServeError::InvalidConfig(format!("fault spec: {reason}")));
    }
    // A degenerate spec takes the exact fault-free code path below, so
    // `FaultSpec::none()` (whatever its seed) stays bit-identical to a
    // run without fault wiring at all.
    let faulty = !faults.is_none();
    // Global trace bounds dominate every replica's share, so one scan
    // sizes all engines and (in the streaming regime) one shared sealed
    // table prices all of them.
    let bounds = TraceBounds::scan(instance, trace);
    let table = instance.pricing_table(trace.len(), &bounds)?;
    // Regime and record decisions run on the *whole* trace length, never
    // a replica's share: every replica must pick the same accumulator
    // regime for the fleet merge to be loss-free, and `Auto` thresholds
    // would otherwise depend on the router's balance.
    let records_on = instance.records_on(trace.len());
    let mut engines: Vec<ReplicaEngine<'_, '_>> = (0..replicas)
        .map(|i| {
            let wiring = faulty.then(|| EngineFaults::for_replica(faults, i));
            ReplicaEngine::new(instance, table, &bounds, trace.len(), records_on, wiring)
        })
        .collect();

    let mut state = RouterState::new(router);
    let mut rejected_ids = Vec::new();
    let mut requeues = 0usize;
    let mut requeued_ids: Vec<usize> = Vec::new();
    // The router's own clock: monotone across requeues and all-down
    // stalls, so the availability cursors never run backwards.
    let mut router_now = 0.0_f64;
    let mut up: Vec<bool> = Vec::with_capacity(replicas);
    for r in trace {
        // No replica could ever admit this request (replicas are
        // identical), so the front door rejects it outright instead of
        // letting it occupy a queue. Admissibility is regime-aware: a
        // whole-lifetime reservation against the budget in reserved mode,
        // a worst-case block count against the pool in paged mode.
        if !instance.admissible(r) {
            rejected_ids.push(r.id);
            continue;
        }
        if faulty {
            // Step every replica to the arrival instant: crashes drain at
            // iteration boundaries, so work lost before this arrival is
            // requeued ahead of it, and state-aware policies observe live
            // queue state exactly as on the fault-free path.
            for engine in &mut engines {
                engine.advance_to(r.arrival_s)?;
            }
            router_now = router_now.max(r.arrival_s);
            reroute_drained(
                &mut engines,
                &mut state,
                &mut router_now,
                &mut up,
                &mut requeues,
                &mut requeued_ids,
            );
            route_at(&mut engines, &mut state, &mut router_now, &mut up, *r);
        } else {
            // A single replica needs no observation — every choice is 0 —
            // so skip the stepping and let the lone engine run in batch
            // mode (which also keeps a 1-replica fleet bit-identical to
            // the single-instance path for every policy).
            if replicas > 1 && router.is_state_aware() {
                // Step every replica to the arrival instant so the router
                // observes live queue depth / outstanding work, not stale
                // snapshots.
                for engine in &mut engines {
                    engine.advance_to(r.arrival_s)?;
                }
            }
            let choice = state.pick(&engines);
            engines[choice].push(*r);
        }
    }
    // Drain. Crashes during the tail can still requeue work after the
    // last arrival, so finishing and re-routing alternate until the fleet
    // runs dry (each round re-serves strictly the work the previous round
    // dropped, so this converges).
    let mut drain_rounds = 0usize;
    loop {
        for engine in &mut engines {
            engine.finish()?;
        }
        if !faulty {
            break;
        }
        let before = requeues;
        reroute_drained(
            &mut engines,
            &mut state,
            &mut router_now,
            &mut up,
            &mut requeues,
            &mut requeued_ids,
        );
        if requeues == before {
            break;
        }
        drain_rounds += 1;
        assert!(
            drain_rounds < 100_000,
            "requeue drain failed to converge after {drain_rounds} rounds"
        );
    }

    // --- aggregate -------------------------------------------------------
    let parts: Vec<(usize, crate::engine::ReportInputs)> =
        engines.into_iter().map(ReplicaEngine::into_parts).collect();
    let mut ttft = LatencyAccumulator::for_population(trace.len());
    let mut tpot = LatencyAccumulator::for_population(trace.len());
    let mut e2e = LatencyAccumulator::for_population(trace.len());
    let mut completed = 0;
    let mut generated_tokens = 0;
    let mut met = 0;
    let mut met_tokens = 0;
    let mut decode_iterations = 0;
    let mut decode_batch_sum = 0;
    let mut makespan_s = 0.0_f64;
    let mut paging: Option<PagingReport> = None;
    for (_, inputs) in &parts {
        if let Some(p) = &inputs.paging {
            paging = Some(match paging {
                Some(acc) => acc.merged(p),
                None => *p,
            });
        }
        ttft.merge(&inputs.sink.ttft);
        tpot.merge(&inputs.sink.tpot);
        e2e.merge(&inputs.sink.e2e);
        completed += inputs.sink.completed;
        generated_tokens += inputs.sink.generated_tokens;
        met += inputs.sink.met;
        met_tokens += inputs.sink.met_tokens;
        decode_iterations += inputs.decode_iterations;
        decode_batch_sum += inputs.decode_batch_sum;
        makespan_s = makespan_s.max(inputs.makespan_s);
        debug_assert!(
            inputs.rejected_ids.is_empty(),
            "the router pre-rejects unservable requests"
        );
    }
    let per_s = |count: f64| {
        if makespan_s > 0.0 {
            count / makespan_s
        } else {
            0.0
        }
    };
    let routed: Vec<usize> = parts.iter().map(|(routed, _)| *routed).collect();
    let per_replica: Vec<ServeReport> = parts
        .into_iter()
        .map(|(routed, inputs)| instance.assemble_report(routed, inputs))
        .collect();
    let config = instance.config();

    // Availability is schedule-based: outage windows are a pure function
    // of the spec, clipped to the fleet makespan, whether or not work was
    // lost in them.
    let mut crash_total = 0usize;
    let mut downtime_total = 0.0_f64;
    let mut per_replica_downtime = Vec::with_capacity(replicas);
    for i in 0..replicas {
        let (crashes, downtime) = if faulty {
            faults.outage_stats(i, makespan_s)
        } else {
            (0, 0.0)
        };
        crash_total += crashes;
        downtime_total += downtime;
        per_replica_downtime.push(Time::from_secs(downtime));
    }
    // Domain downtime is also reported un-fanned-out: the shared process
    // alone, clipped to the makespan. (Its fan-out to members is already
    // inside the per-replica merged downtime above.)
    let per_domain_downtime: Vec<Time> = if faulty {
        (0..faults.domains.len())
            .map(|d| Time::from_secs(faults.domain_outage_stats(d, makespan_s).1))
            .collect()
    } else {
        Vec::new()
    };
    let availability_frac = if makespan_s > 0.0 {
        1.0 - downtime_total / (replicas as f64 * makespan_s)
    } else {
        1.0
    };
    requeued_ids.sort_unstable();
    let mut distinct_requeued = requeued_ids;
    distinct_requeued.dedup();
    let goodput_tokens_per_s = per_s(met_tokens as f64);
    let up_replicas = replicas as f64 * availability_frac;
    let availability = FleetAvailability {
        crashes: crash_total,
        downtime: Time::from_secs(downtime_total),
        availability: availability_frac,
        requeues,
        requeued_requests: distinct_requeued.len(),
        requeued_ids: distinct_requeued,
        per_replica_downtime,
        per_domain_downtime,
        goodput_tokens_per_up_replica_s: if up_replicas > 0.0 {
            goodput_tokens_per_s / up_replicas
        } else {
            0.0
        },
    };
    Ok(FleetReport {
        model: per_replica[0].model.clone(),
        cluster: per_replica[0].cluster.clone(),
        tp: config.tp,
        precision: config.precision,
        replicas,
        gpus: config.tp * replicas,
        router,
        requests: trace.len(),
        completed,
        rejected: rejected_ids.len(),
        rejected_ids,
        makespan: Time::from_secs(makespan_s),
        generated_tokens,
        tokens_per_s: per_s(generated_tokens as f64),
        requests_per_s: per_s(completed as f64),
        mean_decode_batch: if decode_iterations > 0 {
            decode_batch_sum as f64 / decode_iterations as f64
        } else {
            0.0
        },
        ttft: ttft.finish(),
        tpot: tpot.finish(),
        e2e: e2e.finish(),
        kv_peak_utilization: per_replica
            .iter()
            .map(|r| r.kv.peak_utilization)
            .fold(0.0, f64::max),
        slo: SloReport {
            spec: config.slo,
            met,
            attainment: if completed > 0 {
                met as f64 / completed as f64
            } else {
                1.0
            },
            goodput_tokens_per_s,
            goodput_requests_per_s: per_s(met as f64),
        },
        routed,
        per_replica,
        faults: faulty.then(|| faults.clone().json_safe()),
        availability,
        paging,
    })
}

/// Generates the trace from `spec` and simulates serving it on a fleet of
/// `config.replicas` identical replicas of `model` over `cluster`.
///
/// # Errors
///
/// Returns [`ServeError`] when the replica strategy cannot serve at all
/// (see [`FleetInstance::new`]).
pub fn simulate_fleet(
    cluster: &ClusterSpec,
    model: Arc<ModelConfig>,
    config: &FleetConfig,
    spec: &TraceSpec,
) -> Result<FleetReport, ServeError> {
    simulate_fleet_trace(cluster, model, config, &spec.generate())
}

/// Like [`simulate_fleet`], over an explicit arrival-ordered request
/// list.
///
/// Unlike [`FleetInstance::new`], this entry point accepts an active
/// [`crate::DegradeMode::Link`] fault spec: it builds the
/// bandwidth-degraded copy of `cluster` (see
/// [`FaultSpec::degraded_cluster`]) and prices every iteration over it,
/// so the degradation flows through the collective cost model. The
/// report still carries the original spec in its `faults` field.
///
/// # Errors
///
/// Returns [`ServeError`] for configurations that cannot serve (weights
/// overflow the device, `tp` beyond a node, zero replicas, an invalid
/// fault spec).
///
/// # Panics
///
/// Panics if `trace` is not sorted by arrival time or contains a
/// zero-length prompt or output.
pub fn simulate_fleet_trace(
    cluster: &ClusterSpec,
    model: Arc<ModelConfig>,
    config: &FleetConfig,
    trace: &[Request],
) -> Result<FleetReport, ServeError> {
    if let Err(reason) = config.faults.validate() {
        return Err(ServeError::InvalidConfig(format!("fault spec: {reason}")));
    }
    let degraded = config.faults.degraded_cluster(cluster);
    let priced = degraded.as_ref().unwrap_or(cluster);
    if config.replicas == 0 {
        return Err(ServeError::InvalidConfig(
            "a fleet needs at least one replica".to_owned(),
        ));
    }
    let instance = ServeInstance::new(priced, model, config.replica)?;
    run_fleet(
        &instance,
        config.replicas,
        config.router,
        &config.faults,
        trace,
    )
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
            output: LengthDist::Uniform { lo: 2, hi: 24 },
            prefixes: None,
            priority_classes: 1,
        }
    }

    fn policies() -> [RouterPolicy; 4] {
        [
            RouterPolicy::RoundRobin,
            RouterPolicy::Random { seed: 99 },
            RouterPolicy::LeastOutstanding,
            RouterPolicy::JoinShortestQueue,
        ]
    }

    #[test]
    fn every_policy_conserves_requests_and_tokens() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let trace = spec(17, 96, 24.0);
        let requested: usize = trace.generate().iter().map(|r| r.output).sum();
        for policy in policies() {
            let config = FleetConfig::new(3, 1).with_router(policy);
            let report = simulate_fleet(&cluster, Arc::clone(&model), &config, &trace).unwrap();
            assert_eq!(
                report.completed + report.rejected,
                report.requests,
                "{policy}"
            );
            assert_eq!(report.rejected, 0, "{policy}");
            assert_eq!(report.generated_tokens, requested, "{policy}");
            assert_eq!(
                report.routed.iter().sum::<usize>(),
                report.requests,
                "{policy}"
            );
            assert_eq!(report.per_replica.len(), 3, "{policy}");
            let replica_completed: usize = report.per_replica.iter().map(|r| r.completed).sum();
            assert_eq!(replica_completed, report.completed, "{policy}");
            assert_eq!(report.gpus, 3, "{policy}");
        }
    }

    #[test]
    fn round_robin_balances_counts_exactly() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let report = simulate_fleet(
            &cluster,
            Arc::new(models::llama2_7b()),
            &FleetConfig::new(4, 1),
            &spec(5, 103, 16.0),
        )
        .unwrap();
        let (min, max) = (
            report.routed.iter().min().unwrap(),
            report.routed.iter().max().unwrap(),
        );
        assert!(max - min <= 1, "round-robin routed {:?}", report.routed);
    }

    /// A single-replica fleet is exactly the single-instance simulation
    /// for every policy: the per-replica report must equal
    /// `ServeInstance::simulate`'s output field for field — the
    /// refactor's ground truth, and what lets the load-sweep run all its
    /// cells through `run_fleet`.
    #[test]
    fn one_replica_fleet_equals_single_instance() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_13b());
        let trace = spec(11, 64, 8.0).generate();
        let single =
            crate::simulate_trace(&cluster, Arc::clone(&model), &ServeConfig::new(2), &trace)
                .unwrap();
        for policy in policies() {
            let fleet = simulate_fleet_trace(
                &cluster,
                Arc::clone(&model),
                &FleetConfig {
                    replicas: 1,
                    router: policy,
                    replica: ServeConfig::new(2),
                    faults: FaultSpec::none(),
                },
                &trace,
            )
            .unwrap();
            assert_eq!(fleet.per_replica[0], single, "{policy}");
            assert_eq!(fleet.ttft, single.ttft, "{policy}");
            assert_eq!(fleet.e2e, single.e2e, "{policy}");
            assert_eq!(fleet.makespan, single.makespan, "{policy}");
        }
    }

    /// State-aware routing must never leave one replica idle while
    /// another queues: under sustained load, least-outstanding spreads
    /// requests across all replicas.
    #[test]
    fn state_aware_routing_uses_every_replica() {
        let cluster = presets::dgx_a100_hdr_cluster();
        for policy in [
            RouterPolicy::LeastOutstanding,
            RouterPolicy::JoinShortestQueue,
        ] {
            let report = simulate_fleet(
                &cluster,
                Arc::new(models::llama2_7b()),
                &FleetConfig::new(4, 1).with_router(policy),
                &spec(23, 200, 200.0),
            )
            .unwrap();
            assert!(
                report.routed.iter().all(|&n| n > 0),
                "{policy} starved a replica: {:?}",
                report.routed
            );
        }
    }

    /// Unservable requests are rejected at the router, and every other
    /// request still completes.
    #[test]
    fn oversized_request_is_rejected_at_the_router() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let trace = [
            Request::new(0, 0.1, 500_000, 4),
            Request::new(1, 0.2, 100, 4),
            Request::new(2, 0.3, 120, 4),
        ];
        let report = simulate_fleet_trace(
            &cluster,
            Arc::new(models::llama2_13b()),
            &FleetConfig::new(2, 1).with_router(RouterPolicy::LeastOutstanding),
            &trace,
        )
        .unwrap();
        assert_eq!(report.rejected_ids, vec![0]);
        assert_eq!(report.completed, 2);
        assert!(report.per_replica.iter().all(|r| r.rejected == 0));
    }

    #[test]
    fn zero_replicas_is_a_clean_error() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let err = FleetInstance::new(
            &cluster,
            Arc::new(models::llama2_7b()),
            FleetConfig {
                replicas: 0,
                router: RouterPolicy::RoundRobin,
                replica: ServeConfig::new(1),
                faults: FaultSpec::none(),
            },
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn empty_trace_yields_an_empty_fleet_report() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let report = simulate_fleet_trace(
            &cluster,
            Arc::new(models::llama2_7b()),
            &FleetConfig::new(2, 1),
            &[],
        )
        .unwrap();
        assert_eq!(report.completed, 0);
        assert_eq!(report.makespan, Time::ZERO);
        assert_eq!(report.slo.attainment, 1.0);
        assert_eq!(report.routed, vec![0, 0]);
    }

    /// More replicas at the same offered load strictly help the TTFT
    /// tail once a single replica saturates.
    #[test]
    fn replication_relieves_a_saturated_replica() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_13b());
        let trace = spec(7, 128, 50.0);
        let one = simulate_fleet(
            &cluster,
            Arc::clone(&model),
            &FleetConfig::new(1, 1),
            &trace,
        )
        .unwrap();
        let four = simulate_fleet(
            &cluster,
            Arc::clone(&model),
            &FleetConfig::new(4, 1).with_router(RouterPolicy::LeastOutstanding),
            &trace,
        )
        .unwrap();
        assert!(
            four.ttft.p99 < one.ttft.p99,
            "4 replicas p99 {} vs 1 replica p99 {}",
            four.ttft.p99,
            one.ttft.p99
        );
        assert!(four.slo.attainment >= one.slo.attainment);
    }

    /// Crash injection still conserves requests — everything completes
    /// after requeues — and the report carries the matching availability
    /// metrics.
    #[test]
    fn crashes_requeue_and_conserve() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let faults = FaultSpec::crashes(5, 8.0, 2.0);
        let config = FleetConfig::new(3, 1)
            .with_router(RouterPolicy::LeastOutstanding)
            .with_faults(faults.clone());
        let report =
            simulate_fleet(&cluster, Arc::clone(&model), &config, &spec(29, 400, 40.0)).unwrap();
        assert_eq!(report.completed + report.rejected, report.requests);
        assert_eq!(report.faults, Some(faults));
        let a = &report.availability;
        assert!(a.crashes > 0, "8 s MTBF over a long trace must crash");
        assert!(a.downtime > Time::ZERO);
        assert!(a.availability < 1.0 && a.availability > 0.0);
        assert!(a.requeues >= a.requeued_requests);
        assert_eq!(a.requeued_ids.len(), a.requeued_requests);
        assert!(a.requeued_ids.windows(2).all(|w| w[0] < w[1]));
        // Every assignment is accounted: originals plus requeue events.
        assert_eq!(
            report.routed.iter().sum::<usize>(),
            report.requests - report.rejected + a.requeues
        );
        // Schedule-based downtime matches the per-replica decomposition.
        let sum: f64 = a.per_replica_downtime.iter().map(|t| t.secs()).sum();
        assert!((sum - a.downtime.secs()).abs() < 1e-9);
        assert!(report.to_string().contains("churn"));
    }

    /// A straggler-only spec slows the straggling replica without losing
    /// any request.
    #[test]
    fn stragglers_slow_but_conserve() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let trace = spec(31, 200, 30.0);
        let clean = simulate_fleet(
            &cluster,
            Arc::clone(&model),
            &FleetConfig::new(2, 1),
            &trace,
        )
        .unwrap();
        let slowed = simulate_fleet(
            &cluster,
            Arc::clone(&model),
            &FleetConfig::new(2, 1).with_faults(FaultSpec::none().with_degradation(3.0)),
            &trace,
        )
        .unwrap();
        assert_eq!(slowed.completed, clean.completed);
        assert_eq!(slowed.availability.requeues, 0);
        assert_eq!(slowed.availability.availability, 1.0);
        assert_json_has_no_nulls(&slowed);
        assert!(
            slowed.e2e.mean > clean.e2e.mean,
            "3× degradation must slow e2e: {} vs {}",
            slowed.e2e.mean,
            clean.e2e.mean
        );
    }

    #[test]
    fn invalid_fault_spec_is_a_clean_error() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let err = FleetInstance::new(
            &cluster,
            Arc::new(models::llama2_7b()),
            FleetConfig::new(2, 1).with_faults(FaultSpec::crashes(0, 10.0, -1.0)),
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
    }

    /// Every availability and throughput figure must be finite and JSON
    /// must carry no `null`ed-out numbers (the vendored serializer writes
    /// non-finite floats as `null`), whatever degenerate shape the run
    /// takes: nothing served, everything rejected, or replicas down for
    /// essentially the whole run.
    fn assert_json_has_no_nulls(report: &FleetReport) {
        let a = &report.availability;
        assert!(a.availability.is_finite() && (0.0..=1.0).contains(&a.availability));
        assert!(a.goodput_tokens_per_up_replica_s.is_finite());
        assert!(report.tokens_per_s.is_finite());
        assert!(report.requests_per_s.is_finite());
        assert!(report.mean_decode_batch.is_finite());
        assert!(report.kv_peak_utilization.is_finite());
        assert!(report.slo.attainment.is_finite());
        assert!(report.slo.goodput_tokens_per_s.is_finite());
        let json = serde_json::to_string(report).unwrap();
        assert!(
            !json.contains("null"),
            "a non-finite number leaked into the fleet JSON: {json}"
        );
    }

    /// Regression (availability audit): an empty trace under an active
    /// fault spec has `makespan == 0`, which used to be the divide-by-zero
    /// hazard for the availability fraction and per-up-replica goodput.
    #[test]
    fn empty_trace_under_faults_keeps_availability_finite() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let report = simulate_fleet_trace(
            &cluster,
            Arc::new(models::llama2_7b()),
            &FleetConfig::new(3, 1).with_faults(FaultSpec::crashes(5, 2.0, 1.0)),
            &[],
        )
        .unwrap();
        assert_eq!(report.completed, 0);
        assert_eq!(report.makespan, Time::ZERO);
        assert_eq!(report.availability.availability, 1.0);
        assert_eq!(report.availability.crashes, 0, "outages clip to makespan");
        assert_json_has_no_nulls(&report);
    }

    /// Regression (availability audit): a trace whose every request is
    /// rejected at the front door also never starts the clock — the
    /// availability math and throughput denominators must stay clean.
    #[test]
    fn all_rejected_trace_under_faults_keeps_availability_finite() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let trace = [
            Request::new(0, 0.1, 500_000, 4),
            Request::new(1, 0.2, 600_000, 4),
        ];
        let report = simulate_fleet_trace(
            &cluster,
            Arc::new(models::llama2_13b()),
            &FleetConfig::new(2, 1).with_faults(FaultSpec::crashes(5, 2.0, 1.0)),
            &trace,
        )
        .unwrap();
        assert_eq!(report.rejected, 2);
        assert_eq!(report.completed, 0);
        assert_eq!(report.makespan, Time::ZERO);
        assert_eq!(report.availability.availability, 1.0);
        assert_eq!(report.slo.attainment, 1.0);
        assert_json_has_no_nulls(&report);
    }

    /// Replicas down for essentially the entire run: the fraction must
    /// stay inside [0, 1] (downtime is clipped per replica to the
    /// makespan), requests still complete once repairs land, and the JSON
    /// stays null-free.
    #[test]
    fn mostly_down_fleet_keeps_availability_in_unit_range() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let report = simulate_fleet(
            &cluster,
            Arc::new(models::llama2_7b()),
            &FleetConfig::new(2, 1).with_faults(FaultSpec::crashes(9, 0.5, 50.0)),
            &spec(41, 30, 10.0),
        )
        .unwrap();
        assert_eq!(report.completed + report.rejected, report.requests);
        assert!(report.availability.availability < 1.0);
        assert!(report.availability.downtime > Time::ZERO);
        assert_json_has_no_nulls(&report);
    }

    /// Pins the fleet half of the online-knowledge caveat documented on
    /// [`run_fleet`]: a request that arrives while a replica's iteration
    /// is running is (a) routed with *live* queue knowledge — the
    /// state-aware router sends it to the idle replica, not the busy one —
    /// and (b) visible in the busy replica's samples at most one
    /// iteration late: the sample closing the in-flight iteration was
    /// recorded before the router pushed the request (an omniscient
    /// observer would count it waiting there), and the very next sample
    /// shows it in compute.
    #[test]
    fn router_sees_mid_iteration_arrivals_and_samples_lag_one_iteration() {
        let cluster = presets::dgx_a100_hdr_cluster();
        // Request 0 opens a 4000-token prefill on replica 0 (≫ 2 ms);
        // requests 1 and 2 arrive 1–2 ms into it.
        let trace = [
            Request::new(0, 0.1, 4000, 4),
            Request::new(1, 0.101, 100, 4),
            Request::new(2, 0.102, 100, 4),
        ];
        let report = simulate_fleet_trace(
            &cluster,
            Arc::new(models::llama2_13b()),
            &FleetConfig::new(2, 1).with_router(RouterPolicy::LeastOutstanding),
            &trace,
        )
        .unwrap();
        // Live knowledge: replica 0 is mid-prefill when request 1 lands,
        // so least-outstanding diverts it to replica 1; request 2 ties
        // 1–1 and breaks to replica 0. Stale (route-time-zero) knowledge
        // would have sent all three to replica 0.
        assert_eq!(report.routed, vec![2, 1]);
        assert_eq!(report.completed, 3);
        // Sample lag = exactly 1 iteration here: replica 0's opening
        // prefill outlasts request 2's arrival, but the engine ran (and
        // sampled) that iteration while advancing to request 1's arrival
        // — before the router pushed request 2 — so the closing sample
        // shows an empty queue where an omniscient observer would count
        // one waiter. The very next iteration is request 2's prefill, so
        // the next sample already shows it decoding: the lag never
        // exceeds one iteration.
        let samples = &report.per_replica[0].queue.samples;
        assert!(
            samples[0].at.secs() > 0.102,
            "the opening prefill must outlast the mid-iteration arrival ({})",
            samples[0].at
        );
        assert_eq!(
            (samples[0].waiting, samples[0].decoding),
            (0, 1),
            "the closing sample predates the mid-iteration push — the one-iteration lag"
        );
        assert_eq!(
            samples[1].decoding, 2,
            "the pushed request must be in compute by the next sample"
        );
    }

    /// A paged fleet with a shared-prefix trace merges per-replica paging
    /// into one fleet section: counters are sums, peak occupancy is the
    /// worst replica's, and conservation still holds under preemption.
    #[test]
    fn paged_fleet_merges_paging_and_conserves() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let mut trace_spec = spec(53, 120, 40.0);
        trace_spec.prefixes = Some(crate::PrefixSpec {
            pool: 3,
            tokens: 32,
            rate: 0.6,
        });
        let config = FleetConfig::new(3, 1)
            .with_router(RouterPolicy::LeastOutstanding)
            .with_replica(ServeConfig::new(1).with_kv(crate::KvSpec::paged(16)));
        let report = simulate_fleet(&cluster, Arc::clone(&model), &config, &trace_spec).unwrap();
        assert_eq!(report.completed + report.rejected, report.requests);
        let fleet_paging = report.paging.expect("paged fleets report paging");
        let per: Vec<_> = report
            .per_replica
            .iter()
            .map(|r| r.paging.expect("paged replicas report paging"))
            .collect();
        assert_eq!(
            fleet_paging.prefix_hits + fleet_paging.prefix_misses,
            per.iter().map(|p| p.prefix_hits + p.prefix_misses).sum()
        );
        assert_eq!(
            fleet_paging.peak_blocks,
            per.iter().map(|p| p.peak_blocks).max().unwrap()
        );
        assert!(fleet_paging.prefix_hits > 0, "a 60% hit rate must hit");
        assert!(fleet_paging.peak_blocks <= fleet_paging.total_blocks);
        // The reserved fleet on the identical trace reports no paging.
        let reserved = simulate_fleet(
            &cluster,
            Arc::clone(&model),
            &FleetConfig::new(3, 1).with_router(RouterPolicy::LeastOutstanding),
            &trace_spec,
        )
        .unwrap();
        assert!(reserved.paging.is_none());
        assert!(reserved.per_replica.iter().all(|r| r.paging.is_none()));
        assert!(!serde_json::to_string(&reserved).unwrap().contains("paging"));
    }
}
