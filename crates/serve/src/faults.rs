//! Seeded fault injection for fleet serving: MTBF/MTTR crash processes,
//! shared failure domains, straggler slow nodes, and fleet-wide
//! throughput degradation.
//!
//! A [`FaultSpec`] describes the failure environment of a replica fleet.
//! Per replica it derives — purely from `(seed, replica index)` — an
//! alternating-renewal **outage schedule** (up for `Exp(1/mtbf)` seconds,
//! down for `Exp(1/mttr)` seconds, forever) and a constant iteration-time
//! **slowdown multiplier** (stragglers drawn once per replica, on top of
//! a fleet-wide degradation factor). On top of the per-replica processes,
//! [`FaultDomain`]s group replicas under **shared** outage processes —
//! a rack losing power, a leaf switch rebooting — derived from
//! `(seed, domain index)`, so every member replica goes down *together*.
//! A replica's effective schedule is the **union** of its own windows and
//! the windows of every domain containing it, merged lazily and coalesced
//! ([`OutageStream`]). Because every schedule is a pure function of the
//! spec, the router, the engines, and the availability metrics can each
//! regenerate the same timeline independently, and the whole simulation
//! stays byte-identical across runs and thread counts.
//!
//! Crash semantics (the requeue-on-failure contract the chaos suite
//! pins):
//!
//! * A crash takes effect at the first **iteration boundary** at or after
//!   its scheduled instant (an iteration is indivisible; an outage that
//!   begins and ends inside one iteration is ridden through). Every
//!   request on the replica — queued, admitted, or mid-decode — is
//!   drained back to the router with its **original arrival time**;
//!   partial decode progress is discarded.
//! * While a replica is inside a scheduled outage window the router skips
//!   it; if every replica is down — which a wide domain outage can cause
//!   all at once — the FIFO front door blocks until the earliest
//!   recovery.
//! * Downtime accounting is schedule-based: a replica's downtime is the
//!   sum of its merged outage windows clipped to the fleet makespan,
//!   whether or not work was lost.
//!
//! Degradation has two pricing modes ([`DegradeMode`]):
//!
//! * [`DegradeMode::Flat`] (default) multiplies every iteration duration
//!   by `degrade_mult` — a uniform slowdown, agnostic to its cause. This
//!   is the documented fallback when the degradation does not decompose
//!   onto the interconnect.
//! * [`DegradeMode::Link`] instead divides the cluster's intra- and
//!   inter-node link bandwidths by `degrade_mult` and re-prices every
//!   iteration over the degraded cluster, so the slowdown flows through
//!   the α–β collective model: TP collectives and KV traffic pay it,
//!   compute does not. A TP-1 replica (no collectives) barely notices a
//!   link-mode degradation that would cost a flat-mode fleet dearly.
//!
//! The degenerate [`FaultSpec::none`] (infinite MTBF, no domains, no
//! stragglers, no degradation) is guaranteed — and pinned by
//! `chaos_props.rs` — to leave the fleet path bit-identical to a
//! fault-free simulation.

use optimus_hw::reliability::{is_default, weibull_scale};
use optimus_hw::{ClusterSpec, FailureProcess};
use rand::distributions::{Distribution, Exp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Distinguishes the per-replica random streams drawn from one fault
/// seed.
const CRASH_STREAM: u64 = 0x9E6D_5C3B_2A19_0807;
const STRAGGLER_STREAM: u64 = 0x51ED_270B_484D_B6C1;
/// The per-domain stream: domain schedules are keyed on
/// `(seed, domain index)`, never on a replica index, so every member of a
/// domain observes the identical shared timeline.
const DOMAIN_STREAM: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// A group of replicas that fail **together**: one shared
/// alternating-renewal outage process (mean uptime `mtbf_s`, mean repair
/// `mttr_s`) takes every member replica down for the same windows — the
/// model of a rack, a power feed, or a leaf switch.
///
/// Members are explicit replica indices, so one spec serves fleets of any
/// size: an index at or beyond a fleet's replica count simply does not
/// apply there (the load-sweep reuses one spec across cells with
/// different replica counts). Domains may overlap; a replica's schedule
/// is the union of everything that covers it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultDomain {
    /// The member replica indices (distinct; any order).
    pub replicas: Vec<usize>,
    /// Mean seconds of domain uptime between outages (exponential).
    /// `0` or `+∞` disables the domain.
    pub mtbf_s: f64,
    /// Mean seconds to repair one domain outage (exponential). Must be
    /// positive and finite when the domain is active.
    pub mttr_s: f64,
}

impl FaultDomain {
    /// A domain over `replicas` with the given outage process.
    #[must_use]
    pub fn new(replicas: Vec<usize>, mtbf_s: f64, mttr_s: f64) -> Self {
        Self {
            replicas,
            mtbf_s,
            mttr_s,
        }
    }

    /// Whether the domain's outage process is enabled and covers anyone.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.mtbf_s.is_finite() && self.mtbf_s > 0.0 && !self.replicas.is_empty()
    }
}

/// How `degrade_mult` is priced into iteration durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DegradeMode {
    /// Every iteration runs `degrade_mult`× slower — a uniform slowdown
    /// applied after pricing. The fallback when the degradation does not
    /// decompose onto the interconnect.
    #[default]
    Flat,
    /// The cluster's link bandwidths are divided by `degrade_mult` and
    /// iterations are re-priced over the degraded cluster, so the
    /// slowdown flows through the collective cost model instead of
    /// scaling compute. See [`FaultSpec::degraded_cluster`].
    Link,
}

/// The seeded failure environment of a replica fleet.
///
/// The scalar axes are plain numbers; `domains` adds shared failure
/// groups. The spec is `Clone`, comparable, and serializable; the
/// degenerate [`FaultSpec::none`] encodes "no faults" (and the fleet path
/// treats it as exactly the fault-free simulation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Seed of every fault process. Independent of the trace and router
    /// seeds; per-replica streams are derived from `(seed, replica)` and
    /// per-domain streams from `(seed, domain index)`.
    pub seed: u64,
    /// Mean seconds of uptime between crashes, per replica (exponential).
    /// `0` or `+∞` disables the crash process entirely.
    pub mtbf_s: f64,
    /// Mean seconds to repair one crash (exponential). Must be positive
    /// and finite when the crash process is enabled.
    pub mttr_s: f64,
    /// Probability that a replica is a straggler (drawn once per replica
    /// from the seed). `0` disables the straggler draw.
    pub straggler_frac: f64,
    /// Iteration-duration multiplier of a straggler replica (≥ 1).
    pub straggler_mult: f64,
    /// Fleet-wide iteration-duration multiplier (≥ 1) — uniform
    /// throughput degradation, e.g. a degraded interconnect.
    pub degrade_mult: f64,
    /// How `degrade_mult` is priced (flat slowdown vs. link-bandwidth
    /// degradation through the collective model).
    pub degrade_mode: DegradeMode,
    /// Shared failure domains layered on the per-replica crash processes.
    pub domains: Vec<FaultDomain>,
    /// Shape of the per-replica uptime distribution (default
    /// exponential). [`FailureProcess::Weibull`] with `k < 1` models
    /// infant mortality; `k = 1` routes through the exponential sampler
    /// bit-exactly. Rack-style correlation is expressed with `domains`,
    /// so [`FailureProcess::RackCorrelated`] is rejected here. Omitted
    /// from JSON when exponential.
    #[serde(default, skip_serializing_if = "is_default")]
    pub process: FailureProcess,
}

impl FaultSpec {
    /// The degenerate no-fault spec: infinite MTBF, no domains, no
    /// stragglers, no degradation. Fleet reports under this spec are
    /// bit-identical to the fault-free path.
    #[must_use]
    pub fn none() -> Self {
        Self {
            seed: 0,
            mtbf_s: f64::INFINITY,
            mttr_s: 0.0,
            straggler_frac: 0.0,
            straggler_mult: 1.0,
            degrade_mult: 1.0,
            degrade_mode: DegradeMode::Flat,
            domains: Vec::new(),
            process: FailureProcess::Exponential,
        }
    }

    /// A crash/recover process: replicas fail after `Exp(1/mtbf_s)`
    /// seconds of uptime and repair in `Exp(1/mttr_s)` seconds.
    #[must_use]
    pub fn crashes(seed: u64, mtbf_s: f64, mttr_s: f64) -> Self {
        Self {
            seed,
            mtbf_s,
            mttr_s,
            ..Self::none()
        }
    }

    /// Adds a straggler draw: each replica independently runs every
    /// iteration `mult`× slower with probability `frac`.
    #[must_use]
    pub fn with_stragglers(mut self, frac: f64, mult: f64) -> Self {
        self.straggler_frac = frac;
        self.straggler_mult = mult;
        self
    }

    /// Sets the fleet-wide degradation multiplier.
    #[must_use]
    pub fn with_degradation(mut self, mult: f64) -> Self {
        self.degrade_mult = mult;
        self
    }

    /// Sets how the degradation multiplier is priced.
    #[must_use]
    pub fn with_degrade_mode(mut self, mode: DegradeMode) -> Self {
        self.degrade_mode = mode;
        self
    }

    /// Adds one shared failure domain.
    #[must_use]
    pub fn with_domain(mut self, domain: FaultDomain) -> Self {
        self.domains.push(domain);
        self
    }

    /// Replaces the domain list wholesale.
    #[must_use]
    pub fn with_domains(mut self, domains: Vec<FaultDomain>) -> Self {
        self.domains = domains;
        self
    }

    /// Sets the per-replica uptime distribution shape.
    #[must_use]
    pub fn with_process(mut self, process: FailureProcess) -> Self {
        self.process = process;
        self
    }

    /// Whether the per-replica crash/recover process is active.
    #[must_use]
    pub fn has_crashes(&self) -> bool {
        self.mtbf_s.is_finite() && self.mtbf_s > 0.0
    }

    /// Whether any shared failure domain is active.
    #[must_use]
    pub fn has_domains(&self) -> bool {
        self.domains.iter().any(FaultDomain::is_active)
    }

    /// Whether any outage process — per-replica or domain — is active.
    #[must_use]
    pub fn has_outages(&self) -> bool {
        self.has_crashes() || self.has_domains()
    }

    /// Whether `degrade_mult` is priced through the link model (and the
    /// caller must therefore simulate over
    /// [`FaultSpec::degraded_cluster`]'s output).
    #[must_use]
    pub fn link_degrade_active(&self) -> bool {
        self.degrade_mode == DegradeMode::Link && self.degrade_mult != 1.0
    }

    /// Whether the spec injects no faults at all — no outage process, no
    /// effective straggler draw, no degradation. The fleet path treats
    /// such a spec (whatever its seed) exactly like the fault-free one.
    #[must_use]
    pub fn is_none(&self) -> bool {
        !self.has_outages()
            && (self.straggler_frac == 0.0 || self.straggler_mult == 1.0)
            && self.degrade_mult == 1.0
    }

    /// Validates the spec's parameters.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when a field is out of range
    /// (negative/NaN MTBF, non-positive MTTR with crashes enabled,
    /// straggler fraction outside `[0, 1]`, multipliers below 1, a domain
    /// with duplicate members or a degenerate outage process).
    pub fn validate(&self) -> Result<(), String> {
        if self.mtbf_s.is_nan() || self.mtbf_s < 0.0 {
            return Err(format!("MTBF must be non-negative, got {}", self.mtbf_s));
        }
        if self.has_crashes() && !(self.mttr_s.is_finite() && self.mttr_s > 0.0) {
            return Err(format!(
                "MTTR must be positive and finite when crashes are enabled, got {}",
                self.mttr_s
            ));
        }
        if !(self.straggler_frac >= 0.0 && self.straggler_frac <= 1.0) {
            return Err(format!(
                "straggler fraction must lie in [0, 1], got {}",
                self.straggler_frac
            ));
        }
        if !(self.straggler_mult.is_finite() && self.straggler_mult >= 1.0) {
            return Err(format!(
                "straggler multiplier must be ≥ 1, got {}",
                self.straggler_mult
            ));
        }
        if !(self.degrade_mult.is_finite() && self.degrade_mult >= 1.0) {
            return Err(format!(
                "degradation multiplier must be ≥ 1, got {}",
                self.degrade_mult
            ));
        }
        for (index, domain) in self.domains.iter().enumerate() {
            if domain.mtbf_s.is_nan() || domain.mtbf_s < 0.0 {
                return Err(format!(
                    "domain {index}: MTBF must be non-negative, got {}",
                    domain.mtbf_s
                ));
            }
            if domain.mtbf_s.is_finite()
                && domain.mtbf_s > 0.0
                && !(domain.mttr_s.is_finite() && domain.mttr_s > 0.0)
            {
                return Err(format!(
                    "domain {index}: MTTR must be positive and finite when the domain is enabled, got {}",
                    domain.mttr_s
                ));
            }
            let mut members = domain.replicas.clone();
            members.sort_unstable();
            if members.windows(2).any(|w| w[0] == w[1]) {
                return Err(format!(
                    "domain {index}: member replicas must be distinct, got {:?}",
                    domain.replicas
                ));
            }
        }
        self.process.validate()?;
        if matches!(self.process, FailureProcess::RackCorrelated { .. }) {
            return Err(
                "rack-correlated outages are expressed with failure domains here;                  use --domains instead"
                    .to_owned(),
            );
        }
        Ok(())
    }

    /// A copy safe to embed in JSON reports: a disabled crash process —
    /// per replica or per domain — is normalized to `mtbf_s = 0` (JSON
    /// has no `∞` and writers emit `null` for it; `0` and `∞` both mean
    /// "never crashes"). Every other field of a spec that passes
    /// [`FaultSpec::validate`] is finite already.
    #[must_use]
    pub fn json_safe(mut self) -> Self {
        if !self.has_crashes() {
            self.mtbf_s = 0.0;
            self.mttr_s = 0.0;
        }
        for domain in &mut self.domains {
            if !(domain.mtbf_s.is_finite() && domain.mtbf_s > 0.0) {
                domain.mtbf_s = 0.0;
                domain.mttr_s = 0.0;
            }
        }
        self
    }

    /// The constant iteration-duration multiplier of `replica`: the
    /// fleet-wide degradation (in [`DegradeMode::Flat`] only — link-mode
    /// degradation is priced into the cluster instead, never double-
    /// counted here) times the straggler multiplier when this replica's
    /// seeded draw makes it a straggler. Exactly `1.0` for an inactive
    /// slowdown axis, so the fault-free path is untouched.
    #[must_use]
    pub fn slow_mult(&self, replica: usize) -> f64 {
        let mut mult = match self.degrade_mode {
            DegradeMode::Flat => self.degrade_mult,
            DegradeMode::Link => 1.0,
        };
        if self.straggler_frac > 0.0 && self.straggler_mult != 1.0 {
            let mut rng = stream_rng(self.seed, replica, STRAGGLER_STREAM);
            if rng.gen_range(0.0..1.0) < self.straggler_frac {
                mult *= self.straggler_mult;
            }
        }
        mult
    }

    /// The cluster this spec's simulations must be priced over: under an
    /// active [`DegradeMode::Link`] degradation, a copy of `cluster` with
    /// the intra- and inter-node link bandwidths divided by
    /// `degrade_mult` — every collective and KV transfer is then re-priced
    /// through `optimus_collective`'s α–β link model over the thinner
    /// links (latency terms are untouched; only bandwidth degrades).
    /// `None` otherwise: flat-mode degradation keeps the original cluster
    /// and scales iteration durations via [`FaultSpec::slow_mult`].
    #[must_use]
    pub fn degraded_cluster(&self, cluster: &ClusterSpec) -> Option<ClusterSpec> {
        self.link_degrade_active().then(|| {
            let scale = 1.0 / self.degrade_mult;
            let intra = cluster
                .node
                .intra_link
                .clone()
                .with_bandwidth(cluster.node.intra_link.bandwidth * scale);
            let inter = cluster
                .inter_link
                .clone()
                .with_bandwidth(cluster.inter_link.bandwidth * scale);
            cluster
                .clone()
                .with_intra_link(intra)
                .with_inter_link(inter)
        })
    }

    /// The replica's **merged** scheduled outage windows
    /// `(crash_s, recover_s)` that begin before `horizon_s`, in time
    /// order: the union of its own crash process and every domain that
    /// contains it, with overlapping windows coalesced. A pure function
    /// of `(spec, replica)` — the same schedule the engines and the
    /// router observe.
    #[must_use]
    pub fn outage_windows(&self, replica: usize, horizon_s: f64) -> Vec<(f64, f64)> {
        let mut stream = OutageStream::for_replica(self, replica);
        let mut windows = Vec::new();
        while let Some((crash, recover)) = stream.next_window() {
            if crash >= horizon_s {
                break;
            }
            windows.push((crash, recover));
        }
        windows
    }

    /// The shared outage windows of domain `index` that begin before
    /// `horizon_s` — the timeline every member replica observes,
    /// identically. Empty for an inactive (or out-of-range) domain.
    #[must_use]
    pub fn domain_outage_windows(&self, index: usize, horizon_s: f64) -> Vec<(f64, f64)> {
        let mut windows = Vec::new();
        let Some(mut timeline) = self
            .domains
            .get(index)
            .filter(|d| d.is_active())
            .and_then(|_| FaultTimeline::domain(self, index))
        else {
            return windows;
        };
        loop {
            let (crash, recover) = timeline.next_window();
            if crash >= horizon_s {
                return windows;
            }
            windows.push((crash, recover));
        }
    }

    /// Schedule-based availability accounting for one replica: the number
    /// of merged outage windows beginning before `horizon_s` and their
    /// total downtime clipped to the horizon.
    #[must_use]
    pub(crate) fn outage_stats(&self, replica: usize, horizon_s: f64) -> (usize, f64) {
        clipped_stats(&self.outage_windows(replica, horizon_s), horizon_s)
    }

    /// Schedule-based accounting for one domain's shared process.
    #[must_use]
    pub(crate) fn domain_outage_stats(&self, index: usize, horizon_s: f64) -> (usize, f64) {
        clipped_stats(&self.domain_outage_windows(index, horizon_s), horizon_s)
    }
}

fn clipped_stats(windows: &[(f64, f64)], horizon_s: f64) -> (usize, f64) {
    let downtime = windows
        .iter()
        .map(|&(crash, recover)| recover.min(horizon_s) - crash)
        .sum();
    (windows.len(), downtime)
}

/// The splitmix64 finalizer: decorrelates the per-replica streams drawn
/// from one user-facing seed.
fn splitmix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn stream_rng(seed: u64, entity: usize, stream: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix(
        seed ^ splitmix(stream ^ splitmix((entity as u64).wrapping_add(1))),
    ))
}

/// The infinite outage-window generator of one entity (a replica's own
/// crash process, or a domain's shared one): alternating exponential
/// up/down durations from the entity's stream.
pub(crate) struct FaultTimeline {
    rng: StdRng,
    mtbf_s: f64,
    mttr_s: f64,
    at_s: f64,
    law: UptimeLaw,
}

/// Resolved uptime sampler of one timeline. Exponential keeps the exact
/// pre-Weibull sampling expression (the PR 6/7 goldens pin it); Weibull
/// inverts `1 - exp(-(x/scale)^k)` on the same single RNG word per
/// sample, so enabling it never shifts any other stream.
enum UptimeLaw {
    Exponential,
    Weibull { scale: f64, inv_shape: f64 },
}

impl UptimeLaw {
    fn of(process: FailureProcess, mtbf_s: f64) -> Self {
        match process {
            FailureProcess::Weibull { shape } if shape != 1.0 => Self::Weibull {
                scale: weibull_scale(mtbf_s, shape),
                inv_shape: 1.0 / shape,
            },
            _ => Self::Exponential,
        }
    }
}

impl FaultTimeline {
    /// The replica's own crash process; `None` when disabled.
    pub(crate) fn new(spec: &FaultSpec, replica: usize) -> Option<Self> {
        spec.has_crashes().then(|| Self {
            rng: stream_rng(spec.seed, replica, CRASH_STREAM),
            mtbf_s: spec.mtbf_s,
            mttr_s: spec.mttr_s,
            at_s: 0.0,
            law: UptimeLaw::of(spec.process, spec.mtbf_s),
        })
    }

    /// Domain `index`'s shared process, keyed on `(seed, index)` — never
    /// on a replica — so every member replays the identical timeline.
    /// `None` when the domain is inactive.
    pub(crate) fn domain(spec: &FaultSpec, index: usize) -> Option<Self> {
        let domain = &spec.domains[index];
        // Domains model correlated infrastructure (racks, switches) whose
        // outage statistics are their own; they stay exponential.
        (domain.mtbf_s.is_finite() && domain.mtbf_s > 0.0).then(|| Self {
            rng: stream_rng(spec.seed, index, DOMAIN_STREAM),
            mtbf_s: domain.mtbf_s,
            mttr_s: domain.mttr_s,
            at_s: 0.0,
            law: UptimeLaw::Exponential,
        })
    }

    /// The next `(crash_s, recover_s)` window; successive windows are
    /// disjoint and time-ordered.
    pub(crate) fn next_window(&mut self) -> (f64, f64) {
        let uptime = match &self.law {
            UptimeLaw::Exponential => Exp::new(1.0 / self.mtbf_s).sample(&mut self.rng),
            UptimeLaw::Weibull { scale, inv_shape } => {
                let u: f64 = self.rng.gen_range(0.0..1.0);
                scale * (-(1.0 - u).ln()).powf(*inv_shape)
            }
        };
        let crash = self.at_s + uptime;
        let recover = crash + Exp::new(1.0 / self.mttr_s).sample(&mut self.rng);
        self.at_s = recover;
        (crash, recover)
    }
}

/// One replica's merged outage stream: the lazy union of its own crash
/// timeline and the shared timeline of every domain containing it.
/// Yields coalesced `(crash, recover)` windows in time order — each
/// window starts strictly after the previous one ends — so downstream
/// consumers (cursor, engine drain, accounting) see exactly the
/// single-timeline shape they saw before domains existed.
pub(crate) struct OutageStream {
    sources: Vec<FaultTimeline>,
    /// Lookahead: the not-yet-consumed earliest window of each source.
    heads: Vec<(f64, f64)>,
}

impl OutageStream {
    pub(crate) fn for_replica(spec: &FaultSpec, replica: usize) -> Self {
        let mut sources: Vec<FaultTimeline> = Vec::new();
        if let Some(own) = FaultTimeline::new(spec, replica) {
            sources.push(own);
        }
        for (index, domain) in spec.domains.iter().enumerate() {
            if domain.is_active() && domain.replicas.contains(&replica) {
                if let Some(shared) = FaultTimeline::domain(spec, index) {
                    sources.push(shared);
                }
            }
        }
        let heads = sources.iter_mut().map(FaultTimeline::next_window).collect();
        Self { sources, heads }
    }

    /// The next merged window, or `None` when no outage process covers
    /// this replica. Pops the earliest pending window, then absorbs every
    /// window (from any source) that starts inside the union built so
    /// far, extending the recovery edge.
    pub(crate) fn next_window(&mut self) -> Option<(f64, f64)> {
        let first =
            (0..self.heads.len()).min_by(|&a, &b| self.heads[a].0.total_cmp(&self.heads[b].0))?;
        let (crash, mut recover) = self.heads[first];
        self.heads[first] = self.sources[first].next_window();
        loop {
            let Some(next) = (0..self.heads.len())
                .filter(|&i| self.heads[i].0 <= recover)
                .min_by(|&a, &b| self.heads[a].0.total_cmp(&self.heads[b].0))
            else {
                return Some((crash, recover));
            };
            recover = recover.max(self.heads[next].1);
            self.heads[next] = self.sources[next].next_window();
        }
    }
}

/// A forward-only cursor over one replica's merged outage schedule — the
/// router's availability view. Queries are clamped forward: asking about
/// an earlier instant than a previous query answers as of the latest
/// instant seen (the router's knowledge only moves forward).
pub(crate) struct OutageCursor {
    stream: OutageStream,
    window: Option<(f64, f64)>,
    hi: f64,
}

impl OutageCursor {
    pub(crate) fn new(spec: &FaultSpec, replica: usize) -> Self {
        let mut stream = OutageStream::for_replica(spec, replica);
        let window = stream.next_window();
        Self {
            stream,
            window,
            hi: 0.0,
        }
    }

    /// Whether the schedule has the replica inside an outage at `t`.
    pub(crate) fn down_at(&mut self, t: f64) -> bool {
        self.hi = self.hi.max(t);
        let t = self.hi;
        loop {
            match self.window {
                None => return false,
                Some((crash, recover)) => {
                    if t < crash {
                        return false;
                    }
                    if t < recover {
                        return true;
                    }
                    self.window = self.stream.next_window();
                }
            }
        }
    }

    /// The earliest instant ≥ `t` at which the schedule has the replica
    /// up (the end of the current outage window, or `t` itself).
    pub(crate) fn next_up(&mut self, t: f64) -> f64 {
        if self.down_at(t) {
            self.window.expect("down ⇒ inside a window").1
        } else {
            t
        }
    }
}

/// One replica engine's fault wiring: its drain-side merged outage stream
/// (the `window`/`stream` pair advanced by the engine clock), the
/// router's independent query cursor, and the constant slowdown
/// multiplier.
pub(crate) struct EngineFaults {
    pub(crate) stream: OutageStream,
    pub(crate) window: Option<(f64, f64)>,
    pub(crate) query: OutageCursor,
    pub(crate) slow_mult: f64,
}

impl EngineFaults {
    pub(crate) fn for_replica(spec: &FaultSpec, replica: usize) -> Self {
        let mut stream = OutageStream::for_replica(spec, replica);
        let window = stream.next_window();
        Self {
            stream,
            window,
            query: OutageCursor::new(spec, replica),
            slow_mult: spec.slow_mult(replica),
        }
    }
}

/// Availability metrics of one fleet run under fault injection — all
/// zeros / `1.0` for a fault-free run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetAvailability {
    /// Outage windows scheduled within the fleet makespan, summed across
    /// replicas (a domain outage over `k` member replicas counts `k`
    /// times — each member went down).
    pub crashes: usize,
    /// Scheduled outage time within the makespan, summed across replicas.
    pub downtime: optimus_units::Time,
    /// Mean fraction of replica-time up:
    /// `1 − downtime / (replicas × makespan)`.
    pub availability: f64,
    /// Requeue events (every crash-drain of a request counts once; one
    /// request can be requeued several times).
    pub requeues: usize,
    /// Distinct requests requeued at least once. Every one of them
    /// eventually completes — requeue-then-complete conservation — so
    /// this is also the requeued-then-completed count.
    pub requeued_requests: usize,
    /// Ascending ids of the requeued requests.
    pub requeued_ids: Vec<usize>,
    /// Per-replica scheduled downtime within the makespan (merged own +
    /// domain windows).
    pub per_replica_downtime: Vec<optimus_units::Time>,
    /// Per-domain scheduled downtime within the makespan — the shared
    /// process alone, before it fans out to members. Empty when the spec
    /// has no domains.
    pub per_domain_downtime: Vec<optimus_units::Time>,
    /// SLO-met tokens per second per *available* replica:
    /// `goodput / (replicas × availability)` — what one surviving
    /// replica-second delivers under churn.
    pub goodput_tokens_per_up_replica_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_and_valid() {
        let spec = FaultSpec::none();
        assert!(spec.is_none());
        assert!(!spec.has_crashes());
        assert!(!spec.has_domains());
        assert!(spec.validate().is_ok());
        assert_eq!(spec.slow_mult(0), 1.0);
        assert!(spec.outage_windows(3, 1e9).is_empty());
        // An inactive spec stays inactive whatever its seed.
        let seeded = FaultSpec { seed: 99, ..spec };
        assert!(seeded.is_none());
    }

    #[test]
    fn timelines_are_deterministic_and_ordered() {
        let spec = FaultSpec::crashes(7, 120.0, 15.0);
        let a = spec.outage_windows(2, 10_000.0);
        let b = spec.outage_windows(2, 10_000.0);
        assert_eq!(a, b, "same (seed, replica) must replay the schedule");
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[0].1 <= w[1].0, "windows must be disjoint and ordered");
        }
        assert!(a.iter().all(|&(c, r)| c <= r));
        let other = spec.outage_windows(3, 10_000.0);
        assert_ne!(a, other, "replicas draw independent schedules");
        let reseeded = FaultSpec::crashes(8, 120.0, 15.0).outage_windows(2, 10_000.0);
        assert_ne!(a, reseeded, "the fault seed must matter");
    }

    #[test]
    fn mean_window_shape_tracks_mtbf_and_mttr() {
        let spec = FaultSpec::crashes(42, 100.0, 10.0);
        let windows = spec.outage_windows(0, 1_000_000.0);
        let n = windows.len() as f64;
        let mean_down: f64 = windows.iter().map(|&(c, r)| r - c).sum::<f64>() / n;
        // Cycle length ≈ mtbf + mttr ⇒ ~9091 windows over 1e6 s.
        assert!((n - 9091.0).abs() / 9091.0 < 0.1, "window count {n}");
        assert!((mean_down - 10.0).abs() < 1.0, "mean downtime {mean_down}");
    }

    #[test]
    fn outage_stats_clip_to_the_horizon() {
        let spec = FaultSpec::crashes(1, 50.0, 1e6);
        let windows = spec.outage_windows(0, 200.0);
        assert!(!windows.is_empty());
        let (crashes, downtime) = spec.outage_stats(0, 200.0);
        assert_eq!(crashes, windows.len());
        assert!(
            downtime <= 200.0 * crashes as f64,
            "clipped downtime {downtime}"
        );
        assert!(downtime < 1e6, "downtime must be clipped, got {downtime}");
    }

    #[test]
    fn straggler_draw_is_per_replica_and_seeded() {
        let spec = FaultSpec::none().with_stragglers(0.5, 3.0);
        assert!(!spec.is_none());
        let mults: Vec<f64> = (0..64).map(|r| spec.slow_mult(r)).collect();
        assert!(mults.iter().all(|&m| m == 1.0 || m == 3.0));
        let stragglers = mults.iter().filter(|&&m| m == 3.0).count();
        assert!(
            (10..=54).contains(&stragglers),
            "half the replicas should straggle, got {stragglers}/64"
        );
        let replay: Vec<f64> = (0..64).map(|r| spec.slow_mult(r)).collect();
        assert_eq!(mults, replay);
    }

    #[test]
    fn cursor_matches_the_window_list() {
        let spec = FaultSpec::crashes(11, 30.0, 5.0);
        let windows = spec.outage_windows(0, 2_000.0);
        let mut cursor = OutageCursor::new(&spec, 0);
        let mut t = 0.0;
        while t < 1_900.0 {
            let expect = windows.iter().any(|&(c, r)| t >= c && t < r);
            assert_eq!(cursor.down_at(t), expect, "at {t}");
            if expect {
                let up = cursor.next_up(t);
                let (_, r) = *windows
                    .iter()
                    .find(|&&(c, r)| t >= c && t < r)
                    .expect("down ⇒ window");
                assert_eq!(up, r);
            }
            t += 0.37;
        }
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        assert!(FaultSpec::crashes(0, -1.0, 1.0).validate().is_err());
        assert!(FaultSpec::crashes(0, 10.0, 0.0).validate().is_err());
        assert!(FaultSpec::crashes(0, 10.0, f64::INFINITY)
            .validate()
            .is_err());
        assert!(FaultSpec::none()
            .with_stragglers(1.5, 2.0)
            .validate()
            .is_err());
        assert!(FaultSpec::none()
            .with_stragglers(0.5, 0.5)
            .validate()
            .is_err());
        assert!(FaultSpec::none().with_degradation(0.9).validate().is_err());
        assert!(FaultSpec::crashes(3, 100.0, 10.0)
            .with_stragglers(0.1, 2.0)
            .with_degradation(1.1)
            .validate()
            .is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_domains() {
        let bad_mtbf = FaultSpec::none().with_domain(FaultDomain::new(vec![0, 1], -5.0, 1.0));
        assert!(bad_mtbf.validate().is_err());
        let bad_mttr = FaultSpec::none().with_domain(FaultDomain::new(vec![0, 1], 60.0, 0.0));
        assert!(bad_mttr.validate().is_err());
        let dup = FaultSpec::none().with_domain(FaultDomain::new(vec![0, 1, 0], 60.0, 5.0));
        assert!(dup.validate().is_err());
        let ok = FaultSpec::none()
            .with_domain(FaultDomain::new(vec![0, 1], 60.0, 5.0))
            .with_domain(FaultDomain::new(vec![2, 3], 90.0, 5.0));
        assert!(ok.validate().is_ok());
        assert!(ok.has_domains());
        assert!(!ok.is_none());
    }

    #[test]
    fn domain_members_share_the_identical_schedule() {
        let spec = FaultSpec::none().with_domain(FaultDomain::new(vec![0, 2], 80.0, 10.0));
        let member_a = spec.outage_windows(0, 50_000.0);
        let member_b = spec.outage_windows(2, 50_000.0);
        let shared = spec.domain_outage_windows(0, 50_000.0);
        assert!(!shared.is_empty());
        assert_eq!(member_a, shared, "a member sees exactly the domain windows");
        assert_eq!(member_a, member_b, "members go down together");
        assert!(
            spec.outage_windows(1, 50_000.0).is_empty(),
            "a non-member is untouched"
        );
        assert!(
            spec.outage_windows(7, 50_000.0).is_empty(),
            "an out-of-range member index applies to no replica here"
        );
    }

    #[test]
    fn merged_windows_union_own_and_domain_processes() {
        let spec =
            FaultSpec::crashes(13, 60.0, 8.0).with_domain(FaultDomain::new(vec![0, 1], 90.0, 12.0));
        let merged = spec.outage_windows(0, 20_000.0);
        assert!(!merged.is_empty());
        for w in merged.windows(2) {
            assert!(
                w[0].1 < w[1].0,
                "merged windows must be disjoint, ordered, and coalesced"
            );
        }
        // The merged schedule is pointwise the OR of the two processes.
        let own = FaultSpec::crashes(13, 60.0, 8.0).outage_windows(0, 20_000.0);
        let shared = spec.domain_outage_windows(0, 20_000.0);
        let down = |windows: &[(f64, f64)], t: f64| windows.iter().any(|&(c, r)| t >= c && t < r);
        let mut t = 0.0;
        while t < 19_000.0 {
            assert_eq!(
                down(&merged, t),
                down(&own, t) || down(&shared, t),
                "merged schedule must equal the union at t = {t}"
            );
            t += 1.73;
        }
        // And the domain layer never perturbs the replica's own stream.
        let merged_replica_1 = spec.outage_windows(1, 20_000.0);
        let own_replica_1 = FaultSpec::crashes(13, 60.0, 8.0).outage_windows(1, 20_000.0);
        let down_any = |t: f64| down(&own_replica_1, t) || down(&shared, t);
        let mut t = 0.0;
        while t < 19_000.0 {
            assert_eq!(down(&merged_replica_1, t), down_any(t), "at t = {t}");
            t += 2.31;
        }
    }

    #[test]
    fn link_mode_moves_degradation_out_of_slow_mult() {
        let flat = FaultSpec::none().with_degradation(2.0);
        assert_eq!(flat.slow_mult(0), 2.0);
        assert!(flat
            .degraded_cluster(&optimus_hw::presets::dgx_a100_hdr_cluster())
            .is_none());
        let link = FaultSpec::none()
            .with_degradation(2.0)
            .with_degrade_mode(DegradeMode::Link);
        assert!(link.link_degrade_active());
        assert!(!link.is_none());
        assert_eq!(
            link.slow_mult(0),
            1.0,
            "link-mode degradation must not also scale iteration durations"
        );
        let cluster = optimus_hw::presets::dgx_a100_hdr_cluster();
        let degraded = link.degraded_cluster(&cluster).expect("active link mode");
        assert_eq!(
            degraded.node.intra_link.bandwidth.gb_per_sec(),
            cluster.node.intra_link.bandwidth.gb_per_sec() / 2.0
        );
        assert_eq!(
            degraded.inter_link.bandwidth.gb_per_sec(),
            cluster.inter_link.bandwidth.gb_per_sec() / 2.0
        );
        assert_eq!(
            degraded.node.intra_link.latency, cluster.node.intra_link.latency,
            "only bandwidth degrades"
        );
        // A unit multiplier is inert in either mode.
        let inert = FaultSpec::none().with_degrade_mode(DegradeMode::Link);
        assert!(inert.is_none());
        assert!(inert.degraded_cluster(&cluster).is_none());
    }

    #[test]
    fn json_safe_normalizes_the_infinite_mtbf() {
        let spec = FaultSpec::none().with_degradation(1.5).json_safe();
        assert_eq!(spec.mtbf_s, 0.0);
        let active = FaultSpec::crashes(2, 60.0, 5.0).json_safe();
        assert_eq!(active.mtbf_s, 60.0);
        let domained = FaultSpec::none()
            .with_domain(FaultDomain::new(vec![0], f64::INFINITY, 0.0))
            .with_domain(FaultDomain::new(vec![1, 2], 45.0, 5.0))
            .json_safe();
        assert_eq!(domained.domains[0].mtbf_s, 0.0);
        assert_eq!(domained.domains[1].mtbf_s, 45.0);
    }
}
