//! The resumable per-replica event loop.
//!
//! [`ReplicaEngine`] is the continuous-batching scheduler of **one**
//! serving replica, factored out of the monolithic `ServeInstance::run`
//! so it can be driven two ways:
//!
//! * **batch** — [`ReplicaEngine::load`] an entire trace (borrowed, never
//!   copied), [`ReplicaEngine::finish`], read the report (the
//!   single-replica [`crate::ServeInstance::simulate`] path);
//! * **stepped** — interleave [`ReplicaEngine::push`] with
//!   [`ReplicaEngine::advance_to`] so an online router can observe live
//!   queue depth and outstanding work *at each arrival instant* before
//!   deciding which replica receives the request (the
//!   [`crate::FleetInstance`] path). State-aware routing policies are
//!   exactly why the engine is steppable rather than trace-split: the
//!   decision for request *n* depends on simulated state that requests
//!   `0..n` produced.
//!
//! Stepping semantics: an iteration is indivisible and starts whenever
//! the previous one ends — a real server cannot consult future arrivals —
//! so `advance_to(t)` runs every iteration that *starts* before `t` and
//! may leave the clock past `t` (mid-iteration overshoot). An idle engine
//! never invents work: it jumps its clock forward only to the next queued
//! arrival within the target.

use crate::faults::EngineFaults;
use crate::sim::{ServeError, ServeInstance, TraceBounds};
use crate::stats::LatencyAccumulator;
use crate::{
    PagingReport, PreemptPolicy, QueueSample, Request, RequestMetrics, Scheduler, SloSpec,
    MAX_QUEUE_SAMPLES,
};
use optimus_infer::DecodeCostTable;
use optimus_units::{Bytes, Time};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// The reordering schedulers' admission queue: a min-heap of
/// `(`[`Scheduler::queue_key`]`, trace index)`.
type PendingHeap = BinaryHeap<Reverse<(usize, usize)>>;

/// An admitted request's in-flight state (slot-arena entry, recycled at
/// completion).
struct Slot {
    request: Request,
    admitted_s: f64,
    prefill_dur_s: f64,
    first_token_s: f64,
    reserved: Bytes,
    // Paged-mode state (all zero under reserved KV).
    /// Prompt tokens the next prefill actually prices (the full prompt,
    /// minus any resident shared-prefix blocks skipped on a cache hit).
    prefill_tokens: usize,
    /// Private device blocks held (excludes refcounted prefix blocks).
    blocks: usize,
    /// Blocks borrowed from this request's resident prefix entry.
    shared_blocks: usize,
    /// Decode tokens produced so far (reset to zero by a recompute
    /// preemption, preserved by a swap).
    generated: usize,
    /// Calendar ring position this slot's completion is filed under, so
    /// preemption can withdraw it in O(ring-slot).
    due_ring: usize,
}

/// Streaming aggregation of completion events: latency accumulators plus
/// the scalar counters, and (when enabled) the per-request records.
pub(crate) struct CompletionSink {
    slo: SloSpec,
    records_on: bool,
    pub(crate) records: Vec<RequestMetrics>,
    pub(crate) ttft: LatencyAccumulator,
    pub(crate) tpot: LatencyAccumulator,
    pub(crate) e2e: LatencyAccumulator,
    pub(crate) completed: usize,
    pub(crate) generated_tokens: usize,
    pub(crate) met: usize,
    pub(crate) met_tokens: usize,
}

impl CompletionSink {
    fn new(slo: SloSpec, expected: usize, records_on: bool) -> Self {
        Self {
            slo,
            records_on,
            records: Vec::new(),
            ttft: LatencyAccumulator::for_population(expected),
            tpot: LatencyAccumulator::for_population(expected),
            e2e: LatencyAccumulator::for_population(expected),
            completed: 0,
            generated_tokens: 0,
            met: 0,
            met_tokens: 0,
        }
    }

    /// Folds one completed request into the aggregates.
    fn complete(&mut self, slot: &Slot, completed_s: f64) {
        let r = &slot.request;
        let first = slot.first_token_s;
        let ttft = first - r.arrival_s;
        let e2e = completed_s - r.arrival_s;
        let tpot =
            (r.output > 1).then(|| Time::from_secs((completed_s - first) / (r.output - 1) as f64));
        let met_slo =
            Time::from_secs(ttft) <= self.slo.ttft && tpot.is_none_or(|t| t <= self.slo.tpot);
        self.ttft.record(Time::from_secs(ttft));
        self.e2e.record(Time::from_secs(e2e));
        if let Some(t) = tpot {
            self.tpot.record(t);
        }
        self.completed += 1;
        self.generated_tokens += r.output;
        if met_slo {
            self.met += 1;
            self.met_tokens += r.output;
        }
        if self.records_on {
            self.records.push(RequestMetrics {
                id: r.id,
                prompt: r.prompt,
                generated: r.output,
                arrival: Time::from_secs(r.arrival_s),
                queue_wait: Time::from_secs(slot.admitted_s - r.arrival_s),
                prefill: Time::from_secs(slot.prefill_dur_s),
                ttft: Time::from_secs(ttft),
                e2e: Time::from_secs(e2e),
                tpot,
                met_slo,
            });
        }
    }
}

/// Everything one engine hands to report assembly.
pub(crate) struct ReportInputs {
    pub(crate) sink: CompletionSink,
    pub(crate) rejected_ids: Vec<usize>,
    pub(crate) makespan_s: f64,
    pub(crate) kv_peak: Bytes,
    pub(crate) prefill_iterations: usize,
    pub(crate) decode_iterations: usize,
    pub(crate) decode_batch_sum: usize,
    pub(crate) queue_area: f64,
    pub(crate) peak_waiting: usize,
    pub(crate) peak_decoding: usize,
    pub(crate) raw_samples: Vec<QueueSample>,
    /// Block/prefix/preemption accounting — `Some` exactly when the
    /// engine ran a paged [`crate::KvSpec`].
    pub(crate) paging: Option<PagingReport>,
}

/// One shared prefix's residency in the device block pool. Entries are
/// indexed by [`crate::Prefix::id`]; a non-resident entry holds no
/// blocks. Residency survives its last reference (that is the cache) —
/// eviction happens only when an allocation needs the blocks, idle
/// entries first in least-recently-used order.
#[derive(Clone, Default)]
struct PrefixEntry {
    resident: bool,
    blocks: usize,
    refs: usize,
    last_use: usize,
}

/// The outcome of one fresh-admission attempt.
enum Admission {
    /// KV allocated; the request awaits its prefill.
    Admitted,
    /// The memory is not there yet.
    Blocked,
    /// The request could never run on this replica, not even alone.
    Rejected,
}

/// One replica's resumable scheduler state. See the module docs for the
/// batch/stepped driving modes.
pub(crate) struct ReplicaEngine<'i, 'a> {
    instance: &'i ServeInstance<'a>,
    table: Option<&'i DecodeCostTable>,
    budget: Bytes,

    // Dense prefill-duration cache by prompt length: each distinct
    // admittable prompt is priced once per engine, lock-free after.
    prefill_cache: Vec<f64>,
    // Exact-pricing decode cache (no sealed `table`): base seconds per
    // `(batch, kv_len)`, before `slow_mult`. Sparse because the visited
    // pairs are a thin path through the batch × context plane.
    decode_cache: HashMap<(usize, usize), f64>,

    // Completion ring: requests joining the decode batch with `n` output
    // tokens complete exactly `n` decode epochs later.
    calendar: Vec<Vec<u32>>,
    decode_epoch: usize,

    // The engine's trace: in batch mode the caller's whole input,
    // borrowed; in stepped mode an owned list of whatever the router has
    // assigned so far. `eff` runs parallel to it with the *effective*
    // (engine-observed, nondecreasing) arrival time: the original arrival
    // for first-routed requests, the requeue instant for requests
    // re-assigned after a crash. Metrics always use the request's own
    // `arrival_s`.
    trace: Cow<'i, [Request]>,
    eff: Vec<f64>,
    arrived: usize,      // trace[..arrived] have arrived (eff ≤ clock)
    admit_cursor: usize, // trace[admit_cursor..arrived] queue for admission
    assigned: usize,     // total assignments ever (requeues drop `trace`)

    clock: f64,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    awaiting_prefill: VecDeque<u32>,
    pending_first: Vec<u32>,
    decoding_count: usize,
    ctx_sum: usize, // Σ (prompt + generated) over decoding
    rejected_ids: Vec<usize>,
    sink: CompletionSink,

    reserved: Bytes,
    kv_peak: Bytes,
    prefill_iterations: usize,
    decode_iterations: usize,
    decode_batch_sum: usize,
    queue_area: f64, // ∫ waiting dt
    peak_waiting: usize,
    peak_decoding: usize,
    // Queue-depth samples are thinned online (keep-every-other + stride
    // doubling once 2×MAX_QUEUE_SAMPLES accumulate), so memory stays
    // O(MAX_QUEUE_SAMPLES) however long the trace runs.
    raw_samples: Vec<QueueSample>,
    sample_stride: usize,
    iteration: usize,

    // Fault wiring (`None` on the fault-free path): the outage windows
    // the clock drains through, the router's availability cursor, and the
    // requests lost to crashes since the driver last collected them.
    faults: Option<EngineFaults>,
    slow_mult: f64,
    requeued: Vec<(Request, f64)>,

    // --- paged-KV / scheduler state -------------------------------------
    paged: bool,
    scheduler: Scheduler,
    policy: PreemptPolicy,
    block_tokens: usize,
    total_blocks: usize,
    used_blocks: usize,
    peak_blocks: usize,
    // Arrived-but-unadmitted requests of the reordering schedulers, as a
    // min-heap of `(scheduler key, trace index)`: the key is computed
    // once at enqueue, and the cursor enqueues in trace order, so ties
    // go to the earliest-queued request. FIFO admits straight from the
    // cursor instead, so its backlog is never copied and this stays
    // empty.
    pending: PendingHeap,
    // Recompute-preempted slots waiting to re-prefill, FIFO.
    preempted: VecDeque<u32>,
    // Swap-preempted slots parked on the host, FIFO.
    swapped: VecDeque<u32>,
    // Swapped slots whose blocks are re-allocated, each waiting for its
    // swap-in iteration (served before prefills).
    awaiting_swapin: VecDeque<u32>,
    // Decoding slots in join order — the preemption victim order.
    active: Vec<u32>,
    prefix_cache: Vec<PrefixEntry>,
    preemptions: usize,
    swap_outs: usize,
    swap_ins: usize,
    swap_bytes: Bytes,
    prefix_hits: usize,
    prefix_misses: usize,
    prefix_evictions: usize,
    cached_tokens_saved: usize,
}

impl<'i, 'a> ReplicaEngine<'i, 'a> {
    /// A fresh engine over `instance`, sized by `bounds` (which must cover
    /// every request this engine will ever be pushed). `expected` sizes
    /// the latency accumulators' exact/streaming regime choice — fleet
    /// drivers pass the *whole* trace length so every replica picks the
    /// same regime and their populations merge loss-free.
    pub(crate) fn new(
        instance: &'i ServeInstance<'a>,
        table: Option<&'i DecodeCostTable>,
        bounds: &TraceBounds,
        expected: usize,
        records_on: bool,
        faults: Option<EngineFaults>,
    ) -> Self {
        let ring_len = bounds.max_kv.max(1) + 1; // ≥ max_output + 1
        let slow_mult = faults.as_ref().map_or(1.0, |f| f.slow_mult);
        let config = instance.config();
        let paged = !config.kv.is_reserved();
        Self {
            paged,
            scheduler: config.scheduler,
            policy: config.kv.policy,
            block_tokens: config.kv.block_tokens,
            total_blocks: if paged { instance.total_blocks() } else { 0 },
            used_blocks: 0,
            peak_blocks: 0,
            pending: PendingHeap::new(),
            preempted: VecDeque::new(),
            swapped: VecDeque::new(),
            awaiting_swapin: VecDeque::new(),
            active: Vec::new(),
            prefix_cache: Vec::new(),
            preemptions: 0,
            swap_outs: 0,
            swap_ins: 0,
            swap_bytes: Bytes::ZERO,
            prefix_hits: 0,
            prefix_misses: 0,
            prefix_evictions: 0,
            cached_tokens_saved: 0,
            instance,
            table,
            budget: instance.kv_budget(),
            prefill_cache: vec![f64::NAN; bounds.max_prompt + 1],
            decode_cache: HashMap::new(),
            calendar: vec![Vec::new(); ring_len],
            decode_epoch: 0,
            trace: Cow::Owned(Vec::new()),
            eff: Vec::new(),
            arrived: 0,
            admit_cursor: 0,
            assigned: 0,
            clock: 0.0,
            slots: Vec::new(),
            free_slots: Vec::new(),
            awaiting_prefill: VecDeque::new(),
            pending_first: Vec::new(),
            decoding_count: 0,
            ctx_sum: 0,
            rejected_ids: Vec::new(),
            sink: CompletionSink::new(instance.config().slo, expected, records_on),
            reserved: Bytes::ZERO,
            kv_peak: Bytes::ZERO,
            prefill_iterations: 0,
            decode_iterations: 0,
            decode_batch_sum: 0,
            queue_area: 0.0,
            peak_waiting: 0,
            peak_decoding: 0,
            raw_samples: Vec::new(),
            sample_stride: 1,
            iteration: 0,
            faults,
            slow_mult,
            requeued: Vec::new(),
        }
    }

    /// Assigns a whole arrival-ordered trace to a fresh engine without
    /// copying it — the batch path. Equivalent to pushing every request
    /// in order.
    pub(crate) fn load(&mut self, trace: &'i [Request]) {
        debug_assert!(self.assigned == 0, "load() needs a fresh engine");
        self.eff = trace.iter().map(|r| r.arrival_s).collect();
        self.trace = Cow::Borrowed(trace);
        self.assigned = trace.len();
    }

    /// Assigns one request to this replica. Requests must be pushed in
    /// arrival order.
    pub(crate) fn push(&mut self, request: Request) {
        debug_assert!(
            self.trace
                .last()
                .is_none_or(|prev| prev.arrival_s <= request.arrival_s),
            "requests must be pushed in arrival order"
        );
        self.eff.push(request.arrival_s);
        self.trace.to_mut().push(request);
        self.assigned += 1;
    }

    /// Assigns one request at router-observed time `at_s` — the churn
    /// path. The request keeps its own `arrival_s` for every metric; the
    /// engine first sees it at `at_s` (clamped so effective arrivals stay
    /// nondecreasing), which is how a requeued request re-enters a queue
    /// later than it originally arrived.
    pub(crate) fn push_at(&mut self, request: Request, at_s: f64) {
        let eff = self.eff.last().map_or(at_s, |&prev| prev.max(at_s));
        self.eff.push(eff);
        self.trace.to_mut().push(request);
        self.assigned += 1;
    }

    /// Whether the replica's outage schedule has it up at `t` — the
    /// router's skip-down-replicas query. `t` must be nondecreasing
    /// across calls (the router's clock is monotone).
    pub(crate) fn available(&mut self, t: f64) -> bool {
        self.faults.as_mut().is_none_or(|f| !f.query.down_at(t))
    }

    /// The earliest instant ≥ `t` at which the replica's schedule has it
    /// up again.
    pub(crate) fn next_up(&mut self, t: f64) -> f64 {
        self.faults.as_mut().map_or(t, |f| f.query.next_up(t))
    }

    /// Takes the requests crashes have drained since the last call, each
    /// paired with the instant its replica dropped it.
    pub(crate) fn take_requeued(&mut self) -> Vec<(Request, f64)> {
        core::mem::take(&mut self.requeued)
    }

    /// Requests with **no compute yet**: routed but unadmitted (queued for
    /// KV space) plus admitted but still awaiting their prefill iteration.
    /// Preempted and swapped-out victims count too — they hold no device
    /// compute until re-admitted. After `advance_to(t)`, this is exactly
    /// the waiting population a join-shortest-queue router should see at
    /// time `t`.
    pub(crate) fn waiting(&self) -> usize {
        (self.trace.len() - self.admit_cursor)
            + self.queued_backlog()
            + self.awaiting_prefill.len()
            + self.awaiting_swapin.len()
    }

    /// The queued-but-unserved population beyond the admission cursor:
    /// requests a reordering scheduler has queued plus preemption victims
    /// awaiting re-admission. Zero under reserved-KV FIFO, whose backlog
    /// lives entirely behind `admit_cursor`.
    fn queued_backlog(&self) -> usize {
        self.pending.len() + self.preempted.len() + self.swapped.len()
    }

    /// Requests routed to this replica and not yet completed — waiting or
    /// decoding. The least-outstanding router's load signal.
    pub(crate) fn outstanding(&self) -> usize {
        self.waiting() + self.decoding_count
    }

    /// Runs every iteration that starts before `target`. On return either
    /// the clock has reached (or overshot) `target`, or the engine is idle
    /// with no queued arrival before `target`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Estimator`] when iteration pricing fails
    /// (unsupported precision).
    pub(crate) fn advance_to(&mut self, target: f64) -> Result<(), ServeError> {
        loop {
            if self.faults.is_some() {
                self.process_outages();
            }
            while self.arrived < self.trace.len() && self.eff[self.arrived] <= self.clock {
                self.arrived += 1;
            }
            self.admit();
            let pending_len = (self.arrived - self.admit_cursor) + self.queued_backlog();

            if self.awaiting_prefill.is_empty()
                && self.awaiting_swapin.is_empty()
                && self.decoding_count == 0
            {
                assert!(
                    pending_len == 0,
                    "an idle instance always admits the queue head"
                );
                if self.arrived >= self.trace.len() {
                    return Ok(()); // idle, nothing queued: wait for pushes
                }
                let next = self.eff[self.arrived];
                if next > target {
                    return Ok(()); // next arrival is beyond the target
                }
                self.clock = self.clock.max(next);
                continue;
            }
            if self.clock >= target {
                return Ok(());
            }

            // The waiting population over this iteration: arrived but no
            // compute yet — whether blocked on KV admission or on a
            // prefill slot. The request prefilled (or swapped back in)
            // this very iteration stops waiting now, so it is not
            // counted; `peak_waiting` observes the same population as the
            // time-weighted mean.
            let serving_one = !self.awaiting_swapin.is_empty() || !self.awaiting_prefill.is_empty();
            let waiting_before =
                pending_len + self.awaiting_prefill.len() + self.awaiting_swapin.len()
                    - usize::from(serving_one);
            self.peak_waiting = self.peak_waiting.max(waiting_before);
            let dur = if let Some(idx) = self.awaiting_swapin.pop_front() {
                self.swap_in(idx)
            } else if let Some(idx) = self.awaiting_prefill.pop_front() {
                self.prefill(idx)?
            } else {
                self.decode()?
            };
            self.clock += dur;
            self.queue_area += waiting_before as f64 * dur;
            self.peak_decoding = self.peak_decoding.max(self.decoding_count);
            if self.iteration.is_multiple_of(self.sample_stride) {
                // The sample observes the *end* of the iteration, so it
                // must count every request that arrived while the
                // iteration ran — advance the arrival cursor to the new
                // clock before reading the waiting depth.
                while self.arrived < self.trace.len() && self.eff[self.arrived] <= self.clock {
                    self.arrived += 1;
                }
                self.raw_samples.push(QueueSample {
                    at: Time::from_secs(self.clock),
                    waiting: (self.arrived - self.admit_cursor)
                        + self.queued_backlog()
                        + self.awaiting_prefill.len()
                        + self.awaiting_swapin.len(),
                    decoding: self.decoding_count,
                });
                if self.raw_samples.len() >= 2 * MAX_QUEUE_SAMPLES {
                    let mut keep = 0;
                    self.raw_samples.retain(|_| {
                        keep += 1;
                        keep % 2 == 1
                    });
                    self.sample_stride *= 2;
                }
            }
            self.iteration += 1;
        }
    }

    /// Stores a slot in the arena (recycling a freed index when one
    /// exists) and returns its index.
    fn alloc_slot(&mut self, slot: Slot) -> u32 {
        if let Some(free) = self.free_slots.pop() {
            self.slots[free as usize] = slot;
            free
        } else {
            self.slots.push(slot);
            u32::try_from(self.slots.len() - 1).expect("slot arena fits u32")
        }
    }

    // --- admission ---------------------------------------------------------

    /// One admission round: hand free memory to (in order) swapped-out
    /// victims, recompute victims, and finally fresh requests picked by
    /// the scheduler. Each stage is head-of-line blocked on its own
    /// queue, and victims outrank fresh admissions (the vLLM order,
    /// which keeps a victim's starvation bounded: it gets first claim on
    /// every block the batch that evicted it releases).
    #[inline]
    fn admit(&mut self) {
        if self.scheduler != Scheduler::Fifo {
            while self.admit_cursor < self.arrived {
                let key = self.scheduler.queue_key(&self.trace[self.admit_cursor]);
                self.pending.push(Reverse((key, self.admit_cursor)));
                self.admit_cursor += 1;
            }
        }
        while let Some(&idx) = self.swapped.front() {
            if !self.stage_swap_in(idx) {
                break;
            }
            self.swapped.pop_front();
        }
        while let Some(&idx) = self.preempted.front() {
            if !self.readmit_preempted(idx) {
                break;
            }
            self.preempted.pop_front();
        }
        while let Some(pick) = self.pick() {
            let request = self.trace[pick];
            match self.try_admit(&request) {
                Admission::Admitted => {}
                Admission::Blocked => break, // head-of-line: the pick waits
                Admission::Rejected => {
                    // Could never run, not even alone: drop it rather than
                    // block the queue forever.
                    self.rejected_ids.push(request.id);
                }
            }
            self.dequeue();
        }
    }

    /// The scheduler's pick: the trace index of the queued request that
    /// admits next. FIFO reads the arrival cursor in place; the
    /// reordering schedulers peek the top of `pending` in O(1).
    #[inline]
    fn pick(&self) -> Option<usize> {
        if self.scheduler == Scheduler::Fifo {
            (self.admit_cursor < self.arrived).then_some(self.admit_cursor)
        } else {
            self.pending.peek().map(|&Reverse((_, pick))| pick)
        }
    }

    /// Removes the pick from its queue: advances the FIFO cursor, or pops
    /// the heap top in O(log n).
    #[inline]
    fn dequeue(&mut self) {
        if self.scheduler == Scheduler::Fifo {
            self.admit_cursor += 1;
        } else {
            self.pending.pop();
        }
    }

    /// Tries to admit one fresh request, allocating its KV (full
    /// reservation or prompt blocks, per the regime). Rejects exactly the
    /// requests [`ServeInstance::admissible`] rejects; the reserved test
    /// is inlined so the reservation is priced once per attempt.
    #[inline]
    fn try_admit(&mut self, request: &Request) -> Admission {
        if !self.paged {
            let need = self.instance.reservation(request);
            if need > self.budget {
                return Admission::Rejected;
            }
            if self.reserved + need > self.budget {
                return Admission::Blocked;
            }
            self.reserved += need;
            self.kv_peak = self.kv_peak.max(self.reserved);
            let idx = self.alloc_slot(Slot {
                request: *request,
                admitted_s: self.clock,
                prefill_dur_s: 0.0,
                first_token_s: 0.0,
                reserved: need,
                prefill_tokens: request.prompt,
                blocks: 0,
                shared_blocks: 0,
                generated: 0,
                due_ring: 0,
            });
            self.awaiting_prefill.push_back(idx);
            return Admission::Admitted;
        }
        if !self.instance.admissible(request) {
            return Admission::Rejected;
        }
        let Some((blocks, shared)) = self.alloc_prompt_blocks(request) else {
            return Admission::Blocked;
        };
        let idx = self.alloc_slot(Slot {
            request: *request,
            admitted_s: self.clock,
            prefill_dur_s: 0.0,
            first_token_s: 0.0,
            reserved: Bytes::ZERO,
            prefill_tokens: request.prompt - shared * self.block_tokens,
            blocks,
            shared_blocks: shared,
            generated: 0,
            due_ring: 0,
        });
        self.awaiting_prefill.push_back(idx);
        Admission::Admitted
    }

    /// Tries to re-admit a recompute victim: its prompt's blocks are
    /// allocated afresh (through any still-resident prefix) and its
    /// re-prefill queued. The slot — and with it the request's original
    /// admission instant and any already-emitted first token — survives.
    fn readmit_preempted(&mut self, idx: u32) -> bool {
        let request = self.slots[idx as usize].request;
        let Some((blocks, shared)) = self.alloc_prompt_blocks(&request) else {
            return false;
        };
        let s = &mut self.slots[idx as usize];
        s.blocks = blocks;
        s.shared_blocks = shared;
        s.prefill_tokens = request.prompt - shared * self.block_tokens;
        self.awaiting_prefill.push_back(idx);
        true
    }

    /// Allocates the blocks a prompt needs before prefill, borrowing a
    /// resident prefix's blocks when the request carries one (taking a
    /// reference and counting the hit). Returns `(private, shared)`
    /// blocks, or `None` when the pool cannot cover the private need
    /// even after evicting idle prefixes.
    fn alloc_prompt_blocks(&mut self, request: &Request) -> Option<(usize, usize)> {
        let shared = self.borrow_prefix(request);
        let need = self.instance.blocks_for(request.prompt) - shared;
        if !self.ensure_free(need) {
            self.unborrow_prefix(request, shared);
            return None;
        }
        self.alloc_blocks(need);
        if request.prefix.is_some() {
            if shared > 0 {
                self.prefix_hits += 1;
                self.cached_tokens_saved += shared * self.block_tokens;
            } else {
                self.prefix_misses += 1;
            }
        }
        Some((need, shared))
    }

    /// Takes a reference on the request's resident prefix entry (pinning
    /// it against eviction) and returns its block count — zero when the
    /// request carries no prefix or the entry is absent.
    fn borrow_prefix(&mut self, request: &Request) -> usize {
        let Some(p) = request.prefix else { return 0 };
        if self.prefix_cache.len() <= p.id {
            self.prefix_cache
                .resize_with(p.id + 1, PrefixEntry::default);
        }
        let iter = self.iteration;
        let e = &mut self.prefix_cache[p.id];
        if !e.resident {
            return 0;
        }
        e.refs += 1;
        e.last_use = iter;
        e.blocks
    }

    /// Rolls back [`ReplicaEngine::borrow_prefix`] when the allocation it
    /// pinned for could not complete.
    fn unborrow_prefix(&mut self, request: &Request, shared: usize) {
        if shared > 0 {
            let p = request.prefix.expect("shared blocks imply a prefix");
            self.prefix_cache[p.id].refs -= 1;
        }
    }

    /// Tries to stage a swapped-out victim's return: re-allocate device
    /// blocks for its full context (prompt + progress so far) and queue
    /// its swap-in iteration.
    fn stage_swap_in(&mut self, idx: u32) -> bool {
        let (request, ctx) = {
            let s = &self.slots[idx as usize];
            (s.request, s.request.prompt + s.generated)
        };
        let shared = self.borrow_prefix(&request);
        let need = self.instance.blocks_for(ctx) - shared;
        if !self.ensure_free(need) {
            self.unborrow_prefix(&request, shared);
            return false;
        }
        self.alloc_blocks(need);
        let s = &mut self.slots[idx as usize];
        s.blocks = need;
        s.shared_blocks = shared;
        self.awaiting_swapin.push_back(idx);
        true
    }

    /// One swap-in iteration: the replica stalls while the victim's
    /// private blocks stream back over the egress link, then the victim
    /// rejoins the decode batch where it left off.
    fn swap_in(&mut self, idx: u32) -> f64 {
        let blocks = self.slots[idx as usize].blocks;
        self.swap_ins += 1;
        self.swap_bytes += self.instance.block_bytes() * blocks as f64;
        self.rejoin_decode(idx);
        self.instance.swap_seconds(blocks)
    }

    /// Puts a slot (back) into the decode batch: first token at the next
    /// decode epoch if none was emitted yet, completion when the
    /// remaining output fills.
    fn rejoin_decode(&mut self, idx: u32) {
        let (ctx, remaining, first_pending) = {
            let s = &self.slots[idx as usize];
            (
                s.request.prompt + s.generated,
                s.request.output - s.generated,
                s.first_token_s == 0.0,
            )
        };
        self.decoding_count += 1;
        self.ctx_sum += ctx;
        if first_pending {
            self.pending_first.push(idx);
        }
        let due = (self.decode_epoch + remaining) % self.calendar.len();
        self.calendar[due].push(idx);
        if self.paged {
            self.slots[idx as usize].due_ring = due;
            self.active.push(idx);
        }
    }

    /// Frees capacity for `need` more blocks, evicting idle
    /// (unreferenced) resident prefixes least-recently-used first.
    /// Returns `false` when the pool still cannot cover it.
    fn ensure_free(&mut self, need: usize) -> bool {
        if need > self.total_blocks {
            return false;
        }
        while self.total_blocks - self.used_blocks < need {
            let Some(victim) = (0..self.prefix_cache.len())
                .filter(|&i| self.prefix_cache[i].resident && self.prefix_cache[i].refs == 0)
                .min_by_key(|&i| (self.prefix_cache[i].last_use, i))
            else {
                return false;
            };
            let freed = {
                let e = &mut self.prefix_cache[victim];
                e.resident = false;
                core::mem::take(&mut e.blocks)
            };
            self.used_blocks -= freed;
            self.prefix_evictions += 1;
        }
        true
    }

    /// Takes `n` blocks from the pool (capacity must be ensured first).
    fn alloc_blocks(&mut self, n: usize) {
        self.used_blocks += n;
        debug_assert!(
            self.used_blocks <= self.total_blocks,
            "block pool overdrawn"
        );
        self.peak_blocks = self.peak_blocks.max(self.used_blocks);
    }

    /// Applies every outage window the clock has reached. Crashes take
    /// effect at iteration boundaries: a window the clock lands *inside*
    /// drains the replica — all incomplete work goes back to the router —
    /// and jumps the clock to the recovery instant; a window the clock
    /// has already passed (the outage fit inside one indivisible
    /// iteration, or the engine was idle across it with nothing assigned)
    /// is ridden through without a drain.
    fn process_outages(&mut self) {
        loop {
            let Some((crash, recover)) = self.faults.as_ref().and_then(|f| f.window) else {
                return;
            };
            if self.clock < crash {
                return;
            }
            if self.clock < recover {
                self.drain_for_requeue();
                self.clock = recover;
            }
            let faults = self.faults.as_mut().expect("window implies fault wiring");
            faults.window = faults.stream.next_window();
        }
    }

    /// Crash: every incomplete request — queued for admission, awaiting
    /// prefill, or mid-decode — is pulled back for the router to requeue
    /// with its original arrival time intact; partial decode progress is
    /// discarded. Completed history and cumulative counters survive; only
    /// in-flight state resets.
    fn drain_for_requeue(&mut self) {
        let mut lost: Vec<Request> = Vec::new();
        for &idx in &self.awaiting_prefill {
            lost.push(self.slots[idx as usize].request);
        }
        for due in &mut self.calendar {
            for idx in due.drain(..) {
                lost.push(self.slots[idx as usize].request);
            }
        }
        // Staged/parked preemption victims and the scheduler queue go back
        // to the router too (all empty under reserved-KV FIFO).
        for &idx in self
            .awaiting_swapin
            .iter()
            .chain(self.preempted.iter())
            .chain(self.swapped.iter())
        {
            lost.push(self.slots[idx as usize].request);
        }
        lost.extend(self.pending.iter().map(|&Reverse((_, i))| self.trace[i]));
        lost.extend_from_slice(&self.trace[self.admit_cursor..]);
        self.awaiting_prefill.clear();
        self.awaiting_swapin.clear();
        self.preempted.clear();
        self.swapped.clear();
        self.pending.clear();
        self.active.clear();
        self.pending_first.clear();
        self.slots.clear();
        self.free_slots.clear();
        self.decoding_count = 0;
        self.ctx_sum = 0;
        self.reserved = Bytes::ZERO;
        // A crash wipes the device: the block pool and every cached
        // prefix die with it.
        self.used_blocks = 0;
        for e in &mut self.prefix_cache {
            *e = PrefixEntry::default();
        }
        self.trace.to_mut().truncate(self.admit_cursor);
        self.eff.truncate(self.admit_cursor);
        self.arrived = self.admit_cursor;
        if lost.is_empty() {
            return;
        }
        lost.sort_by_key(|r| r.id);
        let at = self.clock;
        self.requeued.extend(lost.into_iter().map(|r| (r, at)));
    }

    /// One prefill iteration of slot `idx`; returns its duration. Prices
    /// `prefill_tokens` — the full prompt, except on a prefix-cache hit,
    /// where the resident blocks' tokens are skipped.
    fn prefill(&mut self, idx: u32) -> Result<f64, ServeError> {
        let (tp, precision) = {
            let c = self.instance.config();
            (c.tp, c.precision)
        };
        let tokens = self.slots[idx as usize].prefill_tokens;
        let cached = self.prefill_cache[tokens];
        let base = if cached.is_nan() {
            let computed = self
                .instance
                .estimator()
                .prefill_iteration(1, tokens, tp, precision)
                .map_err(|e| ServeError::Estimator(e.to_string()))?
                .secs();
            self.prefill_cache[tokens] = computed;
            computed
        } else {
            cached
        };
        // `slow_mult` is 1.0 on the fault-free path (bitwise identity).
        let dur = base * self.slow_mult;
        self.slots[idx as usize].prefill_dur_s = dur;
        // Join the decode batch: first token next decode epoch, completion
        // `output` epochs out.
        self.rejoin_decode(idx);
        self.prefill_iterations += 1;
        if self.paged {
            self.donate_prefix(idx);
        }
        Ok(dur)
    }

    /// After a cache-miss prefill of a prefix-carrying request, donates
    /// the prefix's full blocks to the cache — an ownership transfer, so
    /// pool occupancy does not change. If a sibling miss donated first
    /// while this request queued for its prefill, dedupe: free the
    /// duplicate blocks and borrow the resident entry instead.
    fn donate_prefix(&mut self, idx: u32) {
        let (prefix, had_shared, private) = {
            let s = &self.slots[idx as usize];
            (s.request.prefix, s.shared_blocks > 0, s.blocks)
        };
        let Some(p) = prefix else { return };
        if had_shared {
            return; // admitted through the resident entry: nothing to donate
        }
        let full = p.tokens / self.block_tokens;
        if full == 0 {
            return; // the prefix does not fill a single block
        }
        debug_assert!(private > full, "a prompt strictly outgrows its prefix");
        let iter = self.iteration;
        let e = &mut self.prefix_cache[p.id];
        if e.resident {
            // Double miss: keep the sibling's resident copy, free ours.
            e.refs += 1;
            e.last_use = iter;
            let shared = e.blocks;
            let s = &mut self.slots[idx as usize];
            s.shared_blocks = shared;
            s.blocks -= shared;
            self.used_blocks -= shared;
        } else {
            e.resident = true;
            e.blocks = full;
            e.refs = 1;
            e.last_use = iter;
            let s = &mut self.slots[idx as usize];
            s.shared_blocks = full;
            s.blocks -= full;
        }
    }

    /// One decode iteration of the whole running batch; returns its
    /// duration (which paged swap-out preemptions lengthen by their
    /// transfer time).
    fn decode(&mut self) -> Result<f64, ServeError> {
        let swap_out_s = if self.paged { self.grow_batch() } else { 0.0 };
        let batch = self.decoding_count;
        // A mixed batch is priced at its aggregate context: attention cost
        // is linear in total KV entries read, so batch × ⌈mean⌉ preserves
        // it while the GEMM terms see the true batch width.
        let kv_len = self.ctx_sum.div_ceil(batch);
        let base = match self.table {
            Some(t) => t.decode_iteration(batch, kv_len).secs(),
            None => match self.decode_cache.get(&(batch, kv_len)) {
                Some(&cached) => cached,
                None => {
                    let c = self.instance.config();
                    let computed = self
                        .instance
                        .estimator()
                        .decode_iteration(batch, kv_len, c.tp, c.precision)
                        .map_err(|e| ServeError::Estimator(e.to_string()))?
                        .secs();
                    self.decode_cache.insert((batch, kv_len), computed);
                    computed
                }
            },
        };
        let dur = base * self.slow_mult + swap_out_s;
        self.decode_iterations += 1;
        self.decode_batch_sum += batch;
        let end = self.clock + dur;
        self.decode_epoch += 1;
        // Every member generates one token.
        self.ctx_sum += batch;
        for idx in self.pending_first.drain(..) {
            self.slots[idx as usize].first_token_s = end;
        }
        // Requests whose token quota fills this epoch complete, in join
        // order.
        let due_slot = self.decode_epoch % self.calendar.len();
        let done = core::mem::take(&mut self.calendar[due_slot]);
        if self.paged && !done.is_empty() {
            self.active.retain(|x| !done.contains(x));
        }
        for idx in done {
            let slot = &self.slots[idx as usize];
            self.sink.complete(slot, end);
            self.reserved = self.reserved - slot.reserved;
            self.ctx_sum -= slot.request.prompt + slot.request.output;
            self.decoding_count -= 1;
            self.free_slots.push(idx);
            if self.paged {
                self.release_completed(idx);
            }
        }
        Ok(dur)
    }

    /// The paged decode's growth pass: every member whose next token
    /// crosses a block boundary gets one more block, preempting victims
    /// when the pool (after evicting idle prefixes) runs dry; survivors
    /// then advance one generated token. Returns the summed swap-out
    /// transfer seconds charged to this iteration (zero under
    /// recompute).
    fn grow_batch(&mut self) -> f64 {
        let mut swap_s = 0.0;
        let mut i = 0;
        while i < self.active.len() {
            let idx = self.active[i];
            let (held, ctx_next) = {
                let s = &self.slots[idx as usize];
                (
                    s.blocks + s.shared_blocks,
                    s.request.prompt + s.generated + 1,
                )
            };
            if self.instance.blocks_for(ctx_next) <= held {
                i += 1;
                continue;
            }
            if self.ensure_free(1) {
                self.alloc_blocks(1);
                self.slots[idx as usize].blocks += 1;
                i += 1;
                continue;
            }
            // Pool exhausted: preempt. Under priority-preempt the least
            // urgent member goes (highest priority value, latest-joined
            // among ties); otherwise the latest-joined outright — the
            // vLLM recompute order. The grower itself can be the pick;
            // a batch of one always gets its block (its own private and
            // shared blocks are the only pinned ones left), so the pass
            // terminates with at least one survivor.
            let victim = if self.scheduler == Scheduler::PriorityPreempt {
                (0..self.active.len())
                    .max_by_key(|&j| (self.slots[self.active[j] as usize].request.priority, j))
                    .expect("the growing member is active")
            } else {
                self.active.len() - 1
            };
            swap_s += self.preempt(victim);
            if victim < i {
                i -= 1; // the list shifted under the cursor
            }
            // Re-examine position i: either the same still-blocked grower
            // or, when the grower itself was evicted, its successor.
        }
        for &idx in &self.active {
            self.slots[idx as usize].generated += 1;
        }
        swap_s
    }

    /// Preempts the active member at position `pos`: its private blocks
    /// leave the device (freed under recompute, streamed to host under
    /// swap), its prefix reference drops, and it moves to the matching
    /// re-admission queue. Returns the swap-out seconds charged.
    fn preempt(&mut self, pos: usize) -> f64 {
        let idx = self.active.remove(pos);
        let (blocks, shared, ctx, due, prefix) = {
            let s = &mut self.slots[idx as usize];
            let out = (
                s.blocks,
                s.shared_blocks,
                s.request.prompt + s.generated,
                s.due_ring,
                s.request.prefix,
            );
            s.blocks = 0;
            s.shared_blocks = 0;
            out
        };
        self.used_blocks -= blocks;
        if shared > 0 {
            let p = prefix.expect("shared blocks imply a prefix");
            let e = &mut self.prefix_cache[p.id];
            debug_assert!(e.refs > 0, "prefix refs free exactly once");
            e.refs -= 1;
            e.last_use = self.iteration;
        }
        self.calendar[due].retain(|&x| x != idx);
        self.pending_first.retain(|&x| x != idx);
        self.decoding_count -= 1;
        self.ctx_sum -= ctx;
        self.preemptions += 1;
        match self.policy {
            PreemptPolicy::Recompute => {
                // Progress is discarded; the whole prompt re-prefills.
                self.slots[idx as usize].generated = 0;
                self.preempted.push_back(idx);
                0.0
            }
            PreemptPolicy::Swap => {
                self.swap_outs += 1;
                self.swap_bytes += self.instance.block_bytes() * blocks as f64;
                self.swapped.push_back(idx);
                self.instance.swap_seconds(blocks)
            }
        }
    }

    /// Returns a completed slot's blocks to the pool and drops its
    /// prefix reference. The prefix entry stays resident — that is the
    /// cache; it leaves only by eviction or a crash.
    fn release_completed(&mut self, idx: u32) {
        let (blocks, shared, prefix) = {
            let s = &mut self.slots[idx as usize];
            let out = (s.blocks, s.shared_blocks, s.request.prefix);
            s.blocks = 0;
            s.shared_blocks = 0;
            out
        };
        self.used_blocks -= blocks;
        if shared > 0 {
            let p = prefix.expect("shared blocks imply a prefix");
            let e = &mut self.prefix_cache[p.id];
            debug_assert!(e.refs > 0, "prefix refs free exactly once");
            e.refs -= 1;
            e.last_use = self.iteration;
        }
    }

    /// Drains every pushed request to completion and closes the
    /// queue-depth series at the engine's final clock.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Estimator`] when iteration pricing fails.
    pub(crate) fn finish(&mut self) -> Result<(), ServeError> {
        self.advance_to(f64::INFINITY)?;
        // The series must end at trace end: if the stride skipped the
        // final iteration, append the terminal (idle) observation.
        if self
            .raw_samples
            .last()
            .is_some_and(|s| s.at.secs() < self.clock)
        {
            self.raw_samples.push(QueueSample {
                at: Time::from_secs(self.clock),
                waiting: 0,
                decoding: 0,
            });
        }
        Ok(())
    }

    /// Consumes the engine into (requests ever assigned — requeues count
    /// each assignment, report inputs). Call after
    /// [`ReplicaEngine::finish`].
    pub(crate) fn into_parts(self) -> (usize, ReportInputs) {
        let paging = self.paged.then(|| PagingReport {
            block_tokens: self.block_tokens,
            total_blocks: self.total_blocks,
            peak_blocks: self.peak_blocks,
            peak_block_utilization: if self.total_blocks > 0 {
                self.peak_blocks as f64 / self.total_blocks as f64
            } else {
                0.0
            },
            preemptions: self.preemptions,
            swap_outs: self.swap_outs,
            swap_ins: self.swap_ins,
            swap_bytes: self.swap_bytes,
            prefix_hits: self.prefix_hits,
            prefix_misses: self.prefix_misses,
            prefix_evictions: self.prefix_evictions,
            cached_tokens_saved: self.cached_tokens_saved,
        });
        // Paged peak occupancy in bytes, so `KvUsage` stays comparable
        // across regimes.
        let kv_peak = if self.paged {
            self.instance.block_bytes() * self.peak_blocks as f64
        } else {
            self.kv_peak
        };
        (
            self.assigned,
            ReportInputs {
                sink: self.sink,
                rejected_ids: self.rejected_ids,
                makespan_s: self.clock,
                kv_peak,
                prefill_iterations: self.prefill_iterations,
                decode_iterations: self.decode_iterations,
                decode_batch_sum: self.decode_batch_sum,
                queue_area: self.queue_area,
                peak_waiting: self.peak_waiting,
                peak_decoding: self.peak_decoding,
                raw_samples: self.raw_samples,
                paging,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The pre-heap pick, kept as the oracle: a linear scan of the queue
    /// (held in enqueue order) for its *first* minimum.
    fn linear_pick(scheduler: Scheduler, queue: &VecDeque<Request>) -> Option<usize> {
        match scheduler {
            Scheduler::Fifo => unreachable!("FIFO admits from the cursor"),
            Scheduler::Priority | Scheduler::PriorityPreempt => {
                (0..queue.len()).min_by_key(|&i| queue[i].priority)
            }
            Scheduler::Sjf => (0..queue.len()).min_by_key(|&i| queue[i].prompt + queue[i].output),
        }
    }

    /// Random interleavings of enqueue, blocked peek, and admit over keys
    /// drawn from a handful of values (ties everywhere): the heap must
    /// pick exactly what the linear first-minimum scan picks, every time.
    #[test]
    fn heap_admission_order_matches_the_linear_first_minimum_scan() {
        for scheduler in [
            Scheduler::Sjf,
            Scheduler::Priority,
            Scheduler::PriorityPreempt,
        ] {
            for seed in 0..64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut trace: Vec<Request> = Vec::new();
                let mut heap = PendingHeap::new();
                let mut oracle: VecDeque<Request> = VecDeque::new();
                let mut admitted = 0;
                for step in 0..600 {
                    let roll = rng.gen_range(0.0f64..1.0);
                    if roll < 0.5 {
                        let mut r = Request::new(
                            trace.len(),
                            step as f64,
                            rng.gen_range(1..=4),
                            rng.gen_range(1..=3),
                        );
                        r.priority = rng.gen_range(0..3);
                        heap.push(Reverse((scheduler.queue_key(&r), trace.len())));
                        oracle.push_back(r);
                        trace.push(r);
                        continue;
                    }
                    let expected = linear_pick(scheduler, &oracle);
                    let peeked = heap.peek().map(|&Reverse((_, i))| i);
                    assert_eq!(
                        peeked.map(|i| trace[i].id),
                        expected.map(|pos| oracle[pos].id),
                        "{scheduler} seed {seed} step {step}: pick diverged"
                    );
                    if roll < 0.8 {
                        // Admitted: both queues drop the pick.
                        heap.pop();
                        if let Some(pos) = expected {
                            oracle.remove(pos);
                            admitted += 1;
                        }
                    } // else head-of-line blocked: the pick stays queued.
                }
                while let Some(Reverse((_, i))) = heap.pop() {
                    let pos = linear_pick(scheduler, &oracle).expect("same population");
                    assert_eq!(trace[i].id, oracle.remove(pos).unwrap().id);
                }
                assert!(oracle.is_empty() && admitted > 0);
            }
        }
    }

    /// Runs `trace` through one fresh engine on `instance`, either loaded
    /// in one borrow or pushed request by request (the pre-`load` batch
    /// path), and assembles the report with per-request records on.
    fn run_engine(
        instance: &ServeInstance<'_>,
        trace: &[Request],
        load: bool,
    ) -> crate::ServeReport {
        let bounds = TraceBounds::scan(instance, trace);
        let table = instance.pricing_table(trace.len(), &bounds).unwrap();
        let mut engine = ReplicaEngine::new(instance, table, &bounds, trace.len(), true, None);
        if load {
            engine.load(trace);
        } else {
            for r in trace {
                engine.push(*r);
            }
        }
        engine.finish().unwrap();
        let (routed, inputs) = engine.into_parts();
        instance.assemble_report(routed, inputs)
    }

    /// `load(trace)` must be exactly the old push-every-request loop:
    /// seeded, overloaded traces under reserved FIFO, paged SJF with
    /// shared prefixes, and priority-preempt, each priced exactly and
    /// through the sealed table, give identical reports.
    #[test]
    fn loading_a_trace_matches_pushing_every_request() {
        use crate::{ArrivalProcess, KvSpec, LengthDist, PrefixSpec, PricingMode, ServeConfig};
        use optimus_hw::presets;
        use optimus_model::presets as models;
        use std::sync::Arc;

        let cluster = presets::dgx_a100_hdr_cluster();
        let cases = [
            (ServeConfig::new(1), None, 1),
            (
                ServeConfig::new(1)
                    .with_kv(KvSpec::paged(16))
                    .with_scheduler(Scheduler::Sjf),
                Some(PrefixSpec {
                    pool: 4,
                    tokens: 64,
                    rate: 0.6,
                }),
                1,
            ),
            (
                ServeConfig::new(1)
                    .with_kv(KvSpec::paged(16))
                    .with_scheduler(Scheduler::PriorityPreempt),
                None,
                3,
            ),
        ];
        for (config, prefixes, priority_classes) in cases {
            for seed in [3, 11] {
                let trace = crate::TraceSpec {
                    seed,
                    requests: 300,
                    arrival: ArrivalProcess::Poisson { rate_per_s: 60.0 },
                    prompt: LengthDist::Uniform { lo: 200, hi: 2000 },
                    output: LengthDist::Uniform { lo: 50, hi: 600 },
                    prefixes,
                    priority_classes,
                }
                .generate();
                for pricing in [PricingMode::Exact, PricingMode::Sealed] {
                    let instance = ServeInstance::new(
                        &cluster,
                        Arc::new(models::llama2_13b()),
                        config.with_pricing(pricing),
                    )
                    .unwrap();
                    let loaded = run_engine(&instance, &trace, true);
                    let pushed = run_engine(&instance, &trace, false);
                    let label = format!("{} seed {seed} {pricing:?}", config.scheduler);
                    assert_eq!(loaded.completed + loaded.rejected, trace.len(), "{label}");
                    assert!(loaded.queue.peak_waiting > 0, "{label}: not overloaded");
                    if let Some(paging) = &loaded.paging {
                        assert!(
                            paging.preemptions > 0 || paging.prefix_hits > 0,
                            "{label}: neither preempts nor shares a prefix"
                        );
                    }
                    assert_eq!(
                        serde_json::to_string(&loaded).unwrap(),
                        serde_json::to_string(&pushed).unwrap(),
                        "{label}: load() diverged from pushing"
                    );
                }
            }
        }
    }
}
