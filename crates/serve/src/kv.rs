//! Block-granular (paged) KV-cache policy and scheduling knobs.
//!
//! Real continuous-batching servers abandoned whole-lifetime KV
//! reservation for vLLM-style paging: a request holds ⌈ctx/block⌉
//! fixed-size blocks that grow as it decodes, admission checks *free
//! blocks* against the prompt instead of the full prompt+output
//! reservation, and a decode step that finds the pool exhausted preempts
//! a victim — recomputing its discarded progress later, or swapping its
//! blocks out over the node-egress link and back. [`KvSpec`] selects the
//! regime per [`crate::ServeConfig`]; the degenerate
//! [`KvSpec::reserved`] keeps the legacy full-reservation path
//! bit-identical to a build without paging at all (the same pinning
//! discipline as [`crate::FaultSpec::none`]).
//!
//! Paging is what makes shared-prefix traces interesting: full blocks of
//! a cached prefix are held once and reference-counted across every
//! request that carries the prefix, so cache hits skip most of their
//! prefill and admit under a fraction of their nominal footprint.
//! [`crate::PrefixSpec`] generates such traces; [`PagingReport`] accounts
//! for hits, evictions, preemptions, and swap traffic.

use serde::{Deserialize, Serialize};

/// What happens to the preemption victim when a decode step cannot get a
/// free block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub enum PreemptPolicy {
    /// Discard the victim's generated tokens and its blocks; the request
    /// re-enters the admission queue (ahead of new arrivals) and
    /// re-prefills its whole prompt when space frees up. Costs recompute
    /// iterations, no transfer traffic.
    #[default]
    Recompute,
    /// Move the victim's blocks to host memory over the node-egress link
    /// and keep its progress; resuming swaps the blocks back in. Both
    /// directions are priced at the link's size-derated effective
    /// bandwidth, the same egress model checkpoint writes use.
    Swap,
}

impl core::fmt::Display for PreemptPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Recompute => write!(f, "recompute"),
            Self::Swap => write!(f, "swap"),
        }
    }
}

/// The KV-cache memory regime of one serving replica.
///
/// `block_tokens == 0` is the **reserved** (legacy) regime: a request
/// reserves its full prompt+output KV at admission and releases it at
/// completion, so decode-time OOM is impossible by construction. Any
/// positive `block_tokens` is the **paged** regime described in the
/// module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct KvSpec {
    /// Tokens per KV block; `0` selects the legacy whole-lifetime
    /// reservation.
    pub block_tokens: usize,
    /// Victim handling on decode-time OOM (paged regime only).
    pub policy: PreemptPolicy,
}

impl Default for KvSpec {
    fn default() -> Self {
        Self::reserved()
    }
}

impl KvSpec {
    /// The legacy whole-lifetime reservation regime (bit-identical to the
    /// simulator before paging existed).
    #[must_use]
    pub fn reserved() -> Self {
        Self {
            block_tokens: 0,
            policy: PreemptPolicy::Recompute,
        }
    }

    /// Paged KV with `block_tokens`-token blocks and recompute
    /// preemption.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` is zero (that spelling is
    /// [`KvSpec::reserved`]).
    #[must_use]
    pub fn paged(block_tokens: usize) -> Self {
        assert!(block_tokens > 0, "paged KV needs a positive block size");
        Self {
            block_tokens,
            policy: PreemptPolicy::Recompute,
        }
    }

    /// Sets the preemption policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PreemptPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Whether this is the legacy full-reservation regime.
    #[must_use]
    pub fn is_reserved(&self) -> bool {
        self.block_tokens == 0
    }
}

impl core::fmt::Display for KvSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_reserved() {
            write!(f, "reserved")
        } else {
            write!(f, "paged({} tok/block, {})", self.block_tokens, self.policy)
        }
    }
}

/// How the admission queue is ordered.
///
/// Every scheduler keeps head-of-line blocking: the *picked* request
/// either admits or the queue waits — a lower-ranked request never
/// admits past a blocked pick. FIFO's pick is simply the oldest arrival,
/// read in place at the engine's admission cursor. The reordering
/// schedulers keep their queue as a min-heap on (rank, arrival order) —
/// the rank is the priority class or `prompt + output`: the pick is an
/// O(1) peek and an admission an O(log n) pop, and ties on the rank go
/// to the earliest-queued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub enum Scheduler {
    /// Earliest arrival first — the legacy (and vLLM default) order.
    #[default]
    Fifo,
    /// Most urgent [`crate::Request::priority`] class first (lower value
    /// = more urgent); FIFO within a class.
    Priority,
    /// Shortest predicted job first: smallest prompt+output first (the
    /// trace's output length stands in for a perfect job-size
    /// predictor); FIFO among ties.
    Sjf,
    /// [`Scheduler::Priority`] admission, and decode-time OOM preempts
    /// the *least* urgent running request instead of the latest-admitted
    /// one. Requires a paged [`KvSpec`] — under full reservation there is
    /// nothing to preempt.
    PriorityPreempt,
}

impl core::fmt::Display for Scheduler {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Fifo => write!(f, "fifo"),
            Self::Priority => write!(f, "priority"),
            Self::Sjf => write!(f, "sjf"),
            Self::PriorityPreempt => write!(f, "priority-preempt"),
        }
    }
}

impl Scheduler {
    /// Whether the scheduler ranks by [`crate::Request::priority`].
    #[must_use]
    pub fn is_priority_aware(&self) -> bool {
        matches!(self, Self::Priority | Self::PriorityPreempt)
    }

    /// The admission rank of `request` — smaller admits first: its
    /// priority class for the priority schedulers, `prompt + output` for
    /// SJF. FIFO ranks by arrival alone, so every request keys `0`.
    pub(crate) fn queue_key(self, request: &crate::Request) -> usize {
        match self {
            Self::Fifo => 0,
            Self::Priority | Self::PriorityPreempt => usize::from(request.priority),
            Self::Sjf => request.prompt + request.output,
        }
    }
}

/// Paged-KV accounting of one run: block occupancy, prefix-cache
/// effectiveness, and preemption traffic. Present in a
/// [`crate::ServeReport`] exactly when the replica ran a paged
/// [`KvSpec`]; reserved-mode reports omit the field entirely (not
/// `null`), keeping them byte-identical to pre-paging reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct PagingReport {
    /// Tokens per KV block.
    pub block_tokens: usize,
    /// Device block pool: ⌊KV budget / block bytes⌋.
    pub total_blocks: usize,
    /// Peak blocks in use (private + refcounted prefix blocks).
    pub peak_blocks: usize,
    /// `peak_blocks / total_blocks`.
    pub peak_block_utilization: f64,
    /// Decode-time OOM preemptions (recompute and swap victims alike).
    pub preemptions: usize,
    /// Victims swapped out to host (0 under recompute).
    pub swap_outs: usize,
    /// Swapped victims restored to the device (0 under recompute).
    pub swap_ins: usize,
    /// Bytes moved over the egress link by swaps, both directions.
    pub swap_bytes: optimus_units::Bytes,
    /// Admissions that found their shared prefix resident.
    pub prefix_hits: usize,
    /// Admissions that carried a prefix but found it absent.
    pub prefix_misses: usize,
    /// Resident prefix entries evicted to free blocks.
    pub prefix_evictions: usize,
    /// Prompt tokens whose prefill was skipped by prefix hits.
    pub cached_tokens_saved: usize,
}

impl PagingReport {
    /// Element-wise merge for fleet aggregation: pool geometry is shared
    /// (replicas are identical), occupancy takes the worst replica,
    /// event counters and traffic sum.
    #[must_use]
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            block_tokens: self.block_tokens,
            total_blocks: self.total_blocks,
            peak_blocks: self.peak_blocks.max(other.peak_blocks),
            peak_block_utilization: self
                .peak_block_utilization
                .max(other.peak_block_utilization),
            preemptions: self.preemptions + other.preemptions,
            swap_outs: self.swap_outs + other.swap_outs,
            swap_ins: self.swap_ins + other.swap_ins,
            swap_bytes: self.swap_bytes + other.swap_bytes,
            prefix_hits: self.prefix_hits + other.prefix_hits,
            prefix_misses: self.prefix_misses + other.prefix_misses,
            prefix_evictions: self.prefix_evictions + other.prefix_evictions,
            cached_tokens_saved: self.cached_tokens_saved + other.cached_tokens_saved,
        }
    }
}

impl core::fmt::Display for PagingReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "blocks {}/{} peak ({:.1}%, {} tok/block), {} preemptions \
             ({} swap-out / {} swap-in, {}), prefix {} hit / {} miss / {} evicted \
             ({} tokens of prefill skipped)",
            self.peak_blocks,
            self.total_blocks,
            self.peak_block_utilization * 100.0,
            self.block_tokens,
            self.preemptions,
            self.swap_outs,
            self.swap_ins,
            self.swap_bytes,
            self.prefix_hits,
            self.prefix_misses,
            self.prefix_evictions,
            self.cached_tokens_saved,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_is_the_default_and_degenerate() {
        assert_eq!(KvSpec::default(), KvSpec::reserved());
        assert!(KvSpec::reserved().is_reserved());
        assert!(!KvSpec::paged(16).is_reserved());
        assert_eq!(KvSpec::reserved().to_string(), "reserved");
        assert_eq!(
            KvSpec::paged(16)
                .with_policy(PreemptPolicy::Swap)
                .to_string(),
            "paged(16 tok/block, swap)"
        );
    }

    #[test]
    #[should_panic(expected = "positive block size")]
    fn zero_block_paged_is_rejected() {
        let _ = KvSpec::paged(0);
    }

    #[test]
    fn merged_aggregates_counters_and_maxes_occupancy() {
        let a = PagingReport {
            block_tokens: 16,
            total_blocks: 100,
            peak_blocks: 40,
            peak_block_utilization: 0.4,
            preemptions: 2,
            prefix_hits: 3,
            ..PagingReport::default()
        };
        let b = PagingReport {
            block_tokens: 16,
            total_blocks: 100,
            peak_blocks: 70,
            peak_block_utilization: 0.7,
            preemptions: 1,
            prefix_hits: 5,
            ..PagingReport::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.peak_blocks, 70);
        assert_eq!(m.preemptions, 3);
        assert_eq!(m.prefix_hits, 8);
        assert_eq!(m.total_blocks, 100);
    }
}
