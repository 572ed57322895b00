//! The sealed, immutable decode-cost table.
//!
//! The memoized [`crate::PreparedInferenceEstimator`] prices a decode
//! iteration with two `RwLock<HashMap>` lookups plus a fresh
//! communication plan per call — fine for a strategy sweep's thousands of
//! evaluations, hostile to a serving simulator's millions. A
//! [`DecodeCostTable`] trades a one-time fill for a zero-locking,
//! zero-hashing inner loop: decode iteration costs are precomputed for
//! one `(tp, precision)` pair over a quantized `(batch, kv-context)`
//! grid, and a lookup is two array indexations.
//!
//! The grid is **exact** for small coordinates (every batch up to
//! [`LogGrid::exact`], every context up to the same bound for its axis)
//! and **log-scale bucketed** beyond, with each query rounded **up** to
//! its bucket representative — more load never prices cheaper. On the
//! exact region the table is bit-identical to
//! [`crate::PreparedInferenceEstimator::decode_iteration`]; on the
//! bucketed region it overstates the cost by at most one bucket ratio
//! (`2^(1/per_octave)`, ≈4.4% at the default 16 buckets per octave).
//!
//! The fill is row-factored: under decode only the attention core reads
//! the context, so each batch row costs a layer's operators once and
//! every further context column re-costs only the operators that differ
//! (see [`crate::PreparedInferenceEstimator::seal_decode_costs`]). Every
//! representative of the grid, bucketed ones included, is bit-identical
//! to the memoized path at that representative.

use optimus_units::Time;

/// Exact coverage of the default decode-table batch axis.
pub const BATCH_EXACT: usize = 64;
/// Exact coverage of the default decode-table kv-context axis.
pub const KV_EXACT: usize = 256;
/// Log-scale resolution beyond the exact region: buckets per doubling.
pub const BUCKETS_PER_OCTAVE: usize = 16;

/// A monotone quantization grid over positive integers: every value up to
/// `exact` maps to itself; beyond, values collapse onto logarithmically
/// spaced bucket representatives (rounding **up**), `per_octave` buckets
/// per doubling, capped at `max`.
#[derive(Debug, Clone)]
pub struct LogGrid {
    exact: usize,
    per_octave: usize,
    /// Sorted, deduplicated representative values; `values[i]` is the
    /// smallest representative ≥ any query mapping to index `i`.
    values: Vec<usize>,
}

impl LogGrid {
    /// Builds the grid covering `1..=max`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    #[must_use]
    pub fn new(exact: usize, per_octave: usize, max: usize) -> Self {
        assert!(
            exact > 0 && per_octave > 0 && max > 0,
            "degenerate grid parameters"
        );
        let mut values: Vec<usize> = (1..=exact.min(max)).collect();
        let mut bucket = 1u32;
        while *values.last().expect("non-empty") < max {
            // Representative of bucket `b`: ⌈exact · 2^(b/per_octave)⌉,
            // strictly increasing and capped at `max`.
            let scale = 2f64.powf(f64::from(bucket) / per_octave as f64);
            let v = ((exact as f64 * scale).ceil() as usize).min(max);
            if v > *values.last().expect("non-empty") {
                values.push(v);
            }
            bucket += 1;
        }
        Self {
            exact,
            per_octave,
            values,
        }
    }

    /// Number of representatives (the table dimension along this axis).
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the grid is empty (never: the grid always covers 1).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Largest value the grid covers.
    #[must_use]
    pub fn max(&self) -> usize {
        *self.values.last().expect("grid is never empty")
    }

    /// The exact-coverage bound of this grid.
    #[must_use]
    pub fn exact(&self) -> usize {
        self.exact
    }

    /// Buckets per doubling beyond the exact region.
    #[must_use]
    pub fn per_octave(&self) -> usize {
        self.per_octave
    }

    /// The representative values in ascending order.
    #[must_use]
    pub fn values(&self) -> &[usize] {
        &self.values
    }

    /// Index of the bucket holding `value` (rounding up; values above the
    /// cap clamp to the last bucket). The exact region is an identity
    /// lookup; the bucketed region is a branch-predictable binary search
    /// over at most a few hundred representatives — no hashing, no locks.
    ///
    /// # Panics
    ///
    /// Panics if `value` is zero.
    #[must_use]
    pub fn index_of(&self, value: usize) -> usize {
        assert!(value > 0, "grid values are positive");
        if value <= self.exact {
            return (value - 1).min(self.values.len() - 1);
        }
        // First representative ≥ value (round up); clamp above the cap.
        self.values
            .partition_point(|&v| v < value)
            .min(self.values.len() - 1)
    }

    /// The bucket representative `value` rounds up to.
    #[must_use]
    pub fn round_up(&self, value: usize) -> usize {
        self.values[self.index_of(value)]
    }
}

/// A sealed decode-iteration cost table for one `(tp, precision)` serving
/// strategy: `cost[batch][kv]` over the quantized grids, immutable after
/// construction, safe to share across threads by reference with zero
/// synchronization. Built by
/// [`crate::PreparedInferenceEstimator::seal_decode_costs`].
#[derive(Debug, Clone)]
pub struct DecodeCostTable {
    pub(crate) batch_grid: LogGrid,
    pub(crate) kv_grid: LogGrid,
    /// Seconds, batch-major: `costs[bi * kv_grid.len() + ki]`.
    pub(crate) costs: Vec<f64>,
}

impl DecodeCostTable {
    /// Wall-clock time of one decode iteration of `batch` requests at
    /// aggregate context `kv_len`, both rounded up to their bucket
    /// representatives (and clamped to the table's ceilings). Lock-free
    /// and hash-free: two grid indexations and one array read.
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `kv_len` is zero.
    #[must_use]
    pub fn decode_iteration(&self, batch: usize, kv_len: usize) -> Time {
        let bi = self.batch_grid.index_of(batch);
        let ki = self.kv_grid.index_of(kv_len);
        Time::from_secs(self.costs[bi * self.kv_grid.len() + ki])
    }

    /// Number of precomputed entries.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.costs.len()
    }

    /// The batch-axis grid.
    #[must_use]
    pub fn batch_grid(&self) -> &LogGrid {
        &self.batch_grid
    }

    /// The kv-context-axis grid.
    #[must_use]
    pub fn kv_grid(&self) -> &LogGrid {
        &self.kv_grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_exact_below_the_threshold() {
        let g = LogGrid::new(64, 16, 4096);
        for v in 1..=64 {
            assert_eq!(g.index_of(v), v - 1);
            assert_eq!(g.round_up(v), v);
        }
    }

    #[test]
    fn grid_rounds_up_and_is_monotone() {
        let g = LogGrid::new(64, 16, 4096);
        let mut last = 0;
        for v in 1..=4096 {
            let r = g.round_up(v);
            assert!(r >= v, "{v} rounded down to {r}");
            assert!(r >= last, "round_up must be monotone");
            // Bucket ratio bound: representative within one bucket step.
            assert!(
                (r as f64) < (v as f64) * 2f64.powf(1.0 / 16.0) + 1.0,
                "{v} rounded too far up to {r}"
            );
            last = r;
        }
    }

    #[test]
    fn grid_clamps_above_the_cap() {
        let g = LogGrid::new(8, 4, 100);
        assert_eq!(g.round_up(100), 100);
        assert_eq!(g.round_up(10_000), 100);
        assert_eq!(g.max(), 100);
    }

    #[test]
    fn grid_representatives_are_their_own_buckets() {
        let g = LogGrid::new(16, 8, 2048);
        for (i, &v) in g.values().iter().enumerate() {
            assert_eq!(g.index_of(v), i, "representative {v} must index itself");
        }
    }

    #[test]
    fn grid_is_logarithmically_small() {
        let g = LogGrid::new(64, 16, 1_000_000);
        // 64 exact + ~16·log2(1e6/64) ≈ 64 + 223 buckets.
        assert!(g.len() < 300, "grid blew up: {} entries", g.len());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_queries_are_rejected() {
        let _ = LogGrid::new(8, 4, 100).index_of(0);
    }
}
