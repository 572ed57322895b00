//! FlashAttention kernel description.
//!
//! FlashAttention (§1.1 of the paper) restructures attention so the
//! `s × s` score/probability matrices never touch DRAM: K/V tiles stream
//! through on-chip memory while softmax is computed incrementally,
//! trading extra FLOPs (online rescaling, backward recomputation) for an
//! `O(s²)`-to-`O(s)` reduction in off-chip traffic. This module describes
//! that fused kernel analytically so the roofline engine can cost it via
//! [`RooflineModel::custom_kernel`].
//!
//! [`RooflineModel::custom_kernel`]: optimus_roofline::RooflineModel::custom_kernel

use optimus_hw::MemoryLevelKind;
use optimus_units::{Bytes, FlopCount};
use serde::{Deserialize, Serialize};

/// Query-block rows processed per streaming pass (the `B_r` tile of the
/// FlashAttention schedule); sets how often K/V re-stream through L2.
const Q_BLOCK_ROWS: f64 = 128.0;

/// One fused attention kernel over a batch of independent (sample,
/// kv-group) instances.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlashAttentionOp {
    /// Independent instances: `batch × kv_groups_per_rank`.
    pub batch: usize,
    /// Query rows per instance (`(heads/groups) · seq`).
    pub q_rows: usize,
    /// Keys/values attended over.
    pub kv_len: usize,
    /// Head dimension.
    pub head_dim: usize,
    /// Element width in bytes.
    pub bytes_per_elem: f64,
    /// Work multiplier: 1.0 for the forward kernel; ~2.5 for the backward
    /// kernel (dQ/dK/dV plus the internal recomputation of the scores).
    pub passes: f64,
}

impl FlashAttentionOp {
    /// Creates a forward kernel.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn forward(
        batch: usize,
        q_rows: usize,
        kv_len: usize,
        head_dim: usize,
        bytes_per_elem: f64,
    ) -> Self {
        assert!(
            batch > 0 && q_rows > 0 && kv_len > 0 && head_dim > 0,
            "degenerate attention shape"
        );
        assert!(bytes_per_elem > 0.0, "element width must be positive");
        Self {
            batch,
            q_rows,
            kv_len,
            head_dim,
            bytes_per_elem,
            passes: 1.0,
        }
    }

    /// The backward kernel of this forward kernel.
    #[must_use]
    pub fn backward(&self) -> Self {
        Self {
            passes: 2.5,
            ..*self
        }
    }

    /// Arithmetic work: the two GEMM halves (`Q·Kᵀ` and `P·V`) plus the
    /// online-softmax arithmetic, times the pass multiplier.
    #[must_use]
    pub fn flops(&self) -> FlopCount {
        let b = self.batch as f64;
        let q = self.q_rows as f64;
        let kv = self.kv_len as f64;
        let d = self.head_dim as f64;
        let gemms = 2.0 * 2.0 * q * kv * d; // scores + context
        let softmax = 10.0 * q * kv; // online max/sum/rescale
        FlopCount::new(self.passes * b * (gemms + softmax))
    }

    /// Off-chip traffic: Q and O cross DRAM once, K and V once — **no**
    /// `s × s` intermediate (the whole point of the kernel). Backward
    /// passes re-read the forward tensors and write the three gradients.
    #[must_use]
    pub fn dram_traffic(&self) -> Bytes {
        let b = self.batch as f64;
        let q_io = 2.0 * self.q_rows as f64 * self.head_dim as f64; // Q read + O write
        let kv_io = 2.0 * self.kv_len as f64 * self.head_dim as f64; // K + V read
        Bytes::new(self.passes * b * (q_io + kv_io) * self.bytes_per_elem)
    }

    /// On-chip (L2 → SM) traffic: K/V re-stream once per query block.
    #[must_use]
    pub fn l2_traffic(&self) -> Bytes {
        let b = self.batch as f64;
        let q_blocks = (self.q_rows as f64 / Q_BLOCK_ROWS).ceil();
        let kv_stream = 2.0 * self.kv_len as f64 * self.head_dim as f64;
        Bytes::new(self.passes * b * q_blocks * kv_stream * self.bytes_per_elem)
    }

    /// The `(level, volume)` pairs consumed by
    /// [`optimus_roofline::RooflineModel::custom_kernel`], inner → outer.
    #[must_use]
    pub fn traffic(&self) -> [(MemoryLevelKind, Bytes); 2] {
        [
            (MemoryLevelKind::L2, self.l2_traffic()),
            (MemoryLevelKind::Dram, self.dram_traffic()),
        ]
    }
}

impl core::fmt::Display for FlashAttentionOp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "flash-attention {}x[{}x{}x{}]",
            self.batch, self.q_rows, self.kv_len, self.head_dim
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op() -> FlashAttentionOp {
        // GPT-2-ish: 12 heads of 64, seq 2048.
        FlashAttentionOp::forward(12, 2048, 2048, 64, 2.0)
    }

    #[test]
    fn flops_match_two_gemms_plus_softmax() {
        let f = op().flops().get();
        let gemms = 12.0 * 4.0 * 2048.0 * 2048.0 * 64.0;
        let softmax = 12.0 * 10.0 * 2048.0 * 2048.0;
        assert!((f - gemms - softmax).abs() < 1.0);
    }

    #[test]
    fn dram_traffic_is_linear_in_seq() {
        // Standard attention materializes s² probabilities; flash is O(s).
        let short = FlashAttentionOp::forward(12, 1024, 1024, 64, 2.0).dram_traffic();
        let long = FlashAttentionOp::forward(12, 4096, 4096, 64, 2.0).dram_traffic();
        assert!((long.bytes() / short.bytes() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn backward_costs_more() {
        let fwd = op();
        let bwd = fwd.backward();
        assert!(bwd.flops() > fwd.flops() * 2.0);
        assert!(bwd.dram_traffic() > fwd.dram_traffic() * 2.0);
    }

    #[test]
    fn l2_restreams_kv_per_query_block() {
        let o = op();
        let blocks = (2048.0f64 / 128.0).ceil();
        let expected = 12.0 * blocks * 2.0 * 2048.0 * 64.0 * 2.0;
        assert!((o.l2_traffic().bytes() - expected).abs() < 1.0);
    }
}
