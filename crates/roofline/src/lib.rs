//! Hierarchical roofline model with memory-subsystem-aware tiling.
//!
//! This crate is the per-device performance engine of the suite, following
//! the DeepFlow approach the paper builds on (§3.1): a GEMM is costed by
//!
//! 1. its **compute time** — FLOPs over peak throughput, derated by a
//!    calibrated peak fraction and the *tile-quantization* efficiency of the
//!    device's matmul tile;
//! 2. the **traffic time at every memory level** — the blocked-GEMM data
//!    volume that must cross each level boundary given tiles sized to the
//!    level's capacity, over the level's (utilization-derated) bandwidth.
//!
//! The kernel's time is the maximum of these, and the level that attains the
//! maximum classifies the kernel as *compute-bound* or *memory-bound at
//! level X* — the classification behind the paper's Table 4, Fig. 7, and
//! Fig. 8. GEMV kernels (the auto-regressive decode regime) fall out of the
//! same model: their DRAM traffic is small, so the size-dependent DRAM
//! utilization factor (§4.1) derates the achievable bandwidth exactly as the
//! paper's clustered factors do.
//!
//! A [`KernelCost`] is a plain `Copy` value with its per-level rows held
//! inline ([`LevelTimes`]): it carries no label, since callers already
//! know which operator they costed, so pricing a kernel allocates nothing.
//!
//! ```
//! use optimus_hw::{presets, Precision};
//! use optimus_roofline::{GemmShape, RooflineModel};
//!
//! let a100 = presets::a100_sxm_80gb();
//! let model = RooflineModel::new(&a100);
//! // A fat training GEMM is compute-bound on A100...
//! let fat = model.gemm(GemmShape::new(4096, 4096, 4096), Precision::Fp16).unwrap();
//! assert!(fat.bound().is_compute());
//! // ...while a skinny decode GEMV is DRAM-bound.
//! let skinny = model.gemm(GemmShape::new(1, 4096, 4096), Precision::Fp16).unwrap();
//! assert!(skinny.bound().is_memory());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod eltwise;
mod gemm;
mod shape;
mod tiling;

pub use cost::{BoundType, KernelCost, LevelTimes};
pub use eltwise::{EltwiseKind, EltwiseOp};
pub use gemm::{RooflineConfig, RooflineModel};
pub use shape::{BatchedGemm, GemmShape};
pub use tiling::{blocked_traffic, choose_tile, Tile};
