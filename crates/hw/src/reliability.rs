//! Failure-process shapes shared by the training-resilience and
//! fleet-serving fault models.
//!
//! A [`FailureProcess`] describes *how* failures arrive; the mean time
//! between failures itself stays wherever it always lived (the
//! `mtbf_s` field of `optimus-train`'s `CheckpointSpec` and
//! `optimus-serve`'s `FaultSpec`). Three shapes cover the regimes the
//! RAPID-LLM fleet studies document:
//!
//! * [`FailureProcess::Exponential`] — the memoryless baseline. Every
//!   pre-existing code path (Young–Daly closed forms, the serving outage
//!   streams) is defined over this shape and stays byte-identical.
//! * [`FailureProcess::Weibull`] — shape `k` controls the hazard: `k < 1`
//!   models infant mortality (burn-in failures cluster early, the
//!   signature of freshly provisioned GPU fleets), `k > 1` wear-out, and
//!   `k = 1` reduces *exactly* to the exponential process (the reduction
//!   is special-cased so closed forms reproduce bit-for-bit). The
//!   min-stability property of the Weibull family gives the cluster-level
//!   first-failure time in closed form: the minimum of `n` iid
//!   `Weibull(k, λ)` lifetimes is `Weibull(k, λ / n^{1/k})`, so the
//!   cluster MTBF is `mtbf / n^{1/k}` — much worse than `mtbf / n` when
//!   `k < 1`, which is precisely why infant mortality reorders strategy
//!   frontiers at scale.
//! * [`FailureProcess::RackCorrelated`] — failures also arrive per *rack*
//!   (shared power feed, leaf switch), superimposed on the per-GPU
//!   process. Rates add: the cluster failure rate is
//!   `gpus / mtbf + racks / rack_mtbf`, and a rack event takes
//!   `gpus / racks` devices down together — the training-side analogue of
//!   the serving fleet's `FaultDomain` machinery, with the same
//!   "blast radius" consequences for elastic recovery.

use serde::{Deserialize, Serialize};

/// The inter-arrival shape of a failure process. See the module docs for
/// the modeling background of each variant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum FailureProcess {
    /// Memoryless exponential failures — the classic Young–Daly regime.
    #[default]
    Exponential,
    /// Weibull-shaped failures with shape parameter `k`.
    Weibull {
        /// The Weibull shape `k`: `< 1` infant mortality, `1` exponential
        /// (bit-exact), `> 1` wear-out.
        shape: f64,
    },
    /// Per-GPU exponential failures plus a correlated per-rack
    /// exponential process whose events take a whole rack down at once.
    RackCorrelated {
        /// Number of racks the job's GPUs are split across (contiguous,
        /// near-even — the same convention as the serving fleet's
        /// `--domains`).
        racks: usize,
        /// Mean seconds of rack uptime between shared outages.
        rack_mtbf_s: f64,
    },
}

impl FailureProcess {
    /// Whether this is the exponential shape — including the `k = 1`
    /// Weibull, which is the same distribution and must price through the
    /// same closed forms bit-exactly.
    #[must_use]
    pub fn is_exponential(&self) -> bool {
        match self {
            Self::Exponential => true,
            Self::Weibull { shape } => *shape == 1.0,
            Self::RackCorrelated { .. } => false,
        }
    }

    /// Validates the shape parameters.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when a parameter is out of range
    /// (non-positive or non-finite Weibull shape, zero racks, or a
    /// non-positive/non-finite rack MTBF).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Self::Exponential => Ok(()),
            Self::Weibull { shape } => {
                if shape.is_finite() && *shape > 0.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "Weibull shape must be positive and finite, got {shape}"
                    ))
                }
            }
            Self::RackCorrelated { racks, rack_mtbf_s } => {
                if *racks == 0 {
                    return Err("rack-correlated process needs at least 1 rack".to_owned());
                }
                if !(rack_mtbf_s.is_finite() && *rack_mtbf_s > 0.0) {
                    return Err(format!(
                        "rack MTBF must be positive and finite, got {rack_mtbf_s}"
                    ));
                }
                Ok(())
            }
        }
    }

    /// The cluster-level mean time between job-stopping failures for
    /// `gpus` devices whose individual mean lifetime is `mtbf_s`:
    ///
    /// * exponential — rates add: `mtbf / n`;
    /// * Weibull — min-stability: `mtbf / n^{1/k}` (the minimum of `n` iid
    ///   Weibull lifetimes is Weibull with the scale divided by
    ///   `n^{1/k}`, and the mean scales with the scale); `k = 1` takes the
    ///   exponential branch so the division is bit-identical;
    /// * rack-correlated — per-GPU and per-rack Poisson rates superpose:
    ///   `1 / (n / mtbf + racks / rack_mtbf)`.
    #[must_use]
    pub fn cluster_mtbf(&self, mtbf_s: f64, gpus: usize) -> f64 {
        let n = gpus as f64;
        match self {
            Self::Exponential => mtbf_s / n,
            Self::Weibull { shape } => {
                if *shape == 1.0 {
                    mtbf_s / n
                } else {
                    mtbf_s / n.powf(1.0 / shape)
                }
            }
            Self::RackCorrelated { racks, rack_mtbf_s } => {
                1.0 / (n / mtbf_s + *racks as f64 / rack_mtbf_s)
            }
        }
    }
}

impl core::fmt::Display for FailureProcess {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Exponential => write!(f, "exponential"),
            Self::Weibull { shape } => write!(f, "weibull(k={shape})"),
            Self::RackCorrelated { racks, rack_mtbf_s } => {
                write!(f, "{racks} rack(s) @ mtbf {rack_mtbf_s} s + per-GPU")
            }
        }
    }
}

/// Whether `value` equals its type's default — the
/// `#[serde(skip_serializing_if = "is_default")]` predicate of the
/// failure specs (`optimus-train`'s `CheckpointSpec`, `optimus-serve`'s
/// `FaultSpec`), whose optional extensions are omitted at their defaults.
#[must_use]
pub fn is_default<T: Default + PartialEq>(value: &T) -> bool {
    *value == T::default()
}

/// The splitmix64 finalizer: a cheap, high-quality 64-bit mixer used to
/// derive independent RNG streams from a base seed. Every seeded
/// simulation in the workspace (serving fault streams, training rework
/// sampling) mixes its stream constants through this same function so
/// streams stay decorrelated and reproducible across crates.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `ln Γ(x)` for `x > 0` via the Lanczos approximation (g = 7, n = 9
/// coefficients — ~15 significant digits over the range the failure
/// models use). Needed to convert a Weibull *mean* into its *scale*:
/// `mean = scale · Γ(1 + 1/k)`.
#[must_use]
pub fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x) Γ(1−x) = π / sin(πx).
        let pi = core::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * core::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The scale parameter of a Weibull distribution with the given mean and
/// shape: `scale = mean / Γ(1 + 1/k)`. For `k = 1` this is exactly the
/// mean (`Γ(2) = 1`; special-cased so no approximation error leaks in).
#[must_use]
pub fn weibull_scale(mean: f64, shape: f64) -> f64 {
    if shape == 1.0 {
        mean
    } else {
        mean / ln_gamma(1.0 + 1.0 / shape).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_and_unit_weibull_agree_bitwise() {
        let exp = FailureProcess::Exponential;
        let w1 = FailureProcess::Weibull { shape: 1.0 };
        for gpus in [1, 8, 64, 16_384] {
            assert_eq!(
                exp.cluster_mtbf(50_000.0 * 3600.0, gpus).to_bits(),
                w1.cluster_mtbf(50_000.0 * 3600.0, gpus).to_bits(),
                "k = 1 must take the exponential branch verbatim"
            );
        }
        assert!(w1.is_exponential());
    }

    #[test]
    fn infant_mortality_degrades_cluster_mtbf_superlinearly() {
        let exp = FailureProcess::Exponential;
        let infant = FailureProcess::Weibull { shape: 0.7 };
        let wearout = FailureProcess::Weibull { shape: 1.5 };
        let m = 1e8;
        assert!(infant.cluster_mtbf(m, 64) < exp.cluster_mtbf(m, 64));
        assert!(wearout.cluster_mtbf(m, 64) > exp.cluster_mtbf(m, 64));
        // Single GPU: shape is irrelevant to the mean.
        assert!((infant.cluster_mtbf(m, 1) - m).abs() < 1e-3);
    }

    #[test]
    fn rack_correlation_adds_rates() {
        let racks = FailureProcess::RackCorrelated {
            racks: 8,
            rack_mtbf_s: 1e6,
        };
        let m = racks.cluster_mtbf(1e8, 64);
        let expect = 1.0 / (64.0 / 1e8 + 8.0 / 1e6);
        assert!((m - expect).abs() < 1e-9);
        // Strictly worse than per-GPU failures alone.
        assert!(m < FailureProcess::Exponential.cluster_mtbf(1e8, 64));
    }

    #[test]
    fn validation_rejects_degenerate_shapes() {
        assert!(FailureProcess::Exponential.validate().is_ok());
        assert!(FailureProcess::Weibull { shape: 0.7 }.validate().is_ok());
        assert!(FailureProcess::Weibull { shape: 0.0 }.validate().is_err());
        assert!(FailureProcess::Weibull { shape: -1.0 }.validate().is_err());
        assert!(FailureProcess::Weibull {
            shape: f64::INFINITY
        }
        .validate()
        .is_err());
        assert!(FailureProcess::RackCorrelated {
            racks: 0,
            rack_mtbf_s: 1e6
        }
        .validate()
        .is_err());
        assert!(FailureProcess::RackCorrelated {
            racks: 4,
            rack_mtbf_s: 0.0
        }
        .validate()
        .is_err());
        assert!(FailureProcess::RackCorrelated {
            racks: 4,
            rack_mtbf_s: f64::INFINITY
        }
        .validate()
        .is_err());
    }

    #[test]
    fn lanczos_gamma_hits_known_values() {
        // Γ(1) = Γ(2) = 1, Γ(0.5) = √π, Γ(5) = 24.
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!(ln_gamma(2.0).abs() < 1e-12);
        assert!((ln_gamma(0.5) - core::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        // Weibull mean/scale relation: k = 2 ⇒ mean = scale·√π/2.
        let scale = weibull_scale(100.0, 2.0);
        assert!((scale * core::f64::consts::PI.sqrt() / 2.0 - 100.0).abs() < 1e-9);
        assert_eq!(weibull_scale(123.0, 1.0), 123.0);
    }
}
