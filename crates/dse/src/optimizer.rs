//! DSE optimizers: projected gradient descent plus baselines.

use crate::SearchSpace;
use optimus_tech::Allocation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One evaluated design point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DsePoint {
    /// The allocation evaluated.
    pub allocation: Allocation,
    /// Objective value (predicted execution time, seconds).
    pub objective: f64,
}

/// The outcome of a DSE run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseResult {
    /// The best point found.
    pub best: DsePoint,
    /// Every accepted iterate, in order (for convergence plots).
    pub history: Vec<DsePoint>,
    /// Objective calls the optimizer actually made. Gradient descent
    /// probes four points per gradient and one per step, but reuses its
    /// gradient across rejected steps and may stop early, so it can
    /// spend fewer than `1 + 5 × iterations`.
    pub evaluations: usize,
}

/// Projected finite-difference gradient descent — the paper's search
/// algorithm (§3.6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GradientDescent {
    /// Maximum descent iterations.
    pub iterations: usize,
    /// Initial step size in fraction units.
    pub learning_rate: f64,
    /// Finite-difference probe width.
    pub probe: f64,
}

impl Default for GradientDescent {
    fn default() -> Self {
        Self {
            iterations: 60,
            learning_rate: 0.08,
            probe: 1e-3,
        }
    }
}

/// Implements the [`crate::Objective`]-driven entry point — the same
/// evaluation interface the strategy sweep in `optimus-sweep` uses — for
/// each optimizer, bridging to its closure-based `minimize`.
macro_rules! impl_minimize_objective {
    ($($optimizer:ty),*) => {$(
        impl $optimizer {
            /// Minimizes a shared [`crate::Objective`] over `space`.
            pub fn minimize_objective<O: crate::Objective<Allocation>>(
                &self,
                space: &SearchSpace,
                objective: &O,
            ) -> DseResult {
                self.minimize(space, |a| objective.evaluate(&a))
            }
        }
    )*};
}

impl_minimize_objective!(GradientDescent, RandomSearch, GridSearch);

impl GradientDescent {
    /// Minimizes `objective` over `space`, starting from the centroid.
    ///
    /// The step size halves whenever a step fails to improve, giving the
    /// usual robust backtracking behaviour on noisy analytical objectives.
    /// A rejected step leaves the iterate where it was, so the next
    /// iteration reuses the gradient instead of re-probing the same four
    /// points: `objective` must be a pure function of the allocation.
    pub fn minimize<F>(&self, space: &SearchSpace, mut objective: F) -> DseResult
    where
        F: FnMut(Allocation) -> f64,
    {
        let mut evals = 0;
        let mut eval = |a: Allocation, evals: &mut usize| {
            *evals += 1;
            objective(a)
        };

        let mut current = space.center();
        let mut current_val = eval(current, &mut evals);
        let mut history = vec![DsePoint {
            allocation: current,
            objective: current_val,
        }];
        let mut lr = self.learning_rate;
        // The central-difference gradient at `current`, until it moves.
        let mut gradient: Option<(f64, f64)> = None;

        for _ in 0..self.iterations {
            let (c, s) = (current.compute.get(), current.sram.get());
            let (g_c, g_s) = *gradient.get_or_insert_with(|| {
                // Central differences on both coordinates (projected).
                let g_c = (eval(space.project(c + self.probe, s), &mut evals)
                    - eval(space.project(c - self.probe, s), &mut evals))
                    / (2.0 * self.probe);
                let g_s = (eval(space.project(c, s + self.probe), &mut evals)
                    - eval(space.project(c, s - self.probe), &mut evals))
                    / (2.0 * self.probe);
                (g_c, g_s)
            });

            let norm = (g_c * g_c + g_s * g_s).sqrt();
            if norm < 1e-12 || lr < 1e-5 {
                break;
            }
            let candidate = space.project(c - lr * g_c / norm, s - lr * g_s / norm);
            let candidate_val = eval(candidate, &mut evals);
            if candidate_val < current_val {
                current = candidate;
                current_val = candidate_val;
                gradient = None;
                history.push(DsePoint {
                    allocation: current,
                    objective: current_val,
                });
            } else {
                lr *= 0.5;
            }
        }

        DseResult {
            best: DsePoint {
                allocation: current,
                objective: current_val,
            },
            history,
            evaluations: evals,
        }
    }
}

/// Uniform random sampling baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RandomSearch {
    /// Number of samples.
    pub samples: usize,
    /// RNG seed (runs are deterministic).
    pub seed: u64,
}

impl Default for RandomSearch {
    fn default() -> Self {
        Self {
            samples: 200,
            seed: 0x5eed_0717,
        }
    }
}

impl RandomSearch {
    /// Minimizes `objective` by uniform sampling of the feasible region.
    pub fn minimize<F>(&self, space: &SearchSpace, mut objective: F) -> DseResult
    where
        F: FnMut(Allocation) -> f64,
    {
        assert!(self.samples > 0, "need at least one sample");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut best: Option<DsePoint> = None;
        let mut history = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let c = rng.gen_range(space.compute.0..=space.compute.1);
            let s = rng.gen_range(space.sram.0..=space.sram.1);
            let allocation = space.project(c, s);
            let objective_val = objective(allocation);
            let point = DsePoint {
                allocation,
                objective: objective_val,
            };
            if best.is_none_or(|b| objective_val < b.objective) {
                best = Some(point);
                history.push(point);
            }
        }
        DseResult {
            best: best.expect("samples > 0"),
            history,
            evaluations: self.samples,
        }
    }
}

/// Exhaustive grid baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridSearch {
    /// Grid points per dimension.
    pub resolution: usize,
}

impl Default for GridSearch {
    fn default() -> Self {
        Self { resolution: 16 }
    }
}

impl GridSearch {
    /// Minimizes `objective` over a `resolution × resolution` grid.
    pub fn minimize<F>(&self, space: &SearchSpace, mut objective: F) -> DseResult
    where
        F: FnMut(Allocation) -> f64,
    {
        assert!(
            self.resolution >= 2,
            "grid needs at least 2 points per axis"
        );
        let mut best: Option<DsePoint> = None;
        let mut history = Vec::new();
        let n = self.resolution;
        let mut evals = 0;
        for i in 0..n {
            for j in 0..n {
                let c = space.compute.0
                    + (space.compute.1 - space.compute.0) * i as f64 / (n - 1) as f64;
                let s = space.sram.0 + (space.sram.1 - space.sram.0) * j as f64 / (n - 1) as f64;
                let allocation = space.project(c, s);
                let objective_val = objective(allocation);
                evals += 1;
                let point = DsePoint {
                    allocation,
                    objective: objective_val,
                };
                if best.is_none_or(|b| objective_val < b.objective) {
                    best = Some(point);
                    history.push(point);
                }
            }
        }
        DseResult {
            best: best.expect("resolution >= 2"),
            history,
            evaluations: evals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bowl(a: Allocation) -> f64 {
        (a.compute.get() - 0.55).powi(2) + 2.0 * (a.sram.get() - 0.25).powi(2) + 0.1
    }

    #[test]
    fn gradient_descent_finds_the_bowl_minimum() {
        let result = GradientDescent::default().minimize(&SearchSpace::default(), bowl);
        assert!(
            (result.best.allocation.compute.get() - 0.55).abs() < 0.05,
            "compute {} off-target",
            result.best.allocation.compute
        );
        assert!((result.best.allocation.sram.get() - 0.25).abs() < 0.05);
        assert!(result.best.objective < 0.105);
    }

    #[test]
    fn objective_trait_drives_every_optimizer() {
        // The shared `Objective` interface (also consumed by the sweep in
        // `optimus-sweep`) must reach the same optimum as the closure path.
        let space = SearchSpace::default();
        let objective = |a: &Allocation| bowl(*a);
        let gd = GradientDescent::default().minimize_objective(&space, &objective);
        assert_eq!(
            gd.best.allocation,
            GradientDescent::default()
                .minimize(&space, bowl)
                .best
                .allocation
        );
        let rs = RandomSearch::default().minimize_objective(&space, &objective);
        assert_eq!(
            rs.best.allocation,
            RandomSearch::default()
                .minimize(&space, bowl)
                .best
                .allocation
        );
        let gs = GridSearch::default().minimize_objective(&space, &objective);
        assert_eq!(
            gs.best.allocation,
            GridSearch::default().minimize(&space, bowl).best.allocation
        );
    }

    #[test]
    fn history_is_monotonically_improving() {
        let result = GradientDescent::default().minimize(&SearchSpace::default(), bowl);
        assert!(result
            .history
            .windows(2)
            .all(|w| w[1].objective <= w[0].objective));
    }

    #[test]
    fn descent_beats_or_matches_random() {
        let space = SearchSpace::default();
        let gd = GradientDescent::default().minimize(&space, bowl);
        let rs = RandomSearch {
            samples: 50,
            seed: 42,
        }
        .minimize(&space, bowl);
        assert!(gd.best.objective <= rs.best.objective * 1.05);
    }

    #[test]
    fn grid_search_covers_the_space() {
        let result = GridSearch { resolution: 21 }.minimize(&SearchSpace::default(), bowl);
        assert_eq!(result.evaluations, 441);
        assert!((result.best.allocation.compute.get() - 0.55).abs() < 0.06);
    }

    #[test]
    fn boundary_minimum_is_projected() {
        // Objective decreasing in compute: optimum pinned at the bound.
        let f = |a: Allocation| 1.0 - a.compute.get();
        let result = GradientDescent::default().minimize(&SearchSpace::default(), f);
        assert!(result.best.allocation.compute.get() > 0.7);
        assert!(
            result.best.allocation.compute.get() + result.best.allocation.sram.get() <= 0.90 + 1e-9
        );
    }

    #[test]
    fn random_search_is_deterministic() {
        let space = SearchSpace::default();
        let a = RandomSearch::default().minimize(&space, bowl);
        let b = RandomSearch::default().minimize(&space, bowl);
        assert_eq!(a.best.allocation, b.best.allocation);
    }
}
