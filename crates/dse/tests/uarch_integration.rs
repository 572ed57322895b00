//! DSE over real µArch syntheses: the optimizer must push the allocation
//! in the physically sensible direction.

use optimus_dse::{DsePoint, DseResult, GradientDescent, GridSearch, SearchSpace};
use optimus_hw::memtech::DramTechnology;
use optimus_hw::{MemoryLevelKind, Precision};
use optimus_tech::{Allocation, ResourceBudget, TechNode, UArchEngine};

/// A compute-heavy synthetic objective: time dominated by FLOPs over the
/// synthesized peak (a fat-GEMM workload).
fn compute_heavy(engine: &UArchEngine, alloc: Allocation) -> f64 {
    let acc = engine.synthesize(
        TechNode::N5,
        ResourceBudget::datacenter_gpu(),
        alloc,
        DramTechnology::Hbm3,
    );
    let peak = acc.peak(Precision::Fp16).unwrap().get();
    1e18 / peak
}

/// A cache-sensitive objective: time improves with L2 capacity (a blocked
/// workload whose traffic scales like 1/sqrt(cache)) but still pays for
/// compute.
fn cache_sensitive(engine: &UArchEngine, alloc: Allocation) -> f64 {
    let acc = engine.synthesize(
        TechNode::N5,
        ResourceBudget::datacenter_gpu(),
        alloc,
        DramTechnology::Hbm2,
    );
    let peak = acc.peak(Precision::Fp16).unwrap().get();
    let l2 = acc.level(MemoryLevelKind::L2).unwrap().capacity.bytes();
    1e17 / peak + 2e14 / l2.sqrt()
}

#[test]
fn compute_heavy_objective_maxes_compute_fraction() {
    let engine = UArchEngine::a100_at_n7();
    let space = SearchSpace::default();
    let result =
        GradientDescent::default().minimize(&space, |a: Allocation| compute_heavy(&engine, a));
    assert!(
        result.best.allocation.compute.get() > 0.7,
        "expected the compute bound (0.80), got {}",
        result.best.allocation.compute
    );
}

#[test]
fn cache_sensitive_objective_buys_sram() {
    let engine = UArchEngine::a100_at_n7();
    let space = SearchSpace::default();
    let compute_only =
        GradientDescent::default().minimize(&space, |a: Allocation| compute_heavy(&engine, a));
    let balanced =
        GradientDescent::default().minimize(&space, |a: Allocation| cache_sensitive(&engine, a));
    assert!(
        balanced.best.allocation.sram > compute_only.best.allocation.sram,
        "cache-sensitive workload should allocate more SRAM: {} vs {}",
        balanced.best.allocation.sram,
        compute_only.best.allocation.sram
    );
}

#[test]
fn gradient_descent_matches_grid_on_real_objective() {
    let engine = UArchEngine::a100_at_n7();
    let space = SearchSpace::default();
    let gd =
        GradientDescent::default().minimize(&space, |a: Allocation| cache_sensitive(&engine, a));
    let grid =
        GridSearch { resolution: 24 }.minimize(&space, |a: Allocation| cache_sensitive(&engine, a));
    assert!(
        gd.best.objective <= grid.best.objective * 1.03,
        "descent {} should be within 3% of a 24x24 grid {}",
        gd.best.objective,
        grid.best.objective
    );
}

#[test]
fn descent_uses_fewer_evaluations_than_grid() {
    let engine = UArchEngine::a100_at_n7();
    let space = SearchSpace::default();
    let gd =
        GradientDescent::default().minimize(&space, |a: Allocation| cache_sensitive(&engine, a));
    let grid =
        GridSearch { resolution: 24 }.minimize(&space, |a: Allocation| cache_sensitive(&engine, a));
    // Descent spends at most 1 + 60 × 5 = 301 evaluations (four gradient
    // probes plus one step per iteration, fewer once a rejected step
    // reuses its gradient) vs. 576 for the 24×24 grid.
    assert!(
        gd.evaluations < grid.evaluations,
        "descent {} vs grid {}",
        gd.evaluations,
        grid.evaluations
    );
}

/// The descent loop as it ran before gradient reuse: every iteration
/// re-probes all four central-difference points, even after a rejected
/// step left the iterate unchanged. Also returns how many iterations
/// re-probed an unchanged iterate.
fn reference_descent<F>(
    gd: &GradientDescent,
    space: &SearchSpace,
    mut objective: F,
) -> (DseResult, usize)
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
    let mut lr = gd.learning_rate;
    let mut rejected = false;
    let mut reprobes = 0;
    for _ in 0..gd.iterations {
        let (c, s) = (current.compute.get(), current.sram.get());
        reprobes += usize::from(rejected);
        let g_c = (eval(space.project(c + gd.probe, s), &mut evals)
            - eval(space.project(c - gd.probe, s), &mut evals))
            / (2.0 * gd.probe);
        let g_s = (eval(space.project(c, s + gd.probe), &mut evals)
            - eval(space.project(c, s - gd.probe), &mut evals))
            / (2.0 * gd.probe);
        let norm = (g_c * g_c + g_s * g_s).sqrt();
        if norm < 1e-12 || lr < 1e-5 {
            break;
        }
        let candidate = space.project(c - lr * g_c / norm, s - lr * g_s / norm);
        let candidate_val = eval(candidate, &mut evals);
        if candidate_val < current_val {
            current = candidate;
            current_val = candidate_val;
            history.push(DsePoint {
                allocation: current,
                objective: current_val,
            });
            rejected = false;
        } else {
            lr *= 0.5;
            rejected = true;
        }
    }
    let result = DseResult {
        best: DsePoint {
            allocation: current,
            objective: current_val,
        },
        history,
        evaluations: evals,
    };
    (result, reprobes)
}

/// Gradient reuse must walk the reference path exactly — identical best
/// point and history — and save exactly the four probes of every
/// iteration that follows a rejected step. Returns the re-probe count so
/// callers can check the objective exercised the reuse at all.
fn assert_matches_reference(gd: GradientDescent, objective: impl Fn(Allocation) -> f64) -> usize {
    let space = SearchSpace::default();
    let (reference, reprobes) = reference_descent(&gd, &space, &objective);
    let reused = gd.minimize(&space, &objective);
    assert_eq!(reused.best, reference.best);
    assert_eq!(reused.history, reference.history);
    assert_eq!(reused.evaluations, reference.evaluations - 4 * reprobes);
    reprobes
}

#[test]
fn gradient_reuse_matches_the_reference_on_the_cache_sensitive_objective() {
    let engine = UArchEngine::a100_at_n7();
    assert_matches_reference(GradientDescent::default(), |a| cache_sensitive(&engine, a));
}

#[test]
fn gradient_reuse_matches_the_reference_on_a_quadratic_bowl() {
    let bowl = |a: Allocation| {
        (a.compute.get() - 0.55).powi(2) + 2.0 * (a.sram.get() - 0.25).powi(2) + 0.1
    };
    assert_matches_reference(GradientDescent::default(), bowl);
    // A coarse descent overshoots and backtracks often.
    let reprobes = assert_matches_reference(
        GradientDescent {
            iterations: 40,
            learning_rate: 0.5,
            probe: 1e-2,
        },
        bowl,
    );
    assert!(
        reprobes > 0,
        "the coarse descent must reject at least one step"
    );
}
