//! The Fig 6 DSE under gradient reuse: the descent must walk exactly the
//! path of the loop that re-probed its gradient after every rejected step.

use optimus::dse::{DsePoint, DseResult, GradientDescent, SearchSpace};
use optimus::hw::memtech::DramTechnology;
use optimus::tech::{Allocation, TechNode, UArchEngine};
use optimus_experiments::fig6;

/// The descent loop as it ran before gradient reuse, plus the number of
/// iterations that re-probed an unchanged iterate.
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

#[test]
fn fig6_point_descent_matches_the_re_probing_reference() {
    let engine = UArchEngine::a100_at_n7();
    let objective = fig6::objective(&engine, TechNode::N7, DramTechnology::Hbm2, 100.0);
    let space = SearchSpace::default();
    let (reference, reprobes) = reference_descent(&fig6::DESCENT, &space, &objective);
    let reused = fig6::DESCENT.minimize(&space, &objective);
    assert_eq!(reused.best, reference.best);
    assert_eq!(reused.history, reference.history);
    assert!(reprobes > 0, "the Fig 6 descent rejects steps");
    assert_eq!(reused.evaluations, reference.evaluations - 4 * reprobes);
    // The figure's row for this point is the same descent.
    let point = fig6::optimize_point(&engine, TechNode::N7, DramTechnology::Hbm2, 100.0);
    assert_eq!(point.time_s, reused.best.objective);
    assert_eq!(point.alloc_compute, reused.best.allocation.compute.get());
    assert_eq!(point.alloc_sram, reused.best.allocation.sram.get());
}
