//! Layer probes: the bottom layers' public calls, timed in isolation on
//! fixed inputs. They run in every traced run, whatever the workload,
//! because every workload prices through these layers (the serve
//! workloads through the inference estimator's memo tables and seal).

use crate::span::Trace;
use crate::workload::{median, ns_per_call};
use optimus::collective::{Collective, CommModel};
use optimus::prelude::*;
use optimus::roofline::{GemmShape, RooflineModel};
use optimus_experiments::fig3;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const BATCHES: usize = 5;

pub fn run(trace: Trace<'_>) -> BTreeMap<String, f64> {
    let cluster = hw::presets::dgx_a100_hdr_cluster();
    let mut out = BTreeMap::new();

    // Roofline: one GEMV-shaped GEMM per call over the Fig 3 shapes.
    let device = hw::presets::a100_sxm_80gb();
    let roofline = RooflineModel::new(&device);
    let shapes = fig3::shapes();
    let gemm_ns = trace.span(None, "probe.roofline.gemm", |_| {
        ns_per_call(BATCHES, 200, || {
            for &(m, k) in &shapes {
                black_box(roofline.gemm(black_box(GemmShape::gemv(m, k)), Precision::Fp16))
                    .expect("fp16 runs on the A100");
            }
        }) / shapes.len() as f64
    });
    out.insert("roofline.gemm_ns".to_owned(), gemm_ns);

    // Collective: the α–β model over every collective, 16 volumes and
    // 4 rank counts on the inter-node link.
    let comm = CommModel::auto();
    let collectives = [
        Collective::AllReduce,
        Collective::AllGather,
        Collective::ReduceScatter,
        Collective::Broadcast,
        Collective::PointToPoint,
    ];
    let volumes: Vec<Bytes> = (0..16)
        .map(|i| Bytes::from_kib(f64::from(4 << i)))
        .collect();
    let calls = collectives.len() * volumes.len() * 4;
    let time_ns = trace.span(None, "probe.collective.time", |_| {
        ns_per_call(BATCHES, 200, || {
            for &c in &collectives {
                for &v in &volumes {
                    for ranks in [2, 8, 64, 512] {
                        black_box(comm.time(c, black_box(v), ranks, &cluster.inter_link));
                    }
                }
            }
        }) / calls as f64
    });
    out.insert("collective.time_ns".to_owned(), time_ns);

    // Prepared training estimator: a cold key fills the memo tables, a
    // warm key only assembles the point.
    let model = Arc::new(model::presets::llama2_13b());
    let point = Parallelism::new(2, 2, 2).with_sp(true);
    let fresh = || PreparedTrainingEstimator::new(&cluster, Arc::clone(&model), 64, 2048);
    let cold: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let prepared = fresh();
            let start = Instant::now();
            black_box(prepared.estimate(point, Precision::Fp16)).expect("valid point");
            start.elapsed().as_secs_f64()
        })
        .collect();
    out.insert("memo.cold_s".to_owned(), median(&cold));
    let prepared = fresh();
    prepared
        .estimate(point, Precision::Fp16)
        .expect("valid point");
    let point_ns = trace.span(None, "probe.estimator.point", |_| {
        ns_per_call(BATCHES, 2000, || {
            black_box(prepared.estimate(black_box(point), Precision::Fp16)).expect("valid point");
        })
    });
    out.insert("estimator.point_ns".to_owned(), point_ns);

    // Memo size after pricing every point of a 64-GPU llama2-13b space.
    let job = optimus_sweep::Workload::training(64, 2048);
    let points = optimus_sweep::SweepSpace::power_of_two(64).enumerate(&model, &cluster, &job);
    let prepared = fresh();
    for p in &points {
        // Points that do not fit still fill the memo tables they touch.
        let _ = black_box(prepared.estimate(p.parallelism, p.precision));
    }
    out.insert("memo.keys".to_owned(), prepared.cached_keys() as f64);
    out
}
