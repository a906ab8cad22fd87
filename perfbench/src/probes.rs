//! Layer probes of the traced run: single calls at the shapes the
//! workloads feed each layer, timed from outside the library.
//!
//! The tensor, `matmul_nt` and atomic-scatter probes use the shapes of
//! layer 1's backward pass on Cora (a 2708×1433 gradient gathered along
//! the 10858 directed edges, 15.5M contributions); the exact-fold probe
//! uses the 4096-element rank vectors of `allreduce-fabric`.

use fpna_core::rng::derive_seed;
use fpna_gpu_sim::ScheduleKind;
use fpna_nn::graph::NodeClassification;
use fpna_nn::linalg::matmul_nt;
use fpna_summation::ExactAccumulator;
use fpna_tensor::context::GpuContext;
use fpna_tensor::ops::index::{gather_rows, index_add};
use fpna_tensor::Tensor;

use crate::harness::Checks;
use crate::trace::Tracer;

/// Calls per probe; the per-layer metric is their median.
pub const REPS: usize = 3;

/// Probe the tensor, nn and gpu-sim layers at layer-1 shapes on `ds`.
/// Returns the number of contributions one ND `index_add` commits.
pub fn gnn_layer_probes(
    ds: &NodeClassification,
    hidden: usize,
    seed: u64,
    tr: &Tracer,
    checks: &mut Checks,
) -> u64 {
    let g = &ds.graph;
    let (n, f) = (g.num_nodes, ds.features.shape()[1]);
    // Dense stand-ins for layer 1's backward operands.
    let dagg = Tensor::randn(vec![n, f], derive_seed(seed, 10));
    let dpre = Tensor::randn(vec![n, hidden], derive_seed(seed, 11));
    let w = Tensor::randn(vec![f, hidden], derive_seed(seed, 12));
    let det = GpuContext::new(fpna_gpu_sim::GpuModel::H100, derive_seed(seed, 13))
        .with_determinism(Some(true));
    let nd = det.clone().with_determinism(Some(false));
    let zeros = Tensor::zeros(vec![n, f]);
    let contribs = (g.edge_src.len() * f) as u64;
    for rep in 0..REPS {
        tr.span("nn.matmul_nt", || {
            std::hint::black_box(matmul_nt(&dpre, &w))
        });
        let Some(gathered) = checks.ok(
            tr.span("tensor.gather_rows", || gather_rows(&dagg, &g.edge_dst)),
            "gather_rows probe",
        ) else {
            continue;
        };
        let d = tr.span("tensor.index_add_det", || {
            index_add(&det, &zeros, &g.edge_src, &gathered)
        });
        let nd_ctx = nd.for_run(rep as u64);
        let x = tr.span_work("tensor.index_add_nd", || {
            (index_add(&nd_ctx, &zeros, &g.edge_src, &gathered), contribs)
        });
        if let (Some(d), Some(x)) = (
            checks.ok(d, "index_add det probe"),
            checks.ok(x, "index_add nd probe"),
        ) {
            let close = d
                .data()
                .iter()
                .zip(x.data())
                .all(|(a, b)| (a - b).abs() <= 1e-9 * (1.0 + a.abs()));
            checks.check(
                close,
                "ND index_add probe agrees with the D one to rounding",
            );
        }
        let pairs: Vec<(u32, f64)> = g
            .edge_src
            .iter()
            .enumerate()
            .flat_map(|(k, &row)| {
                gathered
                    .row(k)
                    .iter()
                    .enumerate()
                    .map(move |(j, &v)| ((row as usize * f + j) as u32, v))
            })
            .collect();
        drop(gathered);
        let mut dst = vec![0.0f64; n * f];
        let kind = ScheduleKind::Seeded(derive_seed(seed, 14 + rep as u64));
        tr.span_work("gpu-sim.atomic_scatter_add", || {
            (
                nd.device.atomic_scatter_add(&mut dst, &pairs, &kind),
                pairs.len() as u64,
            )
        });
    }
    contribs
}

/// Probe the exact accumulator as a reproducible collective uses it:
/// fold one rank vector into 4096 accumulators, merge a second set,
/// normalise, and send every accumulator through a wire round trip.
pub fn exact_fold_probe(a: &[f64], b: &[f64], tr: &Tracer, checks: &mut Checks) {
    for _ in 0..REPS {
        let mut other: Vec<ExactAccumulator> = b
            .iter()
            .map(|&x| {
                let mut acc = ExactAccumulator::new();
                acc.add(x);
                acc
            })
            .collect();
        other.iter_mut().for_each(ExactAccumulator::normalize);
        let ok = tr.span("summation.exact_fold", || {
            let mut ok = true;
            for (x, o) in a.iter().zip(&other) {
                let mut acc = ExactAccumulator::new();
                acc.add(*x);
                acc.merge(o);
                acc.normalize();
                let back = ExactAccumulator::from_wire_bytes(&acc.to_wire_bytes());
                ok &= back.is_some_and(|back| back.state_eq(&acc));
            }
            ok
        });
        checks.check(ok, "exact accumulators survive the wire round trip");
    }
}
