//! `gnn-cora`: one run is one full-batch GraphSAGE training epoch of a
//! deterministic (D) model and one of a non-deterministic (ND) model,
//! both from the same initial weights on the Cora-shaped synthetic
//! dataset, followed by the ND-vs-D weight comparison of
//! `fig_weight_divergence` and `table7`.

use fpna_core::metrics::ArrayComparison;
use fpna_core::rng::derive_seed;
use fpna_gpu_sim::GpuModel;
use fpna_nn::graph::{synthetic_cora, CoraParams, NodeClassification};
use fpna_nn::model::{GraphSage, TrainConfig};
use fpna_tensor::context::GpuContext;

use crate::harness::{digest, digest_f64, Checks, RunOutcome, SimCounts, Workload};
use crate::trace::Tracer;

/// Largest ND-vs-D weight `Vermv` one epoch may produce. Reordered
/// accumulation moves a weight by a few ulps; a relative error this
/// large means the ND update went wrong, not just its rounding.
pub const ERMV_TOL: f64 = 1e-9;

pub struct Gnn {
    pub ds: NodeClassification,
    cfg: TrainConfig,
    init: GraphSage,
    det: GpuContext,
    nd: GpuContext,
    /// Weights of the D model after one epoch from `init`.
    pub reference: Vec<f64>,
}

impl Gnn {
    pub fn setup(seed: u64, params: CoraParams, tr: &Tracer) -> fpna_core::Result<Self> {
        let ds = tr.span("nn.synthetic_cora", || {
            synthetic_cora(params, derive_seed(seed, 1))
        });
        let cfg = TrainConfig {
            epochs: 1,
            init_seed: derive_seed(seed, 2),
            ..TrainConfig::default()
        };
        let init = GraphSage::new(ds.features.shape()[1], cfg.hidden, ds.num_classes, &cfg);
        let det =
            GpuContext::new(GpuModel::H100, derive_seed(seed, 3)).with_determinism(Some(true));
        let nd =
            GpuContext::new(GpuModel::H100, derive_seed(seed, 4)).with_determinism(Some(false));
        let mut model = init.clone();
        model.train_epoch(&det, &ds, cfg.lr)?;
        Ok(Gnn {
            reference: model.flat_params(),
            ds,
            cfg,
            init,
            det,
            nd,
        })
    }

    /// One epoch from the initial weights under `ctx`.
    fn epoch(&self, ctx: &GpuContext) -> fpna_core::Result<Vec<f64>> {
        let mut model = self.init.clone();
        model.train_epoch(ctx, &self.ds, self.cfg.lr)?;
        Ok(model.flat_params())
    }
}

/// Check one run's weights: the D model must reproduce the reference
/// bit for bit, and the ND model must stay within [`ERMV_TOL`] of it.
pub fn check_weights(reference: &[f64], d: &[f64], nd: &[f64], tr: &Tracer) -> Checks {
    let mut checks = Checks::default();
    let d_cmp = tr.span("core.metrics.compare", || {
        ArrayComparison::compare(reference, d)
    });
    checks.check(
        d_cmp.bitwise_identical(),
        "D weights equal the reference bitwise",
    );
    let nd_cmp = tr.span("core.metrics.compare", || ArrayComparison::compare(d, nd));
    checks.check(
        nd_cmp.vermv.is_finite() && nd_cmp.vermv <= ERMV_TOL,
        &format!(
            "ND-vs-D weight Vermv {:e} within {ERMV_TOL:e}",
            nd_cmp.vermv
        ),
    );
    checks
}

impl Workload for Gnn {
    fn cases(&self) -> usize {
        1
    }

    /// One run at a time; the whole thread budget goes to the tensor
    /// kernels' intra-run parallelism.
    fn executor_threads(&self, _budget: usize) -> usize {
        1
    }

    fn run(&self, r: usize, tr: &Tracer) -> RunOutcome {
        let mut checks = Checks::default();
        let det = self.det.for_run(r as u64);
        let nd = self.nd.for_run(r as u64);
        let d = tr.span("nn.train_epoch_det", || self.epoch(&det));
        let nd = tr.span("nn.train_epoch_nd", || self.epoch(&nd));
        let (Some(d), Some(nd)) = (checks.ok(d, "D epoch"), checks.ok(nd, "ND epoch")) else {
            return RunOutcome {
                checks,
                ..RunOutcome::default()
            };
        };
        checks.add(check_weights(&self.reference, &d, &nd, tr));
        let counts = SimCounts {
            d_digest: digest_f64(&d),
            ..SimCounts::default()
        };
        RunOutcome {
            checks,
            counts,
            fingerprint: digest(counts.words()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_pass_and_repeat_their_fingerprint() {
        let tr = Tracer::new(false);
        let w = Gnn::setup(3, CoraParams::tiny(), &tr).expect("tiny setup");
        let a = w.run(0, &tr);
        let b = w.run(1, &tr);
        assert_eq!(a.checks.failed, 0);
        assert_eq!(a.checks.attempted, 4);
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn nd_weights_past_tolerance_fail() {
        let tr = Tracer::new(false);
        let w = Gnn::setup(3, CoraParams::tiny(), &tr).expect("tiny setup");
        let d = w.reference.clone();
        assert_eq!(check_weights(&w.reference, &d, &d, &tr).failed, 0);
        let pushed: Vec<f64> = d.iter().map(|x| x * (1.0 + 10.0 * ERMV_TOL)).collect();
        assert_eq!(check_weights(&w.reference, &d, &pushed, &tr).failed, 1);
        let mut flipped = d.clone();
        flipped[0] = f64::from_bits(flipped[0].to_bits() ^ 1);
        assert_eq!(check_weights(&w.reference, &flipped, &d, &tr).failed, 1);
    }
}
