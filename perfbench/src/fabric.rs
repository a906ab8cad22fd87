//! `allreduce-fabric`: one run is one seed on the p=64 hierarchical
//! fabric (8 nodes × 8 ranks). Five arrival-order allreduces run at
//! offered background load 0.5, then three reproducible (exact
//! accumulator) allreduces run on the quiet, jittered fabric.

use fpna_collectives::{allreduce_on, Algorithm, NetAllreduce, NetConfig, Ordering};
use fpna_core::metrics::ArrayComparison;
use fpna_core::rng::derive_seed;
use fpna_net::{LinkSpec, Topology};
use fpna_stats::{Distribution, Sampler};
use fpna_summation::ExactAccumulator;

use crate::harness::{digest, digest_f64, Checks, RunOutcome, SimCounts, Workload};
use crate::trace::Tracer;

pub const NODES: usize = 8;
pub const RANKS_PER_NODE: usize = 8;
/// Elements per rank vector.
pub const LEN: usize = 4096;
/// Fabric seeds the runs cycle through.
pub const CASES: usize = 4;
/// Offered background load of the arrival-order half.
pub const LOAD: f64 = 0.5;

/// Arrival-order algorithms, with their span names.
pub const ARRIVAL: [(Algorithm, &str); 5] = [
    (Algorithm::Ring, "collectives.ring.arrival"),
    (
        Algorithm::SegmentedRing { segments: 8 },
        "collectives.ring_seg8.arrival",
    ),
    (
        Algorithm::KAryTree { fanout: 4 },
        "collectives.tree4.arrival",
    ),
    (
        Algorithm::Hierarchical { intra: 4, inter: 4 },
        "collectives.hier.arrival",
    ),
    (Algorithm::DoubleBinaryTree, "collectives.dbt.arrival"),
];

/// Reproducible algorithms, with their span names.
pub const REPRO: [(Algorithm, &str); 3] = [
    (Algorithm::KAryTree { fanout: 4 }, "collectives.tree4.repro"),
    (
        Algorithm::Hierarchical { intra: 4, inter: 4 },
        "collectives.hier.repro",
    ),
    (Algorithm::DoubleBinaryTree, "collectives.dbt.repro"),
];

/// The cluster fabric of `table9`: NVLink-like intra-node links, a
/// node-switch → NIC link and InfiniBand-like inter-node links.
pub fn topology() -> Topology {
    Topology::hierarchical(
        NODES,
        RANKS_PER_NODE,
        LinkSpec::new(200.0, 100.0),
        LinkSpec::new(500.0, 50.0),
        LinkSpec::new(5_000.0, 25.0),
    )
}

pub struct Fabric {
    seed: u64,
    topo: Topology,
    pub ranks: Vec<Vec<f64>>,
    /// Correctly rounded element-wise sum over ranks.
    pub exact: Vec<f64>,
    /// `p·u·Σ_r |x_r|` per element: the arrival-order error bound.
    pub bound: Vec<f64>,
}

impl Fabric {
    pub fn setup(seed: u64, len: usize, tr: &Tracer) -> Self {
        let topo = topology();
        let p = topo.ranks();
        let ranks: Vec<Vec<f64>> = tr.span("stats.sample_vec", || {
            (0..p)
                .map(|r| {
                    Sampler::new(Distribution::standard_normal(), derive_seed(seed, r as u64))
                        .sample_vec(len)
                })
                .collect()
        });
        let exact = (0..len)
            .map(|i| {
                let mut acc = ExactAccumulator::new();
                ranks.iter().for_each(|v| acc.add(v[i]));
                acc.round()
            })
            .collect();
        let bound = (0..len)
            .map(|i| p as f64 * f64::EPSILON * ranks.iter().map(|v| v[i].abs()).sum::<f64>())
            .collect();
        Fabric {
            seed,
            topo,
            ranks,
            exact,
            bound,
        }
    }
}

/// Check one run's allreduce outputs: every reproducible result must
/// equal the correctly rounded sum bit for bit, and every arrival-order
/// result must lie within `p·u·Σ|x|` of it, element by element.
pub fn check_allreduce(w: &Fabric, arrival: &[&[f64]], repro: &[&[f64]], tr: &Tracer) -> Checks {
    let mut checks = Checks::default();
    for v in repro {
        let cmp = tr.span("core.metrics.compare", || {
            ArrayComparison::compare(&w.exact, v)
        });
        checks.check(
            cmp.bitwise_identical(),
            "reproducible allreduce equals the exact sum bitwise",
        );
    }
    for v in arrival {
        let ok = v.len() == w.exact.len()
            && v.iter()
                .zip(&w.exact)
                .zip(&w.bound)
                .all(|((x, e), b)| (x - e).abs() <= *b);
        checks.check(
            ok,
            "arrival-order allreduce within p·u·Σ|x| of the exact sum",
        );
    }
    checks
}

impl Workload for Fabric {
    fn cases(&self) -> usize {
        CASES
    }

    /// One closed-loop worker. A run peaks at ~80 MB; with two runs at
    /// once, how the allocator's per-thread arenas fragment under them
    /// moved peak RSS by up to a tenth from one process to the next,
    /// while a single worker keeps it within a fraction of a percent.
    fn executor_threads(&self, _budget: usize) -> usize {
        1
    }

    fn run(&self, r: usize, tr: &Tracer) -> RunOutcome {
        let s = derive_seed(self.seed ^ 0x00FA_B01C, (r % CASES) as u64);
        let mut counts = SimCounts::default();
        let mut words = Vec::new();
        let mut tally = |out: &NetAllreduce| {
            let st = &out.stats;
            counts.fg_hops += st.hops_traversed;
            counts.bg_hops += st.bg_hops_traversed;
            counts.bg_dropped += st.bg_dropped;
            counts.makespan_ns += st.makespan_ns;
            counts.wire_bytes += st.bytes_delivered;
            counts.nic_bytes += st.nic_bytes;
            words.extend([out.elapsed_ns.to_bits(), digest_f64(&out.values)]);
        };
        let loaded = NetConfig::default().with_load(LOAD, derive_seed(s, 0x10AD));
        let arrival: Vec<Vec<f64>> = ARRIVAL
            .iter()
            .map(|&(alg, name)| {
                let out = tr.span_work(name, || {
                    let out = allreduce_on(
                        &self.topo,
                        &self.ranks,
                        alg,
                        Ordering::ArrivalOrder { seed: s },
                        &loaded,
                    );
                    let hops = out.stats.hops_traversed + out.stats.bg_hops_traversed;
                    (out, hops)
                });
                tally(&out);
                out.values
            })
            .collect();
        let quiet = NetConfig::default().with_jitter_seed(s);
        let repro: Vec<Vec<f64>> = REPRO
            .iter()
            .map(|&(alg, name)| {
                let out = tr.span(name, || {
                    allreduce_on(&self.topo, &self.ranks, alg, Ordering::Reproducible, &quiet)
                });
                tally(&out);
                out.values
            })
            .collect();
        let arrival: Vec<&[f64]> = arrival.iter().map(Vec::as_slice).collect();
        let repro: Vec<&[f64]> = repro.iter().map(Vec::as_slice).collect();
        let checks = check_allreduce(self, &arrival, &repro, tr);
        let fingerprint = digest(counts.words().into_iter().chain(words));
        RunOutcome {
            checks,
            counts,
            fingerprint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_pass_and_repeat_their_fingerprint() {
        let tr = Tracer::new(false);
        let w = Fabric::setup(5, 32, &tr);
        let a = w.run(1, &tr);
        let b = w.run(1 + CASES, &tr);
        assert_eq!(a.checks.failed, 0);
        assert_eq!(a.checks.attempted, 8);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert!(a.counts.fg_hops > 0 && a.counts.nic_bytes > 0 && a.counts.bg_hops > 0);
    }

    #[test]
    fn flipped_mantissa_bit_in_reproducible_result_fails() {
        let tr = Tracer::new(false);
        let w = Fabric::setup(5, 32, &tr);
        let good = w.exact.clone();
        assert_eq!(check_allreduce(&w, &[&good], &[&good], &tr).failed, 0);
        let mut bad = good.clone();
        bad[7] = f64::from_bits(bad[7].to_bits() ^ 1);
        assert_eq!(check_allreduce(&w, &[&good], &[&bad], &tr).failed, 1);
        let mut far = good.clone();
        far[3] += 1.0 + w.bound[3];
        assert_eq!(check_allreduce(&w, &[&far], &[&good], &tr).failed, 1);
    }
}
