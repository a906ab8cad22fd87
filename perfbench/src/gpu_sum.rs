//! `gpu-sum`: one run is the SPA, AO and SPTR reductions on the
//! simulated V100, plus the exact-accumulator threaded sum, of each of
//! four input arrays: 1M FP64 draws from the paper's N(0,1) and
//! U(0,10). A run covers all four arrays so that its latency averages
//! over them instead of taking a different value per array.

use fpna_core::metrics::ArrayComparison;
use fpna_core::rng::derive_seed;
use fpna_gpu_sim::{GpuDevice, GpuModel, KernelParams, ReduceKernel, ScheduleKind};
use fpna_stats::{Distribution, Sampler};
use fpna_summation::exact::exact_sum;
use fpna_summation::parallel::reproducible_threaded_sum;

use crate::harness::{digest, Checks, RunOutcome, SimCounts, Workload};
use crate::trace::Tracer;

/// Elements per array (8 MB of FP64).
pub const ELEMS: usize = 1_000_000;
/// Input arrays: two normal, two uniform.
pub const ARRAYS: usize = 4;
/// GPU schedule seeds the runs cycle through.
pub const CASES: usize = 4;

/// One input array and its references.
pub struct Array {
    pub data: Vec<f64>,
    /// Correctly rounded sum.
    pub exact: f64,
    /// Σ|x|, for the rounding-error bound of the atomic kernels.
    pub abs_sum: f64,
    /// SPTR result under the in-order schedule; SPTR is deterministic,
    /// so every schedule must reproduce it bit for bit.
    pub sptr: f64,
}

pub struct GpuSum {
    seed: u64,
    device: GpuDevice,
    params: KernelParams,
    threads: usize,
    pub arrays: Vec<Array>,
}

/// Results of the four reductions of one array.
#[derive(Debug, Clone, Copy)]
pub struct Sums {
    pub spa: f64,
    pub ao: f64,
    pub sptr: f64,
    pub repro: f64,
}

impl GpuSum {
    pub fn setup(seed: u64, elems: usize, threads: usize, tr: &Tracer) -> Self {
        let device = GpuDevice::new(GpuModel::V100);
        let params = KernelParams::new(64, elems.div_ceil(128).max(1) as u32);
        let inputs: Vec<Vec<f64>> = tr.span("stats.sample_vec", || {
            (0..ARRAYS)
                .map(|c| {
                    let dist = if c % 2 == 0 {
                        Distribution::standard_normal()
                    } else {
                        Distribution::paper_uniform()
                    };
                    Sampler::new(dist, derive_seed(seed, c as u64)).sample_vec(elems)
                })
                .collect()
        });
        let arrays = inputs
            .into_iter()
            .map(|data| {
                let sptr = device
                    .reduce(ReduceKernel::Sptr, &data, params, &ScheduleKind::InOrder)
                    .expect("SPTR runs on every device")
                    .value;
                Array {
                    exact: exact_sum(&data),
                    abs_sum: data.iter().map(|x| x.abs()).sum(),
                    sptr,
                    data,
                }
            })
            .collect();
        GpuSum {
            seed,
            device,
            params,
            threads,
            arrays,
        }
    }
}

/// Check one array's sums against its references: SPTR and the
/// reproducible sum must match bit for bit, and the atomic kernels must
/// lie within the worst-case rounding error `n·u·Σ|x|`.
pub fn check_sums(array: &Array, s: &Sums, tr: &Tracer) -> Checks {
    let mut checks = Checks::default();
    let cmp = tr.span("core.metrics.compare", || {
        ArrayComparison::compare(&[array.sptr, array.exact], &[s.sptr, s.repro])
    });
    checks.check(
        cmp.bitwise_identical(),
        "SPTR and reproducible sum match their references bitwise",
    );
    let bound = array.data.len() as f64 * f64::EPSILON * array.abs_sum;
    for (name, v) in [("SPA", s.spa), ("AO", s.ao)] {
        checks.check(
            (v - array.exact).abs() <= bound,
            &format!("{name} sum within n·u·Σ|x| of the exact sum"),
        );
    }
    checks
}

impl Workload for GpuSum {
    fn cases(&self) -> usize {
        CASES
    }

    fn executor_threads(&self, budget: usize) -> usize {
        budget
    }

    fn run(&self, r: usize, tr: &Tracer) -> RunOutcome {
        let mut checks = Checks::default();
        let mut counts = SimCounts::default();
        let mut words = Vec::new();
        for (a, array) in self.arrays.iter().enumerate() {
            let schedule = ScheduleKind::Seeded(derive_seed(
                self.seed ^ 0x5C4E_D01E,
                ((r % CASES) * ARRAYS + a) as u64,
            ));
            let n = array.data.len() as u64;
            let mut launch = |kernel: ReduceKernel, name: &'static str, checks: &mut Checks| {
                let out = tr.span_work(name, || {
                    (
                        self.device
                            .reduce(kernel, &array.data, self.params, &schedule),
                        n,
                    )
                });
                let out = checks.ok(out, name)?;
                counts.sim_time_ns += out.time_ns;
                Some(out.value)
            };
            let spa = launch(ReduceKernel::Spa, "gpu-sim.reduce_spa", &mut checks);
            let ao = launch(ReduceKernel::Ao, "gpu-sim.reduce_ao", &mut checks);
            let sptr = launch(ReduceKernel::Sptr, "gpu-sim.reduce_sptr", &mut checks);
            let repro = tr.span("summation.reproducible_sum", || {
                reproducible_threaded_sum(&array.data, self.threads)
            });
            if let (Some(spa), Some(ao), Some(sptr)) = (spa, ao, sptr) {
                checks.add(check_sums(
                    array,
                    &Sums {
                        spa,
                        ao,
                        sptr,
                        repro,
                    },
                    tr,
                ));
                words.extend([spa, ao, sptr, repro].map(f64::to_bits));
            }
        }
        RunOutcome {
            checks,
            counts,
            fingerprint: digest(counts.words().into_iter().chain(words)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (GpuSum, Tracer) {
        let tr = Tracer::new(false);
        (GpuSum::setup(11, 20_000, 2, &tr), tr)
    }

    fn flip_low_mantissa_bit(x: f64) -> f64 {
        f64::from_bits(x.to_bits() ^ 1)
    }

    #[test]
    fn runs_pass_and_repeat_their_fingerprint() {
        let (w, tr) = small();
        for r in 0..CASES {
            let a = w.run(r, &tr);
            let b = w.run(r + CASES, &tr);
            assert_eq!(a.checks.failed, 0);
            assert_eq!(a.checks.attempted, 6 * ARRAYS as u64);
            assert_eq!(a.fingerprint, b.fingerprint);
            assert!(a.counts.sim_time_ns > 0.0);
        }
    }

    #[test]
    fn corrupted_sptr_value_fails() {
        let (w, tr) = small();
        let array = &w.arrays[0];
        let good = Sums {
            spa: array.exact,
            ao: array.exact,
            sptr: array.sptr,
            repro: array.exact,
        };
        assert_eq!(check_sums(array, &good, &tr).failed, 0);
        let bad = Sums {
            sptr: flip_low_mantissa_bit(array.sptr),
            ..good
        };
        assert_eq!(check_sums(array, &bad, &tr).failed, 1);
        let far = Sums {
            spa: array.exact + 1.0 + array.abs_sum,
            ..good
        };
        assert_eq!(check_sums(array, &far, &tr).failed, 1);
    }
}
