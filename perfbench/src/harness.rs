//! What every workload shares: output checks, the simulated-statistics
//! fingerprint, and the closed loop that times runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use fpna_core::RunExecutor;

use crate::trace::Tracer;

/// Output checks made and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Record one check; `what` is reported on standard error when it
    /// fails.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Record a call that must succeed; its error counts as a failure.
    pub fn ok<T, E: std::fmt::Display>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, what);
                Some(v)
            }
            Err(e) => {
                self.check(false, &format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn add(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Simulated statistics of one run: a pure function of the inputs, so
/// a change that only speeds up the host leaves them identical.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimCounts {
    /// Σ simulated GPU kernel time (`ReduceOutcome::time_ns`).
    pub sim_time_ns: f64,
    /// Foreground link traversals.
    pub fg_hops: u64,
    /// Background link traversals.
    pub bg_hops: u64,
    /// Background messages dropped at admission.
    pub bg_dropped: u64,
    /// Σ simulated makespan of the collectives.
    pub makespan_ns: f64,
    /// Foreground payload bytes delivered.
    pub wire_bytes: u64,
    /// Foreground payload bytes over cross-group (NIC) links.
    pub nic_bytes: u64,
    /// Digest of the deterministically trained weights.
    pub d_digest: u64,
}

impl SimCounts {
    pub fn words(&self) -> [u64; 8] {
        [
            self.sim_time_ns.to_bits(),
            self.fg_hops,
            self.bg_hops,
            self.bg_dropped,
            self.makespan_ns.to_bits(),
            self.wire_bytes,
            self.nic_bytes,
            self.d_digest,
        ]
    }
}

/// Order-sensitive 64-bit digest (SplitMix64 finaliser over the words).
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for w in words {
        let mut z = (h ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = z ^ (z >> 31);
    }
    h
}

/// Digest of a float slice's bits.
pub fn digest_f64(xs: &[f64]) -> u64 {
    digest(xs.iter().map(|x| x.to_bits()))
}

/// What one run produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOutcome {
    pub checks: Checks,
    /// Simulated statistics of the run.
    pub counts: SimCounts,
    /// Digest of everything in the run that must repeat exactly for
    /// the same case: `counts` plus the deterministic outputs.
    pub fingerprint: u64,
}

/// A workload: inputs made once from the seed, then runs that each
/// repeat one composite unit. Run `r` processes case `r % cases()`, and
/// everything a run fingerprints is a pure function of the seed and the
/// case.
pub trait Workload: Sync {
    /// Number of distinct cases the runs cycle through.
    fn cases(&self) -> usize;
    /// Executor threads the closed loop uses (the rest of the thread
    /// budget goes to intra-run parallelism).
    fn executor_threads(&self, budget: usize) -> usize;
    /// One run.
    fn run(&self, r: usize, tr: &Tracer) -> RunOutcome;
}

/// Run `r` with a panic counted as a failed check.
pub fn guarded_run<W: Workload + ?Sized>(w: &W, r: usize, tr: &Tracer) -> RunOutcome {
    match catch_unwind(AssertUnwindSafe(|| {
        tr.root("run", r as u64, || w.run(r, tr))
    })) {
        Ok(out) => out,
        Err(_) => {
            let mut checks = Checks::default();
            checks.check(false, &format!("run {r} panicked"));
            RunOutcome {
                checks,
                ..RunOutcome::default()
            }
        }
    }
}

/// Result of the closed loop.
#[derive(Debug, Clone)]
pub struct LoopResult {
    /// Latency of each timed run, ns.
    pub latencies_ns: Vec<u64>,
    /// From the start of the timed phase to the end of its last run.
    pub wall_s: f64,
    /// Σ run time of the timed runs.
    pub busy_s: f64,
    pub threads: usize,
    /// Every check, fingerprint checks included.
    pub checks: Checks,
    /// Digest of every case's fingerprint.
    pub fingerprint: u64,
    /// Simulated statistics of case 0.
    pub case0: SimCounts,
}

/// Runs claimed per executor fan-out in the timed phase. Runs past the
/// deadline return at once, so the size only bounds the barrier at the
/// end of a fan-out.
const BATCH: usize = 256;

/// Closed loop: `threads` workers, each starting its next run as soon
/// as its previous one ends, for `seconds`. The first `cases()` runs
/// (at least one per worker) are an untimed warm-up that also fixes
/// each case's reference fingerprint; every later run of a case must
/// reproduce it exactly, or a check fails.
pub fn closed_loop<W: Workload + ?Sized>(
    w: &W,
    exec: &RunExecutor,
    threads: usize,
    seconds: f64,
    tr: &Tracer,
) -> LoopResult {
    let cases = w.cases();
    let warm = cases.max(threads);
    let mut checks = Checks::default();
    let warmup = exec.map_run_range(0..warm, |r| guarded_run(w, r, tr));
    let refs: Vec<u64> = warmup[..cases].iter().map(|o| o.fingerprint).collect();
    let case0 = warmup[0].counts;
    let verify = |checks: &mut Checks, r: usize, out: &RunOutcome| {
        checks.add(out.checks);
        checks.check(
            out.fingerprint == refs[r % cases],
            &format!("run {r} fingerprint differs from case {}", r % cases),
        );
    };
    for (r, out) in warmup.iter().enumerate() {
        verify(&mut checks, r, out);
    }

    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let mut latencies_ns = Vec::new();
    let mut busy_s = 0.0;
    let mut last_end = start;
    let mut next = warm;
    loop {
        let batch = exec.map_run_range(next..next + BATCH, |r| {
            let t0 = Instant::now();
            (t0 < deadline).then(|| (guarded_run(w, r, tr), t0, Instant::now()))
        });
        let mut done = false;
        for (i, item) in batch.into_iter().enumerate() {
            let Some((out, t0, t1)) = item else {
                done = true;
                continue;
            };
            verify(&mut checks, next + i, &out);
            latencies_ns.push((t1 - t0).as_nanos() as u64);
            busy_s += (t1 - t0).as_secs_f64();
            last_end = last_end.max(t1);
        }
        next += BATCH;
        if done {
            break;
        }
    }
    LoopResult {
        latencies_ns,
        wall_s: (last_end - start).as_secs_f64(),
        busy_s,
        threads,
        checks,
        fingerprint: digest(refs),
        case0,
    }
}

/// Median of `xs` (mean of the middle two for an even count); `NaN`
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size in MB (10⁶ bytes), from `VmHWM`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Two cases. Run 2, the first timed run, returns a fingerprint
    /// that differs from case 0's; run 3, the second, panics. Both start
    /// at once, well inside the timed phase.
    struct Flaky {
        calls: AtomicUsize,
    }

    impl Workload for Flaky {
        fn cases(&self) -> usize {
            2
        }
        fn executor_threads(&self, _: usize) -> usize {
            1
        }
        fn run(&self, r: usize, _: &Tracer) -> RunOutcome {
            self.calls.fetch_add(1, Ordering::Relaxed);
            if r == 3 {
                panic!("injected");
            }
            RunOutcome {
                fingerprint: (r % 2) as u64 + u64::from(r == 2),
                ..RunOutcome::default()
            }
        }
    }

    #[test]
    fn fingerprint_mismatch_and_panic_count_as_failures() {
        let w = Flaky {
            calls: AtomicUsize::new(0),
        };
        let tr = Tracer::new(false);
        let res = closed_loop(&w, &RunExecutor::serial(), 1, 0.05, &tr);
        let runs = w.calls.load(Ordering::Relaxed) as u64;
        assert!(runs >= 4, "the two faulty runs must have run");
        // One fingerprint check per run; run 2 mismatches case 0, run 3
        // panics (its check and its fingerprint fail).
        assert_eq!(res.checks.attempted, runs + 1);
        assert_eq!(res.checks.failed, 3);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert!(median(&[]).is_nan());
    }
}
