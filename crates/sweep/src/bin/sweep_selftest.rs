//! `sweep_selftest` — a minimal, protocol-complete experiment.
//!
//! Exists so the sharding protocol can be exercised end to end (spawn,
//! shard files, resume, merge, cache) in seconds inside `cargo test`
//! and CI, without paying for a real experiment. Per run it sums a
//! seeded array two ways and reports run statistics plus an exact
//! (error-free) total — enough structure that any merge mistake, seed
//! impurity, or lossy serialization shows up as changed report bytes.
//!
//! Flags: `FLAGS` below plus the sweep protocol flags (`--help`).

use fpna_core::harness::RunSummary;
use fpna_core::rng::{derive_seed, SplitMix64};
use fpna_summation::{kahan_sum, serial_sum, ExactAccumulator};
use fpna_sweep::rows::{f64_to_hex, SweepRows};
use fpna_sweep::spec::SweepSpec;
use fpna_sweep::{Cli, Flag, SweepMode, Ty, PROTOCOL_FLAGS};

const FLAGS: &[Flag] =
    &[Flag::int("runs", "12"), Flag::value("len", Ty::Int(1), "1000"), Flag::int("seed", "7")];

fn compute(spec: &SweepSpec, range: std::ops::Range<usize>, len: usize, seed: u64) -> SweepRows {
    let mut rows = SweepRows::new();
    for run in range {
        // Seed by GLOBAL run index: the work at run r is identical no
        // matter which process computes it.
        let mut rng = SplitMix64::new(derive_seed(seed, run as u64));
        let xs: Vec<f64> = (0..len).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
        rows.push("sums", run, vec![serial_sum(&xs), kahan_sum(&xs), xs[0]]);
    }
    debug_assert!(rows.is_empty() || rows.cell_count() == 1, "{spec:?}");
    rows
}

fn report(spec: &SweepSpec, rows: &SweepRows, len: usize, seed: u64) {
    println!(
        "sweep selftest: runs={} len={len} seed={seed}",
        spec.runs
    );
    let mut exact = ExactAccumulator::new();
    for v in rows.column("sums", 0) {
        exact.add(v);
    }
    let total = exact.round();
    println!("exact total of serial sums: {} ({total:.17e})", f64_to_hex(total));
    for (label, col) in [("serial", 0), ("kahan", 1), ("first", 2)] {
        let s: RunSummary = rows.run_summary("sums", col);
        println!(
            "{label}: runs={} mean={} min={} max={} std={}",
            s.runs,
            f64_to_hex(s.mean),
            f64_to_hex(s.min),
            f64_to_hex(s.max),
            f64_to_hex(s.std_dev),
        );
    }
}

fn main() {
    let cli = Cli::from_env(&[FLAGS, PROTOCOL_FLAGS]);
    let mode = SweepMode::from_cli(&cli).unwrap_or_else(|e| cli.fail(e));
    let (len, seed) = (cli.get("len"), cli.get("seed"));
    let spec = cli.spec("sweep_selftest", cli.get("runs"));
    if let Some(rows) = mode.rows(&spec, |range| compute(&spec, range, len, seed)) {
        report(&spec, &rows, len, seed);
    }
}
