//! # fpna-bench
//!
//! Regenerators for every table and figure in the paper, plus shared
//! experiment plumbing. Each `table*`/`fig*` binary prints the same
//! rows/series the paper reports; `EXPERIMENTS.md` records
//! paper-vs-measured for each.
//!
//! Each binary declares its flags once, in a `const FLAGS: &[Flag]`
//! table, and [`ExperimentArgs::parse`] reads the command line against
//! it and the shared flags below with [`Cli`], the suite's one strict
//! argv parser (`--help` lists every flag with its default; a bad flag
//! exits 2 before any work). Defaults are scaled down from the paper's
//! (e.g. 10 000 runs → hundreds) so a full regeneration finishes in
//! minutes; `EXPERIMENTS.md` records the scaling per experiment.
//!
//! Shared by every binary (see [`ExperimentArgs`]):
//!
//! * `--threads N` — one shared worker budget: repeated runs fan out
//!   across `N` OS threads through
//!   [`fpna_core::executor::RunExecutor`], and a *single* large run
//!   (one reduction replay, one epoch, one event-driven allreduce)
//!   fans its hot kernels across the same `N` via the intra-run
//!   primitives ([`fpna_core::executor::par_chunk_map`] /
//!   [`fpna_core::executor::par_fill`]); inside a run-fan-out worker
//!   the intra-run layer collapses to serial, so the two never
//!   oversubscribe. Defaults to the `FPNA_THREADS` environment
//!   variable, then 1. Any value produces **bitwise-identical
//!   output**: run seeding, chunk boundaries and result collection are
//!   order-invariant by construction, so `--threads` only changes
//!   wall-clock time.
//! * `--run-batch B` — run indices a worker claims per pull.
//! * `--paper-scale` — switch every size flag to its paper value
//!   (e.g. Table 5's 10 000 runs per configuration). Explicit size
//!   flags still win.
//!
//! Two more are observability switches (off by default, see
//! [`fpna_obs`]):
//!
//! * `--trace out.json` — record every simulated-clock event (message
//!   hops, background bursts, admission drops, per-rank combines) as a
//!   Chrome trace-event / Perfetto JSON file. Purely simulated time:
//!   the trace bytes are a deterministic function of the experiment
//!   seed, not of the machine or thread count.
//! * `--profile` — enable the event counters and wall-clock phase
//!   profiler; the report lands in `target/obs/<bin>.profile.json`.
//!
//! Both report to **stderr** only, so stdout stays byte-identical with
//! and without them. `table2`, `table5`, `table7`, `table9` and `fig1`
//! also declare the sweep protocol flags ([`PROTOCOL_FLAGS`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt::Write as _;
use std::path::PathBuf;

use fpna_core::executor::RunExecutor;
use fpna_sweep::SweepMode;
pub use fpna_sweep::{Cli, Flag, Ty, PROTOCOL_FLAGS};

/// The flags every experiment binary shares; none affects results.
const SHARED_FLAGS: &[Flag] = &[
    Flag::optional("threads", Ty::Int(1)).result_neutral(),
    Flag::value("run-batch", Ty::Int(1), "1").result_neutral(),
    Flag::switch("paper-scale").result_neutral(),
    Flag::optional("trace", Ty::Text("PATH")).result_neutral(),
    Flag::switch("profile").result_neutral(),
];

/// A binary's parsed command line plus what the shared flags resolved
/// to.
#[derive(Debug, Clone)]
pub struct ExperimentArgs {
    /// Worker thread count for repeated-run loops (`--threads`,
    /// default `FPNA_THREADS`, default 1).
    pub threads: usize,
    /// Which [`SweepMode`] the process runs in; plain Full mode for a
    /// binary without [`PROTOCOL_FLAGS`]. In shard mode the
    /// observability outputs are namespaced per shard (see
    /// [`ExperimentArgs::finish`]).
    pub sweep: SweepMode,
    /// The whole parsed command line; the binary reads its own flags
    /// from here.
    pub cli: Cli,
}

impl ExperimentArgs {
    /// Parse the command line against the binary's `tables` (its own
    /// flags, plus [`PROTOCOL_FLAGS`] if it speaks the sweep protocol)
    /// and the shared flags, and set up the worker budget and
    /// observability they ask for.
    pub fn parse(tables: &[&[Flag]]) -> Self {
        Self::from_cli(Cli::from_env(&[tables, &[SHARED_FLAGS]].concat()))
    }

    fn from_cli(cli: Cli) -> Self {
        let threads = cli.opt("threads").unwrap_or_else(|| RunExecutor::from_env().threads);
        // One flag, one budget: the same worker count drives the
        // repeated-run fan-out (RunExecutor) and the intra-run kernel
        // primitives; nesting collapses to serial inside workers, so
        // the two never multiply.
        fpna_core::executor::set_intra_threads(threads);
        if cli.opt::<PathBuf>("trace").is_some() {
            fpna_obs::trace::start();
        }
        let profile = cli.on("profile");
        if profile {
            fpna_obs::counters::reset();
            fpna_obs::counters::set_enabled(true);
            fpna_obs::profile::reset();
            fpna_obs::profile::set_enabled(true);
        }
        let sweep = if cli.declares("emit-spec") {
            SweepMode::from_cli(&cli).unwrap_or_else(|e| cli.fail(e))
        } else {
            SweepMode::Full
        };
        if profile {
            if let Some(id) = sweep.shard_id() {
                fpna_obs::profile::set_context(Some(format!("shard-{id}")));
            }
        }
        ExperimentArgs { threads, sweep, cli }
    }

    /// Flush the observability outputs requested on the command line:
    /// the Chrome/Perfetto trace to `--trace`'s path and the profile
    /// report to `target/obs/<bin>.profile.json`. Call once at the end
    /// of `main` (before any early `exit`). All messaging goes to
    /// stderr so stdout stays byte-identical with and without the
    /// observability flags.
    /// In shard mode, reports additionally carry a `.shard-<id>`
    /// suffix (`target/obs/<bin>.shard-<id>.profile.json`, and
    /// `--trace out.json` becomes `out.shard-<id>.json`) so concurrent
    /// shard processes of the same binary cannot overwrite each
    /// other's files. An `--emit-spec` process computed nothing and
    /// writes nothing.
    pub fn finish(&self) {
        if self.sweep == SweepMode::EmitSpec {
            return;
        }
        if let Some(path) = self.cli.opt::<PathBuf>("trace") {
            let path = self.shard_qualified(&path);
            match fpna_obs::trace::write_json(&path) {
                Ok(n) => eprintln!("[obs] trace: {n} events -> {}", path.display()),
                Err(e) => eprintln!("[obs] trace: FAILED writing {}: {e}", path.display()),
            }
            fpna_obs::trace::stop();
        }
        if self.cli.on("profile") {
            let name = match self.sweep.shard_id() {
                Some(id) => format!("{}.shard-{id}.profile.json", self.cli.program()),
                None => format!("{}.profile.json", self.cli.program()),
            };
            let path = PathBuf::from("target/obs").join(name);
            match fpna_obs::profile::write_report(&path) {
                Ok(()) => eprintln!("[obs] profile report -> {}", path.display()),
                Err(e) => eprintln!("[obs] profile: FAILED writing {}: {e}", path.display()),
            }
        }
    }

    /// Insert `.shard-<id>` before `path`'s extension when running as
    /// a shard; the unchanged path otherwise.
    fn shard_qualified(&self, path: &std::path::Path) -> PathBuf {
        let Some(id) = self.sweep.shard_id() else {
            return path.to_path_buf();
        };
        match path.extension().and_then(|e| e.to_str()) {
            Some(ext) => path.with_extension(format!("shard-{id}.{ext}")),
            None => path.with_extension(format!("shard-{id}")),
        }
    }

    /// The executor running this binary's repeated-run loops.
    pub fn executor(&self) -> RunExecutor {
        RunExecutor::new(self.threads).with_batch(self.cli.get("run-batch"))
    }
}

/// Print the standard experiment banner.
pub fn banner(id: &str, paper_ref: &str, scaling_note: &str) {
    println!("=== {id} — {paper_ref} ===");
    if !scaling_note.is_empty() {
        println!("({scaling_note})");
    }
    println!();
}

/// Render a sparse ASCII heat map of `values[row][col]` with row/col
/// labels — the Fig 3 output format.
pub fn ascii_heatmap(row_labels: &[String], col_labels: &[String], values: &[Vec<f64>]) -> String {
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let max = values
        .iter()
        .flatten()
        .copied()
        .fold(f64::MIN_POSITIVE, f64::max);
    let mut out = String::new();
    let label_w = row_labels.iter().map(|l| l.len()).max().unwrap_or(0);
    for (r, row) in values.iter().enumerate() {
        let _ = write!(out, "{:>label_w$} |", row_labels[r]);
        for &v in row {
            let idx = ((v / max) * (shades.len() - 1) as f64).round() as usize;
            let c = shades[idx.min(shades.len() - 1)];
            let _ = write!(out, " {c}{c}");
        }
        let _ = writeln!(out, " |");
    }
    let _ = write!(out, "{:>label_w$}  ", "");
    for l in col_labels {
        let _ = write!(out, " {:>2}", &l[..l.len().min(2)]);
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "(shade ∝ value; max = {max:.3e})");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_renders() {
        let rows = vec!["a".to_string(), "bb".to_string()];
        let cols = vec!["1".to_string(), "2".to_string()];
        let vals = vec![vec![0.0, 0.5], vec![1.0, 0.25]];
        let s = ascii_heatmap(&rows, &cols, &vals);
        assert!(s.contains('@'), "max cell should be darkest: {s}");
        assert!(s.lines().count() >= 4);
    }

    const FLAGS: &[Flag] = &[Flag::int("runs", "40").paper("10000")];

    fn args(argv: &[&str]) -> ExperimentArgs {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        ExperimentArgs::from_cli(Cli::parse("t", &argv, &[FLAGS, PROTOCOL_FLAGS, SHARED_FLAGS]).unwrap())
    }

    #[test]
    fn args_fall_back_to_defaults() {
        let a = args(&[]);
        assert_eq!(a.cli.get::<usize>("runs"), 40);
        assert_eq!(a.executor().batch, 1);
    }

    #[test]
    fn experiment_args_pick_preset_sizes() {
        let paper = args(&["--paper-scale", "--threads", "4", "--run-batch=8"]);
        assert_eq!(paper.cli.get::<usize>("runs"), 10_000);
        assert_eq!(paper.executor().threads, 4);
        assert_eq!(paper.executor().batch, 8);
        assert_eq!(args(&["--paper-scale", "--runs", "7"]).cli.get::<usize>("runs"), 7);
    }

    #[test]
    fn shard_mode_namespaces_obs_outputs() {
        let shard = args(&["--shard-id", "3", "--shard-start", "0", "--shard-end", "5"]);
        assert_eq!(
            shard.shard_qualified(std::path::Path::new("target/obs/t9.json")),
            PathBuf::from("target/obs/t9.shard-3.json")
        );
        assert_eq!(
            shard.shard_qualified(std::path::Path::new("trace")),
            PathBuf::from("trace.shard-3")
        );
        let full = ExperimentArgs { sweep: SweepMode::Full, ..shard };
        assert_eq!(
            full.shard_qualified(std::path::Path::new("target/obs/t9.json")),
            PathBuf::from("target/obs/t9.json")
        );
    }
}
