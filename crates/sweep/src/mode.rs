//! The sharding protocol experiment binaries speak.
//!
//! Any binary wired through [`SweepMode`] gains four modes from one
//! small flag set, while staying the single source of truth for its
//! own spec:
//!
//! * **Full** (no protocol flags): compute every run and print the
//!   report — exactly the pre-sweep behaviour.
//! * **`--emit-spec`**: print the canonical [`SweepSpec`] JSON on
//!   stdout and exit. The coordinator calls this instead of guessing a
//!   binary's flags.
//! * **`--shard-id N --shard-start A --shard-end B [--shard-out PATH]`**:
//!   compute only global runs `[A, B)`, write a self-describing shard
//!   file, print **nothing** on stdout.
//! * **`--from-shards STORE_ROOT`**: skip all computation, load and
//!   merge the shard files for this spec from the store, and print the
//!   report — byte-identical to Full mode's output.
//!
//! The intended `main` skeleton:
//!
//! ```ignore
//! let cli = Cli::from_env(&[FLAGS, PROTOCOL_FLAGS]);
//! let mode = SweepMode::from_cli(&cli).unwrap_or_else(|e| cli.fail(e));
//! let spec = cli.spec("experiment", runs);      // derived from FLAGS
//! if let Some(rows) = mode.rows(&spec, compute) {
//!     report(&rows);                           // Full or Merge
//! }                                            // else: spec printed or shard written
//! ```

use std::ops::Range;
use std::path::PathBuf;

use crate::cli::{Cli, Flag, Ty};
use crate::rows::SweepRows;
use crate::spec::SweepSpec;
use crate::store::SweepStore;

/// The protocol's flags, shared by every binary that speaks it. None
/// affects results.
pub const PROTOCOL_FLAGS: &[Flag] = &[
    Flag::switch("emit-spec").result_neutral(),
    Flag::optional("shard-id", Ty::Int(0)).result_neutral(),
    Flag::optional("shard-start", Ty::Int(0)).result_neutral(),
    Flag::optional("shard-end", Ty::Int(0)).result_neutral(),
    Flag::optional("shard-out", Ty::Text("PATH")).result_neutral(),
    Flag::optional("from-shards", Ty::Text("STORE")).result_neutral(),
];

/// Which of the four protocol modes the process is running in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepMode {
    /// Compute all runs and report (no protocol flags present).
    Full,
    /// Print the spec JSON and exit.
    EmitSpec,
    /// Compute one shard's run range and write its shard file.
    Shard {
        /// Shard index.
        id: usize,
        /// Global run range `[start, end)` to compute.
        start: usize,
        /// End of the global run range.
        end: usize,
        /// Where to write the shard file; defaults to the standard
        /// store path under `target/sweeps`.
        out: Option<PathBuf>,
    },
    /// Merge shard files from the store root and report.
    Merge {
        /// Results store root (the directory holding `<spec-hash>/`).
        root: PathBuf,
    },
}

impl SweepMode {
    /// The mode a command line parsed with [`PROTOCOL_FLAGS`] selects.
    /// Errors name flags that do not combine or are incomplete.
    pub fn from_cli(cli: &Cli) -> Result<SweepMode, String> {
        let emit = cli.on("emit-spec");
        let shard_id = cli.opt::<usize>("shard-id");
        let from_shards = cli.opt::<PathBuf>("from-shards");

        let modes_requested =
            usize::from(emit) + usize::from(shard_id.is_some()) + usize::from(from_shards.is_some());
        if modes_requested > 1 {
            return Err("--emit-spec, --shard-id and --from-shards are mutually exclusive".into());
        }

        let start = cli.opt::<usize>("shard-start");
        let end = cli.opt::<usize>("shard-end");
        let out = cli.opt::<PathBuf>("shard-out");
        let Some(id) = shard_id else {
            if start.is_some() || end.is_some() || out.is_some() {
                return Err("--shard-start, --shard-end and --shard-out need --shard-id".into());
            }
            return Ok(match from_shards {
                Some(root) => SweepMode::Merge { root },
                None if emit => SweepMode::EmitSpec,
                None => SweepMode::Full,
            });
        };
        let start = start.ok_or("--shard-id requires --shard-start")?;
        let end = end.ok_or("--shard-id requires --shard-end")?;
        if end < start {
            return Err(format!("--shard-end {end} < --shard-start {start}"));
        }
        Ok(SweepMode::Shard { id, start, end, out })
    }

    /// Run the protocol for `spec`, `compute` taking a global run
    /// range: the rows to report (Full or Merge mode), or `None` once
    /// `EmitSpec` printed the spec or `Shard` wrote its shard file.
    /// Exits with status 2 if a shard range reaches past `spec.runs`,
    /// and with status 1 if shard files cannot be written or merged.
    pub fn rows(
        &self,
        spec: &SweepSpec,
        compute: impl FnOnce(Range<usize>) -> SweepRows,
    ) -> Option<SweepRows> {
        match self {
            SweepMode::EmitSpec => {
                println!("{}", spec.canonical_json());
                return None;
            }
            SweepMode::Merge { root } => match SweepStore::new(root).load_merged(spec) {
                Ok(rows) => return Some(rows),
                Err(e) => {
                    eprintln!("error: cannot merge shards for spec {}: {e}", spec.hash_hex());
                    std::process::exit(1);
                }
            },
            SweepMode::Shard { end, .. } if *end > spec.runs => {
                eprintln!("error: --shard-end {end} exceeds the run count {}", spec.runs);
                std::process::exit(2);
            }
            SweepMode::Full | SweepMode::Shard { .. } => {}
        }
        let range = self.compute_range(spec.runs).expect("Full and Shard modes compute runs");
        let rows = compute(range);
        let SweepMode::Shard { id, start, end, out } = self else {
            return Some(rows);
        };
        let result = match out {
            Some(path) => crate::store::write_atomic(
                path,
                crate::store::encode_shard(spec, *id, *start..*end, &rows).as_bytes(),
            )
            .map(|()| path.clone()),
            None => SweepStore::default_root().write_shard(spec, *id, *start..*end, &rows),
        };
        match result {
            Ok(path) => eprintln!(
                "shard {id} [{start}..{end}) of spec {} -> {}",
                spec.hash_hex(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: cannot write shard file: {e}");
                std::process::exit(1);
            }
        }
        None
    }

    /// The global run range this process must compute, or `None` in
    /// `Merge` mode (nothing is computed there).
    ///
    /// # Panics
    ///
    /// Panics if a shard range reaches past `total_runs` — the
    /// coordinator and the binary disagree about the spec, which must
    /// not be papered over.
    pub fn compute_range(&self, total_runs: usize) -> Option<Range<usize>> {
        match self {
            SweepMode::Full | SweepMode::EmitSpec => Some(0..total_runs),
            SweepMode::Shard { start, end, .. } => {
                assert!(
                    *end <= total_runs,
                    "shard range {start}..{end} exceeds --runs {total_runs}"
                );
                Some(*start..*end)
            }
            SweepMode::Merge { .. } => None,
        }
    }

    /// The shard id, when in shard mode.
    pub fn shard_id(&self) -> Option<usize> {
        match self {
            SweepMode::Shard { id, .. } => Some(*id),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mode(s: &[&str]) -> Result<SweepMode, String> {
        let args: Vec<String> = s.iter().map(|x| x.to_string()).collect();
        const RUNS: &[Flag] = &[Flag::int("runs", "8")];
        SweepMode::from_cli(&Cli::parse("t", &args, &[RUNS, PROTOCOL_FLAGS])?)
    }

    #[test]
    fn full_mode_when_no_protocol_flags() {
        let m = mode(&["--runs", "8"]).unwrap();
        assert_eq!(m, SweepMode::Full);
        assert_eq!(m.compute_range(8), Some(0..8));
    }

    #[test]
    fn shard_mode_parses_range_and_out() {
        let m = mode(&[
            "--runs", "8", "--shard-id", "1", "--shard-start", "4", "--shard-end=8",
            "--shard-out", "/tmp/x.json",
        ])
        .unwrap();
        assert_eq!(m.compute_range(8), Some(4..8));
        assert_eq!(m.shard_id(), Some(1));
    }

    #[test]
    fn merge_mode_has_no_compute_range() {
        let m = mode(&["--from-shards", "/tmp/store"]).unwrap();
        assert_eq!(m.compute_range(8), None);
    }

    #[test]
    fn malformed_flags_are_rejected() {
        assert!(mode(&["--shard-id", "0"]).is_err());
        assert!(mode(&["--shard-id"]).is_err());
        assert!(mode(&["--shard-id", "0", "--shard-start", "5", "--shard-end", "2"]).is_err());
        assert!(mode(&["--shard-start", "0", "--shard-end", "2"]).is_err());
        assert!(mode(&["--emit-spec", "--from-shards", "x"]).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn shard_range_beyond_runs_panics() {
        let m = mode(&["--shard-id", "0", "--shard-start", "0", "--shard-end", "9"]).unwrap();
        let _ = m.compute_range(8);
    }
}
