//! `sweep` — the fleet-scale experiment coordinator.
//!
//! ```text
//! sweep --bin <experiment> [--shards N] [--jobs J] [--store DIR]
//!       [--bin-dir DIR] [--refresh] [--no-cache] [--manifest PATH]
//!       -- <experiment args...>
//! ```
//!
//! Shards the experiment's runs across OS processes, resumes from any
//! shard files already in the store, merges in shard-index order, and
//! prints a report **byte-identical** to running the experiment binary
//! directly with the same arguments. Progress goes to stderr; stdout
//! carries only the merged report.
//!
//! `--manifest PATH` writes the `(shard_id, base_seed, run_range)`
//! manifest JSON (or prints it for `-`) instead of running — the
//! hand-off format for splitting one sweep across machines.
//!
//! Store hygiene (no `--bin` needed):
//!
//! ```text
//! sweep --list [--store DIR]
//! sweep --gc [--max-age AGE] [--max-bytes SIZE] [--store DIR]
//! ```
//!
//! `--list` prints one line per stored sweep (spec hash, experiment,
//! runs, shard files, completeness, cached report, size, age).
//! `--gc` removes entries older than `--max-age` (suffixes `s`/`m`/
//! `h`/`d`, default seconds), then — if the store still exceeds
//! `--max-bytes` (suffixes `k`/`m`/`g`) — evicts incomplete entries
//! oldest-first, then complete ones. A spec-complete shard set newer
//! than the age cutoff is only ever removed by the byte budget.

use std::process::exit;
use std::time::{Duration, SystemTime};

use fpna_sweep::coordinator::Coordinator;
use fpna_sweep::store::SweepStore;
use fpna_sweep::{Cli, Flag, Ty};

const FLAGS: &[Flag] = &[
    Flag::optional("bin", Ty::Text("EXPERIMENT")),
    Flag::value("shards", Ty::Int(1), "2"),
    Flag::optional("jobs", Ty::Int(0)),
    Flag::optional("store", Ty::Text("DIR")),
    Flag::optional("bin-dir", Ty::Text("DIR")),
    Flag::switch("refresh"),
    Flag::switch("no-cache"),
    Flag::optional("manifest", Ty::Text("PATH")),
    Flag::switch("list"),
    Flag::switch("gc"),
    Flag::optional("max-age", Ty::Text("AGE")),
    Flag::optional("max-bytes", Ty::Text("SIZE")),
    Flag::rest("EXPERIMENT-ARGS"),
];

/// Parse a number with an optional one-letter unit suffix from
/// `units` (case-insensitive); a bare number has scale 1.
fn parse_scaled(s: &str, units: &[(char, u64)]) -> Result<u64, String> {
    let (num, scale) = match s.char_indices().last() {
        Some((i, c)) if c.is_ascii_alphabetic() => {
            let unit = units.iter().find(|(u, _)| *u == c.to_ascii_lowercase());
            (&s[..i], unit.ok_or(format!("unknown suffix {c:?} in {s:?}"))?.1)
        }
        _ => (s, 1),
    };
    num.parse::<u64>().map(|n| n * scale).map_err(|e| format!("bad value {s:?}: {e}"))
}

/// Parse a duration: plain seconds, or a number with an `s`/`m`/`h`/`d`
/// suffix.
fn parse_age(s: &str) -> Result<Duration, String> {
    parse_scaled(s, &[('s', 1), ('m', 60), ('h', 3600), ('d', 86_400)]).map(Duration::from_secs)
}

/// Parse a size: plain bytes, or a number with a `k`/`m`/`g` suffix.
fn parse_size(s: &str) -> Result<u64, String> {
    parse_scaled(s, &[('k', 1 << 10), ('m', 1 << 20), ('g', 1 << 30)])
}

fn human_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

fn human_age(newest: SystemTime, now: SystemTime) -> String {
    let secs = now.duration_since(newest).map(|d| d.as_secs()).unwrap_or(0);
    if secs >= 86_400 {
        format!("{}d", secs / 86_400)
    } else if secs >= 3600 {
        format!("{}h", secs / 3600)
    } else if secs >= 60 {
        format!("{}m", secs / 60)
    } else {
        format!("{secs}s")
    }
}

fn list_store(store: &SweepStore) -> i32 {
    let entries = match store.list_entries() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: cannot scan {}: {e}", store.root().display());
            return 1;
        }
    };
    if entries.is_empty() {
        println!("store {} is empty", store.root().display());
        return 0;
    }
    let now = SystemTime::now();
    println!(
        "{:<16}  {:<12} {:>6} {:>6}  {:<10} {:>9} {:>5}  report",
        "spec", "experiment", "runs", "shards", "state", "size", "age"
    );
    for e in &entries {
        let (exp, runs) = match &e.spec {
            Some(s) => (s.experiment.clone(), s.runs.to_string()),
            None => ("?".into(), "?".into()),
        };
        println!(
            "{:<16}  {:<12} {:>6} {:>6}  {:<10} {:>9} {:>5}  {}",
            e.hash,
            exp,
            runs,
            e.shard_count,
            if e.complete { "complete" } else { "incomplete" },
            human_bytes(e.total_bytes),
            human_age(e.newest_mtime, now),
            if e.has_report { "yes" } else { "no" }
        );
    }
    let total: u64 = entries.iter().map(|e| e.total_bytes).sum();
    println!("{} entries, {}", entries.len(), human_bytes(total));
    0
}

fn gc_store(store: &SweepStore, max_age: Option<Duration>, max_bytes: Option<u64>) -> i32 {
    if max_age.is_none() && max_bytes.is_none() {
        eprintln!("error: --gc needs --max-age and/or --max-bytes");
        return 2;
    }
    match store.gc(max_age, max_bytes, SystemTime::now()) {
        Ok(out) => {
            for hash in &out.removed {
                eprintln!("removed {hash}");
            }
            println!(
                "gc: removed {} entries ({}), kept {} ({})",
                out.removed.len(),
                human_bytes(out.freed_bytes),
                out.kept,
                human_bytes(out.kept_bytes)
            );
            0
        }
        Err(e) => {
            eprintln!("error: gc failed: {e}");
            1
        }
    }
}

fn main() {
    let cli = Cli::from_env(&[FLAGS]);
    let store = cli.opt::<String>("store").map_or_else(SweepStore::default_root, SweepStore::new);
    let max_age = cli.opt::<String>("max-age").map(|v| {
        parse_age(&v).unwrap_or_else(|e| cli.fail(format!("--max-age: {e}")))
    });
    let max_bytes = cli.opt::<String>("max-bytes").map(|v| {
        parse_size(&v).unwrap_or_else(|e| cli.fail(format!("--max-bytes: {e}")))
    });
    let (list, gc) = (cli.on("list"), cli.on("gc"));
    if list || gc {
        if cli.opt::<String>("bin").is_some() {
            cli.fail("--list/--gc do not take --bin");
        }
        let code = if list {
            list_store(&store)
        } else {
            gc_store(&store, max_age, max_bytes)
        };
        exit(code)
    }
    if max_age.is_some() || max_bytes.is_some() {
        cli.fail("--max-age/--max-bytes only apply to --gc");
    }
    let Some(bin) = cli.opt::<String>("bin") else {
        cli.fail("--bin is required");
    };

    let mut coordinator = Coordinator::new(bin, cli.all("EXPERIMENT-ARGS").to_vec(), cli.get("shards"));
    if let Some(j) = cli.opt::<usize>("jobs") {
        coordinator.jobs = j.max(1);
    }
    coordinator.store = store;
    coordinator.bin_dir = cli.opt("bin-dir");
    coordinator.refresh = cli.on("refresh");
    coordinator.no_cache = cli.on("no-cache");

    if let Some(path) = cli.opt::<String>("manifest") {
        let text = coordinator.manifest().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            exit(1)
        });
        if path == "-" {
            println!("{text}");
        } else if let Err(e) =
            fpna_sweep::store::write_atomic(std::path::Path::new(&path), text.as_bytes())
        {
            eprintln!("error: cannot write manifest: {e}");
            exit(1)
        }
        return;
    }

    match coordinator.run() {
        Ok(outcome) => {
            use std::io::Write as _;
            std::io::stdout()
                .write_all(&outcome.report)
                .expect("writing report to stdout");
            exit(outcome.merge_status);
        }
        Err(e) => {
            eprintln!("error: {e}");
            exit(1)
        }
    }
}
