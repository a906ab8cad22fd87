//! Every binary parses its command line strictly against its flag
//! table: a bad invocation prints one `error: …` line and the usage
//! line on stderr and exits with status 2 before any work starts,
//! without a panic backtrace; `--help` prints the usage on stdout and
//! exits 0. The sweep binaries' `--emit-spec` output is derived from
//! that table, so every result-affecting flag moves the spec hash and
//! no scheduling or observability flag does.

use std::process::{Command, Output};

use fpna_sweep::SweepSpec;

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env_remove("FPNA_THREADS")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn assert_usage_error(bin: &str, args: &[&str], msg: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit with status 2:\n{stderr}");
    assert!(stderr.contains(&format!("error: {msg}")), "{args:?} must say {msg:?}:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} must not panic:\n{stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must not start the experiment");
}

#[test]
fn malformed_values_exit_with_usage_errors() {
    for (args, flag) in [
        (&["--runs", "abc"][..], "runs"),
        (&["--len", "-3"][..], "len"),
        (&["--seed", "0x9"][..], "seed"),
        (&["--threads", "0"][..], "threads"),
        (&["--threads", "two"][..], "threads"),
        (&["--run-batch", "0"][..], "run-batch"),
        (&["--load", "0,high"][..], "load"),
        (&["--segments", "0"][..], "segments"),
        (&["--route", "random"][..], "route"),
        // Each would reach a library assert and panic.
        (&["--fanout", "1"][..], "fanout"),
        (&["--segments", "5000"][..], "segments"),
    ] {
        assert_usage_error(env!("CARGO_BIN_EXE_table9"), args, &format!("--{flag} expects"));
    }
    assert_usage_error(env!("CARGO_BIN_EXE_fig_allreduce"), &["--ranks", "0"], "--ranks expects");
    assert_usage_error(env!("CARGO_BIN_EXE_fig_allreduce"), &["--ranks", "6"], "--ranks expects");
}

#[test]
fn unknown_duplicated_and_value_less_flags_are_usage_errors() {
    let table5 = env!("CARGO_BIN_EXE_table5");
    assert_usage_error(env!("CARGO_BIN_EXE_table2"), &["--runz", "3"], "unknown flag --runz");
    assert_usage_error(table5, &["--runs"], "--runs expects");
    assert_usage_error(table5, &["--runs", "--seed", "3"], "--runs expects");
    assert_usage_error(table5, &["--paper-scale=1"], "--paper-scale takes no value");
    assert_usage_error(table5, &["--runs", "7", "--runs", "9"], "--runs given more than once");
    assert_usage_error(table5, &["--runs=7", "--runs", "9"], "--runs given more than once");
    assert_usage_error(table5, &["40"], "unexpected argument 40");
    assert_usage_error(
        table5,
        &["--runs", "2", "--shard-id", "0", "--shard-start", "0", "--shard-end", "5"],
        "--shard-end 5 exceeds the run count 2",
    );
    assert_usage_error(table5, &["--shard-start=0", "--shard-end=1"], "--shard-start");
    let bench_gate = env!("CARGO_BIN_EXE_bench_gate");
    assert_usage_error(bench_gate, &["--thresold", "2"], "unknown flag --thresold");
    // Only the sweep binaries declare the protocol flags.
    assert_usage_error(env!("CARGO_BIN_EXE_fig2"), &["--emit-spec"], "unknown flag --emit-spec");
}

#[test]
fn bench_gate_rejects_malformed_thresholds() {
    for (args, flag) in [
        (&["--threshold", "abc"][..], "threshold"),
        (&["--suite-threshold", "gnn"][..], "suite-threshold"),
        (&["--suite-threshold", "gnn=x"][..], "suite-threshold"),
        (&["--suite-threshold"][..], "suite-threshold"),
    ] {
        assert_usage_error(env!("CARGO_BIN_EXE_bench_gate"), args, &format!("--{flag} expects"));
    }
}

const EXPERIMENTS: [&str; 20] = [
    env!("CARGO_BIN_EXE_ablations"),
    env!("CARGO_BIN_EXE_fig1"),
    env!("CARGO_BIN_EXE_fig2"),
    env!("CARGO_BIN_EXE_fig3"),
    env!("CARGO_BIN_EXE_fig4"),
    env!("CARGO_BIN_EXE_fig5"),
    env!("CARGO_BIN_EXE_fig_allreduce"),
    env!("CARGO_BIN_EXE_fig_cg_divergence"),
    env!("CARGO_BIN_EXE_fig_f32"),
    env!("CARGO_BIN_EXE_fig_powerlaw"),
    env!("CARGO_BIN_EXE_fig_weight_divergence"),
    env!("CARGO_BIN_EXE_table1"),
    env!("CARGO_BIN_EXE_table2"),
    env!("CARGO_BIN_EXE_table3"),
    env!("CARGO_BIN_EXE_table4"),
    env!("CARGO_BIN_EXE_table5"),
    env!("CARGO_BIN_EXE_table6"),
    env!("CARGO_BIN_EXE_table7"),
    env!("CARGO_BIN_EXE_table8"),
    env!("CARGO_BIN_EXE_table9"),
];

fn help(bin: &str) -> String {
    let out = run(bin, &["--help"]);
    assert_eq!(out.status.code(), Some(0), "{bin} --help must exit 0");
    String::from_utf8(out.stdout).expect("usage is UTF-8")
}

#[test]
fn help_prints_usage_and_runs_nothing() {
    for bin in EXPERIMENTS.into_iter().chain([env!("CARGO_BIN_EXE_bench_gate")]) {
        let name = std::path::Path::new(bin).file_stem().unwrap().to_string_lossy().into_owned();
        let text = help(bin);
        assert!(text.starts_with(&format!("usage: {name} [")), "{name}: {text}");
        assert!(!text.contains("==="), "{name} --help printed its banner: {text}");
        assert_eq!(run(bin, &["-h"]).stdout, text.as_bytes(), "{name}: -h and --help differ");
    }
}

#[test]
fn shard_flags_read_the_same_with_equals_signs() {
    let dir = std::env::temp_dir().join(format!("fpna-cli-eq-{}", std::process::id()));
    let (spaced, joined) = (dir.join("spaced.json"), dir.join("joined.json"));
    let spaced_out = format!("{}", spaced.display());
    let joined_out = format!("--shard-out={}", joined.display());
    let table5 = env!("CARGO_BIN_EXE_table5");
    let a = run(
        table5,
        &["--runs", "3", "--shard-id", "0", "--shard-start", "0", "--shard-end", "1", "--shard-out", &spaced_out],
    );
    let b = run(
        table5,
        &["--runs=3", "--shard-id=0", "--shard-start=0", "--shard-end=1", &joined_out],
    );
    for out in [&a, &b] {
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert!(out.stdout.is_empty(), "a shard prints no report");
    }
    assert_eq!(std::fs::read(&spaced).unwrap(), std::fs::read(&joined).unwrap());
    std::fs::remove_dir_all(&dir).expect("clear shard dir");
}

/// Flags that never enter a spec: scheduling, observability, the
/// paper-scale preset switch (the sizes it resolves do) and the
/// protocol itself.
const NEUTRAL: [&str; 11] = [
    "threads", "run-batch", "paper-scale", "trace", "profile", "emit-spec", "shard-id",
    "shard-start", "shard-end", "shard-out", "from-shards",
];

fn spec_hash(bin: &str, args: &[&str]) -> String {
    let mut argv = args.to_vec();
    argv.push("--emit-spec");
    let out = run(bin, &argv);
    assert!(out.status.success(), "{bin} {argv:?}: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).expect("spec is UTF-8");
    SweepSpec::from_json_str(text.trim()).expect("spec parses").hash_hex()
}

/// `--flag [value]` arguments that move each of `bin`'s own flags off
/// its default, read from its `--help`: a switch turns on, a choice
/// takes another word, an integer goes up by one.
fn off_default_args(bin: &str) -> Vec<Vec<String>> {
    help(bin)
        .lines()
        .skip(1)
        .filter_map(|line| {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let name = tokens[0].strip_prefix("--")?;
            if NEUTRAL.contains(&name) {
                return None;
            }
            let flag = tokens[0].to_string();
            let Some(&meta) = tokens.get(1) else {
                return Some(vec![flag]);
            };
            let default = tokens.iter().position(|&t| t == "default");
            let default = default.map(|i| tokens[i + 1].trim_end_matches(';'));
            let default = default.unwrap_or_else(|| panic!("--{name} has no default to move off"));
            let value = match meta.split('|').find(|&w| w != default) {
                Some(word) if meta.contains('|') => word.to_string(),
                _ => {
                    let n: u64 = default.parse().unwrap_or_else(|_| panic!("--{name} default {default}"));
                    (n + 1).to_string()
                }
            };
            Some(vec![flag, value])
        })
        .collect()
}

#[test]
fn every_result_flag_and_no_other_moves_the_spec_hash() {
    let trace = std::env::temp_dir().join(format!("fpna-cli-spec-{}.json", std::process::id()));
    let trace = trace.display().to_string();
    for bin in [
        env!("CARGO_BIN_EXE_table2"),
        env!("CARGO_BIN_EXE_table5"),
        env!("CARGO_BIN_EXE_table7"),
        env!("CARGO_BIN_EXE_table9"),
        env!("CARGO_BIN_EXE_fig1"),
    ] {
        let base = spec_hash(bin, &[]);
        let neutral = ["--threads", "3", "--run-batch", "2", "--profile", "--trace", &trace];
        assert_eq!(spec_hash(bin, &neutral), base, "{bin}: scheduling/obs flags moved the spec");
        for args in off_default_args(bin) {
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            assert_ne!(spec_hash(bin, &args), base, "{bin} {args:?} left the spec unchanged");
        }
    }
    assert!(!std::path::Path::new(&trace).exists(), "--emit-spec must write no trace");
}
