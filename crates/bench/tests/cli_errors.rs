//! Malformed flag values are usage errors, not crashes: the binary
//! prints one `error: --<flag> expects …` line on stderr and exits
//! with status 2, without a panic backtrace.

use std::process::Command;

fn assert_usage_error(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin)
        .args(args)
        .env_remove("FPNA_THREADS")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit with status 2:\n{stderr}");
    assert!(
        stderr.contains(&format!("error: --{flag} expects")),
        "{args:?} must name the flag it rejects:\n{stderr}"
    );
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
    ] {
        assert_usage_error(env!("CARGO_BIN_EXE_table9"), args, flag);
    }
}

#[test]
fn bench_gate_rejects_malformed_thresholds() {
    for (args, flag) in [
        (&["--threshold", "abc"][..], "threshold"),
        (&["--suite-threshold", "gnn"][..], "suite-threshold"),
        (&["--suite-threshold", "gnn=x"][..], "suite-threshold"),
        (&["--suite-threshold"][..], "suite-threshold"),
    ] {
        assert_usage_error(env!("CARGO_BIN_EXE_bench_gate"), args, flag);
    }
}
