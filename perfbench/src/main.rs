//! Benchmark runner for the fpna workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload gnn-cora|gpu-sum|allreduce-fabric --seed N --seconds S --trace 0|1
//! ```
//!
//! Each invocation sets the workload up several times from `--seed`
//! (reporting the median set-up time), then runs a closed loop for
//! `--seconds` and checks every output. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The traced run also writes its spans to
//! `perfbench/out/`. See `perfbench/README.md` for the workloads and
//! the metrics.

mod alloc;
mod fabric;
mod gnn;
mod gpu_sum;
mod harness;
mod probes;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use fpna_core::RunExecutor;
use fpna_nn::graph::CoraParams;

use crate::fabric::Fabric;
use crate::gnn::Gnn;
use crate::gpu_sum::GpuSum;
use crate::harness::{
    closed_loop, guarded_run, median, peak_rss_mb, quantile, Checks, LoopResult, SimCounts,
    Workload,
};
use crate::trace::{Span, Tracer};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const WORKLOADS: [&str; 3] = ["gnn-cora", "gpu-sum", "allreduce-fabric"];

/// Spans whose median duration is a per-layer metric, `<span>.ms`.
const TIMED_SPANS: [&str; 22] = [
    "nn.train_epoch_det",
    "nn.train_epoch_nd",
    "nn.matmul_nt",
    "tensor.gather_rows",
    "tensor.index_add_det",
    "tensor.index_add_nd",
    "gpu-sim.reduce_spa",
    "gpu-sim.reduce_ao",
    "gpu-sim.reduce_sptr",
    "gpu-sim.atomic_scatter_add",
    "summation.reproducible_sum",
    "summation.exact_fold",
    "collectives.ring.arrival",
    "collectives.ring_seg8.arrival",
    "collectives.tree4.arrival",
    "collectives.hier.arrival",
    "collectives.dbt.arrival",
    "collectives.tree4.repro",
    "collectives.hier.repro",
    "collectives.dbt.repro",
    "core.metrics.compare",
    "stats.sample_vec",
];

/// Set-ups per invocation: at least `SETUP_MIN_REPS`, and more until
/// `SETUP_MIN_S` seconds are spent or `SETUP_MAX_REPS` are done, so
/// that a short set-up is sampled often. `setup_s` is their median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 100;
const SETUP_MIN_S: f64 = 1.0;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| bad(&WORKLOADS.join("|")))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A workload's set-up state.
enum Setup {
    Gnn(Box<Gnn>),
    GpuSum(GpuSum),
    Fabric(Box<Fabric>),
}

impl Setup {
    fn new(name: &str, seed: u64, threads: usize, tr: &Tracer) -> fpna_core::Result<Setup> {
        Ok(match name {
            "gnn-cora" => Setup::Gnn(Box::new(Gnn::setup(seed, CoraParams::cora(), tr)?)),
            "gpu-sum" => Setup::GpuSum(GpuSum::setup(seed, gpu_sum::ELEMS, threads, tr)),
            "allreduce-fabric" => Setup::Fabric(Box::new(Fabric::setup(seed, fabric::LEN, tr))),
            _ => unreachable!("workload names are checked when parsed"),
        })
    }

    fn workload(&self) -> &dyn Workload {
        match self {
            Setup::Gnn(w) => w.as_ref(),
            Setup::GpuSum(w) => w,
            Setup::Fabric(w) => w.as_ref(),
        }
    }
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn print_result(checks: Checks, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    alloc::retain_freed_memory();
    let budget = std::thread::available_parallelism().map_or(1, |n| n.get());
    fpna_core::executor::set_intra_threads(budget);
    let tr = Tracer::new(args.trace);

    let mut setup_s: Vec<f64> = Vec::new();
    let mut own = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_MIN_S && setup_s.len() < SETUP_MAX_REPS)
    {
        drop(own.take());
        let t0 = Instant::now();
        let s = tr.root("setup", setup_s.len() as u64, || {
            Setup::new(args.workload, args.seed, budget, &tr)
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        own = Some(s.map_err(|e| format!("{} set-up failed: {e}", args.workload))?);
    }
    let own = own.expect("at least one set-up ran");
    let setup_reps = setup_s.len();
    let setup_s = median(&setup_s);

    let w = own.workload();
    let threads = w.executor_threads(budget);
    let lp = closed_loop(w, &RunExecutor::new(threads), threads, args.seconds, &tr);
    let runs = lp.latencies_ns.len();
    let lat_ms: Vec<f64> = lp.latencies_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let runs_per_s = runs as f64 / lp.wall_s;
    let p50 = median(&lat_ms);
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    eprintln!(
        "{} seed={} trace={} threads={threads}/{budget} runs={runs} runs_per_s={runs_per_s:.4} run_ms_p50={p50:.4} (n={runs}){} setup_s={setup_s:.4} (n={setup_reps}) peak_rss_mb={rss:.1} checks={}/{} fingerprint={:016x}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        if runs >= 100 { format!(" run_ms_p90={:.4} (n={runs})", quantile(&lat_ms, 0.9)) } else { String::new() },
        lp.checks.attempted - lp.checks.failed,
        lp.checks.attempted,
        lp.fingerprint,
    );
    if runs == 0 {
        return Err("no run completed in the timed phase".into());
    }

    if !args.trace {
        print_result(
            lp.checks,
            &[
                metric("runs_per_s", runs_per_s, "1/s"),
                metric("run_ms_p50", p50, "ms"),
                metric("setup_s", setup_s, "s"),
                metric("peak_rss_mb", rss, "MB"),
            ],
        );
        return Ok(());
    }

    let (checks, metrics) = per_layer(args, budget, own, &lp, &tr)?;
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    tr.write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    print_result(checks, &metrics);
    Ok(())
}

/// The traced run's per-layer metrics. Besides the workload's own loop,
/// the traced process sets up every other workload and runs its case 0
/// once, then calls the layer probes, so every layer reports on every
/// workload.
fn per_layer(
    args: &Args,
    budget: usize,
    own: Setup,
    lp: &LoopResult,
    tr: &Tracer,
) -> Result<(Checks, Vec<Metric>), String> {
    let mut checks = lp.checks;
    let mut setups = vec![(args.workload, own, lp.case0)];
    for name in WORKLOADS.into_iter().filter(|&n| n != args.workload) {
        let s = tr
            .root("setup", 0, || Setup::new(name, args.seed, budget, tr))
            .map_err(|e| format!("{name} set-up failed: {e}"))?;
        let out = guarded_run(s.workload(), 0, tr);
        checks.add(out.checks);
        setups.push((name, s, out.counts));
    }
    let counts = |name: &str| -> SimCounts {
        setups
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, _, c)| *c)
            .expect("every workload is set up")
    };
    let (gpu, net) = (counts("gpu-sum"), counts("allreduce-fabric"));

    let mut contribs = 0;
    tr.root("probes", 0, || {
        for (_, s, _) in &setups {
            match s {
                Setup::Gnn(g) => {
                    contribs = probes::gnn_layer_probes(&g.ds, 16, args.seed, tr, &mut checks);
                }
                Setup::Fabric(f) => {
                    probes::exact_fold_probe(&f.ranks[0], &f.ranks[1], tr, &mut checks)
                }
                Setup::GpuSum(_) => {}
            }
        }
    });

    let spans = tr.spans();
    let of = |names: &[&str]| -> Vec<&Span> {
        spans.iter().filter(|s| names.contains(&s.name)).collect()
    };
    let mut metrics: Vec<Metric> = TIMED_SPANS
        .iter()
        .map(|&name| {
            let ms: Vec<f64> = of(&[name]).iter().map(|s| s.ms()).collect();
            if ms.is_empty() {
                checks.check(false, &format!("no {name} span was recorded"));
                return metric(format!("{name}.ms"), 0.0, "ms");
            }
            metric(format!("{name}.ms"), median(&ms), "ms")
        })
        .collect();
    let alloc_mb = |names: &[&str]| -> f64 {
        let mb: Vec<f64> = of(names)
            .iter()
            .map(|s| s.alloc_bytes as f64 / 1e6)
            .collect();
        median(&mb)
    };
    // Work per busy second over every span of the given names.
    let rate = |names: &[&str]| -> f64 {
        let s = of(names);
        let work: u64 = s.iter().map(|s| s.work).sum();
        let busy: f64 = s.iter().map(|s| s.ms() / 1e3).sum();
        work as f64 / busy
    };
    let arrival: Vec<&str> = fabric::ARRIVAL.iter().map(|&(_, n)| n).collect();
    let reduces = [
        "gpu-sim.reduce_spa",
        "gpu-sim.reduce_ao",
        "gpu-sim.reduce_sptr",
    ];
    let epochs = ["nn.train_epoch_det", "nn.train_epoch_nd"];
    metrics.extend([
        metric("nn.train_epoch.alloc_mb", alloc_mb(&epochs), "MB"),
        metric(
            "tensor.gather_rows.alloc_mb",
            alloc_mb(&["tensor.gather_rows"]),
            "MB",
        ),
        metric(
            "tensor.index_add_nd.alloc_mb",
            alloc_mb(&["tensor.index_add_nd"]),
            "MB",
        ),
        metric("tensor.index_add_nd.contribs", contribs as f64, "count"),
        metric("gpu-sim.melems_per_s", rate(&reduces) / 1e6, "Melem/s"),
        metric("gpu-sim.sim_time_ns", gpu.sim_time_ns, "ns"),
        metric("collectives.wire_bytes", net.wire_bytes as f64, "B"),
        metric("collectives.nic_bytes", net.nic_bytes as f64, "B"),
        metric("net.fg_hops", net.fg_hops as f64, "count"),
        metric("net.bg_hops", net.bg_hops as f64, "count"),
        metric("net.bg_dropped", net.bg_dropped as f64, "count"),
        metric("net.makespan_ns", net.makespan_ns, "ns"),
        metric("net.hops_per_s", rate(&arrival), "1/s"),
        metric(
            "core.executor.busy_frac",
            lp.busy_s / (lp.wall_s * lp.threads as f64),
            "fraction",
        ),
    ]);
    Ok((checks, metrics))
}
