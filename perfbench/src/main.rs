//! The repository benchmark: one command, four workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a separate
//! traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_hot|serve_cold|build|sweep> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! * `serve_hot` / `serve_cold` — the SANW mixed query stream over
//!   loopback against a `NetServer` fronting a v2 vault of the
//!   10k-node/98-day fixture; hot warms a cache that holds every day,
//!   cold caps the cache at a quarter of the vault's resident bytes
//!   ([`serve`]).
//! * `build` — streaming synthesis into a v2 vault at Phase II 1,000
//!   arrivals/day ([`offline`]).
//! * `sweep` — the paper's five-metric evolution panel through the
//!   day-parallel sweep driver ([`sweep`]).
//!
//! `BENCHMARK.json` lists `serve_cold`, `build` and `sweep`. `serve_hot`
//! runs by hand and as the serving probe of traced runs, but its p50 is
//! a ~1 µs request inside a loopback round trip that is almost all
//! kernel: on a shared 2-vCPU VM that round trip took ≈12 or ≈22 µs
//! depending on the host, in phases from under a second to minutes long
//! (even with every thread held on one CPU), so ten runs spread 37%
//! between quartiles — more than any bound a regression check can use.
//!
//! Every workload reports the same end-to-end metrics over its own unit
//! of work: `setup_s` (median of repeated set-ups), `p50_us`/`p99_us`
//! (exact percentiles of the unit's latency: a SANW request in the open
//! loop, a simulated day of the build, a sampled day of the panel),
//! `goodput_per_s` (units completed per second; for serving, `Ok`
//! answers within the latency limit in the closed loop) and
//! `peak_rss_mib` (resident peak while measuring). Each workload checks
//! its outputs after timing.
//!
//! The first stdout line is a run header (nproc, rustc, git rev); the
//! last is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` they are the per-layer ones — every name: a layer the
//! workload's own path does not reach is timed by a short traced probe of
//! a workload whose path does — and the spans of the workload's traced
//! run are written to `perfbench/out/trace-<workload>-<seed>.tsv`.
//!
//! Every call into the program goes through [`layers`], one function per
//! entry point, so an API change edits one place here.

mod layers;
mod offline;
mod serve;
mod sweep;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use util::Report;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const WORKLOADS: [&str; 4] = ["serve_hot", "serve_cold", "build", "sweep"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().ok()?),
            "--seconds" => seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            _ => return None,
        }
    }
    let workload = workload.filter(|w| WORKLOADS.contains(&w.as_str()))?;
    Some(Args {
        workload,
        seed: seed?,
        seconds: Duration::from_secs_f64(seconds?),
        trace: trace?,
    })
}

/// Where runs keep their vaults and trace files: inside the checkout,
/// next to the benchmark's sources (ignored by git).
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Seconds of a serving probe, and Phase II arrivals/day of the build and
/// sweep probes.
const PROBE_SECONDS: f64 = 2.0;
const PROBE_ARRIVALS: u32 = 20;

/// A traced run reports every layer: a layer the workload's own path
/// leaves at zero is timed by a short traced run of a workload whose path
/// crosses it (serving for 2 s, build and sweep at 20 arrivals/day).
fn fill_from_probes(args: &Args, scratch: &std::path::Path, report: &mut Report) {
    // The workload's family: `serve_hot` and `serve_cold` are both `serve`.
    let own = args.workload.split('_').next();
    let probes: [(&str, &dyn Fn() -> Report); 3] = [
        ("serve", &|| {
            let dir = scratch.join("probe-serve");
            let seconds = Duration::from_secs_f64(PROBE_SECONDS);
            serve::traced(args.seed, seconds, &dir, serve::Cache::Hot)
        }),
        ("build", &|| {
            offline::traced(args.seed, PROBE_ARRIVALS, &scratch.join("probe-build"))
        }),
        ("sweep", &|| sweep::traced(args.seed, PROBE_ARRIVALS)),
    ];
    for (name, probe) in probes {
        if Some(name) == own {
            continue;
        }
        let probe = probe();
        for (metric, value) in probe.metrics {
            if report.metrics.get(metric).is_none_or(|v| *v == 0.0) {
                report.set(metric, value);
            }
        }
        report.failed += probe.failed;
        for note in probe.notes {
            report.check(false, || format!("{name} probe: {note}"));
        }
    }
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    println!("{}", util::run_header(&args));
    let out = out_dir();
    let scratch = out.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let mut report: Report = match args.workload.as_str() {
        "serve_hot" => serve::run(&args, &scratch, serve::Cache::Hot),
        "serve_cold" => serve::run(&args, &scratch, serve::Cache::Cold),
        "build" => offline::run(&args, &scratch),
        _ => sweep::run(&args, &scratch),
    };
    if args.trace {
        fill_from_probes(&args, &scratch, &mut report);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(spans) = &report.spans {
        let path = out.join(format!("trace-{}-{}.tsv", args.workload, args.seed));
        if let Err(e) = spans.write_tsv(&path) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    let names: Vec<&str> = if args.trace {
        util::PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        util::END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    println!("{}", report.to_json(&names, args.trace));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("correctness check failed: {}", report.notes.join("; "));
        ExitCode::FAILURE
    }
}
