//! Shared plumbing: the metric tables, the result line, exact
//! percentiles, the run header, and the resident-memory sampler.

use crate::trace::Spans;
use crate::Args;
use std::collections::BTreeMap;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// End-to-end metrics (untraced run), with units. Every workload reports
/// every one; what "operation" means per workload is documented in
/// `BENCHMARK.json` and the workload modules.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("goodput_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (traced run), with units. A layer the workload's own
/// path does not reach is timed by a short probe run (see `main.rs`).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("load.late_p99_us", "us"),
    ("load.attempted", "count"),
    ("load.failed", "count"),
    ("net.decode_ns", "ns"),
    ("net.encode_ns", "ns"),
    ("net.wire_us", "us"),
    ("net.exec_us.counts", "us"),
    ("net.exec_us.degrees", "us"),
    ("net.exec_us.out_neighbors", "us"),
    ("net.exec_us.has_link", "us"),
    ("net.exec_us.common_neighbors", "us"),
    ("net.exec_us.reciprocity", "us"),
    ("net.exec_us.local_clustering", "us"),
    ("serve.fetch_hit_ns", "ns"),
    ("serve.fetch_cold_us", "us"),
    ("serve.dedup_wait_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("store.map_full_us", "us"),
    ("store.map_delta_us", "us"),
    ("store.load_full_ms", "ms"),
    ("store.load_delta_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.save_delta_ms", "ms"),
    ("store.written_mib", "MiB"),
    ("store.vault_ratio", "ratio"),
    ("codec.encode_ms", "ms"),
    ("delta.apply_ms", "ms"),
    ("sim.events_per_s", "1/s"),
    ("metrics.reciprocity_ms", "ms"),
    ("metrics.clustering_ms", "ms"),
    ("metrics.assortativity_ms", "ms"),
    ("metrics.attr_density_ms", "ms"),
    ("metrics.diameter_ms", "ms"),
    ("sweep.freeze_ms", "ms"),
    ("obs.scrape_us", "us"),
    ("trace.rtt_us", "us"),
    ("trace.stage_sum_us", "us"),
    ("trace.gap_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// What one run found: correctness, operation tallies, metric values by
/// name, and (traced runs) the recorded spans.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
    pub spans: Option<Spans>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed correctness check; the run then reports
    /// `correct: false` and exits non-zero.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.notes.push(what());
        }
    }

    /// The result line. `names` is the metric table the run reports; a
    /// name nothing set reads `0`.
    pub fn to_json(&self, names: &[&str], trace: bool) -> String {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = names
            .iter()
            .map(|name| {
                let unit = table
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or("", |(_, u)| *u);
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Exact nearest-rank quantile of an ascending slice (`q` in `(0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// Mean of values (`0` when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// Available CPUs: the client and worker thread count of every workload.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First line of a command's stdout, or `unknown`.
fn first_line(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_owned()))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `# perfbench …` header: the machine context every number needs. The
/// revision is read from this checkout's own `.git` only (`unknown` in an
/// exported tree).
pub fn run_header(args: &Args) -> String {
    let git_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let rev = first_line(Command::new("git").env("GIT_DIR", git_dir).args([
        "rev-parse",
        "--short=12",
        "HEAD",
    ]));
    let rustc = first_line(Command::new("rustc").arg("--version"));
    format!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={} rustc=\"{rustc}\" rev={rev}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
        nproc(),
    )
}

/// This process's resident set size in bytes (Linux `VmRSS`).
fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line
        .trim_start_matches("VmRSS:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Samples resident memory every few milliseconds while alive, so the
/// peak covers only the measured phase (not set-up or checks).
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<u64>,
}

impl RssSampler {
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = rss_bytes().unwrap_or(0);
            // ORDERING: Relaxed — a stop request, publishing no data; the
            // join hands the peak back.
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
                peak = peak.max(rss_bytes().unwrap_or(0));
            }
            peak
        });
        RssSampler { stop, handle }
    }

    /// Stops sampling; the peak in MiB.
    pub fn finish(self) -> f64 {
        // ORDERING: Relaxed — see `start`.
        self.stop.store(true, Ordering::Relaxed);
        let peak = self.handle.join().expect("rss sampler thread panicked");
        peak.max(rss_bytes().unwrap_or(0)) as f64 / MIB
    }
}

/// Runs `setup` `times` times and returns the last result plus the
/// median wall time in seconds.
pub fn repeated_setup<T>(times: usize, mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for i in 0..times.max(1) {
        // Drop the previous result first so set-ups never overlap.
        drop(last.take());
        let started = std::time::Instant::now();
        last = Some(setup(i));
        secs.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), median(&mut secs))
}
