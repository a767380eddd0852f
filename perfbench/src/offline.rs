//! `build`: the offline path at Google+ shape — streaming synthesis at
//! Phase II 1,000 arrivals/day (≈199 k nodes, ≈1.26 M events, 98 days)
//! straight into a v2 vault through `StreamingVaultWriter` (every 7th day
//! persisted, a full day every 4th persist, deltas between).
//!
//! The operation is one simulated day through synthesize → delta-freeze
//! → encode → write: `p50_us`/`p99_us` are over the per-day latencies of
//! every build in the run, `goodput_per_s` is days persisted per second.
//! Set-up is a small warm-up synthesis (allocator and page cache), run
//! three times. After timing, the vault is reopened cold: the newest full
//! and the deepest delta day must load, and the final day must be
//! bit-identical to the ground truth.
//!
//! Traced run: the same pipeline composed from its public pieces —
//! `DeltaFreezer::apply_day`, the v2 encode, `save_day_v2` /
//! `save_day_delta` — with a span around each, then repeated cold
//! `load_day`s of both day formats.

use crate::layers;
use crate::trace::Tracer;
use crate::util::{self, Report, RssSampler};
use crate::Args;
use san_graph::store::SnapshotVault;
use san_graph::{CsrSan, DeltaFreezer, San};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Phase II arrivals/day of the build (and sweep) timeline.
pub const ARRIVALS: u32 = 1000;
/// Persist every `STEP`-th day.
pub const STEP: u32 = 7;
/// A full day every `FULL_EVERY` persisted days.
const FULL_EVERY: u32 = 4;
/// Arrivals/day of the set-up warm-up synthesis.
const WARMUP_ARRIVALS: u32 = 100;
/// Set-ups per untraced run.
const SETUPS: usize = 5;
/// Cold loads per day format in the traced run.
const LOADS: usize = 5;

/// One streaming synthesize-and-persist; returns the ground truth, the
/// persisted days, and each day's latency in µs.
fn build(seed: u64, arrivals: u32, dir: &Path) -> (San, Vec<u32>, Vec<f64>, u64) {
    let gp = layers::google_plus(arrivals);
    let mut vault = layers::create_vault(dir);
    let mut writer = layers::vault_writer(&mut vault, STEP, FULL_EVERY);
    let mut day_us = Vec::with_capacity(100);
    let mut events = 0u64;
    let mut last = Instant::now();
    let truth = layers::synthesize(&gp, seed, |_, day_events| {
        layers::writer_apply(&mut writer, day_events).expect("persist day");
        events += day_events.len() as u64;
        let now = Instant::now();
        day_us.push((now - last).as_secs_f64() * 1e6);
        last = now;
    });
    let saved = layers::writer_finish(writer).expect("persist final day");
    (truth, saved, day_us, events)
}

/// The reopened vault's newest full and deepest delta days.
fn probe_days(vault: &SnapshotVault, saved: &[u32]) -> (u32, Option<u32>) {
    let full = *saved
        .iter()
        .rev()
        .find(|&&d| layers::is_full(vault, d))
        .expect("day 0 is always full");
    let delta = saved
        .iter()
        .rev()
        .find(|&&d| !layers::is_full(vault, d))
        .copied();
    (full, delta)
}

/// Cold reopen: both day formats load and the final day equals `truth`.
fn check_vault(report: &mut Report, dir: &Path, saved: &[u32], truth: San) {
    let truth: CsrSan = truth.freeze();
    let vault = layers::open_vault(dir);
    let (full, delta) = probe_days(&vault, saved);
    report.check(layers::load_day(&vault, full).is_ok(), || {
        format!("full day {full} does not load")
    });
    if let Some(delta) = delta {
        report.check(layers::load_day(&vault, delta).is_ok(), || {
            format!("delta day {delta} does not load")
        });
    }
    let last = *saved.last().expect("at least one persisted day");
    let loaded = layers::load_day(&vault, last);
    report.check(loaded.is_ok_and(|day| *day == truth), || {
        format!("reopened day {last} differs from the ground truth")
    });
}

pub fn run(args: &Args, scratch: &Path) -> Report {
    if args.trace {
        return traced(args.seed, ARRIVALS, scratch);
    }
    let mut report = Report::new();
    let ((), setup_s) = util::repeated_setup(SETUPS, |i| {
        let dir = scratch.join(format!("warmup-{i}"));
        let _ = build(args.seed, WARMUP_ARRIVALS, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    });

    let dir = scratch.join("vault");
    // Memory is the first build's peak: later builds add only allocator
    // arena growth.
    let mut rss = Some(RssSampler::start());
    let mut peak_rss_mib = 0.0;
    let started = Instant::now();
    let mut day_us = Vec::new();
    let mut build_secs = 0.0;
    let mut days = 0u64;
    let mut last_build = Duration::ZERO;
    let mut result = None;
    let mut builds = 0u64;
    while result.is_none() || started.elapsed() + last_build <= args.seconds {
        drop(result.take());
        // Each build synthesizes its own timeline (a sub-seed of the run's
        // seed): a run then averages over several inputs, where one
        // timeline's cost alone varies by ~10% from seed to seed.
        let seed = args
            .seed
            .wrapping_add(builds.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        builds += 1;
        let t = Instant::now();
        let (truth, saved, days_us, events) = build(seed, ARRIVALS, &dir);
        if let Some(rss) = rss.take() {
            peak_rss_mib = rss.finish();
        }
        last_build = t.elapsed();
        build_secs += last_build.as_secs_f64();
        days += days_us.len() as u64;
        day_us.extend(days_us);
        eprintln!(
            "build: {events} events, {} persisted days in {last_build:.2?}",
            saved.len()
        );
        result = Some((truth, saved));
    }
    day_us.sort_by(f64::total_cmp);
    report.set("setup_s", setup_s);
    report.set("p50_us", util::quantile(&day_us, 0.50));
    report.set("p99_us", util::quantile(&day_us, 0.99));
    report.set("goodput_per_s", days as f64 / build_secs);
    report.set("peak_rss_mib", peak_rss_mib);
    report.attempted = days;
    let (truth, saved) = result.expect("at least one build ran");
    check_vault(&mut report, &dir, &saved, truth);
    report
}

pub fn traced(seed: u64, arrivals: u32, scratch: &Path) -> Report {
    let mut report = Report::new();
    // Untraced baseline of the same build, for the overhead figure.
    let plain_dir = scratch.join("plain");
    let t = Instant::now();
    let (_, plain_saved, _, _) = build(seed, arrivals, &plain_dir);
    let plain_wall = t.elapsed();
    let _ = std::fs::remove_dir_all(&plain_dir);

    let dir = scratch.join("vault");
    let gp = layers::google_plus(arrivals);
    let mut vault = layers::create_vault(&dir);
    let mut freezer = DeltaFreezer::new();
    let mut t = Tracer::new(Instant::now());
    let mut prev: Option<(u32, Arc<CsrSan>)> = None;
    let mut deltas_since_full = 0;
    let mut saved = Vec::new();
    let mut v1_bytes = 0u64;
    let mut events = 0u64;
    let mut in_callback = Duration::ZERO;
    let started = Instant::now();
    let mut persist = |t: &mut Tracer, vault: &mut SnapshotVault, day: u32, snap: Arc<CsrSan>| {
        v1_bytes += snap.store_bytes_len();
        let req = u64::from(day);
        match prev.take() {
            Some((base_day, base)) if deltas_since_full < FULL_EVERY - 1 => {
                t.span("store.save_delta_ms", req, || {
                    layers::save_delta(vault, day, base_day, &base, &snap)
                })
                .expect("save delta day");
                deltas_since_full += 1;
            }
            _ => {
                let open = t.begin("codec.encode_ms", req);
                std::hint::black_box(layers::encode_v2(&snap)).expect("encode full day");
                t.end(open);
                let open = t.begin("store.save_full", req);
                layers::save_full(vault, day, &snap).expect("save full day");
                t.end(open);
                deltas_since_full = 0;
            }
        }
        prev = Some((day, snap));
        saved.push(day);
    };
    let mut last_day = 0;
    let truth = layers::synthesize(&gp, seed, |day, day_events| {
        let entered = Instant::now();
        events += day_events.len() as u64;
        t.span("delta.apply_ms", u64::from(day), || {
            layers::freezer_apply(&mut freezer, day_events)
        });
        if day % STEP == 0 {
            persist(&mut t, &mut vault, day, freezer.snapshot());
        }
        last_day = day;
        in_callback += entered.elapsed();
    });
    if last_day % STEP != 0 {
        persist(&mut t, &mut vault, last_day, freezer.snapshot());
    }
    let traced_wall = started.elapsed();
    let sim_secs = (traced_wall - in_callback).as_secs_f64();

    // Cold loads of both formats.
    let reopened = layers::open_vault(&dir);
    let (full, delta) = probe_days(&reopened, &saved);
    for i in 0..LOADS as u64 {
        std::hint::black_box(
            t.span("store.load_full_ms", i, || {
                layers::load_day(&reopened, full)
            })
            .expect("load full"),
        );
        if let Some(delta) = delta {
            std::hint::black_box(
                t.span("store.load_delta_ms", i, || {
                    layers::load_day(&reopened, delta)
                })
                .expect("load delta"),
            );
        }
    }
    let spans = t.into_spans();
    let times = spans.self_times();
    let per = |name: &str, scale: f64| times.get(name).map_or(0.0, |v| util::mean(v) / scale);
    // A full save encodes again inside the store; its write share is the
    // save minus the same day's encode into a null sink.
    let write_ms: Vec<f64> = times
        .get("store.save_full")
        .into_iter()
        .flatten()
        .zip(times.get("codec.encode_ms").into_iter().flatten())
        .map(|(save, enc)| (save - enc) / 1e6)
        .collect();
    report.set("delta.apply_ms", per("delta.apply_ms", 1e6));
    report.set("codec.encode_ms", per("codec.encode_ms", 1e6));
    report.set("store.write_ms", util::mean(&write_ms));
    report.set("store.save_delta_ms", per("store.save_delta_ms", 1e6));
    let loads = |name: &'static str| {
        times
            .get(name)
            .map_or(0.0, |v| util::median(&mut v.clone()) / 1e6)
    };
    report.set("store.load_full_ms", loads("store.load_full_ms"));
    report.set("store.load_delta_ms", loads("store.load_delta_ms"));
    report.set(
        "store.written_mib",
        vault.metrics().written_bytes() as f64 / util::MIB,
    );
    report.set(
        "store.vault_ratio",
        vault.disk_bytes() as f64 / v1_bytes.max(1) as f64,
    );
    report.set("sim.events_per_s", events as f64 / sim_secs);
    report.set(
        "trace.overhead_pct",
        100.0 * (traced_wall.as_secs_f64() - plain_wall.as_secs_f64()) / plain_wall.as_secs_f64(),
    );
    report.attempted = saved.len() as u64 + 2 * LOADS as u64;
    report.check(saved == plain_saved, || {
        "traced and streaming builds persisted different days".into()
    });
    drop(vault);
    check_vault(&mut report, &dir, &saved, truth);
    report.spans = Some(spans);
    report
}
