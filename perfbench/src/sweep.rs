//! `sweep`: the paper's evolution panel — global reciprocity, exact
//! social clustering, social assortativity, attribute density and
//! effective diameter (HyperANF, 2^4 registers) — over every 7th day of
//! a 98-day Google+ timeline at Phase II 400 arrivals/day, one
//! day-parallel sweep per metric with `nproc` threads.
//!
//! The operation is one sampled day of the panel (one point of the
//! evolution figures): its latency is the summed evaluation time of the
//! five metrics on that day's snapshot, so `p50_us`/`p99_us` are over
//! every sampled day of every panel in the run, and `goodput_per_s` is
//! sampled days per second of panel wall time. Set-up synthesizes the
//! timeline into memory, five times. After timing, the first panel's
//! series must equal the sequential sweep's, bit for bit.
//!
//! Traced run: the freeze cost alone (the same sweep with a no-op
//! metric), each metric's summed evaluation time, and the per-day
//! delta-freeze apply time.

use crate::layers::{self, PanelMetric, PANEL};
use crate::offline::STEP;
use crate::trace::Tracer;
use crate::util::{self, nproc, Report, RssSampler};
use crate::Args;
use san_graph::{DeltaFreezer, SanTimeline};
use san_metrics::evolution::MetricSeries;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Phase II arrivals/day of the swept timeline (≈80 k nodes, ≈0.5 M
/// events): small enough that a 10 s run holds three panels, so the
/// figures are medians over repeated work rather than one panel's.
const ARRIVALS: u32 = 400;
/// Set-ups per untraced run.
const SETUPS: usize = 5;

/// One panel through the parallel driver; each sampled day's summed
/// metric evaluation time (µs) is appended to `day_us`.
fn panel(tl: &SanTimeline, day_us: &mut Vec<f64>) -> Vec<MetricSeries> {
    let per_day = Mutex::new(BTreeMap::<u32, f64>::new());
    let series = PANEL
        .iter()
        .map(|&metric| {
            layers::sweep_parallel(tl, metric.name(), STEP, nproc(), |day, snap| {
                let t = Instant::now();
                let value = metric.eval(day, snap);
                let us = t.elapsed().as_secs_f64() * 1e6;
                *per_day
                    .lock()
                    .expect("day log poisoned")
                    .entry(day)
                    .or_default() += us;
                value
            })
        })
        .collect();
    day_us.extend(
        per_day
            .into_inner()
            .expect("day log poisoned")
            .into_values(),
    );
    series
}

/// Bit-exact series comparison (Debug text is the shortest round-trip
/// form of each f64, and treats NaN like any other value).
fn same(a: &MetricSeries, b: &MetricSeries) -> bool {
    a.days == b.days && format!("{:?}", a.values) == format!("{:?}", b.values)
}

fn check_sequential(report: &mut Report, tl: &SanTimeline, series: &[MetricSeries]) {
    for (metric, got) in PANEL.iter().zip(series) {
        let want =
            layers::sweep_sequential(tl, metric.name(), STEP, |day, snap| metric.eval(day, snap));
        report.check(same(got, &want), || {
            format!(
                "{}: parallel {:?} != sequential {:?}",
                metric.name(),
                got.values,
                want.values
            )
        });
    }
}

pub fn run(args: &Args, _scratch: &Path) -> Report {
    if args.trace {
        return traced(args.seed, ARRIVALS);
    }
    let mut report = Report::new();
    let gp = layers::google_plus(ARRIVALS);
    let (tl, setup_s) = util::repeated_setup(SETUPS, |_| layers::timeline(&gp, args.seed));

    let mut day_us = Vec::new();
    // Memory is the first panel's peak: later panels add only allocator
    // arena growth, which varies with thread scheduling.
    let mut rss = Some(RssSampler::start());
    let mut peak_rss_mib = 0.0;
    let started = Instant::now();
    let mut panel_secs = 0.0;
    let mut last = Duration::ZERO;
    let mut first = None;
    let mut panels = 0;
    while first.is_none() || started.elapsed() + last <= args.seconds {
        let t = Instant::now();
        let series = panel(&tl, &mut day_us);
        if let Some(rss) = rss.take() {
            peak_rss_mib = rss.finish();
        }
        last = t.elapsed();
        panel_secs += last.as_secs_f64();
        panels += 1;
        eprintln!("sweep: panel {panels} in {last:.2?}");
        first.get_or_insert(series);
    }
    day_us.sort_by(f64::total_cmp);
    report.set("setup_s", setup_s);
    report.set("p50_us", util::quantile(&day_us, 0.50));
    report.set("p99_us", util::quantile(&day_us, 0.99));
    report.set("goodput_per_s", day_us.len() as f64 / panel_secs);
    report.set("peak_rss_mib", peak_rss_mib);
    report.attempted = (day_us.len() * PANEL.len()) as u64;
    let first = first.expect("at least one panel ran");
    report.failed = first
        .iter()
        .flat_map(|s| &s.values)
        .filter(|v| !v.is_finite())
        .count() as u64
        * panels;
    check_sequential(&mut report, &tl, &first);
    report
}

pub fn traced(seed: u64, arrivals: u32) -> Report {
    let mut report = Report::new();
    let gp = layers::google_plus(arrivals);
    let t = Instant::now();
    let tl = layers::timeline(&gp, seed);
    report.set(
        "sim.events_per_s",
        tl.events().len() as f64 / t.elapsed().as_secs_f64(),
    );

    // Untraced baseline panel, for the overhead figure and the check.
    let t = Instant::now();
    let plain = panel(&tl, &mut Vec::new());
    let plain_wall = t.elapsed();

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let started = Instant::now();
    tracer.span("sweep.freeze_ms", 0, || {
        layers::sweep_parallel(&tl, "noop", STEP, nproc(), |_, _| 0.0)
    });
    let mut traced_series = Vec::new();
    let mut cell_spans = Vec::new();
    for (i, &metric) in PANEL.iter().enumerate() {
        let metric_tracers: Mutex<Vec<Tracer>> = Mutex::new(Vec::new());
        let series = tracer.span("sweep.panel", i as u64, || {
            layers::sweep_parallel(&tl, metric.name(), STEP, nproc(), |day, snap| {
                let mut t = Tracer::new(epoch);
                let value = t.span(span_name(metric), u64::from(day), || metric.eval(day, snap));
                metric_tracers.lock().expect("tracer list poisoned").push(t);
                value
            })
        });
        cell_spans.extend(metric_tracers.into_inner().expect("tracer list poisoned"));
        traced_series.push(series);
    }
    let traced_wall = started.elapsed();

    // The per-day delta-freeze apply, on its own.
    let mut freezer = DeltaFreezer::new();
    let events = tl.events();
    let mut at = 0;
    while at < events.len() {
        let day = events[at].day();
        let len = events[at..].iter().take_while(|e| e.day() == day).count();
        tracer.span("delta.apply_ms", u64::from(day), || {
            layers::freezer_apply(&mut freezer, &events[at..at + len])
        });
        at += len;
    }

    let mut spans = tracer.into_spans();
    for t in cell_spans {
        spans.extend(t.into_spans());
    }
    let times = spans.self_times();
    let total_ms = |name: &str| times.get(name).map_or(0.0, |v| v.iter().sum::<f64>() / 1e6);
    for metric in PANEL {
        report.set(span_name(metric), total_ms(span_name(metric)));
    }
    report.set("sweep.freeze_ms", total_ms("sweep.freeze_ms"));
    report.set(
        "delta.apply_ms",
        times
            .get("delta.apply_ms")
            .map_or(0.0, |v| util::mean(v) / 1e6),
    );
    report.set(
        "trace.overhead_pct",
        100.0
            * (traced_wall.as_secs_f64()
                - plain_wall.as_secs_f64()
                - total_ms("sweep.freeze_ms") / 1e3)
            / plain_wall.as_secs_f64(),
    );
    report.attempted = (PANEL.len() * plain.first().map_or(0, |s| s.days.len())) as u64;
    for ((metric, a), b) in PANEL.iter().zip(&plain).zip(&traced_series) {
        report.check(same(a, b), || {
            format!("{}: traced series differs", metric.name())
        });
    }
    report.spans = Some(spans);
    report
}

fn span_name(metric: PanelMetric) -> &'static str {
    match metric {
        PanelMetric::Reciprocity => "metrics.reciprocity_ms",
        PanelMetric::Clustering => "metrics.clustering_ms",
        PanelMetric::Assortativity => "metrics.assortativity_ms",
        PanelMetric::AttrDensity => "metrics.attr_density_ms",
        PanelMetric::Diameter => "metrics.diameter_ms",
    }
}
