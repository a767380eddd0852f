//! The benchmark's only call sites into the program's public API: one
//! function per layer entry point. The timed and the traced runs both
//! come through here, so an API change (e.g. a collapsed sweep driver)
//! edits exactly one place.

use san_bench::load::{next_query, StreamSpec};
use san_core::model::{SanModel, SanModelParams};
use san_graph::mmap::MappedSnapshot;
use san_graph::store::{DayFormat, SnapshotVault, StoreError, StreamingVaultWriter};
use san_graph::{CsrSan, DeltaFreezer, San, SanEvent, SanRead, SanTimeline};
use san_metrics::clustering::{average_clustering_exact, NodeSet};
use san_metrics::evolution::{evolve_metric, evolve_metric_parallel, MetricSeries};
use san_net::{ErrorCode, NetConfig, NetServer, Query, QueryResult, Request, Response};
use san_obs::MetricRegistry;
use san_serve::{FetchKind, ServeConfig, SnapshotHandle, SnapshotServer};
use san_sim::{GooglePlus, GooglePlusParams};
use san_stats::SplitRng;
use std::path::Path;
use std::sync::Arc;

// ---- load harness -------------------------------------------------------

/// One draw of the SANW mixed query stream's kind weights, with node ids
/// valid for a day of `nodes` social nodes.
pub fn mixed_query(rng: &mut SplitRng, nodes: u32) -> Query {
    let spec = StreamSpec {
        seed: 0,
        max_day: 0,
        max_node: nodes,
    };
    next_query(rng, &spec).1
}

// ---- san-sim / san-core: synthesis -----------------------------------

/// The 10k-node/98-day serving fixture's generator (Phase-free model at
/// 102 arrivals/day, as the repository's serving benches use).
pub fn fixture_model() -> SanModel {
    SanModel::new(SanModelParams::paper_default(98, 102)).expect("paper defaults are valid")
}

/// The Google+-shaped three-phase generator at `arrivals` Phase II
/// arrivals/day over 98 days.
pub fn google_plus(arrivals: u32) -> GooglePlus {
    GooglePlus::new(GooglePlusParams::at_scale(arrivals)).expect("scale parameters are valid")
}

/// Streams the fixture's days to `sink`; returns the final ground truth.
pub fn synthesize_fixture(model: &SanModel, seed: u64, sink: impl FnMut(u32, &[SanEvent])) -> San {
    model.generate_with(seed, sink)
}

/// Streams a Google+ synthesis's days to `sink`; returns the ground truth.
pub fn synthesize(gp: &GooglePlus, seed: u64, sink: impl FnMut(u32, &[SanEvent])) -> San {
    gp.generate_streaming(seed, sink)
}

/// A whole Google+ timeline in memory (the sweep's input).
pub fn timeline(gp: &GooglePlus, seed: u64) -> SanTimeline {
    SanModel::new(gp.params().engine.clone())
        .expect("validated by GooglePlus::new")
        .generate(seed)
        .0
}

// ---- san-graph: delta, codec, store, mmap -----------------------------

pub fn create_vault(dir: &Path) -> SnapshotVault {
    let _ = std::fs::remove_dir_all(dir);
    SnapshotVault::create(dir).expect("create vault directory")
}

pub fn vault_writer(
    vault: &mut SnapshotVault,
    step: u32,
    full_every: u32,
) -> StreamingVaultWriter<'_> {
    StreamingVaultWriter::new(vault, step, full_every)
}

pub fn writer_apply(
    writer: &mut StreamingVaultWriter<'_>,
    events: &[SanEvent],
) -> Result<(), StoreError> {
    writer.apply_day(events)
}

pub fn writer_finish(writer: StreamingVaultWriter<'_>) -> Result<Vec<u32>, StoreError> {
    writer.finish()
}

pub fn freezer_apply(freezer: &mut DeltaFreezer, events: &[SanEvent]) {
    freezer.apply_day(events);
}

/// v2 full-day encode into a null sink: what `save_day_v2` does short of
/// the file IO. Returns the encoded length.
pub fn encode_v2(snap: &CsrSan) -> Result<u64, StoreError> {
    snap.write_v2_to(&mut std::io::sink())
}

pub fn save_full(vault: &mut SnapshotVault, day: u32, snap: &CsrSan) -> Result<u64, StoreError> {
    vault.save_day_v2(day, snap)
}

pub fn save_delta(
    vault: &mut SnapshotVault,
    day: u32,
    base_day: u32,
    base: &CsrSan,
    snap: &CsrSan,
) -> Result<u64, StoreError> {
    vault.save_day_delta(day, base_day, base, snap)
}

pub fn open_vault(dir: &Path) -> SnapshotVault {
    SnapshotVault::open(dir).expect("reopen vault")
}

pub fn load_day(vault: &SnapshotVault, day: u32) -> Result<Arc<CsrSan>, StoreError> {
    vault.load_day(day)
}

pub fn map_day(vault: &SnapshotVault, day: u32) -> Result<MappedSnapshot, StoreError> {
    vault.map_day(day)
}

pub fn is_full(vault: &SnapshotVault, day: u32) -> bool {
    matches!(
        vault.day_format(day),
        Some(DayFormat::V2Full | DayFormat::V1Full)
    )
}

// ---- san-serve ----------------------------------------------------------

pub fn snapshot_server(dir: &Path, max_resident_bytes: u64) -> SnapshotServer {
    let config = ServeConfig {
        max_resident_bytes,
        ..ServeConfig::default()
    };
    SnapshotServer::open(dir, config).expect("open vault for serving")
}

pub fn fetch(snaps: &SnapshotServer, day: u32) -> Result<(SnapshotHandle, FetchKind), StoreError> {
    snaps.get_exact_kind(day)
}

// ---- san-net ------------------------------------------------------------

/// A `NetServer` on an ephemeral loopback port with the default config.
pub fn net_server(snaps: SnapshotServer) -> NetServer {
    NetServer::serve(snaps, "127.0.0.1:0", NetConfig::default()).expect("bind loopback")
}

pub fn encode_request(day: u32, query: Query) -> Vec<u8> {
    Request { day, query }.encode()
}

pub fn decode_request(bytes: &[u8]) -> Request {
    Request::decode(bytes)
        .expect("benchmark-encoded request decodes")
        .0
}

pub fn execute(query: Query, view: &impl SanRead) -> Result<QueryResult, ErrorCode> {
    san_net::execute(query, view)
}

pub fn encode_response(response: &Response) -> Vec<u8> {
    response.encode()
}

// ---- san-obs ------------------------------------------------------------

pub fn scrape(registry: &MetricRegistry) -> String {
    san_obs::encode_prometheus(registry)
}

// ---- san-metrics ----------------------------------------------------------

/// One metric of the paper's evolution panel.
#[derive(Debug, Clone, Copy)]
pub enum PanelMetric {
    Reciprocity,
    Clustering,
    Assortativity,
    AttrDensity,
    Diameter,
}

pub const PANEL: [PanelMetric; 5] = [
    PanelMetric::Reciprocity,
    PanelMetric::Clustering,
    PanelMetric::Assortativity,
    PanelMetric::AttrDensity,
    PanelMetric::Diameter,
];

impl PanelMetric {
    pub fn name(self) -> &'static str {
        match self {
            PanelMetric::Reciprocity => "reciprocity",
            PanelMetric::Clustering => "clustering",
            PanelMetric::Assortativity => "assortativity",
            PanelMetric::AttrDensity => "attr_density",
            PanelMetric::Diameter => "diameter",
        }
    }

    /// Evaluates the metric on one snapshot.
    pub fn eval(self, day: u32, snap: &CsrSan) -> f64 {
        match self {
            PanelMetric::Reciprocity => san_metrics::reciprocity::global_reciprocity(snap),
            PanelMetric::Clustering => average_clustering_exact(snap, NodeSet::Social),
            PanelMetric::Assortativity => san_metrics::jdd::social_assortativity(snap),
            PanelMetric::AttrDensity => san_metrics::density::attr_density(snap),
            // HyperANF with 2^4 registers, 90th-percentile effective
            // diameter; the hash salt follows the day so the series is a
            // pure function of the timeline.
            PanelMetric::Diameter => {
                san_metrics::hyperanf::social_effective_diameter(snap, 0.9, 4, u64::from(day))
            }
        }
    }
}

/// The day-parallel sweep driver (the public entry point the evolution
/// figures use).
pub fn sweep_parallel(
    timeline: &SanTimeline,
    name: &str,
    step: u32,
    threads: usize,
    metric: impl Fn(u32, &CsrSan) -> f64 + Sync,
) -> MetricSeries {
    evolve_metric_parallel(timeline, name, step, threads, metric)
}

/// The sequential sweep — the reference the parallel series must equal.
pub fn sweep_sequential(
    timeline: &SanTimeline,
    name: &str,
    step: u32,
    metric: impl FnMut(u32, &CsrSan) -> f64,
) -> MetricSeries {
    evolve_metric(timeline, name, step, metric)
}
