//! `serve_hot` / `serve_cold`: the SANW round trip.
//!
//! Set-up synthesizes the 10k-node/98-day fixture, persists **every** day
//! into a v2 vault through `StreamingVaultWriter` (a full day every 4th,
//! deltas between), keeps each day's owned snapshot as ground truth, and
//! starts a `NetServer` (default `NetConfig`) on loopback. Hot gives the
//! cache twice the vault's resident bytes and warms every day; cold caps
//! it at a quarter, default shard count, no warm-up.
//!
//! The request stream: half the requests go to the newest quarter of
//! days, the rest to a uniform day; the query is drawn with the load
//! harness's mixed-stream weights (all 7 graph query kinds), node ids
//! valid for that day — so any non-`Ok` answer is a failure.
//!
//! Untraced run: an open loop at the workload's fixed rate over `nproc`
//! connections (half the run hot, 75% cold, so both get enough samples
//! for their p99), then a closed loop over `nproc` connections for the
//! rest (goodput: `Ok` answers within the latency limit per second).
//! Open-loop latency runs from each request's due time (from the actual
//! send only when the connection was idle at the due time), a failure
//! counts as the client timeout, and p50/p99 are exact over raw samples
//! per window of 1,000 requests, median across windows. One request in
//! 64 of the closed loop is kept and checked against `san_net::execute`
//! on the owned snapshot of its day, after timing.
//!
//! Traced run: the same stream over the wire (RTT per request), then the
//! same requests replayed in-process through decode → fetch → execute →
//! encode with a span around each call, and the cheapest query (counts
//! on a cached day) both ways for the wire floor — in five alternating
//! rounds. Generator lateness, cold maps by day format and the registry
//! scrape are timed on their own.

use crate::layers;
use crate::trace::{Spans, Tracer};
use crate::util::{self, nproc, Report, RssSampler};
use crate::Args;
use san_graph::{CsrSan, SanRead};
use san_net::{NetClient, NetServer, Query, Response};
use san_serve::FetchKind;
use san_stats::SplitRng;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cache {
    Hot,
    Cold,
}

impl Cache {
    /// Offered rate of the open loop (req/s over all connections): under
    /// half the closed-loop capacity on 2 CPUs (hot ≈ 30–57 k/s, cold ≈
    /// 430–650/s, depending on how busy the shared machine is), so the
    /// tail shows service time and the queueing a slow request imposes,
    /// not a growing backlog.
    fn open_rate(self) -> f64 {
        match self {
            Cache::Hot => 4000.0,
            Cache::Cold => 200.0,
        }
    }

    /// The latency limit a closed-loop answer must meet to count as
    /// goodput.
    fn limit(self) -> Duration {
        match self {
            Cache::Hot => Duration::from_millis(2),
            Cache::Cold => Duration::from_millis(25),
        }
    }
}

/// Client-side wait before a request counts as failed; also the latency
/// a failed request is charged (above any limit).
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);
/// Set-ups per untraced run (the median is `setup_s`).
const SETUPS: usize = 5;
/// One closed-loop request in this many is kept for the correctness check.
const CHECK_EVERY: u64 = 64;
/// Traced run: requests recorded per connection over all rounds (bounds
/// the span file), and the rounds alternating wire and in-process passes.
const RECORD: usize = 10_000;
const ROUNDS: u32 = 5;

/// Ground truth of the served vault.
struct Fixture {
    /// `owned[day]`: the day's snapshot as synthesized.
    owned: Vec<Arc<CsrSan>>,
    /// Days the stream draws from (every day with at least one node).
    days: Vec<u32>,
    /// Sum of the days' resident (decoded) bytes.
    resident_bytes: u64,
}

struct Setup {
    fixture: Arc<Fixture>,
    server: NetServer,
}

fn setup(seed: u64, dir: &Path, cache: Cache) -> Setup {
    let model = layers::fixture_model();
    let mut vault = layers::create_vault(dir);
    let mut owned = Vec::new();
    let mut writer = layers::vault_writer(&mut vault, 1, 4);
    layers::synthesize_fixture(&model, seed, |_, events| {
        layers::writer_apply(&mut writer, events).expect("persist fixture day");
        owned.push(writer.snapshot());
    });
    layers::writer_finish(writer).expect("finish fixture vault");
    drop(vault);
    let resident_bytes = owned.iter().map(|s| s.store_bytes_len()).sum::<u64>();
    let days = (0..owned.len() as u32)
        .filter(|&d| owned[d as usize].num_social_nodes() > 0)
        .collect();
    let budget = match cache {
        Cache::Hot => 2 * resident_bytes,
        Cache::Cold => resident_bytes / 4,
    };
    let server = layers::net_server(layers::snapshot_server(dir, budget));
    if cache == Cache::Hot {
        for day in 0..owned.len() as u32 {
            layers::fetch(server.snapshots(), day).expect("warm fixture day");
        }
        assert_eq!(
            server.snapshots().cached_days(),
            owned.len(),
            "the hot cache must hold every day"
        );
    }
    Setup {
        fixture: Arc::new(Fixture {
            owned,
            days,
            resident_bytes,
        }),
        server,
    }
}

/// The workload's request stream for one connection.
struct Stream {
    rng: SplitRng,
    fixture: Arc<Fixture>,
}

impl Stream {
    fn new(fixture: &Arc<Fixture>, seed: u64, phase: u64, conn: usize) -> Stream {
        let mix = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(phase << 32)
            .wrapping_add(conn as u64);
        Stream {
            rng: SplitRng::new(mix),
            fixture: Arc::clone(fixture),
        }
    }

    fn next(&mut self) -> (u32, Query) {
        let days = &self.fixture.days;
        let newest = &days[days.len() - days.len().div_ceil(4)..];
        let pool = if self.rng.chance(0.5) {
            newest
        } else {
            &days[..]
        };
        let day = pool[self.rng.below(pool.len() as u64) as usize];
        let nodes = self.fixture.owned[day as usize].num_social_nodes() as u32;
        (day, layers::mixed_query(&mut self.rng, nodes))
    }
}

fn connect(addr: SocketAddr) -> Option<NetClient> {
    let client = NetClient::connect(addr).ok()?;
    client.set_timeout(Some(CLIENT_TIMEOUT)).ok()?;
    Some(client)
}

/// One request over the wire; `None` on a transport failure (the
/// connection is then re-opened).
fn send(
    client: &mut Option<NetClient>,
    addr: SocketAddr,
    day: u32,
    query: Query,
) -> Option<Response> {
    if client.is_none() {
        *client = connect(addr);
    }
    let response = client.as_mut()?.query(day, query).ok();
    if response.is_none() {
        *client = None;
    }
    response
}

fn is_ok(response: &Option<Response>) -> bool {
    matches!(response, Some(Response::Ok { .. }))
}

/// Raw outcome of an open loop.
#[derive(Default)]
struct OpenLoop {
    /// `(due, latency)`: due time since the loop's start, s, and latency
    /// from that due time, µs; a failure is charged `CLIENT_TIMEOUT`.
    latency_us: Vec<(f64, f64)>,
    /// How late the generator sent, µs, for requests whose connection
    /// was idle at the due time.
    late_us: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Waits for `due` by yielding rather than sleeping: a sleeping client
/// lets its CPU go idle, and on a virtual machine waking an idle CPU
/// costs more than most requests, so sleep-based pacing would measure
/// the hypervisor instead of the server. Yielding gives way to any
/// runnable server thread.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

fn open_loop(
    addr: SocketAddr,
    fixture: &Arc<Fixture>,
    seed: u64,
    rate: f64,
    length: Duration,
) -> OpenLoop {
    let conns = nproc();
    let interval = Duration::from_secs_f64(conns as f64 / rate);
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + length;
    let parts: Vec<OpenLoop> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut stream = Stream::new(fixture, seed, 1, c);
                    let mut client = connect(addr);
                    let mut out = OpenLoop::default();
                    // Stagger connections across the interval.
                    let epoch = start + interval.mul_f64(c as f64 / conns as f64);
                    for k in 0u32.. {
                        let due = epoch + interval * k;
                        if due >= end {
                            break;
                        }
                        // A request is timed from its due time, so a slow
                        // answer's delay to the next request counts. Only
                        // when the connection was idle at the due time is
                        // it timed from the actual send: the sleep's
                        // overshoot is the generator's lateness (reported
                        // on its own), not the server's.
                        let idle = Instant::now() < due;
                        wait_until(due);
                        let sent = Instant::now();
                        if idle {
                            out.late_us.push((sent - due).as_secs_f64() * 1e6);
                        }
                        let (day, query) = stream.next();
                        let response = send(&mut client, addr, day, query);
                        out.attempted += 1;
                        let at = (due - start).as_secs_f64();
                        let from = if idle { sent } else { due };
                        if is_ok(&response) {
                            out.latency_us
                                .push((at, from.elapsed().as_secs_f64() * 1e6));
                        } else {
                            out.failed += 1;
                            out.latency_us
                                .push((at, CLIENT_TIMEOUT.as_secs_f64() * 1e6));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client panicked"))
            .collect()
    });
    let mut all = OpenLoop::default();
    for part in parts {
        all.latency_us.extend(part.latency_us);
        all.late_us.extend(part.late_us);
        all.attempted += part.attempted;
        all.failed += part.failed;
    }
    all
}

/// Requests per latency window: enough that each window's p99 has 10
/// samples beyond it.
const WINDOW: usize = 1000;

/// Exact p50 and p99 of each consecutive window of [`WINDOW`] requests
/// (by due time; a short tail joins the last window), then the median
/// across windows — so a stall of the shared machine during one window
/// cannot set the run's tail.
fn windowed_quantiles(mut samples: Vec<(f64, f64)>) -> (f64, f64) {
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let windows = (samples.len() / WINDOW).max(1);
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for w in 0..windows {
        let end = if w + 1 == windows {
            samples.len()
        } else {
            (w + 1) * WINDOW
        };
        let mut window: Vec<f64> = samples[w * WINDOW..end].iter().map(|s| s.1).collect();
        window.sort_by(f64::total_cmp);
        p50.push(util::quantile(&window, 0.50));
        p99.push(util::quantile(&window, 0.99));
    }
    (util::median(&mut p50), util::median(&mut p99))
}

/// Raw outcome of a closed loop.
#[derive(Default)]
struct ClosedLoop {
    /// Per connection: `(day, query, rtt_us)` of every request, in order.
    requests: Vec<Vec<(u32, Query, f64)>>,
    /// Kept responses for the correctness check.
    kept: Vec<(u32, Query, Response)>,
    good: u64,
    attempted: u64,
    failed: u64,
    elapsed: Duration,
}

/// One connection per stream, each sending its next request when the
/// previous answer lands, until `length` passes. With `record: Some(cap)`
/// every request and its RTT is kept (`requests`), at most `cap` per
/// connection.
fn closed_loop<S: FnMut() -> (u32, Query) + Send>(
    addr: SocketAddr,
    length: Duration,
    record: Option<usize>,
    limit: Duration,
    streams: Vec<S>,
) -> ClosedLoop {
    let started = Instant::now();
    let end = started + length;
    let parts: Vec<ClosedLoop> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|mut next| {
                scope.spawn(move || {
                    let mut client = connect(addr);
                    let mut out = ClosedLoop::default();
                    let mut mine = Vec::new();
                    while Instant::now() < end && record.is_none_or(|cap| mine.len() < cap) {
                        let (day, query) = next();
                        let sent = Instant::now();
                        let response = send(&mut client, addr, day, query);
                        let rtt = sent.elapsed();
                        out.attempted += 1;
                        if record.is_some() {
                            mine.push((day, query, rtt.as_secs_f64() * 1e6));
                        }
                        match response {
                            Some(response @ Response::Ok { .. }) => {
                                if rtt <= limit {
                                    out.good += 1;
                                }
                                if out.attempted % CHECK_EVERY == 1 {
                                    out.kept.push((day, query, response));
                                }
                            }
                            _ => out.failed += 1,
                        }
                    }
                    out.requests.push(mine);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let mut all = ClosedLoop {
        elapsed: started.elapsed(),
        ..ClosedLoop::default()
    };
    for part in parts {
        all.requests.extend(part.requests);
        all.kept.extend(part.kept);
        all.good += part.good;
        all.attempted += part.attempted;
        all.failed += part.failed;
    }
    all
}

/// The mixed stream for each of `nproc` connections.
fn mixed_streams(
    fixture: &Arc<Fixture>,
    seed: u64,
    phase: u64,
) -> Vec<impl FnMut() -> (u32, Query) + Send> {
    (0..nproc())
        .map(|c| {
            let mut stream = Stream::new(fixture, seed, phase, c);
            move || stream.next()
        })
        .collect()
}

/// Checks kept responses against `san_net::execute` on the owned
/// snapshot of the day they were served from.
fn check_responses(report: &mut Report, fixture: &Fixture, kept: &[(u32, Query, Response)]) {
    report.check(!kept.is_empty(), || "no responses kept for checking".into());
    for (day, query, got) in kept {
        let want = match layers::execute(*query, &*fixture.owned[*day as usize]) {
            Ok(result) => Response::Ok {
                day_served: *day,
                result,
            },
            Err(code) => Response::err(query.id(), code),
        };
        // Debug text compares f64 results bit-exactly (shortest
        // round-trip form) and treats NaN like any other value.
        report.check(format!("{got:?}") == format!("{want:?}"), || {
            format!("day {day} {query:?}: served {got:?}, expected {want:?}")
        });
    }
}

pub fn run(args: &Args, scratch: &Path, cache: Cache) -> Report {
    let dir = scratch.join("vault");
    if args.trace {
        return traced(args.seed, args.seconds, &dir, cache);
    }
    let mut report = Report::new();
    let (setup, setup_s) = util::repeated_setup(SETUPS, |_| setup(args.seed, &dir, cache));
    let addr = setup.server.addr();
    let fixture = &setup.fixture;
    let half = args.seconds / 2;
    let (open_len, closed_len) = match cache {
        Cache::Hot => (half, half),
        Cache::Cold => (args.seconds.mul_f64(0.75), args.seconds.mul_f64(0.25)),
    };

    let rss = RssSampler::start();
    let open = open_loop(addr, fixture, args.seed, cache.open_rate(), open_len);
    let closed = closed_loop(
        addr,
        closed_len,
        None,
        cache.limit(),
        mixed_streams(fixture, args.seed, 2),
    );
    let peak_rss_mib = rss.finish();

    let (p50_us, p99_us) = windowed_quantiles(open.latency_us);
    report.set("setup_s", setup_s);
    report.set("p50_us", p50_us);
    report.set("p99_us", p99_us);
    report.set(
        "goodput_per_s",
        closed.good as f64 / closed.elapsed.as_secs_f64(),
    );
    report.set("peak_rss_mib", peak_rss_mib);
    report.attempted = open.attempted + closed.attempted;
    report.failed = open.failed + closed.failed;
    eprintln!(
        "{:?}: resident {:.1} MiB, open loop {} reqs at {} req/s, closed loop {} reqs ({} good) in {:.2?}, {} cached days",
        cache,
        setup.fixture.resident_bytes as f64 / util::MIB,
        open.attempted,
        cache.open_rate(),
        closed.attempted,
        closed.good,
        closed.elapsed,
        setup.server.snapshots().cached_days(),
    );
    check_responses(&mut report, fixture, &closed.kept);
    setup.server.shutdown();
    report
}

/// Span names of `execute` per query id.
const EXEC_SPANS: [&str; 7] = [
    "net.exec_us.counts",
    "net.exec_us.degrees",
    "net.exec_us.out_neighbors",
    "net.exec_us.has_link",
    "net.exec_us.common_neighbors",
    "net.exec_us.reciprocity",
    "net.exec_us.local_clustering",
];

/// Replays `requests` in-process, one span per layer call under a
/// per-request root span. Returns the spans and the wall time.
fn replay_traced(
    setup: &Setup,
    requests: &[Vec<(u32, Query, f64)>],
    first_id: u64,
    epoch: Instant,
) -> (Spans, Duration) {
    let snaps = setup.server.snapshots();
    let started = Instant::now();
    let parts: Vec<Spans> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .enumerate()
            .map(|(c, mine)| {
                scope.spawn(move || {
                    let mut t = Tracer::new(epoch);
                    for (i, (day, query, _)) in mine.iter().enumerate() {
                        let id = first_id + ((c as u64) << 32) + i as u64;
                        let bytes = layers::encode_request(*day, *query);
                        let root = t.begin("request", id);
                        let request =
                            t.span("net.decode_ns", id, || layers::decode_request(&bytes));
                        let fetch = t.begin("serve.fetch", id);
                        let (handle, kind) =
                            layers::fetch(snaps, request.day).expect("fetch served day");
                        t.end_as(fetch, fetch_span(kind));
                        let exec = EXEC_SPANS[usize::from(request.query.id())];
                        let result =
                            t.span(exec, id, || layers::execute(request.query, &handle.view()));
                        let response = match result {
                            Ok(result) => Response::Ok {
                                day_served: handle.day(),
                                result,
                            },
                            Err(code) => Response::err(request.query.id(), code),
                        };
                        std::hint::black_box(
                            t.span("net.encode_ns", id, || layers::encode_response(&response)),
                        );
                        t.end(root);
                    }
                    t.into_spans()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let mut spans = Spans::default();
    for part in parts {
        spans.extend(part);
    }
    (spans, wall)
}

/// Two threads fetch the same day at once from a fresh server over the
/// vault (empty cache): one leads the cold map, the other waits on its
/// single-flight latch.
fn single_flight(dir: &Path, day: u32, epoch: Instant) -> Spans {
    let snaps = layers::snapshot_server(dir, u64::MAX);
    let barrier = std::sync::Barrier::new(2);
    let parts: Vec<Spans> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|i| {
                let (snaps, barrier) = (&snaps, &barrier);
                scope.spawn(move || {
                    let mut t = Tracer::new(epoch);
                    barrier.wait();
                    let fetch = t.begin("serve.fetch", (1 << 56) + i);
                    let (_, kind) = layers::fetch(snaps, day).expect("fetch probe day");
                    t.end_as(fetch, fetch_span(kind));
                    t.into_spans()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("single-flight thread panicked"))
            .collect()
    });
    let mut spans = Spans::default();
    for part in parts {
        spans.extend(part);
    }
    spans
}

fn fetch_span(kind: FetchKind) -> &'static str {
    match kind {
        FetchKind::Hit => "serve.fetch_hit_ns",
        FetchKind::ColdMap => "serve.fetch_cold_us",
        FetchKind::DedupWait => "serve.dedup_wait_us",
    }
}

/// The same replay with no spans: the traced run's overhead baseline.
fn replay_plain(setup: &Setup, requests: &[Vec<(u32, Query, f64)>]) -> Duration {
    let snaps = setup.server.snapshots();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for mine in requests {
            scope.spawn(move || {
                for (day, query, _) in mine {
                    let bytes = layers::encode_request(*day, *query);
                    let request = layers::decode_request(&bytes);
                    let (handle, _) = layers::fetch(snaps, request.day).expect("fetch served day");
                    let response = match layers::execute(request.query, &handle.view()) {
                        Ok(result) => Response::Ok {
                            day_served: handle.day(),
                            result,
                        },
                        Err(code) => Response::err(request.query.id(), code),
                    };
                    std::hint::black_box(layers::encode_response(&response));
                }
            });
        }
    });
    started.elapsed()
}

fn median_of(times: &std::collections::BTreeMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    times
        .get(name)
        .map_or(0.0, |v| util::median(&mut v.clone()))
}

/// Summed self time (ns) of every span in `times`.
fn total_of(times: &std::collections::BTreeMap<&'static str, Vec<f64>>) -> f64 {
    times.values().flatten().sum()
}

pub fn traced(seed: u64, seconds: Duration, dir: &Path, cache: Cache) -> Report {
    let mut report = Report::new();
    let setup = setup(seed, dir, cache);
    let addr = setup.server.addr();
    let fixture = &setup.fixture;
    let part = seconds / 4;

    // Load harness: generator lateness and failures of the open loop.
    let open = open_loop(addr, fixture, seed, cache.open_rate(), part);
    let mut late = open.late_us;
    late.sort_by(f64::total_cmp);
    report.set("load.late_p99_us", util::quantile(&late, 0.99));

    // The mixed stream over the wire, then the same requests in-process
    // (traced and plain, alternating which goes first); then the wire
    // floor: the cheapest query on a cached day, over the wire and
    // in-process. Done in rounds so every comparison sees the same state
    // of the shared machine.
    let epoch = Instant::now();
    let newest = *fixture.days.last().expect("fixture has days");
    let mut mixed = mixed_streams(fixture, seed, 2);
    let mut counts_streams: Vec<_> = (0..nproc())
        .map(|_| move || (newest, Query::Counts))
        .collect();
    let mut spans = Spans::default();
    let mut counts_spans = Spans::default();
    let (mut rtt, mut counts_rtt, mut kept) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_wall, mut plain_wall) = (Duration::ZERO, Duration::ZERO);
    let (mut hits, mut misses, mut evictions) = (0, 0, 0);
    let (mut attempted, mut failed) = (open.attempted, open.failed);
    for round in 0..ROUNDS {
        let record = Some(RECORD / ROUNDS as usize);
        let length = part / ROUNDS;
        let wire = closed_loop(
            addr,
            length,
            record,
            cache.limit(),
            mixed.iter_mut().collect(),
        );
        if round % 2 == 1 {
            plain_wall += replay_plain(&setup, &wire.requests);
        }
        let metrics = setup.server.snapshots().metrics();
        let before = (metrics.hits(), metrics.misses(), metrics.evictions());
        let first_id = u64::from(round) << 40;
        let (round_spans, wall) = replay_traced(&setup, &wire.requests, first_id, epoch);
        hits += metrics.hits() - before.0;
        misses += metrics.misses() - before.1;
        evictions += metrics.evictions() - before.2;
        traced_wall += wall;
        if round % 2 == 0 {
            plain_wall += replay_plain(&setup, &wire.requests);
        }
        spans.extend(round_spans);
        rtt.extend(wire.requests.iter().flatten().map(|r| r.2));
        kept.extend(wire.kept);

        let counts = closed_loop(
            addr,
            length / 2,
            record,
            cache.limit(),
            counts_streams.iter_mut().collect(),
        );
        let (round_spans, _) = replay_traced(&setup, &counts.requests, (1 << 48) + first_id, epoch);
        counts_spans.extend(round_spans);
        counts_rtt.extend(counts.requests.iter().flatten().map(|r| r.2));
        attempted += wire.attempted + counts.attempted;
        failed += wire.failed + counts.failed;
    }
    report.set(
        "serve.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set("serve.evictions", evictions as f64);
    report.set(
        "trace.overhead_pct",
        100.0 * (traced_wall.as_secs_f64() - plain_wall.as_secs_f64()) / plain_wall.as_secs_f64(),
    );

    let times = spans.self_times();
    report.set("net.decode_ns", median_of(&times, "net.decode_ns"));
    report.set("net.encode_ns", median_of(&times, "net.encode_ns"));
    report.set(
        "serve.fetch_hit_ns",
        median_of(&times, "serve.fetch_hit_ns"),
    );
    // A warm cache never misses, and a herd on one cold day is rare: time
    // both fetch kinds on their own too, and use that where the stream
    // produced none.
    let flight = single_flight(dir, newest, epoch);
    let flight_times = flight.self_times();
    for name in ["serve.fetch_cold_us", "serve.dedup_wait_us"] {
        let ns = match median_of(&times, name) {
            0.0 => median_of(&flight_times, name),
            ns => ns,
        };
        report.set(name, ns / 1e3);
    }
    spans.extend(flight);
    for name in EXEC_SPANS {
        report.set(name, median_of(&times, name) / 1e3);
    }

    // Every span of a request is one of its stages (the root's self time
    // is the glue between them), so a request's stage sum is its root
    // span's duration.
    let counts_stage_us =
        total_of(&counts_spans.self_times()) / counts_rtt.len().max(1) as f64 / 1e3;
    let wire_us = util::mean(&counts_rtt) - counts_stage_us;
    report.set("net.wire_us", wire_us);

    // Accounting: mean RTT of the mixed stream vs. in-process stages +
    // wire floor.
    let stage_us = total_of(&times) / rtt.len().max(1) as f64 / 1e3;
    let rtt_us = util::mean(&rtt);
    report.set("trace.rtt_us", rtt_us);
    report.set("trace.stage_sum_us", stage_us);
    report.set(
        "trace.gap_pct",
        100.0 * (rtt_us - (stage_us + wire_us)) / rtt_us,
    );
    spans.extend(counts_spans);

    // store: cold maps of every day by format.
    let vault = setup.server.snapshots().vault();
    let mut map_t = Tracer::new(Instant::now());
    for day in 0..fixture.owned.len() as u32 {
        let name = if layers::is_full(vault, day) {
            "store.map_full_us"
        } else {
            "store.map_delta_us"
        };
        std::hint::black_box(
            map_t
                .span(name, u64::from(day), || layers::map_day(vault, day))
                .expect("map day"),
        );
    }
    let map_spans = map_t.into_spans();
    let map_times = map_spans.self_times();
    report.set(
        "store.map_full_us",
        median_of(&map_times, "store.map_full_us") / 1e3,
    );
    report.set(
        "store.map_delta_us",
        median_of(&map_times, "store.map_delta_us") / 1e3,
    );
    spans.extend(map_spans);

    // san-obs: scrape the server registry.
    let mut obs_t = Tracer::new(Instant::now());
    for i in 0..20 {
        std::hint::black_box(obs_t.span("obs.scrape_us", i, || {
            layers::scrape(setup.server.registry())
        }));
    }
    let obs_spans = obs_t.into_spans();
    report.set(
        "obs.scrape_us",
        median_of(&obs_spans.self_times(), "obs.scrape_us") / 1e3,
    );
    spans.extend(obs_spans);

    report.set("load.attempted", attempted as f64);
    report.set("load.failed", failed as f64);
    report.attempted = attempted;
    report.failed = failed;
    check_responses(&mut report, fixture, &kept);
    eprintln!("traced {:?}: {} spans", cache, spans.len());
    report.spans = Some(spans);
    setup.server.shutdown();
    report
}
