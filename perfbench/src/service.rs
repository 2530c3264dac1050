//! The service phase: one hierarchical tenant behind `HistogramService`,
//! an open-loop reader sending fixed-size range requests, and a writer that
//! ingests delta batches and publishes.
//!
//! The reader runs on its own thread and the writer on the calling thread,
//! so the phase uses two threads. In a traced run the reader also times a
//! bare pin and the pinned snapshot's own answers for every request, and
//! the writer replays each release through the public phase calls (see
//! [`Replay`]).

use std::sync::atomic::{AtomicBool, Ordering};

use hc_core::{
    effective_threads, BatchInference, ConsistentSnapshot, HierarchicalUniversal, LevelTree,
};
use hc_data::{Domain, Histogram, Interval};
use hc_mech::{Epsilon, HierarchicalQuery, PreparedMechanism, QuerySequence, TreeShape};
use hc_noise::{NoiseBackend, SeedStream};
use hc_serve::{
    HistogramService, PinnedSnapshot, RangeQuery, SnapshotShards, TenantConfig, TenantId,
};
use rand::Rng;

use crate::report::{same_bits, Check, PhaseReport};
use crate::stats::{median, ns, quantile, trimmed_mean, Samples};
use crate::trace::{now_ns, Span, Tracer};

/// Ranges in one read request.
pub const RANGES_PER_REQUEST: usize = 256;
/// Deltas in one ingest batch.
pub const DELTAS_PER_CYCLE: usize = 1024;
/// Shards requested for the tenant and for the replay bank.
pub const SHARDS: usize = 2;
/// Distinct requests and delta batches generated per run; the schedule
/// cycles through them.
const REQUEST_POOL: usize = 256;
const DELTA_POOL: usize = 64;
const EPSILON_PER_RELEASE: f64 = 0.1;
/// Large enough that no run exhausts the ledger: a refused publish would
/// count as a failure.
const TOTAL_EPSILON: f64 = 1.0e7;
/// A traced reader traces one request in this many (with its bare pin and
/// direct snapshot answer), which keeps the spans of a run in memory small.
const TRACE_EVERY: usize = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Requests per tail window: 100 samples beyond its p90, 10 beyond its p99.
const TAIL_WINDOW: usize = 1000;
/// Share of the windows the read p50 leaves out at each end.
const WINDOW_TRIM: f64 = 0.2;
/// Epochs the reader's first-seen table is reserved for.
const EPOCH_RESERVE: usize = 1 << 16;

/// How the writer paces its ingest → publish cycles.
#[derive(Debug, Clone, Copy)]
pub enum Writer {
    /// One cycle every `ms` milliseconds.
    Periodic { ms: u64 },
    /// Cycles back to back.
    ClosedLoop,
}

#[derive(Debug, Clone, Copy)]
pub struct ServiceParams {
    pub domain: usize,
    pub backend: NoiseBackend,
    /// Open-loop request rate, requests per second.
    pub reader_rate: u64,
    /// Requests on the schedule (rate × duration), fixed before the run.
    pub requests: usize,
    pub writer: Writer,
}

struct Inputs {
    requests: Vec<Vec<RangeQuery>>,
    intervals: Vec<Vec<Interval>>,
    deltas: Vec<Vec<(usize, u64)>>,
}

/// Requests over `domain` bins with mixed lengths, one whole-domain range
/// in 64 and one empty range in 97, and random delta batches — all drawn
/// from the workload seed.
fn inputs(domain: usize, seed: u64) -> Inputs {
    let seeds = SeedStream::new(seed);
    let mut rng = seeds.substream(0x51).rng(0);
    let mut requests = Vec::with_capacity(REQUEST_POOL);
    for r in 0..REQUEST_POOL {
        let request: Vec<RangeQuery> = (0..RANGES_PER_REQUEST)
            .map(|j| {
                let i = r * RANGES_PER_REQUEST + j;
                if i.is_multiple_of(64) {
                    RangeQuery::new(0, domain)
                } else if i.is_multiple_of(97) {
                    let at = rng.random_range(0..domain);
                    RangeQuery::new(at, at)
                } else {
                    let lo = rng.random_range(0..domain);
                    let hi = rng.random_range(lo..=domain);
                    RangeQuery::new(lo, hi)
                }
            })
            .collect();
        requests.push(request);
    }
    let intervals = requests
        .iter()
        .map(|r| r.iter().filter_map(|q| q.to_interval()).collect())
        .collect();
    let deltas = (0..DELTA_POOL)
        .map(|c| {
            let mut rng = seeds.substream(0xde).rng(c as u64);
            (0..DELTAS_PER_CYCLE)
                .map(|_| (rng.random_range(0..domain), rng.random_range(1..20u64)))
                .collect()
        })
        .collect();
    Inputs {
        requests,
        intervals,
        deltas,
    }
}

fn tenant_seed(seed: u64) -> u64 {
    SeedStream::new(seed).nth(0x7e)
}

fn tenant_config(params: &ServiceParams, seed: u64) -> TenantConfig {
    TenantConfig::new("bench", params.domain)
        .with_budget(TOTAL_EPSILON, EPSILON_PER_RELEASE)
        .with_refresh_every(0)
        .with_seed(tenant_seed(seed))
        .with_backend(params.backend)
        .with_shards(SHARDS)
}

/// Spins until `due`. Both of the phase's threads busy-wait rather than
/// sleep: on a virtual machine an idle vCPU can lose its physical core,
/// and the next wake-up then waits milliseconds for it, which would charge
/// the host's scheduler to the service under test.
fn wait_until(due: u64) {
    while now_ns() < due {
        std::hint::spin_loop();
    }
}

/// Registration, the first ingest and the first publish: one service ready
/// to serve epoch 1. Returns the service, its tenant, the true counts and
/// the set-up time in ns.
fn setup(
    params: &ServiceParams,
    seed: u64,
    inputs: &Inputs,
) -> (HistogramService, TenantId, Vec<u64>, u64) {
    let start = now_ns();
    let mut service = HistogramService::new();
    let id = service
        .register(tenant_config(params, seed))
        .expect("benchmark tenant registers");
    service
        .ingest(id, &inputs.deltas[0])
        .expect("first ingest is in range");
    service.publish(id).expect("first publish is funded");
    let elapsed = now_ns() - start;
    let mut counts = vec![0u64; params.domain];
    for &(bin, c) in &inputs.deltas[0] {
        counts[bin] += c;
    }
    (service, id, counts, elapsed)
}

/// The release of one publish, replayed from outside through the public
/// phase calls with the release's own RNG: counts clone → evaluate → noise
/// → inference → prefix rebuild → broadcast to a benchmark-owned bank, and
/// then the fused `release_and_infer` on the same input.
pub struct Replay {
    shape: TreeShape,
    domain: Domain,
    prepared: PreparedMechanism<HierarchicalQuery>,
    tree: LevelTree,
    engine: BatchInference,
    values: Vec<f64>,
    z: Vec<f64>,
    inferred: Vec<f64>,
    fused: Vec<f64>,
    bank: SnapshotShards,
    seeds: SeedStream,
}

impl Replay {
    fn new(params: &ServiceParams, seed: u64) -> Self {
        let shape = TreeShape::for_domain(params.domain, 2);
        let eps = Epsilon::new(EPSILON_PER_RELEASE).expect("positive ε");
        let prepared = HierarchicalUniversal::new(eps, 2)
            .with_backend(params.backend)
            .prepare(params.domain);
        let empty = ConsistentSnapshot::from_leaves(&vec![0.0; params.domain], params.domain);
        Self {
            domain: Domain::new("bench", params.domain).expect("non-empty domain"),
            tree: LevelTree::new(&shape),
            engine: BatchInference::for_shape(&shape),
            prepared,
            values: Vec::new(),
            z: Vec::new(),
            inferred: Vec::new(),
            fused: Vec::new(),
            bank: SnapshotShards::new(empty, SHARDS),
            seeds: SeedStream::new(tenant_seed(seed)),
            shape,
        }
    }

    /// Replays release `release_index` over `counts`. Returns whether the
    /// fused pipeline matched the phase chain bit for bit, and the replayed
    /// snapshot as the bank serves it.
    fn run(
        &mut self,
        counts: &[u64],
        release_index: u64,
        tracer: &mut Tracer,
        request: u64,
    ) -> (bool, PinnedSnapshot) {
        let nodes = self.shape.nodes() as u64;
        let root = tracer.begin("replay", None, request);
        let parent = Some(root);
        let histogram = tracer.time("data.counts_clone", parent, request, 1, || {
            Histogram::from_counts(self.domain.clone(), counts.to_vec())
        });
        tracer.time("mech.evaluate", parent, request, nodes, || {
            self.prepared
                .query()
                .evaluate_into(&histogram, &mut self.values)
        });
        let mut rng = self.seeds.rng(release_index);
        let noise = self.prepared.noise();
        let backend = self.prepared.backend();
        tracer.time("noise.fill", parent, request, nodes, || {
            noise.add_noise_with(backend, &mut rng, &mut self.values)
        });
        tracer.time("engine.infer", parent, request, nodes, || {
            self.tree
                .infer_into(&self.values, &mut self.z, &mut self.inferred)
        });
        let snapshot = tracer.time("snapshot.rebuild", parent, request, 1, || {
            ConsistentSnapshot::from_tree_values(&self.shape, &self.inferred, self.domain.size())
        });
        tracer.time("cell.broadcast", parent, request, 1, || {
            self.bank.broadcast(snapshot)
        });
        tracer.end(root, 1);
        let mut rng = self.seeds.rng(release_index);
        tracer.time("engine.fused", None, request, nodes, || {
            self.engine
                .release_and_infer(&self.prepared, &histogram, &mut rng, &mut self.fused)
        });
        (same_bits(&self.fused, &self.inferred), self.bank.pin())
    }
}

/// Whether two snapshots give bit-identical answers on `queries` and on
/// every 61st single bin.
fn same_answers(a: &ConsistentSnapshot, b: &ConsistentSnapshot, queries: &[Interval]) -> bool {
    let domain = a.domain_size();
    let singles = (0..domain).step_by(61).map(|i| Interval::new(i, i));
    domain == b.domain_size()
        && queries
            .iter()
            .copied()
            .chain(singles)
            .all(|q| a.answer(q).to_bits() == b.answer(q).to_bits())
}

struct ReaderOut {
    latency: Vec<u64>,
    lag: Vec<u64>,
    /// `first_seen[e]`: when the reader first got an answer from epoch `e`.
    first_seen: Vec<Option<u64>>,
    failed: u64,
    non_finite: u64,
    epoch_drops: u64,
    pin_mismatches: u64,
    spans: Vec<Span>,
}

fn reader(
    service: &HistogramService,
    id: TenantId,
    inputs: &Inputs,
    params: &ServiceParams,
    start: u64,
    traced: bool,
) -> ReaderOut {
    let interval = 1_000_000_000 / params.reader_rate;
    let mut tracer = Tracer::new(traced);
    let mut untraced = Tracer::new(false);
    let mut out = ReaderOut {
        // Written in place, never pushed: the pages are touched here, before
        // the schedule starts, so the reader takes no page fault mid-run.
        latency: vec![0; params.requests],
        lag: vec![0; params.requests],
        first_seen: Vec::new(),
        failed: 0,
        non_finite: 0,
        epoch_drops: 0,
        pin_mismatches: 0,
        spans: Vec::new(),
    };
    let mut answers = Vec::with_capacity(RANGES_PER_REQUEST);
    let mut direct = Vec::with_capacity(RANGES_PER_REQUEST);
    // Epochs run to a few thousand at most; reserved so the reader never
    // grows it mid-run.
    out.first_seen.reserve(EPOCH_RESERVE);
    let mut last_epoch = 0usize;
    for i in 0..params.requests {
        let queries = &inputs.requests[i % REQUEST_POOL];
        let due = start + i as u64 * interval;
        wait_until(due);
        out.lag[i] = now_ns() - due;
        let req = i as u64;
        let sampled = traced && i.is_multiple_of(TRACE_EVERY);
        let tracer = if sampled { &mut tracer } else { &mut untraced };
        let root = tracer.begin("request", None, req);
        let result = tracer.time(
            "service.answer",
            Some(root),
            req,
            queries.len() as u64,
            || service.answer_into(id, queries, &mut answers),
        );
        let done = now_ns();
        let epoch = match result {
            Ok(epoch) => epoch,
            Err(_) => {
                out.failed += 1;
                out.latency[i] = u64::MAX;
                tracer.end(root, 1);
                continue;
            }
        };
        out.latency[i] = done - due;
        out.non_finite += answers.iter().filter(|a| !a.is_finite()).count() as u64;
        if epoch < last_epoch {
            out.epoch_drops += 1;
        }
        last_epoch = last_epoch.max(epoch);
        if out.first_seen.len() <= epoch {
            out.first_seen.resize(epoch + 1, None);
        }
        out.first_seen[epoch].get_or_insert(done);
        if sampled {
            tracer.time("cell.pin", Some(root), req, 1, || {
                drop(service.snapshot(id).expect("tenant exists"))
            });
            let pinned = service.snapshot(id).expect("tenant exists");
            let intervals = &inputs.intervals[i % REQUEST_POOL];
            tracer.time(
                "snapshot.answer",
                Some(root),
                req,
                intervals.len() as u64,
                || pinned.answer_into(intervals, &mut direct),
            );
            if pinned.epoch() == epoch {
                let served = queries.iter().zip(&answers).filter(|(q, _)| !q.is_empty());
                if !served
                    .zip(&direct)
                    .all(|((_, a), d)| a.to_bits() == d.to_bits())
                {
                    out.pin_mismatches += 1;
                }
            }
        }
        tracer.end(root, 1);
    }
    out.spans = tracer.into_spans();
    out
}

struct WriterOut {
    publish_ns: Vec<u64>,
    /// `(epoch, ingest start)` of every successful cycle.
    ingest_start: Vec<(usize, u64)>,
    cycles: u64,
    failed: u64,
    elapsed_ns: u64,
    last_release: Option<u64>,
    replays: u64,
    fused_mismatches: u64,
    replay_mismatches: u64,
    spans: Vec<Span>,
}

#[allow(clippy::too_many_arguments)]
fn writer(
    service: &HistogramService,
    id: TenantId,
    inputs: &Inputs,
    params: &ServiceParams,
    counts: &mut [u64],
    mut replay: Option<&mut Replay>,
    start: u64,
    reader_done: &AtomicBool,
) -> WriterOut {
    let mut tracer = Tracer::new(replay.is_some());
    let mut out = WriterOut {
        publish_ns: Vec::new(),
        ingest_start: Vec::new(),
        cycles: 0,
        failed: 0,
        elapsed_ns: 0,
        last_release: None,
        replays: 0,
        fused_mismatches: 0,
        replay_mismatches: 0,
        spans: Vec::new(),
    };
    let mut cycle = 1u64;
    while !reader_done.load(Ordering::Acquire) {
        if let Writer::Periodic { ms } = params.writer {
            let due = start + cycle * ms * 1_000_000;
            while now_ns() < due && !reader_done.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            if reader_done.load(Ordering::Acquire) {
                break;
            }
        }
        let deltas = &inputs.deltas[cycle as usize % DELTA_POOL];
        let root = tracer.begin("cycle", None, cycle);
        let ingest_at = now_ns();
        let ingested = tracer.time(
            "service.ingest",
            Some(root),
            cycle,
            deltas.len() as u64,
            || service.ingest(id, deltas),
        );
        if ingested.is_err() {
            out.failed += 1;
            tracer.end(root, 1);
            cycle += 1;
            continue;
        }
        for &(bin, c) in deltas {
            counts[bin] += c;
        }
        let publish_at = now_ns();
        let published = tracer.time("service.publish", Some(root), cycle, 1, || {
            service.publish(id)
        });
        out.publish_ns.push(now_ns() - publish_at);
        tracer.end(root, 1);
        match published {
            Ok(report) => {
                out.cycles += 1;
                out.ingest_start.push((report.epoch, ingest_at));
                out.last_release = Some(report.release_index);
                if let Some(replay) = replay.as_deref_mut() {
                    let request = cycle as usize;
                    replay_and_compare(
                        service,
                        id,
                        inputs,
                        counts,
                        replay,
                        report.release_index,
                        &mut tracer,
                        request,
                        &mut out,
                    );
                }
            }
            Err(_) => out.failed += 1,
        }
        cycle += 1;
    }
    out.elapsed_ns = now_ns() - start;
    out.spans = tracer.into_spans();
    out
}

#[allow(clippy::too_many_arguments)]
fn replay_and_compare(
    service: &HistogramService,
    id: TenantId,
    inputs: &Inputs,
    counts: &[u64],
    replay: &mut Replay,
    release_index: u64,
    tracer: &mut Tracer,
    request: usize,
    out: &mut WriterOut,
) {
    let served = service.snapshot(id).expect("tenant exists");
    let (fused_ok, replayed) = replay.run(counts, release_index, tracer, request as u64);
    out.replays += 1;
    if !fused_ok {
        out.fused_mismatches += 1;
    }
    let queries = &inputs.intervals[request % REQUEST_POOL];
    if served.epoch() != release_index as usize + 1 || !same_answers(&served, &replayed, queries) {
        out.replay_mismatches += 1;
    }
}

/// Runs the service phase and reduces it to its metrics.
pub fn run(params: &ServiceParams, seed: u64, traced: bool, label: &str) -> PhaseReport {
    let inputs = inputs(params.domain, seed);
    let mut setup_ns = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        let (service, id, counts, ns) = setup(params, seed, &inputs);
        setup_ns.push(ns as f64);
        ready = Some((service, id, counts));
    }
    let (service, id, mut counts) = ready.expect("at least one set-up");
    let shard_count = service.shard_count(id).expect("tenant exists");
    // A traced run replays every release; the untraced run replays only the
    // last one, after its peak memory is read, so the replay's buffers stay
    // out of `peak_rss_mb`.
    let mut replay = traced.then(|| Replay::new(params, seed));

    let reader_done = AtomicBool::new(false);
    let start = now_ns() + 1_000_000;
    let (read, mut write) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let out = reader(&service, id, &inputs, params, start, traced);
            reader_done.store(true, Ordering::Release);
            out
        });
        let write = writer(
            &service,
            id,
            &inputs,
            params,
            &mut counts,
            replay.as_mut(),
            start,
            &reader_done,
        );
        (reader.join().expect("reader thread"), write)
    });
    let peak_rss_mb = crate::machine::peak_rss_mb();
    if let (None, Some(index)) = (&replay, write.last_release) {
        let mut check = Replay::new(params, seed);
        let mut off = Tracer::new(false);
        replay_and_compare(
            &service, id, &inputs, &counts, &mut check, index, &mut off, 0, &mut write,
        );
    }

    let mut report = PhaseReport::new(label);
    report.setup_s = median(&setup_ns) / 1e9;
    report.peak_rss_mb = peak_rss_mb;
    let latency = ns(&read.latency);
    report.set(
        "read_p50_us",
        trimmed_mean(&per_window(&read.latency, 0.50), WINDOW_TRIM) / 1e3,
    );
    report.set(
        "read_p90_us",
        median(&per_window(&read.latency, 0.90)) / 1e3,
    );
    let publish = ns(&write.publish_ns);
    report.set("publish_p50_ms", quantile(&publish, 0.50) / 1e6);
    report.set("publish_p95_ms", quantile(&publish, 0.95) / 1e6);
    report.set(
        "releases_per_s",
        write.cycles as f64 / (write.elapsed_ns as f64 / 1e9),
    );
    let mut visible = Vec::new();
    let mut unobserved = 0usize;
    for &(epoch, at) in &write.ingest_start {
        match read.first_seen.get(epoch).copied().flatten() {
            Some(seen) => visible.push(seen.saturating_sub(at) as f64),
            None => unobserved += 1,
        }
    }
    report.set("visible_p50_ms", median(&visible) / 1e6);
    report.attempted = params.requests as u64 + write.cycles + write.failed;
    report.failed = read.failed + write.failed;

    let shape = TreeShape::for_domain(params.domain, 2);
    let prefix_bytes = 8 * (shape.leaves() + 1) as u64;
    report.counts.push((
        "noise.draws",
        shape.nodes() as f64,
        "per release, computed from the tree shape",
    ));
    report.counts.push((
        "snapshot.bytes_rebuilt",
        prefix_bytes as f64,
        "per publish, computed: 8 B × (leaves + 1)",
    ));
    report.counts.push((
        "cell.bytes_cloned",
        (prefix_bytes * (shard_count as u64 - 1)) as f64,
        "per publish, computed: prefix bytes × (shards − 1)",
    ));
    report.counts.push((
        "ranges_answered",
        (params.requests * RANGES_PER_REQUEST) as f64,
        "per run, fixed by the schedule",
    ));

    report.notes.push(format!(
        "tenant: domain {} bins, backend {}, {shard_count} shards (requested {SHARDS}, effective_threads {}), ε {EPSILON_PER_RELEASE}/release",
        params.domain,
        params.backend.name(),
        effective_threads(SHARDS),
    ));
    report.notes.push(format!(
        "load: open-loop reader {} req/s × {RANGES_PER_REQUEST} ranges, {} requests; writer {} × {DELTAS_PER_CYCLE} deltas; {} cycles, {} epochs never observed by the reader",
        params.reader_rate,
        params.requests,
        match params.writer {
            Writer::Periodic { ms } => format!("every {ms} ms"),
            Writer::ClosedLoop => "closed loop".to_string(),
        },
        write.cycles,
        unobserved,
    ));
    report.notes.push(format!(
        "not gated: read p95 {:.2} us (windowed {:.2} us), p99 {:.2} us (windowed {:.2} us), generator lateness p99 {:.2} us; read samples {}, publish samples {}",
        quantile(&latency, 0.95) / 1e3,
        median(&per_window(&read.latency, 0.95)) / 1e3,
        quantile(&latency, 0.99) / 1e3,
        median(&per_window(&read.latency, 0.99)) / 1e3,
        quantile(&ns(&read.lag), 0.99) / 1e3,
        latency.len(),
        publish.len(),
    ));
    let own_bytes = 2 * size_of::<u64>() * params.requests
        + size_of::<u64>() * params.domain
        + REQUEST_POOL * RANGES_PER_REQUEST * (size_of::<RangeQuery>() + size_of::<Interval>())
        + DELTA_POOL * DELTAS_PER_CYCLE * size_of::<(usize, u64)>()
        + EPOCH_RESERVE * size_of::<Option<u64>>();
    let own_mb = own_bytes as f64 / (1 << 20) as f64;
    report.notes.push(format!(
        "peak_rss_mb {peak_rss_mb:.1} MiB includes {own_mb:.1} MiB ({:.0}%) of the benchmark's own buffers: latency and lag per scheduled request, the counts mirror, the request and delta pools, the epoch table",
        own_mb / peak_rss_mb * 100.0,
    ));

    report.checks.push(Check::new(
        "a: served answers finite",
        read.non_finite == 0,
        format!("{} non-finite answers", read.non_finite),
    ));
    report.checks.push(Check::new(
        "a: reader epochs never decrease",
        read.epoch_drops == 0,
        format!(
            "{} decreases over {} requests",
            read.epoch_drops, params.requests
        ),
    ));
    report.checks.push(Check::new(
        "a: the schedule fills at least ten tail windows",
        latency.len() >= 10 * TAIL_WINDOW,
        format!("{} samples, {TAIL_WINDOW} per window", latency.len()),
    ));
    report.checks.push(Check::new(
        "b: replayed snapshot equals the served epoch bit for bit",
        write.replays > 0 && write.replay_mismatches == 0,
        format!(
            "{} of {} replays differ",
            write.replay_mismatches, write.replays
        ),
    ));
    report.checks.push(Check::new(
        "b: fused release_and_infer equals the phase chain bit for bit",
        write.replays > 0 && write.fused_mismatches == 0,
        format!(
            "{} of {} replays differ",
            write.fused_mismatches, write.replays
        ),
    ));
    if traced {
        report.checks.push(Check::new(
            "b: pinned snapshot answers equal the service's answers",
            read.pin_mismatches == 0,
            format!("{} requests differ", read.pin_mismatches),
        ));
        layer_samples(&read.spans, &write.spans, &mut report.samples);
        publish_budget(&report.samples, &mut report.notes);
        report.spans.push(("reader", read.spans));
        report.spans.push(("writer", write.spans));
    }
    report
}

/// The `q`-quantile of each consecutive window of [`TAIL_WINDOW`]
/// scheduled requests.
///
/// The read metrics reduce these per-window figures rather than pooling
/// the samples, because of two kinds of host noise on a shared 2-vCPU
/// machine. A stall — a preempted vCPU holds the reader for 5 to 20 ms
/// about once a second — moves only the windows it lands in: it lifts a
/// window's tail often enough that the p90 takes the median over windows,
/// but rarely its p50, which the trimmed mean also guards. The gated tail
/// is the p90, not the p95: on `refresh_heavy` the windowed p95 follows how
/// hard the host lets the publisher's memory traffic hit the reader, and
/// spread 0.18 across ten runs where the p90 spread 0.12. And the host
/// switches the read path between a fast and a slow level for seconds at a
/// time (about 7 and 11 µs per request on `refresh_heavy`): the p50 takes
/// the trimmed mean, which moves smoothly with the share of time spent at
/// each level, where a median of samples or of windows jumps from one
/// level to the other.
fn per_window(latency: &[u64], q: f64) -> Vec<f64> {
    latency
        .chunks_exact(TAIL_WINDOW)
        .map(|w| quantile(&ns(w), q))
        .collect()
}

/// Per-layer samples from the reader's and writer's spans.
fn layer_samples(read: &[Span], write: &[Span], samples: &mut Samples) {
    for s in read {
        let d = s.duration() as f64;
        match s.name {
            "service.answer" => samples.push("service.answer_ns_per_range", d / s.units as f64),
            "cell.pin" => samples.push("cell.pin_ns", d),
            "snapshot.answer" => samples.push("snapshot.answer_ns_per_range", d / s.units as f64),
            _ => {}
        }
    }
    for s in write {
        let d = s.duration() as f64;
        match s.name {
            "service.publish" => samples.push("service.publish_ms", d / 1e6),
            "service.ingest" => samples.push("service.ingest_us", d / 1e3),
            "data.counts_clone" => samples.push("data.counts_clone_ms", d / 1e6),
            "mech.evaluate" => samples.push("mech.evaluate_ms", d / 1e6),
            "noise.fill" => {
                samples.push("noise.fill_ms", d / 1e6);
                samples.push("noise.ns_per_draw", d / s.units as f64);
            }
            "engine.infer" => samples.push("engine.infer_ms", d / 1e6),
            "engine.fused" => samples.push("engine.fused_ms", d / 1e6),
            "snapshot.rebuild" => samples.push("snapshot.rebuild_ms", d / 1e6),
            "cell.broadcast" => samples.push("cell.broadcast_ms", d / 1e6),
            _ => {}
        }
    }
}

/// The publish budget: replayed phase medians against the opaque publish.
fn publish_budget(samples: &Samples, notes: &mut Vec<String>) {
    const PHASES: [&str; 6] = [
        "data.counts_clone_ms",
        "mech.evaluate_ms",
        "noise.fill_ms",
        "engine.infer_ms",
        "snapshot.rebuild_ms",
        "cell.broadcast_ms",
    ];
    let (Some(whole), Some(fused)) = (
        samples.median("service.publish_ms"),
        samples.median("engine.fused_ms"),
    ) else {
        return;
    };
    let parts: Vec<(&str, f64)> = PHASES
        .iter()
        .filter_map(|&p| samples.median(p).map(|v| (p, v)))
        .collect();
    let sum = parts.iter().fold(0.0, |acc, (_, v)| acc + v);
    let detail: Vec<String> = parts.iter().map(|(p, v)| format!("{p} {v:.3}")).collect();
    let remainder = whole - sum;
    let share = remainder / whole;
    notes.push(format!(
        "budget publish: service.publish_ms {whole:.3} vs replayed phase sum {sum:.3} ({}); unattributed {remainder:.3} ms = {:.1}%{}",
        detail.join(", "),
        share * 100.0,
        if share.abs() > 0.15 { " [FLAG > 15%]" } else { "" },
    ));
    notes.push(format!(
        "budget publish: fused release_and_infer {fused:.3} ms vs evaluate+noise+infer {:.3} ms",
        ["mech.evaluate_ms", "noise.fill_ms", "engine.infer_ms"]
            .iter()
            .filter_map(|p| samples.median(p))
            .fold(0.0, |acc, v| acc + v),
    ));
}

/// Closed-loop capacity of the read path over `domain` bins: one reader
/// sending requests back to back for two seconds, no writer. Returns the
/// mean µs per request and the requests per second.
pub fn closed_loop_capacity(domain: usize, seed: u64) -> (f64, f64) {
    let params = ServiceParams {
        domain,
        backend: NoiseBackend::Reference,
        reader_rate: 1,
        requests: 0,
        writer: Writer::ClosedLoop,
    };
    let inputs = inputs(domain, seed);
    let (service, id, _, _) = setup(&params, seed, &inputs);
    let mut answers = Vec::with_capacity(RANGES_PER_REQUEST);
    let start = now_ns();
    let mut done = 0usize;
    while now_ns() - start < 2_000_000_000 {
        service
            .answer_into(id, &inputs.requests[done % REQUEST_POOL], &mut answers)
            .expect("requests are in range");
        done += 1;
    }
    let elapsed = (now_ns() - start) as f64;
    (elapsed / done as f64 / 1e3, done as f64 / (elapsed / 1e9))
}
