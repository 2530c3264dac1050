//! The metric catalogue: every end-to-end metric with its unit, and every
//! per-layer metric with the public call it times, the end-to-end metric
//! it should move, and where its layer dominates and where it is bypassed:
//! a workload's main service phase, or the trials phase both workloads end
//! with.

/// An end-to-end metric: name, unit, definition.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub definition: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        definition: "median of seven set-ups of the main phase: registration + first ingest + first publish",
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        definition: "request latency from the scheduled send time to the answer: p50 within each window of 1000 scheduled requests, mean over the middle 60% of the windows",
    },
    EndToEnd {
        name: "read_p90_us",
        unit: "us",
        definition: "the same latency at p90 within each window of 1000 scheduled requests (100 samples beyond it), median over the windows",
    },
    EndToEnd {
        name: "publish_p50_ms",
        unit: "ms",
        definition: "duration of HistogramService::publish, p50",
    },
    EndToEnd {
        name: "publish_p95_ms",
        unit: "ms",
        definition: "duration of HistogramService::publish, p95",
    },
    EndToEnd {
        name: "releases_per_s",
        unit: "1/s",
        definition: "ingest -> publish cycles completed per second",
    },
    EndToEnd {
        name: "visible_p50_ms",
        unit: "ms",
        definition: "staleness: start of the ingest call to the reader's first answer from the new epoch, p50",
    },
    EndToEnd {
        name: "trials_per_s",
        unit: "1/s",
        definition: "complete Fig. 6 trials (release, inference, scoring) per second, median over 16-trial waves",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        definition: "the process's VmHWM at the end of the main phase",
    },
];

/// A per-layer metric.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// The public call the span wraps, or how a count is obtained.
    pub call: &'static str,
    /// The end-to-end metric(s) it should move.
    pub moves: &'static str,
    /// Where the layer dominates.
    pub dominant: &'static str,
    /// Where the main load bypasses the layer.
    pub bypassed: &'static str,
}

pub const LAYERS: &[Layer] = &[
    Layer {
        name: "service.answer_ns_per_range",
        unit: "ns",
        call: "HistogramService::answer_into",
        moves: "read_p50_us, read_p90_us",
        dominant: "read_heavy",
        bypassed: "the trials phase",
    },
    Layer {
        name: "cell.pin_ns",
        unit: "ns",
        call: "SnapshotShards::pin (+ drop), through HistogramService::snapshot",
        moves: "read_p50_us",
        dominant: "read_heavy",
        bypassed: "the trials phase",
    },
    Layer {
        name: "snapshot.answer_ns_per_range",
        unit: "ns",
        call:
            "ConsistentSnapshot::answer_into (pinned snapshot; truth snapshot in the trials phase)",
        moves: "read_p50_us",
        dominant: "read_heavy",
        bypassed: "refresh_heavy (low read rate)",
    },
    Layer {
        name: "service.publish_ms",
        unit: "ms",
        call: "HistogramService::publish",
        moves: "publish_p50_ms, visible_p50_ms",
        dominant: "refresh_heavy",
        bypassed: "the trials phase",
    },
    Layer {
        name: "service.ingest_us",
        unit: "us",
        call: "HistogramService::ingest",
        moves: "visible_p50_ms, releases_per_s",
        dominant: "refresh_heavy",
        bypassed: "the trials phase",
    },
    Layer {
        name: "data.counts_clone_ms",
        unit: "ms",
        call: "Histogram::from_counts over a counts clone",
        moves: "publish_p50_ms, peak_rss_mb",
        dominant: "refresh_heavy",
        bypassed: "the trials phase",
    },
    Layer {
        name: "mech.evaluate_ms",
        unit: "ms",
        call: "QuerySequence::evaluate_into (hierarchical query)",
        moves: "publish_p50_ms",
        dominant: "refresh_heavy",
        bypassed: "read_heavy",
    },
    Layer {
        name: "noise.fill_ms",
        unit: "ms",
        call: "Laplace::add_noise_with (the tenant's backend)",
        moves: "publish_p50_ms, trials_per_s",
        dominant: "refresh_heavy, the trials phase",
        bypassed: "read_heavy",
    },
    Layer {
        name: "noise.ns_per_draw",
        unit: "ns",
        call: "Laplace::add_noise_with, per draw",
        moves: "publish_p50_ms, trials_per_s",
        dominant: "refresh_heavy, the trials phase",
        bypassed: "read_heavy",
    },
    Layer {
        name: "engine.infer_ms",
        unit: "ms",
        call: "LevelTree::infer_into",
        moves: "publish_p50_ms",
        dominant: "refresh_heavy",
        bypassed: "read_heavy",
    },
    Layer {
        name: "engine.fused_ms",
        unit: "ms",
        call: "BatchInference::release_and_infer on the replayed input",
        moves: "publish_p50_ms",
        dominant: "refresh_heavy",
        bypassed: "read_heavy",
    },
    Layer {
        name: "engine.wave_ms",
        unit: "ms",
        call: "BatchInference::release_and_infer_batch_parallel (one 16-trial wave)",
        moves: "trials_per_s",
        dominant: "the trials phase",
        bypassed: "the service phase",
    },
    Layer {
        name: "snapshot.rebuild_ms",
        unit: "ms",
        call: "ConsistentSnapshot::from_tree_values",
        moves: "publish_p50_ms, visible_p50_ms, peak_rss_mb",
        dominant: "refresh_heavy",
        bypassed: "the trials phase",
    },
    Layer {
        name: "cell.broadcast_ms",
        unit: "ms",
        call: "SnapshotShards::broadcast on a benchmark-owned 2-shard bank",
        moves: "publish_p50_ms; read_p50_us on refresh_heavy",
        dominant: "refresh_heavy",
        bypassed: "the trials phase",
    },
    Layer {
        name: "subtree.fold_ns_per_range",
        unit: "ns",
        call: "SubtreeServer::answer_into",
        moves: "trials_per_s",
        dominant: "the trials phase",
        bypassed: "the service phase",
    },
    Layer {
        name: "mech.flat_release_ms",
        unit: "ms",
        call: "FlatUniversal::release_into",
        moves: "trials_per_s",
        dominant: "the trials phase",
        bypassed: "the service phase",
    },
    Layer {
        name: "data.sample_ns_per_range",
        unit: "ns",
        call: "RangeWorkload::sample_into",
        moves: "trials_per_s",
        dominant: "the trials phase",
        bypassed: "the service phase",
    },
    Layer {
        name: "noise.draws",
        unit: "count",
        call: "exact count: draws per release, computed from the tree shape",
        moves: "publish_p50_ms, trials_per_s",
        dominant: "refresh_heavy, the trials phase",
        bypassed: "read_heavy",
    },
    Layer {
        name: "snapshot.bytes_rebuilt",
        unit: "B",
        call: "exact count: prefix bytes rebuilt per publish, computed from sizes",
        moves: "publish_p50_ms, peak_rss_mb",
        dominant: "refresh_heavy",
        bypassed: "the trials phase",
    },
    Layer {
        name: "cell.bytes_cloned",
        unit: "B",
        call: "exact count: snapshot bytes cloned per broadcast, computed from sizes",
        moves: "publish_p50_ms, peak_rss_mb",
        dominant: "refresh_heavy",
        bypassed: "the trials phase",
    },
    Layer {
        name: "subtree.nodes_per_range",
        unit: "count",
        call: "exact count: mean SubtreeServer::decomposition_len over trial 0's ranges",
        moves: "trials_per_s",
        dominant: "the trials phase",
        bypassed: "the service phase",
    },
    Layer {
        name: "ranges_answered",
        unit: "count",
        call: "exact count: ranges per run on the read schedule",
        moves: "read_p50_us",
        dominant: "read_heavy",
        bypassed: "none",
    },
];
