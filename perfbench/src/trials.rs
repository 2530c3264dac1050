//! The trials phase: the paper's Fig. 6 protocol on NetTrace at ε = 0.1,
//! run the way `hc_bench::experiments::fig6::compute_curve` runs it.
//!
//! Each wave releases and infers 16 trials through
//! `BatchInference::release_and_infer_batch_parallel` (rounded), then
//! scores them on two threads: every trial releases `L̃` through
//! `FlatUniversal::release_into`, samples 1 000 ranges per dyadic size, and
//! answers them from the truth snapshot, the flat release and two
//! `SubtreeServer` folds (`H̃`, `H̄`). Seeds, per-trial RNGs and arithmetic
//! are those of `compute_curve`, so its per-size errors can be checked bit
//! for bit. Scoring runs on `compute_curve`'s own trial runner,
//! `hc_bench::runner::run_trials_with`, whose width `HC_THREADS` (pinned
//! to 2 by the benchmark) sets.

use hc_bench::datasets::{build, DatasetId};
use hc_bench::experiments::fig6::{compute_curve, Fig6Point};
use hc_bench::runner::run_trials_with;
use hc_bench::stats::mean;
use hc_bench::RunConfig;
use hc_core::{
    effective_threads, BatchInference, ConsistentSnapshot, FlatRelease, FlatUniversal,
    HierarchicalUniversal, LevelTree, Rounding, SubtreeServer,
};
use hc_data::{dyadic_sizes, Histogram, Interval, RangeWorkload};
use hc_mech::{Epsilon, HierarchicalQuery, PreparedMechanism, QuerySequence, TreeShape};
use hc_noise::SeedStream;

use crate::report::{same_bits, Check, PhaseReport};
use crate::stats::{median, Samples};
use crate::trace::{append_spans, now_ns, self_times, Span, Tracer};

const EPSILON: f64 = 0.1;
/// Trials per wave: `compute_curve`'s wave size.
const WAVE: usize = 16;
const THREADS: usize = 2;
const RANGES_PER_SIZE: usize = 1000;
/// Trials compared bit for bit against `compute_curve`.
const CHECKED_TRIALS: usize = WAVE;
/// Largest range sizes on which `H̄` must beat `H̃`.
const CLAIM_SIZES: usize = 3;
const SETUPS: usize = 7;

/// Per trial and size: the mean squared errors of (`L̃`, `H̃`, `H̄`).
type TrialErrors = Vec<(f64, f64, f64)>;

struct Fixture {
    histogram: Histogram,
    truth: ConsistentSnapshot,
    shape: TreeShape,
    server: SubtreeServer,
    prepared: PreparedMechanism<HierarchicalQuery>,
    flat: FlatUniversal,
    workloads: Vec<RangeWorkload>,
}

/// Dataset synthesis, the truth snapshot and the fixed release machinery.
fn setup(seeds: SeedStream) -> (Fixture, u64) {
    let start = now_ns();
    let histogram = build(DatasetId::NetTrace, false, seeds);
    let truth = ConsistentSnapshot::from_histogram(&histogram);
    let n = histogram.len();
    let shape = TreeShape::for_domain(n, 2);
    let eps = Epsilon::new(EPSILON).expect("positive ε");
    let workloads = dyadic_sizes(shape.height())
        .into_iter()
        .filter(|&s| s <= n)
        .map(|s| RangeWorkload::new(n, s))
        .collect();
    let fixture = Fixture {
        server: SubtreeServer::new(&shape),
        prepared: HierarchicalUniversal::binary(eps).prepare(n),
        flat: FlatUniversal::new(eps),
        histogram,
        truth,
        shape,
        workloads,
    };
    (fixture, now_ns() - start)
}

/// One scoring worker's reusable buffers.
struct TrialState {
    flat: FlatRelease,
    queries: Vec<Interval>,
    truth: Vec<f64>,
    flat_ans: Vec<f64>,
    subtree_ans: Vec<f64>,
    inferred_ans: Vec<f64>,
}

impl TrialState {
    fn new(fx: &Fixture) -> Self {
        let eps = Epsilon::new(EPSILON).expect("positive ε");
        Self {
            flat: FlatRelease::from_noisy(eps, vec![0.0; fx.histogram.len()]),
            queries: Vec::new(),
            truth: Vec::new(),
            flat_ans: Vec::new(),
            subtree_ans: Vec::new(),
            inferred_ans: Vec::new(),
        }
    }
}

/// Scores trial `t` of a wave: `compute_curve`'s trial body, with spans.
/// When `nodes_per_range` is given, also sums the `H̃` decomposition sizes
/// of every sampled range into it.
#[allow(clippy::too_many_arguments)]
fn score_trial(
    fx: &Fixture,
    noisy: &[f64],
    hbar: &[f64],
    rng: &mut rand::rngs::StdRng,
    st: &mut TrialState,
    tracer: &mut Tracer,
    request: u64,
    mut nodes_per_range: Option<&mut (u64, u64)>,
) -> TrialErrors {
    let root = tracer.begin("trial", None, request);
    let parent = Some(root);
    let k = RANGES_PER_SIZE as u64;
    tracer.time("mech.flat_release", parent, request, 1, || {
        fx.flat.release_into(&fx.histogram, rng, &mut st.flat)
    });
    let mut sums = Vec::with_capacity(fx.workloads.len());
    for workload in &fx.workloads {
        tracer.time("data.sample", parent, request, k, || {
            workload.sample_into(rng, RANGES_PER_SIZE, &mut st.queries)
        });
        tracer.time("snapshot.answer", parent, request, k, || {
            fx.truth.answer_into(&st.queries, &mut st.truth)
        });
        tracer.time("mech.flat_answer", parent, request, k, || {
            st.flat
                .answer_into(Rounding::NonNegativeInteger, &st.queries, &mut st.flat_ans)
        });
        tracer.time("subtree.fold", parent, request, k, || {
            fx.server.answer_into(
                noisy,
                Rounding::NonNegativeInteger,
                &st.queries,
                &mut st.subtree_ans,
            )
        });
        tracer.time("subtree.fold", parent, request, k, || {
            fx.server
                .answer_into(hbar, Rounding::None, &st.queries, &mut st.inferred_ans)
        });
        if let Some(acc) = nodes_per_range.as_deref_mut() {
            for &q in &st.queries {
                acc.0 += fx.server.decomposition_len(q) as u64;
                acc.1 += 1;
            }
        }
        let (mut fe, mut se, mut ie) = (0.0, 0.0, 0.0);
        for j in 0..st.queries.len() {
            let truth = st.truth[j];
            let f = st.flat_ans[j];
            let s = st.subtree_ans[j];
            let i = st.inferred_ans[j];
            fe += (f - truth) * (f - truth);
            se += (s - truth) * (s - truth);
            ie += (i - truth) * (i - truth);
        }
        let scale = RANGES_PER_SIZE as f64;
        sums.push((fe / scale, se / scale, ie / scale));
    }
    tracer.end(root, 1);
    sums
}

/// Replays trial 0 of a wave through the public phase calls — evaluate,
/// noise, inference, zero+round — and the fused `release_and_infer` on the
/// same input. Returns (noisy release matches, `H̄` matches, fused matches
/// the unrounded chain), all bit for bit.
struct TrialReplay {
    tree: LevelTree,
    engine: BatchInference,
    values: Vec<f64>,
    z: Vec<f64>,
    inferred: Vec<f64>,
    fused: Vec<f64>,
}

impl TrialReplay {
    fn run(
        &mut self,
        fx: &Fixture,
        seeds: SeedStream,
        noisy: &[f64],
        hbar: &[f64],
        tracer: &mut Tracer,
        request: u64,
    ) -> (bool, bool, bool) {
        let nodes = fx.shape.nodes() as u64;
        let root = tracer.begin("replay", None, request);
        let parent = Some(root);
        tracer.time("mech.evaluate", parent, request, nodes, || {
            fx.prepared
                .query()
                .evaluate_into(&fx.histogram, &mut self.values)
        });
        let mut rng = seeds.rng(0);
        let noise = fx.prepared.noise();
        let backend = fx.prepared.backend();
        tracer.time("noise.fill", parent, request, nodes, || {
            noise.add_noise_with(backend, &mut rng, &mut self.values)
        });
        let noisy_ok = same_bits(&self.values, noisy);
        tracer.time("engine.infer", parent, request, nodes, || {
            self.tree
                .infer_into(&self.values, &mut self.z, &mut self.inferred)
        });
        let mut rng = seeds.rng(0);
        tracer.time("engine.fused", None, request, nodes, || {
            self.engine
                .release_and_infer(&fx.prepared, &fx.histogram, &mut rng, &mut self.fused)
        });
        let fused_ok = same_bits(&self.fused, &self.inferred);
        tracer.time("engine.zero_round", parent, request, nodes, || {
            self.tree.zero_round_in_place(&mut self.inferred)
        });
        tracer.end(root, 1);
        (noisy_ok, same_bits(&self.inferred, hbar), fused_ok)
    }
}

/// Runs `waves` waves of trials, the first one untimed, and reduces them to
/// their metrics.
pub fn run(waves: usize, seed: u64, traced: bool, label: &str) -> PhaseReport {
    let seeds = SeedStream::new(seed);
    let mut setup_ns = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        let (fx, ns) = setup(seeds);
        setup_ns.push(ns as f64);
        ready = Some(fx);
    }
    let fx = ready.expect("at least one set-up");
    let threads = effective_threads(THREADS).max(1);
    let noise_seeds = seeds.substream(2);
    let aux_seeds = seeds.substream(1);
    let mut engine = BatchInference::for_shape(&fx.shape);
    let mut replay = TrialReplay {
        tree: LevelTree::new(&fx.shape),
        engine: BatchInference::for_shape(&fx.shape),
        values: Vec::new(),
        z: Vec::new(),
        inferred: Vec::new(),
        fused: Vec::new(),
    };
    let (mut noisy_batch, mut hbar_batch) = (Vec::new(), Vec::new());
    let mut main_tracer = Tracer::new(traced);
    let mut scorer_spans: Vec<Span> = Vec::new();
    let mut nodes_per_range = (0u64, 0u64);
    let mut per_trial: Vec<TrialErrors> = Vec::new();
    let mut wave_rates = Vec::new();
    let (mut replays, mut noisy_bad, mut hbar_bad, mut fused_bad) = (0u64, 0u64, 0u64, 0u64);

    let phase_start = now_ns();
    let mut start = 0usize;
    while start < waves * WAVE {
        let wave_start = now_ns();
        let request = start as u64;
        let wave_seeds = noise_seeds.substream(start as u64);
        main_tracer.time("engine.wave", None, request, WAVE as u64, || {
            engine.release_and_infer_batch_parallel(
                &fx.prepared,
                &fx.histogram,
                wave_seeds,
                WAVE,
                true,
                THREADS,
                Some(&mut noisy_batch),
                &mut hbar_batch,
            )
        });
        let nodes = fx.shape.nodes();
        let scored = main_tracer.time("score.wave", None, request, WAVE as u64, || {
            run_trials_with(
                WAVE,
                aux_seeds.substream(start as u64),
                || TrialState::new(&fx),
                |t, mut rng, st| {
                    let mut tracer = Tracer::new(traced);
                    let mut count = (start == 0 && t == 0).then_some((0u64, 0u64));
                    let errors = score_trial(
                        &fx,
                        &noisy_batch[t * nodes..(t + 1) * nodes],
                        &hbar_batch[t * nodes..(t + 1) * nodes],
                        &mut rng,
                        st,
                        &mut tracer,
                        (start + t) as u64,
                        count.as_mut(),
                    );
                    (errors, tracer.into_spans(), count)
                },
            )
        });
        for (errors, spans, count) in scored {
            per_trial.push(errors);
            append_spans(&mut scorer_spans, spans);
            if let Some(count) = count {
                nodes_per_range = count;
            }
        }
        // The first wave grows the batch buffers; it is scored and checked
        // but not timed. (The scorers' buffers are re-grown every wave, as
        // in `compute_curve`.)
        if start > 0 {
            wave_rates.push(WAVE as f64 / ((now_ns() - wave_start) as f64 / 1e9));
        }
        // Every wave is replayed in a traced run; the untraced run checks
        // the first wave only, outside the timed waves' own time.
        if traced || start == 0 {
            let (a, b, c) = replay.run(
                &fx,
                wave_seeds,
                &noisy_batch[..nodes],
                &hbar_batch[..nodes],
                &mut main_tracer,
                request,
            );
            replays += 1;
            noisy_bad += u64::from(!a);
            hbar_bad += u64::from(!b);
            fused_bad += u64::from(!c);
        }
        start += WAVE;
    }
    let elapsed_s = (now_ns() - phase_start) as f64 / 1e9;
    let peak_rss_mb = crate::machine::peak_rss_mb();
    let trials = per_trial.len();

    let mut report = PhaseReport::new(label);
    report.setup_s = median(&setup_ns) / 1e9;
    report.peak_rss_mb = peak_rss_mb;
    report.set("trials_per_s", median(&wave_rates));
    report.attempted = trials as u64;
    let sizes: Vec<usize> = fx.workloads.iter().map(|w| w.range_size()).collect();
    let (nodes_sum, ranges) = nodes_per_range;
    report.counts.push((
        "subtree.nodes_per_range",
        nodes_sum as f64 / ranges as f64,
        "mean SubtreeServer::decomposition_len over trial 0's sampled ranges",
    ));
    report.counts.push((
        "ranges_answered",
        (sizes.len() * RANGES_PER_SIZE) as f64,
        "per trial, fixed by the protocol",
    ));
    report.counts.push((
        "noise.draws",
        fx.shape.nodes() as f64,
        "per release, computed from the tree shape",
    ));
    let batch_mb = (2 * WAVE * fx.shape.nodes() * size_of::<f64>()) as f64 / (1 << 20) as f64;
    report.notes.push(format!(
        "peak_rss_mb {peak_rss_mb:.1} MiB includes {batch_mb:.1} MiB ({:.0}%) of wave batch buffers the benchmark hands to the release, as compute_curve holds them",
        batch_mb / peak_rss_mb * 100.0,
    ));
    report.notes.push(format!(
        "trials: NetTrace {} bins, ε {EPSILON}, waves of {WAVE}, {threads} threads (requested {THREADS}), {} sizes × {RANGES_PER_SIZE} ranges; {trials} trials in {elapsed_s:.2} s ({} timed waves)",
        fx.histogram.len(),
        sizes.len(),
        wave_rates.len(),
    ));

    // Check (c): the per-size errors of the first trials equal
    // `compute_curve`'s at the same seed and trial count, bit for bit.
    let cfg = RunConfig {
        quick: false,
        trials: CHECKED_TRIALS,
        seed,
    };
    let expected = compute_curve(cfg, DatasetId::NetTrace, EPSILON, seeds);
    let ours = curve(&per_trial[..CHECKED_TRIALS], &sizes);
    let matches = expected.len() == ours.len()
        && expected.iter().zip(&ours).all(|(e, o)| {
            e.size == o.size
                && e.flat.to_bits() == o.flat.to_bits()
                && e.subtree.to_bits() == o.subtree.to_bits()
                && e.inferred.to_bits() == o.inferred.to_bits()
        });
    report.checks.push(Check::new(
        "c: per-size (L~, H~, H̄) MSEs equal compute_curve bit for bit",
        matches,
        format!("{CHECKED_TRIALS} trials, {} sizes", sizes.len()),
    ));
    let all = curve(&per_trial, &sizes);
    let top = &all[all.len().saturating_sub(CLAIM_SIZES)..];
    let detail: Vec<String> = top
        .iter()
        .map(|p| {
            format!(
                "size {}: H̄ {:.4e} vs H~ {:.4e}",
                p.size, p.inferred, p.subtree
            )
        })
        .collect();
    report.checks.push(Check::new(
        "c: H̄ < H~ at the largest range sizes",
        top.iter().all(|p| p.inferred < p.subtree),
        format!("{trials} trials; {}", detail.join("; ")),
    ));
    report.checks.push(Check::new(
        "b: replayed noisy release equals the wave's release bit for bit",
        replays > 0 && noisy_bad == 0,
        format!("{noisy_bad} of {replays} replays differ"),
    ));
    report.checks.push(Check::new(
        "b: replayed zero+round inference equals the wave's H̄ bit for bit",
        replays > 0 && hbar_bad == 0,
        format!("{hbar_bad} of {replays} replays differ"),
    ));
    report.checks.push(Check::new(
        "b: fused release_and_infer equals the phase chain bit for bit",
        replays > 0 && fused_bad == 0,
        format!("{fused_bad} of {replays} replays differ"),
    ));
    let finite = per_trial
        .iter()
        .flatten()
        .all(|&(f, s, i)| f.is_finite() && s.is_finite() && i.is_finite());
    report.checks.push(Check::new(
        "a: trial errors finite",
        finite,
        format!("{trials} trials"),
    ));

    if traced {
        let spans = vec![
            ("trials", main_tracer.into_spans()),
            ("scorers", scorer_spans),
        ];
        layer_samples(&spans, &mut report.samples);
        trial_budget(&spans, threads, trials, &mut report.notes);
        report.spans = spans;
    }
    report
}

/// Per-size mean errors over `per_trial`, folded as `compute_curve` folds
/// them.
fn curve(per_trial: &[TrialErrors], sizes: &[usize]) -> Vec<Fig6Point> {
    sizes
        .iter()
        .enumerate()
        .map(|(idx, &size)| {
            let flat: Vec<f64> = per_trial.iter().map(|t| t[idx].0).collect();
            let subtree: Vec<f64> = per_trial.iter().map(|t| t[idx].1).collect();
            let inferred: Vec<f64> = per_trial.iter().map(|t| t[idx].2).collect();
            Fig6Point {
                dataset: DatasetId::NetTrace.name(),
                epsilon: EPSILON,
                size,
                flat: mean(&flat),
                subtree: mean(&subtree),
                inferred: mean(&inferred),
            }
        })
        .collect()
}

fn layer_samples(spans: &[(&'static str, Vec<Span>)], samples: &mut Samples) {
    for (_, group) in spans {
        for s in group {
            let d = s.duration() as f64;
            let per_unit = d / s.units as f64;
            match s.name {
                "engine.wave" => samples.push("engine.wave_ms", d / 1e6),
                "mech.flat_release" => samples.push("mech.flat_release_ms", d / 1e6),
                "data.sample" => samples.push("data.sample_ns_per_range", per_unit),
                "snapshot.answer" => samples.push("snapshot.answer_ns_per_range", per_unit),
                "subtree.fold" => samples.push("subtree.fold_ns_per_range", per_unit),
                "mech.evaluate" => samples.push("mech.evaluate_ms", d / 1e6),
                "noise.fill" => {
                    samples.push("noise.fill_ms", d / 1e6);
                    samples.push("noise.ns_per_draw", per_unit);
                }
                "engine.infer" => samples.push("engine.infer_ms", d / 1e6),
                "engine.fused" => samples.push("engine.fused_ms", d / 1e6),
                _ => {}
            }
        }
    }
}

/// The per-trial budget in thread time: the replayed release phases plus
/// the scorers' per-trial self times, against the measured thread time per
/// trial: (release wave + scoring wave) wall time × threads / trials.
fn trial_budget(
    spans: &[(&'static str, Vec<Span>)],
    threads: usize,
    trials: usize,
    notes: &mut Vec<String>,
) {
    let mut per_name: Vec<(&'static str, f64)> = Vec::new();
    let mut add = |name: &'static str, ns: f64| match per_name.iter_mut().find(|(n, _)| *n == name)
    {
        Some((_, v)) => *v += ns,
        None => per_name.push((name, ns)),
    };
    let mut replays = 0usize;
    let mut wave_wall_ns = 0.0;
    for (_, group) in spans {
        for (s, own) in group.iter().zip(self_times(group)) {
            match s.name {
                "mech.evaluate" | "noise.fill" | "engine.infer" | "engine.zero_round" => {
                    add(s.name, s.duration() as f64)
                }
                "replay" => replays += 1,
                "engine.wave" | "score.wave" => wave_wall_ns += s.duration() as f64,
                "trial" => add("trial.self", own as f64),
                "mech.flat_release" | "data.sample" | "snapshot.answer" | "mech.flat_answer"
                | "subtree.fold" => add(s.name, s.duration() as f64),
                _ => {}
            }
        }
    }
    if replays == 0 || trials == 0 {
        return;
    }
    let release_phases = [
        "mech.evaluate",
        "noise.fill",
        "engine.infer",
        "engine.zero_round",
    ];
    let parts: Vec<(&str, f64)> = per_name
        .iter()
        .map(|&(name, total)| {
            let per = if release_phases.contains(&name) {
                total / replays as f64
            } else {
                total / trials as f64
            };
            (name, per / 1e6)
        })
        .collect();
    let whole = wave_wall_ns / 1e6 * threads as f64 / trials as f64;
    let sum = parts.iter().fold(0.0, |acc, (_, v)| acc + v);
    let remainder = whole - sum;
    let share = remainder / whole;
    let detail: Vec<String> = parts.iter().map(|(n, v)| format!("{n} {v:.3}")).collect();
    notes.push(format!(
        "budget trial: thread time per trial {whole:.3} ms vs phase sum {sum:.3} ms ({}); unattributed {remainder:.3} ms = {:.1}%{}",
        detail.join(", "),
        share * 100.0,
        if share.abs() > 0.15 { " [FLAG > 15%]" } else { "" },
    ));
}
