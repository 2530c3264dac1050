//! The repository benchmark: two workloads through the public API of the
//! release, inference and serving crates.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload read_heavy|refresh_heavy \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload has a main service phase, which gets the `--seconds`, and
//! a fixed-size companion phase of 64 waves of the paper's Fig. 6 trials,
//! which supplies `trials_per_s` and the trial layers, so every run reports
//! all nine end-to-end metrics.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the main
//! phase once untraced and once traced (their difference is the tracing
//! overhead), prints the per-layer metrics and the budget report, and
//! writes the spans to `perfbench/out/`. The last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! A failed correctness check makes the exit code 1.

mod layers;
mod machine;
mod report;
mod service;
mod stats;
mod trace;
mod trials;

use std::collections::BTreeMap;
use std::process::ExitCode;

use hc_noise::NoiseBackend;

use crate::layers::{END_TO_END, LAYERS};
use crate::report::{result_line, Metric};
use crate::service::{ServiceParams, Writer};

const WORKLOADS: [&str; 2] = ["read_heavy", "refresh_heavy"];

/// Open-loop request rate of `read_heavy`: about a quarter of the read
/// path's closed-loop capacity, which `--calibrate` measured at about
/// 200 000 requests/s on a 2-vCPU Xeon virtual machine.
const READ_HEAVY_RATE: u64 = 50_000;
/// The low fixed request rate beside a publishing writer: 5% of the read
/// path's capacity, and high enough that a tail window of 1 000 requests
/// spans 0.1 s.
const LOW_RATE: u64 = 10_000;
/// Fig. 6 waves of 16 trials in the companion phase.
const COMPANION_WAVES: usize = 64;
const SERVICE_DOMAIN: usize = 1 << 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    calibrate: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1] | --calibrate",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        calibrate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => {
                args.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be an integer"))
            }
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .unwrap_or_else(|| usage("--seconds must be a positive integer"))
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                }
            }
            "--calibrate" => args.calibrate = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !args.calibrate && !WORKLOADS.contains(&args.workload.as_str()) {
        usage("--workload must name one of the workloads");
    }
    args
}

/// The main service phase of a workload.
fn service_params(workload: &str, seconds: u64) -> ServiceParams {
    if workload == "read_heavy" {
        ServiceParams {
            domain: SERVICE_DOMAIN,
            backend: NoiseBackend::Reference,
            reader_rate: READ_HEAVY_RATE,
            requests: (READ_HEAVY_RATE * seconds) as usize,
            writer: Writer::Periodic { ms: 250 },
        }
    } else {
        ServiceParams {
            domain: SERVICE_DOMAIN,
            backend: NoiseBackend::FastLnWide,
            reader_rate: LOW_RATE,
            requests: (LOW_RATE * seconds) as usize,
            writer: Writer::ClosedLoop,
        }
    }
}

/// Prints the closed-loop capacity of the `read_heavy` read path.
fn calibrate() {
    let (per_request_us, capacity) = service::closed_loop_capacity(SERVICE_DOMAIN, 1);
    println!(
        "closed-loop read path: {per_request_us:.3} us per {}-range request, {capacity:.0} requests/s",
        service::RANGES_PER_REQUEST
    );
}

fn main() -> ExitCode {
    let args = parse_args();
    // Every width of the workloads is two: the tenant's shards, the wave
    // and scoring threads, and the Fig. 6 reference curve's runner, all of
    // which `effective_threads` takes from `HC_THREADS` when it is set. An
    // inherited value is only recorded.
    let inherited_threads = std::env::var("HC_THREADS").ok();
    std::env::set_var("HC_THREADS", "2");
    if args.calibrate {
        calibrate();
        return ExitCode::SUCCESS;
    }

    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "record: nproc {}, caches {}, HC_THREADS 2 (inherited {}), git commit {}, span cost {:.1} ns",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        machine::cache_sizes(),
        inherited_threads.as_deref().unwrap_or("unset"),
        machine::git_commit(),
        trace::span_cost_ns(),
    );

    let warm = machine::warm_up();
    println!(
        "record: warm-up {:.2} s, {}; host probe (not gated): {:.2} ms per CPU slice",
        warm.seconds,
        if warm.parallel {
            "threads run in parallel"
        } else {
            "threads still share a core after 10 s"
        },
        warm.slice_ms,
    );
    let load_before = machine::load_latency_ns();
    let main_phase = service_params(&args.workload, args.seconds);
    let untraced_main = args
        .trace
        .then(|| service::run(&main_phase, args.seed, false, "main (untraced)"));
    let mut main_report = service::run(&main_phase, args.seed, args.trace, "main");
    let mut companion_report = trials::run(COMPANION_WAVES, args.seed, args.trace, "companion");
    let load_after = machine::load_latency_ns();
    let slow = load_before.max(load_after) > machine::SLOW_LOAD_NS;
    println!(
        "record: host mode {}: {load_before:.1} ns before and {load_after:.1} ns after the phases per dependent load over 16 MiB (slow above {} ns)",
        if slow { "SLOW" } else { "normal" },
        machine::SLOW_LOAD_NS,
    );
    if slow {
        println!(
            "warning: the host was in its slow mode during this run; its figures are not comparable with those of a normal-mode run"
        );
    }

    let mut metrics: BTreeMap<&'static str, f64> = companion_report.metrics.clone();
    metrics.extend(main_report.metrics.iter().map(|(k, v)| (*k, *v)));
    metrics.insert("setup_s", main_report.setup_s);
    metrics.insert("peak_rss_mb", main_report.peak_rss_mb);

    let mut correct = true;
    let mut attempted = 0;
    let mut failed = 0;
    for report in untraced_main
        .iter()
        .chain([&main_report, &companion_report])
    {
        println!("phase {}:", report.label);
        for note in &report.notes {
            println!("  {note}");
        }
        for (name, value, how) in &report.counts {
            println!("  count {name} = {value} ({how})");
        }
        for check in &report.checks {
            println!(
                "  check {}: {} ({})",
                check.name,
                if check.ok { "ok" } else { "FAILED" },
                check.detail
            );
            correct &= check.ok;
        }
        attempted += report.attempted;
        failed += report.failed;
    }

    let mut e2e = Vec::new();
    for m in END_TO_END {
        let value = metrics.get(m.name).copied().unwrap_or(f64::NAN);
        println!(
            "metric {} = {value:.4} {} — {}",
            m.name, m.unit, m.definition
        );
        if !value.is_finite() || value <= 0.0 {
            println!("check metric {} measured: FAILED", m.name);
            correct = false;
        }
        e2e.push(Metric {
            name: m.name,
            value,
            unit: m.unit,
        });
    }
    println!("attempted {attempted}, failed {failed}");

    let mut out_metrics = e2e;
    if let Some(untraced) = &untraced_main {
        println!("tracing overhead (main phase, traced vs untraced):");
        for (name, traced_value) in &main_report.metrics {
            if let Some(plain) = untraced.metrics.get(name) {
                println!(
                    "  {name}: untraced {plain:.4}, traced {traced_value:.4} ({:+.1}%)",
                    (traced_value / plain - 1.0) * 100.0
                );
            }
        }
        let mut counts: BTreeMap<&str, f64> = BTreeMap::new();
        for report in [&main_report, &companion_report] {
            for (name, value, _) in &report.counts {
                counts.entry(name).or_insert(*value);
            }
        }
        let mut samples = std::mem::take(&mut main_report.samples);
        samples.fill_from(std::mem::take(&mut companion_report.samples));
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.tsv",
            args.workload, args.seed
        ));
        let mut groups = std::mem::take(&mut main_report.spans);
        groups.extend(std::mem::take(&mut companion_report.spans));
        match trace::write_spans(&path, &groups) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written to {}: {e}", path.display()),
        }
        out_metrics = Vec::new();
        println!("per-layer (median; call timed; should move; dominant / bypassed):");
        for layer in LAYERS {
            let value = samples
                .median(layer.name)
                .or_else(|| counts.get(layer.name).copied())
                .unwrap_or(f64::NAN);
            println!(
                "  {} = {value:.4} {} — {}; moves {}; {} / {}",
                layer.name, layer.unit, layer.call, layer.moves, layer.dominant, layer.bypassed
            );
            if !value.is_finite() || value <= 0.0 {
                println!("check layer {} measured: FAILED", layer.name);
                correct = false;
            }
            out_metrics.push(Metric {
                name: layer.name,
                value,
                unit: layer.unit,
            });
        }
    }
    correct &= attempted > 0;
    println!("{}", result_line(correct, attempted, failed, &out_metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
