//! The machine the run measures on: its record, and its warm-up.

use hc_core::effective_threads;

use crate::trace::now_ns;

/// Cache sizes by level from sysfs, e.g. `L1d 48K, L2 2048K, L3 …`.
pub fn cache_sizes() -> String {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        let (Ok(level), Ok(size), Ok(kind)) = (read("level"), read("size"), read("type")) else {
            continue;
        };
        let suffix = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push(format!("L{level}{suffix} {size}"));
    }
    if out.is_empty() {
        "unknown".to_string()
    } else {
        out.join(", ")
    }
}

/// The commit of the checkout, when it is a git work tree.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// The process's peak resident set (`VmHWM`) in MiB; `NaN` where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A fixed slice of integer work: ten million dependent xorshift steps.
fn spin_work() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..10_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x)
}

/// What the warm-up saw.
pub struct WarmUp {
    pub seconds: f64,
    /// Whether the threads ended up running in parallel.
    pub parallel: bool,
    /// The last lone work slice: a CPU-speed reading of the host.
    pub slice_ms: f64,
}

/// Busy-waits until the run's threads get cores of their own: after an
/// idle spell a virtual machine may run two busy threads on one physical
/// core for the first seconds, which halves every two-thread figure. Each
/// round times the work slice alone and then on every thread at once; the
/// machine is warm after ten rounds in a row where the parallel slice took
/// at most 1.15× the lone one. Gives up after 10 s.
pub fn warm_up() -> WarmUp {
    let threads = effective_threads(2).max(1);
    let start = now_ns();
    let mut good = 0;
    let mut alone = 0;
    while good < 10 && now_ns() - start < 10_000_000_000 {
        let t0 = now_ns();
        spin_work();
        alone = now_ns() - t0;
        let t1 = now_ns();
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(spin_work);
            }
            spin_work();
        });
        let together = now_ns() - t1;
        if (together as f64) <= 1.15 * alone as f64 {
            good += 1;
        } else {
            good = 0;
        }
    }
    WarmUp {
        seconds: (now_ns() - start) as f64 / 1e9,
        parallel: good >= 10,
        slice_ms: alone as f64 / 1e6,
    }
}

/// The [`load_latency_ns`] reading above which the host is in its slow
/// mode. On the 2-vCPU Xeon virtual machine the bounds were set on, the
/// probe reads about 40 ns normally and 105 to 130 ns in the slow mode,
/// which makes every timed figure two to three times worse.
pub const SLOW_LOAD_NS: f64 = 80.0;

/// Mean latency of a dependent load chain over a 16 MiB random cycle: a
/// reading of the host's cache and memory latency, which moves the read
/// path's figures when other tenants of the machine thrash its L3.
pub fn load_latency_ns() -> f64 {
    const SLOTS: usize = 1 << 22;
    const LOADS: usize = 1 << 21;
    // Sattolo's shuffle: one cycle through every slot.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in (1..SLOTS).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    let mut at = 0usize;
    let start = now_ns();
    for _ in 0..LOADS {
        at = next[at] as usize;
    }
    let elapsed = now_ns() - start;
    std::hint::black_box(at);
    elapsed as f64 / LOADS as f64
}
