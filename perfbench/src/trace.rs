//! The benchmark's clock and its span recorder.
//!
//! Every clock read of the benchmark goes through [`now_ns`]. Spans are
//! recorded from the benchmark's own code, around its calls into each
//! layer's public functions: name, start, end, parent span and request id.
//! They stay in memory until the run ends, when [`write_spans`] writes them
//! out. A disabled [`Tracer`] reads no clock and records nothing, so the
//! untraced end-to-end run pays nothing for it.

use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = *ORIGIN.get_or_init(Instant::now); // hc-lint: allow(determinism) — benchmark clock origin; timings never feed a released value
    origin.elapsed().as_nanos() as u64
}

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
    /// Units of work the span covered (ranges, draws, trials), for
    /// per-unit metrics; 1 when the span is one operation.
    pub units: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Opens a span; a disabled tracer returns a dummy id.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent,
            request,
            units: 1,
        });
        self.spans.len() - 1
    }

    /// Closes a span, recording how many units of work it covered.
    pub fn end(&mut self, id: SpanId, units: u64) {
        if self.enabled {
            let span = &mut self.spans[id];
            span.end = now_ns();
            span.units = units.max(1);
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        units: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id, units);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends another tracer's spans to `spans`, re-pointing their parents.
pub fn append_spans(spans: &mut Vec<Span>, more: Vec<Span>) {
    let offset = spans.len();
    spans.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let lo = span.start.max(parent.start);
            let hi = span.end.min(parent.end);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, &c)| s.duration().saturating_sub(c))
        .collect()
}

/// Measured cost of recording one span (begin + end), in ns.
pub fn span_cost_ns() -> f64 {
    let rounds = 100_000u64;
    let mut tracer = Tracer::new(true);
    tracer.spans.reserve(rounds as usize);
    let start = now_ns();
    for i in 0..rounds {
        let id = tracer.begin("probe", None, i);
        tracer.end(id, 1);
    }
    let elapsed = now_ns() - start;
    std::hint::black_box(&tracer.spans);
    elapsed as f64 / rounds as f64
}

/// Writes `(thread, spans)` groups as tab-separated lines: thread, span
/// index, name, start ns, end ns, self ns, parent index (or -1), request,
/// units.
pub fn write_spans(path: &std::path::Path, groups: &[(&str, Vec<Span>)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "thread\tspan\tname\tstart_ns\tend_ns\tself_ns\tparent\trequest\tunits"
    )?;
    for (thread, spans) in groups {
        for ((i, s), self_ns) in spans.iter().enumerate().zip(self_times(spans)) {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{thread}\t{i}\t{}\t{}\t{}\t{self_ns}\t{parent}\t{}\t{}",
                s.name, s.start, s.end, s.request, s.units
            )?;
        }
    }
    out.flush()
}
