//! Span recording for the traced run, and the clock the untraced run uses.
//!
//! Every call the benchmark makes into a layer of the program goes through
//! [`span`]. With tracing off that is one thread-local flag test around the
//! call; with tracing on it records the span's name, start, end, parent and
//! the number of operations it covered. Spans stay in memory until the run
//! ends, when [`write_csv`] puts them in a file and [`self_times`] folds
//! them into per-layer self time: a span's duration minus the part of it
//! its direct children cover.
//!
//! The benchmark pins the program to one worker, so every span — including
//! those recorded from inside the program through a wrapped estimator —
//! opens and closes on the calling thread and the spans nest properly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `net.pump`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was enabled.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was enabled.
    pub end_ns: u64,
    /// Operations the span covered (a batch of calls counts each call).
    pub ops: u64,
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns span recording on or off for the calling thread.
pub fn set_enabled(enabled: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = enabled);
}

/// Runs `f` inside a span named `name` covering `ops` operations.
pub fn span<R>(name: &'static str, ops: u64, f: impl FnOnce() -> R) -> R {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let index = r.spans.len();
        let parent = r.open.last().copied();
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            ops,
        });
        r.open.push(index);
        Some(index)
    });
    let result = f();
    if let Some(index) = index {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end_ns = r.epoch.elapsed().as_nanos() as u64;
            r.spans[index].end_ns = end_ns;
            let closed = r.open.pop();
            debug_assert_eq!(closed, Some(index), "spans close in LIFO order");
        });
    }
    result
}

/// [`span`] whose operation count is read off the call's result, for calls
/// that only say afterwards how much work they did (a pump turn, a bulk
/// ingest).
pub fn span_counted<R>(name: &'static str, f: impl FnOnce() -> R, ops: impl Fn(&R) -> u64) -> R {
    let before = RECORDER.with(|r| r.borrow().spans.len());
    let result = span(name, 0, f);
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.enabled && r.spans.len() > before {
            r.spans[before].ops = ops(&result);
        }
    });
    result
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Summed self time, in seconds.
    pub self_s: f64,
    /// Summed operations.
    pub ops: u64,
    /// Spans with this name.
    pub calls: u64,
}

impl LayerTotals {
    /// Self time per operation, in seconds (0 when the layer did no work).
    pub fn per_op_s(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.self_s / self.ops as f64
        }
    }
}

/// Folds spans into per-name self-time totals.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (span, children) in spans.iter().zip(&child_ns) {
        let entry = totals.entry(span.name).or_default();
        let own = (span.end_ns - span.start_ns).saturating_sub(*children);
        entry.self_s += own as f64 * 1e-9;
        entry.ops += span.ops;
        entry.calls += 1;
    }
    totals
}

/// Writes spans as CSV (`id,parent,name,start_ns,end_ns,ops,run`).
pub fn write_csv(path: &Path, spans: &[Span], run_id: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,name,start_ns,end_ns,ops,run")?;
    for (id, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or(String::new(), |p| p.to_string());
        writeln!(
            out,
            "{id},{parent},{},{},{},{},{run_id}",
            span.name, span.start_ns, span.end_ns, span.ops
        )?;
    }
    out.flush()
}

/// Wall-clock seconds `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let result = f();
    (start.elapsed().as_secs_f64(), result)
}

/// `calls` back-to-back calls of `f` inside one span: returns the mean
/// seconds per call. Calls too short to time one by one are timed as a
/// batch.
pub fn batch<R>(name: &'static str, calls: u64, mut f: impl FnMut() -> R) -> f64 {
    let (secs, ()) = timed(|| {
        span(name, calls, || {
            for _ in 0..calls {
                std::hint::black_box(f());
            }
        })
    });
    secs / calls as f64
}

/// The `q`-quantile of `values` by nearest rank (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The mean of `values`.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// The median of `values` (nearest rank from below for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
