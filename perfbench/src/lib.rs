//! The roomsense benchmark: three batch workloads driven through the
//! program's public APIs, timed from outside the program, with every output
//! checked against a computation made apart from the program.
//!
//! * `office_day` — phones walk an office floor; the fleet simulation and
//!   the SVM classification in BMS ingest do the work.
//! * `lecture_surge` — a lecture-hall crowd replayed open-loop into the
//!   ingest tier; admission, mailboxes, shard ingest and checkpoints do
//!   the work.
//! * `archive_history` — an office crowd stream into a retention-bounded
//!   archived fleet, then crash recovery and historical reads.
//!
//! Each run sets up its inputs several times (the median is `setup_s`),
//! then repeats whole rounds of its workload until the run length is used
//! up. End-to-end metrics come from untraced rounds; a traced run
//! alternates untraced and traced rounds and reports per-layer self times
//! from the traced ones, with the tracing overhead against the untraced.

pub mod trace;

mod archive_history;
mod lecture_surge;
mod office_day;
mod oracle;

use std::collections::BTreeMap;
use std::time::Instant;

/// The workloads, in the order `run.py` runs them.
pub const WORKLOADS: [&str; 3] = ["office_day", "lecture_surge", "archive_history"];

/// Input size: the benchmark's own, or a reduced one that performs every
/// check in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// The smoke size used by the package's tests.
    Smoke,
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Wall seconds the rounds may use (at least one round always runs).
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Spans recorded by a traced run.
    pub spans: Vec<trace::Span>,
    /// Rounds run, and the median wall seconds of the untraced ones.
    pub rounds: usize,
    pub round_s: f64,
    /// Values printed beside the metrics, such as classifier accuracies.
    pub notes: BTreeMap<&'static str, f64>,
}

/// End-to-end metrics measured in-process: every workload reports each of
/// them. `run.py` adds `peak_rss_mb`, read from the operating system when
/// the workload process exits.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("sim_device_s_per_s", "1/s"),
    ("ingest_reports_per_s", "1/s"),
    ("view_us", "us"),
    ("population_us", "us"),
    ("checkpoint_ms", "ms"),
    ("recover_reports_per_s", "1/s"),
    ("history_us", "us"),
];

/// How a per-layer metric is derived from the traced rounds.
#[derive(Debug, Clone, Copy)]
enum Layer {
    /// Self seconds of the named span per setup.
    PerSetup(&'static str),
    /// Self seconds of the named span per traced round.
    PerRound(&'static str),
    /// Self time of the named span per operation, scaled to the unit.
    PerOp(&'static str, f64),
    /// A count read from the program (last round).
    Count,
    /// Computed from the spans as a whole.
    Derived,
}

const US: f64 = 1e6;
const MS: f64 = 1e3;

/// Per-layer metrics: every workload reports each of them; a layer the
/// workload does not use reads 0.
const PER_LAYER: [(&str, &str, Layer); 37] = [
    ("core.collect_s", "s", Layer::PerSetup("core.collect")),
    ("ml.fit_s", "s", Layer::PerSetup("ml.fit")),
    (
        "radio.receptions_s",
        "s",
        Layer::PerRound("radio.receptions"),
    ),
    ("stack.scan_s", "s", Layer::PerRound("stack.scan")),
    ("signal.track_s", "s", Layer::PerRound("signal.track")),
    ("radio.receptions", "count", Layer::Count),
    ("stack.cycles", "count", Layer::Count),
    ("core.fleet_s", "s", Layer::PerRound("core.fleet")),
    (
        "core.fleet_scalar_s",
        "s",
        Layer::PerRound("core.fleet_scalar"),
    ),
    (
        "core.fleet_batched_s",
        "s",
        Layer::PerRound("core.fleet_batched"),
    ),
    ("ml.predict_us", "us", Layer::PerOp("ml.predict", US)),
    (
        "net.bms_ingest_us",
        "us",
        Layer::PerOp("net.bms_ingest", US),
    ),
    ("net.offer_us", "us", Layer::PerOp("net.offer", US)),
    ("net.pump_us", "us", Layer::PerOp("net.pump", US)),
    ("net.offer_attempts", "count", Layer::Count),
    ("net.admitted", "count", Layer::Count),
    ("net.backpressured", "count", Layer::Count),
    ("sim.mailbox_peak_depth", "count", Layer::Count),
    ("net.view_us", "us", Layer::PerOp("net.view", US)),
    ("net.views_degraded", "count", Layer::Count),
    (
        "net.population_us",
        "us",
        Layer::PerOp("net.population", US),
    ),
    ("net.digest_ms", "ms", Layer::PerOp("net.digest", MS)),
    (
        "net.checkpoint_ms",
        "ms",
        Layer::PerOp("net.checkpoint", MS),
    ),
    ("net.state_reports", "count", Layer::Count),
    (
        "net.ingest_all_us",
        "us",
        Layer::PerOp("net.ingest_all", US),
    ),
    ("net.archive_records", "count", Layer::Count),
    ("net.segments_sealed", "count", Layer::Count),
    ("sim.disk_bytes_written", "count", Layer::Count),
    ("sim.disk_fsyncs", "count", Layer::Count),
    ("net.restore_s", "s", Layer::PerRound("net.restore")),
    ("net.replay_s", "s", Layer::PerRound("net.replay")),
    ("net.segments_scanned", "count", Layer::Count),
    ("net.records_recovered", "count", Layer::Count),
    ("net.history_us", "us", Layer::PerOp("net.history", US)),
    ("net.recent_us", "us", Layer::PerOp("net.recent", US)),
    ("trace.coverage_pct", "%", Layer::Derived),
    ("trace.overhead_pct", "%", Layer::Derived),
];

/// The span every traced round runs inside; its self time is the
/// benchmark's own work between layer calls.
const ROUND_SPAN: &str = "bench.round";

/// Runs one workload on one worker (every parallel section of the program
/// runs inline on the calling thread). `None` for an unknown workload name.
pub fn run(workload: &str, options: &Options) -> Option<Outcome> {
    let run = match workload {
        "office_day" => office_day::run,
        "lecture_surge" => lecture_surge::run,
        "archive_history" => archive_history::run,
        _ => return None,
    };
    Some(roomsense_sim::exec::with_thread_override(1, || {
        run(options)
    }))
}

/// What one run accumulates: samples for the end-to-end metrics, program
/// counts for the per-layer ones, and the results of every check.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    setup_s: Vec<f64>,
    /// Per-round rates (median over rounds).
    pub sim_device_s_per_s: Vec<f64>,
    pub ingest_reports_per_s: Vec<f64>,
    pub recover_reports_per_s: Vec<f64>,
    /// Per-call samples (or per-batch means of equal batches), pooled over
    /// rounds; a round reports their mean.
    pub view_us: Vec<f64>,
    pub population_us: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub history_us: Vec<f64>,
    /// Operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Program counts reported as per-layer metrics.
    pub counts: BTreeMap<&'static str, f64>,
    notes: BTreeMap<&'static str, f64>,
    failures: Vec<String>,
    untraced_round_s: Vec<f64>,
    traced_round_s: Vec<f64>,
    /// Per round: whether it is left out of the end-to-end metrics (a
    /// traced or warm-up round), and every series' sample count at its end.
    round_marks: Vec<(bool, Vec<usize>)>,
}

impl Tally {
    /// Records a check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.failures.len() < 20 {
            self.failures.push(what());
        }
    }

    /// Records a value printed beside the metrics (last round wins).
    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.insert(name, value);
    }

    /// Records a program count for the per-layer metrics.
    pub fn count(&mut self, name: &'static str, value: impl Into<f64>) {
        self.counts.insert(name, value.into());
    }
}

/// One workload's shape: how to set it up, the expected outputs computed
/// apart from the program, one round of it, and the extra layer-splitting
/// calls a traced round makes after the round itself.
pub(crate) trait Workload {
    /// Generated inputs and the built scenario.
    type Setup;
    /// Expected outputs, computed without the program (untimed).
    type Model;
    /// Set-ups per run at the full size; `setup_s` is their median.
    const SETUP_REPEATS: usize;
    /// Generates inputs and builds the scenario (timed as `setup_s`).
    fn setup(&self, tally: &mut Tally) -> Self::Setup;
    /// Builds the independent model of the expected outputs.
    fn model(&self, setup: &Self::Setup) -> Self::Model;
    /// One whole round: every operation, every check.
    fn round(&self, setup: &Self::Setup, model: &Self::Model, tally: &mut Tally);
    /// Extra calls a traced round makes to split layers apart.
    fn traced_extras(&self, _setup: &Self::Setup, _tally: &mut Tally) {}
}

/// Sets up, repeats rounds until the run length is used, and derives the
/// run's metrics.
pub(crate) fn drive<W: Workload>(workload: &W, options: &Options) -> Outcome {
    let mut tally = Tally::default();
    let repeats = match options.size {
        Size::Full => W::SETUP_REPEATS,
        Size::Smoke => 1,
    };
    trace::set_enabled(options.trace);
    let mut setup = None;
    for _ in 0..repeats {
        // Drop the previous set-up first so each one starts from the same heap.
        drop(setup.take());
        let (secs, built) = trace::timed(|| workload.setup(&mut tally));
        tally.setup_s.push(secs);
        setup = Some(built);
    }
    let setup = setup.expect("at least one set-up");
    trace::set_enabled(false);
    let model = workload.model(&setup);

    let start = Instant::now();
    // A warm-up round first, inside the run length: the first round meets a
    // cold heap and cold caches and ran up to 1.7 times as slow as the
    // rest, so its samples stay out of the metrics. Its operations and
    // checks count like any other round's.
    if options.size == Size::Full {
        workload.round(&setup, &model, &mut tally);
        let marks = tally.marks();
        tally.round_marks.push((true, marks));
    }
    let mut rounds = 0usize;
    loop {
        let traced = options.trace && rounds % 2 == 1;
        trace::set_enabled(traced);
        let (secs, ()) = trace::timed(|| {
            trace::span(ROUND_SPAN, 1, || workload.round(&setup, &model, &mut tally))
        });
        if traced {
            tally.traced_round_s.push(secs);
            workload.traced_extras(&setup, &mut tally);
        } else {
            tally.untraced_round_s.push(secs);
        }
        let marks = tally.marks();
        tally.round_marks.push((traced, marks));
        rounds += 1;
        let enough = match options.size {
            Size::Smoke => rounds >= if options.trace { 2 } else { 1 },
            Size::Full => {
                start.elapsed().as_secs_f64() >= options.seconds && (!options.trace || rounds >= 2)
            }
        };
        if enough {
            break;
        }
    }
    trace::set_enabled(false);
    let spans = trace::take();
    let metrics = if options.trace {
        per_layer_metrics(&tally, &spans, repeats)
    } else {
        end_to_end_metrics(&tally)
    };
    Outcome {
        correct: tally.failures.is_empty(),
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        failures: tally.failures,
        metrics,
        spans,
        rounds,
        notes: tally.notes,
        round_s: if tally.untraced_round_s.is_empty() {
            0.0
        } else {
            trace::median(&tally.untraced_round_s)
        },
    }
}

impl Tally {
    /// The samples behind an end-to-end metric.
    fn series(&self, name: &str) -> &[f64] {
        match name {
            "sim_device_s_per_s" => &self.sim_device_s_per_s,
            "ingest_reports_per_s" => &self.ingest_reports_per_s,
            "view_us" => &self.view_us,
            "population_us" => &self.population_us,
            "checkpoint_ms" => &self.checkpoint_ms,
            "recover_reports_per_s" => &self.recover_reports_per_s,
            "history_us" => &self.history_us,
            other => unreachable!("unlisted end-to-end metric {other}"),
        }
    }

    /// Sample counts of every series, taken at a round's end.
    fn marks(&self) -> Vec<usize> {
        END_TO_END[1..]
            .iter()
            .map(|(name, _)| self.series(name).len())
            .collect()
    }

    /// The metric's value in each untraced round: the mean of that round's
    /// samples. A latency is mean time per call: the calls a round makes
    /// differ in cost (the state grows through the round), and a quantile
    /// of such a mix jumps between its modes from run to run.
    fn per_round(&self, name: &str) -> Vec<f64> {
        let index = END_TO_END[1..]
            .iter()
            .position(|(n, _)| *n == name)
            .expect("listed metric");
        let samples = self.series(name);
        let mut start = 0;
        let mut values = Vec::new();
        for (left_out, marks) in &self.round_marks {
            let end = marks[index];
            if !left_out && end > start {
                values.push(trace::mean(&samples[start..end]));
            }
            start = end;
        }
        values
    }
}

fn end_to_end_metrics(tally: &Tally) -> Vec<Metric> {
    let value = |name: &str| -> f64 {
        if name == "setup_s" {
            return trace::median(&tally.setup_s);
        }
        let rounds = tally.per_round(name);
        assert!(!rounds.is_empty(), "no samples for {name}");
        trace::median(&rounds)
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: value(name),
        })
        .collect()
}

fn per_layer_metrics(tally: &Tally, spans: &[trace::Span], setups: usize) -> Vec<Metric> {
    let totals = trace::self_times(spans);
    let traced_rounds = tally.traced_round_s.len().max(1) as f64;
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_s);
    // Share of the traced rounds' wall time that layer spans account for:
    // whatever is left is the benchmark's own bookkeeping between calls.
    let round_total: f64 = spans
        .iter()
        .filter(|s| s.name == ROUND_SPAN)
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum();
    let coverage = if round_total > 0.0 {
        100.0 * (1.0 - self_s(ROUND_SPAN) / round_total)
    } else {
        0.0
    };
    let overhead = if tally.untraced_round_s.is_empty() || tally.traced_round_s.is_empty() {
        0.0
    } else {
        100.0
            * (trace::median(&tally.traced_round_s) / trace::median(&tally.untraced_round_s) - 1.0)
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit, layer)| {
            let value = match layer {
                Layer::PerSetup(span) => self_s(span) / setups as f64,
                Layer::PerRound(span) => self_s(span) / traced_rounds,
                Layer::PerOp(span, scale) => {
                    totals.get(span).map_or(0.0, trace::LayerTotals::per_op_s) * scale
                }
                Layer::Count => tally.counts.get(name).copied().unwrap_or(0.0),
                Layer::Derived => match name {
                    "trace.coverage_pct" => coverage,
                    "trace.overhead_pct" => overhead,
                    other => unreachable!("underived metric {other}"),
                },
            };
            Metric { name, unit, value }
        })
        .collect()
}

/// Converts a count to `f64` for the metric table.
pub(crate) fn n(count: usize) -> f64 {
    count as f64
}

/// The per-layer metric names, in report order.
pub fn per_layer_names() -> Vec<(&'static str, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, unit))
        .collect()
}
