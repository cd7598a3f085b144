//! Every workload at its smoke size: each check runs and passes, and the
//! run reports every metric it names, untraced and traced.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use roomsense_perfbench::{per_layer_names, run, Options, Size, END_TO_END, WORKLOADS};

fn smoke(workload: &str, trace: bool) -> roomsense_perfbench::Outcome {
    let options = Options {
        seed: 7,
        seconds: 1.0,
        trace,
        size: Size::Smoke,
    };
    let outcome = run(workload, &options).expect("known workload");
    assert!(outcome.correct, "{workload}: {:?}", outcome.failures);
    assert!(outcome.attempted > 0);
    outcome
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let outcome = smoke(workload, false);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, expected, "{workload}");
        for metric in &outcome.metrics {
            assert!(
                metric.value.is_finite() && metric.value > 0.0,
                "{workload}: {} = {}",
                metric.name,
                metric.value
            );
        }
        assert!(
            outcome.spans.is_empty(),
            "{workload}: untraced runs record no spans"
        );
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric_from_nested_spans() {
    for workload in WORKLOADS {
        let outcome = smoke(workload, true);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = per_layer_names().iter().map(|(name, _)| *name).collect();
        assert_eq!(names, expected, "{workload}");
        assert!(
            !outcome.spans.is_empty(),
            "{workload}: traced runs record spans"
        );
        for span in &outcome.spans {
            assert!(span.end_ns >= span.start_ns);
            if let Some(parent) = span.parent {
                let parent = &outcome.spans[parent];
                assert!(parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns);
            }
        }
        let coverage = outcome
            .metrics
            .iter()
            .find(|m| m.name == "trace.coverage_pct")
            .expect("listed");
        assert!(
            coverage.value > 50.0,
            "{workload}: layer spans cover {}%",
            coverage.value
        );
    }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    use roomsense_perfbench::trace::{self_times, Span};
    let spans = vec![
        Span {
            name: "outer",
            parent: None,
            start_ns: 0,
            end_ns: 100,
            ops: 1,
        },
        Span {
            name: "inner",
            parent: Some(0),
            start_ns: 10,
            end_ns: 50,
            ops: 4,
        },
        Span {
            name: "leaf",
            parent: Some(1),
            start_ns: 20,
            end_ns: 30,
            ops: 1,
        },
    ];
    let totals = self_times(&spans);
    assert!((totals["outer"].self_s - 60e-9).abs() < 1e-15);
    assert!((totals["inner"].self_s - 30e-9).abs() < 1e-15);
    assert!((totals["leaf"].self_s - 10e-9).abs() < 1e-15);
    assert!((totals["inner"].per_op_s() - 7.5e-9).abs() < 1e-15);
}
