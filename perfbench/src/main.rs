//! Runs one benchmark workload in this process and prints its result as
//! the last line of standard output: one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.
//!
//! ```text
//! roomsense-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                     [--smoke] [--trace-dir <dir>]
//! ```
//!
//! `perfbench/run.py` builds this binary and runs it; see the README there.
//! Exits with 1 when a check fails and with 2 on bad arguments.

use roomsense_perfbench::{run, trace, Options, Size, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    options: Options,
    trace_dir: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut size = Size::Full;
    let mut trace_dir = PathBuf::from(".bench_traces");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--trace-dir" => trace_dir = PathBuf::from(value()?),
            "--smoke" => size = Size::Smoke,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        options: Options {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: traced.ok_or("--trace is required")?,
            size,
        },
        trace_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // One worker and no ambient disk faults, whatever the caller's
    // environment: the process is still single-threaded here.
    std::env::set_var("ROOMSENSE_THREADS", "1");
    std::env::remove_var("ROOMSENSE_DISK_FAULTS");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let options = args.options;
    println!(
        "workload={} seed={} threads=1 nproc={nproc} seconds={} trace={} size={:?}",
        args.workload,
        options.seed,
        options.seconds,
        u8::from(options.trace),
        options.size
    );
    let outcome = run(&args.workload, &options).expect("workload name checked above");
    for (name, value) in &outcome.notes {
        println!("{name}={value:.4}");
    }
    for failure in &outcome.failures {
        println!("CHECK FAILED: {failure}");
    }
    if options.trace {
        let path = args
            .trace_dir
            .join(format!("{}-seed{}.csv", args.workload, options.seed));
        let run_id = format!("{}-{}", args.workload, options.seed);
        match trace::write_csv(&path, &outcome.spans, &run_id) {
            Ok(()) => println!(
                "spans={} written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
        }
    }
    println!(
        "rounds={} round_s={:.3} attempted={} failed={} correct={}",
        outcome.rounds, outcome.round_s, outcome.attempted, outcome.failed, outcome.correct
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
