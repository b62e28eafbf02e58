//! `loopbench`: runs one workload of the repository benchmark and prints
//! a self-describing report followed, on the last line, by the result
//! object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! loopbench --workload <bposd-colour|match-lowp|serve-tenant>
//!           [--seed N] [--seconds N] [--trace 0|1] [--record-golden]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. `--record-golden` (with `--trace 1` at the default seed)
//! rewrites the workload's golden copy and pinned counts.

use std::process::ExitCode;

use asynd_loopbench::check::DEFAULT_SEED;
use asynd_loopbench::host;
use asynd_loopbench::workload::{run, Metric, RunOptions, Workload, END_TO_END, PER_LAYER};
use serde_json::{Map, Value};

struct Args {
    workload: Workload,
    options: RunOptions,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut options =
        RunOptions { seed: DEFAULT_SEED, seconds: 30, trace: false, record_golden: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--record-golden" => options.record_golden = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, options })
}

fn metrics_object(metrics: &[Metric]) -> Value {
    let mut map = Map::new();
    for m in metrics {
        let mut entry = Map::new();
        entry.insert("value", Value::from(m.value));
        entry.insert("unit", Value::from(m.unit));
        map.insert(m.name, Value::Object(entry));
    }
    Value::Object(map)
}

fn main() -> ExitCode {
    let Args { workload, options } = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loopbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(workload, &options);
    let expected: &[(&str, &str)] = if options.trace { &PER_LAYER } else { &END_TO_END };
    let reported: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    if !report.metrics.is_empty() && reported != expected {
        eprintln!("loopbench: reported metrics {reported:?} differ from the declared {expected:?}");
        return ExitCode::FAILURE;
    }

    let mut doc = Map::new();
    doc.insert("benchmark", Value::from("loopbench"));
    doc.insert("host", host::describe());
    doc.insert("seed", Value::from(options.seed));
    doc.insert("seconds", Value::from(options.seconds));
    doc.insert("trace", Value::from(options.trace));
    doc.insert("workload", workload.describe());
    doc.insert(
        if options.trace { "per_layer" } else { "end_to_end" },
        metrics_object(&report.metrics),
    );
    doc.insert("report_only", metrics_object(&report.extra));
    doc.insert("details", Value::Object(report.details.clone()));
    doc.insert(
        "problems",
        Value::Array(report.problems.iter().map(|p| Value::from(p.as_str())).collect()),
    );
    println!("{}", serde_json::to_string_pretty(&Value::Object(doc)).expect("report serializes"));
    for m in report.metrics.iter().chain(&report.extra) {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }

    let mut result = Map::new();
    result.insert("correct", Value::from(report.correct()));
    result.insert("attempted", Value::from(report.attempted));
    result.insert("failed", Value::from(report.failed));
    result.insert("metrics", metrics_object(&report.metrics));
    println!("{}", serde_json::to_string(&Value::Object(result)).expect("result serializes"));
    ExitCode::SUCCESS
}
