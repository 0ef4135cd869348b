//! End-to-end benchmark of EarSonar's screening paths.
//!
//! One workload in this process:
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints `workload metric value unit` lines and, last, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics untraced, the per-layer metrics traced).
//!
//! Every workload, each in a fresh child process:
//!
//! ```text
//! benchmark [--seed <n>] [--seconds <s> | --smoke] [--repeat <n>] [--out FILE] [--compare OLD.json]
//! ```
//!
//! See `README.md` next to this package for the workloads and metrics.

// Timing is this package's purpose; the repository's clippy.toml bans
// wall-clock reads everywhere else.
#![allow(clippy::disallowed_methods)]

mod host;
mod inputs;
mod json;
mod orchestrate;
mod replay;
mod spec;
mod stats;
mod trace;
mod workloads;

use spec::Spec;
use std::process::ExitCode;
use workloads::{RunConfig, RunResult};

const USAGE: &str = "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n       \
                     benchmark [--seed N] [--seconds S | --smoke] [--repeat N] [--out FILE] [--compare OLD.json]";

/// Measured seconds per run in `--smoke` mode.
const SMOKE_SECONDS: f64 = 2.0;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    out: Option<String>,
    compare: Option<String>,
    smoke: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: spec::PINNED_SEED,
        repeat: 1,
        ..Args::default()
    };
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad.clone())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad.clone())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            "--repeat" => args.repeat = value.parse::<usize>().map_err(|_| bad.clone())?.max(1),
            "--out" => args.out = Some(value),
            "--compare" => args.compare = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Renders a workload's result: the metric lines and the final JSON line.
/// Every end-to-end metric the definition lists must be present, and every
/// per-layer metric the workload produces; a per-layer metric of a layer
/// the workload never calls must be absent, and reads 0.
fn render(spec: &Spec, workload: &str, trace: bool, r: &RunResult) -> Result<String, String> {
    let defs = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    if let Some(extra) = r
        .metrics
        .keys()
        .find(|k| !defs.iter().any(|d| &d.name == *k))
    {
        return Err(format!(
            "{workload} produced {extra}, which BENCHMARK.json does not define"
        ));
    }
    let mut lines = String::new();
    let mut entries = Vec::new();
    for d in defs {
        let expected = !trace || workloads::produces(workload, &d.name);
        let value = match (r.metrics.get(&d.name), expected) {
            (Some(&v), true) => v,
            (None, false) => 0.0,
            (None, true) => return Err(format!("{workload} did not produce {}", d.name)),
            (Some(_), false) => {
                return Err(format!(
                    "{workload} produced {}, of a layer it does not call",
                    d.name
                ))
            }
        };
        if !value.is_finite() {
            return Err(format!("{workload} measured a non-finite {}", d.name));
        }
        lines.push_str(&format!("{workload} {} {value} {}\n", d.name, d.unit));
        entries.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(&d.name),
            json::num(value),
            json::quote(&d.unit)
        ));
    }
    lines.push_str(&format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        entries.join(", ")
    ));
    Ok(lines)
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = match (args.seconds, args.smoke) {
        (Some(s), _) => s,
        (None, true) => SMOKE_SECONDS,
        (None, false) => spec.run_seconds as f64,
    };
    let Some(workload) = &args.workload else {
        let code = orchestrate::run(
            &spec,
            &orchestrate::Options {
                seed: args.seed,
                seconds,
                repeat: args.repeat,
                out: args.out,
                compare: args.compare,
            },
        );
        return ExitCode::from(code);
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds,
        trace: args.trace,
    };
    let rendered =
        workloads::run(workload, &cfg).and_then(|r| render(&spec, workload, args.trace, &r));
    match rendered {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse() {
        let a = args(&[
            "--workload",
            "train-eval",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("train-eval"));
        assert_eq!((a.seed, a.seconds, a.trace), (3, Some(10.0), true));
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
        let b = args(&["--smoke", "--repeat", "0"]).unwrap();
        assert!(b.smoke && b.repeat == 1 && b.seed == spec::PINNED_SEED);
    }

    #[test]
    fn render_fills_unexercised_layers_and_rejects_gaps() {
        let spec = Spec::load();
        let mut r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: spec
                .end_to_end
                .iter()
                .map(|m| (m.name.clone(), 1.5))
                .collect(),
        };
        let text = render(&spec, "screen-clean", false, &r).unwrap();
        let last = json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(
            last.get("attempted").and_then(json::Value::as_f64),
            Some(3.0)
        );
        assert_eq!(
            last.get("metrics").unwrap().members().len(),
            spec.end_to_end.len()
        );
        r.metrics.remove("setup_s");
        assert!(render(&spec, "screen-clean", false, &r).is_err());
        r.metrics.insert("unknown_metric".to_string(), 1.0);
        assert!(render(&spec, "screen-clean", false, &r).is_err());

        // Traced: a metric of a layer the workload never calls reads 0,
        // and producing one is an error.
        let traced = |workload: &str| RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: spec
                .per_layer
                .iter()
                .filter(|m| workloads::produces(workload, &m.name))
                .map(|m| (m.name.clone(), 2.0))
                .collect(),
        };
        let text = render(&spec, "train-eval", true, &traced("train-eval")).unwrap();
        assert!(text.contains("train-eval engine.backlog_end 0 count"));
        assert!(text.contains("train-eval ml.loocv_frac.mfcc-kmeans 2 ratio"));
        assert!(render(&spec, "engine-stream", true, &traced("train-eval")).is_err());
        assert!(render(&spec, "train-eval", true, &traced("engine-stream")).is_err());
    }
}
