//! The one-command mode: every workload in a fresh child process (an
//! untraced run for the end-to-end metrics, then a traced run for the
//! per-layer ones), repeated with the workload order rotated, summarised
//! as median, min and max, optionally written as JSON and compared with
//! an earlier file.

use crate::json::{self, num, quote, Value};
use crate::spec::{Metric, Spec};
use crate::stats::{median, quartiles, relative_spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub repeat: usize,
    pub out: Option<String>,
    pub compare: Option<String>,
}

/// One child run's reported result.
struct Run {
    repeat: usize,
    workload: String,
    trace: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

/// Spread summary of one metric of one workload across repeats.
struct Summary {
    unit: String,
    values: Vec<f64>,
}

pub fn run(spec: &Spec, opts: &Options) -> u8 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return 2;
        }
    };
    let mut runs = Vec::new();
    let mut all_ok = true;
    let n = spec.workloads.len();
    for r in 0..opts.repeat {
        for i in 0..n {
            let workload = &spec.workloads[(i + r) % n];
            for trace in [false, true] {
                match run_child(&exe, workload, trace, opts) {
                    Ok(mut run) => {
                        run.repeat = r + 1;
                        println!(
                            "run {} {} trace={}: correct={} attempted={} failed={}",
                            run.repeat,
                            workload,
                            u8::from(trace),
                            run.correct,
                            run.attempted,
                            run.failed
                        );
                        for (name, value, unit) in &run.metrics {
                            println!("run {} {workload} {name} {value} {unit}", run.repeat);
                        }
                        all_ok &= run.correct && run.failed == 0;
                        runs.push(run);
                    }
                    Err(e) => {
                        eprintln!("{workload} (trace {}): {e}", u8::from(trace));
                        all_ok = false;
                    }
                }
            }
        }
    }

    let summary = summarise(&runs);
    println!("# workload metric median unit (min max n)");
    for (workload, metrics) in &summary {
        for (name, s) in metrics {
            let lo = s.values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = s.values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "{workload} {name} {} {} (min {lo} max {hi} n {})",
                median(&s.values),
                s.unit,
                s.values.len()
            );
        }
    }
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, to_json(opts, &runs, &summary)) {
            eprintln!("cannot write {path}: {e}");
            all_ok = false;
        }
    }
    if let Some(path) = &opts.compare {
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| json::parse(&t))
        {
            Ok(old) => print_comparison(spec, &old, &summary),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                all_ok = false;
            }
        }
    }
    if all_ok {
        0
    } else {
        1
    }
}

fn run_child(
    exe: &std::path::Path,
    workload: &str,
    trace: bool,
    opts: &Options,
) -> Result<Run, String> {
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the workload process: {e}"))?;
    if !output.status.success() {
        return Err(format!("workload process failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or("workload process printed nothing")?;
    let v = json::parse(last)?;
    let count = |k: &str| {
        v.get(k)
            .and_then(Value::as_f64)
            .map(|x| x as u64)
            .ok_or(format!("result without {k}"))
    };
    Ok(Run {
        repeat: 0,
        workload: workload.to_string(),
        trace,
        correct: v
            .get("correct")
            .and_then(Value::as_bool)
            .ok_or("result without correct")?,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics: v
            .get("metrics")
            .ok_or("result without metrics")?
            .members()
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                let unit = m
                    .get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                (name.clone(), value, unit)
            })
            .collect(),
    })
}

/// Groups every run's values by workload and metric, in name order.
fn summarise(runs: &[Run]) -> BTreeMap<String, BTreeMap<String, Summary>> {
    let mut out: BTreeMap<String, BTreeMap<String, Summary>> = BTreeMap::new();
    for run in runs {
        for (name, value, unit) in &run.metrics {
            out.entry(run.workload.clone())
                .or_default()
                .entry(name.clone())
                .or_insert_with(|| Summary {
                    unit: unit.clone(),
                    values: Vec::new(),
                })
                .values
                .push(*value);
        }
    }
    out
}

fn to_json(
    opts: &Options,
    runs: &[Run],
    summary: &BTreeMap<String, BTreeMap<String, Summary>>,
) -> String {
    let metric_obj = |metrics: &[(String, f64, String)]| {
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(n),
                    num(*v),
                    quote(u)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    };
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"repeat\": {},",
        opts.seed,
        num(opts.seconds),
        opts.repeat
    );
    s.push_str("  \"runs\": [\n");
    let rows: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"repeat\": {}, \"workload\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                r.repeat,
                quote(&r.workload),
                u8::from(r.trace),
                r.correct,
                r.attempted,
                r.failed,
                metric_obj(&r.metrics)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"summary\": {\n");
    let workloads: Vec<String> = summary
        .iter()
        .map(|(w, metrics)| {
            let ms: Vec<String> = metrics
                .iter()
                .map(|(name, m)| {
                    let (q1, q3) = quartiles(&m.values).unwrap_or((m.values[0], m.values[0]));
                    let values: Vec<String> = m.values.iter().map(|v| num(*v)).collect();
                    format!(
                        "      {}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"values\": [{}]}}",
                        quote(name),
                        quote(&m.unit),
                        num(median(&m.values)),
                        num(q1),
                        num(q3),
                        m.values.len(),
                        values.join(", ")
                    )
                })
                .collect();
            format!("    {}: {{\n{}\n    }}", quote(w), ms.join(",\n"))
        })
        .collect();
    s.push_str(&workloads.join(",\n"));
    s.push_str("\n  }\n}\n");
    s
}

/// How one metric moved between two summaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Improved,
    Regressed,
    WithinBound,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot tell a change from noise.
    Unresolved,
}

/// Classifies `new` against `old` for a metric with the given direction
/// and bound, where each side is the list of per-run values.
pub fn classify(metric: &Metric, old: &[f64], new: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let (old_med, new_med) = (median(old), median(new));
    let better = |a: f64, b: f64| {
        if metric.higher_is_better {
            a > b
        } else {
            a < b
        }
    };
    let worse_by = if metric.higher_is_better {
        (old_med - new_med) / old_med
    } else {
        (new_med - old_med) / old_med
    };
    let spread = [old, new]
        .iter()
        .filter_map(|v| relative_spread(v))
        .fold(0.0, f64::max);
    if spread > bound {
        let all_better = new.iter().all(|&n| old.iter().all(|&o| better(n, o)));
        let all_worse = new.iter().all(|&n| old.iter().all(|&o| better(o, n)));
        return match (all_better, all_worse) {
            (true, _) => Verdict::Improved,
            (_, true) => Verdict::Regressed,
            _ => Verdict::Unresolved,
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

fn print_comparison(
    spec: &Spec,
    old: &Value,
    summary: &BTreeMap<String, BTreeMap<String, Summary>>,
) {
    println!("# compare: workload metric verdict new/old ratio (base: old median) spread bound");
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let old_values: Vec<f64> = old
                .get("summary")
                .and_then(|s| s.get(workload))
                .and_then(|w| w.get(&metric.name))
                .and_then(|m| m.get("values"))
                .map(|v| v.as_array().iter().filter_map(Value::as_f64).collect())
                .unwrap_or_default();
            let Some(new) = summary.get(workload).and_then(|w| w.get(&metric.name)) else {
                continue;
            };
            if old_values.is_empty() {
                println!("{workload} {} missing-in-old", metric.name);
                continue;
            }
            let verdict = classify(metric, &old_values, &new.values);
            let (old_med, new_med) = (median(&old_values), median(&new.values));
            let spread = [&old_values[..], &new.values[..]]
                .iter()
                .filter_map(|v| relative_spread(v))
                .fold(0.0, f64::max);
            println!(
                "{workload} {} {} {:.4}x (base {old_med} {}, n {}/{}) spread {:.4} bound {}",
                metric.name,
                match verdict {
                    Verdict::Improved => "improved",
                    Verdict::Regressed => "regressed",
                    Verdict::WithinBound => "within-bound",
                    Verdict::Unresolved => "unresolved",
                },
                new_med / old_med,
                metric.unit,
                old_values.len(),
                new.values.len(),
                spread,
                metric.bound.unwrap_or(0.0)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency() -> Metric {
        Metric {
            name: "latency_p50_ms".to_string(),
            unit: "ms".to_string(),
            higher_is_better: false,
            bound: Some(0.1),
        }
    }

    #[test]
    fn comparison_classifies_by_bound_and_spread() {
        let m = latency();
        let base = [1.0, 1.01, 0.99, 1.0, 1.02];
        assert_eq!(
            classify(&m, &base, &[1.02, 1.0, 1.01, 0.99, 1.0]),
            Verdict::WithinBound
        );
        assert_eq!(
            classify(&m, &base, &[1.2, 1.21, 1.19, 1.2, 1.22]),
            Verdict::Regressed
        );
        assert_eq!(
            classify(&m, &base, &[0.8, 0.81, 0.79, 0.8, 0.82]),
            Verdict::Improved
        );
        // A spread wider than the bound leaves the median move unresolved ...
        let noisy = [0.7, 1.3, 1.0, 0.75, 1.25];
        assert_eq!(classify(&m, &base, &noisy), Verdict::Unresolved);
        // ... unless every new run beats every old one.
        assert_eq!(
            classify(&m, &noisy, &[0.5, 0.52, 0.51, 0.5, 0.53]),
            Verdict::Improved
        );
        let throughput = Metric {
            higher_is_better: true,
            ..latency()
        };
        assert_eq!(
            classify(&throughput, &base, &[1.2, 1.21, 1.19, 1.2, 1.22]),
            Verdict::Improved
        );
    }
}
