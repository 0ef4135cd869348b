//! The benchmark's definition: `BENCHMARK.json` at the repository root
//! (workloads, metric names, units, directions, bounds) and the digests
//! pinned in `pins.txt`. Both are compiled in, so the binary and the
//! definition it reports against cannot drift apart.

use crate::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const PINS: &str = include_str!("../pins.txt");

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// End-to-end metrics only: `true` when higher is better.
    pub higher_is_better: bool,
    /// End-to-end metrics only: the share of the old median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well formed")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            doc.get(key)
                .ok_or(format!("missing {key}"))?
                .as_array()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).map(str::to_string);
                    Ok(Metric {
                        name: field("name").ok_or("metric without a name")?,
                        unit: field("unit").ok_or("metric without a unit")?,
                        higher_is_better: field("better").as_deref() == Some("higher"),
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("missing run_seconds")? as u64,
            workloads: doc
                .get("workloads")
                .ok_or("missing workloads")?
                .as_array()
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The digests pinned for a workload at the pinned seed:
/// `(input digest, outcome digest)`.
pub fn pinned(workload: &str) -> Option<(u64, u64)> {
    PINS.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split_whitespace();
            if f.next()? != workload {
                return None;
            }
            let input = u64::from_str_radix(f.next()?, 16).ok()?;
            let outcome = u64::from_str_radix(f.next()?, 16).ok()?;
            Some((input, outcome))
        })
}

/// The seed the digests in `pins.txt` were taken at.
pub const PINNED_SEED: u64 = 7;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_definition_is_complete() {
        let spec = Spec::load();
        assert_eq!(
            spec.workloads,
            [
                "screen-clean",
                "screen-faulty",
                "engine-stream",
                "train-eval"
            ]
        );
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        assert!(setup.bound.is_some_and(|b| b <= 0.25));
        // Every other metric is bounded by at most a tenth, below setup_s.
        assert!(spec
            .end_to_end
            .iter()
            .filter(|m| m.name != "setup_s")
            .all(|m| m
                .bound
                .is_some_and(|b| b > 0.0 && b <= 0.1 && b < setup.bound.unwrap())));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        for w in &spec.workloads {
            assert!(pinned(w).is_some(), "no pinned digests for {w}");
        }
    }
}
