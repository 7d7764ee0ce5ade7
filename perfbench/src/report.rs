//! The contract: `BENCHMARK.json` compiled into the binary, the one-line
//! result a run prints, and the checks that the two agree.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use maxson_json::{parse, JsonValue};

use crate::rig::{Outcome, Res};

/// The contract this binary was built against.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metric_specs(doc: &JsonValue, key: &str) -> Res<Vec<MetricSpec>> {
    let field = |m: &JsonValue, k: &str| -> Res<String> {
        m.get(k)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{key}: metric without {k}"))
    };
    doc.get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {key}"))?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: field(m, "name")?,
                unit: field(m, "unit")?,
                lower_is_better: field(m, "better")? == "lower",
                bound: m.get("bound").and_then(JsonValue::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn load() -> Res<Spec> {
        let doc = parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .ok_or("BENCHMARK.json has no workloads")?
            .iter()
            .filter_map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
            })
            .collect();
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_f64)
                .ok_or("BENCHMARK.json has no run_seconds")?,
            workloads,
            end_to_end: metric_specs(&doc, "end_to_end")?,
            per_layer: metric_specs(&doc, "per_layer")?,
        })
    }

    /// The metrics a run prints: end-to-end untraced, per-layer traced.
    pub fn metrics(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// A number as measured, with all its digits, in JSON's grammar.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The one-line result: every metric of `specs`, taken from `outcome`. A
/// per-layer metric a workload bypasses reads 0; a missing end-to-end
/// metric is a bug and an error.
pub fn result_line(outcome: &Outcome, specs: &[MetricSpec], trace: bool) -> Res<String> {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in specs.iter().enumerate() {
        let value = match outcome.values.get(&m.name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => return Err(format!("run measured no {}", m.name)),
        };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            line,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(value),
            m.unit
        )
        .expect("write to String");
    }
    line.push_str("}}");
    Ok(line)
}

/// A parsed result line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name to `(value, unit)`.
    pub metrics: BTreeMap<String, (f64, String)>,
}

/// Parse a result line and hold it to the contract: exactly the four keys,
/// whole counts, and exactly the metrics of `specs` with their units.
pub fn parse_result(line: &str, specs: &[MetricSpec]) -> Res<RunResult> {
    let doc = parse(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    let keys: Vec<&str> = doc
        .as_object()
        .ok_or("result line is not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    let count = |k: &str| -> Res<u64> {
        doc.get(k)
            .and_then(JsonValue::as_i64)
            .and_then(|v| u64::try_from(v).ok())
            .ok_or_else(|| format!("{k} is not a whole number"))
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in doc
        .get("metrics")
        .and_then(JsonValue::as_object)
        .ok_or("metrics is not an object")?
    {
        let value = m
            .get("value")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{name} has no value"))?;
        let unit = m
            .get("unit")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{name} has no unit"))?;
        metrics.insert(name.clone(), (value, unit.to_string()));
    }
    let printed: Vec<&String> = metrics.keys().collect();
    let mut wanted: Vec<&String> = specs.iter().map(|m| &m.name).collect();
    wanted.sort();
    if printed != wanted {
        return Err(format!(
            "printed metrics {printed:?} differ from BENCHMARK.json's {wanted:?}"
        ));
    }
    for m in specs {
        if metrics[&m.name].1 != m.unit {
            return Err(format!(
                "{} printed in {}, declared in {}",
                m.name, metrics[&m.name].1, m.unit
            ));
        }
    }
    let result = RunResult {
        correct: doc
            .get("correct")
            .and_then(JsonValue::as_bool)
            .ok_or("correct is not a boolean")?,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    };
    if result.attempted == 0 {
        return Err("attempted is 0".to_string());
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::Workload;

    #[test]
    fn benchmark_json_names_the_workloads_and_metrics_the_code_knows() {
        let spec = Spec::load().unwrap();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        assert!((1.0..=60.0).contains(&spec.run_seconds));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.lower_is_better), ("s", true));
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn result_line_round_trips_and_is_held_to_the_contract() {
        let spec = Spec::load().unwrap();
        let mut outcome = Outcome {
            attempted: 12,
            failed: 0,
            ..Default::default()
        };
        for (i, m) in spec.end_to_end.iter().enumerate() {
            outcome.values.insert(m.name.clone(), 1.5 + i as f64 / 3.0);
        }
        let line = result_line(&outcome, &spec.end_to_end, false).unwrap();
        let parsed = parse_result(&line, &spec.end_to_end).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (12, 0));
        assert_eq!(
            parsed.metrics["setup_s"],
            (outcome.values["setup_s"], "s".to_string())
        );
        // The same line is not a per-layer result.
        assert!(parse_result(&line, &spec.per_layer).is_err());
        // An end-to-end metric that was not measured is an error, a
        // bypassed layer reads 0.
        outcome.values.remove("setup_s");
        assert!(result_line(&outcome, &spec.end_to_end, false).is_err());
        let traced = result_line(&outcome, &spec.per_layer, true).unwrap();
        assert!(parse_result(&traced, &spec.per_layer).is_ok());
        // A failed block makes the run incorrect.
        outcome.failed = 1;
        assert!(result_line(&outcome, &spec.per_layer, true)
            .unwrap()
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(f64::NAN), "0.0");
    }
}
