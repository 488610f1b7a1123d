//! From what a workload measured to what is printed: the named end-to-end metrics, the
//! `name value unit` lines, the one-line JSON result, and the record kept in a result set.

use crate::stats::{median, percentile};
use crate::workloads::Measured;
use serde_json::Value;
use std::collections::BTreeMap;

/// One named number with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_string(), value, unit }
    }
}

/// The end-to-end metrics of one run, measured with tracing off.
///
/// * `setup_s` — median set-up pass: spec decode + compile + build (or server start) + warm-up.
/// * `ops_per_s` — median over rounds of operations / round time (served jobs: completed /
///   wall, because rounds would drain the pipeline).
/// * `peak_rss_mb` — `VmHWM` of the workload's process at exit.
/// * `job_p50_ms`, `job_p95_ms` — latency of one job: a served job from POST to its terminal
///   status, elsewhere one round of fixed work handed to the library.
pub fn end_to_end(measured: &Measured) -> Result<Vec<Metric>, String> {
    let rates: Vec<f64> = measured
        .round_ops
        .iter()
        .zip(&measured.round_s)
        .map(|(&ops, &secs)| ops as f64 / secs)
        .collect();
    let round_ms: Vec<f64>;
    let jobs = if measured.job_ms.is_empty() {
        round_ms = measured.round_s.iter().map(|s| s * 1e3).collect();
        &round_ms
    } else {
        &measured.job_ms
    };
    if measured.setup_s.is_empty() || rates.is_empty() || jobs.is_empty() {
        return Err("the workload measured no set-up pass or no round".to_string());
    }
    Ok(vec![
        Metric::new("setup_s", median(&measured.setup_s), "s"),
        Metric::new("ops_per_s", measured.ops_per_s.unwrap_or_else(|| median(&rates)), "1/s"),
        Metric::new("peak_rss_mb", crate::host::peak_rss_mib()?, "MiB"),
        Metric::new("job_p50_ms", median(jobs), "ms"),
        Metric::new("job_p95_ms", percentile(jobs, 0.95), "ms"),
    ])
}

/// Diagnostics every run prints besides its metrics, so a reader can recompute them.
pub fn diagnostics(measured: &Measured) -> Vec<Metric> {
    let mut out = vec![
        Metric::new("wall_s", measured.round_s.iter().sum(), "s"),
        Metric::new("rounds", measured.round_s.len() as f64, "count"),
        Metric::new("ops", measured.round_ops.iter().sum::<u64>() as f64, "count"),
        Metric::new(
            "fail_ratio",
            measured.failed as f64 / measured.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    if let Some(prefault_s) = measured.prefault_s {
        out.push(Metric::new("prefault_s", prefault_s, "s"));
    }
    out.extend(measured.diagnostics.iter().cloned());
    out
}

fn escape(text: &str, out: &mut String) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `value` as JSON on one line (the result line and result-set records must be single lines).
pub fn to_line(value: &Value) -> String {
    fn write(value: &Value, out: &mut String) {
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Integer(i) => out.push_str(&i.to_string()),
            Value::Number(n) if n.is_finite() => out.push_str(&format!("{n:?}")),
            Value::Number(_) => out.push_str("null"),
            Value::String(s) => escape(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write(item, out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (key, item)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    escape(key, out);
                    out.push_str(": ");
                    write(item, out);
                }
                out.push('}');
            }
        }
    }
    let mut out = String::new();
    write(value, &mut out);
    out
}

pub fn object(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn metrics_value(metrics: &[Metric]) -> Value {
    let map: BTreeMap<String, Value> = metrics
        .iter()
        .map(|m| {
            let entry = object([
                ("value", Value::Number(m.value)),
                ("unit", Value::String(m.unit.to_string())),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    Value::Object(map)
}

/// The last line of a run: `correct`, `attempted`, `failed` and the metrics of this mode.
pub fn result_line(measured: &Measured, metrics: &[Metric]) -> String {
    to_line(&object([
        ("correct", Value::Bool(measured.failed == 0)),
        ("attempted", Value::Integer(measured.attempted.max(1) as i128)),
        ("failed", Value::Integer(measured.failed as i128)),
        ("metrics", metrics_value(metrics)),
    ]))
}

/// One run as kept in a result set: the host first, then everything needed to recompute the
/// metrics (per-round operations and times) and the exact counts.
pub fn record(
    host: &Value,
    workload: &str,
    seed: u64,
    measured: &Measured,
    metrics: &[Metric],
) -> Value {
    let floats = |v: &[f64]| Value::Array(v.iter().map(|x| Value::Number(*x)).collect());
    let exact =
        measured.exact.iter().map(|(k, v)| (k.clone(), Value::Integer(*v as i128))).collect();
    object([
        ("host", host.clone()),
        ("workload", Value::String(workload.to_string())),
        ("seed", Value::Integer(seed as i128)),
        ("metrics", metrics_value(metrics)),
        ("attempted", Value::Integer(measured.attempted as i128)),
        ("failed", Value::Integer(measured.failed as i128)),
        ("setup_s", floats(&measured.setup_s)),
        ("round_s", floats(&measured.round_s)),
        (
            "round_ops",
            Value::Array(measured.round_ops.iter().map(|o| Value::Integer(*o as i128)).collect()),
        ),
        ("exact", Value::Object(exact)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_line_with_the_four_keys() {
        let measured = Measured { attempted: 12, failed: 0, ..Measured::default() };
        let line = result_line(&measured, &[Metric::new("setup_s", 0.8127, "s")]);
        assert!(!line.contains('\n'));
        let doc = serde_json::from_str(&line).unwrap();
        assert_eq!(doc["correct"], true);
        assert_eq!(doc["attempted"], 12u64);
        assert_eq!(doc["failed"], 0u64);
        assert_eq!(doc["metrics"]["setup_s"]["value"], 0.8127);
        assert_eq!(doc["metrics"]["setup_s"]["unit"], "s");
    }

    #[test]
    fn rounds_are_the_jobs_where_no_job_latency_is_measured() {
        let measured = Measured {
            setup_s: vec![0.5, 0.3, 0.4],
            round_ops: vec![100, 100, 100],
            round_s: vec![1.0, 2.0, 4.0],
            ..Measured::default()
        };
        let metrics = end_to_end(&measured).unwrap();
        let get = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(get("setup_s"), 0.4);
        assert_eq!(get("ops_per_s"), 50.0);
        assert_eq!(get("job_p50_ms"), 2000.0);
        assert_eq!(get("job_p95_ms"), 4000.0);
        assert!(get("peak_rss_mb") > 0.0);
    }
}
