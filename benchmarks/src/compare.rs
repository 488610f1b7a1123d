//! A/A and A/B tooling over result sets (files of one JSON record per run, as `run --out`
//! appends them): `compare` judges set B against set A by the bounds of `BENCHMARK.json`,
//! `calibrate` summarises one set and derives the bounds from it.

use crate::report::{object, to_line};
use crate::stats::{bound_for, max_deviation, median, spread};
use crate::workloads::benchmark_dir;
use serde_json::Value;
use std::collections::BTreeMap;

/// Values of one metric on one workload, one per run.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| serde_json::from_str(line).map_err(|e| format!("{path}: {e}")))
        .collect()
}

fn samples(records: &[Value]) -> Samples {
    let mut out = Samples::new();
    for record in records {
        let (Some(workload), Some(Value::Object(metrics))) =
            (record.get("workload").and_then(Value::as_str), record.get("metrics"))
        else {
            continue;
        };
        for (metric, entry) in metrics {
            if let Some(value) = entry.get("value").and_then(Value::as_f64) {
                out.entry((workload.to_string(), metric.clone())).or_default().push(value);
            }
        }
    }
    out
}

/// The host fingerprints of a result set, deduplicated.
fn hosts(records: &[Value]) -> Vec<String> {
    let mut hosts: Vec<String> =
        records.iter().filter_map(|r| r.get("host")).map(to_line).collect();
    hosts.sort();
    hosts.dedup();
    hosts
}

/// One of the metric lists (`end_to_end` / `per_layer`) of `BENCHMARK.json`.
fn declared(list: &str) -> Result<Vec<Value>, String> {
    let path = benchmark_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match doc.get(list) {
        Some(Value::Array(metrics)) => Ok(metrics.clone()),
        _ => Err(format!("{}: no {list} list", path.display())),
    }
}

/// Fails unless `emitted` is exactly the metric list `BENCHMARK.json` declares: the two are
/// one contract, and a metric added to either side alone would be silently ignored.
pub fn check_declared(list: &str, emitted: &[crate::report::Metric]) -> Result<(), String> {
    let mut want: Vec<String> =
        declared(list)?.iter().filter_map(|m| Some(m.get("name")?.as_str()?.to_string())).collect();
    let mut have: Vec<String> = emitted.iter().map(|m| m.name.clone()).collect();
    want.sort();
    have.sort();
    if want == have {
        return Ok(());
    }
    let missing: Vec<&String> = want.iter().filter(|n| !have.contains(n)).collect();
    let extra: Vec<&String> = have.iter().filter(|n| !want.contains(n)).collect();
    Err(format!("BENCHMARK.json {list} and the run disagree: not printed {missing:?}, not declared {extra:?}"))
}

/// `metric → (bound, higher is better)` from the `end_to_end` list of `BENCHMARK.json`.
fn declared_bounds() -> Result<BTreeMap<String, (f64, bool)>, String> {
    Ok(declared("end_to_end")?
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            let higher = m.get("better")?.as_str()? == "higher";
            Some((name, (m.get("bound")?.as_f64()?, higher)))
        })
        .collect())
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Outside,
    /// The run-to-run spread is wider than the bound, and the runs of A and B overlap.
    Unresolved,
}

/// Judges runs `b` against runs `a`; also returns by what share of A's median B's is worse.
pub fn judge(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse = if higher_is_better { (ma - mb) / ma } else { (mb - ma) / ma };
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let all = |f: &dyn Fn(f64, f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| f(y, x)));
    let wide = spread(a).max(spread(b)) > bound;
    let verdict =
        if wide && !all(&|y, x| better(y, x)) && !(worse > bound && all(&|y, x| better(x, y))) {
            Verdict::Unresolved
        } else if worse > bound {
            Verdict::Outside
        } else {
            Verdict::Within
        };
    (verdict, worse)
}

/// Exact counts per `(workload, seed)`; they must repeat bit for bit.
fn exact_counts(records: &[Value]) -> BTreeMap<(String, u64), String> {
    records
        .iter()
        .filter_map(|r| {
            let key = (r.get("workload")?.as_str()?.to_string(), r.get("seed")?.as_u64()?);
            Some((key, to_line(r.get("exact")?)))
        })
        .collect()
}

pub fn compare(args: &[String]) -> Result<bool, String> {
    let force = args.iter().any(|a| a == "--force");
    let paths: Vec<&String> = args.iter().filter(|a| *a != "--force").collect();
    let [a_path, b_path] = paths[..] else {
        return Err("usage: compare <A> <B> [--force]".to_string());
    };
    let (a_records, b_records) = (load(a_path)?, load(b_path)?);
    let mut fingerprints = hosts(&a_records);
    fingerprints.extend(hosts(&b_records));
    fingerprints.sort();
    fingerprints.dedup();
    if fingerprints.len() != 1 {
        eprintln!("the result sets come from {} different hosts:", fingerprints.len());
        fingerprints.iter().for_each(|host| eprintln!("  {host}"));
        if !force {
            return Err(
                "refusing to compare across hosts (pass --force to do it anyway)".to_string()
            );
        }
    }

    let bounds = declared_bounds()?;
    let (a, b) = (samples(&a_records), samples(&b_records));
    let mut ok = true;
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse", "bound"
    );
    for ((workload, metric), a_values) in &a {
        let (Some(b_values), Some(&(bound, higher))) =
            (b.get(&(workload.clone(), metric.clone())), bounds.get(metric))
        else {
            continue;
        };
        let (verdict, worse) = judge(a_values, b_values, bound, higher);
        ok &= verdict != Verdict::Outside;
        println!(
            "{workload:<16} {metric:<12} {:>14.4} {:>14.4} {:>7.2}% {:>5.1}%  {}",
            median(a_values),
            median(b_values),
            worse * 100.0,
            bound * 100.0,
            match verdict {
                Verdict::Within => "within",
                Verdict::Outside => "OUTSIDE",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    let b_exact = exact_counts(&b_records);
    for (key, counts) in exact_counts(&a_records) {
        if b_exact.get(&key).is_some_and(|other| *other != counts) {
            println!(
                "{} seed {}: exact counts differ: {counts} vs {}",
                key.0, key.1, b_exact[&key]
            );
            ok = false;
        }
    }
    Ok(ok)
}

/// Prints the calibration document of one result set: every run, median, min and max per
/// metric × workload, and per metric the two numbers a bound is chosen from — the issue's
/// `max(3 %, 2 × largest deviation)` ≤ 10 %, and three times the widest quartile spread, which
/// the benchmark driver wants the bound to stay above.
pub fn calibrate(args: &[String]) -> Result<bool, String> {
    let [path] = args else {
        return Err("usage: calibrate <FILE>".to_string());
    };
    let records = load(path)?;
    let floats = |v: &[f64]| Value::Array(v.iter().map(|x| Value::Number(*x)).collect());
    let mut workloads: BTreeMap<String, BTreeMap<String, Value>> = BTreeMap::new();
    let mut per_metric: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for ((workload, metric), values) in samples(&records) {
        let (deviation, iqr) = (max_deviation(&values), spread(&values));
        let fold = |x: f64, y: f64| x.max(y);
        workloads.entry(workload).or_default().insert(
            metric.clone(),
            object([
                ("runs", floats(&values)),
                ("median", Value::Number(median(&values))),
                ("min", Value::Number(values.iter().copied().fold(f64::INFINITY, f64::min))),
                ("max", Value::Number(values.iter().copied().fold(0.0, fold))),
                ("max_deviation", Value::Number(deviation)),
                ("spread", Value::Number(iqr)),
            ]),
        );
        let slot = per_metric.entry(metric).or_insert((0.0, 0.0));
        *slot = (slot.0.max(deviation), slot.1.max(iqr));
    }
    let bounds = per_metric
        .into_iter()
        .map(|(metric, (deviation, iqr))| {
            let entry = object([
                ("max_deviation", Value::Number(deviation)),
                ("max_spread", Value::Number(iqr)),
                ("bound_2x_deviation", Value::Number(bound_for(deviation))),
                ("bound_3x_spread", Value::Number(3.0 * iqr)),
            ]);
            (metric, entry)
        })
        .collect();
    let doc = object([
        ("hosts", Value::Array(hosts(&records).into_iter().map(Value::String).collect())),
        ("records", Value::Integer(records.len() as i128)),
        (
            "workloads",
            Value::Object(workloads.into_iter().map(|(w, m)| (w, Value::Object(m))).collect()),
        ),
        ("bounds", Value::Object(bounds)),
    ]);
    println!("{}", bench::history::render(&doc));
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tight_runs_are_judged_by_their_medians() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(judge(&a, &[97.0, 98.0, 96.5, 97.5, 97.2], 0.05, true).0, Verdict::Within);
        let (verdict, worse) = judge(&a, &[90.0, 91.0, 89.5, 90.5, 90.2], 0.05, true);
        assert_eq!(verdict, Verdict::Outside);
        assert!((worse - 0.098).abs() < 1e-9);
        // Lower is better: the same numbers read the other way round.
        assert_eq!(judge(&a, &[90.0, 91.0, 89.5, 90.5, 90.2], 0.05, false).0, Verdict::Within);
        assert_eq!(
            judge(&a, &[110.0, 111.0, 109.5, 110.5, 110.2], 0.05, false).0,
            Verdict::Outside
        );
    }

    #[test]
    fn wide_runs_are_unresolved_unless_they_do_not_overlap() {
        let a = [100.0, 120.0, 80.0, 110.0, 90.0];
        assert_eq!(judge(&a, &[95.0, 115.0, 75.0, 105.0, 85.0], 0.05, true).0, Verdict::Unresolved);
        assert_eq!(judge(&a, &[60.0, 70.0, 50.0, 65.0, 55.0], 0.05, true).0, Verdict::Outside);
        assert_eq!(judge(&a, &[130.0, 150.0, 125.0, 140.0, 135.0], 0.05, true).0, Verdict::Within);
    }

    #[test]
    fn samples_group_by_workload_and_metric() {
        let line = r#"{"workload": "w", "metrics": {"ops_per_s": {"value": 2.5, "unit": "1/s"}}}"#;
        let records =
            vec![serde_json::from_str(line).unwrap(), serde_json::from_str(line).unwrap()];
        assert_eq!(samples(&records)[&("w".to_string(), "ops_per_s".to_string())], vec![2.5, 2.5]);
    }
}
