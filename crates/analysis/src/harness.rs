//! Experiment harness: sharded repeated trials and table rendering.
//!
//! Results are aggregated into [`ExperimentRow`]s, rendered as a markdown table (for
//! reading), as JSON lines (for machine post-processing) or as CSV.
//!
//! # Sharded trials
//!
//! Statistical experiments (convergence matrices, waiting-time sweeps) repeat one simulation
//! over many seeds.  [`run_sharded`] fans those trials out across `std::thread::scope`
//! workers.  The crucial discipline is that each trial's RNG stream is derived from the
//! *trial index* ([`trial_seed`], a SplitMix64 stream), **not** from the worker that happens
//! to execute it — so the merged results are bit-identical for every shard count, including
//! `shards = 1`.  Per-trial outputs come back in index order and can be reduced with
//! [`summarize`] and [`crate::Histogram::merge`].

use crate::stats::Summary;
use serde::Serialize;
use std::collections::BTreeMap;

/// One measurement row of an experiment table: a labelled parameter point with named metrics.
#[derive(Clone, Debug, Default, Serialize)]
pub struct ExperimentRow {
    /// Human-readable parameter point, e.g. `"chain, n=15, l=4"`.
    pub label: String,
    /// Named metric values, in insertion order (BTreeMap keeps columns stable).
    pub metrics: BTreeMap<String, f64>,
}

impl ExperimentRow {
    /// Creates a row with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        ExperimentRow { label: label.into(), metrics: BTreeMap::new() }
    }

    /// Adds (or overwrites) one metric.
    pub fn with(mut self, key: &str, value: f64) -> Self {
        self.metrics.insert(key.to_string(), value);
        self
    }

    /// Adds the mean of a summary under `key` and its p95 under `key_p95`.
    pub fn with_summary(mut self, key: &str, summary: &Summary) -> Self {
        self.metrics.insert(format!("{key}_mean"), summary.mean);
        self.metrics.insert(format!("{key}_p95"), summary.p95);
        self.metrics.insert(format!("{key}_max"), summary.max);
        self
    }
}

/// Derives the RNG seed of trial `index` from an experiment-level `base_seed`.
///
/// SplitMix64 over `base_seed + index·φ64`: consecutive indices yield decorrelated streams,
/// and the mapping depends only on `(base_seed, index)` — never on which shard runs the
/// trial — so sharded executions are reproducible at every thread count.
pub fn trial_seed(base_seed: u64, index: u64) -> u64 {
    let mut z = base_seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Number of cores this host can run concurrently (at least 1).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resolves a worker-count knob against a host core count: `0` means "one worker per core"
/// and anything else is taken literally.
///
/// This is *the* worker/thread derivation rule of the workspace — the serve daemon's worker
/// pool resolves through it.  A pure function of `(requested, host_cores)` so the policy is
/// unit-testable off-host; in particular a 1-core host resolves `0` to `1` — auto never
/// oversubscribes a single core.
pub fn worker_count(requested: usize, host_cores: usize) -> usize {
    if requested == 0 {
        host_cores.max(1)
    } else {
        requested
    }
}

/// [`worker_count`] against this host's [`host_cores`].
pub fn auto_workers(requested: usize) -> usize {
    worker_count(requested, host_cores())
}

/// A sensible shard count for this host: one shard per available core.
pub fn auto_shards() -> usize {
    host_cores()
}

/// Runs `trials` independent trials sharded across up to `shards` scoped worker threads,
/// returning each trial's result in index order.
///
/// `run(index, seed)` receives the trial index (`0..trials`) and its derived RNG seed
/// ([`trial_seed`]); because seeds are a function of the index alone, the returned vector is
/// identical for every `shards` value (a property asserted by this module's tests).  Workers
/// pull trial indices from a shared atomic counter, so uneven trial durations balance
/// automatically.
pub fn run_sharded<R, F>(trials: u64, base_seed: u64, shards: usize, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64, u64) -> R + Sync,
{
    run_sharded_with(trials, base_seed, shards, || (), |(), index, seed| run(index, seed))
}

/// [`run_sharded`] with **worker-local reusable state**: each worker thread calls `init`
/// once and hands the resulting value mutably to every trial it executes.
///
/// This is the trial-reuse hook of the scenario harness: the worker state holds a simulated
/// network (wrapped in `Option`, built on first use) that subsequent trials reset in place
/// ([`treenet::Network::reset_trial`]) instead of rebuilding, eliminating the per-trial
/// allocation of channels, enabled-set arrays, traces and metrics.  Because the state is
/// per-*worker* while seeds stay per-*trial*, the reuse is invisible to results: the
/// returned vector is still identical for every shard count, provided trials leave no
/// behaviourally relevant residue in the state (exactly what `reset_trial` guarantees —
/// asserted by the scenario-level reuse tests).
pub fn run_sharded_with<W, R, Init, F>(
    trials: u64,
    base_seed: u64,
    shards: usize,
    init: Init,
    run: F,
) -> Vec<R>
where
    R: Send,
    Init: Fn() -> W + Sync,
    F: Fn(&mut W, u64, u64) -> R + Sync,
{
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    let shards = shards.max(1).min(trials.max(1) as usize);
    if shards == 1 {
        let mut worker = init();
        return (0..trials).map(|i| run(&mut worker, i, trial_seed(base_seed, i))).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..trials).map(|_| Mutex::new(None)).collect();
    let next = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..shards {
            scope.spawn(|| {
                let mut worker = init();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= trials {
                        break;
                    }
                    let result = run(&mut worker, index, trial_seed(base_seed, index));
                    *slots[index as usize].lock().expect("unpoisoned") = Some(result);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("unpoisoned").expect("every trial ran"))
        .collect()
}

/// Aggregates per-trial metric maps into one [`Summary`] per metric name.
pub fn summarize(results: &[BTreeMap<String, f64>]) -> BTreeMap<String, Summary> {
    let mut grouped: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for result in results {
        for (key, value) in result {
            grouped.entry(key.clone()).or_default().push(*value);
        }
    }
    grouped.into_iter().map(|(k, v)| (k, Summary::of(&v))).collect()
}

/// Renders rows as a GitHub-flavoured markdown table.  Columns are the union of all metric
/// names, in alphabetical order; missing cells render as `-`.
pub fn render_markdown_table(title: &str, rows: &[ExperimentRow]) -> String {
    let mut columns: Vec<String> = Vec::new();
    for row in rows {
        for key in row.metrics.keys() {
            if !columns.contains(key) {
                columns.push(key.clone());
            }
        }
    }
    columns.sort();
    let mut out = String::new();
    out.push_str(&format!("### {title}\n\n"));
    out.push_str("| scenario |");
    for c in &columns {
        out.push_str(&format!(" {c} |"));
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in &columns {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("| {} |", row.label));
        for c in &columns {
            match row.metrics.get(c) {
                Some(v) => out.push_str(&format!(" {} |", format_value(*v))),
                None => out.push_str(" - |"),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders rows as JSON lines for machine consumption.
pub fn render_jsonl(rows: &[ExperimentRow]) -> String {
    rows.iter()
        .map(|r| serde_json::to_string(r).expect("rows are serializable"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Renders rows as CSV (header + one line per row).  Columns are the union of all metric
/// names in alphabetical order; missing cells are left empty.  Labels containing commas or
/// quotes are quoted per RFC 4180.
pub fn render_csv(rows: &[ExperimentRow]) -> String {
    let mut columns: Vec<String> = Vec::new();
    for row in rows {
        for key in row.metrics.keys() {
            if !columns.contains(key) {
                columns.push(key.clone());
            }
        }
    }
    columns.sort();
    let quote = |s: &str| {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    let mut out = String::from("scenario");
    for c in &columns {
        out.push(',');
        out.push_str(&quote(c));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&quote(&row.label));
        for c in &columns {
            out.push(',');
            if let Some(v) = row.metrics.get(c) {
                out.push_str(&format!("{v}"));
            }
        }
        out.push('\n');
    }
    out
}

fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_build_and_render() {
        let rows = vec![
            ExperimentRow::new("n=5").with("waiting_max", 12.0).with("bound", 35.0),
            ExperimentRow::new("n=9").with("waiting_max", 55.5),
        ];
        let table = render_markdown_table("Waiting time", &rows);
        assert!(table.contains("### Waiting time"));
        assert!(table.contains("| n=5 | 35 | 12 |"));
        assert!(table.contains("| n=9 | - | 55.50 |"));
    }

    #[test]
    fn jsonl_round_trips() {
        let rows = vec![ExperimentRow::new("x").with("m", 1.5)];
        let line = render_jsonl(&rows);
        let parsed: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed["label"], "x");
        assert_eq!(parsed["metrics"]["m"], 1.5);
    }

    #[test]
    fn csv_renders_header_missing_cells_and_quoting() {
        let rows = vec![
            ExperimentRow::new("chain, n=5").with("waiting_max", 12.0),
            ExperimentRow::new("star").with("waiting_max", 3.5).with("bound", 35.0),
        ];
        let csv = render_csv(&rows);
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "scenario,bound,waiting_max");
        assert_eq!(lines.next().unwrap(), "\"chain, n=5\",,12");
        assert_eq!(lines.next().unwrap(), "star,35,3.5");
    }

    #[test]
    fn with_summary_expands_columns() {
        let s = Summary::of(&[1.0, 3.0]);
        let row = ExperimentRow::new("a").with_summary("conv", &s);
        assert!(row.metrics.contains_key("conv_mean"));
        assert!(row.metrics.contains_key("conv_p95"));
        assert!(row.metrics.contains_key("conv_max"));
    }

    #[test]
    fn sharded_results_are_independent_of_shard_count() {
        // A trial whose output depends on its derived seed, so any seed/shard mixup shows.
        let trial =
            |index: u64, seed: u64| (index, seed.wrapping_mul(0x2545F4914F6CDD1D).rotate_left(17));
        let sequential = run_sharded(17, 99, 1, trial);
        for shards in [2, 3, 8, 64] {
            assert_eq!(run_sharded(17, 99, shards, trial), sequential, "{shards} shards");
        }
        // Results come back in index order.
        for (i, (index, _)) in sequential.iter().enumerate() {
            assert_eq!(*index, i as u64);
        }
    }

    #[test]
    fn worker_local_state_does_not_leak_into_results() {
        // A worker state that counts the trials it served: results must depend only on the
        // (index, seed) pair, never on the worker-local counter, for every shard count.
        let trial = |state: &mut u64, index: u64, seed: u64| {
            *state += 1; // reused across that worker's trials — must not affect the result
            (index, seed ^ 0xABCD)
        };
        let sequential = run_sharded_with(23, 7, 1, || 0u64, trial);
        for shards in [2, 5, 16] {
            assert_eq!(run_sharded_with(23, 7, shards, || 0u64, trial), sequential);
        }
        assert_eq!(sequential, run_sharded(23, 7, 4, |i, s| (i, s ^ 0xABCD)));
    }

    #[test]
    fn trial_seeds_are_decorrelated_and_stable() {
        let a = trial_seed(7, 0);
        let b = trial_seed(7, 1);
        let c = trial_seed(8, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, trial_seed(7, 0), "pure function of (base, index)");
    }

    #[test]
    fn worker_count_resolution_is_pure_and_single_core_safe() {
        // 0 = auto: one worker per host core — and on a 1-core host that is exactly one
        // worker, never an oversubscribing floor (the behavior fixed in PR 6).
        assert_eq!(worker_count(0, 1), 1);
        assert_eq!(worker_count(0, 8), 8);
        // A defensive guard: a degenerate host report still yields a usable count.
        assert_eq!(worker_count(0, 0), 1);
        // Explicit requests are taken literally, even above the core count.
        assert_eq!(worker_count(3, 1), 3);
        assert_eq!(worker_count(1, 64), 1);
        // The host-bound wrappers agree with the pure rule.
        assert_eq!(auto_workers(0), host_cores());
        assert_eq!(auto_workers(5), 5);
        assert_eq!(auto_shards(), host_cores());
    }

    #[test]
    fn sharded_handles_zero_and_one_trials() {
        let none: Vec<u64> = run_sharded(0, 1, 4, |_, seed| seed);
        assert!(none.is_empty());
        let one: Vec<u64> = run_sharded(1, 1, 4, |_, seed| seed);
        assert_eq!(one, vec![trial_seed(1, 0)]);
    }
}
