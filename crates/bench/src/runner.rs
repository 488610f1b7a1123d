//! Shared scenario execution: the one row-building path behind `klex run` **and** the serve
//! daemon's job workers.
//!
//! Both surfaces accept the same request shape — a compiled scenario plus a
//! [`RunRequest`] (backend selection, shard/thread overrides, optional throughput columns)
//! — and both render the resulting [`ExperimentRow`]s with the same
//! [`analysis::harness::render_jsonl`].  Because the rows are built here, once, a job
//! submitted to `klex serve` returns a result **byte-identical** to a direct
//! `klex run <spec> --format jsonl` of the same spec and seed (the serve integration test
//! pins this).  The optional [`ProgressSink`] threads through to every backend's observed
//! entry point; observation never changes the rows of an uncancelled run.

use analysis::harness::auto_shards;
use analysis::scenario::CompiledScenario;
use analysis::{ExperimentRow, ProgressSink};

/// Which backend(s) a run request executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// One simulated execution under the spec's temporal monitors (trial 0 seeds).
    Sim,
    /// The spec's trial plan, sharded across worker threads.
    Harness,
    /// Bounded-exhaustive exploration of the spec's instance.
    Check,
    /// All three, one rendered row each.
    All,
}

impl Backend {
    /// Parses the CLI/wire spelling (`sim|harness|check|all`).
    pub fn parse(name: &str) -> Result<Backend, String> {
        match name {
            "sim" => Ok(Backend::Sim),
            "harness" => Ok(Backend::Harness),
            "check" => Ok(Backend::Check),
            "all" => Ok(Backend::All),
            other => Err(format!("unknown backend `{other}` (sim|harness|check|all)")),
        }
    }

    /// The canonical spelling (inverse of [`Backend::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Harness => "harness",
            Backend::Check => "check",
            Backend::All => "all",
        }
    }
}

/// One scenario-execution request: the knobs `klex run` exposes, in resolved form.
#[derive(Clone, Debug)]
pub struct RunRequest {
    /// Backend selection.
    pub backend: Backend,
    /// Harness worker threads (`0` = one per core).
    pub shards: usize,
    /// Nothing reads it: it was the worker count of the removed parallel checker engine
    /// and stays only so existing callers compile; ROADMAP item 9 removes it.
    pub threads: Option<usize>,
    /// Add checker throughput columns (`states_per_sec`, `arena_bytes`).
    pub bench: bool,
}

impl Default for RunRequest {
    fn default() -> Self {
        RunRequest { backend: Backend::Sim, shards: 0, threads: None, bench: false }
    }
}

/// The rows (and side notes) one run request produced.
#[derive(Clone, Debug, Default)]
pub struct RunProduct {
    /// One row per executed backend, in `sim`, `harness`, `check` order.
    pub rows: Vec<ExperimentRow>,
    /// Human-readable notes rendered below a markdown table (monitor violations, liveness
    /// lassos).
    pub notes: Vec<String>,
    /// Non-fatal warnings (an uncheckable spec skipped under `--backend all`).
    pub warnings: Vec<String>,
}

/// Executes `request` against `scenario` and returns the rendered rows.
///
/// The row layout is the CLI contract: metric columns per backend exactly as `klex run`
/// has always printed them.  `sink` observes phase progress and can cancel between phases
/// / trials / explored-state strides; a cancelled run's rows are partial and should be
/// discarded by the caller.
pub fn run_rows(
    scenario: &CompiledScenario,
    request: &RunRequest,
    sink: Option<&dyn ProgressSink>,
) -> Result<RunProduct, String> {
    let backend = request.backend;
    let shards = if request.shards == 0 { auto_shards() } else { request.shards };
    let mut product = RunProduct::default();

    if matches!(backend, Backend::Sim | Backend::All) {
        let (outcome, monitors) = match sink {
            Some(sink) => scenario.run_monitored_observed(sink),
            None => scenario.run_monitored(),
        };
        let mut row = ExperimentRow::new(format!("{} [sim]", scenario.spec().name));
        for (metric, value) in &outcome.metrics {
            row = row.with(metric, *value);
        }
        // One column per declared temporal monitor: 1 satisfied, 0 inconclusive,
        // -1 violated (details go to the notes below the table).
        for report in &monitors {
            let name = report.monitor.name();
            row = row.with(&format!("mon:{name}"), report.verdict.score());
            if let analysis::Verdict::Violated(detail) = &report.verdict {
                product.notes.push(format!("monitor {name} VIOLATED: {detail}"));
            }
        }
        product.rows.push(row);
        // One note per fault epoch: what hit the network, its size afterwards, and the
        // certified re-convergence time (or the exhausted budget).
        for (index, epoch) in outcome.epochs.iter().enumerate() {
            product.notes.push(match epoch.convergence {
                Some(activations) => format!(
                    "epoch {index} [{}] n={}: reconverged in {activations} activations",
                    epoch.event, epoch.nodes
                ),
                None => format!(
                    "epoch {index} [{}] n={}: did NOT reconverge within budget",
                    epoch.event, epoch.nodes
                ),
            });
        }
    }

    if matches!(backend, Backend::Harness | Backend::All) {
        if sink.is_some_and(|s| s.cancelled()) {
            return Ok(product);
        }
        let report = scenario.run_harness_observed(shards, sink);
        let mut row = report.row();
        row.label = format!("{} [harness x{}]", scenario.spec().name, scenario.spec().trials);
        product.rows.push(row);
    }

    if matches!(backend, Backend::Check | Backend::All) {
        if sink.is_some_and(|s| s.cancelled()) {
            return Ok(product);
        }
        let started = std::time::Instant::now();
        match scenario.check_observed(None, sink) {
            Ok(report) => {
                let elapsed = started.elapsed().as_secs_f64();
                let mut row = ExperimentRow::new(format!("{} [check]", scenario.spec().name))
                    .with("configurations", report.configurations as f64)
                    .with("transitions", report.transitions as f64)
                    .with("max_depth", report.max_depth as f64)
                    .with("exhaustive", f64::from(u8::from(report.exhaustive())))
                    .with("violations", report.violations.len() as f64)
                    .with("deadlocks", report.deadlocks.len() as f64);
                if scenario.spec().check.liveness() {
                    row = row.with("liveness_violations", report.liveness.len() as f64);
                    for witness in &report.liveness {
                        product.notes.push(format!("fair starvation lasso: {}", witness.render()));
                    }
                }
                if request.bench {
                    // Checker throughput: reachable states per wall-clock second of this
                    // run, and the arena's peak packed-state footprint.
                    row = row
                        .with("states_per_sec", (report.configurations as f64 / elapsed).round())
                        .with("arena_bytes", report.arena_bytes as f64);
                }
                product.rows.push(row);
            }
            // Under `all`, an uncheckable spec (stateful workload, ring baseline) must not
            // throw away the sim/harness rows already computed — warn and render what ran.
            // An explicit `check` backend still fails hard.
            Err(message) if backend == Backend::All => {
                product.warnings.push(format!("skipping checker backend: {message}"));
            }
            Err(message) => return Err(message.to_string()),
        }
    }

    Ok(product)
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::harness::render_jsonl;
    use analysis::scenario::preset;

    #[test]
    fn backend_parse_round_trips() {
        for name in ["sim", "harness", "check", "all"] {
            assert_eq!(Backend::parse(name).unwrap().name(), name);
        }
        assert!(Backend::parse("checker").is_err());
    }

    #[test]
    fn observed_rows_match_unobserved_rows_byte_for_byte() {
        // The byte-identity contract the serve daemon rests on: an attached (non-cancelling)
        // sink must not change a single rendered byte, on any backend.
        let scenario = preset("checker-safety").unwrap().compile().unwrap();
        let request = RunRequest { backend: Backend::All, shards: 2, threads: None, bench: false };
        let plain = run_rows(&scenario, &request, None).unwrap();
        let observed = run_rows(&scenario, &request, Some(&analysis::NullSink)).unwrap();
        assert_eq!(render_jsonl(&plain.rows), render_jsonl(&observed.rows));
        assert_eq!(plain.notes, observed.notes);
    }
}
