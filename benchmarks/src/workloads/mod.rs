//! The five workloads and what they share: the run context, the round loop, and the golden
//! files.

pub mod check;
pub mod conv;
pub mod jobmix;
pub mod serve;
pub mod sim;

use crate::report::Metric;
use crate::stats::median;
use crate::trace::Tracer;
use analysis::scenario::{CompiledScenario, ScenarioSpec};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Every workload, in the order `--all` runs them (`BENCHMARK.json` says why each is there).
pub const WORKLOADS: [&str; 5] =
    ["sim_cache_1k", "sim_dram_512k", "conv_trials_31", "check_mixed", "serve_mix"];

/// The seed whose exact counts are committed under `golden/`.
pub const GOLDEN_SEED: u64 = 1;

/// What one invocation was asked to do.
pub struct Ctx<'a> {
    pub seed: u64,
    /// How long the timed rounds run (the traced run does a fixed number of rounds instead).
    pub seconds: f64,
    pub trace: bool,
    pub write_golden: bool,
    pub tracer: &'a mut Tracer,
}

/// What a workload measured; [`crate::report`] turns it into the named metrics.
#[derive(Default)]
pub struct Measured {
    /// Seconds of each set-up pass (spec decode + compile + build + warm-up).
    pub setup_s: Vec<f64>,
    pub prefault_s: Option<f64>,
    /// Operations and seconds of each timed round.
    pub round_ops: Vec<u64>,
    pub round_s: Vec<f64>,
    /// Latency of each job, for the workload that serves jobs; elsewhere a round is the job.
    pub job_ms: Vec<f64>,
    /// Completed jobs over the whole timed window, where rounds would drain the pipeline.
    pub ops_per_s: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub diagnostics: Vec<Metric>,
    /// Counts that must repeat bit for bit under the same seed.
    pub exact: Vec<(String, u64)>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Kept for the probe passes of the traced run, which then measure the same layers on the
    /// workload's own state instead of a fresh instance: a simulator workload's warm network,
    /// and the serve layers of `serve_mix`'s own traced window.
    pub warm_net: Option<sim::SimState>,
    pub serve_layers: Option<Vec<Metric>>,
}

/// The `index`-th independent seed derived from the run's seed.
pub fn seed_stream(seed: u64, index: u64) -> u64 {
    analysis::harness::trial_seed(seed, index)
}

/// One round: what it did, how long the calls into the library took (the round's own checks
/// are not timed), and how many of the outcomes it checked were wrong.
pub struct Round {
    pub ops: u64,
    pub seconds: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Decodes and compiles a spec document, as every entry point of the library does first.
pub fn compile_spec(spec: &str) -> Result<CompiledScenario, String> {
    ScenarioSpec::from_json(spec).and_then(ScenarioSpec::compile).map_err(|e| e.to_string())
}

/// Runs `work` and returns its result with the seconds it took.
pub fn timed<R>(work: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let result = work();
    (result, started.elapsed().as_secs_f64())
}

/// Runs equal rounds of fixed work until `ctx.seconds` have passed, and at least
/// `min_rounds` of them.
///
/// Fixed work per round, not fixed time: the throughput reported is the median round's, so
/// one descheduled round does not move it.  The traced run instead does `min_rounds` with
/// the tracer off and `min_rounds` with it on, and reports the difference.
pub fn run_rounds(
    ctx: &mut Ctx,
    min_rounds: usize,
    measured: &mut Measured,
    mut round: impl FnMut(usize, &mut Tracer) -> Result<Round, String>,
) -> Result<(), String> {
    let mut one_round = |index: usize, tracer: &mut Tracer, measured: &mut Measured| {
        let done = tracer.span("round", index as u64, |t| round(index, t))?;
        measured.round_s.push(done.seconds);
        measured.round_ops.push(done.ops);
        measured.attempted += done.attempted;
        measured.failed += done.failed;
        Ok::<(), String>(())
    };
    if ctx.trace {
        ctx.tracer.set_on(false);
        for index in 0..min_rounds {
            one_round(index, ctx.tracer, measured)?;
        }
        ctx.tracer.set_on(true);
        for index in min_rounds..2 * min_rounds {
            one_round(index, ctx.tracer, measured)?;
        }
        let (plain, traced) = measured.round_s.split_at(min_rounds);
        let overhead = (median(traced) / median(plain) - 1.0) * 100.0;
        measured.layers.push(Metric::new("trace_overhead_pct", overhead, "%"));
        return Ok(());
    }
    let started = Instant::now();
    let mut index = 0;
    while index < min_rounds || started.elapsed().as_secs_f64() < ctx.seconds {
        one_round(index, ctx.tracer, measured)?;
        index += 1;
    }
    Ok(())
}

pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn golden_path(workload: &str) -> PathBuf {
    benchmark_dir().join("golden").join(format!("{workload}.json"))
}

/// Compares the exact counts of a [`GOLDEN_SEED`] run with `golden/<workload>.json` (or
/// writes that file when asked to).  Other seeds have no golden and pass.
pub fn golden_check(ctx: &Ctx, workload: &str, counts: &[(String, u64)]) -> Result<(), String> {
    if ctx.seed != GOLDEN_SEED {
        return Ok(());
    }
    let path = golden_path(workload);
    if ctx.write_golden {
        let counts = counts.iter().map(|(k, v)| (k.clone(), Value::Integer(*v as i128))).collect();
        let doc = Value::Object(
            [
                ("seed".to_string(), Value::Integer(GOLDEN_SEED as i128)),
                ("counts".to_string(), Value::Object(counts)),
            ]
            .into(),
        );
        return std::fs::write(&path, bench::history::render(&doc) + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()));
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read golden {}: {e}", path.display()))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Value::Object(golden)) = doc.get("counts") else {
        return Err(format!("{}: no `counts` object", path.display()));
    };
    let want: BTreeMap<&str, Option<u64>> =
        golden.iter().map(|(name, count)| (name.as_str(), count.as_u64())).collect();
    let have: BTreeMap<&str, Option<u64>> =
        counts.iter().map(|(name, count)| (name.as_str(), Some(*count))).collect();
    if want != have {
        return Err(format!("{workload}: the run counted {have:?}, golden says {want:?}"));
    }
    Ok(())
}
