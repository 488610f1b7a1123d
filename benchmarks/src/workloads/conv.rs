//! `conv_trials_31`: Theorem-1 convergence trials (experiment E5) on random 31-node trees.
//!
//! Uses the simulator the other way round from the `sim_*` workloads: many short runs in which
//! per-trial build, fault injection and an O(n) legitimacy check after *every* activation
//! dominate.  A gain bought for the fused steady loop at the cost of those paths shows here.
//! One shard on purpose: it prices the trial, not the thread pool.

use super::{compile_spec, golden_check, seed_stream, timed, Ctx, Measured, Round};
use crate::report::Metric;
use analysis::convergence::default_window;
use analysis::scenario::{
    DaemonSpec, FaultPlanSpec, ProtocolSpec, ScenarioSpec, StopSpec, TopologySpec, WorkloadSpec,
};
use std::collections::BTreeMap;

pub const NODES: usize = 31;
/// Trials per round.
pub const TRIALS: u64 = 32;
/// The size of the nominal job `job_p50_ms` / `job_p95_ms` are quoted for.
const JOB_ACTIVATIONS: u64 = 4_000_000;
const WARMUP_TRIALS: u64 = 8;
/// The warm-up trials are the same in every run, so that set-up time does not depend on the
/// seed.
const WARMUP_SEED: u64 = 0;
const MIN_ROUNDS: usize = 3;
const STEP_BUDGET: u64 = 4_000_000;

/// The E5 regime at one parameter point: stabilise, catastrophic fault, run until legitimacy
/// has been sustained for `default_window(n)` activations.
pub fn spec_json(nodes: usize, seed: u64, trials: u64) -> String {
    ScenarioSpec::builder(format!("benchmark theorem-1 n={nodes}"))
        .topology(TopologySpec::Random { n: nodes, seed: seed_stream(seed, 1) })
        .protocol(ProtocolSpec::Ss)
        .kl(3, 6)
        .workload(WorkloadSpec::Uniform {
            seed: seed_stream(seed, 2),
            p_request: 0.01,
            max_units: 3,
            max_hold: 20,
        })
        .daemon(DaemonSpec::RandomFair { seed: seed_stream(seed, 3) })
        .warmup(STEP_BUDGET)
        .fault(seed_stream(seed, 4), FaultPlanSpec::Catastrophic)
        .stop(StopSpec::Predicate {
            name: "legitimate".into(),
            max_steps: STEP_BUDGET,
            sustained_for: default_window(nodes),
        })
        .metrics(&["converged", "convergence_activations", "warmup_activations", "steps"])
        .trials(trials)
        .base_seed(seed_stream(seed, 5))
        .spec()
        .to_json()
}

/// Activations one trial executed: the warm-up up to the start of its sustained streak, the
/// streak itself, and the measured phase.
pub fn trial_activations(trial: &BTreeMap<String, f64>) -> u64 {
    let warmup = trial.get("warmup_activations").map_or(0.0, |w| w + default_window(NODES) as f64);
    (warmup + trial.get("steps").copied().unwrap_or(0.0)) as u64
}

/// Convergence time of every trial, in trial order; `None` where a trial did not converge.
fn convergence_vector(per_trial: &[BTreeMap<String, f64>]) -> Vec<Option<u64>> {
    per_trial
        .iter()
        .map(|trial| {
            let converged = trial.get("converged").copied() == Some(1.0);
            trial.get("convergence_activations").filter(|_| converged).map(|&c| c as u64)
        })
        .collect()
}

pub fn run(ctx: &mut Ctx) -> Result<Measured, String> {
    let mut measured = Measured::default();
    let seed = ctx.seed;
    // Round r runs its own 32 trials: each trial's length depends on its tree and its fault,
    // so one fixed set of 32 would make the whole run as lucky or unlucky as that set.
    let round_scenario = |round: usize| {
        compile_spec(&spec_json(NODES, seed_stream(seed, 100 + round as u64), TRIALS))
    };

    for _ in 0..3 {
        let (warmed, seconds) = timed(|| {
            let warm = ctx.tracer.span("analysis.scenario/decode+compile", 0, |_| {
                compile_spec(&spec_json(NODES, WARMUP_SEED, WARMUP_TRIALS))
            })?;
            ctx.tracer.span("analysis.harness/run_harness(warm-up)", 0, |_| warm.run_harness(1));
            Ok::<(), String>(())
        });
        warmed?;
        measured.setup_s.push(seconds);
    }

    let mut first = Vec::new();
    super::run_rounds(ctx, MIN_ROUNDS, &mut measured, |round, tracer| {
        let scenario = round_scenario(round)?;
        let (report, seconds) = timed(|| {
            tracer.span("analysis.harness/run_harness", round as u64, |_| scenario.run_harness(1))
        });
        let vector = convergence_vector(&report.per_trial);
        let failed = vector.iter().filter(|c| c.is_none()).count() as u64;
        if round == 0 {
            first = vector;
        }
        let ops = report.per_trial.iter().map(trial_activations).sum();
        Ok(Round { ops, seconds, attempted: TRIALS, failed })
    })?;
    // A round is a pure function of its spec: round 0 run again must reproduce round 0.
    let again = convergence_vector(&round_scenario(0)?.run_harness(1).per_trial);
    measured.attempted += TRIALS;
    if again != first {
        eprintln!("conv_trials_31: round 0 did not repeat: {first:?} vs {again:?}");
        measured.failed += TRIALS;
    }

    let converged: Vec<u64> = first.iter().flatten().copied().collect();
    let digest: Vec<(String, u64)> = vec![
        ("trials_converged".to_string(), converged.len() as u64),
        ("convergence_activations_sum".to_string(), converged.iter().sum()),
        ("convergence_activations_max".to_string(), converged.iter().copied().max().unwrap_or(0)),
        ("activations_round_0".to_string(), measured.round_ops[0]),
    ];
    golden_check(ctx, "conv_trials_31", &digest)?;

    // A job is a nominal [`JOB_ACTIVATIONS`] activations, about what 32 trials execute: the
    // round's time scaled to that much work, so that it reads the same whatever trials the
    // seed drew.
    measured.job_ms = measured
        .round_s
        .iter()
        .zip(&measured.round_ops)
        .map(|(secs, &ops)| secs * 1e3 * JOB_ACTIVATIONS as f64 / ops as f64)
        .collect();
    let trials_per_s: Vec<f64> = measured.round_s.iter().map(|s| TRIALS as f64 / s).collect();
    measured.diagnostics.extend([
        Metric::new("trials_per_round", TRIALS as f64, "count"),
        Metric::new("trials_per_s", crate::stats::median(&trials_per_s), "1/s"),
    ]);
    measured.exact = digest;
    Ok(measured)
}
