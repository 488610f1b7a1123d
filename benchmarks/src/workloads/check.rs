//! `check_mixed`: exhaustive certification of two small instances per round.
//!
//! Instance A (pusher rung on a 7-node star) is a wide, shallow state graph; instance B (the
//! self-stabilizing protocol on the Figure-3 tree) is narrow and deep and also records the
//! graph and runs the SCC liveness pass.  Together they price the checker's
//! restore → execute → re-encode → intern → revert loop.  Exhaustive exploration has no
//! randomness, so this workload is the same for every seed.

use super::{compile_spec, timed, Ctx, Measured, Round};
use crate::report::Metric;
use analysis::scenario::{
    CheckSpec, CompiledScenario, ProtocolSpec, ScenarioSpec, TopologySpec, WorkloadSpec,
};
use checker::ExplorationReport;

/// One instance with the exact size of its reachable configuration space.
pub struct Instance {
    pub configurations: usize,
    pub transitions: usize,
    pub max_depth: usize,
}

pub const STAR7: Instance =
    Instance { configurations: 224_493, transitions: 2_193_196, max_depth: 59 };
pub const SSFIG3: Instance =
    Instance { configurations: 192_961, transitions: 1_084_273, max_depth: 385 };

const MIN_ROUNDS: usize = 3;

pub fn star7_json() -> String {
    ScenarioSpec::builder("benchmark check A: pusher on star7")
        .topology(TopologySpec::Star { n: 7 })
        .protocol(ProtocolSpec::Pusher)
        .kl(2, 3)
        .workload(WorkloadSpec::Needs { needs: vec![0, 2, 1, 2, 1, 1, 1], hold: 1 })
        .check(CheckSpec {
            max_configurations: 1_000_000,
            properties: vec!["safety".into()],
            ..CheckSpec::default()
        })
        .spec()
        .to_json()
}

/// Instance B; `liveness` off gives the same exploration without graph recording and the
/// fair-cycle pass, which is how the traced run prices that pass.
pub fn ssfig3_json(liveness: bool) -> String {
    let mut properties = vec!["safety".to_string()];
    if liveness {
        properties.push("liveness".to_string());
    }
    ScenarioSpec::builder("benchmark check B: ss on figure3")
        .topology(TopologySpec::Figure3)
        .protocol(ProtocolSpec::Ss)
        .kl(2, 3)
        .workload(WorkloadSpec::Saturated { units: 1, hold: 0 })
        .check(CheckSpec { max_configurations: 300_000, properties, ..CheckSpec::default() })
        .spec()
        .to_json()
}

/// One sequential exhaustive exploration.
pub fn explore(scenario: &CompiledScenario) -> Result<ExplorationReport, String> {
    scenario.check_observed(Some(1), None).map_err(|e| e.to_string())
}

/// True when the report is the full, clean certification of `instance`.
pub fn certified(instance: &Instance, report: &ExplorationReport) -> bool {
    report.exhaustive()
        && report.configurations == instance.configurations
        && report.transitions == instance.transitions
        && report.max_depth == instance.max_depth
        && report.violations.is_empty()
        && report.liveness.is_empty()
}

pub fn run(ctx: &mut Ctx) -> Result<Measured, String> {
    let mut measured = Measured::default();
    let (star7_spec, ssfig3_spec) = (star7_json(), ssfig3_json(true));

    let mut scenarios = None;
    for _ in 0..3 {
        let (warmed, seconds) = timed(|| {
            let (star7, ssfig3) = (compile_spec(&star7_spec)?, compile_spec(&ssfig3_spec)?);
            ctx.tracer.span("checker.explore/check(warm-up)", 0, |_| {
                explore(&star7).and(explore(&ssfig3))
            })?;
            Ok::<_, String>((star7, ssfig3))
        });
        scenarios = Some(warmed?);
        measured.setup_s.push(seconds);
    }
    let (star7, ssfig3) = scenarios.expect("three set-up passes ran");

    let mut counts = [0usize; 3];
    super::run_rounds(ctx, MIN_ROUNDS, &mut measured, |round, tracer| {
        let (reports, seconds) = timed(|| {
            let a = tracer.span("checker.explore/check(star7)", round as u64, |_| explore(&star7));
            let b =
                tracer.span("checker.explore/check(ssfig3)", round as u64, |_| explore(&ssfig3));
            (a, b)
        });
        let (a, b) = (reports.0?, reports.1?);
        let failed = u64::from(!certified(&STAR7, &a)) + u64::from(!certified(&SSFIG3, &b));
        counts = [
            a.configurations + b.configurations,
            a.transitions + b.transitions,
            a.arena_bytes + b.arena_bytes,
        ];
        Ok(Round { ops: counts[0] as u64, seconds, attempted: 2, failed })
    })?;

    measured.diagnostics.push(Metric::new("arena_bytes", counts[2] as f64, "B"));
    measured.exact = ["configurations", "transitions", "arena_bytes"]
        .iter()
        .zip(counts)
        .map(|(name, count)| (name.to_string(), count as u64))
        .collect();
    Ok(measured)
}
