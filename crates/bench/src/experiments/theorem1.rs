//! Experiment E5 — Theorem 1: convergence from arbitrary configurations.

use crate::support::{Scale, TreeShape};
use crate::ExperimentReport;
use analysis::convergence::default_window;
use analysis::harness::auto_shards;
use analysis::scenario::{
    DaemonSpec, FaultPlanSpec, ProtocolSpec, ScenarioSpec, StopSpec, TopologySpec, WorkloadSpec,
};
use analysis::{ExperimentRow, Summary};

/// The E5 regime for one parameter point, as a declarative scenario: stabilize under a fair
/// daemon, inject the transient fault, and measure the activations until legitimacy is
/// sustained again.
fn e5_spec(
    label: String,
    topology: TopologySpec,
    k: usize,
    l: usize,
    plan: FaultPlanSpec,
    scale: &Scale,
) -> ScenarioSpec {
    let n = topology.len();
    ScenarioSpec::builder(label)
        .topology(topology)
        .protocol(ProtocolSpec::Ss)
        .kl(k, l)
        .workload(WorkloadSpec::Uniform { seed: 0, p_request: 0.01, max_units: k, max_hold: 20 })
        .daemon(DaemonSpec::RandomFair { seed: 50 })
        .warmup(scale.max_steps)
        .fault(900, plan)
        .stop(StopSpec::Predicate {
            name: "legitimate".into(),
            max_steps: scale.max_steps,
            sustained_for: default_window(n),
        })
        .metrics(&["converged", "convergence_activations", "warmup_activations"])
        .trials(scale.trials)
        .spec()
}

/// E5 — convergence time of the self-stabilizing protocol.
///
/// For every tree shape and size, the network is first stabilized, then hit with a transient
/// fault of the given severity (catastrophic = every local state corrupted and channels
/// refilled with ≤ CMAX garbage; moderate = half the nodes corrupted plus message
/// loss/duplication; message-only = forged/duplicated/lost messages), and the time until
/// legitimacy is sustained again is measured, in activations.  Theorem 1 claims convergence
/// always happens; the table reports the measured distribution and the fraction of trials
/// that converged within the step budget.
///
/// Each parameter point is one [`ScenarioSpec`] run through the sharded harness backend
/// (per-trial seeds are a function of the trial index alone, so the table is identical at any
/// shard count).
pub fn e5_convergence(scale: Scale) -> ExperimentReport {
    let mut rows = Vec::new();
    let severities: [(&str, FaultPlanSpec); 3] = [
        ("catastrophic", FaultPlanSpec::Catastrophic),
        ("moderate", FaultPlanSpec::Moderate),
        ("message-only", FaultPlanSpec::MessageOnly),
    ];
    for shape in [TreeShape::Chain, TreeShape::Star, TreeShape::Random] {
        for &n in &scale.sizes {
            let l = (n / 2).clamp(2, 6);
            let k = (l / 2).max(1);
            for (sev_label, plan) in severities {
                let topology = shape.to_spec(n, 0);
                let label = format!("{} n={n} l={l} {sev_label}", shape.label());
                let scenario = e5_spec(label, topology, k, l, plan, &scale)
                    .compile()
                    .expect("the E5 scenario validates");
                let report = scenario.run_harness(auto_shards());
                let times: Vec<f64> = report
                    .per_trial
                    .iter()
                    .filter_map(|trial| trial.get("convergence_activations").copied())
                    .collect();
                // Exhausted trials (no convergence measurement) are counted in the
                // distribution's dedicated bucket, never folded into the max bucket.
                let distribution = report.distribution("convergence_activations", 16);
                rows.push(
                    ExperimentRow::new(report.label.clone())
                        .with("converged_fraction", report.fraction("converged"))
                        .with("exhausted_trials", distribution.exhausted as f64)
                        .with_summary("convergence_activations", &Summary::of(&times)),
                );
            }
        }
    }
    ExperimentReport {
        title: "E5 — Theorem 1: convergence time after transient faults (activations)".to_string(),
        rows,
    }
}
