//! Experiment E6 — Theorem 2: waiting time versus the ℓ(2n−3)² bound.

use crate::support::{Scale, TreeShape};
use crate::ExperimentReport;
use analysis::harness::auto_shards;
use analysis::scenario::{
    DaemonSpec, ProtocolSpec, ScenarioSpec, StopSpec, TopologySpec, WarmupSpec, WorkloadSpec,
};
use analysis::ExperimentRow;
use topology::euler::theorem2_waiting_bound;

/// The E6 regime for one parameter point: saturate every process, stabilize under a fair
/// daemon, then measure waiting times under either the fair daemon or the bounded-unfairness
/// adversary targeting the deepest node (an empty adversarial victim list).
fn e6_spec(
    label: String,
    topology: TopologySpec,
    l: usize,
    adversarial: bool,
    trials: u64,
    scale: &Scale,
) -> ScenarioSpec {
    let daemon = if adversarial {
        DaemonSpec::Adversarial { victims: vec![], patience: 8 }
    } else {
        DaemonSpec::RandomFair { seed: 700 }
    };
    ScenarioSpec::builder(label)
        .topology(topology)
        .protocol(ProtocolSpec::Ss)
        .kl(1, l)
        .workload(WorkloadSpec::Saturated { units: 1, hold: 3 })
        .daemon(daemon)
        .warmup_spec(WarmupSpec {
            max_steps: scale.max_steps,
            window: None,
            daemon: Some(DaemonSpec::RandomFair { seed: 300 }),
        })
        .stop(StopSpec::Steps { steps: scale.measure_steps })
        .metrics(&["waiting_max", "waiting_mean", "converged"])
        .trials(trials)
        .spec()
}

/// E6 — measured waiting time under saturation versus the analytical worst-case bound.
///
/// Every process permanently requests one unit (the situation the proof of Theorem 2
/// considers: every other process may be served while the observed one waits).  After the
/// protocol stabilizes, the waiting time of each satisfied request is measured as the number
/// of critical sections entered by other processes in between (the paper's definition).  The
/// table compares the worst observed value with the bound ℓ(2n−3)², under both a fair random
/// scheduler and an adversarial scheduler that starves the deepest node.
///
/// Each parameter point is one [`ScenarioSpec`] run through the sharded harness backend.
pub fn e6_waiting_time(scale: Scale) -> ExperimentReport {
    let mut rows = Vec::new();
    for shape in TreeShape::all() {
        for &n in &scale.sizes {
            let l = (n / 3).clamp(2, 5);
            let bound = theorem2_waiting_bound(l, n) as f64;
            for (sched_label, adversarial) in [("fair", false), ("adversarial", true)] {
                let topology = shape.to_spec(n, 0);
                let label = format!("{} n={n} l={l} ({sched_label} scheduler)", shape.label());
                let scenario = e6_spec(label, topology, l, adversarial, scale.trials, &scale)
                    .compile()
                    .expect("the E6 scenario validates");
                let report = scenario.run_harness(auto_shards());
                let worst =
                    report.summaries.get("waiting_max").map(|summary| summary.max).unwrap_or(0.0);
                let mean =
                    report.summaries.get("waiting_mean").map(|summary| summary.mean).unwrap_or(0.0);
                rows.push(
                    ExperimentRow::new(report.label)
                        .with("bound_l(2n-3)^2", bound)
                        .with("waiting_worst_observed", worst)
                        .with("waiting_mean", mean)
                        .with("bound_ratio", if bound > 0.0 { worst / bound } else { 0.0 }),
                );
            }
        }
    }
    ExperimentReport {
        title: "E6 — Theorem 2: waiting time (CS entries by others per satisfied request) vs bound"
            .to_string(),
        rows,
    }
}
