//! Experiment E15 — crash-restart failures (the conclusion's "other failure patterns").

use crate::support::{scheduler, Scale, TreeShape};
use crate::ExperimentReport;
use analysis::convergence::{default_window, measure_convergence};
use analysis::{ExperimentRow, Summary};
use klex_core::legitimacy::{count_tokens, safety_holds};
use klex_core::{nonstab, ss, KlConfig};
use treenet::{FaultInjector, NodeId};
use workloads::all_saturated;

/// Which processes are crash-restarted in one E15 scenario.
#[derive(Clone, Copy, Debug)]
enum Victims {
    /// One leaf process (the last node of the builders used here is always a leaf).
    OneLeaf,
    /// The root.
    Root,
    /// Half of the processes, chosen at random per trial.
    HalfRandom,
    /// Every process.
    All,
}

impl Victims {
    fn label(self) -> &'static str {
        match self {
            Victims::OneLeaf => "one leaf",
            Victims::Root => "the root",
            Victims::HalfRandom => "half the processes",
            Victims::All => "every process",
        }
    }

    fn pick(
        self,
        n: usize,
        injector: &mut FaultInjector,
        net: &mut treenet::Network<ss::SsNode, topology::OrientedTree>,
        lose_incoming: bool,
    ) -> usize {
        match self {
            Victims::OneLeaf => injector.crash(net, &[n - 1], lose_incoming).nodes_crashed,
            Victims::Root => injector.crash(net, &[0], lose_incoming).nodes_crashed,
            Victims::HalfRandom => injector.crash_random(net, n / 2, lose_incoming).1.nodes_crashed,
            Victims::All => {
                let all: Vec<NodeId> = (0..n).collect();
                injector.crash(net, &all, lose_incoming).nodes_crashed
            }
        }
    }
}

/// E15 — crash-restart recovery of the self-stabilizing protocol, and what the same failure
/// does to the non-stabilizing rung.
///
/// A crash-restart wipes a process's local state back to its boot-time value and loses the
/// messages addressed to it.  For the self-stabilizing protocol this is just another
/// transient fault: tokens held by (or in flight towards) the crashed processes disappear,
/// the controller detects the deficit and re-creates them, so the table reports the measured
/// re-convergence time per victim set.  The non-stabilizing protocol has no repair mechanism:
/// a crash-restarted *root* re-creates its ℓ initial tokens, the population permanently
/// doubles, and under a saturated workload the safety property (`at most ℓ units in use`) is
/// violated — the last rows quantify that.
pub fn e15_crash_recovery(scale: Scale) -> ExperimentReport {
    let mut rows = Vec::new();

    // --- Self-stabilizing protocol: recovery time per victim set. --------------------------
    for shape in [TreeShape::Binary, TreeShape::Chain] {
        for &n in &scale.sizes {
            let l = (n / 2).clamp(2, 6);
            let k = (l / 2).max(1);
            for victims in [Victims::OneLeaf, Victims::Root, Victims::HalfRandom, Victims::All] {
                let mut times = Vec::new();
                let mut converged = 0u64;
                for seed in 0..scale.trials {
                    let cfg = KlConfig::new(k, l, n);
                    let tree = shape.build(n, seed);
                    let mut sched = scheduler(2_300 + seed);
                    let mut net = ss::network(tree, cfg, all_saturated(k, 8));
                    let boot = measure_convergence(
                        &mut net,
                        &mut sched,
                        &cfg,
                        scale.max_steps,
                        default_window(n),
                    );
                    if !boot.converged() {
                        continue;
                    }
                    let fault_at = net.now();
                    let mut injector = FaultInjector::new(7_000 + seed);
                    let crashed = victims.pick(n, &mut injector, &mut net, true);
                    debug_assert!(crashed >= 1);
                    let out = measure_convergence(
                        &mut net,
                        &mut sched,
                        &cfg,
                        scale.max_steps,
                        default_window(n),
                    );
                    if let Some(t) = out.stabilization_time() {
                        converged += 1;
                        times.push((t - fault_at) as f64);
                    }
                }
                rows.push(
                    ExperimentRow::new(format!(
                        "self-stabilizing, {} n={n} — crash {}",
                        shape.label(),
                        victims.label()
                    ))
                    .with("converged_fraction", converged as f64 / scale.trials as f64)
                    .with_summary("reconvergence_activations", &Summary::of(&times)),
                );
            }
        }
    }

    // --- Non-stabilizing rung: a crashed root permanently corrupts the token population. ---
    let mut surplus_runs = 0.0;
    let mut safety_violation_runs = 0.0;
    let mut surplus_tokens = Vec::new();
    for seed in 0..scale.trials {
        let n = 7;
        let cfg = KlConfig::new(2, 3, n);
        let tree = topology::builders::binary(n);
        let mut sched = scheduler(9_100 + seed);
        let mut net = nonstab::network(tree, cfg, all_saturated(2, 40));
        treenet::run_for(&mut net, &mut sched, 40_000);
        let mut injector = FaultInjector::new(9_200 + seed);
        injector.crash(&mut net, &[0], false);
        // Give the restarted root time to re-create its tokens and the requesters time to
        // absorb the surplus.
        let mut violated = false;
        for _ in 0..scale.measure_steps {
            net.step_event(&mut sched);
            if !safety_holds(&net, &cfg) {
                violated = true;
                break;
            }
        }
        let census = count_tokens(&net);
        if census.resource > cfg.l {
            surplus_runs += 1.0;
        }
        surplus_tokens.push(census.resource.saturating_sub(cfg.l) as f64);
        if violated {
            safety_violation_runs += 1.0;
        }
    }
    rows.push(
        ExperimentRow::new("non-stabilizing (no controller), binary n=7 — crash the root")
            .with("token_surplus_fraction", surplus_runs / scale.trials as f64)
            .with("surplus_resource_tokens_mean", Summary::of(&surplus_tokens).mean)
            .with("safety_violated_fraction", safety_violation_runs / scale.trials as f64),
    );

    ExperimentReport {
        title: "E15 — crash-restart failures: recovery of the self-stabilizing protocol vs the \
                non-stabilizing rung"
            .to_string(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_ss_recovers_from_crashes_and_nonstab_does_not() {
        let scale = Scale::quick();
        let report = e15_crash_recovery(scale.clone());
        // 2 shapes × |sizes| × 4 victim sets for the self-stabilizing protocol, plus the
        // non-stabilizing row.
        assert_eq!(report.rows.len(), 2 * scale.sizes.len() * 4 + 1);
        for row in report.rows.iter().filter(|r| r.label.starts_with("self-stabilizing")) {
            assert_eq!(row.metrics["converged_fraction"], 1.0, "{}", row.label);
        }
        // Crashing a single process may leave the configuration legitimate (it held nothing),
        // but crashing every process with message loss wipes every token, so those rows must
        // measure a strictly positive recovery time.
        for row in report.rows.iter().filter(|r| r.label.contains("crash every process")) {
            assert!(row.metrics["reconvergence_activations_mean"] > 0.0, "{}", row.label);
        }
        let nonstab = report
            .rows
            .iter()
            .find(|r| r.label.starts_with("non-stabilizing"))
            .expect("non-stabilizing row present");
        // The crashed root re-creates its ℓ tokens; without a controller the surplus is never
        // repaired and safety is eventually violated under a saturated workload.
        assert_eq!(nonstab.metrics["token_surplus_fraction"], 1.0);
        assert!(nonstab.metrics["surplus_resource_tokens_mean"] >= 1.0);
        assert!(nonstab.metrics["safety_violated_fraction"] > 0.0);
    }
}
