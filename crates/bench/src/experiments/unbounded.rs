//! Experiment E14 — the conclusion's unbounded-memory adaptation: bounded vs unbounded
//! counter-flushing domains when the CMAX assumption is violated.

use crate::support::{Scale, TreeShape};
use crate::ExperimentReport;
use analysis::convergence::{default_window, measure_convergence};
use analysis::scenario::{ConfigSpec, DaemonSpec, ProtocolSpec, ScenarioSpec, WorkloadSpec};
use analysis::{ExperimentRow, Summary};
use klex_core::{ss, KlConfig, Message};
use topology::Topology;
use treenet::{Event, Note};

/// How the counter-flushing domain is sized in one E14 variant.
#[derive(Clone, Copy, Debug)]
enum Domain {
    /// The paper's bounded domain `[0 .. 2(n−1)(CMAX+1)]`, with CMAX sized for the injected
    /// garbage — the assumption of the paper holds.
    BoundedHonest,
    /// The bounded domain sized for `CMAX = 0`, while the injected garbage is far larger —
    /// the assumption of the paper is violated.
    BoundedViolated,
    /// The unbounded domain of the conclusion's adaptation (`KlConfig::unbounded_counter`);
    /// CMAX is irrelevant.
    Unbounded,
}

impl Domain {
    fn label(self) -> &'static str {
        match self {
            Domain::BoundedHonest => "bounded, CMAX honoured",
            Domain::BoundedViolated => "bounded, CMAX violated",
            Domain::Unbounded => "unbounded (conclusion's adaptation)",
        }
    }

    fn config(self, k: usize, l: usize, garbage_per_channel: usize) -> ConfigSpec {
        match self {
            Domain::BoundedHonest => ConfigSpec::new(k, l).with_cmax(garbage_per_channel),
            Domain::BoundedViolated => ConfigSpec::new(k, l).with_cmax(0),
            Domain::Unbounded => ConfigSpec::new(k, l).with_cmax(0).with_unbounded_counter(true),
        }
    }
}

/// Floods every channel with `garbage_per_channel` forged controller messages whose stamps
/// cycle over the *bounded* counter domain (the worst case for counter flushing: every value
/// the bounded root could ever pick is already present somewhere), plus one forged resource
/// token per channel.  Returns the number of messages injected.
fn inject_adversarial_garbage(
    net: &mut treenet::Network<ss::SsNode, topology::OrientedTree>,
    bounded_modulus: u64,
    garbage_per_channel: usize,
) -> usize {
    let mut injected = 0;
    let n = net.len();
    for v in 0..n {
        let degree = net.topology().degree(v);
        for l in 0..degree {
            for i in 0..garbage_per_channel {
                let stamp = (v as u64 + l as u64 + i as u64) % bounded_modulus.max(1);
                net.inject_into(v, l, Message::Ctrl { c: stamp, r: false, pt: 0, ppr: 0 });
                injected += 1;
            }
            net.inject_into(v, l, Message::ResT);
            injected += 1;
        }
    }
    injected
}

/// E14 — what the bounded counter domain buys, and what it costs when its sizing assumption
/// fails.
///
/// The paper needs the `CMAX` bound on initial channel garbage to size the counter-flushing
/// domain (`myC ∈ [0 .. 2(n−1)(CMAX+1)]`); its conclusion notes that with unbounded process
/// memory the assumption can be dropped (the paper's reference \[9\], Katz–Perry).  This
/// experiment stabilizes the network, then floods the channels with far more forged controllers (whose
/// stamps cover the whole bounded domain) and forged tokens than `CMAX` allows, and measures
/// re-convergence for three domain policies: bounded with an honest CMAX, bounded with a
/// violated CMAX, and the unbounded adaptation.
pub fn e14_unbounded_counter(scale: Scale) -> ExperimentReport {
    let mut rows = Vec::new();
    let garbage_per_channel = 12usize;
    for shape in [TreeShape::Chain, TreeShape::Random] {
        for &n in &scale.sizes {
            let l = (n / 2).clamp(2, 6);
            let k = (l / 2).max(1);
            for domain in [Domain::BoundedHonest, Domain::BoundedViolated, Domain::Unbounded] {
                let mut times = Vec::new();
                let mut resets = Vec::new();
                let mut converged = 0u64;
                for seed in 0..scale.trials {
                    // The regime of this trial as a declarative scenario; the adversarial
                    // garbage flood below is experiment-specific and stays hand-driven.
                    let topology = shape.to_spec(n, seed);
                    let scenario = ScenarioSpec::builder(format!(
                        "e14 {} n={n} {} seed={seed}",
                        shape.label(),
                        domain.label()
                    ))
                    .topology(topology)
                    .protocol(ProtocolSpec::Ss)
                    .config(domain.config(k, l, garbage_per_channel))
                    .workload(WorkloadSpec::Uniform {
                        seed,
                        p_request: 0.01,
                        max_units: k,
                        max_hold: 20,
                    })
                    .daemon(DaemonSpec::RandomFair { seed: 1_400 + seed })
                    .build()
                    .expect("the E14 scenario validates");
                    let cfg = scenario.spec().config.to_kl(n);
                    // The stamps of the forged controllers are drawn from the domain a
                    // *violated* bounded configuration would use, which is the aliasing
                    // worst case for that configuration.
                    let bounded_modulus = KlConfig::new(k, l, n).with_cmax(0).counter_modulus(n);
                    let mut sched = scenario.make_daemon();
                    let mut net = scenario.build_ss().expect("E14 runs the full protocol");
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
                    net.trace_mut().clear();
                    let fault_at = net.now();
                    inject_adversarial_garbage(&mut net, bounded_modulus, garbage_per_channel);
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
                    resets.push(
                        net.trace()
                            .events()
                            .iter()
                            .filter(|e| matches!(e.event, Event::Note(Note::ResetStart)))
                            .count() as f64,
                    );
                }
                rows.push(
                    ExperimentRow::new(format!("{} n={n} — {}", shape.label(), domain.label()))
                        .with("converged_fraction", converged as f64 / scale.trials as f64)
                        .with("resets_during_recovery_mean", Summary::of(&resets).mean)
                        .with_summary("reconvergence_activations", &Summary::of(&times)),
                );
            }
        }
    }
    ExperimentReport {
        title: "E14 — bounded vs unbounded counter-flushing domain under garbage ≫ CMAX"
            .to_string(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_every_domain_policy_recovers_from_finite_garbage() {
        let scale = Scale::quick();
        let report = e14_unbounded_counter(scale.clone());
        // 2 shapes × |sizes| × 3 domain policies.
        assert_eq!(report.rows.len(), 2 * scale.sizes.len() * 3);
        for row in &report.rows {
            // The injected garbage is finite, so every policy eventually flushes it; the
            // difference the full-scale table shows up in recovery time and reset counts.
            assert_eq!(row.metrics["converged_fraction"], 1.0, "{}", row.label);
            assert!(row.metrics["reconvergence_activations_mean"] > 0.0, "{}", row.label);
            assert!(row.metrics["resets_during_recovery_mean"] >= 0.0);
        }
        // The unbounded adaptation never needs to guess CMAX; its rows must be present.
        assert!(report.rows.iter().any(|r| r.label.contains("unbounded")));
    }
}
