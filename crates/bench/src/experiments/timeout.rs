//! Experiment E13 — ablation of the root's timeout interval.
//!
//! The paper only requires the timeout used to retransmit the controller to be "sufficiently
//! large to prevent congestion" (footnote 4).  This experiment quantifies the trade-off the
//! implementation has to make:
//!
//! * an interval that is too **small** floods the network with duplicate controllers — they
//!   are all flushed by the counter-flushing machinery (no correctness impact) but cost
//!   messages and spurious timeouts;
//! * an interval that is too **large** delays recovery from the one fault class that *needs*
//!   the timeout: loss of the controller itself (without a controller the token census is
//!   never re-checked, so a lost controller would otherwise never be replaced).
//!
//! For each interval the table reports steady-state controller traffic and timeout events,
//! and the re-convergence time after every in-flight controller message is deleted.

use crate::support::Scale;
use crate::ExperimentReport;
use analysis::convergence::{default_window, measure_convergence};
use analysis::scenario::{
    ConfigSpec, DaemonSpec, ProtocolSpec, ScenarioSpec, TopologySpec, WorkloadSpec,
};
use analysis::{ExperimentRow, Summary};
use klex_core::{ss, KlConfig, Message};
use topology::Topology;
use treenet::{Event, Note};

/// Deletes every in-flight controller message — the fault class the timeout exists for.
fn drop_all_controllers(net: &mut treenet::Network<ss::SsNode, topology::OrientedTree>) {
    for v in 0..net.len() {
        for l in 0..net.topology().degree(v) {
            let kept: Vec<Message> =
                net.channel(v, l).iter().copied().filter(|m| !m.is_ctrl()).collect();
            let mut ch = net.channel_mut(v, l);
            ch.clear();
            for m in kept {
                ch.push(m);
            }
        }
    }
}

/// E13 — controller-timeout sweep.
pub fn e13_timeout_sweep(scale: Scale) -> ExperimentReport {
    let n = 9usize;
    let l = 3usize;
    let k = 2usize;
    // The timeout counts *root* activations; under a fair scheduler the root is activated
    // roughly once every n global activations, and a controller circulation takes about
    // 2(n−1) message hops, i.e. a couple of dozen root activations.  "Tiny" is therefore
    // chosen below one circulation (so the timer fires spuriously), "small" around one
    // circulation, and the default far above it.
    let default = KlConfig::default_timeout(n);
    let intervals: [(&str, u64); 4] = [
        ("tiny (4 root ticks)", 4),
        ("small (16 root ticks)", 16),
        ("default", default),
        ("huge (8x default)", 8 * default),
    ];
    let mut rows = Vec::new();
    for (label, interval) in intervals {
        let mut ctrl_per_1k = Vec::new();
        let mut timeouts_per_1k = Vec::new();
        let mut recovery = Vec::new();
        let mut recovered = 0u64;
        let mut converged = 0u64;
        for seed in 0..scale.trials {
            // The regime of this trial as a declarative scenario; the custom two-phase
            // measurement below (steady-state traffic, then controller loss) drives the
            // compiled network by hand.
            let scenario = ScenarioSpec::builder(format!("e13 timeout={label} seed={seed}"))
                .topology(TopologySpec::Random { n, seed: 7_000 + seed })
                .protocol(ProtocolSpec::Ss)
                .config(ConfigSpec::new(k, l).with_timeout(interval))
                .workload(WorkloadSpec::Saturated { units: 1, hold: 8 })
                .daemon(DaemonSpec::RandomFair { seed: 2_300 + seed })
                .build()
                .expect("the E13 scenario validates");
            let cfg = scenario.spec().config.to_kl(n);
            let mut sched = scenario.make_daemon();
            let mut net = scenario.build_ss().expect("E13 runs the full protocol");
            let boot =
                measure_convergence(&mut net, &mut sched, &cfg, scale.max_steps, default_window(n));
            if !boot.converged() {
                continue;
            }
            converged += 1;
            // Steady-state controller traffic.
            net.trace_mut().clear();
            net.metrics_mut().reset();
            for _ in 0..scale.measure_steps {
                net.step_event(&mut sched);
            }
            let ctrl_msgs = net.metrics().sent_of_kind("ctrl") as f64;
            let timeout_events = net
                .trace()
                .events()
                .iter()
                .filter(|e| matches!(e.event, Event::Note(Note::Timeout)))
                .count() as f64;
            ctrl_per_1k.push(ctrl_msgs * 1_000.0 / scale.measure_steps as f64);
            timeouts_per_1k.push(timeout_events * 1_000.0 / scale.measure_steps as f64);

            // Drop the controller and measure how long until a *new* controller circulation
            // completes — the repair the timeout exists for.  (The token census itself is not
            // disturbed by losing the controller, so legitimacy is not the right yardstick
            // here: without a controller the system merely loses its ability to repair
            // *future* faults.)
            drop_all_controllers(&mut net);
            let drop_at = net.now();
            let mut new_circulation_at = None;
            for _ in 0..scale.max_steps {
                net.step_event(&mut sched);
                if let Some(ev) =
                    net.trace().events().iter().rev().find(|e| {
                        matches!(e.event, Event::Note(Note::Circulation)) && e.at > drop_at
                    })
                {
                    new_circulation_at = Some(ev.at);
                    break;
                }
            }
            if let Some(at) = new_circulation_at {
                recovered += 1;
                recovery.push(at - drop_at);
            }
        }
        rows.push(
            ExperimentRow::new(format!("timeout = {label}"))
                .with("interval_activations", interval as f64)
                .with("converged_fraction", converged as f64 / scale.trials as f64)
                .with("ctrl_messages_per_1k_activations", Summary::of(&ctrl_per_1k).mean)
                .with("timeouts_per_1k_activations", Summary::of(&timeouts_per_1k).mean)
                .with("new_circulation_fraction", recovered as f64 / scale.trials as f64)
                .with_summary("activations_until_new_circulation", &Summary::of_u64(&recovery)),
        );
    }
    ExperimentReport {
        title:
            "E13 — controller-timeout ablation (duplicate traffic vs recovery from controller loss)"
                .to_string(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_shows_the_expected_tradeoff() {
        let report = e13_timeout_sweep(Scale::quick());
        assert_eq!(report.rows.len(), 4);
        let tiny = &report.rows[0].metrics;
        let default = &report.rows[2].metrics;
        let huge = &report.rows[3].metrics;
        // The recommended (default) and larger intervals always bootstrap and always replace a
        // lost controller.
        for row in &report.rows[2..] {
            assert_eq!(row.metrics["converged_fraction"], 1.0, "{}", row.label);
            assert_eq!(row.metrics["new_circulation_fraction"], 1.0, "{}", row.label);
        }
        // A too-small interval either pays in duplicate controller traffic / spurious
        // timeouts, or it outright disturbs stabilization — both illustrate the paper's
        // "sufficiently large" requirement.
        let tiny_pays_in_traffic = tiny["ctrl_messages_per_1k_activations"]
            >= default["ctrl_messages_per_1k_activations"]
            && tiny["timeouts_per_1k_activations"] > default["timeouts_per_1k_activations"];
        let tiny_disturbs =
            tiny["converged_fraction"] < 1.0 || tiny["new_circulation_fraction"] < 1.0;
        assert!(tiny_pays_in_traffic || tiny_disturbs);
        // Replacing a lost controller cannot be faster with a huge interval than with the
        // default one (the timeout is the only mechanism that replaces it).
        assert!(
            huge["activations_until_new_circulation_mean"]
                >= default["activations_until_new_circulation_mean"]
        );
    }
}
