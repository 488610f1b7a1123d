//! Experiment E7 — the (k,ℓ)-liveness (efficiency) property.

use crate::support::{scheduler, Scale};
use crate::ExperimentReport;
use analysis::ExperimentRow;
use klex_core::{ss, KlConfig};
use treenet::app::BoxedDriver;
use workloads::{Heterogeneous, PinnedInCs};

/// E7 — (k,ℓ)-liveness: even when a set `I` of processes holds α units *forever*, requesters
/// asking for at most ℓ − α units are still served.
///
/// On the Figure-1 tree (ℓ = 5, k = 3) two processes are pinned inside their critical
/// sections holding α = 3 units in total; the remaining requesters ask for at most
/// ℓ − α = 2 units each and must all keep being served.  A control row pins α = ℓ units to
/// show that the property's precondition matters: with nothing left, nobody else can enter.
pub fn e7_kl_liveness(scale: Scale) -> ExperimentReport {
    let mut rows = Vec::new();
    for (label, pinned_units, free_request) in [
        ("I holds 3 of 5 units, others request 2", vec![(2usize, 2usize), (5, 1)], 2usize),
        ("I holds 4 of 5 units, others request 1", vec![(2, 2), (5, 2)], 1),
        ("control: I holds all 5 units", vec![(2, 3), (5, 2)], 1),
    ] {
        let mut served_runs = 0.0;
        let mut entries_others = 0.0;
        for seed in 0..scale.trials {
            let cfg = KlConfig::new(3, 5, 8);
            let tree = topology::builders::figure1_tree();
            let pinned = pinned_units.clone();
            let mut net = ss::network(tree, cfg, move |id| {
                if let Some(&(_, units)) = pinned.iter().find(|(node, _)| *node == id) {
                    Box::new(PinnedInCs::new(units)) as BoxedDriver
                } else if id == 0 || id == 3 || id == 6 || id == 7 {
                    Box::new(Heterogeneous { units: free_request, hold: 5 }) as BoxedDriver
                } else {
                    Box::new(Heterogeneous { units: 0, hold: 1 }) as BoxedDriver
                }
            });
            let mut sched = scheduler(40 + seed);
            let horizon = scale.max_steps.min(1_500_000);
            treenet::run_for(&mut net, &mut sched, horizon);
            // Judge the steady state: only critical-section entries in the second half of the
            // run count, after the pinned processes have had ample time to acquire their
            // units and the protocol to stabilize.
            let requesters = [0usize, 3, 6, 7];
            let late_entries_of = |v: usize| {
                net.trace()
                    .in_window(horizon / 2, horizon + 1)
                    .filter(|e| {
                        e.node as usize == v && matches!(e.event, treenet::Event::EnterCs { .. })
                    })
                    .count()
            };
            let entries: usize = requesters.iter().map(|&v| late_entries_of(v)).sum();
            let total_pinned: usize = pinned_units.iter().map(|(_, u)| *u).sum();
            entries_others += entries as f64;
            let satisfied = if total_pinned >= 5 {
                // Control: with no unit left, (k,ℓ)-liveness does not apply; the expected
                // steady state is that nobody else enters any more.
                entries == 0
            } else {
                requesters.iter().all(|&v| late_entries_of(v) >= 1)
            };
            if satisfied {
                served_runs += 1.0;
            }
        }
        rows.push(
            ExperimentRow::new(label)
                .with("expected_outcome_fraction", served_runs / scale.trials as f64)
                .with("cs_entries_by_non_pinned", entries_others / scale.trials as f64),
        );
    }
    ExperimentReport {
        title: "E7 — (k,ℓ)-liveness: service while a set I holds α units forever".to_string(),
        rows,
    }
}
