//! Experiment E12 — bounded-exhaustive verification of the figure-level claims.
//!
//! While E2/E3/E5 *simulate* the behaviours of Figures 2 and 3 and Theorem 1, this experiment
//! *enumerates* every reachable configuration of small instances under every scheduling and
//! reports, per instance: the size of the reachable configuration space, whether a deadlock
//! exists (naive protocol), whether a starvation cycle exists (pusher-only versus with the
//! priority token), and whether closure holds for the full protocol.

use crate::ExperimentReport;
use analysis::ExperimentRow;
use checker::{cycles, drivers, properties, scenarios, Explorer, Limits};
use klex_core::{ladder, KlConfig, Rung};

use crate::support::Scale;

fn limits(max_configurations: usize) -> Limits {
    Limits { max_configurations, max_depth: usize::MAX }
}

/// E12 — exhaustive checking of small instances.
///
/// The instance sizes are fixed by what is exhaustively enumerable, so `scale` only controls
/// the configuration budget (quick scale keeps the same instances but a smaller safety
/// margin on the limits).
pub fn e12_exhaustive(scale: Scale) -> ExperimentReport {
    let budget = if scale.trials <= 2 { 600_000 } else { 2_000_000 };
    let mut rows = Vec::new();

    // --- Naive protocol: a minimal Figure-2 instance (two requesters needing both tokens).
    {
        let tree = topology::builders::chain(3);
        let cfg = KlConfig::new(2, 2, 3);
        let needs = [0usize, 2, 2];
        let mut net = klex_core::naive::network(tree, cfg, drivers::from_needs(&needs));
        let report = Explorer::new(&mut net).with_limits(limits(budget)).run();
        rows.push(
            ExperimentRow::new("naive, chain n=3, l=2, needs 2+2")
                .with("configurations", report.configurations as f64)
                .with("transitions", report.transitions as f64)
                .with("exhaustive", f64::from(u8::from(report.exhaustive())))
                .with("deadlocks_found", report.deadlocks.len() as f64)
                .with(
                    "shortest_deadlock_depth",
                    report.deadlocks.iter().map(|d| d.depth).min().unwrap_or(0) as f64,
                ),
        );
    }

    // --- Pusher-only versus priority-augmented on the exact Figure-3 instance.
    let fig3_needs = [1usize, 2, 1];
    for (label, rung, max_configs) in [
        ("pusher-only, figure-3", Rung::Pusher, budget),
        ("with priority, figure-3", Rung::NonStab, budget * 3),
    ] {
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(2, 3, 3);
        let mut net = ladder::network(rung, tree, cfg, drivers::from_needs_holding(&fig3_needs));
        let mut explorer =
            Explorer::new(&mut net).with_limits(limits(max_configs)).record_graph(true);
        let report = explorer.run();
        let cycle_len = cycles::find_progress_cycle(explorer.graph(), 1).map_or(0, |c| c.len());
        rows.push(
            ExperimentRow::new(label)
                .with("configurations", report.configurations as f64)
                .with("transitions", report.transitions as f64)
                .with("exhaustive", f64::from(u8::from(report.exhaustive())))
                .with("starvation_cycle_found", f64::from(u8::from(cycle_len > 0)))
                .with("cycle_length", cycle_len as f64),
        );
    }

    // --- Closure of the full protocol from a legitimate configuration.
    for (label, tree, l) in [
        ("ss closure, figure-3 tree, l=2", topology::builders::figure3_tree(), 2usize),
        ("ss closure, chain n=3, l=2", topology::builders::chain(3), 2usize),
    ] {
        let cfg = KlConfig::new(2, l, 3).with_cmax(0);
        let mut net =
            scenarios::stabilized_ss(tree, cfg, |_| drivers::AlwaysRequest::boxed(1), 500_000);
        let report = Explorer::new(&mut net)
            .with_limits(limits(budget))
            .with_property(properties::legitimate(cfg))
            .with_property(properties::safety(cfg))
            .run();
        rows.push(
            ExperimentRow::new(label)
                .with("configurations", report.configurations as f64)
                .with("transitions", report.transitions as f64)
                .with("exhaustive", f64::from(u8::from(report.exhaustive())))
                .with("violations", report.violations.len() as f64)
                .with("deadlocks_found", report.deadlocks.len() as f64),
        );
    }

    ExperimentReport {
        title: "E12 — bounded-exhaustive verification (all schedulings of small instances)"
            .to_string(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12_verifies_the_figure_level_claims_exhaustively() {
        let report = e12_exhaustive(Scale::quick());
        assert_eq!(report.rows.len(), 5);
        let by_label = |needle: &str| {
            report
                .rows
                .iter()
                .find(|r| r.label.contains(needle))
                .unwrap_or_else(|| panic!("row {needle} missing"))
        };
        let naive = by_label("naive");
        assert_eq!(naive.metrics["exhaustive"], 1.0);
        assert!(naive.metrics["deadlocks_found"] >= 1.0);
        let pusher = by_label("pusher-only");
        assert_eq!(pusher.metrics["starvation_cycle_found"], 1.0);
        let prio = by_label("with priority");
        assert_eq!(prio.metrics["starvation_cycle_found"], 0.0);
        assert_eq!(prio.metrics["exhaustive"], 1.0);
        for closure in report.rows.iter().filter(|r| r.label.contains("closure")) {
            assert_eq!(closure.metrics["violations"], 0.0, "{}", closure.label);
            assert_eq!(closure.metrics["deadlocks_found"], 0.0);
        }
    }
}
