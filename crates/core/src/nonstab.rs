//! Rung 3 of the protocol ladder: resource tokens + pusher + **priority** token.
//!
//! The priority token (`PrioT`) cancels the effect of the pusher for one process at a time.
//! A process that receives the priority token keeps it while it has an unsatisfied request
//! (variable `Prio` records the arrival channel); while holding it, the process does **not**
//! release its reserved resource tokens when the pusher arrives.  When its request is
//! satisfied (or if it has none), the priority token is forwarded along the virtual ring.
//!
//! This removes the starvation of Figure 3 and yields a correct k-out-of-ℓ exclusion
//! protocol — but not a fault-tolerant one: tokens lost or duplicated by a transient fault
//! are never repaired.  Rung 4 ([`crate::ss`]) adds the counter-flushing controller for that.
//!
//! The process is a [`LadderNode`] on [`Rung::NonStab`].

use crate::config::KlConfig;
use crate::ladder::{self, LadderNode, Rung};
use topology::OrientedTree;
use treenet::app::BoxedDriver;
use treenet::{Network, NodeId};

/// Builds a network of non-stabilizing [`LadderNode`]s over `tree`.
///
/// # Panics
///
/// Panics if the tree has fewer than two nodes.
pub fn network(
    tree: OrientedTree,
    cfg: KlConfig,
    driver_for: impl FnMut(NodeId) -> BoxedDriver,
) -> Network<LadderNode, OrientedTree> {
    ladder::network(Rung::NonStab, tree, cfg, driver_for)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legitimacy::{count_tokens, safety_holds};
    use treenet::app::Idle;
    use treenet::{run_until, RandomFair, RoundRobin};
    use workloads::Saturated;

    /// Figure 3 workload on the 3-node tree: r and b request 1 unit, a requests 2, with
    /// l = 3 and k = 2 (2-out-of-3 exclusion).
    fn figure3_workload(id: NodeId) -> BoxedDriver {
        match id {
            1 => Box::new(Saturated { units: 2, hold: 4 }),
            0 | 2 => Box::new(Saturated { units: 1, hold: 4 }),
            _ => Box::new(Idle),
        }
    }

    #[test]
    fn priority_prevents_figure3_starvation() {
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(2, 3, 3);
        let mut net = network(tree, cfg, figure3_workload);
        let mut sched = RoundRobin::new();
        let (mut cursor, mut entries) =
            (treenet::EnterCsCursor::default(), vec![0usize; net.len()]);
        let out = run_until(&mut net, &mut sched, 500_000, |n| {
            cursor.advance(n.trace(), |v| entries[v] += 1);
            entries[1] >= 5
        });
        assert!(
            out.is_satisfied(),
            "with the priority token the large requester (node a) must keep entering its CS"
        );
    }

    #[test]
    fn every_requester_is_served_under_saturation() {
        let tree = topology::builders::figure1_tree();
        let cfg = KlConfig::new(3, 5, 8);
        let mut net = network(tree, cfg, |id| match id {
            1 => Box::new(Saturated { units: 3, hold: 5 }) as BoxedDriver,
            2..=4 => Box::new(Saturated { units: 2, hold: 5 }) as BoxedDriver,
            _ => Box::new(Idle) as BoxedDriver,
        });
        let mut sched = RandomFair::new(7);
        let (mut cursor, mut entries) =
            (treenet::EnterCsCursor::default(), vec![0usize; net.len()]);
        let out = run_until(&mut net, &mut sched, 800_000, |n| {
            cursor.advance(n.trace(), |v| entries[v] += 1);
            entries[1..=4].iter().all(|&e| e >= 2)
        });
        assert!(out.is_satisfied(), "fairness: every requester repeatedly enters its CS");
    }

    #[test]
    fn exactly_one_priority_token_exists() {
        let tree = topology::builders::binary(7);
        let cfg = KlConfig::new(1, 2, 7);
        let mut net = network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        let mut sched = RoundRobin::new();
        treenet::run_for(&mut net, &mut sched, 100);
        for _ in 0..5_000 {
            net.step_event(&mut sched);
            assert_eq!(count_tokens(&net).priority, 1, "exactly one priority token in the system");
        }
    }

    #[test]
    fn safety_holds_under_saturation() {
        let tree = topology::builders::caterpillar(3, 2);
        let cfg = KlConfig::new(2, 4, 9);
        let drivers = |_| Box::new(Saturated { units: 2, hold: 3 }) as BoxedDriver;
        let mut net = network(tree, cfg, drivers);
        let mut sched = RandomFair::new(3);
        for _ in 0..40_000 {
            net.step_event(&mut sched);
            assert!(safety_holds(&net, &cfg), "unsafe at t={}", net.now());
        }
    }

    #[test]
    fn literal_pusher_guard_is_selectable() {
        // Sanity check that the ablation switch changes behaviour: with the literal guard the
        // priority holder is evicted like everyone else, so its reservations are not sticky.
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(2, 3, 3).with_literal_pusher_guard(true);
        let mut net = network(tree, cfg, figure3_workload);
        let mut sched = RoundRobin::new();
        // Just run it; the protocol must still be safe (no more than l units in use).
        for _ in 0..20_000 {
            net.step_event(&mut sched);
            assert!(safety_holds(&net, &cfg), "unsafe at t={}", net.now());
        }
    }
}
