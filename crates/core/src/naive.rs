//! Rung 1 of the protocol ladder: the "naive" circulation of ℓ resource tokens.
//!
//! ℓ resource tokens circulate the virtual ring in DFS order.  A requester reserves every
//! token it receives until it has `Need` of them, enters its critical section, and releases
//! them afterwards; every other process forwards tokens immediately.
//!
//! This protocol is safe but **not live**: as Figure 2 of the paper shows, several requesters
//! can each reserve part of the tokens they need and wait forever for the rest (a deadlock).
//! `klex experiment e2` reproduces that execution.
//!
//! The process is a [`LadderNode`] on [`Rung::Naive`].

use crate::config::KlConfig;
use crate::ladder::{self, LadderNode, Rung};
use topology::OrientedTree;
use treenet::app::BoxedDriver;
use treenet::{Network, NodeId};

/// Builds a network of naive [`LadderNode`]s over `tree`, one application driver per node.
///
/// # Panics
///
/// Panics if the tree has fewer than two nodes (token circulation needs at least one link).
pub fn network(
    tree: OrientedTree,
    cfg: KlConfig,
    driver_for: impl FnMut(NodeId) -> BoxedDriver,
) -> Network<LadderNode, OrientedTree> {
    ladder::network(Rung::Naive, tree, cfg, driver_for)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legitimacy::{count_tokens, safety_holds};
    use treenet::app::{AppDriver, Idle};
    use treenet::{run_until, RoundRobin};

    struct Once(usize, bool);
    impl AppDriver for Once {
        fn next_request(&mut self, _n: NodeId, _t: u64) -> Option<usize> {
            if self.1 {
                None
            } else {
                self.1 = true;
                Some(self.0)
            }
        }
        fn release_cs(&mut self, _n: NodeId, now: u64, entered: u64) -> bool {
            now - entered >= 5
        }
    }

    #[test]
    fn single_requester_is_satisfied() {
        let tree = topology::builders::figure1_tree();
        let cfg = KlConfig::new(2, 3, 8);
        let mut net = network(tree, cfg, |id| {
            if id == 5 {
                Box::new(Once(2, false)) as BoxedDriver
            } else {
                Box::new(Idle) as BoxedDriver
            }
        });
        let mut sched = RoundRobin::new();
        let (mut cursor, mut entered) = (treenet::EnterCsCursor::default(), false);
        let out = run_until(&mut net, &mut sched, 50_000, |n| {
            cursor.advance(n.trace(), |v| entered |= v == 5);
            entered
        });
        assert!(out.is_satisfied(), "a lone requester must eventually enter its critical section");
        // After the CS the tokens are back in circulation: total count is still l.
        assert_eq!(count_tokens(&net).resource, cfg.l);
    }

    #[test]
    fn tokens_are_conserved_without_requests() {
        let tree = topology::builders::binary(7);
        let cfg = KlConfig::new(1, 4, 7);
        let mut net = network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        let mut sched = RoundRobin::new();
        for _ in 0..5_000 {
            net.step_event(&mut sched);
            assert_eq!(count_tokens(&net).resource, cfg.l, "resource tokens must be conserved");
        }
    }

    #[test]
    fn safety_holds_under_saturation() {
        let tree = topology::builders::chain(6);
        let cfg = KlConfig::new(2, 3, 6);
        struct Always;
        impl AppDriver for Always {
            fn next_request(&mut self, _n: NodeId, _t: u64) -> Option<usize> {
                Some(1)
            }
            fn release_cs(&mut self, _n: NodeId, now: u64, e: u64) -> bool {
                now - e >= 3
            }
        }
        let mut net = network(tree, cfg, |_| Box::new(Always) as BoxedDriver);
        let mut sched = RoundRobin::new();
        for _ in 0..20_000 {
            net.step_event(&mut sched);
            assert!(safety_holds(&net, &cfg), "unsafe at t={}", net.now());
        }
    }

    #[test]
    #[should_panic(expected = "at least two processes")]
    fn rejects_single_node_networks() {
        let tree = topology::builders::chain(1);
        let _ = network(tree, KlConfig::new(1, 1, 1), |_| Box::new(Idle) as BoxedDriver);
    }
}
