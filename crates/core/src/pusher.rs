//! Rung 2 of the protocol ladder: ℓ resource tokens plus the **pusher** token.
//!
//! The pusher (`PushT`) permanently circulates the virtual ring.  When a process that is
//! neither executing its critical section nor able to enter it receives the pusher, it must
//! release all its reserved resource tokens before forwarding the pusher.  This breaks the
//! deadlock of Figure 2: partially-satisfied requesters can no longer hoard tokens forever.
//!
//! The price is the **livelock** of Figure 3: a process with a large request can be forced to
//! release its tokens over and over while smaller requests keep being satisfied, so it may
//! starve.  `klex experiment e3` reproduces that execution; rung 3 ([`crate::nonstab`]) adds
//! the priority token to fix it.
//!
//! The process is a [`LadderNode`] on [`Rung::Pusher`].

use crate::config::KlConfig;
use crate::ladder::{self, LadderNode, Rung};
use topology::OrientedTree;
use treenet::app::BoxedDriver;
use treenet::{Network, NodeId};

/// Builds a network of pusher [`LadderNode`]s over `tree`.
///
/// # Panics
///
/// Panics if the tree has fewer than two nodes.
pub fn network(
    tree: OrientedTree,
    cfg: KlConfig,
    driver_for: impl FnMut(NodeId) -> BoxedDriver,
) -> Network<LadderNode, OrientedTree> {
    ladder::network(Rung::Pusher, tree, cfg, driver_for)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legitimacy::{count_tokens, safety_holds};
    use crate::{KlInspect, Message};
    use treenet::app::Idle;
    use treenet::{run_until, RoundRobin};
    use workloads::Saturated;

    /// The Figure 2 deadlock workload: needs 3/2/2/2 on the figure-1 tree with l = 5, k = 3.
    fn figure2_workload(id: NodeId) -> BoxedDriver {
        match id {
            1 => Box::new(Saturated { units: 3, hold: 5 }),
            2..=4 => Box::new(Saturated { units: 2, hold: 5 }),
            _ => Box::new(Idle),
        }
    }

    #[test]
    fn pusher_resolves_figure2_deadlock_workload() {
        let tree = topology::builders::figure1_tree();
        let cfg = KlConfig::new(3, 5, 8);
        let mut net = network(tree, cfg, figure2_workload);
        let mut sched = RoundRobin::new();
        // The pusher only guarantees *deadlock freedom*, not fairness (that is rung 3's job):
        // critical sections keep being entered, by more than one requester, even though the
        // requests over-subscribe the 5 tokens.
        let (mut cursor, mut entries) =
            (treenet::EnterCsCursor::default(), vec![0usize; net.len()]);
        let out = run_until(&mut net, &mut sched, 400_000, |n| {
            cursor.advance(n.trace(), |v| entries[v] += 1);
            entries.iter().sum::<usize>() >= 10
                && entries[1..=4].iter().filter(|&&e| e >= 1).count() >= 2
        });
        assert!(out.is_satisfied(), "the pusher must prevent the Figure-2 deadlock");
    }

    #[test]
    fn pusher_token_is_conserved() {
        let tree = topology::builders::binary(7);
        let cfg = KlConfig::new(2, 3, 7);
        let mut net = network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        let mut sched = RoundRobin::new();
        treenet::run_for(&mut net, &mut sched, 100);
        for _ in 0..5_000 {
            net.step_event(&mut sched);
            // No process ever holds the pusher: the census counts it in flight only.
            assert_eq!(count_tokens(&net).pusher, 1, "exactly one pusher in flight");
        }
    }

    #[test]
    fn pusher_evicts_partial_reservations() {
        // Node 1 sits in its critical section forever holding one of the two tokens, so node
        // 2's request for two units can never be satisfied: it reserves the remaining token,
        // and the pusher must keep evicting that partial reservation so the token never stops
        // circulating.
        let tree = topology::builders::chain(3);
        let cfg = KlConfig::new(2, 2, 3);
        let mut net = network(tree, cfg, |id| match id {
            1 => Box::new(Saturated { units: 1, hold: u64::MAX }) as BoxedDriver,
            2 => Box::new(Saturated { units: 2, hold: 1 }) as BoxedDriver,
            _ => Box::new(Idle) as BoxedDriver,
        });
        let mut sched = RoundRobin::new();
        // The single token must keep moving: observe it in flight repeatedly even though node
        // 2 keeps trying to hoard it.
        let mut seen_in_flight = 0u32;
        let mut seen_reserved = 0u32;
        for _ in 0..30_000 {
            net.step_event(&mut sched);
            let in_flight = net.iter_messages().any(|(_, _, m)| *m == Message::ResT);
            if in_flight {
                seen_in_flight += 1;
            }
            if net.node(2).reserved() > 0 {
                seen_reserved += 1;
            }
        }
        assert!(seen_reserved > 0, "node 2 does reserve the token at times");
        assert!(seen_in_flight > 1_000, "the pusher keeps the token circulating");
    }

    #[test]
    fn safety_holds_under_saturation() {
        let tree = topology::builders::star(6);
        let cfg = KlConfig::new(2, 4, 6);
        let drivers = |_| Box::new(Saturated { units: 2, hold: 4 }) as BoxedDriver;
        let mut net = network(tree, cfg, drivers);
        let mut sched = RoundRobin::new();
        for _ in 0..30_000 {
            net.step_event(&mut sched);
            assert!(safety_holds(&net, &cfg), "unsafe at t={}", net.now());
        }
    }
}
