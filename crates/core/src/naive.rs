//! Rung 1 of the protocol ladder: the "naive" circulation of ℓ resource tokens.
//!
//! ℓ resource tokens circulate the virtual ring in DFS order.  A requester reserves every
//! token it receives until it has `Need` of them, enters its critical section, and releases
//! them afterwards; every other process forwards tokens immediately.
//!
//! This protocol is safe but **not live**: as Figure 2 of the paper shows, several requesters
//! can each reserve part of the tokens they need and wait forever for the rest (a deadlock).
//! `klex experiment e2` reproduces that execution.

use crate::config::KlConfig;
use crate::inspect::KlInspect;
use crate::message::Message;
use crate::node::AppSide;
use rand::rngs::StdRng;
use topology::OrientedTree;
use treenet::app::BoxedDriver;
use treenet::{ChannelLabel, Context, Corruptible, CsState, Network, NodeId, Process};

/// A process running the naive ℓ-token circulation.
pub struct NaiveNode {
    cfg: KlConfig,
    /// Request state (`State`, `Need`, `RSet`) and application driver.
    pub app: AppSide,
    is_root: bool,
    degree: usize,
    /// Whether the root has already created its initial tokens.  Public so that experiment
    /// scenarios can construct exact paper configurations (e.g. Figure 2's deadlock state)
    /// without going through the bootstrap.
    pub bootstrapped: bool,
}

impl NaiveNode {
    /// Creates the process for `node` of a tree where the node has `degree` channels.
    ///
    /// The root (node 0) creates the ℓ resource tokens on its first activation; there is no
    /// fault-tolerance mechanism, so this variant assumes a clean start.
    pub fn new(node: NodeId, degree: usize, cfg: KlConfig, driver: BoxedDriver) -> Self {
        NaiveNode {
            cfg,
            app: AppSide::new(node, driver),
            is_root: node == 0,
            degree,
            bootstrapped: false,
        }
    }

    fn forward_token(&self, from: ChannelLabel, ctx: &mut Context<'_, Message>) {
        ctx.send_next(from, Message::ResT);
    }
}

impl Process for NaiveNode {
    type Msg = Message;

    fn on_message(&mut self, from: ChannelLabel, msg: Message, ctx: &mut Context<'_, Message>) {
        // The naive protocol has no other token types; anything else is ignored garbage.
        if msg == Message::ResT {
            if self.app.wants_more() {
                self.app.reserve(from);
            } else {
                self.forward_token(from, ctx);
            }
        }
    }

    fn on_tick(&mut self, ctx: &mut Context<'_, Message>) {
        if self.is_root && !self.bootstrapped {
            self.bootstrapped = true;
            if self.degree > 0 {
                for _ in 0..self.cfg.l {
                    ctx.send(0, Message::ResT);
                }
            }
        }
        self.app.poll_request(&self.cfg, ctx);
        self.app.try_enter(ctx);
        if let Some(tokens) = self.app.try_release(ctx) {
            for label in tokens {
                ctx.send_next(label, Message::ResT);
            }
        }
    }

    /// A blocked requester past the root's one-time bootstrap: no guard of `on_tick` is
    /// enabled until a delivery changes `RSet`.
    fn tick_is_noop(&self) -> bool {
        (!self.is_root || self.bootstrapped) && self.app.wants_more()
    }
}

impl KlInspect for NaiveNode {
    fn cs_state(&self) -> CsState {
        self.app.state
    }
    fn need(&self) -> usize {
        self.app.need
    }
    fn reserved(&self) -> usize {
        self.app.reserved()
    }
    fn holds_priority(&self) -> bool {
        false
    }
}

impl Corruptible for NaiveNode {
    fn corrupt(&mut self, rng: &mut StdRng) {
        let cfg = self.cfg;
        let degree = self.degree;
        self.app.corrupt(&cfg, degree, rng);
    }
}

impl treenet::Restartable for NaiveNode {
    fn restart(&mut self) {
        self.app.restart();
        // A restarted root forgets that it already created its ℓ tokens and will create them
        // again — the naive protocol has no mechanism to repair the resulting surplus.
        self.bootstrapped = false;
    }
}

/// Builds a network of [`NaiveNode`]s over `tree`, one application driver per node.
///
/// # Panics
///
/// Panics if the tree has fewer than two nodes (token circulation needs at least one link).
pub fn network(
    tree: OrientedTree,
    cfg: KlConfig,
    mut driver_for: impl FnMut(NodeId) -> BoxedDriver,
) -> Network<NaiveNode, OrientedTree> {
    use topology::Topology;
    assert!(tree.len() >= 2, "token circulation needs at least two processes");
    let degrees: Vec<usize> = (0..tree.len()).map(|v| tree.degree(v)).collect();
    Network::new(tree, |id| NaiveNode::new(id, degrees[id], cfg, driver_for(id)))
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
        let out = run_until(&mut net, &mut sched, 50_000, |n| n.trace().cs_entries(Some(5)) >= 1);
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
    fn ignores_foreign_messages() {
        let tree = topology::builders::chain(3);
        let cfg = KlConfig::new(1, 2, 3);
        let mut net = network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        net.inject_into(1, 0, Message::PushT);
        net.inject_into(1, 0, Message::Garbage(7));
        let mut sched = RoundRobin::new();
        for _ in 0..100 {
            net.step_event(&mut sched);
        }
        // Foreign messages are consumed, not forwarded forever.
        assert!(net.iter_messages().all(|(_, _, m)| *m == Message::ResT));
    }

    #[test]
    #[should_panic(expected = "at least two processes")]
    fn rejects_single_node_networks() {
        let tree = topology::builders::chain(1);
        let _ = network(tree, KlConfig::new(1, 1, 1), |_| Box::new(Idle) as BoxedDriver);
    }
}
