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

use crate::config::KlConfig;
use crate::inspect::KlInspect;
use crate::message::Message;
use crate::node::AppSide;
use rand::rngs::StdRng;
use rand::Rng;
use topology::OrientedTree;
use treenet::app::BoxedDriver;
use treenet::{ChannelLabel, Context, Corruptible, CsState, Network, NodeId, Process};

/// A process running the full (non-fault-tolerant) k-out-of-ℓ exclusion protocol.
pub struct NonStabNode {
    cfg: KlConfig,
    /// Request state (`State`, `Need`, `RSet`) and application driver.
    pub app: AppSide,
    /// The paper's `Prio` variable: the channel the held priority token arrived on, if any.
    pub prio: Option<ChannelLabel>,
    is_root: bool,
    degree: usize,
    /// Whether the root has already created its initial tokens.  Public so that experiment
    /// scenarios can construct exact paper configurations (e.g. Figure 2's deadlock state)
    /// without going through the bootstrap.
    pub bootstrapped: bool,
}

impl NonStabNode {
    /// Creates the process for `node` with `degree` incident channels.
    pub fn new(node: NodeId, degree: usize, cfg: KlConfig, driver: BoxedDriver) -> Self {
        NonStabNode {
            cfg,
            app: AppSide::new(node, driver),
            prio: None,
            is_root: node == 0,
            degree,
            bootstrapped: false,
        }
    }

    fn handle_pusher(&mut self, from: ChannelLabel, ctx: &mut Context<'_, Message>) {
        // Corrected guard (see crate docs): only a process *without* the priority token
        // releases its reservations.  `literal_pusher_guard` restores the paper's printed
        // guard for the ablation experiment.
        let prio_cond = if self.cfg.literal_pusher_guard {
            self.prio.is_some()
        } else {
            self.prio.is_none()
        };
        let must_release =
            prio_cond && !self.app.can_enter() && self.app.state != CsState::In;
        if must_release {
            for label in self.app.take_reserved() {
                ctx.send_next(label, Message::ResT);
            }
        }
        ctx.send_next(from, Message::PushT);
    }

    fn handle_priority(&mut self, from: ChannelLabel, ctx: &mut Context<'_, Message>) {
        if self.prio.is_none() {
            self.prio = Some(from);
        } else {
            ctx.send_next(from, Message::PrioT);
        }
    }

    /// Bottom-of-loop priority release (paper lines 92–98 / 73–76): forward the priority
    /// token unless the process is an unsatisfied requester.
    fn release_priority_if_satisfied(&mut self, ctx: &mut Context<'_, Message>) {
        if let Some(label) = self.prio {
            if !self.app.wants_more() {
                ctx.send_next(label, Message::PrioT);
                self.prio = None;
            }
        }
    }
}

impl Process for NonStabNode {
    type Msg = Message;

    fn on_message(&mut self, from: ChannelLabel, msg: Message, ctx: &mut Context<'_, Message>) {
        match msg {
            Message::ResT => {
                if self.app.wants_more() {
                    self.app.reserve(from);
                } else {
                    ctx.send_next(from, Message::ResT);
                }
            }
            Message::PushT => self.handle_pusher(from, ctx),
            Message::PrioT => self.handle_priority(from, ctx),
            _ => {}
        }
    }

    fn on_tick(&mut self, ctx: &mut Context<'_, Message>) {
        if self.is_root && !self.bootstrapped {
            self.bootstrapped = true;
            if self.degree > 0 {
                ctx.send(0, Message::PrioT);
                for _ in 0..self.cfg.l {
                    ctx.send(0, Message::ResT);
                }
                ctx.send(0, Message::PushT);
            }
        }
        self.app.poll_request(&self.cfg, ctx);
        self.app.try_enter(ctx);
        if let Some(tokens) = self.app.try_release(ctx) {
            for label in tokens {
                ctx.send_next(label, Message::ResT);
            }
        }
        self.release_priority_if_satisfied(ctx);
    }

    /// A blocked requester past the root's one-time bootstrap: no guard of `on_tick` is
    /// enabled until a delivery changes `RSet`.
    fn tick_is_noop(&self) -> bool {
        (!self.is_root || self.bootstrapped) && self.app.wants_more()
    }
}

impl KlInspect for NonStabNode {
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
        self.prio.is_some()
    }
}

impl treenet::Restartable for NonStabNode {
    fn restart(&mut self) {
        self.app.restart();
        self.prio = None;
        // See `NaiveNode`: the restarted root will re-create its initial tokens, permanently
        // inflating the token population — the non-stabilizing protocol never repairs it.
        self.bootstrapped = false;
    }
}

impl Corruptible for NonStabNode {
    fn corrupt(&mut self, rng: &mut StdRng) {
        let cfg = self.cfg;
        let degree = self.degree;
        self.app.corrupt(&cfg, degree, rng);
        self.prio =
            if rng.gen_bool(0.5) { Some(rng.gen_range(0..degree.max(1))) } else { None };
        self.bootstrapped = rng.gen_bool(0.5);
    }
}

/// Builds a network of [`NonStabNode`]s over `tree`.
///
/// # Panics
///
/// Panics if the tree has fewer than two nodes.
pub fn network(
    tree: OrientedTree,
    cfg: KlConfig,
    mut driver_for: impl FnMut(NodeId) -> BoxedDriver,
) -> Network<NonStabNode, OrientedTree> {
    use topology::Topology;
    assert!(tree.len() >= 2, "token circulation needs at least two processes");
    let degrees: Vec<usize> = (0..tree.len()).map(|v| tree.degree(v)).collect();
    Network::new(tree, |id| NonStabNode::new(id, degrees[id], cfg, driver_for(id)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legitimacy::{count_tokens, safety_holds};
    use treenet::app::{AppDriver, Idle};
    use treenet::{run_until, RandomFair, RoundRobin};

    struct Fixed {
        units: usize,
        hold: u64,
    }
    impl AppDriver for Fixed {
        fn next_request(&mut self, _n: NodeId, _t: u64) -> Option<usize> {
            Some(self.units)
        }
        fn release_cs(&mut self, _n: NodeId, now: u64, e: u64) -> bool {
            now - e >= self.hold
        }
    }

    /// Figure 3 workload on the 3-node tree: r and b request 1 unit, a requests 2, with
    /// l = 3 and k = 2 (2-out-of-3 exclusion).
    fn figure3_workload(id: NodeId) -> BoxedDriver {
        match id {
            1 => Box::new(Fixed { units: 2, hold: 4 }),
            0 | 2 => Box::new(Fixed { units: 1, hold: 4 }),
            _ => Box::new(Idle),
        }
    }

    #[test]
    fn priority_prevents_figure3_starvation() {
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(2, 3, 3);
        let mut net = network(tree, cfg, figure3_workload);
        let mut sched = RoundRobin::new();
        let out = run_until(&mut net, &mut sched, 500_000, |n| {
            n.trace().cs_entries(Some(1)) >= 5
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
            1 => Box::new(Fixed { units: 3, hold: 5 }) as BoxedDriver,
            2..=4 => Box::new(Fixed { units: 2, hold: 5 }) as BoxedDriver,
            _ => Box::new(Idle) as BoxedDriver,
        });
        let mut sched = RandomFair::new(7);
        let out = run_until(&mut net, &mut sched, 800_000, |n| {
            (1..=4).all(|v| n.trace().cs_entries(Some(v)) >= 2)
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
        let mut net = network(tree, cfg, |_| Box::new(Fixed { units: 2, hold: 3 }) as BoxedDriver);
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
