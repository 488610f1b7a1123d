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

use crate::config::KlConfig;
use crate::inspect::KlInspect;
use crate::message::Message;
use crate::node::AppSide;
use rand::rngs::StdRng;
use rand::Rng;
use topology::OrientedTree;
use treenet::app::BoxedDriver;
use treenet::{ChannelLabel, Context, Corruptible, CsState, Network, NodeId, Process};

/// A process running the ℓ-token + pusher circulation (no priority token).
pub struct PusherNode {
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

impl PusherNode {
    /// Creates the process for `node` with `degree` incident channels.
    pub fn new(node: NodeId, degree: usize, cfg: KlConfig, driver: BoxedDriver) -> Self {
        PusherNode {
            cfg,
            app: AppSide::new(node, driver),
            is_root: node == 0,
            degree,
            bootstrapped: false,
        }
    }

    /// The pusher's effect: release all reserved tokens unless the process is in, or enabled
    /// to enter, its critical section.
    fn handle_pusher(&mut self, from: ChannelLabel, ctx: &mut Context<'_, Message>) {
        let must_release = !self.app.can_enter() && self.app.state != CsState::In;
        if must_release {
            for label in self.app.take_reserved() {
                ctx.send_next(label, Message::ResT);
            }
        }
        ctx.send_next(from, Message::PushT);
    }
}

impl Process for PusherNode {
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
            _ => {}
        }
    }

    fn on_tick(&mut self, ctx: &mut Context<'_, Message>) {
        if self.is_root && !self.bootstrapped {
            self.bootstrapped = true;
            if self.degree > 0 {
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
    }

    /// A blocked requester past the root's one-time bootstrap: no guard of `on_tick` is
    /// enabled until a delivery changes `RSet`.
    fn tick_is_noop(&self) -> bool {
        (!self.is_root || self.bootstrapped) && self.app.wants_more()
    }
}

impl KlInspect for PusherNode {
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

impl Corruptible for PusherNode {
    fn corrupt(&mut self, rng: &mut StdRng) {
        let cfg = self.cfg;
        let degree = self.degree;
        self.app.corrupt(&cfg, degree, rng);
        self.bootstrapped = rng.gen_bool(0.5);
    }
}

impl treenet::Restartable for PusherNode {
    fn restart(&mut self) {
        self.app.restart();
        // See `NaiveNode`: the restarted root will re-create its initial tokens.
        self.bootstrapped = false;
    }
}

/// Builds a network of [`PusherNode`]s over `tree`.
///
/// # Panics
///
/// Panics if the tree has fewer than two nodes.
pub fn network(
    tree: OrientedTree,
    cfg: KlConfig,
    mut driver_for: impl FnMut(NodeId) -> BoxedDriver,
) -> Network<PusherNode, OrientedTree> {
    use topology::Topology;
    assert!(tree.len() >= 2, "token circulation needs at least two processes");
    let degrees: Vec<usize> = (0..tree.len()).map(|v| tree.degree(v)).collect();
    Network::new(tree, |id| PusherNode::new(id, degrees[id], cfg, driver_for(id)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legitimacy::{count_tokens, safety_holds};
    use treenet::app::{AppDriver, Idle};
    use treenet::{run_until, RoundRobin};

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

    /// The Figure 2 deadlock workload: needs 3/2/2/2 on the figure-1 tree with l = 5, k = 3.
    fn figure2_workload(id: NodeId) -> BoxedDriver {
        match id {
            1 => Box::new(Fixed { units: 3, hold: 5 }),
            2..=4 => Box::new(Fixed { units: 2, hold: 5 }),
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
        let out = run_until(&mut net, &mut sched, 400_000, |n| {
            n.trace().cs_entries(None) >= 10
                && (1..=4).filter(|&v| n.trace().cs_entries(Some(v)) >= 1).count() >= 2
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
            1 => Box::new(Fixed { units: 1, hold: u64::MAX }) as BoxedDriver,
            2 => Box::new(Fixed { units: 2, hold: 1 }) as BoxedDriver,
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
        let mut net = network(tree, cfg, |_| Box::new(Fixed { units: 2, hold: 4 }) as BoxedDriver);
        let mut sched = RoundRobin::new();
        for _ in 0..30_000 {
            net.step_event(&mut sched);
            assert!(safety_holds(&net, &cfg), "unsafe at t={}", net.now());
        }
    }
}
