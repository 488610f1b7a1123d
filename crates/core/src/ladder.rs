//! Rungs 1–3 of the protocol ladder as one process type: the token circulation, one token
//! added per rung.
//!
//! The paper builds its protocol one token at a time, each step the previous protocol plus
//! one guard:
//!
//! * [`Rung::Naive`] circulates ℓ resource tokens in DFS order — safe, but deadlocks
//!   (Figure 2; [`crate::naive`]);
//! * [`Rung::Pusher`] adds the pusher, which makes a process that cannot enter its critical
//!   section release its reservations — deadlock-free, but livelocks (Figure 3;
//!   [`crate::pusher`]);
//! * [`Rung::NonStab`] adds the priority token, whose holder the pusher spares — a correct
//!   k-out-of-ℓ exclusion, but not a fault-tolerant one ([`crate::nonstab`]).
//!
//! [`LadderNode`] is that protocol with its rung as data.  A token of a higher rung than the
//! node's own is consumed and dropped, like any other foreign message.  Rung 4
//! ([`crate::ss`]) replaces the bootstrap with the counter-flushing controller and is a
//! separate type.

use crate::config::KlConfig;
use crate::inspect::KlInspect;
use crate::message::Message;
use crate::node::AppSide;
use rand::rngs::StdRng;
use rand::Rng;
use topology::OrientedTree;
use treenet::app::BoxedDriver;
use treenet::{ChannelLabel, Context, Corruptible, CsState, Network, NodeId, Process};

/// A token-circulation rung of the protocol ladder; each one adds a token to the one before.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rung {
    /// ℓ resource tokens (Figure 2's deadlock).
    Naive,
    /// Plus the pusher token (Figure 3's livelock).
    Pusher,
    /// Plus the priority token (correct, not self-stabilizing).
    NonStab,
}

impl Rung {
    /// Every rung, bottom up.
    pub const ALL: [Rung; 3] = [Rung::Naive, Rung::Pusher, Rung::NonStab];
}

/// A process running the token circulation of one [`Rung`].
pub struct LadderNode {
    rung: Rung,
    cfg: KlConfig,
    /// Request state (`State`, `Need`, `RSet`) and application driver.
    pub app: AppSide,
    /// The paper's `Prio` variable: the channel the held priority token arrived on, if any.
    /// Always `None` below [`Rung::NonStab`].
    pub prio: Option<ChannelLabel>,
    is_root: bool,
    degree: usize,
    /// Whether the root has already created its initial tokens.  Public so that experiment
    /// scenarios can construct exact paper configurations (e.g. Figure 2's deadlock state)
    /// without going through the bootstrap.
    pub bootstrapped: bool,
}

impl LadderNode {
    /// Creates the `rung` process for `node` with `degree` incident channels.
    ///
    /// The root (node 0) creates the rung's tokens on its first activation; there is no
    /// fault-tolerance mechanism, so these rungs assume a clean start.
    pub fn new(
        rung: Rung,
        node: NodeId,
        degree: usize,
        cfg: KlConfig,
        driver: BoxedDriver,
    ) -> Self {
        LadderNode {
            rung,
            cfg,
            app: AppSide::new(node, driver),
            prio: None,
            is_root: node == 0,
            degree,
            bootstrapped: false,
        }
    }

    /// The rung this process runs.
    pub fn rung(&self) -> Rung {
        self.rung
    }

    /// The pusher's effect: release all reserved tokens unless the process is in, or enabled
    /// to enter, its critical section — or, on [`Rung::NonStab`], holds the priority token.
    fn handle_pusher(&mut self, from: ChannelLabel, ctx: &mut Context<'_, Message>) {
        // Corrected guard (see crate docs): only a process *without* the priority token
        // releases its reservations.  `literal_pusher_guard` restores the paper's printed
        // guard for the ablation experiment.
        let prio_cond = match self.rung {
            Rung::NonStab if self.cfg.literal_pusher_guard => self.prio.is_some(),
            Rung::NonStab => self.prio.is_none(),
            _ => true,
        };
        let must_release = prio_cond && !self.app.can_enter() && self.app.state != CsState::In;
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

impl Process for LadderNode {
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
            Message::PushT if self.rung >= Rung::Pusher => self.handle_pusher(from, ctx),
            Message::PrioT if self.rung == Rung::NonStab => self.handle_priority(from, ctx),
            // A higher rung's token, a controller message or garbage: consumed and dropped.
            _ => {}
        }
    }

    fn on_tick(&mut self, ctx: &mut Context<'_, Message>) {
        if self.is_root && !self.bootstrapped {
            self.bootstrapped = true;
            if self.degree > 0 {
                if self.rung == Rung::NonStab {
                    ctx.send(0, Message::PrioT);
                }
                for _ in 0..self.cfg.l {
                    ctx.send(0, Message::ResT);
                }
                if self.rung >= Rung::Pusher {
                    ctx.send(0, Message::PushT);
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
        self.release_priority_if_satisfied(ctx);
    }

    /// A blocked requester past the root's one-time bootstrap: no guard of `on_tick` is
    /// enabled until a delivery changes `RSet`.
    fn tick_is_noop(&self) -> bool {
        (!self.is_root || self.bootstrapped) && self.app.wants_more()
    }
}

impl KlInspect for LadderNode {
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

impl Corruptible for LadderNode {
    /// Draws the request state, then on [`Rung::NonStab`] `Prio`, then from
    /// [`Rung::Pusher`] up `bootstrapped` (the naive root keeps its flag).
    fn corrupt(&mut self, rng: &mut StdRng) {
        let cfg = self.cfg;
        let degree = self.degree;
        self.app.corrupt(&cfg, degree, rng);
        if self.rung == Rung::NonStab {
            self.prio =
                if rng.gen_bool(0.5) { Some(rng.gen_range(0..degree.max(1))) } else { None };
        }
        if self.rung >= Rung::Pusher {
            self.bootstrapped = rng.gen_bool(0.5);
        }
    }
}

impl treenet::Restartable for LadderNode {
    fn restart(&mut self) {
        self.app.restart();
        self.prio = None;
        // A restarted root forgets that it already created its tokens and will create them
        // again, permanently inflating the token population — no rung below the
        // self-stabilizing one repairs it.
        self.bootstrapped = false;
    }
}

/// Builds a network of `rung` [`LadderNode`]s over `tree`, one application driver per node.
///
/// # Panics
///
/// Panics if the tree has fewer than two nodes (token circulation needs at least one link).
pub fn network(
    rung: Rung,
    tree: OrientedTree,
    cfg: KlConfig,
    mut driver_for: impl FnMut(NodeId) -> BoxedDriver,
) -> Network<LadderNode, OrientedTree> {
    use topology::Topology;
    assert!(tree.len() >= 2, "token circulation needs at least two processes");
    let degrees: Vec<usize> = (0..tree.len()).map(|v| tree.degree(v)).collect();
    Network::new(tree, |id| LadderNode::new(rung, id, degrees[id], cfg, driver_for(id)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legitimacy::count_tokens;
    use treenet::app::Idle;
    use treenet::RoundRobin;

    #[test]
    fn ignores_foreign_messages() {
        let tree = topology::builders::chain(3);
        let cfg = KlConfig::new(1, 2, 3);
        for rung in Rung::ALL {
            let mut net = network(rung, tree.clone(), cfg, |_| Box::new(Idle) as BoxedDriver);
            // Every token the rung lacks, plus garbage every rung lacks.
            if rung < Rung::Pusher {
                net.inject_into(1, 0, Message::PushT);
            }
            if rung < Rung::NonStab {
                net.inject_into(1, 0, Message::PrioT);
            }
            net.inject_into(1, 0, Message::Garbage(7));
            let mut sched = RoundRobin::new();
            for _ in 0..100 {
                net.step_event(&mut sched);
            }
            // Foreign messages are consumed, not forwarded forever: only the rung's own
            // tokens remain, as many as its root created.
            let census = count_tokens(&net);
            assert_eq!(census.resource, cfg.l, "{rung:?}");
            assert_eq!(census.pusher, usize::from(rung >= Rung::Pusher), "{rung:?}");
            assert_eq!(census.priority, usize::from(rung == Rung::NonStab), "{rung:?}");
            assert_eq!(census.garbage, 0, "{rung:?}");
        }
    }
}
