//! Token censuses and legitimate-configuration predicates.
//!
//! The convergence argument of the paper (Lemmas 6–8) is phrased in terms of the number of
//! tokens present in the system: a configuration is on the way to legitimacy once there are
//! exactly ℓ resource tokens, one priority token and one pusher token, and the safety bounds
//! on reservations hold.  These helpers compute that census over a whole network — counting
//! both in-flight tokens (in channels) and held tokens (reserved in `RSet`s, or a `Prio`
//! variable pointing at a channel) — and decide legitimacy.
//!
//! # Reference scan and live census
//!
//! [`count_tokens`], [`safety_holds`] and [`is_legitimate`] walk every channel and every
//! process: O(n) per call, and the definition everything else is compared against.  A loop
//! that asks after *every* activation — the convergence measurements — uses a [`LiveCensus`]
//! instead: the same quantities, initialised by one scan and then kept exact in O(1) per
//! activation from the activation's own effects.

use crate::config::KlConfig;
use crate::inspect::KlInspect;
use crate::message::Message;
use serde::Serialize;
use topology::Topology;
use treenet::{
    Activation, ChannelLabel, EnabledShape, EventScheduler, Network, NodeId, Process, StepEffects,
};

/// The number of tokens of each kind currently in the system.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct TokenCensus {
    /// Resource tokens: in flight plus reserved in `RSet`s.
    pub resource: usize,
    /// Pusher tokens (always in flight: no process ever holds the pusher).
    pub pusher: usize,
    /// Priority tokens: in flight plus held (`Prio ≠ ⊥`).
    pub priority: usize,
    /// Controller messages in flight.
    pub ctrl: usize,
    /// Garbage (non-protocol) messages in flight.
    pub garbage: usize,
}

impl TokenCensus {
    /// True when the circulating-token population matches a legitimate configuration:
    /// exactly `l` resource tokens, one pusher and one priority token.
    pub fn matches(&self, l: usize) -> bool {
        self.resource == l && self.pusher == 1 && self.priority == 1
    }
}

/// Counts every token in `net`, both in flight and held by processes.
pub fn count_tokens<P, T>(net: &Network<P, T>) -> TokenCensus
where
    P: Process<Msg = Message> + KlInspect,
    T: Topology,
{
    let mut census = TokenCensus::default();
    for (_, _, msg) in net.iter_messages() {
        match msg {
            Message::ResT => census.resource += 1,
            Message::PushT => census.pusher += 1,
            Message::PrioT => census.priority += 1,
            Message::Ctrl { .. } => census.ctrl += 1,
            Message::Garbage(_) => census.garbage += 1,
            // Snapshot markers are observability traffic, not tokens: they exist only while
            // a cut is being assembled and never enter the census.
            Message::Marker(_) => {}
        }
    }
    for node in net.nodes() {
        census.resource += node.reserved();
        if node.holds_priority() {
            census.priority += 1;
        }
    }
    census
}

/// True when every per-process safety bound holds: no process reserves more than `k` tokens,
/// no process uses more than `k` units, and at most `l` units are in use overall.
pub fn safety_holds<P, T>(net: &Network<P, T>, cfg: &KlConfig) -> bool
where
    P: Process<Msg = Message> + KlInspect,
    T: Topology,
{
    let mut in_use = 0usize;
    for node in net.nodes() {
        if node.reserved() > cfg.k || node.units_in_use() > cfg.k {
            return false;
        }
        in_use += node.units_in_use();
    }
    in_use <= cfg.l
}

/// The legitimacy predicate used by the convergence experiments: the token census is exactly
/// `(ℓ, 1, 1)`, the per-process safety bounds hold, and no garbage message survives.
///
/// (The number of in-flight controller messages is *not* constrained: the root's timeout may
/// legitimately produce a transient duplicate which counter flushing later discards.)
pub fn is_legitimate<P, T>(net: &Network<P, T>, cfg: &KlConfig) -> bool
where
    P: Process<Msg = Message> + KlInspect,
    T: Topology,
{
    let census = count_tokens(net);
    census.matches(cfg.l) && census.garbage == 0 && safety_holds(net, cfg)
}

/// One process's share of the census and of the safety bounds: everything the predicates
/// read from a process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct NodeShare {
    reserved: usize,
    in_use: usize,
    priority: bool,
}

impl NodeShare {
    fn of(node: &impl KlInspect) -> Self {
        NodeShare {
            reserved: node.reserved(),
            in_use: node.units_in_use(),
            priority: node.holds_priority(),
        }
    }

    /// True when the process breaks a per-process bound of [`safety_holds`].
    fn over(&self, k: usize) -> bool {
        self.reserved > k || self.in_use > k
    }
}

/// The token census and the safety verdict of a network, maintained per activation.
///
/// An activation changes one process, consumes at most one message and sends a few, so the
/// quantities [`count_tokens`] and [`safety_holds`] compute by walking the whole network
/// move by a bounded amount per step.  A `LiveCensus` is built from one full scan
/// ([`LiveCensus::new`]) and then kept exact in O(1) by executing every activation through
/// it: [`LiveCensus::step`] / [`LiveCensus::execute`] receive the consumed and the sent
/// messages as [`StepEffects`] and re-read the activated process's share afterwards.
///
/// # Validity
///
/// The census describes the network only while **every** mutation goes through it.  Fault
/// injection, `node_mut`, `channel_mut`, `inject_*`, `reset_*` and `rebuild_from` all
/// invalidate it, so a `LiveCensus` is meant to live for the duration of one loop that
/// holds the `&mut Network` — build it when the loop starts, drop it when the loop ends.
/// (Snapshot-marker traffic is the one exception: markers are not tokens and never enter
/// the census, so [`treenet::SnapshotRunner::step_with`] may interpose.)  Debug builds
/// re-check the census against the reference scan after every activation.
#[derive(Clone, Debug)]
pub struct LiveCensus {
    census: TokenCensus,
    /// Σ `units_in_use()` over all processes.
    in_use: usize,
    /// Processes currently over a per-process bound (see [`NodeShare::over`]).
    over_k: usize,
    shares: Vec<NodeShare>,
    cfg: KlConfig,
}

impl LiveCensus {
    /// Takes the census of `net` by a full scan.
    pub fn new<P, T>(net: &Network<P, T>, cfg: &KlConfig) -> Self
    where
        P: Process<Msg = Message> + KlInspect,
        T: Topology,
    {
        let shares: Vec<NodeShare> = net.nodes().map(NodeShare::of).collect();
        LiveCensus {
            census: count_tokens(net),
            in_use: shares.iter().map(|s| s.in_use).sum(),
            over_k: shares.iter().filter(|s| s.over(cfg.k)).count(),
            shares,
            cfg: *cfg,
        }
    }

    /// The current census — equal to [`count_tokens`] of the tracked network.
    pub fn census(&self) -> TokenCensus {
        self.census
    }

    /// Equal to [`safety_holds`] of the tracked network.
    pub fn safety_holds(&self) -> bool {
        self.over_k == 0 && self.in_use <= self.cfg.l
    }

    /// Equal to [`is_legitimate`] of the tracked network.
    pub fn is_legitimate(&self) -> bool {
        self.census.matches(self.cfg.l) && self.census.garbage == 0 && self.safety_holds()
    }

    /// Executes the activation `daemon` chooses on the fused event-driven path
    /// ([`Network::step_event`]) and updates the census.
    pub fn step<P, T, S>(&mut self, net: &mut Network<P, T>, daemon: &mut S) -> Activation
    where
        P: Process<Msg = Message> + KlInspect,
        T: Topology,
        S: EventScheduler,
    {
        let activation = daemon.next_event(&EnabledShape::new(net.enabled_set()));
        self.execute(net, activation);
        activation
    }

    /// Executes `activation` ([`Network::execute`]) and updates the census.
    pub fn execute<P, T>(&mut self, net: &mut Network<P, T>, activation: Activation)
    where
        P: Process<Msg = Message> + KlInspect,
        T: Topology,
    {
        self.track(net, |net, effects| {
            net.execute_with(activation, effects);
            activation
        });
    }

    /// Updates the census across one activation executed by `step`, which must hand the
    /// `StepEffects` sink it is given to [`Network::execute_with`] (or to a wrapper such as
    /// [`treenet::SnapshotRunner::step_with`]) and return the activation executed.
    pub fn track<P, T>(
        &mut self,
        net: &mut Network<P, T>,
        step: impl FnOnce(&mut Network<P, T>, &mut Self) -> Activation,
    ) -> Activation
    where
        P: Process<Msg = Message> + KlInspect,
        T: Topology,
    {
        let activation = step(net, self);
        let node = activation.node();
        let (old, new) = (self.shares[node], NodeShare::of(net.node(node)));
        if old != new {
            self.census.resource = self.census.resource + new.reserved - old.reserved;
            self.census.priority =
                self.census.priority + usize::from(new.priority) - usize::from(old.priority);
            self.in_use = self.in_use + new.in_use - old.in_use;
            self.over_k =
                self.over_k + usize::from(new.over(self.cfg.k)) - usize::from(old.over(self.cfg.k));
            self.shares[node] = new;
        }
        debug_assert_eq!(self.census, count_tokens(net), "live census drifted from the scan");
        debug_assert_eq!(self.safety_holds(), safety_holds(net, &self.cfg));
        activation
    }

    /// The census counter an in-flight `msg` is counted under (`None` for snapshot markers).
    fn in_flight_slot(&mut self, msg: &Message) -> Option<&mut usize> {
        match msg {
            Message::ResT => Some(&mut self.census.resource),
            Message::PushT => Some(&mut self.census.pusher),
            Message::PrioT => Some(&mut self.census.priority),
            Message::Ctrl { .. } => Some(&mut self.census.ctrl),
            Message::Garbage(_) => Some(&mut self.census.garbage),
            Message::Marker(_) => None,
        }
    }
}

impl StepEffects<Message> for LiveCensus {
    #[inline]
    fn delivered(&mut self, _node: NodeId, _label: ChannelLabel, msg: &Message) {
        if let Some(slot) = self.in_flight_slot(msg) {
            *slot -= 1;
        }
    }

    #[inline]
    fn sent(&mut self, _node: NodeId, _label: ChannelLabel, msg: &Message) {
        if let Some(slot) = self.in_flight_slot(msg) {
            *slot += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use crate::nonstab;
    use treenet::app::{AppDriver, BoxedDriver, Idle};
    use treenet::NodeId;

    #[test]
    fn census_counts_in_flight_and_reserved() {
        let tree = topology::builders::figure1_tree();
        let cfg = KlConfig::new(2, 4, 8);
        struct Grab;
        impl AppDriver for Grab {
            fn next_request(&mut self, _n: NodeId, _t: u64) -> Option<usize> {
                Some(2)
            }
            fn release_cs(&mut self, _n: NodeId, _now: u64, _e: u64) -> bool {
                false
            }
        }
        let mut net = naive::network(tree, cfg, |id| {
            if id == 2 {
                Box::new(Grab) as BoxedDriver
            } else {
                Box::new(Idle) as BoxedDriver
            }
        });
        let mut sched = treenet::RoundRobin::new();
        treenet::run_for(&mut net, &mut sched, 10_000);
        let census = count_tokens(&net);
        assert_eq!(census.resource, cfg.l, "reserved + in-flight resource tokens = l");
        assert_eq!(census.pusher, 0);
        assert_eq!(census.priority, 0);
    }

    #[test]
    fn census_matches_and_legitimacy() {
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(2, 3, 3);
        let mut net = nonstab::network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        let mut sched = treenet::RoundRobin::new();
        treenet::run_for(&mut net, &mut sched, 5_000);
        let census = count_tokens(&net);
        assert!(census.matches(cfg.l));
        assert!(is_legitimate(&net, &cfg));
        assert!(safety_holds(&net, &cfg));
    }

    #[test]
    fn surplus_tokens_break_legitimacy() {
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(2, 3, 3);
        let mut net = nonstab::network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        let mut sched = treenet::RoundRobin::new();
        treenet::run_for(&mut net, &mut sched, 2_000);
        net.inject_into(1, 0, Message::ResT);
        assert!(!is_legitimate(&net, &cfg));
        let census = count_tokens(&net);
        assert_eq!(census.resource, cfg.l + 1);
    }

    #[test]
    fn garbage_breaks_legitimacy() {
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(2, 3, 3);
        let mut net = nonstab::network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        let mut sched = treenet::RoundRobin::new();
        treenet::run_for(&mut net, &mut sched, 2_000);
        assert!(is_legitimate(&net, &cfg));
        net.inject_into(2, 0, Message::Garbage(1));
        assert!(!is_legitimate(&net, &cfg));
    }

    #[test]
    fn default_census_is_empty() {
        let census = TokenCensus::default();
        assert!(!census.matches(1));
        assert_eq!(census.resource + census.pusher + census.priority, 0);
    }
}
