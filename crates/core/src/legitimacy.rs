//! Token censuses, the safety clauses and the legitimacy predicate — each defined once.
//!
//! Every consumer that judges a configuration produces the same summary — a
//! [`TokenCensus`] plus one [`NodeShare`] per process — and calls the clauses below; none
//! restates them.  The consumers are the network scans of this module ([`count_tokens`],
//! [`safety_holds`], [`is_legitimate`]), the per-activation [`LiveCensus`], the checker's
//! properties over its decoded configurations, and the snapshot monitor's cut verdicts.  A
//! clause that fails returns a [`Breach`] naming what broke.
//!
//! # Which clause is the specification
//!
//! Section 2's safety property bounds units *in use*: at most `k` units per process and at
//! most `ℓ` units overall, where a process uses its reserved tokens only while
//! `State = In` ([`KlInspect::units_in_use`]).  That is the specification.
//!
//! The per-process check, [`NodeShare::clause`], is stricter: it bounds `|RSet|`, the
//! reservations a process holds in or out of its critical section.  `|RSet| ≤ k` is a
//! protocol invariant, not part of the specification.  It implies the specification's
//! per-process clause, because units in use ≤ `|RSet|`.  It is also what keeps a requester's
//! next entry safe, because units in use equal `|RSet|` once the process is `In`.  So a
//! requester holding `k + 1` reservations outside its critical section breaks the invariant
//! (and [`safety`]) while it uses no unit yet.
//!
//! The global clause, [`global_clause`], is the specification's own: at most `ℓ` units in
//! use.  [`safety`] is the invariant on every process plus the global clause, and
//! [`legitimate`] is an exact `(ℓ, 1, 1)` census, no garbage, and [`safety`].
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
use std::fmt;
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
    /// The census of a configuration: the `messages` in flight plus the tokens the processes
    /// hold, one share each.
    pub fn of<'m>(
        messages: impl IntoIterator<Item = &'m Message>,
        shares: impl IntoIterator<Item = NodeShare>,
    ) -> Self {
        let mut census = TokenCensus::default();
        for msg in messages {
            if let Some(slot) = census.slot(msg) {
                *slot += 1;
            }
        }
        for share in shares {
            census.hold(share);
        }
        census
    }

    /// The counter an in-flight `msg` is counted under: the one mapping from message to
    /// token kind.  `None` for snapshot markers, which are observability traffic, not
    /// tokens: they exist only while a cut is being assembled and never enter the census.
    #[inline]
    pub fn slot(&mut self, msg: &Message) -> Option<&mut usize> {
        match msg {
            Message::ResT => Some(&mut self.resource),
            Message::PushT => Some(&mut self.pusher),
            Message::PrioT => Some(&mut self.priority),
            Message::Ctrl { .. } => Some(&mut self.ctrl),
            Message::Garbage(_) => Some(&mut self.garbage),
            Message::Marker(_) => None,
        }
    }

    /// Adds the tokens one process holds: its reservations and a held priority token.
    pub fn hold(&mut self, share: NodeShare) {
        self.resource += share.reserved;
        self.priority += usize::from(share.priority);
    }

    /// True when the circulating-token population matches a legitimate configuration:
    /// exactly `l` resource tokens, one pusher and one priority token.
    pub fn matches(&self, l: usize) -> bool {
        self.resource == l && self.pusher == 1 && self.priority == 1
    }

    /// The census clause of legitimacy: the population is exactly `(ℓ, 1, 1)` (Lemmas 6–8).
    pub fn exact(&self, l: usize) -> Result<(), Breach> {
        if self.matches(l) {
            Ok(())
        } else {
            Err(Breach::Census { census: *self, l })
        }
    }

    /// The garbage clause of legitimacy: no corrupted message is in flight.
    pub fn no_garbage(&self) -> Result<(), Breach> {
        match self.garbage {
            0 => Ok(()),
            garbage => Err(Breach::Garbage { garbage }),
        }
    }
}

/// One process's share of the census and of the safety clauses: everything the predicates
/// read from a process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeShare {
    /// `|RSet|`: resource tokens reserved.
    pub reserved: usize,
    /// Units in use: `|RSet|` while the process is `In`, 0 otherwise.
    pub in_use: usize,
    /// True when the process holds the priority token (`Prio ≠ ⊥`).
    pub priority: bool,
}

impl NodeShare {
    /// Reads the share of `node`.
    #[inline]
    pub fn of(node: &impl KlInspect) -> Self {
        let share = NodeShare {
            reserved: node.reserved(),
            in_use: node.units_in_use(),
            priority: node.holds_priority(),
        };
        debug_assert!(share.in_use <= share.reserved, "units in use exceed |RSet|");
        share
    }

    /// The per-process safety clause, checked through the protocol invariant `|RSet| ≤ k`
    /// (which implies the specification's `units in use ≤ k`; see the module docs).  `node`
    /// names the process in the breach.
    pub fn clause(&self, node: NodeId, k: usize) -> Result<(), Breach> {
        if self.over(k) {
            Err(Breach::Reserved { node, reserved: self.reserved, k })
        } else {
            Ok(())
        }
    }

    /// True when [`NodeShare::clause`] fails.
    #[inline]
    fn over(&self, k: usize) -> bool {
        self.reserved > k
    }
}

/// The specification's global safety clause: at most `ℓ` units in use overall.
pub fn global_clause(in_use: usize, l: usize) -> Result<(), Breach> {
    if in_use > l {
        Err(Breach::InUse { in_use, l })
    } else {
        Ok(())
    }
}

/// The safety predicate over the processes' shares, in process order: the per-process
/// clause on every process (the first offender is reported), then the global clause.
pub fn safety(shares: impl IntoIterator<Item = NodeShare>, cfg: &KlConfig) -> Result<(), Breach> {
    let mut in_use = 0usize;
    for (node, share) in shares.into_iter().enumerate() {
        share.clause(node, cfg.k)?;
        in_use += share.in_use;
    }
    global_clause(in_use, cfg.l)
}

/// The legitimacy predicate used as the empirical legitimate set: the census is exactly
/// `(ℓ, 1, 1)`, no garbage message survives, and `safety` holds — checked in that order, so
/// `safety` runs only once the census clauses pass.
///
/// The number of in-flight controller messages is *not* constrained: the root's timeout may
/// legitimately produce a transient duplicate which counter flushing later discards.
pub fn legitimate(
    census: &TokenCensus,
    cfg: &KlConfig,
    safety: impl FnOnce() -> Result<(), Breach>,
) -> Result<(), Breach> {
    census.exact(cfg.l)?;
    census.no_garbage()?;
    safety()
}

/// A failed clause: what a configuration breaks.  `Display` renders the checker's
/// violation text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Breach {
    /// A process reserves more than `k` tokens (the invariant `|RSet| ≤ k`).
    Reserved {
        /// The first offending process.
        node: NodeId,
        /// Its `|RSet|`.
        reserved: usize,
        /// The bound `k`.
        k: usize,
    },
    /// More than `ℓ` units are in use overall (the global clause).
    InUse {
        /// Units in use.
        in_use: usize,
        /// The bound `ℓ`.
        l: usize,
    },
    /// The token population is not exactly `(ℓ, 1, 1)`.
    Census {
        /// The census found.
        census: TokenCensus,
        /// The expected number of resource tokens `ℓ`.
        l: usize,
    },
    /// Garbage messages are in flight.
    Garbage {
        /// How many.
        garbage: usize,
    },
}

impl fmt::Display for Breach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Breach::Reserved { node, reserved, k } => {
                write!(f, "process {node} reserves {reserved} tokens but k = {k}")
            }
            Breach::InUse { in_use, l } => write!(f, "{in_use} units in use but l = {l}"),
            Breach::Census { census, l } => write!(
                f,
                "census is ({} resource, {} pusher, {} priority), expected ({l}, 1, 1)",
                census.resource, census.pusher, census.priority
            ),
            Breach::Garbage { garbage } => write!(f, "{garbage} garbage messages in flight"),
        }
    }
}

/// Counts every token in `net`, both in flight and held by processes.
pub fn count_tokens<P, T>(net: &Network<P, T>) -> TokenCensus
where
    P: Process<Msg = Message> + KlInspect,
    T: Topology,
{
    TokenCensus::of(net.iter_messages().map(|(_, _, msg)| msg), net.nodes().map(NodeShare::of))
}

/// True when [`safety`] holds on `net`.
pub fn safety_holds<P, T>(net: &Network<P, T>, cfg: &KlConfig) -> bool
where
    P: Process + KlInspect,
    T: Topology,
{
    safety(net.nodes().map(NodeShare::of), cfg).is_ok()
}

/// True when `net` is [`legitimate`].
pub fn is_legitimate<P, T>(net: &Network<P, T>, cfg: &KlConfig) -> bool
where
    P: Process<Msg = Message> + KlInspect,
    T: Topology,
{
    legitimate(&count_tokens(net), cfg, || safety(net.nodes().map(NodeShare::of), cfg)).is_ok()
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
    /// Processes currently failing the per-process clause ([`NodeShare::clause`]).
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

    /// Equal to [`safety`] of the tracked network's shares.
    pub fn safety(&self) -> Result<(), Breach> {
        if self.over_k > 0 {
            // Some process fails the per-process clause: the scan of the shares names the
            // first.  Only an unsafe network pays for it.
            return safety(self.shares.iter().copied(), &self.cfg);
        }
        global_clause(self.in_use, self.cfg.l)
    }

    /// Equal to [`safety_holds`] of the tracked network.
    pub fn safety_holds(&self) -> bool {
        self.safety().is_ok()
    }

    /// Equal to [`is_legitimate`] of the tracked network.
    pub fn is_legitimate(&self) -> bool {
        legitimate(&self.census, &self.cfg, || self.safety()).is_ok()
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
        debug_assert_eq!(self.safety(), safety(net.nodes().map(NodeShare::of), &self.cfg));
        activation
    }
}

impl StepEffects<Message> for LiveCensus {
    #[inline]
    fn delivered(&mut self, _node: NodeId, _label: ChannelLabel, msg: &Message) {
        if let Some(slot) = self.census.slot(msg) {
            *slot -= 1;
        }
    }

    #[inline]
    fn sent(&mut self, _node: NodeId, _label: ChannelLabel, msg: &Message) {
        if let Some(slot) = self.census.slot(msg) {
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
