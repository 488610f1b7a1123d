//! The configuration predicates checked on every explored configuration, and the tally the
//! explorer judges them on.
//!
//! A [`Property`] is one of the four global predicates the paper's proofs reason about, each
//! defined once in [`klex_core::legitimacy`], which also words the violation:
//!
//! * [`Property::Safety`] — [`legitimacy::safety`]: no process reserves more than `k` tokens
//!   (the protocol invariant that implies the specification's "at most `k` units in use")
//!   and at most `ℓ` units are in use;
//! * [`Property::ExactCensus`] — the token population is exactly (ℓ resource, 1 pusher,
//!   1 priority), the invariant Lemmas 6–8 establish;
//! * [`Property::NoGarbage`] — no corrupted message survives;
//! * [`Property::Legitimate`] — [`legitimacy::legitimate`], the conjunction used as the
//!   empirical legitimate set: exact census, no garbage, and safety — checking it on every
//!   configuration reachable from a legitimate one is exactly the *closure* half of
//!   Definition 1.
//!
//! # The tally
//!
//! Every clause reads a handful of counters, not the configuration: the token census, the
//! units in use and the number of processes over `k` — the triple the simulator's
//! [`klex_core::LiveCensus`] keeps — to which the explorer adds the number of messages in
//! flight, for its graph facts.  A `Tally` holds them in eight `u32` fields.  One
//! activation changes one process's share, consumes at most one message and sends a few, so
//! a successor's tally is its parent's plus a delta (`Tally::change`) that depends only on
//! the activation's local effect; the delta explorer records it once per distinct local
//! transition and carries tallies along BFS edges, so admitting a configuration decodes
//! nothing.  `Property::holds` judges a tally through the clause definitions; a failed
//! verdict decodes that one configuration, and [`Property::check`] words the violation from
//! it.

use crate::snapshot::Configuration;
use klex_core::legitimacy::{self, Breach, NodeShare, TokenCensus};
use klex_core::{KlConfig, Message};

/// A predicate over configurations, named for reporting: one of the four clauses a scenario
/// spec can name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Property {
    /// `"safety"`: the safety clause of the k-out-of-ℓ exclusion specification.
    Safety(KlConfig),
    /// `"exact-census"`: the token population is exactly (ℓ, 1, 1).
    ExactCensus(KlConfig),
    /// `"no-garbage"`: no garbage (non-protocol) message is in flight.
    NoGarbage,
    /// `"legitimate"`: exact census, no garbage, and safety.  Checking this on every
    /// reachable configuration from a legitimate start is the closure property of
    /// Definition 1.
    Legitimate(KlConfig),
}

impl Property {
    /// Short name used in reports and specs (e.g. `"safety"`).
    pub fn name(&self) -> &'static str {
        match self {
            Property::Safety(_) => "safety",
            Property::ExactCensus(_) => "exact-census",
            Property::NoGarbage => "no-garbage",
            Property::Legitimate(_) => "legitimate",
        }
    }

    /// Returns `Err(description)` when the property is violated in `config`.
    pub fn check(&self, config: &Configuration) -> Result<(), String> {
        let census = || config.census();
        let safety = |cfg: &KlConfig| legitimacy::safety(config.shares(), cfg);
        match self {
            Property::Safety(cfg) => safety(cfg),
            Property::ExactCensus(cfg) => census().exact(cfg.l),
            Property::NoGarbage => census().no_garbage(),
            Property::Legitimate(cfg) => legitimacy::legitimate(&census(), cfg, || safety(cfg)),
        }
        .map_err(|breach: Breach| breach.to_string())
    }

    /// The tally's verdict: `true` when the property holds in a configuration whose tally
    /// (counted against `k` = [`Property::k`]) is `tally`.  Exact when the tally was counted
    /// against this property's own `k`; against a smaller one, `false` only means "decode
    /// and [`Property::check`]".
    pub(crate) fn holds(&self, tally: &Tally) -> bool {
        let safe = |cfg: &KlConfig| {
            tally.over_k == 0 && legitimacy::global_clause(tally.in_use as usize, cfg.l).is_ok()
        };
        match self {
            Property::Safety(cfg) => safe(cfg),
            Property::ExactCensus(cfg) => tally.census().exact(cfg.l).is_ok(),
            Property::NoGarbage => tally.census().no_garbage().is_ok(),
            // A tally cannot name the process that breaks the per-process clause, so the
            // safety conjunct is judged beside the census clauses rather than inside them.
            Property::Legitimate(cfg) => {
                legitimacy::legitimate(&tally.census(), cfg, || Ok(())).is_ok() && safe(cfg)
            }
        }
    }

    /// The `k` of the per-process clause the property reads, if it reads one.
    pub(crate) fn k(&self) -> Option<usize> {
        match self {
            Property::Safety(cfg) | Property::Legitimate(cfg) => Some(cfg.k),
            Property::ExactCensus(_) | Property::NoGarbage => None,
        }
    }
}

/// The safety clause of the k-out-of-ℓ exclusion specification.
pub fn safety(cfg: KlConfig) -> Property {
    Property::Safety(cfg)
}

/// The token population is exactly (ℓ, 1, 1).
pub fn exact_census(cfg: KlConfig) -> Property {
    Property::ExactCensus(cfg)
}

/// No garbage (non-protocol) message is in flight.
pub fn no_garbage() -> Property {
    Property::NoGarbage
}

/// The legitimacy predicate: exact census, no garbage, and safety.
pub fn legitimate(cfg: KlConfig) -> Property {
    Property::Legitimate(cfg)
}

/// The counters every [`Property`] and the recorded graph's occupancy maximum read from a
/// configuration: its [`TokenCensus`], the units in use, the processes failing the
/// per-process clause for one `k`, and the messages in flight.  32 bytes.
///
/// Tallies add and subtract field by field, wrapping, so a [`Tally::change`] — which may
/// lower a count — is itself a `Tally`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    resource: u32,
    pusher: u32,
    priority: u32,
    ctrl: u32,
    garbage: u32,
    /// Σ units in use.
    in_use: u32,
    /// Processes failing [`NodeShare::clause`] for the tally's `k`.
    over_k: u32,
    /// Messages in flight, markers included.
    in_flight: u32,
}

/// `count` as a tally field.
fn field(count: usize) -> u32 {
    u32::try_from(count).unwrap_or_else(|_| panic!("{count} does not fit a tally field"))
}

impl Tally {
    /// The tally of `messages` in flight and processes with `shares`, counting the processes
    /// over `k`: [`TokenCensus::of`] plus the three counts it does not keep.
    fn of_parts<'m>(
        messages: impl IntoIterator<Item = &'m Message>,
        shares: impl IntoIterator<Item = NodeShare>,
        k: usize,
    ) -> Tally {
        let (mut in_use, mut over_k, mut in_flight) = (0, 0, 0);
        let counted = shares.into_iter().enumerate().map(|(node, share)| {
            in_use += share.in_use;
            over_k += usize::from(share.clause(node, k).is_err());
            share
        });
        let census = TokenCensus::of(messages.into_iter().inspect(|_| in_flight += 1), counted);
        Tally {
            resource: field(census.resource),
            pusher: field(census.pusher),
            priority: field(census.priority),
            ctrl: field(census.ctrl),
            garbage: field(census.garbage),
            in_use: field(in_use),
            over_k: field(over_k),
            in_flight: field(in_flight),
        }
    }

    /// The tally of a decoded configuration, counting the processes over `k`.
    pub(crate) fn of(config: &Configuration, k: usize) -> Tally {
        Tally::of_parts(config.channels.iter().flatten().flatten(), config.shares(), k)
    }

    /// The tally of `messages` alone, as [`Tally::change`] takes an activation's sends.
    pub(crate) fn of_messages<'m>(messages: impl IntoIterator<Item = &'m Message>) -> Tally {
        Tally::of_parts(messages, [], 0)
    }

    /// What one activation adds to a tally: the activated process's share goes from
    /// `before` to `after`, `consumed` (a delivery's head) leaves the channels and the
    /// messages of `sent` ([`Tally::of_messages`]) enter them.
    pub(crate) fn change(
        before: NodeShare,
        after: NodeShare,
        consumed: Option<&Message>,
        sent: Tally,
        k: usize,
    ) -> Tally {
        let gained = Tally::of_parts([], [after], k).plus(sent);
        let lost = Tally::of_parts(consumed, [before], k);
        gained.zip(lost, u32::wrapping_sub)
    }

    /// The tally after a transition whose [`Tally::change`] is `change`.
    pub(crate) fn plus(self, change: Tally) -> Tally {
        self.zip(change, u32::wrapping_add)
    }

    fn zip(self, other: Tally, op: fn(u32, u32) -> u32) -> Tally {
        Tally {
            resource: op(self.resource, other.resource),
            pusher: op(self.pusher, other.pusher),
            priority: op(self.priority, other.priority),
            ctrl: op(self.ctrl, other.ctrl),
            garbage: op(self.garbage, other.garbage),
            in_use: op(self.in_use, other.in_use),
            over_k: op(self.over_k, other.over_k),
            in_flight: op(self.in_flight, other.in_flight),
        }
    }

    /// The token census.
    pub(crate) fn census(&self) -> TokenCensus {
        TokenCensus {
            resource: self.resource as usize,
            pusher: self.pusher as usize,
            priority: self.priority as usize,
            ctrl: self.ctrl as usize,
            garbage: self.garbage as usize,
        }
    }

    /// Messages in flight.
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::NodeState;
    use treenet::CsState;

    fn node(cs: CsState, need: usize, rset: Vec<usize>, prio: Option<usize>) -> NodeState {
        NodeState { cs, need, rset, prio, bootstrapped: true, ctrl: None }
    }

    fn config(nodes: Vec<NodeState>, channels: Vec<Vec<Vec<Message>>>) -> Configuration {
        Configuration { nodes, channels }
    }

    fn kl(k: usize, l: usize) -> KlConfig {
        KlConfig::new(k, l, 3)
    }

    /// `property.check(config)`, after asserting that the tally's verdict agrees with it.
    fn judged(property: Property, config: &Configuration) -> Result<(), String> {
        let verdict = property.check(config);
        let k = property.k().unwrap_or(usize::MAX);
        assert_eq!(property.holds(&Tally::of(config, k)), verdict.is_ok(), "{property:?}");
        verdict
    }

    #[test]
    fn safety_accepts_bounded_use_and_rejects_hoarding() {
        let ok = config(
            vec![node(CsState::In, 2, vec![0, 1], None), node(CsState::Out, 0, vec![], None)],
            vec![vec![vec![]], vec![vec![]]],
        );
        assert!(judged(safety(kl(2, 3)), &ok).is_ok());

        let hoarder = config(vec![node(CsState::Req, 2, vec![0, 0, 1], None)], vec![vec![vec![]]]);
        let err = judged(safety(kl(2, 3)), &hoarder).unwrap_err();
        assert_eq!(err, "process 0 reserves 3 tokens but k = 2");
    }

    #[test]
    fn safety_rejects_global_overuse() {
        let too_many = config(
            vec![node(CsState::In, 2, vec![0, 0], None), node(CsState::In, 2, vec![0, 0], None)],
            vec![vec![vec![]], vec![vec![]]],
        );
        let err = judged(safety(kl(2, 3)), &too_many).unwrap_err();
        assert_eq!(err, "4 units in use but l = 3");
    }

    #[test]
    fn exact_census_counts_held_and_in_flight_tokens() {
        let c = config(
            vec![node(CsState::Req, 2, vec![0], Some(0)), node(CsState::Out, 0, vec![], None)],
            vec![vec![vec![Message::ResT, Message::PushT]], vec![vec![Message::ResT]]],
        );
        // 1 reserved + 2 in flight = 3 resource tokens; 1 pusher; 1 held priority.
        assert!(judged(exact_census(kl(2, 3)), &c).is_ok());
        let err = judged(exact_census(kl(2, 4)), &c).unwrap_err();
        assert_eq!(err, "census is (3 resource, 1 pusher, 1 priority), expected (4, 1, 1)");
    }

    #[test]
    fn no_garbage_flags_corrupted_messages() {
        let clean = config(vec![node(CsState::Out, 0, vec![], None)], vec![vec![vec![]]]);
        assert!(judged(no_garbage(), &clean).is_ok());
        let dirty = config(
            vec![node(CsState::Out, 0, vec![], None)],
            vec![vec![vec![Message::Garbage(3)]]],
        );
        assert_eq!(judged(no_garbage(), &dirty).unwrap_err(), "1 garbage messages in flight");
    }

    #[test]
    fn legitimate_is_the_conjunction() {
        let c = config(
            vec![node(CsState::Out, 0, vec![], None), node(CsState::Out, 0, vec![], None)],
            vec![
                vec![vec![
                    Message::ResT,
                    Message::ResT,
                    Message::ResT,
                    Message::PushT,
                    Message::PrioT,
                ]],
                vec![vec![]],
            ],
        );
        assert!(judged(legitimate(kl(2, 3)), &c).is_ok());
        let mut wrong = c.clone();
        wrong.channels[1][0].push(Message::PrioT);
        assert!(judged(legitimate(kl(2, 3)), &wrong).is_err());
        // A legitimate census with a hoarder: only the safety conjunct fails.
        let mut hoarding = c.clone();
        hoarding.channels[0][0].drain(..3);
        hoarding.nodes[1] = node(CsState::Req, 1, vec![0, 0, 0], None);
        let err = judged(legitimate(kl(2, 3)), &hoarding).unwrap_err();
        assert_eq!(err, "process 1 reserves 3 tokens but k = 2");
    }

    #[test]
    fn a_tally_is_its_parent_plus_the_change_of_the_activation() {
        let parent = config(
            vec![node(CsState::Req, 2, vec![0], None), node(CsState::Out, 0, vec![], None)],
            vec![vec![vec![Message::ResT]], vec![vec![Message::PushT, Message::Garbage(1)]]],
        );
        // Process 0 consumes its head ResT, enters with both tokens, and sends the pusher on.
        let mut child = parent.clone();
        child.channels[0][0].clear();
        child.nodes[0] = node(CsState::In, 2, vec![0, 0], Some(0));
        child.channels[1][0].push(Message::PushT);
        let (before, after) = (NodeShare::of(&parent.nodes[0]), NodeShare::of(&child.nodes[0]));
        for k in [1, 2] {
            let sent = Tally::of_messages([&Message::PushT]);
            let change = Tally::change(before, after, Some(&Message::ResT), sent, k);
            assert_eq!(Tally::of(&parent, k).plus(change), Tally::of(&child, k), "k = {k}");
        }
        assert_eq!(std::mem::size_of::<Tally>(), 32);
    }
}
