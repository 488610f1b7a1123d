//! Configuration predicates checked on every explored configuration.
//!
//! Properties are pure functions of a [`Configuration`]; they correspond to the global
//! predicates the paper's proofs reason about.  The first four are thin adapters: each reads
//! the configuration's census ([`Configuration::census`]) or per-process shares
//! ([`Configuration::shares`]) and calls the one definition of its clause in
//! [`klex_core::legitimacy`], which also words the violation:
//!
//! * [`safety`] — [`legitimacy::safety`]: no process reserves more than `k` tokens (the
//!   protocol invariant that implies the specification's "at most `k` units in use") and at
//!   most `ℓ` units are in use;
//! * [`exact_census`] — the token population is exactly (ℓ resource, 1 pusher, 1 priority),
//!   the invariant Lemmas 6–8 establish;
//! * [`no_garbage`] — no corrupted message survives;
//! * [`legitimate`] — [`legitimacy::legitimate`], the conjunction used as the empirical
//!   legitimate set: exact census, no garbage, and safety — checking it on every
//!   configuration reachable from a legitimate one is exactly the *closure* half of
//!   Definition 1;
//! * [`bounded_channels`] — no channel ever holds more than a given number of messages
//!   (a sanity property of the token-circulation design: legitimate executions never
//!   accumulate unbounded traffic).

use crate::snapshot::Configuration;
use klex_core::legitimacy::{self, Breach};
use klex_core::KlConfig;

/// A predicate over configurations, named for reporting.
pub trait Property {
    /// Short name used in reports (e.g. `"safety"`).
    fn name(&self) -> &str;

    /// Returns `Err(description)` when the property is violated in `config`.
    fn check(&self, config: &Configuration) -> Result<(), String>;
}

struct Named<F> {
    name: &'static str,
    check: F,
}

impl<F> Property for Named<F>
where
    F: Fn(&Configuration) -> Result<(), String>,
{
    fn name(&self) -> &str {
        self.name
    }

    fn check(&self, config: &Configuration) -> Result<(), String> {
        (self.check)(config)
    }
}

/// Builds a property from a name and a closure.
pub fn property(
    name: &'static str,
    check: impl Fn(&Configuration) -> Result<(), String> + 'static,
) -> Box<dyn Property> {
    Box::new(Named { name, check })
}

/// Builds a property from a clause of [`klex_core::legitimacy`], reporting its breach.
fn clause(
    name: &'static str,
    check: impl Fn(&Configuration) -> Result<(), Breach> + 'static,
) -> Box<dyn Property> {
    property(name, move |c| check(c).map_err(|breach| breach.to_string()))
}

/// The safety clause of the k-out-of-ℓ exclusion specification.
pub fn safety(cfg: KlConfig) -> Box<dyn Property> {
    clause("safety", move |c| legitimacy::safety(c.shares(), &cfg))
}

/// The token population is exactly (ℓ, 1, 1).
pub fn exact_census(cfg: KlConfig) -> Box<dyn Property> {
    clause("exact-census", move |c| c.census().exact(cfg.l))
}

/// No garbage (non-protocol) message is in flight.
pub fn no_garbage() -> Box<dyn Property> {
    clause("no-garbage", |c| c.census().no_garbage())
}

/// The legitimacy predicate: exact census, no garbage, and safety.  Checking this on every
/// reachable configuration from a legitimate start is the closure property of Definition 1.
pub fn legitimate(cfg: KlConfig) -> Box<dyn Property> {
    clause("legitimate", move |c| {
        legitimacy::legitimate(&c.census(), &cfg, || legitimacy::safety(c.shares(), &cfg))
    })
}

/// No channel ever holds more than `bound` in-flight messages.
pub fn bounded_channels(bound: usize) -> Box<dyn Property> {
    property("bounded-channels", move |c| {
        for (v, per_node) in c.channels.iter().enumerate() {
            for (l, ch) in per_node.iter().enumerate() {
                if ch.len() > bound {
                    return Err(format!(
                        "channel ({v}, {l}) holds {} messages, bound is {bound}",
                        ch.len()
                    ));
                }
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::NodeState;
    use klex_core::Message;
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

    #[test]
    fn safety_accepts_bounded_use_and_rejects_hoarding() {
        let ok = config(
            vec![node(CsState::In, 2, vec![0, 1], None), node(CsState::Out, 0, vec![], None)],
            vec![vec![vec![]], vec![vec![]]],
        );
        assert!(safety(kl(2, 3)).check(&ok).is_ok());

        let hoarder = config(
            vec![node(CsState::Req, 2, vec![0, 0, 1], None)],
            vec![vec![vec![]]],
        );
        let err = safety(kl(2, 3)).check(&hoarder).unwrap_err();
        assert_eq!(err, "process 0 reserves 3 tokens but k = 2");
    }

    #[test]
    fn safety_rejects_global_overuse() {
        let too_many = config(
            vec![
                node(CsState::In, 2, vec![0, 0], None),
                node(CsState::In, 2, vec![0, 0], None),
            ],
            vec![vec![vec![]], vec![vec![]]],
        );
        let err = safety(kl(2, 3)).check(&too_many).unwrap_err();
        assert_eq!(err, "4 units in use but l = 3");
    }

    #[test]
    fn exact_census_counts_held_and_in_flight_tokens() {
        let c = config(
            vec![node(CsState::Req, 2, vec![0], Some(0)), node(CsState::Out, 0, vec![], None)],
            vec![
                vec![vec![Message::ResT, Message::PushT]],
                vec![vec![Message::ResT]],
            ],
        );
        // 1 reserved + 2 in flight = 3 resource tokens; 1 pusher; 1 held priority.
        assert!(exact_census(kl(2, 3)).check(&c).is_ok());
        let err = exact_census(kl(2, 4)).check(&c).unwrap_err();
        assert_eq!(err, "census is (3 resource, 1 pusher, 1 priority), expected (4, 1, 1)");
    }

    #[test]
    fn no_garbage_flags_corrupted_messages() {
        let clean = config(vec![node(CsState::Out, 0, vec![], None)], vec![vec![vec![]]]);
        assert!(no_garbage().check(&clean).is_ok());
        let dirty = config(
            vec![node(CsState::Out, 0, vec![], None)],
            vec![vec![vec![Message::Garbage(3)]]],
        );
        assert_eq!(no_garbage().check(&dirty).unwrap_err(), "1 garbage messages in flight");
    }

    #[test]
    fn legitimate_is_the_conjunction() {
        let c = config(
            vec![node(CsState::Out, 0, vec![], None), node(CsState::Out, 0, vec![], None)],
            vec![
                vec![vec![Message::ResT, Message::ResT, Message::ResT, Message::PushT, Message::PrioT]],
                vec![vec![]],
            ],
        );
        assert!(legitimate(kl(2, 3)).check(&c).is_ok());
        let mut wrong = c.clone();
        wrong.channels[1][0].push(Message::PrioT);
        assert!(legitimate(kl(2, 3)).check(&wrong).is_err());
    }

    #[test]
    fn bounded_channels_reports_the_offending_link() {
        let c = config(
            vec![node(CsState::Out, 0, vec![], None)],
            vec![vec![vec![Message::ResT, Message::ResT, Message::ResT]]],
        );
        assert!(bounded_channels(3).check(&c).is_ok());
        let err = bounded_channels(2).check(&c).unwrap_err();
        assert!(err.contains("(0, 0)"));
    }
}
