//! Transient-fault injection.
//!
//! Self-stabilization is evaluated by placing the system in an *arbitrary* configuration and
//! measuring whether (and how fast) it recovers.  A configuration consists of (a) every
//! process's local variables and (b) the contents of every channel, the latter bounded by
//! `CMAX` messages per channel (the paper's assumption, needed for bounded-memory
//! stabilization).  [`FaultInjector`] perturbs both.

use crate::network::Network;
use crate::process::{MessageKind, Process};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use topology::Topology;

/// A process whose local state can be set to an arbitrary value, as a transient fault would.
pub trait Corruptible {
    /// Overwrites the local variables with arbitrary values drawn from `rng`.
    ///
    /// Implementations must keep variables inside their declared *domains* (the paper's model
    /// has bounded variables; a transient fault cannot move a variable outside its domain),
    /// but are otherwise free to produce any combination.
    fn corrupt(&mut self, rng: &mut StdRng);
}

/// A message type that can produce arbitrary (possibly garbage) instances, as found in
/// channels after a transient fault.
pub trait ArbitraryMessage: Sized {
    /// Draws an arbitrary message from `rng`.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

/// A process that can be crash-restarted: its local variables return to their *initial*
/// values (the state a freshly booted process would have), as opposed to the arbitrary values
/// produced by [`Corruptible::corrupt`].
///
/// This models the "process crashes" failure pattern the paper's conclusion lists as an open
/// extension: a crash wipes the process's volatile memory and the process then rejoins the
/// computation from its initial state.  For a self-stabilizing protocol a crash-restart is
/// just a particular transient fault (the post-crash configuration is one of the arbitrary
/// configurations convergence already covers), so recovery is guaranteed; the non-stabilizing
/// protocol rungs have no such guarantee — a restarted root re-creates its initial tokens and
/// permanently corrupts the token population.  Experiment E15 measures both effects.
pub trait Restartable {
    /// Resets every local variable to its initial (boot-time) value.
    fn restart(&mut self);
}

/// What kind and how much damage to inject.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct FaultPlan {
    /// Probability that each process has its local state corrupted.
    pub corrupt_node_prob: f64,
    /// Maximum number of arbitrary messages inserted into each channel (the paper's `CMAX`).
    pub channel_garbage_max: usize,
    /// Probability that each in-flight message is dropped.
    pub drop_prob: f64,
    /// Probability that each in-flight message is duplicated in place.
    pub duplicate_prob: f64,
    /// Probability that each channel is completely cleared before garbage insertion.
    pub clear_channel_prob: f64,
}

impl FaultPlan {
    /// A severe fault: every node corrupted, channels cleared and refilled with garbage.
    pub fn catastrophic(cmax: usize) -> Self {
        FaultPlan {
            corrupt_node_prob: 1.0,
            channel_garbage_max: cmax,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            clear_channel_prob: 1.0,
        }
    }

    /// A moderate fault: half of the nodes corrupted, some messages lost or duplicated, a
    /// little garbage.
    pub fn moderate(cmax: usize) -> Self {
        FaultPlan {
            corrupt_node_prob: 0.5,
            channel_garbage_max: cmax.min(2),
            drop_prob: 0.3,
            duplicate_prob: 0.2,
            clear_channel_prob: 0.0,
        }
    }

    /// A light fault: no local-state corruption, only message loss/duplication.
    pub fn message_only() -> Self {
        FaultPlan {
            corrupt_node_prob: 0.0,
            channel_garbage_max: 0,
            drop_prob: 0.5,
            duplicate_prob: 0.5,
            clear_channel_prob: 0.0,
        }
    }
}

/// Summary of the damage actually injected, for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct FaultReport {
    /// Number of processes whose local state was corrupted.
    pub nodes_corrupted: usize,
    /// Number of processes crash-restarted (local state reset to its initial value).
    pub nodes_crashed: usize,
    /// Number of garbage messages inserted.
    pub garbage_inserted: usize,
    /// Number of in-flight messages dropped.
    pub messages_dropped: usize,
    /// Number of in-flight messages duplicated.
    pub messages_duplicated: usize,
    /// Number of channels cleared.
    pub channels_cleared: usize,
}

/// Deterministic (seeded) transient-fault injector.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    rng: StdRng,
}

impl FaultInjector {
    /// Creates an injector from a seed.
    pub fn new(seed: u64) -> Self {
        FaultInjector { rng: StdRng::seed_from_u64(seed) }
    }

    /// Applies `plan` to `net`: corrupts local states, clears/drops/duplicates in-flight
    /// messages and inserts channel garbage.  Returns a report of the damage done.
    pub fn inject<P, T>(&mut self, net: &mut Network<P, T>, plan: &FaultPlan) -> FaultReport
    where
        P: Process + Corruptible,
        P::Msg: ArbitraryMessage + MessageKind,
        T: Topology,
    {
        let mut report = FaultReport::default();
        let n = net.len();

        for v in 0..n {
            if self.rng.gen_bool(plan.corrupt_node_prob.clamp(0.0, 1.0)) {
                net.node_mut(v).corrupt(&mut self.rng);
                report.nodes_corrupted += 1;
            }
        }

        for v in 0..n {
            let degree = net.topology().degree(v);
            for l in 0..degree {
                if plan.clear_channel_prob > 0.0
                    && self.rng.gen_bool(plan.clear_channel_prob.clamp(0.0, 1.0))
                {
                    let mut ch = net.channel_mut(v, l);
                    if !ch.is_empty() {
                        report.messages_dropped += ch.len();
                    }
                    ch.clear();
                    report.channels_cleared += 1;
                }
                // Drop and duplicate surviving messages.
                if plan.drop_prob > 0.0 || plan.duplicate_prob > 0.0 {
                    let len = net.channel(v, l).len();
                    // Walk backwards so removals do not disturb earlier indices.
                    for idx in (0..len).rev() {
                        if plan.drop_prob > 0.0 && self.rng.gen_bool(plan.drop_prob.clamp(0.0, 1.0))
                        {
                            net.channel_mut(v, l).remove(idx);
                            report.messages_dropped += 1;
                        } else if plan.duplicate_prob > 0.0
                            && self.rng.gen_bool(plan.duplicate_prob.clamp(0.0, 1.0))
                        {
                            let dup = net.channel(v, l).iter().nth(idx).cloned();
                            if let Some(dup) = dup {
                                net.channel_mut(v, l).insert(idx, dup);
                                report.messages_duplicated += 1;
                            }
                        }
                    }
                }
                // Insert up to channel_garbage_max arbitrary messages at random positions.
                if plan.channel_garbage_max > 0 {
                    let count = self.rng.gen_range(0..=plan.channel_garbage_max);
                    for _ in 0..count {
                        let msg = P::Msg::arbitrary(&mut self.rng);
                        let pos = self.rng.gen_range(0..=net.channel(v, l).len());
                        net.channel_mut(v, l).insert(pos, msg);
                        report.garbage_inserted += 1;
                    }
                }
            }
        }
        report
    }

    /// Crash-restarts the given processes: each one's local state is reset to its initial
    /// value, and — when `lose_incoming` is true — its incoming channels are emptied, modelling
    /// the loss of every message that was addressed to the crashed process.
    ///
    /// Duplicate node ids are restarted only once.  Returns a report whose `nodes_crashed`,
    /// `messages_dropped` and `channels_cleared` fields describe the damage.
    pub fn crash<P, T>(
        &mut self,
        net: &mut Network<P, T>,
        nodes: &[crate::NodeId],
        lose_incoming: bool,
    ) -> FaultReport
    where
        P: Process + Restartable,
        T: Topology,
    {
        let mut report = FaultReport::default();
        let mut seen = vec![false; net.len()];
        for &v in nodes {
            if v >= net.len() || seen[v] {
                continue;
            }
            seen[v] = true;
            net.node_mut(v).restart();
            report.nodes_crashed += 1;
            if lose_incoming {
                let degree = net.topology().degree(v);
                for l in 0..degree {
                    let dropped = net.channel(v, l).len();
                    if dropped > 0 {
                        report.messages_dropped += dropped;
                    }
                    net.channel_mut(v, l).clear();
                    report.channels_cleared += 1;
                }
            }
        }
        report
    }

    /// Corrupts the local state of exactly the listed processes (duplicates corrupted only
    /// once; out-of-range ids ignored).
    ///
    /// This is the targeted counterpart of [`FaultInjector::inject`]'s per-node corruption
    /// coin, for adversarial fault placers that choose their victims from the *live*
    /// configuration — e.g. the fault-schedule engine's token-holder-path event, which
    /// corrupts the whole root path the resource tokens travel on.
    pub fn corrupt_nodes<P, T>(
        &mut self,
        net: &mut Network<P, T>,
        nodes: &[crate::NodeId],
    ) -> FaultReport
    where
        P: Process + Corruptible,
        T: Topology,
    {
        let mut report = FaultReport::default();
        let mut seen = vec![false; net.len()];
        for &v in nodes {
            if v >= net.len() || seen[v] {
                continue;
            }
            seen[v] = true;
            net.node_mut(v).corrupt(&mut self.rng);
            report.nodes_corrupted += 1;
        }
        report
    }

    /// Crash-restarts `count` distinct processes chosen uniformly at random (see
    /// [`FaultInjector::crash`]).  Returns the chosen processes and the damage report.
    pub fn crash_random<P, T>(
        &mut self,
        net: &mut Network<P, T>,
        count: usize,
        lose_incoming: bool,
    ) -> (Vec<crate::NodeId>, FaultReport)
    where
        P: Process + Restartable,
        T: Topology,
    {
        let n = net.len();
        let mut ids: Vec<crate::NodeId> = (0..n).collect();
        // Partial Fisher–Yates: the first `count` entries are a uniform sample.
        let count = count.min(n);
        for i in 0..count {
            let j = self.rng.gen_range(i..n);
            ids.swap(i, j);
        }
        ids.truncate(count);
        let report = self.crash(net, &ids, lose_incoming);
        (ids, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Context;
    use crate::ChannelLabel;
    use topology::builders;

    #[derive(Clone, Debug, PartialEq)]
    enum M {
        Real(u32),
        Junk(u8),
    }
    impl MessageKind for M {
        fn kind(&self) -> &'static str {
            match self {
                M::Real(_) => "real",
                M::Junk(_) => "junk",
            }
        }
    }
    impl ArbitraryMessage for M {
        fn arbitrary(rng: &mut StdRng) -> Self {
            M::Junk(rng.gen())
        }
    }

    struct Node {
        counter: u32,
    }
    impl Process for Node {
        type Msg = M;
        fn on_message(&mut self, _f: ChannelLabel, _m: M, _ctx: &mut Context<'_, M>) {}
        fn on_tick(&mut self, _ctx: &mut Context<'_, M>) {}
    }
    impl Corruptible for Node {
        fn corrupt(&mut self, rng: &mut StdRng) {
            self.counter = rng.gen_range(0..100);
        }
    }

    fn net() -> Network<Node, topology::OrientedTree> {
        Network::new(builders::figure1_tree(), |_| Node { counter: 0 })
    }

    #[test]
    fn catastrophic_fault_corrupts_every_node() {
        let mut n = net();
        let mut inj = FaultInjector::new(1);
        let report = inj.inject(&mut n, &FaultPlan::catastrophic(3));
        assert_eq!(report.nodes_corrupted, 8);
        assert_eq!(report.channels_cleared, n.topology().directed_channels());
        // Garbage bounded by CMAX per channel.
        assert!(report.garbage_inserted <= 3 * n.topology().directed_channels());
        assert_eq!(n.in_flight(), report.garbage_inserted);
    }

    #[test]
    fn message_only_fault_leaves_local_state_alone() {
        let mut n = net();
        n.inject_into(0, 0, M::Real(7));
        n.inject_into(0, 1, M::Real(8));
        let mut inj = FaultInjector::new(2);
        let report = inj.inject(&mut n, &FaultPlan::message_only());
        assert_eq!(report.nodes_corrupted, 0);
        assert_eq!(report.garbage_inserted, 0);
        assert!(report.messages_dropped + report.messages_duplicated <= 4);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let run = |seed| {
            let mut n = net();
            n.inject_into(4, 1, M::Real(1));
            let mut inj = FaultInjector::new(seed);
            inj.inject(&mut n, &FaultPlan::moderate(2))
        };
        assert_eq!(run(9), run(9));
    }

    impl Restartable for Node {
        fn restart(&mut self) {
            self.counter = 0;
        }
    }

    #[test]
    fn crash_restarts_state_and_optionally_clears_incoming_channels() {
        let mut n = net();
        n.node_mut(3).counter = 42;
        n.node_mut(4).counter = 7;
        n.inject_into(3, 0, M::Real(1));
        n.inject_into(3, 0, M::Real(2));
        n.inject_into(4, 0, M::Real(3));
        let mut inj = FaultInjector::new(5);
        // Crash node 3 with message loss, node 4 without; duplicates are collapsed.
        let report = inj.crash(&mut n, &[3, 3], true);
        assert_eq!(report.nodes_crashed, 1);
        assert_eq!(report.messages_dropped, 2);
        assert_eq!(n.node(3).counter, 0);
        assert_eq!(n.channel(3, 0).len(), 0);
        let report = inj.crash(&mut n, &[4], false);
        assert_eq!(report.nodes_crashed, 1);
        assert_eq!(report.messages_dropped, 0);
        assert_eq!(n.node(4).counter, 0);
        assert_eq!(n.channel(4, 0).len(), 1, "without message loss the channel is untouched");
    }

    #[test]
    fn crash_random_picks_distinct_nodes_and_is_deterministic() {
        let pick = |seed| {
            let mut n = net();
            let mut inj = FaultInjector::new(seed);
            let (ids, report) = inj.crash_random(&mut n, 3, false);
            assert_eq!(report.nodes_crashed, 3);
            ids
        };
        let a = pick(11);
        let b = pick(11);
        assert_eq!(a, b, "same seed, same victims");
        assert_eq!(a.len(), 3);
        let unique: std::collections::BTreeSet<_> = a.iter().collect();
        assert_eq!(unique.len(), 3, "victims are distinct");
        // Requesting more crashes than processes clamps to n.
        let mut n = net();
        let mut inj = FaultInjector::new(1);
        let (ids, _) = inj.crash_random(&mut n, 100, false);
        assert_eq!(ids.len(), 8);
    }

    #[test]
    fn zero_plan_is_a_no_op() {
        let mut n = net();
        n.inject_into(1, 0, M::Real(3));
        let mut inj = FaultInjector::new(3);
        let plan = FaultPlan {
            corrupt_node_prob: 0.0,
            channel_garbage_max: 0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            clear_channel_prob: 0.0,
        };
        let report = inj.inject(&mut n, &plan);
        assert_eq!(report, FaultReport::default());
        assert_eq!(n.in_flight(), 1);
    }
}
