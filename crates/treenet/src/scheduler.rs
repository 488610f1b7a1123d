//! Daemons (schedulers): fair, synchronous and adversarial activation orders.
//!
//! The paper assumes executions that are *asynchronous but fair*: every process takes
//! infinitely many steps, with unbounded (finite) delays between them.  A daemon — any
//! [`EventScheduler`] — chooses, at each simulation step, which process is activated and
//! whether it consumes a message or only runs its bottom-of-loop actions.  In the terminology
//! of the self-stabilization literature the bundled daemons realise the four classic ones:
//!
//! * [`RandomFair`] — a **randomized central daemon**: each step activates one uniformly
//!   chosen process, delivering from a uniformly chosen non-empty channel with probability
//!   `deliver_bias`.  Fair with probability 1; the default model of an arbitrary
//!   asynchronous execution.
//! * [`RoundRobin`] — a **weakly fair distributed daemon**, serialized: processes are
//!   activated cyclically and serve their channels cyclically; the closest deterministic
//!   analogue of "everyone moves at the same rate".
//! * [`Synchronous`] — the **synchronous daemon**: rounds in which every process acts once
//!   on the channel occupancy *snapshotted at the start of the round*, serialized in id
//!   order.
//! * [`Adversarial`] — a **bounded-unfairness adversary** that starves designated victims as
//!   long as the fairness bound allows; used to stress worst-case waiting times (Theorem 2).
//!
//! Every daemon reads network shape only through the [`EnabledShape`] handed to it — the
//! enabled set the network maintains incrementally (see [`crate::engine`]) — so each
//! decision is O(1) (a synchronous round boundary is O(enabled)) and allocation-free.
//! `tests/engine_equivalence.rs` keeps the original scan-based daemons, which re-derive
//! channel occupancy from the channels themselves, as the reference these must match
//! activation for activation.

use crate::engine::{EnabledShape, EventScheduler};
use crate::{ChannelLabel, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduling decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Deliver the head message of `node`'s incoming channel `channel` (if the channel is
    /// empty, the activation degrades to a tick).
    Deliver {
        /// The destination process.
        node: NodeId,
        /// The incoming channel to read.
        channel: ChannelLabel,
    },
    /// Activate `node` without delivering a message (bottom-of-loop actions only).
    Tick {
        /// The activated process.
        node: NodeId,
    },
}

impl Activation {
    /// The activated process — the only process whose state the activation can change.
    #[inline]
    pub fn node(&self) -> NodeId {
        match *self {
            Activation::Deliver { node, .. } | Activation::Tick { node } => node,
        }
    }
}

/// Deterministic fair scheduler: nodes are activated cyclically; each node serves its
/// incoming channels in round-robin order, interleaved with ticks.
#[derive(Clone, Debug, Default)]
pub struct RoundRobin {
    cursor: usize,
    channel_cursor: Vec<usize>,
}

impl RoundRobin {
    /// Creates a round-robin scheduler.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl EventScheduler for RoundRobin {
    #[inline]
    fn next_event(&mut self, shape: &EnabledShape<'_>) -> Activation {
        let n = shape.num_nodes();
        if self.channel_cursor.len() != n {
            self.channel_cursor = vec![0; n];
        }
        let node = self.cursor % n;
        self.cursor = (self.cursor + 1) % n;
        let degree = shape.degree(node);
        if degree == 0 || shape.deliverable_count(node) == 0 {
            return Activation::Tick { node };
        }
        let start = self.channel_cursor[node] % degree;
        let channel = shape
            .next_deliverable_from(node, start)
            .expect("deliverable_count > 0 guarantees a non-empty channel");
        self.channel_cursor[node] = (channel + 1) % degree;
        Activation::Deliver { node, channel }
    }
}

/// Seeded random fair scheduler (randomized central daemon).
///
/// Each step activates a uniformly random node.  With probability `deliver_bias` (default
/// 0.75) it delivers from a uniformly chosen non-empty incoming channel of that node (if
/// any); otherwise the node just ticks.  Every node is activated infinitely often with
/// probability 1, satisfying the paper's fairness assumption.
///
/// The RNG discipline is part of the contract: one node draw; then, only if the node has
/// deliverable messages, one Bernoulli draw; then, only on success, one channel draw.
#[derive(Clone, Debug)]
pub struct RandomFair {
    rng: StdRng,
    deliver_bias: f64,
}

impl RandomFair {
    /// Creates a random scheduler from a seed.
    pub fn new(seed: u64) -> Self {
        RandomFair { rng: StdRng::seed_from_u64(seed), deliver_bias: 0.75 }
    }

    /// Overrides the probability of preferring a delivery over a tick when messages are
    /// available (clamped to `[0, 1]`).
    pub fn with_deliver_bias(mut self, bias: f64) -> Self {
        self.deliver_bias = bias.clamp(0.0, 1.0);
        self
    }
}

impl EventScheduler for RandomFair {
    #[inline]
    fn next_event(&mut self, shape: &EnabledShape<'_>) -> Activation {
        let n = shape.num_nodes();
        let node = self.rng.gen_range(0..n);
        let deliverable = shape.deliverable_count(node);
        if deliverable > 0 && self.rng.gen_bool(self.deliver_bias) {
            let idx = self.rng.gen_range(0..deliverable);
            let channel = shape.nth_deliverable(node, idx).expect("idx < deliverable_count");
            Activation::Deliver { node, channel }
        } else {
            Activation::Tick { node }
        }
    }
}

/// The synchronous daemon, serialized: execution proceeds in rounds of `n` activations; at
/// the start of a round the channel occupancy is snapshotted, and within the round every
/// process acts once, in id order, on that snapshot — process `v` delivers from its lowest
/// channel that was non-empty *at the round boundary*, or ticks if it had none.
///
/// Because only `v` itself ever consumes `v`'s incoming messages, the snapshot stays valid
/// for the process it concerns throughout the round; messages arriving mid-round are
/// deliberately ignored until the next round, which is what makes the daemon synchronous.
/// The snapshot visits only the delivery-enabled nodes (O(enabled) per round).
#[derive(Clone, Debug, Default)]
pub struct Synchronous {
    round: Vec<Option<ChannelLabel>>,
    cursor: usize,
}

impl Synchronous {
    /// Creates a synchronous-daemon scheduler.
    pub fn new() -> Self {
        Synchronous::default()
    }
}

impl EventScheduler for Synchronous {
    #[inline]
    fn next_event(&mut self, shape: &EnabledShape<'_>) -> Activation {
        let n = shape.num_nodes();
        if self.round.len() != n {
            // The network changed size under us: restart the round.
            self.cursor = 0;
        }
        if self.cursor == 0 {
            self.round.clear();
            self.round.resize(n, None);
            for i in 0..shape.enabled_len() {
                let v = shape.enabled_node(i);
                self.round[v] = shape.next_deliverable_from(v, 0);
            }
        }
        let node = self.cursor;
        self.cursor = (self.cursor + 1) % n;
        match self.round[node] {
            Some(channel) => Activation::Deliver { node, channel },
            None => Activation::Tick { node },
        }
    }
}

/// A bounded-unfairness scheduler used to stress waiting times.
///
/// The designated `victims` are starved of activations: they are only activated once every
/// `patience` scheduler decisions; all other decisions go (round-robin) to the non-victims.
/// Because victims are still activated infinitely often, the execution remains fair in the
/// paper's sense, but it approximates the worst case used in the waiting-time analysis,
/// where all other processes move as often as possible between two steps of the victim.
/// When the victims cover every node there is no one else to schedule, and the round-robin
/// decisions are taken as they come.
#[derive(Clone, Debug)]
pub struct Adversarial {
    victims: Vec<NodeId>,
    patience: u64,
    counter: u64,
    inner: RoundRobin,
    victim_cursor: usize,
    victim_channel_cursor: usize,
    /// `(n, every node below n is a victim)` for the last network size seen.
    coverage: Option<(usize, bool)>,
}

impl Adversarial {
    /// Creates an adversarial scheduler that activates each of `victims` only once every
    /// `patience` steps (`patience >= 1`).
    pub fn new(victims: Vec<NodeId>, patience: u64) -> Self {
        Adversarial {
            victims,
            patience: patience.max(1),
            counter: 0,
            inner: RoundRobin::new(),
            victim_cursor: 0,
            victim_channel_cursor: 0,
            coverage: None,
        }
    }

    /// True when the victims cover every node of an `n`-node network; computed once per
    /// network size.
    fn everyone_is_a_victim(&mut self, n: usize) -> bool {
        match self.coverage {
            Some((size, covered)) if size == n => covered,
            _ => {
                let covered = victims_cover(&self.victims, n);
                self.coverage = Some((n, covered));
                covered
            }
        }
    }
}

/// True when `victims` (duplicates and ids `>= n` allowed) includes every node `0..n`.
/// Runs once per network size, so it is kept out of line, off the per-step path.
#[cold]
#[inline(never)]
fn victims_cover(victims: &[NodeId], n: usize) -> bool {
    let mut seen = vec![false; n];
    for &v in victims.iter().filter(|&&v| v < n) {
        seen[v] = true;
    }
    seen.iter().all(|&s| s)
}

impl EventScheduler for Adversarial {
    #[inline]
    fn next_event(&mut self, shape: &EnabledShape<'_>) -> Activation {
        self.counter += 1;
        if !self.victims.is_empty() && self.counter.is_multiple_of(self.patience) {
            let node = self.victims[self.victim_cursor % self.victims.len()];
            self.victim_cursor += 1;
            let degree = shape.degree(node);
            if degree == 0 || shape.deliverable_count(node) == 0 {
                return Activation::Tick { node };
            }
            let start = self.victim_channel_cursor % degree;
            let channel = shape
                .next_deliverable_from(node, start)
                .expect("deliverable_count > 0 guarantees a non-empty channel");
            self.victim_channel_cursor = (channel + 1) % degree;
            return Activation::Deliver { node, channel };
        }
        // Otherwise schedule a non-victim (any node, if there is no non-victim).
        let fallback = self.everyone_is_a_victim(shape.num_nodes());
        loop {
            let act = self.inner.next_event(shape);
            if fallback || !self.victims.contains(&act.node()) {
                return act;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EnabledSet;

    /// Three nodes of degrees 2, 3 and 1: node 0 holds two messages on channel 1, node 1
    /// is empty, node 2 holds five messages on channel 0.
    fn set() -> EnabledSet {
        let mut set = EnabledSet::new(&[2, 3, 1]);
        set.note_len(0, 1, 2);
        set.note_len(2, 0, 5);
        set
    }

    fn activations(
        daemon: &mut impl EventScheduler,
        set: &EnabledSet,
        steps: usize,
    ) -> Vec<Activation> {
        (0..steps).map(|_| daemon.next_event(&EnabledShape::new(set))).collect()
    }

    fn visits(acts: &[Activation]) -> Vec<u32> {
        let mut seen = vec![0u32; 3];
        for act in acts {
            seen[act.node()] += 1;
        }
        seen
    }

    #[test]
    fn round_robin_cycles_all_nodes() {
        assert_eq!(visits(&activations(&mut RoundRobin::new(), &set(), 9)), vec![3, 3, 3]);
    }

    #[test]
    fn round_robin_prefers_non_empty_channels() {
        assert_eq!(
            activations(&mut RoundRobin::new(), &set(), 3),
            vec![
                Activation::Deliver { node: 0, channel: 1 },
                Activation::Tick { node: 1 },
                Activation::Deliver { node: 2, channel: 0 },
            ]
        );
    }

    #[test]
    fn random_fair_touches_every_node() {
        let seen = visits(&activations(&mut RandomFair::new(42), &set(), 200));
        assert!(seen.iter().all(|&s| s > 0));
    }

    #[test]
    fn random_fair_is_deterministic_per_seed() {
        let set = set();
        assert_eq!(
            activations(&mut RandomFair::new(7), &set, 50),
            activations(&mut RandomFair::new(7), &set, 50)
        );
    }

    #[test]
    fn adversarial_starves_victims_but_not_forever() {
        let acts = activations(&mut Adversarial::new(vec![2], 10), &set(), 100);
        assert_eq!(visits(&acts)[2], 10, "victim activated exactly once per patience window");
    }

    #[test]
    fn adversarial_with_all_victims_still_schedules() {
        let set = set();
        for victims in [vec![0, 1, 2], vec![0, 1, 2, 2]] {
            let acts = activations(&mut Adversarial::new(victims.clone(), 3), &set, 30);
            assert!(visits(&acts).iter().all(|&v| v >= 9), "victims {victims:?}");
        }
    }

    #[test]
    fn victims_cover_ignores_duplicates_and_out_of_range_ids() {
        assert!(victims_cover(&[0, 1, 2], 3));
        assert!(victims_cover(&[2, 2, 1, 0], 3));
        assert!(!victims_cover(&[0, 1, 1], 3));
        assert!(!victims_cover(&[0, 1, 5], 3));
        assert!(victims_cover(&[], 0));
    }

    #[test]
    fn synchronous_round_uses_boundary_snapshot() {
        let mut set = set();
        let mut s = Synchronous::new();
        // Round 1: node 0 delivers from channel 1, node 1 ticks, node 2 delivers.
        assert_eq!(
            activations(&mut s, &set, 3),
            vec![
                Activation::Deliver { node: 0, channel: 1 },
                Activation::Tick { node: 1 },
                Activation::Deliver { node: 2, channel: 0 },
            ]
        );
        // A message arriving mid-round waits for the next boundary: node 1 still ticks.
        let mut s = Synchronous::new();
        assert_eq!(activations(&mut s, &set, 1), vec![Activation::Deliver { node: 0, channel: 1 }]);
        set.note_len(1, 2, 1);
        assert_eq!(activations(&mut s, &set, 1), vec![Activation::Tick { node: 1 }]);
        // Round 1 ends with node 2; round 2 re-snapshots and sees node 1's message.
        assert_eq!(
            activations(&mut s, &set, 3),
            vec![
                Activation::Deliver { node: 2, channel: 0 },
                Activation::Deliver { node: 0, channel: 1 },
                Activation::Deliver { node: 1, channel: 2 },
            ]
        );
    }
}
