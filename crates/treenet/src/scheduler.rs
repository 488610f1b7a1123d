//! Daemons (schedulers): fair, synchronous and adversarial activation orders, in two
//! engine flavours.
//!
//! The paper assumes executions that are *asynchronous but fair*: every process takes
//! infinitely many steps, with unbounded (finite) delays between them.  A [`Scheduler`]
//! chooses, at each simulation step, which process is activated and whether it consumes a
//! message or only runs its bottom-of-loop actions.  In the terminology of the
//! self-stabilization literature the bundled schedulers realise the four classic daemons:
//!
//! * [`RandomFair`] — a **randomized central daemon**: each step activates one uniformly
//!   chosen process, delivering from a uniformly chosen non-empty channel with probability
//!   `deliver_bias`.  Fair with probability 1; the default model of an arbitrary
//!   asynchronous execution (alias [`CentralDaemon`]).
//! * [`RoundRobin`] — a **weakly fair distributed daemon**, serialized: processes are
//!   activated cyclically and serve their channels cyclically; the closest deterministic
//!   analogue of "everyone moves at the same rate" (alias [`DistributedDaemon`]).
//! * [`Synchronous`] — the **synchronous daemon**: rounds in which every process acts once
//!   on the channel occupancy *snapshotted at the start of the round*, serialized in id
//!   order (alias [`SynchronousDaemon`]).
//! * [`Adversarial`] — a **bounded-unfairness adversary** that starves designated victims as
//!   long as the fairness bound allows; used to stress worst-case waiting times (Theorem 2)
//!   (alias [`AdversarialDaemon`]).
//!
//! # Two engines, one semantics
//!
//! Each daemon exists in two implementations that produce **bit-identical activation
//! sequences** (same RNG, same number of draws, same ranges, same order — the
//! trace-equivalence suite in `tests/engine_equivalence.rs` asserts this):
//!
//! * the **event-driven** daemons in this module read the enabled set that the network
//!   maintains incrementally (see [`crate::engine`]) — O(1) per decision, no per-step
//!   allocation, and additionally usable through the fused monomorphized loop
//!   [`crate::engine::run`];
//! * the **scan-based** reference daemons in [`baseline`] re-derive channel occupancy from
//!   scratch on every step through [`NetworkView`] — the original engine, retained as the
//!   executable specification the event engine is tested against.

use crate::engine::EnabledShape;
use crate::network::{EnabledView, NetworkView};
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

/// Chooses the next activation based on the observable network shape.
pub trait Scheduler {
    /// Returns the next activation to execute.
    fn next_activation(&mut self, view: &dyn EnabledView) -> Activation;
}

/// Internal abstraction over the two ways a daemon reads network shape: through the
/// dynamically dispatched [`EnabledView`] (drop-in [`Scheduler`] use, with scan fallbacks
/// for foreign views) or through the concrete [`EnabledShape`] (the fused loop).  Each
/// daemon's decision logic is written once against this trait and instantiated for both, so
/// the two paths cannot drift apart.
trait ShapeView {
    fn num_nodes(&self) -> usize;
    fn degree(&self, node: NodeId) -> usize;
    fn deliverable_count(&self, node: NodeId) -> usize;
    fn next_deliverable_from(&self, node: NodeId, start: ChannelLabel) -> Option<ChannelLabel>;
    fn nth_deliverable(&self, node: NodeId, idx: usize) -> Option<ChannelLabel>;
    fn snapshot_deliverable(&self, round: &mut Vec<Option<ChannelLabel>>);
}

impl ShapeView for &dyn EnabledView {
    #[inline]
    fn num_nodes(&self) -> usize {
        NetworkView::num_nodes(*self)
    }
    #[inline]
    fn degree(&self, node: NodeId) -> usize {
        NetworkView::degree(*self, node)
    }
    #[inline]
    fn deliverable_count(&self, node: NodeId) -> usize {
        EnabledView::deliverable_count(*self, node)
    }
    #[inline]
    fn next_deliverable_from(&self, node: NodeId, start: ChannelLabel) -> Option<ChannelLabel> {
        EnabledView::next_deliverable_from(*self, node, start)
    }
    #[inline]
    fn nth_deliverable(&self, node: NodeId, idx: usize) -> Option<ChannelLabel> {
        EnabledView::nth_deliverable(*self, node, idx)
    }
    #[inline]
    fn snapshot_deliverable(&self, round: &mut Vec<Option<ChannelLabel>>) {
        EnabledView::snapshot_deliverable(*self, round);
    }
}

impl ShapeView for EnabledShape<'_> {
    #[inline]
    fn num_nodes(&self) -> usize {
        EnabledShape::num_nodes(self)
    }
    #[inline]
    fn degree(&self, node: NodeId) -> usize {
        EnabledShape::degree(self, node)
    }
    #[inline]
    fn deliverable_count(&self, node: NodeId) -> usize {
        EnabledShape::deliverable_count(self, node)
    }
    #[inline]
    fn next_deliverable_from(&self, node: NodeId, start: ChannelLabel) -> Option<ChannelLabel> {
        EnabledShape::next_deliverable_from(self, node, start)
    }
    #[inline]
    fn nth_deliverable(&self, node: NodeId, idx: usize) -> Option<ChannelLabel> {
        EnabledShape::nth_deliverable(self, node, idx)
    }
    #[inline]
    fn snapshot_deliverable(&self, round: &mut Vec<Option<ChannelLabel>>) {
        // O(enabled) per round: only the delivery-enabled nodes of the dense list are
        // visited; everyone else keeps the `None` from the reset.
        round.clear();
        round.resize(self.num_nodes(), None);
        for i in 0..self.enabled_len() {
            let v = self.enabled_node(i);
            round[v] = self.next_deliverable_from(v, 0);
        }
    }
}

/// Deterministic fair scheduler: nodes are activated cyclically; each node serves its
/// incoming channels in round-robin order, interleaved with ticks.
///
/// Event-driven: the per-node channel probe reads the maintained enabled set instead of
/// scanning every channel.  Bit-identical to [`baseline::RoundRobin`].
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

    #[inline]
    fn decide<V: ShapeView>(&mut self, view: &V) -> Activation {
        let n = view.num_nodes();
        if self.channel_cursor.len() != n {
            self.channel_cursor = vec![0; n];
        }
        let node = self.cursor % n;
        self.cursor = (self.cursor + 1) % n;
        let degree = view.degree(node);
        if degree == 0 || view.deliverable_count(node) == 0 {
            return Activation::Tick { node };
        }
        let start = self.channel_cursor[node] % degree;
        let channel = view
            .next_deliverable_from(node, start)
            .expect("deliverable_count > 0 guarantees a non-empty channel");
        self.channel_cursor[node] = (channel + 1) % degree;
        Activation::Deliver { node, channel }
    }
}

impl Scheduler for RoundRobin {
    fn next_activation(&mut self, view: &dyn EnabledView) -> Activation {
        self.decide(&view)
    }
}

impl crate::engine::EventScheduler for RoundRobin {
    #[inline]
    fn next_event(&mut self, shape: &EnabledShape<'_>) -> Activation {
        self.decide(shape)
    }
}

/// Seeded random fair scheduler (randomized central daemon).
///
/// Each step activates a uniformly random node.  With probability `deliver_bias` (default
/// 0.75) it delivers from a uniformly chosen non-empty incoming channel of that node (if
/// any); otherwise the node just ticks.  Every node is activated infinitely often with
/// probability 1, satisfying the paper's fairness assumption.
///
/// Event-driven: the non-empty-channel count and the chosen channel are read from the
/// maintained enabled set — no per-step scan or allocation.  The RNG discipline (one node
/// draw; then, only if the node has deliverable messages, one Bernoulli draw; then, only on
/// success, one channel draw) is exactly that of [`baseline::RandomFair`], so the streams
/// coincide.
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

    #[inline]
    fn decide<V: ShapeView>(&mut self, view: &V) -> Activation {
        let n = view.num_nodes();
        let node = self.rng.gen_range(0..n);
        let deliverable = view.deliverable_count(node);
        if deliverable > 0 && self.rng.gen_bool(self.deliver_bias) {
            let idx = self.rng.gen_range(0..deliverable);
            let channel =
                view.nth_deliverable(node, idx).expect("idx < deliverable_count");
            Activation::Deliver { node, channel }
        } else {
            Activation::Tick { node }
        }
    }
}

impl Scheduler for RandomFair {
    fn next_activation(&mut self, view: &dyn EnabledView) -> Activation {
        self.decide(&view)
    }
}

impl crate::engine::EventScheduler for RandomFair {
    #[inline]
    fn next_event(&mut self, shape: &EnabledShape<'_>) -> Activation {
        self.decide(shape)
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
///
/// Event-driven: the snapshot is assembled from the maintained enabled set (O(enabled)
/// instead of O(total channels)).  Bit-identical to [`baseline::Synchronous`].
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

    #[inline]
    fn decide<V: ShapeView>(&mut self, view: &V) -> Activation {
        let n = view.num_nodes();
        if self.round.len() != n {
            // The network changed size under us: restart the round.
            self.cursor = 0;
        }
        if self.cursor == 0 {
            view.snapshot_deliverable(&mut self.round);
        }
        let node = self.cursor;
        self.cursor = (self.cursor + 1) % n;
        match self.round[node] {
            Some(channel) => Activation::Deliver { node, channel },
            None => Activation::Tick { node },
        }
    }
}

impl Scheduler for Synchronous {
    fn next_activation(&mut self, view: &dyn EnabledView) -> Activation {
        self.decide(&view)
    }
}

impl crate::engine::EventScheduler for Synchronous {
    #[inline]
    fn next_event(&mut self, shape: &EnabledShape<'_>) -> Activation {
        self.decide(shape)
    }
}

/// A bounded-unfairness scheduler used to stress waiting times.
///
/// The designated `victims` are starved of activations: they are only activated once every
/// `patience` scheduler decisions; all other decisions go (round-robin) to the non-victims.
/// Because victims are still activated infinitely often, the execution remains fair in the
/// paper's sense, but it approximates the worst case used in the waiting-time analysis,
/// where all other processes move as often as possible between two steps of the victim.
///
/// Event-driven; bit-identical to [`baseline::Adversarial`].
#[derive(Clone, Debug)]
pub struct Adversarial {
    victims: Vec<NodeId>,
    patience: u64,
    counter: u64,
    inner: RoundRobin,
    victim_cursor: usize,
    victim_channel_cursor: usize,
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
        }
    }

    #[inline]
    fn decide<V: ShapeView>(&mut self, view: &V) -> Activation {
        self.counter += 1;
        if !self.victims.is_empty() && self.counter.is_multiple_of(self.patience) {
            let node = self.victims[self.victim_cursor % self.victims.len()];
            self.victim_cursor += 1;
            let degree = view.degree(node);
            if degree == 0 || view.deliverable_count(node) == 0 {
                return Activation::Tick { node };
            }
            let start = self.victim_channel_cursor % degree;
            let channel = view
                .next_deliverable_from(node, start)
                .expect("deliverable_count > 0 guarantees a non-empty channel");
            self.victim_channel_cursor = (channel + 1) % degree;
            return Activation::Deliver { node, channel };
        }
        // Otherwise schedule a non-victim (fall back to any node if everyone is a victim).
        loop {
            let act = self.inner.decide(view);
            let node = match act {
                Activation::Deliver { node, .. } | Activation::Tick { node } => node,
            };
            if !self.victims.contains(&node) || self.victims.len() == view.num_nodes() {
                return act;
            }
        }
    }
}

impl Scheduler for Adversarial {
    fn next_activation(&mut self, view: &dyn EnabledView) -> Activation {
        self.decide(&view)
    }
}

impl crate::engine::EventScheduler for Adversarial {
    #[inline]
    fn next_event(&mut self, shape: &EnabledShape<'_>) -> Activation {
        self.decide(shape)
    }
}

impl Scheduler for Box<dyn Scheduler + '_> {
    fn next_activation(&mut self, view: &dyn EnabledView) -> Activation {
        self.as_mut().next_activation(view)
    }
}

/// The randomized central daemon: exactly one process activated per step.
pub type CentralDaemon = RandomFair;
/// The weakly fair distributed daemon, serialized as a deterministic cyclic sweep.
pub type DistributedDaemon = RoundRobin;
/// The synchronous daemon, serialized in rounds over a round-boundary snapshot.
pub type SynchronousDaemon = Synchronous;
/// The bounded-unfairness adversary of the waiting-time experiments.
pub type AdversarialDaemon = Adversarial;

pub mod baseline {
    //! The original scan-based daemons, retained as the executable reference semantics.
    //!
    //! Every step re-derives channel occupancy by scanning the activated node's channels
    //! through [`crate::NetworkView`] — O(degree) virtual calls and, for [`RandomFair`], a fresh
    //! `Vec` per delivery decision.  The event-driven daemons in [`super`] produce
    //! bit-identical activation sequences (asserted by the trace-equivalence suite); these
    //! implementations exist as the specification they are checked against.

    use super::{Activation, Scheduler};
    use crate::network::EnabledView;
    use crate::{ChannelLabel, NodeId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Scan-based reference implementation of [`super::RoundRobin`].
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

    impl Scheduler for RoundRobin {
        fn next_activation(&mut self, view: &dyn EnabledView) -> Activation {
            let n = view.num_nodes();
            if self.channel_cursor.len() != n {
                self.channel_cursor = vec![0; n];
            }
            let node = self.cursor % n;
            self.cursor = (self.cursor + 1) % n;
            let degree = view.degree(node);
            if degree == 0 {
                return Activation::Tick { node };
            }
            // Serve the next non-empty channel after the cursor, if any; otherwise tick.
            let start = self.channel_cursor[node];
            for off in 0..degree {
                let ch = (start + off) % degree;
                if view.channel_len(node, ch) > 0 {
                    self.channel_cursor[node] = (ch + 1) % degree;
                    return Activation::Deliver { node, channel: ch };
                }
            }
            Activation::Tick { node }
        }
    }

    /// Scan-based reference implementation of [`super::RandomFair`].
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

    impl Scheduler for RandomFair {
        fn next_activation(&mut self, view: &dyn EnabledView) -> Activation {
            let n = view.num_nodes();
            let node = self.rng.gen_range(0..n);
            let degree = view.degree(node);
            let non_empty: Vec<ChannelLabel> =
                (0..degree).filter(|&c| view.channel_len(node, c) > 0).collect();
            if !non_empty.is_empty() && self.rng.gen_bool(self.deliver_bias) {
                let channel = non_empty[self.rng.gen_range(0..non_empty.len())];
                Activation::Deliver { node, channel }
            } else {
                Activation::Tick { node }
            }
        }
    }

    /// Scan-based reference implementation of [`super::Synchronous`]: the round snapshot is
    /// rebuilt by scanning every channel of every node at each round boundary.
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

    impl Scheduler for Synchronous {
        fn next_activation(&mut self, view: &dyn EnabledView) -> Activation {
            let n = view.num_nodes();
            if self.round.len() != n {
                self.round = vec![None; n];
                self.cursor = 0;
            }
            if self.cursor == 0 {
                for (v, slot) in self.round.iter_mut().enumerate() {
                    *slot = (0..view.degree(v)).find(|&c| view.channel_len(v, c) > 0);
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

    /// Scan-based reference implementation of [`super::Adversarial`].
    #[derive(Clone, Debug)]
    pub struct Adversarial {
        victims: Vec<NodeId>,
        patience: u64,
        counter: u64,
        inner: RoundRobin,
        victim_cursor: usize,
        victim_channel_cursor: usize,
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
            }
        }
    }

    impl Scheduler for Adversarial {
        fn next_activation(&mut self, view: &dyn EnabledView) -> Activation {
            self.counter += 1;
            if !self.victims.is_empty() && self.counter.is_multiple_of(self.patience) {
                let node = self.victims[self.victim_cursor % self.victims.len()];
                self.victim_cursor += 1;
                let degree = view.degree(node);
                if degree == 0 {
                    return Activation::Tick { node };
                }
                let start = self.victim_channel_cursor;
                for off in 0..degree {
                    let ch = (start + off) % degree;
                    if view.channel_len(node, ch) > 0 {
                        self.victim_channel_cursor = (ch + 1) % degree;
                        return Activation::Deliver { node, channel: ch };
                    }
                }
                return Activation::Tick { node };
            }
            // Otherwise schedule a non-victim (fall back to any node if everyone is a victim).
            loop {
                let act = self.inner.next_activation(view);
                let node = match act {
                    Activation::Deliver { node, .. } | Activation::Tick { node } => node,
                };
                if !self.victims.contains(&node) || self.victims.len() == view.num_nodes() {
                    return act;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake network view with controllable channel contents; uses the scan-based
    /// [`EnabledView`] defaults, so it also exercises those.
    struct FakeView {
        degrees: Vec<usize>,
        lens: Vec<Vec<usize>>,
        now: u64,
    }

    impl NetworkView for FakeView {
        fn num_nodes(&self) -> usize {
            self.degrees.len()
        }
        fn degree(&self, node: NodeId) -> usize {
            self.degrees[node]
        }
        fn channel_len(&self, node: NodeId, label: ChannelLabel) -> usize {
            self.lens[node][label]
        }
        fn now(&self) -> u64 {
            self.now
        }
    }

    impl EnabledView for FakeView {}

    fn view() -> FakeView {
        FakeView {
            degrees: vec![2, 3, 1],
            lens: vec![vec![0, 2], vec![0, 0, 0], vec![5]],
            now: 0,
        }
    }

    #[test]
    fn round_robin_cycles_all_nodes() {
        let v = view();
        let mut s = RoundRobin::new();
        let mut nodes_seen = vec![0u32; 3];
        for _ in 0..9 {
            let act = s.next_activation(&v);
            let node = match act {
                Activation::Deliver { node, .. } | Activation::Tick { node } => node,
            };
            nodes_seen[node] += 1;
        }
        assert_eq!(nodes_seen, vec![3, 3, 3]);
    }

    #[test]
    fn round_robin_prefers_non_empty_channels() {
        let v = view();
        let mut s = RoundRobin::new();
        let a0 = s.next_activation(&v);
        assert_eq!(a0, Activation::Deliver { node: 0, channel: 1 });
        let a1 = s.next_activation(&v);
        assert_eq!(a1, Activation::Tick { node: 1 });
        let a2 = s.next_activation(&v);
        assert_eq!(a2, Activation::Deliver { node: 2, channel: 0 });
    }

    #[test]
    fn random_fair_touches_every_node() {
        let v = view();
        let mut s = RandomFair::new(42);
        let mut seen = [false; 3];
        for _ in 0..200 {
            let act = s.next_activation(&v);
            let node = match act {
                Activation::Deliver { node, .. } | Activation::Tick { node } => node,
            };
            seen[node] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn random_fair_is_deterministic_per_seed() {
        let v = view();
        let mut a = RandomFair::new(7);
        let mut b = RandomFair::new(7);
        for _ in 0..50 {
            assert_eq!(a.next_activation(&v), b.next_activation(&v));
        }
    }

    #[test]
    fn adversarial_starves_victims_but_not_forever() {
        let v = view();
        let mut s = Adversarial::new(vec![2], 10);
        let mut victim_activations = 0;
        for _ in 0..100 {
            let act = s.next_activation(&v);
            let node = match act {
                Activation::Deliver { node, .. } | Activation::Tick { node } => node,
            };
            if node == 2 {
                victim_activations += 1;
            }
        }
        assert_eq!(victim_activations, 10, "victim activated exactly once per patience window");
    }

    #[test]
    fn adversarial_with_all_victims_still_schedules() {
        let v = view();
        let mut s = Adversarial::new(vec![0, 1, 2], 3);
        for _ in 0..30 {
            let _ = s.next_activation(&v);
        }
    }

    #[test]
    fn synchronous_round_uses_boundary_snapshot() {
        let v = view();
        let mut s = Synchronous::new();
        // Round 1: node 0 delivers from channel 1, node 1 ticks, node 2 delivers.
        assert_eq!(s.next_activation(&v), Activation::Deliver { node: 0, channel: 1 });
        assert_eq!(s.next_activation(&v), Activation::Tick { node: 1 });
        assert_eq!(s.next_activation(&v), Activation::Deliver { node: 2, channel: 0 });
        // Round 2 re-snapshots (the fake view is static, so the same decisions repeat).
        assert_eq!(s.next_activation(&v), Activation::Deliver { node: 0, channel: 1 });
    }

    /// Every event-driven daemon agrees with its scan-based reference on the same static
    /// view (a cheap equivalence smoke; the full suite drives real networks).
    #[test]
    fn event_daemons_match_baseline_on_fake_view() {
        let v = view();
        let mut pairs: Vec<(Box<dyn Scheduler>, Box<dyn Scheduler>)> = vec![
            (Box::new(RoundRobin::new()), Box::new(baseline::RoundRobin::new())),
            (Box::new(RandomFair::new(11)), Box::new(baseline::RandomFair::new(11))),
            (Box::new(Synchronous::new()), Box::new(baseline::Synchronous::new())),
            (
                Box::new(Adversarial::new(vec![1], 4)),
                Box::new(baseline::Adversarial::new(vec![1], 4)),
            ),
        ];
        for (event, reference) in pairs.iter_mut() {
            for _ in 0..120 {
                assert_eq!(event.next_activation(&v), reference.next_activation(&v));
            }
        }
    }
}
