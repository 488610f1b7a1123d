//! Trace equivalence of the event-driven daemons with their scan-based references.
//!
//! The bundled daemons read the enabled set the network maintains incrementally
//! (`treenet::engine`).  That set is a pure performance device: for every daemon, every
//! topology and every seed, all three of
//!
//! 1. the scan-based reference daemon below, which re-derives channel occupancy from the
//!    channels on every step, executed with `Network::execute`,
//! 2. the bundled daemon stepped one activation at a time with `Network::step_event`,
//! 3. the bundled daemon through the fused loop `engine::run_observed`,
//!
//! must produce **identical activation sequences, traces, and metrics**.  The enabled-set
//! invariant itself is re-derived by brute force after every activation and every channel
//! surgery by the lock-step walk (`lockstep_walk`), drawn from below.

mod lockstep_walk;

use kl_exclusion::prelude::*;
use lockstep_walk::{RACED, SURGERY};
use proptest::prelude::*;
use treenet::engine;
use treenet::{Activation, EventScheduler, NodeId, Synchronous};
use workloads::UniformRandom;

type SsNet = Network<SsNode, OrientedTree>;

/// The original scan-based daemons: the executable specification the bundled daemons are
/// checked against.  Every decision scans the activated node's channels (and, for
/// [`reference::RandomFair`], collects them into a fresh `Vec`); nothing here reads the
/// enabled set.
mod reference {
    use super::{SsNet, Topology};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use treenet::{Activation, ChannelLabel, NodeId};

    fn degree(net: &SsNet, node: NodeId) -> usize {
        net.topology().degree(node)
    }

    fn non_empty(net: &SsNet, node: NodeId, channel: ChannelLabel) -> bool {
        !net.channel(node, channel).is_empty()
    }

    /// The first non-empty channel of `node` at or cyclically after `*cursor`; advances the
    /// cursor past it.
    fn serve_cyclically(net: &SsNet, node: NodeId, cursor: &mut usize) -> Activation {
        let degree = degree(net, node);
        for off in 0..degree {
            let channel = (*cursor + off) % degree;
            if non_empty(net, node, channel) {
                *cursor = (channel + 1) % degree;
                return Activation::Deliver { node, channel };
            }
        }
        Activation::Tick { node }
    }

    #[derive(Default)]
    pub struct RoundRobin {
        cursor: usize,
        channel_cursor: Vec<usize>,
    }

    impl RoundRobin {
        pub fn next(&mut self, net: &SsNet) -> Activation {
            let n = net.len();
            if self.channel_cursor.len() != n {
                self.channel_cursor = vec![0; n];
            }
            let node = self.cursor % n;
            self.cursor = (self.cursor + 1) % n;
            serve_cyclically(net, node, &mut self.channel_cursor[node])
        }
    }

    pub struct RandomFair {
        rng: StdRng,
        deliver_bias: f64,
    }

    impl RandomFair {
        pub fn new(seed: u64) -> Self {
            RandomFair { rng: StdRng::seed_from_u64(seed), deliver_bias: 0.75 }
        }

        pub fn with_deliver_bias(mut self, bias: f64) -> Self {
            self.deliver_bias = bias.clamp(0.0, 1.0);
            self
        }

        pub fn next(&mut self, net: &SsNet) -> Activation {
            let node = self.rng.gen_range(0..net.len());
            let non_empty: Vec<ChannelLabel> =
                (0..degree(net, node)).filter(|&c| non_empty(net, node, c)).collect();
            if !non_empty.is_empty() && self.rng.gen_bool(self.deliver_bias) {
                let channel = non_empty[self.rng.gen_range(0..non_empty.len())];
                Activation::Deliver { node, channel }
            } else {
                Activation::Tick { node }
            }
        }
    }

    /// Rebuilds the round snapshot by scanning every channel of every node at each round
    /// boundary.
    #[derive(Default)]
    pub struct Synchronous {
        round: Vec<Option<ChannelLabel>>,
        cursor: usize,
    }

    impl Synchronous {
        pub fn next(&mut self, net: &SsNet) -> Activation {
            let n = net.len();
            if self.round.len() != n {
                self.round = vec![None; n];
                self.cursor = 0;
            }
            if self.cursor == 0 {
                for (v, slot) in self.round.iter_mut().enumerate() {
                    *slot = (0..degree(net, v)).find(|&c| non_empty(net, v, c));
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

    pub struct Adversarial {
        victims: Vec<NodeId>,
        patience: u64,
        counter: u64,
        inner: RoundRobin,
        victim_cursor: usize,
        victim_channel_cursor: usize,
    }

    impl Adversarial {
        pub fn new(victims: Vec<NodeId>, patience: u64) -> Self {
            Adversarial {
                victims,
                patience: patience.max(1),
                counter: 0,
                inner: RoundRobin::default(),
                victim_cursor: 0,
                victim_channel_cursor: 0,
            }
        }

        pub fn next(&mut self, net: &SsNet) -> Activation {
            self.counter += 1;
            if !self.victims.is_empty() && self.counter.is_multiple_of(self.patience) {
                let node = self.victims[self.victim_cursor % self.victims.len()];
                self.victim_cursor += 1;
                return serve_cyclically(net, node, &mut self.victim_channel_cursor);
            }
            // Otherwise schedule a non-victim (any node, if there is no non-victim).
            let fallback = (0..net.len()).all(|v| self.victims.contains(&v));
            loop {
                let act = self.inner.next(net);
                if fallback || !self.victims.contains(&act.node()) {
                    return act;
                }
            }
        }
    }
}

/// The common scenario: a self-stabilizing k-out-of-ℓ network under a uniform-random
/// workload with a short root timeout (so controller traffic starts early) and a burst of
/// injected faults (so channels hold garbage from the start).
fn scenario(tree: OrientedTree, seed: u64) -> SsNet {
    let n = tree.len();
    let cfg = KlConfig::new(2, 3, n).with_timeout(40);
    let mut net = protocol::ss::network(tree, cfg, |id| {
        Box::new(UniformRandom::new(seed ^ (id as u64).wrapping_mul(0x9E37), 0.1, 2, 5))
            as Box<dyn AppDriver + Send>
    });
    let mut injector = FaultInjector::new(seed.wrapping_add(77));
    injector.inject(&mut net, &FaultPlan::moderate(cfg.cmax));
    net
}

fn shapes() -> Vec<(&'static str, OrientedTree)> {
    vec![
        ("chain", topology::builders::chain(9)),
        ("star", topology::builders::star(9)),
        ("binary", topology::builders::binary(15)),
        ("random", topology::builders::random_tree(12, 5)),
    ]
}

/// Serialized observable outcome of a run: metrics and the application-level trace.
fn observables(net: &SsNet) -> String {
    let metrics = serde_json::to_string(net.metrics()).expect("metrics serialize");
    let events = net.trace().events().len();
    format!("{metrics}|events={events}")
}

/// Runs `steps` activations three ways — `reference` executed by hand, a fresh `make()`
/// daemon through `step_event`, another through the fused loop — and asserts that the
/// sequences and observables agree.
fn assert_equivalent<D: EventScheduler>(
    label: &str,
    tree: OrientedTree,
    seed: u64,
    steps: u64,
    mut reference: impl FnMut(&SsNet) -> Activation,
    make: impl Fn() -> D,
) {
    let mut reference_net = scenario(tree.clone(), seed);
    let reference_seq: Vec<Activation> = (0..steps)
        .map(|_| {
            let activation = reference(&reference_net);
            reference_net.execute(activation);
            activation
        })
        .collect();

    let mut stepped_net = scenario(tree.clone(), seed);
    let mut daemon = make();
    let stepped_seq: Vec<Activation> =
        (0..steps).map(|_| stepped_net.step_event(&mut daemon)).collect();

    let mut fused_net = scenario(tree, seed);
    let mut fused_seq = Vec::with_capacity(steps as usize);
    engine::run_observed(&mut fused_net, &mut make(), steps, |a| fused_seq.push(a));

    assert_eq!(reference_seq, stepped_seq, "{label}: reference vs step_event sequences differ");
    assert_eq!(reference_seq, fused_seq, "{label}: reference vs fused sequences differ");
    assert_eq!(
        observables(&reference_net),
        observables(&stepped_net),
        "{label}: reference vs step_event metrics differ"
    );
    assert_eq!(
        observables(&reference_net),
        observables(&fused_net),
        "{label}: reference vs fused metrics differ"
    );
}

#[test]
fn round_robin_is_trace_equivalent_across_shapes() {
    for (name, tree) in shapes() {
        let mut reference = reference::RoundRobin::default();
        assert_equivalent(
            &format!("round-robin/{name}"),
            tree,
            11,
            40_000,
            |net| reference.next(net),
            RoundRobin::new,
        );
    }
}

#[test]
fn random_fair_is_trace_equivalent_across_shapes_and_seeds() {
    for (name, tree) in shapes() {
        for seed in [3u64, 1077, 424242] {
            let mut reference = reference::RandomFair::new(seed);
            assert_equivalent(
                &format!("random-fair/{name}/seed{seed}"),
                tree.clone(),
                seed,
                40_000,
                |net| reference.next(net),
                || RandomFair::new(seed),
            );
        }
    }
}

#[test]
fn random_fair_bias_extremes_are_trace_equivalent() {
    let tree = topology::builders::random_tree(10, 8);
    for bias in [0.0, 0.5, 1.0] {
        let mut reference = reference::RandomFair::new(7).with_deliver_bias(bias);
        assert_equivalent(
            &format!("random-fair/bias{bias}"),
            tree.clone(),
            19,
            30_000,
            |net| reference.next(net),
            || RandomFair::new(7).with_deliver_bias(bias),
        );
    }
}

#[test]
fn synchronous_is_trace_equivalent_across_shapes() {
    for (name, tree) in shapes() {
        let mut reference = reference::Synchronous::default();
        assert_equivalent(
            &format!("synchronous/{name}"),
            tree,
            23,
            40_000,
            |net| reference.next(net),
            Synchronous::new,
        );
    }
}

/// Includes a victim list naming every node, one of them twice: there is no non-victim to
/// schedule, and both daemons must fall back to the round-robin decisions instead of
/// searching for one forever.
#[test]
fn adversarial_is_trace_equivalent_across_shapes() {
    for (name, tree) in shapes() {
        let n = tree.len();
        let everyone_once_more: Vec<NodeId> = (0..n).chain([n / 2]).collect();
        for (case, victims) in [("two", vec![1, n - 1]), ("duplicate-all", everyone_once_more)] {
            let mut reference = reference::Adversarial::new(victims.clone(), 7);
            assert_equivalent(
                &format!("adversarial/{name}/{case}"),
                tree.clone(),
                31,
                40_000,
                |net| reference.next(net),
                || Adversarial::new(victims.clone(), 7),
            );
        }
    }
}

proptest! {
    // Whole-protocol runs with an O(n · Δ²) pass per activation: a reduced case count.
    #![proptest_config(ProptestConfig { cases: 20, .. ProptestConfig::default() })]

    /// The lock-step walk with `inject_into`, `inject_from` and `channel_mut` surgery and a
    /// delivery aimed at a channel that may be empty between every two phases: after every
    /// activation the enabled set equals its brute-force re-derivation.
    #[test]
    fn enabled_set_always_equals_brute_force(draw in lockstep_walk::draws(SURGERY | RACED)) {
        draw.walk();
    }
}
