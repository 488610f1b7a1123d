//! A self-stabilizing BFS spanning-tree protocol for rooted message-passing networks.
//!
//! The paper's conclusion observes that the k-out-of-ℓ exclusion protocol extends from
//! oriented trees to *arbitrary rooted networks* "by running the protocol concurrently with a
//! spanning tree construction (for message passing systems), such as given in [1, 4]".  This
//! module provides that substrate: a distributed, self-stabilizing construction of a
//! breadth-first spanning tree over a [`RootedGraph`], in the same computation model as the
//! exclusion protocol (asynchronous message passing, reliable FIFO channels, bounded local
//! memory).  It is a faithful realisation of the classic beacon/distance scheme rather than a
//! line-by-line reproduction of \[1\] or \[4\] (neither is reproduced in the paper either).
//!
//! # How it works
//!
//! Every process keeps a distance estimate `dist ∈ [0 .. n]` (`n` acts as the "infinity" of
//! the bounded domain), a parent channel, and its last-heard estimate for every neighbour.
//! The root pins `dist = 0`.  Periodically — every [`StConfig::beacon_interval`] of its own
//! activations, and additionally whenever its estimate changes — a process sends a
//! [`Beacon`] carrying its current `dist` on every incident channel.  On receiving a beacon a
//! process updates the stored estimate for that neighbour and recomputes
//! `dist = min(n, 1 + min over neighbours)` with the parent being the smallest-labelled
//! minimising channel.
//!
//! Starting from *any* state (arbitrary `dist`/`view`/`parent` values, arbitrary beacons in
//! channels), once every process has broadcast at least once every stored view entry is a
//! value actually announced by the corresponding neighbour; from then on the estimates
//! converge level by level exactly as in distributed Bellman–Ford with a bounded domain, and
//! after O(n) beacon rounds every `dist` equals the true BFS distance and every parent points
//! one level up — a breadth-first spanning tree (verified exhaustively in the tests and
//! measured in experiment E11).

use rand::rngs::StdRng;
use rand::Rng;
use serde::Serialize;
use topology::{RootedGraph, Topology};
use treenet::{
    ArbitraryMessage, ChannelLabel, Context, Corruptible, MessageKind, Network, NodeId, Process,
};

/// The single message type of the spanning-tree protocol: "my current distance estimate".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub struct Beacon {
    /// The sender's distance estimate at the time of sending.
    pub dist: usize,
}

impl MessageKind for Beacon {
    fn kind(&self) -> &'static str {
        "beacon"
    }
}

impl ArbitraryMessage for Beacon {
    fn arbitrary(rng: &mut StdRng) -> Self {
        Beacon { dist: rng.gen_range(0..64) }
    }
}

/// Parameters of the spanning-tree protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct StConfig {
    /// Number of processes (used as the bounded "infinity" of the distance domain).
    pub n: usize,
    /// A process re-broadcasts its estimate every `beacon_interval` of its own activations
    /// even when nothing changed.  Must be at least the maximum degree for the periodic
    /// traffic to stay within the network's delivery capacity (one message per activation).
    pub beacon_interval: u64,
}

impl StConfig {
    /// A configuration for `graph`: the distance bound is the node count and the beacon
    /// interval defaults to `2 · max degree + 2`.
    pub fn for_graph(graph: &RootedGraph) -> Self {
        let max_degree = (0..graph.len()).map(|v| graph.degree(v)).max().unwrap_or(1);
        StConfig { n: graph.len(), beacon_interval: 2 * max_degree as u64 + 2 }
    }

    /// The sentinel value standing for "unreachable / unknown" in the bounded distance domain.
    pub fn infinity(&self) -> usize {
        self.n
    }
}

/// A process of the self-stabilizing spanning-tree protocol.
pub struct StNode {
    cfg: StConfig,
    is_root: bool,
    degree: usize,
    /// Current distance estimate, `0` for the root, `cfg.infinity()` when unknown.
    pub dist: usize,
    /// Channel towards the current parent (`None` for the root or while unknown).
    pub parent: Option<ChannelLabel>,
    /// Last distance heard from each neighbour (indexed by channel label).
    pub view: Vec<usize>,
    ticks: u64,
    last_broadcast: u64,
    started: bool,
}

impl StNode {
    /// Creates the process for `node` with `degree` incident channels.
    pub fn new(node: NodeId, root: NodeId, degree: usize, cfg: StConfig) -> Self {
        let is_root = node == root;
        StNode {
            is_root,
            degree,
            dist: if is_root { 0 } else { cfg.infinity() },
            parent: None,
            view: vec![cfg.infinity(); degree],
            ticks: 0,
            last_broadcast: 0,
            started: false,
            cfg,
        }
    }

    /// The configuration this node runs with.
    pub fn config(&self) -> &StConfig {
        &self.cfg
    }

    /// True for the distinguished root.
    pub fn is_root(&self) -> bool {
        self.is_root
    }

    /// Recomputes `dist`/`parent` from the stored neighbour estimates.  Returns true when the
    /// estimate changed.
    fn recompute(&mut self) -> bool {
        if self.is_root {
            let changed = self.dist != 0 || self.parent.is_some();
            self.dist = 0;
            self.parent = None;
            return changed;
        }
        let infinity = self.cfg.infinity();
        let mut best = infinity;
        let mut best_label = None;
        for (label, &d) in self.view.iter().enumerate() {
            if d < best {
                best = d;
                best_label = Some(label);
            }
        }
        let (new_dist, new_parent) = if best >= infinity {
            (infinity, None)
        } else {
            ((best + 1).min(infinity), best_label)
        };
        let changed = new_dist != self.dist || new_parent != self.parent;
        self.dist = new_dist;
        self.parent = new_parent;
        changed
    }

    fn broadcast(&mut self, ctx: &mut Context<'_, Beacon>) {
        for label in 0..self.degree {
            ctx.send(label, Beacon { dist: self.dist });
        }
        self.last_broadcast = self.ticks;
    }
}

impl Process for StNode {
    type Msg = Beacon;

    fn on_message(&mut self, from: ChannelLabel, msg: Beacon, ctx: &mut Context<'_, Beacon>) {
        let infinity = self.cfg.infinity();
        self.view[from] = msg.dist.min(infinity);
        if self.recompute() {
            // Estimate changed: announce it right away so corrections propagate in O(diameter)
            // message hops instead of waiting for the next periodic beacon.
            self.broadcast(ctx);
        }
    }

    fn on_tick(&mut self, ctx: &mut Context<'_, Beacon>) {
        self.ticks += 1;
        self.recompute();
        let due = self.ticks.saturating_sub(self.last_broadcast) >= self.cfg.beacon_interval;
        if !self.started || due {
            self.started = true;
            self.broadcast(ctx);
        }
    }
}

impl Corruptible for StNode {
    fn corrupt(&mut self, rng: &mut StdRng) {
        let infinity = self.cfg.infinity();
        self.dist = rng.gen_range(0..=infinity);
        self.parent = if self.degree > 0 && rng.gen_bool(0.5) {
            Some(rng.gen_range(0..self.degree))
        } else {
            None
        };
        for v in self.view.iter_mut() {
            *v = rng.gen_range(0..=infinity);
        }
        self.last_broadcast = self.ticks;
    }
}

/// Builds a spanning-tree network over `graph` with the given configuration.
pub fn network(graph: RootedGraph, cfg: StConfig) -> Network<StNode, RootedGraph> {
    let root = graph.root();
    let degrees: Vec<usize> = (0..graph.len()).map(|v| graph.degree(v)).collect();
    Network::new(graph, |id| StNode::new(id, root, degrees[id], cfg))
}

/// Builds a spanning-tree network with the default configuration for `graph`.
pub fn network_with_defaults(graph: RootedGraph) -> Network<StNode, RootedGraph> {
    let cfg = StConfig::for_graph(&graph);
    network(graph, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{distances_are_exact, parent_map};
    use rand::SeedableRng;
    use treenet::{run_for, RandomFair, RoundRobin};

    #[test]
    fn converges_to_bfs_distances_on_a_diamond() {
        let graph = RootedGraph::new(4, 0, &[(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)]);
        let mut net = network_with_defaults(graph);
        let mut sched = RoundRobin::new();
        run_for(&mut net, &mut sched, 4_000);
        assert!(distances_are_exact(&net));
        // Node 3 is at distance 2, through either node 1 or node 2.
        assert_eq!(net.node(3).dist, 2);
        let parents = parent_map(&net);
        assert!(matches!(parents[3], Some(1) | Some(2)));
        assert_eq!(parents[0], None);
    }

    #[test]
    fn converges_on_random_graphs_under_a_random_scheduler() {
        for seed in 0..4u64 {
            let graph = RootedGraph::random_connected(20, 12, seed);
            let expected = graph.bfs_distances();
            let mut net = network_with_defaults(graph);
            let mut sched = RandomFair::new(seed * 7 + 1);
            run_for(&mut net, &mut sched, 200_000);
            for v in 0..net.len() {
                assert_eq!(net.node(v).dist, expected[v], "node {v}, seed {seed}");
            }
        }
    }

    #[test]
    fn recovers_from_corrupted_local_state() {
        let graph = RootedGraph::random_connected(12, 6, 3);
        let mut net = network_with_defaults(graph);
        let mut sched = RoundRobin::new();
        run_for(&mut net, &mut sched, 20_000);
        assert!(distances_are_exact(&net));
        // Corrupt every process's spanning-tree state, then let the protocol re-stabilize.
        let mut rng = StdRng::seed_from_u64(99);
        for v in 0..net.len() {
            net.node_mut(v).corrupt(&mut rng);
        }
        run_for(&mut net, &mut sched, 40_000);
        assert!(distances_are_exact(&net), "the protocol must re-converge after corruption");
    }

    #[test]
    fn recovers_from_arbitrary_channel_garbage() {
        let graph = RootedGraph::random_connected(10, 5, 8);
        let mut net = network_with_defaults(graph);
        // Stuff every channel with arbitrary beacons before running.
        let mut rng = StdRng::seed_from_u64(5);
        for v in 0..net.len() {
            for l in 0..net.topology().degree(v) {
                for _ in 0..3 {
                    let junk = Beacon::arbitrary(&mut rng);
                    net.inject_into(v, l, junk);
                }
            }
        }
        let mut sched = RandomFair::new(17);
        run_for(&mut net, &mut sched, 150_000);
        assert!(distances_are_exact(&net));
    }

    #[test]
    fn periodic_beacons_keep_channel_occupancy_bounded() {
        let graph = RootedGraph::random_connected(16, 10, 2);
        let mut net = network_with_defaults(graph);
        let mut sched = RoundRobin::new();
        let mut max_in_flight = 0;
        for _ in 0..30_000 {
            net.step_event(&mut sched);
            max_in_flight = max_in_flight.max(net.in_flight());
        }
        // The round-robin scheduler delivers one message per activation when available; the
        // rate-limited beacons must not outpace it by more than a small constant per channel.
        let channels = net.topology().directed_channels();
        assert!(
            max_in_flight <= 4 * channels,
            "in-flight messages grew to {max_in_flight} for {channels} channels"
        );
    }

    #[test]
    fn root_pins_distance_zero_even_after_corruption() {
        let graph = RootedGraph::new(3, 0, &[(0, 1), (1, 2)]);
        let cfg = StConfig::for_graph(&graph);
        let mut net = network(graph, cfg);
        let mut rng = StdRng::seed_from_u64(1);
        net.node_mut(0).corrupt(&mut rng);
        let mut sched = RoundRobin::new();
        run_for(&mut net, &mut sched, 50);
        assert_eq!(net.node(0).dist, 0);
        assert_eq!(net.node(0).parent, None);
    }

    #[test]
    fn config_defaults_scale_with_degree() {
        let star = RootedGraph::new(5, 0, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let cfg = StConfig::for_graph(&star);
        assert_eq!(cfg.infinity(), 5);
        assert_eq!(cfg.beacon_interval, 2 * 4 + 2);
    }
}
