//! Property-based tests (proptest) over the core data structures and protocol invariants.
//!
//! The expensive properties (whole-protocol runs) use a reduced number of cases; the cheap
//! structural ones use proptest's default.

mod lockstep_walk;

use kl_exclusion::prelude::*;
use lockstep_walk::{CHURN, CRASHES, FAULTS};
use proptest::prelude::*;
use protocol::legitimacy::safety_holds;

/// Strategy: a random parent vector describing a tree of 2..=20 nodes (node 0 is the root and
/// node v > 0 attaches to a random earlier node).
fn tree_strategy() -> impl Strategy<Value = OrientedTree> {
    (2usize..=20, any::<u64>()).prop_map(|(n, seed)| topology::builders::random_tree(n, seed))
}

proptest! {
    // ------------------------------------------------------------------ structural properties

    #[test]
    fn virtual_ring_has_length_2n_minus_2(tree in tree_strategy()) {
        let ring = VirtualRing::of(&tree);
        prop_assert_eq!(ring.len(), 2 * (tree.len() - 1));
    }

    #[test]
    fn virtual_ring_first_visits_are_dfs_preorder(tree in tree_strategy()) {
        let ring = VirtualRing::of(&tree);
        prop_assert_eq!(ring.first_visit_order(), tree.dfs_preorder());
    }

    #[test]
    fn virtual_ring_visits_each_node_degree_times(tree in tree_strategy()) {
        let ring = VirtualRing::of(&tree);
        for v in 0..tree.len() {
            prop_assert_eq!(ring.visits(v), tree.degree(v));
        }
    }

    #[test]
    fn tree_channel_labels_are_involutive(tree in tree_strategy()) {
        for v in 0..tree.len() {
            for label in 0..tree.degree(v) {
                let (peer, peer_label) = tree.endpoint(v, label);
                let (back, back_label) = tree.endpoint(peer, peer_label);
                prop_assert_eq!((back, back_label), (v, label));
            }
        }
    }

    #[test]
    fn depths_are_consistent_with_parents(tree in tree_strategy()) {
        for v in 1..tree.len() {
            let p = tree.parent(v).unwrap();
            prop_assert_eq!(tree.depth(v), tree.depth(p) + 1);
        }
    }

    #[test]
    fn spanning_tree_preserves_node_count(
        n in 2usize..=16,
        extra in 0usize..=10,
        seed in any::<u64>(),
    ) {
        let graph = topology::RootedGraph::random_connected(n, extra, seed);
        let (tree, mapping) = graph.spanning_tree(topology::SpanningTreeMethod::Bfs);
        prop_assert_eq!(tree.len(), n);
        let mut seen = vec![false; n];
        for &m in &mapping {
            prop_assert!(!seen[m]);
            seen[m] = true;
        }
    }

    #[test]
    fn summary_is_order_invariant(mut xs in proptest::collection::vec(0.0f64..1e6, 1..50)) {
        let a = Summary::of(&xs);
        xs.reverse();
        let b = Summary::of(&xs);
        prop_assert!((a.mean - b.mean).abs() < 1e-6);
        prop_assert_eq!(a.min, b.min);
        prop_assert_eq!(a.max, b.max);
        prop_assert_eq!(a.median, b.median);
    }

    #[test]
    fn theorem2_bound_is_monotone_in_n_and_l(l in 1usize..8, n in 2usize..60) {
        let b = topology::euler::theorem2_waiting_bound(l, n);
        prop_assert!(topology::euler::theorem2_waiting_bound(l + 1, n) >= b);
        prop_assert!(topology::euler::theorem2_waiting_bound(l, n + 1) >= b);
    }
}

// --------------------------------------------------------------- graph properties

proptest! {
    #[test]
    fn rooted_graph_channel_labels_are_involutive(
        n in 2usize..=24,
        extra in 0usize..=20,
        seed in any::<u64>(),
    ) {
        let graph = topology::RootedGraph::random_connected(n, extra, seed);
        for v in 0..graph.len() {
            for label in 0..graph.degree(v) {
                let (peer, peer_label) = graph.endpoint(v, label);
                prop_assert_eq!(graph.endpoint(peer, peer_label), (v, label));
            }
        }
    }

    #[test]
    fn histogram_preserves_sample_counts(
        samples in proptest::collection::vec(0u64..5_000, 1..200),
        buckets in 1usize..40,
    ) {
        let h = analysis::Histogram::of(&samples, buckets);
        prop_assert_eq!(h.total as usize, samples.len());
        prop_assert_eq!(h.counts.iter().sum::<u64>() + h.overflow + h.exhausted, h.total);
        let max = *samples.iter().max().unwrap();
        prop_assert!(h.quantile(1.0) >= max.min(h.high));
    }

    /// `Histogram::merge` is commutative and associative, and merging per-shard histograms
    /// is independent of how the samples were split into shards — the property the sharded
    /// harness relies on when combining per-worker distributions.  Exhausted trials (no
    /// measurement) survive every split as a separate count.
    #[test]
    fn histogram_merge_is_shard_independent(
        samples in proptest::collection::vec(0u64..200, 0..120),
        exhausted_every in 2usize..7,
        shards in 1usize..9,
    ) {
        let make = || analysis::Histogram::with_range(160, 8);
        let record = |h: &mut analysis::Histogram, idx: usize, sample: u64| {
            if idx.is_multiple_of(exhausted_every) {
                h.record_exhausted();
            } else {
                h.record(sample);
            }
        };
        // Reference: everything recorded into one histogram.
        let mut reference = make();
        for (idx, &s) in samples.iter().enumerate() {
            record(&mut reference, idx, s);
        }
        // Sharded: contiguous chunks recorded separately, then merged in order.
        let chunk = samples.len().div_ceil(shards).max(1);
        let mut merged = make();
        let mut per_shard: Vec<analysis::Histogram> = Vec::new();
        for (shard_idx, shard) in samples.chunks(chunk).enumerate() {
            let mut h = make();
            for (offset, &s) in shard.iter().enumerate() {
                record(&mut h, shard_idx * chunk + offset, s);
            }
            merged.merge(&h);
            per_shard.push(h);
        }
        prop_assert_eq!(&merged.counts, &reference.counts);
        prop_assert_eq!(merged.overflow, reference.overflow);
        prop_assert_eq!(merged.exhausted, reference.exhausted);
        prop_assert_eq!(merged.total, reference.total);
        // Commutativity: merging the shards in reverse gives the same result.
        let mut reversed = make();
        for h in per_shard.iter().rev() {
            reversed.merge(h);
        }
        prop_assert_eq!(&reversed.counts, &reference.counts);
        prop_assert_eq!(reversed.total, reference.total);
        // Associativity: (a + b) + c == a + (b + c) on the first three shards.
        if per_shard.len() >= 3 {
            let (a, b, c) = (&per_shard[0], &per_shard[1], &per_shard[2]);
            let mut left = make();
            left.merge(a);
            left.merge(b);
            left.merge(c);
            let mut bc = make();
            bc.merge(b);
            bc.merge(c);
            let mut right = make();
            right.merge(a);
            right.merge(&bc);
            prop_assert_eq!(&left.counts, &right.counts);
            prop_assert_eq!(left.overflow, right.overflow);
            prop_assert_eq!(left.exhausted, right.exhausted);
            prop_assert_eq!(left.total, right.total);
        }
    }

    /// Channel stress across the inline-ring → spill boundary: arbitrary interleavings of
    /// push / pop / unpush / unpop (seeded with enough pushes to guarantee spilling past
    /// the 4-slot inline ring) keep the queue equivalent to a reference `VecDeque` and
    /// maintain the `enqueued == delivered + lost + len` conservation law after every
    /// single operation; unpush/unpop remain exact inverses at every fill level.
    #[test]
    fn channel_conservation_law_holds_across_the_spill_boundary(
        preload in (treenet::channel::INLINE_CAPACITY + 1)..4 * treenet::channel::INLINE_CAPACITY,
        ops in proptest::collection::vec((0u8..4, 0u32..1_000), 1..120),
    ) {
        use std::collections::VecDeque;
        let mut ch: treenet::channel::Channel<u32> = treenet::channel::Channel::new();
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut delivered_model: u64 = 0;

        let law = |ch: &treenet::channel::Channel<u32>| {
            ch.enqueued() == ch.delivered() + ch.lost() + ch.len() as u64
        };
        let same = |ch: &treenet::channel::Channel<u32>, model: &VecDeque<u32>| {
            ch.iter().copied().eq(model.iter().copied())
        };

        // Push past the inline capacity so the interleaving genuinely crosses the spill
        // boundary in both directions.
        for i in 0..preload {
            let value = 10_000 + i as u32;
            ch.push(value);
            model.push_back(value);
        }
        prop_assert!(law(&ch) && same(&ch, &model));

        for (op, value) in ops {
            match op {
                // push: tail append.
                0 => {
                    ch.push(value);
                    model.push_back(value);
                }
                // pop: head removal, counted as a delivery.
                1 => {
                    let got = ch.pop();
                    prop_assert_eq!(got, model.pop_front());
                    if got.is_some() {
                        delivered_model += 1;
                    }
                }
                // unpush: exact inverse of the most recent push.
                2 => {
                    prop_assert_eq!(ch.unpush(), model.pop_back());
                }
                // unpop: exact inverse of a pop (needs a prior delivery to reverse).
                _ => {
                    if delivered_model > 0 {
                        ch.unpop(value);
                        model.push_front(value);
                        delivered_model -= 1;
                    }
                }
            }
            prop_assert!(law(&ch), "conservation law broken after op {}", op);
            prop_assert!(same(&ch, &model), "contents diverged after op {}", op);
            prop_assert_eq!(ch.delivered(), delivered_model);
        }

        // Drain through unpush all the way back across the boundary.
        while let Some(got) = ch.unpush() {
            prop_assert_eq!(Some(got), model.pop_back());
            prop_assert!(law(&ch));
        }
        prop_assert!(model.is_empty());
        prop_assert_eq!(ch.len(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// The distributed spanning-tree protocol converges to the exact BFS distances on random
    /// connected graphs under the deterministic fair scheduler.
    #[test]
    fn spanning_tree_protocol_converges_to_bfs_distances(
        n in 3usize..=14,
        extra in 0usize..=10,
        seed in any::<u64>(),
    ) {
        let graph = topology::RootedGraph::random_connected(n, extra, seed);
        let expected = graph.bfs_distances();
        let mut net = stree::network_with_defaults(graph);
        let mut sched = RoundRobin::new();
        let mut converged = false;
        for _ in 0..200_000u64 {
            net.step_event(&mut sched);
            if stree::distances_are_exact(&net) && stree::parents_form_tree(&net) {
                converged = true;
                break;
            }
        }
        prop_assert!(converged, "no convergence for n={n}, extra={extra}, seed={seed}");
        let extracted = stree::extract_tree(&net).expect("stabilized network yields a tree");
        for v in 0..expected.len() {
            prop_assert_eq!(extracted.depths[v], expected[v]);
        }
    }
}

// ------------------------------------------------------------------- protocol-level properties

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// Safety invariant: however the (clean-start) protocol is scheduled and loaded, no more
    /// than ℓ units are in use and no process exceeds k.
    #[test]
    fn ss_protocol_is_always_safe_after_stabilization(
        seed in any::<u64>(),
        n in 4usize..=10,
        hold in 2u64..12,
    ) {
        let l = (n / 2).clamp(2, 5);
        let k = (l / 2).max(1);
        let cfg = KlConfig::new(k, l, n);
        let tree = topology::builders::random_tree(n, seed);
        let mut net = protocol::ss::network(tree, cfg, workloads::all_saturated(k, hold));
        let mut sched = RandomFair::new(seed ^ 0xABCD);
        let boot = measure_convergence(&mut net, &mut sched, &cfg, 3_000_000, 2_000);
        prop_assert!(boot.converged());
        for _ in 0..30_000u64 {
            net.step_event(&mut sched);
            prop_assert!(safety_holds(&net, &cfg), "unsafe at t={}", net.now());
        }
    }

    /// Convergence invariant (Theorem 1): from an arbitrary fault-injected configuration the
    /// protocol returns to a legitimate configuration.
    #[test]
    fn ss_protocol_recovers_from_random_faults(
        seed in any::<u64>(),
        n in 4usize..=9,
        corrupt in 0.0f64..=1.0,
        garbage in 0usize..=2,
    ) {
        let cfg = KlConfig::new(1, 2, n);
        let tree = topology::builders::random_tree(n, seed);
        let mut net = protocol::ss::network(tree, cfg, workloads::all_uniform(seed, 0.01, 1, 8));
        let mut sched = RandomFair::new(seed ^ 0x1234);
        let boot = measure_convergence(&mut net, &mut sched, &cfg, 3_000_000, 2_000);
        prop_assert!(boot.converged());
        let plan = FaultPlan {
            corrupt_node_prob: corrupt,
            channel_garbage_max: garbage,
            drop_prob: 0.4,
            duplicate_prob: 0.3,
            clear_channel_prob: 0.2,
        };
        let mut injector = FaultInjector::new(seed ^ 0x5555);
        injector.inject(&mut net, &plan);
        let out = measure_convergence(&mut net, &mut sched, &cfg, 6_000_000, 2_000);
        prop_assert!(out.converged());
    }

    /// Token conservation for the non-stabilizing rung: without faults the ℓ resource tokens
    /// are conserved exactly, whatever the workload and scheduling.
    #[test]
    fn nonstab_protocol_conserves_tokens(
        seed in any::<u64>(),
        n in 3usize..=10,
        p_req in 0.0f64..0.2,
    ) {
        let cfg = KlConfig::new(2, 3, n);
        let tree = topology::builders::random_tree(n, seed);
        let mut net = protocol::nonstab::network(
            tree,
            cfg,
            workloads::all_uniform(seed, p_req, 2, 10),
        );
        let mut sched = RandomFair::new(seed ^ 0x77);
        // Wait for the root's first activation, which creates the initial tokens all at once.
        let booted = run_until(&mut net, &mut sched, 50_000, |net| {
            count_tokens(net).resource == cfg.l
        });
        prop_assert!(booted.is_satisfied());
        for _ in 0..15_000u64 {
            net.step_event(&mut sched);
            let census = count_tokens(&net);
            prop_assert_eq!(census.resource, cfg.l);
            prop_assert_eq!(census.pusher + census.priority, 2);
        }
    }
}

proptest! {
    // Whole-protocol runs with an O(n · Δ²) pass per activation: a reduced case count.
    #![proptest_config(ProptestConfig { cases: 20, .. ProptestConfig::default() })]

    /// Fault plans, crashes and churn (a leaf joins, a leaf leaves, an edge is rewired)
    /// between phases of a lock-step walk: after every event and every activation the slab
    /// degrees match the topology, every channel keeps `enqueued = delivered + lost + len`,
    /// and the enabled set equals its brute-force re-derivation (with the walk's other
    /// trackers).
    #[test]
    fn fault_and_churn_events_preserve_conservation_and_the_enabled_set(
        draw in lockstep_walk::draws(FAULTS | CRASHES | CHURN),
    ) {
        draw.walk();
    }
}
