//! Integration tests for the extension to arbitrary rooted networks: the distributed
//! spanning-tree construction composed with the k-out-of-ℓ exclusion protocol.

use kl_exclusion::prelude::*;

use stree::composed::{compose, compose_with_defaults, CompositionBudget};
use stree::StConfig;
use topology::{RootedGraph, SpanningTreeMethod};

#[test]
fn composition_matches_the_offline_bfs_tree_depths() {
    // The distributed construction and the offline extraction must agree on BFS depths
    // (parents may differ among equal-depth candidates, depths may not).
    for seed in [3u64, 17, 40] {
        let graph = RootedGraph::random_connected(15, 9, seed);
        let (offline_tree, offline_map) = graph.spanning_tree(SpanningTreeMethod::Bfs);
        let kl = KlConfig::new(1, 2, 15);
        let mut sched = RandomFair::new(seed);
        let composition = compose_with_defaults(
            graph.clone(),
            kl,
            |_| Box::new(treenet::app::Idle) as treenet::app::BoxedDriver,
            &mut sched,
        )
        .expect("composition stabilizes");
        for v in 0..graph.len() {
            assert_eq!(
                composition.extracted.depths[v],
                offline_tree.depth(offline_map[v]),
                "depth of graph node {v}, seed {seed}"
            );
        }
    }
}

#[test]
fn composed_system_is_safe_fair_and_live_on_a_mesh() {
    let graph = RootedGraph::random_connected(14, 10, 77);
    let n = graph.len();
    let kl = KlConfig::new(2, 4, n);
    let mut sched = RandomFair::new(5);
    let mut composition =
        compose_with_defaults(graph, kl, workloads::all_saturated(2, 6), &mut sched)
            .expect("composition stabilizes");

    // Drive the composed system, checking safety and token conservation after every
    // activation.
    composition.network.trace_mut().clear();
    let net = &mut composition.network;
    let mut census = LiveCensus::new(net, &kl);
    for _ in 0..120_000u64 {
        census.step(net, &mut sched);
        if let Err(breach) = census.safety() {
            panic!("{breach} at t={}", net.now());
        }
        assert_eq!(census.census().resource, kl.l, "tokens not conserved at t={}", net.now());
    }

    let fairness = FairnessReport::from_trace(composition.network.trace(), n);
    assert!(fairness.starvation_free(), "entries: {:?}", fairness.entries_per_node);
    assert!(fairness.total_entries() > 100);
}

#[test]
fn waiting_time_bound_holds_on_the_constructed_tree() {
    // Theorem 2 is stated for the tree the protocol runs on; after composition that tree has
    // n nodes, so the ℓ(2n−3)² bound applies unchanged.
    let graph = RootedGraph::random_connected(10, 6, 13);
    let n = graph.len();
    let kl = KlConfig::new(1, 3, n);
    let mut sched = RandomFair::new(23);
    let mut composition =
        compose_with_defaults(graph, kl, workloads::all_saturated(1, 4), &mut sched)
            .expect("composition stabilizes");
    composition.network.trace_mut().clear();
    for _ in 0..150_000u64 {
        composition.network.step_event(&mut sched);
    }
    let bound = topology::euler::theorem2_waiting_bound(kl.l, n);
    let worst = waiting_times(composition.network.trace())
        .iter()
        .map(|w| w.cs_entries_waited)
        .max()
        .unwrap_or(0);
    assert!(worst <= bound, "worst waiting {worst} exceeds the Theorem-2 bound {bound}");
}

#[test]
fn denser_graphs_yield_shallower_trees_and_shorter_rings() {
    // Structural sanity of the construction: adding chords can only shorten (or keep) BFS
    // depths, which keeps the virtual ring length fixed at 2(n-1) but reduces its eccentricity.
    let sparse = RootedGraph::random_connected(16, 0, 9);
    let dense = RootedGraph::random_connected(16, 40, 9);
    let kl = KlConfig::new(1, 2, 16);
    let mut sched = RandomFair::new(1);
    let sparse_comp = compose_with_defaults(
        sparse,
        kl,
        |_| Box::new(treenet::app::Idle) as treenet::app::BoxedDriver,
        &mut sched,
    )
    .expect("sparse composition stabilizes");
    let dense_comp = compose_with_defaults(
        dense,
        kl,
        |_| Box::new(treenet::app::Idle) as treenet::app::BoxedDriver,
        &mut sched,
    )
    .expect("dense composition stabilizes");
    assert!(dense_comp.extracted.tree.height() <= sparse_comp.extracted.tree.height());
    assert_eq!(VirtualRing::of(&dense_comp.extracted.tree).len(), 2 * (16 - 1));
}

#[test]
fn composition_reports_budget_exhaustion_instead_of_panicking() {
    let graph = RootedGraph::random_connected(12, 6, 3);
    let st = StConfig::for_graph(&graph);
    let kl = KlConfig::new(1, 2, 12);
    let mut sched = RoundRobin::new();
    let budget =
        CompositionBudget { st_max_steps: 10, st_window: 4, kl_max_steps: 10, kl_window: 4 };
    let result = compose(
        graph,
        st,
        kl,
        |_| Box::new(treenet::app::Idle) as treenet::app::BoxedDriver,
        &mut sched,
        budget,
    );
    assert!(result.is_err());
}
