//! Running the tree protocol on an arbitrary rooted network — the extension sketched in the
//! paper's conclusion: "solutions on the oriented tree can be directly mapped to solutions
//! for arbitrary rooted networks by composing the protocol with a spanning tree
//! construction".
//!
//! ```text
//! cargo run --release --example general_network
//! ```
//!
//! **Paper scenario:** the conclusion's extension to arbitrary rooted networks via
//! composition with a spanning-tree construction (offline extraction variant).
//!
//! A random connected graph (a mesh with redundant links) is reduced to a BFS spanning tree
//! rooted at the distinguished process; the k-out-of-ℓ exclusion protocol then runs on that
//! tree.  Links outside the spanning tree simply carry no protocol traffic.  The whole
//! composition is one declarative scenario: [`TopologySpec::SpanningTree`] builds the mesh
//! and extracts the BFS tree, and the rest of the spec describes the exclusion regime on
//! top of it.

use kl_exclusion::prelude::*;
use topology::{RootedGraph, SpanningTreeMethod};

fn main() {
    // A 24-node mesh: a random connected graph with 12 extra redundant links.  (Rebuilt here
    // only to print its shape and the graph→tree id mapping — the scenario below constructs
    // the identical tree from the same parameters.)
    let graph = RootedGraph::random_connected(24, 12, 42);
    println!(
        "mesh: {} nodes, {} links ({} redundant beyond a spanning tree)",
        graph.len(),
        graph.edge_count(),
        graph.edge_count() - (graph.len() - 1)
    );
    let (tree, mapping) = graph.spanning_tree(SpanningTreeMethod::Bfs);
    println!(
        "BFS spanning tree: height {}, virtual ring length {}",
        tree.height(),
        VirtualRing::of(&tree).len()
    );

    // Run 2-out-of-4 exclusion over the spanning tree of that mesh — the topology spec *is*
    // the offline composition of the paper's conclusion.
    let n = graph.len();
    let scenario = Scenario::builder("general network")
        .topology(TopologySpec::SpanningTree { n, extra_edges: 12, seed: 42 })
        .protocol(ProtocolSpec::Ss)
        .kl(2, 4)
        .workload(WorkloadSpec::Uniform { seed: 3, p_request: 0.015, max_units: 2, max_hold: 12 })
        .daemon(DaemonSpec::RandomFair { seed: 7 })
        .warmup_spec(WarmupSpec { max_steps: 4_000_000, window: Some(2_000), daemon: None })
        .stop(StopSpec::Steps { steps: 300_000 })
        .metrics(&["cs_entries", "jain_index", "resource_tokens", "census_matches"])
        .build()
        .expect("the composed scenario validates");

    let outcome = scenario.run();
    assert!(outcome.warmup_activations.is_some(), "the composed system must stabilize");

    let fairness = FairnessReport::from_trace(&outcome.trace, n);
    println!("critical sections per (tree-id) node: {:?}", fairness.entries_per_node);
    println!("Jain fairness index: {:.3}", outcome.metric("jain_index").unwrap());

    // Translate a few statistics back to the original graph ids for the operator.
    let graph_root = graph.root();
    println!(
        "graph node {} (the root) is tree node {} and entered its CS {} times",
        graph_root, mapping[graph_root], fairness.entries_per_node[mapping[graph_root]]
    );
    assert_eq!(outcome.metric("resource_tokens"), Some(4.0), "census must match l = 4");
    assert_eq!(outcome.metric("census_matches"), Some(1.0), "exactly (ℓ, 1, 1) tokens");
}
