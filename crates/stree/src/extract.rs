//! Reading the constructed spanning tree out of a stabilized network.
//!
//! Once the [`crate::protocol`] has stabilized, every process's `parent` channel points one
//! hop closer to the root.  These helpers turn that distributed state into the
//! [`OrientedTree`] the k-out-of-ℓ exclusion protocol runs on (with the paper's labelling
//! convention: the parent channel of every non-root process becomes channel `0`), together
//! with the node-id mappings between the graph and the tree.

use crate::protocol::StNode;
use topology::{OrientedTree, RootedGraph, Topology};
use treenet::{Network, NodeId};

/// The spanning tree extracted from a stabilized spanning-tree network.
#[derive(Clone, Debug)]
pub struct ExtractedTree {
    /// The oriented tree, re-indexed so its root is node `0` (the tree type's convention).
    pub tree: OrientedTree,
    /// `graph_to_tree[graph_id] = tree_id`.
    pub graph_to_tree: Vec<NodeId>,
    /// `tree_to_graph[tree_id] = graph_id`.
    pub tree_to_graph: Vec<NodeId>,
    /// BFS depth of every graph node according to the extracted tree.
    pub depths: Vec<usize>,
}

/// The parent (as a graph node id) each process currently points to; `None` for the root and
/// for processes whose distance estimate is still the domain's "infinity".
pub fn parent_map(net: &Network<StNode, RootedGraph>) -> Vec<Option<NodeId>> {
    (0..net.len())
        .map(|v| {
            let node = net.node(v);
            if node.is_root() || node.dist >= node.config().infinity() {
                None
            } else {
                node.parent.map(|label| net.topology().endpoint(v, label).0)
            }
        })
        .collect()
}

/// True when every process's distance estimate equals its true BFS distance from the root —
/// the ground-truth stabilization criterion used by tests and experiments (an external
/// observer's view; the processes themselves never need it).
pub fn distances_are_exact(net: &Network<StNode, RootedGraph>) -> bool {
    let expected = net.topology().bfs_distances();
    (0..net.len()).all(|v| net.node(v).dist == expected[v])
}

/// True when the current parent pointers form a spanning tree of the graph in which every
/// parent is strictly closer to the root (a *consistent* tree, not necessarily the BFS one).
pub fn parents_form_tree(net: &Network<StNode, RootedGraph>) -> bool {
    let parents = parent_map(net);
    let n = parents.len();
    let root = net.topology().root();
    if parents[root].is_some() {
        return false;
    }
    // Every non-root node needs a parent, and following parents must reach the root within n
    // steps (no cycles).
    for v in 0..n {
        if v != root && parents[v].is_none() {
            return false;
        }
        let mut cursor = v;
        let mut hops = 0;
        while cursor != root {
            match parents[cursor] {
                Some(p) => cursor = p,
                None => return false,
            }
            hops += 1;
            if hops > n {
                return false;
            }
        }
    }
    true
}

/// Extracts the constructed spanning tree, or `None` while the parent pointers do not yet form
/// a tree.
///
/// The returned [`OrientedTree`] follows the tree type's conventions (root re-indexed to node
/// `0`, children ordered by ascending id, parent channel labelled `0`), which is exactly what
/// [`klex_core::ss::network`] expects; the id mappings let callers translate between graph
/// process ids and tree process ids.
pub fn extract_tree(net: &Network<StNode, RootedGraph>) -> Option<ExtractedTree> {
    if !parents_form_tree(net) {
        return None;
    }
    let parents = parent_map(net);
    let n = parents.len();
    let root = net.topology().root();
    let tree = OrientedTree::from_parents(&parents);
    // Same re-indexing rule as `OrientedTree::from_parents` and `RootedGraph::spanning_tree`:
    // the root becomes 0, every other node keeps its relative order.
    let mut graph_to_tree = vec![0usize; n];
    let mut next = 1usize;
    for v in 0..n {
        if v == root {
            graph_to_tree[v] = 0;
        } else {
            graph_to_tree[v] = next;
            next += 1;
        }
    }
    let mut tree_to_graph = vec![0usize; n];
    for (graph_id, &tree_id) in graph_to_tree.iter().enumerate() {
        tree_to_graph[tree_id] = graph_id;
    }
    let depths = (0..n).map(|v| tree.depth(graph_to_tree[v])).collect();
    Some(ExtractedTree { tree, graph_to_tree, tree_to_graph, depths })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{network_with_defaults, StConfig};
    use treenet::RoundRobin;

    fn stabilized(graph: RootedGraph) -> Network<StNode, RootedGraph> {
        let mut net = network_with_defaults(graph);
        let mut sched = RoundRobin::new();
        for _ in 0..100_000 {
            net.step_event(&mut sched);
            if distances_are_exact(&net) && parents_form_tree(&net) {
                break;
            }
        }
        net
    }

    #[test]
    fn extraction_yields_a_bfs_tree_with_consistent_mappings() {
        let graph = RootedGraph::random_connected(18, 10, 11);
        let expected = graph.bfs_distances();
        let net = stabilized(graph);
        let extracted = extract_tree(&net).expect("stabilized network must yield a tree");
        assert_eq!(extracted.tree.len(), net.len());
        for v in 0..net.len() {
            assert_eq!(extracted.depths[v], expected[v], "depth of graph node {v}");
            assert_eq!(extracted.tree_to_graph[extracted.graph_to_tree[v]], v);
        }
        assert!(extracted.tree.is_root(extracted.graph_to_tree[net.topology().root()]));
    }

    #[test]
    fn extraction_respects_a_non_zero_root() {
        let graph = RootedGraph::new(4, 2, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let net = stabilized(graph);
        let extracted = extract_tree(&net).expect("cycle graph must stabilize");
        assert_eq!(extracted.graph_to_tree[2], 0, "the graph root maps to tree node 0");
        assert_eq!(extracted.depths[2], 0);
        // In a 4-cycle rooted at node 2, the opposite node (0) is at distance 2.
        assert_eq!(extracted.depths[0], 2);
    }

    #[test]
    fn unconverged_network_does_not_extract() {
        let graph = RootedGraph::random_connected(10, 4, 1);
        let net = network_with_defaults(graph);
        // Freshly built: every non-root distance is "infinity", no parents yet.
        assert!(!parents_form_tree(&net));
        assert!(extract_tree(&net).is_none());
    }

    #[test]
    fn parents_form_tree_rejects_cycles() {
        let graph = RootedGraph::new(4, 0, &[(0, 1), (1, 2), (2, 3), (3, 1)]);
        let cfg = StConfig::for_graph(&graph);
        let mut net = crate::protocol::network(graph, cfg);
        // Hand-craft a cyclic parent structure among nodes 1, 2, 3.
        net.node_mut(1).dist = 1;
        net.node_mut(1).parent = Some(1); // 1 -> 2 (its channel 1 leads to node 2)
        net.node_mut(2).dist = 2;
        net.node_mut(2).parent = Some(1); // 2 -> 3
        net.node_mut(3).dist = 3;
        net.node_mut(3).parent = Some(1); // 3 -> 1
        assert!(!parents_form_tree(&net));
    }
}
