//! General rooted graphs and spanning-tree construction.
//!
//! The paper's conclusion notes that the oriented-tree protocol extends to arbitrary rooted
//! networks by composing it with a (self-stabilizing) spanning-tree construction.  This module
//! provides the rooted-graph model and deterministic spanning-tree extraction (BFS or DFS) so
//! the `general_network` example and the corresponding tests can exercise that composition.

use crate::tree::OrientedTree;
use crate::NodeId;
use serde::Serialize;
use std::collections::VecDeque;

/// How to extract a spanning tree from a rooted graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum SpanningTreeMethod {
    /// Breadth-first: parents are chosen along shortest paths from the root, which minimises
    /// tree height (and therefore virtual-ring eccentricity).
    Bfs,
    /// Depth-first: parents follow the DFS discovery order.
    Dfs,
}

/// An undirected connected graph with a distinguished root process.
///
/// Adjacency lists are kept sorted so that spanning-tree extraction is deterministic.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct RootedGraph {
    n: usize,
    root: NodeId,
    adj: Vec<Vec<NodeId>>,
}

impl RootedGraph {
    /// Builds a graph on `n` nodes from an undirected edge list, rooted at `root`.
    ///
    /// Self-loops and duplicate edges are rejected.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `root >= n`, an endpoint is out of range, an edge is a self-loop
    /// or a duplicate, or the resulting graph is not connected.
    pub fn new(n: usize, root: NodeId, edges: &[(NodeId, NodeId)]) -> Self {
        assert!(n > 0, "a graph needs at least one node");
        assert!(root < n, "root {root} out of range");
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge ({u},{v}) out of range");
            assert_ne!(u, v, "self-loop at {u}");
            assert!(!adj[u].contains(&v), "duplicate edge ({u},{v})");
            adj[u].push(v);
            adj[v].push(u);
        }
        for a in &mut adj {
            a.sort_unstable();
        }
        let g = RootedGraph { n, root, adj };
        assert!(g.is_connected(), "graph is not connected");
        g
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The distinguished root.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Neighbours of `v` in increasing id order.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v]
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum::<usize>() / 2
    }

    fn is_connected(&self) -> bool {
        let mut seen = vec![false; self.n];
        let mut stack = vec![self.root];
        seen[self.root] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &w in &self.adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == self.n
    }

    /// Extracts a spanning tree rooted at this graph's root.
    ///
    /// The returned [`OrientedTree`] renumbers the graph's root to node `0` (the convention of
    /// the tree type); the mapping is returned alongside: `mapping[graph_id] = tree_id`.
    pub fn spanning_tree(&self, method: SpanningTreeMethod) -> (OrientedTree, Vec<NodeId>) {
        let mut parent: Vec<Option<NodeId>> = vec![None; self.n];
        let mut visited = vec![false; self.n];
        visited[self.root] = true;
        match method {
            SpanningTreeMethod::Bfs => {
                let mut queue = VecDeque::new();
                queue.push_back(self.root);
                while let Some(v) = queue.pop_front() {
                    for &w in &self.adj[v] {
                        if !visited[w] {
                            visited[w] = true;
                            parent[w] = Some(v);
                            queue.push_back(w);
                        }
                    }
                }
            }
            SpanningTreeMethod::Dfs => {
                let mut stack = vec![self.root];
                while let Some(v) = stack.pop() {
                    for &w in self.adj[v].iter().rev() {
                        if !visited[w] {
                            visited[w] = true;
                            parent[w] = Some(v);
                            stack.push(w);
                        }
                    }
                }
            }
        }
        // Compute the same renumbering OrientedTree::from_parents applies (root -> 0,
        // remaining nodes keep relative order) so callers can translate ids.
        let mut mapping = vec![0usize; self.n];
        let mut next = 1usize;
        for v in 0..self.n {
            if v == self.root {
                mapping[v] = 0;
            } else {
                mapping[v] = next;
                next += 1;
            }
        }
        (OrientedTree::from_parents(&parent), mapping)
    }

    /// The local channel label under which `v` reaches its neighbour `peer`.
    ///
    /// Labels follow adjacency order: `v`'s channel `i` leads to `neighbors(v)[i]`.  This is
    /// the labelling the distributed spanning-tree protocol (`stree` crate) runs on; once a
    /// tree is constructed, the `OrientedTree` relabelling (parent = channel 0) applies.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is not a neighbour of `v`.
    pub fn label_of(&self, v: NodeId, peer: NodeId) -> usize {
        self.adj[v]
            .iter()
            .position(|&w| w == peer)
            .unwrap_or_else(|| panic!("{peer} is not a neighbour of {v}"))
    }

    /// Hop distances from the root computed offline by BFS (ground truth for the distributed
    /// spanning-tree protocol's stabilized `dist` variables).
    pub fn bfs_distances(&self) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.n];
        dist[self.root] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(self.root);
        while let Some(v) = queue.pop_front() {
            for &w in &self.adj[v] {
                if dist[w] == usize::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// A deterministic pseudo-random connected graph: a random recursive tree plus
    /// `extra_edges` additional random chords.  Useful for exercising the spanning-tree
    /// composition on non-tree networks.
    pub fn random_connected(n: usize, extra_edges: usize, seed: u64) -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        assert!(n > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for v in 1..n {
            edges.push((v, rng.gen_range(0..v)));
        }
        let mut added = 0usize;
        let mut attempts = 0usize;
        while added < extra_edges && attempts < extra_edges * 20 + 100 {
            attempts += 1;
            if n < 2 {
                break;
            }
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u == v {
                continue;
            }
            let (a, b) = (u.min(v), u.max(v));
            if edges.iter().any(|&(x, y)| (x.min(y), x.max(y)) == (a, b)) {
                continue;
            }
            edges.push((a, b));
            added += 1;
        }
        RootedGraph::new(n, 0, &edges)
    }
}

impl crate::Topology for RootedGraph {
    fn len(&self) -> usize {
        self.n
    }

    fn degree(&self, node: NodeId) -> usize {
        self.adj[node].len()
    }

    fn endpoint(&self, node: NodeId, label: usize) -> (NodeId, usize) {
        let peer = self.adj[node][label];
        (peer, self.label_of(peer, node))
    }

    fn root(&self) -> NodeId {
        self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    fn diamond() -> RootedGraph {
        // 0 - 1, 0 - 2, 1 - 3, 2 - 3, 1 - 2 : a diamond with a chord.
        RootedGraph::new(4, 0, &[(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)])
    }

    #[test]
    fn builds_and_counts_edges() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn rejects_disconnected() {
        RootedGraph::new(4, 0, &[(0, 1), (2, 3)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        RootedGraph::new(2, 0, &[(0, 0), (0, 1)]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicate_edge() {
        RootedGraph::new(2, 0, &[(0, 1), (1, 0)]);
    }

    #[test]
    fn bfs_spanning_tree_has_shortest_depths() {
        let g = diamond();
        let (tree, map) = g.spanning_tree(SpanningTreeMethod::Bfs);
        assert_eq!(tree.len(), 4);
        // Node 3 is two hops from the root in the graph; BFS keeps that depth.
        assert_eq!(tree.depth(map[3]), 2);
        assert_eq!(tree.depth(map[1]), 1);
        assert_eq!(tree.depth(map[2]), 1);
    }

    #[test]
    fn dfs_spanning_tree_is_a_valid_tree() {
        let g = diamond();
        let (tree, _map) = g.spanning_tree(SpanningTreeMethod::Dfs);
        assert_eq!(tree.len(), 4);
        // A spanning tree of a 4-node graph has 3 edges, i.e. 6 directed channels.
        assert_eq!(tree.directed_channels(), 6);
    }

    #[test]
    fn spanning_tree_of_nonzero_root_remaps_ids() {
        let g = RootedGraph::new(3, 2, &[(0, 1), (1, 2)]);
        let (tree, map) = g.spanning_tree(SpanningTreeMethod::Bfs);
        assert_eq!(map[2], 0, "graph root must map to tree node 0");
        assert!(tree.is_root(0));
        assert_eq!(tree.len(), 3);
    }

    #[test]
    fn topology_labels_follow_adjacency_order() {
        let g = diamond();
        // Node 1's neighbours are [0, 2, 3]; channel 1 therefore leads to node 2.
        assert_eq!(g.degree(1), 3);
        let (peer, back) = g.endpoint(1, 1);
        assert_eq!(peer, 2);
        // Node 2's neighbours are [0, 1, 3]; node 1 is at index 1.
        assert_eq!(back, 1);
        assert_eq!(g.label_of(2, 1), 1);
    }

    #[test]
    fn topology_endpoints_are_involutive() {
        let g = RootedGraph::random_connected(25, 15, 3);
        for v in 0..g.len() {
            for label in 0..g.degree(v) {
                let (peer, peer_label) = g.endpoint(v, label);
                assert_eq!(g.endpoint(peer, peer_label), (v, label));
            }
        }
    }

    #[test]
    fn bfs_distances_match_spanning_tree_depths() {
        let g = RootedGraph::random_connected(20, 8, 7);
        let dist = g.bfs_distances();
        let (tree, map) = g.spanning_tree(SpanningTreeMethod::Bfs);
        for v in 0..g.len() {
            assert_eq!(dist[v], tree.depth(map[v]), "node {v}");
            assert!(dist[v] < g.len());
        }
    }

    #[test]
    #[should_panic(expected = "is not a neighbour")]
    fn label_of_rejects_non_neighbours() {
        diamond().label_of(0, 3);
    }

    #[test]
    fn random_connected_is_connected_and_deterministic() {
        let a = RootedGraph::random_connected(30, 10, 9);
        let b = RootedGraph::random_connected(30, 10, 9);
        assert_eq!(a, b);
        assert!(a.edge_count() >= 29);
        let (tree, _) = a.spanning_tree(SpanningTreeMethod::Bfs);
        assert_eq!(tree.len(), 30);
    }
}
