//! Oriented trees with the paper's channel-labelling convention.

use crate::{ChannelLabel, NodeId, Topology};
use serde::Serialize;

/// A rooted ("oriented") tree.
///
/// The tree is stored as a parent vector plus an ordered child list per node.  Channel labels
/// follow the convention of the paper:
///
/// * the **root** labels its channels `0..Δr`, channel `i` leading to its `i`-th child;
/// * every **non-root** node labels the channel towards its **parent `0`**, and the channel
///   towards its `i`-th child `i + 1`.
///
/// Node `0` is always the root (builders guarantee this; [`OrientedTree::from_parents`]
/// re-indexes if necessary).
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct OrientedTree {
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
}

impl OrientedTree {
    /// Builds a tree from a parent vector: `parents[v]` is the parent of `v`, and exactly one
    /// entry (the root) is `None`.
    ///
    /// Children are ordered by ascending node id.  The root is re-indexed to node `0` (all
    /// other nodes keep their relative order) so that `Topology::root() == 0` always holds.
    ///
    /// # Panics
    ///
    /// Panics if the input is empty, has zero or multiple roots, contains an out-of-range
    /// parent, or is not connected/acyclic (i.e. not a tree).
    pub fn from_parents(parents: &[Option<NodeId>]) -> Self {
        let n = parents.len();
        assert!(n > 0, "a tree needs at least one node");
        let roots: Vec<NodeId> = (0..n).filter(|&v| parents[v].is_none()).collect();
        assert_eq!(roots.len(), 1, "a tree needs exactly one root, got {}", roots.len());
        let old_root = roots[0];
        for (v, p) in parents.iter().enumerate() {
            if let Some(p) = p {
                assert!(*p < n, "parent of {v} out of range: {p}");
                assert_ne!(*p, v, "node {v} cannot be its own parent");
            }
        }

        // Re-index so the root becomes node 0 while preserving the relative order of the
        // remaining nodes.
        let mut remap = vec![0usize; n];
        let mut next = 1usize;
        for v in 0..n {
            if v == old_root {
                remap[v] = 0;
            } else {
                remap[v] = next;
                next += 1;
            }
        }

        let mut parent = vec![None; n];
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for v in 0..n {
            if let Some(p) = parents[v] {
                parent[remap[v]] = Some(remap[p]);
            }
        }
        for v in 0..n {
            if let Some(p) = parent[v] {
                children[p].push(v);
            }
        }
        for c in &mut children {
            c.sort_unstable();
        }

        let tree = OrientedTree { parent, children };
        tree.assert_connected();
        tree
    }

    /// Builds a tree directly from an ordered child structure rooted at node `0`.
    ///
    /// `children[v]` lists the children of `v` in channel order.  This is the constructor the
    /// builders use when the child order (and therefore the virtual ring) matters, e.g. to
    /// reproduce the exact trees of the paper's figures.
    ///
    /// # Panics
    ///
    /// Panics if the structure is not a tree rooted at node `0`.
    pub fn from_children(children: Vec<Vec<NodeId>>) -> Self {
        let n = children.len();
        assert!(n > 0, "a tree needs at least one node");
        let mut parent = vec![None; n];
        let mut seen = vec![false; n];
        seen[0] = true;
        for (v, cs) in children.iter().enumerate() {
            for &c in cs {
                assert!(c < n, "child {c} of {v} out of range");
                assert!(!seen[c], "node {c} has two parents or is the root");
                seen[c] = true;
                parent[c] = Some(v);
            }
        }
        assert!(seen.iter().all(|&s| s), "tree is not connected");
        let tree = OrientedTree { parent, children };
        tree.assert_connected();
        tree
    }

    fn assert_connected(&self) {
        let n = self.len();
        let mut visited = vec![false; n];
        let mut stack = vec![0usize];
        visited[0] = true;
        let mut count = 1usize;
        while let Some(v) = stack.pop() {
            for &c in &self.children[v] {
                assert!(!visited[c], "cycle detected through node {c}");
                visited[c] = true;
                count += 1;
                stack.push(c);
            }
        }
        assert_eq!(count, n, "tree is not connected: reached {count} of {n} nodes");
    }

    /// Parent of `v`, or `None` for the root.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v]
    }

    /// Children of `v` in channel order.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v]
    }

    /// True if `v` is the root.
    pub fn is_root(&self, v: NodeId) -> bool {
        self.parent[v].is_none()
    }

    /// True if `v` has no children.
    pub fn is_leaf(&self, v: NodeId) -> bool {
        self.children[v].is_empty()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        (0..self.len()).filter(|&v| self.is_leaf(v)).count()
    }

    /// Depth of `v` (the root has depth 0).
    pub fn depth(&self, v: NodeId) -> usize {
        let mut d = 0;
        let mut cur = v;
        while let Some(p) = self.parent[cur] {
            d += 1;
            cur = p;
        }
        d
    }

    /// Height of the tree (maximum depth over all nodes).
    pub fn height(&self) -> usize {
        (0..self.len()).map(|v| self.depth(v)).max().unwrap_or(0)
    }

    /// Number of nodes in the subtree rooted at `v` (including `v`).
    pub fn subtree_size(&self, v: NodeId) -> usize {
        1 + self.children[v].iter().map(|&c| self.subtree_size(c)).sum::<usize>()
    }

    /// The neighbour reached through `node`'s channel `label`.
    ///
    /// # Panics
    ///
    /// Panics if `label >= degree(node)`.
    pub fn neighbor(&self, node: NodeId, label: ChannelLabel) -> NodeId {
        assert!(label < self.degree(node), "label {label} out of range for node {node}");
        if self.is_root(node) {
            self.children[node][label]
        } else if label == 0 {
            self.parent[node].expect("non-root node has a parent")
        } else {
            self.children[node][label - 1]
        }
    }

    /// The label under which `node` knows its neighbour `peer`.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is not adjacent to `node`.
    pub fn label_of(&self, node: NodeId, peer: NodeId) -> ChannelLabel {
        if self.parent[node] == Some(peer) {
            return 0;
        }
        let idx = self.children[node]
            .iter()
            .position(|&c| c == peer)
            .unwrap_or_else(|| panic!("{peer} is not adjacent to {node}"));
        if self.is_root(node) {
            idx
        } else {
            idx + 1
        }
    }

    /// Nodes in depth-first preorder starting at the root, visiting children in channel order.
    pub fn dfs_preorder(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.len());
        let mut stack = vec![self.root()];
        while let Some(v) = stack.pop() {
            order.push(v);
            for &c in self.children[v].iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        (0..self.len()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// True when `node` lies in the subtree rooted at `ancestor` (inclusive).
    pub fn in_subtree(&self, node: NodeId, ancestor: NodeId) -> bool {
        let mut cur = node;
        loop {
            if cur == ancestor {
                return true;
            }
            match self.parent[cur] {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// Returns the tree with a fresh leaf (id `len()`) attached as the **last** child of
    /// `parent`.
    ///
    /// Appending at the tail is what makes leaf joins a *local* topology fault: every
    /// channel label of every existing node is unchanged — only `parent` gains one new
    /// channel, at label `degree(parent)`.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is out of range.
    pub fn with_leaf_added(&self, parent: NodeId) -> OrientedTree {
        assert!(parent < self.len(), "join parent {parent} out of range");
        let fresh = self.len();
        let mut parents = self.parent.clone();
        let mut children = self.children.clone();
        children[parent].push(fresh);
        children.push(Vec::new());
        parents.push(Some(parent));
        let tree = OrientedTree { parent: parents, children };
        tree.assert_connected();
        tree
    }

    /// Returns the tree with leaf `v` removed, together with the id remapping:
    /// `old_of_new[w]` is the id that node `w` of the new tree had in `self` (every id
    /// above `v` shifts down by one, so node `0` stays the root).
    ///
    /// # Panics
    ///
    /// Panics if `v` is the root or not a leaf, or if the tree has only two nodes.
    pub fn with_leaf_removed(&self, v: NodeId) -> (OrientedTree, Vec<NodeId>) {
        assert!(self.len() > 2, "removing a leaf from a 2-node tree leaves no network");
        assert!(v < self.len() && !self.is_root(v), "only a non-root node can leave");
        assert!(self.is_leaf(v), "node {v} has children and cannot leave as a leaf");
        let old_of_new: Vec<NodeId> = (0..self.len()).filter(|&w| w != v).collect();
        let new_of_old = |w: NodeId| if w < v { w } else { w - 1 };
        let mut parent = Vec::with_capacity(self.len() - 1);
        let mut children = Vec::with_capacity(self.len() - 1);
        for &old in &old_of_new {
            parent.push(self.parent[old].map(new_of_old));
            children.push(
                self.children[old].iter().filter(|&&c| c != v).map(|&c| new_of_old(c)).collect(),
            );
        }
        let tree = OrientedTree { parent, children };
        tree.assert_connected();
        (tree, old_of_new)
    }

    /// Returns the tree with the parent edge of `v` severed and `v` re-attached as the
    /// last child of `new_parent`.  Node ids are unchanged; the whole subtree under `v`
    /// moves with it.
    ///
    /// # Panics
    ///
    /// Panics if `v` is the root, `new_parent` is out of range, or `new_parent` lies
    /// inside `v`'s own subtree (the result would not be a tree).
    pub fn with_edge_rewired(&self, v: NodeId, new_parent: NodeId) -> OrientedTree {
        assert!(v < self.len() && !self.is_root(v), "cannot rewire the root");
        assert!(new_parent < self.len(), "rewire target {new_parent} out of range");
        assert!(
            !self.in_subtree(new_parent, v),
            "rewiring {v} under {new_parent} would create a cycle"
        );
        let old_parent = self.parent[v].expect("non-root node has a parent");
        let mut parent = self.parent.clone();
        let mut children = self.children.clone();
        children[old_parent].retain(|&c| c != v);
        children[new_parent].push(v);
        parent[v] = Some(new_parent);
        let tree = OrientedTree { parent, children };
        tree.assert_connected();
        tree
    }
}

impl Topology for OrientedTree {
    fn len(&self) -> usize {
        self.parent.len()
    }

    fn degree(&self, node: NodeId) -> usize {
        let kids = self.children[node].len();
        if self.is_root(node) {
            kids
        } else {
            kids + 1
        }
    }

    fn endpoint(&self, node: NodeId, label: ChannelLabel) -> (NodeId, ChannelLabel) {
        let peer = self.neighbor(node, label);
        (peer, self.label_of(peer, node))
    }

    fn root(&self) -> NodeId {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    fn paper_tree() -> OrientedTree {
        builders::figure1_tree()
    }

    #[test]
    fn from_parents_reindexes_root_to_zero() {
        // Root is node 2 in the input.
        let t = OrientedTree::from_parents(&[Some(2), Some(2), None, Some(0)]);
        assert!(t.is_root(0));
        assert_eq!(t.len(), 4);
        assert_eq!(t.children(0).len(), 2);
    }

    #[test]
    #[should_panic(expected = "exactly one root")]
    fn from_parents_rejects_two_roots() {
        OrientedTree::from_parents(&[None, None, Some(0)]);
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn from_children_rejects_disconnected() {
        OrientedTree::from_children(vec![vec![1], vec![], vec![3], vec![]]);
    }

    #[test]
    #[should_panic]
    fn from_parents_rejects_cycle() {
        // 1 -> 2 -> 3 -> 1 cycle plus root 0: node count reached < n.
        OrientedTree::from_parents(&[None, Some(3), Some(1), Some(2)]);
    }

    #[test]
    fn parent_channel_is_zero_for_non_root() {
        let t = paper_tree();
        for v in 1..t.len() {
            let p = t.parent(v).unwrap();
            assert_eq!(t.label_of(v, p), 0, "non-root {v} must label its parent channel 0");
            assert_eq!(t.neighbor(v, 0), p);
        }
    }

    #[test]
    fn root_channels_point_to_children_in_order() {
        let t = paper_tree();
        let r = t.root();
        for (i, &c) in t.children(r).iter().enumerate() {
            assert_eq!(t.neighbor(r, i), c);
        }
    }

    #[test]
    fn endpoint_is_symmetric() {
        let t = paper_tree();
        for v in 0..t.len() {
            for l in 0..t.degree(v) {
                let (p, pl) = t.endpoint(v, l);
                let (back, back_l) = t.endpoint(p, pl);
                assert_eq!(back, v);
                assert_eq!(back_l, l);
            }
        }
    }

    #[test]
    fn degree_counts_parent_and_children() {
        let t = paper_tree();
        // Figure 1 tree: r{a,d}, a{b,c}, d{e,f,g}.
        assert_eq!(t.degree(0), 2); // root r
        let a = t.children(0)[0];
        assert_eq!(t.degree(a), 3); // parent + two children
    }

    #[test]
    fn depth_height_subtree() {
        let t = builders::chain(5);
        assert_eq!(t.height(), 4);
        assert_eq!(t.depth(0), 0);
        assert_eq!(t.subtree_size(0), 5);
        assert_eq!(t.leaf_count(), 1);
    }

    #[test]
    fn dfs_preorder_visits_all_nodes_once() {
        let t = builders::random_tree(37, 42);
        let order = t.dfs_preorder();
        assert_eq!(order.len(), t.len());
        let mut seen = vec![false; t.len()];
        for v in order {
            assert!(!seen[v]);
            seen[v] = true;
        }
    }

    #[test]
    fn leaf_join_keeps_every_existing_label() {
        let t = paper_tree();
        let grown = t.with_leaf_added(3);
        assert_eq!(grown.len(), t.len() + 1);
        let fresh = t.len();
        assert_eq!(grown.parent(fresh), Some(3));
        assert_eq!(grown.label_of(fresh, 3), 0);
        // The joined leaf sits on the parent's newest channel; all old labels survive.
        assert_eq!(grown.label_of(3, fresh), t.degree(3));
        for v in 0..t.len() {
            for l in 0..t.degree(v) {
                assert_eq!(grown.neighbor(v, l), t.neighbor(v, l), "label ({v},{l}) moved");
            }
        }
    }

    #[test]
    fn leaf_removal_remaps_ids_and_stays_a_tree() {
        let t = paper_tree();
        let leaf = (1..t.len()).find(|&v| t.is_leaf(v)).unwrap();
        let (shrunk, old_of_new) = t.with_leaf_removed(leaf);
        assert_eq!(shrunk.len(), t.len() - 1);
        assert_eq!(old_of_new.len(), shrunk.len());
        assert!(shrunk.is_root(0));
        // Every surviving parent edge is preserved under the remapping.
        for (new, &old) in old_of_new.iter().enumerate() {
            assert_ne!(old, leaf);
            let old_parent = t.parent(old);
            let new_parent = shrunk.parent(new).map(|p| old_of_new[p]);
            assert_eq!(old_parent, new_parent, "parent of old node {old} changed");
        }
        for v in 0..shrunk.len() {
            for l in 0..shrunk.degree(v) {
                let (p, pl) = shrunk.endpoint(v, l);
                assert_eq!(shrunk.endpoint(p, pl), (v, l));
            }
        }
    }

    #[test]
    fn rewire_moves_a_whole_subtree() {
        // Chain 0-1-2-3-4: rewire node 3 (subtree {3,4}) under node 1.
        let t = builders::chain(5);
        let rewired = t.with_edge_rewired(3, 1);
        assert_eq!(rewired.parent(3), Some(1));
        assert_eq!(rewired.parent(4), Some(3));
        assert_eq!(rewired.children(1), &[2, 3]);
        assert_eq!(rewired.len(), t.len());
        assert_eq!(rewired.subtree_size(0), 5);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn rewire_into_own_subtree_is_rejected() {
        let t = builders::chain(5);
        t.with_edge_rewired(1, 3); // 3 is a descendant of 1
    }

    #[test]
    #[should_panic(expected = "non-root")]
    fn root_cannot_leave() {
        let t = builders::chain(3);
        t.with_leaf_removed(0);
    }

    #[test]
    fn in_subtree_is_reflexive_and_follows_ancestry() {
        let t = builders::chain(4);
        assert!(t.in_subtree(3, 0));
        assert!(t.in_subtree(2, 2));
        assert!(!t.in_subtree(1, 2));
    }

    #[test]
    fn single_node_tree() {
        let t = OrientedTree::from_children(vec![vec![]]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.degree(0), 0);
        assert!(t.is_root(0));
        assert!(t.is_leaf(0));
        assert_eq!(t.height(), 0);
    }
}
