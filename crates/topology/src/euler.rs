//! The virtual ring (Euler tour) induced by the DFS retransmission rule.
//!
//! The paper's token-circulation rule is purely local: *"when a process `p` receives a token
//! from channel number `i`, and if that token is retransmitted, it will be sent to its
//! neighbour along channel number `(i + 1) mod Δp`"*, with the convention that the root
//! initiates circulations on channel `0` and every non-root process labels its parent channel
//! `0`.  Following this rule, a token traverses every tree edge exactly twice (once downward,
//! once upward) before returning to the root — the tree "emulates a ring with a designated
//! leader" (Figure 4 of the paper).  This module makes that ring explicit so experiments and
//! invariants can reason about it.

use crate::tree::OrientedTree;
use crate::{ChannelLabel, NodeId, Topology};
use serde::Serialize;

/// One hop of the virtual ring: a token currently *at* `node`, having arrived on channel
/// `in_label`, leaves on channel `out_label` towards the next slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct VirtualRingSlot {
    /// The process hosting this slot.
    pub node: NodeId,
    /// Channel on which the token arrives at `node` (`None` only for the root's initial slot,
    /// where the circulation starts rather than arrives).
    pub in_label: Option<ChannelLabel>,
    /// Channel on which the token leaves `node`.
    pub out_label: ChannelLabel,
}

/// The virtual ring of an oriented tree: the cyclic sequence of [`VirtualRingSlot`]s visited
/// by a token obeying the DFS retransmission rule, starting from the root's channel `0`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct VirtualRing {
    slots: Vec<VirtualRingSlot>,
    n: usize,
}

impl VirtualRing {
    /// Computes the virtual ring of `tree` by simulating one full circulation of a token.
    ///
    /// For a single-node tree the ring is empty (the root never emits the token).
    pub fn of(tree: &OrientedTree) -> Self {
        let n = tree.len();
        if n == 1 {
            return VirtualRing { slots: Vec::new(), n };
        }
        let root = tree.root();
        let mut slots = Vec::with_capacity(2 * (n - 1));
        // The root starts the circulation on channel 0.
        slots.push(VirtualRingSlot { node: root, in_label: None, out_label: 0 });
        let (mut node, mut in_label) = tree.endpoint(root, 0);
        loop {
            let out_label = (in_label + 1) % tree.degree(node);
            if node == root && out_label == 0 {
                // The token is back at the root and about to start a new circulation: the
                // previous circulation is complete.
                break;
            }
            slots.push(VirtualRingSlot { node, in_label: Some(in_label), out_label });
            let (next, next_in) = tree.endpoint(node, out_label);
            node = next;
            in_label = next_in;
            if node == root && next_in == tree.degree(root) - 1 {
                // Arrived back at the root on its last channel: the circulation ends here; the
                // root's re-emission on channel 0 belongs to the *next* circulation.
                break;
            }
        }
        VirtualRing { slots, n }
    }

    /// The slots of one full circulation, in order, starting at the root.
    pub fn slots(&self) -> &[VirtualRingSlot] {
        &self.slots
    }

    /// Number of directed edge traversals per circulation: `2(n-1)` for `n > 1`.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True for the degenerate single-node ring.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Sequence of nodes visited in one circulation (a node of degree `d` appears `d` times,
    /// except the root which appears `Δr` times counting the starting slot).
    pub fn node_sequence(&self) -> Vec<NodeId> {
        self.slots.iter().map(|s| s.node).collect()
    }

    /// Number of times `node` is visited per circulation.
    pub fn visits(&self, node: NodeId) -> usize {
        self.slots.iter().filter(|s| s.node == node).count()
    }

    /// First-visit (DFS preorder) order of the nodes along the ring.
    pub fn first_visit_order(&self) -> Vec<NodeId> {
        let mut seen = vec![false; self.n];
        let mut order = Vec::with_capacity(self.n);
        for s in &self.slots {
            if !seen[s.node] {
                seen[s.node] = true;
                order.push(s.node);
            }
        }
        order
    }

    /// Ring distance (number of hops along the virtual ring) from the slot where `from` is
    /// first visited to the slot where `to` is first visited, walking forward.
    ///
    /// Returns `None` if either node never appears (single-node tree).
    pub fn ring_distance(&self, from: NodeId, to: NodeId) -> Option<usize> {
        let len = self.slots.len();
        if len == 0 {
            return None;
        }
        let fi = self.slots.iter().position(|s| s.node == from)?;
        let ti = self.slots.iter().position(|s| s.node == to)?;
        Some((ti + len - fi) % len)
    }
}

/// The worst-case waiting-time bound of Theorem 2: `ℓ (2n - 3)²`.
///
/// Defined for `n >= 2`; for `n < 2` there is no contention and the bound is `0`.
pub fn theorem2_waiting_bound(l: usize, n: usize) -> u64 {
    if n < 2 {
        return 0;
    }
    let ring = 2 * n as u64 - 3;
    l as u64 * ring * ring
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn ring_length_is_2n_minus_2() {
        for tree in [
            builders::chain(2),
            builders::chain(9),
            builders::star(6),
            builders::binary(15),
            builders::figure1_tree(),
            builders::random_tree(33, 5),
        ] {
            let ring = VirtualRing::of(&tree);
            assert_eq!(ring.len(), 2 * (tree.len() - 1));
        }
    }

    #[test]
    fn single_node_ring_is_empty() {
        let ring = VirtualRing::of(&builders::chain(1));
        assert!(ring.is_empty());
        assert_eq!(ring.len(), 0);
    }

    #[test]
    fn figure4_virtual_ring_sequence() {
        // Figure 4 of the paper: r a b a c a r d e d f d g d (then back to r).
        let tree = builders::figure1_tree();
        let ring = VirtualRing::of(&tree);
        let name = |c: &str| builders::figure1_node(c);
        let expected: Vec<NodeId> =
            ["r", "a", "b", "a", "c", "a", "r", "d", "e", "d", "f", "d", "g", "d"]
                .iter()
                .map(|c| name(c))
                .collect();
        assert_eq!(ring.node_sequence(), expected);
    }

    #[test]
    fn first_visit_order_is_dfs_preorder() {
        for seed in 0..8 {
            let tree = builders::random_tree(20, seed);
            let ring = VirtualRing::of(&tree);
            assert_eq!(ring.first_visit_order(), tree.dfs_preorder());
        }
    }

    #[test]
    fn each_node_visited_degree_times() {
        let tree = builders::figure1_tree();
        let ring = VirtualRing::of(&tree);
        for v in 0..tree.len() {
            assert_eq!(ring.visits(v), tree.degree(v), "node {v}");
        }
    }

    #[test]
    fn ring_distance_forward() {
        let tree = builders::figure1_tree();
        let ring = VirtualRing::of(&tree);
        let r = builders::figure1_node("r");
        let d = builders::figure1_node("d");
        assert_eq!(ring.ring_distance(r, d), Some(7));
        assert_eq!(ring.ring_distance(r, r), Some(0));
        // Walking from d back to r wraps around the ring.
        let back = ring.ring_distance(d, r).unwrap();
        assert_eq!(back, ring.len() - 7);
    }

    #[test]
    fn theorem2_bound_values() {
        assert_eq!(theorem2_waiting_bound(1, 2), 1);
        assert_eq!(theorem2_waiting_bound(5, 8), 5 * 13 * 13);
        assert_eq!(theorem2_waiting_bound(3, 1), 0);
    }

    #[test]
    fn chain_ring_walks_down_and_back() {
        let tree = builders::chain(4);
        let ring = VirtualRing::of(&tree);
        assert_eq!(ring.node_sequence(), vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn star_ring_alternates_with_root() {
        let tree = builders::star(4);
        let ring = VirtualRing::of(&tree);
        assert_eq!(ring.node_sequence(), vec![0, 1, 0, 2, 0, 3]);
    }
}
