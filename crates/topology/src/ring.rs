//! Auxiliary topologies used by the baseline protocols: oriented rings and complete graphs.

use crate::{ChannelLabel, NodeId, Topology};
use serde::Serialize;

/// An oriented (unidirectional) ring of `n` processes with a distinguished root (node `0`).
///
/// This is the topology of the prior self-stabilizing k-out-of-ℓ exclusion protocols the
/// paper cites as related work (Datta–Hadid–Villain).  Every process has a single channel,
/// label `0`, on which it *receives* from its predecessor and *sends* to its successor:
/// sending on channel `0` from node `i` delivers into node `(i + 1) mod n`'s channel `0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct Ring {
    n: usize,
}

impl Ring {
    /// Creates a ring of `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a ring needs at least one node");
        Ring { n }
    }

    /// Successor of `node` in the orientation of the ring.
    pub fn successor(&self, node: NodeId) -> NodeId {
        (node + 1) % self.n
    }

    /// Predecessor of `node` in the orientation of the ring.
    pub fn predecessor(&self, node: NodeId) -> NodeId {
        (node + self.n - 1) % self.n
    }
}

impl Topology for Ring {
    fn len(&self) -> usize {
        self.n
    }

    fn degree(&self, _node: NodeId) -> usize {
        if self.n == 1 {
            // A single-node ring sends to itself on its only channel.
            1
        } else {
            1
        }
    }

    fn endpoint(&self, node: NodeId, label: ChannelLabel) -> (NodeId, ChannelLabel) {
        assert_eq!(label, 0, "ring nodes only have channel 0");
        (self.successor(node), 0)
    }
}

/// A complete graph on `n` processes, used by the permission-based baseline.
///
/// Node `p` labels its channel to node `q` with `q` if `q < p` and `q - 1` if `q > p`
/// (i.e. the labels `0..n-1` enumerate the other nodes in increasing id order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct Complete {
    n: usize,
}

impl Complete {
    /// Creates a complete graph on `n >= 1` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a complete graph needs at least one node");
        Complete { n }
    }

    /// The node reached from `node` through its channel `label`.
    pub fn peer(&self, node: NodeId, label: ChannelLabel) -> NodeId {
        assert!(label < self.n - 1, "label {label} out of range");
        if label < node {
            label
        } else {
            label + 1
        }
    }

    /// The label under which `node` knows `peer`.
    ///
    /// # Panics
    ///
    /// Panics if `peer == node`.
    pub fn label_of(&self, node: NodeId, peer: NodeId) -> ChannelLabel {
        assert_ne!(node, peer, "a node has no channel to itself");
        if peer < node {
            peer
        } else {
            peer - 1
        }
    }
}

impl Topology for Complete {
    fn len(&self) -> usize {
        self.n
    }

    fn degree(&self, _node: NodeId) -> usize {
        self.n - 1
    }

    fn endpoint(&self, node: NodeId, label: ChannelLabel) -> (NodeId, ChannelLabel) {
        let peer = self.peer(node, label);
        (peer, self.label_of(peer, node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_successor_wraps() {
        let r = Ring::new(5);
        assert_eq!(r.successor(4), 0);
        assert_eq!(r.predecessor(0), 4);
        assert_eq!(r.endpoint(3, 0), (4, 0));
        assert_eq!(r.endpoint(4, 0), (0, 0));
    }

    #[test]
    fn ring_degree_is_one() {
        let r = Ring::new(7);
        for v in 0..7 {
            assert_eq!(r.degree(v), 1);
        }
        assert_eq!(r.directed_channels(), 7);
    }

    #[test]
    fn single_node_ring_self_loop() {
        let r = Ring::new(1);
        assert_eq!(r.endpoint(0, 0), (0, 0));
    }

    #[test]
    #[should_panic(expected = "only have channel 0")]
    fn ring_rejects_other_labels() {
        Ring::new(3).endpoint(0, 1);
    }

    #[test]
    fn complete_labels_are_consistent() {
        let c = Complete::new(6);
        for v in 0..6 {
            assert_eq!(c.degree(v), 5);
            for l in 0..5 {
                let (p, pl) = c.endpoint(v, l);
                assert_ne!(p, v);
                let (back, back_l) = c.endpoint(p, pl);
                assert_eq!(back, v);
                assert_eq!(back_l, l);
            }
        }
    }

    #[test]
    fn complete_peer_enumeration() {
        let c = Complete::new(4);
        assert_eq!(c.peer(2, 0), 0);
        assert_eq!(c.peer(2, 1), 1);
        assert_eq!(c.peer(2, 2), 3);
        assert_eq!(c.label_of(2, 3), 2);
        assert_eq!(c.label_of(2, 0), 0);
    }
}
