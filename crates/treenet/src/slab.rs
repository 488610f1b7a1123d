//! Flat struct-of-arrays channel storage: the million-node layout of [`crate::Network`].
//!
//! The original network kept its channels as `Vec<Vec<Channel<M>>>` — one heap allocation
//! *per node* plus a pointer indirection on every channel access.  At n = 10^5–10^6 nodes
//! that layout costs a million tiny allocations, scatters the channels of neighbouring nodes
//! across the heap, and makes the per-step endpoint lookup chase two pointers before it
//! touches a message.  [`ChannelSlab`] replaces it with the same CSR (compressed sparse row)
//! scheme the [`crate::engine::EnabledSet`] already uses:
//!
//! * `offsets[v]..offsets[v+1]` delimits the flat channel range of node `v` — a single
//!   allocation holds every channel in node order, so a node's incident channels (and its
//!   tree neighbours', for breadth-first ids) are cache-adjacent;
//! * `endpoints[flat(u, i)]` precomputes `topology.endpoint(u, i)` — the routing hop of every
//!   send becomes one array read instead of a topology method call on the hot path.
//!
//! The slab stores **incoming** channels (`get(v, l)` is the incoming channel of `v` with
//! local label `l`, exactly like the old matrix), while the endpoint table is indexed by the
//! **sender's** flat coordinate: a message sent by `u` on its channel `i` lands on
//! `get(q, j)` where `(q, j) = endpoints[flat(u, i)]`.
//!
//! # Memory model
//!
//! For a tree of n nodes there are exactly 2(n−1) directed links, so the slab holds 2(n−1)
//! channels, n+1 offsets and 2(n−1) endpoint pairs in three flat vectors — O(n) allocations
//! total (three, plus any spill deques individual channels grow), independent of n.  With the
//! inline channel ring of [`crate::channel::INLINE_CAPACITY`] messages, a million-node
//! network allocates its entire steady-state message storage up front and touches no
//! allocator during stepping.

use crate::channel::Channel;
use crate::{ChannelLabel, NodeId};
use topology::Topology;

/// CSR-flat storage of every channel in the network plus the precomputed endpoint table.
///
/// See the [module docs](self) for the layout.
#[derive(Clone, Debug)]
pub struct ChannelSlab<M> {
    /// CSR offsets: channels of node `v` occupy flat indices `offsets[v]..offsets[v+1]`.
    offsets: Vec<u32>,
    /// Every channel of the network, flat, in (node, label) order.
    channels: Vec<Channel<M>>,
    /// `endpoints[flat(u, i)] = (q, j)`: the destination coordinate of a send by `u` on `i`.
    endpoints: Vec<(u32, u32)>,
}

impl<M> ChannelSlab<M> {
    /// Builds the slab for `topo`, with every channel empty and every endpoint precomputed.
    pub fn new<T: Topology>(topo: &T) -> Self {
        let n = topo.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0u32;
        offsets.push(0);
        for v in 0..n {
            total += topo.degree(v) as u32;
            offsets.push(total);
        }
        let mut channels = Vec::with_capacity(total as usize);
        let mut endpoints = Vec::with_capacity(total as usize);
        for v in 0..n {
            for l in 0..topo.degree(v) {
                channels.push(Channel::new());
                let (q, j) = topo.endpoint(v, l);
                endpoints.push((q as u32, j as u32));
            }
        }
        ChannelSlab { offsets, channels, endpoints }
    }

    /// Number of nodes covered.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of channels in the slab (2(n−1) on a tree).
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Degree of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        (self.offsets[node + 1] - self.offsets[node]) as usize
    }

    /// The flat index of `node`'s channel `label`.
    #[inline]
    pub fn flat(&self, node: NodeId, label: ChannelLabel) -> usize {
        debug_assert!(label < self.degree(node));
        self.offsets[node] as usize + label
    }

    /// The incoming channel of `node` with local label `label`.
    #[inline]
    pub fn get(&self, node: NodeId, label: ChannelLabel) -> &Channel<M> {
        &self.channels[self.flat(node, label)]
    }

    /// Mutable access to the incoming channel of `node` with local label `label`.
    #[inline]
    pub fn get_mut(&mut self, node: NodeId, label: ChannelLabel) -> &mut Channel<M> {
        let flat = self.flat(node, label);
        &mut self.channels[flat]
    }

    /// The precomputed destination `(node, label)` of a send by `node` on `label`.
    #[inline]
    pub fn endpoint(&self, node: NodeId, label: ChannelLabel) -> (NodeId, ChannelLabel) {
        let (q, j) = self.endpoints[self.flat(node, label)];
        (q as NodeId, j as ChannelLabel)
    }

    /// Iterates every channel as `(destination node, incoming label, &channel)`, in flat
    /// (node-major) order with an O(1) per-channel cursor.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, ChannelLabel, &Channel<M>)> {
        (0..self.num_nodes())
            .flat_map(move |v| self.node_channels(v).map(move |(l, ch)| (v, l, ch)))
    }

    /// Iterates the channels of one node as `(label, &channel)`.
    pub fn node_channels(&self, node: NodeId) -> impl Iterator<Item = (ChannelLabel, &Channel<M>)> {
        let base = self.offsets[node] as usize;
        self.channels[base..self.offsets[node + 1] as usize].iter().enumerate()
    }

    /// Resets every channel in place, retaining all allocations
    /// (the [`crate::Network::reset_trial`] path).
    pub fn reset(&mut self) {
        for channel in &mut self.channels {
            channel.reset();
        }
    }

    /// Drains the slab into a per-node `Vec<Vec<Option<Channel>>>` matrix — the cold-path
    /// representation used by topology churn ([`crate::Network::rebuild_from`]), where
    /// channels are claimed one by one across differently-shaped id spaces.
    pub(crate) fn take_rows(&mut self) -> Vec<Vec<Option<Channel<M>>>> {
        let mut rows = Vec::with_capacity(self.num_nodes());
        let mut drained = self.channels.drain(..);
        for v in 0..self.offsets.len() - 1 {
            let degree = (self.offsets[v + 1] - self.offsets[v]) as usize;
            rows.push((0..degree).map(|_| drained.next().map(Some).expect("CSR covers")).collect());
        }
        rows
    }

    /// Rebuilds the slab over `topo` from a (fully populated) per-node channel matrix.
    pub(crate) fn from_rows<T: Topology>(topo: &T, rows: Vec<Vec<Option<Channel<M>>>>) -> Self {
        let mut slab = ChannelSlab::new(topo);
        let mut flat = 0;
        for row in rows {
            for channel in row {
                slab.channels[flat] = channel.expect("every slot of the rebuilt matrix is filled");
                flat += 1;
            }
        }
        slab
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::builders;

    #[test]
    fn slab_mirrors_the_topology_shape() {
        let tree = builders::figure1_tree();
        let slab: ChannelSlab<u32> = ChannelSlab::new(&tree);
        assert_eq!(slab.num_nodes(), tree.len());
        let expected: usize = (0..tree.len()).map(|v| tree.degree(v)).sum();
        assert_eq!(slab.num_channels(), expected);
        for v in 0..tree.len() {
            assert_eq!(slab.degree(v), tree.degree(v));
            for l in 0..tree.degree(v) {
                assert_eq!(slab.endpoint(v, l), tree.endpoint(v, l), "endpoint table at ({v},{l})");
            }
        }
    }

    #[test]
    fn flat_indices_are_dense_and_iter_recovers_coordinates() {
        let tree = builders::binary(15);
        let mut slab: ChannelSlab<u32> = ChannelSlab::new(&tree);
        let mut seen = vec![false; slab.num_channels()];
        for v in 0..tree.len() {
            for l in 0..tree.degree(v) {
                let flat = slab.flat(v, l);
                assert!(!seen[flat], "flat index {flat} reused");
                seen[flat] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        slab.get_mut(3, 0).push(7);
        let found: Vec<(NodeId, ChannelLabel, usize)> = slab
            .iter()
            .filter(|(_, _, ch)| !ch.is_empty())
            .map(|(v, l, ch)| (v, l, ch.len()))
            .collect();
        assert_eq!(found, vec![(3, 0, 1)]);
    }

    #[test]
    fn rows_round_trip_preserves_contents() {
        let tree = builders::figure1_tree();
        let mut slab: ChannelSlab<u32> = ChannelSlab::new(&tree);
        slab.get_mut(4, 1).push(11);
        slab.get_mut(0, 0).push(22);
        let rows = slab.take_rows();
        let rebuilt = ChannelSlab::from_rows(&tree, rows);
        assert_eq!(rebuilt.get(4, 1).iter().copied().collect::<Vec<_>>(), vec![11]);
        assert_eq!(rebuilt.get(0, 0).iter().copied().collect::<Vec<_>>(), vec![22]);
        assert_eq!(rebuilt.num_channels(), slab_num(&tree));
    }

    fn slab_num(tree: &topology::OrientedTree) -> usize {
        (0..tree.len()).map(|v| tree.degree(v)).sum()
    }
}
