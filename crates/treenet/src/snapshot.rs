//! In-simulation Chandy–Lamport consistent snapshots.
//!
//! The classic algorithm, run *inside* the simulated network on its existing FIFO channels
//! (not by pausing the simulator): an initiator records its own state and broadcasts a
//! marker message on every outgoing channel; every process, on its **first** marker, records
//! its state, closes the channel the marker arrived on (its in-transit record is empty) and
//! broadcasts markers itself; messages arriving on an already-recorded process's still-open
//! channels are recorded as *in transit* on the cut; a channel closes when its marker
//! arrives.  The cut is complete when every process has recorded and every directed channel
//! has closed — on a tree, exactly 2(n−1) markers, one per directed link.
//!
//! Because channels are FIFO and markers travel the same queues as protocol messages, the
//! recorded global state is a **consistent cut**: a configuration the system could have
//! occupied, reachable from the initiation configuration and reaching the completion
//! configuration.  For the paper's protocols the token census — (ℓ, 1, 1) resource, pusher
//! and priority tokens — is invariant across legitimate executions, so the census of every
//! consistent cut must equal the instantaneous census, which is exactly what the
//! `SnapshotMonitor` in the `analysis` crate asserts per cut (and what the snapshot-oracle
//! proptest cross-checks against brute-force instantaneous censuses).
//!
//! # Integration with the engine
//!
//! Marker handling is interposed **outside** the protocol: [`SnapshotRunner::step`] peeks
//! the head of the channel the daemon chose to deliver from, and if it is a marker, consumes
//! it at the network layer ([`crate::Network::consume_marker`]) — the protocol's
//! `on_message` never sees a marker, so protocol behaviour is untouched between marker
//! activations.  When no snapshot is active the runner's step is the plain fused step plus
//! one branch, so the configured interval directly bounds the overhead.
//!
//! [`run_with_snapshots`] runs a fixed number of steps.  The stop rules have no
//! snapshot-only twins: a caller hands [`SnapshotRunner::step`] (or
//! [`SnapshotRunner::step_with`]) to the one streak loop, [`crate::engine::run_sustained`],
//! or to [`crate::engine::run_until_quiescent_with`].

use crate::engine::{EnabledShape, EventScheduler};
use crate::network::{Network, StepEffects};
use crate::process::Process;
use crate::scheduler::Activation;
use crate::{ChannelLabel, NodeId};
use topology::Topology;

/// A message type that can carry Chandy–Lamport markers alongside protocol traffic.
///
/// Markers are ordinary messages on the wire (FIFO with everything else — that is what
/// makes the cut consistent) but are consumed by the snapshot layer, never delivered to
/// protocol code.
pub trait SnapshotMessage: Clone {
    /// Constructs the marker message of snapshot `snap`.
    fn marker(snap: u32) -> Self;

    /// Returns `Some(snap)` when `self` is a marker.
    fn as_marker(&self) -> Option<u32>;
}

/// Which node initiates each snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitiatorPolicy {
    /// The root (node 0) initiates every snapshot.
    Root,
    /// Snapshot i is initiated by node `i mod n` — exercises marker propagation from every
    /// position in the tree.
    Rotate,
}

/// When and from where to snapshot.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotPlan {
    /// Activations between the completion of one snapshot and the initiation of the next
    /// (and before the first).
    pub interval: u64,
    /// Initiator choice per snapshot.
    pub initiator: InitiatorPolicy,
}

/// Receives the pieces of each cut as the runner assembles them.
///
/// The observer sees every recorded node state, every in-transit message, and one
/// completion call per cut.  It owns all protocol-specific interpretation (census counting,
/// safety verdicts); the runner itself is protocol-agnostic.
pub trait SnapshotObserver<P: Process> {
    /// Node `node`'s state was recorded into cut `snap`.
    fn node_state(&mut self, snap: u32, node: NodeId, process: &P);

    /// `msg` was recorded as in transit on `node`'s incoming channel `label` in cut `snap`.
    fn in_transit(&mut self, snap: u32, node: NodeId, label: ChannelLabel, msg: &P::Msg);

    /// Cut `snap` is complete: every node recorded, every channel closed.
    fn cut_complete(&mut self, snap: u32, initiated_at: u64, completed_at: u64);
}

/// Book-keeping of one in-progress cut.
#[derive(Debug)]
struct ActiveCut {
    snap: u32,
    initiated_at: u64,
    /// Per node: has it recorded its state yet?
    recorded: Vec<bool>,
    /// Per flat channel index: is the channel still awaiting its marker?
    open: Vec<bool>,
    /// Channels still awaiting a marker (starts at the total channel count).
    pending_channels: usize,
    /// Nodes still to record.
    pending_nodes: usize,
}

/// Drives a network with periodic Chandy–Lamport snapshots interposed on the fused
/// event-driven path.  See the [module docs](self).
#[derive(Debug)]
pub struct SnapshotRunner {
    plan: SnapshotPlan,
    next_at: u64,
    next_snap: u32,
    active: Option<ActiveCut>,
    cuts_completed: u64,
    markers_sent: u64,
}

impl SnapshotRunner {
    /// A runner that initiates its first snapshot once `net.now()` reaches `plan.interval`.
    ///
    /// # Panics
    ///
    /// Panics if the interval is zero.
    pub fn new(plan: SnapshotPlan) -> Self {
        assert!(plan.interval > 0, "snapshot interval must be positive");
        SnapshotRunner {
            next_at: plan.interval,
            plan,
            next_snap: 0,
            active: None,
            cuts_completed: 0,
            markers_sent: 0,
        }
    }

    /// Number of cuts completed so far.
    pub fn cuts_completed(&self) -> u64 {
        self.cuts_completed
    }

    /// Total marker messages broadcast so far.
    pub fn markers_sent(&self) -> u64 {
        self.markers_sent
    }

    /// True when the next call to [`SnapshotRunner::step`] will initiate a snapshot (used
    /// by the oracle tests to capture the instantaneous pre-initiation census).
    pub fn initiation_due(&self, now: u64) -> bool {
        self.active.is_none() && now >= self.next_at
    }

    /// One activation of the network under `daemon`, with snapshot interposition: initiates
    /// a snapshot when due, consumes markers at the network layer, and records in-transit
    /// messages on open channels.  Exactly one daemon activation is executed per call
    /// (marker deliveries consume the activation, like any delivery).
    pub fn step<P, T, S, O>(&mut self, net: &mut Network<P, T>, daemon: &mut S, observer: &mut O)
    where
        P: Process,
        P::Msg: SnapshotMessage,
        T: Topology,
        S: EventScheduler,
        O: SnapshotObserver<P>,
    {
        self.step_with(net, daemon, observer, &mut ());
    }

    /// [`SnapshotRunner::step`] reporting the executed activation's channel effects to
    /// `effects` ([`Network::execute_with`]) and returning the activation.  Marker traffic —
    /// the broadcasts and the network-layer consumption — is the snapshot layer's own and
    /// is not reported: markers are not protocol messages.
    pub fn step_with<P, T, S, O, E>(
        &mut self,
        net: &mut Network<P, T>,
        daemon: &mut S,
        observer: &mut O,
        effects: &mut E,
    ) -> Activation
    where
        P: Process,
        P::Msg: SnapshotMessage,
        T: Topology,
        S: EventScheduler,
        O: SnapshotObserver<P>,
        E: StepEffects<P::Msg>,
    {
        if self.initiation_due(net.now()) {
            self.initiate(net, observer);
        }
        let activation = daemon.next_event(&EnabledShape::new(net.enabled_set()));
        if self.active.is_some() {
            if let Activation::Deliver { node, channel } = activation {
                let head_marker =
                    net.channel(node, channel).iter().next().and_then(|m| m.as_marker());
                if let Some(snap) = head_marker {
                    net.consume_marker(node, channel);
                    self.on_marker(snap, node, channel, net, observer);
                    return activation;
                }
                // A protocol message delivered on a recorded node's still-open channel is
                // part of the cut's in-transit record (peeked before the delivery consumes
                // it).
                let cut = self.active.as_mut().expect("checked active");
                if cut.recorded[node] && cut.open[net.flat_index(node, channel)] {
                    if let Some(msg) = net.channel(node, channel).iter().next() {
                        observer.in_transit(cut.snap, node, channel, msg);
                    }
                }
            }
        }
        net.execute_with(activation, effects);
        activation
    }

    /// Starts a new cut: record the initiator, broadcast its markers, open every other
    /// channel for in-transit recording.
    fn initiate<P, T, O>(&mut self, net: &mut Network<P, T>, observer: &mut O)
    where
        P: Process,
        P::Msg: SnapshotMessage,
        T: Topology,
        O: SnapshotObserver<P>,
    {
        let n = net.len();
        let snap = self.next_snap;
        self.next_snap = self.next_snap.wrapping_add(1);
        let initiator = match self.plan.initiator {
            InitiatorPolicy::Root => 0,
            InitiatorPolicy::Rotate => (snap as usize) % n,
        };
        let mut cut = ActiveCut {
            snap,
            initiated_at: net.now(),
            recorded: vec![false; n],
            open: vec![true; net.num_flat_channels()],
            pending_channels: net.num_flat_channels(),
            pending_nodes: n,
        };
        observer.node_state(snap, initiator, net.node(initiator));
        cut.recorded[initiator] = true;
        cut.pending_nodes -= 1;
        self.markers_sent += net.broadcast_from(initiator, P::Msg::marker(snap)) as u64;
        self.active = Some(cut);
        // A single-node network has no channels: the cut completes at initiation.
        self.try_complete(net, observer);
    }

    /// Handles a consumed marker of snapshot `snap` on `node`'s incoming channel `label`.
    fn on_marker<P, T, O>(
        &mut self,
        snap: u32,
        node: NodeId,
        label: ChannelLabel,
        net: &mut Network<P, T>,
        observer: &mut O,
    ) where
        P: Process,
        P::Msg: SnapshotMessage,
        T: Topology,
        O: SnapshotObserver<P>,
    {
        let Some(cut) = self.active.as_mut() else { return };
        debug_assert_eq!(cut.snap, snap, "non-overlapping snapshots carry the active id");
        if !cut.recorded[node] {
            // First marker: record the node; the marker's channel closes with an empty
            // in-transit record, the node's other channels stay open.
            observer.node_state(cut.snap, node, net.node(node));
            cut.recorded[node] = true;
            cut.pending_nodes -= 1;
            self.markers_sent += net.broadcast_from(node, P::Msg::marker(cut.snap)) as u64;
        }
        let flat = net.flat_index(node, label);
        let cut = self.active.as_mut().expect("still active");
        if cut.open[flat] {
            cut.open[flat] = false;
            cut.pending_channels -= 1;
        }
        self.try_complete(net, observer);
    }

    fn try_complete<P, T, O>(&mut self, net: &Network<P, T>, observer: &mut O)
    where
        P: Process,
        T: Topology,
        O: SnapshotObserver<P>,
    {
        let done = matches!(&self.active, Some(cut) if cut.pending_nodes == 0 && cut.pending_channels == 0);
        if done {
            let cut = self.active.take().expect("checked");
            observer.cut_complete(cut.snap, cut.initiated_at, net.now());
            self.cuts_completed += 1;
            self.next_at = net.now() + self.plan.interval;
        }
    }
}

/// Runs `steps` activations with snapshots interposed — the snapshot-enabled counterpart of
/// [`crate::engine::run`].
pub fn run_with_snapshots<P, T, S, O>(
    net: &mut Network<P, T>,
    daemon: &mut S,
    steps: u64,
    runner: &mut SnapshotRunner,
    observer: &mut O,
) where
    P: Process,
    P::Msg: SnapshotMessage,
    T: Topology,
    S: EventScheduler,
    O: SnapshotObserver<P>,
{
    for _ in 0..steps {
        runner.step(net, daemon, observer);
    }
}
