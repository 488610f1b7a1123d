//! The network engine: nodes, channels, and step execution.
//!
//! The network is the keeper of the *enabled-set invariant* documented in [`crate::engine`]:
//! every mutation of a channel (delivery, send, injection, or direct surgery through
//! [`Network::channel_mut`]) immediately updates the maintained [`EnabledSet`], so
//! event-driven daemons can read "which guards are enabled" in O(1) instead of rescanning.
//! The same set carries the tick-guard clause: one quiet bit per process, refreshed by the
//! activation that runs the process and cleared wherever a process is handed out mutably or
//! replaced, so a blocked process's tick executes without touching the process at all.

use crate::channel::Channel;
use crate::clocks::LamportClocks;
use crate::engine::{EnabledSet, EnabledShape, EventScheduler};
use crate::metrics::Metrics;
use crate::process::{Context, MessageKind, Process};
use crate::scheduler::Activation;
use crate::slab::ChannelSlab;
use crate::trace::Trace;
use crate::{ChannelLabel, NodeId};
use topology::Topology;

/// Mutable access to one incoming channel, returned by [`Network::channel_mut`].
///
/// Dereferences to [`Channel`]; when the guard is dropped, the enabled set is
/// re-synchronized with the channel's (possibly changed) length, so direct channel surgery
/// by fault injectors and the exhaustive checker cannot break the enabled-set invariant.
pub struct ChannelMut<'a, M> {
    channel: &'a mut Channel<M>,
    enabled: &'a mut EnabledSet,
    clocks: Option<&'a mut LamportClocks>,
    node: NodeId,
    label: ChannelLabel,
    flat: usize,
}

impl<M> std::ops::Deref for ChannelMut<'_, M> {
    type Target = Channel<M>;
    fn deref(&self) -> &Channel<M> {
        self.channel
    }
}

impl<M> std::ops::DerefMut for ChannelMut<'_, M> {
    fn deref_mut(&mut self) -> &mut Channel<M> {
        self.channel
    }
}

impl<M> Drop for ChannelMut<'_, M> {
    fn drop(&mut self) {
        self.enabled.note_len(self.node, self.label, self.channel.len());
        if let Some(clocks) = self.clocks.as_deref_mut() {
            clocks.resync(self.flat, self.channel.len());
        }
    }
}

/// The undo record of one activation, captured by [`Network::execute_undoable`] and applied
/// by [`Network::revert`].
///
/// An activation of process `p` can change at most one channel by *consuming* (the delivered
/// head message of one of `p`'s incoming channels) and finitely many channels by *producing*
/// (one push per message `p` sent, each onto a neighbour's incoming channel).  The record
/// stores exactly those effects: the consumed message itself (so it can be put back at the
/// head) and the ordered list of channels pushed (so the pushes can be popped back off the
/// tails).  Everything else an activation touches — the logical clock, metrics, the trace —
/// is *not* recorded: those are run-time accumulators outside the configuration abstraction,
/// and [`Network::revert`] deliberately leaves them alone.
///
/// The record is reusable: `execute_undoable` clears it before recording, and `revert`
/// drains it, so one `StepUndo` value serves an entire exploration.
#[derive(Debug, Default)]
pub struct StepUndo<M> {
    /// The message popped by a delivery, with the channel it came from.
    delivered: Option<(NodeId, ChannelLabel, M)>,
    /// Channels pushed by the activation, in push order.
    sent: Vec<(NodeId, ChannelLabel)>,
}

impl<M> StepUndo<M> {
    /// An empty record.
    pub fn new() -> Self {
        StepUndo { delivered: None, sent: Vec::new() }
    }

    /// The channels pushed by the recorded activation, in push order (a channel appears once
    /// per message pushed onto it).
    pub fn sent_channels(&self) -> &[(NodeId, ChannelLabel)] {
        &self.sent
    }

    fn clear(&mut self) {
        self.delivered = None;
        self.sent.clear();
    }
}

/// What one activation did to the channels, reported while it executes: the message it
/// consumed and every message it sent.  Together with the activated process's own state —
/// the only process state an activation can change — that is the activation's whole effect
/// on the configuration, so an observer that maintains a function of the configuration
/// incrementally (an undo journal, a token census) needs nothing else.
///
/// [`Network::execute_with`] is monomorphized over the implementor; the no-op `()` compiles
/// to exactly the unobserved step, which is what [`Network::execute`] runs.
pub trait StepEffects<M> {
    /// The activation consumed `msg` from the head of `node`'s incoming channel `label`.
    fn delivered(&mut self, node: NodeId, label: ChannelLabel, msg: &M);

    /// The activation is about to push `msg` onto the tail of `node`'s incoming channel
    /// `label` (called once per message, in send order).
    fn sent(&mut self, node: NodeId, label: ChannelLabel, msg: &M);
}

impl<M> StepEffects<M> for () {
    #[inline]
    fn delivered(&mut self, _node: NodeId, _label: ChannelLabel, _msg: &M) {}

    #[inline]
    fn sent(&mut self, _node: NodeId, _label: ChannelLabel, _msg: &M) {}
}

impl<M: Clone> StepEffects<M> for StepUndo<M> {
    #[inline]
    fn delivered(&mut self, node: NodeId, label: ChannelLabel, msg: &M) {
        self.delivered = Some((node, label, msg.clone()));
    }

    #[inline]
    fn sent(&mut self, node: NodeId, label: ChannelLabel, _msg: &M) {
        self.sent.push((node, label));
    }
}

/// A simulated network: a topology, one process per node, and one FIFO channel per directed
/// link.
///
/// Channels live in a flat struct-of-arrays [`ChannelSlab`] (see [`crate::slab`] for the
/// million-node memory model): `slab.get(v, l)` is the *incoming* channel of node `v` with
/// local label `l`; a message sent by `u` on its channel `i` is pushed onto `slab.get(q, j)`
/// where `(q, j) = slab.endpoint(u, i)` — the precomputed `topo.endpoint(u, i)`.
///
/// Optional Lamport-clock instrumentation ([`crate::clocks`]) hangs off `clocks`: a single
/// null check per hook site when disabled, see [`Network::enable_clocks`].
pub struct Network<P: Process, T: Topology> {
    topo: T,
    nodes: Vec<P>,
    slab: ChannelSlab<P::Msg>,
    enabled: EnabledSet,
    clocks: Option<Box<LamportClocks>>,
    now: u64,
    trace: Trace,
    metrics: Metrics,
    outbox: Vec<(ChannelLabel, P::Msg)>,
    event_buf: Vec<crate::process::Event>,
}

impl<P: Process, T: Topology> Network<P, T> {
    /// Builds a network over `topo` with the processes produced by `make_node(id)`.
    ///
    /// # Panics
    ///
    /// Panics if the topology is empty.
    pub fn new(topo: T, mut make_node: impl FnMut(NodeId) -> P) -> Self {
        let n = topo.len();
        assert!(n > 0, "a network needs at least one process");
        let nodes: Vec<P> = (0..n).map(&mut make_node).collect();
        let slab = ChannelSlab::new(&topo);
        let degrees: Vec<usize> = (0..n).map(|v| topo.degree(v)).collect();
        Network {
            topo,
            nodes,
            slab,
            enabled: EnabledSet::new(&degrees),
            clocks: None,
            now: 0,
            trace: Trace::new(),
            metrics: Metrics::new(n),
            outbox: Vec::new(),
            event_buf: Vec::new(),
        }
    }

    /// The topology the network runs on.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the network has no processes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to the process at `node`.
    pub fn node(&self, node: NodeId) -> &P {
        &self.nodes[node]
    }

    /// Mutable access to the process at `node` (used by fault injection and scenario setup).
    ///
    /// The caller may leave the process in any state, so its quiet-tick bit is cleared: the
    /// node's next activation runs its handlers and re-derives the bit.
    pub fn node_mut(&mut self, node: NodeId) -> &mut P {
        self.enabled.note_tick_quiet(node, false);
        &mut self.nodes[node]
    }

    /// Iterates over all processes.
    pub fn nodes(&self) -> impl Iterator<Item = &P> {
        self.nodes.iter()
    }

    /// The logical clock: number of activations executed so far.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The execution trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the trace (e.g. to clear it after stabilization).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// The metrics recorded so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access to the metrics (e.g. to reset them after stabilization).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Iterates over every in-flight message as `(destination node, incoming label, message)`.
    pub fn iter_messages(&self) -> impl Iterator<Item = (NodeId, ChannelLabel, &P::Msg)> {
        self.slab.iter().flat_map(|(v, l, ch)| ch.iter().map(move |m| (v, l, m)))
    }

    /// Total number of in-flight messages, maintained in O(1) by the enabled set.
    pub fn in_flight(&self) -> usize {
        self.enabled.in_flight() as usize
    }

    /// Read-only access to the maintained enabled set (diagnostics, tests, and the
    /// brute-force consistency proptest).
    pub fn enabled_set(&self) -> &EnabledSet {
        &self.enabled
    }

    /// Number of processes currently known to be blocked — their ticks are stutter steps
    /// ([`Process::tick_is_noop`]), for the paper's protocols requesters waiting for tokens.
    /// Maintained in O(1): it changes only when an activation flips a process's quiet bit.
    /// A process touched through [`Network::node_mut`] or a reset is not counted until its
    /// next activation re-derives its bit.
    pub fn blocked_processes(&self) -> usize {
        self.enabled.quiet_count()
    }

    /// Degree of `node` as the channel slab sees it (equals the topology's degree).
    pub fn degree(&self, node: NodeId) -> usize {
        self.slab.degree(node)
    }

    /// Direct access to one incoming channel (fault injection and tests).
    pub fn channel(&self, node: NodeId, label: ChannelLabel) -> &Channel<P::Msg> {
        self.slab.get(node, label)
    }

    /// Mutable access to one incoming channel (fault injection and tests).
    ///
    /// The returned guard re-synchronizes the enabled set (and, when enabled, the Lamport
    /// stamp queues) on drop, so arbitrary surgery (clear, insert, remove) keeps the
    /// enabled-set invariant.
    pub fn channel_mut(&mut self, node: NodeId, label: ChannelLabel) -> ChannelMut<'_, P::Msg> {
        let flat = self.slab.flat(node, label);
        ChannelMut {
            channel: self.slab.get_mut(node, label),
            enabled: &mut self.enabled,
            clocks: self.clocks.as_deref_mut(),
            node,
            label,
            flat,
        }
    }

    /// The flat slab index of `node`'s incoming channel `label` (see [`crate::slab`]).
    #[inline]
    pub fn flat_index(&self, node: NodeId, label: ChannelLabel) -> usize {
        self.slab.flat(node, label)
    }

    /// Total number of directed channels in the network (2(n−1) on a tree).
    #[inline]
    pub fn num_flat_channels(&self) -> usize {
        self.slab.num_channels()
    }

    /// Enables per-node Lamport-clock instrumentation (see [`crate::clocks`]).  Idempotent;
    /// clocks start at zero and existing in-flight messages get unknown-origin stamps.
    pub fn enable_clocks(&mut self) {
        if self.clocks.is_none() {
            let mut clocks =
                Box::new(LamportClocks::new(self.nodes.len(), self.slab.num_channels()));
            for (v, l, ch) in self.slab.iter() {
                clocks.resync(self.slab.flat(v, l), ch.len());
            }
            self.clocks = Some(clocks);
        }
    }

    /// The Lamport clocks, when instrumentation is enabled.
    pub fn clocks(&self) -> Option<&LamportClocks> {
        self.clocks.as_deref()
    }

    /// Enqueues `msg` as if `from_node` had sent it on its channel `label`; bypasses the
    /// process code.  Used to seed scenarios and by fault injection.
    pub fn inject_from(&mut self, from_node: NodeId, label: ChannelLabel, msg: P::Msg) {
        let (dest, dest_label) = self.slab.endpoint(from_node, label);
        self.metrics.record_send(from_node, msg.kind());
        if let Some(clocks) = self.clocks.as_deref_mut() {
            clocks.on_send(from_node, self.slab.flat(dest, dest_label));
        }
        let channel = self.slab.get_mut(dest, dest_label);
        channel.push(msg);
        let len = channel.len();
        self.enabled.note_len(dest, dest_label, len);
    }

    /// Enqueues `msg` directly onto `node`'s incoming channel `label` (fault injection).
    pub fn inject_into(&mut self, node: NodeId, label: ChannelLabel, msg: P::Msg) {
        if let Some(clocks) = self.clocks.as_deref_mut() {
            clocks.on_inject(self.slab.flat(node, label));
        }
        let channel = self.slab.get_mut(node, label);
        channel.push(msg);
        let len = channel.len();
        self.enabled.note_len(node, label, len);
    }

    /// Sends one copy of `msg` on **every** outgoing channel of `node`, bypassing process
    /// code — the marker broadcast of the Chandy–Lamport snapshot layer.  Returns the number
    /// of copies sent (the node's degree).
    pub fn broadcast_from(&mut self, node: NodeId, msg: P::Msg) -> usize {
        let degree = self.slab.degree(node);
        for label in 0..degree {
            self.inject_from(node, label, msg.clone());
        }
        degree
    }

    /// Consumes the head message of `node`'s incoming channel `label` **without** delivering
    /// it to the process — the marker-consumption step of the snapshot layer.  Counts as one
    /// activation (a delivery) on the logical clock and in the metrics.
    ///
    /// # Panics
    ///
    /// Panics if the channel is empty (the snapshot runner only consumes a peeked head).
    pub fn consume_marker(&mut self, node: NodeId, label: ChannelLabel) -> P::Msg {
        self.now += 1;
        self.metrics.activations += 1;
        self.metrics.deliveries += 1;
        let flat = self.slab.flat(node, label);
        let channel = self.slab.get_mut(node, label);
        let msg = channel.pop().expect("consume_marker requires a non-empty channel");
        let len = channel.len();
        self.enabled.note_len(node, label, len);
        if let Some(clocks) = self.clocks.as_deref_mut() {
            clocks.on_deliver(node, flat);
        }
        msg
    }

    /// Executes one activation chosen by `daemon`, which reads the maintained enabled set
    /// directly.  Returns the activation executed.
    pub fn step_event<S: EventScheduler>(&mut self, daemon: &mut S) -> Activation {
        let activation = daemon.next_event(&EnabledShape::new(&self.enabled));
        self.execute(activation);
        activation
    }

    /// The fused event-driven run loop: `steps` activations chosen by `daemon` against the
    /// maintained enabled set, with `observer` invoked after each.  Monomorphized over the
    /// daemon and the observer so the whole step inlines into one allocation-free loop.
    pub(crate) fn run_event<S: EventScheduler>(
        &mut self,
        daemon: &mut S,
        steps: u64,
        mut observer: impl FnMut(Activation),
    ) {
        for _ in 0..steps {
            let activation = daemon.next_event(&EnabledShape::new(&self.enabled));
            self.execute(activation);
            observer(activation);
        }
    }

    /// Executes a specific activation (exposed so tests can drive precise interleavings).
    pub fn execute(&mut self, activation: Activation) {
        self.execute_with(activation, &mut ());
    }

    /// Executes `activation` exactly like [`Network::execute`] while recording its channel
    /// effects into `undo`, so [`Network::revert`] can put the channels back.
    ///
    /// The recorded effects are the consumed head message (if the activation was a
    /// delivery) and every channel pushed.  The activated process's *local state* is not
    /// recorded — callers that need full-configuration undo (the exhaustive checker's
    /// delta engine) snapshot the one activated node themselves, which is cheap because an
    /// activation mutates no other process.
    pub fn execute_undoable(&mut self, activation: Activation, undo: &mut StepUndo<P::Msg>)
    where
        P::Msg: Clone,
    {
        undo.clear();
        self.execute_with(activation, undo);
    }

    /// Reverts the channel effects recorded by [`Network::execute_undoable`], draining
    /// `undo`: pushed messages are popped back off the channel tails (in reverse push
    /// order) and the consumed message, if any, returns to the head of its channel.  The
    /// enabled set is re-synchronized and the channel counters reverse their original
    /// movement (see [`crate::channel`]), so channels are restored bit-exactly.
    ///
    /// The logical clock, metrics and trace are **not** rewound — they are run-time
    /// accumulators outside the configuration abstraction (the same fields
    /// checker-style `restore` paths leave untouched).
    pub fn revert(&mut self, undo: &mut StepUndo<P::Msg>) {
        for &(node, label) in undo.sent.iter().rev() {
            let channel = self.slab.get_mut(node, label);
            let popped = channel.unpush();
            debug_assert!(popped.is_some(), "recorded push must still be on the channel");
            let len = channel.len();
            self.enabled.note_len(node, label, len);
            if let Some(clocks) = self.clocks.as_deref_mut() {
                clocks.resync(self.slab.flat(node, label), len);
            }
        }
        undo.sent.clear();
        if let Some((node, label, msg)) = undo.delivered.take() {
            let channel = self.slab.get_mut(node, label);
            channel.unpop(msg);
            let len = channel.len();
            self.enabled.note_len(node, label, len);
            if let Some(clocks) = self.clocks.as_deref_mut() {
                clocks.resync(self.slab.flat(node, label), len);
            }
        }
    }

    /// Executes `activation` exactly like [`Network::execute`], reporting the consumed and
    /// the sent messages to `effects` as they happen (see [`StepEffects`]).
    pub fn execute_with<E: StepEffects<P::Msg>>(
        &mut self,
        activation: Activation,
        effects: &mut E,
    ) {
        self.now += 1;
        self.metrics.activations += 1;
        let node = match activation {
            Activation::Deliver { node, channel } => {
                if let Some(msg) = self.slab.get_mut(node, channel).pop() {
                    let len = self.slab.get(node, channel).len();
                    self.enabled.note_len(node, channel, len);
                    self.metrics.deliveries += 1;
                    if let Some(clocks) = self.clocks.as_deref_mut() {
                        clocks.on_deliver(node, self.slab.flat(node, channel));
                    }
                    effects.delivered(node, channel, &msg);
                    self.run_node(node, Some((channel, msg)), effects);
                    return;
                }
                // The scheduler raced an empty channel; treat it as a tick so time still
                // advances and fairness is preserved.
                node
            }
            Activation::Tick { node } => node,
        };
        self.metrics.ticks += 1;
        if let Some(clocks) = self.clocks.as_deref_mut() {
            clocks.on_tick(node);
        }
        if self.enabled.tick_is_quiet(node) {
            // A stutter step (see `crate::engine`, "Tick guards"): the process is not touched.
            if cfg!(debug_assertions) {
                self.assert_tick_is_noop(node);
            }
            return;
        }
        self.run_node(node, None, effects);
    }

    /// The debug oracle of the quiet-tick bit: runs the handler the release build skips and
    /// checks the observable half of the [`Process::tick_is_noop`] contract.
    fn assert_tick_is_noop(&mut self, node: NodeId) {
        let mut ctx = Context {
            node,
            degree: self.slab.degree(node),
            now: self.now,
            outbox: &mut self.outbox,
            events: &mut self.event_buf,
        };
        self.nodes[node].on_tick(&mut ctx);
        assert!(
            self.outbox.is_empty() && self.event_buf.is_empty() && self.nodes[node].tick_is_noop(),
            "process {node} reported tick_is_noop() but its tick sent {} message(s), emitted {} \
             event(s) or changed the hint",
            self.outbox.len(),
            self.event_buf.len(),
        );
    }

    fn run_node<E: StepEffects<P::Msg>>(
        &mut self,
        node: NodeId,
        incoming: Option<(ChannelLabel, P::Msg)>,
        effects: &mut E,
    ) {
        debug_assert!(self.outbox.is_empty() && self.event_buf.is_empty());
        // The CSR slab's degree (two adjacent `u32`s) rather than the topology's, which on an
        // `OrientedTree` reads a `Vec` header and the parent array.
        let degree = self.slab.degree(node);
        let quiet = {
            let mut ctx = Context {
                node,
                degree,
                now: self.now,
                outbox: &mut self.outbox,
                events: &mut self.event_buf,
            };
            let proc = &mut self.nodes[node];
            if let Some((label, msg)) = incoming {
                proc.on_message(label, msg, &mut ctx);
            }
            proc.on_tick(&mut ctx);
            proc.tick_is_noop()
        };
        self.enabled.note_tick_quiet(node, quiet);
        // Flush sends: route each buffered message through the topology.  The scratch
        // buffers are drained in place and handed back, so their capacity is reused and the
        // tick-only steps touch nothing beyond the two emptiness checks.
        if !self.outbox.is_empty() {
            let mut outbox = std::mem::take(&mut self.outbox);
            for (label, msg) in outbox.drain(..) {
                let (dest, dest_label) = self.slab.endpoint(node, label);
                self.metrics.record_send(node, msg.kind());
                if let Some(clocks) = self.clocks.as_deref_mut() {
                    clocks.on_send(node, self.slab.flat(dest, dest_label));
                }
                effects.sent(dest, dest_label, &msg);
                let channel = self.slab.get_mut(dest, dest_label);
                channel.push(msg);
                let len = channel.len();
                self.enabled.note_len(dest, dest_label, len);
            }
            self.outbox = outbox;
        }
        // Flush events into the trace.
        if !self.event_buf.is_empty() {
            let mut events = std::mem::take(&mut self.event_buf);
            for ev in events.drain(..) {
                self.trace.push(self.now, node, ev);
            }
            self.event_buf = events;
        }
    }

    /// Resets the network for a fresh trial **in place**, reusing every allocation: channels
    /// are emptied with their spill capacity retained, the enabled set, clock, trace and
    /// metrics return to their boot values, and `reset_node(v, &mut process)` re-initializes
    /// each process (typically [`crate::Restartable::restart`] plus installing the trial's
    /// freshly seeded driver).
    ///
    /// This is the multi-trial fast path of the experiment harness: after `reset_trial` the
    /// network is observationally identical to a freshly built one, without re-allocating
    /// the channel matrix, enabled-set arrays, or metric vectors.
    pub fn reset_trial(&mut self, mut reset_node: impl FnMut(NodeId, &mut P)) {
        for (v, node) in self.nodes.iter_mut().enumerate() {
            reset_node(v, node);
        }
        self.reset_runtime();
    }

    /// Rebuilds this network over the (churned) topology of `donor`, carrying state over —
    /// the topology-churn primitive of the fault-schedule engine.
    ///
    /// `donor` is a freshly constructed network over the *new* topology; `old_of_new[v]`
    /// names the node of `self` that becomes node `v` of the rebuilt network (`None` for a
    /// freshly joined node).  The carryover rules are chosen so the result is always
    /// structurally consistent, and every deviation from a clean rebuild is a bona-fide
    /// transient fault of the paper's model:
    ///
    /// * a surviving node keeps its process state iff its labelled neighbourhood is
    ///   unchanged — same degree, and every channel label leads to the same surviving
    ///   neighbour.  A node whose incident edges changed (the churn parent, a rewired
    ///   node's old and new parents) is restarted from the donor's fresh process: the
    ///   local-state reset at the locus of churn.  This also guarantees no carried process
    ///   ever references a channel label outside its new degree;
    /// * a channel is carried whole — contents *and* conservation counters — iff both of
    ///   its endpoints survive and the link itself survives (matched by endpoint pair, not
    ///   by label, so links whose labels shifted still carry).  Messages on severed links
    ///   vanish with their channel: the whole-channel loss of a topology fault;
    /// * the logical clock, the trace, and the aggregate metrics counters continue across
    ///   the churn (they are run-time accumulators, not configuration); the per-node send
    ///   counters are remapped onto the new id space via [`Metrics::remap_nodes`].
    ///
    /// The enabled set is rebuilt for the new degree structure and re-synced from the
    /// carried channels, so the CSR layout and every incremental invariant hold by
    /// construction.
    ///
    /// # Panics
    ///
    /// Panics if `old_of_new` does not have one entry per donor node, names an
    /// out-of-range old node, or maps two new ids to the same old node.
    pub fn rebuild_from(&mut self, mut donor: Network<P, T>, old_of_new: &[Option<NodeId>]) {
        let old_n = self.nodes.len();
        let new_n = donor.nodes.len();
        assert_eq!(old_of_new.len(), new_n, "old_of_new must cover every donor node");
        let mut claimed = vec![false; old_n];
        for &ov in old_of_new.iter().flatten() {
            assert!(ov < old_n, "old node {ov} out of range");
            assert!(!claimed[ov], "old node {ov} mapped twice");
            claimed[ov] = true;
        }

        let mut old_nodes: Vec<Option<P>> = self.nodes.drain(..).map(Some).collect();
        // The flat slab drains into a per-node matrix for the claim-by-endpoint walk — this
        // is the cold path of topology churn, not the stepping path.
        let mut old_channels: Vec<Vec<Option<Channel<P::Msg>>>> = self.slab.take_rows();

        let new_topo = donor.topo;
        let mut nodes = donor.nodes;
        let mut channels: Vec<Vec<Option<Channel<P::Msg>>>> = donor.slab.take_rows();
        let old_topo = &self.topo;

        for v in 0..new_n {
            let Some(ov) = old_of_new[v] else { continue };
            let degree = new_topo.degree(v);
            let same_neighbourhood = degree == old_topo.degree(ov)
                && (0..degree).all(|l| {
                    old_of_new[new_topo.endpoint(v, l).0] == Some(old_topo.endpoint(ov, l).0)
                });
            if same_neighbourhood {
                nodes[v] = old_nodes[ov].take().expect("each old node is claimed once");
            }
            // Channels carry independently of the process decision: in-flight messages
            // outlive a local restart, exactly as they outlive a crash.
            for l in 0..degree {
                let Some(old_peer) = old_of_new[new_topo.endpoint(v, l).0] else { continue };
                let survived =
                    (0..old_topo.degree(ov)).find(|&ol| old_topo.endpoint(ov, ol).0 == old_peer);
                if let Some(ol) = survived {
                    channels[v][l] = Some(
                        old_channels[ov][ol].take().expect("each old channel is claimed once"),
                    );
                }
            }
        }

        let slab = ChannelSlab::from_rows(&new_topo, channels);
        let degrees: Vec<usize> = (0..new_n).map(|v| new_topo.degree(v)).collect();
        // A fresh set: ids shifted and the churn locus restarted, so no quiet-tick bit
        // carries over; each process re-derives its bit at its next activation.
        let mut enabled = EnabledSet::new(&degrees);
        for (v, l, channel) in slab.iter() {
            enabled.note_len(v, l, channel.len());
        }

        self.topo = new_topo;
        self.nodes = nodes;
        self.slab = slab;
        self.enabled = enabled;
        if let Some(clocks) = self.clocks.as_deref_mut() {
            // Churn is a transient fault: clock history is coarsened to zero and every
            // carried message gets the unknown-origin stamp, which is sound (see
            // `crate::clocks`).
            clocks.reshape(new_n, self.slab.num_channels());
            for (v, l, ch) in self.slab.iter() {
                clocks.resync(self.slab.flat(v, l), ch.len());
            }
        }
        self.metrics.remap_nodes(old_of_new);
        // Per-step scratch never survives an activation; clear it anyway so a rebuild
        // mid-surgery can't smuggle stale labels across topologies.
        self.outbox.clear();
        self.event_buf.clear();
    }

    /// Zeroes every run-time accumulator in place (channels, enabled set, clock, trace,
    /// metrics), keeping all allocations.  Process state is untouched; the callers have just
    /// replaced it, which the enabled set's reset covers by clearing every quiet-tick bit.
    fn reset_runtime(&mut self) {
        self.slab.reset();
        self.enabled.reset();
        if let Some(clocks) = self.clocks.as_deref_mut() {
            clocks.reset();
        }
        self.now = 0;
        self.trace.clear();
        self.metrics.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Event, MessageKind, Note};
    use crate::scheduler::RoundRobin;
    use topology::builders;

    /// A toy protocol: forwards every received number to channel (from+1) mod Δ, incremented.
    /// The root emits one initial message on its first tick.
    #[derive(Clone)]
    struct Forwarder {
        is_root: bool,
        started: bool,
        received: Vec<u64>,
    }

    #[derive(Clone, Debug)]
    struct Num(u64);
    impl MessageKind for Num {
        fn kind(&self) -> &'static str {
            "num"
        }
    }

    impl Process for Forwarder {
        type Msg = Num;

        fn on_message(&mut self, from: ChannelLabel, msg: Num, ctx: &mut Context<'_, Num>) {
            self.received.push(msg.0);
            ctx.send_next(from, Num(msg.0 + 1));
        }

        fn on_tick(&mut self, ctx: &mut Context<'_, Num>) {
            if self.is_root && !self.started {
                self.started = true;
                ctx.send(0, Num(0));
                ctx.emit(Event::Note(Note::Started));
            }
        }
    }

    fn forwarder_net() -> Network<Forwarder, topology::OrientedTree> {
        let tree = builders::figure1_tree();
        Network::new(tree, |id| Forwarder { is_root: id == 0, started: false, received: vec![] })
    }

    #[test]
    fn message_travels_the_virtual_ring() {
        let mut net = forwarder_net();
        let mut sched = RoundRobin::new();
        // Run enough activations for the token to do several loops of the ring.
        for _ in 0..2000 {
            net.step_event(&mut sched);
        }
        // Every node received the counter at least once; the counter increases strictly, so
        // the token never duplicated or disappeared.
        for v in 0..net.len() {
            assert!(!net.node(v).received.is_empty(), "node {v} never saw the token");
        }
        let all: Vec<u64> = {
            let mut evs: Vec<(u64, u64)> = Vec::new();
            for v in 0..net.len() {
                // can't easily interleave, so just check each node's local sequence increases
                let r = &net.node(v).received;
                for w in r.windows(2) {
                    assert!(w[1] > w[0]);
                }
                evs.push((v as u64, r.len() as u64));
            }
            evs.iter().map(|e| e.1).collect()
        };
        assert!(all.iter().sum::<u64>() > 8);
        assert_eq!(net.trace().events().len(), 1);
        assert!(net.metrics().messages_sent > 8);
        assert_eq!(net.metrics().sent_of_kind("num"), net.metrics().messages_sent);
    }

    #[test]
    fn deliver_on_empty_channel_degrades_to_tick() {
        let mut net = forwarder_net();
        let before = net.now();
        net.execute(Activation::Deliver { node: 3, channel: 0 });
        assert_eq!(net.now(), before + 1);
        assert_eq!(net.metrics().ticks, 1);
        assert_eq!(net.metrics().deliveries, 0);
    }

    #[test]
    fn inject_from_routes_through_topology() {
        let mut net = forwarder_net();
        // Simulate node 1 (a) sending on its channel 0 (towards the root).
        net.inject_from(1, 0, Num(41));
        // The root's channel 0 leads to a=1, so the message sits on root's incoming channel 0.
        assert_eq!(net.channel(0, 0).len(), 1);
        net.execute(Activation::Deliver { node: 0, channel: 0 });
        assert_eq!(net.node(0).received, vec![41]);
    }

    #[test]
    fn execute_undoable_then_revert_restores_all_channels() {
        let mut net = forwarder_net();
        // Seed a message so a delivery (which also triggers a forward-send) is available.
        net.inject_from(1, 0, Num(41));
        let before: Vec<Vec<Vec<u64>>> = (0..net.len())
            .map(|v| {
                (0..net.topology().degree(v))
                    .map(|l| net.channel(v, l).iter().map(|m| m.0).collect())
                    .collect()
            })
            .collect();
        let in_flight = net.in_flight();

        let mut undo = StepUndo::new();
        net.execute_undoable(Activation::Deliver { node: 0, channel: 0 }, &mut undo);
        assert!(undo.delivered.is_some());
        // Two pushes: the forwarded token, plus the root's first-tick initial message
        // (on_tick runs within the same activation).
        assert_eq!(undo.sent_channels().len(), 2);
        assert_ne!(net.in_flight(), 0);

        net.revert(&mut undo);
        let after: Vec<Vec<Vec<u64>>> = (0..net.len())
            .map(|v| {
                (0..net.topology().degree(v))
                    .map(|l| net.channel(v, l).iter().map(|m| m.0).collect())
                    .collect()
            })
            .collect();
        assert_eq!(after, before, "channel contents are restored bit-exactly");
        assert_eq!(net.in_flight(), in_flight, "the enabled set is re-synchronized");
        // The record drained; reverting again is a no-op.
        assert!(undo.delivered.is_none());
        assert!(undo.sent_channels().is_empty());
        net.revert(&mut undo);
        assert_eq!(net.in_flight(), in_flight);
    }

    #[test]
    fn execute_undoable_tick_records_only_sends() {
        let mut net = forwarder_net();
        let mut undo = StepUndo::new();
        // The root's first tick emits the initial message.
        net.execute_undoable(Activation::Tick { node: 0 }, &mut undo);
        assert!(undo.delivered.is_none());
        assert_eq!(undo.sent_channels().len(), 1);
        net.revert(&mut undo);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn reset_trial_matches_a_freshly_built_network() {
        let mut net = forwarder_net();
        let mut sched = RoundRobin::new();
        for _ in 0..500 {
            net.step_event(&mut sched);
        }
        net.reset_trial(|id, node| {
            *node = Forwarder { is_root: id == 0, started: false, received: vec![] };
        });
        assert_eq!(net.now(), 0);
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.metrics().activations, 0);
        assert!(net.trace().events().is_empty());
        for v in 0..net.len() {
            for l in 0..net.topology().degree(v) {
                assert!(net.channel(v, l).is_empty());
                assert_eq!(net.channel(v, l).enqueued(), 0);
            }
        }
        // Re-running from the reset state reproduces a fresh network's execution.
        let mut fresh = forwarder_net();
        let mut s1 = RoundRobin::new();
        let mut s2 = RoundRobin::new();
        for _ in 0..300 {
            assert_eq!(net.step_event(&mut s1), fresh.step_event(&mut s2));
        }
        for v in 0..net.len() {
            assert_eq!(net.node(v).received, fresh.node(v).received);
        }
    }

    fn fresh_forwarder(id: NodeId) -> Forwarder {
        Forwarder { is_root: id == 0, started: false, received: vec![] }
    }

    /// Brute-force re-derivation of the enabled set from the channel matrix.
    fn assert_enabled_consistent(net: &Network<Forwarder, topology::OrientedTree>) {
        let enabled = net.enabled_set();
        let mut in_flight = 0usize;
        for v in 0..net.len() {
            let degree = net.topology().degree(v);
            assert_eq!(enabled.degree(v), degree);
            let nonempty: Vec<usize> =
                (0..degree).filter(|&l| !net.channel(v, l).is_empty()).collect();
            assert_eq!(enabled.deliverable_count(v), nonempty.len());
            for (i, &l) in nonempty.iter().enumerate() {
                assert_eq!(enabled.nth_deliverable(v, i), Some(l));
            }
            in_flight += (0..degree).map(|l| net.channel(v, l).len()).sum::<usize>();
        }
        assert_eq!(net.in_flight(), in_flight);
    }

    #[test]
    fn rebuild_from_carries_survivors_and_restarts_the_churn_locus() {
        // Figure-1 tree: r{a,d}, a{b,c}, d{e,f,g}; ids 0=r, 1=a, 2=b, 3=c, 4=d, 5=e...
        let mut net = forwarder_net();
        let mut sched = RoundRobin::new();
        for _ in 0..50 {
            net.step_event(&mut sched);
        }
        let received_before: Vec<Vec<u64>> =
            (0..net.len()).map(|v| net.node(v).received.clone()).collect();
        let clock = net.now();
        let messages_sent = net.metrics().messages_sent;

        // A fresh leaf joins under node 1 (a): only node 1's neighbourhood changes.
        let grown = net.topology().with_leaf_added(1);
        let donor = Network::new(grown, fresh_forwarder);
        let old_of_new: Vec<Option<NodeId>> = (0..8).map(Some).chain([None]).collect();
        // Park a message on a surviving link and one on the changed node's parent link.
        net.inject_into(2, 0, Num(77));
        let parked = net.channel(2, 0).len();
        net.rebuild_from(donor, &old_of_new);

        assert_eq!(net.len(), 9);
        assert_eq!(net.now(), clock, "the logical clock continues across churn");
        assert_eq!(net.metrics().messages_sent, messages_sent);
        assert_enabled_consistent(&net);
        // Node 1 gained a channel: restarted.  Its old subtree kept their state.
        assert!(net.node(1).received.is_empty(), "churn locus is restarted");
        assert_eq!(net.node(2).received, received_before[2]);
        assert_eq!(net.node(4).received, received_before[4]);
        assert!(net.node(8).received.is_empty(), "joined leaf boots fresh");
        // The surviving link 2<-parent carried contents and counters.
        assert_eq!(net.channel(2, 0).len(), parked);
        let law = |v: NodeId, l: ChannelLabel| {
            let ch = net.channel(v, l);
            assert_eq!(ch.enqueued(), ch.delivered() + ch.lost() + ch.len() as u64);
        };
        for v in 0..net.len() {
            for l in 0..net.topology().degree(v) {
                law(v, l);
            }
        }
        // The rebuilt network keeps running.
        for _ in 0..200 {
            net.step_event(&mut sched);
        }
        assert_enabled_consistent(&net);
    }

    #[test]
    fn rebuild_from_after_leaf_removal_remaps_ids() {
        let mut net = forwarder_net();
        let mut sched = RoundRobin::new();
        for _ in 0..60 {
            net.step_event(&mut sched);
        }
        // Remove leaf 3 (c, child of a): ids 4..8 shift down by one.
        let received_before: Vec<Vec<u64>> =
            (0..net.len()).map(|v| net.node(v).received.clone()).collect();
        let (shrunk, old_of_new) = net.topology().with_leaf_removed(3);
        let map: Vec<Option<NodeId>> = old_of_new.iter().copied().map(Some).collect();
        let donor = Network::new(shrunk, fresh_forwarder);
        net.rebuild_from(donor, &map);

        assert_eq!(net.len(), 7);
        assert_enabled_consistent(&net);
        // Old node 4 (d) is new node 3 with an unchanged neighbourhood: state carried.
        assert_eq!(net.node(3).received, received_before[4]);
        // Node 1 (a) lost a child: restarted.
        assert!(net.node(1).received.is_empty());
        for _ in 0..200 {
            net.step_event(&mut sched);
        }
        assert_enabled_consistent(&net);
    }

    #[test]
    #[should_panic(expected = "mapped twice")]
    fn rebuild_from_rejects_a_non_injective_map() {
        let mut net = forwarder_net();
        let donor = Network::new(builders::figure1_tree(), fresh_forwarder);
        let map: Vec<Option<NodeId>> = vec![Some(0); 8];
        net.rebuild_from(donor, &map);
    }

    #[test]
    fn in_flight_and_channels_agree() {
        let mut net = forwarder_net();
        net.inject_into(4, 0, Num(1));
        net.inject_into(4, 2, Num(2));
        assert_eq!(net.in_flight(), 2);
        assert_eq!(net.channel(4, 2).len(), 1);
        assert_eq!(net.degree(4), net.topology().degree(4));
        assert_eq!(net.iter_messages().count(), 2);
    }
}
