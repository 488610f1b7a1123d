//! Breadth-first exploration of the reachable configuration space.
//!
//! [`Explorer`] starts from the current configuration of a live [`Network`], and repeatedly:
//! restores a frontier configuration into the network, executes **one** activation (every
//! possible message delivery and every process tick is tried in turn), captures the successor
//! configuration, and checks the registered [`Property`]s on every configuration seen for the
//! first time.  Exploration is breadth-first, so any counterexample trace it reports is a
//! shortest one (in number of activations).
//!
//! # The delta successor engine
//!
//! Configurations never flow through the hot loop as [`Configuration`] values.  Each visited
//! configuration is held exactly once, in packed form, by a [`StateArena`]
//! (see [`crate::snapshot`]) and addressed by a dense [`StateId`].  The engine
//! ([`Explorer::run`]) additionally eliminates the per-transition full-state traffic, and
//! most of the per-transition protocol code:
//!
//! * the parent configuration is **mapped once per state** by a skip-only parse
//!   ([`crate::snapshot::map_packed`]: every segment's byte span and every channel's message
//!   count, no decoding);
//! * an activation of process `p` reads only `p`'s variables and the one message it
//!   consumes, and writes only `p`'s variables, that channel's head and the tails of the
//!   channels `p` sends on (the paper's message-passing model).  Two activations of
//!   different processes therefore **commute**, and most successors are read off the graph
//!   built so far: when state `s` was first reached from `p` by `t1`, and `t2` (another
//!   process's) is enabled at `p` with a successor `q` expanded before `s`, then
//!   `s·t2 = q·t1` — the target of `q`'s `t1`-transition.  Such a **diamond** names an
//!   already-interned successor with no memo lookup, no splice, no hash and no arena probe:
//!   1 728 697 of the benchmark's star7 instance's 2 193 196 transitions, and 655 187 of
//!   the Figure-3 instance's 1 084 273.  Every run keeps the transitions of the states it
//!   has expanded in one table of 8-byte records (activation slot with the
//!   critical-section entry flag in its top bit, target id), sliced per state id; a run
//!   that records the graph hands that table to the [`StateGraph`], any other run drops it;
//! * every other transition's **local effect** — `p`'s new node segment, whether `p`
//!   entered its critical section, the messages appended per pushed channel — is a
//!   function of (process, activation, `p`'s node segment, head message bytes), and a
//!   per-run **local-transition memo** computes it once per distinct input: 3 824 inputs
//!   over both benchmark instances;
//! * on a **hit** the successor's dirty segments are built straight from the parent's bytes
//!   and the recorded effect; no protocol code runs and the network is not touched.  A quiet
//!   tick (a blocked requester's) is a hit with an empty effect, a self-loop;
//! * on a **miss** the parent is restored into the network — at most once per state, and
//!   only if some activation misses — and the activation executes **in place** with an undo
//!   log ([`treenet::Network::execute_undoable`]); its effect is recorded, and the undo log
//!   **reverts** the network to the parent for the next sibling;
//! * the successor's packed bytes are produced by **patching only the dirty segments** of
//!   the parent's bytes, and its hash by re-mixing only those segments'
//!   [`crate::snapshot::segment_term`]s (computed once per state, and only when some
//!   successor is spliced) — a transition that changed nothing is a self-loop and skips
//!   interning entirely;
//! * per-state bookkeeping (8-byte parent links of parent id and activation slot, the
//!   transition table's starts) lives in flat vectors indexed by state id, shared by the
//!   report and the recorded [`StateGraph`]; ids are assigned in BFS order, so the queue is
//!   an id range and each depth one id range, stored as its first id; slots are decoded
//!   back to activations only at the edges of the engine — traces, [`StateGraph::edges`];
//! * **no admitted state is decoded**.  The property checks read a 32-byte
//!   `properties::Tally` (token census, units in use, processes over `k`, messages
//!   in flight) that rides in the BFS queue: a successor's tally is its parent's plus a
//!   change the memo records once per entry, at its miss.  The recorded graph's per-state
//!   facts (starving processes, non-empty channels) are the parent's, patched by the
//!   transition's activated process and touched channels.  Only the initial state, a state
//!   whose tally fails a property (to word the violation) and a quiescent state with a
//!   blocked requester (to name them) decode — every quiescent state when no graph is
//!   recorded, since then nothing else says who starves; debug builds also decode every
//!   admitted state and assert that the tally and the facts match.
//!
//! The memo and the diamonds are sound exactly when the [`CheckableNode`] contract holds —
//! equal captures behave identically — so debug builds (every `cargo test`) derive every
//! diamond's successor through the memo and execute every memo hit as well, and panic,
//! naming the process and the activation, when a derived successor or effect differs.
//! Release builds take both shortcuts unchecked.
//!
//! The pre-delta sequential engine — restore, execute, full capture, full hash, per
//! transition, no memo — is retained verbatim as [`Explorer::run_interned`]: it is the
//! executable oracle the delta-parity test suite checks the delta engine against (identical
//! reachable sets, frontier sizes per level, violation and deadlock reports).
//!
//! The exploration is exhaustive with respect to scheduling: every interleaving the paper's
//! asynchronous model allows is covered, because at each configuration *every* enabled
//! activation is expanded.  It is bounded by [`Limits`]; if a limit is hit the report's
//! `truncated` flag is set and absence of violations is only meaningful up to that bound.

use crate::properties::{Property, Tally};
use crate::snapshot::{capture_packed, restore_packed, CheckableNode, Configuration, NodeState};
use crate::snapshot::{
    encode_node_segment, map_packed, message_len, read_head, segment_term,
    unpack_configuration_into, write_message, write_varint, SegmentMap,
};
use crate::snapshot::{InternOutcome, StateArena, StateId};
use klex_core::legitimacy::NodeShare;
use klex_core::KlInspect;
use std::collections::VecDeque;
use topology::Topology;
use treenet::{Activation, Network, NodeId, StepUndo};

/// Exploration bounds.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum number of distinct configurations to visit.
    pub max_configurations: usize,
    /// Maximum exploration depth (number of activations from the initial configuration).
    pub max_depth: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_configurations: 100_000, max_depth: usize::MAX }
    }
}

/// A property violation, with the shortest activation sequence that reaches it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Name of the violated property.
    pub property: String,
    /// Human-readable description of what went wrong.
    pub detail: String,
    /// Depth (number of activations) of the violating configuration.
    pub depth: usize,
    /// The activation sequence leading from the initial configuration to the violation.
    pub trace: Vec<Activation>,
    /// The violating configuration itself.
    pub config: Configuration,
}

/// A reachable configuration in which requesters are blocked forever: no message is in flight
/// and no process activation changes the configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockWitness {
    /// Processes whose requests can never be satisfied from this configuration.
    pub blocked: Vec<NodeId>,
    /// Depth of the deadlocked configuration.
    pub depth: usize,
    /// The activation sequence leading to it.
    pub trace: Vec<Activation>,
    /// The deadlocked configuration.
    pub config: Configuration,
}

/// One outgoing transition of the explored state graph, as [`StateGraph::edges`] decodes it
/// from the 8-byte record the graph stores.
///
/// Only the activated process runs in a transition, so the only process that can enter its
/// critical section is `action.node()`; one flag records it (see [`Edge::cs_entry`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// The activation labelling the transition.
    pub action: Activation,
    /// Id of the successor configuration.
    pub target: StateId,
    /// True when the activated process entered its critical section during this transition.
    pub enters_cs: bool,
}

impl Edge {
    /// The process that entered its critical section during this transition, if any.
    pub fn cs_entry(&self) -> Option<NodeId> {
        self.enters_cs.then(|| self.action.node())
    }
}

/// The top bit of [`Transition::slot`]: set when the activated process entered its critical
/// section.  Activation slots (see [`Slots`]) stay below it.
const CS_ENTRY: u32 = 1 << 31;

/// One stored transition: 8 bytes.  The engine's table and the recorded [`StateGraph`] hold
/// every transition in this form; [`StateGraph::edges`] decodes it into an [`Edge`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Transition {
    /// The activation's slot, with [`CS_ENTRY`] or-ed in when its process entered its
    /// critical section.
    slot: u32,
    /// Id of the successor configuration.
    pub(crate) target: StateId,
}

impl Transition {
    fn new(slot: u32, target: StateId, enters_cs: bool) -> Self {
        debug_assert!(slot < CS_ENTRY, "slot {slot} collides with the critical-section flag");
        Transition { slot: if enters_cs { slot | CS_ENTRY } else { slot }, target }
    }

    /// The activation slot, without the critical-section flag.
    fn slot(self) -> u32 {
        self.slot & !CS_ENTRY
    }

    fn enters_cs(self) -> bool {
        self.slot & CS_ENTRY != 0
    }
}

/// A BFS parent link: the parent's id and the slot of the activation reaching the state.
/// 8 bytes; [`Engine::trace_to`] decodes the slots.
type ParentLink = (StateId, u32);

/// `len` as a start offset of a per-state CSR table.
fn start_offset(len: usize) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| {
        panic!("{len} stored transitions: a start offset does not fit its 32-bit field")
    })
}

/// The explored fragment of the configuration graph (kept only when
/// [`Explorer::record_graph`] is enabled); used by the starvation-cycle analysis.
///
/// States are stored packed in a [`StateArena`].  Transitions are the explorer's own table,
/// handed over when the run ends: one 8-byte record per transition (activation slot with the
/// critical-section entry flag, target id) in one flat vector sliced per state id (CSR
/// layout), which is possible because BFS expands states in id order.  [`StateGraph::edges`]
/// decodes the slots into [`Edge`]s through the graph's activation numbering.  Next to each
/// state the graph keeps the facts the cycle analyses and [`GraphSummary`] read — which
/// processes are unsatisfied requesters, which channels hold a message — recorded when the
/// state was admitted: the delta explorer patches its parent's facts with the transition's
/// recorded change, the interned oracle reads them off its decode, and no analysis decodes
/// a state again.
#[derive(Clone, Debug, Default)]
pub struct StateGraph {
    arena: StateArena,
    transitions: Vec<Transition>,
    /// `starts[id]..starts[id + 1]` delimits the transitions of `id`; has `len + 1` entries
    /// (empty for the empty graph).
    starts: Vec<u32>,
    /// The activation numbering the slots refer to, which also numbers the channels.
    slots: Slots,
    facts: StateFacts,
}

/// Per-state facts of a recorded graph, appended in id order as states are admitted.  Bit
/// sets are `u64` words, a fixed number of words per state.
#[derive(Clone, Debug, Default)]
struct StateFacts {
    /// Words per state in `starving`: `⌈n / 64⌉`.
    node_words: usize,
    /// Words per state in `chan_nonempty`: `⌈channels / 64⌉`.
    chan_words: usize,
    /// Bit `v` of a state's words: process `v` is an unsatisfied requester
    /// (`State = Req ∧ |RSet| < Need`).
    starving: Vec<u64>,
    /// Bit `c` of a state's words: flat channel `c` (see [`Slots`]) holds at least one
    /// message.
    chan_nonempty: Vec<u64>,
    /// Largest total number of in-flight messages over the recorded states.
    max_in_flight: usize,
    /// Largest occupancy of one channel over the recorded states.
    max_channel_occupancy: usize,
}

impl StateFacts {
    /// No facts yet, for a network numbered by `slots`.
    fn for_slots(slots: &Slots) -> Self {
        StateFacts {
            node_words: slots.processes().div_ceil(64),
            chan_words: slots.channels().div_ceil(64),
            ..StateFacts::default()
        }
    }

    /// Appends the facts of the next state, decoded as `config`; `slots` numbers its
    /// channels.
    fn record(&mut self, config: &Configuration, slots: &Slots) {
        let base = self.starving.len();
        self.starving.resize(base + self.node_words, 0);
        for (v, s) in config.nodes.iter().enumerate() {
            if s.is_unsatisfied_requester() {
                self.starving[base + v / 64] |= 1 << (v % 64);
            }
        }
        let base = self.chan_nonempty.len();
        self.chan_nonempty.resize(base + self.chan_words, 0);
        let mut in_flight = 0;
        for (per_node, &chan_base) in config.channels.iter().zip(&slots.chan_base) {
            for (l, channel) in per_node.iter().enumerate() {
                if !channel.is_empty() {
                    let flat = chan_base + l;
                    self.chan_nonempty[base + flat / 64] |= 1 << (flat % 64);
                    in_flight += channel.len();
                    self.max_channel_occupancy = self.max_channel_occupancy.max(channel.len());
                }
            }
        }
        self.max_in_flight = self.max_in_flight.max(in_flight);
    }

    /// Appends the facts of the next state, reached from the recorded state `parent` by a
    /// transition that changed `change.node`'s starving bit to `change.starving` and left
    /// each channel of `change.channels` with its listed length; `in_flight` is the new
    /// state's message count.  Nothing is decoded: the words are the parent's, patched.
    fn record_patched(&mut self, parent: StateId, change: &Change<'_>, in_flight: usize) {
        fn set(words: &mut [u64], bit: usize, on: bool) {
            let mask = 1u64 << (bit % 64);
            if on {
                words[bit / 64] |= mask;
            } else {
                words[bit / 64] &= !mask;
            }
        }
        let parent = parent as usize;
        let base = self.starving.len();
        self.starving.extend_from_within(parent * self.node_words..(parent + 1) * self.node_words);
        set(&mut self.starving[base..], change.node, change.starving);
        let base = self.chan_nonempty.len();
        let words = parent * self.chan_words..(parent + 1) * self.chan_words;
        self.chan_nonempty.extend_from_within(words);
        for &(flat, len) in change.channels {
            set(&mut self.chan_nonempty[base..], flat as usize, len > 0);
            self.max_channel_occupancy = self.max_channel_occupancy.max(len as usize);
        }
        self.max_in_flight = self.max_in_flight.max(in_flight);
    }

    /// The starving and non-empty-channel words of state `id`.
    fn words(&self, id: usize) -> (&[u64], &[u64]) {
        let (nw, cw) = (self.node_words, self.chan_words);
        (&self.starving[id * nw..][..nw], &self.chan_nonempty[id * cw..][..cw])
    }
}

impl StateGraph {
    /// Number of configurations in the graph.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True when the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Decodes the configuration with id `id`.
    pub fn config(&self, id: usize) -> Configuration {
        self.arena.config(id as StateId)
    }

    /// The packed bytes of configuration `id` (zero-copy access for bulk scans).
    pub fn packed(&self, id: usize) -> &[u8] {
        self.arena.get(id as StateId)
    }

    /// The stored transitions of configuration `id`, in [`StateGraph::edges`] order: for
    /// scans that need only their targets.
    pub(crate) fn transitions(&self, id: usize) -> &[Transition] {
        &self.transitions[self.starts[id] as usize..self.starts[id + 1] as usize]
    }

    /// Outgoing transitions of configuration `id`, in ascending activation order (deliveries
    /// in `(node, channel)` order, then ticks in node order), decoded from the stored records.
    pub fn edges(&self, id: usize) -> impl ExactSizeIterator<Item = Edge> + '_ {
        self.transitions(id).iter().map(|t| self.decode(*t))
    }

    /// Edge `index` of configuration `id` (the `index`-th item of [`StateGraph::edges`]).
    pub(crate) fn edge(&self, id: usize, index: usize) -> Edge {
        self.decode(self.transitions(id)[index])
    }

    fn decode(&self, transition: Transition) -> Edge {
        Edge {
            action: self.slots.activation(transition.slot()),
            target: transition.target,
            enters_cs: transition.enters_cs(),
        }
    }

    /// Id of the initial configuration (always 0).
    pub fn initial(&self) -> usize {
        0
    }

    /// Total number of recorded transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// Number of processes of the explored network (0 for the empty graph).
    pub fn processes(&self) -> usize {
        self.slots.processes()
    }

    /// Number of channels of the explored network (0 for the empty graph).
    pub fn channel_count(&self) -> usize {
        self.slots.channels()
    }

    /// The flat index of node `node`'s incoming channel `label`: channels are numbered in
    /// `(node, label)` order, as in the packed encoding.
    pub fn flat_channel(&self, node: NodeId, label: usize) -> usize {
        self.slots.chan_base[node] + label
    }

    /// True when process `node` is an unsatisfied requester (`State = Req ∧ |RSet| < Need`)
    /// in configuration `id`.
    pub fn starves(&self, id: usize, node: NodeId) -> bool {
        assert!(node < self.processes(), "process {node} is not in the graph");
        self.facts.starving[id * self.facts.node_words + node / 64] & (1 << (node % 64)) != 0
    }

    /// Fills `scope` with one flag per configuration: whether process `node` is an
    /// unsatisfied requester there ([`StateGraph::starves`] of every id, read straight off
    /// the recorded fact words).
    pub(crate) fn starving_scope(&self, node: NodeId, scope: &mut Vec<bool>) {
        assert!(node < self.processes(), "process {node} is not in the graph");
        let (word, bit) = (node / 64, node % 64);
        let words = self.facts.starving.chunks_exact(self.facts.node_words);
        scope.clear();
        scope.extend(words.map(|words| words[word] >> bit & 1 != 0));
    }

    /// True when flat channel `flat` (see [`StateGraph::flat_channel`]) holds at least one
    /// message in configuration `id`.
    pub fn channel_nonempty(&self, id: usize, flat: usize) -> bool {
        self.facts.chan_nonempty[id * self.facts.chan_words + flat / 64] & (1 << (flat % 64)) != 0
    }
}

/// Cheap structural facts about a recorded state graph, computed on request by
/// [`GraphSummary::of`].
///
/// These are the checker-side raw features of the fuzzer's coverage signature (see
/// `analysis::coverage`): strongly-connected-component structure and channel-occupancy
/// extremes summarize the *shape* of the explored graph in a handful of integers (one
/// linear Tarjan pass; the occupancy maxima are facts recorded as states were admitted).
/// Identical across engines — the graphs are identical by the parity contract, and the
/// summary is a pure function of the graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphSummary {
    /// Number of strongly connected components of the recorded graph.
    pub scc_count: usize,
    /// Size (in configurations) of the largest strongly connected component.
    pub largest_scc: usize,
    /// Number of non-trivial components: size ≥ 2, or a single state with a self-loop.
    pub nontrivial_sccs: usize,
    /// Largest total number of in-flight messages observed in any configuration.
    pub max_in_flight: usize,
    /// Largest occupancy of any single channel in any configuration.
    pub max_channel_occupancy: usize,
}

impl GraphSummary {
    /// Computes the summary of a recorded graph (empty graph ⇒ all-zero summary).
    pub fn of(graph: &StateGraph) -> GraphSummary {
        GraphSummary {
            max_in_flight: graph.facts.max_in_flight,
            max_channel_occupancy: graph.facts.max_channel_occupancy,
            ..GraphSummary::components(graph)
        }
    }

    /// The SCC half of the summary (occupancy maxima left at zero).
    fn components(graph: &StateGraph) -> GraphSummary {
        let n = graph.len();
        if n == 0 {
            return GraphSummary::default();
        }
        let mut tarjan = crate::cycles::Tarjan::default();
        let (scc, sizes) = tarjan.components(graph, &vec![true; n]);
        let mut self_loop = vec![false; sizes.len()];
        for id in 0..n {
            if graph.transitions(id).iter().any(|t| t.target as usize == id) {
                self_loop[scc[id] as usize] = true;
            }
        }
        GraphSummary {
            scc_count: sizes.len(),
            largest_scc: sizes.iter().copied().max().unwrap_or(0) as usize,
            nontrivial_sccs: sizes
                .iter()
                .zip(&self_loop)
                .filter(|&(&size, &looped)| size >= 2 || looped)
                .count(),
            max_in_flight: 0,
            max_channel_occupancy: 0,
        }
    }

    /// The summary with its occupancy maxima computed by decoding every configuration —
    /// the oracle the admission-time facts are tested against.
    #[cfg(test)]
    fn of_decoded(graph: &StateGraph) -> GraphSummary {
        let mut summary = GraphSummary::components(graph);
        for id in 0..graph.len() {
            let config = graph.config(id);
            summary.max_in_flight = summary.max_in_flight.max(config.messages_in_flight());
            for per_node in &config.channels {
                for channel in per_node {
                    summary.max_channel_occupancy =
                        summary.max_channel_occupancy.max(channel.len());
                }
            }
        }
        summary
    }
}

/// The result of one exploration run.
#[derive(Clone, Debug, Default)]
pub struct ExplorationReport {
    /// Number of distinct configurations visited.
    pub configurations: usize,
    /// Number of transitions: the enabled activations (one delivery per non-empty channel,
    /// one tick per process) of every expanded state, counted whether or not their
    /// successor was interned or any protocol code ran for them.
    pub transitions: usize,
    /// Largest depth reached.
    pub max_depth: usize,
    /// True when a limit was hit before the reachable space was exhausted.
    pub truncated: bool,
    /// Property violations (at most one per property, with shortest traces).
    pub violations: Vec<Violation>,
    /// Deadlocked configurations discovered.
    pub deadlocks: Vec<DeadlockWitness>,
    /// Number of configurations first discovered at each BFS depth (`frontier_sizes[d]` is
    /// the size of level `d`; the entries sum to `configurations`).  Identical across
    /// engines — the per-level fingerprint the parity tests compare.
    pub frontier_sizes: Vec<usize>,
    /// Fair starvation lassos found by the liveness pass (one witness per starved victim);
    /// only populated when [`Explorer::check_liveness`] was enabled.  Emptiness proves
    /// (k, ℓ)-liveness only when the exploration was exhaustive — see [`crate::liveness`].
    pub liveness: Vec<crate::liveness::LassoWitness>,
    /// Bytes of packed configuration data held by the state arena when the run finished
    /// (its peak: the arena only grows during a run).
    pub arena_bytes: usize,
}

impl ExplorationReport {
    /// True when no registered property was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// True when no deadlocked configuration was found.
    pub fn deadlock_free(&self) -> bool {
        self.deadlocks.is_empty()
    }

    /// True when the whole reachable space (within the abstraction) was covered.
    pub fn exhaustive(&self) -> bool {
        !self.truncated
    }

    /// True when the liveness pass found no fair starvation lasso (vacuously true when the
    /// pass did not run).
    pub fn live(&self) -> bool {
        self.liveness.is_empty()
    }
}

/// Observer of a running exploration: throttled progress callbacks plus cooperative
/// cancellation.
///
/// An explorer with a registered observer calls [`ExploreProgress::on_progress`] every
/// [`PROGRESS_STRIDE`] expanded states (and once more when the run finishes) with the
/// current interned-configuration and transition counts, and polls
/// [`ExploreProgress::should_stop`] before every expansion.  A `true` answer abandons the
/// run: the report comes back with `truncated` set, exactly as if a [`Limits`] bound had
/// tripped.  Both methods default to no-ops so an observer can implement only the half it
/// cares about.
///
/// Observation never changes what a run computes — a cancelled run aside, reports are
/// bit-identical with and without an observer (the parity contract is indifferent to it).
pub trait ExploreProgress {
    /// Called with the configurations interned and transitions counted so far.
    fn on_progress(&self, configurations: usize, transitions: usize) {
        let _ = (configurations, transitions);
    }

    /// Polled before each expansion; returning `true` abandons the run (`truncated` is set).
    fn should_stop(&self) -> bool {
        false
    }
}

/// How many expansions pass between consecutive [`ExploreProgress::on_progress`] calls.
pub const PROGRESS_STRIDE: usize = 256;

/// Bounded-exhaustive explorer over the reachable configurations of a protocol network.
pub struct Explorer<'a, P: CheckableNode, T: Topology> {
    net: &'a mut Network<P, T>,
    limits: Limits,
    properties: Vec<Property>,
    record_graph: bool,
    stop_on_violation: bool,
    check_liveness: bool,
    progress: Option<&'a dyn ExploreProgress>,
    graph: StateGraph,
}

impl<'a, P: CheckableNode, T: Topology> Explorer<'a, P, T> {
    /// Creates an explorer rooted at the network's current configuration.
    pub fn new(net: &'a mut Network<P, T>) -> Self {
        Explorer {
            net,
            limits: Limits::default(),
            properties: Vec::new(),
            record_graph: false,
            stop_on_violation: true,
            check_liveness: false,
            progress: None,
            graph: StateGraph::default(),
        }
    }

    /// Registers a progress observer (see [`ExploreProgress`]): throttled counters during
    /// the run plus a cooperative cancellation poll before every expansion.
    pub fn with_progress(mut self, progress: &'a dyn ExploreProgress) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Overrides the exploration bounds.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Registers a property to check on every visited configuration.
    pub fn with_property(mut self, property: Property) -> Self {
        self.properties.push(property);
        self
    }

    /// Keeps the explored state graph in memory for later cycle analysis
    /// (see [`crate::cycles::find_progress_cycle`]).
    pub fn record_graph(mut self, record: bool) -> Self {
        self.record_graph = record;
        self
    }

    /// Continue exploring after the first property violation (default: stop).
    pub fn continue_on_violation(mut self) -> Self {
        self.stop_on_violation = false;
        self
    }

    /// Runs the fair-cycle liveness pass ([`crate::liveness::find_fair_cycles`]) over the
    /// recorded graph after exploration finishes, populating
    /// [`ExplorationReport::liveness`].  Implies [`Explorer::record_graph`].
    pub fn check_liveness(mut self, check: bool) -> Self {
        self.check_liveness = check;
        if check {
            self.record_graph = true;
        }
        self
    }

    /// The state graph recorded by the last run, if recording was enabled.
    pub fn graph(&self) -> &StateGraph {
        &self.graph
    }

    /// Consumes the explorer and returns the recorded state graph.
    pub fn into_graph(self) -> StateGraph {
        self.graph
    }

    /// Runs the exploration and returns its report.  This is the delta successor engine,
    /// the sequential hot path.
    ///
    /// Per popped state `s` the parent's bytes are mapped **once** by a skip-only parse (its
    /// [`SegmentMap`]: segment spans and channel message counts); nothing is decoded.  The
    /// transitions of `s`'s BFS parent, and of that parent's successors expanded before `s`,
    /// name the successors of `s` that commuting diamonds complete (see the module docs).
    /// Each transition then
    ///
    /// 1. when a diamond names its successor: records that transition and stops here;
    /// 2. looks up its key — (process, activation, the process's node segment, the delivered
    ///    head message) — in the run's local-transition memo;
    /// 3. on a **miss** only: restores the parent into the network (once per state, at the
    ///    first miss), snapshots the activated node, executes in place recording channel
    ///    effects in a [`StepUndo`] log, records the activation's local effect (new node
    ///    segment, critical-section entry, messages appended per pushed channel) and
    ///    reverts — pushed messages pop back off channel tails, the delivered message
    ///    returns to its head, the saved node state is restored;
    /// 4. builds the dirty segments from the parent's bytes and the effect (node segment
    ///    replaced, delivered channel's head dropped, pushed channels' tails appended) — if
    ///    there are none, the transition is a self-loop and skips interning entirely;
    /// 5. otherwise patches the parent's segmented hash per dirty segment (the parent's
    ///    segment terms are computed at the first such transition), splices the dirty
    ///    segments into a copy of the parent's packed bytes (straight memcpy of the
    ///    unchanged spans), and interns the successor with the precomputed hash.
    ///
    /// Every transition is recorded as one 8-byte record (activation slot with the
    /// critical-section flag, target id) in the engine's table, the table the diamond search
    /// reads; a recording run hands that table to the [`StateGraph`] when it ends, any other
    /// run drops it.
    ///
    /// On the benchmark's star7 and Figure-3 instances diamonds complete 73 % of the
    /// transitions and the memo executes 3 824 of the rest.  Debug builds derive every
    /// diamond's successor through the memo and execute every memo hit as well, and panic
    /// when either disagrees (see [`CheckableNode`]).
    pub fn run(&mut self) -> ExplorationReport {
        self.run_delta().0
    }

    /// [`Explorer::run`], also returning how often the diamond and the memo steps fired.
    fn run_delta(&mut self) -> (ExplorationReport, DeltaStats) {
        let progress = self.progress;
        let net = &mut *self.net;
        let (limits, record, stop) = (self.limits, self.record_graph, self.stop_on_violation);
        let mut engine = Engine::new(net, limits, &self.properties, record, stop);
        let mut scratch = DeltaScratch::new(engine.slots.clone(), engine.k);
        let mut completed = 0usize;

        let mut parent_buf = Vec::new();
        capture_packed(net, &mut parent_buf);
        map_packed(&parent_buf, &mut scratch.map);
        let h_initial = compute_terms(&parent_buf, &scratch.map, &mut scratch.terms);
        let initial = engine.admit_initial(&parent_buf, h_initial);

        // States are expanded in id order, the order BFS discovers them, so the BFS queue is
        // the range of ids from `next` up; it holds their tallies, from which their
        // successors' follow.
        let mut tallies = VecDeque::from([initial]);
        let mut next: StateId = 0;

        let mut ticker = ProgressTicker::new(progress);
        'outer: while let Some(tally) = tallies.pop_front() {
            let id = next;
            next += 1;
            if ticker.observe(&mut engine) {
                break 'outer;
            }
            if !engine.begin_expansion(id) {
                continue;
            }
            scratch.diamonds.clear();
            if id != 0 {
                let via = engine.parents[id as usize];
                let (slots, diamonds) = (&scratch.slots, &mut scratch.diamonds);
                find_diamonds(&engine.transitions, &engine.starts, slots, id, via, diamonds);
            }

            // Load the parent once; all siblings are derived in place and reverted.
            parent_buf.clear();
            parent_buf.extend_from_slice(engine.arena.get(id));

            let (quiescent, stopped) = expand_state_delta(
                net,
                &mut scratch,
                id,
                &parent_buf,
                &mut |slot, step, enters_cs| {
                    match step {
                        DeltaStep::SelfLoop => engine.on_known_transition(slot, id, enters_cs),
                        DeltaStep::Completed { target, derived } => {
                            if let Some(bytes) = derived {
                                let act = engine.slots.activation(slot);
                                assert!(
                                    engine.arena.get(target) == bytes,
                                    "process {}: {act:?} from state {id} commutes with the \
                                     activation reaching it, but executing it does not reach \
                                     the diamond's far corner, state {target}",
                                    act.node()
                                );
                            }
                            completed += 1;
                            engine.on_known_transition(slot, target, enters_cs);
                        }
                        DeltaStep::Successor { bytes, hash, change } => {
                            let admit = Admit::Carry(tally, &change);
                            let fresh =
                                engine.on_transition(id, slot, bytes, hash, enters_cs, admit);
                            tallies.extend(fresh.map(|(_, tally)| tally));
                        }
                    }
                    engine.stopped
                },
            );
            if stopped {
                break 'outer;
            }
            if quiescent {
                engine.on_quiescent(id);
            }
        }

        ticker.finish(&engine);
        let stats = DeltaStats { misses: scratch.memo.misses, completed, decodes: engine.decodes };
        (self.finish_run(engine.finish()), stats)
    }

    /// The interned reference engine: per transition, restore the parent's packed bytes,
    /// execute, capture and hash the full successor.  Retained as the oracle the delta
    /// engine's parity suite runs against.
    pub fn run_interned(&mut self) -> ExplorationReport {
        let progress = self.progress;
        let net = &mut *self.net;
        let (limits, record, stop) = (self.limits, self.record_graph, self.stop_on_violation);
        let mut engine = Engine::new(net, limits, &self.properties, record, stop);
        let mut scratch = Vec::new();
        capture_packed(net, &mut scratch);
        engine.admit_initial(&scratch, crate::snapshot::fx_hash(&scratch));

        // As in the delta engine, the BFS queue is the range of ids from `next` up.
        let mut next: StateId = 0;

        let mut ticker = ProgressTicker::new(progress);
        'outer: while (next as usize) < engine.arena.len() {
            let id = next;
            next += 1;
            if ticker.observe(&mut engine) {
                break 'outer;
            }
            if !engine.begin_expansion(id) {
                continue;
            }

            let (activations, first_tick) = enumerate_activations(net, &engine.arena, id);

            let mut every_tick_is_self_loop = true;
            for (idx, act) in activations.iter().enumerate() {
                let (same_as_parent, enters_cs) =
                    execute_transition(net, &engine.arena, id, *act, &mut scratch);
                if idx >= first_tick && !same_as_parent {
                    every_tick_is_self_loop = false;
                }
                let (slot, hash) = (engine.slots.of(*act), crate::snapshot::fx_hash(&scratch));
                engine.on_transition(id, slot, &scratch, hash, enters_cs, Admit::Decode);
                if engine.stopped {
                    break 'outer;
                }
            }

            if first_tick == 0 && every_tick_is_self_loop {
                engine.on_quiescent(id);
            }
        }

        ticker.finish(&engine);
        self.finish_run(engine.finish())
    }

    /// Stores the recorded graph and runs the optional liveness pass — the single exit path
    /// of both engines, so delta and interned runs report identical liveness witnesses
    /// (they record identical graphs).
    fn finish_run(
        &mut self,
        (mut report, graph): (ExplorationReport, StateGraph),
    ) -> ExplorationReport {
        self.graph = graph;
        if self.check_liveness {
            report.liveness = crate::liveness::find_fair_cycles(&self.graph);
        }
        report
    }
}

/// How often [`Explorer::run_delta`]'s shortcuts fired.
#[derive(Clone, Copy, Debug)]
#[cfg_attr(not(test), allow(dead_code))] // read by the unit tests only
struct DeltaStats {
    /// Memo lookups that found no entry, each of which executed its activation.
    misses: usize,
    /// Transitions whose successor a commuting diamond named (see [`find_diamonds`]).
    completed: usize,
    /// Configurations the engine decoded, not counting the debug builds' oracle.
    decodes: usize,
}

/// Per-loop progress bookkeeping shared by the delta and interned engines: polls
/// [`ExploreProgress::should_stop`] before every expansion and emits throttled
/// [`ExploreProgress::on_progress`] callbacks every [`PROGRESS_STRIDE`] expansions.
struct ProgressTicker<'a> {
    progress: Option<&'a dyn ExploreProgress>,
    since: usize,
}

impl<'a> ProgressTicker<'a> {
    fn new(progress: Option<&'a dyn ExploreProgress>) -> Self {
        ProgressTicker { progress, since: 0 }
    }

    /// Called once per popped state; returns `true` when the observer cancelled the run
    /// (the report's `truncated` flag is set before returning, so a cancelled run never
    /// claims exhaustiveness).
    fn observe(&mut self, engine: &mut Engine<'_>) -> bool {
        let Some(progress) = self.progress else { return false };
        if progress.should_stop() {
            engine.report.truncated = true;
            return true;
        }
        self.since += 1;
        if self.since >= PROGRESS_STRIDE {
            self.since = 0;
            progress.on_progress(engine.arena.len(), engine.report.transitions);
        }
        false
    }

    /// Emits the final counters when a run leaves its loop.
    fn finish(self, engine: &Engine<'_>) {
        if let Some(progress) = self.progress {
            progress.on_progress(engine.arena.len(), engine.report.transitions);
        }
    }
}

/// Enumerates the enabled activations of interned state `id`: one delivery per non-empty
/// channel followed by one tick per process.  Restores `id` into `net` as a side effect.
fn enumerate_activations<P: CheckableNode, T: Topology>(
    net: &mut Network<P, T>,
    arena: &StateArena,
    id: StateId,
) -> (Vec<Activation>, usize) {
    restore_packed(net, arena.get(id));
    let n = net.len();
    let mut activations = Vec::new();
    for v in 0..n {
        for l in 0..net.topology().degree(v) {
            if !net.channel(v, l).is_empty() {
                activations.push(Activation::Deliver { node: v, channel: l });
            }
        }
    }
    let first_tick = activations.len();
    for v in 0..n {
        activations.push(Activation::Tick { node: v });
    }
    (activations, first_tick)
}

/// Fills `terms` with every segment's hash term of `packed` and returns their XOR — the
/// [`crate::snapshot::segmented_hash`], kept term-by-term so the delta loop can patch it.
fn compute_terms(packed: &[u8], map: &SegmentMap, terms: &mut Vec<u64>) -> u64 {
    terms.clear();
    let mut hash = 0u64;
    for seg in 0..map.segments() {
        let term = segment_term(seg, map.segment(packed, seg));
        terms.push(term);
        hash ^= term;
    }
    hash
}

/// Whether the process activated by `act` entered its critical section during the transition
/// just executed (the trace was cleared before it).  Only the activated process runs, so
/// the trace holds at most one `EnterCs`, and it is that process's.
fn entered_cs<P: CheckableNode, T: Topology>(net: &Network<P, T>, act: Activation) -> bool {
    let mut entries =
        net.trace().events().iter().filter(|e| matches!(e.event, treenet::Event::EnterCs { .. }));
    let Some(entry) = entries.next() else { return false };
    debug_assert!(
        entry.node as NodeId == act.node() && entries.next().is_none(),
        "a transition entered a critical section other than its activated process's ({act:?})"
    );
    true
}

/// Executes `act` from interned state `id` on `net`: restores the parent (borrowing its bytes
/// from the arena), runs the activation, and captures the successor into `scratch`.  Returns
/// whether the successor equals the parent (the tick self-loop test) and whether the
/// activated process entered its critical section.
fn execute_transition<P: CheckableNode, T: Topology>(
    net: &mut Network<P, T>,
    arena: &StateArena,
    id: StateId,
    act: Activation,
    scratch: &mut Vec<u8>,
) -> (bool, bool) {
    restore_packed(net, arena.get(id));
    net.trace_mut().clear();
    net.execute(act);
    capture_packed(net, scratch);
    let enters_cs = entered_cs(net, act);
    let same_as_parent = scratch[..] == *arena.get(id);
    (same_as_parent, enters_cs)
}

/// A dense numbering of a network's activations in the canonical expansion order: the
/// delivery on flat channel `c` (channel `(v, l)` is flat `chan_base[v] + l`) is slot `c`,
/// the tick of process `v` is slot `channels + v`.  A state's enabled activations, and so
/// its recorded transitions, come in ascending slot order.  Every slot is below
/// [`CS_ENTRY`], so it fits a [`Transition`]'s slot field next to the critical-section flag.
#[derive(Clone, Debug, Default)]
struct Slots {
    /// Flat channel ids: channel `(v, l)` has flat index `chan_base[v] + l`; `n + 1`
    /// entries, the last being the number of channels.
    chan_base: Vec<usize>,
    /// Inverse of the flat indexing: flat channel index back to `(v, l)`.
    chan_pos: Vec<(usize, usize)>,
}

impl Slots {
    fn for_net<P: CheckableNode, T: Topology>(net: &Network<P, T>) -> Self {
        let n = net.len();
        let mut chan_base = Vec::with_capacity(n + 1);
        let mut chan_pos = Vec::new();
        chan_base.push(0usize);
        for v in 0..n {
            chan_pos.extend((0..net.topology().degree(v)).map(|l| (v, l)));
            chan_base.push(chan_pos.len());
        }
        let slots = chan_pos.len() + n;
        assert!(
            slots <= CS_ENTRY as usize,
            "{n} processes and {} channels number {slots} activation slots; a transition \
             record's slot field holds {CS_ENTRY}",
            chan_pos.len()
        );
        Slots { chan_base, chan_pos }
    }

    fn channels(&self) -> usize {
        self.chan_pos.len()
    }

    fn processes(&self) -> usize {
        self.chan_base.len().saturating_sub(1)
    }

    /// The slot of `act` (below [`CS_ENTRY`] by [`Slots::for_net`]'s check, so the cast
    /// cannot wrap).
    fn of(&self, act: Activation) -> u32 {
        (match act {
            Activation::Deliver { node, channel } => self.chan_base[node] + channel,
            Activation::Tick { node } => self.channels() + node,
        }) as u32
    }

    /// The activation in `slot`.
    fn activation(&self, slot: u32) -> Activation {
        let slot = slot as usize;
        match self.chan_pos.get(slot) {
            Some(&(node, channel)) => Activation::Deliver { node, channel },
            None => Activation::Tick { node: slot - self.channels() },
        }
    }
}

/// Appends to `out`, in ascending slot order, the transitions of state `id` (BFS parent
/// `parent`, reached by activation slot `via`) whose successors are already known.
///
/// Let `t2` be an activation of a process other than `via`'s, enabled at the parent, and
/// let `q` be the parent's `t2`-successor.  The two activations commute: each reads only
/// its own process's state and the head of its own incoming channel, and writes only its
/// own state, that head and the tails of its out-channels (one writer per channel, and a
/// push leaves a non-empty channel's head alone).  So `t2` is enabled at `id` with the same
/// local effect as at the parent, `via` is enabled at `q` with the same effect as at the
/// parent, and `id·t2 = q·via`.  When `q` was expanded before `id`, its `via`-transition
/// names that configuration, and the parent's `t2`-transition says whether `t2` enters a
/// critical section: the diamond is the parent's `t2` record retargeted.
/// `transitions`/`starts` hold the transitions of every state expanded so far, in CSR
/// layout; a transition the full arena dropped is absent, so it never completes a diamond.
fn find_diamonds(
    transitions: &[Transition],
    starts: &[u32],
    slots: &Slots,
    id: StateId,
    (parent, via): ParentLink,
    out: &mut Vec<Transition>,
) {
    let range =
        |state: StateId| starts[state as usize] as usize..starts[state as usize + 1] as usize;
    let via_node = slots.activation(via).node();
    for side in &transitions[range(parent)] {
        let q = side.target;
        if q >= id || slots.activation(side.slot()).node() == via_node {
            continue;
        }
        let far = &transitions[range(q)];
        if let Ok(i) = far.binary_search_by_key(&via, |t| t.slot()) {
            out.push(Transition { target: far[i].target, ..*side });
        }
    }
}

/// Reusable buffers of the delta engine — one set per run, so expansions allocate nothing
/// per state.
struct DeltaScratch {
    slots: Slots,
    /// The `k` the run's tallies count processes over (see [`Engine::k`]).
    k: usize,
    map: SegmentMap,
    terms: Vec<u64>,
    undo: StepUndo<klex_core::Message>,
    activations: Vec<Activation>,
    /// The transitions of the state being expanded that diamonds complete, by slot.
    diamonds: Vec<Transition>,
    /// The flat channels one executed activation pushed, sorted (one entry per message).
    pushed: Vec<usize>,
    /// Dirty-segment patches: (segment index, span of the new bytes in `seg_buf`), in
    /// ascending parent-span order.
    patches: Vec<(usize, usize, usize)>,
    /// The new length of every channel in `patches`, by flat index.
    lengths: Vec<(u32, u32)>,
    seg_buf: Vec<u8>,
    succ_buf: Vec<u8>,
    key: Vec<u8>,
    memo: TransitionMemo,
    /// The activated node's state before an executed transition, restored by the revert.
    saved: NodeState,
    /// The activated node's state after an executed transition, encoded as its segment.
    probe: NodeState,
}

impl DeltaScratch {
    fn new(slots: Slots, k: usize) -> Self {
        DeltaScratch {
            slots,
            k,
            map: SegmentMap::default(),
            terms: Vec::new(),
            undo: StepUndo::new(),
            activations: Vec::new(),
            diamonds: Vec::new(),
            pushed: Vec::new(),
            patches: Vec::new(),
            lengths: Vec::new(),
            seg_buf: Vec::new(),
            succ_buf: Vec::new(),
            key: Vec::new(),
            memo: TransitionMemo::default(),
            saved: NodeState::default(),
            probe: NodeState::default(),
        }
    }
}

/// The local effect of one activation: everything it changes in the configuration, relative
/// to the parent it ran in.
#[derive(Clone, Copy, Debug)]
struct Effect {
    /// The activated process's new node segment in [`TransitionMemo::bytes`]; empty when the
    /// segment did not change (an encoded node state is never empty).
    node: (u32, u32),
    /// True when the activated process entered its critical section.
    enters_cs: bool,
    /// The channels it pushed, as a range of [`TransitionMemo::pushes`], in ascending flat
    /// channel order.
    pushes: (u32, u32),
    /// What it adds to a configuration's tally ([`Tally::change`]).
    tally: Tally,
    /// True when the activated process is an unsatisfied requester afterwards.
    starving: bool,
}

/// The messages one activation appended to one channel.
#[derive(Clone, Copy, Debug)]
struct Push {
    /// The flat channel index.
    flat: u32,
    /// How many messages were appended.
    count: u32,
    /// Their encodings, in send order, as a span of [`TransitionMemo::bytes`].
    bytes: (u32, u32),
}

/// The per-run local-transition memo of the delta engine.
///
/// An activation of process `p` reads only `p`'s own state and, for a delivery, the one
/// message it consumes; it writes only `p`'s state, the head of the delivered channel and
/// the tails of the channels it sends on.  Its effect is therefore a function of the key
/// (process, activation label, `p`'s node segment, head message bytes) — the
/// [`CheckableNode`] contract that equal captures behave identically — and is computed once
/// per distinct key, however many configurations present it.
///
/// Keys are hash-consed to dense ids by a [`StateArena`]; `effects[id]` is the effect of key
/// `id`, with its bytes and pushes in two flat buffers.  No entry allocates.
#[derive(Default)]
struct TransitionMemo {
    keys: StateArena,
    effects: Vec<Effect>,
    pushes: Vec<Push>,
    bytes: Vec<u8>,
    /// Lookups that found no entry, each of which executed its activation.
    misses: usize,
}

impl TransitionMemo {
    /// The memo key of `act` from a parent whose activated node segment is `node_segment`
    /// and whose delivered head message (deliveries only) is `head`.
    fn key(key: &mut Vec<u8>, act: Activation, node_segment: &[u8], head: &[u8]) {
        let (node, label) = match act {
            Activation::Tick { node } => (node, u32::MAX),
            Activation::Deliver { node, channel } => (node, channel as u32),
        };
        key.clear();
        key.extend_from_slice(&(node as u32).to_le_bytes());
        key.extend_from_slice(&label.to_le_bytes());
        key.extend_from_slice(node_segment);
        key.extend_from_slice(head);
    }

    /// Appends the effect of the activation `net` just executed (recorded in `undo`; the
    /// trace was cleared before it) and returns it.  `parent_node` is the activated node's
    /// segment before the activation, `saved` its state, and `head` the delivered message's
    /// bytes (empty for a tick); the tally change counts processes over `k`.
    #[allow(clippy::too_many_arguments)]
    fn record<P: CheckableNode, T: Topology>(
        &mut self,
        net: &Network<P, T>,
        act: Activation,
        parent_node: &[u8],
        saved: &NodeState,
        head: &[u8],
        undo: &StepUndo<klex_core::Message>,
        slots: &Slots,
        k: usize,
        pushed: &mut Vec<usize>,
        probe: &mut NodeState,
    ) -> Effect {
        let node_start = self.bytes.len();
        net.node(act.node()).capture_state_into(probe);
        encode_node_segment(&mut self.bytes, probe);
        if self.bytes[node_start..] == *parent_node {
            self.bytes.truncate(node_start);
        }
        let node = (node_start as u32, self.bytes.len() as u32);

        pushed.clear();
        pushed.extend(undo.sent_channels().iter().map(|&(v, l)| slots.chan_base[v] + l));
        pushed.sort_unstable();
        let push_start = self.pushes.len();
        let mut sent = Tally::default();
        for run in pushed.chunk_by(|a, b| a == b) {
            let (v, l) = slots.chan_pos[run[0]];
            let channel = net.channel(v, l);
            let start = self.bytes.len();
            for msg in channel.iter().skip(channel.len() - run.len()) {
                write_message(&mut self.bytes, msg);
                sent = sent.plus(Tally::of_messages([msg]));
            }
            self.pushes.push(Push {
                flat: run[0] as u32,
                count: run.len() as u32,
                bytes: (start as u32, self.bytes.len() as u32),
            });
        }
        let consumed = (!head.is_empty()).then(|| read_head(head));
        let (before, after) = (NodeShare::of(saved), NodeShare::of(&*probe));
        Effect {
            node,
            enters_cs: entered_cs(net, act),
            pushes: (push_start as u32, self.pushes.len() as u32),
            tally: Tally::change(before, after, consumed.as_ref(), sent, k),
            starving: probe.is_unsatisfied_requester(),
        }
    }

    fn node_bytes(&self, effect: &Effect) -> &[u8] {
        &self.bytes[effect.node.0 as usize..effect.node.1 as usize]
    }

    fn pushes(&self, effect: &Effect) -> &[Push] {
        &self.pushes[effect.pushes.0 as usize..effect.pushes.1 as usize]
    }

    fn push_bytes(&self, push: &Push) -> &[u8] {
        &self.bytes[push.bytes.0 as usize..push.bytes.1 as usize]
    }

    /// True when two recorded effects change the configuration identically.
    fn same_effect(&self, a: &Effect, b: &Effect) -> bool {
        a.enters_cs == b.enters_cs
            && (a.tally, a.starving) == (b.tally, b.starving)
            && self.node_bytes(a) == self.node_bytes(b)
            && self.pushes(a).len() == self.pushes(b).len()
            && self.pushes(a).iter().zip(self.pushes(b)).all(|(x, y)| {
                x.flat == y.flat && x.count == y.count && self.push_bytes(x) == self.push_bytes(y)
            })
    }
}

/// One derived transition, as handed to the sink of [`expand_state_delta`].
enum DeltaStep<'a> {
    /// The successor is bit-identical to the parent (no dirty segment): no splice, no hash,
    /// no arena traffic.
    SelfLoop,
    /// The far corner of a commuting diamond (see [`find_diamonds`]): the successor is
    /// already interned as `target`, so nothing was looked up, spliced or hashed.  Debug
    /// builds also derive the successor the normal way and pass its bytes as `derived`, for
    /// the sink to check against `target`'s.
    Completed { target: StateId, derived: Option<&'a [u8]> },
    /// A proper successor: spliced packed bytes plus the incrementally patched segmented
    /// hash, and what admitting it reads besides.  The bytes borrow the expansion's scratch
    /// buffer — copy to retain.
    Successor { bytes: &'a [u8], hash: u64, change: Change<'a> },
}

/// What a transition changed that admitting its successor reads, besides the bytes: the
/// change of the tally, the activated process's starving bit, and the new length of every
/// channel it touched.
struct Change<'a> {
    /// The tally's change ([`Tally::change`]).
    tally: Tally,
    /// The activated process.
    node: NodeId,
    /// True when it is an unsatisfied requester in the successor.
    starving: bool,
    /// `(flat channel, new length)` of the delivered and the pushed channels.
    channels: &'a [(u32, u32)],
}

/// Appends to `seg_buf` the new segment of flat channel `flat` — the parent's messages
/// without the head when `pop`, then `appended` (`count` encoded messages) — and records
/// the patch and the channel's new length.
#[allow(clippy::too_many_arguments)]
fn patch_channel(
    seg_buf: &mut Vec<u8>,
    patches: &mut Vec<(usize, usize, usize)>,
    lengths: &mut Vec<(u32, u32)>,
    map: &SegmentMap,
    parent_buf: &[u8],
    flat: usize,
    pop: bool,
    count: usize,
    appended: &[u8],
) {
    let mut messages = map.channel_messages(parent_buf, flat);
    let mut len = map.channel_len(flat) + count;
    if pop {
        messages = &messages[message_len(messages)..];
        len -= 1;
    }
    let start = seg_buf.len();
    write_varint(seg_buf, len as u64);
    seg_buf.extend_from_slice(messages);
    seg_buf.extend_from_slice(appended);
    patches.push((map.channel_segment(flat), start, seg_buf.len()));
    lengths.push((flat as u32, len as u32));
}

/// Splices the dirty segments `patches` (their new bytes in `seg_buf`) into a copy of the
/// parent's bytes in `succ_buf` — straight memcpy of the unchanged spans — and returns the
/// successor's segmented hash, patched per dirty segment from the parent's hash `h_parent`
/// and segment `terms`.
fn splice(
    parent_buf: &[u8],
    map: &SegmentMap,
    patches: &[(usize, usize, usize)],
    seg_buf: &[u8],
    terms: &[u64],
    h_parent: u64,
    succ_buf: &mut Vec<u8>,
) -> u64 {
    let mut hash = h_parent;
    succ_buf.clear();
    let mut cursor = 0usize;
    for &(seg, s, e) in patches {
        hash ^= terms[seg] ^ segment_term(seg, &seg_buf[s..e]);
        let (span_start, span_end) = map.span(seg);
        succ_buf.extend_from_slice(&parent_buf[cursor..span_start]);
        succ_buf.extend_from_slice(&seg_buf[s..e]);
        cursor = span_end;
    }
    succ_buf.extend_from_slice(&parent_buf[cursor..]);
    hash
}

/// Expands state `id`, whose packed bytes are `parent_buf`, with the delta discipline.
/// Activations are enumerated in the canonical order (deliveries in `(node, channel)`
/// order, then ticks in node order) — the order [`enumerate_activations`] gives the
/// interned engine, which is what the parity contract rests on.
///
/// The parent's bytes are mapped by a skip-only parse ([`map_packed`]); nothing is decoded.
/// Each activation then takes the first of these that applies:
///
/// * **diamond** — `scratch.diamonds` (filled by [`find_diamonds`]) already names its
///   successor: the sink gets that id, and nothing else is done for it;
/// * **memo hit** — the successor's dirty segments are built from the parent's bytes and
///   the recorded effect: the node segment replaced, the delivered channel's head dropped,
///   the pushed channels' tails appended.  Nothing executes.  A tick whose effect is empty
///   (a blocked process's quiet tick, for one) is a self-loop;
/// * **memo miss** — the parent is restored into `net` (at most once per state, and only
///   when some activation misses), the activation executes in place with an undo log, its
///   effect is recorded, and the undo log reverts the network to the parent.  The successor
///   is then built as for a hit.
///
/// The parent's segment hash terms are computed only when some successor is spliced.
///
/// Debug builds derive every diamond's successor through the memo as well, and execute
/// every memo hit, panicking, with the process and the activation named, when an effect
/// differs from the recorded one: a process or driver whose behaviour depends on state
/// outside its capture breaks the [`CheckableNode`] contract.
///
/// `sink` receives each transition with its slot (see [`Slots`]) and whether its activated
/// process entered the critical section; returning `true` stops the expansion (remaining
/// activations untried).  Returns
/// `(quiescent, stopped)`; `quiescent` means no message was in flight and every tick was a
/// self-loop — the precondition of a quiescent deadlock.
fn expand_state_delta<P, T>(
    net: &mut Network<P, T>,
    scratch: &mut DeltaScratch,
    id: StateId,
    parent_buf: &[u8],
    sink: &mut dyn FnMut(u32, DeltaStep<'_>, bool) -> bool,
) -> (bool, bool)
where
    P: CheckableNode,
    T: Topology,
{
    let DeltaScratch {
        slots,
        map,
        terms,
        undo,
        activations,
        diamonds,
        pushed,
        k,
        patches,
        lengths,
        seg_buf,
        succ_buf,
        key,
        memo,
        saved,
        probe,
    } = scratch;

    map_packed(parent_buf, map);
    let mut h_parent = None;

    activations.clear();
    for (flat, &(node, channel)) in slots.chan_pos.iter().enumerate() {
        if map.channel_len(flat) > 0 {
            activations.push(Activation::Deliver { node, channel });
        }
    }
    let first_tick = activations.len();
    activations.extend((0..map.nodes()).map(|node| Activation::Tick { node }));

    let mut restored = false;
    let mut every_tick_is_self_loop = true;
    let mut next_diamond = 0;
    for idx in 0..activations.len() {
        let act = activations[idx];
        let node = act.node();
        let delivered = match act {
            Activation::Deliver { node, channel } => Some(slots.chan_base[node] + channel),
            Activation::Tick { .. } => None,
        };
        let slot = delivered.unwrap_or(slots.channels() + node) as u32;
        let diamond = diamonds.get(next_diamond).filter(|d| d.slot() == slot).copied();
        if let Some(diamond) = diamond {
            next_diamond += 1;
            if idx >= first_tick && diamond.target != id {
                every_tick_is_self_loop = false;
            }
            if !cfg!(debug_assertions) {
                let step = DeltaStep::Completed { target: diamond.target, derived: None };
                if sink(slot, step, diamond.enters_cs()) {
                    return (false, true);
                }
                continue;
            }
        }

        let head = delivered.map_or(&[][..], |flat| {
            let messages = map.channel_messages(parent_buf, flat);
            &messages[..message_len(messages)]
        });
        let parent_node = map.segment(parent_buf, map.node_segment(node));
        TransitionMemo::key(key, act, parent_node, head);
        let (key_id, fresh) = memo.keys.intern(key);

        if fresh || cfg!(debug_assertions) {
            if !restored {
                restore_packed(net, parent_buf);
                restored = true;
            }
            net.trace_mut().clear();
            net.node(node).capture_state_into(saved);
            net.execute_undoable(act, undo);
            let effect =
                memo.record(net, act, parent_node, saved, head, undo, slots, *k, pushed, probe);
            if fresh {
                debug_assert_eq!(key_id as usize, memo.effects.len());
                memo.misses += 1;
                memo.effects.push(effect);
            } else {
                let recorded = memo.effects[key_id as usize];
                assert!(
                    memo.same_effect(&effect, &recorded),
                    "process {node}: {act:?} from a (local state, head message) seen before \
                     changed the configuration differently this time, so its behaviour depends \
                     on state outside its capture (the CheckableNode contract)"
                );
                memo.bytes.truncate(effect.node.0 as usize);
                memo.pushes.truncate(effect.pushes.0 as usize);
            }
            net.revert(undo);
            net.node_mut(node).restore_state(saved);
        }
        let effect = memo.effects[key_id as usize];

        // Node segments precede channel segments in the packed layout, and the pushes are
        // in ascending flat order, so merging the delivered channel into them keeps
        // `patches` in ascending span order for the splice.
        seg_buf.clear();
        patches.clear();
        lengths.clear();
        if effect.node.0 != effect.node.1 {
            seg_buf.extend_from_slice(memo.node_bytes(&effect));
            patches.push((map.node_segment(node), 0, seg_buf.len()));
        }
        let mut pending_pop = delivered;
        for push in memo.pushes(&effect) {
            let flat = push.flat as usize;
            if let Some(popped) = pending_pop.filter(|&popped| popped < flat) {
                patch_channel(seg_buf, patches, lengths, map, parent_buf, popped, true, 0, &[]);
                pending_pop = None;
            }
            let (appended, count) = (memo.push_bytes(push), push.count as usize);
            patch_channel(seg_buf, patches, lengths, map, parent_buf, flat, false, count, appended);
        }
        if let Some(popped) = pending_pop {
            patch_channel(seg_buf, patches, lengths, map, parent_buf, popped, true, 0, &[]);
        }

        let same_as_parent = patches.is_empty();
        let enters_cs = effect.enters_cs;
        let step = if same_as_parent {
            DeltaStep::SelfLoop
        } else {
            let h_parent = *h_parent.get_or_insert_with(|| compute_terms(parent_buf, map, terms));
            let hash = splice(parent_buf, map, patches, seg_buf, terms, h_parent, succ_buf);
            let (tally, starving) = (effect.tally, effect.starving);
            let change = Change { tally, node, starving, channels: lengths.as_slice() };
            DeltaStep::Successor { bytes: succ_buf.as_slice(), hash, change }
        };
        let stop = match diamond {
            // Debug builds only: the diamond's successor, derived the normal way.
            Some(diamond) => {
                debug_assert_eq!(enters_cs, diamond.enters_cs(), "{act:?} from state {id}");
                let derived = match step {
                    DeltaStep::Successor { bytes, .. } => bytes,
                    _ => parent_buf,
                };
                let step = DeltaStep::Completed { target: diamond.target, derived: Some(derived) };
                sink(slot, step, diamond.enters_cs())
            }
            None => {
                if idx >= first_tick && !same_as_parent {
                    every_tick_is_self_loop = false;
                }
                sink(slot, step, enters_cs)
            }
        };
        if stop {
            return (false, true);
        }
    }
    debug_assert_eq!(next_diamond, diamonds.len(), "every diamond slot is enabled at state {id}");

    (first_tick == 0 && every_tick_is_self_loop, false)
}

/// How [`Engine::on_transition`] admits a successor it interns for the first time.
enum Admit<'a> {
    /// Decode it and read its tally and facts off the decode: the interned oracle.
    Decode,
    /// Add the transition's [`Change`] to the parent's tally and recorded facts: the delta
    /// engine, which decodes nothing.
    Carry(Tally, &'a Change<'a>),
}

/// The shared bookkeeping of an exploration run: the arena, flat per-state vectors, the
/// transition table, and the report under construction.  The delta and interned loops drive
/// exactly this state machine, which is what makes their reports identical.
struct Engine<'p> {
    limits: Limits,
    properties: &'p [Property],
    /// The `k` the run's tallies count processes over: the smallest `k` a property reads
    /// (so a tally's safe verdict is safe for every property; see [`Property::holds`]).
    k: usize,
    /// The run's activation numbering: transitions and parent links store slots.
    slots: Slots,
    record_graph: bool,
    stop_on_violation: bool,
    arena: StateArena,
    /// `parents[id]` is the BFS predecessor and the slot of the activation reaching `id`;
    /// id 0 is the root and its entry is never read.
    parents: Vec<ParentLink>,
    /// `levels[d]` is the first id at BFS depth `d`: ids are assigned in discovery order,
    /// so each depth is one id range.
    levels: Vec<u32>,
    /// The depth of the state being expanded.
    level: usize,
    violated: Vec<&'static str>,
    report: ExplorationReport,
    /// The transitions of every state expanded so far, in CSR layout by state id: what the
    /// diamond search reads, and the recorded graph's edges when the run records one.  A
    /// transition the full arena dropped has no target and no record.
    transitions: Vec<Transition>,
    /// `starts[id]` is where `id`'s transitions begin; one entry per expanded state.
    starts: Vec<u32>,
    /// Facts of every admitted state, recorded with the graph.
    facts: StateFacts,
    /// The interned oracle's decode of the state being admitted, reused from state to state.
    decoded: Configuration,
    /// Configurations decoded so far, not counting the debug builds' oracle.
    decodes: usize,
    /// Debug builds: the recorded facts' two running maxima (in flight, one channel's
    /// occupancy), folded from decodes alone, for the oracle to compare with the patched
    /// ones.
    #[cfg(debug_assertions)]
    decoded_maxima: (usize, usize),
    /// Set when `stop_on_violation` fires; callers abandon the remaining work.
    stopped: bool,
}

impl<'p> Engine<'p> {
    /// A fresh engine for exploring `net`.
    fn new<P: CheckableNode, T: Topology>(
        net: &Network<P, T>,
        limits: Limits,
        properties: &'p [Property],
        record_graph: bool,
        stop_on_violation: bool,
    ) -> Self {
        let slots = Slots::for_net(net);
        Engine {
            limits,
            properties,
            k: properties.iter().filter_map(Property::k).min().unwrap_or(usize::MAX),
            facts: StateFacts::for_slots(&slots),
            slots,
            record_graph,
            stop_on_violation,
            arena: StateArena::new(),
            parents: Vec::new(),
            levels: Vec::new(),
            level: 0,
            violated: Vec::new(),
            report: ExplorationReport::default(),
            transitions: Vec::new(),
            starts: Vec::new(),
            decoded: Configuration::default(),
            decodes: 0,
            #[cfg(debug_assertions)]
            decoded_maxima: (0, 0),
            stopped: false,
        }
    }

    /// True when nothing reads a state's tally or facts: no property, no recorded graph.
    fn blind(&self) -> bool {
        self.properties.is_empty() && !self.record_graph
    }

    /// Admits the initial configuration with its `hash`, decoding it, and returns its tally.
    /// A run must feed the engine one hash scheme throughout (see
    /// [`StateArena::intern_capped_hashed`]): the interned engine always passes fx hashes,
    /// the delta engine always passes segmented hashes.
    fn admit_initial(&mut self, packed: &[u8], hash: u64) -> Tally {
        let outcome = self.arena.intern_capped_hashed(packed, hash, usize::MAX);
        debug_assert!(
            outcome == InternOutcome::Inserted(0),
            "the initial configuration must be the first interned"
        );
        self.parents.push((0, 0));
        self.levels.push(0);
        self.admit_decoded(0)
    }

    /// Starts the expansion of `id`, the next state in id order (the table relies on it),
    /// unless `id` lies at the depth limit: then the run is truncated and `false` returned.
    fn begin_expansion(&mut self, id: StateId) -> bool {
        while self.levels.get(self.level + 1).is_some_and(|&start| start <= id) {
            self.level += 1;
        }
        self.report.max_depth = self.report.max_depth.max(self.level);
        if self.level >= self.limits.max_depth {
            self.report.truncated = true;
            return false;
        }
        debug_assert_eq!(self.starts.len(), id as usize);
        self.starts.push(start_offset(self.transitions.len()));
        true
    }

    /// The BFS depth of state `id`.
    fn depth(&self, id: StateId) -> usize {
        self.levels.partition_point(|&start| start <= id) - 1
    }

    /// Records a transition, by activation slot, whose successor is already interned.
    fn on_known_transition(&mut self, slot: u32, target: StateId, enters_cs: bool) {
        self.report.transitions += 1;
        self.transitions.push(Transition::new(slot, target, enters_cs));
    }

    /// Records a transition, by activation slot, given the successor's packed bytes and
    /// their hash (see [`Engine::admit_initial`]): interns them and, when the state is new,
    /// admits it as `admit` says — its tally, recorded facts and property checks — and
    /// returns its id and tally.
    fn on_transition(
        &mut self,
        parent: StateId,
        slot: u32,
        packed: &[u8],
        hash: u64,
        enters_cs: bool,
        admit: Admit<'_>,
    ) -> Option<(StateId, Tally)> {
        self.report.transitions += 1;
        let outcome = self.arena.intern_capped_hashed(packed, hash, self.limits.max_configurations);
        let (target, fresh) = match outcome {
            InternOutcome::Existing(id) => (id, None),
            InternOutcome::Full => {
                self.report.truncated = true;
                return None;
            }
            InternOutcome::Inserted(id) => {
                debug_assert_eq!(self.depth(parent), self.level, "{parent} is being expanded");
                self.parents.push((parent, slot));
                if self.level + 1 == self.levels.len() {
                    self.levels.push(id);
                }
                let tally = match admit {
                    Admit::Decode => self.admit_decoded(id),
                    Admit::Carry(tally, change) => self.admit_carried(id, parent, tally, change),
                };
                if self.stop_on_violation && !self.report.violations.is_empty() {
                    self.stopped = true;
                }
                (id, Some((id, tally)))
            }
        };
        self.transitions.push(Transition::new(slot, target, enters_cs));
        fresh
    }

    /// Emits a deadlock witness for a quiescent state with unsatisfiable requesters.  A
    /// recorded graph's starving words already say whether there are any; without one, the
    /// state is decoded to find out.
    fn on_quiescent(&mut self, id: StateId) {
        if self.record_graph && self.facts.words(id as usize).0.iter().all(|&w| w == 0) {
            return;
        }
        let config = self.decode(id);
        let blocked = config.unsatisfied_requesters();
        if !blocked.is_empty() {
            self.report.deadlocks.push(DeadlockWitness {
                blocked,
                depth: self.depth(id),
                trace: self.trace_to(id),
                config,
            });
        }
    }

    /// Decodes state `id`, for a witness or a failed tally verdict.
    fn decode(&mut self, id: StateId) -> Configuration {
        self.decodes += 1;
        self.arena.config(id)
    }

    /// Admits state `id` by decoding it: its tally and recorded facts are read off the
    /// decode, into a buffer reused from state to state.  The interned oracle admits every
    /// state this way, the delta engine only the initial one.
    fn admit_decoded(&mut self, id: StateId) -> Tally {
        if self.blind() {
            return Tally::default();
        }
        let mut config = std::mem::take(&mut self.decoded);
        self.decodes += 1;
        unpack_configuration_into(self.arena.get(id), &mut config);
        let tally = Tally::of(&config, self.k);
        if self.record_graph {
            self.facts.record(&config, &self.slots);
            #[cfg(debug_assertions)]
            self.fold_decoded_facts(&config);
        }
        self.check_properties(id, &tally, Some(&config));
        self.decoded = config;
        tally
    }

    /// Admits state `id`, reached from `parent` (whose tally is `tally`) by a transition
    /// that made `change`, without decoding it: its tally is the parent's plus the change,
    /// its facts the parent's patched.  Debug builds decode it anyway and assert both.
    fn admit_carried(
        &mut self,
        id: StateId,
        parent: StateId,
        tally: Tally,
        change: &Change<'_>,
    ) -> Tally {
        let tally = tally.plus(change.tally);
        if self.blind() {
            return tally;
        }
        if self.record_graph {
            self.facts.record_patched(parent, change, tally.in_flight());
        }
        #[cfg(debug_assertions)]
        self.assert_carried_facts(id, parent, &tally);
        self.check_properties(id, &tally, None);
        tally
    }

    /// The debug builds' oracle of [`Engine::admit_carried`]: decodes `id` and panics when
    /// the carried tally or the patched fact words differ from what the decode says.
    #[cfg(debug_assertions)]
    fn assert_carried_facts(&mut self, id: StateId, parent: StateId, tally: &Tally) {
        let config = self.arena.config(id);
        assert_eq!(
            *tally,
            Tally::of(&config, self.k),
            "state {id}: the tally carried from state {parent} differs from its decode's"
        );
        if self.record_graph {
            let decoded = self.fold_decoded_facts(&config);
            assert_eq!(
                self.facts.words(id as usize),
                decoded.words(0),
                "state {id}: the facts patched from state {parent} differ from its decode's"
            );
            assert_eq!(
                (self.facts.max_in_flight, self.facts.max_channel_occupancy),
                self.decoded_maxima,
                "state {id}: the running maxima patched from state {parent} differ from the \
                 decodes'"
            );
        }
    }

    /// Debug builds: the facts of the decoded `config` alone, whose maxima are folded into
    /// [`Engine::decoded_maxima`].
    #[cfg(debug_assertions)]
    fn fold_decoded_facts(&mut self, config: &Configuration) -> StateFacts {
        let mut decoded = StateFacts::for_slots(&self.slots);
        decoded.record(config, &self.slots);
        let (in_flight, occupancy) = &mut self.decoded_maxima;
        *in_flight = (*in_flight).max(decoded.max_in_flight);
        *occupancy = (*occupancy).max(decoded.max_channel_occupancy);
        decoded
    }

    /// Judges every property not yet violated on the tally of the newly admitted state `id`.
    /// A failed verdict is confirmed, and the violation worded, on the configuration:
    /// `decoded` when the caller holds it, else one decode of `id`.
    fn check_properties(&mut self, id: StateId, tally: &Tally, decoded: Option<&Configuration>) {
        let mut own = None;
        for property in self.properties {
            if property.holds(tally) || self.violated.contains(&property.name()) {
                continue;
            }
            let config = match decoded {
                Some(config) => config,
                None => own.get_or_insert_with(|| self.decode(id)),
            };
            if let Err(detail) = property.check(config) {
                self.violated.push(property.name());
                self.report.violations.push(Violation {
                    property: property.name().to_string(),
                    detail,
                    depth: self.depth(id),
                    trace: self.trace_to(id),
                    config: config.clone(),
                });
            }
        }
    }

    /// Reconstructs the activation sequence from the initial configuration to `id`.
    fn trace_to(&self, mut id: StateId) -> Vec<Activation> {
        let mut trace = Vec::new();
        while id != 0 {
            let (parent, slot) = self.parents[id as usize];
            trace.push(self.slots.activation(slot));
            id = parent;
        }
        trace.reverse();
        trace
    }

    fn finish(mut self) -> (ExplorationReport, StateGraph) {
        self.report.configurations = self.arena.len();
        self.report.arena_bytes = self.arena.bytes_used();
        let ends = self.levels.iter().skip(1).copied().chain([self.arena.len() as u32]);
        self.report.frontier_sizes =
            self.levels.iter().zip(ends).map(|(start, end)| (end - start) as usize).collect();
        let graph = if self.record_graph {
            // States that were never expanded (beyond the depth limit, or abandoned after an
            // early stop) get empty transition ranges.
            let end = start_offset(self.transitions.len());
            self.starts.resize(self.arena.len() + 1, end);
            StateGraph {
                arena: self.arena,
                transitions: self.transitions,
                starts: self.starts,
                slots: self.slots,
                facts: self.facts,
            }
        } else {
            StateGraph::default()
        };
        (self.report, graph)
    }
}

/// A faithful retention of the pre-interning exploration loop (full `Configuration` values in
/// a `HashMap`, cloned on every pop and push), kept as an independent reference the engines
/// are tested against.  Counts configurations and transitions only — no properties, graph
/// recording, or deadlock detection.
#[cfg(test)]
mod baseline {
    use super::{Limits, Network, Topology};
    use crate::snapshot::{capture, restore, CheckableNode, Configuration};
    use std::collections::{HashMap, VecDeque};
    use treenet::Activation;

    /// Counts of one baseline exploration.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct BaselineReport {
        /// Number of distinct configurations visited.
        pub configurations: usize,
        /// Number of transitions executed.
        pub transitions: usize,
        /// True when the configuration limit was hit.
        pub truncated: bool,
    }

    /// Explores with the pre-interning engine: SipHash-keyed `HashMap<Configuration, usize>`
    /// visited set, full configuration clones on the hot path.
    pub fn explore<P: CheckableNode, T: Topology>(
        net: &mut Network<P, T>,
        limits: Limits,
    ) -> BaselineReport {
        let n = net.len();
        let degrees: Vec<usize> = (0..n).map(|v| net.topology().degree(v)).collect();
        let initial = capture(net);
        let mut ids: HashMap<Configuration, usize> = HashMap::new();
        let mut configs: Vec<Configuration> = Vec::new();
        let mut report = BaselineReport::default();
        ids.insert(initial.clone(), 0);
        configs.push(initial);
        let mut queue: VecDeque<usize> = VecDeque::new();
        queue.push_back(0);
        while let Some(id) = queue.pop_front() {
            let config = configs[id].clone();
            let mut activations: Vec<Activation> = Vec::new();
            for v in 0..n {
                for l in 0..degrees[v] {
                    if !config.channels[v][l].is_empty() {
                        activations.push(Activation::Deliver { node: v, channel: l });
                    }
                }
            }
            for v in 0..n {
                activations.push(Activation::Tick { node: v });
            }
            for act in activations {
                restore(net, &config);
                net.execute(act);
                let succ = capture(net);
                report.transitions += 1;
                if !ids.contains_key(&succ) {
                    if configs.len() >= limits.max_configurations {
                        report.truncated = true;
                        continue;
                    }
                    let new_id = configs.len();
                    ids.insert(succ.clone(), new_id);
                    configs.push(succ);
                    queue.push_back(new_id);
                }
            }
        }
        report.configurations = configs.len();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers;
    use crate::properties;
    use klex_core::KlConfig;
    use klex_core::Message;
    use klex_core::Rung;
    use treenet::CsState;

    /// A 2-node chain running the naive protocol with a single resource token, both processes
    /// perpetually requesting one unit: a minimal live instance whose state space is tiny.
    fn tiny_naive() -> Network<klex_core::LadderNode, topology::OrientedTree> {
        let tree = topology::builders::chain(2);
        let cfg = KlConfig::new(1, 1, 2);
        klex_core::naive::network(tree, cfg, |_| drivers::AlwaysRequest::boxed(1))
    }

    #[test]
    fn exploration_of_a_tiny_instance_terminates_and_is_exhaustive() {
        let mut net = tiny_naive();
        let cfg = KlConfig::new(1, 1, 2);
        let mut explorer = Explorer::new(&mut net)
            .with_limits(Limits { max_configurations: 50_000, max_depth: usize::MAX })
            .with_property(properties::safety(cfg));
        let report = explorer.run();
        assert!(report.exhaustive(), "2-node 1-token space must fit the limits");
        assert!(report.ok(), "safety must hold everywhere: {:?}", report.violations);
        assert!(report.configurations > 1);
        assert!(report.transitions >= report.configurations - 1);
    }

    #[test]
    fn single_requester_never_deadlocks_with_one_token() {
        let mut net = tiny_naive();
        let report = Explorer::new(&mut net)
            .with_limits(Limits { max_configurations: 50_000, max_depth: usize::MAX })
            .run();
        assert!(report.exhaustive());
        assert!(report.deadlock_free(), "deadlocks: {:?}", report.deadlocks);
    }

    #[test]
    fn violations_carry_shortest_traces() {
        // Safety with ℓ = 0 is violated as soon as any process uses a unit in its critical
        // section.  Instantaneous critical sections (AlwaysRequest) are invisible in
        // captured configurations (entry and exit happen within one activation), so use
        // drivers that hold the critical section across an activation.
        let cfg = KlConfig::new(1, 1, 2);
        let make = || {
            let tree = topology::builders::chain(2);
            klex_core::naive::network(tree, cfg, |_| drivers::HoldOneActivation::boxed(1))
        };
        let mut net = make();
        let report = Explorer::new(&mut net)
            .with_limits(Limits { max_configurations: 50_000, max_depth: usize::MAX })
            .with_property(properties::safety(KlConfig { l: 0, ..cfg }))
            .run();
        assert_eq!(report.violations.len(), 1);
        let violation = &report.violations[0];
        assert_eq!(violation.detail, "1 units in use but l = 0");
        assert!(!violation.trace.is_empty());
        assert_eq!(violation.trace.len(), violation.depth);
        assert!(violation.config.nodes.iter().any(|s| s.cs == CsState::In));

        // Replay the trace on a fresh network and confirm it reaches the reported config.
        let mut fresh = make();
        for act in &violation.trace {
            fresh.execute(*act);
        }
        assert_eq!(crate::snapshot::capture(&fresh), violation.config);
    }

    #[test]
    fn limits_truncate_and_are_reported() {
        let mut net = tiny_naive();
        let report = Explorer::new(&mut net)
            .with_limits(Limits { max_configurations: 3, max_depth: usize::MAX })
            .run();
        assert!(report.truncated);
        assert!(report.configurations <= 3);
    }

    #[test]
    fn recorded_graph_matches_report_counts() {
        let mut net = tiny_naive();
        let mut explorer = Explorer::new(&mut net)
            .with_limits(Limits { max_configurations: 50_000, max_depth: usize::MAX })
            .record_graph(true);
        let report = explorer.run();
        let graph = explorer.graph();
        assert_eq!(graph.len(), report.configurations);
        assert!(graph.transition_count() > 0);
        // Every edge target is a valid configuration index.
        for id in 0..graph.len() {
            for edge in graph.edges(id) {
                assert!((edge.target as usize) < graph.len());
            }
        }
    }

    #[test]
    fn depth_limit_bounds_the_frontier() {
        let mut net = tiny_naive();
        let report = Explorer::new(&mut net)
            .with_limits(Limits { max_configurations: 50_000, max_depth: 2 })
            .run();
        assert!(report.max_depth <= 2);
        assert!(report.truncated, "a live protocol has configurations beyond depth 2");
    }

    #[test]
    fn naive_deadlock_is_reachable_on_a_minimal_figure2_instance() {
        // A minimal instance of the Figure-2 phenomenon: ℓ = 2 tokens, two requesters that
        // each need both.  Exploration from the *clean* initial state must find the reachable
        // deadlock in which each requester hoards one token and neither can ever proceed.
        let tree = topology::builders::chain(3);
        let cfg = KlConfig::new(2, 2, 3);
        let needs = [0usize, 2, 2];
        let mut net = klex_core::naive::network(tree, cfg, drivers::from_needs(&needs));
        let report = Explorer::new(&mut net)
            .with_limits(Limits { max_configurations: 200_000, max_depth: usize::MAX })
            .run();
        assert!(report.exhaustive(), "the 3-node 2-token space must fit the limits");
        assert!(
            !report.deadlock_free(),
            "the naive protocol must reach a Figure-2-style deadlock (explored {} configurations)",
            report.configurations,
        );
        let witness = &report.deadlocks[0];
        assert_eq!(witness.blocked.len(), 2, "both requesters are blocked");
        // In the deadlock every resource token is reserved by a blocked requester.
        assert_eq!(witness.config.messages_in_flight(), 0);
        assert_eq!(witness.config.census().resource, 2);
    }

    #[test]
    fn closure_holds_for_the_self_stabilizing_protocol_on_figure3() {
        // Closure (Definition 1): from a legitimate configuration, every reachable
        // configuration is legitimate.  Explore the full protocol from a stabilized
        // configuration of the Figure-3 instance and check the legitimacy predicate
        // everywhere.
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(2, 2, 3).with_cmax(0);
        let mut net = crate::scenarios::stabilized_ss(
            tree,
            cfg,
            |_| drivers::AlwaysRequest::boxed(1),
            500_000,
        );
        let report = Explorer::new(&mut net)
            .with_limits(Limits { max_configurations: 150_000, max_depth: usize::MAX })
            .with_property(properties::legitimate(cfg))
            .with_property(properties::safety(cfg))
            .run();
        assert!(report.ok(), "closure violated: {:?}", report.violations);
        assert!(report.deadlock_free());
        assert!(
            report.configurations > 100,
            "the exploration should cover a non-trivial reachable set, got {}",
            report.configurations
        );
    }

    #[test]
    fn a_clean_exploration_decodes_only_its_initial_configuration() {
        // Closure on the stabilized Figure-3 instance with graph recording: every admitted
        // state's tally and facts are carried from its parent, so outside the debug oracle
        // the run decodes the initial configuration and nothing else.
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(2, 2, 3).with_cmax(0);
        let mut net = crate::scenarios::stabilized_ss(
            tree,
            cfg,
            |_| drivers::AlwaysRequest::boxed(1),
            500_000,
        );
        let (report, stats) = Explorer::new(&mut net)
            .with_limits(Limits { max_configurations: 150_000, max_depth: usize::MAX })
            .with_property(properties::legitimate(cfg))
            .with_property(properties::safety(cfg))
            .record_graph(true)
            .run_delta();
        assert!(report.ok() && report.deadlock_free() && report.exhaustive());
        assert!(report.configurations > 100, "{} configurations", report.configurations);
        assert_eq!(stats.decodes, 1);
    }

    #[test]
    fn a_quiescent_state_without_a_blocked_requester_is_decoded_only_without_a_graph() {
        // Process 0 takes the only unit and keeps it while process 1 never asks: a quiescent
        // configuration with no requester blocked.  Without a recorded graph the engine
        // decodes it to find out; with one, the starving words already say so.
        let cfg = KlConfig::new(1, 1, 2);
        let run = |record| {
            let mut net = klex_core::naive::network(topology::builders::chain(2), cfg, |v| {
                if v == 0 {
                    drivers::RequestAndHold::boxed(1)
                } else {
                    drivers::NeverRequest::boxed()
                }
            });
            Explorer::new(&mut net)
                .with_limits(Limits { max_configurations: 50_000, max_depth: usize::MAX })
                .with_property(properties::safety(cfg))
                .record_graph(record)
                .run_delta()
        };
        let (unrecorded, unrecorded_stats) = run(false);
        let (recorded, stats) = run(true);
        assert!(unrecorded.deadlock_free() && recorded.deadlock_free());
        assert!(unrecorded_stats.decodes > 1, "the quiescent states are decoded");
        assert_eq!(stats.decodes, 1);
    }

    #[test]
    fn garbage_message_is_consumed_not_forwarded() {
        let mut net = tiny_naive();
        net.inject_into(1, 0, Message::Garbage(7));
        let report = Explorer::new(&mut net)
            .with_limits(Limits { max_configurations: 50_000, max_depth: usize::MAX })
            .continue_on_violation()
            .with_property(properties::no_garbage())
            .run();
        // The initial configuration violates no-garbage, but the violation is at depth 0 and
        // the garbage disappears after delivery (it is never retransmitted).
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].depth, 0);
        assert!(report.exhaustive());
    }

    #[test]
    fn delta_and_interned_engines_agree_under_a_depth_limit() {
        // A finite depth limit leaves the horizon's states unexpanded; both engines must
        // leave the same ones and report the same truncated space.
        let needs = [0usize, 2, 0, 2, 0, 1, 0];
        let cfg = KlConfig::new(2, 2, 7);
        let make = || {
            let tree = topology::builders::random_tree(7, 0xD153A5E);
            klex_core::naive::network(tree, cfg, drivers::from_needs(&needs))
        };
        for max_depth in [2, 5, 9] {
            let limits = Limits { max_configurations: 2_000_000, max_depth };
            let interned = Explorer::new(&mut make()).with_limits(limits).run_interned();
            let delta = Explorer::new(&mut make()).with_limits(limits).run();
            assert_eq!(delta.configurations, interned.configurations, "depth {max_depth}");
            assert_eq!(delta.transitions, interned.transitions, "depth {max_depth}");
            assert_eq!(delta.max_depth, interned.max_depth, "depth {max_depth}");
            assert_eq!(delta.truncated, interned.truncated, "depth {max_depth}");
            assert_eq!(delta.frontier_sizes, interned.frontier_sizes, "depth {max_depth}");
        }
    }

    #[test]
    fn delta_and_interned_engines_produce_identical_reports() {
        let limits = Limits { max_configurations: 200_000, max_depth: usize::MAX };
        let cfg = KlConfig::new(2, 2, 3);
        let needs = [0usize, 2, 2];
        let make = || {
            klex_core::naive::network(
                topology::builders::chain(3),
                cfg,
                drivers::from_needs(&needs),
            )
        };

        let mut net = make();
        let mut interned_explorer = Explorer::new(&mut net).with_limits(limits).record_graph(true);
        let interned = interned_explorer.run_interned();
        let interned_graph = interned_explorer.into_graph();

        let mut net = make();
        let mut delta_explorer = Explorer::new(&mut net).with_limits(limits).record_graph(true);
        let delta = delta_explorer.run();
        let delta_graph = delta_explorer.into_graph();

        assert_eq!(delta.configurations, interned.configurations);
        assert_eq!(delta.transitions, interned.transitions);
        assert_eq!(delta.max_depth, interned.max_depth);
        assert_eq!(delta.frontier_sizes, interned.frontier_sizes);
        assert_eq!(delta.truncated, interned.truncated);
        assert_eq!(delta.deadlocks.len(), interned.deadlocks.len());
        for (d, i) in delta.deadlocks.iter().zip(&interned.deadlocks) {
            assert_eq!(d.depth, i.depth);
            assert_eq!(d.blocked, i.blocked);
            assert_eq!(d.trace, i.trace);
            assert_eq!(d.config, i.config);
        }
        // Identical graphs, id for id: same packed states, same edges.
        assert_eq!(delta_graph.len(), interned_graph.len());
        assert_eq!(delta_graph.transition_count(), interned_graph.transition_count());
        for id in 0..delta_graph.len() {
            assert_eq!(delta_graph.packed(id), interned_graph.packed(id), "state {id}");
            let de: Vec<Edge> = delta_graph.edges(id).collect();
            let ie: Vec<Edge> = interned_graph.edges(id).collect();
            assert_eq!(de, ie, "state {id}");
        }
    }

    #[test]
    fn delta_engine_respects_truncation_limits_identically() {
        let cfg = KlConfig::new(1, 1, 2);
        let make = || {
            klex_core::naive::network(topology::builders::chain(2), cfg, |_| {
                drivers::AlwaysRequest::boxed(1)
            })
        };
        let limits = Limits { max_configurations: 7, max_depth: usize::MAX };
        let mut net = make();
        let interned = Explorer::new(&mut net).with_limits(limits).run_interned();
        let mut net = make();
        let delta = Explorer::new(&mut net).with_limits(limits).run();
        assert!(interned.truncated && delta.truncated);
        assert_eq!(delta.configurations, interned.configurations);
        assert_eq!(delta.transitions, interned.transitions);
        assert_eq!(delta.frontier_sizes, interned.frontier_sizes);
    }

    /// Explores `net` with graph recording and returns the graph.
    fn recorded_graph<P: CheckableNode>(
        mut net: Network<P, topology::OrientedTree>,
        max_configurations: usize,
    ) -> StateGraph {
        let limits = Limits { max_configurations, max_depth: usize::MAX };
        let mut explorer = Explorer::new(&mut net).with_limits(limits).record_graph(true);
        explorer.run();
        explorer.into_graph()
    }

    /// Decodes every configuration of `graph` and checks the facts recorded at admission
    /// against it: starving and non-empty-channel bits, channel numbering, and the summary.
    fn assert_facts_match_decoding(graph: &StateGraph, instance: &str) {
        assert!(!graph.is_empty(), "{instance}");
        let n = graph.processes();
        for id in 0..graph.len() {
            let config = graph.config(id);
            assert_eq!(config.nodes.len(), n, "{instance}");
            let starving = config.unsatisfied_requesters();
            for v in 0..n {
                let expected = starving.contains(&v);
                assert_eq!(graph.starves(id, v), expected, "{instance}: state {id}, process {v}");
            }
            let mut flat = 0;
            for (v, per_node) in config.channels.iter().enumerate() {
                for (l, channel) in per_node.iter().enumerate() {
                    assert_eq!(graph.flat_channel(v, l), flat, "{instance}");
                    assert_eq!(
                        graph.channel_nonempty(id, flat),
                        !channel.is_empty(),
                        "{instance}: state {id}, channel ({v}, {l})"
                    );
                    flat += 1;
                }
            }
            assert_eq!(graph.channel_count(), flat, "{instance}");
        }
        assert_eq!(GraphSummary::of(graph), GraphSummary::of_decoded(graph), "{instance}");
    }

    #[test]
    fn recorded_facts_match_a_decode_of_every_configuration() {
        let needs = [1usize, 2, 1];
        let cfg = KlConfig::new(2, 3, 3);
        let fig3 = topology::builders::figure3_tree;
        let holding = || drivers::from_needs_holding(&needs);
        for rung in Rung::ALL {
            let net = klex_core::ladder::network(rung, fig3(), cfg, holding());
            let graph = recorded_graph(net, 50_000);
            assert_facts_match_decoding(&graph, &format!("{rung:?} figure 3"));
        }
        let ss = crate::scenarios::ss_for_checking(fig3(), KlConfig::new(2, 3, 3), |_| {
            drivers::AlwaysRequest::boxed(1)
        });
        assert_facts_match_decoding(&recorded_graph(ss, 50_000), "ss figure 3");
        let star_needs = [0usize, 2, 1, 2, 1];
        let star = || {
            klex_core::pusher::network(
                topology::builders::star(5),
                KlConfig::new(2, 3, 5),
                drivers::from_needs_holding(&star_needs),
            )
        };
        assert_facts_match_decoding(&recorded_graph(star(), 50_000), "pusher star5");
        let truncated = recorded_graph(star(), 300);
        assert_eq!(truncated.len(), 300, "the budget truncates the star");
        assert_facts_match_decoding(&truncated, "truncated pusher star5");
    }

    #[test]
    fn transitions_and_parent_links_are_8_bytes_and_edges_name_only_the_activated_process() {
        assert_eq!(std::mem::size_of::<Transition>(), 8);
        assert_eq!(std::mem::size_of::<ParentLink>(), 8);
        let record = Transition::new(CS_ENTRY - 1, StateId::MAX, true);
        assert_eq!(
            (record.slot(), record.target, record.enters_cs()),
            (CS_ENTRY - 1, StateId::MAX, true)
        );
        assert!(!Transition::new(7, 9, false).enters_cs());

        let tick = Edge { action: Activation::Tick { node: 4 }, target: 9, enters_cs: true };
        assert_eq!(tick.cs_entry(), Some(4));
        let action = Activation::Deliver { node: 2, channel: 1 };
        let deliver = Edge { action, target: 9, enters_cs: false };
        assert_eq!(deliver.cs_entry(), None);
    }

    #[test]
    #[should_panic(expected = "a start offset does not fit its 32-bit field")]
    fn a_start_offset_beyond_32_bits_fails_by_name() {
        start_offset(u32::MAX as usize + 1);
    }

    #[test]
    fn memo_misses_once_per_distinct_local_transition_on_figure3() {
        // The pusher-only Figure-3 instance: 7842 transitions out of 1560 configurations,
        // but only 42 distinct (process, activation, local state, head message) inputs —
        // all other transitions are memo hits.  A change that silently stops hitting (a key
        // that includes too much, an entry that is never reused) moves the count.
        let mut net = klex_core::pusher::network(
            topology::builders::figure3_tree(),
            KlConfig::new(2, 3, 3),
            drivers::from_needs_holding(&[1, 2, 1]),
        );
        let limits = Limits { max_configurations: 50_000, max_depth: usize::MAX };
        let (report, stats) = Explorer::new(&mut net).with_limits(limits).run_delta();
        assert!(report.exhaustive());
        assert_eq!(report.configurations, 1560);
        assert_eq!(report.transitions, 7842);
        assert_eq!(stats.misses, 42, "memo misses on the Figure-3 pusher instance");
        assert_eq!(stats.completed, 4570, "diamond completions on the Figure-3 pusher instance");
    }

    #[test]
    fn diamonds_never_complete_through_a_transition_the_full_arena_dropped() {
        // Under a configuration cap the full arena drops every transition to a configuration
        // it has no room for, so those transitions have no target.  A diamond must never use
        // one as a side: capped runs, with and without the recorded graph (and its liveness
        // pass), still report exactly what the interned oracle reports.  A run without the
        // graph keeps the same transition table, so it completes exactly as many diamonds as
        // a recording run.
        let make = || {
            klex_core::pusher::network(
                topology::builders::figure3_tree(),
                KlConfig::new(2, 3, 3),
                drivers::from_needs_holding(&[1, 2, 1]),
            )
        };
        for max_configurations in [200, 700, 1200] {
            let mut completed = Vec::new();
            for liveness in [false, true] {
                let limits = Limits { max_configurations, max_depth: usize::MAX };
                let mut net = make();
                let mut explorer =
                    Explorer::new(&mut net).with_limits(limits).check_liveness(liveness);
                let (delta, stats) = explorer.run_delta();
                let delta_graph = explorer.into_graph();
                let mut net = make();
                let mut explorer =
                    Explorer::new(&mut net).with_limits(limits).check_liveness(liveness);
                let interned = explorer.run_interned();
                let interned_graph = explorer.into_graph();

                let case = format!("cap {max_configurations}, liveness {liveness}");
                assert!(delta.truncated && stats.completed > 0, "{case}");
                assert_eq!(format!("{delta:?}"), format!("{interned:?}"), "{case}");
                assert_eq!(delta_graph.len(), interned_graph.len(), "{case}");
                for id in 0..delta_graph.len() {
                    let delta_edges: Vec<Edge> = delta_graph.edges(id).collect();
                    let interned_edges: Vec<Edge> = interned_graph.edges(id).collect();
                    assert_eq!(delta_edges, interned_edges, "{case}: {id}");
                }
                completed.push(stats.completed);
            }
            assert_eq!(completed[0], completed[1], "cap {max_configurations}");
        }
    }

    /// A driver with state outside its process's capture: it releases the critical section
    /// on its first `k` calls and holds it forever after, so from then on its process keeps
    /// the tokens it used to send on.
    struct ReleasesKTimes {
        calls: usize,
        k: usize,
    }

    impl treenet::app::AppDriver for ReleasesKTimes {
        fn next_request(&mut self, _node: NodeId, _now: u64) -> Option<usize> {
            Some(1)
        }

        fn release_cs(&mut self, _node: NodeId, _now: u64, _entered_at: u64) -> bool {
            self.calls += 1;
            self.calls <= self.k
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "process 1: Deliver { node: 1, channel: 0 } from a (local state, \
                               head message) seen before changed the configuration differently")]
    fn memo_oracle_names_a_process_whose_behaviour_escapes_its_capture() {
        let mut net = klex_core::pusher::network(
            topology::builders::figure3_tree(),
            KlConfig::new(2, 3, 3),
            |node| -> treenet::app::BoxedDriver {
                if node == 1 {
                    Box::new(ReleasesKTimes { calls: 0, k: 5 })
                } else {
                    drivers::AlwaysRequest::boxed(1)
                }
            },
        );
        Explorer::new(&mut net)
            .with_limits(Limits { max_configurations: 50_000, max_depth: usize::MAX })
            .run();
    }

    #[test]
    fn baseline_engine_agrees_with_the_interned_engine() {
        let limits = Limits { max_configurations: 200_000, max_depth: usize::MAX };
        let cfg = KlConfig::new(2, 2, 3);
        let needs = [0usize, 2, 2];
        let make = || {
            klex_core::naive::network(
                topology::builders::chain(3),
                cfg,
                drivers::from_needs(&needs),
            )
        };
        let base = baseline::explore(&mut make(), limits);
        assert!(!base.truncated);
        let delta = Explorer::new(&mut make()).with_limits(limits).run();
        let interned = Explorer::new(&mut make()).with_limits(limits).run_interned();
        for (engine, report) in [("delta", delta), ("interned", interned)] {
            assert_eq!(base.configurations, report.configurations, "{engine}");
            assert_eq!(base.transitions, report.transitions, "{engine}");
            assert!(!report.truncated, "{engine}");
        }
    }
}
