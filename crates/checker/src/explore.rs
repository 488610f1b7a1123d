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
//!   the Figure-3 instance's 1 084 273.  Runs that record the graph read its edges; other
//!   runs keep an 8-byte (activation slot, target) entry per transition;
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
//! * per-state bookkeeping (parent links, depths, recorded edges) lives in flat vectors
//!   indexed by state id, shared by the report and the recorded [`StateGraph`];
//! * a full [`Configuration`] is decoded **once per admitted state**, into a reused buffer,
//!   for the property checks and (when the graph is recorded) the per-state facts the graph
//!   analyses read; otherwise only witnesses decode.
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

use crate::properties::Property;
use crate::snapshot::{capture_packed, restore_packed, CheckableNode, Configuration, NodeState};
use crate::snapshot::{
    encode_node_segment, map_packed, message_len, segment_term, unpack_configuration_into,
    write_message, write_varint, SegmentMap,
};
use crate::snapshot::{InternOutcome, StateArena, StateId};
use std::collections::VecDeque;
use topology::Topology;
use treenet::{Activation, CsState, Network, NodeId, StepUndo};

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
#[derive(Clone, Debug)]
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
#[derive(Clone, Debug)]
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

/// One outgoing transition of the explored state graph: 32 bytes, no heap data.
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

/// The explored fragment of the configuration graph (kept only when
/// [`Explorer::record_graph`] is enabled); used by the starvation-cycle analysis.
///
/// States are stored packed in a [`StateArena`]; edges live in one flat vector sliced per
/// state id (CSR layout), which is possible because BFS expands states in id order.  Next to
/// each state the graph keeps the facts the cycle analyses and [`GraphSummary`] read —
/// which processes are unsatisfied requesters, which channels hold a message — recorded
/// when the state was admitted, from the one decode the explorer performs per state, so no
/// analysis decodes a state again.
#[derive(Clone, Debug, Default)]
pub struct StateGraph {
    arena: StateArena,
    edges: Vec<Edge>,
    /// `edge_starts[id]..edge_starts[id + 1]` delimits the edges of `id`; has `len + 1`
    /// entries (empty for the empty graph).
    edge_starts: Vec<u32>,
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
    /// `chan_base[v] + l` is the flat index of channel `(v, l)`; `n + 1` entries, set by the
    /// first recorded state (every state of one graph has the same shape).
    chan_base: Vec<usize>,
    /// Bit `v` of a state's words: process `v` is an unsatisfied requester
    /// (`State = Req ∧ |RSet| < Need`).
    starving: Vec<u64>,
    /// Bit `c` of a state's words: flat channel `c` holds at least one message.
    chan_nonempty: Vec<u64>,
    /// Largest total number of in-flight messages over the recorded states.
    max_in_flight: usize,
    /// Largest occupancy of one channel over the recorded states.
    max_channel_occupancy: usize,
}

impl StateFacts {
    /// Appends the facts of the next state, decoded as `config`.
    fn record(&mut self, config: &Configuration) {
        if self.chan_base.is_empty() {
            self.chan_base.push(0);
            for per_node in &config.channels {
                self.chan_base.push(self.chan_base.last().copied().unwrap_or(0) + per_node.len());
            }
            self.node_words = config.nodes.len().div_ceil(64);
            self.chan_words = self.channel_count().div_ceil(64);
        }
        let base = self.starving.len();
        self.starving.resize(base + self.node_words, 0);
        for (v, s) in config.nodes.iter().enumerate() {
            if s.cs == CsState::Req && s.rset.len() < s.need {
                self.starving[base + v / 64] |= 1 << (v % 64);
            }
        }
        let base = self.chan_nonempty.len();
        self.chan_nonempty.resize(base + self.chan_words, 0);
        let mut in_flight = 0;
        for (per_node, &chan_base) in config.channels.iter().zip(&self.chan_base) {
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

    fn channel_count(&self) -> usize {
        self.chan_base.last().copied().unwrap_or(0)
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

    /// Outgoing transitions of configuration `id`.
    pub fn edges(&self, id: usize) -> &[Edge] {
        let start = self.edge_starts[id] as usize;
        let end = self.edge_starts[id + 1] as usize;
        &self.edges[start..end]
    }

    /// Id of the initial configuration (always 0).
    pub fn initial(&self) -> usize {
        0
    }

    /// Total number of recorded transitions.
    pub fn transition_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of processes of the explored network (0 for the empty graph).
    pub fn processes(&self) -> usize {
        self.facts.chan_base.len().saturating_sub(1)
    }

    /// Number of channels of the explored network (0 for the empty graph).
    pub fn channel_count(&self) -> usize {
        self.facts.channel_count()
    }

    /// The flat index of node `node`'s incoming channel `label`: channels are numbered in
    /// `(node, label)` order, as in the packed encoding.
    pub fn flat_channel(&self, node: NodeId, label: usize) -> usize {
        self.facts.chan_base[node] + label
    }

    /// True when process `node` is an unsatisfied requester (`State = Req ∧ |RSet| < Need`)
    /// in configuration `id`.
    pub fn starves(&self, id: usize, node: NodeId) -> bool {
        assert!(node < self.processes(), "process {node} is not in the graph");
        self.facts.starving[id * self.facts.node_words + node / 64] & (1 << (node % 64)) != 0
    }

    /// True when flat channel `flat` (see [`StateGraph::flat_channel`]) holds at least one
    /// message in configuration `id`.
    pub fn channel_nonempty(&self, id: usize, flat: usize) -> bool {
        self.facts.chan_nonempty[id * self.facts.chan_words + flat / 64] & (1 << (flat % 64)) != 0
    }
}

/// Cheap structural facts about the recorded state graph, exported on
/// [`ExplorationReport::graph_summary`] when graph recording was enabled.
///
/// These are the checker-side raw features of the fuzzer's coverage signature (see
/// `analysis::coverage`): strongly-connected-component structure and channel-occupancy
/// extremes summarize the *shape* of the explored graph in a handful of integers, cheaply
/// (one linear Tarjan pass; the occupancy maxima come from the per-configuration decode the
/// explorer performs anyway when it admits a state).  Identical across engines — the graphs
/// are identical by the parity contract, and the summary is a pure function of the graph.
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
        let in_scope = vec![true; n];
        let scc = crate::cycles::tarjan_scc(graph, &in_scope);
        let comp_count = scc.iter().max().map_or(0, |&c| c as usize + 1);
        let mut sizes = vec![0usize; comp_count];
        for &comp in &scc {
            sizes[comp as usize] += 1;
        }
        let mut self_loop = vec![false; comp_count];
        for id in 0..n {
            if graph.edges(id).iter().any(|edge| edge.target as usize == id) {
                self_loop[scc[id] as usize] = true;
            }
        }
        GraphSummary {
            scc_count: comp_count,
            largest_scc: sizes.iter().copied().max().unwrap_or(0),
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
    /// Structural summary of the recorded state graph (SCC structure, channel-occupancy
    /// extremes); `None` unless graph recording ([`Explorer::record_graph`] or
    /// [`Explorer::check_liveness`]) was enabled.  Engine-independent, like every other
    /// field.
    pub graph_summary: Option<GraphSummary>,
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
    properties: Vec<Box<dyn Property>>,
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
    pub fn with_property(mut self, property: Box<dyn Property>) -> Self {
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
        let mut scratch = DeltaScratch::for_net(net);
        let record_graph = self.record_graph;

        let mut engine =
            Engine::new(self.limits, &self.properties, self.record_graph, self.stop_on_violation);
        // A recording run finds expanded states' transitions in the graph it builds; any
        // other run keeps just their slots and targets.
        let mut table = SuccessorTable::default();
        let mut completed = 0usize;

        let mut parent_buf = Vec::new();
        capture_packed(net, &mut parent_buf);
        map_packed(&parent_buf, &mut scratch.map);
        let h_initial = compute_terms(&parent_buf, &scratch.map, &mut scratch.terms);
        engine.admit_initial_hashed(&parent_buf, h_initial);

        let mut queue: VecDeque<StateId> = VecDeque::new();
        queue.push_back(0);

        let mut ticker = ProgressTicker::new(progress);
        'outer: while let Some(id) = queue.pop_front() {
            if ticker.observe(&mut engine) {
                break 'outer;
            }
            let depth = engine.depths[id as usize] as usize;
            engine.report.max_depth = engine.report.max_depth.max(depth);
            if depth >= engine.limits.max_depth {
                engine.report.truncated = true;
                continue;
            }
            engine.begin_expansion(id);
            if !record_graph {
                table.starts.push(table.entries.len() as u32);
            }
            scratch.diamonds.clear();
            if id != 0 {
                let via = engine.parents[id as usize];
                let (slots, diamonds) = (&scratch.slots, &mut scratch.diamonds);
                if record_graph {
                    find_diamonds(&engine.edges, &engine.edge_starts, slots, id, via, diamonds);
                } else {
                    find_diamonds(&table.entries, &table.starts, slots, id, via, diamonds);
                }
            }

            // Load the parent once; all siblings are derived in place and reverted.
            parent_buf.clear();
            parent_buf.extend_from_slice(engine.arena.get(id));

            let (quiescent, stopped) = expand_state_delta(
                net,
                &mut scratch,
                id,
                &parent_buf,
                record_graph,
                &mut |slot, act, step, enters_cs| {
                    let target = match step {
                        DeltaStep::SelfLoop => {
                            engine.on_known_transition(act, id, enters_cs);
                            Some(id)
                        }
                        DeltaStep::Completed { target, derived } => {
                            if let Some(bytes) = derived {
                                assert!(
                                    engine.arena.get(target) == bytes,
                                    "process {}: {act:?} from state {id} commutes with the \
                                     activation reaching it, but executing it does not reach \
                                     the diamond's far corner, state {target}",
                                    act.node()
                                );
                            }
                            completed += 1;
                            engine.on_known_transition(act, target, enters_cs);
                            Some(target)
                        }
                        DeltaStep::Successor { bytes, hash } => {
                            match engine.on_transition_hashed(id, act, bytes, hash, enters_cs) {
                                InternOutcome::Inserted(new_id) => {
                                    queue.push_back(new_id);
                                    Some(new_id)
                                }
                                InternOutcome::Existing(target) => Some(target),
                                InternOutcome::Full => None,
                            }
                        }
                    };
                    if let (false, Some(target)) = (record_graph, target) {
                        table.entries.push(Successor { slot, target });
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
        let stats = DeltaStats { misses: scratch.memo.misses, completed };
        (self.finish_run(engine.finish()), stats)
    }

    /// The interned reference engine: per transition, restore the parent's packed bytes,
    /// execute, capture and hash the full successor.  Retained as the oracle the delta
    /// engine's parity suite runs against.
    pub fn run_interned(&mut self) -> ExplorationReport {
        let progress = self.progress;
        let net = &mut *self.net;
        let mut engine =
            Engine::new(self.limits, &self.properties, self.record_graph, self.stop_on_violation);
        let mut scratch = Vec::new();
        capture_packed(net, &mut scratch);
        engine.admit_initial(&scratch);

        let mut queue: VecDeque<StateId> = VecDeque::new();
        queue.push_back(0);

        let mut ticker = ProgressTicker::new(progress);
        'outer: while let Some(id) = queue.pop_front() {
            if ticker.observe(&mut engine) {
                break 'outer;
            }
            let depth = engine.depths[id as usize] as usize;
            engine.report.max_depth = engine.report.max_depth.max(depth);
            if depth >= engine.limits.max_depth {
                engine.report.truncated = true;
                continue;
            }
            engine.begin_expansion(id);

            let (activations, first_tick) = enumerate_activations(net, &engine.arena, id);

            let mut every_tick_is_self_loop = true;
            for (idx, act) in activations.iter().enumerate() {
                let (same_as_parent, enters_cs) = execute_transition(
                    net,
                    &engine.arena,
                    id,
                    *act,
                    &mut scratch,
                    engine.record_graph,
                );
                if idx >= first_tick && !same_as_parent {
                    every_tick_is_self_loop = false;
                }
                let admitted = engine.on_transition(id, *act, &scratch, enters_cs);
                if let Some(new_id) = admitted {
                    queue.push_back(new_id);
                }
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
    fn finish_run(&mut self, (mut report, graph): (ExplorationReport, StateGraph)) -> ExplorationReport {
        self.graph = graph;
        if self.record_graph {
            report.graph_summary = Some(GraphSummary::of(&self.graph));
        }
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
    let mut entries = net
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(e.event, treenet::Event::EnterCs { .. }));
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
/// activated process entered its critical section (always `false` unless `collect_cs`).
fn execute_transition<P: CheckableNode, T: Topology>(
    net: &mut Network<P, T>,
    arena: &StateArena,
    id: StateId,
    act: Activation,
    scratch: &mut Vec<u8>,
    collect_cs: bool,
) -> (bool, bool) {
    restore_packed(net, arena.get(id));
    net.trace_mut().clear();
    net.execute(act);
    capture_packed(net, scratch);
    let enters_cs = collect_cs && entered_cs(net, act);
    let same_as_parent = scratch[..] == *arena.get(id);
    (same_as_parent, enters_cs)
}

/// A dense numbering of a network's activations in the canonical expansion order: the
/// delivery on flat channel `c` (channel `(v, l)` is flat `chan_base[v] + l`) is slot `c`,
/// the tick of process `v` is slot `channels + v`.  A state's enabled activations, and so
/// its recorded transitions, come in ascending slot order.
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
        Slots { chan_base, chan_pos }
    }

    fn channels(&self) -> usize {
        self.chan_pos.len()
    }

    /// The slot of `act`.
    fn of(&self, act: Activation) -> u32 {
        (match act {
            Activation::Deliver { node, channel } => self.chan_base[node] + channel,
            Activation::Tick { node } => self.channels() + node,
        }) as u32
    }

    /// The process activated in `slot`.
    fn node(&self, slot: u32) -> NodeId {
        let slot = slot as usize;
        match self.chan_pos.get(slot) {
            Some(&(node, _)) => node,
            None => slot - self.channels(),
        }
    }
}

/// One outgoing transition of an expanded state, as the diamond search reads it: the
/// recorded graph's [`Edge`]s, or the compact [`Successor`]s a run without a graph keeps.
trait ExpandedEdge {
    fn slot(&self, slots: &Slots) -> u32;
    fn target(&self) -> StateId;
    /// Whether the activated process entered its critical section (recorded graphs only).
    fn enters_cs(&self) -> bool;
}

impl ExpandedEdge for Edge {
    fn slot(&self, slots: &Slots) -> u32 {
        slots.of(self.action)
    }

    fn target(&self) -> StateId {
        self.target
    }

    fn enters_cs(&self) -> bool {
        self.enters_cs
    }
}

/// One transition in a [`SuccessorTable`]: 8 bytes.
struct Successor {
    slot: u32,
    target: StateId,
}

impl ExpandedEdge for Successor {
    fn slot(&self, _: &Slots) -> u32 {
        self.slot
    }

    fn target(&self) -> StateId {
        self.target
    }

    fn enters_cs(&self) -> bool {
        false
    }
}

/// The transitions of every state a delta run without a recorded graph has expanded —
/// what a recording run reads off its graph's edges — in the same CSR layout by state id.
/// A transition the full arena dropped has no target and no entry.
#[derive(Default)]
struct SuccessorTable {
    entries: Vec<Successor>,
    starts: Vec<u32>,
}

/// A transition of the state being expanded whose successor a commuting diamond already
/// names (see [`find_diamonds`]).
#[derive(Clone, Copy, Debug)]
struct Diamond {
    slot: u32,
    target: StateId,
    enters_cs: bool,
}

/// Appends to `out`, in ascending slot order, the transitions of state `id` (BFS parent
/// `parent`, reached by `via`) whose successors are already known.
///
/// Let `t2` be an activation of a process other than `via`'s, enabled at the parent, and
/// let `q` be the parent's `t2`-successor.  The two activations commute: each reads only
/// its own process's state and the head of its own incoming channel, and writes only its
/// own state, that head and the tails of its out-channels (one writer per channel, and a
/// push leaves a non-empty channel's head alone).  So `t2` is enabled at `id` with the same
/// local effect as at the parent, `via` is enabled at `q` with the same effect as at the
/// parent, and `id·t2 = q·via`.  When `q` was expanded before `id`, its `via`-edge names
/// that configuration, and the parent's `t2`-edge says whether `t2` enters a critical
/// section.  `edges`/`starts` hold the transitions of every state expanded so far, in CSR
/// layout; a transition the full arena dropped is absent, so it never completes a diamond.
fn find_diamonds<E: ExpandedEdge>(
    edges: &[E],
    starts: &[u32],
    slots: &Slots,
    id: StateId,
    (parent, via): (StateId, Activation),
    out: &mut Vec<Diamond>,
) {
    let range =
        |state: StateId| starts[state as usize] as usize..starts[state as usize + 1] as usize;
    let via_slot = slots.of(via);
    for side in &edges[range(parent)] {
        let (q, slot) = (side.target(), side.slot(slots));
        if q >= id || slots.node(slot) == via.node() {
            continue;
        }
        let far = &edges[range(q)];
        if let Ok(i) = far.binary_search_by_key(&via_slot, |edge| edge.slot(slots)) {
            out.push(Diamond { slot, target: far[i].target(), enters_cs: side.enters_cs() });
        }
    }
}

/// Reusable buffers of the delta engine — one set per run, so expansions allocate nothing
/// per state.
struct DeltaScratch {
    slots: Slots,
    map: SegmentMap,
    terms: Vec<u64>,
    undo: StepUndo<klex_core::Message>,
    activations: Vec<Activation>,
    /// The transitions of the state being expanded that diamonds complete, by slot.
    diamonds: Vec<Diamond>,
    /// The flat channels one executed activation pushed, sorted (one entry per message).
    pushed: Vec<usize>,
    /// Dirty-segment patches: (segment index, span of the new bytes in `seg_buf`), in
    /// ascending parent-span order.
    patches: Vec<(usize, usize, usize)>,
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
    fn for_net<P: CheckableNode, T: Topology>(net: &Network<P, T>) -> Self {
        DeltaScratch {
            slots: Slots::for_net(net),
            map: SegmentMap::default(),
            terms: Vec::new(),
            undo: StepUndo::new(),
            activations: Vec::new(),
            diamonds: Vec::new(),
            pushed: Vec::new(),
            patches: Vec::new(),
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
    /// segment before the activation.
    #[allow(clippy::too_many_arguments)]
    fn record<P: CheckableNode, T: Topology>(
        &mut self,
        net: &Network<P, T>,
        act: Activation,
        parent_node: &[u8],
        undo: &StepUndo<klex_core::Message>,
        slots: &Slots,
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
        for run in pushed.chunk_by(|a, b| a == b) {
            let (v, l) = slots.chan_pos[run[0]];
            let channel = net.channel(v, l);
            let start = self.bytes.len();
            for msg in channel.iter().skip(channel.len() - run.len()) {
                write_message(&mut self.bytes, msg);
            }
            self.pushes.push(Push {
                flat: run[0] as u32,
                count: run.len() as u32,
                bytes: (start as u32, self.bytes.len() as u32),
            });
        }
        Effect {
            node,
            enters_cs: entered_cs(net, act),
            pushes: (push_start as u32, self.pushes.len() as u32),
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
    /// hash.  The bytes borrow the expansion's scratch buffer — copy to retain.
    Successor { bytes: &'a [u8], hash: u64 },
}

/// Appends to `seg_buf` the new segment of flat channel `flat` — the parent's messages
/// without the head when `pop`, then `appended` (`count` encoded messages) — and records
/// the patch.
#[allow(clippy::too_many_arguments)]
fn patch_channel(
    seg_buf: &mut Vec<u8>,
    patches: &mut Vec<(usize, usize, usize)>,
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
/// process entered the critical section (always `false` unless `collect_cs`); returning
/// `true` stops the expansion (remaining activations untried).  Returns
/// `(quiescent, stopped)`; `quiescent` means no message was in flight and every tick was a
/// self-loop — the precondition of a quiescent deadlock.
fn expand_state_delta<P, T>(
    net: &mut Network<P, T>,
    scratch: &mut DeltaScratch,
    id: StateId,
    parent_buf: &[u8],
    collect_cs: bool,
    sink: &mut dyn FnMut(u32, Activation, DeltaStep<'_>, bool) -> bool,
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
        patches,
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
        let diamond = diamonds.get(next_diamond).filter(|d| d.slot == slot).copied();
        if let Some(diamond) = diamond {
            next_diamond += 1;
            if idx >= first_tick && diamond.target != id {
                every_tick_is_self_loop = false;
            }
            if !cfg!(debug_assertions) {
                let step = DeltaStep::Completed { target: diamond.target, derived: None };
                if sink(slot, act, step, diamond.enters_cs) {
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
            let effect = memo.record(net, act, parent_node, undo, slots, pushed, probe);
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
        if effect.node.0 != effect.node.1 {
            seg_buf.extend_from_slice(memo.node_bytes(&effect));
            patches.push((map.node_segment(node), 0, seg_buf.len()));
        }
        let mut pending_pop = delivered;
        for push in memo.pushes(&effect) {
            let flat = push.flat as usize;
            if let Some(popped) = pending_pop.filter(|&popped| popped < flat) {
                patch_channel(seg_buf, patches, map, parent_buf, popped, true, 0, &[]);
                pending_pop = None;
            }
            let appended = memo.push_bytes(push);
            let count = push.count as usize;
            patch_channel(seg_buf, patches, map, parent_buf, flat, false, count, appended);
        }
        if let Some(popped) = pending_pop {
            patch_channel(seg_buf, patches, map, parent_buf, popped, true, 0, &[]);
        }

        let same_as_parent = patches.is_empty();
        let enters_cs = collect_cs && effect.enters_cs;
        let step = if same_as_parent {
            DeltaStep::SelfLoop
        } else {
            let h_parent = *h_parent.get_or_insert_with(|| compute_terms(parent_buf, map, terms));
            let hash = splice(parent_buf, map, patches, seg_buf, terms, h_parent, succ_buf);
            DeltaStep::Successor { bytes: succ_buf.as_slice(), hash }
        };
        let stop = match diamond {
            // Debug builds only: the diamond's successor, derived the normal way.
            Some(diamond) => {
                debug_assert_eq!(enters_cs, diamond.enters_cs, "{act:?} from state {id}");
                let derived = match step {
                    DeltaStep::Successor { bytes, .. } => bytes,
                    _ => parent_buf,
                };
                let step = DeltaStep::Completed { target: diamond.target, derived: Some(derived) };
                sink(slot, act, step, diamond.enters_cs)
            }
            None => {
                if idx >= first_tick && !same_as_parent {
                    every_tick_is_self_loop = false;
                }
                sink(slot, act, step, enters_cs)
            }
        };
        if stop {
            return (false, true);
        }
    }
    debug_assert_eq!(next_diamond, diamonds.len(), "every diamond slot is enabled at state {id}");

    (first_tick == 0 && every_tick_is_self_loop, false)
}

/// The shared bookkeeping of an exploration run: the arena, flat per-state vectors, the
/// report under construction, and the graph recorder.  The delta and interned loops drive
/// exactly this state machine, which is what makes their reports identical.
struct Engine<'p> {
    limits: Limits,
    properties: &'p [Box<dyn Property>],
    record_graph: bool,
    stop_on_violation: bool,
    arena: StateArena,
    /// `parents[id]` is the BFS predecessor and the activation reaching `id`; id 0 is the
    /// root and its entry is never read.
    parents: Vec<(StateId, Activation)>,
    depths: Vec<u32>,
    violated: Vec<String>,
    report: ExplorationReport,
    edges: Vec<Edge>,
    edge_starts: Vec<u32>,
    /// Facts of every admitted state, recorded with the graph.
    facts: StateFacts,
    /// The one decode of the state being admitted, reused from state to state.
    decoded: Configuration,
    /// Set when `stop_on_violation` fires; callers abandon the remaining work.
    stopped: bool,
}

impl<'p> Engine<'p> {
    fn new(
        limits: Limits,
        properties: &'p [Box<dyn Property>],
        record_graph: bool,
        stop_on_violation: bool,
    ) -> Self {
        Engine {
            limits,
            properties,
            record_graph,
            stop_on_violation,
            arena: StateArena::new(),
            parents: Vec::new(),
            depths: Vec::new(),
            violated: Vec::new(),
            report: ExplorationReport::default(),
            edges: Vec::new(),
            edge_starts: Vec::new(),
            facts: StateFacts::default(),
            decoded: Configuration::default(),
            stopped: false,
        }
    }

    fn admit_initial(&mut self, packed: &[u8]) {
        self.admit_initial_hashed(packed, crate::snapshot::fx_hash(packed));
    }

    /// [`Engine::admit_initial`] with a caller-supplied hash.  A run must feed the engine
    /// one hash scheme throughout (see [`StateArena::intern_capped_hashed`]): the interned
    /// engine always passes fx hashes, the delta engine always passes segmented hashes.
    fn admit_initial_hashed(&mut self, packed: &[u8], hash: u64) {
        let outcome = self.arena.intern_capped_hashed(packed, hash, usize::MAX);
        debug_assert!(
            outcome == InternOutcome::Inserted(0),
            "the initial configuration must be the first interned"
        );
        self.parents.push((0, Activation::Tick { node: 0 }));
        self.depths.push(0);
        self.admit(0);
    }

    /// Marks the start of `id`'s expansion (edge bookkeeping relies on id order).
    fn begin_expansion(&mut self, id: StateId) {
        if self.record_graph {
            debug_assert_eq!(self.edge_starts.len(), id as usize);
            self.edge_starts.push(self.edges.len() as u32);
        }
    }

    /// Records a transition whose successor is already interned.
    fn on_known_transition(&mut self, action: Activation, target: StateId, enters_cs: bool) {
        self.report.transitions += 1;
        if self.record_graph {
            self.edges.push(Edge { action, target, enters_cs });
        }
    }

    /// Records a transition given the successor's packed bytes; interns them, runs property
    /// checks when the state is new, and returns the new id when one was admitted.
    fn on_transition(
        &mut self,
        parent: StateId,
        action: Activation,
        packed: &[u8],
        enters_cs: bool,
    ) -> Option<StateId> {
        let hash = crate::snapshot::fx_hash(packed);
        match self.on_transition_hashed(parent, action, packed, hash, enters_cs) {
            InternOutcome::Inserted(id) => Some(id),
            InternOutcome::Existing(_) | InternOutcome::Full => None,
        }
    }

    /// [`Engine::on_transition`] with a caller-supplied hash (the delta engine's
    /// incrementally patched segmented hash), returning the arena's outcome.
    fn on_transition_hashed(
        &mut self,
        parent: StateId,
        action: Activation,
        packed: &[u8],
        hash: u64,
        enters_cs: bool,
    ) -> InternOutcome {
        self.report.transitions += 1;
        let outcome =
            self.arena.intern_capped_hashed(packed, hash, self.limits.max_configurations);
        let target = match outcome {
            InternOutcome::Existing(id) => Some(id),
            InternOutcome::Full => {
                self.report.truncated = true;
                None
            }
            InternOutcome::Inserted(id) => {
                self.parents.push((parent, action));
                self.depths.push(self.depths[parent as usize] + 1);
                self.admit(id);
                if self.stop_on_violation && !self.report.violations.is_empty() {
                    self.stopped = true;
                }
                Some(id)
            }
        };
        if self.record_graph {
            if let Some(target) = target {
                self.edges.push(Edge { action, target, enters_cs });
            }
        }
        outcome
    }

    /// Emits a deadlock witness for a quiescent state with unsatisfiable requesters.
    fn on_quiescent(&mut self, id: StateId) {
        let config = self.arena.config(id);
        let blocked = config.unsatisfied_requesters();
        if !blocked.is_empty() {
            self.report.deadlocks.push(DeadlockWitness {
                blocked,
                depth: self.depths[id as usize] as usize,
                trace: self.trace_to(id),
                config,
            });
        }
    }

    /// Decodes the newly admitted state `id` — the only decode a state gets — records its
    /// facts when the graph is kept, and checks the properties on it.
    fn admit(&mut self, id: StateId) {
        if self.properties.is_empty() && !self.record_graph {
            return;
        }
        let mut config = std::mem::take(&mut self.decoded);
        unpack_configuration_into(self.arena.get(id), &mut config);
        if self.record_graph {
            self.facts.record(&config);
        }
        self.check_properties(id, &config);
        self.decoded = config;
    }

    fn check_properties(&mut self, id: StateId, config: &Configuration) {
        for property in self.properties {
            if self.violated.iter().any(|name| name == property.name()) {
                continue;
            }
            if let Err(detail) = property.check(config) {
                self.violated.push(property.name().to_string());
                self.report.violations.push(Violation {
                    property: property.name().to_string(),
                    detail,
                    depth: self.depths[id as usize] as usize,
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
            let (parent, action) = self.parents[id as usize];
            trace.push(action);
            id = parent;
        }
        trace.reverse();
        trace
    }

    fn finish(mut self) -> (ExplorationReport, StateGraph) {
        self.report.configurations = self.arena.len();
        self.report.arena_bytes = self.arena.bytes_used();
        self.report.frontier_sizes = {
            let mut sizes = vec![0usize; self.depths.iter().max().map_or(0, |&d| d as usize + 1)];
            for &d in &self.depths {
                sizes[d as usize] += 1;
            }
            sizes
        };
        let graph = if self.record_graph {
            // States that were never expanded (beyond the depth limit, or abandoned after an
            // early stop) get empty edge ranges.
            while self.edge_starts.len() <= self.arena.len() {
                self.edge_starts.push(self.edges.len() as u32);
            }
            StateGraph {
                arena: self.arena,
                edges: self.edges,
                edge_starts: self.edge_starts,
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
    use treenet::CsState;

    /// A 2-node chain running the naive protocol with a single resource token, both processes
    /// perpetually requesting one unit: a minimal live instance whose state space is tiny.
    fn tiny_naive() -> Network<klex_core::naive::NaiveNode, topology::OrientedTree> {
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
        // A property that is violated as soon as any process enters its critical section.
        // Instantaneous critical sections (AlwaysRequest) are invisible in captured
        // configurations (entry and exit happen within one activation), so use drivers that
        // hold the critical section across an activation.
        let make = || {
            let tree = topology::builders::chain(2);
            let cfg = KlConfig::new(1, 1, 2);
            klex_core::naive::network(tree, cfg, |_| drivers::HoldOneActivation::boxed(1))
        };
        let mut net = make();
        let report = Explorer::new(&mut net)
            .with_limits(Limits { max_configurations: 50_000, max_depth: usize::MAX })
            .with_property(properties::property("never-enter", |c| {
                if c.nodes.iter().any(|s| s.cs == CsState::In) {
                    Err("a process entered its critical section".into())
                } else {
                    Ok(())
                }
            }))
            .run();
        assert_eq!(report.violations.len(), 1);
        let violation = &report.violations[0];
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
        let mut interned_explorer =
            Explorer::new(&mut net).with_limits(limits).record_graph(true);
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
            let de = delta_graph.edges(id);
            let ie = interned_graph.edges(id);
            assert_eq!(de.len(), ie.len());
            for (d, i) in de.iter().zip(ie) {
                assert_eq!(d.action, i.action);
                assert_eq!(d.target, i.target);
                assert_eq!(d.enters_cs, i.enters_cs);
            }
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
        assert_facts_match_decoding(
            &recorded_graph(klex_core::naive::network(fig3(), cfg, holding()), 50_000),
            "naive figure 3",
        );
        assert_facts_match_decoding(
            &recorded_graph(klex_core::pusher::network(fig3(), cfg, holding()), 50_000),
            "pusher figure 3",
        );
        assert_facts_match_decoding(
            &recorded_graph(klex_core::nonstab::network(fig3(), cfg, holding()), 50_000),
            "nonstab figure 3",
        );
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
    fn edges_are_32_bytes_and_name_only_the_activated_process() {
        assert_eq!(std::mem::size_of::<Edge>(), 32);
        let tick = Edge { action: Activation::Tick { node: 4 }, target: 9, enters_cs: true };
        assert_eq!(tick.cs_entry(), Some(4));
        let action = Activation::Deliver { node: 2, channel: 1 };
        let deliver = Edge { action, target: 9, enters_cs: false };
        assert_eq!(deliver.cs_entry(), None);
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
        // graph keeps the same transitions in its successor table, so it completes exactly
        // as many diamonds as a recording run.
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
                    assert_eq!(delta_graph.edges(id), interned_graph.edges(id), "{case}: {id}");
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
            klex_core::naive::network(topology::builders::chain(3), cfg, drivers::from_needs(&needs))
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
