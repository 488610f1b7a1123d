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
//! (see [`crate::snapshot`]) and addressed by a dense [`StateId`].  The default sequential
//! engine ([`Explorer::run`], aka [`ExploreEngine::Delta`]) additionally eliminates the
//! per-transition full-state traffic:
//!
//! * the parent configuration is restored into the network **once per state**
//!   ([`crate::snapshot::restore_packed_mapped`], which also records every segment's byte
//!   span for free);
//! * each transition executes **in place** with an undo log
//!   ([`treenet::Network::execute_undoable`]): one node snapshot, the consumed message, and
//!   the pushed channels are the entire record;
//! * the successor's packed bytes are produced by **patching only the dirty segments** of
//!   the parent's bytes, and its hash by re-mixing only those segments'
//!   [`crate::snapshot::segment_term`]s — a tick that changed nothing is recognized from the
//!   dirty segments alone and skips interning entirely;
//! * the undo log then **reverts** the network to the parent for the next sibling;
//! * per-state bookkeeping (parent links, depths, recorded edges) lives in flat vectors
//!   indexed by state id, shared by the report and the recorded [`StateGraph`];
//! * full [`Configuration`] values are only decoded on cold paths: property checks on newly
//!   discovered states, and violation/deadlock witnesses.
//!
//! The pre-delta sequential engine — restore, execute, full capture, full hash, per
//! transition — is retained verbatim as [`Explorer::run_interned`]: it is the executable
//! oracle the delta-parity test suite checks the delta engine against (identical reachable
//! sets, frontier sizes per level, violation and deadlock reports).
//!
//! The exploration is exhaustive with respect to scheduling: every interleaving the paper's
//! asynchronous model allows is covered, because at each configuration *every* enabled
//! activation is expanded.  It is bounded by [`Limits`]; if a limit is hit the report's
//! `truncated` flag is set and absence of violations is only meaningful up to that bound.

use crate::properties::Property;
use crate::snapshot::{capture_packed, restore_packed, CheckableNode, Configuration};
use crate::snapshot::{
    encode_channel_segment, encode_node_segment, restore_packed_mapped, segment_term,
    SegmentMap,
};
use crate::snapshot::{InternOutcome, StateArena, StateId};
use std::collections::VecDeque;
use topology::Topology;
use treenet::{Activation, Network, NodeId, StepUndo};

/// Which sequential exploration engine an [`Explorer`] run uses.
///
/// Both engines visit the identical reachable space in the identical BFS order and return
/// identical reports (the delta-parity test suite asserts it); they differ only in how a
/// successor configuration is produced from its parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExploreEngine {
    /// Per transition: restore the parent's packed bytes into the network, execute, capture
    /// and fx-hash the full successor.  Retained as the executable oracle the delta engine
    /// is checked against.
    Interned,
    /// Per transition: execute in place with an undo log, re-pack only the dirty segments of
    /// the parent's packed bytes, patch the segmented hash incrementally, and revert.  The
    /// default engine.
    Delta,
}

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

/// One outgoing transition of the explored state graph.
#[derive(Clone, Debug)]
pub struct Edge {
    /// The activation labelling the transition.
    pub action: Activation,
    /// Id of the successor configuration.
    pub target: StateId,
    /// Processes that entered their critical section during this transition.
    pub cs_entries: Vec<NodeId>,
}

/// The explored fragment of the configuration graph (kept only when
/// [`Explorer::record_graph`] is enabled); used by the starvation-cycle analysis.
///
/// States are stored packed in a [`StateArena`]; edges live in one flat vector sliced per
/// state id (CSR layout), which is possible because BFS expands states in id order.
#[derive(Clone, Debug, Default)]
pub struct StateGraph {
    arena: StateArena,
    edges: Vec<Edge>,
    /// `edge_starts[id]..edge_starts[id + 1]` delimits the edges of `id`; has `len + 1`
    /// entries (empty for the empty graph).
    edge_starts: Vec<u32>,
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
}

/// Cheap structural facts about the recorded state graph, exported on
/// [`ExplorationReport::graph_summary`] when graph recording was enabled.
///
/// These are the checker-side raw features of the fuzzer's coverage signature (see
/// `analysis::coverage`): strongly-connected-component structure and channel-occupancy
/// extremes summarize the *shape* of the explored graph in a handful of integers, cheaply
/// (one linear Tarjan pass plus the per-configuration decode the liveness pass performs
/// anyway).  Identical across engines — the graphs are identical by the parity contract,
/// and the summary is a pure function of the graph.
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
        let n = graph.len();
        if n == 0 {
            return GraphSummary::default();
        }
        let in_scope = vec![true; n];
        let scc = crate::cycles::tarjan_scc(graph, &in_scope);
        let comp_count = scc.iter().max().map_or(0, |&c| c + 1);
        let mut sizes = vec![0usize; comp_count];
        for &comp in &scc {
            sizes[comp] += 1;
        }
        let mut self_loop = vec![false; comp_count];
        for id in 0..n {
            for edge in graph.edges(id) {
                if edge.target as usize == id {
                    self_loop[scc[id]] = true;
                }
            }
        }
        let mut summary = GraphSummary {
            scc_count: comp_count,
            largest_scc: sizes.iter().copied().max().unwrap_or(0),
            nontrivial_sccs: sizes
                .iter()
                .zip(&self_loop)
                .filter(|&(&size, &looped)| size >= 2 || looped)
                .count(),
            max_in_flight: 0,
            max_channel_occupancy: 0,
        };
        for id in 0..n {
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
    /// Number of transitions executed.
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
    /// Called with the configurations interned and transitions executed so far.
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

    /// Runs the exploration with the default ([`ExploreEngine::Delta`]) engine and returns
    /// its report.
    pub fn run(&mut self) -> ExplorationReport {
        self.run_delta()
    }

    /// Runs the exploration with an explicit engine choice (parity tests and benchmarks).
    pub fn run_with(&mut self, engine: ExploreEngine) -> ExplorationReport {
        match engine {
            ExploreEngine::Interned => self.run_interned(),
            ExploreEngine::Delta => self.run_delta(),
        }
    }

    /// The delta successor engine: the sequential hot path.
    ///
    /// Per popped state the parent is restored **once** (recording its [`SegmentMap`] and
    /// per-segment hash terms); each transition then
    ///
    /// 1. snapshots the one activated node and executes in place, recording channel effects
    ///    in a [`StepUndo`] log;
    /// 2. re-encodes only the dirty segments (the activated node's state, the delivered
    ///    channel, each pushed channel) and compares them to the parent's — if none changed,
    ///    the transition is a self-loop and skips interning entirely;
    /// 3. otherwise patches the parent's segmented hash per dirty segment, splices the dirty
    ///    segments into a copy of the parent's packed bytes (straight memcpy of the
    ///    unchanged spans), and interns the successor with the precomputed hash;
    /// 4. reverts: pushed messages pop back off channel tails, the delivered message returns
    ///    to its head, and the saved node state is restored — the network is back in the
    ///    parent configuration for the next sibling.
    ///
    /// The restore → full capture → full hash triple of the interned engine is gone from the
    /// per-transition cost; what remains is O(touched state) work plus one memcpy.
    pub fn run_delta(&mut self) -> ExplorationReport {
        let progress = self.progress;
        let net = &mut *self.net;
        let mut scratch = DeltaScratch::for_net(net);
        let record_graph = self.record_graph;

        let mut engine =
            Engine::new(self.limits, &self.properties, self.record_graph, self.stop_on_violation);

        let mut parent_buf = Vec::new();
        capture_packed(net, &mut parent_buf);
        restore_packed_mapped(net, &parent_buf, &mut scratch.map);
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

            // Load the parent once; all siblings are derived in place and reverted.
            parent_buf.clear();
            parent_buf.extend_from_slice(engine.arena.get(id));

            let (quiescent, stopped) = expand_state_delta(
                net,
                &mut scratch,
                &parent_buf,
                record_graph,
                &mut |act, step, cs_entries| {
                    match step {
                        DeltaStep::SelfLoop => engine.on_known_transition(act, id, cs_entries),
                        DeltaStep::Successor { bytes, hash } => {
                            if let Some(new_id) =
                                engine.on_transition_hashed(id, act, bytes, hash, cs_entries)
                            {
                                queue.push_back(new_id);
                            }
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
        self.finish_run(engine.finish())
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
                let (same_as_parent, cs_entries) = execute_transition(
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
                let admitted = engine.on_transition(id, *act, &scratch, cs_entries);
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

fn collect_cs_entries<P: CheckableNode, T: Topology>(net: &Network<P, T>) -> Vec<NodeId> {
    net.trace()
        .events()
        .iter()
        .filter(|e| matches!(e.event, treenet::Event::EnterCs { .. }))
        .map(|e| e.node as NodeId)
        .collect()
}

/// Executes `act` from interned state `id` on `net`: restores the parent (borrowing its bytes
/// from the arena), runs the activation, and captures the successor into `scratch`.  Returns
/// whether the successor equals the parent (the tick self-loop test) and the critical-section
/// entries of the transition (empty unless `collect_cs`).
fn execute_transition<P: CheckableNode, T: Topology>(
    net: &mut Network<P, T>,
    arena: &StateArena,
    id: StateId,
    act: Activation,
    scratch: &mut Vec<u8>,
    collect_cs: bool,
) -> (bool, Vec<NodeId>) {
    restore_packed(net, arena.get(id));
    net.trace_mut().clear();
    net.execute(act);
    capture_packed(net, scratch);
    let cs_entries = if collect_cs { collect_cs_entries(net) } else { Vec::new() };
    let same_as_parent = scratch[..] == *arena.get(id);
    (same_as_parent, cs_entries)
}

/// Reusable buffers of the delta engine — one set per run, so expansions allocate nothing
/// per state.
struct DeltaScratch {
    /// Flat channel ids: channel `(v, l)` has flat index `chan_base[v] + l`.
    chan_base: Vec<usize>,
    /// Inverse of the flat indexing: flat channel index back to `(v, l)`.
    chan_pos: Vec<(usize, usize)>,
    map: SegmentMap,
    terms: Vec<u64>,
    undo: StepUndo<klex_core::Message>,
    activations: Vec<Activation>,
    dirty_chans: Vec<usize>,
    /// Dirty-segment patches: (segment index, span of the re-encoded bytes in `seg_buf`),
    /// in ascending parent-span order.
    patches: Vec<(usize, usize, usize)>,
    seg_buf: Vec<u8>,
    succ_buf: Vec<u8>,
}

impl DeltaScratch {
    fn for_net<P: CheckableNode, T: Topology>(net: &Network<P, T>) -> Self {
        let n = net.len();
        let mut chan_base = Vec::with_capacity(n + 1);
        let mut total_channels = 0usize;
        chan_base.push(0usize);
        for v in 0..n {
            total_channels += net.topology().degree(v);
            chan_base.push(total_channels);
        }
        let mut chan_pos = Vec::with_capacity(total_channels);
        for v in 0..n {
            for l in 0..net.topology().degree(v) {
                chan_pos.push((v, l));
            }
        }
        DeltaScratch {
            chan_base,
            chan_pos,
            map: SegmentMap::default(),
            terms: Vec::new(),
            undo: StepUndo::new(),
            activations: Vec::new(),
            dirty_chans: Vec::new(),
            patches: Vec::new(),
            seg_buf: Vec::new(),
            succ_buf: Vec::new(),
        }
    }
}

/// One derived transition, as handed to the sink of [`expand_state_delta`].
enum DeltaStep<'a> {
    /// The successor is bit-identical to the parent (no dirty segment): no splice, no hash,
    /// no arena traffic.
    SelfLoop,
    /// A proper successor: spliced packed bytes plus the incrementally patched segmented
    /// hash.  The bytes borrow the expansion's scratch buffer — copy to retain.
    Successor { bytes: &'a [u8], hash: u64 },
}

/// Expands one state with the delta discipline — restore the parent once, then per enabled
/// activation execute in place with an undo log, re-encode only the dirty segments, splice
/// and hash-patch, call `sink`, revert.  Activations are enumerated in the canonical order
/// (deliveries in `(node, channel)` order, then ticks in node order) — the order
/// [`enumerate_activations`] gives the interned engine, which is what the parity contract
/// rests on.
///
/// `sink` returning `true` stops the expansion after reverting (remaining activations
/// untried).  Returns `(quiescent, stopped)`; `quiescent` means no message was in flight
/// and every tick was a self-loop — the precondition of a quiescent deadlock.
fn expand_state_delta<P, T>(
    net: &mut Network<P, T>,
    scratch: &mut DeltaScratch,
    parent_buf: &[u8],
    collect_cs: bool,
    sink: &mut dyn FnMut(Activation, DeltaStep<'_>, Vec<NodeId>) -> bool,
) -> (bool, bool)
where
    P: CheckableNode,
    T: Topology,
{
    let DeltaScratch {
        chan_base,
        chan_pos,
        map,
        terms,
        undo,
        activations,
        dirty_chans,
        patches,
        seg_buf,
        succ_buf,
    } = scratch;

    restore_packed_mapped(net, parent_buf, map);
    let h_parent = compute_terms(parent_buf, map, terms);
    let n = net.len();

    activations.clear();
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

    let mut every_tick_is_self_loop = true;
    let mut stopped = false;
    for idx in 0..activations.len() {
        let act = activations[idx];
        let node = match act {
            Activation::Deliver { node, .. } | Activation::Tick { node } => node,
        };
        net.trace_mut().clear();
        let saved_state = net.node(node).capture_state();
        net.execute_undoable(act, undo);

        dirty_chans.clear();
        if let Some((dn, dl)) = undo.delivered_channel() {
            dirty_chans.push(chan_base[dn] + dl);
        }
        for &(sn, sl) in undo.sent_channels() {
            dirty_chans.push(chan_base[sn] + sl);
        }
        dirty_chans.sort_unstable();
        dirty_chans.dedup();

        // Re-encode the dirty segments; node segments precede channel segments in the
        // packed layout and dirty_chans is ascending, so pushing the node segment first
        // keeps `patches` in ascending span order for the splice.
        seg_buf.clear();
        patches.clear();
        let node_seg = map.node_segment(node);
        let start = seg_buf.len();
        encode_node_segment(seg_buf, &net.node(node).capture_state());
        if seg_buf[start..] != *map.segment(parent_buf, node_seg) {
            patches.push((node_seg, start, seg_buf.len()));
        }
        for &flat in dirty_chans.iter() {
            let seg = map.channel_segment(flat);
            let (cv, cl) = chan_pos[flat];
            let start = seg_buf.len();
            let channel = net.channel(cv, cl);
            encode_channel_segment(seg_buf, channel.len(), channel.iter());
            if seg_buf[start..] != *map.segment(parent_buf, seg) {
                patches.push((seg, start, seg_buf.len()));
            }
        }

        let same_as_parent = patches.is_empty();
        if idx >= first_tick && !same_as_parent {
            every_tick_is_self_loop = false;
        }
        let cs_entries = if collect_cs { collect_cs_entries(net) } else { Vec::new() };

        let stop = if same_as_parent {
            sink(act, DeltaStep::SelfLoop, cs_entries)
        } else {
            let mut hash = h_parent;
            succ_buf.clear();
            let mut cursor = 0usize;
            for &(seg, s, e) in patches.iter() {
                hash ^= terms[seg] ^ segment_term(seg, &seg_buf[s..e]);
                let (span_start, span_end) = map.span(seg);
                succ_buf.extend_from_slice(&parent_buf[cursor..span_start]);
                succ_buf.extend_from_slice(&seg_buf[s..e]);
                cursor = span_end;
            }
            succ_buf.extend_from_slice(&parent_buf[cursor..]);
            sink(act, DeltaStep::Successor { bytes: succ_buf.as_slice(), hash }, cs_entries)
        };

        // Revert to the parent configuration for the next sibling.
        net.revert(undo);
        net.node_mut(node).restore_state(&saved_state);

        if stop {
            stopped = true;
            break;
        }
    }

    (first_tick == 0 && every_tick_is_self_loop, stopped)
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
        self.check_properties(0);
    }

    /// Marks the start of `id`'s expansion (edge bookkeeping relies on id order).
    fn begin_expansion(&mut self, id: StateId) {
        if self.record_graph {
            debug_assert_eq!(self.edge_starts.len(), id as usize);
            self.edge_starts.push(self.edges.len() as u32);
        }
    }

    /// Records a transition whose successor is already interned.
    fn on_known_transition(&mut self, action: Activation, target: StateId, cs_entries: Vec<NodeId>) {
        self.report.transitions += 1;
        if self.record_graph {
            self.edges.push(Edge { action, target, cs_entries });
        }
    }

    /// Records a transition given the successor's packed bytes; interns them, runs property
    /// checks when the state is new, and returns the new id when one was admitted.
    fn on_transition(
        &mut self,
        parent: StateId,
        action: Activation,
        packed: &[u8],
        cs_entries: Vec<NodeId>,
    ) -> Option<StateId> {
        self.on_transition_hashed(parent, action, packed, crate::snapshot::fx_hash(packed), cs_entries)
    }

    /// [`Engine::on_transition`] with a caller-supplied hash (the delta engine's
    /// incrementally patched segmented hash).
    fn on_transition_hashed(
        &mut self,
        parent: StateId,
        action: Activation,
        packed: &[u8],
        hash: u64,
        cs_entries: Vec<NodeId>,
    ) -> Option<StateId> {
        self.report.transitions += 1;
        let outcome =
            self.arena.intern_capped_hashed(packed, hash, self.limits.max_configurations);
        let (target, admitted) = match outcome {
            InternOutcome::Existing(id) => (Some(id), None),
            InternOutcome::Full => {
                self.report.truncated = true;
                (None, None)
            }
            InternOutcome::Inserted(id) => {
                self.parents.push((parent, action));
                self.depths.push(self.depths[parent as usize] + 1);
                self.check_properties(id);
                if self.stop_on_violation && !self.report.violations.is_empty() {
                    self.stopped = true;
                }
                (Some(id), Some(id))
            }
        };
        if self.record_graph {
            if let Some(target) = target {
                self.edges.push(Edge { action, target, cs_entries });
            }
        }
        admitted
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

    fn check_properties(&mut self, id: StateId) {
        if self.properties.is_empty() {
            return;
        }
        let config = self.arena.config(id);
        for property in self.properties {
            if self.violated.iter().any(|name| name == property.name()) {
                continue;
            }
            if let Err(detail) = property.check(&config) {
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
            StateGraph { arena: self.arena, edges: self.edges, edge_starts: self.edge_starts }
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
        assert_eq!(witness.config.resource_tokens(), 2);
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
            let interned =
                Explorer::new(&mut make()).with_limits(limits).run_with(ExploreEngine::Interned);
            let delta =
                Explorer::new(&mut make()).with_limits(limits).run_with(ExploreEngine::Delta);
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
        let interned = interned_explorer.run_with(ExploreEngine::Interned);
        let interned_graph = interned_explorer.into_graph();

        let mut net = make();
        let mut delta_explorer = Explorer::new(&mut net).with_limits(limits).record_graph(true);
        let delta = delta_explorer.run_with(ExploreEngine::Delta);
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
                assert_eq!(d.cs_entries, i.cs_entries);
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
        let interned = Explorer::new(&mut net).with_limits(limits).run_with(ExploreEngine::Interned);
        let mut net = make();
        let delta = Explorer::new(&mut net).with_limits(limits).run_with(ExploreEngine::Delta);
        assert!(interned.truncated && delta.truncated);
        assert_eq!(delta.configurations, interned.configurations);
        assert_eq!(delta.transitions, interned.transitions);
        assert_eq!(delta.frontier_sizes, interned.frontier_sizes);
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
        for engine in [ExploreEngine::Delta, ExploreEngine::Interned] {
            let report = Explorer::new(&mut make()).with_limits(limits).run_with(engine);
            assert_eq!(base.configurations, report.configurations, "{engine:?}");
            assert_eq!(base.transitions, report.transitions, "{engine:?}");
            assert!(!report.truncated, "{engine:?}");
        }
    }
}
