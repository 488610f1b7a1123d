//! Fair-cycle (liveness-violation) detection on the explored state graph.
//!
//! The paper's correctness claim has a liveness half — (k, ℓ)-liveness: every requesting
//! process eventually enters its critical section — that a safety-only exhaustive check
//! never touches.  A liveness violation of a finite-state system is a **lasso**: a finite
//! stem from the initial configuration into a cycle along which some process requests
//! forever without ever entering its critical section.  Not every such cycle is a genuine
//! violation, though: the asynchronous model assumes a *weakly fair* daemon (every process
//! is activated infinitely often, and a message that stays deliverable is eventually
//! delivered), so a cycle in which the victim starves only because the schedule never runs
//! it — or never delivers the token sitting in its channel — contradicts the fairness
//! assumption and must be pruned.
//!
//! [`find_fair_cycles`] searches the [`StateGraph`] recorded by an exploration (enable
//! [`crate::Explorer::check_liveness`], which implies graph recording) for fair starvation
//! lassos.  For each candidate victim `v` it
//!
//! 1. restricts the graph to configurations in which `v` is an unsatisfied requester
//!    (`State = Req`, `|RSet| < Need`) and decomposes the restriction into strongly
//!    connected components (Tarjan, shared with [`crate::cycles`]);
//! 2. prunes every SCC that cannot host a *weakly fair* infinite execution:
//!    * **progress** — some internal edge must enter a critical section of a process other
//!      than `v` (a cycle without progress is a stuttering schedule, not a protocol
//!      livelock);
//!    * **tick coverage** — for every process `u` the SCC must contain an internal `Tick u`
//!      edge; ticks are always enabled, so a fair execution activates every process
//!      infinitely often, and if every `Tick u` edge leaves the SCC no fair run can stay;
//!    * **delivery coverage** — for every channel that is non-empty in *every* SCC
//!      configuration, the SCC must contain an internal delivery of that channel; a message
//!      that stays deliverable forever but is never delivered starves the channel, which a
//!      fair daemon does not do;
//! 3. builds a concrete witness cycle through the surviving SCC that is weakly fair **by
//!    construction**: it traverses one progress edge, one `Tick u` edge per process, and —
//!    for every channel — either an edge delivering it or a configuration in which it is
//!    empty; plus the shortest stem from the initial configuration to the cycle entry.
//!
//! On the Figure-3 instance the search finds a lasso starving the 2-unit requester under
//! the pusher-only protocol and finds none under the priority-augmented or self-stabilizing
//! protocols — the distinction the paper introduces the priority token for, now verified as
//! a *fair-cycle* result rather than a hand-picked victim query
//! (cf. [`crate::cycles::find_progress_cycle`], which this module generalizes).
//!
//! The pass decodes no configuration to decide any of this: it reads the per-state facts
//! (unsatisfied requesters, non-empty channels) the explorer recorded in the [`StateGraph`]
//! when it admitted each state, as bit sets of as many 64-bit words as the network needs, so
//! any number of processes is supported.  Only the witness configurations are decoded.
//!
//! Soundness: a returned witness is always a real fair execution of the explored fragment
//! (states and edges are real configurations and transitions).  *Absence* of witnesses
//! proves liveness only when the exploration was exhaustive
//! ([`crate::ExplorationReport::exhaustive`]) — on a truncated graph a cycle may lie beyond
//! the bound.

use crate::explore::StateGraph;
use crate::snapshot::Configuration;
use std::collections::VecDeque;
use treenet::{Activation, NodeId};

/// A lasso witnessing a fair starvation: `stem` leads from the initial configuration to the
/// cycle entry, and repeating `cycle` forever is a weakly fair execution along which
/// `victim` remains an unsatisfied requester while `progress_nodes` keep entering their
/// critical sections.
#[derive(Clone, Debug)]
pub struct LassoWitness {
    /// The starved process.
    pub victim: NodeId,
    /// Activations from the initial configuration to the cycle entry.
    pub stem: Vec<Activation>,
    /// State-graph indices along the stem; `stem_states[0]` is the initial configuration
    /// and `stem_states.last()` is the cycle entry (`cycle_states[0]`), so the length is
    /// `stem.len() + 1`.
    pub stem_states: Vec<usize>,
    /// Activations of the cycle; `cycle[i]` leads from `cycle_states[i]` to
    /// `cycle_states[(i + 1) % len]`.
    pub cycle: Vec<Activation>,
    /// State-graph indices around the cycle (same length as `cycle`).
    pub cycle_states: Vec<usize>,
    /// Processes other than the victim that enter their critical section along the cycle.
    pub progress_nodes: Vec<NodeId>,
    /// Decoded configurations along the stem (aligned with `stem_states`).
    pub stem_configs: Vec<Configuration>,
    /// Decoded configurations around the cycle (aligned with `cycle_states`).
    pub cycle_configs: Vec<Configuration>,
    /// Critical-section entries on each stem transition (aligned with `stem`).
    pub stem_cs: Vec<Vec<NodeId>>,
    /// Critical-section entries on each cycle transition (aligned with `cycle`).
    pub cycle_cs: Vec<Vec<NodeId>>,
}

impl LassoWitness {
    /// Length of the cycle in transitions.
    pub fn cycle_len(&self) -> usize {
        self.cycle.len()
    }

    /// Length of the stem in transitions.
    pub fn stem_len(&self) -> usize {
        self.stem.len()
    }

    /// A compact human-readable rendering of the lasso (victim, stem, cycle actions).
    pub fn render(&self) -> String {
        let fmt_act = |a: &Activation| match a {
            Activation::Tick { node } => format!("tick {node}"),
            Activation::Deliver { node, channel } => format!("deliver ({node},{channel})"),
        };
        let cycle: Vec<String> = self.cycle.iter().map(fmt_act).collect();
        format!(
            "process {} requests forever without entering its critical section\n  stem: {} \
             activations to state {}\n  cycle ({} activations, progress by {:?}): {}",
            self.victim,
            self.stem.len(),
            self.cycle_states.first().copied().unwrap_or(0),
            self.cycle.len(),
            self.progress_nodes,
            cycle.join(" → "),
        )
    }
}

/// Searches the recorded graph for fair starvation lassos, one witness per starved victim
/// (in ascending victim order).  Empty when no weakly fair cycle starves any process — a
/// liveness *proof* when the exploration was exhaustive (see the module docs).
pub fn find_fair_cycles(graph: &StateGraph) -> Vec<LassoWitness> {
    (0..graph.processes()).filter_map(|victim| find_fair_cycle_for(graph, victim)).collect()
}

/// One anchor the witness cycle must pass through to be weakly fair by construction.
enum Requirement {
    /// Traverse this exact edge (source state, edge index at the source).
    Edge(usize, usize),
    /// Visit this state (a configuration in which some otherwise-uncovered channel is
    /// empty).
    State(usize),
}

fn find_fair_cycle_for(graph: &StateGraph, victim: NodeId) -> Option<LassoWitness> {
    let n = graph.len();
    let in_scope: Vec<bool> = (0..n).map(|id| graph.starves(id, victim)).collect();
    if !in_scope.iter().any(|&s| s) {
        return None;
    }
    let scc = crate::cycles::tarjan_scc(graph, &in_scope);
    let mut comp_size = vec![0u32; n];
    for id in (0..n).filter(|&id| in_scope[id]) {
        comp_size[scc[id] as usize] += 1;
    }

    // Group the scoped states per component, keeping Tarjan's discovery order.  A single
    // state is decided here, without a member list: its only internal edges are its
    // self-loops, so it can host a fair cycle only if one of them is a progress edge and
    // every process has a self-loop tick (each expanded state has exactly one `Tick u`
    // edge per process, so counting them suffices).  The rare singleton that passes goes
    // through `examine_scc` like any other component.
    let mut members: Vec<Vec<usize>> = Vec::new();
    let mut comp_slot = vec![u32::MAX; n];
    let mut comp_order: Vec<u32> = Vec::new();
    for id in 0..n {
        if !in_scope[id] {
            continue;
        }
        let comp = scc[id];
        if comp_size[comp as usize] == 1 && !singleton_may_be_fair(graph, id, victim) {
            continue;
        }
        if comp_slot[comp as usize] == u32::MAX {
            comp_slot[comp as usize] = members.len() as u32;
            comp_order.push(comp);
            members.push(Vec::new());
        }
        members[comp_slot[comp as usize] as usize].push(id);
    }

    for (states, &comp) in members.iter().zip(&comp_order) {
        if let Some(witness) = examine_scc(graph, victim, &in_scope, &scc, comp, states) {
            return Some(witness);
        }
    }
    None
}

/// True when state `id`, alone in its component, has a progress self-loop (a process other
/// than `victim` enters its critical section) and a self-loop tick for every process — the
/// necessary conditions for a weakly fair cycle that never leaves it.
fn singleton_may_be_fair(graph: &StateGraph, id: usize, victim: NodeId) -> bool {
    let mut progress = false;
    let mut ticks = 0;
    for edge in graph.edges(id).iter().filter(|e| e.target as usize == id) {
        progress |= edge.cs_entry().is_some_and(|u| u != victim);
        ticks += usize::from(matches!(edge.action, Activation::Tick { .. }));
    }
    progress && ticks == graph.processes()
}

/// Applies the weak-fairness pruning to one SCC and, when it survives, constructs the
/// fair-by-construction witness cycle plus its stem.
fn examine_scc(
    graph: &StateGraph,
    victim: NodeId,
    in_scope: &[bool],
    scc: &[u32],
    comp: u32,
    states: &[usize],
) -> Option<LassoWitness> {
    let internal = |edge_target: usize| in_scope[edge_target] && scc[edge_target] == comp;

    // Pruning pass over the internal edges: find one progress edge, one internal tick edge
    // per process, and one internal delivery edge per channel.
    let mut progress_edge: Option<(usize, usize)> = None;
    let mut tick_edge: Vec<Option<(usize, usize)>> = vec![None; graph.processes()];
    let mut deliver_edge: Vec<Option<(usize, usize)>> = vec![None; graph.channel_count()];
    let mut has_internal_edge = false;
    for &id in states {
        for (edge_idx, edge) in graph.edges(id).iter().enumerate() {
            if !internal(edge.target as usize) {
                continue;
            }
            has_internal_edge = true;
            match edge.action {
                Activation::Tick { node } => {
                    tick_edge[node].get_or_insert((id, edge_idx));
                }
                Activation::Deliver { node, channel } => {
                    deliver_edge[graph.flat_channel(node, channel)].get_or_insert((id, edge_idx));
                }
            }
            if progress_edge.is_none() && edge.cs_entry().is_some_and(|u| u != victim) {
                progress_edge = Some((id, edge_idx));
            }
        }
    }
    if !has_internal_edge {
        return None; // a trivial SCC (single state, no self-loop) has no cycle at all
    }
    // Progress pruning: without a non-victim critical-section entry the cycle describes a
    // stuttering schedule, not a protocol livelock.
    let progress_edge = progress_edge?;
    // Tick coverage: every process must be activatable inside the SCC.
    if tick_edge.iter().any(Option::is_none) {
        return None;
    }

    // Delivery coverage, and the fairness anchors of the witness: for every channel either
    // an internal delivery edge (required when the channel is never empty in the SCC) or a
    // member state in which the channel is empty.
    let mut requirements: Vec<Requirement> = Vec::new();
    for flat in 0..graph.channel_count() {
        let empty_somewhere = states.iter().find(|&&id| !graph.channel_nonempty(id, flat));
        let nonempty_somewhere = states.iter().any(|&id| graph.channel_nonempty(id, flat));
        match (empty_somewhere, deliver_edge[flat]) {
            // Channel deliverable in every SCC state but never delivered inside it: no
            // weakly fair run can stay in this SCC.
            (None, None) => return None,
            (None, Some(edge)) => requirements.push(Requirement::Edge(edge.0, edge.1)),
            (Some(&empty_state), _) => {
                // Anchor the walk at a state where the channel is empty, so the witness is
                // fair with respect to this channel even without delivering it — unless the
                // channel is empty throughout, in which case nothing is required.
                if nonempty_somewhere {
                    requirements.push(Requirement::State(empty_state));
                }
            }
        }
    }
    for tick in tick_edge.into_iter().flatten() {
        requirements.push(Requirement::Edge(tick.0, tick.1));
    }

    // Build the closed walk: traverse the progress edge first, then visit every anchor,
    // then close back to the start.  All routing stays inside the SCC (strongly connected,
    // so every leg exists).
    let start = progress_edge.0;
    let mut search = PathSearch::new(graph);
    let mut cycle = Walk::at(start);
    let mut cursor = cycle.take(graph, start, progress_edge.1);
    for requirement in &requirements {
        let goal = match requirement {
            Requirement::Edge(src, _) => *src,
            Requirement::State(s) => *s,
        };
        cursor = cycle.route(graph, &mut search, cursor, goal, internal);
        if let Requirement::Edge(src, edge_idx) = requirement {
            debug_assert_eq!(cursor, *src);
            cursor = cycle.take(graph, *src, *edge_idx);
        }
    }
    cycle.route(graph, &mut search, cursor, start, internal);
    // The walk ends where it started; drop the duplicated closing state.
    debug_assert_eq!(cycle.states.last(), Some(&start));
    cycle.states.pop();
    debug_assert_eq!(cycle.states.len(), cycle.actions.len());

    let progress_nodes = {
        let mut nodes: Vec<NodeId> =
            cycle.cs.iter().flatten().copied().filter(|&u| u != victim).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    };

    // Shortest stem from the initial configuration to the cycle entry, over the full graph.
    let mut stem = Walk::at(0);
    stem.route(graph, &mut search, 0, start, |_| true);

    Some(LassoWitness {
        victim,
        stem_configs: stem.states.iter().map(|&id| graph.config(id)).collect(),
        cycle_configs: cycle.states.iter().map(|&id| graph.config(id)).collect(),
        stem: stem.actions,
        stem_states: stem.states,
        cycle: cycle.actions,
        cycle_states: cycle.states,
        progress_nodes,
        stem_cs: stem.cs,
        cycle_cs: cycle.cs,
    })
}

/// A path through the recorded graph: its states (one more than its steps), each step's
/// activation, and the processes that entered their critical section during each step.
struct Walk {
    states: Vec<usize>,
    actions: Vec<Activation>,
    cs: Vec<Vec<NodeId>>,
}

impl Walk {
    /// The empty path at `start`.
    fn at(start: usize) -> Self {
        Walk { states: vec![start], actions: Vec::new(), cs: Vec::new() }
    }

    /// Appends edge `edge_idx` of state `from` and returns its target.
    fn take(&mut self, graph: &StateGraph, from: usize, edge_idx: usize) -> usize {
        let edge = &graph.edges(from)[edge_idx];
        self.actions.push(edge.action);
        self.cs.push(edge.cs_entry().into_iter().collect());
        let target = edge.target as usize;
        self.states.push(target);
        target
    }

    /// Appends a shortest path from `from` to `to` through states `allowed` admits and
    /// returns `to` (a no-op when already there).
    fn route(
        &mut self,
        graph: &StateGraph,
        search: &mut PathSearch,
        from: usize,
        to: usize,
        allowed: impl Fn(usize) -> bool,
    ) -> usize {
        for &(src, edge_idx) in search.shortest(graph, from, to, allowed) {
            self.take(graph, src, edge_idx);
        }
        to
    }
}

/// Breadth-first shortest-path search over the recorded graph, its buffers shared by every
/// leg of one witness.  A state is seen by the current search when its stamp equals the
/// search's generation, so a leg neither allocates nor clears `graph.len()`-sized vectors.
struct PathSearch {
    stamp: Vec<u32>,
    generation: u32,
    /// How the current search reached each state it has seen: (source state, edge index).
    prev: Vec<(usize, usize)>,
    queue: VecDeque<usize>,
    path: Vec<(usize, usize)>,
}

impl PathSearch {
    fn new(graph: &StateGraph) -> Self {
        PathSearch {
            stamp: vec![0; graph.len()],
            generation: 0,
            prev: vec![(0, 0); graph.len()],
            queue: VecDeque::new(),
            path: Vec::new(),
        }
    }

    /// The steps (source state, edge index) of a shortest path from `from` to `to` whose
    /// states after `from` all satisfy `allowed`; empty when `from == to`.  Edges are tried
    /// in recorded order, so the path is the first one breadth-first search finds.
    fn shortest(
        &mut self,
        graph: &StateGraph,
        from: usize,
        to: usize,
        allowed: impl Fn(usize) -> bool,
    ) -> &[(usize, usize)] {
        self.path.clear();
        if from == to {
            return &self.path;
        }
        self.generation += 1;
        let generation = self.generation;
        self.queue.clear();
        self.stamp[from] = generation;
        self.queue.push_back(from);
        'bfs: while let Some(u) = self.queue.pop_front() {
            for (edge_idx, edge) in graph.edges(u).iter().enumerate() {
                let v = edge.target as usize;
                if self.stamp[v] == generation || !allowed(v) {
                    continue;
                }
                self.stamp[v] = generation;
                self.prev[v] = (u, edge_idx);
                if v == to {
                    break 'bfs;
                }
                self.queue.push_back(v);
            }
        }
        assert_eq!(self.stamp[to], generation, "state {to} is unreachable from state {from}");
        let mut cursor = to;
        while cursor != from {
            let step = self.prev[cursor];
            self.path.push(step);
            cursor = step.0;
        }
        self.path.reverse();
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers;
    use crate::explore::{Explorer, Limits};
    use klex_core::KlConfig;

    fn figure3_needs() -> [usize; 3] {
        [1, 2, 1]
    }

    fn explore_with_liveness<P>(
        mut net: treenet::Network<P, topology::OrientedTree>,
        max_configs: usize,
    ) -> crate::ExplorationReport
    where
        P: crate::CheckableNode,
    {
        Explorer::new(&mut net)
            .with_limits(Limits { max_configurations: max_configs, max_depth: usize::MAX })
            .check_liveness(true)
            .run()
    }

    #[test]
    fn pusher_only_protocol_has_a_fair_starvation_lasso_on_figure3() {
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(2, 3, 3);
        let net = klex_core::pusher::network(
            tree,
            cfg,
            drivers::from_needs_holding(&figure3_needs()),
        );
        let report = explore_with_liveness(net, 600_000);
        assert!(report.exhaustive(), "Figure-3 state space must fit the limits");
        assert!(!report.live(), "the pusher-only protocol livelocks on Figure 3");
        let witness = report
            .liveness
            .iter()
            .find(|w| w.victim == 1)
            .expect("the 2-unit requester (process a) is starved");
        assert!(!witness.cycle.is_empty());
        assert_eq!(witness.cycle_states.len(), witness.cycle.len());
        assert_eq!(witness.stem_states.len(), witness.stem.len() + 1);
        assert_eq!(witness.stem_states[0], 0, "the stem starts at the initial configuration");
        assert!(
            witness.progress_nodes.iter().any(|&v| v != 1),
            "other processes make progress along the cycle"
        );
        // The victim is an unsatisfied requester in every cycle configuration.
        for config in &witness.cycle_configs {
            let s = &config.nodes[1];
            assert_eq!(s.cs, treenet::CsState::Req);
            assert!(s.rset.len() < s.need);
        }
        // Weak fairness by construction: every process ticks along the cycle...
        for u in 0..3 {
            assert!(
                witness.cycle.contains(&Activation::Tick { node: u }),
                "process {u} must be activated along the fair cycle"
            );
        }
        // ...and every channel is either delivered or observed empty along the cycle.
        let channels: Vec<(usize, usize)> = (0..witness.cycle_configs[0].channels.len())
            .flat_map(|v| {
                (0..witness.cycle_configs[0].channels[v].len()).map(move |l| (v, l))
            })
            .collect();
        for (v, l) in channels {
            let delivered = witness.cycle.contains(&Activation::Deliver { node: v, channel: l });
            let empty_somewhere =
                witness.cycle_configs.iter().any(|c| c.channels[v][l].is_empty());
            assert!(
                delivered || empty_somewhere,
                "channel ({v},{l}) must be delivered or observed empty along the cycle"
            );
        }
    }

    #[test]
    fn lasso_witness_replays_on_a_fresh_network() {
        let make = || {
            klex_core::pusher::network(
                topology::builders::figure3_tree(),
                KlConfig::new(2, 3, 3),
                drivers::from_needs_holding(&figure3_needs()),
            )
        };
        let report = explore_with_liveness(make(), 600_000);
        let witness = &report.liveness[0];

        // Replaying stem + one full cycle on a fresh network must land back on the cycle
        // entry configuration — the lasso is a real execution, not a graph artifact.
        let mut net = make();
        for act in &witness.stem {
            net.execute(*act);
        }
        assert_eq!(crate::snapshot::capture(&net), witness.cycle_configs[0]);
        for act in &witness.cycle {
            net.execute(*act);
        }
        assert_eq!(
            crate::snapshot::capture(&net),
            witness.cycle_configs[0],
            "one full cycle traversal returns to the cycle entry"
        );
    }

    #[test]
    fn priority_token_removes_the_fair_lasso_on_figure3() {
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(2, 3, 3);
        let net = klex_core::nonstab::network(
            tree,
            cfg,
            drivers::from_needs_holding(&figure3_needs()),
        );
        let report = explore_with_liveness(net, 1_500_000);
        assert!(report.exhaustive());
        assert!(report.live(), "with the priority token no fair cycle starves anyone");
    }

    #[test]
    fn fair_cycles_agree_between_delta_and_interned_graphs() {
        let make = || {
            klex_core::pusher::network(
                topology::builders::figure3_tree(),
                KlConfig::new(2, 3, 3),
                drivers::from_needs_holding(&figure3_needs()),
            )
        };
        let limits = Limits { max_configurations: 600_000, max_depth: usize::MAX };
        let mut net = make();
        let delta = Explorer::new(&mut net)
            .with_limits(limits)
            .check_liveness(true)
            .run();
        let mut net = make();
        let interned = Explorer::new(&mut net)
            .with_limits(limits)
            .check_liveness(true)
            .run_interned();
        assert_eq!(delta.liveness.len(), interned.liveness.len());
        for (d, i) in delta.liveness.iter().zip(&interned.liveness) {
            assert_eq!(d.victim, i.victim);
            assert_eq!(d.stem, i.stem);
            assert_eq!(d.cycle, i.cycle);
            assert_eq!(d.cycle_states, i.cycle_states);
            assert_eq!(d.progress_nodes, i.progress_nodes);
        }
    }

    #[test]
    fn empty_graph_yields_no_witness() {
        let graph = StateGraph::default();
        assert!(find_fair_cycles(&graph).is_empty());
    }
}
