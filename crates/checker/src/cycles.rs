//! Starvation-cycle (livelock) detection on the explored state graph.
//!
//! Figure 3 of the paper exhibits an execution of the pusher-only protocol in which process
//! `a` requests two units and never obtains them, while the other two processes keep entering
//! their critical sections forever.  In state-graph terms, that execution is a **reachable
//! cycle** of configurations along which
//!
//! * the victim stays an unsatisfied requester in *every* configuration, and
//! * at least one *other* process enters its critical section (so the cycle describes real
//!   progress by the rest of the system, not a stuttering execution in which messages are
//!   simply never delivered — the latter would contradict the fairness assumption).
//!
//! [`find_progress_cycle`] searches the graph recorded by an [`crate::Explorer`] (with
//! [`crate::Explorer::record_graph`] enabled) for such a cycle.  On the Figure-3 instance it
//! finds one for the pusher-only protocol and none for the priority-augmented protocol —
//! exactly the distinction the paper introduces the priority token for.
//!
//! The analysis is engine-agnostic: the delta and interned engines
//! ([`crate::Explorer::run`], [`crate::Explorer::run_interned`]) assign identical state ids
//! and record identical edge lists, so a cycle witness found on one engine's graph is valid
//! verbatim on the other's — the delta-parity suite relies on this when cross-checking
//! witnesses.

use crate::explore::StateGraph;
use std::collections::VecDeque;
use treenet::{Activation, NodeId};

/// A reachable cycle along which `victim` is never served while others keep making progress.
#[derive(Clone, Debug)]
pub struct CycleWitness {
    /// Configuration indices (into the explored graph) forming the cycle, in order; the last
    /// configuration has a transition back to the first.
    pub states: Vec<usize>,
    /// The activations labelling the cycle's transitions (same length as `states`).
    pub actions: Vec<Activation>,
    /// Processes (other than the victim) that enter their critical section along the cycle.
    pub progress_nodes: Vec<NodeId>,
}

impl CycleWitness {
    /// Length of the cycle in transitions.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when the witness is empty (never produced by the search).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// Searches for a reachable cycle of configurations in which `victim` remains an unsatisfied
/// requester throughout while at least one other process enters its critical section along
/// the cycle.  Returns `None` when no such cycle exists in the explored graph.
///
/// The graph must have been recorded by an exhaustive exploration for a `None` answer to mean
/// "no such livelock exists" (check [`crate::ExplorationReport::exhaustive`]).
pub fn find_progress_cycle(graph: &StateGraph, victim: NodeId) -> Option<CycleWitness> {
    let n = graph.len();
    if n == 0 {
        return None;
    }
    // Restrict to configurations in which the victim is an unsatisfied requester (a fact
    // the explorer recorded when it admitted each state).
    let mut in_scope = Vec::new();
    graph.starving_scope(victim, &mut in_scope);

    // Strongly connected components of the restricted subgraph (iterative Tarjan).
    let mut tarjan = Tarjan::default();
    let (scc, _) = tarjan.components(graph, &in_scope);

    // A qualifying cycle exists iff some SCC contains a "progress edge" (one along which a
    // process other than the victim enters its critical section) between two of its members.
    let mut search = None;
    for id in 0..n {
        if !in_scope[id] {
            continue;
        }
        for edge in graph.edges(id) {
            let target = edge.target as usize;
            if !in_scope[target] || scc[id] != scc[target] {
                continue;
            }
            let Some(entered) = edge.cs_entry().filter(|&v| v != victim) else {
                continue;
            };
            // Close the loop by walking back from the edge's target to its source inside the
            // SCC (strongly connected, so the walk exists; a self-loop needs none):
            // id --edge--> target --path--> id.
            let mut states = vec![id];
            let mut actions = vec![edge.action];
            let mut progress_nodes = vec![entered];
            let search = search.get_or_insert_with(|| PathSearch::new(graph));
            let same_scc = |v: usize| in_scope[v] && scc[v] == scc[id];
            for &(src, edge_idx) in search.shortest(graph, target, id, same_scc) {
                let step = graph.edge(src, edge_idx);
                states.push(src);
                actions.push(step.action);
                progress_nodes.extend(step.cs_entry().filter(|&v| v != victim));
            }
            progress_nodes.sort_unstable();
            progress_nodes.dedup();
            return Some(CycleWitness { states, actions, progress_nodes });
        }
    }
    None
}

/// Breadth-first shortest-path search over the recorded graph, its buffers shared by every
/// search one analysis makes.  A state is seen by the current search when its stamp equals
/// the search's generation, so a search neither allocates nor clears `graph.len()`-sized
/// vectors.
pub(crate) struct PathSearch {
    stamp: Vec<u32>,
    generation: u32,
    /// How the current search reached each state it has seen: (source state, edge index).
    prev: Vec<(usize, usize)>,
    queue: VecDeque<usize>,
    path: Vec<(usize, usize)>,
}

impl PathSearch {
    pub(crate) fn new(graph: &StateGraph) -> Self {
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
    pub(crate) fn shortest(
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
            for (edge_idx, transition) in graph.transitions(u).iter().enumerate() {
                let v = transition.target as usize;
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

/// The buffers of an iterative Tarjan SCC search restricted to a scope, reusable across
/// searches of one graph: the fair-cycle liveness pass ([`crate::liveness`]) searches one
/// scope per candidate victim with one `Tarjan`.
///
/// The search reads the graph's 8-byte transition records in place, with no compact copy
/// of the scoped subgraph: the DFS examines each edge exactly once, out-of-scope targets
/// included, so a copy of the scoped targets would cost a full pass over the records and
/// save no visit.
#[derive(Default)]
pub(crate) struct Tarjan {
    index: Vec<u32>,
    lowlink: Vec<u32>,
    on_stack: Vec<bool>,
    comp: Vec<u32>,
    sizes: Vec<u32>,
    stack: Vec<u32>,
    /// The explicit DFS stack, shared by every root: (node, position of its next edge).
    call_stack: Vec<(u32, u32)>,
}

impl Tarjan {
    /// The component id of every state of `graph`, with the search restricted to `in_scope`
    /// states, and the size of every component.  Out-of-scope states get their own
    /// singleton component ids, after the scoped ones, and are never grouped with anything.
    pub(crate) fn components(&mut self, graph: &StateGraph, in_scope: &[bool]) -> (&[u32], &[u32]) {
        const UNSET: u32 = u32::MAX;
        let n = graph.len();
        let Tarjan { index, lowlink, on_stack, comp, sizes, stack, call_stack } = self;
        index.clear();
        index.resize(n, UNSET);
        lowlink.resize(n, 0);
        on_stack.resize(n, false);
        comp.clear();
        comp.resize(n, UNSET);
        sizes.clear();
        let mut next_index = 0u32;

        for start in 0..n {
            if index[start] != UNSET || !in_scope[start] {
                continue;
            }
            call_stack.push((start as u32, 0));
            while let Some(&mut (v, ref mut pos)) = call_stack.last_mut() {
                let v = v as usize;
                if index[v] == UNSET {
                    index[v] = next_index;
                    lowlink[v] = next_index;
                    next_index += 1;
                    stack.push(v as u32);
                    on_stack[v] = true;
                }
                let mut descended = false;
                for transition in &graph.transitions(v)[*pos as usize..] {
                    *pos += 1;
                    let w = transition.target as usize;
                    if !in_scope[w] {
                        continue;
                    }
                    if index[w] == UNSET {
                        call_stack.push((w as u32, 0));
                        descended = true;
                        break;
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                }
                if descended {
                    continue;
                }
                // Finished v.
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    let parent = parent as usize;
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let id = sizes.len() as u32;
                    sizes.push(0);
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow") as usize;
                        on_stack[w] = false;
                        comp[w] = id;
                        sizes[id as usize] += 1;
                        if w == v {
                            break;
                        }
                    }
                }
            }
        }
        for c in comp.iter_mut().filter(|c| **c == UNSET) {
            *c = sizes.len() as u32;
            sizes.push(1);
        }
        (comp, sizes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers;
    use crate::explore::{Explorer, Limits};
    use klex_core::KlConfig;

    /// Explores the Figure-3 instance (2-out-of-3 exclusion on the 3-node tree, needs
    /// r=1, a=2, b=1) under the given protocol constructor and returns the recorded graph.
    fn explore_figure3<P>(
        mut net: treenet::Network<P, topology::OrientedTree>,
        max_configs: usize,
    ) -> (crate::ExplorationReport, StateGraph)
    where
        P: crate::CheckableNode,
    {
        let mut explorer = Explorer::new(&mut net)
            .with_limits(Limits { max_configurations: max_configs, max_depth: usize::MAX })
            .record_graph(true);
        let report = explorer.run();
        let graph = explorer.into_graph();
        (report, graph)
    }

    fn figure3_needs() -> [usize; 3] {
        [1, 2, 1]
    }

    #[test]
    fn pusher_only_protocol_has_a_starvation_cycle_on_figure3() {
        // The livelock of Figure 3 needs the small requesters (r and b) to be *inside* their
        // critical sections when the pusher passes them, so they keep their tokens while the
        // large requester `a` is forced to release — hence the holding drivers.
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(2, 3, 3);
        let net =
            klex_core::pusher::network(tree, cfg, drivers::from_needs_holding(&figure3_needs()));
        let (report, graph) = explore_figure3(net, 600_000);
        assert!(report.exhaustive(), "Figure-3 state space must fit the limits");
        let witness = find_progress_cycle(&graph, 1)
            .expect("the pusher-only protocol livelocks process a on the Figure-3 instance");
        assert!(!witness.is_empty());
        assert!(
            witness.progress_nodes.iter().any(|&v| v != 1),
            "other processes make progress along the cycle"
        );
    }

    #[test]
    fn pusher_only_protocol_with_instantaneous_critical_sections_has_no_cycle() {
        // A finding of the exhaustive analysis: the Figure-3
        // livelock requires critical sections that span activations.  With instantaneous
        // critical sections no process ever holds a token while the pusher passes, the FIFO
        // channels keep every token moving, and no reachable cycle starves the big requester.
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(2, 3, 3);
        let net = klex_core::pusher::network(tree, cfg, drivers::from_needs(&figure3_needs()));
        let (report, graph) = explore_figure3(net, 300_000);
        assert!(report.exhaustive());
        assert!(find_progress_cycle(&graph, 1).is_none());
    }

    #[test]
    fn priority_token_removes_the_starvation_cycle_on_figure3() {
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(2, 3, 3);
        let net =
            klex_core::nonstab::network(tree, cfg, drivers::from_needs_holding(&figure3_needs()));
        let (report, graph) = explore_figure3(net, 1_500_000);
        assert!(report.exhaustive(), "Figure-3 state space must fit the limits");
        assert!(
            find_progress_cycle(&graph, 1).is_none(),
            "with the priority token no reachable cycle starves process a"
        );
    }

    #[test]
    fn tarjan_components_are_the_mutual_reachability_classes_of_the_scope() {
        // Brute force on the Figure-3 pusher graph, scoped to the states starving process a:
        // two scoped states share a component iff each reaches the other through scoped
        // states; out-of-scope states are alone.
        let net = klex_core::pusher::network(
            topology::builders::figure3_tree(),
            KlConfig::new(2, 3, 3),
            drivers::from_needs_holding(&figure3_needs()),
        );
        let (_, graph) = explore_figure3(net, 50_000);
        let n = graph.len();
        let in_scope: Vec<bool> = (0..n).map(|id| graph.starves(id, 1)).collect();
        let mut scope = Vec::new();
        graph.starving_scope(1, &mut scope);
        assert_eq!(scope, in_scope, "the scope read off the fact words");
        let reach = |from: usize| {
            let mut seen = vec![false; n];
            let mut stack = vec![from];
            seen[from] = true;
            while let Some(u) = stack.pop() {
                for transition in graph.transitions(u) {
                    let v = transition.target as usize;
                    if in_scope[v] && !seen[v] {
                        seen[v] = true;
                        stack.push(v);
                    }
                }
            }
            seen
        };
        let reaches: Vec<Vec<bool>> =
            (0..n).map(|id| if in_scope[id] { reach(id) } else { Vec::new() }).collect();
        let mut tarjan = Tarjan::default();
        let (scc, sizes) = tarjan.components(&graph, &in_scope);
        for u in 0..n {
            for v in 0..n {
                let same = if in_scope[u] && in_scope[v] {
                    reaches[u][v] && reaches[v][u]
                } else {
                    u == v
                };
                assert_eq!(scc[u] == scc[v], same, "states {u} and {v}");
            }
            let members = scc.iter().filter(|&&c| c == scc[u]).count();
            assert_eq!(sizes[scc[u] as usize] as usize, members, "component of state {u}");
        }
    }

    #[test]
    fn cycle_search_returns_none_on_an_empty_or_progress_free_graph() {
        let graph = StateGraph::default();
        assert!(find_progress_cycle(&graph, 0).is_none());
    }
}
