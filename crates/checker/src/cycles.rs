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
    let in_scope: Vec<bool> = (0..n).map(|id| graph.starves(id, victim)).collect();

    // Strongly connected components of the restricted subgraph (iterative Tarjan).
    let scc = tarjan_scc(graph, &in_scope);

    // A qualifying cycle exists iff some SCC contains a "progress edge" (one along which a
    // process other than the victim enters its critical section) between two of its members.
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
            // Self-loops with progress are already a cycle; otherwise close the loop by
            // walking back from the edge's target to its source inside the SCC.
            let closing_path = if target == id {
                Some(Vec::new())
            } else {
                path_within(graph, &in_scope, &scc, target, id)
            };
            if let Some(path) = closing_path {
                // Node/action sequence: id --edge--> target --path--> id.
                let mut states = vec![id];
                let mut actions = vec![edge.action];
                let mut progress_nodes = vec![entered];
                let mut cursor = target;
                for &(action, next) in &path {
                    states.push(cursor);
                    actions.push(action);
                    if let Some(e) = graph
                        .edges(cursor)
                        .iter()
                        .find(|e| e.target as usize == next && e.action == action)
                    {
                        progress_nodes.extend(e.cs_entry().filter(|&v| v != victim));
                    }
                    cursor = next;
                }
                debug_assert_eq!(cursor, id);
                progress_nodes.sort_unstable();
                progress_nodes.dedup();
                return Some(CycleWitness { states, actions, progress_nodes });
            }
        }
    }
    None
}

/// Shortest path (as `(action, node)` steps) from `from` to `to` using only in-scope nodes of
/// the same SCC.  Returns `None` when unreachable.
fn path_within(
    graph: &StateGraph,
    in_scope: &[bool],
    scc: &[u32],
    from: usize,
    to: usize,
) -> Option<Vec<(Activation, usize)>> {
    use std::collections::VecDeque;
    let mut prev: Vec<Option<(usize, Activation)>> = vec![None; graph.len()];
    let mut seen = vec![false; graph.len()];
    let mut queue = VecDeque::new();
    seen[from] = true;
    queue.push_back(from);
    while let Some(u) = queue.pop_front() {
        if u == to {
            break;
        }
        for edge in graph.edges(u) {
            let v = edge.target as usize;
            if !seen[v] && in_scope[v] && scc[v] == scc[from] {
                seen[v] = true;
                prev[v] = Some((u, edge.action));
                queue.push_back(v);
            }
        }
    }
    if !seen[to] {
        return None;
    }
    let mut path = Vec::new();
    let mut cursor = to;
    while cursor != from {
        let (parent, action) = prev[cursor].expect("path reconstruction");
        path.push((action, cursor));
        cursor = parent;
    }
    path.reverse();
    Some(path)
}

/// Iterative Tarjan SCC restricted to `in_scope` nodes.  Out-of-scope nodes get their own
/// singleton component id and are never grouped with anything.  Shared with the fair-cycle
/// liveness pass ([`crate::liveness`]), which runs it per candidate victim.
///
/// The scoped subgraph is first copied into a compact CSR target list (in-scope targets of
/// in-scope sources, `u32` each), so the search strides 4-byte ids instead of 32-byte
/// [`crate::Edge`]s and skips out-of-scope targets once, not once per visit.
pub(crate) fn tarjan_scc(graph: &StateGraph, in_scope: &[bool]) -> Vec<u32> {
    let n = graph.len();
    let mut starts: Vec<u32> = Vec::with_capacity(n + 1);
    let mut targets: Vec<u32> = Vec::new();
    starts.push(0);
    for (v, &scoped) in in_scope.iter().enumerate() {
        if scoped {
            let edges = graph.edges(v).iter().map(|e| e.target);
            targets.extend(edges.filter(|&w| in_scope[w as usize]));
        }
        starts.push(targets.len() as u32);
    }

    const UNSET: u32 = u32::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![UNSET; n];
    let mut stack: Vec<u32> = Vec::new();
    // The explicit DFS stack, shared by every root: (node, position of its next target).
    let mut call_stack: Vec<(u32, u32)> = Vec::new();
    let mut next_index = 0u32;
    let mut next_comp = 0u32;

    for start in 0..n {
        if index[start] != UNSET || !in_scope[start] {
            continue;
        }
        call_stack.push((start as u32, starts[start]));
        while let Some(&mut (v, ref mut pos)) = call_stack.last_mut() {
            let v = v as usize;
            if index[v] == UNSET {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v as u32);
                on_stack[v] = true;
            }
            let end = starts[v + 1];
            let mut descended = false;
            while *pos < end {
                let w = targets[*pos as usize] as usize;
                *pos += 1;
                if index[w] == UNSET {
                    call_stack.push((w as u32, starts[w]));
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
                loop {
                    let w = stack.pop().expect("tarjan stack underflow") as usize;
                    on_stack[w] = false;
                    comp[w] = next_comp;
                    if w == v {
                        break;
                    }
                }
                next_comp += 1;
            }
        }
    }
    // Give out-of-scope nodes unique component ids.
    for c in comp.iter_mut().filter(|c| **c == UNSET) {
        *c = next_comp;
        next_comp += 1;
    }
    comp
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
        let net = klex_core::pusher::network(
            tree,
            cfg,
            drivers::from_needs_holding(&figure3_needs()),
        );
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
        let net = klex_core::nonstab::network(
            tree,
            cfg,
            drivers::from_needs_holding(&figure3_needs()),
        );
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
        let reach = |from: usize| {
            let mut seen = vec![false; n];
            let mut stack = vec![from];
            seen[from] = true;
            while let Some(u) = stack.pop() {
                for edge in graph.edges(u) {
                    let v = edge.target as usize;
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
        let scc = tarjan_scc(&graph, &in_scope);
        for u in 0..n {
            for v in 0..n {
                let same = if in_scope[u] && in_scope[v] {
                    reaches[u][v] && reaches[v][u]
                } else {
                    u == v
                };
                assert_eq!(scc[u] == scc[v], same, "states {u} and {v}");
            }
        }
    }

    #[test]
    fn cycle_search_returns_none_on_an_empty_or_progress_free_graph() {
        let graph = StateGraph::default();
        assert!(find_progress_cycle(&graph, 0).is_none());
    }
}
