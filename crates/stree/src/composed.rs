//! Composition of the spanning-tree construction with the k-out-of-ℓ exclusion protocol —
//! the extension to arbitrary rooted networks sketched in the paper's conclusion.
//!
//! The composition implemented here is the classic *layered* (fair) composition used to argue
//! that extension: the spanning-tree layer stabilizes regardless of what runs on top of it
//! (its beacons are independent of the exclusion traffic), and once its output — the parent
//! pointers — stops changing, the exclusion protocol runs on a fixed oriented tree and
//! stabilizes by Theorem 1.  Concretely, [`compose`] runs the spanning-tree network until its
//! output is stable, extracts the [`topology::OrientedTree`] (with the paper's parent = channel
//! 0 labelling), instantiates the self-stabilizing exclusion protocol on it, and runs that
//! until it is legitimate; the returned [`Composition`] carries both stabilization costs and
//! the ready-to-use exclusion network, so callers can keep driving it.
//!
//! The measured cost of the composition — spanning-tree convergence plus exclusion
//! convergence as a function of the graph's size and density — is experiment E11.

use crate::extract::{distances_are_exact, extract_tree, parents_form_tree, ExtractedTree};
use crate::protocol::{self, StConfig};
use klex_core::{KlConfig, LiveCensus, SsNode};
use topology::{OrientedTree, RootedGraph};
use treenet::app::BoxedDriver;
use treenet::{run_sustained, EventScheduler, Network, NodeId};

/// Why a composition attempt failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompositionError {
    /// The spanning-tree layer did not stabilize within the step budget.
    SpanningTreeDidNotStabilize {
        /// Activations spent on the spanning-tree layer.
        spent: u64,
    },
    /// The exclusion layer did not become legitimate within the step budget.
    ExclusionDidNotStabilize {
        /// Activations spent on the exclusion layer.
        spent: u64,
    },
}

impl std::fmt::Display for CompositionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompositionError::SpanningTreeDidNotStabilize { spent } => {
                write!(f, "spanning tree did not stabilize within {spent} activations")
            }
            CompositionError::ExclusionDidNotStabilize { spent } => {
                write!(f, "exclusion protocol did not stabilize within {spent} activations")
            }
        }
    }
}

impl std::error::Error for CompositionError {}

/// Step budgets and stabilization windows for [`compose`].
#[derive(Clone, Copy, Debug)]
pub struct CompositionBudget {
    /// Maximum activations for the spanning-tree layer.
    pub st_max_steps: u64,
    /// The spanning-tree output must be correct across this many consecutive activations to
    /// be considered stable (a streak of [`treenet::run_sustained`]).
    pub st_window: u64,
    /// Maximum activations for the exclusion layer.
    pub kl_max_steps: u64,
    /// The exclusion layer must be legitimate across this many consecutive activations.
    pub kl_window: u64,
}

impl CompositionBudget {
    /// A generous default budget for a graph of `n` nodes.
    pub fn for_size(n: usize) -> Self {
        let n = n.max(2) as u64;
        CompositionBudget {
            st_max_steps: 40_000 * n,
            st_window: 8 * n - 1,
            kl_max_steps: 80_000 * n,
            kl_window: 8 * n - 1,
        }
    }
}

/// The outcome of a successful composition.
pub struct Composition {
    /// The stabilized spanning tree and the graph ↔ tree id mappings.
    pub extracted: ExtractedTree,
    /// Activations spent until the spanning-tree layer stabilized.
    pub st_activations: u64,
    /// Messages sent by the spanning-tree layer until stabilization.
    pub st_messages: u64,
    /// Activations spent until the exclusion layer became legitimate.
    pub kl_activations: u64,
    /// The running exclusion network (legitimate when returned); drive it further to serve
    /// requests.
    pub network: Network<SsNode, OrientedTree>,
    /// The exclusion configuration in force.
    pub kl_config: KlConfig,
}

impl Composition {
    /// Total stabilization cost of the layered composition, in activations.
    pub fn total_activations(&self) -> u64 {
        self.st_activations + self.kl_activations
    }
}

/// Runs the spanning-tree layer on `graph` until its output is stable, then builds and
/// stabilizes the k-out-of-ℓ exclusion protocol on the extracted tree.
///
/// `driver_for` is indexed by **graph** node id; the mapping to tree ids is applied
/// internally, so callers describe workloads in terms of the original network.
pub fn compose(
    graph: RootedGraph,
    st_cfg: StConfig,
    kl_cfg: KlConfig,
    mut driver_for: impl FnMut(NodeId) -> BoxedDriver,
    sched: &mut impl EventScheduler,
    budget: CompositionBudget,
) -> Result<Composition, CompositionError> {
    // Layer 1: spanning-tree construction.
    let mut st_net = protocol::network(graph, st_cfg);
    let outcome = run_sustained(
        &mut st_net,
        sched,
        budget.st_max_steps,
        budget.st_window,
        |net, sched| {
            net.step_event(sched);
        },
        |net, _| parents_form_tree(net) && distances_are_exact(net),
    );
    let st_activations = st_net.now();
    if outcome.is_exhausted() {
        return Err(CompositionError::SpanningTreeDidNotStabilize { spent: st_activations });
    }
    let st_messages = st_net.metrics().messages_sent;
    let extracted =
        extract_tree(&st_net).expect("a stabilized spanning-tree network must yield a tree");

    // Layer 2: the exclusion protocol on the extracted tree, with drivers translated from
    // graph ids to tree ids.
    let tree_to_graph = extracted.tree_to_graph.clone();
    let mut kl_net = klex_core::ss::network(extracted.tree.clone(), kl_cfg, |tree_id| {
        driver_for(tree_to_graph[tree_id])
    });
    let mut census = LiveCensus::new(&kl_net, &kl_cfg);
    let outcome = run_sustained(
        &mut kl_net,
        &mut census,
        budget.kl_max_steps,
        budget.kl_window,
        |net, census| {
            census.step(net, sched);
        },
        |_, census| census.is_legitimate(),
    );
    let kl_activations = kl_net.now();
    if outcome.is_exhausted() {
        return Err(CompositionError::ExclusionDidNotStabilize { spent: kl_activations });
    }

    Ok(Composition {
        extracted,
        st_activations,
        st_messages,
        kl_activations,
        network: kl_net,
        kl_config: kl_cfg,
    })
}

/// Convenience wrapper: default spanning-tree configuration and budget for the graph's size.
pub fn compose_with_defaults(
    graph: RootedGraph,
    kl_cfg: KlConfig,
    driver_for: impl FnMut(NodeId) -> BoxedDriver,
    sched: &mut impl EventScheduler,
) -> Result<Composition, CompositionError> {
    let st_cfg = StConfig::for_graph(&graph);
    let budget = CompositionBudget::for_size(graph.len());
    compose(graph, st_cfg, kl_cfg, driver_for, sched, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use klex_core::{count_tokens, is_legitimate};
    use topology::Topology;
    use treenet::app::{AppDriver, Idle};
    use treenet::{RandomFair, RoundRobin};

    /// Requests one unit forever, releasing the critical section immediately.
    #[derive(Clone, Copy)]
    struct One;
    impl AppDriver for One {
        fn next_request(&mut self, _n: NodeId, _t: u64) -> Option<usize> {
            Some(1)
        }
        fn release_cs(&mut self, _n: NodeId, _t: u64, _e: u64) -> bool {
            true
        }
    }

    #[test]
    fn composition_stabilizes_on_a_random_general_network() {
        let graph = RootedGraph::random_connected(12, 8, 21);
        let kl_cfg = KlConfig::new(2, 4, 12);
        let mut sched = RandomFair::new(3);
        let composition =
            compose_with_defaults(graph, kl_cfg, |_| Box::new(One) as BoxedDriver, &mut sched)
                .expect("composition must stabilize");
        assert!(composition.st_activations > 0);
        assert!(composition.kl_activations > 0);
        assert!(is_legitimate(&composition.network, &kl_cfg));
        assert!(count_tokens(&composition.network).matches(4));
    }

    #[test]
    fn composition_serves_requests_after_stabilization() {
        let graph = RootedGraph::random_connected(8, 5, 4);
        let kl_cfg = KlConfig::new(1, 2, 8);
        let mut sched = RandomFair::new(11);
        let mut composition =
            compose_with_defaults(graph, kl_cfg, |_| Box::new(One) as BoxedDriver, &mut sched)
                .expect("composition must stabilize");
        let before = composition.network.trace().cs_entries(None);
        for _ in 0..60_000 {
            composition.network.step_event(&mut sched);
        }
        let after = composition.network.trace().cs_entries(None);
        assert!(
            after > before + 50,
            "the composed system must keep serving critical sections ({before} -> {after})"
        );
    }

    #[test]
    fn composition_on_a_tree_shaped_graph_matches_direct_execution() {
        // When the general network is already a tree, the extracted tree must be that tree
        // (same depths) and the composition reduces to the plain protocol.
        let graph = RootedGraph::new(5, 0, &[(0, 1), (0, 2), (1, 3), (1, 4)]);
        let expected_depths = graph.bfs_distances();
        let kl_cfg = KlConfig::new(1, 2, 5);
        let mut sched = RoundRobin::new();
        let composition =
            compose_with_defaults(graph, kl_cfg, |_| Box::new(Idle) as BoxedDriver, &mut sched)
                .expect("composition must stabilize");
        assert_eq!(composition.extracted.depths, expected_depths);
        assert_eq!(composition.extracted.tree.len(), 5);
    }

    #[test]
    fn budget_exhaustion_is_reported_not_panicked() {
        let graph = RootedGraph::random_connected(10, 6, 9);
        let st_cfg = StConfig::for_graph(&graph);
        let kl_cfg = KlConfig::new(1, 2, 10);
        let mut sched = RoundRobin::new();
        let tight =
            CompositionBudget { st_max_steps: 5, st_window: 2, kl_max_steps: 5, kl_window: 2 };
        let err = match compose(
            graph,
            st_cfg,
            kl_cfg,
            |_| Box::new(Idle) as BoxedDriver,
            &mut sched,
            tight,
        ) {
            Ok(_) => panic!("a 5-activation budget cannot stabilize a 10-node graph"),
            Err(err) => err,
        };
        assert!(matches!(err, CompositionError::SpanningTreeDidNotStabilize { .. }));
        assert!(err.to_string().contains("spanning tree"));
    }
}
