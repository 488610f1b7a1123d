//! Running k-out-of-ℓ exclusion on an arbitrary rooted network with a **distributed**,
//! self-stabilizing spanning-tree construction — the full composition sketched in the paper's
//! conclusion (the `general_network` example uses an offline/centralized tree extraction; this
//! one builds the tree with a protocol running in the same message-passing model).
//!
//! ```text
//! cargo run --release --example distributed_spanning_tree
//! ```
//!
//! **Paper scenario:** the conclusion's extension to arbitrary rooted networks, here with
//! the spanning tree itself built by a self-stabilizing protocol in the same model.
//!
//! The run has three acts: the beacon protocol constructs a BFS spanning tree of a 20-node
//! mesh; the k-out-of-ℓ exclusion protocol stabilizes on the constructed tree; and finally the
//! spanning-tree layer is hit by a transient fault (all distance estimates corrupted) to show
//! that it re-converges to the same tree.
//!
//! This is the one example that drives the simulator *below* the declarative scenario API:
//! the composition layers two protocols in one network, which a single-protocol
//! [`kl_exclusion::prelude::ScenarioSpec`] does not describe.  The offline-extraction
//! variant of the same composition **is** declarative — `TopologySpec::SpanningTree` — and
//! the `general_network` example runs it end-to-end through `Scenario::run`.

use kl_exclusion::prelude::*;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stree::composed::compose_with_defaults;
use topology::RootedGraph;
use treenet::Corruptible;

fn main() {
    // A 20-node mesh: a random connected graph with 14 redundant links.
    let graph = RootedGraph::random_connected(20, 14, 2026);
    let n = graph.len();
    println!(
        "mesh: {n} nodes, {} links ({} beyond a spanning tree), root = {}",
        graph.edge_count(),
        graph.edge_count() - (n - 1),
        graph.root()
    );

    // Act 1 + 2: layered composition — stabilize the spanning tree, then the exclusion
    // protocol on top of it.  Workload: every process keeps requesting 2 of the 5 units.
    let kl = KlConfig::new(3, 5, n);
    let mut sched = RandomFair::new(99);
    let mut composition =
        compose_with_defaults(graph.clone(), kl, workloads::all_saturated(2, 8), &mut sched)
            .expect("the composition stabilizes");

    println!("\nspanning-tree layer:");
    println!(
        "  stabilized after {} activations and {} beacons",
        composition.st_activations, composition.st_messages
    );
    println!(
        "  tree height {}, virtual-ring length {} (vs {} directed links in the mesh)",
        composition.extracted.tree.height(),
        VirtualRing::of(&composition.extracted.tree).len(),
        graph.directed_channels(),
    );

    println!("\nexclusion layer (on the constructed tree):");
    println!("  legitimate after {} further activations", composition.kl_activations);
    println!(
        "  composition total: {} activations until the whole stack is stabilized",
        composition.total_activations()
    );

    // Serve requests for a while and report the service the composed stack delivers.
    composition.network.trace_mut().clear();
    for _ in 0..150_000 {
        composition.network.step_event(&mut sched);
    }
    let entries = composition.network.trace().cs_entries(None);
    let fairness = FairnessReport::from_trace(composition.network.trace(), n);
    println!("  critical sections served in 150k activations: {entries}");
    println!("  Jain fairness index: {:.3}", fairness.jain_index);
    assert!(entries > 0 && fairness.starvation_free());

    // Act 3: corrupt the spanning-tree layer and show it re-converges to the same BFS tree.
    println!("\ntransient fault on the spanning-tree layer (all estimates corrupted):");
    let mut st_net = stree::network_with_defaults(graph.clone());
    let mut rng = StdRng::seed_from_u64(5);
    let mut sched2 = RandomFair::new(11);
    // First stabilize, then corrupt every node's spanning-tree state.
    for _ in 0..200_000 {
        st_net.step_event(&mut sched2);
        if stree::distances_are_exact(&st_net) {
            break;
        }
    }
    let depth_before: Vec<usize> = (0..n).map(|v| st_net.node(v).dist).collect();
    for v in 0..n {
        st_net.node_mut(v).corrupt(&mut rng);
    }
    let mut recovery_steps = 0u64;
    while !stree::distances_are_exact(&st_net) {
        st_net.step_event(&mut sched2);
        recovery_steps += 1;
        assert!(recovery_steps < 2_000_000, "the spanning tree must re-converge");
    }
    let depth_after: Vec<usize> = (0..n).map(|v| st_net.node(v).dist).collect();
    println!("  re-converged to the same BFS distances after {recovery_steps} activations");
    assert_eq!(depth_before, depth_after);
}
