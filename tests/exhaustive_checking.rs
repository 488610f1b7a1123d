//! Integration tests for the bounded-exhaustive checker: the paper's figure-level claims are
//! verified over *every* scheduling of small instances, and the checker's verdicts are
//! cross-validated against the simulation-level analysis tools.

use kl_exclusion::prelude::*;

use checker::{cycles, drivers, properties, scenarios, Explorer, Limits};
use treenet::CsState;

fn wide_limits(max_configurations: usize) -> Limits {
    Limits { max_configurations, max_depth: usize::MAX }
}

#[test]
fn naive_deadlock_witness_replays_in_the_simulator() {
    // The checker finds a deadlock of the naive protocol; replaying its shortest trace in the
    // plain simulator must land in a configuration that the analysis crate's deadlock
    // detector also classifies as deadlocked.
    let tree = topology::builders::chain(3);
    let cfg = KlConfig::new(2, 2, 3);
    let needs = [0usize, 2, 2];
    let mut net = protocol::naive::network(tree.clone(), cfg, drivers::from_needs(&needs));
    let report = Explorer::new(&mut net).with_limits(wide_limits(500_000)).run();
    assert!(report.exhaustive());
    let witness = report.deadlocks.first().expect("the naive protocol deadlocks");

    // Replay on a fresh network.
    let mut fresh = protocol::naive::network(tree, cfg, drivers::from_needs(&needs));
    for act in &witness.trace {
        fresh.execute(*act);
    }
    let verdict = analysis::detect_deadlock(&mut fresh, &mut RoundRobin::new(), 5_000);
    assert!(verdict.is_deadlock(), "the simulator must agree the configuration is deadlocked");
}

#[test]
fn full_protocol_never_deadlocks_on_the_instance_that_kills_the_naive_one() {
    // Same instance, same needs, but the self-stabilizing protocol (which includes the
    // pusher): exhaustive exploration finds no deadlocked configuration.
    let tree = topology::builders::chain(3);
    let cfg = KlConfig::new(2, 2, 3).with_cmax(0);
    let needs = [0usize, 2, 2];
    let mut net = scenarios::stabilized_ss(tree, cfg, drivers::from_needs(&needs), 500_000);
    let report = Explorer::new(&mut net)
        .with_limits(wide_limits(400_000))
        .with_property(properties::safety(cfg))
        .run();
    assert!(report.exhaustive(), "explored {} configurations", report.configurations);
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(report.deadlock_free(), "deadlocks: {:?}", report.deadlocks.len());
}

#[test]
fn safety_holds_in_every_reachable_configuration_of_a_mixed_workload() {
    // 2-out-of-3 exclusion on the Figure-3 tree with one big and one small requester plus a
    // passive root; every reachable configuration satisfies the safety bounds.
    let tree = topology::builders::figure3_tree();
    let cfg = KlConfig::new(2, 3, 3).with_cmax(0);
    let needs = [0usize, 2, 1];
    let mut net = scenarios::stabilized_ss(tree, cfg, drivers::from_needs(&needs), 500_000);
    let report = Explorer::new(&mut net)
        .with_limits(wide_limits(400_000))
        .with_property(properties::safety(cfg))
        .with_property(properties::exact_census(cfg))
        .with_property(properties::no_garbage())
        .run();
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(report.exhaustive());
}

#[test]
fn starvation_cycle_exists_without_priority_and_not_with_it() {
    // The Figure-3 claim, end to end through the facade crate.
    let tree = topology::builders::figure3_tree();
    let cfg = KlConfig::new(2, 3, 3);
    let needs = [1usize, 2, 1];

    let mut pusher_net =
        protocol::pusher::network(tree.clone(), cfg, drivers::from_needs_holding(&needs));
    let mut explorer =
        Explorer::new(&mut pusher_net).with_limits(wide_limits(800_000)).record_graph(true);
    assert!(explorer.run().exhaustive());
    let cycle = cycles::find_progress_cycle(explorer.graph(), 1);
    assert!(cycle.is_some(), "pusher-only: process a can be starved forever");

    let mut prio_net = protocol::nonstab::network(tree, cfg, drivers::from_needs_holding(&needs));
    let mut explorer =
        Explorer::new(&mut prio_net).with_limits(wide_limits(2_000_000)).record_graph(true);
    assert!(explorer.run().exhaustive());
    assert!(
        cycles::find_progress_cycle(explorer.graph(), 1).is_none(),
        "with the priority token process a cannot be starved"
    );
}

#[test]
fn kl_liveness_boundary_is_exact_when_pinned_processes_hold_units_forever() {
    // The (k,ℓ)-liveness property's boundary on a small instance, exhaustively: with one
    // process pinned in its critical section holding 1 of the 2 units, a requester asking for
    // the remaining unit is eventually served on every fair path — operationally, there is no
    // reachable configuration from which the requester's service is unreachable.
    let tree = topology::builders::chain(3);
    let cfg = KlConfig::new(2, 2, 3).with_cmax(0);
    let mut net = scenarios::stabilized_ss(
        tree,
        cfg,
        |node| match node {
            1 => drivers::RequestAndHold::boxed(1),
            2 => drivers::AlwaysRequest::boxed(1),
            _ => drivers::NeverRequest::boxed(),
        },
        500_000,
    );
    let mut explorer = Explorer::new(&mut net)
        .with_limits(wide_limits(400_000))
        .with_property(properties::safety(cfg))
        .record_graph(true);
    let report = explorer.run();
    assert!(report.exhaustive() && report.ok());
    // No reachable cycle starves the 1-unit requester (node 2) while others progress, and no
    // deadlock blocks it: together these say its request is always eventually serviceable.
    assert!(cycles::find_progress_cycle(explorer.graph(), 2).is_none());
    assert!(report.deadlock_free());
    // The pinned process really is pinned: some reachable configuration has it In.
    let pinned_visible = (0..explorer.graph().len())
        .any(|id| explorer.graph().config(id).nodes[1].cs == CsState::In);
    assert!(pinned_visible);
}
