//! Integration tests for the adversarial fault-schedule engine (ISSUE 9 acceptance):
//! a multi-epoch campaign with topology churn runs through all three backends —
//! simulator, sharded harness, and bounded-exhaustive checker — with per-epoch
//! convergence times in the report, identical across engines and shard counts.

use checker::ExplorationReport;
use kl_exclusion::prelude::*;

use analysis::scenario::{preset, FaultEventSpec, FaultScheduleSpec};

/// Backend 1+2 — the bundled `churn-campaign` preset (4 epochs, 2 of them churn) runs a
/// full campaign on the simulator, reports every epoch with its re-convergence time, and
/// produces shard-count-independent harness results.
#[test]
fn churn_campaign_reports_per_epoch_convergence_on_sim_and_harness() {
    let scenario = preset("churn-campaign").expect("bundled preset").compile().expect("compiles");
    let spec = scenario.spec();
    let schedule = spec.fault_schedule.as_ref().expect("the preset carries a schedule");
    assert!(schedule.epochs.len() >= 3, "acceptance asks for a ≥3-epoch schedule");
    assert!(
        schedule.epochs.iter().any(|e| e.is_churn()),
        "acceptance asks for at least one churn event"
    );

    let sim = scenario.run();
    assert_eq!(sim.epochs.len(), schedule.epochs.len(), "one outcome per epoch");
    for (epoch, event) in sim.epochs.iter().zip(&schedule.epochs) {
        assert_eq!(epoch.event, event.label(), "epochs report in schedule order");
    }
    // The campaign is the point: every epoch of this tuned preset re-converges, and the
    // times land in the metrics block alongside the aggregate campaign metrics.
    for (i, epoch) in sim.epochs.iter().enumerate() {
        let time = epoch
            .convergence
            .unwrap_or_else(|| panic!("epoch {i} [{}] failed to re-converge", epoch.event));
        assert_eq!(sim.metric(&format!("epoch{i}_convergence")), Some(time as f64));
    }
    assert_eq!(sim.metric("epochs_total"), Some(sim.epochs.len() as f64));
    assert_eq!(sim.metric("epochs_converged"), Some(sim.epochs.len() as f64));
    assert!(sim.metric("epoch_convergence_mean").unwrap() > 0.0);

    // Churn epochs record the network size *after* the event: the join grows the tree by
    // one node, the leave shrinks it back.
    let n = spec.topology.len();
    let sizes: Vec<usize> = sim.epochs.iter().map(|e| e.nodes).collect();
    assert_eq!(sizes, vec![n, n + 1, n + 1, n], "join-leaf then leave-leaf sizes");

    // The sharded harness reports the identical per-trial campaign metrics at any shard
    // count — trial decomposition must not perturb the per-trial schedule streams.
    let harness = scenario.run_harness(4);
    assert_eq!(harness.per_trial.len(), spec.trials as usize);
    for trial in &harness.per_trial {
        assert_eq!(trial.get("epochs_total"), Some(&(sim.epochs.len() as f64)));
    }
    assert_eq!(scenario.run_harness(1).per_trial, harness.per_trial);
}

/// The adversarial-by-construction gauntlet (targeted token-path corruption, double
/// crash, catastrophic transient) also runs end to end: the self-stabilizing rung
/// recovers from every epoch.
#[test]
fn fault_gauntlet_recovers_from_every_epoch() {
    let scenario = preset("fault-gauntlet").expect("bundled preset").compile().expect("compiles");
    let sim = scenario.run();
    assert_eq!(sim.epochs.len(), 3);
    assert_eq!(sim.metric("epochs_converged"), Some(3.0));
    assert!(
        sim.outcome.is_satisfied() || sim.metric("satisfied") == Some(1.0),
        "{:?}",
        sim.outcome
    );
}

/// A schedule-bearing spec survives the JSON round trip (the `klex run <file>` path) and
/// the round-tripped spec drives an identical campaign.
#[test]
fn schedule_bearing_specs_round_trip_through_json() {
    let spec = preset("churn-campaign").expect("bundled preset");
    let json = spec.to_json();
    let back = ScenarioSpec::from_json(&json).expect("schedule specs round-trip");
    assert_eq!(spec, back);

    let original = spec.compile().expect("compiles").run();
    let replayed = back.compile().expect("compiles").run();
    assert_eq!(original.epochs, replayed.epochs, "the round trip preserves the campaign");
    assert_eq!(original.metrics, replayed.metrics);
}

/// Field-for-field identity of two exploration reports (mirrors the parity suites).
fn assert_reports_identical(name: &str, a: &ExplorationReport, b: &ExplorationReport) {
    assert_eq!(a.configurations, b.configurations, "{name}: reachable-set size");
    assert_eq!(a.transitions, b.transitions, "{name}: transitions");
    assert_eq!(a.max_depth, b.max_depth, "{name}: max depth");
    assert_eq!(a.frontier_sizes, b.frontier_sizes, "{name}: frontiers per level");
    assert_eq!(a.truncated, b.truncated, "{name}: truncation");
    assert_eq!(a.violations.len(), b.violations.len(), "{name}: violation count");
    assert_eq!(a.deadlocks.len(), b.deadlocks.len(), "{name}: deadlock count");
}

/// Backend 3 — a churn schedule lowers into the checker: the prologue replays the
/// campaign (including the topology churn) to a settled configuration, and the delta and
/// interned engines explore the identical reachable space from it.
#[test]
fn checker_engines_agree_on_a_churn_schedule() {
    let scenario = preset("checker-churn").expect("bundled preset").compile().expect("compiles");
    let schedule = scenario.spec().fault_schedule.as_ref().expect("schedule preset");
    assert!(schedule.epochs.len() >= 3);
    assert!(schedule.epochs.iter().any(|e| e.is_churn()));

    let delta = scenario.check().expect("schedules lower");
    let interned = scenario.check_interned().expect("schedules lower");
    assert_reports_identical("delta vs interned", &delta, &interned);

    // The churn grew the chain by one leaf before exploration started, so the explored
    // space is non-trivial and safety holds throughout it.
    assert!(delta.configurations > 1, "the settled campaign state has successors");
    assert!(delta.ok(), "safety violations: {:?}", delta.violations);
}

/// Regression (found by the fuzzer): a per-node `Needs` workload combined with a
/// renumbering churn event.  Removing a leaf renumbers the survivors, and the campaign
/// carries each survivor's driver across under its *pre-churn* id; an explorer network that
/// re-indexed the `needs` vector by post-churn ids explored a genuinely different protocol
/// instance (11 configurations instead of 6 on this spec).
#[test]
fn renumbering_churn_keeps_the_pre_churn_driver_assignment() {
    let scenario = ScenarioSpec::builder("needs + leave-leaf driver carryover")
        .topology(TopologySpec::Figure3)
        .protocol(ProtocolSpec::Pusher)
        .kl(1, 1)
        .workload(WorkloadSpec::Needs { needs: vec![0, 1, 0], hold: 0 })
        .fault_schedule(FaultScheduleSpec {
            seed: 560_697_444_765_385_336,
            epochs: vec![FaultEventSpec::LeaveLeaf],
            max_steps: 300,
            window: None,
        })
        .check(CheckSpec {
            max_configurations: 1_000,
            max_depth: 0,
            properties: vec!["safety".into()],
            ..CheckSpec::default()
        })
        .build()
        .expect("valid spec");
    let delta = scenario.check().expect("lowers");
    let interned = scenario.check_interned().expect("lowers");
    assert_reports_identical("delta vs interned", &delta, &interned);
    assert_eq!(delta.configurations, 6, "the carried-over driver assignment");
}

/// Handlers and schedulers read a process's degree from the CSR channel slab, not from the
/// tree; `rebuild_from` must keep the two in step across every kind of churn, and the
/// protocol must keep running on the slab's degrees afterwards (a wrong one sends on a
/// channel that does not exist, which panics).
#[test]
fn slab_degrees_match_the_topology_after_every_churn_event() {
    let cfg = KlConfig::new(1, 2, 8);
    let build =
        |tree: OrientedTree| protocol::ss::network(tree, cfg, workloads::all_saturated(1, 4));
    let mut net = build(topology::builders::figure1_tree());
    let mut daemon = RoundRobin::new();
    let assert_degrees = |net: &Network<SsNode, OrientedTree>, event: &str| {
        for v in 0..net.len() {
            assert_eq!(
                net.degree(v),
                net.topology().degree(v),
                "after {event}: slab degree of node {v}"
            );
        }
    };

    treenet::engine::run(&mut net, &mut daemon, 500);
    assert_degrees(&net, "boot");

    // A leaf joins under node 1; ids are stable, the newcomer is fresh.
    let grown = net.topology().with_leaf_added(1);
    let map: Vec<Option<usize>> = (0..net.len()).map(Some).chain([None]).collect();
    net.rebuild_from(build(grown), &map);
    assert_degrees(&net, "join-leaf");
    treenet::engine::run(&mut net, &mut daemon, 500);

    // Leaf 3 leaves; every id above it shifts down.
    let (shrunk, old_of_new) = net.topology().with_leaf_removed(3);
    let map: Vec<Option<usize>> = old_of_new.into_iter().map(Some).collect();
    net.rebuild_from(build(shrunk), &map);
    assert_degrees(&net, "leave-leaf");
    treenet::engine::run(&mut net, &mut daemon, 500);

    // Node 2 is re-hung under node 4: three degrees change at once.
    let rewired = net.topology().with_edge_rewired(2, 4);
    let map: Vec<Option<usize>> = (0..net.len()).map(Some).collect();
    net.rebuild_from(build(rewired), &map);
    assert_degrees(&net, "rewire-edge");
    treenet::engine::run(&mut net, &mut daemon, 500);
    assert_degrees(&net, "the run after rewire-edge");
}
