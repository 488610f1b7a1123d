//! Quickstart: run self-stabilizing 3-out-of-5 exclusion on the paper's Figure-1 tree.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! **Paper scenario:** Algorithms 1 & 2 on the Figure-1 tree (Sections 3-4) under the
//! saturated workload of the waiting-time analysis.
//!
//! The whole regime is one declarative [`ScenarioSpec`]: topology, protocol, (k, ℓ),
//! workload, daemon, warmup and stop condition.  The compiled scenario bootstraps the
//! protocol (the controller creates the tokens), runs a steady-state measurement window, and
//! hands back the selected metrics plus the raw trace for anything bespoke.  The identical
//! spec also drives the sharded multi-trial harness and — for small instances — the
//! exhaustive checker, and is what `klex run quickstart` executes.

use kl_exclusion::prelude::*;

fn main() {
    // 1. The regime, declaratively: the 8-process Figure-1 tree, any process may ask for up
    //    to k = 3 of the ℓ = 5 units, every process keeps requesting 2 units and holds them
    //    for 10 activations, under a seeded asynchronous-but-fair daemon.  Stabilize first
    //    (warmup), then measure 200k activations.
    let scenario = Scenario::builder("quickstart")
        .topology(TopologySpec::Figure1)
        .protocol(ProtocolSpec::Ss)
        .kl(3, 5)
        .workload(WorkloadSpec::Saturated { units: 2, hold: 10 })
        .daemon(DaemonSpec::RandomFair { seed: 2024 })
        .warmup_spec(WarmupSpec { max_steps: 2_000_000, window: Some(2_000), daemon: None })
        .stop(StopSpec::Steps { steps: 200_000 })
        .metrics(&["cs_entries", "messages_sent", "jain_index", "waiting_max", "resource_tokens"])
        .build()
        .expect("the quickstart scenario validates");

    // 2. Run it.  (The same spec value also feeds `run_harness` and `check`.)
    let outcome = scenario.run();
    println!(
        "bootstrap: stabilized after {} activations",
        outcome.warmup_activations.expect("the protocol must bootstrap")
    );
    println!(
        "token census after bootstrap/measurement: {} resource tokens (ℓ = 5)",
        outcome.metric("resource_tokens").unwrap()
    );

    // 3. The selected metrics of the measurement window.
    let entries = outcome.metric("cs_entries").unwrap();
    let messages = outcome.metric("messages_sent").unwrap();
    println!("critical sections entered in 200k activations: {entries}");
    println!("messages per critical section: {:.1}", messages / entries.max(1.0));
    println!("Jain fairness index: {:.3}", outcome.metric("jain_index").unwrap());
    println!(
        "worst observed waiting time: {} CS entries (Theorem 2 bound: {})",
        outcome.metric("waiting_max").unwrap(),
        topology::euler::theorem2_waiting_bound(
            scenario.spec().config.l,
            scenario.spec().topology.len()
        )
    );

    // 4. The raw trace is still there for anything the metric set does not cover.
    let fairness = FairnessReport::from_trace(&outcome.trace, 8);
    println!("critical sections per process: {:?}", fairness.entries_per_node);
    assert!(fairness.starvation_free(), "no requester may starve once stabilized");
}
