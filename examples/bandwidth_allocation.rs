//! Heterogeneous bandwidth allocation — the motivation the paper gives for generalising
//! ℓ-exclusion to k-out-of-ℓ exclusion: "requests may vary from 1 to k units of a given
//! resource", e.g. bandwidth for audio versus video streams.
//!
//! ```text
//! cargo run --release --example bandwidth_allocation
//! ```
//!
//! **Paper scenario:** the introduction's motivating application — heterogeneous requests
//! of 1..k units (audio vs video bandwidth) served by one k-out-of-ℓ exclusion instance.
//!
//! A backbone link offers 8 bandwidth units.  Audio calls need 1 unit, standard video needs
//! 2, high-definition video needs 4.  Nodes of a binary distribution tree issue a mix of
//! these requests.  The whole regime is one [`ScenarioSpec`]: the heterogeneous traffic mix
//! is a [`WorkloadSpec::Needs`] table, stabilization runs under a fair daemon (the warmup
//! override), and the measurement phase runs under the bounded-unfairness adversary that
//! starves the deepest node — which the spec selects declaratively with an empty victim
//! list.  Even the disadvantaged requester keeps being served (fairness), and waiting times
//! are compared with the Theorem-2 bound.

use kl_exclusion::prelude::*;

fn main() {
    let n = 15usize;
    // Traffic mix per node id: HD video (4 units) on nodes divisible by 5, standard video
    // (2) on even nodes, audio (1) elsewhere; every stream stays open for 20 activations.
    let needs: Vec<usize> = (0..n)
        .map(|id| {
            if id % 5 == 0 {
                4
            } else if id % 2 == 0 {
                2
            } else {
                1
            }
        })
        .collect();

    let scenario = Scenario::builder("bandwidth allocation")
        .topology(TopologySpec::Binary { n })
        .protocol(ProtocolSpec::Ss)
        .kl(4, 8) // k = 4 (HD video), ℓ = 8 units of bandwidth
        .workload(WorkloadSpec::Needs { needs: needs.clone(), hold: 20 })
        // Measurement runs under the adversary; an empty victim list targets the deepest
        // node of the tree.
        .daemon(DaemonSpec::Adversarial { victims: vec![], patience: 6 })
        // Stabilization happens under a fair daemon — the adversary alone cannot bootstrap
        // the token population quickly.
        .warmup_spec(WarmupSpec {
            max_steps: 3_000_000,
            window: Some(2_000),
            daemon: Some(DaemonSpec::RandomFair { seed: 99 }),
        })
        .stop(StopSpec::Steps { steps: 400_000 })
        .metrics(&["cs_entries", "jain_index", "waiting_max", "waiting_mean"])
        .build()
        .expect("the bandwidth scenario validates");

    let outcome = scenario.run();
    assert!(outcome.warmup_activations.is_some(), "the protocol must bootstrap");

    let fairness = FairnessReport::from_trace(&outcome.trace, n);
    let victim = analysis::scenario::deepest_node(&scenario.spec().topology.build(0));
    let waits = waiting_times(&outcome.trace);
    let victim_waits: Vec<u64> = analysis::waiting::of_node(&waits, victim);

    println!("bandwidth pool: 8 units; requests of 1 (audio), 2 (video), 4 (HD video)");
    println!("streams admitted per node: {:?}", fairness.entries_per_node);
    println!(
        "victim node {victim} (starved by the adversary, needs {} units) admitted {} streams",
        needs[victim], fairness.entries_per_node[victim]
    );
    println!(
        "victim worst waiting time: {} CS entries (bound: {})",
        victim_waits.iter().max().copied().unwrap_or(0),
        topology::euler::theorem2_waiting_bound(scenario.spec().config.l, n)
    );
    println!("system-wide worst waiting time: {}", outcome.metric("waiting_max").unwrap());
    println!("Jain fairness index: {:.3}", outcome.metric("jain_index").unwrap());
    assert!(
        fairness.entries_per_node[victim] > 0,
        "even the adversarially-delayed node must be served"
    );
}
