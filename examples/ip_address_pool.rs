//! IP-address-pool allocation — the "ℓ units of a shared resource" scenario from the paper's
//! introduction (a pool of IP addresses handed out to hosts).
//!
//! ```text
//! cargo run --release --example ip_address_pool
//! ```
//!
//! **Paper scenario:** the introduction's resource-allocation framing — ℓ identical units
//! of a shared resource (an address pool) with per-request demands up to k.
//!
//! A small campus network is organised as a tree (routers with hosts hanging off them).  A
//! pool of 6 addresses is shared; a host may lease up to 2 addresses at a time (e.g. one per
//! interface).  The regime is one declarative [`ScenarioSpec`]: the
//! [`WorkloadSpec::LeafUniform`] workload makes exactly the *hosts* (leaf nodes) issue
//! leases at random times while the routers only forward.  The example replays the compiled
//! scenario by hand so a [`LiveCensus`] can verify the safety property after every
//! activation (no host over its lease limit, pool never over-committed, no address lost or
//! duplicated) while lease traffic runs.

use kl_exclusion::prelude::*;

fn main() {
    let pool_size = 6; // ℓ: addresses in the pool
    let max_lease = 2; // k: addresses a single host may hold

    // A two-level "campus" tree: 4 spine routers with 2 hosts each = 12 nodes.
    let scenario = Scenario::builder("ip address pool")
        .topology(TopologySpec::Caterpillar { spine: 4, legs: 2 })
        .protocol(ProtocolSpec::Ss)
        .kl(max_lease, pool_size)
        .workload(WorkloadSpec::LeafUniform {
            seed: 7_000,
            p_request: 0.01,
            max_units: max_lease,
            max_hold: 60,
        })
        .daemon(DaemonSpec::RandomFair { seed: 31 })
        .build()
        .expect("the address-pool scenario validates");

    let cfg = scenario.spec().config.to_kl(scenario.spec().topology.len());
    let mut net = scenario.build_ss().expect("ss scenario");
    let mut sched = scenario.make_daemon();
    let n = net.len();

    // Bootstrap the pool.
    let boot = measure_convergence(&mut net, &mut sched, &cfg, 3_000_000, 2_000);
    assert!(boot.converged(), "the address pool must come up");
    net.trace_mut().clear();

    // Lease traffic with continuous safety checking (the reason this example drives the
    // compiled network by hand instead of calling `scenario.run()`).
    let mut census = LiveCensus::new(&net, &cfg);
    let checks = 400_000u64;
    for _ in 0..checks {
        census.step(&mut net, &mut sched);
        if let Err(breach) = census.safety() {
            panic!("safety violated at t={}: {breach}", net.now());
        }
        assert_eq!(census.census().resource, pool_size, "an address was lost or duplicated");
    }

    let fairness = FairnessReport::from_trace(net.trace(), net.len());
    println!("address pool of {pool_size}, max {max_lease} per host, {} processes", net.len());
    println!("leases granted per node: {:?}", fairness.entries_per_node);
    println!("requests issued per node: {:?}", fairness.requests_per_node);
    println!("starved hosts: {:?}", fairness.starved);
    println!("safety checks performed: {checks} (all clean)");

    // Routers (interior nodes) never lease: the LeafUniform workload keeps them passive.
    let tree = scenario.spec().topology.build(0);
    for v in 0..n {
        if !tree.is_leaf(v) {
            assert_eq!(fairness.requests_per_node[v], 0, "router {v} must not lease");
        }
    }

    let waits = waiting_times(net.trace());
    if !waits.is_empty() {
        let mean =
            waits.iter().map(|w| w.activations_waited as f64).sum::<f64>() / waits.len() as f64;
        println!("mean lease latency: {mean:.0} activations over {} leases", waits.len());
    }
}
