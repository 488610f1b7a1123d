//! Cross-crate integration tests: the self-stabilizing protocol satisfies the k-out-of-ℓ
//! exclusion specification (safety + fairness) on a variety of topologies and workloads,
//! measured through the public facade crate only.

use kl_exclusion::prelude::*;

/// Stabilize a network and clear its counters, panicking if it never stabilizes.
fn stabilize(
    net: &mut Network<protocol::SsNode, OrientedTree>,
    sched: &mut impl EventScheduler,
    cfg: &KlConfig,
) {
    let out = measure_convergence(net, sched, cfg, 4_000_000, 2_000);
    assert!(out.converged(), "network failed to stabilize");
    net.trace_mut().clear();
    net.metrics_mut().reset();
}

#[test]
fn safety_and_fairness_on_varied_topologies() {
    let topologies: Vec<(&str, OrientedTree)> = vec![
        ("figure1", topology::builders::figure1_tree()),
        ("chain-9", topology::builders::chain(9)),
        ("star-9", topology::builders::star(9)),
        ("binary-15", topology::builders::binary(15)),
        ("caterpillar", topology::builders::caterpillar(4, 2)),
        ("random-12", topology::builders::random_tree(12, 3)),
    ];
    for (name, tree) in topologies {
        let n = tree.len();
        let l = (n / 2).clamp(2, 6);
        let k = (l / 2).max(1);
        let cfg = KlConfig::new(k, l, n);
        let mut net = protocol::ss::network(tree, cfg, workloads::all_saturated(k, 5));
        let mut sched = RandomFair::new(17);
        stabilize(&mut net, &mut sched, &cfg);

        // Safety and token conservation after every activation.
        let mut census = LiveCensus::new(&net, &cfg);
        for _ in 0..80_000u64 {
            census.step(&mut net, &mut sched);
            if let Err(breach) = census.safety() {
                panic!("{name}: {breach} at t={}", net.now());
            }
            assert_eq!(census.census().resource, cfg.l, "{name}: tokens not conserved");
        }

        let fairness = FairnessReport::from_trace(net.trace(), n);
        assert!(fairness.starvation_free(), "{name}: starved nodes {:?}", fairness.starved);
        assert!(fairness.total_entries() > 0, "{name}: no critical section entered");
    }
}

#[test]
fn every_request_size_up_to_k_is_served() {
    let tree = topology::builders::binary(10);
    let n = tree.len();
    let cfg = KlConfig::new(4, 6, n);
    // Node i requests (i mod 4) + 1 units: all sizes 1..=k are exercised.
    let mut net = protocol::ss::network(tree, cfg, |id| {
        Box::new(workloads::Saturated { units: (id % 4) + 1, hold: 6 }) as Box<dyn AppDriver + Send>
    });
    let mut sched = RandomFair::new(5);
    stabilize(&mut net, &mut sched, &cfg);
    run_for(&mut net, &mut sched, 300_000);
    let fairness = FairnessReport::from_trace(net.trace(), n);
    for (node, entries) in fairness.entries_per_node.iter().enumerate() {
        assert!(*entries > 0, "node {node} (requesting {}) never served", (node % 4) + 1);
    }
}

#[test]
fn waiting_time_respects_theorem2_bound_after_stabilization() {
    for (n, tree) in [(7usize, topology::builders::chain(7)), (9, topology::builders::star(9))] {
        let cfg = KlConfig::new(1, 3, n);
        let mut net = protocol::ss::network(tree, cfg, workloads::all_saturated(1, 3));
        let mut sched = RandomFair::new(23);
        stabilize(&mut net, &mut sched, &cfg);
        run_for(&mut net, &mut sched, 200_000);
        let records = waiting_times(net.trace());
        assert!(!records.is_empty());
        let worst = records.iter().map(|r| r.cs_entries_waited).max().unwrap();
        let bound = topology::euler::theorem2_waiting_bound(cfg.l, n);
        assert!(
            worst <= bound,
            "n={n}: observed waiting time {worst} exceeds the Theorem-2 bound {bound}"
        );
    }
}

#[test]
fn kl_liveness_with_pinned_processes() {
    // Two processes hold 3 of the 5 units forever; the others request at most 2 and must
    // still be served (the paper's (k,ℓ)-liveness).
    let tree = topology::builders::figure1_tree();
    let cfg = KlConfig::new(3, 5, 8);
    let mut net = protocol::ss::network(tree, cfg, |id| match id {
        2 => Box::new(workloads::PinnedInCs::new(2)) as Box<dyn AppDriver + Send>,
        5 => Box::new(workloads::PinnedInCs::new(1)) as Box<dyn AppDriver + Send>,
        1 | 4 | 7 => {
            Box::new(workloads::Saturated { units: 2, hold: 4 }) as Box<dyn AppDriver + Send>
        }
        _ => Box::new(workloads::Heterogeneous { units: 0, hold: 1 }) as Box<dyn AppDriver + Send>,
    });
    let mut sched = RandomFair::new(3);
    let (mut cursor, mut entries) = (treenet::EnterCsCursor::default(), [0usize; 8]);
    let out = run_until(&mut net, &mut sched, 4_000_000, |n| {
        cursor.advance(n.trace(), |v| entries[v] += 1);
        [1usize, 4, 7].iter().all(|&v| entries[v] >= 3) && entries[2] >= 1 && entries[5] >= 1
    });
    assert!(out.is_satisfied(), "requesters must be served despite the pinned processes");
}

#[test]
fn protocol_ladder_comparison_on_figure2() {
    // The constructed Figure-2 configuration: naive deadlocks, self-stabilizing recovers.
    let mut naive_net = preset("figure2").unwrap().compile().unwrap().build_ladder().unwrap();
    let mut sched = RoundRobin::new();
    let verdict = analysis::detect_deadlock(&mut naive_net, &mut sched, 200_000);
    assert!(verdict.is_deadlock());

    let mut ss_net = preset("figure2-ss").unwrap().compile().unwrap().build_ss().unwrap();
    let mut sched = RoundRobin::new();
    let (mut cursor, mut served) = (treenet::EnterCsCursor::default(), [false; 8]);
    let out = run_until(&mut ss_net, &mut sched, 3_000_000, |n| {
        cursor.advance(n.trace(), |v| served[v] = true);
        served[1..=4].iter().all(|&s| s)
    });
    assert!(out.is_satisfied(), "the self-stabilizing protocol recovers from the deadlock state");
}
