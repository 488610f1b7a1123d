//! Cross-crate integration tests for the two conclusion-driven extensions:
//!
//! * crash-restart failures (`treenet::Restartable` + `FaultInjector::crash`) — the
//!   self-stabilizing protocol treats a crash as a transient fault and recovers;
//! * the unbounded-memory adaptation (`KlConfig::unbounded_counter`) — the protocol works
//!   without the CMAX assumption on initial channel garbage.
//!
//! Everything is exercised through the public facade crate only.

use kl_exclusion::prelude::*;
use proptest::prelude::*;
use protocol::legitimacy::safety_holds;

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
fn crash_of_any_single_process_is_absorbed() {
    let tree = topology::builders::figure1_tree();
    let n = tree.len();
    let cfg = KlConfig::new(2, 4, n);
    for victim in 0..n {
        let mut net = protocol::ss::network(tree.clone(), cfg, workloads::all_saturated(2, 6));
        let mut sched = RandomFair::new(31 + victim as u64);
        stabilize(&mut net, &mut sched, &cfg);

        let mut injector = FaultInjector::new(victim as u64);
        let report = injector.crash(&mut net, &[victim], true);
        assert_eq!(report.nodes_crashed, 1);

        let out = measure_convergence(&mut net, &mut sched, &cfg, 4_000_000, 2_000);
        assert!(out.converged(), "crash of process {victim} was not absorbed");
        // The crashed process itself is served again afterwards.
        let (mut cursor, mut entries) = (treenet::EnterCsCursor::default(), 0);
        let served = run_until(&mut net, &mut sched, 2_000_000, |net| {
            cursor.advance(net.trace(), |v| entries += usize::from(v == victim));
            entries >= 2
        });
        assert!(served.is_satisfied(), "process {victim} starved after its crash");
    }
}

#[test]
fn repeated_crash_waves_do_not_break_safety_or_service() {
    let tree = topology::builders::binary(9);
    let n = tree.len();
    let cfg = KlConfig::new(2, 4, n);
    let mut net = protocol::ss::network(tree, cfg, workloads::all_think_time(7, 2, 5, 10, 40));
    let mut sched = RandomFair::new(91);
    stabilize(&mut net, &mut sched, &cfg);

    let mut injector = FaultInjector::new(404);
    for wave in 0..5u64 {
        // Crash a third of the processes, losing their incoming messages.
        let (_victims, report) = injector.crash_random(&mut net, n / 3, true);
        assert_eq!(report.nodes_crashed, n / 3);
        // Let the system recover, checking the safety bounds along the way: a crash may lose
        // tokens but must never manufacture extra in-use units.
        let out = measure_convergence(&mut net, &mut sched, &cfg, 4_000_000, 2_000);
        assert!(out.converged(), "wave {wave}: no re-convergence");
        assert!(safety_holds(&net, &cfg), "wave {wave}: safety violated");
    }
    // After the last wave the protocol still serves everybody.
    net.trace_mut().clear();
    let (mut cursor, mut entered) = (treenet::EnterCsCursor::default(), vec![false; n]);
    let served = run_until(&mut net, &mut sched, 3_000_000, |net| {
        cursor.advance(net.trace(), |v| entered[v] = true);
        entered.iter().all(|&e| e)
    });
    assert!(served.is_satisfied(), "some process starved after the crash waves");
}

#[test]
fn crash_of_the_root_restarts_the_controller() {
    let tree = topology::builders::chain(6);
    let cfg = KlConfig::new(1, 2, 6);
    let mut net = protocol::ss::network(tree, cfg, workloads::all_saturated(1, 4));
    let mut sched = RoundRobin::new();
    stabilize(&mut net, &mut sched, &cfg);

    let mut injector = FaultInjector::new(8);
    injector.crash(&mut net, &[0], true);
    // The restarted root has a fresh counter and successor pointer; its timeout relaunches the
    // controller and the census is repaired.
    let out = measure_convergence(&mut net, &mut sched, &cfg, 4_000_000, 2_000);
    assert!(out.converged());
    let census = protocol::count_tokens(&net);
    assert_eq!((census.resource, census.pusher, census.priority), (cfg.l, 1, 1));
}

#[test]
fn unbounded_counter_variant_works_through_the_facade() {
    let tree = topology::builders::star(8);
    let cfg = KlConfig::new(2, 4, 8).with_cmax(0).with_unbounded_counter(true);
    let mut net = protocol::ss::network(tree, cfg, workloads::all_skewed(3, 0.2, 2, 0.6, 5));
    let mut sched = RandomFair::new(44);
    stabilize(&mut net, &mut sched, &cfg);

    // Violate the (here: zero) CMAX assumption with a burst of forged controllers and tokens.
    for v in 0..8usize {
        for l in 0..net.topology().degree(v) {
            for stamp in 0..15u64 {
                net.inject_into(
                    v,
                    l,
                    protocol::Message::Ctrl { c: stamp, r: false, pt: 1, ppr: 1 },
                );
            }
            net.inject_into(v, l, protocol::Message::ResT);
            net.inject_into(v, l, protocol::Message::PrioT);
        }
    }
    let out = measure_convergence(&mut net, &mut sched, &cfg, 6_000_000, 2_000);
    assert!(out.converged(), "the unbounded-counter variant must flush unbounded garbage");

    // And it still serves the skewed workload afterwards.
    net.trace_mut().clear();
    let (mut cursor, mut entries) = (treenet::EnterCsCursor::default(), 0);
    let served = run_until(&mut net, &mut sched, 2_000_000, |net| {
        cursor.advance(net.trace(), |_| entries += 1);
        entries >= 20
    });
    assert!(served.is_satisfied());
}

#[test]
fn new_workload_drivers_are_served_and_starvation_free() {
    // Mix the three new drivers on one tree: skewed sizes, think-time closed loop, and a
    // deterministic cycle; every process must be served.
    let tree = topology::builders::caterpillar(4, 2);
    let n = tree.len();
    let cfg = KlConfig::new(3, 5, n);
    let mut net = protocol::ss::network(tree, cfg, |id| match id % 3 {
        0 => Box::new(workloads::SkewedNeeds::new(id as u64, 0.3, 3, 0.5, 4))
            as Box<dyn AppDriver + Send>,
        1 => {
            Box::new(workloads::ThinkTime::new(id as u64, 2, 5, 5, 25)) as Box<dyn AppDriver + Send>
        }
        _ => Box::new(workloads::Cyclic::new(vec![(1, 3), (3, 6), (2, 2)]))
            as Box<dyn AppDriver + Send>,
    });
    let mut sched = RandomFair::new(123);
    stabilize(&mut net, &mut sched, &cfg);
    run_for(&mut net, &mut sched, 250_000);
    let fairness = FairnessReport::from_trace(net.trace(), n);
    assert!(fairness.starvation_free(), "starved nodes: {:?}", fairness.starved);
    // Safety held throughout (spot-check the final configuration).
    assert!(safety_holds(&net, &cfg));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// Crash-recovery property: from a stabilized configuration, crash-restarting any random
    /// subset of processes (with message loss) always leads back to a legitimate
    /// configuration.
    #[test]
    fn crash_of_random_subsets_always_reconverges(
        seed in any::<u64>(),
        n in 4usize..=10,
        crash_count in 1usize..=10,
    ) {
        let cfg = KlConfig::new(1, 2, n);
        let tree = topology::builders::random_tree(n, seed);
        let mut net = protocol::ss::network(tree, cfg, workloads::all_uniform(seed, 0.02, 1, 6));
        let mut sched = RandomFair::new(seed ^ 0xC0FFEE);
        let boot = measure_convergence(&mut net, &mut sched, &cfg, 3_000_000, 2_000);
        prop_assert!(boot.converged());

        let mut injector = FaultInjector::new(seed ^ 0xBEEF);
        let (victims, report) = injector.crash_random(&mut net, crash_count.min(n), true);
        prop_assert_eq!(report.nodes_crashed, victims.len());

        let out = measure_convergence(&mut net, &mut sched, &cfg, 6_000_000, 2_000);
        prop_assert!(out.converged(), "no recovery after crashing {:?}", victims);
    }
}
