//! Trace equivalence of the two execution engines.
//!
//! The event-driven engine (maintained enabled set, `treenet::engine`) must be a *pure
//! performance refactor* of the scan-based baseline (`treenet::scheduler::baseline`): for
//! every daemon, every topology and every seed, all three execution paths —
//!
//! 1. the scan-based baseline daemon through `Network::step`,
//! 2. the event-driven daemon through `Network::step` (dynamic dispatch, O(1) queries),
//! 3. the event-driven daemon through the fused loop `engine::run_observed`,
//!
//! — must produce **identical activation sequences, traces, and metrics**.  A proptest
//! additionally checks the enabled-set invariant itself — tick-guard clause included —
//! against brute-force recomputation after arbitrary execution, injection and
//! channel-surgery histories.

use kl_exclusion::prelude::*;
use proptest::prelude::*;
use treenet::engine;
use treenet::scheduler::baseline;
use treenet::{Activation, EventScheduler, Process, Synchronous};
use workloads::UniformRandom;

type SsNet = Network<SsNode, OrientedTree>;

/// The common scenario: a self-stabilizing k-out-of-ℓ network under a uniform-random
/// workload with a short root timeout (so controller traffic starts early) and a burst of
/// injected faults (so channels hold garbage from the start).
fn scenario(tree: OrientedTree, seed: u64) -> SsNet {
    let n = tree.len();
    let cfg = KlConfig::new(2, 3, n).with_timeout(40);
    let mut net = protocol::ss::network(tree, cfg, |id| {
        Box::new(UniformRandom::new(seed ^ (id as u64).wrapping_mul(0x9E37), 0.1, 2, 5))
            as Box<dyn AppDriver + Send>
    });
    let mut injector = FaultInjector::new(seed.wrapping_add(77));
    injector.inject(&mut net, &FaultPlan::moderate(cfg.cmax));
    net
}

fn shapes() -> Vec<(&'static str, OrientedTree)> {
    vec![
        ("chain", topology::builders::chain(9)),
        ("star", topology::builders::star(9)),
        ("binary", topology::builders::binary(15)),
        ("random", topology::builders::random_tree(12, 5)),
    ]
}

/// Runs `steps` activations through the dynamically dispatched path, recording the sequence.
fn run_dyn(net: &mut SsNet, sched: &mut impl Scheduler, steps: u64) -> Vec<Activation> {
    (0..steps).map(|_| net.step(sched)).collect()
}

/// Runs `steps` activations through the fused event loop, recording the sequence.
fn run_fused(net: &mut SsNet, sched: &mut impl EventScheduler, steps: u64) -> Vec<Activation> {
    let mut seq = Vec::with_capacity(steps as usize);
    engine::run_observed(net, sched, steps, |a| seq.push(a));
    seq
}

/// Serialized observable outcome of a run: metrics and the application-level trace.
fn observables(net: &SsNet) -> String {
    let metrics = serde_json::to_string(net.metrics()).expect("metrics serialize");
    let events = net.trace().events().len();
    format!("{metrics}|events={events}")
}

fn assert_equivalent(
    label: &str,
    tree: OrientedTree,
    seed: u64,
    steps: u64,
    mut make_baseline: impl FnMut() -> Box<dyn Scheduler>,
    mut make_event: impl FnMut() -> Box<dyn Scheduler>,
    fused: impl FnOnce(&mut SsNet, u64) -> Vec<Activation>,
) {
    let mut reference_net = scenario(tree.clone(), seed);
    let reference_seq = run_dyn(&mut reference_net, &mut make_baseline(), steps);

    let mut event_net = scenario(tree.clone(), seed);
    let event_seq = run_dyn(&mut event_net, &mut make_event(), steps);

    let mut fused_net = scenario(tree, seed);
    let fused_seq = fused(&mut fused_net, steps);

    assert_eq!(reference_seq, event_seq, "{label}: baseline vs event drop-in sequences differ");
    assert_eq!(reference_seq, fused_seq, "{label}: baseline vs fused sequences differ");
    assert_eq!(
        observables(&reference_net),
        observables(&event_net),
        "{label}: baseline vs event drop-in metrics differ"
    );
    assert_eq!(
        observables(&reference_net),
        observables(&fused_net),
        "{label}: baseline vs fused metrics differ"
    );
}

#[test]
fn round_robin_is_trace_equivalent_across_shapes() {
    for (name, tree) in shapes() {
        assert_equivalent(
            &format!("round-robin/{name}"),
            tree,
            11,
            40_000,
            || Box::new(baseline::RoundRobin::new()),
            || Box::new(RoundRobin::new()),
            |net, steps| run_fused(net, &mut RoundRobin::new(), steps),
        );
    }
}

#[test]
fn random_fair_is_trace_equivalent_across_shapes_and_seeds() {
    for (name, tree) in shapes() {
        for seed in [3u64, 1077, 424242] {
            assert_equivalent(
                &format!("random-fair/{name}/seed{seed}"),
                tree.clone(),
                seed,
                40_000,
                move || Box::new(baseline::RandomFair::new(seed)),
                move || Box::new(RandomFair::new(seed)),
                move |net, steps| run_fused(net, &mut RandomFair::new(seed), steps),
            );
        }
    }
}

#[test]
fn random_fair_bias_extremes_are_trace_equivalent() {
    let tree = topology::builders::random_tree(10, 8);
    for bias in [0.0, 0.5, 1.0] {
        assert_equivalent(
            &format!("random-fair/bias{bias}"),
            tree.clone(),
            19,
            30_000,
            move || Box::new(baseline::RandomFair::new(7).with_deliver_bias(bias)),
            move || Box::new(RandomFair::new(7).with_deliver_bias(bias)),
            move |net, steps| {
                run_fused(net, &mut RandomFair::new(7).with_deliver_bias(bias), steps)
            },
        );
    }
}

#[test]
fn synchronous_is_trace_equivalent_across_shapes() {
    for (name, tree) in shapes() {
        assert_equivalent(
            &format!("synchronous/{name}"),
            tree,
            23,
            40_000,
            || Box::new(baseline::Synchronous::new()),
            || Box::new(Synchronous::new()),
            |net, steps| run_fused(net, &mut Synchronous::new(), steps),
        );
    }
}

#[test]
fn adversarial_is_trace_equivalent_across_shapes() {
    for (name, tree) in shapes() {
        let victims = vec![1, tree.len() - 1];
        assert_equivalent(
            &format!("adversarial/{name}"),
            tree,
            31,
            40_000,
            {
                let victims = victims.clone();
                move || Box::new(baseline::Adversarial::new(victims.clone(), 7))
            },
            {
                let victims = victims.clone();
                move || Box::new(Adversarial::new(victims.clone(), 7))
            },
            |net, steps| run_fused(net, &mut Adversarial::new(victims.clone(), 7), steps),
        );
    }
}

// ------------------------------------------------------------- enabled-set invariant checks

/// Brute-force recomputation of everything the enabled set claims to know, compared entry
/// by entry against the maintained structure.
fn assert_enabled_invariant(net: &SsNet) {
    let es = net.enabled_set();
    let mut total_in_flight = 0usize;
    let mut expected_enabled = std::collections::BTreeSet::new();
    for v in 0..net.len() {
        let degree = net.topology().degree(v);
        assert_eq!(es.degree(v), degree, "node {v}: degree mismatch");
        let non_empty: Vec<usize> =
            (0..degree).filter(|&c| !net.channel(v, c).is_empty()).collect();
        total_in_flight += (0..degree).map(|c| net.channel(v, c).len()).sum::<usize>();
        assert_eq!(
            es.deliverable_count(v),
            non_empty.len(),
            "node {v}: deliverable_count mismatch"
        );
        for (i, &c) in non_empty.iter().enumerate() {
            assert_eq!(es.nth_deliverable(v, i), Some(c), "node {v}: nth_deliverable({i})");
        }
        assert_eq!(es.nth_deliverable(v, non_empty.len()), None, "node {v}: nth past end");
        for start in 0..degree {
            let expected = (0..degree)
                .map(|off| (start + off) % degree)
                .find(|&c| !net.channel(v, c).is_empty());
            assert_eq!(
                es.next_deliverable_from(v, start),
                expected,
                "node {v}: next_deliverable_from({start})"
            );
        }
        if !non_empty.is_empty() {
            expected_enabled.insert(v);
        }
        // The tick-guard clause: a quiet bit is only ever set on a process whose hint holds.
        assert!(
            !es.tick_is_quiet(v) || net.node(v).tick_is_noop(),
            "node {v}: quiet bit set but tick_is_noop() is false"
        );
    }
    let quiet = (0..net.len()).filter(|&v| es.tick_is_quiet(v)).count();
    assert_eq!(net.blocked_processes(), quiet, "Network::blocked_processes mismatch");
    assert_eq!(es.in_flight() as usize, total_in_flight, "in-flight total mismatch");
    assert_eq!(es.enabled_len(), expected_enabled.len(), "enabled list length mismatch");
    let listed: std::collections::BTreeSet<usize> =
        (0..es.enabled_len()).map(|i| es.enabled_node(i)).collect();
    assert_eq!(listed, expected_enabled, "enabled list contents mismatch");
    assert_eq!(net.in_flight(), total_in_flight, "Network::in_flight mismatch");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// After an arbitrary history of scheduled steps, fault injections and direct channel
    /// surgery, the maintained enabled set equals the brute-force recomputed guard set.
    #[test]
    fn enabled_set_always_equals_brute_force(
        n in 3usize..=14,
        tree_seed in any::<u64>(),
        run_seed in any::<u64>(),
    ) {
        let tree = topology::builders::random_tree(n, tree_seed);
        let mut net = scenario(tree, run_seed);
        assert_enabled_invariant(&net);

        let mut sched = RandomFair::new(run_seed ^ 0xABCD);
        for phase in 0..6u64 {
            for _ in 0..500 {
                net.step(&mut sched);
            }
            // Direct surgery through every mutation path the network exposes.
            let v = (run_seed.wrapping_mul(phase + 1) % n as u64) as usize;
            let degree = net.topology().degree(v);
            if degree > 0 {
                let l = (phase as usize) % degree;
                net.inject_into(v, l, Message::Garbage(7));
                net.inject_from(v, l, Message::ResT);
                let mut ch = net.channel_mut(v, l);
                if ch.len() > 1 {
                    ch.remove(0);
                }
                if phase.is_multiple_of(3) {
                    ch.clear();
                }
                drop(ch);
            }
            if phase == 4 {
                let mut injector = FaultInjector::new(run_seed.wrapping_add(phase));
                injector.inject(&mut net, &FaultPlan::catastrophic(2));
            }
            assert_enabled_invariant(&net);
        }
    }
}
