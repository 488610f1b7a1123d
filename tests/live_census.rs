//! Differential test of the live token census: after *every* activation, on every protocol
//! rung and the ring baseline, [`LiveCensus`] must equal the reference scan
//! ([`count_tokens`] + [`safety_holds`]) field for field.
//!
//! Each case walks one network through the situations a convergence loop meets: the boot
//! configuration, a corrupted start after `FaultPlan::catastrophic`, forged tokens, garbage
//! and a stray snapshot marker in flight, a `Deliver` aimed at an empty channel (which
//! degrades to a tick), and a stretch with Chandy–Lamport markers riding the channels.  Every
//! out-of-band mutation invalidates a tracker by contract, so each phase builds a fresh one —
//! which is also how the production loops use it.

use analysis::SnapshotMonitor;
use baselines::ring;
use klex_core::legitimacy::safety_holds;
use klex_core::{
    count_tokens, is_legitimate, naive, nonstab, pusher, ss, KlConfig, KlInspect, LiveCensus,
    Message,
};
use proptest::prelude::*;
use topology::Topology;
use treenet::{
    Activation, Corruptible, FaultInjector, FaultPlan, InitiatorPolicy, Network, Process,
    RandomFair, SnapshotPlan, SnapshotRunner,
};

fn assert_agrees<P, T>(census: &LiveCensus, net: &Network<P, T>, cfg: &KlConfig)
where
    P: Process<Msg = Message> + KlInspect,
    T: Topology,
{
    prop_assert_eq!(census.census(), count_tokens(net), "census at t={}", net.now());
    prop_assert_eq!(census.safety_holds(), safety_holds(net, cfg), "safety at t={}", net.now());
    prop_assert_eq!(census.is_legitimate(), is_legitimate(net, cfg), "legitimacy at t={}", net.now());
}

/// `steps` daemon-chosen activations through a fresh tracker, compared after each.
fn run_tracked<P, T>(
    net: &mut Network<P, T>,
    cfg: &KlConfig,
    daemon: &mut RandomFair,
    steps: u64,
) where
    P: Process<Msg = Message> + KlInspect,
    T: Topology,
{
    let mut census = LiveCensus::new(net, cfg);
    assert_agrees(&census, net, cfg);
    for _ in 0..steps {
        census.step(net, daemon);
        assert_agrees(&census, net, cfg);
    }
}

fn check_live_census<P, T>(mut net: Network<P, T>, cfg: &KlConfig, seed: u64, steps: u64)
where
    P: Process<Msg = Message> + KlInspect + Corruptible,
    T: Topology,
{
    let n = net.len();
    let mut daemon = RandomFair::new(seed);
    run_tracked(&mut net, cfg, &mut daemon, steps);

    // A corrupted start: every process state arbitrary, every channel refilled with forgeries.
    FaultInjector::new(seed ^ 0xFA17).inject(&mut net, &FaultPlan::catastrophic(cfg.cmax));
    run_tracked(&mut net, cfg, &mut daemon, steps);

    // Surplus tokens, garbage and a marker nobody is waiting for, then explicit activations:
    // a delivery of each forged message and a `Deliver` on a channel that may be empty.
    let target = seed as usize % n;
    for msg in [Message::ResT, Message::PrioT, Message::Garbage(7), Message::Marker(3)] {
        net.inject_into(target, 0, msg);
    }
    let mut census = LiveCensus::new(&net, cfg);
    assert_agrees(&census, &net, cfg);
    for _ in 0..net.channel(target, 0).len() + 2 {
        census.execute(&mut net, Activation::Deliver { node: target, channel: 0 });
        assert_agrees(&census, &net, cfg);
    }
    prop_assert!(net.channel(target, 0).is_empty(), "the last deliveries degraded to ticks");
    drop(census);
    run_tracked(&mut net, cfg, &mut daemon, steps);

    // Snapshot markers in flight: the runner interposes on the same channels, and its
    // marker traffic must leave the census alone.
    let plan = SnapshotPlan { interval: 16, initiator: InitiatorPolicy::Rotate };
    let mut runner = SnapshotRunner::new(plan);
    let mut monitor = SnapshotMonitor::new(cfg);
    let mut census = LiveCensus::new(&net, cfg);
    for _ in 0..steps {
        census.track(&mut net, |net, effects| {
            runner.step_with(net, &mut daemon, &mut monitor, effects)
        });
        assert_agrees(&census, &net, cfg);
    }
    prop_assert!(runner.markers_sent() > 0, "the marker phase sent no marker");
}

proptest! {
    // Whole-protocol runs with an O(n) comparison per activation: a reduced case count
    // keeps the suite fast while still covering every rung across runs.
    #![proptest_config(ProptestConfig { cases: 40, .. ProptestConfig::default() })]

    #[test]
    fn live_census_equals_the_reference_scan_after_every_activation(
        n in 2usize..=9,
        seed in any::<u64>(),
        rung in 0usize..5,
        k in 1usize..=2,
        extra_l in 0usize..=2,
    ) {
        let cfg = KlConfig::new(k, k + extra_l, n);
        let tree = topology::builders::random_tree(n, seed);
        let drivers = workloads::all_uniform(seed, 0.05, k, 12);
        let steps = 1_500;
        match rung {
            0 => check_live_census(naive::network(tree, cfg, drivers), &cfg, seed, steps),
            1 => check_live_census(pusher::network(tree, cfg, drivers), &cfg, seed, steps),
            2 => check_live_census(nonstab::network(tree, cfg, drivers), &cfg, seed, steps),
            3 => check_live_census(ss::network(tree, cfg, drivers), &cfg, seed, steps),
            _ => check_live_census(ring::network(n, cfg, drivers), &cfg, seed, steps),
        }
    }
}
