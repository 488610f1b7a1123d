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
//!
//! A second test pins the one safety and legitimacy verdict that every consumer of
//! [`klex_core::legitimacy`] returns on hand-built configurations, including the one the
//! in-use reading of the specification and the `|RSet| ≤ k` invariant disagree on.

use analysis::{CutVerdict, SnapshotMonitor};
use baselines::ring;
use checker::{properties, CheckableNode};
use klex_core::legitimacy::{self, safety_holds, NodeShare};
use klex_core::{
    count_tokens, is_legitimate, ladder, nonstab, ss, KlConfig, KlInspect, LiveCensus, Message,
    Rung,
};
use proptest::prelude::*;
use topology::Topology;
use treenet::app::{BoxedDriver, Idle};
use treenet::{
    Activation, Corruptible, CsState, FaultInjector, FaultPlan, InitiatorPolicy, Network, Process,
    RandomFair, RoundRobin, SnapshotObserver, SnapshotPlan, SnapshotRunner,
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
            0..=2 => {
                let net = ladder::network(Rung::ALL[rung], tree, cfg, drivers);
                check_live_census(net, &cfg, seed, steps)
            }
            3 => check_live_census(ss::network(tree, cfg, drivers), &cfg, seed, steps),
            _ => check_live_census(ring::network(n, cfg, drivers), &cfg, seed, steps),
        }
    }
}

/// The verdict of a cut that records exactly `net`'s current states and channel contents.
fn cut_verdict<P, T>(net: &Network<P, T>, cfg: &KlConfig) -> CutVerdict
where
    P: Process<Msg = Message> + KlInspect,
    T: Topology,
{
    let mut monitor = SnapshotMonitor::new(cfg);
    for v in 0..net.len() {
        monitor.node_state(0, v, net.node(v));
    }
    for (v, label, msg) in net.iter_messages() {
        SnapshotObserver::<P>::in_transit(&mut monitor, 0, v, label, msg);
    }
    SnapshotObserver::<P>::cut_complete(&mut monitor, 0, net.now(), net.now());
    monitor.verdicts()[0]
}

/// Asserts that the checker's properties on the captured `Configuration`, the network
/// scan, a fresh `LiveCensus` and a cut verdict all return `safety` and `legitimate`.
/// (A cut verdict carries no breach text, and its `clean` omits the garbage clause; no
/// case below has garbage in flight.)
fn assert_consumers_agree<P, T>(
    net: &Network<P, T>,
    cfg: &KlConfig,
    safety: Result<(), &str>,
    legitimate: bool,
) where
    P: Process<Msg = Message> + KlInspect + CheckableNode,
    T: Topology,
{
    let config = checker::capture(net);
    let live = LiveCensus::new(net, cfg);
    let cut = cut_verdict(net, cfg);
    let safety = safety.map_err(str::to_string);
    let scan = legitimacy::safety(net.nodes().map(NodeShare::of), cfg);
    assert_eq!(properties::safety(*cfg).check(&config), safety, "checker property");
    assert_eq!(scan.map_err(|breach| breach.to_string()), safety, "network scan");
    assert_eq!(safety_holds(net, cfg), safety.is_ok(), "network scan");
    assert_eq!(live.safety().map_err(|breach| breach.to_string()), safety, "live census");
    assert_eq!(cut.safety_ok, safety.is_ok(), "cut verdict");

    assert_eq!(properties::legitimate(*cfg).check(&config).is_ok(), legitimate, "checker");
    assert_eq!(is_legitimate(net, cfg), legitimate, "network scan");
    assert_eq!(live.is_legitimate(), legitimate, "live census");
    assert_eq!(cut.clean(), legitimate, "cut verdict");
}

#[test]
fn every_consumer_returns_the_one_safety_verdict() {
    let cfg = KlConfig::new(2, 3, 3);
    // A legitimate configuration: the non-stabilizing rung after its bootstrap.
    let legitimate = || {
        let tree = topology::builders::figure3_tree();
        let mut net = nonstab::network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        treenet::run_for(&mut net, &mut RoundRobin::new(), 2_000);
        net
    };
    let net = legitimate();
    assert_consumers_agree(&net, &cfg, Ok(()), true);

    // The disagreeing configuration: a requester asking for at most k units holds k + 1
    // reservations outside its critical section.  It uses no unit yet, so the
    // specification's in-use clause alone would accept it; the |RSet| ≤ k invariant does
    // not, and neither does any consumer.
    let mut net = legitimate();
    let node = &mut net.node_mut(1).app;
    (node.state, node.need, node.rset) = (CsState::Req, 1, vec![0; cfg.k + 1]);
    assert_eq!(NodeShare::of(net.node(1)).in_use, 0);
    assert_consumers_agree(&net, &cfg, Err("process 1 reserves 3 tokens but k = 2"), false);

    // The same holding inside the critical section: k + 1 units in use by one process.
    let mut net = legitimate();
    let node = &mut net.node_mut(2).app;
    (node.state, node.need, node.rset) = (CsState::In, 2, vec![0; cfg.k + 1]);
    assert_consumers_agree(&net, &cfg, Err("process 2 reserves 3 tokens but k = 2"), false);

    // Global overuse: every process within k, more than l units in use overall.
    let mut net = legitimate();
    for v in 0..net.len() {
        let node = &mut net.node_mut(v).app;
        (node.state, node.need, node.rset) = (CsState::In, 2, vec![0; 2]);
    }
    assert_consumers_agree(&net, &cfg, Err("6 units in use but l = 3"), false);

    // A surplus token in flight: still safe, no longer legitimate.
    let mut net = legitimate();
    net.inject_into(1, 0, Message::ResT);
    assert_eq!(count_tokens(&net).resource, cfg.l + 1);
    assert_consumers_agree(&net, &cfg, Ok(()), false);
}
