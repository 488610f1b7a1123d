//! Property test for the in-simulation Chandy–Lamport snapshots: on small (≤9-node)
//! scenarios, across all four protocol rungs and under token-injection faults, every
//! completed cut's census must equal the instantaneous global census — whenever that
//! census was constant across the cut's window.
//!
//! The guard is what makes the oracle sound: a consistent cut of a window in which every
//! event conserves the token count carries exactly that count (the stable-property
//! argument snapshots were invented for).  When an event in the window *changes* the
//! census — a fault injection, or the self-stabilizing rung destroying a surplus token —
//! the cut may legitimately report either side of the change, so those windows assert
//! nothing.  The instantaneous census is sampled from the same execution the runner
//! drives, one observation per activation, so constancy is checked at every step the
//! window spans.

use analysis::SnapshotMonitor;
use klex_core::{count_tokens, ladder, ss, KlConfig, KlInspect, Message, Rung};
use proptest::prelude::*;
use topology::OrientedTree;
use treenet::app::{BoxedDriver, Idle};
use treenet::{InitiatorPolicy, Network, Process, RoundRobin, SnapshotPlan, SnapshotRunner};

/// One randomized snapshot campaign: drive `net` step by step, sampling the instantaneous
/// census around every activation, and check each completed cut whose window had a
/// constant census against it.  Returns the number of cuts that were actually checked.
fn check_cut_census<P>(
    mut net: Network<P, OrientedTree>,
    cfg: &KlConfig,
    interval: u64,
    rotate: bool,
    fault: Option<(u64, usize, bool)>,
    steps: u64,
) -> u64
where
    P: Process<Msg = Message> + KlInspect,
{
    let mut daemon = RoundRobin::new();
    treenet::run_for(&mut net, &mut daemon, 500);

    let initiator = if rotate { InitiatorPolicy::Rotate } else { InitiatorPolicy::Root };
    let mut runner = SnapshotRunner::new(SnapshotPlan { interval, initiator });
    let mut monitor = SnapshotMonitor::new(cfg);
    let n = net.len();

    let mut window: Option<(klex_core::TokenCensus, bool)> = None; // (census at initiation, still constant)
    let mut cuts_seen = 0u64;
    let mut checked = 0u64;
    for step in 0..steps {
        if runner.initiation_due(net.now()) {
            window = Some((count_tokens(&net), true));
        }
        runner.step(&mut net, &mut daemon, &mut monitor);
        if let Some((c0, constant)) = &mut window {
            if *constant && count_tokens(&net) != *c0 {
                *constant = false;
            }
        }
        if runner.cuts_completed() > cuts_seen {
            cuts_seen = runner.cuts_completed();
            let (c0, constant) = window.take().expect("a completed cut had a window");
            if constant {
                let verdict = monitor.verdicts().last().expect("monitor saw the cut");
                prop_assert_eq!(
                    verdict.census,
                    c0,
                    "cut census must equal the (constant) instantaneous census: {:?}",
                    verdict
                );
                checked += 1;
            }
        }
        if let Some((at, node, pusher_token)) = fault {
            if at == step {
                // A transient fault mid-campaign: a surplus token materializes on a
                // channel.  The census changes, so any window spanning this step is
                // exempted — and every later constant window must report the *new* count.
                let msg = if pusher_token { Message::PushT } else { Message::ResT };
                net.inject_into(node % n, 0, msg);
            }
        }
    }
    checked
}

proptest! {
    // Whole-protocol runs: a reduced case count keeps the suite fast while still
    // covering every rung × initiator × fault-timing combination across runs.
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn cut_census_equals_instantaneous_census_when_constant(
        n in 2usize..=9,
        seed in any::<u64>(),
        rung in 0usize..4,
        k in 1usize..=2,
        extra_l in 0usize..=2,
        interval in 8u64..=64,
        rotate in any::<bool>(),
        fault_on in any::<bool>(),
        fault_shape in (0u64..3_000, 0usize..9, any::<bool>()),
    ) {
        let tree = topology::builders::random_tree(n, seed);
        let cfg = KlConfig::new(k, k + extra_l, n);
        // The pusher token only exists from rung 2 up; injecting one into the naive rung
        // would fault a message kind the protocol cannot carry.
        let fault = fault_on
            .then_some(fault_shape)
            .map(|(at, node, push)| (at, node, push && rung >= 1));
        let steps = 4_000;
        let driver = |_| Box::new(Idle) as BoxedDriver;
        let checked = match rung {
            0..=2 => {
                let net = ladder::network(Rung::ALL[rung], tree, cfg, driver);
                check_cut_census(net, &cfg, interval, rotate, fault, steps)
            }
            _ => check_cut_census(ss::network(tree, cfg, driver), &cfg, interval, rotate, fault, steps),
        };
        // The budget dwarfs the interval: cuts must both complete and (faults change the
        // census at most once) overwhelmingly have constant windows.
        prop_assert!(checked >= 1, "no cut had a constant-census window in {steps} steps");
    }
}
