//! Integration tests of the baseline protocols through the facade crate, mirroring the
//! comparisons of experiments E8/E9.

use kl_exclusion::prelude::*;
use protocol::legitimacy::safety_holds;

#[test]
fn all_protocols_serve_the_same_workload() {
    // Same number of processes, same saturated single-unit workload; every protocol must
    // serve every requester.  (Throughput differs — that is what E8 measures — but liveness
    // must hold across the board.)
    let n = 6usize;
    let cfg = KlConfig::new(1, 2, n);

    // Tree (this paper).
    {
        let tree = topology::builders::random_tree(n, 1);
        let mut net = protocol::ss::network(tree, cfg, workloads::all_saturated(1, 4));
        let mut sched = RandomFair::new(1);
        let (mut cursor, mut entries) = (treenet::EnterCsCursor::default(), vec![0usize; n]);
        let out = run_until(&mut net, &mut sched, 4_000_000, |net| {
            cursor.advance(net.trace(), |v| entries[v] += 1);
            entries.iter().all(|&e| e >= 2)
        });
        assert!(out.is_satisfied(), "tree protocol must serve everyone");
    }

    // Ring baseline.
    {
        let mut net = baselines::ring::network(n, cfg, workloads::all_saturated(1, 4));
        let mut sched = RandomFair::new(2);
        let (mut cursor, mut entries) = (treenet::EnterCsCursor::default(), vec![0usize; n]);
        let out = run_until(&mut net, &mut sched, 4_000_000, |net| {
            cursor.advance(net.trace(), |v| entries[v] += 1);
            entries.iter().all(|&e| e >= 2)
        });
        assert!(out.is_satisfied(), "ring baseline must serve everyone");
    }

    // Centralized coordinator (node 0 is the coordinator and never requests).
    {
        let mut net = baselines::centralized::network(n, cfg, |id| {
            if id == 0 {
                Box::new(workloads::Heterogeneous { units: 0, hold: 1 })
                    as Box<dyn AppDriver + Send>
            } else {
                Box::new(workloads::Saturated { units: 1, hold: 4 }) as Box<dyn AppDriver + Send>
            }
        });
        let mut sched = RandomFair::new(3);
        let (mut cursor, mut entries) = (treenet::EnterCsCursor::default(), vec![0usize; n]);
        let out = run_until(&mut net, &mut sched, 1_000_000, |net| {
            cursor.advance(net.trace(), |v| entries[v] += 1);
            entries[1..].iter().all(|&e| e >= 2)
        });
        assert!(out.is_satisfied(), "centralized coordinator must serve everyone");
    }

    // Per-unit arbiters.
    {
        let mut net = baselines::permission::network(n, cfg, workloads::all_saturated(1, 4));
        let mut sched = RandomFair::new(4);
        let (mut cursor, mut entries) = (treenet::EnterCsCursor::default(), vec![0usize; n]);
        let out = run_until(&mut net, &mut sched, 2_000_000, |net| {
            cursor.advance(net.trace(), |v| entries[v] += 1);
            entries.iter().all(|&e| e >= 2)
        });
        assert!(out.is_satisfied(), "arbiter baseline must serve everyone");
    }
}

#[test]
fn safety_holds_for_every_baseline_under_heterogeneous_load() {
    let n = 7usize;
    let cfg = KlConfig::new(2, 3, n);
    let driver = |id: usize| {
        Box::new(workloads::Saturated { units: (id % 2) + 1, hold: 5 }) as Box<dyn AppDriver + Send>
    };

    {
        let mut net = baselines::ring::network(n, cfg, driver);
        let mut sched = RandomFair::new(11);
        run_for(&mut net, &mut sched, 150_000);
        for _ in 0..50_000u64 {
            net.step_event(&mut sched);
            assert!(safety_holds(&net, &cfg), "ring unsafe at t={}", net.now());
        }
    }
    {
        let mut net = baselines::centralized::network(n, cfg, |id| {
            if id == 0 {
                Box::new(workloads::Heterogeneous { units: 0, hold: 1 })
                    as Box<dyn AppDriver + Send>
            } else {
                driver(id)
            }
        });
        let mut sched = RandomFair::new(12);
        for _ in 0..120_000u64 {
            net.step_event(&mut sched);
            assert!(safety_holds(&net, &cfg), "centralized unsafe at t={}", net.now());
        }
    }
    {
        let mut net = baselines::permission::network(n, cfg, driver);
        let mut sched = RandomFair::new(13);
        for _ in 0..120_000u64 {
            net.step_event(&mut sched);
            assert!(safety_holds(&net, &cfg), "arbiters unsafe at t={}", net.now());
        }
    }
}

#[test]
fn tree_protocol_survives_faults_that_break_the_non_stabilizing_baselines() {
    // The headline property separating this paper from the permission-based family: after a
    // catastrophic transient fault the tree protocol recovers, while the non-stabilizing
    // arbiter baseline (message loss variant) stays broken.
    let n = 6usize;
    let cfg = KlConfig::new(1, 2, n);

    // Tree: recovers.
    let tree = topology::builders::random_tree(n, 8);
    let mut net = protocol::ss::network(tree, cfg, workloads::all_saturated(1, 4));
    let mut sched = RandomFair::new(21);
    let boot = measure_convergence(&mut net, &mut sched, &cfg, 3_000_000, 2_000);
    assert!(boot.converged());
    let mut injector = FaultInjector::new(5);
    injector.inject(&mut net, &FaultPlan::catastrophic(cfg.cmax));
    let rec = measure_convergence(&mut net, &mut sched, &cfg, 6_000_000, 2_000);
    assert!(rec.converged());

    // Arbiter baseline: drop every in-flight message mid-run; at least one requester ends up
    // blocked forever because lost grants are never retransmitted.
    let mut net = baselines::permission::network(n, cfg, workloads::all_saturated(1, 4));
    let mut sched = RandomFair::new(22);
    // Wait until at least one Acquire or Grant is in flight so that wiping the channels is
    // guaranteed to strand somebody (the baseline never retransmits).
    let armed = run_until(&mut net, &mut sched, 200_000, |net| {
        net.iter_messages().any(|(_, _, m)| {
            matches!(
                m,
                baselines::ArbiterMessage::Acquire { .. } | baselines::ArbiterMessage::Grant { .. }
            )
        })
    });
    assert!(armed.is_satisfied());
    for v in 0..n {
        for label in 0..(n - 1) {
            net.channel_mut(v, label).clear();
        }
    }
    let before: Vec<usize> = (0..n).map(|v| net.trace().cs_entries(Some(v))).collect();
    run_for(&mut net, &mut sched, 400_000);
    let after: Vec<usize> = (0..n).map(|v| net.trace().cs_entries(Some(v))).collect();
    let stuck = (0..n).filter(|&v| after[v] == before[v]).count();
    assert!(
        stuck > 0,
        "expected at least one permanently blocked requester in the non-stabilizing baseline"
    );
}
