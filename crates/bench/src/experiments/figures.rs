//! Experiments E1–E4: the paper's figures, reproduced as executable scenarios.

use crate::support::{compiled_preset, scheduler, Scale, TreeShape};
use crate::ExperimentReport;
use analysis::{detect_deadlock, DeadlockVerdict, ExperimentRow, FairnessReport};
use klex_core::{ladder, naive, KlConfig, Rung};
use topology::{Topology, VirtualRing};
use treenet::app::{BoxedDriver, Idle};
use treenet::{EnterCsCursor, RoundRobin};

/// E1 — Figure 1: depth-first token circulation on oriented trees.
///
/// For each tree shape the virtual ring is computed from the DFS retransmission rule and
/// checked against the structural expectations (length `2(n−1)`, first-visit order = DFS
/// preorder, every node visited `degree` times); a single circulating token is then simulated
/// and its measured per-node forwarding counts compared against the ring.
pub fn e1_dfs_circulation(scale: Scale) -> ExperimentReport {
    let mut rows = Vec::new();
    let mut trees: Vec<(String, topology::OrientedTree)> =
        vec![("figure-1 tree (n=8)".to_string(), topology::builders::figure1_tree())];
    for &n in &scale.sizes {
        for shape in TreeShape::all() {
            trees.push((format!("{} n={n}", shape.label()), shape.build(n, 7)));
        }
    }
    for (label, tree) in trees {
        let n = tree.len();
        let ring = VirtualRing::of(&tree);
        let dfs_match = ring.first_visit_order() == tree.dfs_preorder();
        let visits_match = (0..n).all(|v| ring.visits(v) == tree.degree(v));

        // Simulate one resource token for a while and compare forwarding counts to degrees.
        let cfg = KlConfig::new(1, 1, n);
        let mut net = naive::network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        let mut sched = RoundRobin::new();
        treenet::run_for(&mut net, &mut sched, 20_000);
        let hops = net.metrics().sent_of_kind("ResT");
        let circulations = hops as f64 / ring.len().max(1) as f64;
        let activations_per_hop = if hops > 0 { 20_000.0 / hops as f64 } else { f64::NAN };

        rows.push(
            ExperimentRow::new(label)
                .with("n", n as f64)
                .with("ring_len", ring.len() as f64)
                .with("dfs_preorder_match", f64::from(u8::from(dfs_match)))
                .with("visits_eq_degree", f64::from(u8::from(visits_match)))
                .with("circulations_in_20k_steps", circulations)
                .with("activations_per_hop", activations_per_hop),
        );
    }
    ExperimentReport {
        title: "E1 — Figure 1: depth-first token circulation on oriented trees".to_string(),
        rows,
    }
}

/// E2 — Figure 2: the deadlock of the naive protocol and its resolution by the later rungs.
///
/// All protocols start from the figure's right-hand configuration (five tokens reserved by
/// four requesters that each still need more).  The naive protocol stays deadlocked forever;
/// the pusher rung keeps making progress; the self-stabilizing protocol additionally repairs
/// the configuration and serves every requester.
pub fn e2_deadlock(scale: Scale) -> ExperimentReport {
    let budget = scale.measure_steps.max(100_000);
    let mut rows = Vec::new();

    // Naive protocol: deadlocked forever.
    {
        let mut net = compiled_preset("figure2").build_ladder().expect("naive rung");
        let mut sched = RoundRobin::new();
        let verdict = detect_deadlock(&mut net, &mut sched, budget);
        let (deadlocked, blocked) = match &verdict {
            DeadlockVerdict::Deadlocked { blocked, .. } => (1.0, blocked.len() as f64),
            _ => (0.0, 0.0),
        };
        rows.push(
            ExperimentRow::new("naive (Fig.2 configuration)")
                .with("deadlocked", deadlocked)
                .with("blocked_requesters", blocked)
                .with("cs_entries", net.trace().cs_entries(None) as f64),
        );
    }

    // Pusher rung: no deadlock, but no fairness guarantee either.
    {
        let mut net = compiled_preset("figure2-pusher").build_ladder().expect("pusher rung");
        let mut sched = RoundRobin::new();
        let verdict = detect_deadlock(&mut net, &mut sched, budget);
        rows.push(
            ExperimentRow::new("+ pusher (Fig.2 configuration)")
                .with("deadlocked", f64::from(u8::from(verdict.is_deadlock())))
                .with("blocked_requesters", 0.0)
                .with("cs_entries", net.trace().cs_entries(None) as f64),
        );
    }

    // Self-stabilizing protocol: treats the configuration as an arbitrary fault and recovers;
    // every requester is eventually served.
    {
        let mut net = compiled_preset("figure2-ss").build_ss().expect("ss rung");
        let mut sched = RoundRobin::new();
        let (mut entries, mut served) = (EnterCsCursor::default(), vec![false; net.len()]);
        let served_all = treenet::run_until(&mut net, &mut sched, scale.max_steps, |n| {
            entries.advance(n.trace(), |v| served[v] = true);
            served[1..=4].iter().all(|&s| s)
        });
        rows.push(
            ExperimentRow::new("self-stabilizing (Fig.2 configuration)")
                .with("deadlocked", 0.0)
                .with("all_requesters_served", f64::from(u8::from(served_all.is_satisfied())))
                .with("cs_entries", net.trace().cs_entries(None) as f64),
        );
    }

    ExperimentReport {
        title: "E2 — Figure 2: deadlock of the naive protocol and its resolution".to_string(),
        rows,
    }
}

/// E3 — Figure 3: starvation of the large requester under the pusher-only protocol, and its
/// disappearance once the priority token is added.
///
/// The figure's 2-out-of-3 scenario (needs r=1, a=2, b=1) runs under the same fair random
/// schedulers for each protocol rung; the table reports how often each process entered its
/// critical section and Jain's fairness index over the three requesters.
pub fn e3_livelock(scale: Scale) -> ExperimentReport {
    let mut rows = Vec::new();
    let steps = scale.measure_steps.max(60_000);
    for (label, preset) in [
        ("+ pusher only", "figure3-pusher"),
        ("+ pusher + priority", "figure3-nonstab"),
        ("self-stabilizing", "figure3-ss"),
    ] {
        let scenario = compiled_preset(preset);
        let mut a_entries = 0.0;
        let mut r_entries = 0.0;
        let mut b_entries = 0.0;
        let mut jain = 0.0;
        let mut a_starved_runs = 0.0;
        for seed in 0..scale.trials {
            let mut sched = scheduler(1_000 + seed);
            let report: FairnessReport = if scenario.spec().protocol.rung().is_some() {
                let mut net = scenario.build_ladder().expect("token rung");
                treenet::run_for(&mut net, &mut sched, steps);
                FairnessReport::from_trace(net.trace(), 3)
            } else {
                let mut net = scenario.build_ss().expect("ss rung");
                treenet::run_for(&mut net, &mut sched, steps);
                FairnessReport::from_trace(net.trace(), 3)
            };
            r_entries += report.entries_per_node[0] as f64;
            a_entries += report.entries_per_node[1] as f64;
            b_entries += report.entries_per_node[2] as f64;
            jain += report.jain_index;
            if report.entries_per_node[1] == 0 {
                a_starved_runs += 1.0;
            }
        }
        let t = scale.trials as f64;
        rows.push(
            ExperimentRow::new(label)
                .with("entries_a(needs 2)", a_entries / t)
                .with("entries_r(needs 1)", r_entries / t)
                .with("entries_b(needs 1)", b_entries / t)
                .with("jain_index", jain / t)
                .with("runs_where_a_starved", a_starved_runs),
        );
    }

    // The paper's livelock is an adversarial *possible* execution: under a fair random
    // scheduler the 2-out-of-3 instance still serves `a` reasonably often.  The tight
    // variant below (ℓ = 2, so `a` needs the *whole* pool while r and b keep taking one unit
    // each) makes the phenomenon visible under fair scheduling too: without the priority
    // token `a` is repeatedly evicted by the pusher and serves far less; with it, the
    // imbalance largely disappears.
    for (label, rung) in [
        ("tight variant (l=2), pusher only", Rung::Pusher),
        ("tight variant (l=2), pusher + priority", Rung::NonStab),
    ] {
        let cfg = KlConfig::new(2, 2, 3);
        let tree = topology::builders::figure3_tree();
        let needs = [1usize, 2, 1];
        let mut a_entries = 0.0;
        let mut others = 0.0;
        for seed in 0..scale.trials {
            let mut sched = scheduler(2_000 + seed);
            let drivers = |id: usize| {
                Box::new(workloads::Heterogeneous { units: needs[id], hold: 6 }) as BoxedDriver
            };
            let mut net = ladder::network(rung, tree.clone(), cfg, drivers);
            treenet::run_for(&mut net, &mut sched, steps);
            let rep = FairnessReport::from_trace(net.trace(), 3);
            a_entries += rep.entries_per_node[1] as f64;
            others += (rep.entries_per_node[0] + rep.entries_per_node[2]) as f64;
        }
        let t = scale.trials as f64;
        rows.push(
            ExperimentRow::new(label)
                .with("entries_a(needs 2)", a_entries / t)
                .with("entries_r+b(need 1)", others / t)
                .with(
                    "service_ratio_a_vs_others",
                    if others > 0.0 { a_entries / others } else { f64::NAN },
                ),
        );
    }

    ExperimentReport {
        title: "E3 — Figure 3: starvation of the 2-unit requester without the priority token"
            .to_string(),
        rows,
    }
}

/// E4 — Figure 4: the virtual ring emulated by the oriented tree.
///
/// Checks the exact node sequence of the paper's figure for the Figure-1 tree, and reports
/// ring length and eccentricity (largest ring distance from the root) for swept shapes: the
/// quantities that drive the waiting-time bound of Theorem 2.
pub fn e4_virtual_ring(scale: Scale) -> ExperimentReport {
    let mut rows = Vec::new();
    // The exact Figure-4 sequence.
    {
        let tree = topology::builders::figure1_tree();
        let ring = VirtualRing::of(&tree);
        let expected: Vec<usize> =
            ["r", "a", "b", "a", "c", "a", "r", "d", "e", "d", "f", "d", "g", "d"]
                .iter()
                .map(|s| topology::builders::figure1_node(s))
                .collect();
        rows.push(
            ExperimentRow::new("figure-1 tree: sequence r a b a c a r d e d f d g d")
                .with("ring_len", ring.len() as f64)
                .with(
                    "sequence_matches_paper",
                    f64::from(u8::from(ring.node_sequence() == expected)),
                ),
        );
    }
    for &n in &scale.sizes {
        for shape in TreeShape::all() {
            let tree = shape.build(n, 11);
            let ring = VirtualRing::of(&tree);
            let ecc = (0..n).filter_map(|v| ring.ring_distance(tree.root(), v)).max().unwrap_or(0);
            rows.push(
                ExperimentRow::new(format!("{} n={n}", shape.label()))
                    .with("ring_len", ring.len() as f64)
                    .with("expected_2(n-1)", (2 * (n - 1)) as f64)
                    .with("max_ring_distance_from_root", ecc as f64),
            );
        }
    }
    ExperimentReport {
        title: "E4 — Figure 4: the virtual ring of an oriented tree".to_string(),
        rows,
    }
}
