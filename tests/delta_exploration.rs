//! Delta successor engine: undo-log correctness and engine parity.
//!
//! The delta engine (`checker::Explorer::run`, the checker's one production engine)
//! derives every successor from the parent's packed bytes and the activation's local effect,
//! re-hashing only the segments a transition dirtied; an effect is computed once per
//! distinct (process, local state, head message), by executing **in place** and reverting
//! through an undo log.  Its soundness rests on two claims, each pinned here against the
//! retained interned oracle:
//!
//! 1. **Apply-then-revert is the identity** on the packed configuration (bit-for-bit) and on
//!    the segmented hash — checked as a property over all four protocol rungs, random trees,
//!    and fault-corrupted starting configurations.
//! 2. **Report parity** — the delta and interned engines produce identical reachable-set
//!    sizes, per-level frontier sizes, violation and deadlock witnesses, graph summaries and
//!    fair-cycle lassos, field for field: on the paper-anchored scenario presets
//!    (`checker-safety`, the `figure2` family, the `figure3` family) and as a property over
//!    random ≤7-node scenarios on all four protocol rungs with safety and liveness checking
//!    enabled.  The fuzzer's coverage signature is therefore engine-independent too.
//!
//! The same file pins the harness trial-reuse path: resetting one network in place across
//! trials must be observationally identical to rebuilding it per trial.

use analysis::coverage::CoverageSignature;
use analysis::harness::trial_seed;
use analysis::scenario::{
    preset, CheckSpec, CompiledScenario, DaemonSpec, ProtocolSpec, ScenarioSpec, StopSpec,
    TopologySpec, WorkloadSpec,
};
use checker::snapshot::{
    capture_packed, map_packed, restore_packed, segmented_hash, CheckableNode, SegmentMap,
};
use checker::{drivers, ExplorationReport, Explorer, Limits};
use klex_core::KlConfig;
use proptest::prelude::*;
use topology::{OrientedTree, Topology};
use treenet::{Activation, Corruptible, FaultInjector, FaultPlan, Network, StepUndo};

/// Applies every enabled activation of `net`'s current configuration through the delta
/// engine's apply/revert discipline and asserts that each one returns the network to a
/// bit-identical packed configuration with an identical segmented hash.
fn assert_apply_revert_is_identity<P>(net: &mut Network<P, OrientedTree>)
where
    P: CheckableNode,
{
    // Canonicalize the starting point exactly like the explorer does when it pops a state:
    // capture, then restore (which normalizes non-abstracted run-time fields such as
    // `entered_at`), then treat the capture as the parent.
    let mut parent = Vec::new();
    capture_packed(net, &mut parent);
    restore_packed(net, &parent);
    let mut map = SegmentMap::default();
    map_packed(&parent, &mut map);
    let h_parent = segmented_hash(&parent, &map);

    let n = net.len();
    let mut activations = Vec::new();
    for v in 0..n {
        for l in 0..net.topology().degree(v) {
            if !net.channel(v, l).is_empty() {
                activations.push(Activation::Deliver { node: v, channel: l });
            }
        }
    }
    for v in 0..n {
        activations.push(Activation::Tick { node: v });
    }

    let mut undo = StepUndo::new();
    let mut recaptured = Vec::new();
    let mut remap = SegmentMap::default();
    for act in activations {
        let node = match act {
            Activation::Deliver { node, .. } | Activation::Tick { node } => node,
        };
        net.trace_mut().clear();
        let saved = net.node(node).capture_state();
        net.execute_undoable(act, &mut undo);
        net.revert(&mut undo);
        net.node_mut(node).restore_state(&saved);

        capture_packed(net, &mut recaptured);
        assert_eq!(
            recaptured, parent,
            "apply+revert of {act:?} must restore the packed configuration bit-identically"
        );
        map_packed(&recaptured, &mut remap);
        assert_eq!(
            segmented_hash(&recaptured, &remap),
            h_parent,
            "apply+revert of {act:?} must restore the segmented hash"
        );
    }
}

/// Builds one rung of the protocol ladder on a seeded random tree with heterogeneous
/// holding requesters, optionally fault-corrupted into an arbitrary configuration.
fn rung_roundtrip(rung: usize, n: usize, seed: u64, corrupt: bool) {
    let tree = topology::builders::random_tree(n, seed | 1);
    let cfg = KlConfig::new(2, 3, n);
    let needs: Vec<usize> = (0..n).map(|v| v % 3).collect();
    let plan = FaultPlan::catastrophic(2);

    fn prepare<P>(net: &mut Network<P, OrientedTree>, corrupt: bool, seed: u64, plan: &FaultPlan)
    where
        P: CheckableNode + Corruptible,
    {
        if corrupt {
            let mut injector = FaultInjector::new(seed ^ 0xC0FFEE);
            injector.inject(net, plan);
        }
        assert_apply_revert_is_identity(net);
    }

    match rung {
        0 => {
            let mut net =
                klex_core::naive::network(tree, cfg, drivers::from_needs_holding(&needs));
            prepare(&mut net, corrupt, seed, &plan);
        }
        1 => {
            let mut net =
                klex_core::pusher::network(tree, cfg, drivers::from_needs_holding(&needs));
            prepare(&mut net, corrupt, seed, &plan);
        }
        2 => {
            let mut net =
                klex_core::nonstab::network(tree, cfg, drivers::from_needs_holding(&needs));
            prepare(&mut net, corrupt, seed, &plan);
        }
        _ => {
            let mut net = checker::scenarios::ss_for_checking(
                tree,
                cfg,
                drivers::from_needs_holding(&needs),
            );
            prepare(&mut net, corrupt, seed, &plan);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Satellite: apply-transition-then-revert restores a bit-identical packed configuration
    /// and identical incremental hash, across all four protocol rungs and random
    /// fault-corrupted starts.
    #[test]
    fn apply_then_revert_is_identity_on_every_rung(
        rung in 0usize..4,
        n in 3usize..8,
        seed in 0u64..1_000_000,
        corrupt in any::<bool>(),
    ) {
        rung_roundtrip(rung, n, seed, corrupt);
    }
}

fn assert_reports_identical(name: &str, delta: &ExplorationReport, interned: &ExplorationReport) {
    assert_eq!(delta.configurations, interned.configurations, "{name}: reachable-set size");
    assert_eq!(delta.transitions, interned.transitions, "{name}: transitions");
    assert_eq!(delta.max_depth, interned.max_depth, "{name}: max depth");
    assert_eq!(delta.frontier_sizes, interned.frontier_sizes, "{name}: frontiers per level");
    assert_eq!(delta.truncated, interned.truncated, "{name}: truncation");
    assert_eq!(delta.violations.len(), interned.violations.len(), "{name}: violation count");
    for (d, i) in delta.violations.iter().zip(&interned.violations) {
        assert_eq!(d.property, i.property, "{name}: violated property");
        assert_eq!(d.detail, i.detail, "{name}: violation detail");
        assert_eq!(d.depth, i.depth, "{name}: violation depth");
        assert_eq!(d.trace, i.trace, "{name}: violation trace");
        assert_eq!(d.config, i.config, "{name}: violating configuration");
    }
    assert_eq!(delta.deadlocks.len(), interned.deadlocks.len(), "{name}: deadlock count");
    for (d, i) in delta.deadlocks.iter().zip(&interned.deadlocks) {
        assert_eq!(d.blocked, i.blocked, "{name}: blocked set");
        assert_eq!(d.depth, i.depth, "{name}: deadlock depth");
        assert_eq!(d.trace, i.trace, "{name}: deadlock trace");
        assert_eq!(d.config, i.config, "{name}: deadlocked configuration");
    }
    assert_eq!(delta.graph_summary, interned.graph_summary, "{name}: graph summary");
    assert_eq!(delta.liveness.len(), interned.liveness.len(), "{name}: lasso count");
    for (d, i) in delta.liveness.iter().zip(&interned.liveness) {
        assert_eq!(d.victim, i.victim, "{name}: lasso victim");
        assert_eq!(d.stem, i.stem, "{name}: lasso stem activations");
        assert_eq!(d.stem_states, i.stem_states, "{name}: lasso stem states");
        assert_eq!(d.cycle, i.cycle, "{name}: lasso cycle activations");
        assert_eq!(d.cycle_states, i.cycle_states, "{name}: lasso cycle states");
        assert_eq!(d.progress_nodes, i.progress_nodes, "{name}: lasso progress nodes");
        assert_eq!(d.stem_configs, i.stem_configs, "{name}: lasso stem configurations");
        assert_eq!(d.cycle_configs, i.cycle_configs, "{name}: lasso cycle configurations");
        assert_eq!(d.stem_cs, i.stem_cs, "{name}: lasso stem CS entries");
        assert_eq!(d.cycle_cs, i.cycle_cs, "{name}: lasso cycle CS entries");
    }
}

/// Satellite: the delta engine and the retained interned engine produce identical
/// reachable-set sizes, frontiers-per-level, and violation reports on the checker-safety
/// and figure2/figure3 presets.
#[test]
fn delta_and_interned_engines_agree_on_the_paper_presets() {
    for name in ["checker-safety", "figure2", "figure2-pusher", "figure3-pusher", "figure3-nonstab"] {
        let scenario = preset(name).expect("known preset").compile().expect("valid preset");
        let interned = scenario.check_interned().expect("checkable preset");
        let delta = scenario.check().expect("checkable preset");
        assert_reports_identical(name, &delta, &interned);
        // `check()` is the delta engine.
        let default_engine = scenario.check().expect("checkable preset");
        assert_reports_identical(name, &default_engine, &delta);
    }
}

/// Cross-engine parity on a seeded random instance built by hand (no scenario lowering).
#[test]
fn delta_and_interned_agree_on_a_random_tree() {
    let needs = [0usize, 2, 0, 2, 1];
    let cfg = KlConfig::new(2, 2, 5);
    let make = || {
        let tree = topology::builders::random_tree(5, 0xFEED);
        klex_core::pusher::network(tree, cfg, drivers::from_needs_holding(&needs))
    };
    let limits = Limits { max_configurations: 2_000_000, max_depth: usize::MAX };

    let delta = Explorer::new(&mut make()).with_limits(limits).run();
    assert!(delta.exhaustive());
    let interned = Explorer::new(&mut make()).with_limits(limits).run_interned();
    assert_reports_identical("delta-vs-interned", &delta, &interned);
}

/// One random checkable scenario: a seeded random tree on one of the four protocol rungs,
/// heterogeneous holding requesters, safety + liveness checking, and a budget small enough
/// that a slice of the generated instances truncates (truncation parity is part of the
/// contract, not an excluded case).
fn random_scenario(
    rung: usize,
    n: usize,
    seed: u64,
    l: usize,
    k: usize,
    needs: Vec<usize>,
    hold: u64,
) -> ScenarioSpec {
    let protocol = match rung {
        0 => ProtocolSpec::Naive,
        1 => ProtocolSpec::Pusher,
        2 => ProtocolSpec::NonStab,
        _ => ProtocolSpec::Ss,
    };
    ScenarioSpec::builder(format!("engine-parity n={n} rung={rung} seed={seed:#x}"))
        .topology(TopologySpec::Random { n, seed })
        .protocol(protocol)
        .kl(k, l)
        .workload(WorkloadSpec::Needs { needs, hold })
        .stop(StopSpec::Steps { steps: 100 })
        .check(CheckSpec {
            max_configurations: 3_000,
            max_depth: 0,
            properties: vec!["safety".into(), "liveness".into()],
            ..CheckSpec::default()
        })
        .spec()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The delta engine's report is identical to the interned oracle's — counters,
    /// witnesses, and lassos — on random small scenarios.
    #[test]
    fn delta_engine_matches_interned_on_random_scenarios(
        rung in 0usize..4,
        n in 2usize..=7,
        seed in 0u64..1_000_000,
        l in 1usize..=3,
        k_pick in 0usize..3,
        needs_seed in proptest::collection::vec(0usize..=2, 7),
        hold in 0u64..=1,
    ) {
        let k = 1 + k_pick % l;
        let needs: Vec<usize> = needs_seed.iter().take(n).map(|u| u.min(&k)).copied().collect();
        let spec = random_scenario(rung, n, seed, l, k, needs, hold);
        let scenario = spec.compile().expect("generated scenario validates");
        let delta = scenario.check().expect("tree rungs lower into the checker");
        let interned = scenario.check_interned().expect("same lowering");
        assert_reports_identical(&scenario.spec().name, &delta, &interned);
    }
}

/// The coverage signature the fuzzer keys its corpus on is engine-independent: the delta
/// and interned engines fingerprint a scenario identically, with the monitor verdicts from
/// the same seeded simulator run folded in.
#[test]
fn coverage_signatures_are_engine_independent() {
    for (rung, n, seed) in [(0, 4, 11), (1, 5, 23), (2, 5, 37), (3, 4, 53), (3, 6, 71)] {
        let mut spec = random_scenario(rung, n, seed, 2, 1, vec![1; n], 1);
        spec.properties =
            vec!["request-eventually-cs".into(), "at-most-k-in-cs".into(), "l-availability".into()];
        let scenario = spec.compile().expect("scenario validates");
        let name = &scenario.spec().name;
        let (_, monitors) = scenario.run_monitored();
        let delta = scenario.check().expect("tree rungs lower into the checker");
        let interned = scenario.check_interned().expect("same lowering");
        assert_eq!(
            CoverageSignature::of(&delta, &monitors).key(),
            CoverageSignature::of(&interned, &monitors).key(),
            "{name}: interned"
        );
    }
}

/// Satellite (trial reuse): a harness run that reuses one network per worker must be
/// bit-identical, trial for trial, to rebuilding the network from scratch per trial — and
/// stay independent of the shard count.
#[test]
fn harness_network_reuse_is_invisible_in_results() {
    let scenario = CompiledScenario::builder("reuse — ss uniform on a binary tree")
        .topology(TopologySpec::Binary { n: 15 })
        .protocol(ProtocolSpec::Ss)
        .kl(2, 3)
        .workload(WorkloadSpec::Uniform { seed: 11, p_request: 0.2, max_units: 2, max_hold: 5 })
        .daemon(DaemonSpec::RandomFair { seed: 5 })
        .stop(StopSpec::Steps { steps: 15_000 })
        .metrics(&["steps", "cs_entries", "messages_sent", "in_flight"])
        .trials(6)
        .base_seed(77)
        .build()
        .expect("valid scenario");

    // The oracle: every trial on a freshly built network (`run_trial` never reuses).
    let base_seed = scenario.spec().base_seed;
    let fresh: Vec<_> =
        (0..6).map(|i| scenario.run_trial(i, trial_seed(base_seed, i)).metrics).collect();

    // One worker serving all six trials exercises the reset path five times.
    assert_eq!(scenario.run_harness(1).per_trial, fresh);
    // And the reuse must not perturb shard-count independence.
    assert_eq!(scenario.run_harness(3).per_trial, fresh);
}

/// Trial reuse under the full phase machinery: warmup, fault injection, and a predicate
/// stop — the phases that leave the most residue in a reused network.
#[test]
fn harness_reuse_is_invisible_with_warmup_and_faults() {
    let scenario = CompiledScenario::builder("reuse — convergence after faults")
        .topology(TopologySpec::Star { n: 7 })
        .protocol(ProtocolSpec::Ss)
        .kl(2, 3)
        .workload(WorkloadSpec::Saturated { units: 1, hold: 3 })
        .daemon(DaemonSpec::RandomFair { seed: 9 })
        .warmup(400_000)
        .fault(123, analysis::scenario::FaultPlanSpec::Moderate)
        .stop(StopSpec::Predicate {
            name: "legitimate".into(),
            max_steps: 400_000,
            sustained_for: 64,
        })
        .metrics(&["converged", "steps", "messages_sent"])
        .trials(4)
        .base_seed(31)
        .build()
        .expect("valid scenario");

    let base_seed = scenario.spec().base_seed;
    let fresh: Vec<_> =
        (0..4).map(|i| scenario.run_trial(i, trial_seed(base_seed, i)).metrics).collect();
    assert_eq!(scenario.run_harness(1).per_trial, fresh);
    assert_eq!(scenario.run_harness(2).per_trial, fresh);
}
