//! Integration tests for the unified scenario API.
//!
//! * **Serde round-trip** (proptest): `spec → JSON → spec` is the identity for randomly
//!   generated specs — the derived `Deserialize` of the spec types exactly inverts their
//!   derived `Serialize`.
//! * **Cross-backend consistency**: a small preset produces the *identical trace* via
//!   `Scenario::run` and via a hand-wired `protocol::ss::network` + `run_for` execution.
//! * **Acceptance**: one `ScenarioSpec` value — the `figure2` preset — demonstrably drives
//!   all three backends (simulator, sharded harness, bounded-exhaustive checker), including
//!   after a round trip through its JSON representation (the `klex` CLI path).

use kl_exclusion::prelude::*;
use proptest::prelude::*;

use analysis::scenario::{preset, CsStateSpec, InjectSpec, MessageSpec, NodeInit, FIGURE3_NEEDS};

// ---------------------------------------------------------------- serde round-trip proptest

fn topology_strategy() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        Just(TopologySpec::Figure1),
        Just(TopologySpec::Figure3),
        (2usize..40).prop_map(|n| TopologySpec::Chain { n }),
        (2usize..40).prop_map(|n| TopologySpec::Star { n }),
        ((2usize..40), any::<u64>()).prop_map(|(n, seed)| TopologySpec::Random { n, seed }),
        ((3usize..30), (1usize..4), any::<u64>()).prop_map(|(n, max_children, seed)| {
            TopologySpec::BoundedDegree { n, max_children, seed }
        }),
        ((4usize..20), (0usize..8), any::<u64>())
            .prop_map(|(n, extra_edges, seed)| TopologySpec::SpanningTree { n, extra_edges, seed }),
    ]
}

fn protocol_strategy() -> impl Strategy<Value = ProtocolSpec> {
    prop_oneof![
        Just(ProtocolSpec::Naive),
        Just(ProtocolSpec::Pusher),
        Just(ProtocolSpec::NonStab),
        Just(ProtocolSpec::Ss),
        Just(ProtocolSpec::Ring),
    ]
}

fn workload_strategy() -> impl Strategy<Value = WorkloadSpec> {
    prop_oneof![
        Just(WorkloadSpec::Idle),
        ((1usize..4), (0u64..30)).prop_map(|(units, hold)| WorkloadSpec::Saturated { units, hold }),
        (any::<u64>(), (1usize..4), (1u64..40)).prop_map(|(seed, max_units, max_hold)| {
            WorkloadSpec::Uniform { seed, p_request: 0.25, max_units, max_hold }
        }),
        (proptest::collection::vec(0usize..4, 0..8), (0u64..20))
            .prop_map(|(needs, hold)| WorkloadSpec::Needs { needs, hold }),
        (any::<u64>(), (1usize..4), (1u64..40)).prop_map(|(seed, max_units, max_hold)| {
            WorkloadSpec::LeafUniform { seed, p_request: 0.5, max_units, max_hold }
        }),
    ]
}

fn daemon_strategy() -> impl Strategy<Value = DaemonSpec> {
    prop_oneof![
        Just(DaemonSpec::RoundRobin),
        Just(DaemonSpec::Synchronous),
        any::<u64>().prop_map(|seed| DaemonSpec::RandomFair { seed }),
        (proptest::collection::vec(0usize..8, 0..3), (1u64..20))
            .prop_map(|(victims, patience)| DaemonSpec::Adversarial { victims, patience }),
    ]
}

fn stop_strategy() -> impl Strategy<Value = StopSpec> {
    prop_oneof![
        (1u64..1_000_000).prop_map(|steps| StopSpec::Steps { steps }),
        ((1u64..1_000_000), (1u64..200))
            .prop_map(|(max_steps, grace)| StopSpec::Quiescent { max_steps, grace }),
        ((1u64..500), (1u64..1_000_000))
            .prop_map(|(entries, max_steps)| StopSpec::CsEntries { entries, max_steps }),
        ((0usize..3), (1u64..1_000_000), (0u64..5_000)).prop_map(
            |(name, max_steps, sustained_for)| StopSpec::Predicate {
                name: StopSpec::PREDICATES[name].to_string(),
                max_steps,
                sustained_for,
            }
        ),
    ]
}

fn init_strategy() -> impl Strategy<Value = Option<InitSpec>> {
    prop_oneof![
        Just(None),
        (
            any::<bool>(),
            proptest::collection::vec(
                ((0usize..8), (0usize..4), proptest::collection::vec(0usize..3, 0..3)).prop_map(
                    |(node, need, rset)| NodeInit {
                        node,
                        state: if need > 0 { CsStateSpec::Req } else { CsStateSpec::Out },
                        need,
                        rset,
                    }
                ),
                0..3
            ),
            proptest::collection::vec(
                ((0usize..8), (0usize..3), (0u64..10)).prop_map(|(from, channel, c)| InjectSpec {
                    from,
                    channel,
                    message: if c == 0 {
                        MessageSpec::ResT
                    } else if c == 1 {
                        MessageSpec::PushT
                    } else {
                        MessageSpec::Ctrl { c, r: c % 2 == 0, pt: c / 2, ppr: (c % 3) as u8 }
                    },
                }),
                0..3
            ),
        )
            .prop_map(|(bootstrapped_root, nodes, inject)| Some(InitSpec {
                bootstrapped_root,
                nodes,
                inject
            })),
    ]
}

fn spec_strategy() -> impl Strategy<Value = ScenarioSpec> {
    // Note: these specs are arbitrary *data* — many will not pass `compile()` validation
    // (out-of-range nodes, ring + leaf workloads, …).  Round-tripping must be lossless for
    // all of them regardless.
    (
        (topology_strategy(), protocol_strategy(), workload_strategy(), daemon_strategy()),
        (stop_strategy(), init_strategy()),
        ((1usize..4), (1usize..6), any::<bool>(), (0u64..100)),
        ((1u64..20), any::<u64>()),
    )
        .prop_map(|(core, run, cfg, plan)| {
            let (topology, protocol, workload, daemon) = core;
            let (stop, init) = run;
            let (k, l_extra, unbounded, timeout) = cfg;
            let (trials, base_seed) = plan;
            let mut config = ConfigSpec::new(k, k + l_extra).with_unbounded_counter(unbounded);
            if timeout > 0 {
                config = config.with_timeout(timeout);
            }
            let mut spec = ScenarioSpec::builder("roundtrip \"probe\" — ℓ units\n")
                .topology(topology)
                .protocol(protocol)
                .config(config)
                .workload(workload)
                .daemon(daemon)
                .stop(stop)
                .metrics(&["steps", "satisfied"])
                .trials(trials)
                .base_seed(base_seed)
                .spec();
            spec.init = init;
            spec
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// spec → JSON → spec is the identity (including tricky characters in the name and
    /// every enum variant the strategies can reach).
    #[test]
    fn spec_json_roundtrip_is_identity(spec in spec_strategy()) {
        let json = spec.to_json();
        let parsed = ScenarioSpec::from_json(&json).expect("own JSON must parse");
        prop_assert_eq!(parsed, spec);
    }
}

#[test]
fn roundtrip_covers_warmup_fault_and_check_fields() {
    // The strategy above leaves warmup/fault/check at defaults; pin them here.
    let mut spec = preset("theorem1").expect("bundled preset");
    spec.warmup = Some(WarmupSpec {
        max_steps: 123,
        window: Some(7),
        daemon: Some(DaemonSpec::Adversarial { victims: vec![1, 2], patience: 3 }),
    });
    spec.check = CheckSpec {
        max_configurations: 42,
        max_depth: 9,
        properties: vec!["safety".into(), "no-garbage".into(), "liveness".into()],
        from_legitimate: true,
    };
    spec.properties = vec!["request-eventually-cs".into(), "l-availability".into()];
    let json = spec.to_json();
    let parsed = ScenarioSpec::from_json(&json).unwrap();
    assert_eq!(parsed, spec);
    // Documents written before the `threads` knob was removed still load: the key is ignored.
    let legacy = json.replacen("\"from_legitimate\"", "\"threads\": 3, \"from_legitimate\"", 1);
    assert_ne!(legacy, json);
    assert_eq!(ScenarioSpec::from_json(&legacy).unwrap(), spec);
}

#[test]
fn malformed_specs_are_rejected_with_context() {
    assert!(ScenarioSpec::from_json("{").is_err());
    assert!(ScenarioSpec::from_json("{}").is_err());
    let err = ScenarioSpec::from_json(r#"{"name":"x"}"#).unwrap_err();
    assert!(err.to_string().contains("topology"), "{err}");

    // Each broken document names the path to what is wrong.
    let mut spec = preset("figure2").expect("known preset");
    spec.init.as_mut().expect("figure2 has init overrides").inject = vec![
        InjectSpec {
            from: 0,
            channel: 0,
            message: MessageSpec::Ctrl { c: 1, r: false, pt: 0, ppr: 255 },
        },
        InjectSpec { from: 1, channel: 0, message: MessageSpec::Garbage { tag: 65535 } },
    ];
    let json = spec.to_json();
    assert_eq!(ScenarioSpec::from_json(&json), Ok(spec));
    for (from, to, expected) in [
        ("\"k\":3,", "", "config.k: missing field"),
        ("\"k\":3", "\"k\":\"3\"", "config.k: expected an unsigned integer, found a string"),
        ("\"protocol\":\"Naive\"", "\"protocol\":\"Bogus\"", "protocol: unknown variant `Bogus`"),
        ("\"ppr\":255", "\"ppr\":256", "init.inject[0].message.ppr: 256 exceeds u8"),
        ("\"tag\":65535", "\"tag\":70000", "init.inject[1].message.tag: 70000 exceeds u16"),
    ] {
        let broken = json.replacen(from, to, 1);
        assert_ne!(broken, json, "`{from}` must occur in the document");
        assert_eq!(ScenarioSpec::from_json(&broken), Err(ScenarioError::Json(expected.into())));
    }
}

/// `metrics`, `properties` and `check.from_legitimate` may be left out (or `null`) and
/// default to empty/false; the `Option` fields `fault_schedule` and `snapshots` default to
/// `None`.
#[test]
fn optional_spec_fields_take_their_documented_defaults() {
    let mut spec = preset("figure2").expect("known preset");
    spec.metrics.clear();
    spec.properties.clear();
    assert!(!spec.check.from_legitimate);
    assert_eq!((&spec.fault_schedule, &spec.snapshots), (&None, &None));
    let json = spec.to_json();
    let optional = [
        ",\"metrics\":[]",
        ",\"properties\":[]",
        ",\"from_legitimate\":false",
        ",\"fault_schedule\":null",
        ",\"snapshots\":null",
    ];
    let (mut absent, mut null) = (json.clone(), json.clone());
    for field in optional {
        assert!(json.contains(field), "{field}");
        absent = absent.replacen(field, "", 1);
        let key = field.split(':').next().expect("a key");
        null = null.replacen(field, &format!("{key}:null"), 1);
    }
    assert_eq!(ScenarioSpec::from_json(&absent), Ok(spec.clone()));
    assert_eq!(ScenarioSpec::from_json(&null), Ok(spec));
}

/// A topology beyond the `u32` node-id space is a typed error, not a panic in the trace.
#[test]
fn topologies_beyond_the_u32_id_space_are_rejected() {
    let too_many = u32::MAX as usize + 1;
    for topology in [
        TopologySpec::Chain { n: too_many },
        TopologySpec::Broom { handle: u32::MAX as usize, bristles: 1 },
        // Sizes whose process count overflows `usize` itself must not wrap to a small one.
        TopologySpec::Caterpillar { spine: usize::MAX / 2, legs: 4 },
    ] {
        let result = ScenarioSpec::builder("huge").topology(topology.clone()).kl(1, 2).build();
        match result {
            Err(ScenarioError::Invalid(msg)) => assert!(msg.contains("at most"), "{msg}"),
            Err(other) => panic!("{topology:?}: expected an Invalid error, got {other}"),
            Ok(_) => panic!("{topology:?}: accepted"),
        }
    }
}

/// A request above `u16::MAX` units — the trace record's width — is a typed error on every
/// workload that sets a unit count, not a silently saturated trace.
#[test]
fn unit_counts_beyond_u16_are_rejected() {
    let too_many = usize::from(u16::MAX) + 1;
    for workload in [
        WorkloadSpec::Needs { needs: vec![0, 1, too_many], hold: 0 },
        WorkloadSpec::Saturated { units: too_many, hold: 0 },
        WorkloadSpec::Uniform { seed: 1, p_request: 0.5, max_units: too_many, max_hold: 1 },
        WorkloadSpec::LeafUniform { seed: 1, p_request: 0.5, max_units: too_many, max_hold: 1 },
    ] {
        let result = ScenarioSpec::builder("heavy")
            .topology(TopologySpec::Chain { n: 3 })
            .kl(1, 2)
            .workload(workload.clone())
            .build();
        match result {
            Err(ScenarioError::Invalid(msg)) => assert!(msg.contains("65536 units"), "{msg}"),
            Err(other) => panic!("{workload:?}: expected an Invalid error, got {other}"),
            Ok(_) => panic!("{workload:?}: accepted"),
        }
    }
    // The boundary itself is accepted.
    let at_limit = ScenarioSpec::builder("at the limit")
        .topology(TopologySpec::Chain { n: 3 })
        .kl(1, 2)
        .workload(WorkloadSpec::Saturated { units: usize::from(u16::MAX), hold: 0 })
        .build();
    assert!(at_limit.is_ok(), "{:?}", at_limit.err());
}

/// A configuration budget beyond the checker's `u32` state ids is a typed error at
/// validation, not an id that wraps mid-exploration.  Nothing is explored here.
#[test]
fn configuration_budgets_beyond_u32_state_ids_are_rejected() {
    let with_budget = |max_configurations: usize| {
        ScenarioSpec::builder("big budget")
            .topology(TopologySpec::Chain { n: 3 })
            .kl(1, 2)
            .check(CheckSpec { max_configurations, ..CheckSpec::default() })
            .build()
    };
    match with_budget(u32::MAX as usize + 1) {
        Err(ScenarioError::Invalid(msg)) => {
            assert!(msg.contains("check.max_configurations 4294967296"), "{msg}")
        }
        Err(other) => panic!("expected an Invalid error, got {other}"),
        Ok(_) => panic!("a budget beyond u32 ids was accepted"),
    }
    // The boundary itself is accepted, through JSON as well.
    let at_limit = with_budget(u32::MAX as usize).expect("a budget of u32::MAX is valid");
    assert!(ScenarioSpec::from_json(&at_limit.spec().to_json()).unwrap().compile().is_ok());
}

#[test]
fn out_of_range_victims_are_rejected_for_main_and_warmup_daemons() {
    let base =
        || ScenarioSpec::builder("bad victims").topology(TopologySpec::Chain { n: 4 }).kl(1, 2);
    let main = base().daemon(DaemonSpec::Adversarial { victims: vec![99], patience: 2 }).build();
    assert!(matches!(main, Err(ScenarioError::Invalid(_))));
    let warmup = base()
        .warmup_spec(WarmupSpec {
            max_steps: 1_000,
            window: None,
            daemon: Some(DaemonSpec::Adversarial { victims: vec![99], patience: 2 }),
        })
        .build();
    assert!(matches!(warmup, Err(ScenarioError::Invalid(_))));
}

/// An init override may ask for any `Need` up to k, like a driver; k + 1 would read as a
/// process over its k bound, a safety violation the protocol never made.
#[test]
fn init_needs_beyond_k_are_rejected() {
    let with_need = |need: usize| {
        let mut spec = preset("checker-safety").expect("bundled preset");
        let init = spec.init.get_or_insert_with(InitSpec::default);
        init.nodes = vec![NodeInit { node: 1, state: CsStateSpec::Req, need, rset: vec![] }];
        spec.compile()
    };
    let k = preset("checker-safety").expect("bundled preset").config.k;
    assert!(with_need(k).is_ok(), "{:?}", with_need(k).err());
    match with_need(k + 1) {
        Err(ScenarioError::Invalid(msg)) => assert!(msg.contains("of node 1 exceeds k"), "{msg}"),
        Err(other) => panic!("expected an Invalid error, got {other}"),
        Ok(_) => panic!("need k + 1 was accepted"),
    }
}

/// A victim list that names every node, one of them twice, leaves the adversary no one else
/// to schedule: it falls back to the round-robin decisions instead of searching for a
/// non-victim forever, on the simulator and on the harness.
#[test]
fn duplicate_victims_covering_every_node_do_not_hang_the_simulator() {
    let mut spec = preset("checker-safety").expect("bundled preset");
    spec.daemon = DaemonSpec::Adversarial { victims: vec![0, 1, 2, 2], patience: 3 };
    spec.stop = StopSpec::Steps { steps: 600 };
    let scenario = spec.compile().expect("in-range victims validate");
    assert_eq!(scenario.run().outcome, treenet::RunOutcome::Satisfied(600));
    let harness = scenario.run_harness(1);
    assert_eq!(harness.per_trial.len(), scenario.spec().trials as usize);
    assert_eq!(harness.fraction("satisfied"), 1.0);
}

// ---------------------------------------------------------------- cross-backend consistency

/// A small preset produces the identical trace via `Scenario::run` and via hand-wired
/// `protocol::ss::network` + the classic run loop: the declarative layer adds nothing and
/// loses nothing.
#[test]
fn scenario_run_equals_hand_wired_execution() {
    let scenario = Scenario::builder("figure3 cross-check")
        .topology(TopologySpec::Figure3)
        .protocol(ProtocolSpec::Ss)
        .kl(2, 3)
        .workload(WorkloadSpec::Needs { needs: vec![1, 2, 1], hold: 6 })
        .daemon(DaemonSpec::RoundRobin)
        .stop(StopSpec::Steps { steps: 20_000 })
        .build()
        .expect("validates");
    let outcome = scenario.run();

    // The same regime, wired by hand exactly as pre-scenario code did.
    let tree = topology::builders::figure3_tree();
    let cfg = KlConfig::new(2, 3, 3);
    let mut net = protocol::ss::network(tree, cfg, |node| {
        Box::new(workloads::Heterogeneous { units: FIGURE3_NEEDS[node], hold: 6 })
            as treenet::app::BoxedDriver
    });
    let mut sched = RoundRobin::new();
    treenet::run_for(&mut net, &mut sched, 20_000);

    assert_eq!(outcome.trace.events(), net.trace().events(), "traces must be identical");
    assert_eq!(outcome.ended_at, net.now());
    assert_eq!(outcome.metric("cs_entries").unwrap() as usize, net.trace().cs_entries(None),);
}

/// The same consistency through the predicate stop rule (run_until).
#[test]
fn scenario_predicate_run_equals_hand_wired_run_until() {
    let scenario = Scenario::builder("cs-entries cross-check")
        .topology(TopologySpec::Chain { n: 4 })
        .protocol(ProtocolSpec::Ss)
        .kl(1, 2)
        .workload(WorkloadSpec::Saturated { units: 1, hold: 3 })
        .daemon(DaemonSpec::RoundRobin)
        .stop(StopSpec::CsEntries { entries: 8, max_steps: 2_000_000 })
        .build()
        .expect("validates");
    let outcome = scenario.run();
    assert!(outcome.outcome.is_satisfied());

    let tree = topology::builders::chain(4);
    let cfg = KlConfig::new(1, 2, 4);
    let mut net = protocol::ss::network(tree, cfg, workloads::all_saturated(1, 3));
    let mut sched = RoundRobin::new();
    let (mut cursor, mut entries) = (treenet::EnterCsCursor::default(), 0);
    let hand = treenet::run_until(&mut net, &mut sched, 2_000_000, |n| {
        cursor.advance(n.trace(), |_| entries += 1);
        entries >= 8
    });
    assert_eq!(outcome.outcome, hand);
    assert_eq!(outcome.trace.events(), net.trace().events());
}

// ---------------------------------------------------------------- three-backend acceptance

/// One `ScenarioSpec` value — the `figure2` preset, after a round trip through its JSON
/// form — drives the simulator, the sharded harness, and the exhaustive checker.
#[test]
fn figure2_preset_drives_all_three_backends_from_one_spec() {
    // The spec travels as JSON (what `klex run <file>` does) and comes back identical.
    let spec = preset("figure2").expect("bundled preset");
    let json = spec.to_json();
    let spec = ScenarioSpec::from_json(&json).expect("bundled presets round-trip");
    let scenario = spec.compile().expect("bundled presets validate");

    // Backend 1 — simulator: the naive protocol goes quiescent with all four requesters
    // blocked forever and zero critical sections: Figure 2's deadlock.
    let sim = scenario.run();
    assert!(matches!(sim.outcome, treenet::RunOutcome::Quiescent(_)), "{:?}", sim.outcome);
    assert_eq!(sim.metric("blocked_requesters"), Some(4.0));
    assert_eq!(sim.metric("cs_entries"), Some(0.0));
    assert_eq!(sim.metric("in_flight"), Some(0.0));

    // Backend 2 — sharded multi-trial harness: every trial agrees, at any shard count.
    let harness = scenario.run_harness(4);
    assert_eq!(harness.per_trial.len(), scenario.spec().trials as usize);
    assert_eq!(harness.fraction("satisfied"), 1.0);
    assert_eq!(harness.summaries["blocked_requesters"].max, 4.0);
    assert_eq!(harness.summaries["blocked_requesters"].min, 4.0);
    assert_eq!(scenario.run_harness(1).per_trial, harness.per_trial);

    // Backend 3 — bounded-exhaustive checker: from the figure's configuration the deadlock
    // is not merely observed on one schedule, it is *every* schedule: the configuration has
    // no outgoing transition that changes it, and exploration is exhaustive.
    let report = scenario.check().expect("the naive rung lowers into the checker");
    assert!(report.exhaustive(), "the deadlocked instance must be fully explored");
    assert!(!report.deadlock_free(), "the checker must find the Figure-2 deadlock");
    assert!(report.ok(), "safety still holds in the deadlocked configuration");
}

/// The pusher variant of the same scenario family shows the deadlock resolving — and the
/// checker confirms no deadlock is reachable once the pusher token is in flight.
#[test]
fn figure2_pusher_preset_resolves_the_deadlock_on_all_backends() {
    let scenario = preset("figure2-pusher").unwrap().compile().unwrap();
    let sim = scenario.run();
    assert!(sim.outcome.is_satisfied(), "{:?}", sim.outcome);
    assert!(sim.metric("cs_entries").unwrap() >= 20.0);

    let report = scenario.check().expect("the pusher rung lowers into the checker");
    assert!(report.deadlock_free(), "with the pusher the deadlock must be unreachable");
}

#[test]
fn uniform_workloads_do_not_lower_into_the_checker() {
    let scenario = Scenario::builder("not checkable")
        .topology(TopologySpec::Figure3)
        .kl(1, 2)
        .workload(WorkloadSpec::Uniform { seed: 1, p_request: 0.1, max_units: 1, max_hold: 5 })
        .build()
        .unwrap();
    assert!(matches!(scenario.check(), Err(ScenarioError::NotCheckable(_))));
}
