//! The named scenario library: every paper figure and experiment regime as a ready-made
//! [`ScenarioSpec`].
//!
//! Presets are plain spec values — print one with [`ScenarioSpec::to_json`] to get a
//! starting point for a custom JSON scenario, or run one directly through the `klex` CLI
//! (`klex run figure2`).

use super::spec::{
    CheckSpec, ConfigSpec, CsStateSpec, DaemonSpec, FaultEventSpec, FaultPlanSpec,
    FaultScheduleSpec, InitSpec, InjectSpec, MessageSpec, NodeInit, ProtocolSpec, ScenarioSpec,
    StopSpec, TopologySpec, WarmupSpec, WorkloadSpec,
};

/// The names accepted by [`preset`], in presentation order.
pub const PRESET_NAMES: [&str; 18] = [
    "figure2",
    "figure2-pusher",
    "figure2-ss",
    "figure3-pusher",
    "figure3-nonstab",
    "figure3-ss",
    "quickstart",
    "theorem1",
    "theorem2",
    "timeout",
    "unbounded",
    "ring",
    "churn-campaign",
    "fault-gauntlet",
    "checker-safety",
    "checker-liveness",
    "checker-liveness-nonstab",
    "checker-churn",
];

/// Requested units per node in the Figure-2 scenario (`r,a,b,c,d,e,f,g`).
pub const FIGURE2_NEEDS: [usize; 8] = [0, 3, 2, 2, 2, 0, 0, 0];

/// Requested units per node in the Figure-3 scenario (`r, a, b`).
pub const FIGURE3_NEEDS: [usize; 3] = [1, 2, 1];

/// The right-hand (deadlocked) configuration of the paper's Figure 2 as declarative init
/// data: all five resource tokens reserved by the four requesters, none satisfiable, no
/// token in flight, and the root barred from creating fresh ones.
pub fn figure2_deadlock_init() -> InitSpec {
    InitSpec {
        bootstrapped_root: true,
        nodes: vec![
            // a = node 1: Req, Need 3, RSet {0,0}
            NodeInit { node: 1, state: CsStateSpec::Req, need: 3, rset: vec![0, 0] },
            // b, c, d = nodes 2..4: Req, Need 2, RSet {0}
            NodeInit { node: 2, state: CsStateSpec::Req, need: 2, rset: vec![0] },
            NodeInit { node: 3, state: CsStateSpec::Req, need: 2, rset: vec![0] },
            NodeInit { node: 4, state: CsStateSpec::Req, need: 2, rset: vec![0] },
        ],
        inject: Vec::new(),
    }
}

fn figure2_base(name: &str, protocol: ProtocolSpec) -> ScenarioSpec {
    ScenarioSpec::builder(name)
        .topology(TopologySpec::Figure1)
        .protocol(protocol)
        .kl(3, 5)
        .workload(WorkloadSpec::Needs { needs: FIGURE2_NEEDS.to_vec(), hold: 5 })
        .daemon(DaemonSpec::RoundRobin)
        .properties(&["at-most-k-in-cs", "l-availability"])
        .check(CheckSpec {
            max_configurations: 50_000,
            properties: vec!["safety".into()],
            ..CheckSpec::default()
        })
        .spec()
}

fn figure3_base(name: &str, protocol: ProtocolSpec) -> ScenarioSpec {
    ScenarioSpec::builder(name)
        .topology(TopologySpec::Figure3)
        .protocol(protocol)
        .kl(2, 3)
        .workload(WorkloadSpec::Needs { needs: FIGURE3_NEEDS.to_vec(), hold: 6 })
        .daemon(DaemonSpec::RandomFair { seed: 1_000 })
        .stop(StopSpec::Steps { steps: 60_000 })
        .metrics(&["steps", "satisfied", "cs_entries", "jain_index"])
        .properties(&["request-eventually-cs", "at-most-k-in-cs", "l-availability"])
        .trials(4)
        .spec()
}

/// The shared shape of the two fair-cycle checking presets: the exact Figure-3 liveness
/// instance (needs r=1, a=2, b=1, critical sections spanning one activation so processes
/// hold tokens while the pusher passes) with the fair-cycle pass enabled.
fn checker_liveness_base(name: &str, protocol: ProtocolSpec, max_configs: usize) -> ScenarioSpec {
    ScenarioSpec::builder(name)
        .topology(TopologySpec::Figure3)
        .protocol(protocol)
        .kl(2, 3)
        .workload(WorkloadSpec::Needs { needs: FIGURE3_NEEDS.to_vec(), hold: 1 })
        .daemon(DaemonSpec::RoundRobin)
        .stop(StopSpec::Steps { steps: 10_000 })
        .properties(&["request-eventually-cs", "at-most-k-in-cs", "l-availability"])
        .check(CheckSpec {
            max_configurations: max_configs,
            max_depth: 0,
            properties: vec!["safety".into(), "liveness".into()],
            ..CheckSpec::default()
        })
        .spec()
}

/// Looks up a named scenario.  `None` for unknown names — see [`PRESET_NAMES`].
pub fn preset(name: &str) -> Option<ScenarioSpec> {
    Some(match name {
        // Figure 2: the naive protocol starting in the figure's right-hand configuration
        // stays deadlocked forever — the run goes quiescent with all four requesters blocked.
        "figure2" => {
            let mut spec = figure2_base("figure2 — naive deadlock (Fig. 2)", ProtocolSpec::Naive);
            spec.init = Some(figure2_deadlock_init());
            spec.stop = StopSpec::Quiescent { max_steps: 100_000, grace: 63 };
            spec.metrics = vec![
                "steps".into(),
                "satisfied".into(),
                "cs_entries".into(),
                "in_flight".into(),
                "blocked_requesters".into(),
            ];
            spec.trials = 4;
            spec
        }
        // Figure 2 with the pusher rung: the same configuration plus the pusher token in
        // flight towards `a` — the deadlock resolves and critical sections keep happening.
        "figure2-pusher" => {
            let mut spec =
                figure2_base("figure2 — pusher resolves the deadlock", ProtocolSpec::Pusher);
            let mut init = figure2_deadlock_init();
            init.inject.push(InjectSpec { from: 0, channel: 0, message: MessageSpec::PushT });
            spec.init = Some(init);
            spec.stop = StopSpec::CsEntries { entries: 20, max_steps: 400_000 };
            spec.trials = 2;
            spec
        }
        // Figure 2 under the self-stabilizing protocol: the deadlock is just one more
        // arbitrary initial configuration; the controller repairs it and every requester is
        // eventually served.
        "figure2-ss" => {
            let mut spec = figure2_base("figure2 — self-stabilizing recovery", ProtocolSpec::Ss);
            let mut init = figure2_deadlock_init();
            init.bootstrapped_root = false;
            spec.init = Some(init);
            spec.stop = StopSpec::Predicate {
                name: "all-requesters-served".into(),
                max_steps: 2_000_000,
                sustained_for: 0,
            };
            spec.metrics =
                vec!["steps".into(), "satisfied".into(), "cs_entries".into(), "converged".into()];
            spec.trials = 2;
            spec
        }
        // Figure 3: 2-out-of-3 exclusion with needs r=1, a=2, b=1 under the pusher-only
        // protocol (the 2-unit requester can starve), the pusher+priority rung, and the full
        // self-stabilizing protocol.
        "figure3-pusher" => figure3_base("figure3 — pusher only", ProtocolSpec::Pusher),
        "figure3-nonstab" => figure3_base("figure3 — pusher + priority", ProtocolSpec::NonStab),
        "figure3-ss" => figure3_base("figure3 — self-stabilizing", ProtocolSpec::Ss),
        // The README quickstart: stabilize 3-out-of-5 on the Figure-1 tree, then measure a
        // steady-state window.
        "quickstart" => ScenarioSpec::builder("quickstart — 3-out-of-5 on the Figure-1 tree")
            .topology(TopologySpec::Figure1)
            .protocol(ProtocolSpec::Ss)
            .kl(3, 5)
            .workload(WorkloadSpec::Saturated { units: 2, hold: 10 })
            .daemon(DaemonSpec::RandomFair { seed: 2024 })
            .warmup_spec(WarmupSpec { max_steps: 2_000_000, window: Some(2_000), daemon: None })
            .stop(StopSpec::Steps { steps: 200_000 })
            .metrics(&[
                "steps",
                "satisfied",
                "cs_entries",
                "messages_sent",
                "jain_index",
                "waiting_max",
                "waiting_mean",
            ])
            .spec(),
        // Theorem 1 (one parameter point of experiment E5): stabilize, inject a catastrophic
        // transient fault, and measure re-convergence to sustained legitimacy.
        "theorem1" => ScenarioSpec::builder("theorem1 — convergence after a catastrophic fault")
            .topology(TopologySpec::Random { n: 9, seed: 7 })
            .protocol(ProtocolSpec::Ss)
            .kl(2, 4)
            .workload(WorkloadSpec::Uniform {
                seed: 11,
                p_request: 0.01,
                max_units: 2,
                max_hold: 20,
            })
            .daemon(DaemonSpec::RandomFair { seed: 50 })
            .warmup(1_500_000)
            .fault(900, FaultPlanSpec::Catastrophic)
            .stop(StopSpec::Predicate {
                name: "legitimate".into(),
                max_steps: 1_500_000,
                sustained_for: 2_000,
            })
            .metrics(&["converged", "convergence_activations", "warmup_activations"])
            .trials(5)
            .spec(),
        // Theorem 2 (one parameter point of experiment E6): saturate every process, stabilize
        // under a fair daemon, then measure waiting times under the bounded-unfairness
        // adversary that starves the deepest node.
        "theorem2" => ScenarioSpec::builder("theorem2 — waiting time under the adversary")
            .topology(TopologySpec::Chain { n: 9 })
            .protocol(ProtocolSpec::Ss)
            .kl(1, 3)
            .workload(WorkloadSpec::Saturated { units: 1, hold: 3 })
            .daemon(DaemonSpec::Adversarial { victims: vec![], patience: 8 })
            .warmup_spec(WarmupSpec {
                max_steps: 1_500_000,
                window: None,
                daemon: Some(DaemonSpec::RandomFair { seed: 300 }),
            })
            .stop(StopSpec::Steps { steps: 40_000 })
            .metrics(&["waiting_max", "waiting_mean", "cs_entries", "satisfied"])
            .trials(3)
            .spec(),
        // Experiment E13's "small" point: a timeout near one controller circulation — the
        // timer fires spuriously and pays in duplicate controller traffic.
        "timeout" => ScenarioSpec::builder("timeout — small controller-retransmission interval")
            .topology(TopologySpec::Random { n: 9, seed: 7_000 })
            .protocol(ProtocolSpec::Ss)
            .config(ConfigSpec::new(2, 3).with_timeout(16))
            .workload(WorkloadSpec::Saturated { units: 1, hold: 8 })
            .daemon(DaemonSpec::RandomFair { seed: 2_300 })
            .warmup(1_500_000)
            .stop(StopSpec::Steps { steps: 40_000 })
            .metrics(&["steps", "cs_entries", "messages_sent", "satisfied"])
            .spec(),
        // Experiment E14's adaptation point: the unbounded counter-flushing domain under a
        // catastrophic fault.
        "unbounded" => ScenarioSpec::builder("unbounded — counter domain of the conclusion")
            .topology(TopologySpec::Chain { n: 9 })
            .protocol(ProtocolSpec::Ss)
            .config(ConfigSpec::new(2, 4).with_cmax(0).with_unbounded_counter(true))
            .workload(WorkloadSpec::Uniform {
                seed: 3,
                p_request: 0.01,
                max_units: 2,
                max_hold: 20,
            })
            .daemon(DaemonSpec::RandomFair { seed: 1_400 })
            .warmup(1_500_000)
            .fault(77, FaultPlanSpec::Catastrophic)
            .stop(StopSpec::Predicate {
                name: "legitimate".into(),
                max_steps: 1_500_000,
                sustained_for: 2_000,
            })
            .metrics(&["converged", "convergence_activations"])
            .trials(3)
            .spec(),
        // The ring-based related-work baseline stabilizing from scratch.
        "ring" => ScenarioSpec::builder("ring — baseline stabilization")
            .topology(TopologySpec::Chain { n: 8 })
            .protocol(ProtocolSpec::Ring)
            .kl(1, 2)
            .workload(WorkloadSpec::Saturated { units: 1, hold: 4 })
            .daemon(DaemonSpec::RandomFair { seed: 4 })
            .stop(StopSpec::Predicate {
                name: "legitimate".into(),
                max_steps: 3_000_000,
                sustained_for: 0,
            })
            .metrics(&["steps", "satisfied", "cs_entries", "converged"])
            .spec(),
        // A multi-epoch fault campaign with topology churn: stabilize, then survive a
        // moderate transient fault, a leaf joining, a message burst, and a leaf leaving —
        // each epoch's re-convergence time is certified and reported separately.
        "churn-campaign" => ScenarioSpec::builder("churn campaign — faults and topology churn")
            .topology(TopologySpec::Random { n: 9, seed: 41 })
            .protocol(ProtocolSpec::Ss)
            .kl(2, 4)
            .workload(WorkloadSpec::Saturated { units: 1, hold: 6 })
            .daemon(DaemonSpec::RandomFair { seed: 90 })
            .warmup(1_500_000)
            .fault_schedule(FaultScheduleSpec {
                seed: 9_001,
                epochs: vec![
                    FaultEventSpec::Transient { plan: FaultPlanSpec::Moderate },
                    FaultEventSpec::JoinLeaf,
                    FaultEventSpec::MessageBurst { drop: 0.3, duplicate: 0.2, garbage: 2 },
                    FaultEventSpec::LeaveLeaf,
                ],
                max_steps: 1_500_000,
                window: None,
            })
            .stop(StopSpec::Steps { steps: 20_000 })
            .metrics(&[
                "epochs_total",
                "epochs_converged",
                "epoch_convergence_mean",
                "epoch_convergence_max",
                "cs_entries",
                "satisfied",
            ])
            .trials(3)
            .spec(),
        // The adversarial fault gauntlet: every epoch aims at the protocol's weak spot —
        // the token-holder root path, a crash-restart of two processes, then a catastrophic
        // wipe — measuring how quickly the self-stabilizing rung repairs each.
        "fault-gauntlet" => ScenarioSpec::builder("fault gauntlet — adversarial placement")
            .topology(TopologySpec::Random { n: 9, seed: 7 })
            .protocol(ProtocolSpec::Ss)
            .kl(2, 4)
            .workload(WorkloadSpec::Saturated { units: 1, hold: 8 })
            .daemon(DaemonSpec::RandomFair { seed: 51 })
            .warmup(1_500_000)
            .fault_schedule(FaultScheduleSpec {
                seed: 1_337,
                epochs: vec![
                    FaultEventSpec::TargetTokenPath,
                    FaultEventSpec::Crash { count: 2, lose_incoming: true },
                    FaultEventSpec::Transient { plan: FaultPlanSpec::Catastrophic },
                ],
                max_steps: 1_500_000,
                window: None,
            })
            .stop(StopSpec::Steps { steps: 20_000 })
            .metrics(&[
                "epochs_total",
                "epochs_converged",
                "epoch_convergence_mean",
                "epoch_convergence_max",
                "cs_entries",
            ])
            .trials(3)
            .spec(),
        // A small instance meant for the checking backend: exhaustively verify the safety
        // bounds *and* (k, ℓ)-liveness (no fair starvation cycle) of the full protocol on
        // the Figure-3 tree.
        "checker-safety" => ScenarioSpec::builder("checker — safety of ss on the Figure-3 tree")
            .topology(TopologySpec::Figure3)
            .protocol(ProtocolSpec::Ss)
            .kl(2, 3)
            .workload(WorkloadSpec::Saturated { units: 1, hold: 0 })
            .daemon(DaemonSpec::RoundRobin)
            .stop(StopSpec::Steps { steps: 5_000 })
            .properties(&["request-eventually-cs", "at-most-k-in-cs", "l-availability"])
            .check(CheckSpec {
                max_configurations: 20_000,
                max_depth: 0,
                properties: vec!["safety".into(), "liveness".into()],
                ..CheckSpec::default()
            })
            .spec(),
        // The Figure-3 livelock as a fair-cycle checking scenario: the pusher-only rung has
        // a weakly fair lasso starving the 2-unit requester (the checker reports it with a
        // stem + cycle witness)...
        "checker-liveness" => checker_liveness_base(
            "checker — figure3 livelock of the pusher-only rung",
            ProtocolSpec::Pusher,
            800_000,
        ),
        // ...and the priority token removes it: the same instance one rung up is clean.
        "checker-liveness-nonstab" => checker_liveness_base(
            "checker — priority token removes the figure3 livelock",
            ProtocolSpec::NonStab,
            1_500_000,
        ),
        // Exhaustive checking from a post-campaign configuration: a tiny chain survives a
        // transient fault, a leaf joining, and a message burst, then the checker explores
        // every reachable configuration from where the campaign left the network.
        "checker-churn" => ScenarioSpec::builder("checker — safety after a churn campaign")
            .topology(TopologySpec::Chain { n: 3 })
            .protocol(ProtocolSpec::Ss)
            .kl(1, 2)
            .workload(WorkloadSpec::Saturated { units: 1, hold: 0 })
            .daemon(DaemonSpec::RoundRobin)
            .fault_schedule(FaultScheduleSpec {
                seed: 77,
                epochs: vec![
                    FaultEventSpec::Transient { plan: FaultPlanSpec::MessageOnly },
                    FaultEventSpec::JoinLeaf,
                    FaultEventSpec::MessageBurst { drop: 0.5, duplicate: 0.0, garbage: 1 },
                ],
                max_steps: 100_000,
                window: None,
            })
            .stop(StopSpec::Steps { steps: 5_000 })
            .properties(&["at-most-k-in-cs", "l-availability"])
            .check(CheckSpec {
                max_configurations: 40_000,
                max_depth: 0,
                properties: vec!["safety".into()],
                ..CheckSpec::default()
            })
            .spec(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use treenet::CsState;

    #[test]
    fn every_preset_compiles() {
        for name in PRESET_NAMES {
            let spec = preset(name).expect(name);
            assert!(spec.clone().compile().is_ok(), "{name} must validate");
            // And round-trips through its own JSON.
            let json = spec.to_json();
            assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec, "{name} round-trip");
        }
    }

    #[test]
    fn unknown_preset_is_none() {
        assert!(preset("no-such-scenario").is_none());
    }

    #[test]
    fn figure_presets_encode_the_paper_configurations() {
        let spec = preset("figure2").unwrap();
        assert_eq!(spec.protocol, ProtocolSpec::Naive);
        let init = spec.init.clone().expect("figure2 starts from the deadlock");
        assert!(init.bootstrapped_root);
        assert_eq!(init.nodes.len(), 4);
        // The figure's requests over-subscribe the pool.
        let total: usize = FIGURE2_NEEDS.iter().sum();
        assert!(total > spec.config.l);

        // The built network is the figure's right-hand configuration: all five tokens are
        // reserved by the four requesters (a holds 2 of 3, b, c and d hold 1 of 2), none is
        // in flight, and nobody else requests.
        let net = spec.compile().unwrap().build_ladder().unwrap();
        assert_eq!(klex_core::count_tokens(&net).resource, 5);
        assert_eq!(net.in_flight(), 0);
        for v in 0..8 {
            let app = &net.node(v).app;
            let (state, need, rset) = match v {
                1 => (CsState::Req, 3, vec![0, 0]),
                2..=4 => (CsState::Req, 2, vec![0]),
                _ => (CsState::Out, 0, vec![]),
            };
            assert_eq!((app.state, app.need, &app.rset), (state, need, &rset), "node {v}");
        }
        // The pusher variant adds the pusher token in flight.
        let pusher = preset("figure2-pusher").unwrap().compile().unwrap().build_ladder().unwrap();
        assert_eq!(klex_core::count_tokens(&pusher).pusher, 1);

        // Figure 3: 2-out-of-3 exclusion with needs r=1, a=2, b=1.
        assert_eq!(FIGURE3_NEEDS, [1, 2, 1]);
        let spec = preset("figure3-pusher").unwrap();
        assert_eq!((spec.config.k, spec.config.l), (2, 3));
        assert_eq!(spec.workload, WorkloadSpec::Needs { needs: FIGURE3_NEEDS.to_vec(), hold: 6 });
    }
}
