//! Fault recovery — the self-stabilization property in action (Theorem 1).
//!
//! ```text
//! cargo run --release --example fault_recovery
//! ```
//!
//! **Paper scenario:** Theorem 1 — convergence to a legitimate configuration from an
//! arbitrary (catastrophically corrupted) configuration.
//!
//! The whole regime is one declarative [`ScenarioSpec`]: stabilize (warmup), inject a
//! catastrophic transient fault — every process's local state overwritten with arbitrary
//! values, every channel refilled with up to CMAX arbitrary messages — and run until
//! legitimacy is sustained again.  The first act runs the scenario end-to-end; the second
//! act replays the same spec by hand (the compiled scenario hands out its network, daemon
//! and fault plan) to print the token census before the fault, right after it, and after
//! recovery — no human intervention, no restart.

use kl_exclusion::prelude::*;

fn print_census(when: &str, census: &TokenCensus) {
    println!(
        "{when:<18} resource={} pusher={} priority={} ctrl={} garbage={}",
        census.resource, census.pusher, census.priority, census.ctrl, census.garbage
    );
}

fn main() {
    let scenario = Scenario::builder("fault recovery")
        .topology(TopologySpec::Random { n: 20, seed: 5 })
        .protocol(ProtocolSpec::Ss)
        .kl(2, 4)
        .workload(WorkloadSpec::Uniform { seed: 11, p_request: 0.02, max_units: 2, max_hold: 15 })
        .daemon(DaemonSpec::RandomFair { seed: 77 })
        .warmup_spec(WarmupSpec { max_steps: 4_000_000, window: Some(2_000), daemon: None })
        .fault(13, FaultPlanSpec::Catastrophic)
        .stop(StopSpec::Predicate {
            name: "legitimate".into(),
            max_steps: 8_000_000,
            sustained_for: 2_000,
        })
        .metrics(&["converged", "convergence_activations", "warmup_activations"])
        .build()
        .expect("the fault-recovery scenario validates");

    // Act 1: the scenario end-to-end — stabilize, corrupt, recover, one call.
    let outcome = scenario.run();
    assert_eq!(outcome.metric("converged"), Some(1.0), "the protocol must recover");
    println!(
        "scenario run: bootstrapped in {} activations, recovered from the catastrophic fault \
         in {} activations",
        outcome.metric("warmup_activations").unwrap(),
        outcome.metric("convergence_activations").unwrap()
    );

    // Act 2: the same spec, replayed by hand to watch the token census across the fault.
    let cfg = scenario.spec().config.to_kl(20);
    let mut net = scenario.build_ss().expect("ss scenario");
    let mut sched = scenario.make_daemon();

    // Phase 1: bootstrap.
    let boot = measure_convergence(&mut net, &mut sched, &cfg, 4_000_000, 2_000);
    assert!(boot.converged());
    print_census("after bootstrap:", &count_tokens(&net));

    // Phase 2: catastrophe — the spec's fault plan, injected by hand.
    let fault = scenario.spec().fault.as_ref().expect("the spec injects a fault");
    let mut injector = FaultInjector::new(fault.seed);
    let report = injector.inject(&mut net, &fault.plan.to_plan(&cfg));
    println!(
        "fault injected: {} nodes corrupted, {} garbage messages, {} messages dropped",
        report.nodes_corrupted, report.garbage_inserted, report.messages_dropped
    );
    print_census("after fault:", &count_tokens(&net));
    let fault_time = net.now();

    // Phase 3: recovery, unattended.
    let recovery = measure_convergence(&mut net, &mut sched, &cfg, 8_000_000, 2_000);
    match recovery {
        analysis::ConvergenceOutcome::Converged { stabilized_at, .. } => {
            println!(
                "recovered without intervention in {} activations",
                stabilized_at - fault_time
            );
        }
        analysis::ConvergenceOutcome::DidNotConverge => {
            panic!("the protocol must recover from any transient fault");
        }
    }
    print_census("after recovery:", &count_tokens(&net));

    // Phase 4: service continues as if nothing happened.
    net.trace_mut().clear();
    run_for(&mut net, &mut sched, 150_000);
    let fairness = FairnessReport::from_trace(net.trace(), net.len());
    println!(
        "critical sections in the 150k activations after recovery: {}",
        fairness.total_entries()
    );
    assert!(count_tokens(&net).matches(cfg.l));
}
