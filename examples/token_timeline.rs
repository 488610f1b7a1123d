//! Visualizing an execution: per-process activity lanes, the virtual ring, and the token
//! census before/after a transient fault.
//!
//! ```text
//! cargo run --release --example token_timeline
//! ```
//!
//! **Paper scenario:** the Figure-1 tree and its DFS virtual ring (Figure 4), plus the
//! token census (ℓ,1,1) that defines legitimacy, before and after a transient fault.
//!
//! Three renderings are printed:
//!
//! * the virtual ring of the Figure-1 tree (the path every token follows);
//! * an activity "Gantt" of the steady state — `·` idle, `r` waiting, `#` in the critical
//!   section — rendered straight from the trace of a declarative scenario run;
//! * census sparklines around a transient fault that duplicates resource tokens and forges a
//!   priority token: the counts deviate from (ℓ, 1, 1) and return once the controller has
//!   repaired the population.

use kl_exclusion::prelude::*;

use analysis::{render_activity_gantt, render_virtual_ring};
use protocol::Message;

fn main() {
    let tree = topology::builders::figure1_tree();
    let n = tree.len();

    println!("virtual ring of the Figure-1 tree (node ids):");
    println!("  {}\n", render_virtual_ring(&tree));

    // Heterogeneous workload: some big requesters, some small, two passive processes —
    // declaratively, as a per-node needs table.  Stabilize (warmup), then record a 60k
    // steady-state window.
    let scenario = Scenario::builder("token timeline")
        .topology(TopologySpec::Figure1)
        .protocol(ProtocolSpec::Ss)
        .kl(2, 4)
        .workload(WorkloadSpec::Needs { needs: vec![1, 2, 1, 0, 2, 1, 0, 1], hold: 25 })
        .daemon(DaemonSpec::RandomFair { seed: 31 })
        .warmup_spec(WarmupSpec { max_steps: 2_000_000, window: Some(2_000), daemon: None })
        .stop(StopSpec::Steps { steps: 60_000 })
        .build()
        .expect("the timeline scenario validates");

    let outcome = scenario.run();
    assert!(outcome.warmup_activations.is_some(), "bootstrap must converge");
    println!("steady state ({} activations, one lane per process):", 60_000);
    print!(
        "{}",
        render_activity_gantt(&outcome.trace, n, outcome.started_at, outcome.ended_at, 72)
    );
    println!("  legend: · idle   r waiting   # in critical section\n");

    // Act 2: replay the same spec by hand and inject a fault mid-run — the census recorder
    // needs to observe the live network while it recovers.
    let cfg = scenario.spec().config.to_kl(n);
    let mut net = scenario.build_ss().expect("ss scenario");
    let mut sched = scenario.make_daemon();
    let boot = measure_convergence(&mut net, &mut sched, &cfg, 2_000_000, 2_000);
    assert!(boot.converged());

    let mut recorder = CensusRecorder::new();
    net.inject_into(1, 0, Message::ResT);
    net.inject_into(4, 0, Message::ResT);
    net.inject_into(2, 0, Message::PrioT);
    recorder.observe(&net);
    println!("fault injected: +2 resource tokens, +1 priority token");

    for _ in 0..400_000u64 {
        net.step_event(&mut sched);
        if net.now().is_multiple_of(200) {
            recorder.observe(&net);
        }
    }
    println!("census over time after the fault (resampled to 72 columns):");
    print!("{}", recorder.render_sparklines(72));
    let recovered_at = recorder.first_time_matching(cfg.l);
    let last_bad = recorder.last_time_deviating(cfg.l);
    println!(
        "  census first back to (l,1,1) at activation {:?}; last deviation observed at {:?}",
        recovered_at, last_bad
    );
    assert!(
        is_legitimate(&net, &cfg),
        "the controller must have erased the surplus tokens by the end of the run"
    );
    println!("\nfinal census: {:?}", count_tokens(&net));
}
