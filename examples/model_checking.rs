//! Exhaustive verification of the paper's claims on small instances.
//!
//! ```text
//! cargo run --release --example model_checking
//! ```
//!
//! **Paper scenario:** the Figure-2 deadlock and Figure-3 livelock anomalies, plus the
//! safety and closure halves of Definition 1, verified exhaustively on small instances.
//!
//! The simulation experiments sample executions; this example instead *enumerates* every
//! reachable configuration of small instances under every possible scheduling.  Every check
//! is a declarative [`ScenarioSpec`] lowered into the checker by the unified scenario API:
//!
//! 1. the naive ℓ-token circulation reaches a Figure-2-style deadlock;
//! 2. the pusher-only protocol has a **fair starvation cycle** on the exact Figure-3
//!    instance (the paper's livelock), reported as a lasso (stem + cycle) witness by the
//!    SCC-based fair-cycle pass, and the priority token removes it — the `"liveness"`
//!    check property drives the whole pipeline declaratively;
//! 3. the self-stabilizing protocol satisfies *closure*: from a legitimate configuration
//!    (`check.from_legitimate` stabilizes the instance before exploring), every reachable
//!    configuration is again legitimate and safe.

use kl_exclusion::prelude::*;

fn main() {
    // ---------------------------------------------------------------- 1. Figure-2 deadlock
    // Minimal instance of the Figure-2 phenomenon: two requesters that each need both of the
    // ℓ = 2 tokens.  The regime is a declarative scenario; `check()` lowers it into the
    // explorer (stateless drivers, every interleaving from the clean initial state).
    let report = Scenario::builder("naive deadlock, minimal instance")
        .topology(TopologySpec::Chain { n: 3 })
        .protocol(ProtocolSpec::Naive)
        .kl(2, 2)
        .workload(WorkloadSpec::Needs { needs: vec![0, 2, 2], hold: 0 })
        .check(CheckSpec {
            max_configurations: 500_000,
            max_depth: 0,
            properties: vec![],
            ..CheckSpec::default()
        })
        .build()
        .expect("the checking scenario validates")
        .check()
        .expect("the naive rung lowers into the checker");
    println!("naive protocol, 3-node chain, l=2, needs 2+2:");
    println!(
        "  {} configurations explored exhaustively ({} transitions)",
        report.configurations, report.transitions
    );
    println!(
        "  deadlocks found: {} (first one blocks processes {:?} after {} activations)",
        report.deadlocks.len(),
        report.deadlocks.first().map(|d| d.blocked.clone()).unwrap_or_default(),
        report.deadlocks.first().map(|d| d.depth).unwrap_or(0),
    );
    assert!(!report.deadlock_free(), "the naive protocol must deadlock somewhere");

    // ---------------------------------------------------------------- 2. Figure-3 livelock
    // The exact Figure-3 instance: 2-out-of-3 exclusion on the 3-node tree, needs r=1, a=2,
    // b=1, with critical sections that span an activation (the livelock needs the small
    // requesters to hold their tokens while the pusher passes).  The `"liveness"` check
    // property turns on graph recording plus the SCC fair-cycle pass; its lasso witnesses
    // arrive in `report.liveness`.
    let fig3_liveness = |name: &str, protocol: ProtocolSpec, budget: usize| {
        Scenario::builder(name)
            .topology(TopologySpec::Figure3)
            .protocol(protocol)
            .kl(2, 3)
            .workload(WorkloadSpec::Needs { needs: vec![1, 2, 1], hold: 1 })
            .check(CheckSpec {
                max_configurations: budget,
                max_depth: 0,
                properties: vec!["safety".into(), "liveness".into()],
                ..CheckSpec::default()
            })
            .build()
            .expect("the liveness scenario validates")
            .check()
            .expect("the tree rungs lower into the checker")
    };

    let pusher_report = fig3_liveness("figure3 pusher livelock", ProtocolSpec::Pusher, 800_000);
    println!("\npusher-only protocol on the Figure-3 instance:");
    println!("  {} configurations explored exhaustively", pusher_report.configurations);
    match pusher_report.liveness.first() {
        Some(witness) => println!(
            "  fair starvation lasso found: stem {} + cycle {} activations, processes {:?} \
             keep entering their critical sections while process {} never does",
            witness.stem_len(),
            witness.cycle_len(),
            witness.progress_nodes,
            witness.victim,
        ),
        None => println!("  no fair starvation lasso (unexpected!)"),
    }
    assert!(!pusher_report.live(), "the pusher-only rung livelocks on Figure 3");
    assert!(pusher_report.ok(), "the livelock does not break safety");

    let prio_report =
        fig3_liveness("figure3 with the priority token", ProtocolSpec::NonStab, 1_500_000);
    println!("\nwith the priority token (same instance):");
    println!("  {} configurations explored exhaustively", prio_report.configurations);
    println!(
        "  fair starvation lasso: {}",
        if prio_report.live() {
            "none — the priority token removes the livelock"
        } else {
            "still present (unexpected!)"
        }
    );
    assert!(prio_report.live());

    // ---------------------------------------------------------------- 3. Closure
    // Closure (Definition 1): from a legitimate configuration, every reachable
    // configuration is legitimate again.  `check.from_legitimate` stabilizes the lowered
    // instance under a deterministic fair schedule before the exploration starts.
    let closure = Scenario::builder("closure of the self-stabilizing protocol")
        .topology(TopologySpec::Figure3)
        .protocol(ProtocolSpec::Ss)
        .config(ConfigSpec::new(2, 2).with_cmax(0))
        .workload(WorkloadSpec::Saturated { units: 1, hold: 0 })
        .check(CheckSpec {
            max_configurations: 300_000,
            max_depth: 0,
            properties: vec!["legitimate".into(), "safety".into()],
            from_legitimate: true,
        })
        .build()
        .expect("the closure scenario validates")
        .check()
        .expect("the ss rung lowers into the checker");
    println!("\nself-stabilizing protocol, closure from a legitimate configuration:");
    println!(
        "  {} configurations explored{}, {} property violations, {} deadlocks",
        closure.configurations,
        if closure.exhaustive() { " exhaustively" } else { " (bounded)" },
        closure.violations.len(),
        closure.deadlocks.len()
    );
    assert!(closure.ok() && closure.deadlock_free());
    println!("\nall exhaustive checks passed");
}
