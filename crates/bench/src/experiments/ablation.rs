//! Experiment E10 — ablation of the protocol's mechanisms.

use crate::support::{compiled_preset, scheduler, Scale};
use crate::ExperimentReport;
use analysis::convergence::{default_window, measure_convergence};
use analysis::scenario::preset;
use analysis::{detect_deadlock, ExperimentRow, FairnessReport};
use klex_core::{nonstab, ss, KlConfig};
use treenet::{FaultInjector, FaultPlan, RoundRobin};
use workloads::all_uniform;

/// E10 — removing one mechanism at a time, and restoring the paper-literal guards.
///
/// | variant | missing / altered | expected failure |
/// |---|---|---|
/// | naive | pusher + priority + controller | deadlock (Figure 2) |
/// | + pusher | priority + controller | starvation of large requesters (Figure 3) |
/// | + priority (non-stabilizing) | controller | no recovery from token loss/duplication |
/// | self-stabilizing, literal pusher guard | `Prio ≠ ⊥` as printed | priority holder evicted: starvation returns |
/// | self-stabilizing, literal completion order | line 69 after the completion block | recurring spurious resets when the root requests |
/// | self-stabilizing (as corrected) | — | none |
pub fn e10_ablation(scale: Scale) -> ExperimentReport {
    let mut rows = Vec::new();
    let steps = scale.measure_steps.max(80_000);

    // --- Deadlock column: the Figure-2 configuration. -------------------------------------
    let deadlock_of = |preset: &str| {
        let mut net = compiled_preset(preset).build_ladder().expect("token rung");
        let mut sched = RoundRobin::new();
        detect_deadlock(&mut net, &mut sched, steps).is_deadlock()
    };
    let deadlock_of_naive = deadlock_of("figure2");
    let deadlock_of_pusher = deadlock_of("figure2-pusher");

    // --- Starvation column: the Figure-3 scenario. ----------------------------------------
    let starvation_of = |variant: &str| -> (f64, f64) {
        let mut starved_runs = 0.0;
        let mut entries_a = 0.0;
        for seed in 0..scale.trials {
            let mut sched = scheduler(3_000 + seed);
            let trace_entries = match variant {
                "figure3-pusher" | "figure3-nonstab" => {
                    let mut net = compiled_preset(variant).build_ladder().expect("token rung");
                    treenet::run_for(&mut net, &mut sched, steps);
                    FairnessReport::from_trace(net.trace(), 3).entries_per_node[1]
                }
                "ss" => {
                    let mut net = compiled_preset("figure3-ss").build_ss().expect("ss rung");
                    treenet::run_for(&mut net, &mut sched, steps);
                    FairnessReport::from_trace(net.trace(), 3).entries_per_node[1]
                }
                "ss-literal-pusher" => {
                    let mut spec = preset("figure3-ss").expect("bundled preset");
                    spec.config.literal_pusher_guard = true;
                    let mut net = spec.compile().expect("validates").build_ss().expect("ss rung");
                    treenet::run_for(&mut net, &mut sched, steps);
                    FairnessReport::from_trace(net.trace(), 3).entries_per_node[1]
                }
                _ => unreachable!(),
            };
            entries_a += trace_entries as f64;
            if trace_entries == 0 {
                starved_runs += 1.0;
            }
        }
        (starved_runs / scale.trials as f64, entries_a / scale.trials as f64)
    };

    // --- Recovery column: catastrophic fault, does the census return to (l,1,1)? ----------
    let recovery_of_nonstab = {
        let mut recovered = 0.0;
        for seed in 0..scale.trials {
            let cfg = KlConfig::new(2, 3, 6);
            let tree = topology::builders::binary(6);
            let mut net = nonstab::network(tree, cfg, all_uniform(seed, 0.02, 2, 10));
            let mut sched = scheduler(4_000 + seed);
            treenet::run_for(&mut net, &mut sched, 20_000);
            let mut injector = FaultInjector::new(seed);
            injector.inject(&mut net, &FaultPlan::catastrophic(cfg.cmax));
            // No controller: the census never recovers on its own.
            treenet::run_for(&mut net, &mut sched, steps);
            if klex_core::is_legitimate(&net, &cfg) {
                recovered += 1.0;
            }
        }
        recovered / scale.trials as f64
    };
    let recovery_of_ss = |literal_completion: bool| {
        let mut recovered = 0.0;
        for seed in 0..scale.trials {
            let cfg = KlConfig::new(2, 3, 6).with_literal_completion_order(literal_completion);
            let tree = topology::builders::binary(6);
            let mut net = ss::network(tree, cfg, all_uniform(seed, 0.02, 2, 10));
            let mut sched = scheduler(4_000 + seed);
            treenet::run_for(&mut net, &mut sched, 50_000);
            let mut injector = FaultInjector::new(seed);
            injector.inject(&mut net, &FaultPlan::catastrophic(cfg.cmax));
            let out =
                measure_convergence(&mut net, &mut sched, &cfg, scale.max_steps, default_window(6));
            if out.converged() {
                recovered += 1.0;
            }
        }
        recovered / scale.trials as f64
    };

    // --- Reset-rate column: how often does the root reset under a root-requester load? ----
    let resets_of_ss = |literal_completion: bool| {
        let mut resets = 0.0;
        for seed in 0..scale.trials {
            let cfg = KlConfig::new(2, 3, 6).with_literal_completion_order(literal_completion);
            let tree = topology::builders::binary(6);
            // Every node — including the root — keeps requesting.
            let mut net = ss::network(tree, cfg, workloads::all_saturated(2, 4));
            let mut sched = scheduler(5_000 + seed);
            treenet::run_for(&mut net, &mut sched, steps);
            resets += net
                .trace()
                .events()
                .iter()
                .filter(|e| matches!(e.event, treenet::Event::Note(treenet::Note::ResetStart)))
                .count() as f64;
        }
        resets / scale.trials as f64
    };

    let (pusher_starved, pusher_entries) = starvation_of("figure3-pusher");
    let (nonstab_starved, nonstab_entries) = starvation_of("figure3-nonstab");
    let (ss_starved, ss_entries) = starvation_of("ss");
    let (literal_starved, literal_entries) = starvation_of("ss-literal-pusher");

    rows.push(
        ExperimentRow::new("naive (no pusher, no priority, no controller)")
            .with("fig2_deadlocks", f64::from(u8::from(deadlock_of_naive)))
            .with("fault_recovery_fraction", 0.0),
    );
    rows.push(
        ExperimentRow::new("+ pusher (no priority, no controller)")
            .with("fig2_deadlocks", f64::from(u8::from(deadlock_of_pusher)))
            .with("fig3_starved_fraction", pusher_starved)
            .with("fig3_entries_of_a", pusher_entries)
            .with("fault_recovery_fraction", 0.0),
    );
    rows.push(
        ExperimentRow::new("+ priority (no controller)")
            .with("fig2_deadlocks", 0.0)
            .with("fig3_starved_fraction", nonstab_starved)
            .with("fig3_entries_of_a", nonstab_entries)
            .with("fault_recovery_fraction", recovery_of_nonstab),
    );
    rows.push(
        ExperimentRow::new("self-stabilizing, paper-literal pusher guard (Prio ≠ ⊥)")
            .with("fig3_starved_fraction", literal_starved)
            .with("fig3_entries_of_a", literal_entries)
            .with("fault_recovery_fraction", recovery_of_ss(false)),
    );
    rows.push(
        ExperimentRow::new("self-stabilizing, paper-literal completion order")
            .with("fault_recovery_fraction", recovery_of_ss(true))
            .with("resets_under_root_load", resets_of_ss(true)),
    );
    rows.push(
        ExperimentRow::new("self-stabilizing (corrected guards; this repo's default)")
            .with("fig2_deadlocks", 0.0)
            .with("fig3_starved_fraction", ss_starved)
            .with("fig3_entries_of_a", ss_entries)
            .with("fault_recovery_fraction", recovery_of_ss(false))
            .with("resets_under_root_load", resets_of_ss(false)),
    );

    ExperimentReport {
        title: "E10 — ablation: what each mechanism buys, and the paper-literal guards".to_string(),
        rows,
    }
}
