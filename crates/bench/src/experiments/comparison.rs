//! Experiments E8 and E9 — comparisons against the baseline protocols.

use crate::support::{measure_throughput, scheduler, stabilized_ss_network, Scale, TreeShape};
use crate::ExperimentReport;
use analysis::waiting::{max_waiting, waiting_times};
use analysis::{measure_convergence, ExperimentRow, FairnessReport};
use baselines::{centralized, permission, ring};
use klex_core::KlConfig;
use treenet::app::BoxedDriver;
use workloads::{all_saturated, all_uniform, Hotspot};

fn per_entry(messages: u64, entries: u64) -> f64 {
    if entries == 0 {
        f64::NAN
    } else {
        messages as f64 / entries as f64
    }
}

/// E8 — tree protocol versus the ring-based prior work (and the non-stabilizing arbiter
/// baselines), same process count and workload.
///
/// The quantities compared are the ones the paper's related-work discussion cares about:
/// waiting time, throughput, and messages per critical section.  The tree and ring protocols
/// are both self-stabilizing token circulations; the centralized and per-unit-arbiter
/// allocators are the non-fault-tolerant permission-based reference points.
pub fn e8_tree_vs_ring(scale: Scale) -> ExperimentReport {
    let mut rows = Vec::new();
    for &n in &scale.sizes {
        let l = (n / 3).clamp(2, 5);
        let k = 1usize;
        let cfg = KlConfig::new(k, l, n);
        let steps = scale.measure_steps;

        // Tree (this paper), on a random tree.
        {
            let mut entries_total = 0u64;
            let mut messages_total = 0u64;
            let mut worst_wait = 0u64;
            for seed in 0..scale.trials {
                let tree = TreeShape::Random.build(n, seed);
                let mut boot = scheduler(10 + seed);
                let Some(mut net) = stabilized_ss_network(
                    tree,
                    cfg,
                    all_saturated(1, 3),
                    &mut boot,
                    scale.max_steps,
                ) else {
                    continue;
                };
                let mut sched = scheduler(100 + seed);
                let (entries, messages) = measure_throughput(&mut net, &mut sched, steps);
                entries_total += entries;
                messages_total += messages;
                worst_wait = worst_wait.max(max_waiting(&waiting_times(net.trace())));
            }
            rows.push(
                ExperimentRow::new(format!("tree (this paper) n={n} l={l}"))
                    .with(
                        "cs_entries_per_1k_steps",
                        entries_total as f64 / (steps * scale.trials) as f64 * 1_000.0,
                    )
                    .with("messages_per_cs_entry", per_entry(messages_total, entries_total))
                    .with("worst_waiting", worst_wait as f64),
            );
        }

        // Ring baseline (prior self-stabilizing work).
        {
            let mut entries_total = 0u64;
            let mut messages_total = 0u64;
            let mut worst_wait = 0u64;
            for seed in 0..scale.trials {
                let mut net = ring::network(n, cfg, all_saturated(1, 3));
                let mut boot = scheduler(10 + seed);
                // Stabilize the ring, then measure.  Its streak spans one activation fewer
                // than the tree arm's `default_window(n)`: the streak this arm confirmed when
                // its window still counted observations, kept so the ring row does not move.
                let window = analysis::convergence::default_window(n) - 1;
                if !measure_convergence(&mut net, &mut boot, &cfg, scale.max_steps, window)
                    .converged()
                {
                    continue;
                }
                net.trace_mut().clear();
                net.metrics_mut().reset();
                let mut sched = scheduler(100 + seed);
                let (entries, messages) = measure_throughput(&mut net, &mut sched, steps);
                entries_total += entries;
                messages_total += messages;
                worst_wait = worst_wait.max(max_waiting(&waiting_times(net.trace())));
            }
            rows.push(
                ExperimentRow::new(format!("ring (Datta–Hadid–Villain style) n={n} l={l}"))
                    .with(
                        "cs_entries_per_1k_steps",
                        entries_total as f64 / (steps * scale.trials) as f64 * 1_000.0,
                    )
                    .with("messages_per_cs_entry", per_entry(messages_total, entries_total))
                    .with("worst_waiting", worst_wait as f64),
            );
        }

        // Centralized coordinator (non-fault-tolerant reference).
        {
            let mut entries_total = 0u64;
            let mut messages_total = 0u64;
            let mut worst_wait = 0u64;
            for seed in 0..scale.trials {
                let mut net = centralized::network(n, cfg, |id| {
                    if id == 0 {
                        Box::new(workloads::Heterogeneous { units: 0, hold: 1 }) as BoxedDriver
                    } else {
                        Box::new(workloads::Saturated { units: 1, hold: 3 }) as BoxedDriver
                    }
                });
                let mut sched = scheduler(100 + seed);
                let (entries, messages) = measure_throughput(&mut net, &mut sched, steps);
                entries_total += entries;
                messages_total += messages;
                worst_wait = worst_wait.max(max_waiting(&waiting_times(net.trace())));
            }
            rows.push(
                ExperimentRow::new(format!("centralized coordinator n={n} l={l}"))
                    .with(
                        "cs_entries_per_1k_steps",
                        entries_total as f64 / (steps * scale.trials) as f64 * 1_000.0,
                    )
                    .with("messages_per_cs_entry", per_entry(messages_total, entries_total))
                    .with("worst_waiting", worst_wait as f64),
            );
        }

        // Per-unit arbiters (permission-based family).
        {
            let mut entries_total = 0u64;
            let mut messages_total = 0u64;
            let mut worst_wait = 0u64;
            for seed in 0..scale.trials {
                let mut net = permission::network(n, cfg, all_saturated(1, 3));
                let mut sched = scheduler(100 + seed);
                let (entries, messages) = measure_throughput(&mut net, &mut sched, steps);
                entries_total += entries;
                messages_total += messages;
                worst_wait = worst_wait.max(max_waiting(&waiting_times(net.trace())));
            }
            rows.push(
                ExperimentRow::new(format!("per-unit arbiters n={n} l={l}"))
                    .with(
                        "cs_entries_per_1k_steps",
                        entries_total as f64 / (steps * scale.trials) as f64 * 1_000.0,
                    )
                    .with("messages_per_cs_entry", per_entry(messages_total, entries_total))
                    .with("worst_waiting", worst_wait as f64),
            );
        }
    }
    ExperimentReport {
        title: "E8 — tree vs ring vs permission-based baselines (saturated, 1-unit requests)"
            .to_string(),
        rows,
    }
}

/// E9 — throughput and message overhead of the self-stabilizing tree protocol across
/// workloads and tree shapes.
pub fn e9_throughput(scale: Scale) -> ExperimentReport {
    let mut rows = Vec::new();
    let workload_kinds = ["saturated k-unit", "uniform random", "hotspot"];
    for &n in &scale.sizes {
        let l = (n / 2).clamp(2, 6);
        let k = (l / 2).max(1);
        let cfg = KlConfig::new(k, l, n);
        for shape in [TreeShape::Chain, TreeShape::Binary, TreeShape::Random] {
            for workload in workload_kinds {
                let mut entries_total = 0u64;
                let mut messages_total = 0u64;
                let mut jain = 0.0;
                let mut runs = 0u64;
                for seed in 0..scale.trials {
                    let tree = shape.build(n, seed);
                    let driver_factory: Box<dyn FnMut(usize) -> BoxedDriver> = match workload {
                        "saturated k-unit" => Box::new(all_saturated(k, 4)),
                        "uniform random" => Box::new(all_uniform(seed, 0.05, k, 10)),
                        _ => Box::new(move |id: usize| {
                            Box::new(Hotspot::new(seed * 31 + id as u64, id % 4 == 1, k, 5))
                                as BoxedDriver
                        }),
                    };
                    let mut boot = scheduler(20 + seed);
                    let Some(mut net) = stabilized_ss_network(
                        tree,
                        cfg,
                        driver_factory,
                        &mut boot,
                        scale.max_steps,
                    ) else {
                        continue;
                    };
                    let mut sched = scheduler(200 + seed);
                    let (entries, messages) =
                        measure_throughput(&mut net, &mut sched, scale.measure_steps);
                    entries_total += entries;
                    messages_total += messages;
                    jain += FairnessReport::from_trace(net.trace(), n).jain_index;
                    runs += 1;
                }
                if runs == 0 {
                    continue;
                }
                rows.push(
                    ExperimentRow::new(format!("{} n={n} l={l} k={k} [{workload}]", shape.label()))
                        .with(
                            "cs_entries_per_1k_steps",
                            entries_total as f64 / (scale.measure_steps * runs) as f64 * 1_000.0,
                        )
                        .with("messages_per_cs_entry", per_entry(messages_total, entries_total))
                        .with("jain_fairness", jain / runs as f64),
                );
            }
        }
    }
    ExperimentReport {
        title: "E9 — throughput, message overhead and fairness of the tree protocol".to_string(),
        rows,
    }
}
