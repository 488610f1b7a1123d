//! Experiment E11 — the extension to arbitrary rooted networks: distributed spanning-tree
//! construction composed with the k-out-of-ℓ exclusion protocol.
//!
//! The paper's conclusion claims the extension is "trivial" — run the protocol on a spanning
//! tree built by a self-stabilizing construction.  This experiment quantifies what the
//! composition costs: for meshes of increasing size and density it reports the spanning-tree
//! stabilization time and message count, the exclusion protocol's stabilization time on the
//! constructed tree, the height of that tree, and the steady-state service the composed stack
//! then delivers.

use crate::support::{scheduler, Scale};
use crate::ExperimentReport;
use analysis::{ExperimentRow, Summary};
use klex_core::KlConfig;
use stree::composed::compose_with_defaults;
use topology::RootedGraph;
use workloads::all_saturated;

/// E11 — composition cost and service on general rooted networks.
pub fn e11_general_networks(scale: Scale) -> ExperimentReport {
    let mut rows = Vec::new();
    for &n in &scale.sizes {
        // Densities: a bare tree (0 extra edges), a sparse mesh (n/2 chords), a dense mesh
        // (2n chords).
        for (density_label, extra) in
            [("tree", 0usize), ("sparse-mesh", n / 2), ("dense-mesh", 2 * n)]
        {
            let l = (n / 2).clamp(2, 6);
            let k = (l / 2).max(1);
            let mut st_acts = Vec::new();
            let mut st_msgs = Vec::new();
            let mut kl_acts = Vec::new();
            let mut heights = Vec::new();
            let mut entries_per_1k = Vec::new();
            let mut stabilized = 0u64;
            for seed in 0..scale.trials {
                let graph = RootedGraph::random_connected(n, extra, 1_000 + seed);
                let kl_cfg = KlConfig::new(k, l, n);
                let mut sched = scheduler(40_000 + seed);
                let composition =
                    match compose_with_defaults(graph, kl_cfg, all_saturated(k, 10), &mut sched) {
                        Ok(c) => c,
                        Err(_) => continue,
                    };
                stabilized += 1;
                st_acts.push(composition.st_activations);
                st_msgs.push(composition.st_messages);
                kl_acts.push(composition.kl_activations);
                heights.push(composition.extracted.tree.height() as u64);
                let mut net = composition.network;
                net.trace_mut().clear();
                for _ in 0..scale.measure_steps {
                    net.step_event(&mut sched);
                }
                entries_per_1k.push(
                    net.trace().cs_entries(None) as f64 * 1_000.0 / scale.measure_steps as f64,
                );
            }
            let edges = (n - 1 + extra) as f64;
            rows.push(
                ExperimentRow::new(format!("{density_label}, n={n}"))
                    .with("n", n as f64)
                    .with("edges", edges)
                    .with("stabilized_fraction", stabilized as f64 / scale.trials as f64)
                    .with_summary("st_convergence_activations", &Summary::of_u64(&st_acts))
                    .with("st_messages_mean", Summary::of_u64(&st_msgs).mean)
                    .with_summary("kl_convergence_activations", &Summary::of_u64(&kl_acts))
                    .with("tree_height_mean", Summary::of_u64(&heights).mean)
                    .with("cs_entries_per_1k_activations", Summary::of(&entries_per_1k).mean),
            );
        }
    }
    ExperimentReport {
        title: "E11 — general rooted networks: spanning-tree composition cost and service"
            .to_string(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_runs_at_quick_scale_and_everything_stabilizes() {
        let report = e11_general_networks(Scale::quick());
        assert!(!report.rows.is_empty());
        assert_eq!(report.rows.len(), 2 * 3, "two sizes x three densities at quick scale");
        for row in &report.rows {
            assert_eq!(
                row.metrics["stabilized_fraction"], 1.0,
                "composition failed to stabilize for {}",
                row.label
            );
            assert!(row.metrics["cs_entries_per_1k_activations"] > 0.0);
            assert!(row.metrics["st_convergence_activations_mean"] > 0.0);
        }
        // Denser meshes must not yield taller trees than the bare tree at the same size.
        let tree_row = &report.rows[0];
        let dense_row = &report.rows[2];
        assert!(dense_row.metrics["tree_height_mean"] <= tree_row.metrics["tree_height_mean"]);
    }
}
