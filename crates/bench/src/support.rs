//! Shared support code for the experiments: scales, stabilization helpers, measurement
//! kernels.

use analysis::convergence::{default_window, measure_convergence};
use analysis::scenario::{preset, CompiledScenario};
use klex_core::{ss, KlConfig};
use topology::{OrientedTree, Topology};
use treenet::app::BoxedDriver;
use treenet::{EventScheduler, Network, NodeId, Process, RandomFair};

/// How big/long each experiment runs.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Number of random seeds (trials) per parameter point.
    pub trials: u64,
    /// Step budget multiplier for long runs.
    pub max_steps: u64,
    /// Measurement phase length (activations) once stabilized.
    pub measure_steps: u64,
    /// Network sizes swept by the size-parameterised experiments.
    pub sizes: Vec<usize>,
}

impl Scale {
    /// Quick smoke-test scale (used by `cargo test` of this crate).
    pub fn quick() -> Self {
        Scale { trials: 2, max_steps: 1_500_000, measure_steps: 40_000, sizes: vec![5, 9] }
    }

    /// The full scale: what `klex experiment` runs unless `KLEX_SCALE=quick`.
    pub fn full() -> Self {
        Scale { trials: 5, max_steps: 6_000_000, measure_steps: 150_000, sizes: vec![5, 9, 15, 25] }
    }
}

/// The tree shapes swept by the size-parameterised experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeShape {
    /// A path rooted at one end (worst-case depth).
    Chain,
    /// A root with `n - 1` leaves (best-case depth).
    Star,
    /// A balanced binary tree.
    Binary,
    /// A uniformly random recursive tree.
    Random,
}

impl TreeShape {
    /// All swept shapes.
    pub fn all() -> [TreeShape; 4] {
        [TreeShape::Chain, TreeShape::Star, TreeShape::Binary, TreeShape::Random]
    }

    /// Builds a tree of this shape with `n` nodes (random shapes use `seed`).
    pub fn build(self, n: usize, seed: u64) -> OrientedTree {
        match self {
            TreeShape::Chain => topology::builders::chain(n),
            TreeShape::Star => topology::builders::star(n),
            TreeShape::Binary => topology::builders::binary(n),
            TreeShape::Random => topology::builders::random_tree(n, seed),
        }
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            TreeShape::Chain => "chain",
            TreeShape::Star => "star",
            TreeShape::Binary => "binary",
            TreeShape::Random => "random",
        }
    }

    /// The declarative topology spec of this shape (`seed` only matters for
    /// [`TreeShape::Random`]; harness runs additionally offset it by the trial index).
    pub fn to_spec(self, n: usize, seed: u64) -> analysis::scenario::TopologySpec {
        use analysis::scenario::TopologySpec;
        match self {
            TreeShape::Chain => TopologySpec::Chain { n },
            TreeShape::Star => TopologySpec::Star { n },
            TreeShape::Binary => TopologySpec::Binary { n },
            TreeShape::Random => TopologySpec::Random { n, seed },
        }
    }
}

/// A bundled preset, compiled (the figures' exact configurations are presets).
pub fn compiled_preset(name: &str) -> CompiledScenario {
    preset(name).expect("bundled preset").compile().expect("bundled presets validate")
}

/// Builds a self-stabilizing network and runs it until it has been legitimate for a full
/// confirmation window, then clears the trace and metrics so that subsequent measurements see
/// only post-stabilization behaviour.  Returns `None` if it failed to stabilize within
/// `max_steps` (which would itself be a reportable failure).
pub fn stabilized_ss_network(
    tree: OrientedTree,
    cfg: KlConfig,
    driver_for: impl FnMut(NodeId) -> BoxedDriver,
    scheduler: &mut impl EventScheduler,
    max_steps: u64,
) -> Option<Network<ss::SsNode, OrientedTree>> {
    let n = tree.len();
    let mut net = ss::network(tree, cfg, driver_for);
    let outcome = measure_convergence(&mut net, scheduler, &cfg, max_steps, default_window(n));
    if !outcome.converged() {
        return None;
    }
    net.trace_mut().clear();
    net.metrics_mut().reset();
    Some(net)
}

/// Runs `net` for `steps` activations and returns `(cs_entries, messages_sent)` during that
/// window.
pub fn measure_throughput<P, T>(
    net: &mut Network<P, T>,
    scheduler: &mut impl EventScheduler,
    steps: u64,
) -> (u64, u64)
where
    P: Process,
    T: Topology,
{
    let entries_before = net.trace().cs_entries(None) as u64;
    let messages_before = net.metrics().messages_sent;
    treenet::run_for(net, scheduler, steps);
    let entries = net.trace().cs_entries(None) as u64 - entries_before;
    let messages = net.metrics().messages_sent - messages_before;
    (entries, messages)
}

/// Convenience: a seeded random scheduler.
pub fn scheduler(seed: u64) -> RandomFair {
    RandomFair::new(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use klex_core::is_legitimate;
    use treenet::app::Idle;

    #[test]
    fn shapes_build_requested_sizes() {
        for shape in TreeShape::all() {
            let t = shape.build(9, 3);
            assert_eq!(t.len(), 9, "{:?}", shape);
            assert!(!shape.label().is_empty());
        }
    }

    #[test]
    fn stabilized_network_starts_with_clean_counters() {
        let cfg = KlConfig::new(1, 2, 5);
        let mut sched = scheduler(1);
        let net = stabilized_ss_network(
            topology::builders::chain(5),
            cfg,
            |_| Box::new(Idle) as BoxedDriver,
            &mut sched,
            1_500_000,
        )
        .expect("must stabilize");
        assert_eq!(net.trace().len(), 0);
        assert_eq!(net.metrics().messages_sent, 0);
        assert!(is_legitimate(&net, &cfg));
    }

    #[test]
    fn throughput_measurement_counts_deltas() {
        let cfg = KlConfig::new(1, 2, 4);
        let mut sched = scheduler(2);
        let mut net = stabilized_ss_network(
            topology::builders::star(4),
            cfg,
            workloads::all_saturated(1, 5),
            &mut sched,
            1_500_000,
        )
        .expect("must stabilize");
        let (entries, messages) = measure_throughput(&mut net, &mut sched, 30_000);
        assert!(entries > 0, "saturated workload must produce critical sections");
        assert!(messages > 0);
    }

    #[test]
    fn scales_are_ordered() {
        let q = Scale::quick();
        let f = Scale::full();
        assert!(q.trials <= f.trials);
        assert!(q.measure_steps <= f.measure_steps);
    }
}
