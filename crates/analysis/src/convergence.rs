//! Convergence (stabilization-time) measurement.
//!
//! Theorem 1 states that from *any* configuration the protocol converges to a legitimate
//! configuration.  Experimentally we measure the convergence time as the first moment from
//! which the legitimacy predicate ([`klex_core::is_legitimate`], read per activation from a
//! [`klex_core::LiveCensus`]) holds *continuously* for a confirmation window: the
//! instantaneous predicate can hold transiently while the counter-flushing controller is
//! still unstable, so a single observation is not evidence of stabilization (see the
//! discussion in `crates/core/src/ss.rs`).  The window is counted by the workspace's one
//! streak loop, [`treenet::run_sustained`].

use klex_core::{KlConfig, KlInspect, LiveCensus, Message};
use serde::Serialize;
use topology::Topology;
use treenet::{EventScheduler, Network, Process, RunOutcome};

/// Result of a convergence measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum ConvergenceOutcome {
    /// The network became (and stayed) legitimate.
    Converged {
        /// Logical time at which the sustained-legitimacy window started, i.e. the measured
        /// stabilization time.
        stabilized_at: u64,
        /// Logical time at which the measurement finished (end of the confirmation window).
        confirmed_at: u64,
    },
    /// Legitimacy was never sustained for a full window within the step budget.
    DidNotConverge,
}

impl ConvergenceOutcome {
    /// The measured stabilization time, if the run converged.
    pub fn stabilization_time(&self) -> Option<u64> {
        match self {
            ConvergenceOutcome::Converged { stabilized_at, .. } => Some(*stabilized_at),
            ConvergenceOutcome::DidNotConverge => None,
        }
    }

    /// True when the run converged.
    pub fn converged(&self) -> bool {
        matches!(self, ConvergenceOutcome::Converged { .. })
    }
}

/// Runs `net` under `daemon` until the legitimacy predicate has held across `window`
/// consecutive activations, or `max_steps` activations have elapsed.
///
/// This is the one streak loop, [`treenet::run_sustained`], reading legitimacy from a
/// [`LiveCensus`] built on entry and stepped with the daemon.  The returned stabilization
/// time is the activation at which the successful window began.
pub fn measure_convergence<P, T>(
    net: &mut Network<P, T>,
    daemon: &mut impl EventScheduler,
    cfg: &KlConfig,
    max_steps: u64,
    window: u64,
) -> ConvergenceOutcome
where
    P: Process<Msg = Message> + KlInspect,
    T: Topology,
{
    let mut census = LiveCensus::new(net, cfg);
    let outcome = treenet::run_sustained(
        net,
        &mut census,
        max_steps,
        window,
        |net, census| {
            census.step(net, daemon);
        },
        |_, census| census.is_legitimate(),
    );
    match outcome {
        RunOutcome::Satisfied(stabilized_at) => {
            ConvergenceOutcome::Converged { stabilized_at, confirmed_at: net.now() }
        }
        _ => ConvergenceOutcome::DidNotConverge,
    }
}

/// A reasonable confirmation window for a network of `n` processes: several full controller
/// circulations' worth of activations.
pub fn default_window(n: usize) -> u64 {
    (n as u64 * 200).max(2_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use klex_core::ss;
    use treenet::app::{BoxedDriver, Idle};
    use treenet::{FaultInjector, FaultPlan, RoundRobin};

    #[test]
    fn converges_from_empty_configuration() {
        let tree = topology::builders::figure1_tree();
        let cfg = KlConfig::new(3, 5, 8);
        let mut net = ss::network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        let mut sched = RoundRobin::new();
        let out = measure_convergence(&mut net, &mut sched, &cfg, 1_000_000, default_window(8));
        assert!(out.converged());
        assert!(out.stabilization_time().unwrap() > 0);
    }

    #[test]
    fn converges_after_fault_and_reports_later_time() {
        let tree = topology::builders::chain(5);
        let cfg = KlConfig::new(1, 2, 5);
        let mut net = ss::network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        let mut sched = RoundRobin::new();
        let first = measure_convergence(&mut net, &mut sched, &cfg, 1_000_000, default_window(5));
        assert!(first.converged());
        let mut injector = FaultInjector::new(3);
        injector.inject(&mut net, &FaultPlan::catastrophic(cfg.cmax));
        let second = measure_convergence(&mut net, &mut sched, &cfg, 2_000_000, default_window(5));
        assert!(second.converged());
        assert!(
            second.stabilization_time().unwrap() >= first.stabilization_time().unwrap(),
            "time only moves forward"
        );
    }

    #[test]
    fn did_not_converge_with_tiny_budget() {
        let tree = topology::builders::chain(4);
        let cfg = KlConfig::new(1, 2, 4);
        let mut net = ss::network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        let mut sched = RoundRobin::new();
        let out = measure_convergence(&mut net, &mut sched, &cfg, 10, 1_000);
        assert!(!out.converged());
        assert_eq!(out.stabilization_time(), None);
    }

    #[test]
    fn default_window_scales_with_n() {
        assert!(default_window(100) > default_window(10));
        assert!(default_window(2) >= 2_000);
    }
}
