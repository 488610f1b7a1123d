//! Continuous safety monitoring.
//!
//! The safety property of k-out-of-ℓ exclusion (Section 2 of the paper): every resource unit
//! is used by at most one process, every process uses at most `k` units, and at most `ℓ`
//! units are used overall.  In the token implementation, "a unit used by at most one process"
//! is structural (a token is a message held by at most one `RSet`), so the monitor checks the
//! two numeric bounds plus token conservation after stabilization.

use klex_core::{count_tokens, KlConfig, KlInspect, Message, TokenCensus};
use serde::Serialize;
use topology::Topology;
use treenet::{Network, NodeId, Process};

/// A recorded violation of the monitored invariants.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub enum SafetyViolation {
    /// A process used more than `k` units inside its critical section.
    PerProcessBound {
        /// Offending process.
        node: NodeId,
        /// Units it was using.
        used: usize,
        /// The bound `k`.
        k: usize,
        /// Logical time of the observation.
        at: u64,
    },
    /// More than `ℓ` units were in use system-wide.
    GlobalBound {
        /// Units in use.
        used: usize,
        /// The bound `ℓ`.
        l: usize,
        /// Logical time of the observation.
        at: u64,
    },
    /// The resource-token population deviated from `ℓ` while conservation was being enforced.
    TokenConservation {
        /// Tokens observed.
        observed: usize,
        /// Tokens expected.
        expected: usize,
        /// Logical time of the observation.
        at: u64,
    },
}

/// A safety monitor to be invoked after every simulation step (or as often as desired).
#[derive(Clone, Debug)]
pub struct SafetyMonitor {
    cfg: KlConfig,
    /// When true, also require the resource-token census to equal `ℓ` (valid only after
    /// stabilization).
    pub enforce_conservation: bool,
    checks: u64,
    violations: Vec<SafetyViolation>,
}

impl SafetyMonitor {
    /// Creates a monitor for the given configuration.
    pub fn new(cfg: KlConfig) -> Self {
        SafetyMonitor { cfg, enforce_conservation: false, checks: 0, violations: Vec::new() }
    }

    /// Also enforce token conservation (call once the network has stabilized).
    pub fn with_conservation(mut self) -> Self {
        self.enforce_conservation = true;
        self
    }

    /// Inspects the network once, recording any violations.
    pub fn check<P, T>(&mut self, net: &Network<P, T>)
    where
        P: Process<Msg = Message> + KlInspect,
        T: Topology,
    {
        self.checks += 1;
        let at = net.now();
        let mut in_use = 0usize;
        for (id, node) in net.nodes().enumerate() {
            let used = node.units_in_use();
            in_use += used;
            if used > self.cfg.k {
                self.violations.push(SafetyViolation::PerProcessBound {
                    node: id,
                    used,
                    k: self.cfg.k,
                    at,
                });
            }
        }
        if in_use > self.cfg.l {
            self.violations.push(SafetyViolation::GlobalBound { used: in_use, l: self.cfg.l, at });
        }
        if self.enforce_conservation {
            let census: TokenCensus = count_tokens(net);
            if census.resource != self.cfg.l {
                self.violations.push(SafetyViolation::TokenConservation {
                    observed: census.resource,
                    expected: self.cfg.l,
                    at,
                });
            }
        }
    }

    /// Number of checks performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// The violations recorded so far.
    pub fn violations(&self) -> &[SafetyViolation] {
        &self.violations
    }

    /// True when no violation has been recorded.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klex_core::{naive, nonstab};
    use treenet::app::{AppDriver, BoxedDriver, Idle};
    use treenet::RoundRobin;

    struct Fixed(usize, u64);
    impl AppDriver for Fixed {
        fn next_request(&mut self, _n: NodeId, _t: u64) -> Option<usize> {
            Some(self.0)
        }
        fn release_cs(&mut self, _n: NodeId, now: u64, e: u64) -> bool {
            now - e >= self.1
        }
    }

    #[test]
    fn clean_run_has_no_violations() {
        let tree = topology::builders::figure1_tree();
        let cfg = KlConfig::new(2, 4, 8);
        let mut net = nonstab::network(tree, cfg, |_| Box::new(Fixed(2, 3)) as BoxedDriver);
        let mut sched = RoundRobin::new();
        let mut monitor = SafetyMonitor::new(cfg);
        for _ in 0..30_000 {
            net.step_event(&mut sched);
            monitor.check(&net);
        }
        assert!(monitor.clean(), "violations: {:?}", monitor.violations());
        assert_eq!(monitor.checks(), 30_000);
    }

    #[test]
    fn conservation_detects_injected_token() {
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(1, 2, 3);
        let mut net = naive::network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        let mut sched = RoundRobin::new();
        treenet::run_for(&mut net, &mut sched, 1_000);
        let mut monitor = SafetyMonitor::new(cfg).with_conservation();
        monitor.check(&net);
        assert!(monitor.clean());
        net.inject_into(1, 0, Message::ResT);
        monitor.check(&net);
        assert!(!monitor.clean());
        assert!(matches!(
            monitor.violations()[0],
            SafetyViolation::TokenConservation { observed: 3, expected: 2, .. }
        ));
    }

    #[test]
    fn per_process_bound_is_reported() {
        // Build a naive network and force an illegal reservation directly (simulating a
        // corrupted state the monitor should flag).
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(1, 2, 3);
        let mut net = naive::network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        {
            let node = net.node_mut(1);
            node.app.state = treenet::CsState::In;
            node.app.rset = vec![0, 0];
        }
        let mut monitor = SafetyMonitor::new(cfg);
        monitor.check(&net);
        assert!(monitor
            .violations()
            .iter()
            .any(|v| matches!(v, SafetyViolation::PerProcessBound { node: 1, used: 2, .. })));
    }

    #[test]
    fn global_bound_is_reported() {
        let tree = topology::builders::figure1_tree();
        let cfg = KlConfig::new(2, 2, 8);
        let mut net = naive::network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        for v in 1..=3usize {
            let node = net.node_mut(v);
            node.app.state = treenet::CsState::In;
            node.app.rset = vec![0];
        }
        let mut monitor = SafetyMonitor::new(cfg);
        monitor.check(&net);
        assert!(monitor
            .violations()
            .iter()
            .any(|v| matches!(v, SafetyViolation::GlobalBound { used: 3, l: 2, .. })));
    }
}
