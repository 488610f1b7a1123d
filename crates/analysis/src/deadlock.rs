//! Deadlock detection for the non-fault-tolerant protocol rungs.
//!
//! The naive protocol of Figure 2 deadlocks: every resource token ends up reserved by a
//! requester that still needs more, no message is in flight, and no process can ever act
//! again.  [`detect_deadlock`] runs a network until it is quiescent and classifies the
//! outcome.

use klex_core::{KlInspect, Message};
use serde::Serialize;
use topology::Topology;
use treenet::{run_until_quiescent, EventScheduler, Network, NodeId, Process, RunOutcome};

/// Outcome of a deadlock-detection run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub enum DeadlockVerdict {
    /// The network became quiescent while some processes still had unsatisfied requests —
    /// a deadlock in the sense of Figure 2.
    Deadlocked {
        /// Logical time at which quiescence was detected.
        at: u64,
        /// The processes whose requests will never be satisfied.
        blocked: Vec<NodeId>,
    },
    /// The network became quiescent with no outstanding request (everything was served and
    /// the workload stopped).
    QuiescentIdle {
        /// Logical time at which quiescence was detected.
        at: u64,
    },
    /// The network never became quiescent within the step budget (progress was still being
    /// made — e.g. the pusher keeps tokens moving).
    StillLive,
}

impl DeadlockVerdict {
    /// True for the deadlocked outcome.
    pub fn is_deadlock(&self) -> bool {
        matches!(self, DeadlockVerdict::Deadlocked { .. })
    }
}

/// Runs `net` until quiescence (or `max_steps`) and classifies the result.
pub fn detect_deadlock<P, T>(
    net: &mut Network<P, T>,
    scheduler: &mut impl EventScheduler,
    max_steps: u64,
) -> DeadlockVerdict
where
    P: Process<Msg = Message> + KlInspect,
    T: Topology,
{
    // Quiet at 4n consecutive observations: a window of 4n − 1 activations.
    match run_until_quiescent(net, scheduler, max_steps, 4 * net.len() as u64 - 1) {
        RunOutcome::Quiescent(at) => {
            let blocked: Vec<NodeId> = net
                .nodes()
                .enumerate()
                .filter(|(_, n)| n.is_unsatisfied_requester())
                .map(|(id, _)| id)
                .collect();
            if blocked.is_empty() {
                DeadlockVerdict::QuiescentIdle { at }
            } else {
                DeadlockVerdict::Deadlocked { at, blocked }
            }
        }
        _ => DeadlockVerdict::StillLive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klex_core::{naive, pusher, KlConfig};
    use treenet::app::{AppDriver, BoxedDriver, Idle};
    use treenet::RoundRobin;
    use workloads::Saturated;

    /// A Figure-2 preset, compiled: the network starts in the figure's configuration.
    fn figure2(name: &str) -> crate::scenario::CompiledScenario {
        crate::scenario::preset(name).expect("bundled preset").compile().expect("validates")
    }

    /// The Figure-2 workload: a=3, b=c=d=2 on the Figure-1 tree with l=5.
    fn figure2_drivers(id: NodeId) -> BoxedDriver {
        match id {
            1 => Box::new(Saturated { units: 3, hold: 5 }) as BoxedDriver,
            2..=4 => Box::new(Saturated { units: 2, hold: 5 }) as BoxedDriver,
            _ => Box::new(Idle) as BoxedDriver,
        }
    }

    #[test]
    fn naive_protocol_deadlocks_in_figure2_configuration() {
        // Start from the exact right-hand configuration of Figure 2: all five tokens
        // reserved by the four requesters, none of which can be satisfied.
        let mut net = figure2("figure2").build_ladder().expect("naive rung");
        let mut sched = RoundRobin::new();
        let verdict = detect_deadlock(&mut net, &mut sched, 500_000);
        match verdict {
            DeadlockVerdict::Deadlocked { ref blocked, .. } => {
                assert_eq!(blocked, &vec![1, 2, 3, 4], "all four requesters stay blocked");
            }
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }

    #[test]
    fn pusher_resolves_the_constructed_figure2_deadlock() {
        // From the same configuration (plus the pusher in flight), the pusher-augmented
        // protocol keeps making progress: it never quiesces with blocked requesters.
        let mut net = figure2("figure2-pusher").build_ladder().expect("pusher rung");
        let mut sched = RoundRobin::new();
        let verdict = detect_deadlock(&mut net, &mut sched, 100_000);
        assert!(!verdict.is_deadlock(), "got {verdict:?}");
    }

    #[test]
    fn pusher_protocol_stays_live_on_figure2_workload() {
        let tree = topology::builders::figure1_tree();
        let cfg = KlConfig::new(3, 5, 8);
        let mut net = pusher::network(tree, cfg, figure2_drivers);
        let mut sched = RoundRobin::new();
        let verdict = detect_deadlock(&mut net, &mut sched, 200_000);
        assert_eq!(verdict, DeadlockVerdict::StillLive);
        assert!(!verdict.is_deadlock());
    }

    #[test]
    fn idle_naive_network_is_quiescent_only_if_tokens_parked() {
        // With nobody requesting, the naive tokens keep circulating forever: still live.
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(1, 1, 3);
        let mut net = naive::network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        let mut sched = RoundRobin::new();
        let verdict = detect_deadlock(&mut net, &mut sched, 50_000);
        assert_eq!(verdict, DeadlockVerdict::StillLive);
    }

    #[test]
    fn satisfied_hoarder_parks_the_network_without_deadlock() {
        // One node requests exactly the whole pool and never releases: the network becomes
        // quiescent but nobody is left waiting, so it is not classified as a deadlock.
        struct Pin(usize, bool);
        impl AppDriver for Pin {
            fn next_request(&mut self, _n: NodeId, _t: u64) -> Option<usize> {
                if self.1 {
                    None
                } else {
                    self.1 = true;
                    Some(self.0)
                }
            }
            fn release_cs(&mut self, _n: NodeId, _now: u64, _e: u64) -> bool {
                false
            }
        }
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(2, 2, 3);
        let mut net = naive::network(tree, cfg, |id| {
            if id == 1 {
                Box::new(Pin(2, false)) as BoxedDriver
            } else {
                Box::new(Idle) as BoxedDriver
            }
        });
        let mut sched = RoundRobin::new();
        let verdict = detect_deadlock(&mut net, &mut sched, 200_000);
        assert!(matches!(verdict, DeadlockVerdict::QuiescentIdle { .. }), "got {verdict:?}");
    }
}
