//! The exact scenarios of the paper's figures, shared by tests, examples and experiment
//! binaries.
//!
//! Since the unified scenario API landed, these constructors are thin wrappers over the
//! declarative presets in [`crate::scenario`]: the Figure-2 deadlock and the Figure-3
//! starvation instance are [`crate::scenario::ScenarioSpec`] values
//! ([`crate::scenario::preset`] names `figure2`, `figure2-pusher`, `figure2-ss`,
//! `figure3-*`), and the functions here merely compile them and hand back the concrete
//! networks for callers that drive executions by hand.
//!
//! * **Figure 1 / Figure 4** — the 8-node oriented tree and its virtual ring
//!   (`topology::builders::figure1_tree`).
//! * **Figure 2** — the deadlock of the naive protocol on that tree with ℓ = 5, k = 3 and
//!   needs a=3, b=c=d=2.  [`figure2_deadlock_config`] constructs the *right-hand*
//!   configuration of the figure (all five tokens reserved, every requester short of its
//!   need), from which the naive protocol can never progress.
//! * **Figure 3** — 2-out-of-3 exclusion on the 3-node tree with needs r=1, a=2, b=1, where
//!   the pusher-only protocol can starve process `a`.

use crate::scenario::{
    preset, CompiledScenario, ProtocolSpec, ScenarioSpec, TopologySpec, WorkloadSpec,
    FIGURE2_NEEDS, FIGURE3_NEEDS,
};
use klex_core::{naive, nonstab, pusher, ss, KlConfig};
use topology::OrientedTree;
use treenet::app::BoxedDriver;
use treenet::{Network, NodeId};
use workloads::Heterogeneous;

fn compiled(name: &str) -> CompiledScenario {
    preset(name).expect("bundled preset").compile().expect("bundled presets validate")
}

/// The configuration used throughout the Figure-2 scenario: 3-out-of-5 exclusion on the
/// 8-process tree of Figure 1.
pub fn figure2_config() -> KlConfig {
    KlConfig::new(3, 5, 8)
}

/// Requested units per node in the Figure-2 scenario (`r,a,b,c,d,e,f,g`).
pub fn figure2_needs() -> [usize; 8] {
    FIGURE2_NEEDS
}

/// Per-node drivers implementing the Figure-2 workload (`hold` is the CS duration).
pub fn figure2_drivers(hold: u64) -> impl FnMut(NodeId) -> BoxedDriver {
    move |node| {
        let units = FIGURE2_NEEDS.get(node).copied().unwrap_or(0);
        Box::new(Heterogeneous { units, hold }) as BoxedDriver
    }
}

/// The configuration of the Figure-3 scenario: 2-out-of-3 exclusion on the 3-process tree.
pub fn figure3_config() -> KlConfig {
    KlConfig::new(2, 3, 3)
}

/// Requested units per node in the Figure-3 scenario (`r, a, b`).
pub fn figure3_needs() -> [usize; 3] {
    FIGURE3_NEEDS
}

/// Per-node drivers implementing the Figure-3 workload.
pub fn figure3_drivers(hold: u64) -> impl FnMut(NodeId) -> BoxedDriver {
    move |node| {
        let units = FIGURE3_NEEDS.get(node).copied().unwrap_or(0);
        Box::new(Heterogeneous { units, hold }) as BoxedDriver
    }
}

/// Builds the naive-protocol network already placed in the deadlocked configuration of
/// Figure 2 (right-hand side): all five resource tokens are reserved by the four requesters,
/// none of which can ever be satisfied.  (The `figure2` preset, compiled.)
pub fn figure2_deadlock_config() -> Network<naive::NaiveNode, OrientedTree> {
    compiled("figure2").build_naive().expect("figure2 runs the naive protocol")
}

/// Builds the pusher-protocol network placed in the same Figure-2 configuration (plus the
/// pusher token in flight towards `a`), to show that the pusher resolves the deadlock.
/// (The `figure2-pusher` preset, compiled.)
pub fn figure2_deadlock_config_with_pusher() -> Network<pusher::PusherNode, OrientedTree> {
    compiled("figure2-pusher").build_pusher().expect("figure2-pusher runs the pusher rung")
}

/// Builds the self-stabilizing network whose *initial* configuration is the Figure-2
/// deadlock: for Algorithm 1/2 this is just one more arbitrary initial configuration, and the
/// controller recovers from it.  (The `figure2-ss` preset, compiled.)
pub fn figure2_deadlock_config_ss() -> Network<ss::SsNode, OrientedTree> {
    compiled("figure2-ss").build_ss().expect("figure2-ss runs the full protocol")
}

/// The Figure-3 scenario as a spec for any protocol rung and critical-section duration.
fn figure3_spec(protocol: ProtocolSpec, hold: u64) -> CompiledScenario {
    ScenarioSpec::builder("figure3")
        .topology(TopologySpec::Figure3)
        .protocol(protocol)
        .kl(2, 3)
        .workload(WorkloadSpec::Needs { needs: FIGURE3_NEEDS.to_vec(), hold })
        .build()
        .expect("the figure3 scenario validates")
}

/// Builds the pusher-only (livelock-prone) network for the Figure-3 scenario.
pub fn figure3_pusher_network(hold: u64) -> Network<pusher::PusherNode, OrientedTree> {
    figure3_spec(ProtocolSpec::Pusher, hold).build_pusher().expect("pusher rung")
}

/// Builds the full non-stabilizing (pusher + priority) network for the Figure-3 scenario.
pub fn figure3_nonstab_network(hold: u64) -> Network<nonstab::NonStabNode, OrientedTree> {
    figure3_spec(ProtocolSpec::NonStab, hold).build_nonstab().expect("nonstab rung")
}

/// Builds the self-stabilizing network for the Figure-3 scenario.
pub fn figure3_ss_network(hold: u64) -> Network<ss::SsNode, OrientedTree> {
    figure3_spec(ProtocolSpec::Ss, hold).build_ss().expect("ss rung")
}

#[cfg(test)]
mod tests {
    use super::*;
    use klex_core::count_tokens;

    #[test]
    fn figure2_deadlock_config_matches_the_figure() {
        let net = figure2_deadlock_config();
        let cfg = figure2_config();
        // All five tokens are reserved, none in flight.
        let census = count_tokens(&net);
        assert_eq!(census.resource, cfg.l);
        assert_eq!(net.in_flight(), 0);
        // Node states match the figure.
        assert_eq!(net.node(1).app.need, 3);
        assert_eq!(net.node(1).app.reserved(), 2);
        for v in [2, 3, 4] {
            assert_eq!(net.node(v).app.need, 2);
            assert_eq!(net.node(v).app.reserved(), 1);
        }
        assert_eq!(net.node(0).app.reserved(), 0);
    }

    #[test]
    fn figure2_needs_sum_exceeds_l() {
        let total: usize = figure2_needs().iter().sum();
        assert!(total > figure2_config().l, "the figure's requests over-subscribe the pool");
    }

    #[test]
    fn figure3_needs_match_paper() {
        assert_eq!(figure3_needs(), [1, 2, 1]);
        let cfg = figure3_config();
        assert_eq!((cfg.k, cfg.l), (2, 3));
    }

    #[test]
    fn figure2_pusher_variant_has_pusher_in_flight() {
        let net = figure2_deadlock_config_with_pusher();
        assert_eq!(klex_core::count_tokens(&net).pusher, 1);
    }

    #[test]
    fn wrappers_agree_with_hand_wired_construction() {
        // The preset-built deadlock equals the historical hand-wired construction.
        let from_preset = figure2_deadlock_config();
        let mut by_hand =
            naive::network(topology::builders::figure1_tree(), figure2_config(), figure2_drivers(5));
        by_hand.node_mut(0).bootstrapped = true;
        by_hand.node_mut(1).app.state = treenet::CsState::Req;
        by_hand.node_mut(1).app.need = 3;
        by_hand.node_mut(1).app.rset = vec![0, 0];
        for v in [2usize, 3, 4] {
            by_hand.node_mut(v).app.state = treenet::CsState::Req;
            by_hand.node_mut(v).app.need = 2;
            by_hand.node_mut(v).app.rset = vec![0];
        }
        for v in 0..8 {
            assert_eq!(from_preset.node(v).app.state, by_hand.node(v).app.state, "node {v}");
            assert_eq!(from_preset.node(v).app.need, by_hand.node(v).app.need, "node {v}");
            assert_eq!(from_preset.node(v).app.rset, by_hand.node(v).app.rset, "node {v}");
        }
        assert_eq!(from_preset.in_flight(), by_hand.in_flight());
    }
}
