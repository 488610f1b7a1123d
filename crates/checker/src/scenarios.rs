//! Ready-made networks in checkable form.
//!
//! The explorer's state abstraction excludes the root's timeout counter (see
//! [`crate::snapshot`]), so a network handed to the [`crate::Explorer`] must be built with an
//! effectively infinite timeout interval: the timer then cannot fire within any bounded
//! exploration and its hidden value is behaviourally irrelevant.  The paper itself only
//! requires the interval to be "sufficiently large"; an infinite interval is the limit of
//! that assumption and is sound as long as no message is lost after the initial configuration
//! — which is exactly the fault-free setting in which closure is defined.
//!
//! * [`ss_for_checking`] — the self-stabilizing protocol with the timeout disabled;
//! * [`launch_controller`] — injects the single controller message the root's first timeout
//!   would have produced, so the protocol can bootstrap without the timer;
//! * [`stabilized_ss`] — bootstraps and runs a fair schedule until the configuration is
//!   (sustainably) legitimate, returning a network ready for closure exploration.

use klex_core::{KlConfig, LiveCensus, Message, SsNode};
use topology::{OrientedTree, Topology};
use treenet::app::BoxedDriver;
use treenet::{run_sustained, Network, NodeId, RoundRobin};

/// A timeout interval that can never elapse within a bounded exploration.
pub const DISABLED_TIMEOUT: u64 = u64::MAX / 4;

/// Builds a self-stabilizing k-out-of-ℓ exclusion network whose root timeout is effectively
/// disabled, as required by the explorer's state abstraction.
pub fn ss_for_checking(
    tree: OrientedTree,
    cfg: KlConfig,
    driver_for: impl FnMut(NodeId) -> BoxedDriver,
) -> Network<SsNode, OrientedTree> {
    klex_core::ss::network(tree, cfg.with_timeout(DISABLED_TIMEOUT), driver_for)
}

/// Injects the controller message the root's first timeout would have sent (flag value 0, no
/// reset), so a timeout-disabled network can still bootstrap.  Must be called on a freshly
/// constructed network (root `Succ = 0`, `myC = 0`).
pub fn launch_controller(net: &mut Network<SsNode, OrientedTree>) {
    let root = net.topology().root();
    net.inject_from(root, 0, Message::Ctrl { c: 0, r: false, pt: 0, ppr: 0 });
}

/// Bootstraps a timeout-disabled network and runs a deterministic fair schedule until the
/// configuration has been legitimate across `2 · n · (2n − 2) − 1` consecutive activations,
/// at least 7 (long enough for a full controller circulation at round-robin pace), then
/// returns it.
///
/// The returned network is a genuine member of the paper's legitimate set and is the intended
/// starting point for closure exploration.
///
/// # Panics
///
/// Panics if legitimacy is not sustained within `max_steps` activations — that would indicate
/// a protocol bug, not an unlucky schedule (the schedule is deterministic).
pub fn stabilized_ss(
    tree: OrientedTree,
    cfg: KlConfig,
    driver_for: impl FnMut(NodeId) -> BoxedDriver,
    max_steps: u64,
) -> Network<SsNode, OrientedTree> {
    let n = tree.len();
    let mut net = ss_for_checking(tree, cfg, driver_for);
    launch_controller(&mut net);
    let mut sched = RoundRobin::new();
    let window = (2 * n * (2 * n).saturating_sub(2)).saturating_sub(1).max(7) as u64;
    let mut census = LiveCensus::new(&net, &cfg);
    let outcome = run_sustained(
        &mut net,
        &mut census,
        max_steps,
        window,
        |net, census| {
            census.step(net, &mut sched);
        },
        |_, census| census.is_legitimate(),
    );
    if outcome.is_satisfied() {
        return net;
    }
    panic!(
        "the protocol did not reach a sustained legitimate configuration within {max_steps} \
         activations (n = {n}, l = {})",
        cfg.l
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::{AlwaysRequest, NeverRequest};
    use klex_core::{count_tokens, is_legitimate};

    #[test]
    fn disabled_timeout_produces_no_spontaneous_controller() {
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(1, 2, 3);
        let mut net = ss_for_checking(tree, cfg, |_| NeverRequest::boxed());
        let mut sched = RoundRobin::new();
        for _ in 0..5_000 {
            net.step_event(&mut sched);
        }
        assert_eq!(net.in_flight(), 0, "without the timer nothing is ever sent");
        assert_eq!(net.metrics().messages_sent, 0);
    }

    #[test]
    fn launch_controller_bootstraps_the_token_population() {
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(1, 2, 3);
        let mut net = ss_for_checking(tree, cfg, |_| NeverRequest::boxed());
        launch_controller(&mut net);
        let mut sched = RoundRobin::new();
        for _ in 0..5_000 {
            net.step_event(&mut sched);
        }
        let census = count_tokens(&net);
        assert!(census.matches(2), "census after bootstrap: {census:?}");
    }

    #[test]
    fn stabilized_ss_returns_a_legitimate_configuration() {
        let tree = topology::builders::figure1_tree();
        let cfg = KlConfig::new(2, 3, 8).with_cmax(0);
        let net = stabilized_ss(tree, cfg, |_| AlwaysRequest::boxed(1), 500_000);
        assert!(is_legitimate(&net, &cfg));
    }
}
