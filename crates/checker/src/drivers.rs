//! Stateless application drivers for state-space exploration.
//!
//! The explorer identifies two configurations whenever their protocol states and channel
//! contents agree; anything *outside* that abstraction must not influence behaviour, or the
//! exploration would silently merge behaviourally different states.  Driver decisions are
//! therefore restricted to pure functions of the observable request state: the drivers in
//! this module carry no mutable state and ignore the logical clock.
//!
//! Statelessness matters twice over for the delta engine ([`crate::Explorer::run`]).  It
//! executes each distinct (process, activation, local state, head message) **once** and
//! reuses the effect for every configuration presenting the same input; and it executes
//! in place and *reverts* — the revert restores the captured node state and channel
//! contents, but a driver's hidden mutable state (if it had any) would not be rewound, and
//! the logical clock deliberately keeps advancing across apply/revert pairs.  A driver whose
//! answers depend on call count or on `now` would therefore make the two engines diverge
//! (debug builds catch it: they re-execute every reused effect and panic on a difference).  The [`HoldOneActivation`] comparison `now > entered_at` is the one sanctioned
//! use of the clock: with `entered_at` normalized to 0 by every restore path, its value is a
//! pure function of the captured configuration and the activation being executed.
//!
//! | Driver | `next_request` | `release_cs` | models |
//! |---|---|---|---|
//! | [`AlwaysRequest`] | always `Some(units)` | immediately | a saturated requester whose critical section is instantaneous |
//! | [`HoldOneActivation`] | always `Some(units)` | at the process's *next* activation | a saturated requester whose critical section spans at least one activation — the shortest critical section that is visible in captured configurations (required to express the Figure-3 livelock, whose cycle needs processes to *hold* tokens while the pusher passes) |
//! | [`RequestAndHold`] | always `Some(units)` | never | a process pinned in its critical section (the set *I* of the (k,ℓ)-liveness property) |
//! | [`NeverRequest`] | never | immediately | a passive process |

use treenet::app::{AppDriver, BoxedDriver};
use treenet::NodeId;

/// Requests the same number of units every time it is idle and releases the critical section
/// on the first tick after entering it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AlwaysRequest {
    units: usize,
}

impl AlwaysRequest {
    /// A driver that perpetually requests `units` resource units.
    pub fn new(units: usize) -> Self {
        AlwaysRequest { units }
    }

    /// The boxed form expected by the protocol constructors.
    pub fn boxed(units: usize) -> BoxedDriver {
        Box::new(AlwaysRequest::new(units))
    }
}

impl AppDriver for AlwaysRequest {
    fn next_request(&mut self, _node: NodeId, _now: u64) -> Option<usize> {
        Some(self.units)
    }

    fn release_cs(&mut self, _node: NodeId, _now: u64, _entered_at: u64) -> bool {
        true
    }
}

/// Requests the same number of units every time it is idle, and releases the critical section
/// at the process's **next** activation after entering it (never within the entering
/// activation itself).
///
/// The decision uses only the comparison `now > entered_at`, which at the start of any
/// activation is true for every process already in its critical section (the logical clock is
/// strictly increasing) and false exactly during the activation that performed the entry — so
/// the behaviour is a deterministic function of the captured configuration and the chosen
/// activation, as the explorer's state abstraction requires.  This is the shortest critical
/// section that leaves a visible `In` configuration, which is what the Figure-3 livelock
/// needs: the pusher must be able to pass a process *while* it holds its tokens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HoldOneActivation {
    units: usize,
}

impl HoldOneActivation {
    /// A driver that perpetually requests `units` units and holds each critical section until
    /// its next activation.
    pub fn new(units: usize) -> Self {
        HoldOneActivation { units }
    }

    /// The boxed form expected by the protocol constructors.
    pub fn boxed(units: usize) -> BoxedDriver {
        Box::new(HoldOneActivation::new(units))
    }
}

impl AppDriver for HoldOneActivation {
    fn next_request(&mut self, _node: NodeId, _now: u64) -> Option<usize> {
        Some(self.units)
    }

    fn release_cs(&mut self, _node: NodeId, now: u64, entered_at: u64) -> bool {
        now > entered_at
    }
}

/// Requests once and then stays in the critical section forever.
///
/// Used to realise the set *I* of the (k,ℓ)-liveness property (processes that hold resource
/// units forever) and to build worst-case blocking scenarios.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestAndHold {
    units: usize,
}

impl RequestAndHold {
    /// A driver that requests `units` units and never releases them.
    pub fn new(units: usize) -> Self {
        RequestAndHold { units }
    }

    /// The boxed form expected by the protocol constructors.
    pub fn boxed(units: usize) -> BoxedDriver {
        Box::new(RequestAndHold::new(units))
    }
}

impl AppDriver for RequestAndHold {
    fn next_request(&mut self, _node: NodeId, _now: u64) -> Option<usize> {
        Some(self.units)
    }

    fn release_cs(&mut self, _node: NodeId, _now: u64, _entered_at: u64) -> bool {
        false
    }
}

/// Never requests anything (identical in behaviour to [`treenet::app::Idle`], provided here so
/// checking scenarios can be described entirely with this module).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NeverRequest;

impl NeverRequest {
    /// The boxed form expected by the protocol constructors.
    pub fn boxed() -> BoxedDriver {
        Box::new(NeverRequest)
    }
}

impl AppDriver for NeverRequest {
    fn next_request(&mut self, _node: NodeId, _now: u64) -> Option<usize> {
        None
    }

    fn release_cs(&mut self, _node: NodeId, _now: u64, _entered_at: u64) -> bool {
        true
    }
}

/// Builds a per-node driver map from a slice of requested unit counts: `needs[v] == 0` yields
/// [`NeverRequest`], anything else an [`AlwaysRequest`] for that many units.
pub fn from_needs(needs: &[usize]) -> impl FnMut(NodeId) -> BoxedDriver + '_ {
    move |node| {
        let units = needs.get(node).copied().unwrap_or(0);
        if units == 0 {
            NeverRequest::boxed()
        } else {
            AlwaysRequest::boxed(units)
        }
    }
}

/// Like [`from_needs`], but requesters hold their critical sections across one activation
/// ([`HoldOneActivation`]) instead of releasing instantaneously.
pub fn from_needs_holding(needs: &[usize]) -> impl FnMut(NodeId) -> BoxedDriver + '_ {
    move |node| {
        let units = needs.get(node).copied().unwrap_or(0);
        if units == 0 {
            NeverRequest::boxed()
        } else {
            HoldOneActivation::boxed(units)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_request_is_stateless_and_saturated() {
        let mut d = AlwaysRequest::new(2);
        for now in 0..5 {
            assert_eq!(d.next_request(1, now), Some(2));
            assert!(d.release_cs(1, now, 0));
        }
    }

    #[test]
    fn hold_one_activation_releases_only_on_a_later_activation() {
        let mut d = HoldOneActivation::new(2);
        assert_eq!(d.next_request(0, 5), Some(2));
        // Same activation as the entry: do not release.
        assert!(!d.release_cs(0, 5, 5));
        // Any later activation releases.
        assert!(d.release_cs(0, 6, 5));
        // After a restore entered_at is reset to 0 and the clock is ahead: releases.
        assert!(d.release_cs(0, 100, 0));
    }

    #[test]
    fn from_needs_holding_builds_holding_requesters() {
        let needs = [1usize, 0];
        let mut make = from_needs_holding(&needs);
        let mut holder = make(0);
        assert_eq!(holder.next_request(0, 3), Some(1));
        assert!(!holder.release_cs(0, 3, 3));
        let mut passive = make(1);
        assert_eq!(passive.next_request(1, 0), None);
    }

    #[test]
    fn request_and_hold_never_releases() {
        let mut d = RequestAndHold::new(1);
        assert_eq!(d.next_request(0, 0), Some(1));
        assert!(!d.release_cs(0, 1_000_000, 0));
    }

    #[test]
    fn never_request_is_passive() {
        let mut d = NeverRequest;
        assert_eq!(d.next_request(0, 0), None);
        assert!(d.release_cs(0, 0, 0));
    }

    #[test]
    fn from_needs_maps_zero_to_passive() {
        let needs = [0usize, 2, 1];
        let mut make = from_needs(&needs);
        let mut passive = make(0);
        let mut busy = make(1);
        assert_eq!(passive.next_request(0, 0), None);
        assert_eq!(busy.next_request(1, 0), Some(2));
        // Out-of-range nodes default to passive.
        let mut extra = make(7);
        assert_eq!(extra.next_request(7, 0), None);
    }
}
