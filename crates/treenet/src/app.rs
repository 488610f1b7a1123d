//! The application-side interface of a resource-allocation protocol.
//!
//! Section 2 of the paper defines the interface between a k-out-of-ℓ exclusion protocol and
//! the application requesting resource units:
//!
//! * `State ∈ {Req, In, Out}` — `Out → Req` is performed by the *application* (it wants
//!   `Need` units); `Req → In` and `In → Out` are performed by the *protocol*;
//! * `Need ∈ {0..k}` — the number of units currently requested;
//! * `EnterCS()` — called by the protocol when the request is granted;
//! * `ReleaseCS()` — a predicate that holds when the application has finished its critical
//!   section.
//!
//! [`AppDriver`] is the simulator-side embodiment of the application: protocol nodes consult
//! it on every tick to learn when to issue a new request (`Out → Req`) and when a critical
//! section is finished (`ReleaseCS()`).  Concrete drivers (saturated, random, cyclic, ...)
//! live in the `workloads` crate.

use crate::NodeId;
use serde::Serialize;

/// The application-visible state of a process, as defined in Section 2 of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Default)]
pub enum CsState {
    /// Not requesting and not using any resource unit.
    #[default]
    Out,
    /// Requesting `Need` resource units; waiting for the protocol to grant them.
    Req,
    /// Executing the critical section, holding the granted resource units.
    In,
}

/// The application driving one (or all) processes: decides when to request resource units and
/// how long critical sections last.
///
/// Implementations must be deterministic given their own seed so that whole experiments can
/// be reproduced bit-for-bit.
pub trait AppDriver {
    /// Called on every tick while the process is `Out`.  Returning `Some(units)` switches the
    /// process to `Req` with `Need = units`; returning `None` leaves it idle.
    ///
    /// `units` is clamped by the protocol to `1..=k`.
    fn next_request(&mut self, node: NodeId, now: u64) -> Option<usize>;

    /// Called on every tick while the process is `In` (the paper's `ReleaseCS()` predicate).
    /// `entered_at` is the activation at which the critical section started.  Returning `true`
    /// ends the critical section.
    fn release_cs(&mut self, node: NodeId, now: u64, entered_at: u64) -> bool;
}

/// A driver that never requests anything (a purely passive process).
#[derive(Clone, Copy, Debug, Default)]
pub struct Idle;

impl AppDriver for Idle {
    fn next_request(&mut self, _node: NodeId, _now: u64) -> Option<usize> {
        None
    }

    fn release_cs(&mut self, _node: NodeId, _now: u64, _entered_at: u64) -> bool {
        true
    }
}

/// Boxed driver type used by protocol nodes, avoiding a generic parameter on every node type.
pub type BoxedDriver = Box<dyn AppDriver + Send>;

impl AppDriver for BoxedDriver {
    fn next_request(&mut self, node: NodeId, now: u64) -> Option<usize> {
        self.as_mut().next_request(node, now)
    }

    fn release_cs(&mut self, node: NodeId, now: u64, entered_at: u64) -> bool {
        self.as_mut().release_cs(node, now, entered_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_driver_never_requests() {
        let mut d = Idle;
        assert_eq!(d.next_request(0, 0), None);
        assert!(d.release_cs(0, 10, 5));
    }

    #[test]
    fn boxed_driver_delegates() {
        let mut d: BoxedDriver = Box::new(Idle);
        assert_eq!(d.next_request(1, 2), None);
        assert!(d.release_cs(1, 3, 2));
    }

    #[test]
    fn default_state_is_out() {
        assert_eq!(CsState::default(), CsState::Out);
    }
}
