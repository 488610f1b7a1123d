//! Read-only inspection of protocol nodes, used by invariant checkers and experiments.

use treenet::CsState;

/// Read access to the request-related state of a protocol node.
///
/// Every protocol variant in this crate (and the baselines) implements this trait, so the
/// `analysis` crate can check the safety property, take token censuses and detect legitimate
/// configurations without knowing which variant is running.
pub trait KlInspect {
    /// The paper's `State` variable.
    fn cs_state(&self) -> CsState;

    /// The paper's `Need` variable: units currently requested.
    fn need(&self) -> usize;

    /// `|RSet|`: resource tokens currently reserved (held) by this process.
    fn reserved(&self) -> usize;

    /// True when the process currently holds the priority token (`Prio ≠ ⊥`).
    fn holds_priority(&self) -> bool;

    /// Resource units in use in the sense of the safety property: reserved tokens while the
    /// process executes its critical section, 0 otherwise.  Never more than
    /// [`KlInspect::reserved`], which is why bounding `|RSet|` bounds units in use.
    fn units_in_use(&self) -> usize {
        if self.cs_state() == CsState::In {
            self.reserved()
        } else {
            0
        }
    }

    /// True when the process is a requester whose request is not yet satisfied.
    fn is_unsatisfied_requester(&self) -> bool {
        self.cs_state() == CsState::Req && self.reserved() < self.need()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        state: CsState,
        need: usize,
        reserved: usize,
    }
    impl KlInspect for Fake {
        fn cs_state(&self) -> CsState {
            self.state
        }
        fn need(&self) -> usize {
            self.need
        }
        fn reserved(&self) -> usize {
            self.reserved
        }
        fn holds_priority(&self) -> bool {
            false
        }
    }

    #[test]
    fn units_in_use_only_counts_critical_sections() {
        let waiting = Fake { state: CsState::Req, need: 3, reserved: 2 };
        assert_eq!(waiting.units_in_use(), 0);
        assert!(waiting.is_unsatisfied_requester());

        let working = Fake { state: CsState::In, need: 2, reserved: 2 };
        assert_eq!(working.units_in_use(), 2);
        assert!(!working.is_unsatisfied_requester());

        let idle = Fake { state: CsState::Out, need: 0, reserved: 0 };
        assert_eq!(idle.units_in_use(), 0);
        assert!(!idle.is_unsatisfied_requester());
    }
}
