//! The in-simulation Chandy–Lamport snapshots: every completed cut's census must equal the
//! instantaneous global census whenever that census was constant across the cut's window.
//!
//! The guard is what makes the oracle sound: a consistent cut of a window in which every
//! event conserves the token count carries exactly that count.  When an event in the window
//! changes the census (the self-stabilizing rung destroying a surplus token, say), the cut
//! may report either side of the change, so that window asserts nothing.  The lock-step
//! walk (`lockstep_walk`) reads the instantaneous census from its tracker pass after every
//! activation; this entry point turns snapshots on for every draw.

mod lockstep_walk;

use lockstep_walk::SNAPSHOTS;
use proptest::prelude::*;

proptest! {
    // Whole-protocol runs with an O(n · Δ²) pass per activation: a reduced case count.
    #![proptest_config(ProptestConfig { cases: 20, .. ProptestConfig::default() })]

    #[test]
    fn cut_census_equals_instantaneous_census_when_constant(
        draw in lockstep_walk::draws(SNAPSHOTS),
    ) {
        draw.walk();
    }
}
