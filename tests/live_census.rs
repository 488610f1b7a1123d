//! Differential test of the live token census: after *every* activation, on every protocol
//! rung and the ring baseline, [`klex_core::LiveCensus`] must equal the reference scan
//! (`count_tokens`, `safety_holds`, `is_legitimate`).  The lock-step walk
//! (`lockstep_walk`) checks it with the other trackers; this entry point sets, on every
//! draw, the surgeries a convergence loop meets: fault plans, forged tokens, garbage and a
//! stray marker in flight, and a delivery aimed at a channel that may be empty.  Every
//! surgery invalidates a tracker by contract, so the walk builds a fresh one after each.
//! The one safety verdict of every consumer is pinned in `tests/lockstep.rs`.

mod lockstep_walk;

use lockstep_walk::{FAULTS, FORGED, RACED};
use proptest::prelude::*;

proptest! {
    // Whole-protocol runs with an O(n · Δ²) pass per activation: a reduced case count.
    #![proptest_config(ProptestConfig { cases: 20, .. ProptestConfig::default() })]

    #[test]
    fn live_census_equals_the_reference_scan_after_every_activation(
        draw in lockstep_walk::draws(FAULTS | FORGED | RACED),
    ) {
        draw.walk();
    }
}
