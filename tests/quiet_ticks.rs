//! Quiet ticks: a network that skips the `on_tick` of a process whose hint holds must be
//! indistinguishable from its twin that runs every handler.  The lock-step walk
//! (`lockstep_walk`) compares the two in full after every activation, together with the
//! other trackers; this entry point draws from its whole space.  The hint's contract and
//! the paths that clear quiet bits are pinned in `tests/lockstep.rs`.

mod lockstep_walk;

use proptest::prelude::*;

proptest! {
    // Whole-protocol runs with an O(n · Δ²) pass per activation: a reduced case count.
    #![proptest_config(ProptestConfig { cases: 20, .. ProptestConfig::default() })]

    /// The network as built and the network that runs every handler are indistinguishable
    /// after every activation: same activation, same process states, same channels and
    /// counters, same trace, metrics and clocks — on every protocol, under every daemon,
    /// with and without every surgery, snapshots and Lamport clocks.
    #[test]
    fn quiet_ticks_are_indistinguishable_from_running_every_handler(
        draw in lockstep_walk::draws(0),
    ) {
        draw.walk();
    }
}
