//! `checker` — bounded-exhaustive state-space exploration of the k-out-of-ℓ exclusion
//! protocols.
//!
//! The simulation experiments (`bench` crate) sample *some* executions of each protocol; this
//! crate complements them by enumerating **every** reachable configuration of a small instance
//! under **every** possible scheduling, and checking properties on all of them.  It explores
//! the actual protocol implementations from `klex-core` (not a re-model): configurations are
//! snapshots of the real process states and channel contents, and transitions are the real
//! [`treenet::Network::execute`] steps.
//!
//! What can be verified this way (on instances small enough to enumerate):
//!
//! * **Safety invariance** — the per-process and global reservation bounds (the paper's safety
//!   property) hold in *every* reachable configuration, not just the sampled ones.
//! * **Closure** (half of self-stabilization, Definition 1) — starting from a legitimate
//!   configuration, every reachable configuration is again legitimate.
//! * **Reachability of the Figure 2 deadlock** — the naive ℓ-token circulation really can
//!   reach a configuration where requesters block forever, and the pusher-augmented protocol
//!   cannot (exhaustively, for the same instance).
//! * **Existence of the Figure 3 livelock** — under the pusher-only protocol there is a
//!   reachable *cycle* of configurations along which one requester stays unsatisfied while
//!   other processes keep entering their critical sections; with the priority token the cycle
//!   disappears.
//!
//! # Scope and honesty
//!
//! Exploration is exhaustive **up to the configured limits** ([`Limits`]) and **up to the state
//! abstraction** described in [`snapshot`]: the root's timeout counter is not part of the
//! abstraction, so checked networks must be built with an effectively infinite timeout
//! ([`scenarios::ss_for_checking`] does this), and application drivers must be *stateless*
//! (their decisions may depend only on the observable `State`/`Need`, see [`drivers`]).
//! Within those bounds the exploration covers every interleaving of message deliveries and
//! process activations — a far stronger guarantee than any number of random schedules.
//!
//! # Engine design
//!
//! The exploration core works on **interned packed configurations**: every visited
//! configuration is serialized once into a canonical flat byte string (see
//! [`snapshot::pack_configuration`]) and hash-consed by a [`StateArena`] into a dense
//! [`StateId`].  The invariants the engine relies on:
//!
//! * the packed encoding is *injective* — equal configurations ⇔ equal bytes — so byte
//!   equality in the arena is configuration equality;
//! * ids are assigned in BFS discovery order, so `depths` is monotone, parent links always
//!   point to smaller ids, and states are expanded in id order (which is what lets the
//!   recorded [`StateGraph`] store edges in one flat CSR vector);
//! * restoring a frontier state borrows its bytes from the arena
//!   ([`snapshot::restore_packed`]); the hot loop performs no configuration clones and no
//!   SipHash hashing.
//!
//! [`Explorer::run`] is the one production engine (the delta engine: execute each distinct
//! local transition once, build every successor from its parent's bytes and the recorded
//! effect, re-hash only the dirty segments).  [`Explorer::run_interned`] is the
//! executable oracle it is tested against: both produce **identical** ids, counts, and
//! reports; see [`explore`] for details.
//!
//! # Quickstart
//!
//! ```
//! use checker::{drivers, properties, scenarios, Explorer, Limits};
//!
//! // Exhaustively check the safety bounds of the full protocol on a 3-node tree.
//! let mut net = scenarios::ss_for_checking(
//!     topology::builders::figure3_tree(),
//!     klex_core::KlConfig::new(2, 3, 3),
//!     |_| Box::new(drivers::AlwaysRequest::new(1)),
//! );
//! let cfg = *net.node(0).config();
//! let report = Explorer::new(&mut net)
//!     .with_limits(Limits { max_configurations: 20_000, max_depth: usize::MAX })
//!     .with_property(properties::safety(cfg))
//!     .run();
//! assert!(report.violations.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cycles;
pub mod drivers;
pub mod explore;
pub mod liveness;
pub mod properties;
pub mod scenarios;
pub mod snapshot;

pub use cycles::{find_progress_cycle, CycleWitness};
pub use liveness::{find_fair_cycles, LassoWitness};
pub use explore::{
    DeadlockWitness, Edge, ExplorationReport, ExploreProgress, Explorer,
    GraphSummary, Limits, StateGraph, Violation,
};
pub use properties::Property;
pub use snapshot::{
    capture, capture_packed, map_packed, pack_configuration, restore, restore_packed,
    segment_term, segmented_hash, unpack_configuration,
    unpack_configuration_into, CheckableNode, Configuration, CtrlState, InternOutcome, NodeState,
    SegmentMap, StateArena, StateId,
};
