//! `stree` — self-stabilizing spanning-tree construction and its composition with the
//! k-out-of-ℓ exclusion protocol.
//!
//! The paper proves its protocol for *oriented trees* and notes in the conclusion that the
//! extension to arbitrary rooted networks "is trivial; it consists of running the protocol
//! concurrently with a spanning tree construction (for message passing systems), such as
//! given in [1, 4]".  This crate builds that missing substrate and realises the extension:
//!
//! * [`protocol`] — a distributed, self-stabilizing BFS spanning-tree construction over a
//!   [`topology::RootedGraph`], in the same asynchronous message-passing model (reliable FIFO
//!   channels, bounded per-process memory) as the exclusion protocol;
//! * [`extract`] — turning the stabilized parent pointers into the [`topology::OrientedTree`]
//!   (parent = channel 0) that [`klex_core::ss`] expects, with graph ↔ tree id mappings;
//! * [`composed`] — the layered composition: stabilize the tree, then stabilize the exclusion
//!   protocol on it, reporting both costs (experiment E11) and returning the live network.
//!
//! # Quickstart
//!
//! ```
//! use stree::composed::compose_with_defaults;
//! use topology::RootedGraph;
//! use treenet::RandomFair;
//!
//! // 2-out-of-3 exclusion on a random general network of 8 processes.
//! let graph = RootedGraph::random_connected(8, 5, 7);
//! let kl = klex_core::KlConfig::new(2, 3, 8);
//! let mut sched = RandomFair::new(1);
//! let composition = compose_with_defaults(
//!     graph,
//!     kl,
//!     |_| Box::new(treenet::app::Idle) as treenet::app::BoxedDriver,
//!     &mut sched,
//! )
//! .expect("stabilizes");
//! assert!(klex_core::is_legitimate(&composition.network, &kl));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod composed;
pub mod extract;
pub mod protocol;

pub use composed::{
    compose, compose_with_defaults, Composition, CompositionBudget, CompositionError,
};
pub use extract::{
    distances_are_exact, extract_tree, parent_map, parents_form_tree, ExtractedTree,
};
pub use protocol::{network, network_with_defaults, Beacon, StConfig, StNode};
