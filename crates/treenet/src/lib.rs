//! `treenet` — a discrete-event simulator for asynchronous message-passing protocols on
//! oriented trees (and other topologies).
//!
//! The paper's computation model (Section 2) is reproduced faithfully:
//!
//! * every process runs an infinite loop; in a *step* it receives at most one message from one
//!   of its incident channels and then updates local variables and possibly sends messages;
//! * links are **reliable** and **FIFO**, and may initially contain up to `CMAX` arbitrary
//!   messages (the bounded-garbage assumption required by Gouda–Multari for deterministic
//!   self-stabilization with bounded memory);
//! * executions are **asynchronous but fair**: every process takes infinitely many steps but
//!   there is no bound on the delay between two steps of a process.
//!
//! The simulator realises a step as an [`Activation`] chosen by a daemon (an
//! [`EventScheduler`]): either *deliver* the head message of one incoming channel to its
//! process, or give the process a *tick* (one pass over the bottom-of-loop actions: request
//! issuing, critical section entry/exit, timeouts).  Fair daemons ([`RoundRobin`],
//! [`RandomFair`]) guarantee the paper's fairness assumption; the [`Synchronous`] daemon
//! serializes lock-step rounds; the [`Adversarial`] daemon exercises bounded unfairness to
//! stress waiting times.
//!
//! # The execution engine
//!
//! The network incrementally maintains the set of enabled delivery guards (non-empty
//! channels) and of quiet tick guards ([`engine`]); daemons read it in O(1) through an
//! [`EnabledShape`].  There is one way to step: [`Network::step_event`] executes one
//! activation, and [`engine::run`] (re-exported as [`run_for`]) monomorphizes daemon +
//! network into one allocation-free loop.  Every stop rule is the one sustained-streak loop
//! [`run_sustained`] (step until a predicate has held across a window of activations), with
//! [`run_until`] and [`run_until_quiescent`] its two plain-daemon forms.  [`snapshot`]
//! interposes Chandy–Lamport cuts by handing the loops its own step.

//! Transient faults are modelled by [`fault::FaultInjector`], which corrupts local process
//! state (through the [`fault::Corruptible`] trait), injects bounded channel garbage
//! (through [`fault::ArbitraryMessage`]), and deletes or duplicates in-flight messages —
//! exactly the "arbitrary configuration" from which a self-stabilizing protocol must recover.
//! Crash-restart failures (the paper conclusion's "other failure patterns") are modelled by
//! [`fault::Restartable`] and [`fault::FaultInjector::crash`]: the victim's local state
//! returns to its boot-time value and, optionally, its incoming messages are lost.
//!
//! Execution produces a [`trace::Trace`] of application-level events (requests, critical
//! section entries and exits) and [`metrics::Metrics`] (messages sent per kind, activations),
//! from which the `analysis` crate derives waiting times, throughput, fairness and
//! convergence measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod channel;
pub mod clocks;
pub mod engine;
pub mod fault;
pub mod metrics;
pub mod network;
pub mod process;
pub mod scheduler;
pub mod slab;
pub mod snapshot;
pub mod trace;

pub use app::{AppDriver, CsState};
pub use channel::Channel;
pub use clocks::LamportClocks;
pub use engine::{
    run as run_for, run_sustained, run_until, run_until_quiescent, run_until_quiescent_with,
    EnabledSet, EnabledShape, EventScheduler, RunOutcome,
};
pub use fault::{
    ArbitraryMessage, Corruptible, FaultInjector, FaultPlan, FaultReport, Restartable,
};
pub use metrics::Metrics;
pub use network::{ChannelMut, Network, StepEffects, StepUndo};
pub use process::{Context, Event, MessageKind, Note, Process};
pub use scheduler::{Activation, Adversarial, RandomFair, RoundRobin, Synchronous};
pub use slab::ChannelSlab;
pub use snapshot::{
    run_with_snapshots, InitiatorPolicy, SnapshotMessage, SnapshotObserver, SnapshotPlan,
    SnapshotRunner,
};
pub use trace::{EnterCsCursor, Trace, TracedEvent};

/// Re-export of the node identifier type used throughout.
pub type NodeId = topology::NodeId;
/// Re-export of the channel label type used throughout.
pub type ChannelLabel = topology::ChannelLabel;
