//! The event-driven execution core: the maintained enabled set, the daemon trait and the run
//! loops.
//!
//! # Why an enabled set
//!
//! A daemon has to know, on every step, which channels of the processes it may pick hold
//! messages.  Re-deriving that by scanning every incident channel of the chosen process is
//! wasted work for the guard-activation protocols this simulator runs (every token handler
//! of the paper is a guard "a message of kind X is at the head of channel q"): after an
//! activation of process `p`, the only guards whose truth can have changed are those of `p`
//! itself (it consumed a message) and of `p`'s tree neighbours (they received the messages
//! `p` sent).  Everything else is unchanged.
//!
//! [`EnabledSet`] exploits exactly that structure.  The network maintains, incrementally and
//! in O(1) per message push/pop:
//!
//! * a per-channel occupancy bitset (one bit per `(node, channel)` pair, CSR layout),
//! * a per-node count of non-empty incoming channels,
//! * a dense, swap-removed list of *delivery-enabled* nodes (nodes with at least one
//!   non-empty incoming channel) with back-pointers, and
//! * the total number of in-flight messages.
//!
//! # The enabled-set invariant
//!
//! After every mutation of the network the following holds (this is what the lock-step walk
//! in `tests/lockstep_walk/` checks against brute force after every activation and surgery):
//!
//! > bit `(v, c)` is set **iff** channel `c` of node `v` is non-empty; `count(v)` equals the
//! > number of set bits of `v`; node `v` is in the dense enabled list **iff** `count(v) > 0`;
//! > and `in_flight` equals the sum of all channel lengths.
//!
//! Every mutation path of [`crate::Network`] preserves it: message delivery and sending in
//! `execute`, the fault-injection entry points `inject_from`/`inject_into`, and direct
//! channel surgery through `channel_mut` (whose guard re-synchronizes the touched channel on
//! drop).  Because each activation of `p` touches only the channels of `p` and its
//! neighbours, the maintenance cost per step is O(messages moved), not O(network).
//!
//! # Tick guards
//!
//! The same reasoning covers the guards at the bottom of a process's loop.  In the regime
//! ℓ ≪ n almost every process is a blocked requester (`State = Req ∧ |RSet| < Need`): none of
//! its tick guards is enabled, nothing but a delivery to it can enable one, and an activation
//! that finds no enabled guard is a stutter step.  The set therefore also keeps one *quiet*
//! bit per node and their popcount, with the invariant
//!
//! > bit `v` is set **only if** `node(v).tick_is_noop()` holds (see
//! > [`crate::Process::tick_is_noop`] for the contract that makes the answer stable).
//!
//! The bit is refreshed from the activated process at the end of every activation that runs
//! it, and cleared by every path that hands out `&mut P` or replaces processes:
//! `Network::node_mut`, `reset_trial` and `rebuild_from` — with the activation itself, the
//! four places `network.rs` mutates a process.  A tick (or a delivery
//! that raced an empty channel) on a quiet node advances the clock, the activation and tick
//! counters and the node's Lamport clock and returns, without touching the topology, the
//! channel slab, the process, or the scratch buffers.  Daemons never see the bits
//! ([`EnabledShape`] does not expose them), so activation sequences, RNG draws, traces and
//! metrics are those of an engine that runs every handler.  There is one execute path and no
//! switch: under `debug_assertions` a quiet tick still runs `on_tick` and asserts that it
//! sent nothing, emitted nothing and left the hint true, which makes every debug-mode suite
//! a differential test of the hint.
//!
//! # One way to step
//!
//! Daemons implement [`EventScheduler`] and read the set through the borrowed
//! [`EnabledShape`]; there is no other daemon interface.  [`crate::Network::step_event`]
//! executes one activation, and the run loops below execute many.  [`run`] executes a fixed
//! number of steps, fully monomorphized over network and daemon.  Every stop rule is one
//! loop, [`run_sustained`]: step until a predicate has held across a window of activations.
//! [`run_until`] is its window 0 (until a predicate holds) and [`run_until_quiescent`] its
//! in-flight watch (until no message is in flight for a grace period).  Callers that step
//! differently — through a live token census, or with the Chandy–Lamport cuts of
//! [`crate::snapshot`] interposed — pass their own step closure.
//! `tests/engine_equivalence.rs` keeps the original scan-based daemons, which re-derive
//! channel occupancy from the channels on every step, and asserts that every bundled daemon
//! matches its reference activation for activation.

use crate::network::Network;
use crate::process::Process;
use crate::scheduler::Activation;
use crate::{ChannelLabel, NodeId};
use topology::Topology;

/// The incrementally maintained enabled/dirty set of a [`Network`].
///
/// See the [module documentation](self) for the invariant this structure maintains.  All
/// queries are O(1) or O(degree/64); all updates are O(1).
#[derive(Clone, Debug)]
pub struct EnabledSet {
    /// CSR channel offsets: channels of node `v` occupy flat indices
    /// `offsets[v]..offsets[v+1]`.
    offsets: Vec<u32>,
    /// Known length of every channel, in CSR order.
    lens: Vec<u32>,
    /// CSR word offsets: the occupancy bits of node `v` occupy
    /// `words[word_offsets[v]..word_offsets[v+1]]`, one bit per channel, LSB first.
    word_offsets: Vec<u32>,
    /// Occupancy bitset words.
    words: Vec<u64>,
    /// Per-node count of non-empty incoming channels.
    count: Vec<u32>,
    /// Dense list of delivery-enabled nodes, in unspecified order.
    nodes: Vec<u32>,
    /// `pos[v]` is the index of `v` in `nodes`, or `u32::MAX` when `v` is not enabled.
    pos: Vec<u32>,
    /// Total number of in-flight messages.
    in_flight: u64,
    /// Quiet-tick bitset, one bit per node (see the module docs, "Tick guards").
    quiet: Vec<u64>,
    /// Number of set bits in `quiet`.
    quiet_count: usize,
}

const ABSENT: u32 = u32::MAX;

impl EnabledSet {
    /// Creates the enabled set for a network whose node `v` has `degrees[v]` channels, all
    /// initially empty.
    pub(crate) fn new(degrees: &[usize]) -> Self {
        let n = degrees.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut word_offsets = Vec::with_capacity(n + 1);
        let (mut co, mut wo) = (0u32, 0u32);
        offsets.push(0);
        word_offsets.push(0);
        for &d in degrees {
            co += d as u32;
            wo += d.div_ceil(64) as u32;
            offsets.push(co);
            word_offsets.push(wo);
        }
        EnabledSet {
            offsets,
            lens: vec![0; co as usize],
            word_offsets,
            words: vec![0; wo as usize],
            count: vec![0; n],
            nodes: Vec::with_capacity(n),
            pos: vec![ABSENT; n],
            in_flight: 0,
            quiet: vec![0; n.div_ceil(64)],
            quiet_count: 0,
        }
    }

    /// Number of processes covered.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.count.len()
    }

    /// Degree of `node` (number of incident channels).
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        (self.offsets[node + 1] - self.offsets[node]) as usize
    }

    /// Number of non-empty incoming channels of `node`.
    #[inline]
    pub fn deliverable_count(&self, node: NodeId) -> usize {
        self.count[node] as usize
    }

    /// Total number of in-flight messages, maintained in O(1).
    #[inline]
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// True when `node`'s ticks are known to be stutter steps (its quiet bit is set).
    #[inline]
    pub fn tick_is_quiet(&self, node: NodeId) -> bool {
        self.quiet[node / 64] & (1u64 << (node % 64)) != 0
    }

    /// Number of nodes whose quiet bit is set, maintained in O(1) (read through
    /// [`Network::blocked_processes`]).
    #[inline]
    pub(crate) fn quiet_count(&self) -> usize {
        self.quiet_count
    }

    /// Number of delivery-enabled nodes (nodes with at least one non-empty channel).
    #[inline]
    pub fn enabled_len(&self) -> usize {
        self.nodes.len()
    }

    /// The `idx`-th delivery-enabled node, in unspecified order (`idx < enabled_len()`).
    #[inline]
    pub fn enabled_node(&self, idx: usize) -> NodeId {
        self.nodes[idx] as NodeId
    }

    /// The first non-empty channel of `node` at or cyclically after `start % degree`, or
    /// `None` when the node has no deliverable message.
    #[inline]
    pub fn next_deliverable_from(&self, node: NodeId, start: ChannelLabel) -> Option<ChannelLabel> {
        if self.count[node] == 0 {
            return None;
        }
        let degree = self.degree(node);
        let start = start % degree; // count > 0 implies degree > 0
        let base = self.word_offsets[node] as usize;
        // Search [start, degree), then wrap to [0, start).
        let num_words = degree.div_ceil(64);
        let first_word = start / 64;
        let high = self.words[base + first_word] & (!0u64 << (start % 64));
        if high != 0 {
            return Some(first_word * 64 + high.trailing_zeros() as usize);
        }
        for w in first_word + 1..num_words {
            let word = self.words[base + w];
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        for w in 0..first_word {
            let word = self.words[base + w];
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        let low = self.words[base + first_word] & !(!0u64 << (start % 64));
        if low != 0 {
            return Some(first_word * 64 + low.trailing_zeros() as usize);
        }
        None
    }

    /// The `idx`-th non-empty channel of `node` in ascending label order, or `None` when
    /// fewer than `idx + 1` channels are non-empty.
    #[inline]
    pub fn nth_deliverable(&self, node: NodeId, mut idx: usize) -> Option<ChannelLabel> {
        if idx >= self.count[node] as usize {
            return None;
        }
        let base = self.word_offsets[node] as usize;
        let num_words = (self.word_offsets[node + 1] as usize) - base;
        for w in 0..num_words {
            let mut word = self.words[base + w];
            let pc = word.count_ones() as usize;
            if idx < pc {
                for _ in 0..idx {
                    word &= word - 1; // clear lowest set bit
                }
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            idx -= pc;
        }
        None
    }

    /// Returns the set to its all-empty initial state in place, retaining every allocation
    /// (the trial-reuse path of [`Network::reset_trial`](crate::Network::reset_trial)).
    pub(crate) fn reset(&mut self) {
        self.lens.fill(0);
        self.words.fill(0);
        self.count.fill(0);
        self.nodes.clear();
        self.pos.fill(ABSENT);
        self.in_flight = 0;
        self.quiet.fill(0);
        self.quiet_count = 0;
    }

    /// Sets `node`'s quiet bit to `quiet`, keeping the popcount.  O(1).
    #[inline]
    pub(crate) fn note_tick_quiet(&mut self, node: NodeId, quiet: bool) {
        let mask = 1u64 << (node % 64);
        let word = &mut self.quiet[node / 64];
        if (*word & mask != 0) != quiet {
            *word ^= mask;
            if quiet {
                self.quiet_count += 1;
            } else {
                self.quiet_count -= 1;
            }
        }
    }

    /// Records that channel `channel` of `node` now holds `new_len` messages, updating the
    /// bitset, counts, dense list and in-flight total.  O(1).
    #[inline]
    pub(crate) fn note_len(&mut self, node: NodeId, channel: ChannelLabel, new_len: usize) {
        let flat = self.offsets[node] as usize + channel;
        let old_len = self.lens[flat];
        let new_len = new_len as u32;
        if old_len == new_len {
            return;
        }
        self.lens[flat] = new_len;
        self.in_flight = self.in_flight + new_len as u64 - old_len as u64;
        if (old_len == 0) != (new_len == 0) {
            let word = self.word_offsets[node] as usize + channel / 64;
            self.words[word] ^= 1u64 << (channel % 64);
            if new_len > 0 {
                self.count[node] += 1;
                if self.count[node] == 1 {
                    self.pos[node] = self.nodes.len() as u32;
                    self.nodes.push(node as u32);
                }
            } else {
                self.count[node] -= 1;
                if self.count[node] == 0 {
                    let at = self.pos[node] as usize;
                    let last = self.nodes.pop().expect("node was enabled");
                    if at < self.nodes.len() {
                        self.nodes[at] = last;
                        self.pos[last as usize] = at as u32;
                    }
                    self.pos[node] = ABSENT;
                }
            }
        }
    }
}

/// A borrowed, concrete view of the enabled set handed to [`EventScheduler`]s.
///
/// Every query on this handle is a direct, inlinable array access — no virtual dispatch on
/// the per-step hot path.  Daemons see network *shape* only, never protocol state.
#[derive(Clone, Copy)]
pub struct EnabledShape<'a> {
    set: &'a EnabledSet,
}

impl<'a> EnabledShape<'a> {
    /// Wraps an enabled set.
    #[inline]
    pub fn new(set: &'a EnabledSet) -> Self {
        EnabledShape { set }
    }

    /// Number of processes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.set.num_nodes()
    }

    /// Degree of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.set.degree(node)
    }

    /// Number of non-empty incoming channels of `node`.
    #[inline]
    pub fn deliverable_count(&self, node: NodeId) -> usize {
        self.set.deliverable_count(node)
    }

    /// First non-empty channel of `node` at or cyclically after `start`.
    #[inline]
    pub fn next_deliverable_from(&self, node: NodeId, start: ChannelLabel) -> Option<ChannelLabel> {
        self.set.next_deliverable_from(node, start)
    }

    /// The `idx`-th non-empty channel of `node` in ascending label order.
    #[inline]
    pub fn nth_deliverable(&self, node: NodeId, idx: usize) -> Option<ChannelLabel> {
        self.set.nth_deliverable(node, idx)
    }

    /// Number of delivery-enabled nodes.
    #[inline]
    pub fn enabled_len(&self) -> usize {
        self.set.enabled_len()
    }

    /// The `idx`-th delivery-enabled node, in unspecified order.
    #[inline]
    pub fn enabled_node(&self, idx: usize) -> NodeId {
        self.set.enabled_node(idx)
    }
}

/// A daemon: chooses each activation from the network's maintained enabled set.
///
/// Implemented by the bundled daemons ([`crate::RoundRobin`], [`crate::RandomFair`],
/// [`crate::Synchronous`], [`crate::Adversarial`]) and by anything that composes them.
pub trait EventScheduler {
    /// Returns the next activation, reading network shape from the maintained enabled set.
    fn next_event(&mut self, shape: &EnabledShape<'_>) -> Activation;
}

/// Why a bounded run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The stop predicate became true at the reported logical time.
    Satisfied(u64),
    /// The step budget was exhausted before the predicate held; carries the logical time at
    /// which the budget ran out, so callers can report *when* they gave up.
    Exhausted(u64),
    /// The network became quiescent (no message in flight) at the reported logical time.
    Quiescent(u64),
}

impl RunOutcome {
    /// The logical time at which the run stopped for a definite reason (the predicate held or
    /// the network went quiescent); `None` when the budget merely ran out.
    pub fn time(&self) -> Option<u64> {
        match self {
            RunOutcome::Satisfied(t) | RunOutcome::Quiescent(t) => Some(*t),
            RunOutcome::Exhausted(_) => None,
        }
    }

    /// The logical time at which the run stopped, for *any* reason — including budget
    /// exhaustion.
    pub fn at(&self) -> u64 {
        match self {
            RunOutcome::Satisfied(t) | RunOutcome::Quiescent(t) | RunOutcome::Exhausted(t) => *t,
        }
    }

    /// True when the predicate was satisfied.
    pub fn is_satisfied(&self) -> bool {
        matches!(self, RunOutcome::Satisfied(_))
    }

    /// True when the step budget ran out before the run stopped for a definite reason.
    pub fn is_exhausted(&self) -> bool {
        matches!(self, RunOutcome::Exhausted(_))
    }
}

/// Runs `steps` activations of `net` under `daemon` through the fused event-driven loop,
/// with every scheduling query inlined against the maintained enabled set (re-exported as
/// [`crate::run_for`]).
pub fn run<P: Process, T: Topology, S: EventScheduler>(
    net: &mut Network<P, T>,
    daemon: &mut S,
    steps: u64,
) {
    net.run_event(daemon, steps, |_| {});
}

/// Like [`run`], additionally invoking `observer` with each executed activation.
///
/// The observer is monomorphized into the loop: passing a no-op closure compiles to the same
/// code as [`run`].  The trace-equivalence tests use it to record activation sequences.
pub fn run_observed<P: Process, T: Topology, S: EventScheduler>(
    net: &mut Network<P, T>,
    daemon: &mut S,
    steps: u64,
    observer: impl FnMut(Activation),
) {
    net.run_event(daemon, steps, observer);
}

/// Runs until `pred(net)` holds (checked before the first and after every activation) or
/// `max_steps` activations have been executed: [`run_sustained`] with window 0.
pub fn run_until<P: Process, T: Topology, S: EventScheduler>(
    net: &mut Network<P, T>,
    daemon: &mut S,
    max_steps: u64,
    mut pred: impl FnMut(&Network<P, T>) -> bool,
) -> RunOutcome {
    run_sustained(
        net,
        daemon,
        max_steps,
        0,
        |net, daemon| {
            net.step_event(daemon);
        },
        |net, _| pred(net),
    )
}

/// Runs until no message is in flight for `grace` consecutive activations (the network is
/// quiescent: nothing will ever change again unless a process spontaneously sends), or
/// until `max_steps` is exhausted.
///
/// A protocol with a root timeout is never truly quiescent; this loop is meant for the
/// *non*-self-stabilizing protocol variants, where quiescence with unsatisfied requests is
/// exactly the deadlock illustrated in Figure 2 of the paper.  It reads
/// [`Network::in_flight`], which the enabled set maintains in O(1).
pub fn run_until_quiescent<P: Process, T: Topology, S: EventScheduler>(
    net: &mut Network<P, T>,
    daemon: &mut S,
    max_steps: u64,
    grace: u64,
) -> RunOutcome {
    run_until_quiescent_with(net, daemon, max_steps, grace, |net, daemon| {
        net.step_event(daemon);
    })
}

/// [`run_until_quiescent`] over any way of executing one activation (a scenario run with
/// snapshots passes [`crate::SnapshotRunner::step`]; marker traffic counts as in flight, so
/// each cut restarts the quiet streak).
///
/// `grace` counts activations, as every window of [`run_sustained`] does: the run stops once
/// the network has been quiet at every observation across `grace` consecutive activations
/// (`grace` 0 stops at the first quiet observation).  A network still quiet when the budget
/// runs out is `Quiescent` too; `Quiescent` carries the time the run stopped, not the time
/// the quiet streak started.
pub fn run_until_quiescent_with<P: Process, T: Topology, C>(
    net: &mut Network<P, T>,
    carried: &mut C,
    max_steps: u64,
    grace: u64,
    step: impl FnMut(&mut Network<P, T>, &mut C),
) -> RunOutcome {
    let quiet = |net: &Network<P, T>, _: &C| net.in_flight() == 0;
    match run_sustained(net, carried, max_steps, grace, step, quiet) {
        RunOutcome::Exhausted(at) if net.in_flight() > 0 => RunOutcome::Exhausted(at),
        _ => RunOutcome::Quiescent(net.now()),
    }
}

/// The one sustained-streak loop: runs `step` until `pred` has held across `window`
/// **consecutive** activations, or `max_steps` activations have been executed.
///
/// `pred` is read on entry and after every activation.  Once it has held at every
/// observation from time `t` to `t + window` the loop returns `Satisfied(t)`, the time the
/// streak *started*; a failed observation starts the streak over.  With `window == 0` it
/// stops the first time `pred` holds (before any step, if it holds on entry).  After
/// `max_steps` activations, and one last reading of `pred`, it returns `Exhausted(now)`.
///
/// `carried` is whatever `step` and `pred` share: the daemon, or a tracker such as
/// `klex_core::LiveCensus` that `step` keeps exact and `pred` reads in O(1).  Every stop
/// rule of the workspace is this loop: [`run_until`] is window 0, [`run_until_quiescent`]
/// watches [`Network::in_flight`], and convergence measurement, a scenario's predicate stop,
/// the checker's stabilized start and the spanning-tree composition watch legitimacy.
// Out of line, like the loops it replaced: inlined into the scenario driver's large body,
// the Theorem-1 trials of the `conv_trials_31` benchmark ran slower than with the replaced
// loops in 9 of 10 paired 15 s runs (median −5 %, 2-core host); out of line they were
// faster in 6 of 10.
#[inline(never)]
pub fn run_sustained<P: Process, T: Topology, C>(
    net: &mut Network<P, T>,
    carried: &mut C,
    max_steps: u64,
    window: u64,
    mut step: impl FnMut(&mut Network<P, T>, &mut C),
    mut pred: impl FnMut(&Network<P, T>, &C) -> bool,
) -> RunOutcome {
    let mut streak_start = None;
    let mut remaining = max_steps;
    loop {
        if pred(net, carried) {
            let start = *streak_start.get_or_insert(net.now());
            if net.now() - start >= window {
                return RunOutcome::Satisfied(start);
            }
        } else {
            streak_start = None;
        }
        if remaining == 0 {
            return RunOutcome::Exhausted(net.now());
        }
        remaining -= 1;
        step(net, carried);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Context, MessageKind};
    use crate::scheduler::RoundRobin;
    use topology::builders;

    fn set_of(degrees: &[usize]) -> EnabledSet {
        EnabledSet::new(degrees)
    }

    #[test]
    fn starts_empty_and_consistent() {
        let s = set_of(&[2, 3, 1]);
        assert_eq!(s.num_nodes(), 3);
        assert_eq!(s.degree(1), 3);
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.enabled_len(), 0);
        for v in 0..3 {
            assert_eq!(s.deliverable_count(v), 0);
            assert_eq!(s.next_deliverable_from(v, 0), None);
            assert_eq!(s.nth_deliverable(v, 0), None);
        }
    }

    #[test]
    fn note_len_tracks_occupancy_and_dense_list() {
        let mut s = set_of(&[2, 3, 1]);
        s.note_len(1, 2, 4);
        s.note_len(1, 0, 1);
        s.note_len(2, 0, 2);
        assert_eq!(s.in_flight(), 7);
        assert_eq!(s.deliverable_count(1), 2);
        assert_eq!(s.enabled_len(), 2);
        assert_eq!(s.nth_deliverable(1, 0), Some(0));
        assert_eq!(s.nth_deliverable(1, 1), Some(2));
        assert_eq!(s.nth_deliverable(1, 2), None);
        assert_eq!(s.next_deliverable_from(1, 1), Some(2));
        assert_eq!(s.next_deliverable_from(1, 0), Some(0));
        // Cyclic wrap: starting past the last set bit wraps to the lowest one.
        s.note_len(1, 2, 0);
        assert_eq!(s.in_flight(), 3);
        assert_eq!(s.next_deliverable_from(1, 1), Some(0));
        // Draining removes from the dense list.
        s.note_len(1, 0, 0);
        assert_eq!(s.deliverable_count(1), 0);
        assert_eq!(s.enabled_len(), 1);
        assert_eq!(s.enabled_node(0), 2);
    }

    #[test]
    fn note_len_is_idempotent_for_unchanged_lengths() {
        let mut s = set_of(&[1]);
        s.note_len(0, 0, 3);
        s.note_len(0, 0, 3);
        assert_eq!(s.in_flight(), 3);
        assert_eq!(s.deliverable_count(0), 1);
    }

    #[test]
    fn quiet_bits_keep_their_popcount_and_reset_with_the_set() {
        let mut s = set_of(&[1; 70]);
        s.note_tick_quiet(3, true);
        s.note_tick_quiet(69, true);
        s.note_tick_quiet(69, true);
        assert!(s.tick_is_quiet(3) && s.tick_is_quiet(69) && !s.tick_is_quiet(4));
        assert_eq!(s.quiet_count(), 2);
        s.note_tick_quiet(3, false);
        s.note_tick_quiet(4, false);
        assert_eq!(s.quiet_count(), 1);
        s.reset();
        assert_eq!(s.quiet_count(), 0);
        assert!(!s.tick_is_quiet(69));
    }

    #[test]
    fn wide_nodes_cross_word_boundaries() {
        // A 130-channel hub: bits span three words.
        let mut s = set_of(&[130]);
        s.note_len(0, 0, 1);
        s.note_len(0, 70, 1);
        s.note_len(0, 129, 1);
        assert_eq!(s.deliverable_count(0), 3);
        assert_eq!(s.nth_deliverable(0, 0), Some(0));
        assert_eq!(s.nth_deliverable(0, 1), Some(70));
        assert_eq!(s.nth_deliverable(0, 2), Some(129));
        assert_eq!(s.next_deliverable_from(0, 1), Some(70));
        assert_eq!(s.next_deliverable_from(0, 71), Some(129));
        s.note_len(0, 0, 0);
        assert_eq!(s.next_deliverable_from(0, 130 - 1), Some(129));
        s.note_len(0, 129, 0);
        assert_eq!(s.next_deliverable_from(0, 100), Some(70), "wraps around");
    }

    #[derive(Clone, Debug)]
    struct Ping;
    impl MessageKind for Ping {
        fn kind(&self) -> &'static str {
            "ping"
        }
    }

    /// Root sends a bounded number of pings down; everyone forwards until they die out at
    /// leaves (leaf swallows them), so the network eventually becomes quiescent.
    struct Limited {
        is_root: bool,
        to_send: u32,
        seen: u32,
    }
    impl Process for Limited {
        type Msg = Ping;
        fn on_message(&mut self, from: ChannelLabel, _m: Ping, ctx: &mut Context<'_, Ping>) {
            self.seen += 1;
            // Forward towards children only (never back to channel 0 unless root).
            if ctx.degree > 1 || self.is_root {
                let next = (from + 1) % ctx.degree;
                if next != 0 || self.is_root {
                    ctx.send(next, Ping);
                }
            }
        }
        fn on_tick(&mut self, ctx: &mut Context<'_, Ping>) {
            if self.is_root && self.to_send > 0 {
                self.to_send -= 1;
                ctx.send(0, Ping);
            }
        }
    }

    fn net() -> Network<Limited, topology::OrientedTree> {
        Network::new(builders::chain(5), |id| Limited { is_root: id == 0, to_send: 3, seen: 0 })
    }

    #[test]
    fn run_advances_the_clock() {
        let mut n = net();
        run(&mut n, &mut RoundRobin::new(), 42);
        assert_eq!(n.now(), 42);
    }

    #[test]
    fn run_until_detects_predicate() {
        let mut n = net();
        let out = run_until(&mut n, &mut RoundRobin::new(), 10_000, |net| net.node(1).seen >= 3);
        assert!(out.is_satisfied());
        assert!(out.time().unwrap() > 0);
    }

    #[test]
    fn run_until_gives_up_after_budget() {
        let mut n = net();
        let out = run_until(&mut n, &mut RoundRobin::new(), 50, |net| net.node(4).seen >= 100);
        assert_eq!(out, RunOutcome::Exhausted(50));
        assert_eq!(out.time(), None);
        assert_eq!(out.at(), 50);
        assert!(out.is_exhausted());
    }

    #[test]
    fn run_until_quiescent_terminates_on_dead_network() {
        let mut n = net();
        let out = run_until_quiescent(&mut n, &mut RoundRobin::new(), 100_000, 20);
        assert!(matches!(out, RunOutcome::Quiescent(_)));
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn predicate_checked_before_first_step() {
        let mut n = net();
        let out = run_until(&mut n, &mut RoundRobin::new(), 10, |_| true);
        assert_eq!(out, RunOutcome::Satisfied(0));
    }

    /// Runs the one loop on `net()` under round robin with a predicate scripted on the clock,
    /// returning the outcome, the clock at return and how often the predicate was read.
    fn scripted(
        max_steps: u64,
        window: u64,
        holds_at: impl Fn(u64) -> bool,
    ) -> (RunOutcome, u64, u64) {
        let mut n = net();
        let mut reads = 0;
        let out = run_sustained(
            &mut n,
            &mut RoundRobin::new(),
            max_steps,
            window,
            |net, daemon| {
                net.step_event(daemon);
            },
            |net, _| {
                reads += 1;
                holds_at(net.now())
            },
        );
        (out, n.now(), reads)
    }

    #[test]
    fn window_zero_stops_on_entry_when_the_predicate_already_holds() {
        assert_eq!(scripted(10, 0, |_| true), (RunOutcome::Satisfied(0), 0, 1));
    }

    #[test]
    fn satisfied_carries_the_start_of_the_streak() {
        assert_eq!(scripted(100, 3, |t| t >= 5), (RunOutcome::Satisfied(5), 8, 9));
    }

    #[test]
    fn a_streak_broken_one_activation_short_starts_over() {
        // Holds at 2, 3, 4, fails at 5 (where the window of 3 from 2 would close), then holds.
        let (out, now, _) = scripted(100, 3, |t| t != 5 && t >= 2);
        assert_eq!((out, now), (RunOutcome::Satisfied(6), 9));
    }

    #[test]
    fn the_last_configuration_of_an_exhausted_budget_is_still_read() {
        assert_eq!(scripted(10, 0, |t| t == 10), (RunOutcome::Satisfied(10), 10, 11));
        assert_eq!(scripted(10, 1, |t| t >= 10), (RunOutcome::Exhausted(10), 10, 11));
        assert_eq!(scripted(0, 0, |_| false), (RunOutcome::Exhausted(0), 0, 1));
    }

    /// [`run_until_quiescent`] on a network that never sends, so it is quiet at every
    /// observation.
    fn quiet(max_steps: u64, grace: u64) -> RunOutcome {
        let mut silent = Network::new(builders::chain(3), |id| Limited {
            is_root: id == 0,
            to_send: 0,
            seen: 0,
        });
        run_until_quiescent(&mut silent, &mut RoundRobin::new(), max_steps, grace)
    }

    #[test]
    fn grace_zero_and_grace_one_stop_at_different_activations() {
        // `grace` is a window of `run_sustained`: 0 stops on entry, 1 one activation later.
        assert_eq!(quiet(100, 0), RunOutcome::Quiescent(0));
        assert_eq!(quiet(100, 1), RunOutcome::Quiescent(1));
    }

    #[test]
    fn quiescence_grace_counts_activations_and_keeps_a_quiet_budget_end() {
        assert_eq!(quiet(100, 5), RunOutcome::Quiescent(5), "a grace of 5 spans 5 activations");
        // The budget runs out before the grace period: still quiet, so still quiescent.
        assert_eq!(quiet(2, 5), RunOutcome::Quiescent(2));
        assert_eq!(quiet(0, 5), RunOutcome::Quiescent(0));
        // Pings still in flight when the budget runs out: exhausted.
        let mut n = net();
        let out = run_until_quiescent(&mut n, &mut RoundRobin::new(), 3, 5);
        assert!(n.in_flight() > 0);
        assert_eq!(out, RunOutcome::Exhausted(3));
    }
}
