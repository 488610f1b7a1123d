//! The process abstraction: local algorithms, their execution context, and emitted events.

use crate::{ChannelLabel, NodeId};
use serde::Serialize;

/// Classification of a message for metrics purposes.
///
/// The simulator is generic over the protocol's message type; implementing this trait lets
/// the metrics layer count messages per kind (resource token, pusher, control, ...) without
/// knowing the concrete type.
pub trait MessageKind {
    /// A short static name of the message kind, e.g. `"ResT"` or `"ctrl"`.
    fn kind(&self) -> &'static str;
}

/// A local algorithm executed by one process of the network.
///
/// A process reacts to two stimuli, mirroring the structure of the paper's
/// `repeat forever` loop:
///
/// * [`Process::on_message`] — one message has been received from one incident channel
///   (the body of the per-channel `if receive ⟨...⟩ from q` blocks);
/// * [`Process::on_tick`] — the bottom-of-loop actions (critical-section entry/exit, release
///   of a held priority token, the root's timeout), plus interaction with the application
///   (issuing new requests).
///
/// The simulator calls `on_tick` after every `on_message` and also on dedicated tick
/// activations, so the bottom-of-loop actions are evaluated at least as often as in the
/// paper's loop structure.
pub trait Process {
    /// The protocol's message type.
    type Msg: Clone + std::fmt::Debug + MessageKind;

    /// Handles one message received on channel `from`.
    fn on_message(&mut self, from: ChannelLabel, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>);

    /// Executes the bottom-of-loop actions.
    fn on_tick(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// The tick-guard hint: true when no bottom-of-loop guard of this process is enabled.
    ///
    /// # Contract
    ///
    /// If this returns `true`, then [`Process::on_tick`] called in the current state sends
    /// nothing, emits nothing, calls no application driver and leaves `self` unchanged —
    /// whatever `ctx.now` is.  The process stays in that state until something other than a
    /// tick touches it (a delivery, or surgery through [`crate::Network::node_mut`]), so the
    /// network may remember the answer and execute the process's ticks as stutter steps
    /// without calling `on_tick` at all (see [`crate::engine`], "Tick guards").  Returning
    /// `false` is always sound; the default never claims anything.
    ///
    /// For the paper's protocols the quiet state is the blocked requester,
    /// `State = Req ∧ |RSet| < Need`: no request to issue, no critical section to enter or
    /// leave, and a held priority token stays put.  Two kinds of process must never report
    /// it.  A process whose tick advances a timer (the self-stabilizing root counts its ticks
    /// towards `TimeOut()`) changes state on every tick.  A process in `Out` or `In` consults
    /// its application driver through an opaque `&mut` call (`next_request`, `release_cs`)
    /// whose answer and internal state (an RNG draw, a script cursor) the process cannot
    /// predict, so skipping the call would change the execution.
    fn tick_is_noop(&self) -> bool {
        false
    }
}

/// An application-level event emitted by a process, recorded in the execution trace.
///
/// Four bytes: a long run appends one [`crate::TracedEvent`] per event forever, so unit
/// counts are `u16` (narrow with [`Event::units`]) and notes are a fieldless enum.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Event {
    /// The application switched `State` from `Out` to `Req`, asking for `units` resource units.
    RequestIssued {
        /// Number of resource units requested (1 ≤ units ≤ k).
        units: u16,
    },
    /// The protocol granted the request: `State` switched from `Req` to `In` (`EnterCS()`).
    EnterCs {
        /// Number of resource units held during this critical section.
        units: u16,
    },
    /// The application finished its critical section: `State` switched from `In` to `Out`.
    ExitCs {
        /// Number of resource units released.
        units: u16,
    },
    /// The protocol detected (or decided) something noteworthy, see [`Note`].
    Note(Note),
}

impl Event {
    /// Narrows a unit count to the trace record's `u16`, saturating (a count beyond 65 535
    /// is recorded as 65 535 rather than wrapped).
    pub fn units(units: usize) -> u16 {
        u16::try_from(units).unwrap_or(u16::MAX)
    }
}

/// The noteworthy protocol-level happenings a process can record with [`Event::Note`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Note {
    /// The root started a reset traversal.
    ResetStart,
    /// The controller completed a traversal.
    Circulation,
    /// The root's timeout fired and retransmitted the controller.
    Timeout,
    /// A process performed its one-time start-up action.
    Started,
}

impl Note {
    /// The note's name as traces render it.
    pub fn as_str(self) -> &'static str {
        match self {
            Note::ResetStart => "reset-start",
            Note::Circulation => "circulation",
            Note::Timeout => "timeout",
            Note::Started => "started",
        }
    }
}

impl Serialize for Note {
    fn serialize_json(&self, out: &mut String) {
        self.as_str().serialize_json(out);
    }
}

/// The execution context handed to a process during one activation.
///
/// It exposes the process identity and the only side effects a process may perform: sending
/// messages on its channels and emitting trace events.  Messages are buffered and delivered
/// by the network after the activation returns (send is non-blocking, as in the model).
pub struct Context<'a, M> {
    /// The identifier of the activated process.
    pub node: NodeId,
    /// Number of channels incident to the process (Δp).
    pub degree: usize,
    /// The global activation counter (logical time).
    pub now: u64,
    pub(crate) outbox: &'a mut Vec<(ChannelLabel, M)>,
    pub(crate) events: &'a mut Vec<Event>,
}

impl<'a, M> Context<'a, M> {
    /// Creates a context that is not attached to a network: sends land in `outbox`, events in
    /// `events`.  Useful for unit-testing process logic in isolation.
    pub fn detached(
        node: NodeId,
        degree: usize,
        now: u64,
        outbox: &'a mut Vec<(ChannelLabel, M)>,
        events: &'a mut Vec<Event>,
    ) -> Self {
        Context { node, degree, now, outbox, events }
    }

    /// Sends `msg` on the process's channel `label` (`0 ≤ label < degree`).
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range — a protocol bug, not a runtime condition.
    pub fn send(&mut self, label: ChannelLabel, msg: M) {
        assert!(
            label < self.degree,
            "process {} tried to send on channel {} but has degree {}",
            self.node,
            label,
            self.degree
        );
        self.outbox.push((label, msg));
    }

    /// Sends `msg` on channel `(label + 1) mod degree` — the DFS retransmission rule used by
    /// every token type in the paper.
    pub fn send_next(&mut self, label: ChannelLabel, msg: M) {
        let next = (label + 1) % self.degree.max(1);
        self.send(next, msg);
    }

    /// Records an application-level event in the execution trace.
    pub fn emit(&mut self, event: Event) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Dummy;
    impl MessageKind for Dummy {
        fn kind(&self) -> &'static str {
            "dummy"
        }
    }

    fn ctx<'a>(
        outbox: &'a mut Vec<(ChannelLabel, Dummy)>,
        events: &'a mut Vec<Event>,
    ) -> Context<'a, Dummy> {
        Context { node: 3, degree: 4, now: 17, outbox, events }
    }

    #[test]
    fn send_buffers_messages_in_order() {
        let mut outbox = Vec::new();
        let mut events = Vec::new();
        let mut c = ctx(&mut outbox, &mut events);
        c.send(0, Dummy);
        c.send(3, Dummy);
        assert_eq!(outbox.len(), 2);
        assert_eq!(outbox[0].0, 0);
        assert_eq!(outbox[1].0, 3);
    }

    #[test]
    fn send_next_wraps_around_degree() {
        let mut outbox = Vec::new();
        let mut events = Vec::new();
        let mut c = ctx(&mut outbox, &mut events);
        c.send_next(3, Dummy); // (3+1) % 4 == 0
        c.send_next(1, Dummy); // 2
        assert_eq!(outbox[0].0, 0);
        assert_eq!(outbox[1].0, 2);
    }

    #[test]
    #[should_panic(expected = "tried to send on channel")]
    fn send_rejects_out_of_range_label() {
        let mut outbox = Vec::new();
        let mut events = Vec::new();
        let mut c = ctx(&mut outbox, &mut events);
        c.send(4, Dummy);
    }

    #[test]
    fn emit_records_events() {
        let mut outbox = Vec::new();
        let mut events = Vec::new();
        let mut c = ctx(&mut outbox, &mut events);
        c.emit(Event::RequestIssued { units: 2 });
        c.emit(Event::EnterCs { units: 2 });
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], Event::RequestIssued { units: 2 });
    }
}
