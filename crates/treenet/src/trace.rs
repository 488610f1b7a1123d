//! Execution traces: time-stamped application events used by the analysis crate.

use crate::process::Event;
use crate::NodeId;
use serde::Serialize;

/// One trace entry: an [`Event`] emitted by `node` at logical time `at`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct TracedEvent {
    /// The global activation counter when the event was emitted.
    pub at: u64,
    /// The process that emitted the event (a [`NodeId`], stored narrow).
    pub node: u32,
    /// The event itself.
    pub event: Event,
}

// A trace grows by one record per event for as long as a run lasts (about 57 k records per
// 10^9 steps of the 1023-node benchmark spec), so the record size is a resident-set term.
const _: () = assert!(std::mem::size_of::<TracedEvent>() <= 16);

/// An append-only log of application events for one execution.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Trace {
    events: Vec<TracedEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace { events: Vec::new() }
    }

    /// Appends an event.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not fit the record's `u32`.
    pub fn push(&mut self, at: u64, node: NodeId, event: Event) {
        let node = u32::try_from(node).expect("node ids fit in u32");
        self.events.push(TracedEvent { at, node, event });
    }

    /// All events in emission order.
    pub fn events(&self) -> &[TracedEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Forgets all events recorded so far (e.g. to measure only the post-stabilization phase).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Number of critical-section entries recorded, optionally restricted to one node.
    pub fn cs_entries(&self, node: Option<NodeId>) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.event, Event::EnterCs { .. }))
            .filter(|e| node.is_none_or(|n| e.node as NodeId == n))
            .count()
    }

    /// Number of requests issued, optionally restricted to one node.
    pub fn requests(&self, node: Option<NodeId>) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.event, Event::RequestIssued { .. }))
            .filter(|e| node.is_none_or(|n| e.node as NodeId == n))
            .count()
    }

    /// Events within the half-open logical-time window `[from, to)`.
    pub fn in_window(&self, from: u64, to: u64) -> impl Iterator<Item = &TracedEvent> {
        self.events.iter().filter(move |e| e.at >= from && e.at < to)
    }
}

/// A position in a [`Trace`]: each [`EnterCsCursor::advance`] reads only the events recorded
/// since the previous one, so a critical-section-entry stop rule read after every activation
/// costs O(new events) instead of a rescan of the whole trace.  The trace must not be
/// cleared while a cursor reads it.
#[derive(Clone, Copy, Debug, Default)]
pub struct EnterCsCursor(usize);

impl EnterCsCursor {
    /// A cursor past every event `trace` holds now ([`Default`] starts at the beginning).
    pub fn at_end(trace: &Trace) -> Self {
        EnterCsCursor(trace.len())
    }

    /// Calls `entered(node)` for every critical-section entry recorded since the last call.
    pub fn advance(&mut self, trace: &Trace, mut entered: impl FnMut(NodeId)) {
        for event in &trace.events()[self.0..] {
            if matches!(event.event, Event::EnterCs { .. }) {
                entered(event.node as NodeId);
            }
        }
        self.0 = trace.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(1, 0, Event::RequestIssued { units: 2 });
        t.push(5, 0, Event::EnterCs { units: 2 });
        t.push(9, 0, Event::ExitCs { units: 2 });
        t.push(3, 1, Event::RequestIssued { units: 1 });
        t.push(12, 1, Event::EnterCs { units: 1 });
        t
    }

    #[test]
    fn counts_entries_and_requests() {
        let t = sample();
        assert_eq!(t.len(), 5);
        assert_eq!(t.cs_entries(None), 2);
        assert_eq!(t.cs_entries(Some(0)), 1);
        assert_eq!(t.requests(None), 2);
        assert_eq!(t.requests(Some(1)), 1);
    }

    #[test]
    fn window_filter() {
        let t = sample();
        assert_eq!(t.in_window(0, 6).count(), 3);
        assert_eq!(t.in_window(9, 13).count(), 2);
    }

    #[test]
    fn narrow_records_serialize_like_the_wide_ones_did() {
        use crate::process::Note;
        let mut t = Trace::new();
        t.push(7, 3, Event::RequestIssued { units: 2 });
        t.push(9, 0, Event::Note(Note::ResetStart));
        let mut json = String::new();
        t.serialize_json(&mut json);
        assert_eq!(
            json,
            concat!(
                r#"{"events":[{"at":7,"node":3,"event":{"RequestIssued":{"units":2}}},"#,
                r#"{"at":9,"node":0,"event":{"Note":"reset-start"}}]}"#
            )
        );
        let names: Vec<&str> = [Note::ResetStart, Note::Circulation, Note::Timeout, Note::Started]
            .iter()
            .map(|n| n.as_str())
            .collect();
        assert_eq!(names, ["reset-start", "circulation", "timeout", "started"]);
    }

    #[test]
    fn clear_empties_the_trace() {
        let mut t = sample();
        assert!(!t.is_empty());
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.cs_entries(None), 0);
    }
}
