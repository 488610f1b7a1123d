//! Waiting-time accounting.
//!
//! The paper (Section 2, following Raynal) defines the **waiting time** as the maximum number
//! of times all processes can enter the critical section between the moment a process
//! requests the critical section and the moment it enters it.  Theorem 2 bounds it by
//! ℓ(2n−3)² once the protocol has stabilized.
//!
//! [`waiting_times`] recovers exactly that quantity from an execution [`Trace`]: for every
//! matched `RequestIssued → EnterCs` pair of a node, it counts the `EnterCs` events of *other*
//! nodes that fall strictly between the two.

use serde::Serialize;
use treenet::{Event, NodeId, Trace};

/// One satisfied request and the service it had to wait for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct WaitingRecord {
    /// The requesting process.
    pub node: NodeId,
    /// Units requested.
    pub units: usize,
    /// Logical time of the request.
    pub requested_at: u64,
    /// Logical time of the critical-section entry.
    pub entered_at: u64,
    /// Critical-section entries by *other* processes between the two (the paper's waiting
    /// time for this request).
    pub cs_entries_waited: u64,
    /// Elapsed logical time (activations) between request and entry.
    pub activations_waited: u64,
}

/// Extracts one [`WaitingRecord`] per satisfied request found in `trace`.
///
/// Requests that never complete within the trace are ignored (they can be detected separately
/// with [`crate::fairness::FairnessReport`]).
pub fn waiting_times(trace: &Trace) -> Vec<WaitingRecord> {
    // All CS entries, in time order, for the "entries by others" count.
    let entries: Vec<(u64, NodeId)> = trace
        .events()
        .iter()
        .filter(|e| matches!(e.event, Event::EnterCs { .. }))
        .map(|e| (e.at, e.node as NodeId))
        .collect();

    let mut records = Vec::new();
    // Track, per node, the pending request (if any).
    let mut pending: std::collections::BTreeMap<NodeId, (u64, usize)> =
        std::collections::BTreeMap::new();
    for ev in trace.events() {
        let node = ev.node as NodeId;
        match ev.event {
            Event::RequestIssued { units } => {
                pending.entry(node).or_insert((ev.at, units.into()));
            }
            Event::EnterCs { .. } => {
                if let Some((requested_at, units)) = pending.remove(&node) {
                    let waited = entries
                        .iter()
                        .filter(|&&(t, n)| n != node && t > requested_at && t < ev.at)
                        .count() as u64;
                    records.push(WaitingRecord {
                        node,
                        units,
                        requested_at,
                        entered_at: ev.at,
                        cs_entries_waited: waited,
                        activations_waited: ev.at - requested_at,
                    });
                }
            }
            _ => {}
        }
    }
    records
}

/// The largest observed waiting time (in critical-section entries), or 0 for an empty set.
pub fn max_waiting(records: &[WaitingRecord]) -> u64 {
    records.iter().map(|r| r.cs_entries_waited).max().unwrap_or(0)
}

/// Waiting times restricted to one node.
pub fn of_node(records: &[WaitingRecord], node: NodeId) -> Vec<u64> {
    records.iter().filter(|r| r.node == node).map(|r| r.cs_entries_waited).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Trace {
        let mut t = Trace::new();
        // Node 0 requests at t=1, enters at t=20. In between, node 1 enters twice and node 2
        // once; node 0's own entry does not count; an entry at t=25 is outside the window.
        t.push(1, 0, Event::RequestIssued { units: 2 });
        t.push(3, 1, Event::RequestIssued { units: 1 });
        t.push(5, 1, Event::EnterCs { units: 1 });
        t.push(8, 1, Event::ExitCs { units: 1 });
        t.push(10, 2, Event::EnterCs { units: 1 });
        t.push(12, 1, Event::EnterCs { units: 1 });
        t.push(20, 0, Event::EnterCs { units: 2 });
        t.push(25, 2, Event::EnterCs { units: 1 });
        t
    }

    #[test]
    fn counts_entries_by_others_in_window() {
        let records = waiting_times(&trace());
        let r0: Vec<_> = records.iter().filter(|r| r.node == 0).collect();
        assert_eq!(r0.len(), 1);
        assert_eq!(r0[0].cs_entries_waited, 3);
        assert_eq!(r0[0].activations_waited, 19);
        assert_eq!(r0[0].units, 2);
    }

    #[test]
    fn request_without_prior_issue_still_recorded_for_issuer_only() {
        // Node 2 enters at t=10 and t=25 without a recorded request: no records for node 2.
        let records = waiting_times(&trace());
        assert!(records.iter().all(|r| r.node != 2));
    }

    #[test]
    fn immediate_entry_waits_zero() {
        let mut t = Trace::new();
        t.push(4, 3, Event::RequestIssued { units: 1 });
        t.push(5, 3, Event::EnterCs { units: 1 });
        let records = waiting_times(&t);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].cs_entries_waited, 0);
        assert_eq!(max_waiting(&records), 0);
    }

    #[test]
    fn helpers_filter_and_maximise() {
        let records = waiting_times(&trace());
        assert_eq!(max_waiting(&records), 3);
        assert_eq!(of_node(&records, 0), vec![3]);
        assert!(of_node(&records, 7).is_empty());
    }

    #[test]
    fn unsatisfied_requests_are_ignored() {
        let mut t = Trace::new();
        t.push(1, 0, Event::RequestIssued { units: 1 });
        t.push(2, 1, Event::EnterCs { units: 1 });
        let records = waiting_times(&t);
        assert!(records.is_empty());
    }
}
