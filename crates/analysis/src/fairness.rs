//! Fairness and starvation measurements.

use serde::Serialize;
use treenet::{Event, NodeId, Trace};

/// Per-execution fairness report.
#[derive(Clone, Debug, Default, Serialize)]
pub struct FairnessReport {
    /// Critical-section entries per node.
    pub entries_per_node: Vec<u64>,
    /// Requests issued per node.
    pub requests_per_node: Vec<u64>,
    /// Nodes that issued at least one request but never entered the critical section.
    pub starved: Vec<NodeId>,
    /// Jain's fairness index over the entry counts of the nodes that requested at least once
    /// (1.0 = perfectly fair, → 1/n as service concentrates on one node).
    pub jain_index: f64,
}

/// Jain's fairness index of a sample (1.0 for a uniform sample, 1/n for a single non-zero).
pub fn jains_index(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sumsq: f64 = xs.iter().map(|x| x * x).sum();
    if sumsq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sumsq)
}

impl FairnessReport {
    /// Builds a report from an execution trace over `n` nodes.
    pub fn from_trace(trace: &Trace, n: usize) -> Self {
        let mut entries = vec![0u64; n];
        let mut requests = vec![0u64; n];
        for ev in trace.events() {
            let node = ev.node as NodeId;
            if node >= n {
                continue;
            }
            match ev.event {
                Event::EnterCs { .. } => entries[node] += 1,
                Event::RequestIssued { .. } => requests[node] += 1,
                _ => {}
            }
        }
        let starved: Vec<NodeId> = (0..n).filter(|&v| requests[v] > 0 && entries[v] == 0).collect();
        let requesters: Vec<f64> =
            (0..n).filter(|&v| requests[v] > 0).map(|v| entries[v] as f64).collect();
        FairnessReport {
            jain_index: jains_index(&requesters),
            entries_per_node: entries,
            requests_per_node: requests,
            starved,
        }
    }

    /// True when no requester was starved.
    pub fn starvation_free(&self) -> bool {
        self.starved.is_empty()
    }

    /// Total critical-section entries.
    pub fn total_entries(&self) -> u64 {
        self.entries_per_node.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Trace {
        let mut t = Trace::new();
        for (at, node) in [(1u64, 0usize), (2, 1), (3, 2)] {
            t.push(at, node, Event::RequestIssued { units: 1 });
        }
        t.push(5, 0, Event::EnterCs { units: 1 });
        t.push(6, 0, Event::ExitCs { units: 1 });
        t.push(7, 1, Event::EnterCs { units: 1 });
        t.push(9, 0, Event::RequestIssued { units: 1 });
        t.push(10, 0, Event::EnterCs { units: 1 });
        t
    }

    #[test]
    fn report_counts_and_detects_starvation() {
        let r = FairnessReport::from_trace(&trace(), 4);
        assert_eq!(r.entries_per_node, vec![2, 1, 0, 0]);
        assert_eq!(r.requests_per_node, vec![2, 1, 1, 0]);
        assert_eq!(r.starved, vec![2]);
        assert!(!r.starvation_free());
        assert_eq!(r.total_entries(), 3);
        // Node 3 never requested, so it does not enter the Jain index; requesters got 2,1,0.
        assert!((r.jain_index - jains_index(&[2.0, 1.0, 0.0])).abs() < 1e-12);
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jains_index(&[]), 1.0);
        assert_eq!(jains_index(&[0.0, 0.0]), 1.0);
        assert!((jains_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert!((jains_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        let uneven = jains_index(&[10.0, 1.0]);
        assert!(uneven < 1.0 && uneven > 0.5);
    }

    #[test]
    fn out_of_range_nodes_are_ignored() {
        let mut t = Trace::new();
        t.push(1, 99, Event::EnterCs { units: 1 });
        let r = FairnessReport::from_trace(&t, 2);
        assert_eq!(r.total_entries(), 0);
        assert!(r.starvation_free());
    }
}
