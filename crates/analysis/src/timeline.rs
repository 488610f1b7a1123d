//! Terminal-friendly renderings of executions: per-process activity lanes, the virtual ring,
//! and token-census timelines.
//!
//! These renderings serve the examples and the experiment write-ups: a Figure-2 deadlock is
//! immediately visible as lanes stuck on `r`, the Figure-3 starvation as one lane that never
//! shows `#` while its neighbours alternate, and a transient fault as a census sparkline that
//! departs from `ℓ/1/1` and comes back.

use klex_core::{count_tokens, KlInspect, Message, TokenCensus};
use topology::{OrientedTree, Topology, VirtualRing};
use treenet::{Event, Network, Trace};

/// Per-process activity lanes over a time window.
///
/// Each lane shows `width` samples of the process's request state between `from` and `to`
/// (activation timestamps): `·` idle (`Out`), `r` requesting, `#` executing the critical
/// section.  The state at a sample point is the one established by the last event at or
/// before that activation.
pub fn render_activity_gantt(trace: &Trace, n: usize, from: u64, to: u64, width: usize) -> String {
    let width = width.max(1);
    let to = to.max(from + 1);
    // Per-node, time-ordered (timestamp, state-char) change points.
    let mut changes: Vec<Vec<(u64, char)>> = vec![Vec::new(); n];
    for ev in trace.events() {
        let node = ev.node as usize;
        if node >= n {
            continue;
        }
        let state = match ev.event {
            Event::RequestIssued { .. } => Some('r'),
            Event::EnterCs { .. } => Some('#'),
            Event::ExitCs { .. } => Some('·'),
            Event::Note(_) => None,
        };
        if let Some(c) = state {
            changes[node].push((ev.at, c));
        }
    }
    let mut out = String::new();
    let span = (to - from).max(1);
    for (node, lane_changes) in changes.iter().enumerate() {
        let mut lane = String::with_capacity(width);
        for col in 0..width {
            let t = from + (span * col as u64) / width as u64;
            let state = lane_changes
                .iter()
                .take_while(|(at, _)| *at <= t)
                .last()
                .map(|(_, c)| *c)
                .unwrap_or('·');
            lane.push(state);
        }
        out.push_str(&format!("p{node:<3} {lane}\n"));
    }
    out
}

/// Renders the virtual ring (Euler tour) of an oriented tree as the node sequence a token
/// visits in one full circulation, e.g. `0 → 1 → 2 → 1 → 0 → …` for a small tree.
pub fn render_virtual_ring(tree: &OrientedTree) -> String {
    let ring = VirtualRing::of(tree);
    let mut out = String::new();
    for (i, node) in ring.node_sequence().iter().enumerate() {
        if i > 0 {
            out.push_str(" → ");
        }
        out.push_str(&node.to_string());
    }
    if !ring.is_empty() {
        out.push_str(" → (back to ");
        out.push_str(&ring.node_sequence()[0].to_string());
        out.push(')');
    }
    out
}

/// Records the token census over time and renders it as sparklines.
///
/// Call [`CensusRecorder::observe`] as often as desired (every step, or at a sampling
/// interval); the recorder stores `(activation, census)` pairs.
#[derive(Clone, Debug, Default)]
pub struct CensusRecorder {
    samples: Vec<(u64, TokenCensus)>,
}

impl CensusRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        CensusRecorder::default()
    }

    /// Takes one census sample from the network.
    pub fn observe<P, T>(&mut self, net: &Network<P, T>)
    where
        P: treenet::Process<Msg = Message> + KlInspect,
        T: Topology,
    {
        self.samples.push((net.now(), count_tokens(net)));
    }

    /// The recorded `(activation, census)` samples, in observation order.
    pub fn samples(&self) -> &[(u64, TokenCensus)] {
        &self.samples
    }

    /// The first recorded activation at which the census was exactly `(l, 1, 1)`, if any.
    pub fn first_time_matching(&self, l: usize) -> Option<u64> {
        self.samples.iter().find(|(_, c)| c.matches(l)).map(|(at, _)| *at)
    }

    /// The last recorded activation at which the census was *not* `(l, 1, 1)`, if any —
    /// i.e. the end of the disturbance caused by a fault.
    pub fn last_time_deviating(&self, l: usize) -> Option<u64> {
        self.samples.iter().rev().find(|(_, c)| !c.matches(l)).map(|(at, _)| *at)
    }

    /// Renders the resource/pusher/priority counts as three digit-sparklines resampled to
    /// `width` columns (counts above 9 render as `+`).
    pub fn render_sparklines(&self, width: usize) -> String {
        let width = width.max(1);
        if self.samples.is_empty() {
            return "(no samples)\n".to_string();
        }
        let pick = |col: usize| {
            let idx = col * (self.samples.len() - 1) / width.max(1);
            &self.samples[idx.min(self.samples.len() - 1)].1
        };
        let digit = |x: usize| {
            if x > 9 {
                '+'
            } else {
                char::from_digit(x as u32, 10).unwrap_or('?')
            }
        };
        let mut res = String::new();
        let mut push = String::new();
        let mut prio = String::new();
        for col in 0..width {
            let census = pick(col);
            res.push(digit(census.resource));
            push.push(digit(census.pusher));
            prio.push(digit(census.priority));
        }
        format!("resource {res}\npusher   {push}\npriority {prio}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klex_core::KlConfig;
    use treenet::app::BoxedDriver;
    use treenet::RandomFair;
    use workloads::Saturated;

    #[test]
    fn gantt_shows_requests_and_critical_sections() {
        let tree = topology::builders::figure1_tree();
        let cfg = KlConfig::new(2, 5, 8);
        let drivers = |_| Box::new(Saturated { units: 1, hold: 5 }) as BoxedDriver;
        let mut net = klex_core::ss::network(tree, cfg, drivers);
        let mut sched = RandomFair::new(7);
        for _ in 0..40_000 {
            net.step_event(&mut sched);
        }
        let gantt = render_activity_gantt(net.trace(), 8, 0, net.now(), 60);
        assert_eq!(gantt.lines().count(), 8);
        assert!(gantt.contains('#'), "someone must have executed a critical section:\n{gantt}");
        assert!(gantt.contains('r'), "someone must have waited:\n{gantt}");
        for line in gantt.lines() {
            assert!(line.starts_with('p'));
        }
    }

    #[test]
    fn gantt_of_an_empty_trace_is_all_idle() {
        let trace = Trace::new();
        let gantt = render_activity_gantt(&trace, 3, 0, 100, 10);
        for line in gantt.lines() {
            assert!(line.ends_with(&"·".repeat(10)));
        }
    }

    #[test]
    fn virtual_ring_rendering_matches_the_euler_tour() {
        let tree = topology::builders::figure1_tree();
        let drawn = render_virtual_ring(&tree);
        // The Figure-1/4 ring is r a b a c a r d e d f d g d (as node ids: 0 1 2 1 3 1 0 4 5 4 6 4 7 4).
        assert!(drawn.starts_with("0 → 1 → 2 → 1 → 3 → 1 → 0 → 4"));
        assert!(drawn.ends_with("(back to 0)"));
    }

    #[test]
    fn census_recorder_tracks_fault_and_recovery() {
        let tree = topology::builders::figure1_tree();
        let cfg = KlConfig::new(2, 4, 8);
        let drivers = |_| Box::new(Saturated { units: 1, hold: 5 }) as BoxedDriver;
        let mut net = klex_core::ss::network(tree, cfg, drivers);
        let mut sched = RandomFair::new(3);
        let mut recorder = CensusRecorder::new();
        // Bootstrap.
        for _ in 0..60_000 {
            net.step_event(&mut sched);
        }
        // Inject a surplus token (a transient fault), then watch the census recover.
        net.inject_into(1, 0, Message::ResT);
        for _ in 0..200_000 {
            net.step_event(&mut sched);
            if net.now() % 50 == 0 {
                recorder.observe(&net);
            }
        }
        assert!(!recorder.samples().is_empty());
        let first_ok = recorder.first_time_matching(4);
        let last_bad = recorder.last_time_deviating(4);
        assert!(first_ok.is_some(), "the census must eventually match (l,1,1)");
        assert!(last_bad.is_some(), "the injected surplus must be visible");
        // After the last deviation the census stays correct, i.e. recovery happened.
        let sparks = recorder.render_sparklines(40);
        assert_eq!(sparks.lines().count(), 3);
        assert!(sparks.contains("resource"));
    }

    #[test]
    fn sparklines_handle_empty_and_large_counts() {
        let recorder = CensusRecorder::new();
        assert!(recorder.render_sparklines(10).contains("no samples"));
        let mut loaded = CensusRecorder::new();
        loaded
            .samples
            .push((0, TokenCensus { resource: 12, pusher: 1, priority: 0, ctrl: 1, garbage: 0 }));
        let sparks = loaded.render_sparklines(5);
        assert!(sparks.lines().next().unwrap().contains('+'));
    }
}
