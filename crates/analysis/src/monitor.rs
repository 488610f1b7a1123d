//! Streaming temporal monitors: one observer abstraction shared by simulator traces and
//! checker lassos.
//!
//! The paper's specification has temporal content that per-configuration predicates cannot
//! express — *every requesting process eventually enters its critical section*, *the system
//! eventually converges*.  A [`TemporalMonitor`] observes a stream of [`MonitorEvent`]s and
//! renders a [`Verdict`] once the stream [ends](StreamEnd).  The same monitor runs over
//!
//! * a **simulator trace** ([`feed_trace`]): the stream is the application events of one
//!   finite execution, ended with [`StreamEnd::Finite`] — a liveness monitor can never
//!   return `Violated` from a finite prefix alone, only `Inconclusive`;
//! * a **checker lasso** ([`feed_lasso`]): the stream is the stem followed by one cycle
//!   traversal of a [`checker::LassoWitness`], ended with [`StreamEnd::Lasso`] — because
//!   the cycle repeats forever, a request that is pending when the cycle starts and is
//!   never served inside it *is* a genuine liveness violation.
//!
//! This shared-verdict design is the cross-engine oracle of `klex fuzz`: the checker's
//! fair-cycle pass and the monitor replaying its lasso must agree, and a simulator-observed
//! safety violation must be reproduced by the exhaustive exploration.
//!
//! The two safety monitors read the units a process holds when it enters (`|RSet|`, which
//! `EnterCs` reports and [`feed_lasso`] reads off the configurations) and judge them with
//! the clauses of [`klex_core::legitimacy`], like every other safety consumer.
//!
//! | monitor | paper property | violation |
//! |---|---|---|
//! | [`RequestEventuallyCS`] | (k, ℓ)-liveness (Specification 1, liveness clause) | a request pending forever (lasso) |
//! | [`AtMostKInCS`] | safety: no process uses more than `k` units | a critical section entered with more than `k` units |
//! | [`LAvailability`] | safety: at most `ℓ` units in use at once | concurrent critical sections exceeding `ℓ` units |
//! | [`ConvergenceWitnessed`] | Theorem 1 (convergence) | never violated; `Satisfied` once sustained legitimacy is observed |

use klex_core::legitimacy::{global_clause, NodeShare};
use klex_core::KlInspect;
use serde::Serialize;
use std::collections::BTreeMap;
use treenet::{CsState, NodeId, Trace};

/// The monitor names accepted by [`monitor_for`] and
/// [`crate::scenario::ScenarioSpec::properties`].
pub const MONITOR_NAMES: [&str; 4] =
    ["request-eventually-cs", "at-most-k-in-cs", "l-availability", "convergence-witnessed"];

/// The outcome of one monitored observation stream.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub enum Verdict {
    /// The property held on (and, for a lasso, beyond) the whole stream.
    Satisfied,
    /// The finite stream neither proved nor refuted the property.
    Inconclusive,
    /// The property is violated; the payload says how.
    Violated(String),
}

impl Verdict {
    /// True when the verdict is a violation.
    pub fn is_violated(&self) -> bool {
        matches!(self, Verdict::Violated(_))
    }

    /// A numeric rendering for metric tables: `1` satisfied, `0` inconclusive, `-1`
    /// violated.
    pub fn score(&self) -> f64 {
        match self {
            Verdict::Satisfied => 1.0,
            Verdict::Inconclusive => 0.0,
            Verdict::Violated(_) => -1.0,
        }
    }
}

/// One observation: an application-level happening at logical time `at`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MonitorEvent {
    /// `node` switched from `Out` to `Req`, asking for `units` resource units.
    Request {
        /// Logical time.
        at: u64,
        /// The requesting process.
        node: NodeId,
        /// Units requested.
        units: usize,
    },
    /// `node` entered its critical section holding `units` units.
    Enter {
        /// Logical time.
        at: u64,
        /// The entering process.
        node: NodeId,
        /// Units held.
        units: usize,
    },
    /// `node` left its critical section, releasing `units` units.
    Exit {
        /// Logical time.
        at: u64,
        /// The exiting process.
        node: NodeId,
        /// Units released.
        units: usize,
    },
    /// The global configuration was observed legitimate (sustained) at time `at`.
    Legitimate {
        /// Logical time.
        at: u64,
    },
}

impl MonitorEvent {
    /// The logical time of the observation.
    pub fn at(&self) -> u64 {
        match self {
            MonitorEvent::Request { at, .. }
            | MonitorEvent::Enter { at, .. }
            | MonitorEvent::Exit { at, .. }
            | MonitorEvent::Legitimate { at } => *at,
        }
    }
}

/// How an observation stream ends — the information that separates "saw nothing wrong yet"
/// from "nothing wrong can ever happen".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamEnd {
    /// A finite execution stopped at time `at`; liveness obligations still pending are
    /// *inconclusive*, not violated.
    Finite {
        /// Logical time of the last observation point.
        at: u64,
    },
    /// The suffix of the stream from time `cycle_started_at` onward repeats forever (a
    /// checker lasso); liveness obligations opened at or before the cycle start and not
    /// discharged within it are violated.
    Lasso {
        /// Logical time at which the repeating cycle began.
        cycle_started_at: u64,
    },
}

/// A streaming observer of one temporal property; see the [module docs](self).
pub trait TemporalMonitor {
    /// The monitor's registry name (one of [`MONITOR_NAMES`]).
    fn name(&self) -> &'static str;

    /// The paper property the monitor certifies, for reports and docs.
    fn paper_property(&self) -> &'static str;

    /// Feeds one observation.  Events arrive in non-decreasing time order.
    fn observe(&mut self, event: &MonitorEvent);

    /// Closes the stream; after this the verdict is final.
    fn finish(&mut self, end: StreamEnd);

    /// The verdict so far (final once [`TemporalMonitor::finish`] ran).
    fn verdict(&self) -> Verdict;
}

/// The final verdict of one monitor over one stream, with its identity attached.
#[derive(Clone, Debug, Serialize)]
pub struct MonitorReport {
    /// Monitor name (one of [`MONITOR_NAMES`]).
    pub name: String,
    /// The paper property it certifies.
    pub property: String,
    /// The verdict.
    pub verdict: Verdict,
}

/// Builds the monitor registered under `name` for a `k`-out-of-`l` scenario; `None` for
/// unknown names (see [`MONITOR_NAMES`]).
pub fn monitor_for(name: &str, k: usize, l: usize) -> Option<Box<dyn TemporalMonitor>> {
    Some(match name {
        "request-eventually-cs" => Box::new(RequestEventuallyCS::new()),
        "at-most-k-in-cs" => Box::new(AtMostKInCS::new(k)),
        "l-availability" => Box::new(LAvailability::new(l)),
        "convergence-witnessed" => Box::new(ConvergenceWitnessed::new()),
        _ => return None,
    })
}

/// (k, ℓ)-liveness, liveness clause: every request is eventually granted.
#[derive(Clone, Debug, Default)]
pub struct RequestEventuallyCS {
    /// Open obligations: requesting node → time the request was issued.
    pending: BTreeMap<NodeId, u64>,
    served: u64,
    verdict: Option<Verdict>,
}

impl RequestEventuallyCS {
    /// A fresh monitor with no open obligations.
    pub fn new() -> Self {
        RequestEventuallyCS::default()
    }
}

impl TemporalMonitor for RequestEventuallyCS {
    fn name(&self) -> &'static str {
        "request-eventually-cs"
    }

    fn paper_property(&self) -> &'static str {
        "(k,l)-liveness: every requesting process eventually enters its critical section"
    }

    fn observe(&mut self, event: &MonitorEvent) {
        match event {
            MonitorEvent::Request { at, node, .. } => {
                self.pending.entry(*node).or_insert(*at);
            }
            MonitorEvent::Enter { node, .. } => {
                self.pending.remove(node);
                self.served += 1;
            }
            _ => {}
        }
    }

    fn finish(&mut self, end: StreamEnd) {
        self.verdict = Some(match end {
            StreamEnd::Finite { .. } => {
                if self.pending.is_empty() {
                    Verdict::Satisfied
                } else {
                    Verdict::Inconclusive
                }
            }
            StreamEnd::Lasso { cycle_started_at } => {
                let starved: Vec<NodeId> = self
                    .pending
                    .iter()
                    .filter(|&(_, &since)| since <= cycle_started_at)
                    .map(|(&node, _)| node)
                    .collect();
                if starved.is_empty() {
                    Verdict::Satisfied
                } else {
                    Verdict::Violated(format!(
                        "process(es) {starved:?} request forever without entering the \
                         critical section (pending before the cycle, never served inside it)"
                    ))
                }
            }
        });
    }

    fn verdict(&self) -> Verdict {
        self.verdict.clone().unwrap_or(Verdict::Inconclusive)
    }
}

/// Safety, per-process clause: no critical section ever holds more than `k` units.
#[derive(Clone, Debug)]
pub struct AtMostKInCS {
    k: usize,
    violation: Option<String>,
    finished: bool,
}

impl AtMostKInCS {
    /// A monitor for the per-process bound `k`.
    pub fn new(k: usize) -> Self {
        AtMostKInCS { k, violation: None, finished: false }
    }
}

impl TemporalMonitor for AtMostKInCS {
    fn name(&self) -> &'static str {
        "at-most-k-in-cs"
    }

    fn paper_property(&self) -> &'static str {
        "safety: no process holds more than k resource units in its critical section"
    }

    fn observe(&mut self, event: &MonitorEvent) {
        if let MonitorEvent::Enter { at, node, units } = event {
            // An entering process uses exactly the units it holds.
            let share = NodeShare { reserved: *units, in_use: *units, priority: false };
            if share.clause(*node, self.k).is_err() && self.violation.is_none() {
                self.violation = Some(format!(
                    "process {node} entered its critical section with {units} units at time \
                     {at} but k = {}",
                    self.k
                ));
            }
        }
    }

    fn finish(&mut self, _end: StreamEnd) {
        self.finished = true;
    }

    fn verdict(&self) -> Verdict {
        match (&self.violation, self.finished) {
            (Some(detail), _) => Verdict::Violated(detail.clone()),
            (None, true) => Verdict::Satisfied,
            (None, false) => Verdict::Inconclusive,
        }
    }
}

/// Safety, global clause: at most `ℓ` resource units in use at any instant.
#[derive(Clone, Debug)]
pub struct LAvailability {
    l: usize,
    /// Units currently held per in-CS process (exit events then release the right amount
    /// even if their `units` payload disagrees).
    held: BTreeMap<NodeId, usize>,
    in_use: usize,
    violation: Option<String>,
    finished: bool,
}

impl LAvailability {
    /// A monitor for the global bound `ℓ`.
    pub fn new(l: usize) -> Self {
        LAvailability { l, held: BTreeMap::new(), in_use: 0, violation: None, finished: false }
    }
}

impl TemporalMonitor for LAvailability {
    fn name(&self) -> &'static str {
        "l-availability"
    }

    fn paper_property(&self) -> &'static str {
        "safety: at most l resource units are in use at any instant"
    }

    fn observe(&mut self, event: &MonitorEvent) {
        match event {
            MonitorEvent::Enter { at, node, units } => {
                let previous = self.held.insert(*node, *units).unwrap_or(0);
                self.in_use = self.in_use - previous + units;
                if global_clause(self.in_use, self.l).is_err() && self.violation.is_none() {
                    self.violation = Some(format!(
                        "{} units in use at time {at} (process {node} entering with {units}) \
                         but l = {}",
                        self.in_use, self.l
                    ));
                }
            }
            MonitorEvent::Exit { node, .. } => {
                if let Some(released) = self.held.remove(node) {
                    self.in_use -= released;
                }
            }
            _ => {}
        }
    }

    fn finish(&mut self, _end: StreamEnd) {
        self.finished = true;
    }

    fn verdict(&self) -> Verdict {
        match (&self.violation, self.finished) {
            (Some(detail), _) => Verdict::Violated(detail.clone()),
            (None, true) => Verdict::Satisfied,
            (None, false) => Verdict::Inconclusive,
        }
    }
}

/// Theorem 1 witness: the execution was observed to reach (sustained) legitimacy.  Never
/// violated — absence of convergence within a finite run is inconclusive by nature.
#[derive(Clone, Debug, Default)]
pub struct ConvergenceWitnessed {
    witnessed_at: Option<u64>,
}

impl ConvergenceWitnessed {
    /// A fresh monitor.
    pub fn new() -> Self {
        ConvergenceWitnessed::default()
    }
}

impl TemporalMonitor for ConvergenceWitnessed {
    fn name(&self) -> &'static str {
        "convergence-witnessed"
    }

    fn paper_property(&self) -> &'static str {
        "Theorem 1 (convergence): the execution reaches a legitimate configuration"
    }

    fn observe(&mut self, event: &MonitorEvent) {
        if let MonitorEvent::Legitimate { at } = event {
            self.witnessed_at.get_or_insert(*at);
        }
    }

    fn finish(&mut self, _end: StreamEnd) {}

    fn verdict(&self) -> Verdict {
        if self.witnessed_at.is_some() {
            Verdict::Satisfied
        } else {
            Verdict::Inconclusive
        }
    }
}

/// Feeds every application event of a simulator [`Trace`] to every monitor, in trace order.
/// Does **not** close the stream — call [`finish_all`] once any extra events (e.g.
/// [`MonitorEvent::Legitimate`]) have been delivered.
pub fn feed_trace(monitors: &mut [Box<dyn TemporalMonitor>], trace: &Trace) {
    for traced in trace.events() {
        let (at, node) = (traced.at, traced.node as NodeId);
        let event = match traced.event {
            treenet::Event::RequestIssued { units } => {
                MonitorEvent::Request { at, node, units: units.into() }
            }
            treenet::Event::EnterCs { units } => {
                MonitorEvent::Enter { at, node, units: units.into() }
            }
            treenet::Event::ExitCs { units } => {
                MonitorEvent::Exit { at, node, units: units.into() }
            }
            treenet::Event::Note(_) => continue,
        };
        observe_all(monitors, &event);
    }
}

/// Delivers one event to every monitor.
pub fn observe_all(monitors: &mut [Box<dyn TemporalMonitor>], event: &MonitorEvent) {
    for monitor in monitors.iter_mut() {
        monitor.observe(event);
    }
}

/// Closes the stream for every monitor and collects their reports.
pub fn finish_all(monitors: &mut [Box<dyn TemporalMonitor>], end: StreamEnd) -> Vec<MonitorReport> {
    monitors
        .iter_mut()
        .map(|monitor| {
            monitor.finish(end);
            MonitorReport {
                name: monitor.name().to_string(),
                property: monitor.paper_property().to_string(),
                verdict: monitor.verdict(),
            }
        })
        .collect()
}

/// Replays a checker lasso through the monitors: the stem configurations, then one cycle
/// traversal, then [`StreamEnd::Lasso`].  Events are synthesized from configuration diffs
/// (request issued, critical section entered/left) plus the recorded per-transition
/// critical-section entries (which also capture *instantaneous* critical sections that are
/// invisible as configuration states).  Logical time is the position in the lasso.
pub fn feed_lasso(
    monitors: &mut [Box<dyn TemporalMonitor>],
    witness: &checker::LassoWitness,
) -> Vec<MonitorReport> {
    // Obligations already open in the initial configuration (declarative-init scenarios can
    // start with requests or occupied critical sections).
    let first = witness
        .stem_configs
        .first()
        .or(witness.cycle_configs.first())
        .expect("a lasso has at least one configuration");
    for (node, state) in first.nodes.iter().enumerate() {
        match state.cs {
            CsState::Req => {
                observe_all(monitors, &MonitorEvent::Request { at: 0, node, units: state.need })
            }
            CsState::In => observe_all(
                monitors,
                &MonitorEvent::Enter { at: 0, node, units: state.units_in_use() },
            ),
            CsState::Out => {}
        }
    }

    // The walk: stem configs (ending at the cycle entry), then around the cycle and back to
    // the entry.  Each consecutive pair is one transition.
    let mut time = 0u64;
    let cycle_started_at;
    {
        let stem_pairs = witness.stem_configs.windows(2).zip(&witness.stem_cs);
        for (pair, cs_entries) in stem_pairs {
            time += 1;
            emit_step(monitors, &pair[0], &pair[1], cs_entries, time);
        }
        cycle_started_at = time;
        let len = witness.cycle_configs.len();
        for i in 0..len {
            let here = &witness.cycle_configs[i];
            let next = &witness.cycle_configs[(i + 1) % len];
            time += 1;
            emit_step(monitors, here, next, &witness.cycle_cs[i], time);
        }
    }
    finish_all(monitors, StreamEnd::Lasso { cycle_started_at })
}

/// Emits the events of one transition `before → after` at time `at`.
fn emit_step(
    monitors: &mut [Box<dyn TemporalMonitor>],
    before: &checker::Configuration,
    after: &checker::Configuration,
    cs_entries: &[NodeId],
    at: u64,
) {
    for (node, (b, a)) in before.nodes.iter().zip(&after.nodes).enumerate() {
        if b.cs != CsState::Req && a.cs == CsState::Req {
            observe_all(monitors, &MonitorEvent::Request { at, node, units: a.need });
        }
        if b.cs != CsState::In && a.cs == CsState::In {
            observe_all(monitors, &MonitorEvent::Enter { at, node, units: a.units_in_use() });
        }
        if b.cs == CsState::In && a.cs != CsState::In {
            observe_all(monitors, &MonitorEvent::Exit { at, node, units: b.units_in_use() });
        }
        // Instantaneous critical sections never show as an `In` configuration: the recorded
        // entry plus the absence of an `In` state after the step means enter-and-exit
        // within this one transition.  The units held at that entry show in neither
        // configuration: a requester reserves at most one more token per step, and only
        // while `|RSet| < Need`, so they are the larger of its `|RSet|` and `Need` before.
        if cs_entries.contains(&node) && a.cs != CsState::In && b.cs != CsState::In {
            let units = b.reserved().max(b.need);
            observe_all(monitors, &MonitorEvent::Enter { at, node, units });
            observe_all(monitors, &MonitorEvent::Exit { at, node, units });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed(names: &[&str], k: usize, l: usize) -> Vec<Box<dyn TemporalMonitor>> {
        names.iter().map(|n| monitor_for(n, k, l).expect(n)).collect()
    }

    #[test]
    fn request_eventually_cs_is_inconclusive_on_finite_pending_and_violated_on_lasso() {
        let mut m = RequestEventuallyCS::new();
        m.observe(&MonitorEvent::Request { at: 3, node: 1, units: 2 });
        let mut finite = m.clone();
        finite.finish(StreamEnd::Finite { at: 100 });
        assert_eq!(finite.verdict(), Verdict::Inconclusive);

        let mut lasso = m.clone();
        lasso.finish(StreamEnd::Lasso { cycle_started_at: 50 });
        assert!(lasso.verdict().is_violated());

        // A request issued only *after* the cycle started is not a proven starvation: the
        // repeating suffix may serve it in the next iteration, before its issue point.
        let mut late = RequestEventuallyCS::new();
        late.observe(&MonitorEvent::Request { at: 60, node: 1, units: 2 });
        late.finish(StreamEnd::Lasso { cycle_started_at: 50 });
        assert!(!late.verdict().is_violated());
    }

    #[test]
    fn request_eventually_cs_satisfied_when_all_served() {
        let mut m = RequestEventuallyCS::new();
        m.observe(&MonitorEvent::Request { at: 1, node: 0, units: 1 });
        m.observe(&MonitorEvent::Enter { at: 5, node: 0, units: 1 });
        m.finish(StreamEnd::Finite { at: 10 });
        assert_eq!(m.verdict(), Verdict::Satisfied);
    }

    #[test]
    fn at_most_k_flags_oversized_critical_sections() {
        let mut m = AtMostKInCS::new(2);
        m.observe(&MonitorEvent::Enter { at: 1, node: 0, units: 2 });
        m.observe(&MonitorEvent::Exit { at: 2, node: 0, units: 2 });
        m.finish(StreamEnd::Finite { at: 3 });
        assert_eq!(m.verdict(), Verdict::Satisfied);

        let mut m = AtMostKInCS::new(2);
        m.observe(&MonitorEvent::Enter { at: 1, node: 0, units: 3 });
        assert!(m.verdict().is_violated());
    }

    #[test]
    fn at_most_k_judges_the_units_held_not_the_units_requested() {
        // A corrupted requester asks for k units but holds k + 1 reservations: its entry puts
        // k + 1 units in use, and the trace must say so.
        let cfg = klex_core::KlConfig::new(1, 2, 3);
        let mut net = klex_core::naive::network(topology::builders::figure3_tree(), cfg, |_| {
            Box::new(treenet::app::Idle) as treenet::app::BoxedDriver
        });
        let node = net.node_mut(1);
        node.app.state = CsState::Req;
        node.app.need = cfg.k;
        node.app.rset = vec![0; cfg.k + 1];
        treenet::run_for(&mut net, &mut treenet::RoundRobin::new(), 10);
        assert_eq!(net.trace().cs_entries(Some(1)), 1);

        let mut monitors = boxed(&["at-most-k-in-cs"], cfg.k, cfg.l);
        feed_trace(&mut monitors, net.trace());
        let reports = finish_all(&mut monitors, StreamEnd::Finite { at: net.now() });
        assert!(reports[0].verdict.is_violated(), "{reports:?}");
    }

    #[test]
    fn l_availability_tracks_concurrent_units() {
        let mut m = LAvailability::new(3);
        m.observe(&MonitorEvent::Enter { at: 1, node: 0, units: 2 });
        m.observe(&MonitorEvent::Enter { at: 2, node: 1, units: 1 });
        m.observe(&MonitorEvent::Exit { at: 3, node: 0, units: 2 });
        m.observe(&MonitorEvent::Enter { at: 4, node: 2, units: 2 });
        m.finish(StreamEnd::Finite { at: 5 });
        assert_eq!(m.verdict(), Verdict::Satisfied);

        let mut m = LAvailability::new(3);
        m.observe(&MonitorEvent::Enter { at: 1, node: 0, units: 2 });
        m.observe(&MonitorEvent::Enter { at: 2, node: 1, units: 2 });
        assert!(m.verdict().is_violated());
    }

    #[test]
    fn convergence_witnessed_needs_a_legitimacy_observation() {
        let mut m = ConvergenceWitnessed::new();
        m.finish(StreamEnd::Finite { at: 10 });
        assert_eq!(m.verdict(), Verdict::Inconclusive);
        let mut m = ConvergenceWitnessed::new();
        m.observe(&MonitorEvent::Legitimate { at: 7 });
        m.finish(StreamEnd::Finite { at: 10 });
        assert_eq!(m.verdict(), Verdict::Satisfied);
    }

    #[test]
    fn feed_trace_maps_application_events() {
        let mut trace = Trace::new();
        trace.push(1, 0, treenet::Event::RequestIssued { units: 2 });
        trace.push(4, 0, treenet::Event::EnterCs { units: 2 });
        trace.push(6, 0, treenet::Event::ExitCs { units: 2 });
        let mut monitors =
            boxed(&["request-eventually-cs", "at-most-k-in-cs", "l-availability"], 2, 3);
        feed_trace(&mut monitors, &trace);
        let reports = finish_all(&mut monitors, StreamEnd::Finite { at: 10 });
        assert!(reports.iter().all(|r| r.verdict == Verdict::Satisfied), "{reports:?}");
    }

    #[test]
    fn monitor_registry_knows_exactly_the_published_names() {
        for name in MONITOR_NAMES {
            assert!(monitor_for(name, 1, 2).is_some(), "{name}");
        }
        assert!(monitor_for("no-such-monitor", 1, 2).is_none());
    }

    #[test]
    fn lasso_replay_flags_the_starved_victim() {
        // Explore the Figure-3 pusher livelock and replay its lasso through the monitors:
        // the monitor verdict must agree with the checker's fair-cycle verdict.
        let mut net = klex_core::pusher::network(
            topology::builders::figure3_tree(),
            klex_core::KlConfig::new(2, 3, 3),
            checker::drivers::from_needs_holding(&[1, 2, 1]),
        );
        let report = checker::Explorer::new(&mut net)
            .with_limits(checker::Limits { max_configurations: 600_000, max_depth: usize::MAX })
            .check_liveness(true)
            .run();
        assert!(!report.live());
        let witness = report.liveness.iter().find(|w| w.victim == 1).expect("process a starves");
        let mut monitors = boxed(&MONITOR_NAMES, 2, 3);
        let reports = feed_lasso(&mut monitors, witness);
        let liveness = reports.iter().find(|r| r.name == "request-eventually-cs").unwrap();
        assert!(
            liveness.verdict.is_violated(),
            "the monitor must reproduce the checker's liveness verdict: {reports:?}"
        );
        // Safety still holds along the livelock lasso.
        for safety in ["at-most-k-in-cs", "l-availability"] {
            let r = reports.iter().find(|r| r.name == safety).unwrap();
            assert!(!r.verdict.is_violated(), "{safety} must hold along the lasso");
        }
    }
}
