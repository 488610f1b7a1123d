//! Streaming temporal monitors: one observer shared by simulator traces and checker lassos.
//!
//! The paper's specification has temporal content that per-configuration predicates cannot
//! express — *every requesting process eventually enters its critical section*, *the system
//! eventually converges*.  An [`Observer`] reads a stream of [`MonitorEvent`]s once and,
//! once the stream [ends](StreamEnd), renders the [`Verdict`] of any [`Monitor`].  The same
//! observer runs over
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
//! | [`Monitor::RequestEventuallyCS`] | (k, ℓ)-liveness (Specification 1, liveness clause) | a request pending forever (lasso) |
//! | [`Monitor::AtMostKInCS`] | safety: no process uses more than `k` units | a critical section entered with more than `k` units |
//! | [`Monitor::LAvailability`] | safety: at most `ℓ` units in use at once | concurrent critical sections exceeding `ℓ` units |
//! | [`Monitor::ConvergenceWitnessed`] | Theorem 1 (convergence) | never violated; `Satisfied` once sustained legitimacy is observed |

use klex_core::legitimacy::{global_clause, NodeShare};
use klex_core::KlInspect;
use serde::Serialize;
use std::collections::BTreeMap;
use treenet::{CsState, NodeId, Trace};

/// One temporal property of the paper, as a [`crate::scenario::ScenarioSpec::properties`]
/// entry names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Monitor {
    /// (k, ℓ)-liveness, liveness clause: every request is eventually granted.
    RequestEventuallyCS,
    /// Safety, per-process clause: no critical section ever holds more than `k` units.
    AtMostKInCS,
    /// Safety, global clause: at most `ℓ` resource units in use at any instant.
    LAvailability,
    /// Theorem 1 witness: the execution was observed to reach (sustained) legitimacy.
    /// Never violated — absence of convergence within a finite run is inconclusive by
    /// nature.
    ConvergenceWitnessed,
}

impl Monitor {
    /// Every monitor, in declaration order (so `monitor as usize` is its index): the
    /// canonical order of coverage signatures and of `tests/corpus/MANIFEST.json` keys.
    pub const ALL: [Monitor; 4] = [
        Monitor::RequestEventuallyCS,
        Monitor::AtMostKInCS,
        Monitor::LAvailability,
        Monitor::ConvergenceWitnessed,
    ];

    /// The name a spec uses for the monitor (e.g. `"at-most-k-in-cs"`).
    pub fn name(self) -> &'static str {
        match self {
            Monitor::RequestEventuallyCS => "request-eventually-cs",
            Monitor::AtMostKInCS => "at-most-k-in-cs",
            Monitor::LAvailability => "l-availability",
            Monitor::ConvergenceWitnessed => "convergence-witnessed",
        }
    }

    /// The paper property the monitor certifies, for reports and docs.
    pub fn paper_property(self) -> &'static str {
        match self {
            Monitor::RequestEventuallyCS => {
                "(k,l)-liveness: every requesting process eventually enters its critical section"
            }
            Monitor::AtMostKInCS => {
                "safety: no process holds more than k resource units in its critical section"
            }
            Monitor::LAvailability => "safety: at most l resource units are in use at any instant",
            Monitor::ConvergenceWitnessed => {
                "Theorem 1 (convergence): the execution reaches a legitimate configuration"
            }
        }
    }

    /// The monitor called `name` (see [`Monitor::name`]); `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Monitor> {
        Monitor::ALL.into_iter().find(|monitor| monitor.name() == name)
    }
}

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

/// The final verdict of one monitor over one stream.
#[derive(Clone, Debug)]
pub struct MonitorReport {
    /// The monitor.
    pub monitor: Monitor,
    /// The verdict.
    pub verdict: Verdict,
}

/// Reads one observation stream for every [`Monitor`] of a `k`-out-of-`ℓ` scenario; see
/// the [module docs](self).
#[derive(Clone, Debug)]
pub struct Observer {
    k: usize,
    l: usize,
    /// Open requests: requesting node → time the request was issued.
    pending: BTreeMap<NodeId, u64>,
    /// Units held per in-CS process (exit events then release the right amount even if
    /// their `units` payload disagrees).
    held: BTreeMap<NodeId, usize>,
    in_use: usize,
    /// The first breach of the per-process clause.
    over_k: Option<String>,
    /// The first breach of the global clause.
    over_l: Option<String>,
    converged: bool,
    end: Option<StreamEnd>,
}

impl Observer {
    /// An observer with no observations, for the per-process bound `k` and the global
    /// bound `ℓ`.
    pub fn new(k: usize, l: usize) -> Self {
        Observer {
            k,
            l,
            pending: BTreeMap::new(),
            held: BTreeMap::new(),
            in_use: 0,
            over_k: None,
            over_l: None,
            converged: false,
            end: None,
        }
    }

    /// Feeds one observation.  Events arrive in non-decreasing time order.
    pub fn observe(&mut self, event: &MonitorEvent) {
        match *event {
            MonitorEvent::Request { at, node, .. } => {
                self.pending.entry(node).or_insert(at);
            }
            MonitorEvent::Enter { at, node, units } => {
                self.pending.remove(&node);
                // An entering process uses exactly the units it holds.
                let share = NodeShare { reserved: units, in_use: units, priority: false };
                if self.over_k.is_none() && share.clause(node, self.k).is_err() {
                    self.over_k = Some(format!(
                        "process {node} entered its critical section with {units} units at \
                         time {at} but k = {}",
                        self.k
                    ));
                }
                let previous = self.held.insert(node, units).unwrap_or(0);
                self.in_use = self.in_use - previous + units;
                if self.over_l.is_none() && global_clause(self.in_use, self.l).is_err() {
                    self.over_l = Some(format!(
                        "{} units in use at time {at} (process {node} entering with {units}) \
                         but l = {}",
                        self.in_use, self.l
                    ));
                }
            }
            MonitorEvent::Exit { node, .. } => {
                if let Some(released) = self.held.remove(&node) {
                    self.in_use -= released;
                }
            }
            MonitorEvent::Legitimate { .. } => self.converged = true,
        }
    }

    /// Closes the stream; after this every verdict is final.
    pub fn finish(&mut self, end: StreamEnd) {
        self.end = Some(end);
    }

    /// `monitor`'s verdict on the stream so far (final once [`Observer::finish`] ran).
    pub fn verdict(&self, monitor: Monitor) -> Verdict {
        let safety = |violation: &Option<String>| match (violation, self.end) {
            (Some(detail), _) => Verdict::Violated(detail.clone()),
            (None, Some(_)) => Verdict::Satisfied,
            (None, None) => Verdict::Inconclusive,
        };
        match monitor {
            Monitor::RequestEventuallyCS => match self.end {
                None => Verdict::Inconclusive,
                Some(StreamEnd::Finite { .. }) if !self.pending.is_empty() => Verdict::Inconclusive,
                Some(StreamEnd::Finite { .. }) => Verdict::Satisfied,
                Some(StreamEnd::Lasso { cycle_started_at }) => {
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
            },
            Monitor::AtMostKInCS => safety(&self.over_k),
            Monitor::LAvailability => safety(&self.over_l),
            Monitor::ConvergenceWitnessed if self.converged => Verdict::Satisfied,
            Monitor::ConvergenceWitnessed => Verdict::Inconclusive,
        }
    }
}

/// Feeds every application event of a simulator [`Trace`] to the observer, in trace order.
/// Does **not** close the stream — call [`finish_all`] once any extra events (e.g.
/// [`MonitorEvent::Legitimate`]) have been delivered.
pub fn feed_trace(observer: &mut Observer, trace: &Trace) {
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
        observer.observe(&event);
    }
}

/// Closes the stream and reports the verdict of each of `monitors`, in the order given.
pub fn finish_all(
    observer: &mut Observer,
    monitors: &[Monitor],
    end: StreamEnd,
) -> Vec<MonitorReport> {
    observer.finish(end);
    monitors
        .iter()
        .map(|&monitor| MonitorReport { monitor, verdict: observer.verdict(monitor) })
        .collect()
}

/// Replays a checker lasso through the observer: the stem configurations, then one cycle
/// traversal, then [`StreamEnd::Lasso`], which closes the stream.  Events are synthesized
/// from configuration diffs (request issued, critical section entered/left) plus the
/// recorded per-transition critical-section entries (which also capture *instantaneous*
/// critical sections that are invisible as configuration states).  Logical time is the
/// position in the lasso.
pub fn feed_lasso(observer: &mut Observer, witness: &checker::LassoWitness) {
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
                observer.observe(&MonitorEvent::Request { at: 0, node, units: state.need })
            }
            CsState::In => {
                observer.observe(&MonitorEvent::Enter { at: 0, node, units: state.units_in_use() })
            }
            CsState::Out => {}
        }
    }

    // The walk: stem configs (ending at the cycle entry), then around the cycle and back to
    // the entry.  Each consecutive pair is one transition.
    let mut time = 0u64;
    for (pair, cs_entries) in witness.stem_configs.windows(2).zip(&witness.stem_cs) {
        time += 1;
        emit_step(observer, &pair[0], &pair[1], cs_entries, time);
    }
    let cycle_started_at = time;
    let len = witness.cycle_configs.len();
    for i in 0..len {
        let here = &witness.cycle_configs[i];
        let next = &witness.cycle_configs[(i + 1) % len];
        time += 1;
        emit_step(observer, here, next, &witness.cycle_cs[i], time);
    }
    observer.finish(StreamEnd::Lasso { cycle_started_at });
}

/// Emits the events of one transition `before → after` at time `at`.
fn emit_step(
    observer: &mut Observer,
    before: &checker::Configuration,
    after: &checker::Configuration,
    cs_entries: &[NodeId],
    at: u64,
) {
    for (node, (b, a)) in before.nodes.iter().zip(&after.nodes).enumerate() {
        if b.cs != CsState::Req && a.cs == CsState::Req {
            observer.observe(&MonitorEvent::Request { at, node, units: a.need });
        }
        if b.cs != CsState::In && a.cs == CsState::In {
            observer.observe(&MonitorEvent::Enter { at, node, units: a.units_in_use() });
        }
        if b.cs == CsState::In && a.cs != CsState::In {
            observer.observe(&MonitorEvent::Exit { at, node, units: b.units_in_use() });
        }
        // Instantaneous critical sections never show as an `In` configuration: the recorded
        // entry plus the absence of an `In` state after the step means enter-and-exit
        // within this one transition.  The units held at that entry show in neither
        // configuration: a requester reserves at most one more token per step, and only
        // while `|RSet| < Need`, so they are the larger of its `|RSet|` and `Need` before.
        if cs_entries.contains(&node) && a.cs != CsState::In && b.cs != CsState::In {
            let units = b.reserved().max(b.need);
            observer.observe(&MonitorEvent::Enter { at, node, units });
            observer.observe(&MonitorEvent::Exit { at, node, units });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The verdict of `monitor` after `events` and `end` (`None` leaves the stream open).
    fn judge(monitor: Monitor, events: &[MonitorEvent], end: Option<StreamEnd>) -> Verdict {
        let mut observer = Observer::new(2, 3);
        for event in events {
            observer.observe(event);
        }
        if let Some(end) = end {
            observer.finish(end);
        }
        observer.verdict(monitor)
    }

    #[test]
    fn request_eventually_cs_is_inconclusive_on_finite_pending_and_violated_on_lasso() {
        let m = Monitor::RequestEventuallyCS;
        let pending = [MonitorEvent::Request { at: 3, node: 1, units: 2 }];
        assert_eq!(judge(m, &pending, Some(StreamEnd::Finite { at: 100 })), Verdict::Inconclusive);
        let lasso = StreamEnd::Lasso { cycle_started_at: 50 };
        assert!(judge(m, &pending, Some(lasso)).is_violated());

        // A request issued only *after* the cycle started is not a proven starvation: the
        // repeating suffix may serve it in the next iteration, before its issue point.
        let late = [MonitorEvent::Request { at: 60, node: 1, units: 2 }];
        assert!(!judge(m, &late, Some(lasso)).is_violated());
    }

    #[test]
    fn request_eventually_cs_satisfied_when_all_served() {
        let served = [
            MonitorEvent::Request { at: 1, node: 0, units: 1 },
            MonitorEvent::Enter { at: 5, node: 0, units: 1 },
        ];
        let end = Some(StreamEnd::Finite { at: 10 });
        assert_eq!(judge(Monitor::RequestEventuallyCS, &served, end), Verdict::Satisfied);
    }

    #[test]
    fn at_most_k_flags_oversized_critical_sections() {
        let m = Monitor::AtMostKInCS;
        let fits = [
            MonitorEvent::Enter { at: 1, node: 0, units: 2 },
            MonitorEvent::Exit { at: 2, node: 0, units: 2 },
        ];
        assert_eq!(judge(m, &fits, Some(StreamEnd::Finite { at: 3 })), Verdict::Satisfied);
        assert!(judge(m, &[MonitorEvent::Enter { at: 1, node: 0, units: 3 }], None).is_violated());
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

        let mut observer = Observer::new(cfg.k, cfg.l);
        feed_trace(&mut observer, net.trace());
        let end = StreamEnd::Finite { at: net.now() };
        let reports = finish_all(&mut observer, &[Monitor::AtMostKInCS], end);
        assert!(reports[0].verdict.is_violated(), "{reports:?}");
    }

    #[test]
    fn l_availability_tracks_concurrent_units() {
        let m = Monitor::LAvailability;
        let within = [
            MonitorEvent::Enter { at: 1, node: 0, units: 2 },
            MonitorEvent::Enter { at: 2, node: 1, units: 1 },
            MonitorEvent::Exit { at: 3, node: 0, units: 2 },
            MonitorEvent::Enter { at: 4, node: 2, units: 2 },
        ];
        assert_eq!(judge(m, &within, Some(StreamEnd::Finite { at: 5 })), Verdict::Satisfied);
        let over = [
            MonitorEvent::Enter { at: 1, node: 0, units: 2 },
            MonitorEvent::Enter { at: 2, node: 1, units: 2 },
        ];
        assert!(judge(m, &over, None).is_violated());
    }

    #[test]
    fn convergence_witnessed_needs_a_legitimacy_observation() {
        let m = Monitor::ConvergenceWitnessed;
        let end = Some(StreamEnd::Finite { at: 10 });
        assert_eq!(judge(m, &[], end), Verdict::Inconclusive);
        assert_eq!(judge(m, &[MonitorEvent::Legitimate { at: 7 }], end), Verdict::Satisfied);
    }

    #[test]
    fn feed_trace_maps_application_events() {
        let mut trace = Trace::new();
        trace.push(1, 0, treenet::Event::RequestIssued { units: 2 });
        trace.push(4, 0, treenet::Event::EnterCs { units: 2 });
        trace.push(6, 0, treenet::Event::ExitCs { units: 2 });
        let mut observer = Observer::new(2, 3);
        feed_trace(&mut observer, &trace);
        let reports = finish_all(&mut observer, &Monitor::ALL[..3], StreamEnd::Finite { at: 10 });
        assert!(reports.iter().all(|r| r.verdict == Verdict::Satisfied), "{reports:?}");
    }

    #[test]
    fn monitor_names_round_trip() {
        for monitor in Monitor::ALL {
            assert_eq!(Monitor::from_name(monitor.name()), Some(monitor));
        }
        assert_eq!(Monitor::from_name("no-such-monitor"), None);
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
        let mut observer = Observer::new(2, 3);
        feed_lasso(&mut observer, witness);
        assert!(
            observer.verdict(Monitor::RequestEventuallyCS).is_violated(),
            "the monitor must reproduce the checker's liveness verdict"
        );
        // Safety still holds along the livelock lasso.
        for safety in [Monitor::AtMostKInCS, Monitor::LAvailability] {
            let verdict = observer.verdict(safety);
            assert!(
                !verdict.is_violated(),
                "{} must hold along the lasso: {verdict:?}",
                safety.name()
            );
        }
    }
}
