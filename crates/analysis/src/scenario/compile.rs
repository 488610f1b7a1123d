//! The runnable form of a scenario and its simulator/harness backends.
//!
//! [`CompiledScenario`] is a validated [`ScenarioSpec`] plus the machinery to instantiate it:
//! build the network (with initial-configuration overrides applied), instantiate the daemon,
//! run warmup → fault → measured phase, and collect the selected metrics.  The same compiled
//! value drives single runs ([`CompiledScenario::run`]), sharded multi-trial experiments
//! ([`CompiledScenario::run_harness`]) and — in the sibling `check` module — the
//! bounded-exhaustive checker ([`CompiledScenario::check`]).
//!
//! # Seed discipline
//!
//! Every randomized ingredient (workload, daemon, fault injector) stores a *base* seed in the
//! spec; a trial adds its [`crate::harness::trial_seed`] stream to it, and random topologies
//! add the trial *index*.  Trial 0 with stream 0 — what [`CompiledScenario::run`] executes —
//! reproduces the spec's seeds exactly, and harness results are independent of the shard
//! count (the discipline inherited from [`crate::harness::run_sharded`]).

use super::schedule;
use super::spec::{DaemonSpec, FaultEventSpec, ProtocolSpec, ScenarioSpec, StopSpec, WorkloadSpec};
use crate::convergence::measure_convergence;
use crate::fairness::FairnessReport;
use crate::harness::{self, ExperimentRow};
use crate::progress::ProgressSink;
use crate::snapshot::{CutVerdict, SnapshotMonitor};
use crate::stats::Summary;
use crate::waiting::waiting_times;
use klex_core::{count_tokens, ladder, ss, KlConfig, KlInspect, LadderNode, LiveCensus, Message};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use topology::{OrientedTree, Topology};
use treenet::app::BoxedDriver;
use treenet::run_sustained;
use treenet::{
    Activation, Adversarial, ChannelLabel, CsState, EnabledShape, EnterCsCursor, EventScheduler,
    FaultInjector, Network, NodeId, Process, RandomFair, RoundRobin, RunOutcome, SnapshotObserver,
    SnapshotRunner, Synchronous, Trace,
};

/// Per-epoch fault applier threaded through `drive`'s measured phase: the caller owns the
/// placement/injector streams so churn events can borrow spec context for donor templates.
type EventApplier<'a, P, T> =
    &'a mut dyn FnMut(&mut Network<P, T>, &FaultEventSpec, &mut StdRng, &mut FaultInjector);

/// A daemon instantiated from a [`DaemonSpec`]: one concrete enum over the bundled daemons,
/// driven through the [`treenet::engine`] loops.
pub enum Daemon {
    /// Deterministic round-robin.
    RoundRobin(RoundRobin),
    /// Seeded uniform random fair daemon.
    RandomFair(RandomFair),
    /// Lock-step synchronous rounds.
    Synchronous(Synchronous),
    /// Bounded-unfairness adversary.
    Adversarial(Adversarial),
}

impl EventScheduler for Daemon {
    fn next_event(&mut self, shape: &EnabledShape<'_>) -> Activation {
        match self {
            Daemon::RoundRobin(d) => d.next_event(shape),
            Daemon::RandomFair(d) => d.next_event(shape),
            Daemon::Synchronous(d) => d.next_event(shape),
            Daemon::Adversarial(d) => d.next_event(shape),
        }
    }
}

impl DaemonSpec {
    /// Instantiates the daemon; `stream` offsets random seeds per trial and
    /// `fallback_victim` is the target of an [`DaemonSpec::Adversarial`] daemon with an empty
    /// victim list (the deepest node of the built topology).
    pub fn instantiate(&self, stream: u64, fallback_victim: NodeId) -> Daemon {
        match self {
            DaemonSpec::RoundRobin => Daemon::RoundRobin(RoundRobin::new()),
            DaemonSpec::RandomFair { seed } => {
                Daemon::RandomFair(RandomFair::new(seed.wrapping_add(stream)))
            }
            DaemonSpec::Synchronous => Daemon::Synchronous(Synchronous::new()),
            DaemonSpec::Adversarial { victims, patience } => {
                let victims =
                    if victims.is_empty() { vec![fallback_victim] } else { victims.clone() };
                Daemon::Adversarial(Adversarial::new(victims, *patience))
            }
        }
    }
}

impl WorkloadSpec {
    /// A per-node driver factory; `stream` offsets random seeds per trial, and `leaves`
    /// flags the leaf nodes of the built topology (consumed by
    /// [`WorkloadSpec::LeafUniform`]).
    pub fn driver_factory(
        &self,
        stream: u64,
        leaves: Vec<bool>,
    ) -> Box<dyn FnMut(NodeId) -> BoxedDriver + '_> {
        match self {
            WorkloadSpec::Idle => Box::new(|_| Box::new(treenet::app::Idle) as BoxedDriver),
            WorkloadSpec::Saturated { units, hold } => {
                let (units, hold) = (*units, *hold);
                Box::new(move |_| Box::new(workloads::Saturated { units, hold }) as BoxedDriver)
            }
            WorkloadSpec::Uniform { seed, p_request, max_units, max_hold } => {
                Box::new(workloads::all_uniform(
                    seed.wrapping_add(stream),
                    *p_request,
                    *max_units,
                    *max_hold,
                ))
            }
            WorkloadSpec::Needs { needs, hold } => {
                let hold = *hold;
                Box::new(move |node| {
                    let units = needs.get(node).copied().unwrap_or(0);
                    Box::new(workloads::Heterogeneous { units, hold }) as BoxedDriver
                })
            }
            WorkloadSpec::LeafUniform { seed, p_request, max_units, max_hold } => {
                let mut uniform = workloads::all_uniform(
                    seed.wrapping_add(stream),
                    *p_request,
                    *max_units,
                    *max_hold,
                );
                Box::new(move |node| {
                    if leaves.get(node).copied().unwrap_or(false) {
                        uniform(node)
                    } else {
                        Box::new(treenet::app::Idle) as BoxedDriver
                    }
                })
            }
        }
    }
}

/// A protocol node the scenario layer can drive generically: every rung of the ladder plus
/// the ring baseline.  Adds declarative-init support and driver replacement (the multi-trial
/// reuse hook) on top of the inspection interface.
pub trait ScenarioNode: Process<Msg = Message> + KlInspect + treenet::Corruptible {
    /// Overwrites the request state (the paper's `State`, `Need`, `RSet`).
    fn set_request_state(&mut self, state: CsState, need: usize, rset: Vec<usize>);

    /// Installs a fresh application driver (each reused trial gets its own seeded driver).
    fn set_driver(&mut self, driver: BoxedDriver);

    /// Marks the root as already bootstrapped, where the rung supports it.
    fn mark_bootstrapped(&mut self) {}

    /// The `(channel, message)` the node's recovery timer would send right now, for rungs
    /// that have one (the ss root's controller retransmission).  Timer-disabled executions
    /// — the checker's fault-schedule prologue — replay it when injected faults have
    /// destroyed every in-flight message.
    fn timeout_message(&self) -> Option<(usize, Message)> {
        None
    }
}

impl ScenarioNode for LadderNode {
    fn set_request_state(&mut self, state: CsState, need: usize, rset: Vec<usize>) {
        self.app.state = state;
        self.app.need = need;
        self.app.rset = rset;
    }
    fn set_driver(&mut self, driver: BoxedDriver) {
        self.app.set_driver(driver);
    }
    fn mark_bootstrapped(&mut self) {
        self.bootstrapped = true;
    }
}

impl ScenarioNode for ss::SsNode {
    fn set_request_state(&mut self, state: CsState, need: usize, rset: Vec<usize>) {
        self.app.state = state;
        self.app.need = need;
        self.app.rset = rset;
    }
    fn set_driver(&mut self, driver: BoxedDriver) {
        self.app.set_driver(driver);
    }
    fn timeout_message(&self) -> Option<(usize, Message)> {
        self.timeout_retransmission()
    }
}

impl ScenarioNode for baselines::ring::RingSsNode {
    fn set_request_state(&mut self, state: CsState, need: usize, rset: Vec<usize>) {
        self.app.state = state;
        self.app.need = need;
        self.app.rset = rset;
    }
    fn set_driver(&mut self, driver: BoxedDriver) {
        self.app.set_driver(driver);
    }
}

/// The result of one fault-schedule epoch: the perturbation applied and whether (and how
/// fast) the network re-converged within the epoch's budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochOutcome {
    /// The epoch's event label ([`FaultEventSpec::label`]).
    pub event: String,
    /// Network size *after* the event (differs across churn epochs).
    pub nodes: usize,
    /// Logical time at which the event was applied.
    pub started_at: u64,
    /// Activations from the event to the start of the sustained-legitimacy streak
    /// (`None`: the re-convergence budget was exhausted).
    pub convergence: Option<u64>,
}

/// The result of one simulated scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Why the measured phase stopped.
    pub outcome: RunOutcome,
    /// Activations the warmup phase took to stabilize (`None`: no warmup, or it failed).
    pub warmup_activations: Option<u64>,
    /// Per-epoch results of the fault-schedule campaign (empty without one, or when the run
    /// was abandoned before the campaign).
    pub epochs: Vec<EpochOutcome>,
    /// Logical time at which the measured phase started (after warmup and fault injection).
    pub started_at: u64,
    /// Logical time at which the measured phase ended.
    pub ended_at: u64,
    /// The selected metrics (see [`super::spec::METRIC_NAMES`]).
    pub metrics: BTreeMap<String, f64>,
    /// Per-cut safety verdicts of the measured phase's consistent snapshots (empty without a
    /// [`super::spec::SnapshotSpec`]).
    pub snapshots: Vec<CutVerdict>,
    /// The application-event trace of the measured phase.
    pub trace: Trace,
}

impl ScenarioOutcome {
    /// Convenience: the metric by name, if it was selected and computable.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }
}

/// Aggregated result of a sharded multi-trial harness run.
#[derive(Debug, Clone)]
pub struct HarnessReport {
    /// The scenario name (table row label).
    pub label: String,
    /// Per-trial metric maps, in trial order (identical for every shard count).
    pub per_trial: Vec<BTreeMap<String, f64>>,
    /// Per-metric summaries over all trials.
    pub summaries: BTreeMap<String, Summary>,
}

impl HarnessReport {
    /// Renders the report as one experiment-table row (mean/p95/max per metric).
    pub fn row(&self) -> ExperimentRow {
        let mut row = ExperimentRow::new(self.label.clone());
        for (metric, summary) in &self.summaries {
            row = row.with_summary(metric, summary);
        }
        row
    }

    /// The distribution of `metric` across the trials, with trials that did not report the
    /// metric counted in the histogram's dedicated [`crate::Histogram::exhausted`] bucket
    /// instead of being folded into the max bucket.  (Metrics like
    /// `convergence_activations` are omitted from a trial's map exactly when the run
    /// exhausted its budget — see [`CompiledScenario::run`]'s metric collection — so
    /// "missing" is the per-trial footprint of [`RunOutcome::Exhausted`].)
    /// # Panics
    ///
    /// Panics on a metric name that no scenario can ever report — an absent-but-known
    /// metric means exhausted trials, an unknown one means a typo at the call site, and
    /// the two must not look alike.
    pub fn distribution(&self, metric: &str, buckets: usize) -> crate::Histogram {
        assert!(
            super::spec::is_metric_name(metric),
            "unknown metric {metric:?} (known: {:?} plus epoch<i>_convergence)",
            super::spec::METRIC_NAMES
        );
        let samples: Vec<u64> = self
            .per_trial
            .iter()
            .filter_map(|trial| trial.get(metric).map(|v| v.max(0.0) as u64))
            .collect();
        let max = samples.iter().copied().max().unwrap_or(0);
        let mut histogram = crate::Histogram::with_range(max + 1, buckets.max(1));
        for trial in &self.per_trial {
            match trial.get(metric) {
                Some(value) => histogram.record(value.max(0.0) as u64),
                None => histogram.record_exhausted(),
            }
        }
        histogram
    }

    /// The fraction of trials in which `metric` was reported with a non-zero value —
    /// `converged`/`satisfied`-style success rates.
    pub fn fraction(&self, metric: &str) -> f64 {
        if self.per_trial.is_empty() {
            return 0.0;
        }
        let hits = self
            .per_trial
            .iter()
            .filter(|trial| trial.get(metric).copied().unwrap_or(0.0) != 0.0)
            .count();
        hits as f64 / self.per_trial.len() as f64
    }
}

/// A validated, runnable scenario — see the [module docs](crate::scenario) and
/// [`ScenarioSpec::compile`].
#[derive(Clone, Debug)]
pub struct CompiledScenario {
    spec: ScenarioSpec,
}

/// `Scenario` is the user-facing name of the compiled form: `Scenario::builder()` starts a
/// spec fluently, `Scenario::run` executes it.
pub type Scenario = CompiledScenario;

impl CompiledScenario {
    pub(crate) fn from_validated(spec: ScenarioSpec) -> Self {
        CompiledScenario { spec }
    }

    /// Starts a fluent [`super::spec::ScenarioBuilder`] (same entry point as
    /// [`ScenarioSpec::builder`]).
    pub fn builder(name: impl Into<String>) -> super::spec::ScenarioBuilder {
        ScenarioSpec::builder(name)
    }

    /// The underlying declarative spec.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Runs the scenario once (trial 0: the spec's seeds, verbatim).
    pub fn run(&self) -> ScenarioOutcome {
        self.run_trial(0, 0)
    }

    /// [`CompiledScenario::run`] under observation: the warmup/fault/measure phase
    /// boundaries report through `sink`, and a cancelled sink abandons the run at the next
    /// phase boundary (the outcome then reads `Exhausted`; cancelling callers discard it).
    /// Observation never changes what an uncancelled run computes.
    pub fn run_observed(&self, sink: &dyn ProgressSink) -> ScenarioOutcome {
        self.run_trial_observed(0, 0, Some(sink))
    }

    /// Runs the scenario once and evaluates the spec's declared temporal monitors
    /// ([`super::spec::ScenarioSpec::properties`]) over the execution — the
    /// simulator-under-monitors backend of the liveness subsystem.
    pub fn run_monitored(&self) -> (ScenarioOutcome, Vec<crate::monitor::MonitorReport>) {
        let outcome = self.run();
        let reports = self.monitor_outcome(&outcome);
        (outcome, reports)
    }

    /// [`CompiledScenario::run_monitored`] under observation (see
    /// [`CompiledScenario::run_observed`] for the reporting and cancellation contract).
    pub fn run_monitored_observed(
        &self,
        sink: &dyn ProgressSink,
    ) -> (ScenarioOutcome, Vec<crate::monitor::MonitorReport>) {
        let outcome = self.run_observed(sink);
        let reports = self.monitor_outcome(&outcome);
        (outcome, reports)
    }

    /// Evaluates the spec's monitors over an already-computed outcome: the measured-phase
    /// trace becomes the observation stream, a converged warmup (and a satisfied
    /// `legitimate`-predicate stop) contribute [`crate::monitor::MonitorEvent::Legitimate`]
    /// observations, and the stream ends finitely at the run's end time.
    pub fn monitor_outcome(&self, outcome: &ScenarioOutcome) -> Vec<crate::monitor::MonitorReport> {
        use crate::monitor::{self, Monitor, MonitorEvent, Observer, StreamEnd};
        let monitors: Vec<Monitor> =
            self.spec.properties.iter().filter_map(|name| Monitor::from_name(name)).collect();
        if monitors.is_empty() {
            return Vec::new();
        }
        let mut observer = Observer::new(self.spec.config.k, self.spec.config.l);
        if let Some(at) = outcome.warmup_activations {
            observer.observe(&MonitorEvent::Legitimate { at });
        }
        // Every re-converged fault epoch is a witnessed legitimacy point: a multi-epoch
        // campaign certifies `convergence-witnessed` once per recovery.
        for epoch in &outcome.epochs {
            if let Some(convergence) = epoch.convergence {
                observer.observe(&MonitorEvent::Legitimate { at: epoch.started_at + convergence });
            }
        }
        monitor::feed_trace(&mut observer, &outcome.trace);
        if let StopSpec::Predicate { name, .. } = &self.spec.stop {
            if name == "legitimate" && outcome.outcome.is_satisfied() {
                if let Some(at) = outcome.outcome.time() {
                    observer.observe(&MonitorEvent::Legitimate { at });
                }
            }
        }
        monitor::finish_all(&mut observer, &monitors, StreamEnd::Finite { at: outcome.ended_at })
    }

    /// Runs one trial: `index` offsets random-topology seeds, `stream` offsets workload,
    /// daemon and fault seeds (pass a [`crate::harness::trial_seed`] stream).
    pub fn run_trial(&self, index: u64, stream: u64) -> ScenarioOutcome {
        self.run_trial_observed(index, stream, None)
    }

    /// [`CompiledScenario::run_trial`] with an optional [`ProgressSink`] threaded into the
    /// warmup/fault/measure phases.
    pub fn run_trial_observed(
        &self,
        index: u64,
        stream: u64,
        sink: Option<&dyn ProgressSink>,
    ) -> ScenarioOutcome {
        match self.spec.protocol {
            ProtocolSpec::Naive | ProtocolSpec::Pusher | ProtocolSpec::NonStab => {
                let construct = self.ladder();
                let (mut net, victim) = self.build_tree_net(index, stream, construct);
                self.drive_tree(&mut net, victim, stream, sink, &construct)
            }
            ProtocolSpec::Ss => {
                let construct =
                    |t, c, d: &mut dyn FnMut(NodeId) -> BoxedDriver| ss::network(t, c, d);
                let (mut net, victim) = self.build_tree_net(index, stream, construct);
                self.drive_tree(&mut net, victim, stream, sink, &construct)
            }
            ProtocolSpec::Ring => {
                let mut net = self.build_ring_net(stream);
                let victim = net.len() - 1;
                let cfg = self.spec.config.to_kl(net.len());
                // The ring baseline has no churn/crash support (validated away); the only
                // schedule epochs reaching it are injector-driven.
                let mut apply =
                    |net: &mut Network<baselines::ring::RingSsNode, topology::Ring>,
                     event: &FaultEventSpec,
                     _placement: &mut StdRng,
                     injector: &mut FaultInjector| match event {
                        FaultEventSpec::Transient { plan } => {
                            injector.inject(net, &plan.to_plan(&cfg));
                        }
                        FaultEventSpec::MessageBurst { drop, duplicate, garbage } => {
                            let plan = treenet::FaultPlan {
                                corrupt_node_prob: 0.0,
                                channel_garbage_max: *garbage,
                                drop_prob: *drop,
                                duplicate_prob: *duplicate,
                                clear_channel_prob: 0.0,
                            };
                            injector.inject(net, &plan);
                        }
                        _ => unreachable!("tree-only fault epochs are rejected at compile time"),
                    };
                self.drive(&mut net, victim, stream, sink, &mut apply)
            }
        }
    }

    /// [`CompiledScenario::drive`] specialized to tree-protocol networks: wires up the full
    /// fault-schedule event applier (including churn, which rebuilds the network over the
    /// placed tree with `construct` providing the donor).
    fn drive_tree<P, F>(
        &self,
        net: &mut Network<P, OrientedTree>,
        fallback_victim: NodeId,
        stream: u64,
        sink: Option<&dyn ProgressSink>,
        construct: &F,
    ) -> ScenarioOutcome
    where
        P: ScenarioNode + treenet::Restartable,
        F: Fn(
            OrientedTree,
            KlConfig,
            &mut dyn FnMut(NodeId) -> BoxedDriver,
        ) -> Network<P, OrientedTree>,
    {
        // The config is pinned to the spec'd size for the whole run: churn is the paper's
        // transient-fault regime (the protocol recovers under fixed parameters), not a
        // reconfiguration of ℓ/CMAX/timeout.
        let cfg = self.spec.config.to_kl(self.spec.topology.len());
        let spec = &self.spec;
        let mut apply = |net: &mut Network<P, OrientedTree>,
                         event: &FaultEventSpec,
                         placement: &mut StdRng,
                         injector: &mut FaultInjector| {
            schedule::apply_event(net, event, &cfg, placement, injector, &mut |tree| {
                let leaves: Vec<bool> = (0..tree.len()).map(|v| tree.is_leaf(v)).collect();
                let mut drivers = spec.workload.driver_factory(stream, leaves);
                construct(tree.clone(), cfg, &mut *drivers)
            });
        };
        self.drive(net, fallback_victim, stream, sink, &mut apply)
    }

    /// Runs the spec's trial plan sharded across up to `shards` worker threads.  Per-trial
    /// seeds are a function of the trial index alone, so the report is identical for every
    /// shard count ([`crate::harness::run_sharded`]'s discipline).
    ///
    /// Tree-protocol scenarios on a fixed (non-seeded) topology reuse **one network per
    /// worker thread** across all its trials: after the first trial the network is reset in
    /// place ([`treenet::Network::reset_trial`] — processes restarted and re-seeded via
    /// [`ScenarioNode::set_driver`], every allocation retained) instead of rebuilt.  Reuse
    /// is behaviourally invisible: a reset network is observationally identical to a fresh
    /// one, so per-trial results match the rebuild path bit-for-bit (asserted by the
    /// scenario reuse tests) and remain independent of the shard count.
    pub fn run_harness(&self, shards: usize) -> HarnessReport {
        self.run_harness_observed(shards, None)
    }

    /// [`CompiledScenario::run_harness`] under observation: completed trials stream out as
    /// the `"trials"` phase, and a cancelled sink makes the remaining trials return empty
    /// metric maps — the report is then partial, and cancelling callers discard it.
    pub fn run_harness_observed(
        &self,
        shards: usize,
        sink: Option<&dyn ProgressSink>,
    ) -> HarnessReport {
        let trials = self.spec.trials.max(1);
        let observer =
            sink.map(|sink| TrialObserver { sink, done: AtomicU64::new(0), total: trials });
        let observer = observer.as_ref();
        let per_trial = match self.spec.protocol {
            ProtocolSpec::Naive | ProtocolSpec::Pusher | ProtocolSpec::NonStab => {
                self.tree_harness_trials(trials, shards, observer, self.ladder())
            }
            ProtocolSpec::Ss => {
                self.tree_harness_trials(trials, shards, observer, |t, c, d| ss::network(t, c, d))
            }
            // The ring baseline has no restart support; its trials rebuild.
            ProtocolSpec::Ring => {
                harness::run_sharded(trials, self.spec.base_seed, shards, |index, stream| {
                    if observer.is_some_and(|o| o.cancelled()) {
                        return BTreeMap::new();
                    }
                    let metrics = self.run_trial(index, stream).metrics;
                    if let Some(observer) = observer {
                        observer.completed_one();
                    }
                    metrics
                })
            }
        };
        HarnessReport {
            label: self.spec.name.clone(),
            summaries: harness::summarize(&per_trial),
            per_trial,
        }
    }

    /// The tree-protocol harness loop: sharded trials with per-worker network reuse (see
    /// [`CompiledScenario::run_harness`]).  Falls back to rebuilding when the topology is
    /// seeded per trial index — there is no fixed shape to reuse.
    fn tree_harness_trials<P, F>(
        &self,
        trials: u64,
        shards: usize,
        observer: Option<&TrialObserver<'_>>,
        construct: F,
    ) -> Vec<BTreeMap<String, f64>>
    where
        P: ScenarioNode + treenet::Restartable,
        F: Fn(
                OrientedTree,
                KlConfig,
                &mut dyn FnMut(NodeId) -> BoxedDriver,
            ) -> Network<P, OrientedTree>
            + Sync,
    {
        // Churned trials end on a different shape than they started; a reused network would
        // leak one trial's final topology into the next, so churn rebuilds per trial too.
        if self.spec.topology.is_seeded() || self.spec.has_churn() {
            return harness::run_sharded(trials, self.spec.base_seed, shards, |index, stream| {
                if observer.is_some_and(|o| o.cancelled()) {
                    return BTreeMap::new();
                }
                let (mut net, victim) =
                    self.build_tree_net(index, stream, |t, c, d| construct(t, c, d));
                let metrics = self
                    .drive_tree(
                        &mut net,
                        victim,
                        stream,
                        None,
                        &|t, c, d: &mut dyn FnMut(NodeId) -> BoxedDriver| construct(t, c, d),
                    )
                    .metrics;
                if let Some(observer) = observer {
                    observer.completed_one();
                }
                metrics
            });
        }
        harness::run_sharded_with(
            trials,
            self.spec.base_seed,
            shards,
            || None::<Network<P, OrientedTree>>,
            |slot, index, stream| {
                if observer.is_some_and(|o| o.cancelled()) {
                    return BTreeMap::new();
                }
                let victim;
                let net = match slot {
                    Some(net) => {
                        victim = deepest_node(net.topology());
                        let leaves: Vec<bool> =
                            (0..net.len()).map(|v| net.topology().is_leaf(v)).collect();
                        let mut drivers = self.spec.workload.driver_factory(stream, leaves);
                        net.reset_trial(|v, node| {
                            node.restart();
                            node.set_driver(drivers(v));
                        });
                        drop(drivers);
                        self.apply_init(net);
                        net
                    }
                    None => {
                        let (net, v) =
                            self.build_tree_net(index, stream, |t, c, d| construct(t, c, d));
                        victim = v;
                        slot.insert(net)
                    }
                };
                let metrics = self
                    .drive_tree(
                        net,
                        victim,
                        stream,
                        None,
                        &|t, c, d: &mut dyn FnMut(NodeId) -> BoxedDriver| construct(t, c, d),
                    )
                    .metrics;
                if let Some(observer) = observer {
                    observer.completed_one();
                }
                metrics
            },
        )
    }

    /// Builds the scenario's network for its token rung — naive, pusher or non-stabilizing
    /// (trial 0, init applied).
    pub fn build_ladder(&self) -> Result<Network<LadderNode, OrientedTree>, super::ScenarioError> {
        self.expect_protocol(self.spec.protocol.rung().is_some(), "naive, pusher or nonstab")?;
        Ok(self.build_tree_net(0, 0, self.ladder()).0)
    }

    /// The network constructor of the spec's token rung.
    ///
    /// # Panics
    ///
    /// Panics if the spec runs the self-stabilizing protocol or the ring baseline.
    pub(super) fn ladder(
        &self,
    ) -> impl Copy
           + Sync
           + Fn(
        OrientedTree,
        KlConfig,
        &mut dyn FnMut(NodeId) -> BoxedDriver,
    ) -> Network<LadderNode, OrientedTree> {
        let rung = self.spec.protocol.rung().expect("a token-rung protocol");
        move |tree, cfg, drivers| ladder::network(rung, tree, cfg, drivers)
    }

    /// Builds the scenario's network for the self-stabilizing protocol (trial 0, init
    /// applied).
    pub fn build_ss(&self) -> Result<Network<ss::SsNode, OrientedTree>, super::ScenarioError> {
        self.expect_protocol(self.spec.protocol == ProtocolSpec::Ss, "ss")?;
        Ok(self.build_tree_net(0, 0, |t, c, d| ss::network(t, c, d)).0)
    }

    /// Instantiates the main-phase daemon (trial 0).  The fallback victim of an empty
    /// adversarial victim list is the deepest node of the trial-0 tree.
    pub fn make_daemon(&self) -> Daemon {
        let victim = match self.spec.protocol {
            ProtocolSpec::Ring => self.spec.topology.len() - 1,
            _ => deepest_node(&self.spec.topology.build(0)),
        };
        self.spec.daemon.instantiate(0, victim)
    }

    fn expect_protocol(&self, holds: bool, expected: &str) -> Result<(), super::ScenarioError> {
        if holds {
            Ok(())
        } else {
            Err(super::ScenarioError::Invalid(format!(
                "scenario {:?} runs the {} protocol, not {expected}",
                self.spec.name,
                self.spec.protocol.label(),
            )))
        }
    }

    /// Builds a tree-protocol network via `construct`, applies the init overrides, and
    /// returns it with the adversarial fallback victim (deepest node).
    fn build_tree_net<P, F>(
        &self,
        index: u64,
        stream: u64,
        construct: F,
    ) -> (Network<P, OrientedTree>, NodeId)
    where
        P: ScenarioNode,
        F: FnOnce(
            OrientedTree,
            KlConfig,
            &mut dyn FnMut(NodeId) -> BoxedDriver,
        ) -> Network<P, OrientedTree>,
    {
        let tree = self.spec.topology.build(index);
        let victim = deepest_node(&tree);
        let leaves: Vec<bool> = (0..tree.len()).map(|v| tree.is_leaf(v)).collect();
        let cfg = self.spec.config.to_kl(tree.len());
        let mut drivers = self.spec.workload.driver_factory(stream, leaves);
        let mut net = construct(tree, cfg, &mut *drivers);
        self.apply_init(&mut net);
        (net, victim)
    }

    fn build_ring_net(&self, stream: u64) -> Network<baselines::ring::RingSsNode, topology::Ring> {
        let n = self.spec.topology.len();
        let cfg = self.spec.config.to_kl(n);
        let mut drivers = self.spec.workload.driver_factory(stream, vec![false; n]);
        let mut net = baselines::ring::network(n, cfg, &mut *drivers);
        self.apply_init(&mut net);
        net
    }

    /// Applies the spec's initial-configuration overrides to a freshly built network.
    pub(super) fn apply_init<P: ScenarioNode, T: Topology>(&self, net: &mut Network<P, T>) {
        let Some(init) = &self.spec.init else { return };
        if init.bootstrapped_root {
            net.node_mut(0).mark_bootstrapped();
        }
        for node_init in &init.nodes {
            net.node_mut(node_init.node).set_request_state(
                node_init.state.to_cs(),
                node_init.need,
                node_init.rset.clone(),
            );
        }
        for inject in &init.inject {
            net.inject_from(inject.from, inject.channel, inject.message.to_message());
        }
    }

    /// Warmup → fault → measured phase → metric collection, generically over the protocol.
    ///
    /// Takes the network by `&mut` so harness workers can reuse one network across trials;
    /// the run-accumulated trace is moved out into the outcome either way.
    fn drive<P, T>(
        &self,
        net: &mut Network<P, T>,
        fallback_victim: NodeId,
        stream: u64,
        sink: Option<&dyn ProgressSink>,
        apply_event: EventApplier<'_, P, T>,
    ) -> ScenarioOutcome
    where
        P: ScenarioNode,
        T: Topology,
    {
        let n = net.len();
        let cfg = self.spec.config.to_kl(n);

        // Phase 1: optional warmup to sustained legitimacy, then reset the counters.
        let mut warmup_activations = None;
        if let Some(warmup) = &self.spec.warmup {
            if let Some(sink) = sink {
                sink.progress("warmup", 0, 1);
            }
            let window = warmup.window.unwrap_or_else(|| crate::convergence::default_window(n));
            let mut daemon = warmup
                .daemon
                .as_ref()
                .unwrap_or(&self.spec.daemon)
                .instantiate(stream, fallback_victim);
            let stabilized =
                measure_convergence(&mut *net, &mut daemon, &cfg, warmup.max_steps, window);
            match stabilized.stabilization_time() {
                Some(at) => warmup_activations = Some(at),
                None => {
                    // Warmup failed: no measurement phase ran, so only the failure flags are
                    // reported — measurement metrics (waits, fairness, …) computed over an
                    // unconverged warmup execution would contaminate harness summaries.
                    let metrics = self
                        .spec
                        .selected_metrics()
                        .into_iter()
                        .filter(|name| name == "satisfied" || name == "converged")
                        .map(|name| (name, 0.0))
                        .collect();
                    return ScenarioOutcome {
                        outcome: RunOutcome::Exhausted(net.now()),
                        warmup_activations: None,
                        epochs: Vec::new(),
                        started_at: net.now(),
                        ended_at: net.now(),
                        metrics,
                        snapshots: Vec::new(),
                        trace: std::mem::take(net.trace_mut()),
                    };
                }
            }
            net.trace_mut().clear();
            net.metrics_mut().reset();
            if let Some(sink) = sink {
                sink.progress("warmup", 1, 1);
            }
        }
        // Cancellation is honored between phases: the network is in a consistent state
        // here, and the measured run is the expensive part being skipped.
        if sink.is_some_and(|s| s.cancelled()) {
            return ScenarioOutcome {
                outcome: RunOutcome::Exhausted(net.now()),
                warmup_activations,
                epochs: Vec::new(),
                started_at: net.now(),
                ended_at: net.now(),
                metrics: BTreeMap::new(),
                snapshots: Vec::new(),
                trace: std::mem::take(net.trace_mut()),
            };
        }

        // Phase 2: optional transient fault.
        if let Some(fault) = &self.spec.fault {
            let mut injector = FaultInjector::new(fault.seed.wrapping_add(stream));
            injector.inject(&mut *net, &fault.plan.to_plan(&cfg));
            if let Some(sink) = sink {
                sink.progress("fault", 1, 1);
            }
        }

        // Phase 2b: the fault-schedule campaign.  Each epoch applies its event and then runs
        // the main daemon until sustained legitimacy (or the epoch budget); the activations
        // from event to streak start are the epoch's recorded stabilization time.  The
        // campaign is a gauntlet preamble to the measured phase, so trace and metrics are
        // reset afterwards just like after warmup.
        let mut epochs = Vec::new();
        if let Some(sched) = &self.spec.fault_schedule {
            if !sched.epochs.is_empty() {
                let mut placement =
                    StdRng::seed_from_u64(schedule::placement_seed(sched.seed, stream));
                let mut injector = FaultInjector::new(schedule::injector_seed(sched.seed, stream));
                let mut daemon = self.spec.daemon.instantiate(stream, fallback_victim);
                let total = sched.epochs.len() as u64;
                for (i, event) in sched.epochs.iter().enumerate() {
                    if sink.is_some_and(|s| s.cancelled()) {
                        break;
                    }
                    let started_at = net.now();
                    apply_event(&mut *net, event, &mut placement, &mut injector);
                    let window = sched
                        .window
                        .unwrap_or_else(|| crate::convergence::default_window(net.len()));
                    let convergence =
                        measure_convergence(&mut *net, &mut daemon, &cfg, sched.max_steps, window)
                            .stabilization_time()
                            .map(|at| at - started_at);
                    epochs.push(EpochOutcome {
                        event: event.label().to_string(),
                        nodes: net.len(),
                        started_at,
                        convergence,
                    });
                    if let Some(sink) = sink {
                        sink.progress("epoch", (i + 1) as u64, total);
                    }
                }
                net.trace_mut().clear();
                net.metrics_mut().reset();
            }
        }

        // Phase 3: the measured run.
        if let Some(sink) = sink {
            sink.progress("measure", 0, 1);
        }
        let mut daemon = self.spec.daemon.instantiate(stream, fallback_victim);
        let phase_start = net.now();
        let base_entries = net.trace().cs_entries(None) as u64;
        // The measured phase never clears the trace, so the CS-entry stop rules read only the
        // events appended since their last observation.
        let mut entries = EnterCsCursor::at_end(net.trace());
        // Snapshot instrumentation is assembled only when the spec asks for it: the
        // uninstrumented arms below are exactly the pre-snapshot code paths.
        let mut snapshots = self.spec.snapshots.as_ref().map(|spec| {
            let monitor = ObservedCuts { inner: SnapshotMonitor::new(&cfg), sink };
            (SnapshotRunner::new(spec.to_plan()), monitor)
        });
        let outcome = match &self.spec.stop {
            StopSpec::Steps { steps } => {
                match &mut snapshots {
                    None => treenet::engine::run(&mut *net, &mut daemon, *steps),
                    Some((runner, monitor)) => {
                        treenet::run_with_snapshots(&mut *net, &mut daemon, *steps, runner, monitor)
                    }
                }
                RunOutcome::Satisfied(net.now())
            }
            StopSpec::Quiescent { max_steps, grace } => match &mut snapshots {
                None => treenet::run_until_quiescent(&mut *net, &mut daemon, *max_steps, *grace),
                Some((runner, monitor)) => treenet::run_until_quiescent_with(
                    &mut *net,
                    &mut daemon,
                    *max_steps,
                    *grace,
                    |net, daemon| runner.step(net, daemon, monitor),
                ),
            },
            StopSpec::CsEntries { entries: target, max_steps } => {
                let mut count = 0u64;
                let pred = |net: &Network<P, T>, _: &Daemon| {
                    entries.advance(net.trace(), |_| count += 1);
                    count >= *target
                };
                match &mut snapshots {
                    None => run_sustained(
                        &mut *net,
                        &mut daemon,
                        *max_steps,
                        0,
                        |net, daemon| {
                            net.step_event(daemon);
                        },
                        pred,
                    ),
                    Some((runner, monitor)) => run_sustained(
                        &mut *net,
                        &mut daemon,
                        *max_steps,
                        0,
                        |net, daemon| runner.step(net, daemon, monitor),
                        pred,
                    ),
                }
            }
            StopSpec::Predicate { name, max_steps, sustained_for } => {
                // `net.len()`, not the entry-time `n`: a churn campaign may have changed the
                // size.
                let mut unserved: Vec<bool> =
                    (0..net.len()).map(|v| net.node(v).is_unsatisfied_requester()).collect();
                let mut unserved_count = unserved.iter().filter(|&&u| u).count();
                let pred = |net: &Network<P, T>, census: &LiveCensus| match name.as_str() {
                    "legitimate" => census.is_legitimate(),
                    "census-complete" => census.census().matches(cfg.l),
                    "all-requesters-served" => {
                        entries.advance(net.trace(), |v| {
                            if std::mem::take(&mut unserved[v]) {
                                unserved_count -= 1;
                            }
                        });
                        unserved_count == 0
                    }
                    _ => unreachable!("predicate names are validated at compile time"),
                };
                // `sustained_for == 0` is the loop's "first time the predicate holds" case.
                let mut census = LiveCensus::new(&*net, &cfg);
                match &mut snapshots {
                    None => run_sustained(
                        &mut *net,
                        &mut census,
                        *max_steps,
                        *sustained_for,
                        |net, census| {
                            census.step(net, &mut daemon);
                        },
                        pred,
                    ),
                    Some((runner, monitor)) => run_sustained(
                        &mut *net,
                        &mut census,
                        *max_steps,
                        *sustained_for,
                        |net, census| {
                            census.track(net, |net, effects| {
                                runner.step_with(net, &mut daemon, monitor, effects)
                            });
                        },
                        pred,
                    ),
                }
            }
        };
        let snapshots = snapshots.map(|(_, m)| m.inner.into_verdicts()).unwrap_or_default();

        if let Some(sink) = sink {
            sink.progress("measure", 1, 1);
        }
        let metrics = self.collect(
            &*net,
            &cfg,
            outcome,
            phase_start,
            warmup_activations,
            base_entries,
            &epochs,
            &snapshots,
        );
        let ended_at = net.now();
        ScenarioOutcome {
            outcome,
            warmup_activations,
            epochs,
            started_at: phase_start,
            ended_at,
            // Moved, not cloned: harness runs drop the outcome's trace immediately, and a
            // per-trial O(events) copy of a 400k-activation trace is real money.
            trace: std::mem::take(net.trace_mut()),
            metrics,
            snapshots,
        }
    }

    /// Computes the selected metrics from the post-run network state.
    #[allow(clippy::too_many_arguments)]
    fn collect<P, T>(
        &self,
        net: &Network<P, T>,
        cfg: &KlConfig,
        outcome: RunOutcome,
        phase_start: u64,
        warmup_activations: Option<u64>,
        base_entries: u64,
        epochs: &[EpochOutcome],
        snapshots: &[CutVerdict],
    ) -> BTreeMap<String, f64>
    where
        P: ScenarioNode,
        T: Topology,
    {
        let n = net.len();
        let mut metrics = BTreeMap::new();
        let selected = self.spec.selected_metrics();
        // The waiting-record scan is O(trace events); only pay it when a waiting metric was
        // actually selected.
        let waits = if selected.iter().any(|m| m == "waiting_max" || m == "waiting_mean") {
            waiting_times(net.trace())
        } else {
            Vec::new()
        };
        // Likewise one O(n) census scan serves every census metric selected.
        let census = selected
            .iter()
            .any(|m| m == "resource_tokens" || m == "census_matches")
            .then(|| count_tokens(net));
        for name in selected {
            let value = match name.as_str() {
                "steps" => Some((net.now() - phase_start) as f64),
                "satisfied" => Some(f64::from(u8::from(outcome.time().is_some()))),
                "converged" => Some(f64::from(u8::from(
                    outcome.is_satisfied()
                        && (self.spec.warmup.is_none() || warmup_activations.is_some()),
                ))),
                "cs_entries" => Some((net.trace().cs_entries(None) as u64 - base_entries) as f64),
                "messages_sent" => Some(net.metrics().messages_sent as f64),
                "in_flight" => Some(net.in_flight() as f64),
                "blocked_requesters" => {
                    Some((0..n).filter(|&v| net.node(v).is_unsatisfied_requester()).count() as f64)
                }
                "jain_index" => Some(FairnessReport::from_trace(net.trace(), n).jain_index),
                // Omitted (not reported as 0) when no request was satisfied, so trials
                // without waiting records are excluded from harness summaries instead of
                // dragging them toward zero — the pre-migration experiment semantics.
                "waiting_max" => {
                    waits.iter().map(|w| w.cs_entries_waited).max().map(|max| max as f64)
                }
                "waiting_mean" => {
                    if waits.is_empty() {
                        None
                    } else {
                        Some(
                            waits.iter().map(|w| w.cs_entries_waited as f64).sum::<f64>()
                                / waits.len() as f64,
                        )
                    }
                }
                "warmup_activations" => warmup_activations.map(|t| t as f64),
                "convergence_activations" => {
                    outcome.time().map(|t| (t - phase_start) as f64).filter(|_| {
                        matches!(self.spec.stop, StopSpec::Predicate { .. })
                            && outcome.is_satisfied()
                    })
                }
                "resource_tokens" => census.map(|c| c.resource as f64),
                "census_matches" => census.map(|c| f64::from(u8::from(c.matches(cfg.l)))),
                "epochs_total"
                | "epochs_converged"
                | "epoch_convergence_mean"
                | "epoch_convergence_max" => None, // inserted below for schedule runs
                "snapshots_taken" | "snapshots_clean" => None, // inserted below for snapshot runs
                _ => unreachable!("metric names are validated at compile time"),
            };
            if let Some(value) = value {
                metrics.insert(name, value);
            }
        }
        // Fault-schedule runs always report the campaign: the per-epoch convergence times
        // are the point of running one, whatever else was selected.  Epochs that failed to
        // re-converge omit their `epoch<i>_convergence` entry (the harness histogram then
        // counts them as exhausted, like `convergence_activations`).
        if self.spec.fault_schedule.is_some() {
            metrics.insert("epochs_total".into(), epochs.len() as f64);
            let conv: Vec<f64> =
                epochs.iter().filter_map(|e| e.convergence.map(|c| c as f64)).collect();
            metrics.insert("epochs_converged".into(), conv.len() as f64);
            if !conv.is_empty() {
                metrics.insert(
                    "epoch_convergence_mean".into(),
                    conv.iter().sum::<f64>() / conv.len() as f64,
                );
                metrics.insert(
                    "epoch_convergence_max".into(),
                    conv.iter().copied().fold(f64::MIN, f64::max),
                );
            }
            for (i, epoch) in epochs.iter().enumerate() {
                if let Some(c) = epoch.convergence {
                    metrics.insert(format!("epoch{i}_convergence"), c as f64);
                }
            }
        }
        // Snapshot runs always report the cut tally: verifying the cuts is the point of
        // taking them, whatever else was selected.
        if self.spec.snapshots.is_some() {
            metrics.insert("snapshots_taken".into(), snapshots.len() as f64);
            metrics.insert(
                "snapshots_clean".into(),
                snapshots.iter().filter(|v| v.clean()).count() as f64,
            );
        }
        metrics
    }
}

/// The scenario layer's snapshot observer: [`SnapshotMonitor`] plus per-cut progress
/// reporting — every completed cut streams out as one unit of the `"snapshot"` phase
/// (total 0: how many cuts a run takes is an outcome, not a plan).
struct ObservedCuts<'s> {
    inner: SnapshotMonitor,
    sink: Option<&'s dyn ProgressSink>,
}

impl<P> SnapshotObserver<P> for ObservedCuts<'_>
where
    P: ScenarioNode,
{
    fn node_state(&mut self, snap: u32, node: NodeId, process: &P) {
        SnapshotObserver::<P>::node_state(&mut self.inner, snap, node, process);
    }

    fn in_transit(&mut self, snap: u32, node: NodeId, label: ChannelLabel, msg: &P::Msg) {
        SnapshotObserver::<P>::in_transit(&mut self.inner, snap, node, label, msg);
    }

    fn cut_complete(&mut self, snap: u32, initiated_at: u64, completed_at: u64) {
        SnapshotObserver::<P>::cut_complete(&mut self.inner, snap, initiated_at, completed_at);
        if let Some(sink) = self.sink {
            sink.progress("snapshot", self.inner.cuts() as u64, 0);
        }
    }
}

/// Shared per-trial bookkeeping of an observed harness run: a monotone completed-trial
/// counter reported through the sink as the `"trials"` phase, plus the cancellation relay
/// the sharded workers poll before claiming a trial.
struct TrialObserver<'s> {
    sink: &'s dyn ProgressSink,
    done: AtomicU64,
    total: u64,
}

impl TrialObserver<'_> {
    fn cancelled(&self) -> bool {
        self.sink.cancelled()
    }

    fn completed_one(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.sink.progress("trials", done, self.total);
    }
}

/// The deepest node of a tree — the default victim of an adversarial daemon.
pub fn deepest_node(tree: &OrientedTree) -> NodeId {
    (0..tree.len()).max_by_key(|&v| tree.depth(v)).unwrap_or(0)
}
