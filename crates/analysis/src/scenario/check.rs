//! The bounded-exhaustive checking backend: lowering a scenario into the `checker` crate.
//!
//! Small instances of a compiled scenario can be verified instead of simulated: the explorer
//! enumerates **every** reachable configuration under **every** scheduling and checks the
//! spec's properties on all of them.  The lowering imposes the checker's soundness
//! requirements:
//!
//! * **stateless drivers** — only workloads expressible as pure functions of the observable
//!   request state lower ([`WorkloadSpec::Idle`], [`WorkloadSpec::Saturated`],
//!   [`WorkloadSpec::Needs`]); the stateful [`WorkloadSpec::Uniform`] is rejected.
//!   A `hold` of 0 lowers to an instantaneous critical section
//!   ([`checker::drivers::AlwaysRequest`]); any non-zero hold lowers to the shortest
//!   *visible* critical section ([`checker::drivers::HoldOneActivation`]);
//! * **no hidden timers** — the self-stabilizing protocol is built with its root timeout
//!   disabled ([`checker::scenarios::DISABLED_TIMEOUT`]), and unless the spec injects its own
//!   initial messages the controller message the first timeout would have produced is
//!   injected so the protocol can still bootstrap;
//! * the daemon, warmup, fault and stop condition of the spec do not apply — exploration
//!   covers all schedules from the (init-adjusted) initial configuration, bounded by
//!   [`super::spec::CheckSpec`].

use super::compile::{CompiledScenario, ScenarioNode};
use super::schedule;
use super::spec::{ProtocolSpec, WorkloadSpec};
use super::ScenarioError;
use crate::progress::ProgressSink;
use checker::snapshot::CheckableNode;
use checker::{
    drivers, properties, ExplorationReport, ExploreEngine, ExploreProgress, Explorer, Limits,
};
use klex_core::{naive, nonstab, pusher, ss, KlConfig, Message};
use rand::rngs::StdRng;
use rand::SeedableRng;
use topology::{OrientedTree, Topology};
use treenet::app::BoxedDriver;
use treenet::{FaultInjector, Network, NodeId};

impl CompiledScenario {
    /// Exhaustively explores the scenario's reachable configuration space (bounded by the
    /// spec's [`super::spec::CheckSpec`]) and checks the selected properties on every
    /// configuration, using the default (delta) exploration engine.
    ///
    /// Returns an error when the scenario cannot be lowered soundly: the ring baseline has no
    /// snapshot support, and stateful workloads would break the explorer's state abstraction.
    pub fn check(&self) -> Result<ExplorationReport, ScenarioError> {
        self.check_observed(None, None)
    }

    /// [`CompiledScenario::check`] under observation: the exploration reports throttled
    /// `"explore"` progress through `sink` and winds down early — with `truncated` set —
    /// when the sink cancels.  Observation never changes the report of an uncancelled run.
    ///
    /// Nothing reads `_threads`: it was the worker count of the removed parallel engine and
    /// stays only so existing callers compile; ROADMAP item 9 removes it.
    pub fn check_observed(
        &self,
        _threads: Option<usize>,
        sink: Option<&dyn ProgressSink>,
    ) -> Result<ExplorationReport, ScenarioError> {
        self.check_with_sink(ExploreEngine::Delta, sink)
    }

    /// [`CompiledScenario::check`] with an explicit engine choice — the hook the delta-parity
    /// suite uses to run the same lowered instance through both engines and compare the
    /// reports.
    pub fn check_with(&self, engine: ExploreEngine) -> Result<ExplorationReport, ScenarioError> {
        self.check_with_sink(engine, None)
    }

    fn check_with_sink(
        &self,
        engine: ExploreEngine,
        sink: Option<&dyn ProgressSink>,
    ) -> Result<ExplorationReport, ScenarioError> {
        let spec = self.spec();
        match spec.protocol {
            ProtocolSpec::Naive => {
                let construct = |t, c, d: &mut dyn FnMut(NodeId) -> BoxedDriver| naive::network(t, c, d);
                let mut net = self.lowered_net(construct)?;
                self.apply_schedule_prologue(&mut net, &construct);
                self.check_net(net, engine, sink)
            }
            ProtocolSpec::Pusher => {
                let construct = |t, c, d: &mut dyn FnMut(NodeId) -> BoxedDriver| pusher::network(t, c, d);
                let mut net = self.lowered_net(construct)?;
                self.apply_schedule_prologue(&mut net, &construct);
                self.check_net(net, engine, sink)
            }
            ProtocolSpec::NonStab => {
                let construct = |t, c, d: &mut dyn FnMut(NodeId) -> BoxedDriver| nonstab::network(t, c, d);
                let mut net = self.lowered_net(construct)?;
                self.apply_schedule_prologue(&mut net, &construct);
                self.check_net(net, engine, sink)
            }
            ProtocolSpec::Ss if spec.check.from_legitimate => {
                // Closure checking (Definition 1): stabilize the lowered instance under a
                // deterministic fair schedule first, then explore from the legitimate
                // configuration.  Validation guarantees there are no init overrides to
                // discard.
                let tree = spec.topology.build(0);
                let cfg = spec.config.to_kl(tree.len());
                let mut drivers = lower_workload(&spec.workload)?;
                let mut net = checker::scenarios::stabilized_ss(
                    tree,
                    cfg,
                    &mut *drivers,
                    STABILIZATION_BUDGET,
                );
                drop(drivers);
                let construct =
                    |t, c, d: &mut dyn FnMut(NodeId) -> BoxedDriver| checker::scenarios::ss_for_checking(t, c, d);
                self.apply_schedule_prologue(&mut net, &construct);
                self.check_net(net, engine, sink)
            }
            ProtocolSpec::Ss => {
                let construct = |t, c: KlConfig, d: &mut dyn FnMut(NodeId) -> BoxedDriver| {
                    ss::network(t, c.with_timeout(checker::scenarios::DISABLED_TIMEOUT), d)
                };
                let mut net = self.lowered_net(construct)?;
                // Without its timer the protocol cannot bootstrap on its own; hand it the
                // controller message the first timeout would have sent — unless the spec
                // already places its own messages in flight.
                let inject_bootstrap =
                    spec.init.as_ref().is_none_or(|init| init.inject.is_empty());
                if inject_bootstrap {
                    let root = 0;
                    net.inject_from(root, 0, Message::Ctrl { c: 0, r: false, pt: 0, ppr: 0 });
                }
                self.apply_schedule_prologue(&mut net, &construct);
                self.check_net(net, engine, sink)
            }
            ProtocolSpec::Ring => Err(ScenarioError::NotCheckable(
                "the ring baseline has no checker snapshot support".to_string(),
            )),
        }
    }

    /// The fault-schedule prologue of a checking run: applies the campaign's events to the
    /// lowered network with trial-0 seeds, running a bounded deterministic round-robin
    /// settle after each one, so exploration starts from the post-fault / post-churn
    /// configuration — the closure half of Definition 1 under the campaign.  Exhaustive
    /// per-epoch re-convergence is the simulator's job; the checker certifies the reachable
    /// space *from* where the campaign leaves the system.
    fn apply_schedule_prologue<P, F>(&self, net: &mut Network<P, OrientedTree>, construct: &F)
    where
        P: ScenarioNode + treenet::Restartable,
        F: Fn(
            OrientedTree,
            KlConfig,
            &mut dyn FnMut(NodeId) -> BoxedDriver,
        ) -> Network<P, OrientedTree>,
    {
        let spec = self.spec();
        let Some(sched) = &spec.fault_schedule else { return };
        if sched.epochs.is_empty() {
            return;
        }
        // Pinned to the spec'd size, like the simulator's campaign (churn does not
        // reconfigure the protocol parameters).
        let cfg = spec.config.to_kl(spec.topology.len());
        let mut placement = StdRng::seed_from_u64(schedule::placement_seed(sched.seed, 0));
        let mut injector = FaultInjector::new(schedule::injector_seed(sched.seed, 0));
        let mut daemon = treenet::RoundRobin::new();
        let settle = sched.max_steps.min(CHECKER_EPOCH_SETTLE);
        for event in &sched.epochs {
            schedule::apply_event(net, event, &cfg, &mut placement, &mut injector, &mut |tree| {
                let mut drivers = lower_workload(&spec.workload)
                    .expect("workload validated by the main lowering");
                construct(tree.clone(), cfg, &mut *drivers)
            });
            treenet::engine::run(&mut *net, &mut daemon, settle);
            // The ss rung is lowered with its root timer disabled (the explorer's state
            // abstraction has no hidden clocks), so a fault epoch that destroys every
            // in-flight message leaves the finite model permanently dead even though the
            // real protocol recovers at the next timeout.  Replay that elided transition:
            // when an epoch settles into a message-free configuration, re-inject the
            // retransmission the root's timeout would send and settle again.
            if net.in_flight() == 0 {
                let root = net.topology().root();
                if let Some((label, msg)) = net.node(root).timeout_message() {
                    net.inject_from(root, label, msg);
                    treenet::engine::run(&mut *net, &mut daemon, settle);
                }
            }
        }
    }

    /// Builds the network with checker-lowered (stateless) drivers and init overrides.
    fn lowered_net<P, F>(&self, construct: F) -> Result<Network<P, OrientedTree>, ScenarioError>
    where
        P: ScenarioNode,
        F: FnOnce(
            OrientedTree,
            KlConfig,
            &mut dyn FnMut(NodeId) -> BoxedDriver,
        ) -> Network<P, OrientedTree>,
    {
        let spec = self.spec();
        let tree = spec.topology.build(0);
        let cfg = spec.config.to_kl(tree.len());
        let mut drivers = lower_workload(&spec.workload)?;
        let mut net = construct(tree, cfg, &mut *drivers);
        self.apply_init(&mut net);
        Ok(net)
    }

    /// Configures an explorer over `net` with the spec's limits and properties.
    fn lowered_explorer<'n, P>(&self, net: &'n mut Network<P, OrientedTree>) -> Explorer<'n, P, OrientedTree>
    where
        P: CheckableNode,
    {
        let spec = self.spec();
        let cfg = spec.config.to_kl(net.len());
        let limits = Limits {
            max_configurations: spec.check.max_configurations,
            max_depth: if spec.check.max_depth == 0 { usize::MAX } else { spec.check.max_depth },
        };
        let liveness = spec.check.properties.iter().any(|p| p == "liveness");
        let mut explorer =
            Explorer::new(net).with_limits(limits).check_liveness(liveness);
        for property in &spec.check.properties {
            let property = match property.as_str() {
                "safety" => properties::safety(cfg),
                "exact-census" => properties::exact_census(cfg),
                "no-garbage" => properties::no_garbage(),
                "legitimate" => properties::legitimate(cfg),
                // Temporal, handled by the post-exploration fair-cycle pass.
                "liveness" => continue,
                _ => unreachable!("property names are validated at compile time"),
            };
            explorer = explorer.with_property(property);
        }
        explorer
    }

    /// The denominator observed explorations report: the configuration cap when finite,
    /// `0` (= unknown) otherwise.
    fn explore_total(&self) -> u64 {
        let cap = self.spec().check.max_configurations;
        if cap == usize::MAX {
            0
        } else {
            cap as u64
        }
    }

    /// Runs the explorer over `net` with the spec's limits and properties.
    fn check_net<P>(
        &self,
        mut net: Network<P, OrientedTree>,
        engine: ExploreEngine,
        sink: Option<&dyn ProgressSink>,
    ) -> Result<ExplorationReport, ScenarioError>
    where
        P: CheckableNode,
    {
        let adapter = sink.map(|sink| ExploreSinkAdapter { sink, total: self.explore_total() });
        let mut explorer = self.lowered_explorer(&mut net);
        if let Some(adapter) = &adapter {
            explorer = explorer.with_progress(adapter);
        }
        Ok(explorer.run_with(engine))
    }
}

/// Adapts a [`ProgressSink`] onto the checker's [`ExploreProgress`] observer: interned
/// configurations stream out as the `"explore"` phase (against the configuration cap as
/// denominator) and the sink's cancellation poll becomes the explorer's.
struct ExploreSinkAdapter<'s> {
    sink: &'s dyn ProgressSink,
    total: u64,
}

impl ExploreProgress for ExploreSinkAdapter<'_> {
    fn on_progress(&self, configurations: usize, transitions: usize) {
        let _ = transitions;
        self.sink.progress("explore", configurations as u64, self.total);
    }

    fn should_stop(&self) -> bool {
        self.sink.cancelled()
    }
}

/// Step budget for the [`CheckSpec::from_legitimate`](super::spec::CheckSpec) stabilization
/// prelude; the schedule is deterministic, so exceeding it indicates a protocol bug (the
/// prelude panics), not an unlucky run.
const STABILIZATION_BUDGET: u64 = 2_000_000;

/// Per-epoch cap on the checking prologue's deterministic settle run.  The simulator owns
/// per-epoch convergence *measurement*; the prologue only needs to move the configuration a
/// representative distance past each event, and an uncapped `max_steps` (sized for
/// simulation budgets) would make small exhaustive checks pay millions of settle steps.
const CHECKER_EPOCH_SETTLE: u64 = 50_000;

/// Lowers a workload spec into the checker's stateless drivers.
fn lower_workload(
    workload: &WorkloadSpec,
) -> Result<Box<dyn FnMut(NodeId) -> BoxedDriver + '_>, ScenarioError> {
    match workload {
        WorkloadSpec::Idle => Ok(Box::new(|_| drivers::NeverRequest::boxed())),
        WorkloadSpec::Saturated { units, hold } => {
            let (units, hold) = (*units, *hold);
            Ok(Box::new(move |_| {
                if hold == 0 {
                    drivers::AlwaysRequest::boxed(units)
                } else {
                    drivers::HoldOneActivation::boxed(units)
                }
            }))
        }
        WorkloadSpec::Needs { needs, hold } => {
            let hold = *hold;
            Ok(Box::new(move |node| {
                let units = needs.get(node).copied().unwrap_or(0);
                if units == 0 {
                    drivers::NeverRequest::boxed()
                } else if hold == 0 {
                    drivers::AlwaysRequest::boxed(units)
                } else {
                    drivers::HoldOneActivation::boxed(units)
                }
            }))
        }
        WorkloadSpec::Uniform { .. } | WorkloadSpec::LeafUniform { .. } => {
            Err(ScenarioError::NotCheckable(
                "the Uniform/LeafUniform workloads are stateful (per-node RNG) and cannot be \
                 lowered into the checker's stateless-driver abstraction; use Saturated or Needs"
                    .to_string(),
            ))
        }
    }
}
