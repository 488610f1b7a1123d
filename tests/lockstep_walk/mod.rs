//! The lock-step walk: one generator and one walk for every simulator tracker.
//!
//! The paper's model lets a run start from any configuration (arbitrary process states, up
//! to CMAX garbage messages per link), so every view the simulator maintains of a
//! configuration must stay exact from every such start.  One walk ([`walk`]) drives random
//! networks through that space, and after every activation one pass ([`pass`]) checks:
//!
//! * **the enabled set** against a brute-force re-derivation: deliverable channels,
//!   `next_deliverable_from`, the enabled list, slab degrees, in-flight totals, the channel
//!   conservation law `enqueued = delivered + lost + len`, and the tick-guard clause (a
//!   quiet bit only where [`Process::tick_is_noop`] holds, [`Network::blocked_processes`]
//!   their popcount);
//! * **[`LiveCensus`]** (the token census of Lemmas 6–8 and the safety verdict) against the
//!   scan, rebuilt after every surgery as its contract requires;
//! * **quiet ticks**: the network against its always-run twin, whose hint is always `false`
//!   so that every handler runs, compared in full;
//! * **the Chandy–Lamport cut census**: a completed cut whose window saw a constant
//!   instantaneous census (the pass's scan at every step) reports exactly that census.  A
//!   window in which the census moved may report either side, so it asserts nothing.
//!
//! [`Case::new`] covers random 2–14-node trees and the ring, every protocol and daemon, a
//! range of k and ℓ, and flags for the surgeries applied between phases (fault plans,
//! crashes, `rebuild_from` churn, `channel_mut` surgery, forged tokens and markers,
//! deliveries to channels that may be empty), snapshots and Lamport clocks.  [`draws`] is
//! the proptest strategy over that space.  Every draw runs every tracker; each walk test
//! (`tests/engine_equivalence.rs`, `tests/live_census.rs`, `tests/properties.rs`,
//! `tests/quiet_ticks.rs`, `tests/snapshot_consistency.rs`) sets the flags of the surgeries
//! its tracker is most exposed to on every draw, and `tests/lockstep.rs` walks a fixed
//! table of every protocol × daemon pair with every surgery.

// Each test binary that includes this module uses a different part of it.
#![allow(dead_code)]

use analysis::scenario::Daemon;
use analysis::{CutVerdict, SnapshotMonitor};
use baselines::ring::RingSsNode;
use klex_core::ss::SsNode;
use klex_core::{
    count_tokens, is_legitimate, legitimacy::safety_holds, KlConfig, KlInspect, LadderNode,
    LiveCensus, Message, Rung, TokenCensus,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use std::collections::BTreeSet;
use topology::{OrientedTree, Ring, Topology};
use treenet::app::BoxedDriver;
use treenet::{
    Activation, Adversarial, ChannelLabel, Context, Corruptible, CsState, EnabledShape,
    EventScheduler, FaultInjector, FaultPlan, InitiatorPolicy, Network, NodeId, Process,
    RandomFair, Restartable, RoundRobin, SnapshotPlan, SnapshotRunner, Synchronous,
};

// ------------------------------------------------------------------------------ scaffolding

/// A protocol process under test, constructible per node and printable in full.
pub trait Node: Process<Msg = Message> + KlInspect + Corruptible + Sized {
    /// What selects the protocol within the type: the token rung, `()` otherwise.
    type Variant: Copy;

    fn build(
        variant: Self::Variant,
        id: NodeId,
        degree: usize,
        n: usize,
        cfg: KlConfig,
        driver: BoxedDriver,
    ) -> Self;

    /// Every protocol variable of the process (the driver is opaque; a driver that diverged
    /// shows in the next request it issues).
    fn fingerprint(&self) -> String;

    /// [`Restartable::restart`], for the protocols that have one.
    fn reboot(&mut self);
}

impl Node for LadderNode {
    type Variant = Rung;

    fn build(rung: Rung, id: NodeId, deg: usize, _: usize, cfg: KlConfig, d: BoxedDriver) -> Self {
        LadderNode::new(rung, id, deg, cfg, d)
    }
    fn fingerprint(&self) -> String {
        format!(
            "{:?} entered={} prio={:?} boot={}",
            self.app, self.app.entered_at, self.prio, self.bootstrapped
        )
    }
    fn reboot(&mut self) {
        self.restart();
    }
}

impl Node for SsNode {
    type Variant = ();

    fn build((): (), id: NodeId, degree: usize, n: usize, cfg: KlConfig, d: BoxedDriver) -> Self {
        SsNode::new(id, degree, n, cfg, d)
    }
    fn fingerprint(&self) -> String {
        // `SsRole`'s `Debug` prints the root's timer too.
        format!(
            "{:?} entered={} prio={:?} {:?}",
            self.app, self.app.entered_at, self.prio, self.role
        )
    }
    fn reboot(&mut self) {
        self.restart();
    }
}

impl Node for RingSsNode {
    type Variant = ();

    fn build((): (), id: NodeId, _: usize, n: usize, cfg: KlConfig, d: BoxedDriver) -> Self {
        RingSsNode::new(id, n, cfg, d)
    }
    fn fingerprint(&self) -> String {
        // The controller counters are private; a divergence there shows in the next
        // controller the two sides send.
        format!("{:?} entered={} prio={}", self.app, self.app.entered_at, self.prio)
    }
    fn reboot(&mut self) {
        unreachable!("the ring baseline has no restart; `Case::new` never crashes it")
    }
}

/// A process of the walk: `P` itself, or — with `always_run` — `P` with its hint held at
/// the trait's default `false`, so that a network of them never takes the quiet path.  Both
/// sides of the lock step share this one type, so every surgery is written once.
struct Twin<P> {
    p: P,
    always_run: bool,
}

impl<P: Process> Process for Twin<P> {
    type Msg = P::Msg;

    fn on_message(&mut self, from: ChannelLabel, msg: P::Msg, ctx: &mut Context<'_, P::Msg>) {
        self.p.on_message(from, msg, ctx);
    }

    fn on_tick(&mut self, ctx: &mut Context<'_, P::Msg>) {
        self.p.on_tick(ctx);
    }

    fn tick_is_noop(&self) -> bool {
        !self.always_run && self.p.tick_is_noop()
    }
}

impl<P: Corruptible> Corruptible for Twin<P> {
    fn corrupt(&mut self, rng: &mut StdRng) {
        self.p.corrupt(rng);
    }
}

impl<P: Node> Restartable for Twin<P> {
    fn restart(&mut self) {
        self.p.reboot();
    }
}

impl<P: KlInspect> KlInspect for Twin<P> {
    fn cs_state(&self) -> CsState {
        self.p.cs_state()
    }
    fn need(&self) -> usize {
        self.p.need()
    }
    fn reserved(&self) -> usize {
        self.p.reserved()
    }
    fn holds_priority(&self) -> bool {
        self.p.holds_priority()
    }
}

/// A topology the walk runs on.
trait Shape: Topology + Clone {
    /// The topology after churn event `op` (`draw` picks where), with the `old_of_new` map
    /// [`Network::rebuild_from`] takes; `None` when the topology admits no such event.
    fn churned(&self, op: u64, draw: usize) -> Option<(Self, Vec<Option<NodeId>>)>;
}

impl Shape for OrientedTree {
    fn churned(&self, op: u64, draw: usize) -> Option<(Self, Vec<Option<NodeId>>)> {
        let n = self.len();
        match op % 3 {
            // A leaf joins under an arbitrary parent…
            0 => Some((self.with_leaf_added(draw % n), (0..n).map(Some).chain([None]).collect())),
            // …a non-root leaf leaves (not at the 2-process minimum)…
            1 => (n > 2).then(|| {
                let leaves: Vec<NodeId> = (1..n).filter(|&v| self.is_leaf(v)).collect();
                let (tree, old_of_new) = self.with_leaf_removed(leaves[draw % leaves.len()]);
                (tree, old_of_new.into_iter().map(Some).collect())
            }),
            // …or an edge is rewired (when the tree admits a rewiring).
            _ => {
                let pairs: Vec<(NodeId, NodeId)> = (1..n)
                    .flat_map(|v| (0..n).map(move |u| (v, u)))
                    .filter(|&(v, u)| u != v && self.parent(v) != Some(u) && !self.in_subtree(u, v))
                    .collect();
                (!pairs.is_empty()).then(|| {
                    let (v, u) = pairs[draw % pairs.len()];
                    (self.with_edge_rewired(v, u), (0..n).map(Some).collect())
                })
            }
        }
    }
}

impl Shape for Ring {
    fn churned(&self, _: u64, _: usize) -> Option<(Self, Vec<Option<NodeId>>)> {
        unreachable!("the ring has no churn primitive; `Case::new` never churns it")
    }
}

pub type Net<P> = Network<P, OrientedTree>;

fn build_net<P: Node, T: Shape>(
    variant: P::Variant,
    topo: T,
    cfg: KlConfig,
    mut driver_for: impl FnMut(NodeId) -> BoxedDriver,
    always_run: bool,
) -> Network<Twin<P>, T> {
    let n = topo.len();
    let degrees: Vec<usize> = (0..n).map(|v| topo.degree(v)).collect();
    Network::new(topo, |id| Twin {
        p: P::build(variant, id, degrees[id], n, cfg, driver_for(id)),
        always_run,
    })
}

// --------------------------------------------------------------------------- the generator

#[derive(Clone, Copy, Debug)]
pub enum Protocol {
    Ladder(Rung),
    Ss,
    Ring,
}

pub const PROTOCOLS: [Protocol; 5] = [
    Protocol::Ladder(Rung::Naive),
    Protocol::Ladder(Rung::Pusher),
    Protocol::Ladder(Rung::NonStab),
    Protocol::Ss,
    Protocol::Ring,
];

/// One walk: the daemon, the workload, and what happens between the phases.
#[derive(Clone, Copy, Debug)]
pub struct Case {
    protocol: Protocol,
    seed: u64,
    daemon: u8,
    /// Per-activation request probability of the uniform workload.
    load: f64,
    faults: bool,
    crashes: bool,
    churn: bool,
    /// `inject_into`, `inject_from` and `channel_mut` removals and clears.
    surgery: bool,
    /// Surplus tokens, garbage and (without snapshots) a stray marker, each delivered.
    forged: bool,
    /// A delivery aimed at a channel that may be empty.
    raced: bool,
    snapshots: Option<SnapshotPlan>,
    clocks: bool,
}

/// The flag bits of [`Case::new`], one per option of [`Case`].
pub const FAULTS: u16 = 1 << 0;
pub const CRASHES: u16 = 1 << 1;
pub const CHURN: u16 = 1 << 2;
pub const SURGERY: u16 = 1 << 3;
pub const FORGED: u16 = 1 << 4;
pub const RACED: u16 = 1 << 5;
pub const SNAPSHOTS: u16 = 1 << 6;
pub const CLOCKS: u16 = 1 << 7;
/// Snapshots rotate their initiator instead of starting every cut at the root.
pub const ROTATE: u16 = 1 << 8;

impl Case {
    /// The case with one flag bit per option, minus the combinations a protocol cannot take.
    pub fn new(protocol: Protocol, seed: u64, daemon: u8, load: f64, flags: u16) -> Self {
        let bit = |flag: u16| flags & flag != 0;
        let ring = matches!(protocol, Protocol::Ring);
        let initiator = if bit(ROTATE) { InitiatorPolicy::Rotate } else { InitiatorPolicy::Root };
        Case {
            protocol,
            seed,
            daemon,
            load,
            faults: bit(FAULTS),
            // The ring baseline implements no `Restartable`.
            crashes: bit(CRASHES) && !ring,
            // The churn primitives (`with_leaf_added`, …) reshape trees only.
            churn: bit(CHURN) && !ring,
            surgery: bit(SURGERY),
            forged: bit(FORGED),
            raced: bit(RACED),
            snapshots: bit(SNAPSHOTS)
                .then_some(SnapshotPlan { interval: 8 + seed % 57, initiator }),
            clocks: bit(CLOCKS),
        }
    }

    /// Walks the case on `tree` (the ring on as many processes) with the given k and ℓ.
    pub fn run(self, tree: OrientedTree, k: usize, l: usize) -> Stats {
        let cfg = KlConfig::new(k, l, tree.len()).with_timeout(30);
        match self.protocol {
            Protocol::Ladder(rung) => walk::<LadderNode, _>(rung, tree, cfg, self),
            Protocol::Ss => walk::<SsNode, _>((), tree, cfg, self),
            Protocol::Ring => walk::<RingSsNode, _>((), Ring::new(tree.len()), cfg, self),
        }
    }
}

fn make_daemon(kind: u8, seed: u64) -> Daemon {
    match kind {
        0 => Daemon::RoundRobin(RoundRobin::new()),
        1 => Daemon::RandomFair(RandomFair::new(seed)),
        2 => Daemon::Synchronous(Synchronous::new()),
        // Node 1 exists at every size churn leaves.
        _ => Daemon::Adversarial(Adversarial::new(vec![1], 5)),
    }
}

// -------------------------------------------------------------------------------- the walk

/// The daemon's choice, unless an activation is forced.
struct Pick<'a> {
    daemon: &'a mut Daemon,
    forced: Option<Activation>,
}

impl EventScheduler for Pick<'_> {
    fn next_event(&mut self, shape: &EnabledShape<'_>) -> Activation {
        self.forced.take().unwrap_or_else(|| self.daemon.next_event(shape))
    }
}

/// The snapshot layer of one side, with the verdicts and markers of retired runners.
struct Cuts {
    plan: SnapshotPlan,
    runner: SnapshotRunner,
    monitor: SnapshotMonitor,
    verdicts: Vec<CutVerdict>,
    markers: u64,
}

impl Cuts {
    /// A surgery may drop, duplicate or strand markers, or reshape the network under the cut
    /// in progress; so every marker in flight goes, and a fresh runner and monitor start.
    fn restart<P: Process<Msg = Message>, T: Topology>(
        &mut self,
        net: &mut Network<P, T>,
        cfg: &KlConfig,
    ) {
        for v in 0..net.len() {
            for l in 0..net.degree(v) {
                let mut ch = net.channel_mut(v, l);
                let markers: Vec<usize> = (0..ch.len())
                    .filter(|&i| matches!(ch.iter().nth(i), Some(Message::Marker(_))))
                    .collect();
                for i in markers.into_iter().rev() {
                    ch.remove(i);
                }
            }
        }
        self.verdicts.extend_from_slice(self.monitor.verdicts());
        self.markers += self.runner.markers_sent();
        self.runner = SnapshotRunner::new(self.plan);
        self.monitor = SnapshotMonitor::new(cfg);
    }
}

/// One side of the lock step: a network and everything that steps it.
struct Side<P: Node, T: Shape> {
    net: Network<Twin<P>, T>,
    daemon: Daemon,
    census: LiveCensus,
    cuts: Option<Cuts>,
    injector: FaultInjector,
}

impl<P: Node, T: Shape> Side<P, T> {
    fn new(variant: P::Variant, topo: T, cfg: &KlConfig, case: &Case, always_run: bool) -> Self {
        let drivers = workloads::all_uniform(case.seed, case.load, cfg.k, 6);
        let mut net = build_net::<P, T>(variant, topo, *cfg, drivers, always_run);
        if case.clocks {
            net.enable_clocks();
        }
        Side {
            census: LiveCensus::new(&net, cfg),
            daemon: make_daemon(case.daemon, case.seed),
            cuts: case.snapshots.map(|plan| Cuts {
                plan,
                runner: SnapshotRunner::new(plan),
                monitor: SnapshotMonitor::new(cfg),
                verdicts: Vec::new(),
                markers: 0,
            }),
            injector: FaultInjector::new(case.seed ^ 0xFA17),
            net,
        }
    }

    /// One activation — the daemon's, or `forced` — through the snapshot layer when it is
    /// on, tracked by the census.
    fn step(&mut self, forced: Option<Activation>) -> Activation {
        let mut pick = Pick { daemon: &mut self.daemon, forced };
        let cuts = &mut self.cuts;
        self.census.track(&mut self.net, |net, effects| match cuts {
            Some(c) => c.runner.step_with(net, &mut pick, &mut c.monitor, effects),
            None => {
                let activation = pick.next_event(&EnabledShape::new(net.enabled_set()));
                net.execute_with(activation, effects);
                activation
            }
        })
    }

    /// After a surgery: a fresh census, and the cut in progress abandoned.
    fn resync(&mut self, cfg: &KlConfig) {
        self.census = LiveCensus::new(&self.net, cfg);
        if let Some(cuts) = &mut self.cuts {
            cuts.restart(&mut self.net, cfg);
        }
    }
}

/// What a walk reached, for the vacuity guards.
#[derive(Debug, Default)]
pub struct Stats {
    /// Ticks on a node whose quiet bit was set and stayed set.
    pub quiet_ticks: usize,
    /// Completed cuts whose window had a constant census.
    pub cuts_checked: usize,
    pub markers: u64,
    pub churns: usize,
}

const PHASES: u64 = 5;
const STEPS_PER_PHASE: usize = 500;

struct Walk<P: Node, T: Shape> {
    variant: P::Variant,
    cfg: KlConfig,
    case: Case,
    /// The network as built, and its always-run twin.
    a: Side<P, T>,
    b: Side<P, T>,
    /// `synced[v]`: v's handlers ran (or were soundly skipped) since the last surgery.  A
    /// tick always runs them; a delivery may be a marker the snapshot layer consumed.
    synced: Vec<bool>,
    /// The pass's census scan after the last activation.
    scan: TokenCensus,
    /// For the cut in progress: the census at its initiation, and whether it held since.
    window: Option<(TokenCensus, bool)>,
    cuts_seen: u64,
    stats: Stats,
}

/// Walks `case` on `topo`: [`PHASES`] phases of daemon-chosen activations with the case's
/// surgeries between them, and the tracker pass after every activation.
fn walk<P: Node, T: Shape>(variant: P::Variant, topo: T, cfg: KlConfig, case: Case) -> Stats {
    let mut w = Walk {
        a: Side::<P, T>::new(variant, topo.clone(), &cfg, &case, false),
        b: Side::new(variant, topo, &cfg, &case, true),
        variant,
        cfg,
        case,
        synced: Vec::new(),
        scan: TokenCensus::default(),
        window: None,
        cuts_seen: 0,
        stats: Stats::default(),
    };
    w.resync();
    for phase in 0..PHASES {
        for _ in 0..STEPS_PER_PHASE {
            w.activate(None);
        }
        if phase + 1 < PHASES {
            w.boundary(phase);
        }
    }
    // Retiring the last runners collects every verdict and marker count.
    w.resync();
    if let (Some(ca), Some(cb)) = (&w.a.cuts, &w.b.cuts) {
        assert_eq!(format!("{:?}", ca.verdicts), format!("{:?}", cb.verdicts), "cut verdicts");
        assert_eq!(ca.markers, cb.markers, "markers sent");
        w.stats.markers = ca.markers;
    }
    w.stats
}

impl<P: Node, T: Shape> Walk<P, T> {
    /// One activation on both sides, then the pass and the cut oracle.
    fn activate(&mut self, forced: Option<Activation>) {
        let before = self.a.net.blocked_processes();
        if self.a.cuts.as_ref().is_some_and(|c| c.runner.initiation_due(self.a.net.now())) {
            self.window = Some((self.scan, true));
        }
        let activation = self.a.step(forced);
        assert_eq!(activation, self.b.step(forced), "activation at t={}", self.a.net.now());
        match activation {
            Activation::Tick { node } => {
                self.synced[node] = true;
                // A tick on a node whose bit was set did not change the gauge.
                if self.a.net.enabled_set().tick_is_quiet(node)
                    && before == self.a.net.blocked_processes()
                {
                    self.stats.quiet_ticks += 1;
                }
            }
            Activation::Deliver { node, .. } => self.synced[node] |= self.a.cuts.is_none(),
        }
        self.scan = pass(&self.a, &self.b, &self.cfg, &self.synced);

        let Some(cuts) = &self.a.cuts else { return };
        if let Some((census, constant)) = &mut self.window {
            *constant &= self.scan == *census;
        }
        if cuts.runner.cuts_completed() > self.cuts_seen {
            self.cuts_seen = cuts.runner.cuts_completed();
            let (census, constant) = self.window.take().expect("a completed cut had a window");
            if constant {
                let verdict = cuts.monitor.verdicts().last().expect("the monitor saw the cut");
                assert_eq!(
                    verdict.census, census,
                    "the cut census must equal the (constant) instantaneous census: {verdict:?}"
                );
                self.stats.cuts_checked += 1;
            }
        }
    }

    /// The case's surgeries after `phase`, each applied identically to both sides.
    fn boundary(&mut self, phase: u64) {
        let (case, cfg) = (self.case, self.cfg);
        let target = |n: usize| (case.seed.wrapping_add(phase) % n as u64) as NodeId;
        if case.raced {
            let node = target(self.a.net.len());
            self.activate(Some(Activation::Deliver { node, channel: 0 }));
        }
        let mut touched = case.faults || case.crashes || case.surgery;
        if case.faults {
            let plans = [
                FaultPlan::moderate(cfg.cmax),
                FaultPlan { channel_garbage_max: 1, ..FaultPlan::message_only() },
                FaultPlan::catastrophic(cfg.cmax),
            ];
            let plan = plans[phase as usize % plans.len()];
            for side in [&mut self.a, &mut self.b] {
                side.injector.inject(&mut side.net, &plan);
            }
        }
        if case.crashes {
            let (n, lose_incoming) = (self.a.net.len(), phase.is_multiple_of(2));
            let (va, _) = self.a.injector.crash_random(&mut self.a.net, 2.min(n), lose_incoming);
            let (vb, _) = self.b.injector.crash_random(&mut self.b.net, 2.min(n), lose_incoming);
            assert_eq!(va, vb, "crash victims");
        }
        if case.churn {
            let draw = case.seed.rotate_left(phase as u32) as usize;
            if let Some((topo, old_of_new)) = self.a.net.topology().churned(case.seed ^ phase, draw)
            {
                for (side, always_run) in [(&mut self.a, false), (&mut self.b, true)] {
                    let drivers = workloads::all_uniform(case.seed ^ phase, case.load, cfg.k, 6);
                    let donor =
                        build_net::<P, T>(self.variant, topo.clone(), cfg, drivers, always_run);
                    side.net.rebuild_from(donor, &old_of_new);
                }
                self.stats.churns += 1;
                touched = true;
            }
        }
        if case.surgery {
            let v = target(self.a.net.len());
            let l = phase as usize % self.a.net.degree(v);
            for side in [&mut self.a, &mut self.b] {
                let net = &mut side.net;
                net.inject_into(v, l, Message::Garbage(7));
                net.inject_from(v, l, Message::ResT);
                let mut ch = net.channel_mut(v, l);
                if ch.len() > 1 {
                    ch.remove(0);
                }
                if phase.is_multiple_of(3) {
                    ch.clear();
                }
            }
        }
        if touched {
            self.resync();
        }
        if case.forged {
            // Surplus tokens, garbage and a marker nobody is waiting for (with snapshots on,
            // the runner would take a stray marker for its own cut's), then one delivery of
            // each and two more, which find the channel empty (or holding the fresh runner's
            // first marker) and degrade to ticks.
            let node = target(self.a.net.len());
            let mut forged = vec![Message::ResT, Message::PrioT, Message::Garbage(7)];
            if !matches!(case.protocol, Protocol::Ladder(Rung::Naive)) {
                // The naive rung has no pusher token.
                forged.push(Message::PushT);
            }
            if case.snapshots.is_none() {
                forged.push(Message::Marker(3));
            }
            for side in [&mut self.a, &mut self.b] {
                for msg in &forged {
                    side.net.inject_into(node, 0, *msg);
                }
            }
            self.resync();
            for _ in 0..self.a.net.channel(node, 0).len() + 2 {
                self.activate(Some(Activation::Deliver { node, channel: 0 }));
            }
            assert!(self.a.net.channel(node, 0).is_empty(), "the last deliveries were ticks");
        }
    }

    /// Rebuilds what a surgery invalidates, then runs the pass.
    fn resync(&mut self) {
        self.a.resync(&self.cfg);
        self.b.resync(&self.cfg);
        self.synced = vec![false; self.a.net.len()];
        (self.window, self.cuts_seen) = (None, 0);
        self.scan = pass(&self.a, &self.b, &self.cfg, &self.synced);
    }
}

// ------------------------------------------------------------------------------- the pass

/// The trackers after one activation or surgery: the enabled set and the census on the
/// network as built, then its twin against it in full.  Returns the census scan.
fn pass<P: Node, T: Shape>(
    a: &Side<P, T>,
    b: &Side<P, T>,
    cfg: &KlConfig,
    synced: &[bool],
) -> TokenCensus {
    let (net, at) = (&a.net, a.net.now());
    assert_enabled_set(net);
    let scan = count_tokens(net);
    assert_eq!(a.census.census(), scan, "census at t={at}");
    assert_eq!(a.census.safety_holds(), safety_holds(net, cfg), "safety at t={at}");
    assert_eq!(a.census.is_legitimate(), is_legitimate(net, cfg), "legitimacy at t={at}");
    assert_twins(net, &b.net, synced);
    scan
}

/// Brute-force recomputation of everything the enabled set claims to know, entry by entry,
/// and of the per-channel conservation law.
fn assert_enabled_set<P: Process, T: Topology>(net: &Network<P, T>) {
    let (es, at) = (net.enabled_set(), net.now());
    let (mut in_flight, mut enabled) = (0, BTreeSet::new());
    for v in 0..net.len() {
        let degree = net.topology().degree(v);
        assert_eq!((es.degree(v), net.degree(v)), (degree, degree), "node {v}: degrees at t={at}");
        let full: Vec<usize> = (0..degree).filter(|&l| !net.channel(v, l).is_empty()).collect();
        assert_eq!(es.deliverable_count(v), full.len(), "node {v}: deliverable_count at t={at}");
        for i in 0..=full.len() {
            let nth = es.nth_deliverable(v, i);
            assert_eq!(nth, full.get(i).copied(), "node {v}: nth_deliverable({i}) at t={at}");
        }
        for start in 0..degree {
            let next = (0..degree).map(|off| (start + off) % degree).find(|l| full.contains(l));
            let got = es.next_deliverable_from(v, start);
            assert_eq!(got, next, "node {v}: next_deliverable_from({start}) at t={at}");
        }
        for l in 0..degree {
            let ch = net.channel(v, l);
            let law = ch.enqueued() == ch.delivered() + ch.lost() + ch.len() as u64;
            assert!(law, "conservation law on channel ({v},{l}) at t={at}");
            in_flight += ch.len();
        }
        if !full.is_empty() {
            enabled.insert(v);
        }
        // The tick-guard clause: a quiet bit is only ever set on a process whose hint holds.
        let quiet = es.tick_is_quiet(v);
        assert!(!quiet || net.node(v).tick_is_noop(), "node {v}: quiet bit without the hint");
    }
    let bits = (0..net.len()).filter(|&v| es.tick_is_quiet(v)).count();
    assert_eq!(net.blocked_processes(), bits, "gauge vs bitset at t={at}");
    assert_eq!((es.in_flight() as usize, net.in_flight()), (in_flight, in_flight), "in flight");
    let listed: BTreeSet<usize> = (0..es.enabled_len()).map(|i| es.enabled_node(i)).collect();
    assert_eq!((es.enabled_len(), listed), (enabled.len(), enabled), "enabled list at t={at}");
}

/// The network as built (`a`) against its always-run twin (`b`), in full.
fn assert_twins<P: Node, T: Topology>(
    a: &Network<Twin<P>, T>,
    b: &Network<Twin<P>, T>,
    synced: &[bool],
) {
    let at = a.now();
    assert_eq!((at, a.len()), (b.now(), b.len()), "logical clocks and sizes");
    assert_eq!(
        serde_json::to_string(a.metrics()).expect("metrics serialize"),
        serde_json::to_string(b.metrics()).expect("metrics serialize"),
        "metrics at t={at}"
    );
    assert_eq!(a.trace().events(), b.trace().events(), "traces at t={at}");
    assert_eq!(
        a.clocks().map(|c| c.clocks().to_vec()),
        b.clocks().map(|c| c.clocks().to_vec()),
        "Lamport clocks at t={at}"
    );
    for v in 0..a.len() {
        let (pa, pb) = (&a.node(v).p, &b.node(v).p);
        assert_eq!(pa.fingerprint(), pb.fingerprint(), "state of node {v} at t={at}");
        for l in 0..a.topology().degree(v) {
            let (ca, cb) = (a.channel(v, l), b.channel(v, l));
            assert!(ca.iter().eq(cb.iter()), "contents of channel ({v},{l}) at t={at}");
            assert_eq!(
                (ca.enqueued(), ca.delivered(), ca.lost()),
                (cb.enqueued(), cb.delivered(), cb.lost()),
                "counters of channel ({v},{l}) at t={at}"
            );
        }
        // A node whose handlers ran since the last surgery has its bit re-derived.
        let bit = a.enabled_set().tick_is_quiet(v);
        assert!(!synced[v] || bit == pa.tick_is_noop(), "node {v}: bit lags the hint at t={at}");
    }
    assert_eq!(b.blocked_processes(), 0, "the always-run network has no quiet bit");
    if synced.iter().all(|&s| s) {
        let hints = a.nodes().filter(|p| p.tick_is_noop()).count();
        assert_eq!(a.blocked_processes(), hints, "gauge vs hint scan at t={at}");
    }
}

// ---------------------------------------------------------------------------- the strategy

/// One proptest draw: a case on a random tree (the ring on as many processes), with k and ℓ.
#[derive(Debug)]
pub struct Draw {
    case: Case,
    n: usize,
    k: usize,
    l: usize,
}

impl Draw {
    /// Walks the draw; every tracker is checked after every activation.
    pub fn walk(self) -> Stats {
        self.case.run(topology::builders::random_tree(self.n, self.case.seed), self.k, self.l)
    }
}

/// Random 2–14-node trees and the ring, every protocol and daemon, k ∈ 1..=2, ℓ ∈ k..=k+2,
/// three loads and any flags, with the bits of `required` always set.
pub fn draws(required: u16) -> impl Strategy<Value = Draw> {
    let shape = (2usize..=14, any::<u64>(), 0usize..PROTOCOLS.len(), 0u8..4);
    let sizes = (1usize..=2, 0usize..=2, 0usize..3, 0u16..512);
    (shape, sizes).prop_map(move |((n, seed, protocol, daemon), (k, extra_l, load, flags))| {
        let load = [0.0, 0.05, 0.3][load];
        let case = Case::new(PROTOCOLS[protocol], seed, daemon, load, flags | required);
        Draw { case, n, k, l: k + extra_l }
    })
}
