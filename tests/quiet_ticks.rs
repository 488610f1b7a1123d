//! Quiet ticks: the tick-guard clause of the enabled-set invariant (`treenet::engine`,
//! "Tick guards").
//!
//! A process that reports [`Process::tick_is_noop`] promises that its tick sends nothing,
//! emits nothing, calls no driver and leaves it unchanged; the network remembers the promise
//! in one bit per node and executes such ticks without touching the process.  Four things
//! keep that honest:
//!
//! * **(a)** a lock-step differential run: the network as built against the same network
//!   over [`AlwaysRun`], a delegating wrapper whose hint is always `false` — i.e. an engine
//!   that runs every handler — compared in full after every activation;
//! * **(b)** the contract itself, per rung, on single processes in arbitrary states;
//! * **(c)** every path that hands out `&mut P` or replaces processes clears the bit, so the
//!   next tick runs the handler;
//! * the read-only gauge [`Network::blocked_processes`] is the popcount of the bits, and
//!   equals a scan of the hint whenever every process has been activated since the last
//!   surgery.
//!
//! Debug builds run an oracle inside the engine (a quiet tick still calls `on_tick` and
//! asserts the observable half of the contract); release builds do not, so CI runs this
//! suite in both.

use analysis::scenario::{Daemon, ScenarioNode};
use analysis::SnapshotMonitor;
use checker::snapshot::{capture_packed, restore_packed, CheckableNode};
use klex_core::ss::SsNode;
use klex_core::{KlConfig, KlInspect, LadderNode, Message, Rung};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use topology::{OrientedTree, Topology};
use treenet::app::{AppDriver, BoxedDriver};
use treenet::{
    Activation, Adversarial, ChannelLabel, Context, Corruptible, CsState, Event, FaultInjector,
    FaultPlan, InitiatorPolicy, MessageKind, Network, NodeId, Process, RandomFair, Restartable,
    RoundRobin, SnapshotPlan, SnapshotRunner, StepUndo, Synchronous,
};

// ------------------------------------------------------------------------------ scaffolding

/// Delegates everything to `P` except the hint, which stays at the trait's default `false`:
/// a network of `AlwaysRun<P>` never takes the quiet path.
struct AlwaysRun<P>(P);

impl<P: Process> Process for AlwaysRun<P> {
    type Msg = P::Msg;

    fn on_message(&mut self, from: ChannelLabel, msg: P::Msg, ctx: &mut Context<'_, P::Msg>) {
        self.0.on_message(from, msg, ctx);
    }

    fn on_tick(&mut self, ctx: &mut Context<'_, P::Msg>) {
        self.0.on_tick(ctx);
    }
}

impl<P: Corruptible> Corruptible for AlwaysRun<P> {
    fn corrupt(&mut self, rng: &mut StdRng) {
        self.0.corrupt(rng);
    }
}

impl<P: Restartable> Restartable for AlwaysRun<P> {
    fn restart(&mut self) {
        self.0.restart();
    }
}

impl<P: KlInspect> KlInspect for AlwaysRun<P> {
    fn cs_state(&self) -> CsState {
        self.0.cs_state()
    }
    fn need(&self) -> usize {
        self.0.need()
    }
    fn reserved(&self) -> usize {
        self.0.reserved()
    }
    fn holds_priority(&self) -> bool {
        self.0.holds_priority()
    }
}

/// A protocol process under test, constructible per node and printable in full.
trait Node: Process<Msg = Message> + KlInspect + Corruptible + Restartable + Sized {
    /// What selects the protocol within the type: the token rung, `()` for the ss node.
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
}

type Net<P> = Network<P, OrientedTree>;

fn build_net<P: Node, Q: Process>(
    variant: P::Variant,
    tree: &OrientedTree,
    cfg: KlConfig,
    mut driver_for: impl FnMut(NodeId) -> BoxedDriver,
    wrap: impl Fn(P) -> Q,
) -> Net<Q> {
    let n = tree.len();
    let degrees: Vec<usize> = (0..n).map(|v| tree.degree(v)).collect();
    let mut build = |id| P::build(variant, id, degrees[id], n, cfg, driver_for(id));
    Network::new(tree.clone(), |id| wrap(build(id)))
}

// ------------------------------------------------------------- (a) lock-step differential

#[derive(Clone, Copy, Debug)]
struct Case {
    seed: u64,
    daemon: u8,
    faults: bool,
    snapshots: bool,
    clocks: bool,
}

fn make_daemon(kind: u8, seed: u64, n: usize) -> Daemon {
    match kind {
        0 => Daemon::RoundRobin(RoundRobin::new()),
        1 => Daemon::RandomFair(RandomFair::new(seed)),
        2 => Daemon::Synchronous(Synchronous::new()),
        _ => Daemon::Adversarial(Adversarial::new(vec![n - 1], 5)),
    }
}

/// Number of processes whose hint holds right now, by scanning.
fn hint_scan<P: Process, T: Topology>(net: &Network<P, T>) -> usize {
    net.nodes().filter(|p| p.tick_is_noop()).count()
}

/// The full comparison after one activation.  `a` is the network as built, `b` runs every
/// handler; `synced[v]` says `a`'s bit of `v` has been re-derived since the last surgery.
fn assert_same<P: Node>(a: &Net<P>, b: &Net<AlwaysRun<P>>, synced: &[bool]) {
    let at = a.now();
    assert_eq!(at, b.now(), "logical clocks");
    assert_eq!(
        serde_json::to_string(a.metrics()).expect("metrics serialize"),
        serde_json::to_string(b.metrics()).expect("metrics serialize"),
        "metrics at t={at}"
    );
    assert_eq!(a.trace().events(), b.trace().events(), "traces at t={at}");
    assert_eq!(a.in_flight(), b.in_flight(), "in-flight at t={at}");
    assert_eq!(
        a.clocks().map(|c| c.clocks().to_vec()),
        b.clocks().map(|c| c.clocks().to_vec()),
        "Lamport clocks at t={at}"
    );
    for v in 0..a.len() {
        let (pa, pb) = (a.node(v), &b.node(v).0);
        assert_eq!(
            (pa.cs_state(), pa.need(), pa.reserved(), pa.holds_priority()),
            (pb.cs_state(), pb.need(), pb.reserved(), pb.holds_priority()),
            "inspect fields of node {v} at t={at}"
        );
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
        // The invariant itself: a set bit implies the hint; a synced node's bit equals it.
        let bit = a.enabled_set().tick_is_quiet(v);
        assert!(!bit || pa.tick_is_noop(), "node {v}: quiet bit without the hint at t={at}");
        if synced[v] {
            assert_eq!(bit, pa.tick_is_noop(), "node {v}: bit lags the hint at t={at}");
        }
    }
    // The gauge is the popcount; the wrapper never sets a bit.
    let bits = (0..a.len()).filter(|&v| a.enabled_set().tick_is_quiet(v)).count();
    assert_eq!(a.blocked_processes(), bits, "gauge vs bitset at t={at}");
    assert_eq!(b.blocked_processes(), 0, "the always-run network has no quiet bit");
    if synced.iter().all(|&s| s) {
        assert_eq!(a.blocked_processes(), hint_scan(a), "gauge vs hint scan at t={at}");
    }
}

fn lockstep<P: Node>(variant: P::Variant, tree: OrientedTree, cfg: KlConfig, case: Case) -> usize {
    let n = tree.len();
    let drivers = || workloads::all_uniform(case.seed, 0.3, cfg.k, 6);
    let mut a: Net<P> = build_net(variant, &tree, cfg, drivers(), |p| p);
    let mut b: Net<AlwaysRun<P>> = build_net(variant, &tree, cfg, drivers(), AlwaysRun);
    if case.clocks {
        a.enable_clocks();
        b.enable_clocks();
    }
    let (mut da, mut db) =
        (make_daemon(case.daemon, case.seed, n), make_daemon(case.daemon, case.seed, n));
    let plan = SnapshotPlan { interval: 48, initiator: InitiatorPolicy::Rotate };
    let (mut ra, mut rb) = (SnapshotRunner::new(plan), SnapshotRunner::new(plan));
    let (mut ma, mut mb) = (SnapshotMonitor::new(&cfg), SnapshotMonitor::new(&cfg));
    let injector = || FaultInjector::new(case.seed ^ 0xFA17);
    let (mut ia, mut ib) = (injector(), injector());

    // `synced[v]`: an activation has run (or soundly skipped) v's handlers since the last
    // surgery.  A tick always does; a delivery does unless the snapshot layer consumed a
    // marker without running the process.
    let mut synced = vec![false; n];
    let mut quiet_ticks = 0usize;
    for phase in 0..4u64 {
        for _ in 0..450 {
            let before = a.blocked_processes();
            let (act_a, act_b) = if case.snapshots {
                (
                    ra.step_with(&mut a, &mut da, &mut ma, &mut ()),
                    rb.step_with(&mut b, &mut db, &mut mb, &mut ()),
                )
            } else {
                (a.step_event(&mut da), b.step_event(&mut db))
            };
            assert_eq!(act_a, act_b, "activation at t={}", a.now());
            match act_a {
                Activation::Tick { node } => {
                    synced[node] = true;
                    // A tick on a node whose bit was set did not change the gauge.
                    if a.enabled_set().tick_is_quiet(node) && before == a.blocked_processes() {
                        quiet_ticks += 1;
                    }
                }
                Activation::Deliver { node, .. } => synced[node] |= !case.snapshots,
            }
            assert_same(&a, &b, &synced);
        }
        // A delivery aimed at a channel that may be empty (it then degrades to a tick).
        let target = (case.seed.wrapping_add(phase) % n as u64) as usize;
        let raced = Activation::Deliver { node: target, channel: 0 };
        if !case.snapshots {
            a.execute(raced);
            b.execute(raced);
            synced[target] = true;
            assert_same(&a, &b, &synced);
        }
        if case.faults {
            match phase {
                0 => {
                    ia.inject(&mut a, &FaultPlan::moderate(cfg.cmax));
                    ib.inject(&mut b, &FaultPlan::moderate(cfg.cmax));
                }
                1 => {
                    let (va, _) = ia.crash_random(&mut a, 2.min(n), true);
                    let (vb, _) = ib.crash_random(&mut b, 2.min(n), true);
                    assert_eq!(va, vb, "crash victims");
                }
                _ => {
                    ia.inject(&mut a, &FaultPlan::catastrophic(cfg.cmax));
                    ib.inject(&mut b, &FaultPlan::catastrophic(cfg.cmax));
                }
            }
            synced.fill(false);
            assert_same(&a, &b, &synced);
        }
    }
    if case.snapshots {
        assert_eq!(format!("{:?}", ma.verdicts()), format!("{:?}", mb.verdicts()), "cut verdicts");
        assert!(ra.markers_sent() > 0 && ra.markers_sent() == rb.markers_sent());
    }
    quiet_ticks
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// The network as built and the network that runs every handler are indistinguishable
    /// after every activation: same activation, same process states, same channels and
    /// counters, same trace, metrics and clocks — on every rung, under every daemon, with and
    /// without fault plans, snapshots and Lamport clocks.
    #[test]
    fn quiet_ticks_are_indistinguishable_from_running_every_handler(
        n in 2usize..=9,
        seed in any::<u64>(),
        rung in 0usize..4,
        daemon in 0u8..4,
        k in 1usize..=2,
        extra_l in 0usize..=1,
        flags in 0u8..8,
    ) {
        let cfg = KlConfig::new(k, k + extra_l, n).with_timeout(30);
        let tree = topology::builders::random_tree(n, seed);
        let case = Case {
            seed,
            daemon,
            faults: flags & 1 != 0,
            snapshots: flags & 2 != 0,
            clocks: flags & 4 != 0,
        };
        match rung {
            0..=2 => lockstep::<LadderNode>(Rung::ALL[rung], tree, cfg, case),
            _ => lockstep::<SsNode>((), tree, cfg, case),
        };
    }
}

/// The differential above is vacuous if no tick is ever quiet; a loaded network must take
/// the quiet path, and often.
#[test]
fn loaded_networks_take_the_quiet_path() {
    let tree = topology::builders::binary(9);
    let cfg = KlConfig::new(2, 2, 9).with_timeout(30);
    for daemon in 0..4u8 {
        let case = Case { seed: 7, daemon, faults: false, snapshots: false, clocks: false };
        let naive = lockstep::<LadderNode>(Rung::Naive, tree.clone(), cfg, case);
        assert!(naive > 100, "naive, daemon {daemon}");
        assert!(lockstep::<SsNode>((), tree.clone(), cfg, case) > 100, "ss, daemon {daemon}");
    }
}

// --------------------------------------------------------------------- (b) the contract

/// A driver the quiet state must never reach.
struct Tripwire;

impl AppDriver for Tripwire {
    fn next_request(&mut self, node: NodeId, _now: u64) -> Option<usize> {
        panic!("tick_is_noop() held on node {node} but on_tick asked the driver for a request")
    }
    fn release_cs(&mut self, node: NodeId, _now: u64, _entered_at: u64) -> bool {
        panic!("tick_is_noop() held on node {node} but on_tick asked the driver to release")
    }
}

/// Drives single processes of rung `P` through random states; wherever the hint holds, a
/// tick on a detached context must send nothing, emit nothing, reach no driver and leave the
/// process as it was.  `prepare` adds the state `corrupt` does not reach.  Returns how often
/// the hint held.
fn check_contract<P: Node>(variant: P::Variant, seed: u64, prepare: impl Fn(&mut P, u64)) -> usize {
    let (n, degree) = (6, 3);
    let cfg = KlConfig::new(2, 3, n).with_timeout(4);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut held = 0;
    for round in 0..600u64 {
        let id = (round % 3) as NodeId; // the root and two non-roots
        let mut node = P::build(variant, id, degree, n, cfg, Box::new(Tripwire));
        node.corrupt(&mut rng);
        prepare(&mut node, round);
        if !node.tick_is_noop() {
            continue;
        }
        held += 1;
        assert_eq!(node.cs_state(), CsState::Req, "only a requester may report the hint");
        assert!(node.reserved() < node.need(), "only an unsatisfied one");
        let before = node.fingerprint();
        for now in [1, 2, 1_000_000] {
            let (mut outbox, mut events) = (Vec::new(), Vec::<Event>::new());
            node.on_tick(&mut Context::detached(id, degree, now, &mut outbox, &mut events));
            assert!(outbox.is_empty(), "round {round}: a quiet tick sent {outbox:?}");
            assert!(events.is_empty(), "round {round}: a quiet tick emitted {events:?}");
            assert_eq!(node.fingerprint(), before, "round {round}: a quiet tick changed state");
            assert!(node.tick_is_noop(), "round {round}: the hint did not survive the tick");
        }
    }
    held
}

#[test]
fn the_hint_keeps_its_contract_on_every_rung() {
    for seed in [1u64, 2, 3] {
        let flip_boot = |p: &mut LadderNode, r: u64| p.bootstrapped = r.is_multiple_of(2);
        assert!(check_contract::<LadderNode>(Rung::Naive, seed, flip_boot) > 20);
        assert!(check_contract::<LadderNode>(Rung::Pusher, seed, |_, _| {}) > 20);
        assert!(check_contract::<LadderNode>(Rung::NonStab, seed, flip_boot) > 20);
        assert!(check_contract::<SsNode>((), seed, |_, _| {}) > 20);
    }
}

#[test]
fn timers_and_one_time_bootstraps_never_report_the_hint() {
    let cfg = KlConfig::new(2, 3, 6);
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..200 {
        // The ss root counts every tick towards its timeout, whatever its request state.
        let mut root = SsNode::new(0, 3, 6, cfg, Box::new(Tripwire));
        root.corrupt(&mut rng);
        assert!(!root.tick_is_noop());
        root.set_request_state(CsState::Req, 2, vec![0]);
        assert!(!root.tick_is_noop());
    }
    // A root that has not created its tokens yet still has that to do on its next tick.
    let mut root = LadderNode::new(Rung::Naive, 0, 3, cfg, Box::new(Tripwire));
    root.set_request_state(CsState::Req, 2, vec![0]);
    assert!(!root.tick_is_noop());
    root.bootstrapped = true;
    assert!(root.tick_is_noop());
    // `Out` and `In` consult the driver, so they never report it.
    let mut node = SsNode::new(1, 3, 6, cfg, Box::new(Tripwire));
    for state in [CsState::Out, CsState::In] {
        node.set_request_state(state, 2, vec![0]);
        assert!(!node.tick_is_noop(), "{state:?}");
    }
}

// ------------------------------------------------------------- (c) the invalidation paths

/// A process that counts the ticks its handler actually ran and claims whatever hint the
/// test tells it to.  Counting breaks the "leaves `self` unchanged" half of the contract on
/// purpose: that is what makes a skipped handler observable.
#[derive(Clone, Debug)]
struct Probe {
    ran: u32,
    claims_quiet: bool,
}

#[derive(Clone, Debug)]
struct Silence;

impl MessageKind for Silence {
    fn kind(&self) -> &'static str {
        "silence"
    }
}

impl Process for Probe {
    type Msg = Silence;
    fn on_message(&mut self, _from: ChannelLabel, _msg: Silence, _ctx: &mut Context<'_, Silence>) {}
    fn on_tick(&mut self, _ctx: &mut Context<'_, Silence>) {
        self.ran += 1;
    }
    fn tick_is_noop(&self) -> bool {
        self.claims_quiet
    }
}

fn probe_net() -> Net<Probe> {
    Network::new(topology::builders::figure1_tree(), |_| Probe { ran: 0, claims_quiet: true })
}

/// Ticks `v` once and returns how many handler runs the process saw.
fn ran_during_tick(net: &mut Net<Probe>, v: NodeId) -> u32 {
    let before = net.node(v).ran;
    net.execute(Activation::Tick { node: v });
    net.node(v).ran - before
}

/// What a *quiet* tick adds to the count: nothing in a release build, one under the debug
/// oracle (which runs the handler to check it).
const QUIET_RUNS: u32 = if cfg!(debug_assertions) { 1 } else { 0 };

/// Brings every node of a probe network to the quiet state and checks that it is.
fn settle(net: &mut Net<Probe>) {
    for v in 0..net.len() {
        net.execute(Activation::Tick { node: v });
        assert!(net.enabled_set().tick_is_quiet(v));
        assert_eq!(ran_during_tick(net, v), QUIET_RUNS, "a settled node's tick is quiet");
    }
    assert_eq!(net.blocked_processes(), net.len());
}

#[test]
fn a_quiet_tick_still_advances_time_and_the_counters() {
    let mut net = probe_net();
    net.enable_clocks();
    settle(&mut net);
    let (now, ticks, acts) = (net.now(), net.metrics().ticks, net.metrics().activations);
    let lamport = net.clocks().expect("enabled").clock(3);
    net.execute(Activation::Tick { node: 3 });
    net.execute(Activation::Deliver { node: 3, channel: 0 }); // empty: degrades to a tick
    assert_eq!(net.now(), now + 2);
    assert_eq!((net.metrics().ticks, net.metrics().activations), (ticks + 2, acts + 2));
    assert_eq!(net.metrics().deliveries, 0);
    assert_eq!(net.clocks().expect("enabled").clock(3), lamport + 2);
    assert!(net.trace().is_empty() && net.in_flight() == 0);
}

#[test]
fn node_mut_clears_the_bit_and_the_next_tick_runs_the_handler() {
    let mut net = probe_net();
    settle(&mut net);
    // Handing the process out is enough: the caller may have done anything with it.
    let _ = net.node_mut(4);
    assert!(!net.enabled_set().tick_is_quiet(4));
    assert_eq!(net.blocked_processes(), net.len() - 1);
    assert_eq!(ran_during_tick(&mut net, 4), 1, "the tick after node_mut runs the handler");
    assert!(net.enabled_set().tick_is_quiet(4), "and re-derives the bit");
    // A process that stops claiming the hint is never skipped again.
    net.node_mut(4).claims_quiet = false;
    for _ in 0..3 {
        assert_eq!(ran_during_tick(&mut net, 4), 1);
        assert!(!net.enabled_set().tick_is_quiet(4));
    }
}

#[test]
fn reset_trial_reset_from_and_rebuild_from_clear_every_bit() {
    let assert_all_run = |net: &mut Net<Probe>, what: &str| {
        assert_eq!(net.blocked_processes(), 0, "{what}: no bit survives");
        for v in 0..net.len() {
            assert!(!net.enabled_set().tick_is_quiet(v), "{what}: node {v}");
            assert_eq!(ran_during_tick(net, v), 1, "{what}: node {v}'s next tick runs");
        }
    };

    let mut net = probe_net();
    settle(&mut net);
    net.reset_trial(|_, p| p.ran = 0);
    assert_all_run(&mut net, "reset_trial");

    settle(&mut net);
    let template = probe_net();
    net.reset_from(&template);
    assert_all_run(&mut net, "reset_from");

    settle(&mut net);
    let grown = net.topology().with_leaf_added(1);
    let map: Vec<Option<NodeId>> = (0..net.len()).map(Some).chain([None]).collect();
    let donor = Network::new(grown, |_| Probe { ran: 0, claims_quiet: true });
    net.rebuild_from(donor, &map);
    assert_eq!(net.len(), 9);
    assert_all_run(&mut net, "rebuild_from");
}

/// A chain of three self-stabilizing processes whose applications always want one unit.
/// At boot no token exists, so one tick turns node 2 into a blocked requester.
fn blocked_ss_net() -> Net<SsNode> {
    let cfg = KlConfig::new(1, 1, 3);
    let mut net =
        klex_core::ss::network(topology::builders::chain(3), cfg, workloads::all_saturated(1, 2));
    net.execute(Activation::Tick { node: 2 });
    assert!(net.node(2).tick_is_noop() && net.enabled_set().tick_is_quiet(2));
    assert_eq!(net.trace().requests(Some(2)), 1);
    net
}

#[test]
fn surgery_on_a_real_rung_is_followed_by_a_real_tick() {
    let tick = |net: &mut Net<SsNode>| net.execute(Activation::Tick { node: 2 });

    // Restart (a crash): back to `Out`, so the next tick must issue the request again.
    let mut net = blocked_ss_net();
    net.node_mut(2).restart();
    tick(&mut net);
    assert_eq!(net.trace().requests(Some(2)), 2, "the tick after a restart polls the driver");

    // An init override that satisfies the request: the next tick must enter.
    let mut net = blocked_ss_net();
    net.node_mut(2).set_request_state(CsState::Req, 1, vec![0]);
    tick(&mut net);
    assert_eq!(net.trace().cs_entries(Some(2)), 1, "the tick after an override enters");

    // A new driver and a corruption: whatever they left, the bit is gone until re-derived.
    let mut net = blocked_ss_net();
    net.node_mut(2).set_driver(Box::new(Tripwire));
    assert!(!net.enabled_set().tick_is_quiet(2));
    tick(&mut net); // still blocked: the handler runs and does not reach the tripwire
    assert!(net.enabled_set().tick_is_quiet(2));
    net.node_mut(2).corrupt(&mut StdRng::seed_from_u64(9));
    assert!(!net.enabled_set().tick_is_quiet(2));
    assert_eq!(net.blocked_processes(), 0);
}

#[test]
fn the_checkers_restore_and_revert_are_followed_by_a_real_tick() {
    let tick = Activation::Tick { node: 2 };

    // The whole-configuration path: restore_packed over a configuration where node 2 is
    // `Out` again.  The next tick must issue the request a second time.
    let cfg = KlConfig::new(1, 1, 3);
    let mut net =
        klex_core::ss::network(topology::builders::chain(3), cfg, workloads::all_saturated(1, 2));
    let mut parent = Vec::new();
    capture_packed(&net, &mut parent);
    net.execute(tick);
    assert!(net.enabled_set().tick_is_quiet(2));
    restore_packed(&mut net, &parent);
    assert_eq!(net.blocked_processes(), 0);
    net.execute(tick);
    assert_eq!(net.trace().requests(Some(2)), 2, "the tick after restore_packed runs");

    // The delta engine's path: execute undoably, revert the channels, restore the one
    // activated process — to `Out` here, so the tick after it must ask yet again.
    restore_packed(&mut net, &parent);
    let saved = net.node(2).capture_state();
    let requests = net.trace().requests(Some(2));
    let mut undo = StepUndo::new();
    net.execute_undoable(tick, &mut undo);
    assert!(net.enabled_set().tick_is_quiet(2));
    net.revert(&mut undo);
    net.node_mut(2).restore_state(&saved);
    assert!(!net.enabled_set().tick_is_quiet(2));
    net.execute(tick);
    assert_eq!(net.trace().requests(Some(2)), requests + 2, "the tick after revert runs");
}
