//! The lock-step walk's fixed table, and what a walk cannot reach.
//!
//! The walk itself (`lockstep_walk`: one generator, one walk, one tracker pass after every
//! activation) is shared with the proptests that draw from it.  Here a fixed-seed table
//! walks every protocol × daemon pair with every surgery, so the walk's coverage does not
//! depend on proptest's draw.  The other tests pin the hint's contract, the paths that clear
//! quiet bits, and the one safety verdict of every consumer.  Debug builds also run the
//! engine's quiet-tick oracle (a quiet tick still calls `on_tick` and asserts it did
//! nothing); release builds do not, so CI runs this suite in both.

mod lockstep_walk;

use analysis::scenario::ScenarioNode;
use analysis::{CutVerdict, SnapshotMonitor};
use checker::properties;
use checker::snapshot::{capture_packed, restore_packed, CheckableNode};
use klex_core::legitimacy::{self, safety_holds, NodeShare};
use klex_core::ss::SsNode;
use klex_core::{
    count_tokens, is_legitimate, nonstab, KlConfig, KlInspect, LadderNode, LiveCensus, Message,
    Rung,
};
use lockstep_walk::{Case, Net, Node, Protocol, PROTOCOLS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use topology::Topology;
use treenet::app::{AppDriver, BoxedDriver, Idle};
use treenet::{
    Activation, ChannelLabel, Context, Corruptible, CsState, Event, MessageKind, Network, NodeId,
    Process, Restartable, RoundRobin, SnapshotObserver, StepUndo,
};

/// Every protocol × daemon pair once, loaded, with every surgery, snapshots and clocks: the
/// walk is vacuous unless ticks are quiet on loaded networks, cuts are checked,
/// markers are sent and churn happens.
#[test]
fn every_protocol_and_daemon_walks_every_surgery() {
    let tree = topology::builders::binary(9);
    for protocol in PROTOCOLS {
        for daemon in 0..4u8 {
            let case = Case::new(protocol, 7, daemon, 0.3, u16::MAX);
            let stats = case.run(tree.clone(), 2, 2);
            let label = format!("{protocol:?}, daemon {daemon}: {stats:?}");
            assert!(stats.cuts_checked > 0, "{label}");
            assert!(stats.markers > 0, "{label}");
            if !matches!(protocol, Protocol::Ring) {
                // The ring baseline never reports the hint.
                assert!(stats.quiet_ticks > 100, "{label}");
                assert!(stats.churns > 0, "{label}");
            }
        }
    }
}

// --------------------------------------------------------------------- the hint's contract

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

// ------------------------------------------------------------------ the invalidation paths

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

// ------------------------------------------------------------------ the one safety verdict

/// The verdict of a cut that records exactly `net`'s current states and channel contents.
fn cut_verdict<P, T>(net: &Network<P, T>, cfg: &KlConfig) -> CutVerdict
where
    P: Process<Msg = Message> + KlInspect,
    T: Topology,
{
    let mut monitor = SnapshotMonitor::new(cfg);
    for v in 0..net.len() {
        monitor.node_state(0, v, net.node(v));
    }
    for (v, label, msg) in net.iter_messages() {
        SnapshotObserver::<P>::in_transit(&mut monitor, 0, v, label, msg);
    }
    SnapshotObserver::<P>::cut_complete(&mut monitor, 0, net.now(), net.now());
    monitor.verdicts()[0]
}

/// Asserts that the checker's properties on the captured `Configuration`, the network
/// scan, a fresh `LiveCensus` and a cut verdict all return `safety` and `legitimate`.
/// (A cut verdict carries no breach text, and its `clean` omits the garbage clause; no
/// case below has garbage in flight.)
fn assert_consumers_agree<P, T>(
    net: &Network<P, T>,
    cfg: &KlConfig,
    safety: Result<(), &str>,
    legitimate: bool,
) where
    P: Process<Msg = Message> + KlInspect + CheckableNode,
    T: Topology,
{
    let config = checker::capture(net);
    let live = LiveCensus::new(net, cfg);
    let cut = cut_verdict(net, cfg);
    let safety = safety.map_err(str::to_string);
    let scan = legitimacy::safety(net.nodes().map(NodeShare::of), cfg);
    assert_eq!(properties::safety(*cfg).check(&config), safety, "checker property");
    assert_eq!(scan.map_err(|breach| breach.to_string()), safety, "network scan");
    assert_eq!(safety_holds(net, cfg), safety.is_ok(), "network scan");
    assert_eq!(live.safety().map_err(|breach| breach.to_string()), safety, "live census");
    assert_eq!(cut.safety_ok, safety.is_ok(), "cut verdict");

    assert_eq!(properties::legitimate(*cfg).check(&config).is_ok(), legitimate, "checker");
    assert_eq!(is_legitimate(net, cfg), legitimate, "network scan");
    assert_eq!(live.is_legitimate(), legitimate, "live census");
    assert_eq!(cut.clean(), legitimate, "cut verdict");
}

#[test]
fn every_consumer_returns_the_one_safety_verdict() {
    let cfg = KlConfig::new(2, 3, 3);
    // A legitimate configuration: the non-stabilizing rung after its bootstrap.
    let legitimate = || {
        let tree = topology::builders::figure3_tree();
        let mut net = nonstab::network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        treenet::run_for(&mut net, &mut RoundRobin::new(), 2_000);
        net
    };
    let net = legitimate();
    assert_consumers_agree(&net, &cfg, Ok(()), true);

    // The disagreeing configuration: a requester asking for at most k units holds k + 1
    // reservations outside its critical section.  It uses no unit yet, so the
    // specification's in-use clause alone would accept it; the |RSet| ≤ k invariant does
    // not, and neither does any consumer.
    let mut net = legitimate();
    let node = &mut net.node_mut(1).app;
    (node.state, node.need, node.rset) = (CsState::Req, 1, vec![0; cfg.k + 1]);
    assert_eq!(NodeShare::of(net.node(1)).in_use, 0);
    assert_consumers_agree(&net, &cfg, Err("process 1 reserves 3 tokens but k = 2"), false);

    // The same holding inside the critical section: k + 1 units in use by one process.
    let mut net = legitimate();
    let node = &mut net.node_mut(2).app;
    (node.state, node.need, node.rset) = (CsState::In, 2, vec![0; cfg.k + 1]);
    assert_consumers_agree(&net, &cfg, Err("process 2 reserves 3 tokens but k = 2"), false);

    // Global overuse: every process within k, more than l units in use overall.
    let mut net = legitimate();
    for v in 0..net.len() {
        let node = &mut net.node_mut(v).app;
        (node.state, node.need, node.rset) = (CsState::In, 2, vec![0; 2]);
    }
    assert_consumers_agree(&net, &cfg, Err("6 units in use but l = 3"), false);

    // A surplus token in flight: still safe, no longer legitimate.
    let mut net = legitimate();
    net.inject_into(1, 0, Message::ResT);
    assert_eq!(count_tokens(&net).resource, cfg.l + 1);
    assert_consumers_agree(&net, &cfg, Ok(()), false);
}
