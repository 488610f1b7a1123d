//! Rung 4: the **self-stabilizing** k-out-of-ℓ exclusion protocol — Algorithms 1 and 2 of the
//! paper.
//!
//! On top of the three circulating token types of [`crate::nonstab`], the self-stabilizing
//! protocol adds a *controller*: a counter-flushing DFS token (`⟨ctrl, C, R, PT, PPr⟩`) that
//! the root circulates forever.  During one circulation the controller counts the resource,
//! priority and pusher tokens it *passes* (fields `PT`, `PPr`, and the root-local counters
//! `SToken`, `SPrio`, `SPush` count the tokens that complete a loop through the root without
//! being passed).  When a circulation terminates the root knows the token population and
//! repairs it: it creates missing tokens, or — if there are too many of some kind — starts a
//! *reset* circulation (`R = true`) that erases every resource/priority/pusher token so the
//! next circulation can recreate exactly ℓ, 1 and 1 of them.
//!
//! The controller itself is made self-stabilizing with Varghese's counter flushing: each
//! process holds a counter `myC ∈ [0 .. 2(n−1)(CMAX+1)]` and a successor pointer `Succ`; the
//! root retransmits the controller on a timeout and bumps `myC` at the end of every
//! circulation, so any stale or forged controller messages are eventually ignored
//! (flushed) and exactly one valid controller circulates in DFS order.
//!
//! # Code ↔ paper line map
//!
//! | Paper (Algorithm 1, root) | Here |
//! |---|---|
//! | lines 10–19 (ResT)  | `SsNode::handle_resource` |
//! | lines 20–34 (PushT) | `SsNode::handle_pusher` |
//! | lines 35–41 (PrioT) | `SsNode::handle_priority` |
//! | lines 42–76 (ctrl)  | `SsNode::root_handle_ctrl` |
//! | lines 78–98 (bottom of loop) | `SsNode::bottom_of_loop` |
//! | lines 99–102 (timeout) | `SsNode::root_timeout` |
//!
//! | Paper (Algorithm 2, non-root) | Here |
//! |---|---|
//! | lines 9–15 (ResT)   | `SsNode::handle_resource` |
//! | lines 16–24 (PushT) | `SsNode::handle_pusher` |
//! | lines 25–31 (PrioT) | `SsNode::handle_priority` |
//! | lines 32–60 (ctrl)  | `SsNode::nonroot_handle_ctrl` |
//! | lines 62–76 (bottom of loop) | `SsNode::bottom_of_loop` |
//!
//! Two deliberate deviations from the printed pseudo-code are applied by default (both are
//! documented on the [`crate::KlConfig`] flags that reverse them and quantified by experiment
//! E10, `klex experiment e10`): the pusher guard reads `Prio = ⊥` instead of the printed `Prio ≠ ⊥`
//! ([`crate::KlConfig::literal_pusher_guard`]), and the root counts its own passed tokens
//! *before* the circulation-completion block rather than after it
//! ([`crate::KlConfig::literal_completion_order`]; see `SsNode::root_handle_ctrl`).

use crate::config::KlConfig;
use crate::inspect::KlInspect;
use crate::message::Message;
use crate::node::AppSide;
use rand::rngs::StdRng;
use rand::Rng;
use topology::{OrientedTree, Topology};
use treenet::app::BoxedDriver;
use treenet::{ChannelLabel, Context, Corruptible, CsState, Event, Network, NodeId, Note, Process};

/// Root-only state of Algorithm 1.
#[derive(Clone, Debug)]
pub struct RootState {
    /// Counter-flushing value `myC`.
    pub my_c: u64,
    /// Successor pointer `Succ`: the channel the root expects the controller back from, and
    /// sends it to next.
    pub succ: ChannelLabel,
    /// The `Reset` flag: true while a reset circulation is in progress.
    pub reset: bool,
    /// `SToken ∈ [0 .. ℓ+1]`: resource tokens seen starting a new loop at the root during the
    /// current controller circulation.
    pub s_token: u64,
    /// `SPush ∈ [0 .. 2]`.
    pub s_push: u8,
    /// `SPrio ∈ [0 .. 2]`.
    pub s_prio: u8,
    /// Local activation counter used to implement `TimeOut()` / `RestartTimer()`.
    ticks: u64,
    /// Value of `ticks` at the last `RestartTimer()`.
    last_restart: u64,
}

impl RootState {
    fn new() -> Self {
        RootState {
            my_c: 0,
            succ: 0,
            reset: false,
            s_token: 0,
            s_push: 0,
            s_prio: 0,
            ticks: 0,
            last_restart: 0,
        }
    }
}

/// Non-root state of Algorithm 2.
#[derive(Clone, Debug)]
pub struct NonRootState {
    /// Counter-flushing value `myC`.
    pub my_c: u64,
    /// Successor pointer `Succ`.
    pub succ: ChannelLabel,
}

impl NonRootState {
    fn new() -> Self {
        NonRootState { my_c: 0, succ: 0 }
    }
}

/// Which algorithm this process runs.
#[derive(Clone, Debug)]
pub enum SsRole {
    /// The distinguished root `r`, running Algorithm 1.
    Root(RootState),
    /// Any other process, running Algorithm 2.
    NonRoot(NonRootState),
}

/// A process of the self-stabilizing k-out-of-ℓ exclusion protocol.
pub struct SsNode {
    cfg: KlConfig,
    /// Request state (`State`, `Need`, `RSet`) and application driver.
    pub app: AppSide,
    /// The paper's `Prio` variable.
    pub prio: Option<ChannelLabel>,
    /// Root or non-root algorithm state.
    pub role: SsRole,
    degree: usize,
    counter_modulus: u64,
}

impl SsNode {
    /// Creates the process for `node` of an `n`-process tree where the node has `degree`
    /// incident channels.
    pub fn new(node: NodeId, degree: usize, n: usize, cfg: KlConfig, driver: BoxedDriver) -> Self {
        let role = if node == 0 {
            SsRole::Root(RootState::new())
        } else {
            SsRole::NonRoot(NonRootState::new())
        };
        SsNode {
            counter_modulus: cfg.counter_modulus(n),
            cfg,
            app: AppSide::new(node, driver),
            prio: None,
            role,
            degree,
        }
    }

    /// The configuration this node runs with.
    pub fn config(&self) -> &KlConfig {
        &self.cfg
    }

    /// True for the root.
    pub fn is_root(&self) -> bool {
        matches!(self.role, SsRole::Root(_))
    }

    /// Root state accessor (panics on non-root; internal use only after checking the role).
    fn root(&mut self) -> &mut RootState {
        match &mut self.role {
            SsRole::Root(r) => r,
            SsRole::NonRoot(_) => unreachable!("root state requested on a non-root process"),
        }
    }

    /// Root `Reset` flag (false on non-roots, which have no such variable).
    fn in_reset(&self) -> bool {
        match &self.role {
            SsRole::Root(r) => r.reset,
            SsRole::NonRoot(_) => false,
        }
    }

    /// `SToken ← min(SToken + 1, ℓ + 1)` when a resource token leaves the root on channel 0
    /// after arriving from the last channel, i.e. starts a new loop of the virtual ring.
    fn bump_s_token(&mut self) {
        let cap = self.cfg.l as u64 + 1;
        if let SsRole::Root(r) = &mut self.role {
            r.s_token = (r.s_token + 1).min(cap);
        }
    }

    // ------------------------------------------------------------------------------------
    // Token handlers (shared by Algorithm 1 and Algorithm 2; the root-only counter updates
    // are guarded by the role).
    // ------------------------------------------------------------------------------------

    /// ResT reception — Algorithm 1 lines 10–19, Algorithm 2 lines 9–15.
    fn handle_resource(&mut self, from: ChannelLabel, ctx: &mut Context<'_, Message>) {
        if self.in_reset() {
            // Root, during a reset circulation: the token is swallowed (erased).
            return;
        }
        if self.app.wants_more() {
            self.app.reserve(from);
        } else {
            if self.is_root() && from + 1 == self.degree {
                self.bump_s_token();
            }
            ctx.send_next(from, Message::ResT);
        }
    }

    /// PushT reception — Algorithm 1 lines 20–34, Algorithm 2 lines 16–24.
    fn handle_pusher(&mut self, from: ChannelLabel, ctx: &mut Context<'_, Message>) {
        if self.in_reset() {
            return;
        }
        // Corrected guard: a process releases its reservations only if it does NOT hold the
        // priority token (and is neither in nor about to enter its critical section).  The
        // literal guard from the paper's listing is available for the ablation study.
        let prio_cond =
            if self.cfg.literal_pusher_guard { self.prio.is_some() } else { self.prio.is_none() };
        let must_release = prio_cond && !self.app.can_enter() && self.app.state != CsState::In;
        if must_release {
            let released = self.app.take_reserved();
            for label in released {
                if self.is_root() && label + 1 == self.degree {
                    self.bump_s_token();
                }
                ctx.send_next(label, Message::ResT);
            }
        }
        if self.is_root() && from + 1 == self.degree {
            if let SsRole::Root(r) = &mut self.role {
                r.s_push = (r.s_push + 1).min(2);
            }
        }
        ctx.send_next(from, Message::PushT);
    }

    /// PrioT reception — Algorithm 1 lines 35–41, Algorithm 2 lines 25–31.
    fn handle_priority(&mut self, from: ChannelLabel, ctx: &mut Context<'_, Message>) {
        if self.in_reset() {
            return;
        }
        if self.prio.is_none() {
            self.prio = Some(from);
        } else {
            ctx.send_next(from, Message::PrioT);
        }
    }

    // ------------------------------------------------------------------------------------
    // Controller handling.
    // ------------------------------------------------------------------------------------

    /// Number of reserved tokens that arrived on channel `q` (`|RSet|_q` in the paper): the
    /// tokens the controller *passes* when it traverses that channel.
    fn reserved_from(&self, q: ChannelLabel) -> u64 {
        self.app.rset.iter().filter(|&&label| label == q).count() as u64
    }

    /// ctrl reception at the root — Algorithm 1 lines 42–76.
    ///
    /// One accounting correction is applied by default (see the module documentation and
    /// experiment E10): the root's own *passed* tokens (`|RSet|_q`, line 69) are added to
    /// `PT` **before** the completion block of lines 45–68 rather than after it.  With the
    /// printed ordering, resource tokens reserved at the root that arrived from its last
    /// channel are credited to the *next* circulation, so the completed circulation
    /// undercounts, the root creates surplus tokens, and the following circulation detects
    /// the surplus and resets — a cycle that recurs whenever the root is a requester.
    /// [`KlConfig::literal_completion_order`] restores the printed ordering for the ablation
    /// experiment E10.
    fn root_handle_ctrl(
        &mut self,
        q: ChannelLabel,
        c: u64,
        mut pt: u64,
        mut ppr: u8,
        ctx: &mut Context<'_, Message>,
    ) {
        let l = self.cfg.l as u64;
        let modulus = self.counter_modulus;
        let literal_order = self.cfg.literal_completion_order;
        // Validity: the message must come from Succ and carry the current flag value.
        {
            let r = self.root();
            if !(q == r.succ && c == r.my_c) {
                return; // invalid: ignored (not retransmitted)
            }
            r.succ = (r.succ + 1) % ctx.degree;
        }
        // Line 69–72 (corrected placement): count the root's own passed tokens into the
        // circulation that traversed channel `q`.
        if !literal_order {
            let passed = self.reserved_from(q);
            pt = (pt + passed).min(l + 1);
            if self.prio == Some(q) {
                ppr = (ppr + 1).min(2);
            }
        }
        let completed = self.root().succ == 0;
        if completed {
            // Lines 45–68: the controller finished a full circulation.
            {
                let r = self.root();
                r.my_c = (r.my_c + 1) % modulus;
                r.reset = pt + r.s_token > l || ppr as u64 + r.s_prio as u64 > 1 || r.s_push > 1;
            }
            if self.root().reset {
                // Lines 48–50: start a reset circulation; drop local reservations.
                self.app.rset.clear();
                self.prio = None;
                ctx.emit(Event::Note(Note::ResetStart));
            } else {
                // Lines 51–62: repair deficits by creating the missing tokens on channel 0.
                let create_prio = {
                    let r = self.root();
                    (ppr as u64 + r.s_prio as u64) < 1
                };
                if create_prio {
                    ctx.send(0, Message::PrioT);
                }
                loop {
                    let deficit = {
                        let r = self.root();
                        pt + r.s_token < l
                    };
                    if !deficit {
                        break;
                    }
                    ctx.send(0, Message::ResT);
                    self.bump_s_token();
                }
                let create_push = {
                    let r = self.root();
                    r.s_push < 1
                };
                if create_push {
                    ctx.send(0, Message::PushT);
                }
            }
            // Lines 63–67: reset the per-circulation counters.
            {
                let r = self.root();
                r.s_token = 0;
                r.s_prio = 0;
                r.s_push = 0;
            }
            pt = 0;
            ppr = 0;
            ctx.emit(Event::Note(Note::Circulation));
        }
        // Lines 69–74 in the printed order (ablation only): count the root's passed tokens
        // after the completion block, crediting them to the next circulation.
        if literal_order {
            let passed = self.reserved_from(q);
            pt = (pt + passed).min(l + 1);
            if self.prio == Some(q) {
                ppr = (ppr + 1).min(2);
            }
        }
        let (succ, my_c, reset) = {
            let r = self.root();
            (r.succ, r.my_c, r.reset)
        };
        ctx.send(succ, Message::Ctrl { c: my_c, r: reset, pt, ppr });
        self.root_restart_timer();
    }

    /// ctrl reception at a non-root process — Algorithm 2 lines 32–60.
    fn nonroot_handle_ctrl(
        &mut self,
        q: ChannelLabel,
        c: u64,
        r_flag: bool,
        mut pt: u64,
        mut ppr: u8,
        ctx: &mut Context<'_, Message>,
    ) {
        let l = self.cfg.l as u64;
        let degree = ctx.degree;
        let mut ok = false;
        let mut clear = false;
        {
            let st = match &mut self.role {
                SsRole::NonRoot(st) => st,
                SsRole::Root(_) => unreachable!("non-root handler on the root"),
            };
            // Lines 34–41: the controller comes back from the successor with a matching flag.
            if q == st.succ && c == st.my_c && st.succ != 0 {
                st.succ = (st.succ + 1) % degree;
                ok = true;
                if r_flag {
                    clear = true;
                }
            }
            // Lines 42–52: the controller arrives from the parent.
            if q == 0 {
                ok = true;
                if st.my_c != c {
                    st.succ = 1.min(degree - 1);
                    if r_flag {
                        clear = true;
                    }
                }
                st.my_c = c;
            }
        }
        if clear {
            self.app.rset.clear();
            self.prio = None;
        }
        if ok {
            // Lines 53–59.
            let passed = self.reserved_from(q);
            pt = (pt + passed).min(l + 1);
            if self.prio == Some(q) {
                ppr = (ppr + 1).min(2);
            }
            let (succ, my_c) = match &self.role {
                SsRole::NonRoot(st) => (st.succ, st.my_c),
                SsRole::Root(_) => unreachable!(),
            };
            ctx.send(succ, Message::Ctrl { c: my_c, r: r_flag, pt, ppr });
        }
    }

    // ------------------------------------------------------------------------------------
    // Bottom-of-loop actions and timeout.
    // ------------------------------------------------------------------------------------

    /// `RestartTimer()`.
    fn root_restart_timer(&mut self) {
        if let SsRole::Root(r) = &mut self.role {
            r.last_restart = r.ticks;
        }
    }

    /// `TimeOut()` + retransmission — Algorithm 1 lines 99–102.
    fn root_timeout(&mut self, ctx: &mut Context<'_, Message>) {
        let timeout = self.cfg.timeout_interval;
        let fire = {
            match &mut self.role {
                SsRole::Root(r) => {
                    r.ticks += 1;
                    r.ticks - r.last_restart >= timeout
                }
                SsRole::NonRoot(_) => false,
            }
        };
        if fire {
            let (succ, my_c, reset) = {
                let r = self.root();
                (r.succ, r.my_c, r.reset)
            };
            ctx.send(succ, Message::Ctrl { c: my_c, r: reset, pt: 0, ppr: 0 });
            self.root_restart_timer();
            ctx.emit(Event::Note(Note::Timeout));
        }
    }

    /// The retransmission `root_timeout` would send right now (Algorithm 1 lines
    /// 99–102): the controller message carrying the current counter, aimed at `Succ`.
    /// `None` on non-root nodes.
    ///
    /// Exposed for executions that run the protocol with its timer disabled (the
    /// bounded-exhaustive checker's state abstraction) but still need the recovery the
    /// timeout provides when every in-flight message has been lost to injected faults.
    pub fn timeout_retransmission(&self) -> Option<(ChannelLabel, Message)> {
        match &self.role {
            SsRole::Root(r) => {
                Some((r.succ, Message::Ctrl { c: r.my_c, r: r.reset, pt: 0, ppr: 0 }))
            }
            SsRole::NonRoot(_) => None,
        }
    }

    /// Lines 78–98 (root) / 62–76 (non-root): request handling and priority release.
    fn bottom_of_loop(&mut self, ctx: &mut Context<'_, Message>) {
        self.app.poll_request(&self.cfg, ctx);
        self.app.try_enter(ctx);
        if let Some(tokens) = self.app.try_release(ctx) {
            for label in tokens {
                if self.is_root() && label + 1 == self.degree {
                    self.bump_s_token();
                }
                ctx.send_next(label, Message::ResT);
            }
        }
        // Priority release: forward the priority token unless the process is an unsatisfied
        // requester.
        if let Some(label) = self.prio {
            if !self.app.wants_more() {
                if self.is_root() && label + 1 == self.degree {
                    if let SsRole::Root(r) = &mut self.role {
                        r.s_prio = (r.s_prio + 1).min(2);
                    }
                }
                ctx.send_next(label, Message::PrioT);
                self.prio = None;
            }
        }
    }
}

impl Process for SsNode {
    type Msg = Message;

    fn on_message(&mut self, from: ChannelLabel, msg: Message, ctx: &mut Context<'_, Message>) {
        match msg {
            Message::ResT => self.handle_resource(from, ctx),
            Message::PushT => self.handle_pusher(from, ctx),
            Message::PrioT => self.handle_priority(from, ctx),
            Message::Ctrl { c, r, pt, ppr } => {
                if self.is_root() {
                    self.root_handle_ctrl(from, c, pt, ppr, ctx);
                } else {
                    self.nonroot_handle_ctrl(from, c, r, pt, ppr, ctx);
                }
            }
            Message::Garbage(_) => {
                // Not a protocol message: consumed and discarded.
            }
            Message::Marker(_) => {
                // Snapshot markers are consumed by the snapshot layer before delivery; one
                // reaching protocol code (e.g. snapshots disabled mid-flight) is treated
                // like garbage: consumed and discarded.
            }
        }
    }

    fn on_tick(&mut self, ctx: &mut Context<'_, Message>) {
        self.bottom_of_loop(ctx);
        if self.is_root() {
            self.root_timeout(ctx);
        }
    }

    /// A blocked non-root requester: every guard of `bottom_of_loop` reads false (`poll_request`
    /// wants `Out`, `try_enter` wants `|RSet| ≥ Need`, `try_release` wants `In`, the priority
    /// release wants a satisfied process).  Never the root, whose timer counts every tick.
    fn tick_is_noop(&self) -> bool {
        !self.is_root() && self.app.wants_more()
    }
}

impl KlInspect for SsNode {
    fn cs_state(&self) -> CsState {
        self.app.state
    }
    fn need(&self) -> usize {
        self.app.need
    }
    fn reserved(&self) -> usize {
        self.app.reserved()
    }
    fn holds_priority(&self) -> bool {
        self.prio.is_some()
    }
}

impl treenet::Restartable for SsNode {
    fn restart(&mut self) {
        self.app.restart();
        self.prio = None;
        self.role = if self.is_root() {
            SsRole::Root(RootState::new())
        } else {
            SsRole::NonRoot(NonRootState::new())
        };
    }
}

impl Corruptible for SsNode {
    fn corrupt(&mut self, rng: &mut StdRng) {
        let cfg = self.cfg;
        let degree = self.degree;
        self.app.corrupt(&cfg, degree, rng);
        self.prio = if rng.gen_bool(0.5) { Some(rng.gen_range(0..degree.max(1))) } else { None };
        match &mut self.role {
            SsRole::Root(r) => {
                r.my_c = rng.gen_range(0..self.counter_modulus);
                r.succ = rng.gen_range(0..degree.max(1));
                r.reset = rng.gen_bool(0.3);
                r.s_token = rng.gen_range(0..=(cfg.l as u64 + 1));
                r.s_push = rng.gen_range(0..=2);
                r.s_prio = rng.gen_range(0..=2);
                // The timer value itself is not part of the paper's state, but a fault may
                // leave it anywhere in its domain.
                r.last_restart = r.ticks.saturating_sub(rng.gen_range(0..cfg.timeout_interval));
            }
            SsRole::NonRoot(st) => {
                st.my_c = rng.gen_range(0..self.counter_modulus);
                st.succ = rng.gen_range(0..degree.max(1));
            }
        }
    }
}

/// Builds a self-stabilizing k-out-of-ℓ exclusion network over `tree`.
///
/// Started from the all-zero initial state the protocol bootstraps itself: the root's timeout
/// launches the controller, the first completed circulation reports a token deficit, and the
/// root creates exactly ℓ resource tokens, one priority token and one pusher.
///
/// # Panics
///
/// Panics if the tree has fewer than two nodes.
pub fn network(
    tree: OrientedTree,
    cfg: KlConfig,
    mut driver_for: impl FnMut(NodeId) -> BoxedDriver,
) -> Network<SsNode, OrientedTree> {
    assert!(tree.len() >= 2, "token circulation needs at least two processes");
    let n = tree.len();
    let degrees: Vec<usize> = (0..n).map(|v| tree.degree(v)).collect();
    Network::new(tree, |id| SsNode::new(id, degrees[id], n, cfg, driver_for(id)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legitimacy::{count_tokens, is_legitimate, safety_holds, LiveCensus};
    use treenet::app::Idle;
    use treenet::{run_sustained, run_until, FaultInjector, FaultPlan, RandomFair, RoundRobin};
    use workloads::Saturated;

    fn idle_net(tree: OrientedTree, cfg: KlConfig) -> Network<SsNode, OrientedTree> {
        network(tree, cfg, |_| Box::new(Idle) as BoxedDriver)
    }

    /// Runs until the network has been legitimate for `window` consecutive activations.
    ///
    /// Instantaneous legitimacy (token census = (ℓ,1,1)) can occur while the counter-flushing
    /// part is still unstable — e.g. duplicate controllers from bootstrap timeouts are still
    /// in flight — in which case a later mis-counted circulation may transiently disturb the
    /// census again.  The paper's legitimate set requires the controller to be stabilized
    /// too; sustained legitimacy is the empirical counterpart used throughout the tests and
    /// experiments.
    fn run_until_stable(
        net: &mut Network<SsNode, OrientedTree>,
        sched: &mut impl treenet::EventScheduler,
        max_steps: u64,
        window: u64,
        cfg: &KlConfig,
    ) -> bool {
        let mut census = LiveCensus::new(net, cfg);
        let step = |net: &mut Network<SsNode, OrientedTree>, census: &mut LiveCensus| {
            census.step(net, sched);
        };
        run_sustained(net, &mut census, max_steps, window, step, |_, c| c.is_legitimate())
            .is_satisfied()
    }

    #[test]
    fn bootstraps_to_exactly_l_1_1_tokens() {
        let tree = topology::builders::figure1_tree();
        let cfg = KlConfig::new(3, 5, 8);
        let mut net = idle_net(tree, cfg);
        let mut sched = RoundRobin::new();
        let out = run_until(&mut net, &mut sched, 2_000_000, |n| is_legitimate(n, &cfg));
        assert!(out.is_satisfied(), "the protocol must bootstrap from the empty configuration");
        let census = count_tokens(&net);
        assert_eq!(census.resource, cfg.l);
        assert_eq!(census.pusher, 1);
        assert_eq!(census.priority, 1);
    }

    #[test]
    fn token_population_is_stable_once_legitimate() {
        let tree = topology::builders::binary(7);
        let cfg = KlConfig::new(2, 4, 7);
        let mut net = idle_net(tree, cfg);
        let mut sched = RoundRobin::new();
        assert!(run_until_stable(&mut net, &mut sched, 2_000_000, 19_999, &cfg));
        // Closure: once legitimate (sustained), the census never changes again.
        for _ in 0..50_000 {
            net.step_event(&mut sched);
            let census = count_tokens(&net);
            assert_eq!(
                (census.resource, census.pusher, census.priority),
                (cfg.l, 1, 1),
                "token census must stay (l, 1, 1) after stabilization"
            );
        }
    }

    #[test]
    fn requests_are_served_after_bootstrap() {
        let tree = topology::builders::chain(5);
        let cfg = KlConfig::new(2, 3, 5);
        let mut net = network(tree, cfg, |id| {
            if id >= 3 {
                Box::new(Saturated { units: 2, hold: 4 }) as BoxedDriver
            } else {
                Box::new(Idle) as BoxedDriver
            }
        });
        let mut sched = RandomFair::new(11);
        let (mut cursor, mut entries) =
            (treenet::EnterCsCursor::default(), vec![0usize; net.len()]);
        let out = run_until(&mut net, &mut sched, 2_000_000, |n| {
            cursor.advance(n.trace(), |v| entries[v] += 1);
            entries[3] >= 3 && entries[4] >= 3
        });
        assert!(out.is_satisfied(), "requesters must repeatedly enter their critical sections");
    }

    #[test]
    fn recovers_from_catastrophic_fault() {
        let tree = topology::builders::figure1_tree();
        let cfg = KlConfig::new(3, 5, 8);
        let mut net = idle_net(tree, cfg);
        let mut sched = RoundRobin::new();
        // First stabilize...
        let out = run_until(&mut net, &mut sched, 2_000_000, |n| is_legitimate(n, &cfg));
        assert!(out.is_satisfied());
        // ...then hit the system with an arbitrary-configuration fault...
        let mut injector = FaultInjector::new(99);
        injector.inject(&mut net, &FaultPlan::catastrophic(cfg.cmax));
        // ...and it must converge again.
        let out = run_until(&mut net, &mut sched, 4_000_000, |n| is_legitimate(n, &cfg));
        assert!(out.is_satisfied(), "must re-stabilize after a catastrophic transient fault");
    }

    #[test]
    fn recovers_from_token_duplication() {
        let tree = topology::builders::star(6);
        let cfg = KlConfig::new(1, 2, 6);
        let mut net = idle_net(tree, cfg);
        let mut sched = RoundRobin::new();
        let out = run_until(&mut net, &mut sched, 2_000_000, |n| is_legitimate(n, &cfg));
        assert!(out.is_satisfied());
        // Inject 4 extra resource tokens and 2 extra pushers: the controller must detect the
        // surplus and reset the network back to exactly (l, 1, 1).
        for _ in 0..4 {
            net.inject_into(0, 0, Message::ResT);
        }
        net.inject_into(2, 0, Message::PushT);
        net.inject_into(3, 0, Message::PushT);
        assert!(!is_legitimate(&net, &cfg));
        let out = run_until(&mut net, &mut sched, 4_000_000, |n| is_legitimate(n, &cfg));
        assert!(out.is_satisfied(), "must recover from duplicated tokens via reset");
    }

    #[test]
    fn recovers_from_total_token_loss() {
        let tree = topology::builders::chain(4);
        let cfg = KlConfig::new(1, 3, 4);
        let mut net = idle_net(tree, cfg);
        let mut sched = RoundRobin::new();
        let out = run_until(&mut net, &mut sched, 1_000_000, |n| is_legitimate(n, &cfg));
        assert!(out.is_satisfied());
        // Drop every in-flight token.
        use topology::Topology;
        for v in 0..4usize {
            let deg = net.topology().degree(v);
            for l in 0..deg {
                net.channel_mut(v, l).clear();
            }
        }
        let out = run_until(&mut net, &mut sched, 2_000_000, |n| is_legitimate(n, &cfg));
        assert!(out.is_satisfied(), "must recreate lost tokens");
    }

    #[test]
    fn safety_never_violated_after_stabilization() {
        let tree = topology::builders::caterpillar(3, 1);
        let cfg = KlConfig::new(2, 3, 6);
        let mut net =
            network(tree, cfg, |_| Box::new(Saturated { units: 2, hold: 3 }) as BoxedDriver);
        let mut sched = RandomFair::new(5);
        assert!(run_until_stable(&mut net, &mut sched, 3_000_000, 29_999, &cfg));
        for _ in 0..100_000 {
            net.step_event(&mut sched);
            assert!(safety_holds(&net, &cfg), "unsafe at t={}", net.now());
        }
    }

    #[test]
    fn corrupt_keeps_variables_in_domain() {
        use rand::SeedableRng;
        let tree = topology::builders::figure1_tree();
        let cfg = KlConfig::new(3, 5, 8);
        let mut net = idle_net(tree, cfg);
        let mut rng = StdRng::seed_from_u64(4);
        for v in 0..8 {
            for _ in 0..50 {
                net.node_mut(v).corrupt(&mut rng);
                let node = net.node(v);
                assert!(node.app.need <= cfg.k);
                assert!(node.app.reserved() <= cfg.k);
                match &node.role {
                    SsRole::Root(r) => {
                        assert!(r.my_c < cfg.counter_modulus(8));
                        assert!(r.s_token <= cfg.l as u64 + 1);
                        assert!(r.s_push <= 2 && r.s_prio <= 2);
                    }
                    SsRole::NonRoot(st) => {
                        assert!(st.my_c < cfg.counter_modulus(8));
                    }
                }
            }
        }
    }

    #[test]
    fn root_ignores_stale_controllers() {
        let tree = topology::builders::chain(3);
        let cfg = KlConfig::new(1, 1, 3);
        let mut net = idle_net(tree, cfg);
        // Forge a controller with a wrong flag value: the root must not react (no send).
        net.inject_into(0, 0, Message::Ctrl { c: 77, r: false, pt: 0, ppr: 0 });
        let before = net.metrics().sent_of_kind("ctrl");
        net.execute(treenet::Activation::Deliver { node: 0, channel: 0 });
        let after = net.metrics().sent_of_kind("ctrl");
        assert_eq!(before, after, "an invalid controller must be ignored by the root");
    }

    #[test]
    fn recovers_from_crash_restart_of_every_process() {
        use treenet::Restartable as _;
        let tree = topology::builders::binary(7);
        let cfg = KlConfig::new(1, 3, 7);
        let mut net = idle_net(tree, cfg);
        let mut sched = RoundRobin::new();
        let out = run_until(&mut net, &mut sched, 2_000_000, |n| is_legitimate(n, &cfg));
        assert!(out.is_satisfied());
        // Crash-restart every process (including the root) and lose all in-flight messages.
        let mut injector = FaultInjector::new(3);
        let report = injector.crash(&mut net, &(0..7).collect::<Vec<_>>(), true);
        assert_eq!(report.nodes_crashed, 7);
        assert_eq!(net.in_flight(), 0, "all in-flight messages were lost");
        // A restarted node is in its initial state, which the protocol bootstraps from.
        let out = run_until(&mut net, &mut sched, 4_000_000, |n| is_legitimate(n, &cfg));
        assert!(out.is_satisfied(), "crash-restart is a transient fault the protocol absorbs");
        // Restart is idempotent on an already-initial node.
        net.node_mut(1).restart();
        net.node_mut(1).restart();
        assert_eq!(net.node(1).app.state, CsState::Out);
    }

    #[test]
    fn unbounded_counter_variant_bootstraps_and_serves() {
        // The conclusion's unbounded-memory adaptation: same protocol, effectively infinite
        // counter-flushing domain.  It must bootstrap and serve requests exactly like the
        // bounded variant.
        let tree = topology::builders::binary(6);
        let cfg = KlConfig::new(2, 3, 6).with_unbounded_counter(true);
        let mut net =
            network(tree, cfg, |_| Box::new(Saturated { units: 1, hold: 3 }) as BoxedDriver);
        let mut sched = RandomFair::new(23);
        let (mut cursor, mut entries) = (treenet::EnterCsCursor::default(), 0);
        let out = run_until(&mut net, &mut sched, 2_000_000, |n| {
            cursor.advance(n.trace(), |_| entries += 1);
            is_legitimate(n, &cfg) && entries >= 10
        });
        assert!(out.is_satisfied(), "the unbounded-counter variant must bootstrap and serve");
    }

    #[test]
    fn unbounded_counter_recovers_when_garbage_exceeds_cmax() {
        // Violate the CMAX assumption: insert far more forged controller messages than the
        // bounded domain was sized for.  The unbounded variant must still converge (the
        // root's flag value eventually out-runs every stale stamp).
        let tree = topology::builders::chain(5);
        let cfg = KlConfig::new(1, 2, 5).with_cmax(0).with_unbounded_counter(true);
        let mut net = idle_net(tree, cfg);
        let mut sched = RoundRobin::new();
        let out = run_until(&mut net, &mut sched, 1_000_000, |n| is_legitimate(n, &cfg));
        assert!(out.is_satisfied());
        // Flood every channel with forged controllers carrying many distinct stamps, far more
        // than CMAX = 0 allows, plus a few forged tokens.
        use topology::Topology;
        for v in 0..5usize {
            let deg = net.topology().degree(v);
            for l in 0..deg {
                for stamp in 0..20u64 {
                    net.inject_into(v, l, Message::Ctrl { c: stamp, r: false, pt: 0, ppr: 0 });
                }
                net.inject_into(v, l, Message::ResT);
            }
        }
        let out = run_until(&mut net, &mut sched, 4_000_000, |n| is_legitimate(n, &cfg));
        assert!(out.is_satisfied(), "unbounded counters must flush arbitrary amounts of garbage");
    }

    #[test]
    fn garbage_messages_are_flushed() {
        let tree = topology::builders::figure1_tree();
        let cfg = KlConfig::new(3, 5, 8);
        let mut net = idle_net(tree, cfg);
        for v in 0..8usize {
            net.inject_into(v, 0, Message::Garbage(v as u16));
        }
        let mut sched = RoundRobin::new();
        let out = run_until(&mut net, &mut sched, 2_000_000, |n| {
            is_legitimate(n, &cfg)
                && n.iter_messages().filter(|(_, _, m)| matches!(m, Message::Garbage(_))).count()
                    == 0
        });
        assert!(out.is_satisfied(), "garbage must disappear and the system must stabilize");
    }
}

#[cfg(test)]
mod controller_unit_tests {
    //! Fine-grained tests of the controller (ctrl) handling rules of Algorithms 1 and 2,
    //! exercised on single processes with a detached context so each rule of the paper can be
    //! checked in isolation.

    use super::*;
    use treenet::app::Idle;
    use treenet::Context;

    fn detached_node(node: NodeId, degree: usize, n: usize, cfg: KlConfig) -> SsNode {
        SsNode::new(node, degree, n, cfg, Box::new(Idle))
    }

    fn deliver(
        node: &mut SsNode,
        from: ChannelLabel,
        msg: Message,
        degree: usize,
    ) -> (Vec<(ChannelLabel, Message)>, Vec<Event>) {
        let mut outbox = Vec::new();
        let mut events = Vec::new();
        {
            let mut ctx = Context::detached(node.app.node, degree, 1, &mut outbox, &mut events);
            node.on_message(from, msg, &mut ctx);
        }
        (outbox, events)
    }

    #[test]
    fn nonroot_forwards_parent_ctrl_with_matching_stamp_without_counting() {
        // Algorithm 2, the "invalid message from channel 0 with myC = c" case: retransmitted
        // to prevent deadlock, but Succ is not advanced.
        let cfg = KlConfig::new(1, 3, 4);
        let mut node = detached_node(1, 3, 4, cfg);
        node.app.state = CsState::Req;
        node.app.need = 1;
        node.app.rset = vec![0]; // one reserved token from the parent
        let (out, _) = deliver(&mut node, 0, Message::Ctrl { c: 0, r: false, pt: 0, ppr: 0 }, 3);
        assert_eq!(out.len(), 1, "the controller must be retransmitted");
        match out[0].1 {
            Message::Ctrl { c, pt, .. } => {
                assert_eq!(c, 0);
                // myC == c, so the reserved token from channel 0 IS counted (line 54 runs
                // because Ok is true) — that is the paper-literal behaviour.
                assert_eq!(pt, 1);
            }
            ref other => panic!("expected a controller, got {other:?}"),
        }
        match &node.role {
            SsRole::NonRoot(st) => assert_eq!(st.succ, 0, "Succ unchanged for a duplicate"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn nonroot_new_circulation_from_parent_resets_succ_and_adopts_stamp() {
        let cfg = KlConfig::new(1, 3, 5);
        let mut node = detached_node(2, 3, 5, cfg);
        let (out, _) = deliver(&mut node, 0, Message::Ctrl { c: 7, r: false, pt: 2, ppr: 0 }, 3);
        match &node.role {
            SsRole::NonRoot(st) => {
                assert_eq!(st.my_c, 7, "myC adopts the parent's stamp");
                assert_eq!(st.succ, 1, "Succ points at the first child");
            }
            _ => unreachable!(),
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 1, "forwarded towards the first child");
    }

    #[test]
    fn nonroot_leaf_bounces_new_circulation_back_to_parent() {
        let cfg = KlConfig::new(1, 2, 3);
        let mut node = detached_node(2, 1, 3, cfg); // a leaf: only the parent channel
        let (out, _) = deliver(&mut node, 0, Message::Ctrl { c: 3, r: false, pt: 0, ppr: 0 }, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 0, "min(1, Δ−1) = 0 for a leaf: straight back to the parent");
    }

    #[test]
    fn nonroot_reset_circulation_erases_reservations_and_priority() {
        let cfg = KlConfig::new(2, 3, 4);
        let mut node = detached_node(1, 2, 4, cfg);
        node.app.state = CsState::Req;
        node.app.need = 2;
        node.app.rset = vec![0, 1];
        node.prio = Some(1);
        let (out, _) = deliver(&mut node, 0, Message::Ctrl { c: 9, r: true, pt: 0, ppr: 0 }, 2);
        assert!(node.app.rset.is_empty(), "reset erases RSet");
        assert!(node.prio.is_none(), "reset erases Prio");
        match out[0].1 {
            Message::Ctrl { r, pt, ppr, .. } => {
                assert!(r);
                assert_eq!((pt, ppr), (0, 0), "nothing left to count after the erase");
            }
            ref other => panic!("expected a controller, got {other:?}"),
        }
    }

    #[test]
    fn nonroot_ignores_ctrl_from_wrong_child_channel() {
        let cfg = KlConfig::new(1, 2, 4);
        let mut node = detached_node(1, 3, 4, cfg);
        // Succ is 0, so a controller from child channel 2 is invalid and silently dropped.
        let (out, _) = deliver(&mut node, 2, Message::Ctrl { c: 0, r: false, pt: 0, ppr: 0 }, 3);
        assert!(out.is_empty(), "invalid controllers from non-parent channels are dropped");
    }

    #[test]
    fn root_completion_counts_last_channel_reservations_with_corrected_order() {
        // The root reserved one token from its last channel; when the controller returns on
        // that channel and completes the circulation, the corrected ordering counts it, so no
        // spurious token is created (pt + SToken == l).
        let cfg = KlConfig::new(1, 1, 3);
        let mut root = detached_node(0, 2, 3, cfg);
        root.app.state = CsState::Req;
        root.app.need = 1;
        root.app.rset = vec![1]; // reserved from the last channel
        if let SsRole::Root(r) = &mut root.role {
            r.succ = 1; // expecting the controller back from channel 1
        }
        let (out, events) =
            deliver(&mut root, 1, Message::Ctrl { c: 0, r: false, pt: 0, ppr: 0 }, 2);
        // No ResT creation: the only resource token is the one the root reserves.
        assert!(
            out.iter().all(|(_, m)| *m != Message::ResT),
            "corrected ordering must not create surplus tokens, got {out:?}"
        );
        assert!(events.iter().any(|e| matches!(e, Event::Note(Note::Circulation))));
        // The next circulation starts with a fresh stamp.
        if let SsRole::Root(r) = &root.role {
            assert_eq!(r.my_c, 1);
            assert!(!r.reset);
        }
    }

    #[test]
    fn root_literal_completion_order_creates_surplus_then_resets() {
        // Same situation as above but with the paper-literal ordering: the completed
        // circulation misses the root's reserved token, so a surplus ResT is created; the
        // next completed circulation counts both and triggers a reset.
        let cfg = KlConfig::new(1, 1, 3).with_literal_completion_order(true);
        let mut root = detached_node(0, 2, 3, cfg);
        root.app.state = CsState::Req;
        root.app.need = 1;
        root.app.rset = vec![1];
        if let SsRole::Root(r) = &mut root.role {
            r.succ = 1;
        }
        let (out, _) = deliver(&mut root, 1, Message::Ctrl { c: 0, r: false, pt: 0, ppr: 0 }, 2);
        assert!(
            out.iter().any(|(_, m)| *m == Message::ResT),
            "literal ordering undercounts and creates a surplus token"
        );
        // Second circulation: the controller passes the still-reserved token (pt = 1) and the
        // surplus one completes a loop through the root (SToken = 1): 1 + 1 > l, so reset.
        if let SsRole::Root(r) = &mut root.role {
            r.succ = 1;
            r.s_token = 1;
        }
        let (_, events) = deliver(&mut root, 1, Message::Ctrl { c: 1, r: false, pt: 1, ppr: 0 }, 2);
        assert!(
            events.iter().any(|e| matches!(e, Event::Note(Note::ResetStart))),
            "the following circulation must detect the surplus and reset"
        );
    }

    #[test]
    fn root_ignores_ctrl_from_unexpected_channel_or_stamp() {
        let cfg = KlConfig::new(1, 2, 3);
        let mut root = detached_node(0, 2, 3, cfg);
        // succ = 0, my_c = 0: wrong channel.
        let (out, _) = deliver(&mut root, 1, Message::Ctrl { c: 0, r: false, pt: 0, ppr: 0 }, 2);
        assert!(out.is_empty());
        // right channel, wrong stamp.
        let (out, _) = deliver(&mut root, 0, Message::Ctrl { c: 5, r: false, pt: 0, ppr: 0 }, 2);
        assert!(out.is_empty());
    }

    #[test]
    fn pusher_respects_priority_holder_with_corrected_guard() {
        let cfg = KlConfig::new(2, 3, 4);
        let mut node = detached_node(1, 2, 4, cfg);
        node.app.state = CsState::Req;
        node.app.need = 2;
        node.app.rset = vec![0];
        node.prio = Some(0);
        let (out, _) = deliver(&mut node, 0, Message::PushT, 2);
        assert_eq!(node.app.reserved(), 1, "the priority holder keeps its reservation");
        assert_eq!(out.len(), 1, "only the pusher is forwarded");
        assert_eq!(out[0].1, Message::PushT);
    }

    #[test]
    fn pusher_evicts_priority_holder_under_literal_guard() {
        let cfg = KlConfig::new(2, 3, 4).with_literal_pusher_guard(true);
        let mut node = detached_node(1, 2, 4, cfg);
        node.app.state = CsState::Req;
        node.app.need = 2;
        node.app.rset = vec![0];
        node.prio = Some(0);
        let (out, _) = deliver(&mut node, 0, Message::PushT, 2);
        assert_eq!(node.app.reserved(), 0, "the literal guard evicts the priority holder");
        assert!(out.iter().any(|(_, m)| *m == Message::ResT));
    }

    #[test]
    fn pusher_does_not_evict_processes_in_or_about_to_enter_cs() {
        let cfg = KlConfig::new(2, 3, 4);
        for state in [CsState::In, CsState::Req] {
            let mut node = detached_node(1, 2, 4, cfg);
            node.app.state = state;
            node.app.need = 1;
            node.app.rset = vec![0]; // |RSet| >= Need: enabled (or already in) CS
            let (_, _) = deliver(&mut node, 0, Message::PushT, 2);
            assert_eq!(node.app.reserved(), 1, "state {state:?} keeps its tokens");
        }
    }

    #[test]
    fn pt_field_saturates_at_l_plus_one() {
        // Bounded-memory rule: counter fields saturate instead of growing without bound.
        let cfg = KlConfig::new(2, 2, 4);
        let mut node = detached_node(1, 2, 4, cfg);
        node.app.state = CsState::Req;
        node.app.need = 2;
        node.app.rset = vec![0, 0];
        let (out, _) = deliver(&mut node, 0, Message::Ctrl { c: 4, r: false, pt: 2, ppr: 0 }, 2);
        match out[0].1 {
            Message::Ctrl { pt, .. } => assert_eq!(pt, 3, "min(2 + 2, l + 1) = 3"),
            ref other => panic!("expected a controller, got {other:?}"),
        }
    }

    #[test]
    fn root_timeout_retransmits_controller_and_restarts_timer() {
        let cfg = KlConfig::new(1, 2, 3).with_timeout(5);
        let mut root = detached_node(0, 2, 3, cfg);
        let mut sent = 0;
        for _ in 0..20u64 {
            let mut outbox = Vec::new();
            let mut events = Vec::new();
            {
                let mut ctx = Context::detached(0, 2, 1, &mut outbox, &mut events);
                root.on_tick(&mut ctx);
            }
            sent += outbox.iter().filter(|(_, m)| m.is_ctrl()).count();
        }
        // With a timeout of 5 root ticks, 20 ticks produce 4 controller retransmissions.
        assert_eq!(sent, 4);
    }
}
