//! Self-stabilizing k-out-of-ℓ exclusion on an **oriented ring** — the prior-work baseline.
//!
//! The two earlier self-stabilizing k-out-of-ℓ exclusion protocols cited by the paper
//! (Datta, Hadid, Villain 2003) circulate ℓ resource tokens on a unidirectional ring with a
//! *controller* that counts and repairs the token population — the same architecture the
//! tree protocol generalises.  This module implements that ring protocol with the same
//! ingredients (resource tokens, a pusher, a priority token, a counter-flushing controller)
//! so that the only variable in the tree-vs-ring comparison (experiment E8) is the topology.
//!
//! On a ring every process has exactly one channel (label 0): it receives from its
//! predecessor and sends to its successor, so the circulation order is the ring itself and no
//! successor pointers are needed.  Counter flushing takes its classic ring form: the root
//! stamps the controller with `myC`; every other process forwards a controller whose stamp
//! differs from its stored value and drops duplicates; the root ends a circulation when a
//! controller carrying its current stamp returns, repairs the token population, increments
//! its stamp and launches the next circulation.  A root timeout restarts a lost controller.

use klex_core::{AppSide, KlConfig, KlInspect, Message};
use rand::rngs::StdRng;
use rand::Rng;
use topology::Ring;
use treenet::app::BoxedDriver;
use treenet::{Context, Corruptible, CsState, Event, Network, NodeId, Note, Process};

/// Messages of the ring baseline: the same vocabulary as the tree protocol.
pub type RingMessage = Message;

/// Root-only controller state.
#[derive(Clone, Debug)]
struct RingRoot {
    my_c: u64,
    reset: bool,
    s_token: u64,
    s_push: u8,
    s_prio: u8,
    ticks: u64,
    last_restart: u64,
}

/// A process of the ring-based self-stabilizing k-out-of-ℓ exclusion protocol.
pub struct RingSsNode {
    cfg: KlConfig,
    /// Request state (`State`, `Need`, `RSet`) and application driver.
    pub app: AppSide,
    /// Whether this process currently holds the priority token.
    pub prio: bool,
    /// Counter-flushing stamp last seen (non-root) — unused by the root, which keeps its own.
    my_c: u64,
    counter_modulus: u64,
    root: Option<RingRoot>,
}

impl RingSsNode {
    /// Creates the process for `node` of an `n`-process ring.  Node 0 is the root.
    pub fn new(node: NodeId, n: usize, cfg: KlConfig, driver: BoxedDriver) -> Self {
        let root = if node == 0 {
            Some(RingRoot {
                my_c: 0,
                reset: false,
                s_token: 0,
                s_push: 0,
                s_prio: 0,
                ticks: 0,
                last_restart: 0,
            })
        } else {
            None
        };
        RingSsNode {
            counter_modulus: cfg.counter_modulus(n),
            cfg,
            app: AppSide::new(node, driver),
            prio: false,
            my_c: 0,
            root,
        }
    }

    /// True for the ring's root (node 0).
    pub fn is_root(&self) -> bool {
        self.root.is_some()
    }

    fn in_reset(&self) -> bool {
        self.root.as_ref().map(|r| r.reset).unwrap_or(false)
    }

    fn bump_s_token(&mut self) {
        let cap = self.cfg.l as u64 + 1;
        if let Some(r) = &mut self.root {
            r.s_token = (r.s_token + 1).min(cap);
        }
    }

    fn handle_resource(&mut self, ctx: &mut Context<'_, Message>) {
        if self.in_reset() {
            return;
        }
        if self.app.wants_more() {
            self.app.reserve(0);
        } else {
            self.bump_s_token();
            ctx.send(0, Message::ResT);
        }
    }

    fn handle_pusher(&mut self, ctx: &mut Context<'_, Message>) {
        if self.in_reset() {
            return;
        }
        let must_release = !self.prio && !self.app.can_enter() && self.app.state != CsState::In;
        if must_release {
            let count = self.app.take_reserved().len();
            for _ in 0..count {
                self.bump_s_token();
                ctx.send(0, Message::ResT);
            }
        }
        if let Some(r) = &mut self.root {
            r.s_push = (r.s_push + 1).min(2);
        }
        ctx.send(0, Message::PushT);
    }

    fn handle_priority(&mut self, ctx: &mut Context<'_, Message>) {
        if self.in_reset() {
            return;
        }
        if !self.prio {
            self.prio = true;
        } else {
            ctx.send(0, Message::PrioT);
        }
    }

    fn root_handle_ctrl(&mut self, c: u64, pt: u64, ppr: u8, ctx: &mut Context<'_, Message>) {
        let l = self.cfg.l as u64;
        let modulus = self.counter_modulus;
        let Some(root) = self.root.as_ref() else { return };
        if c != root.my_c {
            return; // stale or forged controller: dropped
        }
        // The circulation is complete: the root's own reserved tokens and priority are the
        // last ones the controller passes.
        let pt = (pt + self.app.rset.len() as u64).min(l + 1);
        let ppr = (ppr + u8::from(self.prio)).min(2);
        let (s_token, s_push, s_prio) = (root.s_token, root.s_push, root.s_prio);
        let new_c = (root.my_c + 1) % modulus;
        let reset = pt + s_token > l || ppr as u64 + s_prio as u64 > 1 || s_push > 1;
        if reset {
            self.app.rset.clear();
            self.prio = false;
            ctx.emit(Event::Note(Note::ResetStart));
        } else {
            if ppr as u64 + s_prio as u64 == 0 {
                ctx.send(0, Message::PrioT);
            }
            let mut have = pt + s_token;
            while have < l {
                ctx.send(0, Message::ResT);
                have += 1;
            }
            if s_push == 0 {
                ctx.send(0, Message::PushT);
            }
        }
        let root = self.root.as_mut().expect("root state present");
        root.my_c = new_c;
        root.reset = reset;
        root.s_token = 0;
        root.s_push = 0;
        root.s_prio = 0;
        root.last_restart = root.ticks;
        ctx.send(0, Message::Ctrl { c: new_c, r: reset, pt: 0, ppr: 0 });
        ctx.emit(Event::Note(Note::Circulation));
    }

    fn nonroot_handle_ctrl(
        &mut self,
        c: u64,
        r_flag: bool,
        pt: u64,
        ppr: u8,
        ctx: &mut Context<'_, Message>,
    ) {
        let l = self.cfg.l as u64;
        if c == self.my_c {
            // Already forwarded this stamp: do not count anything, but retransmit the message
            // unchanged so the control part cannot deadlock (same rule as the tree protocol's
            // "invalid message from the parent" case).  Stale stamps eventually die at the
            // root, which drops them.
            ctx.send(0, Message::Ctrl { c, r: r_flag, pt, ppr });
            return;
        }
        self.my_c = c;
        if r_flag {
            self.app.rset.clear();
            self.prio = false;
        }
        let pt = (pt + self.app.rset.len() as u64).min(l + 1);
        let ppr = (ppr + u8::from(self.prio)).min(2);
        ctx.send(0, Message::Ctrl { c, r: r_flag, pt, ppr });
    }

    fn root_timeout(&mut self, ctx: &mut Context<'_, Message>) {
        let timeout = self.cfg.timeout_interval;
        let fire = if let Some(r) = &mut self.root {
            r.ticks += 1;
            r.ticks - r.last_restart >= timeout
        } else {
            false
        };
        if fire {
            let (my_c, reset) = {
                let r = self.root.as_ref().expect("root state present");
                (r.my_c, r.reset)
            };
            ctx.send(0, Message::Ctrl { c: my_c, r: reset, pt: 0, ppr: 0 });
            if let Some(r) = &mut self.root {
                r.last_restart = r.ticks;
            }
            ctx.emit(Event::Note(Note::Timeout));
        }
    }
}

impl Process for RingSsNode {
    type Msg = Message;

    fn on_message(&mut self, _from: usize, msg: Message, ctx: &mut Context<'_, Message>) {
        match msg {
            Message::ResT => self.handle_resource(ctx),
            Message::PushT => self.handle_pusher(ctx),
            Message::PrioT => self.handle_priority(ctx),
            Message::Ctrl { c, r, pt, ppr } => {
                if self.is_root() {
                    self.root_handle_ctrl(c, pt, ppr, ctx);
                } else {
                    self.nonroot_handle_ctrl(c, r, pt, ppr, ctx);
                }
            }
            // Garbage and stray snapshot markers alike: not protocol traffic, discarded.
            Message::Garbage(_) | Message::Marker(_) => {}
        }
    }

    fn on_tick(&mut self, ctx: &mut Context<'_, Message>) {
        self.app.poll_request(&self.cfg, ctx);
        self.app.try_enter(ctx);
        if let Some(tokens) = self.app.try_release(ctx) {
            for _ in tokens {
                self.bump_s_token();
                ctx.send(0, Message::ResT);
            }
        }
        if self.prio && !self.app.wants_more() {
            if let Some(r) = &mut self.root {
                r.s_prio = (r.s_prio + 1).min(2);
            }
            ctx.send(0, Message::PrioT);
            self.prio = false;
        }
        if self.is_root() {
            self.root_timeout(ctx);
        }
    }
}

impl KlInspect for RingSsNode {
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
        self.prio
    }
}

impl Corruptible for RingSsNode {
    fn corrupt(&mut self, rng: &mut StdRng) {
        let cfg = self.cfg;
        self.app.corrupt(&cfg, 1, rng);
        self.prio = rng.gen_bool(0.5);
        self.my_c = rng.gen_range(0..self.counter_modulus);
        if let Some(r) = &mut self.root {
            r.my_c = rng.gen_range(0..self.counter_modulus);
            r.reset = rng.gen_bool(0.3);
            r.s_token = rng.gen_range(0..=(cfg.l as u64 + 1));
            r.s_push = rng.gen_range(0..=2);
            r.s_prio = rng.gen_range(0..=2);
            r.last_restart = r.ticks.saturating_sub(rng.gen_range(0..cfg.timeout_interval));
        }
    }
}

/// Builds an `n`-process ring network running the baseline protocol.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn network(
    n: usize,
    cfg: KlConfig,
    mut driver_for: impl FnMut(NodeId) -> BoxedDriver,
) -> Network<RingSsNode, Ring> {
    assert!(n >= 2, "the ring baseline needs at least two processes");
    Network::new(Ring::new(n), |id| RingSsNode::new(id, n, cfg, driver_for(id)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use klex_core::legitimacy::safety_holds;
    use klex_core::{count_tokens, is_legitimate};
    use treenet::app::Idle;
    use treenet::{run_until, FaultInjector, FaultPlan, RoundRobin};
    use workloads::Saturated;

    #[test]
    fn ring_bootstraps_to_l_1_1() {
        let cfg = KlConfig::new(2, 4, 8);
        let mut net = network(8, cfg, |_| Box::new(Idle) as BoxedDriver);
        let mut sched = RoundRobin::new();
        let out = run_until(&mut net, &mut sched, 1_000_000, |n| is_legitimate(n, &cfg));
        assert!(out.is_satisfied());
        let census = count_tokens(&net);
        assert_eq!((census.resource, census.pusher, census.priority), (cfg.l, 1, 1));
    }

    #[test]
    fn ring_requests_are_served() {
        let cfg = KlConfig::new(2, 3, 6);
        let mut net = network(6, cfg, |id| {
            if id % 2 == 1 {
                Box::new(Saturated { units: 2, hold: 4 }) as BoxedDriver
            } else {
                Box::new(Idle) as BoxedDriver
            }
        });
        let mut sched = RoundRobin::new();
        let (mut cursor, mut entries) =
            (treenet::EnterCsCursor::default(), vec![0usize; net.len()]);
        let out = run_until(&mut net, &mut sched, 2_000_000, |n| {
            cursor.advance(n.trace(), |v| entries[v] += 1);
            [1usize, 3, 5].iter().all(|&v| entries[v] >= 3)
        });
        assert!(out.is_satisfied(), "ring requesters must repeatedly enter their CS");
    }

    #[test]
    fn ring_recovers_from_catastrophic_fault() {
        let cfg = KlConfig::new(1, 2, 6);
        let mut net = network(6, cfg, |_| Box::new(Idle) as BoxedDriver);
        let mut sched = RoundRobin::new();
        let out = run_until(&mut net, &mut sched, 1_000_000, |n| is_legitimate(n, &cfg));
        assert!(out.is_satisfied());
        let mut inj = FaultInjector::new(5);
        inj.inject(&mut net, &FaultPlan::catastrophic(cfg.cmax));
        let out = run_until(&mut net, &mut sched, 2_000_000, |n| is_legitimate(n, &cfg));
        assert!(out.is_satisfied(), "ring baseline must also self-stabilize");
    }

    #[test]
    fn ring_safety_under_saturation() {
        let cfg = KlConfig::new(2, 3, 5);
        let mut net = network(5, cfg, |_| Box::new(Saturated { units: 2, hold: 3 }) as BoxedDriver);
        let mut sched = RoundRobin::new();
        // Let it stabilize, then check the safety bound continuously.
        treenet::run_for(&mut net, &mut sched, 200_000);
        for _ in 0..50_000 {
            net.step_event(&mut sched);
            assert!(safety_holds(&net, &cfg), "unsafe at t={}", net.now());
        }
    }

    #[test]
    #[should_panic(expected = "at least two processes")]
    fn ring_rejects_single_node() {
        let _ = network(1, KlConfig::new(1, 1, 1), |_| Box::new(Idle) as BoxedDriver);
    }
}
