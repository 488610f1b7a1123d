//! A permission-based baseline: static per-unit arbiters with totally-ordered acquisition.
//!
//! The non-self-stabilizing k-out-of-ℓ exclusion protocols in the literature are
//! permission-based: a requester obtains permissions from other processes (Raynal 1991) or
//! from quorums/arbiters (Manabe et al.).  This module implements a deliberately simple
//! member of that family that is easy to reason about and cheap to measure against:
//!
//! * every resource unit `u ∈ 0..ℓ` has a fixed *arbiter* process (`u mod n`) that grants the
//!   unit to at most one holder at a time, FIFO;
//! * a requester needing `j` units acquires units `0, 1, …, j−1` **in ascending order**,
//!   waiting for each grant before asking for the next (the classic total-order rule, which
//!   makes the protocol deadlock-free), then enters its critical section and finally returns
//!   every unit to its arbiter.
//!
//! The total order makes the protocol conservative — conflicting requests serialise on the
//! lowest-numbered units even when disjoint higher-numbered units are free — so it is used in
//! the experiments as a *message-complexity* comparator (2 messages per unit per critical
//! section plus no background traffic), not as a throughput-optimal permission protocol.
//! It is also not fault-tolerant: lost grants are never regenerated (experiment E10 shows
//! this by injecting message loss).

use klex_core::{KlConfig, KlInspect};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;
use topology::Complete;
use treenet::app::BoxedDriver;
use treenet::{
    ChannelLabel, Context, Corruptible, CsState, Event, MessageKind, Network, NodeId, Process,
};

/// Messages of the arbiter baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArbiterMessage {
    /// Ask the arbiter of `unit` for that unit.
    Acquire {
        /// The unit requested.
        unit: usize,
    },
    /// The arbiter grants `unit` to the requester.
    Grant {
        /// The unit granted.
        unit: usize,
    },
    /// The holder returns `unit` to its arbiter.
    Release {
        /// The unit returned.
        unit: usize,
    },
}

impl MessageKind for ArbiterMessage {
    fn kind(&self) -> &'static str {
        match self {
            ArbiterMessage::Acquire { .. } => "Acquire",
            ArbiterMessage::Grant { .. } => "Grant",
            ArbiterMessage::Release { .. } => "Release",
        }
    }
}

impl treenet::ArbitraryMessage for ArbiterMessage {
    fn arbitrary(rng: &mut StdRng) -> Self {
        match rng.gen_range(0..3) {
            0 => ArbiterMessage::Acquire { unit: rng.gen_range(0..8) },
            1 => ArbiterMessage::Grant { unit: rng.gen_range(0..8) },
            _ => ArbiterMessage::Release { unit: rng.gen_range(0..8) },
        }
    }
}

/// Per-unit arbiter bookkeeping: whether the unit is out, and who is waiting for it.
#[derive(Clone, Debug, Default)]
struct UnitState {
    busy: bool,
    waiting: VecDeque<ChannelLabel>,
}

/// A process of the arbiter baseline (every process is both a potential requester and the
/// arbiter of the units assigned to it).
pub struct PermissionNode {
    cfg: KlConfig,
    node: NodeId,
    n: usize,
    state: CsState,
    need: usize,
    held: Vec<usize>,
    next_to_ask: usize,
    asked: bool,
    entered_at: u64,
    driver: BoxedDriver,
    /// Arbiter state for the units homed at this process, keyed by unit id.
    arbited: Vec<(usize, UnitState)>,
}

impl PermissionNode {
    /// Creates the process for `node` in an `n`-process complete network.
    pub fn new(node: NodeId, n: usize, cfg: KlConfig, driver: BoxedDriver) -> Self {
        let arbited =
            (0..cfg.l).filter(|u| u % n == node).map(|u| (u, UnitState::default())).collect();
        PermissionNode {
            cfg,
            node,
            n,
            state: CsState::Out,
            need: 0,
            held: Vec::new(),
            next_to_ask: 0,
            asked: false,
            entered_at: 0,
            driver,
            arbited,
        }
    }

    /// The arbiter (home process) of `unit`.
    pub fn arbiter_of(unit: usize, n: usize) -> NodeId {
        unit % n
    }

    fn arbiter_state(&mut self, unit: usize) -> Option<&mut UnitState> {
        self.arbited.iter_mut().find(|(u, _)| *u == unit).map(|(_, s)| s)
    }

    /// Channel label from this node towards `peer` on the complete graph.
    fn label_to(&self, peer: NodeId) -> ChannelLabel {
        Complete::new(self.n).label_of(self.node, peer)
    }

    /// Grants `unit` locally (self-arbited) or sends the acquire message.
    fn acquire(&mut self, unit: usize, ctx: &mut Context<'_, ArbiterMessage>) {
        let arbiter = Self::arbiter_of(unit, self.n);
        if arbiter == self.node {
            // Local arbiter: grant immediately if free, otherwise queue ourselves (represented
            // by an impossible channel label, handled in `local_release`).
            let free = {
                let st = self.arbiter_state(unit).expect("unit is homed here");
                if st.busy {
                    st.waiting.push_back(usize::MAX);
                    false
                } else {
                    st.busy = true;
                    true
                }
            };
            if free {
                self.got_unit(unit, ctx);
            }
        } else {
            let label = self.label_to(arbiter);
            ctx.send(label, ArbiterMessage::Acquire { unit });
        }
    }

    fn got_unit(&mut self, unit: usize, ctx: &mut Context<'_, ArbiterMessage>) {
        if self.state != CsState::Req || self.held.contains(&unit) {
            // Spurious grant (fault or stale): return it immediately.
            self.give_back(unit, ctx);
            return;
        }
        self.held.push(unit);
        self.asked = false;
        self.next_to_ask = unit + 1;
        if self.held.len() >= self.need {
            self.state = CsState::In;
            self.entered_at = ctx.now;
            ctx.emit(Event::EnterCs { units: Event::units(self.held.len()) });
        }
    }

    fn give_back(&mut self, unit: usize, ctx: &mut Context<'_, ArbiterMessage>) {
        let arbiter = Self::arbiter_of(unit, self.n);
        if arbiter == self.node {
            self.local_release(unit, ctx);
        } else {
            let label = self.label_to(arbiter);
            ctx.send(label, ArbiterMessage::Release { unit });
        }
    }

    /// Releases a locally-arbited unit and hands it to the next waiter, if any.
    fn local_release(&mut self, unit: usize, ctx: &mut Context<'_, ArbiterMessage>) {
        let next = {
            let st = match self.arbiter_state(unit) {
                Some(st) => st,
                None => return,
            };
            st.busy = false;
            st.waiting.pop_front()
        };
        if let Some(waiter) = next {
            {
                let st = self.arbiter_state(unit).expect("unit is homed here");
                st.busy = true;
            }
            if waiter == usize::MAX {
                // We were waiting for our own unit.
                self.got_unit(unit, ctx);
            } else {
                ctx.send(waiter, ArbiterMessage::Grant { unit });
            }
        }
    }
}

impl Process for PermissionNode {
    type Msg = ArbiterMessage;

    fn on_message(
        &mut self,
        from: ChannelLabel,
        msg: ArbiterMessage,
        ctx: &mut Context<'_, ArbiterMessage>,
    ) {
        match msg {
            ArbiterMessage::Acquire { unit } => {
                let grant_now = {
                    match self.arbiter_state(unit) {
                        Some(st) => {
                            if st.busy {
                                st.waiting.push_back(from);
                                false
                            } else {
                                st.busy = true;
                                true
                            }
                        }
                        // Not our unit (stale/forged message): ignore.
                        None => false,
                    }
                };
                if grant_now {
                    ctx.send(from, ArbiterMessage::Grant { unit });
                }
            }
            ArbiterMessage::Grant { unit } => self.got_unit(unit, ctx),
            ArbiterMessage::Release { unit } => self.local_release(unit, ctx),
        }
    }

    fn on_tick(&mut self, ctx: &mut Context<'_, ArbiterMessage>) {
        match self.state {
            CsState::Out => {
                if let Some(units) = self.driver.next_request(self.node, ctx.now) {
                    self.need = units.clamp(1, self.cfg.k);
                    self.state = CsState::Req;
                    self.next_to_ask = 0;
                    self.asked = false;
                    ctx.emit(Event::RequestIssued { units: Event::units(self.need) });
                }
            }
            CsState::Req => {
                // Ordered acquisition: ask for the next unit only when the previous one is
                // held and no request is outstanding.
                if !self.asked && self.held.len() < self.need && self.next_to_ask < self.cfg.l {
                    self.asked = true;
                    let unit = self.next_to_ask;
                    self.acquire(unit, ctx);
                }
            }
            CsState::In => {
                if self.driver.release_cs(self.node, ctx.now, self.entered_at) {
                    let held = std::mem::take(&mut self.held);
                    ctx.emit(Event::ExitCs { units: Event::units(held.len()) });
                    for unit in held {
                        self.give_back(unit, ctx);
                    }
                    self.state = CsState::Out;
                    self.need = 0;
                }
            }
        }
    }
}

impl KlInspect for PermissionNode {
    fn cs_state(&self) -> CsState {
        self.state
    }
    fn need(&self) -> usize {
        self.need
    }
    fn reserved(&self) -> usize {
        self.held.len()
    }
    fn holds_priority(&self) -> bool {
        false
    }
}

impl Corruptible for PermissionNode {
    fn corrupt(&mut self, rng: &mut StdRng) {
        self.state = match rng.gen_range(0..3) {
            0 => CsState::Out,
            1 => CsState::Req,
            _ => CsState::In,
        };
        self.need = rng.gen_range(0..=self.cfg.k);
        self.held.clear();
        self.asked = rng.gen_bool(0.5);
        self.next_to_ask = rng.gen_range(0..=self.cfg.l);
    }
}

/// Builds an `n`-process complete-graph network running the arbiter baseline.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn network(
    n: usize,
    cfg: KlConfig,
    mut driver_for: impl FnMut(NodeId) -> BoxedDriver,
) -> Network<PermissionNode, Complete> {
    assert!(n >= 2, "the arbiter baseline needs at least two processes");
    Network::new(Complete::new(n), |id| PermissionNode::new(id, n, cfg, driver_for(id)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use klex_core::legitimacy::safety_holds;
    use treenet::app::Idle;
    use treenet::{run_until, RandomFair, RoundRobin};
    use workloads::Saturated;

    #[test]
    fn single_requester_gets_all_units() {
        let cfg = KlConfig::new(3, 5, 6);
        let mut net = network(6, cfg, |id| {
            if id == 3 {
                Box::new(Saturated { units: 3, hold: 4 }) as BoxedDriver
            } else {
                Box::new(Idle) as BoxedDriver
            }
        });
        let mut sched = RoundRobin::new();
        let (mut cursor, mut entries) =
            (treenet::EnterCsCursor::default(), vec![0usize; net.len()]);
        let out = run_until(&mut net, &mut sched, 300_000, |n| {
            cursor.advance(n.trace(), |v| entries[v] += 1);
            entries[3] >= 3
        });
        assert!(out.is_satisfied());
    }

    #[test]
    fn no_deadlock_under_contention() {
        let cfg = KlConfig::new(2, 3, 5);
        let mut net = network(5, cfg, |_| Box::new(Saturated { units: 2, hold: 3 }) as BoxedDriver);
        let mut sched = RandomFair::new(4);
        let (mut cursor, mut entries) =
            (treenet::EnterCsCursor::default(), vec![0usize; net.len()]);
        let out = run_until(&mut net, &mut sched, 1_000_000, |n| {
            cursor.advance(n.trace(), |v| entries[v] += 1);
            entries.iter().all(|&e| e >= 3)
        });
        assert!(out.is_satisfied(), "ordered acquisition must be deadlock- and starvation-free");
    }

    #[test]
    fn never_over_allocates() {
        let cfg = KlConfig::new(2, 4, 6);
        let mut net = network(6, cfg, |_| Box::new(Saturated { units: 2, hold: 5 }) as BoxedDriver);
        let mut sched = RandomFair::new(8);
        for _ in 0..100_000 {
            net.step_event(&mut sched);
            assert!(safety_holds(&net, &cfg), "unsafe at t={}", net.now());
            // A unit is held by at most one process at a time.
            let mut holders = std::collections::BTreeMap::new();
            for (id, node) in net.nodes().enumerate() {
                for &u in &node.held {
                    assert!(
                        holders.insert(u, id).is_none(),
                        "unit {u} held by two processes at once"
                    );
                }
            }
        }
    }

    #[test]
    fn arbiter_assignment_partitions_units() {
        let n = 4;
        let cfg = KlConfig::new(2, 7, n);
        let net = network(n, cfg, |_| Box::new(Idle) as BoxedDriver);
        let mut count = 0;
        for node in net.nodes() {
            count += node.arbited.len();
        }
        assert_eq!(count, cfg.l, "every unit has exactly one arbiter");
    }

    #[test]
    fn lost_grant_is_not_recovered() {
        // Demonstrates (at unit-test scale) that the baseline is not fault tolerant: dropping
        // the only grant in flight blocks the requester forever.
        let cfg = KlConfig::new(1, 1, 3);
        let mut net = network(3, cfg, |id| {
            if id == 2 {
                Box::new(Saturated { units: 1, hold: 1 }) as BoxedDriver
            } else {
                Box::new(Idle) as BoxedDriver
            }
        });
        let mut sched = RoundRobin::new();
        // Wait until the requester's Acquire message is in flight, then drop it.
        let out = run_until(&mut net, &mut sched, 10_000, |n| n.in_flight() > 0);
        assert!(out.is_satisfied());
        assert_eq!(net.trace().cs_entries(Some(2)), 0);
        for v in 0..3usize {
            for l in 0..2usize {
                net.channel_mut(v, l).clear();
            }
        }
        // With the only protocol message lost, nothing is ever retransmitted: the requester
        // stays blocked forever.
        let (mut cursor, mut entered) = (treenet::EnterCsCursor::default(), false);
        let out = run_until(&mut net, &mut sched, 100_000, |n| {
            cursor.advance(n.trace(), |v| entered |= v == 2);
            entered
        });
        assert!(!out.is_satisfied(), "a lost message permanently blocks the permission baseline");
    }
}
