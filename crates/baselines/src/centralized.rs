//! A centralized coordinator allocator — the degenerate "single arbiter" baseline.
//!
//! One process (the hub of a star network) owns the whole pool of ℓ units.  A requester sends
//! `Request(units)`; the coordinator grants requests in FIFO order whenever enough units are
//! free, the requester executes its critical section on receipt of `Grant`, and returns the
//! units with `Release(units)`.
//!
//! This is not self-stabilizing and not distributed in any interesting sense — it exists as a
//! reference point: it needs only 3 messages per critical section and trivially satisfies
//! (k,ℓ)-liveness, so it upper-bounds the throughput and lower-bounds the message overhead
//! any token-circulation protocol can hope for (experiments E8/E9).

use klex_core::{KlConfig, KlInspect};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;
use topology::OrientedTree;
use treenet::app::BoxedDriver;
use treenet::{
    ChannelLabel, Context, Corruptible, CsState, Event, MessageKind, Network, NodeId, Process,
};

/// Messages of the centralized allocator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoordMessage {
    /// A leaf asks the coordinator for `units` resource units.
    Request {
        /// Units requested.
        units: usize,
    },
    /// The coordinator grants `units` to the destination leaf.
    Grant {
        /// Units granted.
        units: usize,
    },
    /// A leaf returns `units` to the coordinator.
    Release {
        /// Units returned.
        units: usize,
    },
}

impl MessageKind for CoordMessage {
    fn kind(&self) -> &'static str {
        match self {
            CoordMessage::Request { .. } => "Request",
            CoordMessage::Grant { .. } => "Grant",
            CoordMessage::Release { .. } => "Release",
        }
    }
}

impl treenet::ArbitraryMessage for CoordMessage {
    fn arbitrary(rng: &mut StdRng) -> Self {
        match rng.gen_range(0..3) {
            0 => CoordMessage::Request { units: rng.gen_range(0..8) },
            1 => CoordMessage::Grant { units: rng.gen_range(0..8) },
            _ => CoordMessage::Release { units: rng.gen_range(0..8) },
        }
    }
}

/// Coordinator-side bookkeeping.
#[derive(Clone, Debug, Default)]
struct Coordinator {
    free: usize,
    /// FIFO queue of `(channel, units)` pending requests.
    pending: VecDeque<(ChannelLabel, usize)>,
}

/// A process of the centralized allocator: the hub (node 0) runs the coordinator, every other
/// node is a client.
pub struct CentralizedNode {
    cfg: KlConfig,
    node: NodeId,
    state: CsState,
    need: usize,
    granted: usize,
    entered_at: u64,
    driver: BoxedDriver,
    request_sent: bool,
    coordinator: Option<Coordinator>,
}

impl CentralizedNode {
    /// Creates the process for `node`; node 0 becomes the coordinator and never requests.
    pub fn new(node: NodeId, cfg: KlConfig, driver: BoxedDriver) -> Self {
        let coordinator = if node == 0 {
            Some(Coordinator { free: cfg.l, pending: VecDeque::new() })
        } else {
            None
        };
        CentralizedNode {
            cfg,
            node,
            state: CsState::Out,
            need: 0,
            granted: 0,
            entered_at: 0,
            driver,
            request_sent: false,
            coordinator,
        }
    }

    fn coordinator_grant_loop(&mut self, ctx: &mut Context<'_, CoordMessage>) {
        if let Some(coord) = &mut self.coordinator {
            while let Some(&(channel, units)) = coord.pending.front() {
                if units <= coord.free {
                    coord.free -= units;
                    coord.pending.pop_front();
                    ctx.send(channel, CoordMessage::Grant { units });
                } else {
                    break; // strict FIFO: wait until the head request fits
                }
            }
        }
    }
}

impl Process for CentralizedNode {
    type Msg = CoordMessage;

    fn on_message(
        &mut self,
        from: ChannelLabel,
        msg: CoordMessage,
        ctx: &mut Context<'_, CoordMessage>,
    ) {
        match (self.coordinator.is_some(), msg) {
            (true, CoordMessage::Request { units }) => {
                if let Some(coord) = &mut self.coordinator {
                    coord.pending.push_back((from, units.clamp(1, self.cfg.k)));
                }
                self.coordinator_grant_loop(ctx);
            }
            (true, CoordMessage::Release { units }) => {
                if let Some(coord) = &mut self.coordinator {
                    coord.free = (coord.free + units).min(self.cfg.l);
                }
                self.coordinator_grant_loop(ctx);
            }
            (false, CoordMessage::Grant { units }) => {
                if self.state == CsState::Req {
                    self.granted = units;
                    self.state = CsState::In;
                    self.entered_at = ctx.now;
                    ctx.emit(Event::EnterCs { units: Event::units(units) });
                } else {
                    // Spurious grant (e.g. injected by a fault): hand the units straight back.
                    ctx.send(0, CoordMessage::Release { units });
                }
            }
            _ => {}
        }
    }

    fn on_tick(&mut self, ctx: &mut Context<'_, CoordMessage>) {
        if self.coordinator.is_some() {
            self.coordinator_grant_loop(ctx);
            return;
        }
        match self.state {
            CsState::Out => {
                if let Some(units) = self.driver.next_request(self.node, ctx.now) {
                    self.need = units.clamp(1, self.cfg.k);
                    self.state = CsState::Req;
                    self.request_sent = false;
                    ctx.emit(Event::RequestIssued { units: Event::units(self.need) });
                }
            }
            CsState::Req => {
                if !self.request_sent {
                    self.request_sent = true;
                    ctx.send(0, CoordMessage::Request { units: self.need });
                }
            }
            CsState::In => {
                if self.driver.release_cs(self.node, ctx.now, self.entered_at) {
                    ctx.send(0, CoordMessage::Release { units: self.granted });
                    ctx.emit(Event::ExitCs { units: Event::units(self.granted) });
                    self.granted = 0;
                    self.need = 0;
                    self.state = CsState::Out;
                }
            }
        }
    }
}

impl KlInspect for CentralizedNode {
    fn cs_state(&self) -> CsState {
        self.state
    }
    fn need(&self) -> usize {
        self.need
    }
    fn reserved(&self) -> usize {
        self.granted
    }
    fn holds_priority(&self) -> bool {
        false
    }
}

impl Corruptible for CentralizedNode {
    fn corrupt(&mut self, rng: &mut StdRng) {
        self.need = rng.gen_range(0..=self.cfg.k);
        self.granted = rng.gen_range(0..=self.cfg.k);
        self.state = match rng.gen_range(0..3) {
            0 => CsState::Out,
            1 => CsState::Req,
            _ => CsState::In,
        };
        self.request_sent = rng.gen_bool(0.5);
        if let Some(coord) = &mut self.coordinator {
            coord.free = rng.gen_range(0..=self.cfg.l);
            coord.pending.clear();
        }
    }
}

/// Builds a star network with the coordinator at the hub and `n - 1` clients.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn network(
    n: usize,
    cfg: KlConfig,
    mut driver_for: impl FnMut(NodeId) -> BoxedDriver,
) -> Network<CentralizedNode, OrientedTree> {
    assert!(n >= 2, "the centralized baseline needs at least two processes");
    let star = topology::builders::star(n);
    Network::new(star, |id| CentralizedNode::new(id, cfg, driver_for(id)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use klex_core::legitimacy::safety_holds;
    use treenet::app::Idle;
    use treenet::{run_until, RandomFair, RoundRobin};
    use workloads::Saturated;

    #[test]
    fn grants_and_releases_cycle() {
        let cfg = KlConfig::new(2, 4, 6);
        let mut net = network(6, cfg, |id| {
            if id == 0 {
                Box::new(Idle) as BoxedDriver
            } else {
                Box::new(Saturated { units: 2, hold: 5 }) as BoxedDriver
            }
        });
        let mut sched = RoundRobin::new();
        let (mut cursor, mut entries) =
            (treenet::EnterCsCursor::default(), vec![0usize; net.len()]);
        let out = run_until(&mut net, &mut sched, 500_000, |n| {
            cursor.advance(n.trace(), |v| entries[v] += 1);
            entries[1..6].iter().all(|&e| e >= 3)
        });
        assert!(out.is_satisfied(), "every client repeatedly enters its CS");
    }

    #[test]
    fn never_over_allocates() {
        let cfg = KlConfig::new(3, 5, 8);
        let mut net = network(8, cfg, |id| {
            if id == 0 {
                Box::new(Idle) as BoxedDriver
            } else {
                Box::new(Saturated { units: 3, hold: 7 }) as BoxedDriver
            }
        });
        let mut sched = RandomFair::new(2);
        for _ in 0..100_000 {
            net.step_event(&mut sched);
            assert!(safety_holds(&net, &cfg), "coordinator must never over-allocate");
        }
    }

    #[test]
    fn fifo_order_prevents_starvation_of_large_requests() {
        // One client wants k units, the rest want 1: strict FIFO at the coordinator means the
        // big request is eventually at the head and gets served.
        let cfg = KlConfig::new(3, 3, 6);
        let mut net = network(6, cfg, |id| match id {
            0 => Box::new(Idle) as BoxedDriver,
            1 => Box::new(Saturated { units: 3, hold: 2 }) as BoxedDriver,
            _ => Box::new(Saturated { units: 1, hold: 2 }) as BoxedDriver,
        });
        let mut sched = RoundRobin::new();
        let (mut cursor, mut entries) =
            (treenet::EnterCsCursor::default(), vec![0usize; net.len()]);
        let out = run_until(&mut net, &mut sched, 500_000, |n| {
            cursor.advance(n.trace(), |v| entries[v] += 1);
            entries[1] >= 5
        });
        assert!(out.is_satisfied(), "the k-unit requester must not starve under FIFO");
    }

    #[test]
    fn spurious_grant_is_returned() {
        let cfg = KlConfig::new(2, 3, 4);
        let mut net = network(4, cfg, |_| Box::new(Idle) as BoxedDriver);
        // Inject a grant at an idle client; it must bounce back as a release.
        net.inject_into(2, 0, CoordMessage::Grant { units: 2 });
        let mut sched = RoundRobin::new();
        treenet::run_for(&mut net, &mut sched, 200);
        assert_eq!(net.metrics().sent_of_kind("Release"), 1);
        assert_eq!(net.node(2).units_in_use(), 0);
    }
}
