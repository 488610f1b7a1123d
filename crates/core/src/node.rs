//! The application-facing half of a protocol node: `State`, `Need`, `RSet`, and the
//! interactions with the application driver.
//!
//! Every protocol variant (naive, pusher, non-stabilizing, self-stabilizing) manages requests
//! identically — only the token machinery differs — so this logic is shared.

use crate::config::KlConfig;
use crate::message::Message;
use rand::rngs::StdRng;
use rand::Rng;
use treenet::app::BoxedDriver;
use treenet::{ChannelLabel, Context, CsState, Event, NodeId};

/// The request-handling state of one process: the paper's `State`, `Need` and `RSet`
/// variables plus the application driver that animates them.
pub struct AppSide {
    /// This process's identifier (used when consulting the driver).
    pub node: NodeId,
    /// The paper's `State ∈ {Req, In, Out}`.
    pub state: CsState,
    /// The paper's `Need ∈ [0..k]`: units requested by the application.
    pub need: usize,
    /// The paper's `RSet`: the multiset of channel labels on which reserved resource tokens
    /// arrived.  `|RSet|` is the number of units currently reserved.
    pub rset: Vec<ChannelLabel>,
    /// Activation at which the current critical section started (meaningful while `In`).
    pub entered_at: u64,
    driver: BoxedDriver,
}

impl AppSide {
    /// Creates the application side for `node`, driven by `driver`.
    pub fn new(node: NodeId, driver: BoxedDriver) -> Self {
        AppSide { node, state: CsState::Out, need: 0, rset: Vec::new(), entered_at: 0, driver }
    }

    /// Number of reserved resource tokens, `|RSet|`.
    pub fn reserved(&self) -> usize {
        self.rset.len()
    }

    /// True when the process is an unsatisfied requester: `State = Req ∧ |RSet| < Need`.
    pub fn wants_more(&self) -> bool {
        self.state == CsState::Req && self.rset.len() < self.need
    }

    /// True when the process may enter its critical section: `State = Req ∧ |RSet| ≥ Need`.
    pub fn can_enter(&self) -> bool {
        self.state == CsState::Req && self.rset.len() >= self.need
    }

    /// Reserves a resource token that arrived on channel `from` (adds it to `RSet`).
    pub fn reserve(&mut self, from: ChannelLabel) {
        self.rset.push(from);
    }

    /// Empties `RSet`, returning the channel labels of the tokens that were reserved.
    pub fn take_reserved(&mut self) -> Vec<ChannelLabel> {
        std::mem::take(&mut self.rset)
    }

    /// `Out → Req` transition: consults the application driver and, if it wants units,
    /// switches to `Req` (clamping the request to `1..=k`) and records the event.
    pub fn poll_request(&mut self, cfg: &KlConfig, ctx: &mut Context<'_, Message>) {
        if self.state != CsState::Out {
            return;
        }
        if let Some(units) = self.driver.next_request(self.node, ctx.now) {
            let units = units.clamp(1, cfg.k);
            self.need = units;
            self.state = CsState::Req;
            ctx.emit(Event::RequestIssued { units: Event::units(units) });
        }
    }

    /// `Req → In` transition (the paper's lines 78–81 / 62–65): enters the critical section
    /// when enough tokens are reserved.  Returns true if the transition happened.  The event
    /// reports the units now in use, `|RSet|`, which a corrupted start can leave above `Need`.
    pub fn try_enter(&mut self, ctx: &mut Context<'_, Message>) -> bool {
        if self.can_enter() {
            self.state = CsState::In;
            self.entered_at = ctx.now;
            ctx.emit(Event::EnterCs { units: Event::units(self.rset.len()) });
            true
        } else {
            false
        }
    }

    /// `In → Out` transition (the paper's lines 82–91 / 66–72): when the application is done
    /// (`ReleaseCS()` holds), returns the reserved tokens to be retransmitted and records the
    /// event.  Returns `None` while the critical section is still running.
    pub fn try_release(&mut self, ctx: &mut Context<'_, Message>) -> Option<Vec<ChannelLabel>> {
        if self.state != CsState::In {
            return None;
        }
        if self.driver.release_cs(self.node, ctx.now, self.entered_at) {
            let tokens = self.take_reserved();
            self.state = CsState::Out;
            self.need = 0;
            ctx.emit(Event::ExitCs { units: Event::units(tokens.len()) });
            Some(tokens)
        } else {
            None
        }
    }

    /// Replaces the application driver (the multi-trial reuse path: a restarted node gets
    /// the next trial's freshly seeded driver instead of being rebuilt around it).
    pub fn set_driver(&mut self, driver: BoxedDriver) {
        self.driver = driver;
    }

    /// Crash-restart of the request state: `State`, `Need`, `RSet` and the entry timestamp
    /// return to their initial values (the application driver is external to the process and
    /// survives the crash).
    pub fn restart(&mut self) {
        self.state = CsState::Out;
        self.need = 0;
        self.rset.clear();
        self.entered_at = 0;
    }

    /// Transient-fault corruption of the request state: `State`, `Need` and `RSet` are set to
    /// arbitrary values within their domains (`Need ≤ k`, `|RSet| ≤ k`, labels `< degree`).
    pub fn corrupt(&mut self, cfg: &KlConfig, degree: usize, rng: &mut StdRng) {
        self.state = match rng.gen_range(0..3) {
            0 => CsState::Out,
            1 => CsState::Req,
            _ => CsState::In,
        };
        self.need = rng.gen_range(0..=cfg.k);
        let reserved = rng.gen_range(0..=cfg.k);
        self.rset = (0..reserved).map(|_| rng.gen_range(0..degree.max(1))).collect();
        self.entered_at = 0;
    }
}

impl std::fmt::Debug for AppSide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppSide")
            .field("node", &self.node)
            .field("state", &self.state)
            .field("need", &self.need)
            .field("rset", &self.rset)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treenet::app::{AppDriver, Idle};

    /// Requests `units` once, holds the critical section for `hold` activations.
    struct OneShot {
        units: usize,
        hold: u64,
        fired: bool,
    }
    impl AppDriver for OneShot {
        fn next_request(&mut self, _node: NodeId, _now: u64) -> Option<usize> {
            if self.fired {
                None
            } else {
                self.fired = true;
                Some(self.units)
            }
        }
        fn release_cs(&mut self, _node: NodeId, now: u64, entered_at: u64) -> bool {
            now.saturating_sub(entered_at) >= self.hold
        }
    }

    fn ctx<'a>(
        outbox: &'a mut Vec<(ChannelLabel, Message)>,
        events: &'a mut Vec<Event>,
        now: u64,
    ) -> Context<'a, Message> {
        Context::detached(0, 2, now, outbox, events)
    }

    fn cfg() -> KlConfig {
        KlConfig::new(2, 4, 5)
    }

    #[test]
    fn full_request_cycle() {
        let mut app = AppSide::new(0, Box::new(OneShot { units: 2, hold: 0, fired: false }));
        let mut outbox = Vec::new();
        let mut events = Vec::new();

        {
            let mut c = ctx(&mut outbox, &mut events, 1);
            app.poll_request(&cfg(), &mut c);
        }
        assert_eq!(app.state, CsState::Req);
        assert_eq!(app.need, 2);
        assert!(app.wants_more());

        app.reserve(0);
        assert!(app.wants_more());
        app.reserve(1);
        assert!(app.can_enter());

        {
            let mut c = ctx(&mut outbox, &mut events, 2);
            assert!(app.try_enter(&mut c));
        }
        assert_eq!(app.state, CsState::In);
        assert_eq!(app.reserved(), 2);

        {
            let mut c = ctx(&mut outbox, &mut events, 3);
            let released = app.try_release(&mut c).expect("hold time 0 releases immediately");
            assert_eq!(released, vec![0, 1]);
        }
        assert_eq!(app.state, CsState::Out);
        assert_eq!(app.reserved(), 0);
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn request_is_clamped_to_k() {
        let mut app = AppSide::new(3, Box::new(OneShot { units: 99, hold: 0, fired: false }));
        let mut outbox = Vec::new();
        let mut events = Vec::new();
        let mut c = ctx(&mut outbox, &mut events, 1);
        app.poll_request(&cfg(), &mut c);
        assert_eq!(app.need, 2, "requests larger than k are clamped to k");
    }

    #[test]
    fn release_waits_for_hold_time() {
        let mut app = AppSide::new(0, Box::new(OneShot { units: 1, hold: 10, fired: false }));
        let mut outbox = Vec::new();
        let mut events = Vec::new();
        {
            let mut c = ctx(&mut outbox, &mut events, 1);
            app.poll_request(&cfg(), &mut c);
        }
        app.reserve(1);
        {
            let mut c = ctx(&mut outbox, &mut events, 2);
            app.try_enter(&mut c);
        }
        {
            let mut c = ctx(&mut outbox, &mut events, 5);
            assert!(app.try_release(&mut c).is_none(), "held for only 3 activations");
        }
        {
            let mut c = ctx(&mut outbox, &mut events, 12);
            assert!(app.try_release(&mut c).is_some());
        }
    }

    #[test]
    fn idle_driver_never_transitions() {
        let mut app = AppSide::new(0, Box::new(Idle));
        let mut outbox = Vec::new();
        let mut events = Vec::new();
        let mut c = ctx(&mut outbox, &mut events, 1);
        app.poll_request(&cfg(), &mut c);
        assert_eq!(app.state, CsState::Out);
        assert!(!app.try_enter(&mut c));
        assert!(app.try_release(&mut c).is_none());
    }

    #[test]
    fn restart_returns_to_the_initial_state() {
        let mut app = AppSide::new(0, Box::new(OneShot { units: 2, hold: 0, fired: false }));
        let mut outbox = Vec::new();
        let mut events = Vec::new();
        {
            let mut c = ctx(&mut outbox, &mut events, 1);
            app.poll_request(&cfg(), &mut c);
        }
        app.reserve(0);
        app.reserve(1);
        {
            let mut c = ctx(&mut outbox, &mut events, 2);
            app.try_enter(&mut c);
        }
        app.restart();
        assert_eq!(app.state, CsState::Out);
        assert_eq!(app.need, 0);
        assert_eq!(app.reserved(), 0);
        assert_eq!(app.entered_at, 0);
    }

    #[test]
    fn corrupt_stays_within_domains() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = cfg();
        for _ in 0..200 {
            let mut app = AppSide::new(0, Box::new(Idle));
            app.corrupt(&cfg, 3, &mut rng);
            assert!(app.need <= cfg.k);
            assert!(app.reserved() <= cfg.k);
            for &label in &app.rset {
                assert!(label < 3);
            }
        }
    }
}
