//! Snapshot-fed safety monitoring: token census and safety clauses over consistent cuts.
//!
//! The `treenet` crate assembles Chandy–Lamport cuts protocol-agnostically
//! ([`treenet::SnapshotRunner`] feeding a [`treenet::SnapshotObserver`]); this module owns
//! the protocol-specific interpretation.  [`SnapshotMonitor`] folds, per cut, each recorded
//! node state into its [`NodeShare`] and each in-transit message into its census slot — the
//! same summary [`klex_core::count_tokens`] takes instantaneously — and judges the cut with
//! the clauses of [`klex_core::legitimacy`]: the per-process clause on every recorded
//! process and the global clause on the units in use, as [`klex_core::legitimacy::safety`]
//! does.  Each completed cut becomes a [`CutVerdict`].
//!
//! A consistent cut of a legitimate execution is itself a reachable configuration, so on a
//! stabilized network **every** verdict must be clean: census exactly (ℓ, 1, 1) and no
//! process over its `k` bound.  An unclean verdict is a genuine safety finding, not a
//! tearing artifact — that is the point of snapshotting consistently instead of reading
//! racing per-node state mid-flight.  (This is the cut-level complement of the continuous
//! per-activation [`klex_core::LiveCensus`].)

use klex_core::legitimacy::{global_clause, NodeShare};
use klex_core::{KlConfig, KlInspect, Message, TokenCensus};
use serde::Serialize;
use treenet::{ChannelLabel, NodeId, Process, SnapshotObserver};

/// The verdict of one completed consistent cut.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct CutVerdict {
    /// Snapshot sequence number.
    pub snap: u32,
    /// Logical time at which the cut was initiated.
    pub initiated_at: u64,
    /// Logical time at which the last marker arrived.
    pub completed_at: u64,
    /// Token census over the cut: recorded node states plus in-transit messages.
    pub census: TokenCensus,
    /// Units in use (processes in their critical sections) on the cut.
    pub units_in_use: usize,
    /// Largest per-process reservation on the cut.
    pub max_reserved: usize,
    /// Largest per-process units-in-use on the cut.
    pub max_units_in_use: usize,
    /// True when the census is exactly (ℓ, 1, 1).
    pub census_matches: bool,
    /// True when the safety clauses hold: no process reserves more than `k` tokens and at
    /// most `ℓ` units are in use overall.
    pub safety_ok: bool,
}

impl CutVerdict {
    /// True when the cut certifies both the census and the safety bounds.
    pub fn clean(&self) -> bool {
        self.census_matches && self.safety_ok
    }
}

/// Per-cut accumulator, reset when the cut completes (cuts never overlap: the runner
/// initiates the next snapshot only after the previous cut closed).
#[derive(Debug, Default)]
struct CutAccumulator {
    census: TokenCensus,
    units_in_use: usize,
    max_reserved: usize,
    max_units_in_use: usize,
    /// True once a recorded process failed the per-process clause.
    over_k: bool,
}

/// A [`SnapshotObserver`] that turns every completed cut into a [`CutVerdict`].
///
/// Incremental by construction: node states are folded into census counters at record time
/// (nothing is cloned or retained per node), so monitoring a 10⁶-node cut costs O(1) memory
/// beyond the runner's own bitmaps.
#[derive(Debug)]
pub struct SnapshotMonitor {
    cfg: KlConfig,
    current: CutAccumulator,
    verdicts: Vec<CutVerdict>,
}

impl SnapshotMonitor {
    /// A monitor asserting `cfg`'s (k, ℓ) bounds on every cut.
    pub fn new(cfg: &KlConfig) -> Self {
        SnapshotMonitor { cfg: *cfg, current: CutAccumulator::default(), verdicts: Vec::new() }
    }

    /// The verdicts of every completed cut, in completion order.
    pub fn verdicts(&self) -> &[CutVerdict] {
        &self.verdicts
    }

    /// Consumes the monitor, returning its verdicts.
    pub fn into_verdicts(self) -> Vec<CutVerdict> {
        self.verdicts
    }

    /// Number of completed cuts.
    pub fn cuts(&self) -> usize {
        self.verdicts.len()
    }

    /// True when every completed cut so far was clean.
    pub fn clean(&self) -> bool {
        self.verdicts.iter().all(CutVerdict::clean)
    }
}

impl<P> SnapshotObserver<P> for SnapshotMonitor
where
    P: Process<Msg = Message> + KlInspect,
{
    fn node_state(&mut self, _snap: u32, node: NodeId, process: &P) {
        let acc = &mut self.current;
        let share = NodeShare::of(process);
        acc.census.hold(share);
        acc.units_in_use += share.in_use;
        acc.max_reserved = acc.max_reserved.max(share.reserved);
        acc.max_units_in_use = acc.max_units_in_use.max(share.in_use);
        acc.over_k |= share.clause(node, self.cfg.k).is_err();
    }

    fn in_transit(&mut self, _snap: u32, _node: NodeId, _label: ChannelLabel, msg: &Message) {
        // A marker at the head of an open channel is consumed by the runner before delivery,
        // so it can never be recorded in transit; markers have no slot anyway.
        if let Some(slot) = self.current.census.slot(msg) {
            *slot += 1;
        }
    }

    fn cut_complete(&mut self, snap: u32, initiated_at: u64, completed_at: u64) {
        let acc = std::mem::take(&mut self.current);
        let census_matches = acc.census.matches(self.cfg.l);
        let safety_ok = !acc.over_k && global_clause(acc.units_in_use, self.cfg.l).is_ok();
        self.verdicts.push(CutVerdict {
            snap,
            initiated_at,
            completed_at,
            census: acc.census,
            units_in_use: acc.units_in_use,
            max_reserved: acc.max_reserved,
            max_units_in_use: acc.max_units_in_use,
            census_matches,
            safety_ok,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klex_core::{is_legitimate, nonstab, ss};
    use treenet::app::{BoxedDriver, Idle};
    use treenet::{run_with_snapshots, InitiatorPolicy, SnapshotPlan, SnapshotRunner};

    #[test]
    fn stabilized_network_yields_only_clean_cuts() {
        let tree = topology::builders::figure1_tree();
        let cfg = KlConfig::new(1, 2, 8);
        let mut net = ss::network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        let mut daemon = treenet::RoundRobin::new();
        let warm =
            treenet::run_until(&mut net, &mut daemon, 500_000, |net| is_legitimate(net, &cfg));
        assert!(warm.is_satisfied(), "ss must stabilize before the snapshot phase");

        let mut runner =
            SnapshotRunner::new(SnapshotPlan { interval: 64, initiator: InitiatorPolicy::Rotate });
        let mut monitor = SnapshotMonitor::new(&cfg);
        run_with_snapshots(&mut net, &mut daemon, 20_000, &mut runner, &mut monitor);

        assert!(runner.cuts_completed() >= 10, "got {} cuts", runner.cuts_completed());
        assert_eq!(monitor.cuts() as u64, runner.cuts_completed());
        assert!(monitor.clean(), "verdicts: {:?}", monitor.verdicts());
        for verdict in monitor.verdicts() {
            assert!(verdict.census.matches(cfg.l), "cut census must be (l,1,1): {verdict:?}");
            assert!(verdict.completed_at > verdict.initiated_at);
        }
    }

    #[test]
    fn surplus_token_is_flagged_on_every_cut() {
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(2, 3, 3);
        let mut net = nonstab::network(tree, cfg, |_| Box::new(Idle) as BoxedDriver);
        let mut daemon = treenet::RoundRobin::new();
        treenet::run_for(&mut net, &mut daemon, 5_000);
        assert!(klex_core::count_tokens(&net).matches(cfg.l));
        net.inject_into(1, 0, Message::ResT);

        let mut runner =
            SnapshotRunner::new(SnapshotPlan { interval: 32, initiator: InitiatorPolicy::Root });
        let mut monitor = SnapshotMonitor::new(&cfg);
        run_with_snapshots(&mut net, &mut daemon, 5_000, &mut runner, &mut monitor);

        assert!(monitor.cuts() >= 1);
        assert!(!monitor.clean(), "the surplus token must surface in the cut census");
        for verdict in monitor.verdicts() {
            assert_eq!(verdict.census.resource, cfg.l + 1, "{verdict:?}");
            assert!(!verdict.census_matches);
        }
    }
}
