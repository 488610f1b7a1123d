//! `workloads` — application drivers for k-out-of-ℓ exclusion experiments.
//!
//! A workload decides, per process, *when* resource units are requested, *how many*, and *how
//! long* the critical section lasts — i.e. it plays the role of the "application" in the
//! paper's interface (`State: Out → Req` transitions and the `ReleaseCS()` predicate).
//!
//! All drivers are deterministic functions of their construction parameters and seed, so
//! every experiment is reproducible.
//!
//! | Driver | Behaviour | Used by |
//! |---|---|---|
//! | [`Saturated`] | always requesting a fixed number of units | waiting-time worst cases (Theorem 2) |
//! | [`UniformRandom`] | requests with probability `p` per tick, uniform size `1..=max units` | throughput sweeps |
//! | [`Hotspot`] | a few hot nodes request large amounts frequently, others rarely | contention studies |
//! | [`Heterogeneous`] | a fixed per-node request size | Figure 2 / Figure 3 scenarios |
//! | [`PinnedInCs`] | requests once and never releases | (k,ℓ)-liveness experiments |
//! | [`SkewedNeeds`] | heterogeneous request sizes, geometrically skewed toward 1 unit | the intro's mixed audio/video-bandwidth motivation |
//! | [`ThinkTime`] | closed loop: request, hold, then think for a random interval | steady-state service studies |
//! | [`Cyclic`] | deterministic cycle over a list of `(units, hold)` pairs | regression tests and exact schedules |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use treenet::app::{AppDriver, BoxedDriver};
use treenet::NodeId;

/// Always requesting `units`, holding each critical section for `hold` activations.
///
/// This is the saturation workload of the waiting-time analysis: every process other than the
/// observed one always has an outstanding request.
#[derive(Clone, Debug)]
pub struct Saturated {
    /// Units requested every time.
    pub units: usize,
    /// Critical-section duration in activations.
    pub hold: u64,
}

impl AppDriver for Saturated {
    fn next_request(&mut self, _node: NodeId, _now: u64) -> Option<usize> {
        Some(self.units)
    }
    fn release_cs(&mut self, _node: NodeId, now: u64, entered_at: u64) -> bool {
        now.saturating_sub(entered_at) >= self.hold
    }
}

/// Requests with probability `p_request` on each tick; request sizes are uniform in
/// `1..=max_units`; critical sections last uniform `1..=max_hold` activations.
#[derive(Clone, Debug)]
pub struct UniformRandom {
    rng: StdRng,
    /// Per-tick probability of issuing a request while idle.
    pub p_request: f64,
    /// Largest request size drawn.
    pub max_units: usize,
    /// Longest critical-section duration drawn.
    pub max_hold: u64,
    current_hold: u64,
}

impl UniformRandom {
    /// Creates a driver seeded by `seed` (distinct per node so streams are independent).
    pub fn new(seed: u64, p_request: f64, max_units: usize, max_hold: u64) -> Self {
        UniformRandom {
            rng: StdRng::seed_from_u64(seed),
            p_request: p_request.clamp(0.0, 1.0),
            max_units: max_units.max(1),
            max_hold: max_hold.max(1),
            current_hold: 1,
        }
    }
}

impl AppDriver for UniformRandom {
    fn next_request(&mut self, _node: NodeId, _now: u64) -> Option<usize> {
        if self.rng.gen_bool(self.p_request) {
            self.current_hold = self.rng.gen_range(1..=self.max_hold);
            Some(self.rng.gen_range(1..=self.max_units))
        } else {
            None
        }
    }
    fn release_cs(&mut self, _node: NodeId, now: u64, entered_at: u64) -> bool {
        now.saturating_sub(entered_at) >= self.current_hold
    }
}

/// Hotspot workload: "hot" nodes behave like [`Saturated`]; all others request rarely.
#[derive(Clone, Debug)]
pub struct Hotspot {
    inner: UniformRandom,
    hot: bool,
    hot_units: usize,
    hot_hold: u64,
}

impl Hotspot {
    /// Creates the driver for one node; `hot` selects the aggressive behaviour.
    pub fn new(seed: u64, hot: bool, hot_units: usize, hot_hold: u64) -> Self {
        Hotspot {
            inner: UniformRandom::new(seed, 0.02, 1, hot_hold.max(1)),
            hot,
            hot_units,
            hot_hold,
        }
    }
}

impl AppDriver for Hotspot {
    fn next_request(&mut self, node: NodeId, now: u64) -> Option<usize> {
        if self.hot {
            Some(self.hot_units)
        } else {
            self.inner.next_request(node, now)
        }
    }
    fn release_cs(&mut self, node: NodeId, now: u64, entered_at: u64) -> bool {
        if self.hot {
            now.saturating_sub(entered_at) >= self.hot_hold
        } else {
            self.inner.release_cs(node, now, entered_at)
        }
    }
}

/// A fixed request size per node, repeated forever; `0` units means the node never requests.
///
/// This is the driver behind the paper's figure scenarios (e.g. needs 3/2/2/2 in Figure 2).
#[derive(Clone, Debug)]
pub struct Heterogeneous {
    /// Units requested every time (0 = never request).
    pub units: usize,
    /// Critical-section duration.
    pub hold: u64,
}

impl AppDriver for Heterogeneous {
    fn next_request(&mut self, _node: NodeId, _now: u64) -> Option<usize> {
        if self.units == 0 {
            None
        } else {
            Some(self.units)
        }
    }
    fn release_cs(&mut self, _node: NodeId, now: u64, entered_at: u64) -> bool {
        now.saturating_sub(entered_at) >= self.hold
    }
}

/// Requests `units` once and never releases the critical section.
///
/// Used by the (k,ℓ)-liveness experiment: the paper's efficiency property considers a set `I`
/// of processes that execute their critical sections forever.
#[derive(Clone, Debug)]
pub struct PinnedInCs {
    /// Units requested (and then held forever).
    pub units: usize,
    fired: bool,
}

impl PinnedInCs {
    /// Creates the driver.
    pub fn new(units: usize) -> Self {
        PinnedInCs { units, fired: false }
    }
}

impl AppDriver for PinnedInCs {
    fn next_request(&mut self, _node: NodeId, _now: u64) -> Option<usize> {
        if self.fired {
            None
        } else {
            self.fired = true;
            Some(self.units)
        }
    }
    fn release_cs(&mut self, _node: NodeId, _now: u64, _entered_at: u64) -> bool {
        false
    }
}

/// Heterogeneous request sizes skewed toward small requests: a request of `1 + g` units where
/// `g` is geometrically distributed (`P[g = i] ∝ (1 − bias)^i`), truncated at `max_units`.
///
/// This models the paper's motivating workload — most requests are small (one IP address, an
/// audio stream) with an occasional large one (a video stream asking for several bandwidth
/// units) — without saturating the network: the node requests with probability `p_request`
/// per tick, like [`UniformRandom`].
#[derive(Clone, Debug)]
pub struct SkewedNeeds {
    rng: StdRng,
    /// Per-tick probability of issuing a request while idle.
    pub p_request: f64,
    /// Largest request size drawn.
    pub max_units: usize,
    /// Skew parameter in `(0, 1)`: larger values concentrate the distribution on 1 unit.
    pub bias: f64,
    /// Critical-section duration.
    pub hold: u64,
}

impl SkewedNeeds {
    /// Creates a driver seeded by `seed`.
    pub fn new(seed: u64, p_request: f64, max_units: usize, bias: f64, hold: u64) -> Self {
        SkewedNeeds {
            rng: StdRng::seed_from_u64(seed),
            p_request: p_request.clamp(0.0, 1.0),
            max_units: max_units.max(1),
            bias: bias.clamp(0.05, 0.95),
            hold: hold.max(1),
        }
    }

    fn draw_units(&mut self) -> usize {
        let mut units = 1;
        while units < self.max_units && !self.rng.gen_bool(self.bias) {
            units += 1;
        }
        units
    }
}

impl AppDriver for SkewedNeeds {
    fn next_request(&mut self, _node: NodeId, _now: u64) -> Option<usize> {
        if self.rng.gen_bool(self.p_request) {
            Some(self.draw_units())
        } else {
            None
        }
    }
    fn release_cs(&mut self, _node: NodeId, now: u64, entered_at: u64) -> bool {
        now.saturating_sub(entered_at) >= self.hold
    }
}

/// Closed-loop workload with think time: request `units`, hold the critical section for
/// `hold` activations, then stay idle for a uniformly random think time in
/// `[min_think, max_think]` before the next request.
///
/// Unlike [`Saturated`] (which re-requests immediately), this keeps a bounded, tunable load on
/// the system and is the natural steady-state workload for throughput measurements.
#[derive(Clone, Debug)]
pub struct ThinkTime {
    rng: StdRng,
    /// Units requested every time.
    pub units: usize,
    /// Critical-section duration.
    pub hold: u64,
    /// Shortest think time.
    pub min_think: u64,
    /// Longest think time.
    pub max_think: u64,
    /// Tick at which the current think period ends.
    next_request_at: u64,
}

impl ThinkTime {
    /// Creates a driver seeded by `seed`; the first request fires on the first tick.
    pub fn new(seed: u64, units: usize, hold: u64, min_think: u64, max_think: u64) -> Self {
        let max_think = max_think.max(min_think);
        ThinkTime {
            rng: StdRng::seed_from_u64(seed),
            units: units.max(1),
            hold,
            min_think,
            max_think,
            next_request_at: 0,
        }
    }
}

impl AppDriver for ThinkTime {
    fn next_request(&mut self, _node: NodeId, now: u64) -> Option<usize> {
        if now < self.next_request_at {
            return None;
        }
        Some(self.units)
    }
    fn release_cs(&mut self, _node: NodeId, now: u64, entered_at: u64) -> bool {
        if now.saturating_sub(entered_at) >= self.hold {
            let think = self.rng.gen_range(self.min_think..=self.max_think);
            self.next_request_at = now + think;
            true
        } else {
            false
        }
    }
}

/// Deterministic cycle over `(units, hold)` pairs: the i-th request asks for `pairs[i % len]`.
///
/// Useful for regression tests that need an exactly reproducible, non-uniform request
/// schedule without any randomness.
#[derive(Clone, Debug)]
pub struct Cyclic {
    pairs: Vec<(usize, u64)>,
    next: usize,
    current_hold: u64,
}

impl Cyclic {
    /// Creates the driver.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty.
    pub fn new(pairs: Vec<(usize, u64)>) -> Self {
        assert!(!pairs.is_empty(), "a cyclic workload needs at least one (units, hold) pair");
        Cyclic { pairs, next: 0, current_hold: 0 }
    }
}

impl AppDriver for Cyclic {
    fn next_request(&mut self, _node: NodeId, _now: u64) -> Option<usize> {
        let (units, hold) = self.pairs[self.next % self.pairs.len()];
        self.next += 1;
        self.current_hold = hold;
        Some(units)
    }
    fn release_cs(&mut self, _node: NodeId, now: u64, entered_at: u64) -> bool {
        now.saturating_sub(entered_at) >= self.current_hold
    }
}

/// Convenience: a driver factory assigning every node the same saturated workload.
pub fn all_saturated(units: usize, hold: u64) -> impl FnMut(NodeId) -> BoxedDriver {
    move |_| Box::new(Saturated { units, hold }) as BoxedDriver
}

/// Convenience: a driver factory assigning every node an independent [`UniformRandom`]
/// workload derived from `seed`.
pub fn all_uniform(
    seed: u64,
    p_request: f64,
    max_units: usize,
    max_hold: u64,
) -> impl FnMut(NodeId) -> BoxedDriver {
    move |node| {
        Box::new(UniformRandom::new(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(node as u64),
            p_request,
            max_units,
            max_hold,
        )) as BoxedDriver
    }
}

/// Convenience: per-node request sizes from a table; nodes beyond the table stay idle.
pub fn from_needs(needs: &[usize], hold: u64) -> impl FnMut(NodeId) -> BoxedDriver + '_ {
    move |node| {
        let units = needs.get(node).copied().unwrap_or(0);
        Box::new(Heterogeneous { units, hold }) as BoxedDriver
    }
}

/// Convenience: a driver factory assigning every node an independent [`SkewedNeeds`] workload
/// derived from `seed`.
pub fn all_skewed(
    seed: u64,
    p_request: f64,
    max_units: usize,
    bias: f64,
    hold: u64,
) -> impl FnMut(NodeId) -> BoxedDriver {
    move |node| {
        Box::new(SkewedNeeds::new(
            seed.wrapping_mul(0xA24B_AED4_963E_E407).wrapping_add(node as u64),
            p_request,
            max_units,
            bias,
            hold,
        )) as BoxedDriver
    }
}

/// Convenience: a driver factory assigning every node an independent [`ThinkTime`] workload
/// derived from `seed`.
pub fn all_think_time(
    seed: u64,
    units: usize,
    hold: u64,
    min_think: u64,
    max_think: u64,
) -> impl FnMut(NodeId) -> BoxedDriver {
    move |node| {
        Box::new(ThinkTime::new(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(node as u64),
            units,
            hold,
            min_think,
            max_think,
        )) as BoxedDriver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturated_always_requests() {
        let mut d = Saturated { units: 3, hold: 7 };
        assert_eq!(d.next_request(0, 0), Some(3));
        assert_eq!(d.next_request(0, 100), Some(3));
        assert!(!d.release_cs(0, 5, 0));
        assert!(d.release_cs(0, 7, 0));
    }

    #[test]
    fn uniform_random_is_deterministic_and_bounded() {
        let collect = |seed| {
            let mut d = UniformRandom::new(seed, 0.5, 4, 10);
            (0..100).map(|t| d.next_request(1, t)).collect::<Vec<_>>()
        };
        assert_eq!(collect(3), collect(3));
        assert_ne!(collect(3), collect(4));
        let mut d = UniformRandom::new(9, 1.0, 4, 10);
        for t in 0..200 {
            let units = d.next_request(0, t).unwrap();
            assert!((1..=4).contains(&units));
        }
    }

    #[test]
    fn uniform_random_zero_probability_never_requests() {
        let mut d = UniformRandom::new(1, 0.0, 3, 5);
        assert!((0..100).all(|t| d.next_request(0, t).is_none()));
    }

    #[test]
    fn hotspot_hot_node_saturates() {
        let mut hot = Hotspot::new(1, true, 3, 5);
        let mut cold = Hotspot::new(1, false, 3, 5);
        assert_eq!(hot.next_request(0, 0), Some(3));
        let cold_requests = (0..100).filter(|&t| cold.next_request(1, t).is_some()).count();
        assert!(cold_requests < 20, "cold nodes request rarely");
    }

    #[test]
    fn heterogeneous_zero_units_is_idle() {
        let mut d = Heterogeneous { units: 0, hold: 1 };
        assert!(d.next_request(0, 0).is_none());
        let mut d2 = Heterogeneous { units: 2, hold: 1 };
        assert_eq!(d2.next_request(0, 0), Some(2));
    }

    #[test]
    fn pinned_requests_once_and_never_releases() {
        let mut d = PinnedInCs::new(2);
        assert_eq!(d.next_request(0, 0), Some(2));
        assert!(d.next_request(0, 1).is_none());
        assert!(!d.release_cs(0, 1_000_000, 0));
    }

    #[test]
    fn factories_produce_independent_streams() {
        let mut f = all_uniform(7, 0.5, 3, 5);
        let mut a = f(0);
        let mut b = f(1);
        let sa: Vec<_> = (0..50).map(|t| a.next_request(0, t)).collect();
        let sb: Vec<_> = (0..50).map(|t| b.next_request(1, t)).collect();
        assert_ne!(sa, sb, "different nodes get different random streams");
    }

    #[test]
    fn skewed_needs_is_bounded_deterministic_and_skewed() {
        let collect = |seed| {
            let mut d = SkewedNeeds::new(seed, 1.0, 4, 0.6, 3);
            (0..500).filter_map(|t| d.next_request(0, t)).collect::<Vec<_>>()
        };
        let a = collect(5);
        assert_eq!(a, collect(5), "deterministic per seed");
        assert!(a.iter().all(|&u| (1..=4).contains(&u)), "sizes stay in 1..=max_units");
        let ones = a.iter().filter(|&&u| u == 1).count();
        let fours = a.iter().filter(|&&u| u == 4).count();
        assert!(ones > fours, "the distribution is skewed toward small requests");
        // Hold time behaves like the other drivers.
        let mut d = SkewedNeeds::new(1, 1.0, 4, 0.6, 3);
        assert!(!d.release_cs(0, 2, 0));
        assert!(d.release_cs(0, 3, 0));
    }

    #[test]
    fn skewed_needs_zero_probability_never_requests() {
        let mut d = SkewedNeeds::new(2, 0.0, 4, 0.5, 1);
        assert!((0..200).all(|t| d.next_request(0, t).is_none()));
    }

    #[test]
    fn think_time_inserts_idle_periods_between_requests() {
        let mut d = ThinkTime::new(7, 2, 5, 10, 20);
        // First request fires immediately.
        assert_eq!(d.next_request(0, 0), Some(2));
        // The critical section lasts 5 activations; release schedules a think period.
        assert!(!d.release_cs(0, 3, 0));
        assert!(d.release_cs(0, 5, 0));
        // During the think period the node stays idle; afterwards it requests again.
        assert!(d.next_request(0, 6).is_none());
        assert!(d.next_request(0, 14).is_none(), "still thinking (min_think = 10)");
        assert_eq!(d.next_request(0, 26), Some(2), "think time never exceeds max_think = 20");
    }

    #[test]
    fn think_time_clamps_degenerate_parameters() {
        // max_think < min_think is clamped; zero units become one.
        let mut d = ThinkTime::new(1, 0, 1, 9, 3);
        assert_eq!(d.next_request(0, 0), Some(1));
        assert!(d.release_cs(0, 1, 0));
        assert_eq!(d.next_request(0, 1 + 9), Some(1));
    }

    #[test]
    fn cyclic_repeats_its_schedule() {
        let mut d = Cyclic::new(vec![(1, 2), (3, 0)]);
        assert_eq!(d.next_request(0, 0), Some(1));
        assert!(!d.release_cs(0, 1, 0));
        assert!(d.release_cs(0, 2, 0));
        assert_eq!(d.next_request(0, 3), Some(3));
        assert!(d.release_cs(0, 3, 3), "hold 0 releases immediately");
        assert_eq!(d.next_request(0, 4), Some(1), "the cycle wraps around");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn cyclic_rejects_an_empty_schedule() {
        let _ = Cyclic::new(Vec::new());
    }

    #[test]
    fn skewed_and_think_time_factories_produce_independent_streams() {
        let mut f = all_skewed(3, 0.7, 4, 0.5, 2);
        let mut a = f(0);
        let mut b = f(1);
        let sa: Vec<_> = (0..80).map(|t| a.next_request(0, t)).collect();
        let sb: Vec<_> = (0..80).map(|t| b.next_request(1, t)).collect();
        assert_ne!(sa, sb);

        let mut f = all_think_time(3, 1, 2, 5, 15);
        let mut a = f(0);
        let mut b = f(1);
        assert_eq!(a.next_request(0, 0), Some(1));
        assert_eq!(b.next_request(1, 0), Some(1));
        // Different seeds give different think times after the first release.
        assert!(a.release_cs(0, 2, 0));
        assert!(b.release_cs(1, 2, 0));
    }

    #[test]
    fn from_needs_reads_the_table() {
        let needs = vec![0, 3, 2];
        let mut f = from_needs(&needs, 4);
        assert!(f(0).next_request(0, 0).is_none());
        assert_eq!(f(1).next_request(1, 0), Some(3));
        assert_eq!(f(2).next_request(2, 0), Some(2));
        assert!(f(9).next_request(9, 0).is_none(), "out-of-table nodes are idle");
    }
}
