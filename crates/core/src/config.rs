//! Protocol parameters.

use serde::Serialize;

/// Parameters of a k-out-of-ℓ exclusion instance.
///
/// `k` and `l` are the problem parameters (`1 ≤ k ≤ ℓ`); the remaining fields configure the
/// self-stabilization machinery:
///
/// * `cmax` — the assumed bound on the number of arbitrary messages initially present in each
///   channel.  It determines the size of the counter-flushing domain
///   `myC ∈ [0 .. 2(n−1)(CMAX+1)]`.
/// * `timeout_interval` — the root's retransmission timeout for the controller, measured in
///   activations of the root.  The paper only requires it to be "sufficiently large to
///   prevent congestion"; [`KlConfig::default_timeout`] derives a generous default from the
///   network size.
/// * `literal_pusher_guard` — reproduce the pusher guard exactly as printed in the paper
///   (`Prio ≠ ⊥`), which contradicts the prose and starves priority holders.  Off by default;
///   used by the ablation experiment E10.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct KlConfig {
    /// Maximum number of units a single request may ask for (1 ≤ k ≤ ℓ).
    pub k: usize,
    /// Total number of resource units (tokens) in the system.
    pub l: usize,
    /// Bound on the number of arbitrary messages initially in each channel (CMAX).
    pub cmax: usize,
    /// Root timeout, in root activations, before the controller is retransmitted.
    pub timeout_interval: u64,
    /// Use the pusher guard exactly as printed in the paper's pseudo-code (see crate docs).
    pub literal_pusher_guard: bool,
    /// Use the controller-completion ordering exactly as printed in Algorithm 1 (see
    /// [`crate::ss`] docs): the root's own passed tokens are credited to the *next*
    /// circulation, which undercounts the completed one whenever the root reserves tokens
    /// received from its last channel and causes spurious creations followed by resets.
    pub literal_completion_order: bool,
    /// Run the counter-flushing counter `myC` over an *unbounded* domain instead of the
    /// paper's bounded domain `[0 .. 2(n−1)(CMAX+1)]`.
    ///
    /// This is the adaptation the paper's conclusion describes: with unbounded process
    /// memory the protocol "can be easily adapted to work without assumptions on channels"
    /// (following Katz–Perry-style extensions, reference \[9\] of the paper).  The bounded
    /// domain is only large enough to out-run the stale values that at most `CMAX` initial
    /// messages per channel can carry; when a fault violates that bound, stale controllers
    /// can keep aliasing the root's flag value and cause spurious circulations, mis-counted
    /// token censuses and repeated resets.  With an unbounded counter the root's flag value
    /// eventually exceeds every stale value in the system no matter how much garbage the
    /// channels initially contained.  Experiment E14 quantifies the difference.
    pub unbounded_counter: bool,
}

impl KlConfig {
    /// Creates a configuration for a network of `n` processes with `k`-out-of-`l` requests,
    /// CMAX = 2, the corrected pusher guard, and the default timeout for `n`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ l`.
    pub fn new(k: usize, l: usize, n: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(k <= l, "k ({k}) must not exceed l ({l})");
        KlConfig {
            k,
            l,
            cmax: 2,
            timeout_interval: Self::default_timeout(n),
            literal_pusher_guard: false,
            literal_completion_order: false,
            unbounded_counter: false,
        }
    }

    /// A generous default timeout: long enough for a controller circulation (2(n−1) hops) to
    /// complete under any of the bundled fair schedulers, with ample slack.
    pub fn default_timeout(n: usize) -> u64 {
        (80 * n.max(2) as u64).max(400)
    }

    /// Overrides CMAX.
    pub fn with_cmax(mut self, cmax: usize) -> Self {
        self.cmax = cmax;
        self
    }

    /// Overrides the root timeout.
    pub fn with_timeout(mut self, interval: u64) -> Self {
        self.timeout_interval = interval.max(1);
        self
    }

    /// Selects the literal (paper-printed) pusher guard for ablation experiments.
    pub fn with_literal_pusher_guard(mut self, literal: bool) -> Self {
        self.literal_pusher_guard = literal;
        self
    }

    /// Selects the literal (paper-printed) controller-completion ordering for ablation
    /// experiments.
    pub fn with_literal_completion_order(mut self, literal: bool) -> Self {
        self.literal_completion_order = literal;
        self
    }

    /// Selects the unbounded counter-flushing domain (the conclusion's unbounded-memory
    /// adaptation, see [`KlConfig::unbounded_counter`]).
    pub fn with_unbounded_counter(mut self, unbounded: bool) -> Self {
        self.unbounded_counter = unbounded;
        self
    }

    /// The modulus of the counter-flushing counter `myC` for a network of `n` processes:
    /// the domain is `[0 .. 2(n−1)(CMAX+1)]`, i.e. `2(n−1)(CMAX+1) + 1` distinct values.
    ///
    /// For `n = 1` the protocol is trivial (the root owns every token); the modulus is
    /// clamped to at least 2 so arithmetic stays well-defined.
    ///
    /// When [`KlConfig::unbounded_counter`] is selected the counter is effectively
    /// unbounded: the modulus is `u64::MAX`, so the root never wraps in any feasible run.
    pub fn counter_modulus(&self, n: usize) -> u64 {
        if self.unbounded_counter {
            return u64::MAX;
        }
        let base = 2 * (n.saturating_sub(1) as u64) * (self.cmax as u64 + 1) + 1;
        base.max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sets_sane_defaults() {
        let c = KlConfig::new(2, 5, 8);
        assert_eq!(c.k, 2);
        assert_eq!(c.l, 5);
        assert_eq!(c.cmax, 2);
        assert!(!c.literal_pusher_guard);
        assert!(c.timeout_interval >= 400);
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn rejects_k_larger_than_l() {
        KlConfig::new(4, 3, 5);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_zero_k() {
        KlConfig::new(0, 3, 5);
    }

    #[test]
    fn counter_modulus_matches_paper_domain() {
        let c = KlConfig::new(1, 1, 8).with_cmax(2);
        // 2 * (8-1) * (2+1) + 1 = 43 values.
        assert_eq!(c.counter_modulus(8), 43);
        // Single-node network clamps to 2.
        assert_eq!(c.counter_modulus(1), 2);
    }

    #[test]
    fn builders_override_fields() {
        let c =
            KlConfig::new(1, 2, 4).with_cmax(5).with_timeout(999).with_literal_pusher_guard(true);
        assert_eq!(c.cmax, 5);
        assert_eq!(c.timeout_interval, 999);
        assert!(c.literal_pusher_guard);
    }

    #[test]
    fn timeout_never_zero() {
        let c = KlConfig::new(1, 1, 2).with_timeout(0);
        assert_eq!(c.timeout_interval, 1);
    }

    #[test]
    fn unbounded_counter_selects_effectively_infinite_modulus() {
        let bounded = KlConfig::new(1, 2, 8);
        let unbounded = KlConfig::new(1, 2, 8).with_unbounded_counter(true);
        assert!(!bounded.unbounded_counter);
        assert!(unbounded.unbounded_counter);
        assert!(bounded.counter_modulus(8) < 100);
        assert_eq!(unbounded.counter_modulus(8), u64::MAX);
        // The unbounded domain does not depend on n or CMAX.
        assert_eq!(unbounded.with_cmax(50).counter_modulus(1_000), u64::MAX);
    }
}
