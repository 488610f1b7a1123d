//! Bucketed distributions for waiting-time and convergence-time samples.
//!
//! The [`crate::stats::Summary`] gives point statistics; experiments E5 and E6 additionally
//! report *distributions* (how waiting times spread relative to the Theorem-2 bound, how
//! convergence times spread across random faults), which is what [`Histogram`] provides,
//! together with a terminal-friendly rendering.
//!
//! # Exhausted trials
//!
//! Multi-trial harness runs can end a trial without producing a measurement at all
//! ([`treenet::RunOutcome::Exhausted`]: the step budget ran out before the stop condition
//! was met).  Folding such trials into the overflow (max) bucket would silently
//! misrepresent the distribution — "took longer than the range" and "never finished" are
//! different claims.  The histogram therefore carries a dedicated [`Histogram::exhausted`]
//! counter, fed by [`Histogram::record_exhausted`] /
//! [`Histogram::record_outcome`]; exhausted trials count towards
//! [`Histogram::total`] but never towards any value bucket, and quantiles are computed over
//! the *measured* samples only.

use serde::Serialize;
use treenet::RunOutcome;

/// A fixed-width-bucket histogram over `u64` samples.
#[derive(Clone, Debug, Serialize)]
pub struct Histogram {
    /// Lower edge of the first bucket (always 0 for these experiments).
    pub low: u64,
    /// Exclusive upper edge of the last regular bucket; samples at or above it land in the
    /// overflow bucket.
    pub high: u64,
    /// Width of each regular bucket.
    pub bucket_width: u64,
    /// Sample counts per regular bucket.
    pub counts: Vec<u64>,
    /// Samples `>= high`.
    pub overflow: u64,
    /// Trials that ended without a measurement (see the [module docs](self)); counted in
    /// `total` but in no value bucket.
    pub exhausted: u64,
    /// Total number of samples, including exhausted trials.
    pub total: u64,
}

impl Histogram {
    /// Builds a histogram with `buckets` equal-width buckets spanning `[0, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0` or `high == 0`.
    pub fn with_range(high: u64, buckets: usize) -> Self {
        assert!(buckets > 0, "a histogram needs at least one bucket");
        assert!(high > 0, "the histogram range must be non-empty");
        let bucket_width = high.div_ceil(buckets as u64).max(1);
        Histogram {
            low: 0,
            high: bucket_width * buckets as u64,
            bucket_width,
            counts: vec![0; buckets],
            overflow: 0,
            exhausted: 0,
            total: 0,
        }
    }

    /// Builds a histogram sized to the samples themselves (range `[0, max + 1)`).
    pub fn of(samples: &[u64], buckets: usize) -> Self {
        let max = samples.iter().copied().max().unwrap_or(0);
        let mut h = Histogram::with_range(max + 1, buckets);
        for &s in samples {
            h.record(s);
        }
        h
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        self.total += 1;
        if sample >= self.high {
            self.overflow += 1;
        } else {
            let idx = (sample / self.bucket_width) as usize;
            self.counts[idx] += 1;
        }
    }

    /// Records one trial that produced no measurement (separately from every value bucket —
    /// see the [module docs](self)).
    pub fn record_exhausted(&mut self) {
        self.total += 1;
        self.exhausted += 1;
    }

    /// Records a [`RunOutcome`]: satisfied and quiescent outcomes contribute their time as
    /// a sample, an exhausted outcome lands in the [`Histogram::exhausted`] counter instead
    /// of the max bucket.
    pub fn record_outcome(&mut self, outcome: &RunOutcome) {
        match outcome {
            RunOutcome::Exhausted(_) => self.record_exhausted(),
            _ => self.record(outcome.at()),
        }
    }

    /// Number of samples that carried a measurement (`total - exhausted`).
    pub fn measured(&self) -> u64 {
        self.total - self.exhausted
    }

    /// Nearest-rank quantile over the *measured* samples, computed from the buckets
    /// (bucket upper edge of the bucket in which the quantile falls; overflow reports
    /// `high`).  Exhausted trials are excluded.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.measured() == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.measured() as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return (idx as u64 + 1) * self.bucket_width;
            }
        }
        self.high
    }

    /// Merges another histogram with the same bucket configuration into this one (used to
    /// combine per-shard distributions from [`crate::harness::run_sharded`] workers).
    ///
    /// # Panics
    ///
    /// Panics if the two histograms differ in range or bucket width — merging incompatible
    /// bucketings would silently misattribute samples.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            (self.low, self.high, self.bucket_width),
            (other.low, other.high, other.bucket_width),
            "cannot merge histograms with different bucket configurations"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.overflow += other.overflow;
        self.exhausted += other.exhausted;
        self.total += other.total;
    }

    /// Renders the histogram as aligned ASCII bars, one line per non-empty bucket.
    pub fn render(&self, width: usize) -> String {
        let width = width.max(1);
        let max_count = self
            .counts
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(self.overflow)
            .max(self.exhausted)
            .max(1);
        let mut out = String::new();
        for (idx, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let lo = idx as u64 * self.bucket_width;
            let hi = lo + self.bucket_width;
            let bar =
                "#".repeat(((count as f64 / max_count as f64) * width as f64).ceil() as usize);
            out.push_str(&format!("[{lo:>8} .. {hi:>8}) {count:>6} {bar}\n"));
        }
        if self.overflow > 0 {
            let bar = "#"
                .repeat(((self.overflow as f64 / max_count as f64) * width as f64).ceil() as usize);
            out.push_str(&format!("[{:>8} ..     +inf) {:>6} {bar}\n", self.high, self.overflow));
        }
        if self.exhausted > 0 {
            let bar =
                "#".repeat(
                    ((self.exhausted as f64 / max_count as f64) * width as f64).ceil() as usize
                );
            out.push_str(&format!("(exhausted, no value) {:>6} {bar}\n", self.exhausted));
        }
        if out.is_empty() {
            out.push_str("(no samples)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_requested_range() {
        let h = Histogram::with_range(100, 10);
        assert_eq!(h.bucket_width, 10);
        assert_eq!(h.high, 100);
        assert_eq!(h.counts.len(), 10);
    }

    #[test]
    fn records_land_in_the_right_buckets() {
        let mut h = Histogram::with_range(100, 10);
        h.record(0);
        h.record(9);
        h.record(10);
        h.record(99);
        h.record(100); // overflow
        h.record(1_000); // overflow
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[9], 1);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.total, 6);
    }

    #[test]
    fn of_sizes_the_range_to_the_samples() {
        let samples = [3u64, 7, 7, 20];
        let h = Histogram::of(&samples, 7);
        assert_eq!(h.total, 4);
        assert_eq!(h.overflow, 0);
        assert_eq!(h.counts.iter().sum::<u64>(), 4);
    }

    #[test]
    fn quantiles_on_simple_data() {
        let samples: Vec<u64> = (0..100).collect();
        let h = Histogram::of(&samples, 10);
        let median = h.quantile(0.5);
        assert!((40..=60).contains(&median), "median bucket edge was {median}");
        assert!(h.quantile(1.0) >= median);
        assert_eq!(h.quantile(0.0), h.quantile(0.001));
    }

    #[test]
    fn render_draws_bars_and_handles_empty() {
        let h = Histogram::of(&[1, 1, 1, 50], 5);
        let drawn = h.render(20);
        assert!(drawn.contains('#'));
        assert!(drawn.lines().count() >= 2);
        let empty = Histogram::with_range(10, 2);
        assert!(empty.render(10).contains("no samples"));
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = Histogram::with_range(10, 2);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn merge_equals_recording_everything_in_one_histogram() {
        let (a, b): (Vec<u64>, Vec<u64>) = ((0..40).collect(), (30..90).collect());
        let mut merged = Histogram::with_range(80, 8);
        let mut other = Histogram::with_range(80, 8);
        let mut reference = Histogram::with_range(80, 8);
        for &s in &a {
            merged.record(s);
            reference.record(s);
        }
        for &s in &b {
            other.record(s);
            reference.record(s);
        }
        merged.merge(&other);
        assert_eq!(merged.counts, reference.counts);
        assert_eq!(merged.overflow, reference.overflow);
        assert_eq!(merged.total, reference.total);
    }

    #[test]
    #[should_panic(expected = "different bucket configurations")]
    fn merge_rejects_incompatible_bucketings() {
        let mut a = Histogram::with_range(80, 8);
        let b = Histogram::with_range(100, 8);
        a.merge(&b);
    }

    #[test]
    fn exhausted_trials_never_land_in_a_value_bucket() {
        use treenet::RunOutcome;
        let mut h = Histogram::with_range(100, 10);
        h.record_outcome(&RunOutcome::Satisfied(12));
        h.record_outcome(&RunOutcome::Quiescent(99));
        h.record_outcome(&RunOutcome::Exhausted(1_000_000));
        h.record_outcome(&RunOutcome::Exhausted(50));
        assert_eq!(h.total, 4);
        assert_eq!(h.exhausted, 2);
        assert_eq!(h.measured(), 2);
        // The exhausted outcomes are in neither the regular buckets nor the overflow —
        // even the one whose (meaningless) time would have fit the range.
        assert_eq!(h.counts.iter().sum::<u64>(), 2);
        assert_eq!(h.overflow, 0);
        // Quantiles are over the measured samples only.
        assert_eq!(h.quantile(1.0), 100);
        // The rendering reports the exhausted bucket explicitly.
        assert!(h.render(10).contains("exhausted"));
    }

    #[test]
    fn merging_preserves_the_exhausted_count() {
        let mut a = Histogram::with_range(80, 8);
        let mut b = Histogram::with_range(80, 8);
        a.record(10);
        a.record_exhausted();
        b.record_exhausted();
        b.record(200);
        a.merge(&b);
        assert_eq!(a.exhausted, 2);
        assert_eq!(a.total, 4);
        assert_eq!(a.overflow, 1);
        assert_eq!(a.measured(), 2);
    }
}
