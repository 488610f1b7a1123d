//! Order statistics and the bound rule.

/// Median (mean of the middle pair for even counts).  Panics on an empty slice: every caller
/// measures at least one round.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` of the samples at or below
/// it.  `percentile(&v, 0.95)` over 320 samples is the 304th smallest, leaving 16 beyond it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)` computes them
/// (the exclusive method), so `spread` below is the number the acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    if m < 2 {
        return (sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Largest distance of any value from the median, as a share of the median.
pub fn max_deviation(values: &[f64]) -> f64 {
    let mid = median(values);
    values.iter().map(|v| (v - mid).abs() / mid).fold(0.0, f64::max)
}

/// The regression bound for a metric whose repeated runs deviate from their median by at most
/// `max_dev` (a share): twice that deviation, at least 3 %, at most 10 %.
pub fn bound_for(max_dev: f64) -> f64 {
    (2.0 * max_dev).clamp(0.03, 0.10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p95_of_320_leaves_16_beyond() {
        let samples: Vec<f64> = (1..=320).map(f64::from).collect();
        let p95 = percentile(&samples, 0.95);
        assert_eq!(p95, 304.0);
        assert_eq!(samples.iter().filter(|&&s| s > p95).count(), 16);
        assert_eq!(percentile(&samples, 0.5), 160.0);
        assert_eq!(percentile(&[5.0], 0.95), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }

    #[test]
    fn bound_is_twice_the_deviation_between_three_and_ten_percent() {
        assert_eq!(bound_for(0.0), 0.03);
        assert_eq!(bound_for(0.01), 0.03);
        assert_eq!(bound_for(0.02), 0.04);
        assert_eq!(bound_for(0.05), 0.10);
        assert_eq!(bound_for(0.3), 0.10);
        assert!((max_deviation(&[90.0, 100.0, 104.0]) - 0.10).abs() < 1e-12);
    }
}
