//! Order statistics for latency samples and per-round rates.

/// The percentiles a latency tail may be reported at, lowest first.
const LADDER: [(f64, &str); 5] = [
    (0.9, "p90"),
    (0.99, "p99"),
    (0.999, "p99.9"),
    (0.9999, "p99.99"),
    (0.99999, "p99.999"),
];

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// 1-based nearest rank of quantile `q` among `n` samples: `ceil(q * n)`,
/// at least 1.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Whether `n` samples support reporting the `q` quantile: at least ten
/// samples must lie beyond it, or the value is set by a handful of
/// outliers.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= 10
}

/// The highest percentile on the ladder that `n` samples support.
pub fn highest_supported(n: usize) -> Option<(f64, &'static str)> {
    LADDER.iter().rev().copied().find(|&(q, _)| supports(n, q))
}

/// The sample count and the highest percentile it supports, for the
/// report.
pub fn describe(n: usize) -> String {
    let tail = highest_supported(n).map_or("none", |(_, label)| label);
    format!("{n} samples, highest supported tail {tail}")
}

/// Nearest-rank quantile of ascending `sorted` samples.
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly 10 beyond.
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(100_000, 0.9999));
        assert!(!supports(99_999, 0.9999));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn highest_supported_climbs_the_ladder() {
        let label = |n| highest_supported(n).map(|(_, l)| l);
        assert_eq!(label(5), None);
        assert_eq!(label(100), Some("p90"));
        assert_eq!(label(999), Some("p90"));
        assert_eq!(label(1000), Some("p99"));
        assert_eq!(label(10_000), Some("p99.9"));
        assert_eq!(label(250_000), Some("p99.99"));
        assert_eq!(label(2_000_000), Some("p99.999"));
        assert_eq!(describe(1000), "1000 samples, highest supported tail p99");
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.5), 50);
        assert_eq!(quantile(&s, 0.99), 99);
        assert_eq!(quantile(&s, 1.0), 100);
        assert_eq!(quantile(&s, 0.0), 1);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
