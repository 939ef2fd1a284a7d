//! Order statistics shared by every workload: medians, nearest-rank
//! percentiles, the tail-percentile rule and the pool idle share.

/// Candidate tail percentiles, highest first.
pub const TAIL_LADDER: [f64; 7] = [0.999, 0.995, 0.99, 0.98, 0.95, 0.90, 0.75];

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Zero-based index of the nearest-rank `p`-th percentile of `n`
/// sorted samples: the smallest value with at least `p` of the samples
/// at or below it.
pub fn rank_index(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    // The epsilon keeps exact products such as 0.99 × 1000 from
    // rounding up a rank through representation error.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - 1 - rank_index(n, p)
}

/// Nearest-rank percentile of already sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank_index(sorted.len(), p)]
}

/// The highest percentile of [`TAIL_LADDER`] not above `max_p` that
/// leaves at least [`MIN_BEYOND`] of `n` samples beyond it, or `None`
/// when even the lowest rung leaves too few.
pub fn tail_percentile(n: usize, max_p: f64) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER.iter().copied().filter(|&p| p <= max_p).find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// One latency distribution, summarised.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail value and the percentile it was read at (`None` when
    /// too few samples for any rung of the ladder).
    pub tail: Option<(f64, f64)>,
}

impl Latency {
    /// Summarise `samples` with the tail capped at `max_p`.
    pub fn of(samples: &[f64], max_p: f64) -> Latency {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail = tail_percentile(sorted.len(), max_p).map(|p| (p, percentile(&sorted, p)));
        Latency { n: sorted.len(), p50: median(&sorted), tail }
    }

    /// The tail value, or the maximum when no percentile qualifies.
    pub fn tail_value(&self, samples: &[f64]) -> f64 {
        self.tail.map_or_else(|| samples.iter().copied().fold(f64::NAN, f64::max), |(_, v)| v)
    }
}

/// Share of pool capacity left unused: `1 − busy ÷ (workers × makespan)`,
/// clamped to `[0, 1]`.
pub fn idle_share(busy: f64, workers: usize, makespan: f64) -> f64 {
    let capacity = workers as f64 * makespan;
    if capacity <= 0.0 {
        return 0.0;
    }
    (1.0 - busy / capacity).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(100, 0.90), 10);
        assert_eq!(beyond(1000, 0.99), 10);
    }

    #[test]
    fn tail_rule_needs_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.5 only 5.
        assert_eq!(tail_percentile(1000, 0.999), Some(0.99));
        // 10 000 samples: p99.9 leaves 10 beyond.
        assert_eq!(tail_percentile(10_000, 0.999), Some(0.999));
        // The cap wins when there are plenty of samples.
        assert_eq!(tail_percentile(1_000_000, 0.99), Some(0.99));
        // 999 samples: p99 leaves 9, so the rule falls to p98 (19).
        assert_eq!(tail_percentile(999, 0.99), Some(0.98));
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(tail_percentile(100, 0.99), Some(0.90));
        // 40 samples: p75 leaves 10; 39 leaves 9 and nothing qualifies.
        assert_eq!(tail_percentile(40, 0.99), Some(0.75));
        assert_eq!(tail_percentile(39, 0.99), None);
        assert_eq!(tail_percentile(0, 0.99), None);
    }

    #[test]
    fn latency_summary_reports_rule_and_value() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let lat = Latency::of(&samples, 0.999);
        assert_eq!(lat.n, 1000);
        assert_eq!(lat.tail, Some((0.99, 989.0)));
        let few = [5.0, 1.0, 3.0];
        let lat = Latency::of(&few, 0.99);
        assert_eq!(lat.tail, None);
        assert_eq!(lat.tail_value(&few), 5.0);
    }

    #[test]
    fn idle_share_of_a_pool() {
        // Two workers, 10 s makespan, 19 s busy: 5% of capacity idle.
        assert!((idle_share(19.0, 2, 10.0) - 0.05).abs() < 1e-12);
        assert_eq!(idle_share(20.0, 2, 10.0), 0.0);
        // Timer skew can make busy exceed capacity: clamp, never negative.
        assert_eq!(idle_share(21.0, 2, 10.0), 0.0);
        assert_eq!(idle_share(0.0, 2, 10.0), 1.0);
        assert_eq!(idle_share(1.0, 2, 0.0), 0.0);
    }
}
