//! The benchmark's own arithmetic: medians, nearest-rank percentiles, the
//! "at least ten samples beyond" percentile rule, and open-loop due-time
//! latency. Kept free of I/O so the unit tests below pin every rule.

/// Samples that must lie strictly beyond a percentile before it is
/// reported as measured rather than as an extrapolation.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried by [`highest_supported_percentile`], lowest first.
pub const PERCENTILE_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`: the smallest
/// sample with at least `p`% of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice, a NaN sample, or `p` outside (0, 100].
pub fn percentile(values: &[f64], p: f64) -> f64 {
    sorted(values)[rank(values.len(), p) - 1]
}

/// How many samples lie strictly beyond the nearest-rank percentile `p` of
/// `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile of [`PERCENTILE_LADDER`] that has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median lacks
/// them (fewer than 20 samples).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && samples_beyond(n, p) >= MIN_BEYOND)
}

/// Latency of one open-loop request: from when it was due to be sent (not
/// when the generator actually sent it) to when its result arrived, so a
/// stall that delays later sends is charged to those requests too.
/// Both instants are seconds on the same clock.
pub fn due_latency(due_s: f64, done_s: f64) -> f64 {
    done_s - due_s
}

/// How late the generator sent a request relative to its due time; never
/// negative (an early send is on time).
pub fn generator_lag(due_s: f64, sent_s: f64) -> f64 {
    (sent_s - due_s).max(0.0)
}

fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    // In thousandths of a percent, so 99.9% of 10 000 is exactly 9 990.
    let milli = (p * 1000.0).round() as u128;
    let rank = (milli * n as u128).div_ceil(100_000);
    (rank as usize).clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
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
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        // Order of the input does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(percentile(&r, 90.0), 90.0);
        assert_eq!(percentile(&[5.0, 1.0], 50.0), 1.0);
    }

    #[test]
    fn percentile_rule_needs_ten_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(0), None);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // Due at 1.0 s, sent late at 1.5 s, done at 2.0 s: the request
        // waited 1.0 s from the user's point of view, 0.5 s of it because
        // the generator ran late.
        assert_eq!(due_latency(1.0, 2.0), 1.0);
        assert_eq!(generator_lag(1.0, 1.5), 0.5);
        assert_eq!(generator_lag(1.0, 0.9), 0.0);
    }
}
