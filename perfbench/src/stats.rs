//! Order statistics over measured samples.

/// `bytes` per `seconds` in MB/s (1e6 bytes); 0 for no time.
pub fn mb_s(bytes: u64, seconds: f64) -> f64 {
    ratio(bytes as f64 / 1e6, seconds)
}

/// `numerator / denominator`, 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator != 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linearly interpolated percentile `q` (0..=100) of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The tail percentile reported for a latency sample: p99 when at least ten
/// samples lie beyond it, otherwise the highest of a fixed ladder that still
/// leaves ten samples beyond it (p50 as the last resort).
pub fn tail_percentile(sample_count: usize) -> f64 {
    const LADDER: [f64; 6] = [99.0, 98.0, 95.0, 90.0, 75.0, 50.0];
    LADDER
        .into_iter()
        .find(|q| sample_count as f64 * (1.0 - q / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(700), 98.0);
        assert_eq!(tail_percentile(250), 95.0);
        assert_eq!(tail_percentile(5), 50.0);
    }
}
