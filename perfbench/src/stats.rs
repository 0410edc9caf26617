//! Order statistics under the benchmark's percentile rule: a tail
//! percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a p99 needs 1000 samples and a p90 needs 100.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of unsorted samples (mean of the two middle ones for an even
/// count). `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Number of samples that lie beyond the nearest-rank `q` percentile of
/// `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q)
}

/// 1-based nearest rank of quantile `q` in `(0, 1]` among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `q` percentile of unsorted samples, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || beyond(n, q) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(n, q) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail(&samples, 0.99), None);
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail(&samples, 0.99), Some(990.0));
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&samples, 0.90), None);
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&samples, 0.90), Some(90.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0], 0.90), None);
        assert_eq!(tail(&[], 0.90), None);
    }
}
