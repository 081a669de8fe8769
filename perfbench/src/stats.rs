//! Percentiles of timing samples.

/// The `q`-quantile (`0 <= q <= 1`) of `samples`, interpolating linearly
/// between the two closest ranks (the convention of `numpy.percentile`
/// and of Python's `statistics.quantiles(method="inclusive")`).
///
/// # Panics
///
/// Panics on an empty sample or a `q` outside `[0, 1]`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// How many samples lie strictly above the `q`-quantile: the guide to
/// whether a percentile is a tail estimate at all.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_samples() {
        let one_to_ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&one_to_ten), 5.5);
        assert_eq!(quantile(&one_to_ten, 0.0), 1.0);
        assert_eq!(quantile(&one_to_ten, 1.0), 10.0);
        // rank 0.9 * 9 = 8.1 -> 9 + 0.1 * (10 - 9)
        assert!((quantile(&one_to_ten, 0.9) - 9.1).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
        // Order does not matter.
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.25), 1.75);
    }

    #[test]
    fn p95_of_a_thousand_samples() {
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        // rank 0.95 * 999 = 949.05
        assert!((quantile(&samples, 0.95) - 949.05).abs() < 1e-9);
        assert_eq!(beyond(&samples, 0.95), 50);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_samples_panic() {
        quantile(&[], 0.5);
    }
}
