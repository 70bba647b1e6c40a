//! Order statistics for the reported metrics.

/// Fewest samples that must lie strictly beyond a tail percentile for it
/// to be reported at all.
pub const MIN_BEYOND_TAIL: usize = 10;

/// The `q`-quantile of `samples` by nearest rank (`q` in `(0, 1]`), or
/// `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median (nearest rank); `0.0` for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// The arithmetic mean; `0.0` for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// A tail percentile (`q > 0.5`), refused with `Err(n)` (the sample
/// count) when fewer than [`MIN_BEYOND_TAIL`] samples lie beyond it.
pub fn tail(samples: &[f64], q: f64) -> Result<f64, usize> {
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if n == 0 || n - rank.min(n) < MIN_BEYOND_TAIL {
        return Err(n);
    }
    quantile(samples, q).ok_or(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_refused_with_fewer_than_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred, 0.9), Ok(90.0));
        assert_eq!(tail(&hundred, 0.99), Err(100));
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&ninety_nine, 0.9), Err(99));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand, 0.99), Ok(990.0));
        assert_eq!(tail(&[], 0.9), Err(0));
    }

    #[test]
    fn median_and_quantiles_use_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[5.0], 0.99), Some(5.0));
    }
}
