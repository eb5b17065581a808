//! Order statistics for timing samples.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile; a tail estimated from fewer is refused.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); `None` for
/// no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The first quartile, interpolated between the nearest ranks (Python's
/// `statistics.quantiles(..., method="inclusive")`), so it never lies
/// outside the samples; `None` for no samples.
pub fn lower_quartile(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let at = (v.len().checked_sub(1)?) as f64 / 4.0;
    let (lo, frac) = (at.floor() as usize, at.fract());
    Some(v[lo] + (v[(lo + 1).min(v.len() - 1)] - v[lo]) * frac)
}

/// The nearest-rank `p`-quantile (`0 < p < 1`), refused (`None`) when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let v = sorted(samples);
    let rank = (p * v.len() as f64).ceil() as usize;
    if rank == 0 || v.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// First, second and third quartiles by the exclusive method
/// (Python's `statistics.quantiles(values, n=4)`); `None` for fewer
/// than two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // p99 of 1000 samples leaves exactly ten beyond it.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // p90 needs 100 samples, p50 needs 20.
        assert_eq!(percentile(&ramp(100), 0.90), Some(90.0));
        assert_eq!(percentile(&ramp(99), 0.90), None);
        assert_eq!(percentile(&ramp(20), 0.50), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.50), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn lower_quartile_interpolates_within_the_samples() {
        // statistics.quantiles([1..10], n=4, method="inclusive")[0] == 3.25
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&v), Some(3.25));
        assert_eq!(lower_quartile(&[5.0, 1.0, 3.0, 2.0, 4.0]), Some(2.0));
        assert_eq!(lower_quartile(&[2.0, 1.0]), Some(1.25));
        assert_eq!(lower_quartile(&[7.0]), Some(7.0));
        assert_eq!(lower_quartile(&[]), None);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // The exclusive method extrapolates on tiny samples:
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
