//! Order statistics over host-time samples.
//!
//! Quantiles use the *exclusive* method of Python's
//! `statistics.quantiles` (position `p * (n + 1)` on the sorted
//! sample, linearly interpolated, clamped to the extremes), so the
//! spreads this benchmark prints are the ones a driver script computes
//! from the same values.

/// The `p`-quantile (`0 < p < 1`) of `values`; `NaN` when empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, p)
}

fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    // 1-based position on the sorted sample.
    let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let below = pos.floor() as usize;
    let frac = pos - below as f64;
    let lo = sorted[below - 1];
    let hi = sorted[below.min(n - 1)];
    lo + (hi - lo) * frac
}

/// The median of `values`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the benchmark contract is judged by. Needs at
/// least two values; `0.0` otherwise.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = quantile_sorted(&sorted, 0.5);
    (quantile_sorted(&sorted, 0.75) - quantile_sorted(&sorted, 0.25)) / mid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.75);
        assert_eq!(quantile(&v, 0.5), 5.5);
        assert_eq!(quantile(&v, 0.75), 8.25);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn high_percentiles_clamp_to_the_maximum() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.95), 3.0);
        assert_eq!(quantile(&v, 0.01), 1.0);
        // 0.95 * 21 = 19.95 -> between the 19th and 20th of 20.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert!((quantile(&v, 0.95) - 19.95).abs() < 1e-12);
    }

    #[test]
    fn spread_of_a_constant_sample_is_zero() {
        assert_eq!(iqr_share(&[5.0; 8]), 0.0);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }
}
