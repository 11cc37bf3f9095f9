//! The statistics the benchmark reports: medians, quartiles, and the tail
//! percentile the sample supports. Never a mean over a whole run — a slow
//! period of the host moves a mean and barely moves a median.

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method) — the driver computes its spreads this way.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let at = |q: usize| {
        let pos = q as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    [at(1), at(2), at(3)]
}

/// Samples required beyond the tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_SAMPLES_BEYOND`] samples
/// beyond it: `(percentile, value)`. With fewer than eleven samples the
/// sample supports no tail and the median is returned.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= TAIL_SAMPLES_BEYOND {
        return (50.0, median(&v));
    }
    let i = n - 1 - TAIL_SAMPLES_BEYOND;
    (100.0 * (i + 1) as f64 / n as f64, v[i])
}

/// Largest pairwise difference as a share of the median.
pub fn max_pairwise_share(values: &[f64]) -> f64 {
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        0.0
    } else {
        (hi - lo) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=96).map(f64::from).collect();
        let (pct, value) = tail(&v);
        assert_eq!(value, 86.0);
        assert!((pct - 89.58).abs() < 0.01);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (50.0, 2.0));
    }
}
