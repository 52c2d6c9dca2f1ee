//! Order statistics for timing samples.

/// Median of `values` (mean of the two middle values for even counts).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method), so a spread computed here matches the one
/// the driver computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Percentiles a tail may be reported at, highest first, in tenths of a
/// percent (integer rank arithmetic: 99.9 % of 10 000 is exactly 9 990).
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The tail of `samples`: the highest percentile of the ladder that still
/// has at least [`MIN_BEYOND`] samples beyond it, with the value at that
/// percentile (nearest rank). `None` when even the median has fewer.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = (p * n).div_ceil(1000);
        (rank >= 1 && n - rank >= MIN_BEYOND).then(|| (p as f64 / 10.0, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), Some([10.0, 20.0, 30.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: the median has only 9 beyond it.
        assert_eq!(tail(&samples(19)), None);
        // 20 samples: exactly 10 beyond the median.
        assert_eq!(tail(&samples(20)), Some((50.0, 10.0)));
        // 120 samples: p90 leaves 12 beyond, p95 only 6.
        assert_eq!(tail(&samples(120)), Some((90.0, 108.0)));
        // 1000 samples: p99 leaves exactly 10 beyond; p99.9 leaves 1.
        assert_eq!(tail(&samples(1000)), Some((99.0, 990.0)));
        // 10000 samples: p99.9 leaves exactly 10 beyond.
        assert_eq!(tail(&samples(10_000)), Some((99.9, 9990.0)));
    }
}
