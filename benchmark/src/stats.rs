//! Order statistics for run reports: median, quartiles, and the rule
//! for which tail percentile a sample is large enough to support.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile, computed exactly like Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method) so the
/// spreads printed here are the ones the benchmark driver computes. A
/// single sample is its own quartiles.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let s = sorted(xs);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // May be negative or exceed 4 once `j` is clamped: the cut then
        // extrapolates from the outermost pair, as Python's does.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest of the usual tail percentiles (90, 95, 99, 99.9, 99.99)
/// that has at least ten samples beyond it, with its value; `None` when
/// even p90 has fewer (under 100 samples). A p99 over 200 samples is two
/// outliers, not a percentile.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    // (percentile, samples beyond it per 10 000) — integers, so the
    // ten-sample threshold is exact.
    [
        (99.99, 1),
        (99.9, 10),
        (99.0, 100),
        (95.0, 500),
        (90.0, 1000),
    ]
    .into_iter()
    .find_map(|(p, per_10k)| {
        let beyond = n * per_10k / 10_000;
        (beyond >= 10).then(|| (p, s[n - 1 - beyond]))
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
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
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&xs(99)), None);
        // 100 samples: ten lie beyond p90, only one beyond p99.
        assert_eq!(tail_percentile(&xs(100)), Some((90.0, 90.0)));
        assert_eq!(tail_percentile(&xs(999)), Some((95.0, 950.0)));
        assert_eq!(tail_percentile(&xs(1000)), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&xs(10_000)), Some((99.9, 9990.0)));
        assert_eq!(tail_percentile(&xs(100_000)), Some((99.99, 99_990.0)));
    }
}
