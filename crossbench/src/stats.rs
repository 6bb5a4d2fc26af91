//! Order statistics shared by every workload.

/// Fewest samples that must lie beyond a reported percentile; with fewer,
/// the percentile is flagged instead of reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending), `p` in `(0, 1]`.
/// `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// A percentile that is reported only when at least [`MIN_BEYOND`]
/// samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile value, `None` when flagged.
    pub value: Option<f64>,
    /// Samples behind the estimate.
    pub samples: usize,
    /// Samples beyond the percentile's rank: above it for a tail, below
    /// it for a head.
    pub beyond: usize,
}

/// Percentile `p` of `sorted`, flagged (value `None`) when fewer than
/// [`MIN_BEYOND`] samples lie above it.
pub fn tail(sorted: &[f64], p: f64) -> Tail {
    let n = sorted.len();
    flag(sorted, p, if n == 0 { 0 } else { n - rank(n, p) })
}

/// Percentile `p` of `sorted` counted from the fast end, flagged (value
/// `None`) when fewer than [`MIN_BEYOND`] samples lie below it.
pub fn head(sorted: &[f64], p: f64) -> Tail {
    let n = sorted.len();
    flag(sorted, p, if n == 0 { 0 } else { rank(n, p) - 1 })
}

/// Percentile `p` of `sorted` with `beyond` samples on its far side.
fn flag(sorted: &[f64], p: f64, beyond: usize) -> Tail {
    Tail {
        value: if beyond >= MIN_BEYOND {
            percentile(sorted, p)
        } else {
            None
        },
        samples: sorted.len(),
        beyond,
    }
}

/// The first and third quartiles by the exclusive method, as Python's
/// `statistics.quantiles(data, n=4)` computes them. `None` for fewer than
/// two samples.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    // Python's formula with integer positions: j = i(n+1) div 4 clamped
    // to 1..n-1, then linear inter- or extrapolation by the exact
    // remainder (which the clamp can push outside 0..4).
    let cut = |i: i64| -> f64 {
        let (n, m) = (n as i64, n as i64 + 1);
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (sorted[j as usize - 1], sorted[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The median of `sorted` (mean of the middle pair for even counts).
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Sorts a sample of finite values in place and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.01), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = tail(&hundred, 0.9);
        assert_eq!((p90.value, p90.beyond, p90.samples), (Some(90.0), 10, 100));
        // p99 of 100 samples has one sample beyond it: flagged.
        let p99 = tail(&hundred, 0.99);
        assert_eq!((p99.value, p99.beyond), (None, 1));
        // p90 of 99 samples leaves 9 beyond: flagged.
        assert_eq!(tail(&hundred[..99], 0.9).value, None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand, 0.99).value, Some(990.0));
        assert_eq!(tail(&[], 0.5).value, None);
    }

    #[test]
    fn heads_need_ten_samples_below() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p10 of 100 samples is the 10th, with 9 below it: flagged.
        let p10 = head(&hundred, 0.1);
        assert_eq!((p10.value, p10.beyond, p10.samples), (None, 9, 100));
        let more: Vec<f64> = (1..=110).map(f64::from).collect();
        let p10 = head(&more, 0.1);
        assert_eq!((p10.value, p10.beyond), (Some(11.0), 10));
        assert_eq!(head(&[], 0.1).value, None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        // statistics.quantiles([3, 5, 8, 13, 21], n=4) == [4.0, 8.0, 17.0]
        assert_eq!(quartiles(&[3.0, 5.0, 8.0, 13.0, 21.0]), Some((4.0, 17.0)));
        // statistics.quantiles([1.5, 2.5, 10, 11], n=4) == [1.75, 6.25, 10.75]
        assert_eq!(quartiles(&[1.5, 2.5, 10.0, 11.0]), Some((1.75, 10.75)));
        assert_eq!(quartiles(&[4.0]), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(sorted(vec![3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
    }
}
