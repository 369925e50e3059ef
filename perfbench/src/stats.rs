//! Order statistics over measured samples.

/// Median of `v` (mean of the two middle values for even lengths).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// The slowest-side tail of a latency sample: the 99th percentile (nearest
/// rank) when at least ten samples lie beyond it, otherwise the maximum.
pub fn tail(v: &[f64]) -> f64 {
    let s = sorted(v);
    if s.len() >= 1000 {
        let rank = (0.99 * s.len() as f64).ceil() as usize;
        s[rank - 1]
    } else {
        *s.last().expect("tail of no samples")
    }
}

/// First quartile, median and third quartile with the same interpolation
/// as Python's `statistics.quantiles(v, n=4)` (the default "exclusive"
/// method), so spreads printed here match the ones computed from the
/// benchmark's JSON lines. Needs at least two samples.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    assert!(v.len() >= 2, "quartiles need at least two samples");
    let s = sorted(v);
    let m = s.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), (1.5, 3.0, 4.5));
    }

    #[test]
    fn tail_is_max_below_a_thousand_samples() {
        assert_eq!(tail(&[3.0, 9.0, 1.0]), 9.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), 990.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
