//! Order statistics over timing samples.

/// A metric's sample summary: median, quartiles, and count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `xs` (empty input gives NaNs and `n == 0`).
    pub fn of(xs: &[f64]) -> Summary {
        let (q1, median, q3) = quartiles(xs);
        Summary {
            median,
            q1,
            q3,
            n: xs.len(),
        }
    }

    /// The quartile spread as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (the mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads read the same here and in any script that checks them. A
/// single sample is all three quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The nearest-rank `pct` percentile, or `None` when fewer than ten
/// samples lie beyond it: a tail percentile is only reported where it
/// rests on at least ten observations.
pub fn tail_percentile(xs: &[f64], pct: f64) -> Option<f64> {
    let v = sorted(xs);
    let rank = ((pct / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let beyond = v.len().checked_sub(rank)?;
    (beyond >= 10).then(|| v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::of(&[2.0]).spread(), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, ten samples beyond.
        assert_eq!(tail_percentile(&xs, 90.0), Some(90.0));
        // p95: only five beyond.
        assert_eq!(tail_percentile(&xs, 95.0), None);
        // 174 samples (58 units x 3 reps) carry p90 with 17 beyond.
        let xs: Vec<f64> = (1..=174).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 90.0), Some(157.0));
        assert_eq!(tail_percentile(&xs, 50.0), Some(87.0));
        assert_eq!(tail_percentile(&[], 50.0), None);
    }
}
