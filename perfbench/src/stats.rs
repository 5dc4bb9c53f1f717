//! Order statistics for timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// `NaN` for an empty set.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a sample set: the highest percentile that still has at
/// least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The order statistic at that percentile.
    pub value: f64,
    /// The percentile, `100·(k+1)/n` for the `k`-th smallest of `n`.
    pub percentile: f64,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// [`Tail`] of `xs`: the `(n−10)`-th smallest sample, which has
/// exactly ten samples after it. With ten or fewer samples no
/// percentile qualifies, and the maximum is reported at the 100th.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return Tail {
            value: v.last().copied().unwrap_or(f64::NAN),
            percentile: 100.0,
            samples: n,
        };
    }
    let k = n - TAIL_BEYOND - 1;
    Tail {
        value: v[k],
        percentile: 100.0 * (k + 1) as f64 / n as f64,
        samples: n,
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1..=200 shuffled: the tail is the 190th smallest (190.0),
        // with 191..=200 — ten samples — beyond it.
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        xs.reverse();
        xs.swap(3, 150);
        let t = tail(&xs);
        assert_eq!(t.value, 190.0);
        assert_eq!(t.samples, 200);
        assert_eq!(t.percentile, 95.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

        // Exactly eleven samples: the smallest has ten beyond it.
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven).value, 0.0);
        // Ten or fewer: no percentile qualifies; report the maximum.
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        let t = tail(&ten);
        assert_eq!((t.value, t.percentile), (9.0, 100.0));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
