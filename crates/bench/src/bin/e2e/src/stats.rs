//! Order statistics over per-launch samples. The quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the exclusive method), so the spread
//! printed here is the spread an outside checker computes from the same runs.

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// `None` for an empty sample. Fewer than two values have no spread:
    /// both quartiles equal the value.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = match n {
            0 => return None,
            _ if n % 2 == 1 => v[n / 2],
            _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        };
        let (q1, q3) = if n < 2 {
            (median, median)
        } else {
            (quantile4(&v, 1), quantile4(&v, 3))
        };
        Some(Summary { n, q1, median, q3 })
    }

    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th of the three cut points of sorted `v` (`len ≥ 2`), exclusive
/// method: position `i·(n+1)/4` with linear interpolation, clamped to the
/// sample.
fn quantile4(v: &[f64], i: usize) -> f64 {
    let m = v.len();
    let j = (i * (m + 1) / 4).clamp(1, m - 1);
    let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(f64::NAN, |s| s.median)
}

/// Nearest-rank percentile (`p` in `0..=100`) of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256], n=4) == [3.0, 16.0, 96.0]
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (3.0, 16.0, 96.0));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        let s = Summary::of(&[7.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (4.5, 6.0, 7.5));
        assert!((s.spread() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_samples() {
        assert!(Summary::of(&[]).is_none());
        let one = Summary::of(&[3.5]).unwrap();
        assert_eq!((one.q1, one.median, one.q3), (3.5, 3.5, 3.5));
        assert_eq!(Summary::of(&[2.0; 9]).unwrap().spread(), 0.0);
        assert_eq!(Summary::of(&[0.0, 0.0]).unwrap().spread(), 0.0);
    }

    #[test]
    fn percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
