//! Order statistics over repeated measurements.

/// Median, interquartile range and sample count of one metric's reps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// Third minus first quartile.
    pub iqr: f64,
    /// Number of samples.
    pub n: usize,
}

/// Linear-interpolated quantile `q` (0..=1) of `sorted` (ascending).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarizes `samples` (any order).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        median: quantile(&sorted, 0.5),
        iqr: quantile(&sorted, 0.75) - quantile(&sorted, 0.25),
        n: sorted.len(),
    }
}

/// Whole-nanosecond bins of a [`LatencyHist`]; the last bin collects every
/// slower sample.
const BINS: usize = 1 << 16;

/// Sampled op latencies as counts per whole nanosecond, so memory stays
/// fixed however many ops a run samples.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Vec<u32>,
    n: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: vec![0; BINS],
            n: 0,
        }
    }
}

impl LatencyHist {
    /// Adds one sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[(ns as usize).min(BINS - 1)] += 1;
        self.n += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q` percentile, taken as the mean of the samples ranked within
    /// ±0.5 percentile points of `q`; `0` without samples. Single-op
    /// latencies cluster on a few integer values, so a plain order
    /// statistic would read the same integer run after run and hide a
    /// sub-nanosecond shift.
    pub fn percentile_band(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let at = |q: f64| ((self.n - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let (lo, hi) = (at(q - 0.005), at(q + 0.005));
        let (mut rank, mut sum) = (0u64, 0f64);
        for (ns, &c) in self.counts.iter().enumerate() {
            let (first, last) = (rank, rank + u64::from(c));
            let taken = last.min(hi + 1).saturating_sub(first.max(lo));
            sum += taken as f64 * ns as f64;
            rank = last;
            if rank > hi {
                break;
            }
        }
        sum / (hi - lo + 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_linear_interpolation() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.iqr, 2.0);
        assert_eq!(s.n, 5);
        assert_eq!(summarize(&[1.0, 2.0]).median, 1.5);
    }

    #[test]
    fn percentile_band_averages_around_the_rank() {
        let mut h = LatencyHist::default();
        for ns in (0..1000).rev() {
            h.record(ns);
        }
        assert_eq!(h.percentile_band(0.5), 499.5);
        assert_eq!(h.percentile_band(0.99), 989.0);
        let mut one = LatencyHist::default();
        one.record(7);
        assert_eq!(one.percentile_band(0.99), 7.0);
        for _ in 0..1000 {
            h.merge(&one);
        }
        assert_eq!(h.percentile_band(0.25), 7.0);
        assert_eq!(LatencyHist::default().percentile_band(0.5), 0.0);
    }
}
