//! The workspace's one micro-timing loop: the model builder calibrates
//! every cell of the Table 3 plan through it, and the cost ladder and the
//! figure binaries time their rows through it.

use std::time::{Duration, Instant};

/// Samples per timing.
const SAMPLES: usize = 9;

/// Length of one sample in a full run.
pub const SAMPLE: Duration = Duration::from_millis(80);

/// Length of one sample under `--quick`, the CI budget.
pub const QUICK_SAMPLE: Duration = Duration::from_millis(8);

/// What [`time_per_iter`] measured: nanoseconds per call of a routine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Median of the samples' nanoseconds per call.
    pub median_ns: f64,
    /// Third minus first quartile of the samples' nanoseconds per call.
    pub iqr_ns: f64,
    /// Number of samples.
    pub samples: usize,
}

impl Timing {
    /// Median and interquartile range of `samples` (any order), each
    /// quartile linearly interpolated between the sorted samples.
    fn of(samples: &mut [f64]) -> Timing {
        samples.sort_by(f64::total_cmp);
        let quantile = |q: f64| {
            let pos = (samples.len() - 1) as f64 * q;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
        };
        Timing {
            median_ns: quantile(0.5),
            iqr_ns: quantile(0.75) - quantile(0.25),
            samples: samples.len(),
        }
    }
}

/// Times `routine` in nanoseconds per call: a warm-up of 2.5 `sample`s at
/// one call per clock read, which sizes a batch to `min(sample, 1 ms)` of
/// calls so clock reads stay out of the measurement, then 9 samples, each
/// whole batches run for `sample`. Every result passes through
/// [`std::hint::black_box`]. At [`SAMPLE`] that is a 200 ms warm-up and
/// nine 80 ms samples of ~1 ms batches; at `Duration::ZERO` the routine
/// runs 1 + 9 times.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use cs_model::timing::time_per_iter;
///
/// let t = time_per_iter(Duration::from_micros(50), || (0..64u64).sum::<u64>());
/// assert_eq!(t.samples, 9);
/// assert!(t.median_ns.is_finite());
/// ```
pub fn time_per_iter<R>(sample: Duration, mut routine: impl FnMut() -> R) -> Timing {
    // Runs `batch` calls at a time until `budget` has passed; nanos per call.
    let mut run = |budget: Duration, batch: u64| {
        let start = Instant::now();
        let mut calls = 0u64;
        loop {
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            calls += batch;
            let elapsed = start.elapsed();
            if elapsed >= budget {
                return elapsed.as_nanos() as f64 / calls as f64;
            }
        }
    };
    let per_call = run(sample * 5 / 2, 1);
    let target_ns = sample.min(Duration::from_millis(1)).as_nanos() as f64;
    let batch = ((target_ns / per_call.max(1.0)) as u64).clamp(1, 1_000_000);
    let mut samples: [f64; SAMPLES] = std::array::from_fn(|_| run(sample, batch));
    Timing::of(&mut samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_reports_the_median_and_interquartile_range_of_its_samples() {
        // Odd count: the quartiles fall on samples.
        let odd = Timing::of(&mut [50.0, 10.0, 30.0, 20.0, 40.0]);
        assert_eq!((odd.median_ns, odd.iqr_ns, odd.samples), (30.0, 20.0, 5));
        // Even count: median 25, quartiles 17.5 and 32.5.
        let even = Timing::of(&mut [40.0, 10.0, 30.0, 20.0]);
        assert_eq!((even.median_ns, even.iqr_ns, even.samples), (25.0, 15.0, 4));
        let one = Timing::of(&mut [7.0]);
        assert_eq!((one.median_ns, one.iqr_ns, one.samples), (7.0, 0.0, 1));
    }

    #[test]
    fn a_zero_sample_runs_one_warm_up_call_and_one_call_per_sample() {
        let mut calls = 0;
        let t = time_per_iter(Duration::ZERO, || calls += 1);
        assert_eq!(calls, 10);
        assert_eq!(t.samples, 9);
        for ns in [t.median_ns, t.iqr_ns] {
            assert!(ns.is_finite() && ns >= 0.0, "{t:?}");
        }
    }
}
