//! Median-of-N wall-clock timing with optional cache flushing, mirroring the
//! measurement protocol of the paper: "each test was repeated ten times and
//! the median was recorded as the execution time. To eliminate cache effects,
//! the cache was flushed prior to each repetition."

use crate::cache::CacheFlusher;
use std::time::Instant;

/// Time a single invocation of `f` in seconds.
pub fn time_once<F: FnOnce()>(f: F) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// The samples gathered by a [`MedianTimer`] measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingResult {
    /// Individual repetition times in seconds, in execution order.
    pub samples: Vec<f64>,
}

impl TimingResult {
    /// Median execution time (the paper's summary statistic).
    #[must_use]
    pub fn median(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        }
    }

    /// Fastest repetition.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Slowest repetition.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// Arithmetic mean of the repetitions.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }
}

/// Repeats a measurement `reps` times, optionally flushing the cache before
/// each repetition, and reports the full sample set.
#[derive(Debug)]
pub struct MedianTimer {
    reps: usize,
    flusher: Option<CacheFlusher>,
}

impl MedianTimer {
    /// Timer with `reps` repetitions and no cache flushing.
    #[must_use]
    pub fn new(reps: usize) -> Self {
        MedianTimer {
            reps: reps.max(1),
            flusher: None,
        }
    }

    /// Timer with `reps` repetitions that flushes a `flush_bytes`-byte buffer
    /// before every repetition.
    #[must_use]
    pub fn with_cache_flush(reps: usize, flush_bytes: usize) -> Self {
        MedianTimer {
            reps: reps.max(1),
            flusher: Some(CacheFlusher::new(flush_bytes)),
        }
    }

    /// Number of repetitions per measurement.
    #[must_use]
    pub fn reps(&self) -> usize {
        self.reps
    }

    /// Measure `f` and return all repetition times.
    pub fn measure<F: FnMut()>(&mut self, mut f: F) -> TimingResult {
        let mut samples = Vec::with_capacity(self.reps);
        for _ in 0..self.reps {
            if let Some(flusher) = &mut self.flusher {
                flusher.flush();
            }
            let start = Instant::now();
            f();
            samples.push(start.elapsed().as_secs_f64());
        }
        TimingResult { samples }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn median_of_odd_and_even_sample_counts() {
        let odd = TimingResult {
            samples: vec![3.0, 1.0, 2.0],
        };
        assert_eq!(odd.median(), 2.0);
        let even = TimingResult {
            samples: vec![4.0, 1.0, 3.0, 2.0],
        };
        assert!((even.median() - 2.5).abs() < 1e-15);
        // A NaN sample sorts last instead of panicking.
        let nan = TimingResult {
            samples: vec![2.0, f64::NAN, 1.0],
        };
        assert_eq!(nan.median(), 2.0);
    }

    #[test]
    fn empty_result_is_zero() {
        let r = TimingResult { samples: vec![] };
        assert_eq!(r.median(), 0.0);
        assert_eq!(r.mean(), 0.0);
    }

    #[test]
    fn summary_statistics_are_ordered() {
        let r = TimingResult {
            samples: vec![0.5, 0.1, 0.9, 0.3],
        };
        assert!(r.min() <= r.median());
        assert!(r.median() <= r.max());
        assert!(r.min() <= r.mean() && r.mean() <= r.max());
    }

    #[test]
    fn timer_collects_requested_repetitions() {
        let mut t = MedianTimer::new(5);
        let mut count = 0;
        let r = t.measure(|| count += 1);
        assert_eq!(count, 5);
        assert_eq!(r.samples.len(), 5);
    }

    #[test]
    fn timer_with_flush_still_measures() {
        let mut t = MedianTimer::with_cache_flush(3, 1024);
        let r = t.measure(|| std::thread::sleep(Duration::from_micros(200)));
        assert_eq!(r.samples.len(), 3);
        assert!(r.min() >= 150.0e-6, "sleep should dominate: {:?}", r);
    }

    #[test]
    fn zero_reps_is_clamped_to_one() {
        let mut t = MedianTimer::new(0);
        assert_eq!(t.reps(), 1);
        let r = t.measure(|| {});
        assert_eq!(r.samples.len(), 1);
    }

    #[test]
    fn time_once_measures_elapsed_time() {
        let t = time_once(|| std::thread::sleep(Duration::from_millis(2)));
        assert!(t >= 1.0e-3);
    }
}
