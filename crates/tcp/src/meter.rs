//! Goodput metering and the statistics the paper reports (interval
//! throughput series for Fig. 4, mean ± 95% confidence interval for
//! Figs. 5 and 7).

use kar_simnet::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// Accumulates delivered (in-order) bytes into fixed-width time bins —
/// the iperf-interval-report equivalent.
#[derive(Debug, Clone)]
pub struct IntervalMeter {
    bin: SimTime,
    bins: Vec<u64>,
    total: u64,
    last_event: SimTime,
}

impl IntervalMeter {
    /// Creates a meter with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    pub fn new(bin: SimTime) -> Self {
        assert!(bin.as_nanos() > 0, "zero bin width");
        IntervalMeter {
            bin,
            bins: Vec::new(),
            total: 0,
            last_event: SimTime::ZERO,
        }
    }

    /// Records `bytes` of new in-order goodput at time `now`.
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        let idx = (now.as_nanos() / self.bin.as_nanos()) as usize;
        if self.bins.len() <= idx {
            self.bins.resize(idx + 1, 0);
        }
        self.bins[idx] += bytes;
        self.total += bytes;
        self.last_event = self.last_event.max(now);
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Time of the last recorded delivery.
    pub fn last_event(&self) -> SimTime {
        self.last_event
    }

    /// Goodput of each bin in Mbit/s, padded with zeros up to `until`.
    pub fn series_mbps(&self, until: SimTime) -> Vec<f64> {
        let n = (until.as_nanos() / self.bin.as_nanos()) as usize;
        let secs = self.bin.as_secs_f64();
        (0..n.max(self.bins.len()))
            .map(|i| {
                let b = self.bins.get(i).copied().unwrap_or(0);
                b as f64 * 8.0 / 1e6 / secs
            })
            .collect()
    }

    /// Mean goodput in Mbit/s over the window `[from, to)`.
    pub fn mean_mbps(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(to > from, "empty measurement window");
        let lo = (from.as_nanos() / self.bin.as_nanos()) as usize;
        let hi = (to.as_nanos() / self.bin.as_nanos()) as usize;
        let bytes: u64 = (lo..hi)
            .map(|i| self.bins.get(i).copied().unwrap_or(0))
            .sum();
        bytes as f64 * 8.0 / 1e6 / (to - from).as_secs_f64()
    }
}

/// A shareable meter handle: the receiver app writes, the experiment
/// reads after the run (the simulator is single-threaded, so `Rc` is the
/// right tool).
pub type SharedMeter = Rc<RefCell<IntervalMeter>>;

/// Creates a [`SharedMeter`] with the given bin width.
pub fn shared_meter(bin: SimTime) -> SharedMeter {
    Rc::new(RefCell::new(IntervalMeter::new(bin)))
}

/// Mean, standard deviation and 95% confidence half-width of a sample,
/// as used for the paper's 30-repetition iperf experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator).
    pub stddev: f64,
    /// Half-width of the 95% confidence interval
    /// (`t · s/√n`, with the t-quantile for the sample size).
    pub ci95: f64,
    /// Number of samples.
    pub n: usize,
}

impl SampleStats {
    /// Computes statistics over `samples`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "empty sample");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return SampleStats {
                mean,
                stddev: 0.0,
                ci95: 0.0,
                n,
            };
        }
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let stddev = var.sqrt();
        let t = t_quantile_975(n - 1);
        SampleStats {
            mean,
            stddev,
            ci95: t * stddev / (n as f64).sqrt(),
            n,
        }
    }
}

/// Two-sided 97.5% Student-t quantile for `df` degrees of freedom
/// (tabulated for small df, asymptotic 1.96 beyond).
fn t_quantile_975(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        return f64::INFINITY;
    }
    if df <= TABLE.len() {
        TABLE[df - 1]
    } else {
        1.96
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_accumulate_by_time() {
        let mut m = IntervalMeter::new(SimTime::from_secs(1));
        m.record(SimTime::from_millis(100), 1000);
        m.record(SimTime::from_millis(900), 500);
        m.record(SimTime::from_millis(1100), 2000);
        assert_eq!(m.total_bytes(), 3500);
        let series = m.series_mbps(SimTime::from_secs(3));
        assert_eq!(series.len(), 3);
        assert!((series[0] - 1500.0 * 8.0 / 1e6).abs() < 1e-12);
        assert!((series[1] - 2000.0 * 8.0 / 1e6).abs() < 1e-12);
        assert_eq!(series[2], 0.0);
    }

    #[test]
    fn mean_over_window() {
        let mut m = IntervalMeter::new(SimTime::from_secs(1));
        for s in 0..10u64 {
            m.record(SimTime::from_millis(s * 1000 + 500), 1_000_000);
        }
        // 1 MB/s = 8 Mbit/s everywhere.
        assert!((m.mean_mbps(SimTime::ZERO, SimTime::from_secs(10)) - 8.0).abs() < 1e-9);
        assert!((m.mean_mbps(SimTime::from_secs(2), SimTime::from_secs(4)) - 8.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty measurement window")]
    fn empty_window_panics() {
        let m = IntervalMeter::new(SimTime::from_secs(1));
        let _ = m.mean_mbps(SimTime::from_secs(1), SimTime::from_secs(1));
    }

    #[test]
    fn sample_stats_basic() {
        let s = SampleStats::from_samples(&[10.0, 12.0, 8.0, 10.0]);
        assert!((s.mean - 10.0).abs() < 1e-12);
        assert!(s.stddev > 1.6 && s.stddev < 1.7);
        // df = 3 → t = 3.182.
        assert!((s.ci95 - 3.182 * s.stddev / 2.0).abs() < 1e-9);
    }

    #[test]
    fn sample_stats_singleton_and_thirty() {
        let one = SampleStats::from_samples(&[5.0]);
        assert_eq!(one.stddev, 0.0);
        assert_eq!(one.ci95, 0.0);
        let thirty: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let s = SampleStats::from_samples(&thirty);
        assert_eq!(s.n, 30);
        // df = 29 → t = 2.045 (the paper's 30-run setting).
        assert!((s.ci95 - 2.045 * s.stddev / 30f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn shared_meter_is_shared() {
        let m = shared_meter(SimTime::from_secs(1));
        let m2 = m.clone();
        m.borrow_mut().record(SimTime::from_millis(10), 42);
        assert_eq!(m2.borrow().total_bytes(), 42);
    }
}
