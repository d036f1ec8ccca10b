//! Measurement primitives: running moments, CDFs, time-weighted averages and
//! binned throughput — the quantities every figure in the paper reports.

use crate::time::{SimDuration, SimTime};

/// Running mean/variance/min/max using Welford's algorithm.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (NaN-free input assumed; +inf if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (-inf if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Empirical distribution: stores samples, answers percentile/CDF queries.
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Cdf {
    /// Empty distribution.
    pub fn new() -> Self {
        Cdf {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Add a sample.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Bulk add.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        self.samples.extend(xs);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // A NaN sample means an upstream computation corrupted the
            // stats; fail loudly instead of letting total_cmp tuck NaNs at
            // the end and quietly poison every quantile.
            assert!(
                !self.samples.iter().any(|s| s.is_nan()),
                "NaN sample in CDF"
            );
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Value at quantile `q` in `[0, 1]` (nearest-rank). Panics if empty.
    #[expect(clippy::cast_possible_truncation, reason = "R5: a rank in [0, len]")]
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!(!self.samples.is_empty(), "quantile of empty CDF");
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        self.ensure_sorted();
        let idx = ((q * self.samples.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.samples.len() - 1);
        self.samples[idx]
    }

    /// Median shortcut.
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Fraction of samples `<= x`.
    pub fn fraction_below(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let n = self.samples.partition_point(|&s| s <= x);
        n as f64 / self.samples.len() as f64
    }

    /// The full empirical CDF as `(value, cumulative_fraction)` pairs,
    /// one point per sample — what the paper's CDF figures plot.
    pub fn points(&mut self) -> Vec<(f64, f64)> {
        self.ensure_sorted();
        let n = self.samples.len();
        self.samples
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// Borrow the raw samples (unsorted order not guaranteed).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Time-weighted average of a piecewise-constant signal (e.g. queue depth).
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_value: f64,
    last_time: SimTime,
    weighted_sum: f64,
    start: SimTime,
    max: f64,
}

impl TimeWeighted {
    /// Start tracking at `t0` with initial value `v0`.
    pub fn new(t0: SimTime, v0: f64) -> Self {
        TimeWeighted {
            last_value: v0,
            last_time: t0,
            weighted_sum: 0.0,
            start: t0,
            max: v0,
        }
    }

    /// Record that the signal changed to `v` at time `t` (must be monotonic).
    pub fn set(&mut self, t: SimTime, v: f64) {
        debug_assert!(t >= self.last_time, "time went backwards");
        self.weighted_sum += self.last_value * t.duration_since(self.last_time).as_secs_f64();
        self.last_value = v;
        self.last_time = t;
        self.max = self.max.max(v);
    }

    /// Time-weighted mean over `[start, t]`.
    pub fn mean_at(&self, t: SimTime) -> f64 {
        let total = t.duration_since(self.start).as_secs_f64();
        if total <= 0.0 {
            return self.last_value;
        }
        let sum =
            self.weighted_sum + self.last_value * t.duration_since(self.last_time).as_secs_f64();
        sum / total
    }

    /// Largest value observed.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Current value.
    pub fn current(&self) -> f64 {
        self.last_value
    }
}

/// Byte counter binned into fixed intervals; yields per-interval throughput.
/// The paper computes iperf throughput "over 500 ms intervals" — this is that.
#[derive(Debug, Clone)]
pub struct BinnedThroughput {
    bin: SimDuration,
    bins: Vec<u64>, // bytes per bin
}

impl BinnedThroughput {
    /// Counter with the given bin width.
    pub fn new(bin: SimDuration) -> Self {
        assert!(!bin.is_zero());
        BinnedThroughput {
            bin,
            bins: Vec::new(),
        }
    }

    /// Record `bytes` delivered at time `t`.
    #[expect(clippy::cast_possible_truncation, reason = "R5: lossless on 64-bit")]
    pub fn record(&mut self, t: SimTime, bytes: u64) {
        let idx = (t.as_nanos() / self.bin.as_nanos()) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0);
        }
        self.bins[idx] += bytes;
    }

    /// Per-bin throughput in Mbit/s.
    pub fn mbps_per_bin(&self) -> Vec<f64> {
        let secs = self.bin.as_secs_f64();
        self.bins
            .iter()
            .map(|&b| b as f64 * 8.0 / 1e6 / secs)
            .collect()
    }

    /// Mean throughput in Mbit/s across bins observed so far (0 if none).
    pub fn mean_mbps(&self) -> f64 {
        let v = self.mbps_per_bin();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Checkpoint view: `(bin_width, bytes per bin)`.
    pub fn ckpt_state(&self) -> (SimDuration, &[u64]) {
        (self.bin, &self.bins)
    }

    /// Rebuild from a checkpointed [`BinnedThroughput::ckpt_state`].
    pub fn from_ckpt_state(bin: SimDuration, bins: Vec<u64>) -> Self {
        assert!(!bin.is_zero());
        BinnedThroughput { bin, bins }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn cdf_quantiles() {
        let mut c = Cdf::new();
        c.extend((1..=100).map(|i| i as f64));
        assert_eq!(c.median(), 50.0);
        assert_eq!(c.quantile(0.95), 95.0);
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 100.0);
        assert!((c.fraction_below(25.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cdf_points_are_monotone() {
        let mut c = Cdf::new();
        c.extend([3.0, 1.0, 2.0]);
        let pts = c.points();
        assert_eq!(pts, vec![(1.0, 1.0 / 3.0), (2.0, 2.0 / 3.0), (3.0, 1.0)]);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.set(SimTime::from_secs(1), 10.0); // 0 for 1s
        tw.set(SimTime::from_secs(3), 0.0); // 10 for 2s
        let mean = tw.mean_at(SimTime::from_secs(4)); // 0 for 1s more
        assert!((mean - 5.0).abs() < 1e-12, "mean {mean}");
        assert_eq!(tw.max(), 10.0);
    }

    #[test]
    fn binned_throughput() {
        let mut b = BinnedThroughput::new(SimDuration::from_millis(500));
        // 1 Mbit in the first bin, 2 Mbit in the third.
        b.record(SimTime::from_millis(100), 125_000);
        b.record(SimTime::from_millis(1200), 250_000);
        let v = b.mbps_per_bin();
        assert_eq!(v.len(), 3);
        assert!((v[0] - 2.0).abs() < 1e-9); // 1 Mbit / 0.5 s
        assert!((v[1]).abs() < 1e-9);
        assert!((v[2] - 4.0).abs() < 1e-9);
        assert_eq!(b.total_bytes(), 375_000);
    }
}
