//! Time series recording and binning (the 60-second occupancy logs of the
//! home deployments, the 2.5 ms rectifier voltage trace of Fig. 1, …).

use crate::time::{SimDuration, SimTime};

/// An append-only `(time, value)` series.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Append a point; time must be non-decreasing.
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            debug_assert!(t >= last, "time series went backwards");
        }
        self.points.push((t, v));
    }

    /// All recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if nothing recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Values only.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|&(_, v)| v)
    }

    /// Mean of recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.values().sum::<f64>() / self.points.len() as f64
        }
    }

    /// Maximum recorded value (NEG_INFINITY if empty).
    pub fn max(&self) -> f64 {
        self.values().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Average the series into fixed-width bins over `[0, end)`; bins with no
    /// points carry the previous value forward (sample-and-hold), starting
    /// from `initial`.
    #[expect(clippy::cast_possible_truncation, reason = "R5: lossless on 64-bit")]
    pub fn bin_mean(&self, bin: SimDuration, end: SimTime, initial: f64) -> Vec<f64> {
        assert!(!bin.is_zero());
        let nbins = end.duration_since(SimTime::ZERO).div_ceil(bin) as usize;
        let mut out = Vec::with_capacity(nbins);
        let mut idx = 0usize;
        let mut last = initial;
        for b in 0..nbins {
            let t_end = SimTime::from_nanos(((b as u64) + 1) * bin.as_nanos());
            let mut sum = 0.0;
            let mut n = 0u32;
            while idx < self.points.len() && self.points[idx].0 < t_end {
                sum += self.points[idx].1;
                last = self.points[idx].1;
                n += 1;
                idx += 1;
            }
            out.push(if n > 0 { sum / n as f64 } else { last });
        }
        out
    }
}

/// A piecewise-constant power envelope: the RF power incident on a harvester
/// as a function of time. The MAC simulator emits one of these (packet on-air
/// intervals at the received power level, silence in between); the harvester
/// integrates its circuit model against it.
#[derive(Debug, Clone, Default)]
pub struct PowerEnvelope {
    /// `(start_time, level)` change points; the level holds until the next
    /// change point. Times strictly increase.
    changes: Vec<(SimTime, f64)>,
}

impl PowerEnvelope {
    /// An envelope that is `level` forever.
    pub fn constant(level: f64) -> Self {
        PowerEnvelope {
            changes: vec![(SimTime::ZERO, level)],
        }
    }

    /// Empty envelope (level 0 until the first change point).
    pub fn new() -> Self {
        PowerEnvelope {
            changes: Vec::new(),
        }
    }

    /// Record that the level changed to `level` at `t`. Consecutive identical
    /// levels are coalesced; `t` must be non-decreasing (equal time replaces).
    pub fn set(&mut self, t: SimTime, level: f64) {
        if let Some(&mut (last_t, ref mut last_v)) = self.changes.last_mut() {
            assert!(t >= last_t, "envelope time went backwards");
            if last_t == t {
                *last_v = level;
                return;
            }
            #[expect(clippy::float_cmp, reason = "R4: only bitwise-equal levels coalesce")]
            if *last_v == level {
                return;
            }
        }
        self.changes.push((t, level));
    }

    /// The level at time `t` (0 before the first change point).
    pub fn level_at(&self, t: SimTime) -> f64 {
        match self.changes.partition_point(|&(ct, _)| ct <= t) {
            0 => 0.0,
            n => self.changes[n - 1].1,
        }
    }

    /// Integrate the envelope over `[t0, t1]`, returning `∫ level dt` in
    /// `level-units × seconds` (e.g. mW × s = mJ).
    pub fn integrate(&self, t0: SimTime, t1: SimTime) -> f64 {
        assert!(t1 >= t0);
        let mut acc = 0.0;
        for (seg_start, seg_end, level) in self.segments(t0, t1) {
            acc += level * seg_end.duration_since(seg_start).as_secs_f64();
        }
        acc
    }

    /// Mean level over `[t0, t1]`.
    pub fn mean(&self, t0: SimTime, t1: SimTime) -> f64 {
        let span = t1.duration_since(t0).as_secs_f64();
        if span <= 0.0 {
            return self.level_at(t0);
        }
        self.integrate(t0, t1) / span
    }

    /// Iterate constant segments `(start, end, level)` clipped to `[t0, t1]`.
    pub fn segments(
        &self,
        t0: SimTime,
        t1: SimTime,
    ) -> impl Iterator<Item = (SimTime, SimTime, f64)> + '_ {
        let start_idx = self.changes.partition_point(|&(ct, _)| ct <= t0);
        let mut cursor = t0;
        let mut level = self.level_at(t0);
        let mut idx = start_idx;
        let changes = &self.changes;
        std::iter::from_fn(move || {
            if cursor >= t1 {
                return None;
            }
            let (seg_end, next_level) = if idx < changes.len() && changes[idx].0 < t1 {
                (changes[idx].0, Some(changes[idx].1))
            } else {
                (t1, None)
            };
            let item = (cursor, seg_end, level);
            cursor = seg_end;
            if let Some(nl) = next_level {
                level = nl;
                idx += 1;
            }
            Some(item)
        })
        .filter(|&(s, e, _)| e > s)
    }

    /// Number of change points.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// True if no change points were recorded.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Checkpoint view: the raw `(time, level)` change points.
    pub fn ckpt_changes(&self) -> &[(SimTime, f64)] {
        &self.changes
    }

    /// Rebuild from change points captured by
    /// [`PowerEnvelope::ckpt_changes`].
    pub fn from_ckpt_changes(changes: Vec<(SimTime, f64)>) -> PowerEnvelope {
        PowerEnvelope { changes }
    }

    /// Scale every level by a constant factor (e.g. apply path loss).
    pub fn scaled(&self, factor: f64) -> PowerEnvelope {
        PowerEnvelope {
            changes: self.changes.iter().map(|&(t, v)| (t, v * factor)).collect(),
        }
    }

    /// Pointwise sum of two envelopes (e.g. power from multiple channels,
    /// which a broadband harvester cannot distinguish).
    pub fn sum(&self, other: &PowerEnvelope) -> PowerEnvelope {
        let mut out = PowerEnvelope::new();
        let mut times: Vec<SimTime> = self
            .changes
            .iter()
            .chain(other.changes.iter())
            .map(|&(t, _)| t)
            .collect();
        times.sort_unstable();
        times.dedup();
        for t in times {
            out.set(t, self.level_at(t) + other.level_at(t));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_binning_holds_last_value() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs(0), 1.0);
        s.push(SimTime::from_secs(2), 3.0);
        let bins = s.bin_mean(SimDuration::from_secs(1), SimTime::from_secs(4), 0.0);
        assert_eq!(bins, vec![1.0, 1.0, 3.0, 3.0]);
    }

    #[test]
    fn envelope_level_and_integration() {
        let mut e = PowerEnvelope::new();
        e.set(SimTime::from_secs(1), 10.0);
        e.set(SimTime::from_secs(3), 0.0);
        assert_eq!(e.level_at(SimTime::ZERO), 0.0);
        assert_eq!(e.level_at(SimTime::from_secs(1)), 10.0);
        assert_eq!(e.level_at(SimTime::from_secs(2)), 10.0);
        assert_eq!(e.level_at(SimTime::from_secs(5)), 0.0);
        // 10 units for 2 seconds.
        let integral = e.integrate(SimTime::ZERO, SimTime::from_secs(5));
        assert!((integral - 20.0).abs() < 1e-9);
        assert!((e.mean(SimTime::ZERO, SimTime::from_secs(5)) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn envelope_coalesces_duplicates() {
        let mut e = PowerEnvelope::new();
        e.set(SimTime::from_secs(1), 5.0);
        e.set(SimTime::from_secs(2), 5.0);
        assert_eq!(e.len(), 1);
        e.set(SimTime::from_secs(2), 7.0);
        assert_eq!(e.len(), 2);
        e.set(SimTime::from_secs(2), 9.0); // replace at same instant
        assert_eq!(e.len(), 2);
        assert_eq!(e.level_at(SimTime::from_secs(2)), 9.0);
    }

    #[test]
    fn envelope_segments_clip() {
        let mut e = PowerEnvelope::new();
        e.set(SimTime::from_secs(1), 1.0);
        e.set(SimTime::from_secs(2), 2.0);
        e.set(SimTime::from_secs(3), 0.0);
        let segs: Vec<_> = e
            .segments(SimTime::from_millis(1500), SimTime::from_millis(2500))
            .collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].2, 1.0);
        assert_eq!(segs[1].2, 2.0);
        assert_eq!(segs[0].0, SimTime::from_millis(1500));
        assert_eq!(segs[1].1, SimTime::from_millis(2500));
    }

    #[test]
    fn envelope_sum_superposes() {
        let mut a = PowerEnvelope::new();
        a.set(SimTime::from_secs(1), 1.0);
        a.set(SimTime::from_secs(3), 0.0);
        let mut b = PowerEnvelope::new();
        b.set(SimTime::from_secs(2), 2.0);
        b.set(SimTime::from_secs(4), 0.0);
        let s = a.sum(&b);
        assert_eq!(s.level_at(SimTime::from_millis(1500)), 1.0);
        assert_eq!(s.level_at(SimTime::from_millis(2500)), 3.0);
        assert_eq!(s.level_at(SimTime::from_millis(3500)), 2.0);
        assert_eq!(s.level_at(SimTime::from_millis(4500)), 0.0);
    }

    #[test]
    fn scaled_applies_factor() {
        let e = PowerEnvelope::constant(4.0).scaled(0.25);
        assert_eq!(e.level_at(SimTime::from_secs(10)), 1.0);
    }
}
