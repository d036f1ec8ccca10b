//! Channel-occupancy accounting.
//!
//! The paper measures occupancy by capturing radiotap headers in monitor mode
//! and computing `Σ sizeᵢ/rateᵢ / duration` over the router's frames (§4).
//! [`OccupancyMonitor`] reproduces that metric per time bin and additionally
//! tracks *physical* on-air time (preamble included) — the quantity the
//! harvester integrates — and, optionally, a fine-grained on/off RF envelope
//! for short runs (Fig. 1).

use crate::airtime::{frame_airtime, tshark_airtime};
use crate::frame::StationId;
use powifi_rf::Bitrate;
use powifi_sim::{PowerEnvelope, Seconds, SimDuration, SimTime};

/// Per-channel occupancy accounting.
#[derive(Debug)]
pub struct OccupancyMonitor {
    pub(crate) bin: SimDuration,
    /// Dense per-station "is the router" flags, indexed by station id and
    /// grown on demand — [`record`](Self::record) runs once per frame, so
    /// membership must be an array load, not a tree probe.
    pub(crate) tracked: Vec<bool>,
    /// Per-bin tshark-metric on-air time of tracked stations.
    pub(crate) tshark_tracked: Vec<Seconds>,
    /// Per-bin tshark-metric on-air time of everyone.
    pub(crate) tshark_all: Vec<Seconds>,
    /// Per-bin physical on-air time (preamble included) of tracked stations.
    pub(crate) phys_tracked: Vec<Seconds>,
    /// Optional fine RF envelope of tracked transmissions (1.0 = on air).
    pub(crate) envelope: Option<PowerEnvelope>,
    pub(crate) envelope_busy_until: SimTime,
    /// Total tshark-metric on-air time per source station (dense, indexed by
    /// station id), so co-channel routers can be accounted separately.
    pub(crate) src_totals: Vec<Seconds>,
    /// One-entry memo of the last `(bytes, rate)` → `(tshark, phys)`
    /// airtime conversion; the injector repeats one frame shape millions of
    /// times, and the cached value is exactly the recomputation.
    pub(crate) airtime_memo: Option<(u32, Bitrate, Seconds, SimDuration)>,
}

impl OccupancyMonitor {
    /// Monitor with the given bin width (60 s in the home deployments, 1 s
    /// for the benchmark CDFs).
    pub fn new(bin: SimDuration) -> Self {
        assert!(!bin.is_zero());
        OccupancyMonitor {
            bin,
            tracked: Vec::new(),
            tshark_tracked: Vec::new(),
            tshark_all: Vec::new(),
            phys_tracked: Vec::new(),
            envelope: None,
            envelope_busy_until: SimTime::ZERO,
            src_totals: Vec::new(),
            airtime_memo: None,
        }
    }

    /// Mark a station as "the router" for the tracked-occupancy metric.
    pub fn track(&mut self, sta: StationId) {
        let i = sta.0 as usize;
        if i >= self.tracked.len() {
            self.tracked.resize(i + 1, false);
        }
        self.tracked[i] = true;
    }

    /// Enable fine envelope recording (use only for short runs; memory grows
    /// with every tracked frame).
    pub fn enable_envelope(&mut self) {
        self.envelope = Some(PowerEnvelope::new());
    }

    /// Record a frame transmission starting at `t`.
    #[expect(clippy::cast_possible_truncation, reason = "R5: lossless on 64-bit")]
    pub fn record(&mut self, t: SimTime, src: StationId, bytes: u32, rate: Bitrate) {
        let idx = (t.as_nanos() / self.bin.as_nanos()) as usize;
        if idx >= self.tshark_all.len() {
            self.tshark_all.resize(idx + 1, Seconds::ZERO);
            self.tshark_tracked.resize(idx + 1, Seconds::ZERO);
            self.phys_tracked.resize(idx + 1, Seconds::ZERO);
        }
        let (tshark, phys) = match self.airtime_memo {
            Some((b, r, t, p)) if b == bytes && r == rate => (t, p),
            _ => {
                let t = tshark_airtime(bytes, rate).as_seconds();
                let p = frame_airtime(bytes, rate);
                self.airtime_memo = Some((bytes, rate, t, p));
                (t, p)
            }
        };
        self.tshark_all[idx] += tshark;
        let si = src.0 as usize;
        if si >= self.src_totals.len() {
            self.src_totals.resize(si + 1, Seconds::ZERO);
        }
        self.src_totals[si] += tshark;
        if self.tracked.get(si).copied().unwrap_or(false) {
            self.tshark_tracked[idx] += tshark;
            self.phys_tracked[idx] += phys.as_seconds();
            if let Some(env) = &mut self.envelope {
                let end = t + phys;
                if t >= self.envelope_busy_until {
                    env.set(t, 1.0);
                    env.set(end, 0.0);
                    self.envelope_busy_until = end;
                } else if end > self.envelope_busy_until {
                    // Overlapping busy (back-to-back frames): extend.
                    env.set(self.envelope_busy_until, 1.0);
                    env.set(end, 0.0);
                    self.envelope_busy_until = end;
                }
            }
        }
    }

    fn fraction(bins: &[Seconds], bin: SimDuration, idx: usize) -> f64 {
        bins.get(idx).copied().unwrap_or(Seconds::ZERO) / bin.as_seconds()
    }

    /// Per-bin occupancy (0..~1, tshark metric) of tracked stations over
    /// `[0, end)`. Bins beyond the last recorded frame read as 0.
    #[expect(clippy::cast_possible_truncation, reason = "R5: lossless on 64-bit")]
    pub fn tracked_series(&self, end: SimTime) -> Vec<f64> {
        let n = end.duration_since(SimTime::ZERO).div_ceil(self.bin) as usize;
        (0..n)
            .map(|i| Self::fraction(&self.tshark_tracked, self.bin, i))
            .collect()
    }

    /// Per-bin occupancy of all stations on the channel.
    #[expect(clippy::cast_possible_truncation, reason = "R5: lossless on 64-bit")]
    pub fn all_series(&self, end: SimTime) -> Vec<f64> {
        let n = end.duration_since(SimTime::ZERO).div_ceil(self.bin) as usize;
        (0..n)
            .map(|i| Self::fraction(&self.tshark_all, self.bin, i))
            .collect()
    }

    /// Mean tracked occupancy over `[0, end)` — the paper's headline number.
    pub fn mean_tracked(&self, end: SimTime) -> f64 {
        let total: Seconds = self.tshark_tracked.iter().copied().sum();
        let span = end.as_seconds();
        if span.0 <= 0.0 {
            0.0
        } else {
            total / span
        }
    }

    /// Per-bin *physical* duty factor of tracked stations (fraction of the
    /// bin with tracked RF on the air) — what the harvester sees.
    #[expect(clippy::cast_possible_truncation, reason = "R5: lossless on 64-bit")]
    pub fn duty_series(&self, end: SimTime) -> Vec<f64> {
        let n = end.duration_since(SimTime::ZERO).div_ceil(self.bin) as usize;
        (0..n)
            .map(|i| Self::fraction(&self.phys_tracked, self.bin, i))
            .collect()
    }

    /// Mean physical duty factor over `[0, end)`.
    pub fn mean_duty(&self, end: SimTime) -> f64 {
        let total: Seconds = self.phys_tracked.iter().copied().sum();
        let span = end.as_seconds();
        if span.0 <= 0.0 {
            0.0
        } else {
            total / span
        }
    }

    /// Mean occupancy of one specific source station over `[0, end)` —
    /// lets co-channel routers be accounted separately.
    pub fn mean_of_station(&self, sta: StationId, end: SimTime) -> f64 {
        let span = end.as_seconds();
        if span.0 <= 0.0 {
            0.0
        } else {
            self.src_totals
                .get(sta.0 as usize)
                .copied()
                .unwrap_or(Seconds::ZERO)
                / span
        }
    }

    /// The fine RF envelope, if recording was enabled.
    pub fn envelope(&self) -> Option<&PowerEnvelope> {
        self.envelope.as_ref()
    }

    /// Bin width.
    pub fn bin(&self) -> SimDuration {
        self.bin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_matches_tshark_formula() {
        let mut m = OccupancyMonitor::new(SimDuration::from_secs(1));
        m.track(StationId(1));
        // Ten 1536-byte frames at 54 Mbps in the first second:
        // each 8×1536/54 ≈ 227.6 µs → ~0.2276 % each.
        for i in 0..10 {
            m.record(
                SimTime::from_millis(i * 100),
                StationId(1),
                1536,
                Bitrate::G54,
            );
        }
        let occ = m.mean_tracked(SimTime::from_secs(1));
        let expect = 10.0 * (8.0 * 1536.0 / 54e6);
        // tshark_airtime rounds to whole nanoseconds, so allow that slack.
        assert!((occ - expect).abs() < 1e-7, "occ {occ} vs {expect}");
    }

    #[test]
    fn untracked_stations_counted_in_all_only() {
        let mut m = OccupancyMonitor::new(SimDuration::from_secs(1));
        m.track(StationId(1));
        m.record(SimTime::from_millis(10), StationId(2), 1536, Bitrate::G54);
        assert_eq!(m.mean_tracked(SimTime::from_secs(1)), 0.0);
        assert!(m.all_series(SimTime::from_secs(1))[0] > 0.0);
    }

    #[test]
    fn duty_exceeds_tshark_metric() {
        // Physical airtime includes the 20 µs preamble → duty > tshark occ.
        let mut m = OccupancyMonitor::new(SimDuration::from_secs(1));
        m.track(StationId(1));
        m.record(SimTime::ZERO, StationId(1), 1536, Bitrate::G54);
        let occ = m.mean_tracked(SimTime::from_secs(1));
        let duty = m.mean_duty(SimTime::from_secs(1));
        assert!(duty > occ);
    }

    #[test]
    fn envelope_records_on_off() {
        let mut m = OccupancyMonitor::new(SimDuration::from_secs(1));
        m.track(StationId(1));
        m.enable_envelope();
        m.record(SimTime::from_micros(100), StationId(1), 1536, Bitrate::G54);
        let env = m.envelope().unwrap();
        assert_eq!(env.level_at(SimTime::from_micros(99)), 0.0);
        assert_eq!(env.level_at(SimTime::from_micros(200)), 1.0);
        assert_eq!(env.level_at(SimTime::from_micros(100 + 249)), 0.0);
    }

    #[test]
    fn envelope_merges_overlapping_frames() {
        let mut m = OccupancyMonitor::new(SimDuration::from_secs(1));
        m.track(StationId(1));
        m.enable_envelope();
        m.record(SimTime::ZERO, StationId(1), 1536, Bitrate::G54);
        // Second frame begins before the first ends (different channel case
        // folded onto one monitor in tests).
        m.record(SimTime::from_micros(100), StationId(1), 1536, Bitrate::G54);
        let env = m.envelope().unwrap();
        // Continuous busy from 0 to 348 µs.
        assert_eq!(env.level_at(SimTime::from_micros(250)), 1.0);
        assert_eq!(env.level_at(SimTime::from_micros(349)), 0.0);
    }

    #[test]
    fn series_pads_empty_bins() {
        let mut m = OccupancyMonitor::new(SimDuration::from_secs(1));
        m.track(StationId(1));
        m.record(SimTime::from_millis(2500), StationId(1), 1536, Bitrate::G54);
        let s = m.tracked_series(SimTime::from_secs(4));
        assert_eq!(s.len(), 4);
        assert_eq!(s[0], 0.0);
        assert!(s[2] > 0.0);
        assert_eq!(s[3], 0.0);
    }
}
