//! MAC-layer conformance audits.
//!
//! The inline checks in [`crate::world`] fire at protocol decision points
//! (arbitration, busy-period end, enqueue). This module adds the *global*
//! view: a periodic whole-world audit asserting airtime conservation —
//! cumulative per-channel busy time can never exceed wall time, and no
//! station's cumulative occupancy can exceed 1 — independently of how the
//! DCF arrived at its schedule.
//!
//! Occupancy is accounted at frame *start*, so a frame still in the air at
//! audit time has already contributed its full airtime. The audit therefore
//! compares against `max(now, busy_until)`, the instant the channel will
//! next be idle.

use crate::frame::{MediumId, StationId};
use crate::world::{MacEvent, MacWorld, Queue};
use powifi_sim::conformance;
use powifi_sim::{SimDuration, SimTime};

/// Tolerance for the occupancy bound: `src_totals` accumulates f64 seconds,
/// one rounding error per frame.
const OCC_EPS: f64 = 1e-9;

/// Install the periodic MAC audit: a self-re-posting
/// [`MacEvent::Audit`] first firing at `period`, then every `period`.
pub fn install_audit<W: MacWorld>(w: &mut W, q: &mut Queue<W>, period: SimDuration) {
    w.mac_mut().audit_period = Some(period);
    q.post_at(SimTime::ZERO + period, MacEvent::Audit.into());
}

/// One airtime-conservation pass over every channel and station at `now`
/// (also what each periodic audit runs). Returns the number of violations
/// it reported.
#[expect(clippy::cast_possible_truncation, reason = "R5: ids are u32")]
pub fn audit_now<W: MacWorld>(world: &W, now: SimTime) -> u64 {
    let before = conformance::violation_count();
    let mac = world.mac();
    for i in 0..mac.medium_count() {
        let m = MediumId(i as u32);
        // The channel is accountable up to the end of any in-flight busy
        // period, not just `now`.
        let horizon = now.max(mac.busy_until(m));
        let wall = horizon.duration_since(SimTime::ZERO);
        let busy = mac.busy_time(m);
        if busy > wall {
            conformance::report(
                "mac/airtime-conservation",
                now,
                format!("channel {i} busy {busy} exceeds wall time {wall}"),
            );
        }
        if horizon > SimTime::ZERO {
            for s in 0..mac.station_count() {
                let sta = StationId(s as u32);
                if mac.medium_of(sta) != m {
                    continue;
                }
                let occ = mac.monitor(m).mean_of_station(sta, horizon);
                if !(0.0..=1.0 + OCC_EPS).contains(&occ) {
                    conformance::report(
                        "mac/occupancy-bounds",
                        now,
                        format!("station {s} occupancy {occ} outside [0, 1]"),
                    );
                }
            }
        }
    }
    conformance::violation_count() - before
}

#[allow(missing_docs)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate_adapt::RateController;
    use crate::world::{enqueue, start_source, Mac, Source};
    use crate::Frame;
    use powifi_rf::Bitrate;
    use powifi_sim::SimRng;

    struct TestWorld {
        mac: Mac,
    }

    impl MacWorld for TestWorld {
        type Ev = crate::MacEvent;
        fn mac(&self) -> &Mac {
            &self.mac
        }
        fn mac_mut(&mut self) -> &mut Mac {
            &mut self.mac
        }
    }

    impl powifi_sim::Dispatch<crate::MacEvent> for TestWorld {
        fn dispatch(&mut self, q: &mut Queue<Self>, ev: crate::MacEvent) {
            crate::dispatch_mac(self, q, ev);
        }
    }

    /// Keep `sta` saturated with 1500-byte power frames.
    fn saturate(w: &mut TestWorld, q: &mut Queue<TestWorld>, sta: StationId) {
        let src = Source {
            frame: Frame::power(sta, 1500, Bitrate::G54),
            period: SimDuration::from_micros(100),
            below: 5,
        };
        start_source(w, q, SimTime::ZERO, src);
    }

    #[test]
    fn saturated_channel_audits_clean() {
        let _g = conformance::check();
        let mut w = TestWorld {
            mac: Mac::new(SimRng::from_seed(7)),
        };
        let mut q = Queue::<TestWorld>::new();
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let a = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let b = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        for sta in [a, b] {
            saturate(&mut w, &mut q, sta);
        }
        install_audit(&mut w, &mut q, SimDuration::from_millis(10));
        let end = SimTime::from_millis(500);
        q.run_until(&mut w, end);
        assert!(w.mac.busy_time(m) > SimDuration::from_millis(100));
        assert_eq!(audit_now(&w, end), 0);
        conformance::assert_clean("saturated_channel_audits_clean");
    }

    #[test]
    fn injected_timing_bug_trips_the_checker() {
        let _g = conformance::check();
        let mut w = TestWorld {
            mac: Mac::new(SimRng::from_seed(7)),
        };
        let mut q = Queue::<TestWorld>::new();
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let a = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        w.mac.inject_timing_bug(true);
        // Saturate: every post-transmission access that draws backoff 0
        // starts one slot into DIFS.
        saturate(&mut w, &mut q, a);
        install_audit(&mut w, &mut q, SimDuration::from_millis(10));
        q.run_until(&mut w, SimTime::from_millis(500));
        let (count, retained) = conformance::take();
        assert!(count > 0, "timing bug went undetected");
        assert!(
            retained.iter().any(|v| v.rule == "dcf/difs"),
            "{retained:?}"
        );
    }

    #[test]
    fn two_channels_audit_independently() {
        let _g = conformance::check();
        let mut w = TestWorld {
            mac: Mac::new(SimRng::from_seed(3)),
        };
        let mut q = Queue::<TestWorld>::new();
        let m1 = w.mac.add_medium(SimDuration::from_secs(1));
        let m2 = w.mac.add_medium(SimDuration::from_secs(1));
        let a = w.mac.add_station(m1, RateController::fixed(Bitrate::G54));
        let b = w.mac.add_station(m2, RateController::fixed(Bitrate::B11));
        for _ in 0..20 {
            enqueue(&mut w, &mut q, a, Frame::power(a, 1500, Bitrate::G54));
            enqueue(&mut w, &mut q, b, Frame::power(b, 1500, Bitrate::B11));
        }
        install_audit(&mut w, &mut q, SimDuration::from_millis(5));
        let end = SimTime::from_millis(200);
        q.run_until(&mut w, end);
        assert_eq!(w.mac.station(a).frames_sent, 20);
        assert_eq!(w.mac.station(b).frames_sent, 20);
        assert!(w.mac.busy_time(m2) > w.mac.busy_time(m1));
        conformance::assert_clean("two_channels_audit_independently");
    }
}
