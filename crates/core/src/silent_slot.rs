//! Silent-slot power injection — the §8b idea, policy form.
//!
//! §8b suggests using the router's antennas "for PoWiFi during the silent
//! durations". Where the paper's main design pressurizes the queue and lets
//! DCF arbitrate, this alternative transmits a power packet only after the
//! channel has been *observed idle* for a guard window and the interface
//! queue is empty — maximally polite, at some occupancy cost. The
//! `abl_silent_slot` bench quantifies the trade against the queue-threshold
//! design.

use crate::injector::{InjectorCtl, InjectorHandle};
use crate::{CoreEvent, PowerWorld};
use powifi_mac::{enqueue, Frame, Queue, StationId};
use powifi_rf::Bitrate;
use powifi_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Silent-slot policy parameters.
#[derive(Debug, Clone, Copy)]
pub struct SilentSlotConfig {
    /// The channel must have been idle at least this long.
    pub idle_guard: SimDuration,
    /// Polling cadence of the policy.
    pub poll: SimDuration,
    /// Power-packet payload size.
    pub payload_bytes: u32,
    /// Power-packet bit rate.
    pub bitrate: Bitrate,
}

impl Default for SilentSlotConfig {
    fn default() -> Self {
        SilentSlotConfig {
            idle_guard: SimDuration::from_micros(150),
            poll: SimDuration::from_micros(100),
            payload_bytes: 1500,
            bitrate: Bitrate::G54,
        }
    }
}

/// Per-tick state of one silent-slot policy: its entry in the world's
/// [`PowerState`](crate::PowerState) silent-slot table, which its
/// [`CoreEvent::SilentTick`] indexes.
pub(crate) struct SilentSt {
    iface: StationId,
    cfg: SilentSlotConfig,
    ctl: InjectorHandle,
}

/// Start a silent-slot injector on `iface`. Returns the shared control
/// block (same shape as the queue-threshold injector's, so cappers and
/// fleet controllers compose).
pub fn spawn_silent_injector<W: PowerWorld>(
    w: &mut W,
    q: &mut Queue<W>,
    iface: StationId,
    cfg: SilentSlotConfig,
    start: SimTime,
) -> InjectorHandle {
    let ctl: InjectorHandle = Rc::new(RefCell::new(InjectorCtl::default()));
    let st = SilentSt {
        iface,
        cfg,
        ctl: Rc::clone(&ctl),
    };
    let id = w.power().silent.len();
    w.power_mut().silent.push(st);
    q.post_at(start, CoreEvent::SilentTick(id).into());
    ctl
}

pub(crate) fn silent_tick<W: PowerWorld>(w: &mut W, q: &mut Queue<W>, id: usize) {
    let SilentSt { iface, cfg, .. } = w.power().silent[id];
    let enabled = w.power().silent[id].ctl.borrow().enabled;
    if enabled {
        let now = q.now();
        let medium = w.mac().medium_of(iface);
        let idle_long_enough = w
            .mac()
            .idle_for(medium, now)
            .is_some_and(|d| d >= cfg.idle_guard);
        // Only into silence, and only one frame at a time.
        if idle_long_enough && w.mac().queue_depth(iface) == 0 {
            let frame = Frame::power(iface, cfg.payload_bytes, cfg.bitrate);
            if enqueue(w, q, iface, frame) {
                w.power().silent[id].ctl.borrow_mut().sent += 1;
            }
        } else {
            w.power().silent[id].ctl.borrow_mut().dropped += 1;
        }
    }
    q.post_in(cfg.poll, CoreEvent::SilentTick(id).into());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreStack;
    use powifi_mac::{start_source, Mac, RateController, Source};
    use powifi_sim::SimRng;

    #[test]
    fn fills_idle_channel() {
        let mut w = CoreStack::new(Mac::new(SimRng::from_seed(1)));
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let iface = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        {
            let mon = w.mac.monitor_mut(m).monitor();
            mon.track(iface);
        }
        let mut q = Queue::<CoreStack>::new();
        spawn_silent_injector(
            &mut w,
            &mut q,
            iface,
            SilentSlotConfig::default(),
            SimTime::ZERO,
        );
        let end = SimTime::from_secs(2);
        q.run_until(&mut w, end);
        let occ = w.mac.monitor(m).mean_tracked(end);
        // One frame at a time with a 150 µs guard: cycle ≈ guard(150, part
        // of which overlaps DIFS+backoff) + airtime(248) + poll quantization
        // → ~0.45-0.55 tshark occupancy.
        assert!((0.35..=0.65).contains(&occ), "occupancy {occ}");
    }

    #[test]
    fn defers_entirely_to_a_busy_channel() {
        let mut w = CoreStack::new(Mac::new(SimRng::from_seed(1)));
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let iface = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let hog = w.mac.add_station(m, RateController::fixed(Bitrate::B1));
        let mut q = Queue::<CoreStack>::new();
        // Saturate the channel with 12.5 ms frames: idle windows stay far
        // below the guard.
        let src = Source {
            frame: Frame::power(hog, 1500, Bitrate::B1),
            period: SimDuration::from_millis(2),
            below: 3,
        };
        start_source(&mut w, &mut q, SimTime::ZERO, src);
        let ctl = spawn_silent_injector(
            &mut w,
            &mut q,
            iface,
            SilentSlotConfig::default(),
            SimTime::ZERO,
        );
        q.run_until(&mut w, SimTime::from_secs(2));
        let c = ctl.borrow();
        // A handful of frames may slip into inter-frame gaps, but the policy
        // essentially stands down.
        assert!(c.sent < 200, "sent {}", c.sent);
        assert!(c.dropped > 10_000, "dropped {}", c.dropped);
    }

    #[test]
    fn disable_stops_injection() {
        let mut w = CoreStack::new(Mac::new(SimRng::from_seed(1)));
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let iface = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let mut q = Queue::<CoreStack>::new();
        let ctl = spawn_silent_injector(
            &mut w,
            &mut q,
            iface,
            SilentSlotConfig::default(),
            SimTime::ZERO,
        );
        ctl.borrow_mut().enabled = false;
        q.run_until(&mut w, SimTime::from_secs(1));
        assert_eq!(ctl.borrow().sent, 0);
    }
}
