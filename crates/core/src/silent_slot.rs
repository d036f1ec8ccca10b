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
use crate::CoreEvent;
use powifi_mac::{enqueue, Frame, MacWorld, Queue, StationId};
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

/// Start a silent-slot injector on `iface`. Returns the shared control
/// block (same shape as the queue-threshold injector's, so cappers and
/// fleet controllers compose).
pub fn spawn_silent_injector<W>(
    q: &mut Queue<W>,
    iface: StationId,
    cfg: SilentSlotConfig,
    start: SimTime,
) -> InjectorHandle
where
    W: MacWorld,
    W::Ev: From<CoreEvent>,
{
    let ctl: InjectorHandle = Rc::new(RefCell::new(InjectorCtl::default()));
    q.post_at(
        start,
        CoreEvent::SilentTick {
            iface,
            cfg,
            ctl: ctl.clone(),
        }
        .into(),
    );
    ctl
}

pub(crate) fn silent_tick<W>(
    w: &mut W,
    q: &mut Queue<W>,
    iface: StationId,
    cfg: SilentSlotConfig,
    ctl: InjectorHandle,
) where
    W: MacWorld,
    W::Ev: From<CoreEvent>,
{
    let enabled = ctl.borrow().enabled;
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
                ctl.borrow_mut().sent += 1;
            }
        } else {
            ctl.borrow_mut().dropped += 1;
        }
    }
    q.post_in(cfg.poll, CoreEvent::SilentTick { iface, cfg, ctl }.into());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dispatch_core_stack, CoreStackEvent};
    use powifi_mac::{start_source, Mac, RateController, Source};
    use powifi_sim::{Dispatch, SimRng};

    struct W {
        mac: Mac,
    }
    impl Dispatch<CoreStackEvent> for W {
        fn dispatch(&mut self, q: &mut Queue<Self>, ev: CoreStackEvent) {
            dispatch_core_stack(self, q, ev);
        }
    }
    impl MacWorld for W {
        type Ev = CoreStackEvent;
        fn mac(&self) -> &Mac {
            &self.mac
        }
        fn mac_mut(&mut self) -> &mut Mac {
            &mut self.mac
        }
    }

    #[test]
    fn fills_idle_channel() {
        let mut w = W {
            mac: Mac::new(SimRng::from_seed(1)),
        };
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let iface = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        {
            let mon = w.mac.monitor_mut(m).monitor();
            mon.track(iface);
        }
        let mut q = Queue::<W>::new();
        spawn_silent_injector(&mut q, iface, SilentSlotConfig::default(), SimTime::ZERO);
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
        let mut w = W {
            mac: Mac::new(SimRng::from_seed(1)),
        };
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let iface = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let hog = w.mac.add_station(m, RateController::fixed(Bitrate::B1));
        let mut q = Queue::<W>::new();
        // Saturate the channel with 12.5 ms frames: idle windows stay far
        // below the guard.
        let src = Source {
            frame: Frame::power(hog, 1500, Bitrate::B1),
            period: SimDuration::from_millis(2),
            below: 3,
        };
        start_source(&mut w, &mut q, SimTime::ZERO, src);
        let ctl = spawn_silent_injector(&mut q, iface, SilentSlotConfig::default(), SimTime::ZERO);
        q.run_until(&mut w, SimTime::from_secs(2));
        let c = ctl.borrow();
        // A handful of frames may slip into inter-frame gaps, but the policy
        // essentially stands down.
        assert!(c.sent < 200, "sent {}", c.sent);
        assert!(c.dropped > 10_000, "dropped {}", c.dropped);
    }

    #[test]
    fn disable_stops_injection() {
        let mut w = W {
            mac: Mac::new(SimRng::from_seed(1)),
        };
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let iface = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let mut q = Queue::<W>::new();
        let ctl = spawn_silent_injector(&mut q, iface, SilentSlotConfig::default(), SimTime::ZERO);
        ctl.borrow_mut().enabled = false;
        q.run_until(&mut w, SimTime::from_secs(1));
        assert_eq!(ctl.borrow().sent, 0);
    }
}
