//! The user-space power-packet injector.
//!
//! One injector per wireless interface sends `payload_bytes` UDP broadcast
//! datagrams through a [`PowerSocket`](crate::stack::PowerSocket) with a
//! constant inter-packet delay (plus OS jitter). Each datagram passes the
//! `IP_Power` check: if the interface's transmit queue is at/above the
//! threshold the datagram is dropped before it reaches the MAC (§3.2).

use crate::config::PowerTrafficConfig;
use crate::stack::{ip_power_check, IpPowerVerdict};
use crate::{CoreEvent, PowerWorld};
use powifi_mac::{enqueue, Frame, Queue, StationId};
use powifi_sim::{SimDuration, SimRng, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared injector control/statistics block. The occupancy capper mutates
/// `delay_scale` and `enabled`; the injector reads them each tick.
#[derive(Debug)]
pub struct InjectorCtl {
    /// Datagrams admitted to the MAC queue.
    pub sent: u64,
    /// Datagrams dropped by the `IP_Power` check.
    pub dropped: u64,
    /// Datagrams rejected by a full MAC queue (should stay 0 with sane
    /// thresholds).
    pub queue_full: u64,
    /// Multiplier on the inter-packet delay (the capper's actuator).
    pub delay_scale: f64,
    /// Master enable (TDM multi-router mode toggles this).
    pub enabled: bool,
    /// Last `IP_Power` verdict, tracked only while tracing so gate
    /// open/close *transitions* can be emitted (observational only —
    /// nothing reads this back into the control loop).
    pub(crate) gate_open: Option<bool>,
}

impl Default for InjectorCtl {
    fn default() -> Self {
        InjectorCtl {
            sent: 0,
            dropped: 0,
            queue_full: 0,
            delay_scale: 1.0,
            enabled: true,
            gate_open: None,
        }
    }
}

impl InjectorCtl {
    /// Dump this injector's end-of-run totals into the thread's metrics
    /// registry ([`powifi_sim::obs::metrics`]): admitted and gated power
    /// packets. Called once at run boundaries.
    pub fn record_metrics(&self) {
        use powifi_sim::obs::metrics::{counter, keys};
        counter(keys::CORE_POWER_SENT).add(self.sent);
        counter(keys::CORE_POWER_GATED).add(self.dropped);
    }
}

/// Handle to a running injector.
pub type InjectorHandle = Rc<RefCell<InjectorCtl>>;

/// Set this thread's live injector gauges (`core.live.*`) to the current
/// cumulative totals summed across `injectors`. Idempotent under repeat
/// calls (gauge `set`, not counter `add`), so the streaming epoch driver
/// calls it once per epoch before snapshotting the registry.
pub fn record_injector_progress(injectors: &[InjectorHandle]) {
    use powifi_sim::obs::metrics::{gauge, keys};
    let (sent, gated) = injectors.iter().fold((0u64, 0u64), |(s, g), h| {
        let ctl = h.borrow();
        (s + ctl.sent, g + ctl.dropped)
    });
    gauge(keys::CORE_LIVE_POWER_SENT).set(sent as f64);
    gauge(keys::CORE_LIVE_POWER_GATED).set(gated as f64);
}

/// Per-tick state of one injector: its entry in the world's
/// [`PowerState`](crate::PowerState) injector table, which its
/// [`CoreEvent::InjectorTick`] indexes. Holds the traffic config, the
/// injector's private RNG stream and the shared control block; filled once
/// at [`spawn_injector`].
pub(crate) struct InjectorSt {
    pub(crate) iface: StationId,
    pub(crate) cfg: PowerTrafficConfig,
    pub(crate) rng: SimRng,
    pub(crate) ctl: InjectorHandle,
}

/// Start an injector on `iface`, first tick at `start`. Returns the shared
/// control block.
pub fn spawn_injector<W: PowerWorld>(
    w: &mut W,
    q: &mut Queue<W>,
    iface: StationId,
    cfg: PowerTrafficConfig,
    rng: SimRng,
    start: SimTime,
) -> InjectorHandle {
    let ctl: InjectorHandle = Rc::new(RefCell::new(InjectorCtl::default()));
    let st = InjectorSt {
        iface,
        cfg,
        rng,
        ctl: Rc::clone(&ctl),
    };
    let id = w.power().injectors.len();
    w.power_mut().injectors.push(st);
    q.post_at(start, CoreEvent::InjectorTick(id).into());
    ctl
}

/// One tick (routed here from [`crate::dispatch_core`]). Inlined into the
/// world's dispatch like `dispatch_core` itself: it is half of a home
/// day's events.
#[inline]
#[expect(clippy::cast_possible_truncation, reason = "R5: u32 depth; rounded")]
pub(crate) fn injector_tick<W: PowerWorld>(w: &mut W, q: &mut Queue<W>, id: usize) {
    let _prof = powifi_sim::obs::prof::span("core.injector.tick");
    let InjectorSt { iface, cfg, .. } = w.power().injectors[id];
    // The gate and the pacing scale under one borrow of the control block:
    // a gated tick (most of them) takes no other. Nothing the gate reaches
    // (MAC queue depth, trace) touches the block.
    let (admit, delay_scale) = {
        let mut c = w.power().injectors[id].ctl.borrow_mut();
        let admit = c.enabled && {
            let verdict = {
                let _prof = powifi_sim::obs::prof::span("core.injector.qdepth_poll");
                ip_power_check(w.mac(), iface, cfg.qdepth_threshold)
            };
            if powifi_sim::obs::trace::enabled() {
                let open = matches!(verdict, IpPowerVerdict::Admit);
                if c.gate_open != Some(open) {
                    c.gate_open = Some(open);
                    powifi_sim::obs::trace::emit(
                        q.now(),
                        powifi_sim::obs::trace::TraceEvent::InjectorGate {
                            iface: iface.0,
                            open,
                            qdepth: w.mac().queue_depth(iface) as u32,
                        },
                    );
                }
            }
            match verdict {
                IpPowerVerdict::Admit => true,
                IpPowerVerdict::Drop => {
                    c.dropped += 1;
                    false
                }
            }
        };
        (admit, c.delay_scale)
    };
    if admit {
        let frame = Frame::power(iface, cfg.payload_bytes, cfg.bitrate);
        let queued = enqueue(w, q, iface, frame);
        let mut c = w.power().injectors[id].ctl.borrow_mut();
        if queued {
            c.sent += 1;
            powifi_sim::obs::trace::emit(
                q.now(),
                powifi_sim::obs::trace::TraceEvent::PowerPacket {
                    iface: iface.0,
                    bytes: cfg.payload_bytes,
                },
            );
        } else {
            c.queue_full += 1;
        }
        if powifi_sim::conformance::enabled() {
            // §3.2 contract: admission requires depth < threshold, so right
            // after an admission depth ≤ threshold; more means the IP_Power
            // check let traffic pile up behind the MAC's back.
            if let Some(t) = cfg.qdepth_threshold {
                let depth = w.mac().queue_depth(iface);
                if depth > t {
                    powifi_sim::conformance::report(
                        "core/qdepth-threshold",
                        q.now(),
                        format!(
                            "iface {} queue depth {depth} after admit, threshold {t}",
                            iface.0
                        ),
                    );
                }
            }
        }
    }
    let base = cfg.inter_packet_delay.as_nanos() as f64 * delay_scale.max(0.01);
    let jitter = cfg.jitter.sample(&mut w.power_mut().injectors[id].rng);
    let delay = SimDuration::from_nanos(base.round() as u64) + jitter;
    q.post_in(delay, CoreEvent::InjectorTick(id).into());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JitterModel;
    use crate::CoreStack;
    use powifi_mac::{Mac, RateController};
    use powifi_rf::Bitrate;

    fn setup() -> (CoreStack, Queue<CoreStack>, StationId) {
        let mut w = CoreStack::new(Mac::new(SimRng::from_seed(1)));
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let sta = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        {
            let mon = w.mac.monitor_mut(m).monitor();
            mon.track(sta);
        }
        (w, Queue::new(), sta)
    }

    fn cfg(threshold: Option<usize>) -> PowerTrafficConfig {
        PowerTrafficConfig {
            payload_bytes: 1500,
            bitrate: Bitrate::G54,
            inter_packet_delay: SimDuration::from_micros(100),
            qdepth_threshold: threshold,
            jitter: JitterModel::none(),
        }
    }

    #[test]
    fn injector_reaches_high_solo_occupancy() {
        let (mut w, mut q, sta) = setup();
        spawn_injector(
            &mut w,
            &mut q,
            sta,
            cfg(Some(5)),
            SimRng::from_seed(2),
            SimTime::ZERO,
        );
        let end = SimTime::from_secs(2);
        q.run_until(&mut w, end);
        let m = w.mac.medium_of(sta);
        let occ = w.mac.monitor(m).mean_tracked(end);
        // Solo saturated 54 Mbps sender: tshark-metric occupancy ≈ 0.60–0.70
        // (DIFS + backoff + preamble overhead is excluded by the metric).
        assert!((0.55..=0.75).contains(&occ), "occupancy {occ}");
    }

    #[test]
    fn threshold_bounds_queue_depth() {
        let (mut w, mut q, sta) = setup();
        spawn_injector(
            &mut w,
            &mut q,
            sta,
            cfg(Some(5)),
            SimRng::from_seed(2),
            SimTime::ZERO,
        );
        // Sample the queue depth as the sim runs.
        for step in 1..200 {
            q.run_until(&mut w, SimTime::from_micros(step * 500));
            assert!(
                w.mac.queue_depth(sta) <= 5,
                "depth {}",
                w.mac.queue_depth(sta)
            );
        }
    }

    #[test]
    fn drops_are_reported_to_userspace() {
        let (mut w, mut q, sta) = setup();
        let ctl = spawn_injector(
            &mut w,
            &mut q,
            sta,
            cfg(Some(1)),
            SimRng::from_seed(2),
            SimTime::ZERO,
        );
        q.run_until(&mut w, SimTime::from_secs(1));
        let c = ctl.borrow();
        // With threshold 1 and a 100 µs sender vs ~340 µs service time, most
        // ticks find the queue non-empty and drop.
        assert!(c.dropped > c.sent, "sent {} dropped {}", c.sent, c.dropped);
        assert!(c.sent > 1000);
    }

    #[test]
    fn no_queue_mode_fills_queue() {
        let (mut w, mut q, sta) = setup();
        spawn_injector(
            &mut w,
            &mut q,
            sta,
            cfg(None),
            SimRng::from_seed(2),
            SimTime::ZERO,
        );
        q.run_until(&mut w, SimTime::from_secs(1));
        // Without the check the queue grows far past 5 (arrival every 100 µs,
        // service every ~340 µs).
        assert!(
            w.mac.queue_depth(sta) > 100,
            "depth {}",
            w.mac.queue_depth(sta)
        );
    }

    #[test]
    fn disabled_injector_sends_nothing() {
        let (mut w, mut q, sta) = setup();
        let ctl = spawn_injector(
            &mut w,
            &mut q,
            sta,
            cfg(Some(5)),
            SimRng::from_seed(2),
            SimTime::ZERO,
        );
        ctl.borrow_mut().enabled = false;
        q.run_until(&mut w, SimTime::from_secs(1));
        assert_eq!(ctl.borrow().sent, 0);
        assert_eq!(w.mac.station(sta).frames_sent, 0);
    }

    #[test]
    fn delay_scale_throttles_occupancy() {
        let (mut w, mut q, sta) = setup();
        let ctl = spawn_injector(
            &mut w,
            &mut q,
            sta,
            cfg(Some(5)),
            SimRng::from_seed(2),
            SimTime::ZERO,
        );
        ctl.borrow_mut().delay_scale = 10.0; // 1 ms inter-packet
        let end = SimTime::from_secs(2);
        q.run_until(&mut w, end);
        let m = w.mac.medium_of(sta);
        let occ = w.mac.monitor(m).mean_tracked(end);
        // ~228 µs of airtime every ~1 ms → ≈ 0.23.
        assert!((0.15..=0.30).contains(&occ), "occupancy {occ}");
    }
}
