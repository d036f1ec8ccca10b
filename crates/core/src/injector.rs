//! The user-space power-packet injector.
//!
//! One injector per wireless interface sends `payload_bytes` UDP broadcast
//! datagrams through a [`PowerSocket`](crate::stack::PowerSocket) with a
//! constant inter-packet delay (plus OS jitter). Each datagram passes the
//! `IP_Power` check: if the interface's transmit queue is at/above the
//! threshold the datagram is dropped before it reaches the MAC (§3.2).

use crate::config::PowerTrafficConfig;
use crate::stack::{ip_power_check, IpPowerVerdict};
use crate::CoreEvent;
use powifi_mac::{enqueue, Frame, MacWorld, Queue, StationId};
use powifi_sim::{SimRng, SimTime};
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

/// Spawn-time state of one injector, carried inside its
/// [`CoreEvent::InjectorTick`] event: the traffic config, the injector's
/// private RNG stream, and the shared control block. Allocated once at
/// [`spawn_injector`]; every tick re-posts the same block.
pub struct InjectorSt {
    pub(crate) iface: StationId,
    pub(crate) cfg: PowerTrafficConfig,
    pub(crate) rng: SimRng,
    pub(crate) ctl: InjectorHandle,
}

/// Start an injector on `iface`, first tick at `start`. Returns the shared
/// control block.
pub fn spawn_injector<W>(
    q: &mut Queue<W>,
    iface: StationId,
    cfg: PowerTrafficConfig,
    rng: SimRng,
    start: SimTime,
) -> InjectorHandle
where
    W: MacWorld,
    W::Ev: From<CoreEvent>,
{
    let ctl: InjectorHandle = Rc::new(RefCell::new(InjectorCtl::default()));
    let st = Rc::new(RefCell::new(InjectorSt {
        iface,
        cfg,
        rng,
        ctl: ctl.clone(),
    }));
    q.post_at(start, CoreEvent::InjectorTick(st).into());
    ctl
}

#[expect(clippy::cast_possible_truncation, reason = "R5: u32 depth; rounded")]
pub(crate) fn injector_tick<W>(w: &mut W, q: &mut Queue<W>, st: Rc<RefCell<InjectorSt>>)
where
    W: MacWorld,
    W::Ev: From<CoreEvent>,
{
    let _prof = powifi_sim::obs::prof::span("core.injector.tick");
    // One borrow of the spawn-time state and one of the shared control block
    // for the whole tick. Nothing reached from here (enqueue → MAC, trace,
    // conformance) touches either RefCell, and holding them saves an Rc
    // clone plus several borrow round-trips on the hottest event in the
    // tier-1 scenarios.
    let delay = {
        let mut s = st.borrow_mut();
        let s = &mut *s;
        let iface = s.iface;
        let cfg = s.cfg;
        let mut c = s.ctl.borrow_mut();
        if c.enabled {
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
                IpPowerVerdict::Admit => {
                    let frame = Frame::power(iface, cfg.payload_bytes, cfg.bitrate);
                    if enqueue(w, q, iface, frame) {
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
                        // §3.2 contract: admission requires depth < threshold,
                        // so right after an admission depth ≤ threshold; more
                        // means the IP_Power check let traffic pile up behind
                        // the MAC's back.
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
                IpPowerVerdict::Drop => {
                    c.dropped += 1;
                }
            }
        }
        let base = cfg.inter_packet_delay.as_nanos() as f64 * c.delay_scale.max(0.01);
        drop(c);
        let jitter = cfg.jitter.sample(&mut s.rng);
        powifi_sim::SimDuration::from_nanos(base.round() as u64) + jitter
    };
    q.post_in(delay, CoreEvent::InjectorTick(st).into());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JitterModel;
    use crate::{dispatch_core_stack, CoreStackEvent};
    use powifi_mac::{Mac, RateController};
    use powifi_rf::Bitrate;
    use powifi_sim::{Dispatch, SimDuration, SimTime};

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

    fn setup() -> (W, Queue<W>, StationId) {
        let mut w = W {
            mac: Mac::new(SimRng::from_seed(1)),
        };
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
        spawn_injector(&mut q, sta, cfg(None), SimRng::from_seed(2), SimTime::ZERO);
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
