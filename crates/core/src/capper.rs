//! Occupancy-aware power-traffic scaling.
//!
//! §4 and §6 note that PoWiFi's cumulative occupancy can exceed 100 %, which
//! "might not be necessary for power delivery", and sketch — without
//! implementing — an algorithm that "would scale back the transmission rate
//! for power packets to ensure that the cumulative occupancy remains less
//! than 100 %". This module implements that future-work feature as a simple
//! multiplicative-increase/decrease controller on the injectors'
//! inter-packet delay.

use crate::injector::InjectorHandle;
use crate::router::Router;
use crate::{CoreEvent, PowerWorld};
use powifi_mac::{MediumId, Queue};
use powifi_sim::{SimDuration, SimTime};

/// Controller configuration.
#[derive(Debug, Clone, Copy)]
pub struct CapperConfig {
    /// Target cumulative occupancy (1.0 = 100 %).
    pub target: f64,
    /// Control interval.
    pub interval: SimDuration,
    /// Multiplicative backoff applied to the delay when over target.
    pub up: f64,
    /// Multiplicative recovery applied when under target.
    pub down: f64,
}

impl Default for CapperConfig {
    fn default() -> Self {
        CapperConfig {
            target: 1.0,
            interval: SimDuration::from_millis(500),
            up: 1.25,
            down: 0.9,
        }
    }
}

/// Per-tick state of one capper: its entry in the world's
/// [`PowerState`](crate::PowerState) capper table, which its
/// [`CoreEvent::CapperTick`] indexes. Holds the router's channels and
/// injectors, plus the previous step's cumulative on-air seconds, to
/// compute windowed occupancy.
pub(crate) struct CapperSt {
    cfg: CapperConfig,
    mediums: Vec<MediumId>,
    injectors: Vec<InjectorHandle>,
    prev_total: f64,
    prev_t: SimTime,
}

/// Spawn the capper controlling `router`'s injectors.
pub fn spawn_capper<W: PowerWorld>(
    w: &mut W,
    q: &mut Queue<W>,
    router: &Router,
    cfg: CapperConfig,
) {
    let st = CapperSt {
        cfg,
        mediums: router.ifaces.iter().map(|i| i.medium).collect(),
        injectors: router.injectors.clone(),
        prev_total: 0.0,
        prev_t: SimTime::ZERO,
    };
    let id = w.power().cappers.len();
    w.power_mut().cappers.push(st);
    q.post_at(
        SimTime::ZERO + cfg.interval,
        CoreEvent::CapperTick(id).into(),
    );
}

pub(crate) fn capper_tick<W: PowerWorld>(w: &mut W, q: &mut Queue<W>, id: usize) {
    let now = q.now();
    let total: f64 = w.power().cappers[id]
        .mediums
        .iter()
        .map(|&m| w.mac().monitor(m).mean_tracked(now) * now.as_secs_f64())
        .sum();
    let s = &mut w.power_mut().cappers[id];
    let window = now.duration_since(s.prev_t).as_secs_f64();
    if window > 0.0 {
        let occ = (total - s.prev_total) / window;
        for inj in &s.injectors {
            let mut c = inj.borrow_mut();
            if occ > s.cfg.target {
                c.delay_scale = (c.delay_scale * s.cfg.up).min(1000.0);
            } else {
                c.delay_scale = (c.delay_scale * s.cfg.down).max(1.0);
            }
        }
    }
    s.prev_total = total;
    s.prev_t = now;
    q.post_in(s.cfg.interval, CoreEvent::CapperTick(id).into());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{Router, RouterConfig};
    use crate::CoreStack;
    use powifi_mac::Mac;
    use powifi_rf::WifiChannel;
    use powifi_sim::SimRng;

    fn run_with_capper(target: Option<f64>) -> f64 {
        let mut w = CoreStack::new(Mac::new(SimRng::from_seed(1)));
        let channels: Vec<_> = WifiChannel::POWER_SET
            .iter()
            .map(|&ch| (ch, w.mac.add_medium(SimDuration::from_secs(1))))
            .collect();
        let mut q = Queue::<CoreStack>::new();
        let rng = SimRng::from_seed(5);
        let r = Router::install(&mut w, &mut q, &channels, RouterConfig::powifi(), &rng);
        if let Some(t) = target {
            spawn_capper(
                &mut w,
                &mut q,
                &r,
                CapperConfig {
                    target: t,
                    ..CapperConfig::default()
                },
            );
        }
        let end = SimTime::from_secs(10);
        q.run_until(&mut w, end);
        // Occupancy over the second half (post-convergence).
        let (_, cum_full) = r.occupancy(&w.mac, end);
        let _ = cum_full;
        let series = r.occupancy_series(&w.mac, end);
        let half = series[0].len() / 2;
        (0..3)
            .map(|ch| series[ch][half..].iter().sum::<f64>() / (series[ch].len() - half) as f64)
            .sum()
    }

    #[test]
    fn uncapped_router_exceeds_100_percent_on_idle_network() {
        let cum = run_with_capper(None);
        assert!(cum > 1.2, "cumulative {cum}");
    }

    #[test]
    fn capper_holds_cumulative_near_target() {
        let cum = run_with_capper(Some(0.95));
        assert!(cum < 1.1, "cumulative {cum}");
        // But it must not kill power delivery outright.
        assert!(cum > 0.6, "cumulative {cum}");
    }

    #[test]
    fn capper_is_inactive_below_target() {
        // Target far above achievable: delay scales stay at 1.0.
        let cum = run_with_capper(Some(5.0));
        assert!(cum > 1.2, "cumulative {cum}");
    }
}
