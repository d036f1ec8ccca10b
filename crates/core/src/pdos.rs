//! Power denial-of-service (§8d).
//!
//! A rogue device can starve PoWiFi's harvesters without jamming: it only
//! needs to generate signals that trigger carrier sense at the router, so
//! the router's own power traffic backs off. We model the attacker as an
//! ordinary (protocol-compliant or greedy) station blasting junk broadcast
//! frames; the ablation bench measures delivered power vs attack intensity.

use crate::{CoreEvent, PowerWorld};
use powifi_mac::{enqueue, Frame, MediumId, Queue, RateController, StationId};
use powifi_rf::Bitrate;
use powifi_sim::{SimDuration, SimTime};

/// Attack configuration.
#[derive(Debug, Clone, Copy)]
pub struct AttackConfig {
    /// Junk frame payload size.
    pub payload_bytes: u32,
    /// Bit rate — low rates hold the channel longest per frame (the
    /// nastiest compliant attack).
    pub bitrate: Bitrate,
    /// Interval between injection attempts.
    pub period: SimDuration,
    /// Keep this many frames queued.
    pub queue_target: usize,
}

impl AttackConfig {
    /// A saturating 1 Mbps broadcast attacker — maximal airtime per frame
    /// while staying 802.11-compliant.
    pub fn saturating_low_rate() -> AttackConfig {
        AttackConfig {
            payload_bytes: 1500,
            bitrate: Bitrate::B1,
            period: SimDuration::from_millis(2),
            queue_target: 5,
        }
    }

    /// A duty-cycled attacker achieving a fraction of the saturating load.
    pub fn duty_cycled(period: SimDuration) -> AttackConfig {
        AttackConfig {
            period,
            ..AttackConfig::saturating_low_rate()
        }
    }
}

/// Spawn an attacker station on `medium`. Returns its station id.
pub fn spawn_attacker<W: PowerWorld>(
    w: &mut W,
    q: &mut Queue<W>,
    medium: MediumId,
    cfg: AttackConfig,
) -> StationId {
    let sta = w
        .mac_mut()
        .add_station(medium, RateController::fixed(cfg.bitrate));
    q.post_at(SimTime::ZERO, CoreEvent::AttackTick { sta, cfg }.into());
    sta
}

/// One injection attempt (routed here from [`crate::dispatch_core`]): top
/// the attacker's queue up to its target, then re-post.
pub(crate) fn attack_tick<W: PowerWorld>(
    w: &mut W,
    q: &mut Queue<W>,
    sta: StationId,
    cfg: AttackConfig,
) {
    if w.mac().queue_depth(sta) < cfg.queue_target {
        let f = Frame::power(sta, cfg.payload_bytes, cfg.bitrate);
        enqueue(w, q, sta, f);
    }
    q.post_in(cfg.period, CoreEvent::AttackTick { sta, cfg }.into());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{Router, RouterConfig};
    use crate::CoreStack;
    use powifi_mac::Mac;
    use powifi_rf::WifiChannel;
    use powifi_sim::SimRng;

    fn router_occupancy_under_attack(attack: Option<AttackConfig>) -> f64 {
        let mut w = CoreStack::new(Mac::new(SimRng::from_seed(4)));
        let channels: Vec<_> = WifiChannel::POWER_SET
            .iter()
            .map(|&ch| (ch, w.mac.add_medium(SimDuration::from_secs(1))))
            .collect();
        let mut q = Queue::<CoreStack>::new();
        let rng = SimRng::from_seed(5);
        let r = Router::install(&mut w, &mut q, &channels, RouterConfig::powifi(), &rng);
        if let Some(a) = attack {
            for &(_, m) in &channels {
                spawn_attacker(&mut w, &mut q, m, a);
            }
        }
        let end = SimTime::from_secs(3);
        q.run_until(&mut w, end);
        r.occupancy(&w.mac, end).1
    }

    #[test]
    fn saturating_attacker_starves_power_delivery() {
        let clean = router_occupancy_under_attack(None);
        let attacked = router_occupancy_under_attack(Some(AttackConfig::saturating_low_rate()));
        // A 1 Mbps saturating attacker holds each channel >90 % of the time,
        // so the router's own occupancy collapses.
        assert!(attacked < 0.25 * clean, "clean {clean} attacked {attacked}");
    }

    #[test]
    fn weak_attacker_only_dents_occupancy() {
        let clean = router_occupancy_under_attack(None);
        let attacked = router_occupancy_under_attack(Some(AttackConfig::duty_cycled(
            SimDuration::from_millis(200),
        )));
        assert!(attacked > 0.5 * clean, "clean {clean} attacked {attacked}");
        assert!(attacked < clean, "attack had no effect at all");
    }
}
