//! Background (neighbor-network) traffic sources.
//!
//! Every experiment in §4 runs inside a busy office; the home deployments
//! are surrounded by 4–24 neighboring APs (Table 1). A background source is
//! an AP→client pair on one channel generating bursty unicast traffic as a
//! modulated on-off Poisson process; carrier sense makes PoWiFi's injectors
//! yield to it, which is exactly the mechanism behind Fig. 14's per-channel
//! variation.

use crate::world::{DeployEvent, SimWorld};
use powifi_mac::{enqueue, Dest, Frame, MediumId, PayloadTag, Queue, RateController, StationId};
use powifi_rf::Bitrate;
use powifi_sim::{SimDuration, SimRng, SimTime};
use std::rc::Rc;

/// A background AP→client pair.
#[derive(Debug, Clone, Copy)]
pub struct BackgroundConfig {
    /// Mean offered airtime fraction of the channel (0–1) at intensity 1.0.
    pub base_load: f64,
    /// Bit rate of the pair's data frames.
    pub bitrate: Bitrate,
    /// Mean ON burst length.
    pub on_mean: SimDuration,
    /// Mean OFF gap at intensity 1.0 (scaled up when intensity drops).
    pub off_mean: SimDuration,
}

impl BackgroundConfig {
    /// A typical office/home neighbor at the given mean load.
    pub fn neighbor(base_load: f64, bitrate: Bitrate) -> BackgroundConfig {
        BackgroundConfig {
            base_load,
            bitrate,
            on_mean: SimDuration::from_millis(100),
            off_mean: SimDuration::from_millis(100),
        }
    }
}

/// Time-varying intensity multiplier for a source (e.g. diurnal load).
pub type IntensityFn = Rc<dyn Fn(SimTime) -> f64>;

/// A constant intensity of 1.0.
pub fn constant_intensity() -> IntensityFn {
    Rc::new(|_| 1.0)
}

/// Per-tick state of one background source: its entry in
/// [`SimWorld::bursts`], which its [`DeployEvent::Burst`] indexes. Holds
/// the endpoints, traffic shape, intensity schedule and the source's
/// private RNG stream; filled once at [`install_traffic_source`].
pub struct BurstSt {
    pub(crate) src: StationId,
    pub(crate) dst: StationId,
    pub(crate) cfg: BackgroundConfig,
    pub(crate) intensity: IntensityFn,
    pub(crate) rng: SimRng,
    pub(crate) on_rate: f64,
}

/// Route a [`DeployEvent`] to its handler (called from the world's
/// [`powifi_sim::Dispatch`] impl, which inlines it: every background data
/// frame arrives through it).
#[inline]
pub(crate) fn dispatch_deploy(w: &mut SimWorld, q: &mut Queue<SimWorld>, ev: DeployEvent) {
    match ev {
        DeployEvent::Burst(id) => burst_fire(w, q, id),
        DeployEvent::BgFrame { src, frame } => {
            enqueue(w, q, src, frame);
        }
    }
}

/// Install a background pair on `medium`. Returns `(ap, client)` stations.
pub fn install_background(
    w: &mut SimWorld,
    q: &mut Queue<SimWorld>,
    medium: MediumId,
    cfg: BackgroundConfig,
    intensity: IntensityFn,
    rng: SimRng,
) -> (StationId, StationId) {
    let ap = w
        .mac
        .add_station(medium, RateController::fixed(cfg.bitrate));
    let client = w
        .mac
        .add_station(medium, RateController::fixed(cfg.bitrate));
    install_traffic_source(w, q, ap, client, cfg, intensity, rng);
    (ap, client)
}

/// Drive bursty unicast traffic from an *existing* station `src` to `dst`
/// (used for the home router's own client traffic, which counts toward its
/// measured occupancy in §6).
///
/// The source alternates ON bursts (Poisson frame arrivals dense enough to
/// reach `base_load / duty` instantaneous occupancy) and OFF gaps whose
/// length stretches as `intensity` falls, so mean offered load ≈
/// `base_load × intensity(t)`.
pub fn install_traffic_source(
    w: &mut SimWorld,
    q: &mut Queue<SimWorld>,
    src: StationId,
    dst: StationId,
    cfg: BackgroundConfig,
    intensity: IntensityFn,
    mut rng: SimRng,
) {
    // Duty of the ON state at intensity 1: on/(on+off).
    let duty = cfg.on_mean.as_secs_f64() / (cfg.on_mean + cfg.off_mean).as_secs_f64();
    let frame_airtime = powifi_mac::frame_airtime(1536, cfg.bitrate).as_secs_f64();
    // Arrival rate during ON bursts to hit base_load/duty occupancy.
    let on_rate = (cfg.base_load / duty / frame_airtime).max(0.1);
    let start = SimTime::from_nanos(rng.range(0..2_000_000u64));
    let id = w.bursts.len();
    w.bursts.push(BurstSt {
        src,
        dst,
        cfg,
        intensity,
        rng,
        on_rate,
    });
    q.post_at(start, DeployEvent::Burst(id).into());
}

/// One burst decision (routed here from [`dispatch_deploy`]): maybe emit a
/// Poisson ON burst of frame arrivals, then re-post after the OFF gap.
fn burst_fire(w: &mut SimWorld, q: &mut Queue<SimWorld>, id: usize) {
    let now = q.now();
    let s = &mut w.bursts[id];
    let scale = (s.intensity)(now).clamp(0.0, 1.0);
    if scale > 0.0 && s.rng.chance(scale.sqrt()) {
        // Emit one ON burst: Poisson arrivals over the burst window.
        let burst_len = s.rng.exp(s.cfg.on_mean.as_secs_f64());
        let mut t = 0.0;
        loop {
            t += s.rng.exp(1.0 / s.on_rate);
            if t >= burst_len {
                break;
            }
            let frame = Frame::data(
                s.src,
                Dest::Unicast(s.dst),
                PayloadTag {
                    flow: 0,
                    seq: 0,
                    bytes: 1500,
                },
            );
            q.post_in(
                SimDuration::from_secs_f64(t),
                DeployEvent::BgFrame { src: s.src, frame }.into(),
            );
        }
    }
    // Next burst after the OFF gap, stretched by inverse intensity.
    let gap =
        s.rng.exp(s.cfg.off_mean.as_secs_f64() / scale.max(0.05)) + s.cfg.on_mean.as_secs_f64();
    let next = now + SimDuration::from_secs_f64(gap);
    q.post_at(next, DeployEvent::Burst(id).into());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::three_channel_world;
    use powifi_mac::MacWorld;

    #[test]
    fn background_load_lands_near_target() {
        let (mut w, mut q, channels) = three_channel_world(1, SimDuration::from_secs(1));
        let m = channels[0].1;
        let rng = SimRng::from_seed(9);
        let (ap, _) = install_background(
            &mut w,
            &mut q,
            m,
            BackgroundConfig::neighbor(0.3, Bitrate::G24),
            constant_intensity(),
            rng.derive("bg"),
        );
        {
            let mon = w.mac.monitor_mut(m).monitor();
            mon.track(ap);
        }
        let end = SimTime::from_secs(20);
        q.run_until(&mut w, end);
        let occ = w.mac().monitor(m).mean_tracked(end);
        assert!((0.15..=0.45).contains(&occ), "occupancy {occ}");
    }

    #[test]
    fn zero_intensity_silences_the_source() {
        let (mut w, mut q, channels) = three_channel_world(1, SimDuration::from_secs(1));
        let m = channels[0].1;
        let rng = SimRng::from_seed(9);
        let (ap, _) = install_background(
            &mut w,
            &mut q,
            m,
            BackgroundConfig::neighbor(0.3, Bitrate::G24),
            Rc::new(|_| 0.0),
            rng.derive("bg"),
        );
        q.run_until(&mut w, SimTime::from_secs(10));
        assert_eq!(w.mac().station(ap).frames_sent, 0);
    }

    #[test]
    fn intensity_scales_load() {
        let occ_at = |intensity: f64| {
            let (mut w, mut q, channels) = three_channel_world(1, SimDuration::from_secs(1));
            let m = channels[0].1;
            let rng = SimRng::from_seed(9);
            let (ap, _) = install_background(
                &mut w,
                &mut q,
                m,
                BackgroundConfig::neighbor(0.4, Bitrate::G24),
                Rc::new(move |_| intensity),
                rng.derive("bg"),
            );
            {
                let mon = w.mac.monitor_mut(m).monitor();
                mon.track(ap);
            }
            let end = SimTime::from_secs(20);
            q.run_until(&mut w, end);
            w.mac().monitor(m).mean_tracked(end)
        };
        let high = occ_at(1.0);
        let low = occ_at(0.2);
        assert!(high > 2.0 * low, "high {high} low {low}");
    }
}
