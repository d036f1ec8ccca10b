//! The busy-office benchmark environment of §4: "multiple other clients and
//! routers operating on channels 1, 6, and 11".

use crate::background::{constant_intensity, install_background, BackgroundConfig};
use crate::world::{three_channel_world, SimWorld};
use powifi_core::{Router, RouterConfig, Scheme};
use powifi_mac::{MediumId, Queue, RateController, StationId};
use powifi_rf::{Bitrate, WifiChannel};
use powifi_sim::{SimDuration, SimRng};

/// Office environment parameters.
#[derive(Debug, Clone, Copy)]
pub struct OfficeConfig {
    /// Neighbor AP→client pairs per channel.
    pub neighbors_per_channel: usize,
    /// Total mean offered load from neighbors per channel (0–1 airtime).
    pub load_per_channel: f64,
    /// Occupancy-monitor bin width.
    pub monitor_bin: SimDuration,
}

impl Default for OfficeConfig {
    fn default() -> Self {
        OfficeConfig {
            neighbors_per_channel: 4,
            load_per_channel: 0.30,
            monitor_bin: SimDuration::from_secs(1),
        }
    }
}

/// A fully built office benchmark scenario.
pub struct OfficeScenario {
    /// The router under test.
    pub router: Router,
    /// The benchmark client (the Dell laptop, 7 ft away on channel 1).
    pub client: StationId,
    /// `(channel, medium)` pairs.
    pub channels: Vec<(WifiChannel, MediumId)>,
}

/// Build the §4.1 office: a router running `scheme`, one strong client on
/// channel 1, and background neighbors on all three channels.
pub fn build_office(
    seed: u64,
    scheme: Scheme,
    cfg: OfficeConfig,
) -> (SimWorld, Queue<SimWorld>, OfficeScenario) {
    let (mut w, mut q, channels) = three_channel_world(seed, cfg.monitor_bin);
    #[expect(clippy::disallowed_methods, reason = "R10: a run's root stream")]
    let rng = SimRng::from_seed(seed).derive("office");
    let router = Router::install(
        &mut w,
        &mut q,
        &channels,
        RouterConfig::with_scheme(scheme),
        &rng,
    );
    // The client: 7 ft from the router → very strong link; Minstrel-driven.
    let client = w
        .mac
        .add_station(channels[0].1, RateController::minstrel(Bitrate::G54));
    // Background neighbors, a mix of bit rates as in any real office.
    let rates = [Bitrate::G54, Bitrate::G24, Bitrate::G12];
    for (ci, &(_, medium)) in channels.iter().enumerate() {
        for n in 0..cfg.neighbors_per_channel {
            let share = cfg.load_per_channel / cfg.neighbors_per_channel as f64;
            let bg = BackgroundConfig::neighbor(share, rates[n % rates.len()]);
            install_background(
                &mut w,
                &mut q,
                medium,
                bg,
                constant_intensity(),
                rng.derive(&format!("bg-{ci}-{n}")),
            );
        }
    }
    (
        w,
        q,
        OfficeScenario {
            router,
            client,
            channels,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use powifi_mac::MacWorld;
    use powifi_sim::SimTime;

    #[test]
    fn powifi_office_hits_high_cumulative_occupancy() {
        // §4.1: "average cumulative occupancy of 95.4 % across the three
        // 2.4 GHz Wi-Fi channels" (UDP experiments: 97.6 %).
        let (mut w, mut q, s) = build_office(3, Scheme::PoWiFi, OfficeConfig::default());
        let end = SimTime::from_secs(8);
        q.run_until(&mut w, end);
        let (_, cum) = s.router.occupancy(&w.mac, end);
        assert!((0.85..=1.6).contains(&cum), "cumulative {cum}");
    }

    #[test]
    fn neighbors_depress_per_channel_occupancy() {
        let run = |neighbors| {
            let (mut w, mut q, s) = build_office(
                3,
                Scheme::PoWiFi,
                OfficeConfig {
                    neighbors_per_channel: neighbors,
                    load_per_channel: if neighbors == 0 { 0.0 } else { 0.45 },
                    ..OfficeConfig::default()
                },
            );
            let end = SimTime::from_secs(8);
            q.run_until(&mut w, end);
            s.router.occupancy(&w.mac, end).1
        };
        let idle = run(0);
        let busy = run(4);
        assert!(busy < idle, "busy {busy} idle {idle}");
    }

    #[test]
    fn client_station_lives_on_channel_one() {
        let (w, _q, s) = build_office(3, Scheme::Baseline, OfficeConfig::default());
        assert_eq!(w.mac().medium_of(s.client), s.channels[0].1);
        assert_eq!(s.channels[0].0, WifiChannel::CH1);
    }
}
