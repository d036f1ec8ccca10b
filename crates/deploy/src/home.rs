//! The six-home deployment study (§6, Table 1, Figs. 14–15).
//!
//! Each home replaces its router with a PoWiFi router serving clients on
//! channel 1 and injecting power traffic on 1/6/11 for 24 hours. Neighbor
//! APs (4–24 per home) and the home's own devices load the channels with
//! diurnally modulated traffic; carrier sense makes the router's per-channel
//! occupancy anti-correlate with neighbor load while the cumulative stays
//! high — the headline result of Fig. 14.
//!
//! A faithful 24 h event simulation is supported, and a *time-compressed*
//! mode maps the diurnal cycle onto a shorter simulated span (each "60 s"
//! occupancy bin shrinks proportionally), preserving the load pattern while
//! keeping full-workspace test times sane.

use crate::background::{
    install_background, install_traffic_source, BackgroundConfig, IntensityFn,
};
use crate::diurnal::diurnal_intensity;
use crate::world::{three_channel_world, SimWorld};
use powifi_core::{Router, RouterConfig};
use powifi_mac::{MediumId, Queue, RateController, StationId};
use powifi_rf::{Bitrate, WifiChannel};
use powifi_sim::{SimDuration, SimRng, SimTime};
use std::rc::Rc;

/// One row of Table 1.
#[derive(Debug, Clone, Copy)]
pub struct HomeConfig {
    /// Home number (1–6).
    pub id: usize,
    /// Occupants.
    pub users: u32,
    /// Wi-Fi devices in the home.
    pub devices: u32,
    /// Neighboring 2.4 GHz APs in range.
    pub neighbor_aps: u32,
    /// Local hour at which the 24 h deployment started (Fig. 14 x-axes).
    pub start_hour: f64,
}

/// Table 1 of the paper, with start hours read off Fig. 14's axes.
pub fn table1() -> [HomeConfig; 6] {
    [
        HomeConfig {
            id: 1,
            users: 2,
            devices: 6,
            neighbor_aps: 17,
            start_hour: 20.0,
        },
        HomeConfig {
            id: 2,
            users: 1,
            devices: 1,
            neighbor_aps: 4,
            start_hour: 16.0,
        },
        HomeConfig {
            id: 3,
            users: 3,
            devices: 6,
            neighbor_aps: 10,
            start_hour: 16.0,
        },
        HomeConfig {
            id: 4,
            users: 2,
            devices: 4,
            neighbor_aps: 15,
            start_hour: 20.0,
        },
        HomeConfig {
            id: 5,
            users: 1,
            devices: 2,
            neighbor_aps: 24,
            start_hour: 0.0,
        },
        HomeConfig {
            id: 6,
            users: 3,
            devices: 6,
            neighbor_aps: 16,
            start_hour: 20.0,
        },
    ]
}

/// A built home scenario.
pub struct HomeDeployment {
    /// The PoWiFi router.
    pub router: Router,
    /// `(channel, medium)` pairs.
    pub channels: Vec<(WifiChannel, MediumId)>,
    /// The home's client devices (on channel 1).
    pub devices: Vec<StationId>,
    /// Simulated seconds representing the full 24 h.
    pub sim_seconds_per_day: u64,
    /// The local hour at t = 0.
    pub start_hour: f64,
}

impl HomeDeployment {
    /// Map a simulation time to local hour-of-day.
    pub fn hour_at(&self, t: SimTime) -> f64 {
        (self.start_hour + t.as_secs_f64() / self.sim_seconds_per_day as f64 * 24.0) % 24.0
    }

    /// The monitor bin corresponding to the paper's 60 s logging interval
    /// under the configured time compression.
    pub fn bin(&self) -> SimDuration {
        SimDuration::from_nanos(self.sim_seconds_per_day * 1_000_000_000 / 1440)
    }
}

/// Build a home. `sim_seconds_per_day` compresses the 24 h diurnal cycle
/// (86 400 = real time; 1 440 = one simulated second per minute-bin).
pub fn build_home(
    cfg: HomeConfig,
    seed: u64,
    sim_seconds_per_day: u64,
) -> (SimWorld, Queue<SimWorld>, HomeDeployment) {
    assert!(
        sim_seconds_per_day >= 1440,
        "need at least 1 s per 60 s bin"
    );
    let bin = SimDuration::from_nanos(sim_seconds_per_day * 1_000_000_000 / 1440);
    let (mut w, mut q, channels) = three_channel_world(seed.wrapping_add(cfg.id as u64), bin);
    #[expect(clippy::disallowed_methods, reason = "R10: a run's root stream")]
    let rng = SimRng::from_seed(seed).derive_idx("home", cfg.id);
    let router = Router::install(&mut w, &mut q, &channels, RouterConfig::powifi(), &rng);

    let start_hour = cfg.start_hour;
    let spd = sim_seconds_per_day as f64;
    let hour_of = move |t: SimTime| (start_hour + t.as_secs_f64() / spd * 24.0) % 24.0;

    // The home's own devices: unicast downlink from the router's channel-1
    // interface, diurnally modulated, heavier with more users.
    let mut devices = Vec::new();
    let ch1 = channels[0].1;
    let router_sta = router.client_iface().sta;
    let dev_rng = rng.derive("devices");
    for d in 0..cfg.devices {
        let sta = w
            .mac
            .add_station(ch1, RateController::minstrel(Bitrate::G54));
        devices.push(sta);
        // Per-device load share; heavier homes stream more.
        let base = 0.03 + 0.05 * cfg.users as f64 / cfg.devices.max(1) as f64;
        let jitterless: IntensityFn = Rc::new(move |t| diurnal_intensity(hour_of(t)));
        install_traffic_source(
            &mut w,
            &mut q,
            router_sta,
            sta,
            BackgroundConfig::neighbor(base, Bitrate::G54),
            jitterless,
            dev_rng.derive_idx("dev", d as usize),
        );
    }

    // Neighbor APs: round-robin across the three channels, each with its
    // own base load and diurnal phase offset (neighbors keep different
    // schedules).
    let mut n_rng = rng.derive("neighbors");
    let rates = [Bitrate::G54, Bitrate::G24, Bitrate::G12, Bitrate::G36];
    for n in 0..cfg.neighbor_aps {
        let medium = channels[(n as usize) % 3].1;
        let base = n_rng.range(0.03..0.20);
        let phase: f64 = n_rng.range(-3.0..3.0);
        let rate = *n_rng.choose(&rates);
        let intensity: IntensityFn = Rc::new(move |t| diurnal_intensity(hour_of(t) + phase));
        install_background(
            &mut w,
            &mut q,
            medium,
            BackgroundConfig::neighbor(base, rate),
            intensity,
            n_rng.derive_idx("ap", n as usize),
        );
    }

    (
        w,
        q,
        HomeDeployment {
            router,
            channels,
            devices,
            sim_seconds_per_day,
            start_hour: cfg.start_hour,
        },
    )
}

/// Result of a 24 h home run.
pub struct HomeRun {
    /// The home configuration.
    pub config: HomeConfig,
    /// Per-channel occupancy, one value per 60 s-equivalent bin.
    pub per_channel: Vec<Vec<f64>>,
    /// Cumulative occupancy per bin.
    pub cumulative: Vec<f64>,
    /// Per-channel physical RF duty factor per bin (feeds the harvester).
    pub duty: Vec<Vec<f64>>,
    /// Mean cumulative occupancy over the day.
    pub mean_cumulative: f64,
    /// Hour-of-day for each bin.
    pub hours: Vec<f64>,
}

/// Run one home for a full (possibly compressed) day.
pub fn run_home(cfg: HomeConfig, seed: u64, sim_seconds_per_day: u64) -> HomeRun {
    let (mut w, mut q, home) = build_home(cfg, seed, sim_seconds_per_day);
    let end = SimTime::from_secs(sim_seconds_per_day);
    q.run_until(&mut w, end);
    let per_channel = home.router.occupancy_series(&w.mac, end);
    let duty = home.router.duty_series(&w.mac, end);
    let bins = per_channel[0].len();
    let cumulative: Vec<f64> = (0..bins)
        .map(|b| per_channel.iter().map(|c| c[b]).sum())
        .collect();
    let mean_cumulative = cumulative.iter().sum::<f64>() / bins as f64;
    w.mac.record_metrics();
    powifi_sim::obs::metrics::gauge(powifi_sim::obs::metrics::keys::MAC_OCCUPANCY)
        .set(mean_cumulative);
    for inj in &home.router.injectors {
        inj.borrow().record_metrics();
    }
    let hours = (0..bins)
        .map(|b| {
            home.hour_at(SimTime::from_nanos(
                (b as u64) * home.bin().as_nanos() + home.bin().as_nanos() / 2,
            ))
        })
        .collect();
    HomeRun {
        config: cfg,
        per_channel,
        cumulative,
        duty,
        mean_cumulative,
        hours,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let t = table1();
        assert_eq!(t.len(), 6);
        assert_eq!((t[0].users, t[0].devices, t[0].neighbor_aps), (2, 6, 17));
        assert_eq!((t[1].users, t[1].devices, t[1].neighbor_aps), (1, 1, 4));
        assert_eq!((t[4].users, t[4].devices, t[4].neighbor_aps), (1, 2, 24));
    }

    #[test]
    fn compressed_home_run_has_1440_bins_and_high_cumulative() {
        // 1440 sim-seconds = 1 s per 60 s bin: fast enough for tests.
        let run = run_home(table1()[1], 42, 1440);
        assert_eq!(run.per_channel.len(), 3);
        assert_eq!(run.cumulative.len(), 1440);
        // §6: mean cumulative occupancies 78–127 %.
        assert!(
            (0.7..=2.2).contains(&run.mean_cumulative),
            "mean cumulative {}",
            run.mean_cumulative
        );
    }

    #[test]
    fn busy_home_has_lower_router_occupancy_than_quiet_home() {
        // Home 5 has 24 neighbor APs; home 2 has 4. Carrier sense must
        // push the router's occupancy down in the busy home.
        let quiet = run_home(table1()[1], 42, 1440);
        let busy = run_home(table1()[4], 42, 1440);
        assert!(
            busy.mean_cumulative < quiet.mean_cumulative,
            "busy {} quiet {}",
            busy.mean_cumulative,
            quiet.mean_cumulative
        );
    }

    #[test]
    fn hours_wrap_from_start_hour() {
        let run = run_home(table1()[0], 42, 1440);
        assert!(
            (run.hours[0] - 20.0).abs() < 0.1,
            "first hour {}",
            run.hours[0]
        );
        // Half the day later: 20 + 12 = 8.
        assert!(
            (run.hours[720] - 8.0).abs() < 0.1,
            "mid hour {}",
            run.hours[720]
        );
    }

    #[test]
    fn duty_series_is_populated() {
        let run = run_home(table1()[2], 7, 1440);
        let mean_duty: f64 = run.duty.iter().flat_map(|c| c.iter()).sum::<f64>() / (3.0 * 1440.0);
        assert!(mean_duty > 0.1, "mean duty {mean_duty}");
    }
}
