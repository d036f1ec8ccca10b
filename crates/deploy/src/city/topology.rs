//! Seeded city topologies: network placement, channels and traffic.
//!
//! Generators are pure functions of `(parameters, seed)`: every position,
//! channel assignment and traffic parameter is drawn from a labeled
//! [`SimRng`] stream at generation time, so worlds built later never touch
//! an RNG whose draw order could depend on execution layout.

use crate::diurnal::diurnal_intensity;
use crate::geometry::Pos;
use powifi_rf::budget::InteractionModel;
use powifi_rf::pathloss::LogDistance;
use powifi_rf::{Bitrate, WifiChannel};
use powifi_sim::{SimDuration, SimRng};

/// One Wi-Fi network: a router at a position, on a channel, with a traffic
/// profile and one harvesting sensor placed relative to the router.
#[derive(Debug, Clone)]
pub struct Network {
    /// Router position (meters).
    pub pos: Pos,
    /// The network's channel.
    pub channel: WifiChannel,
    /// Offset of the first beacon inside the 102.4 ms beacon interval.
    pub beacon_phase: SimDuration,
    /// Rate beacons are sent at.
    pub beacon_rate: Bitrate,
    /// Cadence of broadcast power/data bursts; `ZERO` disables bursts.
    pub burst_period: SimDuration,
    /// UDP payload bytes per burst frame.
    pub burst_bytes: u32,
    /// Rate bursts are sent at.
    pub burst_rate: Bitrate,
    /// SNR of the router→client link bursts ride on, dB (bursty networks
    /// get a client station; imported co-channel corruption shows up as
    /// retransmissions on this link).
    pub client_snr_db: f64,
    /// Distance of the network's harvesting sensor from its router, feet.
    pub sensor_ft: f64,
}

/// A generated city: the networks plus the coupling model and run horizon
/// the partitioner and runtime use.
#[derive(Debug, Clone)]
pub struct CityTopology {
    /// All networks, indexed by global network id.
    pub networks: Vec<Network>,
    /// Worst-case pairwise coupling model for the partition proof.
    pub model: InteractionModel<LogDistance>,
    /// Simulated duration.
    pub horizon: SimDuration,
    /// Epoch length for the boundary-exchange barriers.
    pub epoch: SimDuration,
}

/// The 802.11 beacon interval (102.4 ms).
pub const BEACON_INTERVAL: SimDuration = SimDuration::from_micros(102_400);

/// Draw the traffic profile shared by all generators: a beacon phase, and
/// for `burst_frac` of networks a periodic broadcast burst.
fn draw_traffic(rng: &mut SimRng, burst_frac: f64) -> (SimDuration, SimDuration, u32, Bitrate) {
    let phase = SimDuration::from_micros(rng.range(0..102_400u64));
    if rng.chance(burst_frac) {
        let period = SimDuration::from_micros(rng.range(4_000..=20_000u64));
        let bytes = rng.range(200..=1400u32);
        let rate = *rng.choose(&[Bitrate::G6, Bitrate::G12, Bitrate::G24, Bitrate::G54]);
        (phase, period, bytes, rate)
    } else {
        (phase, SimDuration::ZERO, 0, Bitrate::G6)
    }
}

fn network_at(rng: &mut SimRng, pos: Pos, burst_frac: f64) -> Network {
    let channel = *rng.choose(&WifiChannel::POWER_SET);
    let (beacon_phase, burst_period, burst_bytes, burst_rate) = draw_traffic(rng, burst_frac);
    let client_snr_db = if burst_period > SimDuration::ZERO {
        // Near the decode margin of the drawn rate, so imported corruption
        // and in-group contention visibly move the retry rate.
        burst_rate.required_snr().0 + 2.0 + rng.f64() * 6.0
    } else {
        0.0
    };
    Network {
        pos,
        channel,
        beacon_phase,
        beacon_rate: Bitrate::G6,
        burst_period,
        burst_bytes,
        burst_rate,
        client_snr_db,
        sensor_ft: 3.0 + rng.f64() * 17.0,
    }
}

/// An apartment block: `n` units on a square grid with ~10 m pitch, each
/// router jittered inside its unit. Dense co-channel interference — most
/// units hear dozens of neighbors.
pub fn apartment_block(n: usize, seed: u64) -> CityTopology {
    #[expect(clippy::disallowed_methods, reason = "R10: a run's root stream")]
    let mut rng = SimRng::from_seed(seed).derive("city-gen-block");
    let mut side = 1usize;
    while side * side < n {
        side += 1;
    }
    let pitch = 10.0; // meters between unit centers
    let mut networks = Vec::with_capacity(n);
    for i in 0..n {
        let (row, col) = (i / side, i % side);
        let jitter = 3.0;
        let pos = Pos::new(
            col as f64 * pitch + (rng.f64() - 0.5) * jitter,
            row as f64 * pitch + (rng.f64() - 0.5) * jitter,
        );
        networks.push(network_at(&mut rng, pos, 0.35));
    }
    CityTopology {
        networks,
        model: InteractionModel::city_default(),
        horizon: SimDuration::from_millis(400),
        epoch: SimDuration::from_millis(50),
    }
}

/// A campus: clusters ("buildings") scattered on a quad, far enough apart
/// that many building pairs are provably independent — the partitioner's
/// best case.
pub fn campus(n: usize, seed: u64) -> CityTopology {
    #[expect(clippy::disallowed_methods, reason = "R10: a run's root stream")]
    let mut rng = SimRng::from_seed(seed).derive("city-gen-campus");
    let buildings = (n / 40).max(1);
    let quad = (buildings as f64).sqrt() * 220.0; // meters; > interaction range apart
    let centers: Vec<Pos> = (0..buildings)
        .map(|_| Pos::new(rng.f64() * quad, rng.f64() * quad))
        .collect();
    let mut networks = Vec::with_capacity(n);
    for i in 0..n {
        let c = centers[i % buildings];
        let pos = Pos::new(
            c.x + (rng.f64() - 0.5) * 40.0,
            c.y + (rng.f64() - 0.5) * 40.0,
        );
        networks.push(network_at(&mut rng, pos, 0.5));
    }
    CityTopology {
        networks,
        model: InteractionModel::city_default(),
        horizon: SimDuration::from_millis(400),
        epoch: SimDuration::from_millis(50),
    }
}

/// A diurnal city: apartment-block geometry at a looser 14 m pitch whose
/// burst activity follows the §6 diurnal neighbor-load curve for `hour`.
pub fn diurnal_city(n: usize, hour: u32, seed: u64) -> CityTopology {
    #[expect(clippy::disallowed_methods, reason = "R10: a run's root stream")]
    let mut rng = SimRng::from_seed(seed).derive_idx("city-gen-diurnal", hour as usize);
    let mut side = 1usize;
    while side * side < n {
        side += 1;
    }
    let pitch = 14.0;
    let intensity = diurnal_intensity(f64::from(hour));
    let mut networks = Vec::with_capacity(n);
    for i in 0..n {
        let (row, col) = (i / side, i % side);
        let pos = Pos::new(
            col as f64 * pitch + (rng.f64() - 0.5) * 4.0,
            row as f64 * pitch + (rng.f64() - 0.5) * 4.0,
        );
        networks.push(network_at(&mut rng, pos, (0.15 + 0.6 * intensity).min(0.9)));
    }
    CityTopology {
        networks,
        model: InteractionModel::city_default(),
        horizon: SimDuration::from_millis(400),
        epoch: SimDuration::from_millis(50),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_seed_deterministic() {
        let a = apartment_block(50, 7);
        let b = apartment_block(50, 7);
        for (x, y) in a.networks.iter().zip(&b.networks) {
            assert!((x.pos.x - y.pos.x).abs() < 1e-12);
            assert_eq!(x.channel, y.channel);
            assert_eq!(x.burst_period, y.burst_period);
        }
        let c = apartment_block(50, 8);
        let same = a
            .networks
            .iter()
            .zip(&c.networks)
            .filter(|(x, y)| x.channel == y.channel)
            .count();
        assert!(same < 50, "different seeds must differ");
    }

    #[test]
    fn campus_spreads_buildings_apart() {
        let t = campus(200, 3);
        assert_eq!(t.networks.len(), 200);
        let max_x = t.networks.iter().map(|n| n.pos.x).fold(0.0, f64::max);
        assert!(max_x > 100.0, "campus quad too small: {max_x}");
    }

    #[test]
    fn diurnal_night_is_quieter_than_evening() {
        let night = diurnal_city(300, 4, 5);
        let evening = diurnal_city(300, 20, 5);
        let bursts = |t: &CityTopology| {
            t.networks
                .iter()
                .filter(|n| n.burst_period > SimDuration::ZERO)
                .count()
        };
        assert!(
            bursts(&night) < bursts(&evening),
            "{} !< {}",
            bursts(&night),
            bursts(&evening)
        );
    }
}
