//! Experiment runners — the procedures behind Figs. 6–8 and 15, shared by
//! the bench binaries, examples and integration tests.

use crate::home::HomeRun;
use crate::office::{build_office, OfficeConfig, OfficeRun, OfficeSpec, TrafficSpec};
use powifi_core::Scheme;
use powifi_mac::RateController;
use powifi_net::{start_page_load, start_udp_flow, Flow, SiteProfile, WanConfig};
use powifi_rf::{Bitrate, Dbm, Hertz, Meters, PathLoss, Transmitter, WifiChannel};
use powifi_sensors::{sensor_pathloss, TemperatureSensor};
use powifi_sim::{SimDuration, SimTime};

/// Result of one §4.1(a) UDP run.
#[derive(Debug, Clone)]
pub struct UdpResult {
    /// Mean achieved throughput, Mbit/s.
    pub throughput_mbps: f64,
    /// Per-500 ms-bin throughputs.
    pub bins: Vec<f64>,
    /// Router cumulative occupancy over the run.
    pub cumulative_occupancy: f64,
    /// Router per-channel occupancies.
    pub per_channel_occupancy: Vec<f64>,
}

/// Result of one §4.1(b) TCP run.
#[derive(Debug, Clone)]
pub struct TcpResult {
    /// Mean achieved throughput, Mbit/s.
    pub throughput_mbps: f64,
    /// Per-500 ms-bin throughputs.
    pub bins: Vec<f64>,
    /// Router cumulative occupancy over the run.
    pub cumulative_occupancy: f64,
}

/// §4.1(a): iperf UDP at `rate_mbps` to a client 7 ft away, under `scheme`,
/// in the default busy office.
pub fn udp_experiment(scheme: Scheme, rate_mbps: f64, seed: u64, secs: u64) -> UdpResult {
    udp_experiment_epochs(OfficeConfig::default(), scheme, rate_mbps, seed, secs, None)
}

/// [`udp_experiment`] in an explicitly configured office, with optional
/// live telemetry: `Some(width)` steps the run in `width`-wide epochs,
/// refreshing `*.live.*` gauges and emitting a stream `metrics` record at
/// each boundary; `None` runs it in one batch. Event execution — and
/// therefore the result — is identical either way.
pub fn udp_experiment_epochs(
    cfg: OfficeConfig,
    scheme: Scheme,
    rate_mbps: f64,
    seed: u64,
    secs: u64,
    epoch: Option<SimDuration>,
) -> UdpResult {
    let traffic = TrafficSpec::Udp { rate_mbps };
    let run = office_run(cfg, scheme, traffic, seed, secs, epoch);
    let Some(Flow::Udp(u)) = run.client_flow() else {
        unreachable!("a UDP office run has one UDP flow")
    };
    let (per, cum) = run.s.router.occupancy(&run.w.mac, run.end());
    UdpResult {
        throughput_mbps: u.mean_mbps(),
        bins: u.delivered.mbps_per_bin(),
        cumulative_occupancy: cum,
        per_channel_occupancy: per,
    }
}

/// §4.1(b): one iperf TCP run in the default busy office.
pub fn tcp_experiment(scheme: Scheme, seed: u64, secs: u64) -> TcpResult {
    tcp_experiment_epochs(OfficeConfig::default(), scheme, seed, secs, None)
}

/// [`tcp_experiment`] in an explicitly configured office, with optional
/// epoch-stepped live telemetry (see [`udp_experiment_epochs`]).
pub fn tcp_experiment_epochs(
    cfg: OfficeConfig,
    scheme: Scheme,
    seed: u64,
    secs: u64,
    epoch: Option<SimDuration>,
) -> TcpResult {
    let run = office_run(cfg, scheme, TrafficSpec::Tcp, seed, secs, epoch);
    let Some(Flow::Tcp(tcp)) = run.client_flow() else {
        unreachable!("a TCP office run has one TCP flow")
    };
    let (_, cum) = run.s.router.occupancy(&run.w.mac, run.end());
    TcpResult {
        throughput_mbps: tcp.mean_mbps(),
        bins: tcp.delivered.mbps_per_bin(),
        cumulative_occupancy: cum,
    }
}

/// One office run to its end with `traffic`, stepped in `Some(width)`-wide
/// epochs or in one batch for `None`, with its end-of-run telemetry
/// recorded.
fn office_run(
    cfg: OfficeConfig,
    scheme: Scheme,
    traffic: TrafficSpec,
    seed: u64,
    secs: u64,
    epoch: Option<SimDuration>,
) -> OfficeRun {
    let mut run = OfficeRun::start(&OfficeSpec {
        seed,
        scheme,
        cfg,
        traffic,
        secs,
        // A batch run is one epoch long.
        epoch: epoch.unwrap_or(SimDuration::from_secs(secs)),
    });
    if epoch.is_some() {
        while !run.done() {
            run.step_epoch();
        }
    } else {
        run.run_to_end();
    }
    run.s.record_run_telemetry(&run.w, run.end());
    run
}

/// §4.1(c): load `site` `loads` times under `scheme` in the default busy
/// office; returns the PLTs (s).
pub fn plt_experiment(scheme: Scheme, site: SiteProfile, loads: usize, seed: u64) -> Vec<f64> {
    let (mut w, mut q, s) = build_office(seed, scheme, OfficeConfig::default());
    let router_sta = s.router.client_iface().sta;
    let client = s.client;
    // Pages are loaded sequentially with a 1 s pause, as in the paper.
    let mut pages = Vec::new();
    let mut t = SimTime::from_millis(200);
    for _ in 0..loads {
        let page = start_page_load(
            &mut w,
            &mut q,
            router_sta,
            client,
            site,
            WanConfig::default(),
            t,
        );
        pages.push(page);
        // Upper-bound page time by a generous window; the pause is enforced
        // by spacing the starts (PLTs here are « the window).
        t += SimDuration::from_secs(12);
    }
    q.run_until(&mut w, t + SimDuration::from_secs(30));
    s.record_run_telemetry(&w, q.now());
    pages.iter().filter_map(|&p| w.net.pages[p].plt()).collect()
}

/// Fig. 8: a neighbor router–client pair on channel 1 runs saturating UDP
/// at `neighbor_rate` while our router runs `scheme`. Returns the
/// neighbor's achieved throughput (Mbit/s). Uses the Fig. 8 office (no
/// extra background noise).
pub fn neighbor_experiment(scheme: Scheme, neighbor_rate: Bitrate, seed: u64, secs: u64) -> f64 {
    let cfg = OfficeConfig {
        // Fig. 8 isolates the interaction: no extra office noise.
        neighbors_per_channel: 0,
        load_per_channel: 0.0,
        ..OfficeConfig::default()
    };
    let (mut w, mut q, s) = build_office(seed, scheme, cfg);
    let ch1 = s.channels[0].1;
    let n_ap = w.mac.add_station(ch1, RateController::fixed(neighbor_rate));
    let n_client = w.mac.add_station(ch1, RateController::fixed(neighbor_rate));
    let end = SimTime::from_secs(secs);
    // Offered rate slightly above the bit rate saturates the pair.
    let flow = start_udp_flow(
        &mut w,
        &mut q,
        n_ap,
        n_client,
        neighbor_rate.mbps() * 1.2,
        SimTime::from_millis(50),
        end,
    );
    q.run_until(&mut w, end);
    let Some(Flow::Udp(u)) = w.net.flow(flow) else {
        unreachable!()
    };
    s.record_run_telemetry(&w, end);
    u.mean_mbps()
}

/// Fig. 15: battery-free temperature-sensor update rates at `feet` from the
/// router, one sample per 60 s bin of a home run.
pub fn sensor_rates_from_home(run: &HomeRun, feet: f64) -> Vec<f64> {
    let sensor = TemperatureSensor::battery_free();
    let model = sensor_pathloss();
    let tx = Transmitter::powifi_prototype();
    let rx: Vec<(Hertz, Dbm)> = WifiChannel::POWER_SET
        .iter()
        .map(|ch| {
            (
                ch.center(),
                model.received(
                    tx.eirp(),
                    powifi_rf::Db(2.0),
                    ch.center(),
                    Meters::from_feet(feet),
                ),
            )
        })
        .collect();
    let bins = run.duty[0].len();
    (0..bins)
        .map(|b| {
            let inputs: Vec<(Hertz, Dbm, f64)> = rx
                .iter()
                .enumerate()
                .map(|(ch, &(f, p))| (f, p, run.duty[ch][b]))
                .collect();
            sensor.update_rate(&inputs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::home::{run_home, table1};

    #[test]
    fn powifi_udp_tracks_baseline() {
        // Fig. 6(a): PoWiFi ≈ Baseline at moderate offered rates.
        let base = udp_experiment(Scheme::Baseline, 10.0, 11, 6);
        let powifi = udp_experiment(Scheme::PoWiFi, 10.0, 11, 6);
        assert!(
            powifi.throughput_mbps > 0.85 * base.throughput_mbps,
            "baseline {} powifi {}",
            base.throughput_mbps,
            powifi.throughput_mbps
        );
    }

    #[test]
    fn blind_udp_wrecks_client_throughput() {
        // Fig. 6(a): BlindUDP collapses the client's UDP throughput.
        let base = udp_experiment(Scheme::Baseline, 10.0, 11, 6);
        let blind = udp_experiment(Scheme::BlindUdp, 10.0, 11, 6);
        assert!(
            blind.throughput_mbps < 0.4 * base.throughput_mbps,
            "baseline {} blind {}",
            base.throughput_mbps,
            blind.throughput_mbps
        );
    }

    #[test]
    fn noqueue_roughly_halves_throughput_at_saturation() {
        // Fig. 6(a): without the queue check the interface is split between
        // client and power traffic.
        let base = udp_experiment(Scheme::Baseline, 30.0, 11, 6);
        let nq = udp_experiment(Scheme::NoQueue, 30.0, 11, 6);
        let ratio = nq.throughput_mbps / base.throughput_mbps;
        assert!((0.3..=0.75).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn neighbor_gets_better_than_equal_share_under_powifi() {
        // Fig. 8 at a mid bit rate.
        let rate = Bitrate::G12;
        let powifi = neighbor_experiment(Scheme::PoWiFi, rate, 5, 6);
        let equal = neighbor_experiment(Scheme::EqualShare(rate), rate, 5, 6);
        let blind = neighbor_experiment(Scheme::BlindUdp, rate, 5, 6);
        assert!(powifi > equal, "powifi {powifi} equal {equal}");
        assert!(equal > blind, "equal {equal} blind {blind}");
    }

    #[test]
    fn home_sensor_rates_are_positive_at_10ft() {
        let run = run_home(table1()[1], 42, 1440);
        let rates = sensor_rates_from_home(&run, 10.0);
        assert_eq!(rates.len(), 1440);
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        assert!(mean > 0.1, "mean rate {mean}");
        assert!(mean < 20.0, "mean rate {mean}");
    }
}
