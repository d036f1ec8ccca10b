//! The busy-office benchmark environment of §4: "multiple other clients and
//! routers operating on channels 1, 6, and 11", and [`OfficeRun`], the one
//! runner that builds, steps and finishes every office deployment — the
//! Fig. 6a/6b sweeps, served fleets and checkpoint chains alike.

use crate::background::{constant_intensity, install_background, BackgroundConfig};
use crate::telemetry::EpochDriver;
use crate::world::{three_channel_world, SimWorld};
use powifi_core::{Router, RouterConfig, Scheme};
use powifi_mac::{MediumId, Queue, RateController, StationId};
use powifi_net::{start_tcp_flow, start_udp_flow, tcp_push_at, Flow};
use powifi_rf::{Bitrate, WifiChannel};
use powifi_sim::obs::metrics::{gauge, keys};
use powifi_sim::{SimDuration, SimRng, SimTime};

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

impl OfficeScenario {
    /// Report a finished run's totals to this thread's metrics registry
    /// (observability only; see `powifi_sim::obs::metrics`): MAC counters,
    /// the router's cumulative occupancy up to `end`, and its injector gate
    /// totals.
    pub fn record_run_telemetry(&self, w: &SimWorld, end: SimTime) {
        w.mac.record_metrics();
        gauge(keys::MAC_OCCUPANCY).set(self.router.occupancy(&w.mac, end).1);
        for inj in &self.router.injectors {
            inj.borrow().record_metrics();
        }
    }
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

/// Client traffic driven through the office run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficSpec {
    /// No client flow (occupancy/harvest-only runs).
    None,
    /// §4.1(a): CBR UDP at this offered rate (Mbit/s), client rate pinned
    /// to 54 Mbps, starting at t=100 ms and stopping at the run end.
    Udp {
        /// Offered rate, Mbit/s.
        rate_mbps: f64,
    },
    /// §4.1(b): one long-lived TCP flow, pushed a huge byte budget at
    /// t=100 ms.
    Tcp,
}

/// Everything needed to *rebuild* a run from scratch: the deterministic
/// builder inputs plus the run schedule. Stored inside every checkpoint so
/// a resume needs only the checkpoint file.
#[derive(Debug, Clone)]
pub struct OfficeSpec {
    /// World seed.
    pub seed: u64,
    /// Power-delivery scheme under test.
    pub scheme: Scheme,
    /// Office environment parameters.
    pub cfg: OfficeConfig,
    /// Client traffic.
    pub traffic: TrafficSpec,
    /// Total run length, seconds.
    pub secs: u64,
    /// Epoch (checkpoint/telemetry) width.
    pub epoch: SimDuration,
}

/// A live office run: stepped epoch by epoch (live telemetry, checkpoint
/// chains; [`crate::ckpt`] saves and resumes it) or run to its end in one
/// batch.
pub struct OfficeRun {
    /// The composed world.
    pub w: SimWorld,
    /// Its event queue.
    pub q: Queue<SimWorld>,
    /// The built scenario (router, client, channels).
    pub s: OfficeScenario,
    /// The live-telemetry driver stepping the run.
    pub drv: EpochDriver,
    /// The spec this run was started (or resumed) from.
    pub spec: OfficeSpec,
    /// Epochs completed so far.
    pub epochs_done: u64,
}

impl OfficeRun {
    /// Cold-start a run from its spec (epoch 0, nothing executed): build
    /// the office and set up the client's traffic.
    pub fn start(spec: &OfficeSpec) -> OfficeRun {
        let (mut w, mut q, s) = build_office(spec.seed, spec.scheme, spec.cfg);
        let end = SimTime::from_secs(spec.secs);
        match spec.traffic {
            TrafficSpec::None => {}
            TrafficSpec::Udp { rate_mbps } => {
                // §4.1(a): "The client sets its Wi-Fi bitrate to 54 Mbps" —
                // pin the data rate rather than letting AARF misread
                // collision losses.
                w.mac.set_rate_controller(
                    s.router.client_iface().sta,
                    RateController::fixed(Bitrate::G54),
                );
                start_udp_flow(
                    &mut w,
                    &mut q,
                    s.router.client_iface().sta,
                    s.client,
                    rate_mbps,
                    SimTime::from_millis(100),
                    end,
                );
            }
            TrafficSpec::Tcp => {
                let flow = start_tcp_flow(&mut w, s.router.client_iface().sta, s.client);
                tcp_push_at(&mut q, SimTime::from_millis(100), flow, u64::MAX / 4);
            }
        }
        let drv = EpochDriver::new(spec.epoch, &s);
        OfficeRun {
            w,
            q,
            s,
            drv,
            spec: spec.clone(),
            epochs_done: 0,
        }
    }

    /// The sim time the run ends at.
    pub fn end(&self) -> SimTime {
        SimTime::from_secs(self.spec.secs)
    }

    /// Total epochs the run spans (the last may be short).
    pub fn total_epochs(&self) -> u64 {
        let width = self.spec.epoch.as_nanos().max(1);
        self.end().as_nanos().div_ceil(width)
    }

    /// Has the run reached its end?
    pub fn done(&self) -> bool {
        self.epochs_done >= self.total_epochs()
    }

    /// Advance one epoch: run the queue to the next boundary and fire the
    /// telemetry driver. Returns the boundary time.
    pub fn step_epoch(&mut self) -> SimTime {
        let width = self.spec.epoch;
        let t = SimTime::from_nanos((width.as_nanos()).saturating_mul(self.epochs_done + 1))
            .min(self.end());
        self.q.run_until(&mut self.w, t);
        self.drv.after_epoch(&self.w, &self.s, t);
        self.epochs_done += 1;
        t
    }

    /// Run the queue to the end in one `run_until`, with no epoch hook:
    /// the batch path. It executes the events [`OfficeRun::step_epoch`]
    /// would, but sets no live gauge, steps no monitoring harvester and
    /// emits no stream record. The run is then [`OfficeRun::done`], but its
    /// epoch driver saw no boundary, so it is not a state to checkpoint.
    pub fn run_to_end(&mut self) {
        let end = self.end();
        self.q.run_until(&mut self.w, end);
        self.epochs_done = self.total_epochs();
    }

    /// The client's flow, `None` for quiet runs. It is the run's only
    /// transport flow, so it is found by scan rather than a remembered id —
    /// which makes this work identically on cold-started and resumed runs.
    pub fn client_flow(&self) -> Option<&Flow> {
        self.w.net.flows().map(|(_, f)| f).next()
    }

    /// Mean client throughput achieved so far, Mbit/s (0 for quiet runs).
    pub fn throughput_mbps(&self) -> f64 {
        match self.client_flow() {
            Some(Flow::Udp(u)) => u.mean_mbps(),
            Some(Flow::Tcp(t)) => t.mean_mbps(),
            None => 0.0,
        }
    }
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
