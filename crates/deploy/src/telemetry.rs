//! Epoch-stepped live telemetry: the deploy-layer glue between a running
//! office deployment and [`powifi_sim::obs::stream`].
//!
//! [`OfficeRun`](crate::OfficeRun) is the one office runner. Run in one
//! batch ([`OfficeRun::run_to_end`](crate::OfficeRun::run_to_end)), it
//! executes a single `run_until(end)` and leaves telemetry to the end-of-run
//! totals. Stepped ([`OfficeRun::step_epoch`](crate::OfficeRun::step_epoch)),
//! it runs the same queue through fixed sim-time epochs and, at each
//! boundary, its [`EpochDriver`] refreshes the cumulative `*.live.*` gauges
//! (MAC, injector gate, harvest), advances a monitoring harvester fed by
//! the epoch's per-channel airtime duty, and emits a `metrics` snapshot
//! record through the installed stream handle ([`stream::epoch_mark`]).
//! Event execution is identical however `run_until` is chopped, so a
//! stepped run returns byte-identical results to its batch twin — pinned
//! by tests.

use crate::office::OfficeScenario;
use crate::world::SimWorld;
use powifi_core::record_injector_progress;
use powifi_harvest::Harvester;
use powifi_mac::MediumId;
use powifi_rf::{Db, Dbm, Hertz, Meters, PathLoss, Transmitter};
use powifi_sensors::sensor_pathloss;
use powifi_sim::obs::stream;
use powifi_sim::{SimDuration, SimTime};

/// Distance of the monitoring harvester from the router, feet. Matches the
/// mid-range point of the paper's Fig. 15 sensor study.
pub const MONITOR_HARVESTER_FEET: f64 = 10.0;

/// Per-epoch live-telemetry driver for an office deployment.
///
/// Owns a battery-free monitoring [`Harvester`] placed
/// [`MONITOR_HARVESTER_FEET`] from the router; each epoch it converts the
/// epoch's per-channel busy-airtime delta into a duty cycle and integrates
/// the harvest, so `harvest.live.energy_uj` tracks what a real sensor at
/// that spot would have banked so far.
pub struct EpochDriver {
    pub(crate) epoch: SimDuration,
    pub(crate) harvester: Harvester,
    /// Receive power per office channel at the harvester.
    rx: Vec<(Hertz, Dbm)>,
    mediums: Vec<MediumId>,
    pub(crate) prev_busy: Vec<SimDuration>,
}

impl EpochDriver {
    /// A driver stepping `s` in `epoch`-wide windows.
    pub fn new(epoch: SimDuration, s: &OfficeScenario) -> EpochDriver {
        let model = sensor_pathloss();
        let tx = Transmitter::powifi_prototype();
        let rx = s
            .channels
            .iter()
            .map(|(ch, _)| {
                (
                    ch.center(),
                    model.received(
                        tx.eirp(),
                        Db(2.0),
                        ch.center(),
                        Meters::from_feet(MONITOR_HARVESTER_FEET),
                    ),
                )
            })
            .collect();
        EpochDriver {
            epoch,
            harvester: Harvester::battery_free_sensor(),
            rx,
            mediums: s.channels.iter().map(|&(_, m)| m).collect(),
            prev_busy: vec![SimDuration::ZERO; s.channels.len()],
        }
    }

    /// The monitoring harvester (for end-of-run inspection).
    pub fn harvester(&self) -> &Harvester {
        &self.harvester
    }

    /// Epoch boundary hook: refresh every live gauge from the world's
    /// cumulative totals, integrate the monitoring harvester over the
    /// epoch's airtime duty, and emit a `metrics` record at `now` through
    /// the installed stream handle (one branch when no stream is active).
    pub fn after_epoch(&mut self, w: &SimWorld, s: &OfficeScenario, now: SimTime) {
        w.mac.record_progress_metrics();
        record_injector_progress(&s.router.injectors);
        let epoch_ns = self.epoch.as_nanos().max(1);
        let inputs: Vec<(Hertz, Dbm, f64)> = self
            .mediums
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let busy = w.mac.busy_time(m);
                let delta = busy - self.prev_busy[i];
                self.prev_busy[i] = busy;
                let (f, p) = self.rx[i];
                (f, p, (delta.as_nanos() as f64 / epoch_ns as f64).min(1.0))
            })
            .collect();
        self.harvester.advance_duty(self.epoch, &inputs);
        self.harvester.record_progress();
        stream::epoch_mark(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::office::{OfficeConfig, OfficeRun, OfficeSpec, TrafficSpec};
    use powifi_core::Scheme;
    use powifi_sim::obs::metrics::{self, keys};

    fn spec(seed: u64, traffic: TrafficSpec, secs: u64, epoch: SimDuration) -> OfficeSpec {
        OfficeSpec {
            seed,
            scheme: Scheme::PoWiFi,
            cfg: OfficeConfig::default(),
            traffic,
            secs,
            epoch,
        }
    }

    /// The one runner's batch and stepped runs execute the same events:
    /// event count, frames, airtime and client throughput agree bit for bit.
    #[test]
    fn epoch_stepping_does_not_change_the_simulation() {
        for traffic in [TrafficSpec::Udp { rate_mbps: 10.0 }, TrafficSpec::Tcp] {
            let outcome = |stepped: bool| {
                let mut run = OfficeRun::start(&spec(7, traffic, 3, SimDuration::from_millis(500)));
                if stepped {
                    while !run.done() {
                        run.step_epoch();
                    }
                } else {
                    run.run_to_end();
                }
                (
                    run.q.executed(),
                    run.w.mac.total_frames_sent(),
                    run.w.mac.total_busy().as_nanos(),
                    run.throughput_mbps().to_bits(),
                )
            };
            assert_eq!(outcome(false), outcome(true), "{traffic:?}");
        }
        metrics::reset();
    }

    /// Stepping refreshes the live gauges and harvests at every boundary; a
    /// batch run of the same spec touches neither.
    #[test]
    fn after_epoch_sets_live_gauges_and_harvests() {
        let sp = spec(
            9,
            TrafficSpec::Udp { rate_mbps: 10.0 },
            2,
            SimDuration::from_secs(1),
        );
        let live = [
            keys::MAC_LIVE_FRAMES,
            keys::MAC_LIVE_BUSY_NS,
            keys::CORE_LIVE_POWER_SENT,
            keys::HARVEST_LIVE_ENERGY_UJ,
        ];

        metrics::reset();
        let mut batch = OfficeRun::start(&sp);
        batch.run_to_end();
        let snap = metrics::snapshot();
        assert!(
            live.iter().all(|k| !snap.gauges.contains_key(*k)),
            "a batch run set live gauges: {:?}",
            snap.gauges
        );
        assert_eq!(batch.drv.harvester().harvested.0, 0.0);

        metrics::reset();
        let mut run = OfficeRun::start(&sp);
        while !run.done() {
            run.step_epoch();
        }
        let snap = metrics::snapshot();
        for k in live {
            assert!(
                snap.gauges.get(k).copied().unwrap_or(0.0) > 0.0,
                "{k} not set: {:?}",
                snap.gauges
            );
        }
        assert!(run.drv.harvester().harvested.0 > 0.0);
        metrics::reset();
    }
}
