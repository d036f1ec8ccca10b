//! `home_day`: one compressed day (1440 sim-s) of Table 1 home 2 — the
//! `tier1_home` configuration. A single thread spends nearly all of it in
//! the sim event queue, the MAC's DCF and the core injector, with no
//! transport, checkpointing or threads, so anything that speeds the event
//! loop shows here first.

use super::{ratio, Trace, Unit};
use crate::digest::Digest;
use crate::spans::Spans;
use powifi_bench::report::subsystem_wall_ms;
use powifi_deploy::{build_home, run_home, sensor_rates_from_home, table1, HomeConfig, HomeRun};
use powifi_sim::obs::metrics::{self, keys};
use powifi_sim::obs::prof;
use powifi_sim::SimTime;
use std::time::{Duration, Instant};

/// Sensor distances (feet) of the Fig. 15 update-rate study.
const SENSOR_FEET: [f64; 4] = [5.0, 10.0, 15.0, 20.0];

/// Registry counters the digest pins; a speed-only change keeps them all.
const COUNTERS: [&str; 7] = [
    keys::SIM_EVENTS,
    keys::MAC_FRAMES,
    keys::MAC_COLLISIONS,
    keys::MAC_RETRANSMISSIONS,
    keys::MAC_QUEUE_DROPS,
    keys::CORE_POWER_SENT,
    keys::CORE_POWER_GATED,
];

/// Which home, and how hard the day is compressed.
#[derive(Debug, Clone, Copy)]
pub struct HomeSize {
    /// The Table 1 row (or a smaller home for tests).
    pub home: HomeConfig,
    /// Simulated seconds standing for 24 h (at least 1440).
    pub sim_seconds_per_day: u64,
}

impl HomeSize {
    /// Home 2 over one 1440 s compressed day.
    pub fn paper() -> HomeSize {
        HomeSize {
            home: table1()[1],
            sim_seconds_per_day: 1440,
        }
    }
}

/// Simulated outputs of one home day.
pub struct HomeDay {
    /// Occupancy, duty and hour series.
    pub run: HomeRun,
    /// Sensor update rates per bin, one series per [`SENSOR_FEET`] entry.
    pub rates: Vec<Vec<f64>>,
    /// [`COUNTERS`] values, in that order.
    pub counters: Vec<u64>,
}

impl HomeDay {
    /// Digest of the series, sensor rates and counters.
    pub fn digest(&self) -> String {
        let mut d = Digest::new();
        for (i, c) in self.run.per_channel.iter().enumerate() {
            d.f64s(&format!("occupancy{i}"), c);
        }
        for (i, c) in self.run.duty.iter().enumerate() {
            d.f64s(&format!("duty{i}"), c);
        }
        d.f64s("cumulative", &self.run.cumulative)
            .f64("mean_cumulative", self.run.mean_cumulative)
            .f64s("hours", &self.run.hours);
        for (ft, r) in SENSOR_FEET.iter().zip(&self.rates) {
            d.f64s(&format!("rates@{ft}"), r);
        }
        for (k, v) in COUNTERS.iter().zip(&self.counters) {
            d.u64(k, *v);
        }
        d.finish()
    }

    fn counter(&self, key: &str) -> u64 {
        COUNTERS
            .iter()
            .position(|k| *k == key)
            .map_or(0, |i| self.counters[i])
    }
}

fn sensor_rates(run: &HomeRun) -> Vec<Vec<f64>> {
    SENSOR_FEET
        .iter()
        .map(|&ft| sensor_rates_from_home(run, ft))
        .collect()
}

fn read_counters() -> Vec<u64> {
    let snap = metrics::snapshot();
    COUNTERS.iter().map(|k| snap.counter(k)).collect()
}

/// Time one `build_home` and drop the world.
pub(crate) fn setup_once(size: &HomeSize, seed: u64) -> Duration {
    let t = Instant::now();
    let built = build_home(size.home, seed, size.sim_seconds_per_day);
    let took = t.elapsed();
    drop(built);
    took
}

/// The split path: `build_home` → `run_until` → series → sensor rates, each
/// in its own span under a `home_day` root. Resets this thread's metrics
/// registry first, so the counters read back are this day's alone. Returns
/// the outputs, the set-up time and the run time after set-up.
pub fn day(size: &HomeSize, seed: u64, spans: &mut Spans) -> (HomeDay, Duration, Duration) {
    metrics::reset();
    let root = spans.enter("home_day");
    let b = spans.enter("deploy.build_home");
    let (mut w, mut q, home) = build_home(size.home, seed, size.sim_seconds_per_day);
    let setup = spans.exit(b);
    let end = SimTime::from_secs(size.sim_seconds_per_day);
    spans.time("sim.run_until", || q.run_until(&mut w, end));
    // The tail of `run_home`, step for step: series, then the run totals
    // into the registry.
    let run = spans.time("core.series", || {
        let per_channel = home.router.occupancy_series(&w.mac, end);
        let duty = home.router.duty_series(&w.mac, end);
        let bins = per_channel[0].len();
        let cumulative: Vec<f64> = (0..bins)
            .map(|b| per_channel.iter().map(|c| c[b]).sum())
            .collect();
        let mean_cumulative = cumulative.iter().sum::<f64>() / bins as f64;
        w.mac.record_metrics();
        metrics::gauge(keys::MAC_OCCUPANCY).set(mean_cumulative);
        for inj in &home.router.injectors {
            inj.borrow().record_metrics();
        }
        let bin_ns = home.bin().as_nanos();
        let hours = (0..bins as u64)
            .map(|b| home.hour_at(SimTime::from_nanos(b * bin_ns + bin_ns / 2)))
            .collect();
        HomeRun {
            config: size.home,
            per_channel,
            cumulative,
            duty,
            mean_cumulative,
            hours,
        }
    });
    let rates = spans.time("sensors.update_rates", || sensor_rates(&run));
    let total = spans.exit(root);
    let out = HomeDay {
        run,
        rates,
        counters: read_counters(),
    };
    (out, setup, total - setup)
}

/// The same day through `run_home`: the reference the split path must
/// match digest for digest.
pub fn reference_day(size: &HomeSize, seed: u64) -> HomeDay {
    metrics::reset();
    let run = run_home(size.home, seed, size.sim_seconds_per_day);
    HomeDay {
        rates: sensor_rates(&run),
        run,
        counters: read_counters(),
    }
}

fn to_unit(day: &HomeDay, setup: Duration, wall: Duration) -> Unit {
    Unit {
        setup,
        wall,
        events: day.counter(keys::SIM_EVENTS),
        digest: day.digest(),
        attempted: 1,
        failed: 0,
        problems: Vec::new(),
    }
}

/// One measured day.
pub fn unit(size: &HomeSize, seed: u64, spans: &mut Spans) -> Unit {
    let (d, setup, wall) = day(size, seed, spans);
    to_unit(&d, setup, wall)
}

/// `build_home` then a timed `run_until` with nothing else recorded.
fn timed_run_until(size: &HomeSize, seed: u64) -> f64 {
    let (mut w, mut q, _home) = build_home(size.home, seed, size.sim_seconds_per_day);
    let t = Instant::now();
    q.run_until(&mut w, SimTime::from_secs(size.sim_seconds_per_day));
    t.elapsed().as_secs_f64() * 1e3
}

/// Traced day, an untraced day for the tracing overhead, and a day under
/// the wall-mode span profiler whose per-subsystem self times are set
/// against that day's `run_until` time.
pub(crate) fn trace(size: &HomeSize, seed: u64) -> Trace {
    let mut spans = Spans::new();
    let (d, setup, wall) = day(size, seed, &mut spans);
    let unit = to_unit(&d, setup, wall);
    let run_until_ms = spans.total_ms("sim.run_until");
    let untraced_ms = timed_run_until(size, seed);

    prof::reset();
    prof::enable(true);
    let prof_ms = timed_run_until(size, seed);
    let subsystems = subsystem_wall_ms(&[&prof::snapshot().to_json()]);
    prof::disable();
    prof::reset();
    let sub = |k: &str| subsystems.get(k).copied().unwrap_or(0.0);
    let attributed: f64 = subsystems.values().sum();

    let events = unit.events as f64;
    let (sent, gated) = (
        d.counter(keys::CORE_POWER_SENT) as f64,
        d.counter(keys::CORE_POWER_GATED) as f64,
    );
    let layers = vec![
        ("deploy.build_home_ms", spans.total_ms("deploy.build_home")),
        ("sim.run_until_ms", run_until_ms),
        ("sim.ns_per_event", ratio(run_until_ms * 1e6, events)),
        ("core.series_ms", spans.total_ms("core.series")),
        (
            "sensors.update_rates_ms",
            spans.total_ms("sensors.update_rates"),
        ),
        ("mac.collisions", d.counter(keys::MAC_COLLISIONS) as f64),
        (
            "mac.retransmissions",
            d.counter(keys::MAC_RETRANSMISSIONS) as f64,
        ),
        ("mac.queue_drops", d.counter(keys::MAC_QUEUE_DROPS) as f64),
        ("core.power_sent", sent),
        ("core.power_gated", gated),
        ("core.gated_frac", ratio(gated, sent + gated)),
        ("prof.sim_self_ms", sub("sim")),
        ("prof.mac_self_ms", sub("mac")),
        ("prof.core_self_ms", sub("core")),
        ("prof.unattributed_ms", prof_ms - attributed),
        (
            "trace.overhead_frac",
            ratio(run_until_ms, untraced_ms) - 1.0,
        ),
    ];
    let frames = d.counter(keys::MAC_FRAMES);
    Trace::new(spans, "home_day", unit, frames, layers)
}
