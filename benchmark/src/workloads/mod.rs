//! The four workloads. Each module exposes its size (a `paper()` size the
//! benchmark runs and whatever smaller size a test picks), one measured
//! unit of work, and a traced pass with that layer's per-layer numbers.
//!
//! | workload       | stresses                                            |
//! |----------------|-----------------------------------------------------|
//! | `home_day`     | sim queue + MAC DCF + injector hot loop, 1 thread   |
//! | `city_25k`     | RF partitioner, many-medium MAC, shard threads, RAM |
//! | `office_fleet` | net TCP/UDP, epoch telemetry, stream wire, sweep    |
//! | `office_ckpt`  | checkpoint save and restore of many office states   |
//!
//! `office_fleet` runs the same office model as `office_ckpt` with no
//! checkpointing, so a checkpoint-codec change should move `office_ckpt`
//! and leave `office_fleet` alone.

pub mod city;
pub mod ckpt;
pub mod fleet;
pub mod home;

use crate::spans::Spans;
use std::time::Duration;

/// Outcome of one measured unit of a workload.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Set-up time (building the world, binding sockets).
    pub setup: Duration,
    /// Run time after set-up.
    pub wall: Duration,
    /// Simulated events executed.
    pub events: u64,
    /// Digest of the simulated outputs.
    pub digest: String,
    /// Operations attempted (runs, stream records, checkpoint round trips).
    pub attempted: u64,
    /// Operations the unit saw fail on its own checks.
    pub failed: u64,
    /// What those checks found, one line each.
    pub problems: Vec<String>,
}

/// A traced pass: the span tree, the traced unit's outcome and the
/// per-layer numbers.
#[derive(Debug)]
pub(crate) struct Trace {
    /// Every span the pass recorded.
    pub(crate) spans: Spans,
    /// The traced unit (checked like any other).
    pub(crate) unit: Unit,
    /// `(per-layer metric, value)` pairs.
    pub(crate) layers: Vec<(&'static str, f64)>,
}

impl Trace {
    /// Wrap a finished pass, adding the rows every workload reports: the
    /// wall time of the traced unit's `root` span, its unattributed
    /// remainder, events and frames.
    fn new(
        spans: Spans,
        root: &'static str,
        unit: Unit,
        frames: u64,
        mut layers: Vec<(&'static str, f64)>,
    ) -> Trace {
        let b = spans
            .breakdown(root)
            .expect("a traced pass records its root span");
        layers.extend([
            ("trace.wall_ms", b.wall_ms),
            ("trace.unattributed_ms", b.unattributed_ms),
            ("sim.events", unit.events as f64),
            ("mac.frames_sent", frames as f64),
        ]);
        Trace {
            spans,
            unit,
            layers,
        }
    }
}

/// `a / b`, or 0 when `b` is 0 (a ratio over nothing measured).
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Worker threads for the threaded workloads: 2, or fewer on a smaller
/// host, so the benchmark never runs more compute threads than cores.
/// Outputs do not depend on it.
pub(crate) fn host_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The workloads, by CLI name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One compressed day of Table 1 home 2.
    HomeDay,
    /// A 25k-network apartment block, sharded.
    City,
    /// Four office deployments served over loopback to one subscriber.
    OfficeFleet,
    /// 48 office runs, each checkpointed and restored at t = 30 s.
    OfficeCkpt,
}

impl Workload {
    /// Every workload, in the order `run` cycles through them.
    pub const ALL: [Workload; 4] = [
        Workload::HomeDay,
        Workload::City,
        Workload::OfficeFleet,
        Workload::OfficeCkpt,
    ];

    /// CLI and results-file name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HomeDay => "home_day",
            Workload::City => "city_25k",
            Workload::OfficeFleet => "office_fleet",
            Workload::OfficeCkpt => "office_ckpt",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Time one set-up at benchmark size and drop what it built.
    pub(crate) fn setup_once(self, seed: u64) -> Duration {
        match self {
            Workload::HomeDay => home::setup_once(&home::HomeSize::paper(), seed),
            Workload::City => city::setup_once(&city::CitySize::paper(), seed),
            Workload::OfficeFleet => fleet::setup_once(),
            Workload::OfficeCkpt => ckpt::setup_once(&ckpt::CkptSize::paper(), seed),
        }
    }

    /// One measured unit at benchmark size.
    pub fn unit(self, seed: u64, spans: &mut Spans) -> Unit {
        match self {
            Workload::HomeDay => home::unit(&home::HomeSize::paper(), seed, spans),
            Workload::City => city::unit(&city::CitySize::paper(), seed, spans),
            Workload::OfficeFleet => fleet::unit(&fleet::FleetSize::paper(), seed, spans),
            Workload::OfficeCkpt => ckpt::unit(&ckpt::CkptSize::paper(), seed, spans),
        }
    }

    /// The traced pass at benchmark size.
    pub(crate) fn trace(self, seed: u64) -> Trace {
        match self {
            Workload::HomeDay => home::trace(&home::HomeSize::paper(), seed),
            Workload::City => city::trace(&city::CitySize::paper(), seed),
            Workload::OfficeFleet => fleet::trace(&fleet::FleetSize::paper(), seed),
            Workload::OfficeCkpt => ckpt::trace(&ckpt::CkptSize::traced(), seed),
        }
    }
}
