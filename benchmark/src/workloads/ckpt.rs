//! `office_ckpt`: 48 office runs (TCP, PoWiFi, 31 sim-s, 500 ms epochs),
//! each from its own seed. Each office runs to t = 30 s, saves a
//! checkpoint, restores a fresh run from the bytes and finishes from the
//! restored run. The office model is the one `office_fleet` serves, but
//! here the checkpoint layer writes and reads the whole state, so a codec
//! or event-core change shows without the cost of serving.
//!
//! Why t = 30 s: a checkpoint grows as an office runs, from about 110 KB
//! at 0.5 s to 150-165 KB at 30 s and 170 KB at 55 s, and restore time
//! grows with the square of its size (about 110, 200 and 250 ms at p50).
//! The middle of a 60 s office stands for a whole `--checkpoint-every`
//! chain over it; the state at 30 s does not depend on how long the office
//! runs after that.
//!
//! Why many offices rather than one chain: restore cost differs by a
//! factor of five between offices, so one office's cost (or one chain's)
//! depends on its seed far more than on the code. A unit of 48 independent
//! offices keeps that seed dependence to a few percent.
//!
//! `checkpoint()` is exactly `save_office` → `state_hash` → `ckpt::save`,
//! and `resume()` is `ckpt::load` → `resume_value`; the unit calls those
//! pieces itself so each gets its own span.

use super::{ratio, Trace, Unit};
use crate::digest::Digest;
use crate::spans::Spans;
use crate::stats::{median, tail_percentile};
use powifi_core::Scheme;
use powifi_deploy::ckpt::{resume_value, save_office};
use powifi_deploy::{checkpoint, OfficeConfig, OfficeRun, OfficeSpec, TrafficSpec};
use powifi_sim::ckpt::{self, CkptError};
use powifi_sim::obs::metrics;
use powifi_sim::{SimDuration, SimRng};
use std::time::{Duration, Instant};

/// Offices, their length, and where they are checkpointed.
#[derive(Debug, Clone, Copy)]
pub struct CkptSize {
    /// Office runs per unit, each from its own seed.
    pub offices: usize,
    /// Simulated seconds per office.
    pub sim_secs: u64,
    /// Epoch width, ms.
    pub epoch_ms: u64,
    /// Round trips happen at every interior epoch boundary from this sim
    /// time, ms...
    pub first_trip_ms: u64,
    /// ...up to and including this one.
    pub last_trip_ms: u64,
}

impl CkptSize {
    /// 48 offices of 31 s in 500 ms epochs, one round trip each at 30 s.
    pub fn paper() -> CkptSize {
        CkptSize {
            offices: 48,
            sim_secs: 31,
            epoch_ms: 500,
            first_trip_ms: 30_000,
            last_trip_ms: 30_000,
        }
    }

    /// The traced pass: the same offices with round trips at 29, 29.5 and
    /// 30 s, so 144 round trips leave at least ten beyond each p90.
    /// Restore is exact, so the offices end as in [`CkptSize::paper`].
    pub fn traced() -> CkptSize {
        CkptSize {
            first_trip_ms: 29_000,
            ..CkptSize::paper()
        }
    }
}

/// One spec per office, seeds derived from the workload seed.
fn specs(size: &CkptSize, seed: u64) -> Vec<OfficeSpec> {
    let root = SimRng::from_seed(seed);
    (0..size.offices)
        .map(|k| OfficeSpec {
            seed: root.derive_seed(&format!("office_ckpt#{k}")),
            scheme: Scheme::PoWiFi,
            cfg: OfficeConfig::default(),
            traffic: TrafficSpec::Tcp,
            secs: size.sim_secs,
            epoch: SimDuration::from_millis(size.epoch_ms),
        })
        .collect()
}

/// Where a finished office run ended up.
#[derive(Debug, Clone, PartialEq)]
struct Finish {
    /// State hash of the finished run.
    hash: String,
    /// Client throughput, Mbit/s.
    throughput_mbps: f64,
    /// Events executed.
    events: u64,
    /// MAC frames sent.
    frames: u64,
}

impl Finish {
    fn of(run: &OfficeRun) -> Result<Finish, CkptError> {
        Ok(Finish {
            hash: checkpoint(run)?.1,
            throughput_mbps: run.throughput_mbps(),
            events: run.q.executed(),
            frames: run.w.mac.total_frames_sent(),
        })
    }
}

/// Digest of every office's final throughput and state hash.
fn digest(finishes: &[Finish]) -> String {
    let mut d = Digest::new();
    for f in finishes {
        d.f64("throughput_mbps", f.throughput_mbps)
            .str("state_hash", &f.hash);
    }
    d.finish()
}

/// One unit's round-tripped offices.
#[derive(Debug, Clone)]
struct RoundTrips {
    /// End state of each office.
    finishes: Vec<Finish>,
    /// Container size of each checkpoint, bytes.
    bytes: Vec<usize>,
    /// Round trips whose container hash differed from the state hash.
    hash_mismatches: u64,
}

/// Time starting the first office, and drop it. Set-up is reported per
/// office: a unit starts dozens.
pub(crate) fn setup_once(size: &CkptSize, seed: u64) -> Duration {
    let sp = &specs(
        &CkptSize {
            offices: 1,
            ..*size
        },
        seed,
    )[0];
    let t = Instant::now();
    let run = OfficeRun::start(sp);
    let took = t.elapsed();
    drop(run);
    took
}

/// Every office with a save → restore round trip at each interior epoch
/// boundary in the trip window, under an `office_ckpt` root span. Each
/// office starts from a reset metrics registry, as in a fresh process.
/// Returns the offices, the set-up time (all starts) and the run time,
/// which leaves out both the starts and hashing each finished office for
/// the output check.
fn round_trips(
    size: &CkptSize,
    seed: u64,
    spans: &mut Spans,
) -> Result<(RoundTrips, Duration, Duration), CkptError> {
    let mut out = RoundTrips {
        finishes: Vec::new(),
        bytes: Vec::new(),
        hash_mismatches: 0,
    };
    let (mut setup, mut check) = (Duration::ZERO, Duration::ZERO);
    let root = spans.enter("office_ckpt");
    for sp in specs(size, seed) {
        metrics::reset();
        let s = spans.enter("deploy.office_start");
        let mut run = OfficeRun::start(&sp);
        setup += spans.exit(s);
        loop {
            let t = spans.time("deploy.step_epoch", || run.step_epoch());
            if run.done() {
                break;
            }
            if !(size.first_trip_ms..=size.last_trip_ms).contains(&t.as_millis()) {
                continue;
            }
            let rt = spans.enter("ckpt.round_trip");
            let tree = spans.time("deploy.save_office", || save_office(&run))?;
            let hash = spans.time("sim.ckpt.state_hash", || ckpt::state_hash(&tree));
            let saved = spans.time("sim.ckpt.save", || ckpt::save(&tree));
            // Memory as in a crash-resume: `checkpoint()` frees its tree on
            // return, and the resuming process no longer has the old run.
            // Drops belong to the round trip but to none of its pieces: they
            // show as ckpt.unattributed_ms.
            drop((tree, run));
            let loaded = spans.time("sim.ckpt.load", || ckpt::load(&saved))?;
            run = spans.time("deploy.resume_value", || resume_value(&loaded.root))?;
            out.hash_mismatches += u64::from(loaded.hash != hash);
            drop(loaded);
            spans.exit(rt);
            out.bytes.push(saved.len());
        }
        let c = spans.enter("check.final_hash");
        out.finishes.push(Finish::of(&run)?);
        check += spans.exit(c);
    }
    let total = spans.exit(root);
    Ok((out, setup, total - setup - check))
}

/// The same offices straight through: the reference the round-tripped
/// offices must end equal to.
fn straight(size: &CkptSize, seed: u64) -> Result<Vec<Finish>, CkptError> {
    specs(size, seed)
        .iter()
        .map(|sp| {
            metrics::reset();
            let mut run = OfficeRun::start(sp);
            while !run.done() {
                run.step_epoch();
            }
            Finish::of(&run)
        })
        .collect()
}

/// The round-tripped offices plus their straight references, as a checked
/// unit; the round trips come back too for the traced pass.
fn checked(size: &CkptSize, seed: u64, spans: &mut Spans) -> (Unit, Option<RoundTrips>) {
    let runs = round_trips(size, seed, spans).and_then(|r| Ok((r, straight(size, seed)?)));
    let ((rt, setup, wall), reference) = match runs {
        Ok(r) => r,
        Err(e) => {
            let unit = Unit {
                setup: Duration::ZERO,
                wall: Duration::ZERO,
                events: 0,
                digest: String::new(),
                attempted: 1,
                failed: 1,
                problems: vec![format!("checkpoint round trip failed: {e}")],
            };
            return (unit, None);
        }
    };
    let trips = rt.bytes.len() as u64;
    let mut problems = Vec::new();
    let diverged = rt
        .finishes
        .iter()
        .zip(&reference)
        .filter(|(a, b)| a != b)
        .count();
    if diverged > 0 {
        problems.push(format!(
            "{diverged} restored office(s) ended away from their straight run"
        ));
    }
    if rt.hash_mismatches > 0 {
        problems.push(format!(
            "{} container hash(es) differ from the state hash",
            rt.hash_mismatches
        ));
    }
    let unit = Unit {
        setup,
        wall,
        events: rt.finishes.iter().map(|f| f.events).sum(),
        digest: digest(&rt.finishes),
        attempted: trips,
        failed: if problems.is_empty() { 0 } else { trips },
        problems,
    };
    (unit, Some(rt))
}

/// One measured unit, checked against straight runs made after the timed
/// part.
pub fn unit(size: &CkptSize, seed: u64, spans: &mut Spans) -> Unit {
    checked(size, seed, spans).0
}

/// Per-round-trip sums of several pieces' samples (pieces line up by index).
fn per_trip(spans: &Spans, pieces: &[&str]) -> Vec<f64> {
    let cols: Vec<Vec<f64>> = pieces.iter().map(|p| spans.samples_ms(p)).collect();
    (0..cols[0].len())
        .map(|i| cols.iter().map(|c| c[i]).sum())
        .collect()
}

const SAVE: [&str; 3] = ["deploy.save_office", "sim.ckpt.state_hash", "sim.ckpt.save"];
const RESTORE: [&str; 2] = ["sim.ckpt.load", "deploy.resume_value"];

/// One traced unit; latencies are per round trip.
pub(crate) fn trace(size: &CkptSize, seed: u64) -> Trace {
    let mut spans = Spans::new();
    let (unit, rt) = checked(size, seed, &mut spans);
    let (bytes, frames): (Vec<f64>, u64) = rt.map_or((Vec::new(), 0), |rt| {
        (
            rt.bytes.iter().map(|&b| b as f64).collect(),
            rt.finishes.iter().map(|f| f.frames).sum(),
        )
    });
    let p50 = |name: &str| median(&spans.samples_ms(name)).unwrap_or(0.0);
    let (save, restore) = (per_trip(&spans, &SAVE), per_trip(&spans, &RESTORE));
    let pieces_ms: f64 = SAVE.iter().chain(&RESTORE).map(|p| spans.total_ms(p)).sum();
    let load_s = spans.total_ms("sim.ckpt.load") / 1e3;
    let mut layers = vec![
        (
            "deploy.office_start_ms",
            spans.total_ms("deploy.office_start"),
        ),
        ("deploy.step_epoch_ms", spans.total_ms("deploy.step_epoch")),
        ("deploy.save_office_ms.p50", p50("deploy.save_office")),
        ("sim.ckpt.state_hash_ms.p50", p50("sim.ckpt.state_hash")),
        ("sim.ckpt.save_ms.p50", p50("sim.ckpt.save")),
        ("sim.ckpt.load_ms.p50", p50("sim.ckpt.load")),
        ("deploy.resume_value_ms.p50", p50("deploy.resume_value")),
        (
            "sim.ckpt.load_mb_per_s",
            ratio(bytes.iter().sum::<f64>() / 1e6, load_s),
        ),
        (
            "ckpt.unattributed_ms",
            spans.total_ms("ckpt.round_trip") - pieces_ms,
        ),
        ("ckpt_save_ms.p50", median(&save).unwrap_or(0.0)),
        ("ckpt_restore_ms.p50", median(&restore).unwrap_or(0.0)),
        ("ckpt_bytes", median(&bytes).unwrap_or(0.0)),
    ];
    // Reported only with at least ten round trips beyond the 90th.
    for (name, xs) in [
        ("ckpt_save_ms.p90", &save),
        ("ckpt_restore_ms.p90", &restore),
    ] {
        if let Some(p) = tail_percentile(xs, 0.9) {
            layers.push((name, p));
        }
    }
    Trace::new(spans, "office_ckpt", unit, frames, layers)
}
