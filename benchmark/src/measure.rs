//! One run of one workload — untraced for the end-to-end metrics, or
//! traced for the per-layer ones — ending in an [`Envelope`]. `run` and
//! `trace` launch these in fresh processes.

use crate::declaration::{Declaration, Metric};
use crate::json::{field, parse, str_field};
use crate::report::Envelope;
use crate::rss::peak_rss_mib;
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{ratio, Unit, Workload};
use std::time::{Duration, Instant};

/// The seed whose digests are pinned.
pub const PINNED_SEED: u64 = 42;

/// Pinned digests (`bless` rewrites this file).
const EXPECTED: &str = include_str!("../expected/seed42.json");

/// Set-ups timed in each heap state (fresh, then after the first unit).
const SETUP_REPS: usize = 25;

/// The digest pinned for `workload` at [`PINNED_SEED`].
pub fn pinned_digest(workload: &str) -> Option<String> {
    let v = parse(EXPECTED).ok()?;
    str_field(field(&v, "digests").ok()?, workload)
        .ok()
        .map(str::to_string)
}

/// Check units against the pinned digest (at the pinned seed) or against
/// the first unit (determinism). A unit whose digest misses fails all of
/// its operations. Returns `(attempted, failed, problems)`.
fn verify(units: &[Unit], pinned: Option<&str>) -> (u64, u64, Vec<String>) {
    let want = pinned.or(units.first().map(|u| u.digest.as_str()));
    let (mut attempted, mut failed, mut problems) = (0, 0, Vec::new());
    for (i, u) in units.iter().enumerate() {
        attempted += u.attempted;
        if Some(u.digest.as_str()) != want {
            failed += u.attempted;
            problems.push(format!(
                "unit {i}: digest {} != expected {}",
                u.digest,
                want.unwrap_or("-")
            ));
        } else {
            failed += u.failed;
        }
        problems.extend(u.problems.iter().map(|p| format!("unit {i}: {p}")));
    }
    (attempted, failed, problems)
}

/// Assemble the envelope over `declared` metrics from `values`. A declared
/// metric with no value is an error when `fill` is false and reads 0
/// otherwise (a layer this workload does not call). A value that is not
/// finite is reported as a problem.
fn envelope(
    declared: &[Metric],
    values: &[(&str, f64)],
    fill: bool,
    (attempted, failed, mut problems): (u64, u64, Vec<String>),
) -> Envelope {
    for (name, _) in values {
        assert!(
            declared.iter().any(|m| m.name == *name),
            "metric {name} is not declared in BENCHMARK.json"
        );
    }
    let metrics = declared
        .iter()
        .map(|m| {
            let v = values.iter().find(|(n, _)| *n == m.name).map(|&(_, v)| v);
            assert!(fill || v.is_some(), "metric {} was not measured", m.name);
            let v = v.unwrap_or(0.0);
            if !v.is_finite() {
                problems.push(format!("{} is not finite", m.name));
            }
            let v = if v.is_finite() { v } else { 0.0 };
            (m.name.clone(), v, m.unit.clone())
        })
        .collect();
    for p in &problems {
        println!("problem: {p}");
    }
    Envelope {
        correct: failed == 0 && problems.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics,
    }
}

/// [`verify`] against the pin at the pinned seed; a pin missing there
/// fails every operation.
fn check(w: Workload, seed: u64, units: &[Unit]) -> (u64, u64, Vec<String>) {
    let pinned = seed == PINNED_SEED;
    let pin = pinned.then(|| pinned_digest(w.name())).flatten();
    let (attempted, mut failed, mut problems) = verify(units, pin.as_deref());
    if pinned && pin.is_none() {
        problems.push(format!("no digest pinned for {} (run `bless`)", w.name()));
        failed = attempted;
    }
    (attempted, failed, problems)
}

fn timed_unit(w: Workload, seed: u64, index: usize) -> (Unit, Duration) {
    let t = Instant::now();
    let u = w.unit(seed, &mut Spans::new());
    let took = t.elapsed();
    println!(
        "{} unit {index}: setup {:.3} ms, run {:.4} s, {} events, digest {}",
        w.name(),
        u.setup.as_secs_f64() * 1e3,
        u.wall.as_secs_f64(),
        u.events,
        u.digest
    );
    (u, took)
}

/// Untraced: timed set-ups, then units while another fits in `seconds` (at
/// least one); then check the outputs.
///
/// Set-up is timed apart from the units, [`SETUP_REPS`] times in the fresh
/// process and [`SETUP_REPS`] times after the first unit, and `setup_s` is
/// the lower of the two medians. Small set-ups are at the allocator's
/// mercy: depending on the workload, either the fresh heap (pages faulted
/// in on every set-up) or the heap a unit leaves behind (a layout that
/// differs from process to process) slows them by a third or more. The
/// lower median keeps the cost of the set-up code itself.
///
/// Peak memory is read after the first unit: later units reuse freed
/// memory but still nudge the high-water mark, which would tie the figure
/// to how many units fit.
pub fn measured(w: Workload, seed: u64, seconds: u64, decl: &Declaration) -> Envelope {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let setup_median = || {
        let samples: Vec<f64> = (0..SETUP_REPS)
            .map(|_| w.setup_once(seed).as_secs_f64())
            .collect();
        median(&samples).unwrap_or(0.0)
    };
    let fresh = setup_median();
    let (first, mut took) = timed_unit(w, seed, 0);
    let peak_rss = peak_rss_mib().unwrap_or(0.0);
    let warm = setup_median();
    println!("setup median: fresh heap {fresh} s, after a unit {warm} s");
    let mut units = vec![first];
    while start.elapsed() + took <= budget {
        let (u, t) = timed_unit(w, seed, units.len());
        units.push(u);
        took = t;
    }
    let walls: Vec<f64> = units.iter().map(|u| u.wall.as_secs_f64()).collect();
    let rates: Vec<f64> = units
        .iter()
        .map(|u| ratio(u.events as f64, u.wall.as_secs_f64()))
        .collect();
    let checks = check(w, seed, &units);
    let values = [
        ("wall_s", median(&walls).unwrap_or(0.0)),
        ("setup_s", fresh.min(warm)),
        ("sim_events_per_s", median(&rates).unwrap_or(0.0)),
        ("peak_rss_mb", peak_rss),
    ];
    for (name, v) in &values {
        let unit = decl.end_to_end.iter().find(|m| m.name == *name);
        println!("{name} = {v} {}", unit.map_or("", |m| m.unit.as_str()));
    }
    println!("units = {}", units.len());
    envelope(&decl.end_to_end, &values, false, checks)
}

/// Traced: the workload's traced pass, its span table with an
/// unattributed row per root, and every per-layer metric it measures.
pub fn traced(w: Workload, seed: u64, decl: &Declaration) -> Envelope {
    let tr = w.trace(seed);
    print!("{}", tr.spans.render());
    for (name, v) in &tr.layers {
        let unit = decl.per_layer.iter().find(|m| m.name == *name);
        println!("{name} = {v} {}", unit.map_or("", |m| m.unit.as_str()));
    }
    let checks = check(w, seed, std::slice::from_ref(&tr.unit));
    envelope(&decl.per_layer, &tr.layers, true, checks)
}
