//! The sweep engine's headline guarantee: the deterministic artifact
//! (`<name>.points.json`) is byte-identical no matter how many worker
//! threads execute the grid, and `--filter` re-runs points with the seeds
//! they had in the full sweep.

use powifi_bench::{BenchArgs, Experiment, Sweep};
use powifi_core::{Router, RouterConfig, Scheme};
use powifi_deploy::three_channel_world;
use powifi_sim::obs::metrics;
use powifi_sim::{SimDuration, SimRng, SimTime};
use serde::Value;
use std::fs;
use std::path::{Path, PathBuf};

/// A small but real sweep: an 8-point scheme × duration grid, each point a
/// full event-driven MAC simulation (so events/frames telemetry is live).
struct MiniOccupancy;

#[derive(Clone)]
struct Pt {
    scheme: Scheme,
    secs: u64,
}

impl Experiment for MiniOccupancy {
    type Point = Pt;
    /// `(cumulative_occupancy, frames_sent)`.
    type Output = (f64, u64);

    fn name(&self) -> &'static str {
        "mini_occupancy"
    }

    fn points(&self, _full: bool) -> Vec<Pt> {
        let mut pts = Vec::new();
        for scheme in [
            Scheme::Baseline,
            Scheme::PoWiFi,
            Scheme::NoQueue,
            Scheme::BlindUdp,
        ] {
            for secs in [1u64, 2] {
                pts.push(Pt { scheme, secs });
            }
        }
        pts
    }

    fn label(&self, pt: &Pt) -> String {
        format!("{}/{}s", pt.scheme.label(), pt.secs)
    }

    fn run(&self, pt: &Pt, seed: u64) -> (f64, u64) {
        let (mut w, mut q, channels) = three_channel_world(seed, SimDuration::from_secs(1));
        let rng = SimRng::from_seed(seed);
        let r = Router::install(
            &mut w,
            &mut q,
            &channels,
            RouterConfig::with_scheme(pt.scheme),
            &rng,
        );
        let end = SimTime::from_secs(pt.secs);
        q.run_until(&mut w, end);
        w.mac.record_metrics();
        let occupancy = r.occupancy(&w.mac, end).1;
        // One histogram, so the `--metrics` column carries all three maps.
        metrics::histogram("mini.occupancy").observe(occupancy);
        (occupancy, w.mac.total_frames_sent())
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "powifi-runner-determinism-{}-{tag}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn sweep_artifacts(dir: &Path, jobs: usize, filter: Option<&str>) -> (String, String) {
    let args = BenchArgs {
        seed: 42,
        json_dir: Some(dir.to_path_buf()),
        jobs,
        filter: filter.map(String::from),
        // The determinism suite doubles as a conformance gate: every point
        // runs under the invariant checker and the sweep panics on any
        // violation.
        check: true,
        ..BenchArgs::default()
    };
    Sweep::new(&args).run(&MiniOccupancy);
    let points = fs::read_to_string(dir.join("mini_occupancy.points.json")).unwrap();
    let manifest = fs::read_to_string(dir.join("mini_occupancy.manifest.json")).unwrap();
    (points, manifest)
}

/// Run the mini sweep with `--metrics` and `--trace`, returning the points
/// artifact (with the embedded metrics column) and the trace JSONL.
fn observed_artifacts(dir: &Path, jobs: usize) -> (String, String) {
    let trace_path = dir.join("mini_occupancy.trace.jsonl");
    let args = BenchArgs {
        seed: 42,
        json_dir: Some(dir.to_path_buf()),
        jobs,
        metrics: true,
        trace: Some(trace_path.clone()),
        ..BenchArgs::default()
    };
    Sweep::new(&args).run(&MiniOccupancy);
    let points = fs::read_to_string(dir.join("mini_occupancy.points.json")).unwrap();
    let trace = fs::read_to_string(trace_path).unwrap();
    (points, trace)
}

#[test]
fn points_artifact_is_bit_identical_across_job_counts() {
    let d1 = scratch_dir("jobs1");
    let d8 = scratch_dir("jobs8");
    let (p1, m1) = sweep_artifacts(&d1, 1, None);
    let (p8, m8) = sweep_artifacts(&d8, 8, None);

    assert_eq!(p1, p8, "points artifact must not depend on --jobs");
    assert!(p1.contains("\"events\""), "telemetry missing from artifact");
    assert!(p1.contains("\"frames\""), "telemetry missing from artifact");
    assert!(
        p1.contains("\"violations\": 0"),
        "conformance count missing"
    );

    // The manifest carries wall-clock, so only its deterministic fields
    // should match; it must record the jobs that actually ran.
    assert!(m1.contains("\"jobs\": 1"));
    assert!(m8.contains("\"jobs\": 8"));

    let _ = fs::remove_dir_all(&d1);
    let _ = fs::remove_dir_all(&d8);
}

#[test]
fn metrics_and_trace_are_bit_identical_across_job_counts() {
    let d1 = scratch_dir("obs-jobs1");
    let d8 = scratch_dir("obs-jobs8");
    let (p1, t1) = observed_artifacts(&d1, 1);
    let (p8, t8) = observed_artifacts(&d8, 8);

    assert_eq!(
        p1, p8,
        "metrics column in points artifact must not depend on --jobs"
    );
    assert!(
        p1.contains("\"metrics\"") && p1.contains("\"mac.frames_sent\""),
        "--metrics must embed the registry snapshot in the points artifact"
    );
    assert_eq!(t1, t8, "trace JSONL must not depend on --jobs");
    assert!(
        t1.contains("\"experiment\":\"mini_occupancy\""),
        "trace must carry point headers"
    );
    assert!(
        t1.contains("\"layer\":\"mac\"") && t1.contains("\"kind\":\"tx_start\""),
        "trace must contain MAC events for a live simulation"
    );

    let _ = fs::remove_dir_all(&d1);
    let _ = fs::remove_dir_all(&d8);
}

/// The `--metrics` column is the point's registry snapshot itself: each
/// point's `metrics` object in the points artifact, re-serialized
/// compactly, is that point's `MetricsSnapshot::to_json()`.
#[test]
fn metrics_column_renders_each_points_snapshot() {
    let dir = scratch_dir("metrics-column");
    let args = BenchArgs {
        seed: 42,
        json_dir: Some(dir.clone()),
        jobs: 2,
        metrics: true,
        ..BenchArgs::default()
    };
    let runs = Sweep::new(&args).run(&MiniOccupancy);
    let text = fs::read_to_string(dir.join("mini_occupancy.points.json")).unwrap();
    let Ok(Value::Array(rows)) = serde_json::from_str(&text) else {
        panic!("points artifact is not an array");
    };
    assert_eq!(rows.len(), runs.len());
    let field = |row: &Value, key: &str| match row {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).unwrap().1.clone(),
        other => panic!("point row is not an object: {other:?}"),
    };
    let mut histograms = 0;
    for run in &runs {
        let row = rows
            .iter()
            .find(|row| field(row, "index") == Value::UInt(run.index as u64))
            .unwrap_or_else(|| panic!("no row for {}", run.label));
        let snap = run.metrics.as_ref().expect("--metrics keeps the snapshot");
        histograms += snap.histograms.len();
        assert_eq!(
            serde_json::to_string(&field(row, "metrics")).unwrap(),
            snap.to_json(),
            "{}",
            run.label
        );
    }
    assert!(histograms > 0, "no point recorded a histogram");
    let _ = fs::remove_dir_all(&dir);
}

/// Run the mini sweep with `--prof`, returning the prof JSONL.
fn prof_artifact(dir: &Path, jobs: usize) -> String {
    let prof_path = dir.join("mini_occupancy.prof.jsonl");
    let args = BenchArgs {
        seed: 42,
        jobs,
        prof: Some(prof_path.clone()),
        ..BenchArgs::default()
    };
    Sweep::new(&args).run(&MiniOccupancy);
    fs::read_to_string(prof_path).unwrap()
}

#[test]
fn prof_jsonl_is_bit_identical_across_job_counts() {
    let d1 = scratch_dir("prof-jobs1");
    let d8 = scratch_dir("prof-jobs8");
    fs::create_dir_all(&d1).unwrap();
    fs::create_dir_all(&d8).unwrap();
    let p1 = prof_artifact(&d1, 1);
    let p8 = prof_artifact(&d8, 8);

    assert_eq!(p1, p8, "prof JSONL must not depend on --jobs");
    assert!(
        p1.contains("\"sim.event\"") && p1.contains("\"mac.dcf.tx\""),
        "profile must contain event and MAC spans for a live simulation"
    );
    assert!(
        !p1.contains("wall_ms"),
        "--prof captures must carry no wall-clock keys"
    );

    let _ = fs::remove_dir_all(&d1);
    let _ = fs::remove_dir_all(&d8);
}

/// The profiler's disabled path must be a single branch: running a full
/// live sweep (every instrumented layer exercised) without `--prof` must
/// leave the span registry completely empty.
#[test]
fn profiler_off_records_nothing_during_live_sweep() {
    use powifi_sim::obs::prof;
    assert!(!prof::enabled());
    let runs = Sweep::new(&BenchArgs {
        seed: 42,
        jobs: 1,
        ..BenchArgs::default()
    })
    .run(&MiniOccupancy);
    assert!(!runs.is_empty());
    assert!(runs.iter().all(|r| r.prof_json.is_none()));
    assert!(
        prof::snapshot().is_empty(),
        "disabled profiler must record no spans"
    );
}

#[test]
fn filtered_sweep_reuses_full_grid_seeds() {
    let full = Sweep::new(&BenchArgs {
        seed: 42,
        jobs: 2,
        check: true,
        ..BenchArgs::default()
    })
    .run(&MiniOccupancy);
    let subset = Sweep::new(&BenchArgs {
        seed: 42,
        jobs: 2,
        filter: Some("PoWiFi".into()),
        check: true,
        ..BenchArgs::default()
    })
    .run(&MiniOccupancy);

    assert!(!subset.is_empty(), "filter matched nothing");
    assert!(subset.len() < full.len(), "filter should prune the grid");
    for run in &subset {
        let twin = full.iter().find(|r| r.label == run.label).unwrap();
        assert_eq!(
            run.seed, twin.seed,
            "{}: seed changed under --filter",
            run.label
        );
        assert_eq!(run.index, twin.index);
        assert_eq!(run.output, twin.output);
    }
}
