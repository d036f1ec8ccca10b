//! Airtime-accounting cross-check (the tentpole's conformance oracle):
//! occupancy recomputed from a `--trace` capture with the paper's
//! Σ sizeᵢ/rateᵢ formula must equal the MAC's own `OccupancyMonitor`
//! accounting, as reported in the points artifact. Any drift between the
//! two code paths — trace emission, tshark airtime rounding, monitor
//! binning — shows up here as more than float-summation noise.

use powifi_bench::traceinspect;
use serde::Value;
use std::fs;
use std::process::Command;

/// fig05's first (and fastest) quick-mode point.
const POINT: &str = "qdepth1/delay50us";
/// Quick-mode fig05 simulates 4 s per point.
const END_NS: u64 = 4_000_000_000;

fn object_field<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    match v {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

#[test]
fn trace_derived_occupancy_matches_mac_accounting() {
    let tmp = std::env::temp_dir().join(format!("powifi-crosscheck-{}", std::process::id()));
    let _ = fs::remove_dir_all(&tmp);
    fs::create_dir_all(&tmp).unwrap();
    let trace_path = tmp.join("fig05.trace.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_fig05_occupancy_vs_delay"))
        .args(["--seed", "0", "--jobs", "1", "--filter", POINT])
        .arg("--json")
        .arg(&tmp)
        .arg("--trace")
        .arg(&trace_path)
        .output()
        .expect("spawn fig05");
    assert!(
        out.status.success(),
        "fig05 run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The MAC's own accounting, via the points artifact (occupancy gauge =
    // OccupancyMonitor::mean_tracked of the injector interface).
    let points_text = fs::read_to_string(tmp.join("fig05.points.json")).unwrap();
    let points = serde_json::from_str(&points_text).expect("points artifact parses");
    let Value::Array(rows) = &points else {
        panic!("points artifact is not an array")
    };
    assert_eq!(rows.len(), 1, "filter must select exactly one point");
    let Some(Value::Float(mac_occupancy)) = object_field(&rows[0], "occupancy") else {
        panic!("point row missing occupancy: {points_text}")
    };
    assert!(
        *mac_occupancy > 0.01,
        "fig05 must record a live occupancy, got {mac_occupancy}"
    );

    // The trace's view of the same quantity.
    let trace_text = fs::read_to_string(&trace_path).unwrap();
    let trace = traceinspect::parse(&trace_text).expect("trace parses");
    assert_eq!(trace.points.len(), 1);
    assert_eq!(trace.points[0].header.label, POINT);
    assert!(
        traceinspect::validate(&trace).is_empty(),
        "trace must be schema-clean"
    );
    // The tracked station is the injector's interface — identified from
    // the trace itself via its power-packet emissions.
    let iface = trace
        .records()
        .find(|r| r.kind == "power_packet")
        .and_then(|r| r.field_u64("iface"))
        .expect("fig05 trace must contain power packets");
    let occ = traceinspect::occupancy(&trace.points[0], END_NS, Some(iface));
    let trace_occupancy: f64 = occ.values().sum();

    let drift = (trace_occupancy - mac_occupancy).abs();
    assert!(
        drift < 1e-9,
        "airtime accounting drift: trace {trace_occupancy} vs MAC {mac_occupancy} \
         (|Δ| = {drift:e})"
    );

    let _ = fs::remove_dir_all(&tmp);
}

/// The inspector binary itself must accept the same artifact end-to-end
/// (`validate` is the CI gate).
#[test]
fn powifi_trace_validate_accepts_runner_output() {
    let tmp = std::env::temp_dir().join(format!("powifi-crosscheck-cli-{}", std::process::id()));
    let _ = fs::remove_dir_all(&tmp);
    fs::create_dir_all(&tmp).unwrap();
    let trace_path = tmp.join("fig05.trace.jsonl");
    let run = Command::new(env!("CARGO_BIN_EXE_fig05_occupancy_vs_delay"))
        .args(["--seed", "0", "--jobs", "2", "--filter", POINT])
        .arg("--trace")
        .arg(&trace_path)
        .output()
        .expect("spawn fig05");
    assert!(run.status.success());

    let out = Command::new(env!("CARGO_BIN_EXE_powifi-obs"))
        .args(["trace", "validate"])
        .arg(&trace_path)
        .output()
        .expect("spawn powifi-obs");
    assert!(
        out.status.success(),
        "powifi-obs trace validate rejected runner output:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = fs::remove_dir_all(&tmp);
}
