//! Golden JSON snapshot tests for quick-mode bench artifacts.
//!
//! Runs representative bench binaries at `--seed 0` and compares
//! their `*.points.json` byte-for-byte against committed snapshots
//! (`tests/golden/`). Manifests are compared too, after stripping the
//! wall-clock lines — the only nondeterministic bytes any bench artifact
//! is allowed to contain. Regenerate intentional changes with
//! `UPDATE_GOLDEN=1 cargo test -p powifi-bench --test golden_artifacts`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Manifest lines carrying wall-clock timings (`"wall_ms": …`,
/// `"total_wall_ms": …`) are dropped before comparison.
fn strip_wall_clock(manifest: &str) -> String {
    manifest
        .lines()
        .filter(|l| !l.contains("wall_ms"))
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

fn compare_or_update(golden: &Path, actual: &str, what: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(golden.parent().unwrap()).unwrap();
        fs::write(golden, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(golden).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            golden.display()
        )
    });
    assert!(
        expected == actual,
        "{what} drifted from {}.\nIf intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test -p powifi-bench --test golden_artifacts",
        golden.display()
    );
}

fn check_artifacts(bin: &str, artifact: &str) {
    let tmp = std::env::temp_dir().join(format!("powifi-golden-{artifact}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&tmp);
    let out = Command::new(bin)
        .args(["--seed", "0", "--jobs", "2", "--check", "--json"])
        .arg(&tmp)
        .output()
        .expect("spawn bench binary");
    assert!(
        out.status.success(),
        "{artifact} run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let points = fs::read_to_string(tmp.join(format!("{artifact}.points.json")))
        .expect("points artifact written");
    compare_or_update(
        &golden_dir().join(format!("{artifact}.points.json")),
        &points,
        &format!("{artifact}.points.json"),
    );

    let manifest = fs::read_to_string(tmp.join(format!("{artifact}.manifest.json")))
        .expect("manifest artifact written");
    let stripped = strip_wall_clock(&manifest);
    assert_ne!(manifest, stripped, "manifest lost its wall_ms lines");
    compare_or_update(
        &golden_dir().join(format!("{artifact}.manifest.json")),
        &stripped,
        &format!("{artifact}.manifest.json"),
    );

    let _ = fs::remove_dir_all(&tmp);
}

#[test]
fn fig05_quick_artifacts_match_golden() {
    check_artifacts(env!("CARGO_BIN_EXE_fig05_occupancy_vs_delay"), "fig05");
}

#[test]
fn fig07_quick_artifacts_match_golden() {
    check_artifacts(env!("CARGO_BIN_EXE_fig07_occupancy_cdfs"), "fig07");
}

#[test]
fn table1_quick_artifacts_match_golden() {
    check_artifacts(env!("CARGO_BIN_EXE_table1_homes"), "table1");
}

// The power machinery's extensions: the §6 occupancy capper, §8c
// time-division fleet, §8b silent-slot policy and §8d power-DoS attacker,
// plus the two sweeps that disable a built office's injectors and spawn
// their own.

#[test]
fn occupancy_cap_quick_artifacts_match_golden() {
    check_artifacts(env!("CARGO_BIN_EXE_abl_occupancy_cap"), "abl_occupancy_cap");
}

#[test]
fn multi_router_quick_artifacts_match_golden() {
    check_artifacts(env!("CARGO_BIN_EXE_abl_multi_router"), "abl_multi_router");
}

#[test]
fn silent_slot_quick_artifacts_match_golden() {
    check_artifacts(env!("CARGO_BIN_EXE_abl_silent_slot"), "abl_silent_slot");
}

#[test]
fn pdos_quick_artifacts_match_golden() {
    check_artifacts(env!("CARGO_BIN_EXE_abl_pdos"), "abl_pdos");
}

#[test]
fn queue_threshold_quick_artifacts_match_golden() {
    check_artifacts(
        env!("CARGO_BIN_EXE_abl_queue_threshold"),
        "abl_queue_threshold",
    );
}

#[test]
fn power_bitrate_quick_artifacts_match_golden() {
    check_artifacts(env!("CARGO_BIN_EXE_abl_power_bitrate"), "abl_power_bitrate");
}
