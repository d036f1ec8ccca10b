//! Error-path tests for the shared bench CLI: every malformed invocation
//! must exit with code 2 and print the usage line to stderr, without
//! running any experiment. Exercised against a real binary so the
//! `BenchArgs::parse` → `process::exit` wiring is covered, not just
//! `parse_from`; the last test holds every binary of the crate to the
//! same contract.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_fig05_occupancy_vs_delay");

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn bench binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(args: &[&str], expect_in_stderr: &str) {
    let (code, _stdout, stderr) = run(args);
    assert_eq!(code, Some(2), "{args:?} should exit 2, stderr:\n{stderr}");
    assert!(
        stderr.contains("usage:"),
        "{args:?} should print usage on stderr, got:\n{stderr}"
    );
    assert!(
        stderr.contains(expect_in_stderr),
        "{args:?} stderr should mention {expect_in_stderr:?}, got:\n{stderr}"
    );
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    assert_usage_error(&["--frobnicate"], "unknown argument");
}

#[test]
fn jobs_zero_exits_2_with_usage() {
    assert_usage_error(&["--jobs", "0"], "--jobs needs a positive integer");
}

#[test]
fn jobs_non_numeric_exits_2_with_usage() {
    assert_usage_error(&["--jobs", "abc"], "--jobs needs a positive integer");
}

#[test]
fn filter_missing_value_exits_2_with_usage() {
    assert_usage_error(&["--filter"], "--filter needs a substring");
}

#[test]
fn seed_non_numeric_exits_2_with_usage() {
    assert_usage_error(&["--seed", "abc"], "--seed needs an integer");
}

#[test]
fn json_missing_dir_exits_2_with_usage() {
    assert_usage_error(&["--json"], "--json needs a dir");
}

// Only `powifi-office` checkpoints; every other sweep binary refuses the
// checkpoint flags rather than accepting and ignoring them.

#[test]
fn checkpoint_every_exits_2_with_usage() {
    assert_usage_error(
        &["--checkpoint-every", "2", "--ckpt-dir", "chain"],
        "unknown argument `--checkpoint-every`",
    );
}

#[test]
fn ckpt_dir_exits_2_with_usage() {
    assert_usage_error(&["--ckpt-dir", "chain"], "unknown argument `--ckpt-dir`");
}

#[test]
fn resume_exits_2_with_usage() {
    assert_usage_error(
        &["--resume", "/nonexistent/office.ckpt-000002"],
        "unknown argument `--resume`",
    );
}

#[test]
fn help_exits_0_with_usage() {
    let (code, _stdout, stderr) = run(&["--help"]);
    assert_eq!(code, Some(0), "--help should exit 0");
    assert!(stderr.contains("usage:"), "--help should print usage");
}

/// The path of each binary this crate builds.
macro_rules! bins {
    ($($name:literal),* $(,)?) => {
        [$(($name, env!(concat!("CARGO_BIN_EXE_", $name)))),*]
    };
}

/// Every binary answers `--help` with its usage on stderr and exit 0, and
/// refuses an unknown flag or a valued flag missing its value with
/// `error:`, the usage on stderr and exit 2, writing nothing to stdout
/// either way. Each row is answered before any work starts.
#[test]
fn every_binary_keeps_one_cli_contract() {
    let bins = bins![
        "abl_backscatter",
        "abl_bg_timing",
        "abl_mppt",
        "abl_multi_router",
        "abl_multiband",
        "abl_multichannel",
        "abl_occupancy_cap",
        "abl_pdos",
        "abl_power_bitrate",
        "abl_queue_threshold",
        "abl_silent_slot",
        "city",
        "fig01_rectifier_trace",
        "fig05_occupancy_vs_delay",
        "fig06a_udp_throughput",
        "fig06b_tcp_cdf",
        "fig06c_plt",
        "fig07_occupancy_cdfs",
        "fig08_neighbor_fairness",
        "fig09_return_loss",
        "fig10_harvester_power",
        "fig11_temp_update_rate",
        "fig12_camera_interframe",
        "fig13_through_wall",
        "fig14_home_occupancy",
        "fig15_home_update_rates",
        "fig16_usb_charger",
        "table1_homes",
        "powifi-fleetd",
        "powifi-obs",
        "powifi-office",
        "powifi_plan",
    ];
    // The planner refuses a distance or occupancy that is not a finite,
    // non-negative number.
    let plan_values: Vec<[&str; 2]> = ["--distance-ft", "--occupancy"]
        .into_iter()
        .flat_map(|flag| ["nan", "inf", "-5"].map(|v| [flag, v]))
        .collect();
    for (name, bin) in bins {
        let mut rows: Vec<(&[&str], i32)> = vec![(&["--help"], 0), (&["--frobnicate"], 2)];
        match name {
            "powifi_plan" => {
                rows.push((&["--wall"], 2));
                rows.extend(plan_values.iter().map(|r| (&r[..], 2)));
            }
            "powifi-obs" => rows.push((&["prof", "top", "--limit"], 2)),
            _ => rows.push((&["--seed"], 2)),
        }
        for (args, code) in rows {
            let out = Command::new(bin).args(args).output().expect("spawn");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let context = format!("{name} {args:?}: stderr:\n{stderr}");
            assert_eq!(out.status.code(), Some(code), "{context}");
            assert!(out.stdout.is_empty(), "{context}\nstdout not empty");
            assert!(stderr.contains("usage:"), "{context}");
            assert_eq!(stderr.contains("error:"), code == 2, "{context}");
        }
    }
}
