//! Error-path tests for the shared bench CLI: every malformed invocation
//! must exit with code 2 and print the usage line to stderr, without
//! running any experiment. Exercised against a real binary so the
//! `BenchArgs::parse` → `process::exit` wiring is covered, not just
//! `parse_from`.

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
