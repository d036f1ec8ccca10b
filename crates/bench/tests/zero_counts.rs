//! A count of zero is refused, not raised to one: `powifi-fleetd` and
//! `powifi-office` exit 2 with the usage line on every count flag set to
//! zero, as the sweep binaries already do for `--jobs 0`. So is a
//! duration whose nanoseconds overflow a `u64`. (The inspector's
//! `--window-ms` rows are in `cli_inspectors.rs`.)

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `bin` with `args` and return its exit code and stderr. A run still
/// going after 10 s is killed and reported as `None`: a daemon that took
/// its flags waits for subscribers instead of exiting.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let start = Instant::now();
    let code = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status.code();
        }
        if start.elapsed() > Duration::from_secs(10) {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    let _ = child.stderr.take().unwrap().read_to_string(&mut stderr);
    (code, stderr)
}

const MAX: &str = "18446744073709551615";

/// Each row sets one flag to each of its values; every one must exit 2
/// with the usage line and say why: zero is not a positive integer, and
/// `u64::MAX` overflows a duration's nanoseconds.
fn assert_refused(bin: &str, usage: &str, base: &[&str], rows: &[(&str, &[&str])]) {
    for (flag, values) in rows {
        for value in *values {
            let args: Vec<&str> = base.iter().copied().chain([*flag, *value]).collect();
            let (code, stderr) = run(bin, &args);
            assert_eq!(code, Some(2), "{args:?}: stderr:\n{stderr}");
            let why = match *value {
                "0" => format!("{flag} needs a positive integer"),
                _ => format!("{flag} {value} overflows 64-bit nanoseconds"),
            };
            assert!(
                stderr.contains(&why) && stderr.contains(usage),
                "{args:?}: stderr:\n{stderr}"
            );
        }
    }
}

#[test]
fn fleetd_refuses_zero_counts() {
    assert_refused(
        env!("CARGO_BIN_EXE_powifi-fleetd"),
        "usage: powifi-fleetd",
        &["--listen", "127.0.0.1:0"],
        &[
            ("--checkpoint-every", &["0"]),
            ("--deployments", &["0"]),
            ("--secs", &["0", MAX]),
            ("--epoch-ms", &["0", MAX]),
            ("--jobs", &["0"]),
            ("--subscribers", &["0"]),
        ],
    );
}

#[test]
fn office_refuses_zero_counts() {
    assert_refused(
        env!("CARGO_BIN_EXE_powifi-office"),
        "usage: powifi-office",
        &["--secs", "1", "--jobs", "1"],
        &[("--epoch-ms", &["0", MAX]), ("--secs", &[MAX])],
    );
}
