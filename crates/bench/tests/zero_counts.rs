//! A count of zero is refused, not raised to one: `powifi-fleetd` and
//! `powifi-office` exit 2 with the usage line on every count flag set to
//! zero, as the sweep binaries already do for `--jobs 0`. (The
//! inspector's `--window-ms 0` row is in `cli_inspectors.rs`.)

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

/// Each row sets one count flag to zero; every one must exit 2 with the
/// usage line and name the flag.
fn assert_refused(bin: &str, usage: &str, base: &[&str], flags: &[&str]) {
    for flag in flags {
        let args: Vec<&str> = base.iter().copied().chain([*flag, "0"]).collect();
        let (code, stderr) = run(bin, &args);
        assert_eq!(code, Some(2), "{args:?}: stderr:\n{stderr}");
        assert!(
            stderr.contains(&format!("{flag} needs a positive integer")) && stderr.contains(usage),
            "{args:?}: stderr:\n{stderr}"
        );
    }
}

#[test]
fn fleetd_refuses_zero_counts() {
    assert_refused(
        env!("CARGO_BIN_EXE_powifi-fleetd"),
        "usage: powifi-fleetd",
        &["--listen", "127.0.0.1:0"],
        &[
            "--checkpoint-every",
            "--deployments",
            "--secs",
            "--epoch-ms",
            "--jobs",
            "--subscribers",
        ],
    );
}

#[test]
fn office_refuses_zero_counts() {
    assert_refused(
        env!("CARGO_BIN_EXE_powifi-office"),
        "usage: powifi-office",
        &["--secs", "1", "--jobs", "1"],
        &["--epoch-ms"],
    );
}
