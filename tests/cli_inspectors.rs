//! `powifi-fuzz --replay` writes the same artifacts the sweeps do: a
//! `--trace` capture and, with `--prof`, the span tree in the format of
//! `powifi-obs prof tree`. The inspector's own exit codes are pinned in
//! the bench crate's `tests/cli_inspectors.rs`, and the command-line
//! contract every bench binary keeps in its `tests/cli_errors.rs`;
//! `powifi-fuzz` keeps it too.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

const FUZZ_BIN: &str = env!("CARGO_BIN_EXE_powifi-fuzz");

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("powifi-cli-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

#[test]
fn fuzz_replay_supports_trace_and_prof() {
    let dir = tmp_dir("fuzz-replay");
    let trace = dir.join("replay.trace.jsonl");
    let out = Command::new(FUZZ_BIN)
        .args([
            "--replay",
            "3",
            "--trace",
            trace.to_str().unwrap(),
            "--prof",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "clean replay must exit 0: stderr={}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("sim.event"),
        "--prof must print the span tree: {stdout}"
    );
    let jsonl = fs::read_to_string(&trace).expect("--trace file written");
    assert!(jsonl.contains("\"layer\":\"mac\""), "trace has MAC records");

    // --trace/--prof outside --replay is a usage error.
    let bad = Command::new(FUZZ_BIN).arg("--prof").output().unwrap();
    assert_eq!(bad.status.code(), Some(2));
    let _ = fs::remove_dir_all(&dir);
}

/// `--help` prints the usage on stderr and exits 0; an unknown flag, a
/// valued flag missing its value and a `--prof` outside `--replay` print
/// `error:` and the usage on stderr and exit 2. None writes to stdout.
#[test]
fn fuzz_keeps_the_cli_contract() {
    for (args, code) in [
        (&["--help"][..], 0),
        (&["--frobnicate"][..], 2),
        (&["--seed"][..], 2),
        (&["--prof"][..], 2),
    ] {
        let out = Command::new(FUZZ_BIN).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        let context = format!("{args:?}: stderr:\n{stderr}");
        assert_eq!(out.status.code(), Some(code), "{context}");
        assert!(out.stdout.is_empty(), "{context}\nstdout not empty");
        assert!(stderr.contains("usage: powifi-fuzz"), "{context}");
        assert_eq!(stderr.contains("error:"), code == 2, "{context}");
    }
}
