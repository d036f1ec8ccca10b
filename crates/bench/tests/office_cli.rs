//! `powifi-office` is the one sweep binary that takes the checkpoint flags:
//! `--checkpoint-every` with `--ckpt-dir` writes a chain, `--resume` picks
//! up one of its files and records that in the manifest, a cadence of
//! zero is a usage error, and `--help` prints the office's own usage.

use serde::Value;
use std::fs;
use std::path::Path;
use std::process::{Command, Output};

fn office(args: &[&str], json: Option<&Path>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_powifi-office"));
    cmd.args(["--secs", "2", "--epoch-ms", "500", "--jobs", "1"])
        .args(args);
    if let Some(dir) = json {
        cmd.arg("--json").arg(dir);
    }
    cmd.output().expect("spawn powifi-office")
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `key` of a JSON object.
fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => &fields.iter().find(|(k, _)| k == key).unwrap().1,
        other => panic!("{key}: not an object: {other:?}"),
    }
}

fn read_json(path: &Path) -> Value {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).unwrap()
}

/// The final state hash in a run's points artifact.
fn final_hash(json: &Path) -> Value {
    let points = read_json(&json.join("office.points.json"));
    let Value::Array(points) = points else {
        panic!("points artifact is not an array");
    };
    get(get(&points[0], "output"), "final_hash").clone()
}

#[test]
fn checkpoint_flags_write_a_chain_resume_from_it_and_refuse_zero() {
    let dir = std::env::temp_dir().join(format!("powifi-office-cli-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let (chain, straight, resumed) = (dir.join("chain"), dir.join("straight"), dir.join("resumed"));

    let chain_arg = chain.to_str().unwrap();
    let out = office(
        &["--checkpoint-every", "1", "--ckpt-dir", chain_arg],
        Some(&straight),
    );
    assert_ok(&out, "checkpointed run");
    let mut files: Vec<String> = fs::read_dir(&chain)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(
        files,
        (1..=4)
            .map(|e| format!("office.ckpt-{e:06}"))
            .collect::<Vec<_>>()
    );
    let manifest = read_json(&straight.join("office.manifest.json"));
    assert_eq!(get(&manifest, "resumed_from"), &Value::Null);

    let file = chain.join("office.ckpt-000002");
    let out = office(&["--resume", file.to_str().unwrap()], Some(&resumed));
    assert_ok(&out, "resumed run");
    let manifest = read_json(&resumed.join("office.manifest.json"));
    assert_eq!(
        get(get(&manifest, "resumed_from"), "epoch"),
        &Value::UInt(2)
    );
    assert_eq!(
        final_hash(&resumed),
        final_hash(&straight),
        "a resumed run must end where the straight run did"
    );
    let _ = fs::remove_dir_all(&dir);

    let out = office(&["--checkpoint-every", "0"], None);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

/// `--help` and `-h` answer with the office's usage line, which names its
/// own flags, rather than the shared sweep flags alone.
#[test]
fn help_prints_the_office_usage() {
    for flag in ["--help", "-h"] {
        let out = office(&[flag], None);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{flag}: stderr:\n{stderr}");
        for want in ["usage: powifi-office", "--checkpoint-every"] {
            assert!(stderr.contains(want), "{flag}: no `{want}` in:\n{stderr}");
        }
    }
}
