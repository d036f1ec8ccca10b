//! Crash-resume loopback for the checkpointed fleet path (`powifi-fleetd
//! --checkpoint-dir`): a fleet killed mid-run leaves per-deployment
//! checkpoint chains (possibly with a torn tail from the write the crash
//! interrupted) and, restarted over the same directory, must resume each
//! deployment from its newest valid checkpoint and finish with outputs and
//! chain files byte-identical to an uninterrupted fleet's — the deploy
//! layer's restore-then-run invariant, end to end through `serve_fleet`'s
//! real TCP loopback.
//!
//! The post-crash disk state is constructed from the uninterrupted run's
//! chain prefix: by determinism those are exactly the bytes a killed
//! daemon would have left behind, and the torn tail is simulated by
//! truncating the next file mid-write.

use powifi_bench::ckpt_run::{self, CkptPolicy};
use powifi_bench::fleet::{
    fleet_session, record_stream, run_fleet, serve_fleet, DeploymentOutput, FleetConfig,
};
use powifi_bench::replay;
use powifi_sim::obs::stream::{self, Egress};
use std::fs;
use std::io::Write;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Two-deployment fleet (d0 = PoWiFi/UDP, d1 = Baseline/TCP), 2 sim-secs
/// at 500 ms epochs → 4 epochs per deployment, checkpointed every epoch.
fn ckpt_fleet(dir: &Path) -> FleetConfig {
    let mut cfg = FleetConfig::default_fleet(2, 42, 2);
    cfg.ckpt = Some(CkptPolicy {
        dir: dir.to_path_buf(),
        every: 1,
    });
    cfg
}

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("powifi-fleetres-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// A `Write` sink into a shared byte buffer, for in-process capture.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Run the fleet in-process, returning outputs and the captured NDJSON.
fn run_in_process(cfg: &FleetConfig) -> (Vec<DeploymentOutput>, String) {
    let egress = Egress::with_default_cap();
    egress.push_raw(&fleet_session(cfg.seed).header_line());
    let buf = Arc::new(Mutex::new(Vec::new()));
    let writer = stream::spawn_writer(Arc::clone(&egress), SharedBuf(Arc::clone(&buf)));
    let outputs = run_fleet(&egress, cfg);
    egress.close();
    writer.join().unwrap();
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    (outputs, text)
}

fn ckpt_lines(capture: &str) -> Vec<&str> {
    capture
        .lines()
        .filter(|l| l.contains("\"kind\":\"ckpt\""))
        .collect()
}

#[test]
fn killed_fleet_resumes_to_byte_identical_chains() {
    // --- Uninterrupted reference run (in-process). -----------------------
    let dir_a = tmp("straight");
    let (out_a, capture_a) = run_in_process(&ckpt_fleet(&dir_a));
    for name in ["d0", "d1"] {
        let chain = ckpt_run::chain(&dir_a, Some(name)).unwrap();
        assert_eq!(
            chain.iter().map(|&(e, _)| e).collect::<Vec<_>>(),
            [1, 2, 3, 4],
            "straight run must checkpoint {name} every epoch"
        );
    }
    // Every chain write was announced on the wire: 4 epochs × 2 deployments.
    assert_eq!(ckpt_lines(&capture_a).len(), 8);

    // --- The "kill": both deployments got through epoch 2; the crash tore
    // d0's epoch-3 write mid-file. --------------------------------------
    let dir_b = tmp("killed");
    fs::create_dir_all(&dir_b).unwrap();
    for name in ["d0", "d1"] {
        for (epoch, path) in ckpt_run::chain(&dir_a, Some(name)).unwrap() {
            if epoch <= 2 {
                fs::copy(&path, ckpt_run::chain_path(&dir_b, name, epoch)).unwrap();
            }
        }
    }
    let e3 = fs::read(ckpt_run::chain_path(&dir_a, "d0", 3)).unwrap();
    fs::write(ckpt_run::chain_path(&dir_b, "d0", 3), &e3[..e3.len() / 2]).unwrap();

    // --- Restart over the same directory, through the real TCP loopback
    // (the `powifi-fleetd` serving path). --------------------------------
    let cfg_b = ckpt_fleet(&dir_b);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let recorder = thread::spawn(move || {
        let mut capture = Vec::new();
        record_stream(&addr, &mut capture).unwrap();
        String::from_utf8(capture).unwrap()
    });
    let summary = serve_fleet(&listener, &cfg_b, 1).unwrap();
    let capture_b = recorder.join().unwrap();
    assert_eq!(summary.dropped, 0, "egress dropped records");

    // Outputs match the uninterrupted fleet exactly.
    assert_eq!(summary.outputs.len(), out_a.len());
    for (a, b) in out_a.iter().zip(&summary.outputs) {
        assert_eq!(a.name, b.name);
        assert_eq!(
            a.throughput_mbps, b.throughput_mbps,
            "deployment {} throughput diverged after resume",
            a.name
        );
    }

    // The resumed fleet re-wrote only what the crash lost: the torn
    // epoch-3 file and everything after it, byte-identical to the straight
    // run's files.
    for name in ["d0", "d1"] {
        for epoch in 1..=4u64 {
            let fa = fs::read(ckpt_run::chain_path(&dir_a, name, epoch)).unwrap();
            let fb = fs::read(ckpt_run::chain_path(&dir_b, name, epoch)).unwrap();
            assert_eq!(
                fa, fb,
                "chain file {name}@{epoch} diverged between straight and resumed runs"
            );
        }
    }

    // The resumed run announced only its post-resume writes (epochs 3–4 of
    // each deployment), and each announcement carries the state hash that
    // the chain file's container header declares.
    let lines_b = ckpt_lines(&capture_b);
    assert_eq!(lines_b.len(), 4, "resume re-runs epochs 3-4 of d0 and d1");
    for name in ["d0", "d1"] {
        for epoch in [3u64, 4] {
            let hash = replay::header_hash(&ckpt_run::chain_path(&dir_b, name, epoch)).unwrap();
            assert!(
                lines_b.iter().any(|l| {
                    l.contains(&format!("\"deployment\":\"{name}\""))
                        && l.contains(&format!("\"epoch\":{epoch},\"hash\":\"{hash}\""))
                }),
                "no ckpt record for {name}@{epoch} with hash {hash} in:\n{capture_b}"
            );
        }
    }

    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

/// Chain files and their bytes, sorted.
fn chain_bytes(dir: &Path) -> Vec<(u64, Vec<u8>)> {
    let files = ckpt_run::chain(dir, None).unwrap().into_iter();
    files.map(|(e, p)| (e, fs::read(p).unwrap())).collect()
}

/// `powifi-fleetd` over a chain written for another seed exits 2 before it
/// binds, naming the file, and leaves the chain as it was — rather than
/// accepting a subscriber and panicking its workers.
#[test]
fn fleetd_refuses_another_seeds_chain_before_binding() {
    let dir = tmp("other-seed");
    run_in_process(&ckpt_fleet(&dir));
    let before = chain_bytes(&dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_powifi-fleetd"))
        .args(["--listen", "127.0.0.1:0", "--seed", "1", "--secs", "2"])
        .args(["--checkpoint-every", "1", "--checkpoint-dir"])
        .arg(&dir)
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().unwrap().is_none() && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(20));
    }
    // A daemon still waiting for a subscriber is killed and has no code.
    let _ = child.kill();
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    for want in ["error:", "d0.ckpt-000004", "usage: powifi-fleetd"] {
        assert!(stderr.contains(want), "no `{want}` in:\n{stderr}");
    }
    let unchanged = chain_bytes(&dir) == before;
    assert!(unchanged, "the refused run changed the chain");
    let _ = fs::remove_dir_all(&dir);
}
